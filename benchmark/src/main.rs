//! The repo's benchmark: five workloads over the whole request path, a
//! handful of end-to-end metrics with regression bounds, and a traced run
//! that times each layer's public functions from outside. See README.md.

mod contract;
mod harness;
mod host;
mod lab;
mod stats;
mod trace;
mod workloads;

use contract::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Outcome};

const USAGE: &str = "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
[--scratch DIR]\n       benchmark --all [--repeat N] [--quick] [--seed N] [--trace 0|1]\n       \
benchmark --emit-contract";

struct Args {
    workload: Option<String>,
    all: bool,
    repeat: usize,
    quick: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: Option<PathBuf>,
    emit_contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        repeat: 1,
        quick: false,
        seed: contract::DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        scratch: None,
        emit_contract: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds {v}: must be in (0, 60]"));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: must be 0 or 1")),
                }
            }
            "--scratch" => args.scratch = Some(PathBuf::from(value()?)),
            "--repeat" => {
                let v = value()?;
                args.repeat = v.parse().map_err(|e| format!("--repeat {v}: {e}"))?;
            }
            "--all" => args.all = true,
            "--quick" => args.quick = true,
            "--emit-contract" => args.emit_contract = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.quick {
        args.seconds = f64::from(RUN_SECONDS) / 20.0;
    }
    Ok(args)
}

/// Default scratch: inside the cargo target directory, which the driver
/// and a plain checkout both keep out of the committed tree.
fn default_scratch() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark-scratch")
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end_metrics(o: &Outcome) -> Metrics {
    let value = |name: &str| match name {
        "setup_s" => o.setup_s,
        "rss_mb" => host::peak_rss_mb(),
        "ops_per_s" => o.ops_per_s,
        "op_p50_ms" => o.latency.p50,
        "op_tail_ms" => o.latency.tail,
        "slo_met_pct" => o.slo_met_pct,
        "recover_s" => o.durability.recover_s,
        "stored_bytes_per_ann" => o.durability.stored_bytes_per_ann,
        "summary_bytes_per_row" => o.durability.summary_bytes_per_row,
        other => unreachable!("end-to-end metric {other} has no source"),
    };
    END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect()
}

fn json_metrics(metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let scratch = args
        .scratch
        .clone()
        .unwrap_or_else(default_scratch)
        .join(name);
    host::fresh_dir(&scratch);
    let scratch = std::fs::canonicalize(&scratch).expect("scratch directory exists");
    // The product puts zoom caches of databases built without a cache
    // directory (a replica's, for one) under the system temp directory;
    // pointing that at the scratch keeps every write inside it. Set before
    // any thread starts.
    std::env::set_var("TMPDIR", host::fresh_dir(&scratch.join("tmp")));

    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        trace: args.trace,
        scratch: scratch.clone(),
    };
    let Some(mut outcome) = workloads::run(name, &ctx) else {
        eprintln!(
            "unknown workload {name}; one of: {}",
            workload_names().join(", ")
        );
        return ExitCode::from(2);
    };

    let header = [
        ("workload", name.to_string()),
        ("nproc", host::nproc().to_string()),
        ("commit", host::commit_hash()),
        ("shards", outcome.shards.to_string()),
        (
            "reactor_workers",
            format!("{} (ServerConfig::default: one per core)", host::nproc()),
        ),
        ("scratch_fs", host::fs_type(&scratch)),
        ("flush_policy", format!("{:?}", harness::FLUSH_POLICY)),
        ("seed", format!("{:#x}", args.seed)),
        ("seconds", args.seconds.to_string()),
        ("input_digest", format!("{:#010x}", outcome.input_digest)),
    ];
    let frozen = std::mem::take(&mut outcome.frozen);
    let pairs: Vec<(String, String)> = header
        .iter()
        .map(|(k, v)| ((*k).to_string(), v.clone()))
        .chain(
            frozen
                .iter()
                .map(|(k, v)| (format!("frozen.{k}"), v.clone())),
        )
        .collect();
    println!(
        "# {}",
        pairs
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "{{\"header\": {{{}}}}}",
        pairs
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(", ")
    );

    if args.seed == contract::DEFAULT_SEED && args.seconds == f64::from(RUN_SECONDS) {
        let pinned = contract::pinned_input_digest(name);
        outcome
            .checks
            .require(pinned == Some(outcome.input_digest), || {
                format!(
                    "inputs drifted: the generators now produce digest {:#010x} for the default \
                 seed, {pinned:#010x?} is pinned",
                    outcome.input_digest
                )
            });
    }
    // A generator that ran late offered a burstier load than its schedule
    // says. The run is flagged, not failed: the benchmark contract wants a
    // result line from every run, and latency counts from the due time, so
    // the lag is in the numbers either way.
    if outcome.sched_lag_p99_ms > 1.0 {
        println!(
            "INVALID: open-loop generator lag p99 {:.3} ms exceeds 1 ms",
            outcome.sched_lag_p99_ms
        );
    }

    let metrics: Metrics = if args.trace {
        // The traced run prints the end-to-end metrics too, for reading;
        // its result line carries the per-layer ones.
        for (metric, value, unit) in end_to_end_metrics(&outcome) {
            println!("(untraced-window) {metric} {value} {unit}");
        }
        let input = outcome.lab.take().expect("traced runs carry probe input");
        let layers = lab::run(input, &ctx, outcome.sched_lag_p99_ms, &mut outcome.checks);
        PER_LAYER
            .iter()
            .map(|m| {
                let value = layers
                    .get(m.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name));
                (m.name, *value, m.unit)
            })
            .collect()
    } else {
        end_to_end_metrics(&outcome)
    };
    for (metric, value, unit) in &metrics {
        println!("metric {metric} {value} {unit}");
    }
    println!(
        "# op_tail_ms is p{} of {} samples; {} output checks passed, {} failed",
        outcome.latency.tail_pct,
        outcome.latency.n,
        outcome.checks.passed,
        outcome.checks.failures.len()
    );
    for failure in &outcome.checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    let _ = std::fs::remove_dir_all(scratch.join("tmp"));

    let correct = outcome.checks.failures.is_empty() && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// `--all`: one child process per workload and repetition, so that peak
/// memory is each workload's own. With `--repeat`, prints both values of
/// every end-to-end metric, their relative spread and the bound.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for workload in workload_names() {
        let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
        for _ in 0..args.repeat.max(1) {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            if args.quick {
                cmd.arg("--quick");
            }
            if let Some(scratch) = &args.scratch {
                cmd.arg("--scratch").arg(scratch);
            }
            let out = cmd.output().expect("run workload process");
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            ok &= out.status.success();
            runs.push(
                text.lines()
                    .filter_map(|l| {
                        let mut f = l.strip_prefix("metric ")?.split(' ');
                        Some((f.next()?.to_string(), f.next()?.parse().ok()?))
                    })
                    .collect(),
            );
        }
        if args.repeat > 1 && !args.trace {
            println!("# {workload}: repeated values, spread (quartiles, or range below four runs) over median, bound");
            for m in &END_TO_END {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
                    .collect();
                let spread = stats::quartile_spread(&values);
                println!(
                    "repeat {workload} {} {values:?} spread {spread:.4} bound {} {}",
                    m.name,
                    m.bound,
                    if spread <= m.bound {
                        "within"
                    } else {
                        "EXCEEDS"
                    }
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit_contract {
        print!("{}", contract::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match (&args.workload, args.all) {
        (Some(name), false) => run_one(name, &args),
        (None, true) => run_all(&args),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
