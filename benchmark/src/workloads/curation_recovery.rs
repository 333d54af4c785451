//! `curation_recovery`: the annotation lifecycle on a logged embedded
//! database, serially, with the log forced every 64 statements the way a
//! committer forces it per drained group. The only workload with
//! decremental maintenance, and the one whose crash test replays half
//! its stream on top of a mid-run checkpoint.

use super::{Ctx, LabData, LabInput, Outcome, Timings};
use crate::harness::{self, digest_statements, ms, Checks, Fixture, Rng};
use insightnotes_workload::{curation_script, ingest_script, CurationConfig, IngestConfig};
use std::sync::Arc;
use std::time::Instant;

const BIRDS: usize = 500;
const ANNS_PER_ROW: usize = 60;
/// Statements between two forced log flushes.
const GROUP: usize = 64;
/// One statement in this many is a `HISTORY` read.
const HISTORY_EVERY: usize = 8;
/// Lifecycle statements per second of `--seconds` (the `HISTORY` reads
/// come on top); frozen on the 2-core build host.
const STATEMENTS_PER_SECOND: f64 = 5200.0;

struct Input {
    setup: Vec<String>,
    preload: Vec<String>,
    stream: Vec<String>,
}

fn generate(seed: u64, statements: usize) -> Input {
    let mut load = ingest_script(&IngestConfig {
        seed,
        writers: 1,
        annotations_per_writer: BIRDS * ANNS_PER_ROW,
        num_birds: BIRDS,
        skew: 0.0,
    });
    // No SELECT share: the lifecycle statements are the workload, and the
    // read beside them is HISTORY.
    let lifecycle = curation_script(&CurationConfig {
        seed,
        clients: 1,
        statements_per_client: statements,
        num_birds: BIRDS,
        add_ratio: 0.4,
        flag_ratio: 0.2,
        correct_ratio: 0.2,
        retract_ratio: 0.2,
    });
    let mut rng = Rng::new(seed ^ 0x415);
    let mut stream = Vec::with_capacity(statements + statements / HISTORY_EVERY);
    for (i, statement) in lifecycle.clients.into_iter().flatten().enumerate() {
        stream.push(statement);
        if (i + 1) % HISTORY_EVERY == 0 {
            stream.push(format!(
                "HISTORY ANNOTATION {}",
                rng.one_to(BIRDS * ANNS_PER_ROW)
            ));
        }
    }
    Input {
        setup: load.setup,
        preload: load.clients.remove(0),
        stream,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let input = generate(ctx.seed, ctx.count(STATEMENTS_PER_SECOND));
    let input_digest = digest_statements(
        input
            .setup
            .iter()
            .chain(&input.preload)
            .chain(&input.stream),
    );
    let root = ctx.scratch.join("curation");

    let (db, setup_s) = harness::repeat_setup(ctx.quick, || {
        Fixture::load(&root, 1, true, &input.setup, &input.preload)
    });
    let fx = Fixture::new(&root, Arc::new(db));

    let half = input.stream.len() / 2;
    let mut timings = Timings::start();
    for (i, statement) in input.stream.iter().enumerate() {
        if i == half {
            fx.checkpoint();
        }
        let start = Instant::now();
        let mut ok = fx.db.execute_sql(statement).is_ok();
        if (i + 1) % GROUP == 0 || i + 1 == input.stream.len() {
            ok &= fx.db.wal_sync_all().is_ok();
        }
        timings.record(ok.then(|| ms(start)));
    }
    let failed = timings.failed();

    let mut checks = Checks::default();
    let count = |prefix: &str| {
        input
            .stream
            .iter()
            .filter(|s| s.starts_with(prefix))
            .count()
    };
    let expected_live = input.preload.len() + count("ADD ANNOTATION") - count("RETRACT ANNOTATION");
    let expected_retired = count("RETRACT ANNOTATION") + count("CORRECT ANNOTATION");
    let stats_now = harness::with_embedded(&fx.db, |db| db.store().stats());
    checks.require(
        failed == 0 && stats_now.count == expected_live && stats_now.retired == expected_retired,
        || {
            format!(
                "{failed} statements failed; {} live and {} retired annotations, \
                 {expected_live} and {expected_retired} expected",
                stats_now.count, stats_now.retired
            )
        },
    );
    let durability = harness::durability_epilogue(&fx, ctx.quick, &mut checks);
    checks.require(durability.records_replayed > 0, || {
        "the crash test replayed no log record".into()
    });

    let attempted = input.stream.len();
    let writes: Vec<String> = input
        .stream
        .iter()
        .filter(|s| s.starts_with("ADD ANNOTATION"))
        .take(2048)
        .cloned()
        .collect();
    Outcome {
        setup_s,
        ops_per_s: timings.rate(),
        latency: timings.latency(),
        slo_met_pct: timings.slo_met_pct(),
        durability,
        attempted: attempted as u64,
        failed,
        checks,
        frozen: vec![
            ("birds", BIRDS.to_string()),
            ("preloaded_anns_per_row", ANNS_PER_ROW.to_string()),
            ("statements", attempted.to_string()),
            ("statements_per_flush", GROUP.to_string()),
            ("checkpoint_at_statement", half.to_string()),
        ],
        input_digest,
        sched_lag_p99_ms: 0.0,
        shards: 1,
        lab: ctx.trace.then(|| LabInput {
            anns_per_row: ANNS_PER_ROW,
            data: LabData::Live(Arc::clone(&fx.db)),
            reads: Vec::new(),
            writes,
        }),
    }
}
