//! `wire_mixed`: reads beside writes on one 2-shard logged server. A
//! closed-loop phase gives the mix's capacity; two open-loop phases at
//! frozen rates give read latency under light load and the share of all
//! requests that meet the latency limit under heavier load.

use super::net;
use super::{Ctx, LabData, LabInput, Outcome, Timings};
use crate::harness::{
    self, digest_statements, Birds, Checks, Fixture, Rng, Schedule, Served, SERVER_SHARDS, SLO_MS,
};
use crate::stats::{self, Latency};
use insightnotes_client::Client;
use insightnotes_common::wire::{Request, Response};
use insightnotes_server::ServerConfig;
use insightnotes_workload::{ingest_script, zoomin_reference_stream, IngestConfig};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BIRDS: usize = 2000;
const ANNS_PER_ROW: usize = 30;
const CONNECTIONS: usize = 2;
const CLOSED_DEPTH: usize = 8;
/// Small results registered at set-up; the zoom-ins' working set, which
/// fits the zoom cache.
const ZOOM_TARGETS: usize = 16;
/// The router's zoom registry hands out QIDs from 101 in registration order.
const FIRST_QID: u64 = 101;
/// Every SELECT's result goes into the 16 MiB zoom cache, and a full cache
/// evicts on every insert. This many untimed requests fill it, so that the
/// timed phases all run in that steady state.
const WARM_REQUESTS: usize = 6000;

/// Frozen on the 2-core build host: the closed loop's request count per
/// second of `--seconds`, and the open-loop rates, about 25 % and 40 % of
/// the closed loop's throughput there. From about 50 % on, the share of
/// requests within the latency limit falls steeply with the rate, and a
/// neighbour slowing the host by a tenth moved it from 100 to 90 %; the
/// higher rate stays clear of that edge, so that the share drops only when
/// capacity itself has dropped by a quarter. Each phase's request count is its
/// rate times its share of `--seconds`.
const CLOSED_OPS_PER_SECOND: f64 = 1800.0;
const RATE_LO: f64 = 450.0;
const RATE_HI: f64 = 720.0;
const SHARE_CLOSED: f64 = 0.3;
const SHARE_LO: f64 = 0.35;
const SHARE_HI: f64 = 0.35;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Point,
    Scan,
    Zoom,
    Annotate,
}

struct Input {
    setup: Vec<String>,
    preload: Vec<String>,
    zoom_targets: Vec<String>,
    classes: Vec<Class>,
    requests: Vec<Request>,
}

/// 75 % point SELECT, 5 % filtered scan, 10 % ZOOMIN, 10 % Annotate.
fn generate(ctx: &Ctx, total: usize) -> Input {
    let mut rng = Rng::new(ctx.seed ^ 0x0011_11ED);
    let classes: Vec<Class> = (0..total)
        .map(|_| match rng.next_u64() % 100 {
            0..=74 => Class::Point,
            75..=79 => Class::Scan,
            80..=89 => Class::Zoom,
            _ => Class::Annotate,
        })
        .collect();
    let annotates = classes.iter().filter(|c| **c == Class::Annotate).count();
    let zooms = classes.iter().filter(|c| **c == Class::Zoom).count();
    let preload_len = BIRDS * ANNS_PER_ROW;
    let mut script = ingest_script(&IngestConfig {
        seed: ctx.seed,
        writers: 1,
        annotations_per_writer: preload_len + annotates,
        num_birds: BIRDS,
        skew: 0.0,
    });
    let mut stream = script.clients.remove(0);
    let mut writes = stream.split_off(preload_len).into_iter();

    // The table the script creates, read back so that scans keep a fixed
    // share of the rows whatever the seed.
    let table = Fixture::load(
        &ctx.scratch.join("mixed-table"),
        1,
        false,
        &script.setup,
        &[],
    );
    let birds = harness::with_embedded(&table, |db| Birds::read(db, ANNS_PER_ROW));

    let zoom_targets: Vec<String> = (0..ZOOM_TARGETS)
        .map(|_| {
            birds
                .point(&mut rng)
                .replace("name, weight", "name, region")
        })
        .collect();
    let qids: Vec<u64> = (FIRST_QID..FIRST_QID + ZOOM_TARGETS as u64).collect();
    let mut zoom_qids = zoomin_reference_stream(ctx.seed ^ 0x200, &qids, zooms.max(1)).into_iter();
    let mut scans = 0;
    let requests = classes
        .iter()
        .map(|class| match class {
            Class::Point => Request::Query {
                sql: birds.point(&mut rng),
            },
            // 1 to 3 % of the rows: a scan a reactor thread finishes in a
            // few milliseconds, not the pass-sized one `spj_propagation` runs.
            Class::Scan => {
                scans += 1;
                Request::Query {
                    sql: birds.scan([0.01, 0.03, 0.02][scans % 3]),
                }
            }
            Class::Zoom => Request::ZoomIn {
                sql: format!(
                    "ZOOMIN REFERENCE QID {} ON ClassBird1 LABEL 'Disease'",
                    zoom_qids.next().expect("one QID per zoom-in")
                ),
            },
            Class::Annotate => Request::Annotate {
                sql: writes.next().expect("one statement per annotate"),
            },
        })
        .collect();
    Input {
        setup: script.setup,
        preload: stream,
        zoom_targets,
        classes,
        requests,
    }
}

struct OpenPhase {
    /// Latency in ms from the due time, per slot; `None` if not answered.
    latency_ms: Vec<Option<f64>>,
    lags_ms: Vec<f64>,
}

fn closed_phase(served: &Served, requests: &[Request]) -> Vec<net::LoopResult> {
    let per = requests.len() / CONNECTIONS;
    let slices: Vec<&[Request]> = requests.chunks_exact(per).collect();
    net::closed_loops(served.addr, &slices, CLOSED_DEPTH)
}

fn open_phase(served: &Served, requests: &[Request], rate: f64) -> OpenPhase {
    let schedule = Schedule::per_second(Instant::now() + Duration::from_millis(20), rate);
    let latency_ms = Mutex::new(vec![None; requests.len()]);
    let lags_ms = std::thread::scope(|scope| {
        let senders: Vec<_> = net::round_robin(requests.len(), CONNECTIONS)
            .into_iter()
            .map(|slots| {
                let latency_ms = &latency_ms;
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(slots.len());
                    let lags = net::open_loop(
                        served.addr,
                        requests,
                        &slots,
                        schedule,
                        |slot, response: Response, at| {
                            if net::answers(&requests[slot], &response) {
                                let due = schedule.due(slot);
                                mine.push((slot, (at - due).as_secs_f64() * 1e3));
                            }
                        },
                    );
                    let mut all = latency_ms.lock().expect("latency list");
                    for (slot, latency) in mine {
                        all[slot] = Some(latency);
                    }
                    lags
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|s| s.join().expect("open-loop thread"))
            .collect()
    });
    OpenPhase {
        latency_ms: latency_ms.into_inner().expect("latency list"),
        lags_ms,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let closed = ctx.count(CLOSED_OPS_PER_SECOND * SHARE_CLOSED) / CONNECTIONS * CONNECTIONS;
    let lo = ctx.count(RATE_LO * SHARE_LO);
    let hi = ctx.count(RATE_HI * SHARE_HI);
    let total = WARM_REQUESTS + closed + lo + hi;
    let input = generate(ctx, total);
    let input_digest = digest_statements(
        input
            .setup
            .iter()
            .chain(&input.preload)
            .chain(&input.zoom_targets)
            .chain(input.requests.iter().filter_map(|r| match r {
                Request::Query { sql } | Request::ZoomIn { sql } | Request::Annotate { sql } => {
                    Some(sql)
                }
                _ => None,
            })),
    );

    let root = ctx.scratch.join("mixed");
    let mut checks = Checks::default();
    let (served, setup_s): (Served, f64) = harness::repeat_setup(ctx.quick, || {
        let db = Fixture::load(&root, SERVER_SHARDS, true, &input.setup, &input.preload);
        harness::checkpoint(&db, &root);
        harness::serve(db, ServerConfig::default())
    });
    let fx = Fixture::new(&root, Arc::clone(&served.db));
    // Register the zoom targets; the generated ZOOMINs name their QIDs.
    let mut client = Client::connect(served.addr).expect("connect");
    for (i, sql) in input.zoom_targets.iter().enumerate() {
        let rows = client.query(sql).expect("zoom target query");
        checks.require(
            rows.qid == FIRST_QID + i as u64 && rows.rows.len() == 1,
            || format!("zoom target {i} registered as QID {}", rows.qid),
        );
    }
    drop(client);

    let (warm_requests, rest) = input.requests.split_at(WARM_REQUESTS);
    let (closed_requests, rest) = rest.split_at(closed);
    let (lo_requests, hi_requests) = rest.split_at(lo);
    let warm_phase = closed_phase(&served, warm_requests);
    let closed_results = closed_phase(&served, closed_requests);
    let lo_phase = open_phase(&served, lo_requests, RATE_LO);
    let hi_phase = open_phase(&served, hi_requests, RATE_HI);
    let served_requests = served.stop();

    let failed = warm_phase.iter().map(net::LoopResult::failed).sum::<u64>()
        + closed_results
            .iter()
            .map(net::LoopResult::failed)
            .sum::<u64>()
        + (lo_phase.latency_ms.iter().chain(&hi_phase.latency_ms))
            .filter(|l| l.is_none())
            .count() as u64;
    let annotates = input
        .classes
        .iter()
        .filter(|c| **c == Class::Annotate)
        .count();
    let stored = fx.db.annotation_count();
    checks.require(
        failed == 0 && stored == input.preload.len() + annotates,
        || {
            format!(
                "{total} requests, {failed} failed; {stored} annotations stored, {} expected",
                input.preload.len() + annotates
            )
        },
    );
    checks.require(served_requests as usize >= total, || {
        format!("server counted {served_requests} requests for {total} sent")
    });

    let mut lags: Vec<f64> = lo_phase
        .lags_ms
        .iter()
        .chain(&hi_phase.lags_ms)
        .copied()
        .collect();
    lags.sort_by(|a, b| a.partial_cmp(b).expect("finite lag"));
    let lo_classes = &input.classes[WARM_REQUESTS + closed..][..lo];
    // Point reads only: scans are a twentieth of the reads, so a tail taken
    // over all reads would sit exactly where the scans' mode begins.
    let reads_lo: Vec<f64> = lo_phase
        .latency_ms
        .iter()
        .zip(lo_classes)
        .filter(|(_, class)| **class == Class::Point)
        .filter_map(|(latency, _)| *latency)
        .collect();
    let closed_timings = Timings::from_parts(
        net::interleaved_latencies(&closed_results),
        net::merged_done_at(&closed_results),
    );
    let durability = harness::durability_epilogue(&fx, ctx.quick, &mut checks);
    let sqls = |wanted: fn(Class) -> bool| -> Vec<String> {
        input
            .requests
            .iter()
            .zip(&input.classes)
            .filter(|(_, c)| wanted(**c))
            .filter_map(|(r, _)| r.sql().map(str::to_string))
            .take(2048)
            .collect()
    };
    Outcome {
        setup_s,
        ops_per_s: closed_timings.rate(),
        // The median is the unloaded point read's. The tail is the closed
        // loop's, over every request: at `r_lo` a point read's p95 falls
        // where "waited behind a scan or a commit" begins (5 to 10 % of
        // them do), and a percentile at a mode's edge swings by half from
        // run to run; sixteen requests in flight average that out.
        latency: Latency {
            p50: stats::median(&reads_lo),
            ..closed_timings.latency()
        },
        slo_met_pct: stats::within_pct_steady(&hi_phase.latency_ms, SLO_MS),
        durability,
        attempted: total as u64,
        failed,
        checks,
        frozen: vec![
            ("birds", BIRDS.to_string()),
            ("preloaded_anns_per_row", ANNS_PER_ROW.to_string()),
            ("warm_up_requests", WARM_REQUESTS.to_string()),
            ("closed_loop_requests", closed.to_string()),
            ("closed_loop_depth", CLOSED_DEPTH.to_string()),
            ("r_lo_per_s", RATE_LO.to_string()),
            ("r_lo_requests", lo.to_string()),
            ("r_hi_per_s", RATE_HI.to_string()),
            ("r_hi_requests", hi.to_string()),
            ("slo_ms", SLO_MS.to_string()),
        ],
        input_digest,
        sched_lag_p99_ms: stats::percentile(&lags, 99.0),
        shards: SERVER_SHARDS,
        lab: ctx.trace.then(|| LabInput {
            anns_per_row: ANNS_PER_ROW,
            data: LabData::Replay {
                setup: input.setup.clone(),
                annotations: input.preload.clone(),
            },
            reads: sqls(|c| matches!(c, Class::Point | Class::Scan)),
            writes: sqls(|c| c == Class::Annotate),
        }),
    }
}
