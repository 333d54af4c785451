//! `wire_ingest`: the write path end to end. Two closed-loop pipelined
//! connections push single `Annotate` frames at a 2-shard logged server;
//! every ack waits for its shard's group fsync.

use super::net;
use super::{Ctx, LabData, LabInput, Outcome, Timings};
use crate::harness::{self, digest_statements, Checks, Fixture, Served, SERVER_SHARDS};
use insightnotes_client::Client;
use insightnotes_common::wire::Request;
use insightnotes_server::ServerConfig;
use insightnotes_workload::{ingest_script, IngestConfig};
use std::sync::Arc;

const BIRDS: usize = 2000;
const WRITERS: usize = 2;
const DEPTH: usize = 32;
/// Timed annotations per second of `--seconds`, over both writers; frozen
/// on the 2-core build host. 5 % more run untimed before the window, and
/// 5 % more after the checkpoint that follows it, so that the crash test
/// replays a log tail over a snapshot.
const ANNS_PER_SECOND: f64 = 25_000.0;
const UNTIMED_SHARE: f64 = 0.05;
/// The probes load about half the run's per-row volume: enough to be at
/// the workload's shape without paying its whole ingest a second time.
const LAB_ANNS_PER_ROW: usize = 50;

pub fn run(ctx: &Ctx) -> Outcome {
    let timed = ctx.count(ANNS_PER_SECOND / WRITERS as f64);
    let untimed = ((timed as f64 * UNTIMED_SHARE).round() as usize).max(1);
    let script = ingest_script(&IngestConfig {
        seed: ctx.seed,
        writers: WRITERS,
        annotations_per_writer: untimed + timed + untimed,
        num_birds: BIRDS,
        skew: 0.0,
    });
    let input_digest =
        digest_statements(script.setup.iter().chain(script.clients.iter().flatten()));
    let lab = ctx.trace.then(|| LabInput {
        anns_per_row: LAB_ANNS_PER_ROW,
        data: LabData::Replay {
            setup: script.setup.clone(),
            annotations: script.clients[0]
                .iter()
                .take(BIRDS * LAB_ANNS_PER_ROW)
                .cloned()
                .collect(),
        },
        reads: Vec::new(),
        writes: script.clients[1].iter().take(4096).cloned().collect(),
    });
    // The statements move into the frames: peak memory should be the
    // server's, not a second copy of the input.
    let requests: Vec<Vec<Request>> = script
        .clients
        .into_iter()
        .map(|stream| {
            stream
                .into_iter()
                .map(|sql| Request::Annotate { sql })
                .collect()
        })
        .collect();
    let slice = |from: usize, to: usize| -> Vec<&[Request]> {
        requests.iter().map(|r| &r[from..to]).collect()
    };

    let root = ctx.scratch.join("ingest");
    let (served, setup_s): (Served, f64) = harness::repeat_setup(ctx.quick, || {
        let db = Fixture::load(&root, SERVER_SHARDS, true, &script.setup, &[]);
        let served = harness::serve(db, ServerConfig::default());
        // Set-up ends when the server answers.
        Client::connect(served.addr)
            .and_then(|mut c| c.ping())
            .expect("first ping");
        served
    });
    let fx = Fixture::new(&root, Arc::clone(&served.db));

    let warm = net::closed_loops(served.addr, &slice(0, untimed), DEPTH);
    let window = net::closed_loops(served.addr, &slice(untimed, untimed + timed), DEPTH);
    fx.checkpoint();
    let cool = net::closed_loops(
        served.addr,
        &slice(untimed + timed, untimed + timed + untimed),
        DEPTH,
    );
    served.stop();

    let mut checks = Checks::default();
    let not_acked: u64 = [&warm, &window, &cool]
        .iter()
        .flat_map(|phase| phase.iter())
        .map(net::LoopResult::failed)
        .sum();
    let sent = WRITERS * (untimed + timed + untimed);
    let stored = fx.db.annotation_count();
    checks.require(not_acked == 0 && stored == sent, || {
        format!("{sent} annotations sent, {not_acked} not acked Ok, {stored} stored")
    });

    let timings = Timings::from_parts(
        net::interleaved_latencies(&window),
        net::merged_done_at(&window),
    );
    let durability = harness::durability_epilogue(&fx, ctx.quick, &mut checks);
    Outcome {
        setup_s,
        ops_per_s: timings.rate(),
        latency: timings.latency(),
        slo_met_pct: timings.slo_met_pct(),
        durability,
        attempted: timings.attempted(),
        failed: not_acked,
        checks,
        frozen: vec![
            ("birds", BIRDS.to_string()),
            ("writers", WRITERS.to_string()),
            ("depth", DEPTH.to_string()),
            ("timed_annotations", (WRITERS * timed).to_string()),
            ("untimed_before_and_after", (WRITERS * untimed).to_string()),
        ],
        input_digest,
        sched_lag_p99_ms: 0.0,
        shards: SERVER_SHARDS,
        lab,
    }
}
