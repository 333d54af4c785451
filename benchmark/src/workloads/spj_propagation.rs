//! `spj_propagation`: the paper's summary-aware query processing on an
//! embedded database. One thread repeats a fixed pass of SELECT shapes and
//! zoom-ins; the pass's cached results exceed the default 16 MiB zoom
//! cache, so eviction and re-execution happen in every pass.

use super::{Ctx, LabData, LabInput, Outcome, Timings};
use crate::harness::{
    self, digest_result, digest_statements, ms, Birds, Checks, Fixture, Rng, Template,
};
use crate::stats::{self, Latency};
use insightnotes_engine::{ExecOutcome, ShardedDatabase};
use insightnotes_workload::{seed_birds_database, WorkloadConfig};
use std::sync::Arc;
use std::time::Instant;

const BIRDS: usize = 500;
const ANNS_PER_ROW: usize = 120;
/// Frozen on the 2-core build host so that the timed passes take about
/// `--seconds` there.
const PASSES_PER_SECOND: f64 = 1.75;
/// Statements of each shape in one pass.
const PASS: [(Template, usize); 7] = [
    (Template::Point, 100),
    (Template::Scan, 10),
    (Template::Project, 5),
    (Template::Join2, 5),
    (Template::SumPred, 2),
    (Template::GroupBy, 1),
    (Template::Join3, 1),
];
/// Zoom-ins per pass, on the pass's large results (projections, scans).
const ZOOMS: usize = 10;

fn pass_statements(birds: &Birds, seed: u64) -> Vec<(Template, String)> {
    let mut rng = Rng::new(seed ^ 0x5B_1A55);
    PASS.iter()
        .flat_map(|&(template, n)| (0..n).map(move |i| (template, i)))
        .map(|(template, i)| (template, birds.statement(template, i, &mut rng)))
        .collect()
}

/// What one pass produced, for the output checks.
#[derive(Default)]
struct PassOutput {
    result_digests: Vec<u32>,
    zoomed_annotations: Vec<usize>,
}

/// Runs the pass once, recording each statement in `timings`. Result
/// digests are computed only when `digest` is set, outside the timers.
fn run_pass(
    db: &ShardedDatabase,
    statements: &[(Template, String)],
    digest: bool,
    timings: &mut Timings,
) -> PassOutput {
    let mut out = PassOutput::default();
    let mut large = Vec::new();
    for (template, sql) in statements {
        let start = Instant::now();
        let result = db.query(sql);
        timings.record(result.is_ok().then(|| ms(start)));
        if let Ok(r) = result {
            if matches!(template, Template::Project | Template::Scan) {
                large.push(r.qid.raw());
            }
            if digest {
                out.result_digests.push(digest_result(&r));
            }
        }
    }
    // Projections come after the scans in the pass, so taking from the back
    // zooms into every projection and the most recent scans.
    for qid in large.iter().rev().take(ZOOMS) {
        let sql = format!("ZOOMIN REFERENCE QID {qid} ON ClassBird1 LABEL 'Disease'");
        let start = Instant::now();
        let result = db.execute_sql(&sql);
        let zoomed = match result.as_deref() {
            Ok([ExecOutcome::ZoomIn(z)]) => Some(z.annotations.len()),
            _ => None,
        };
        timings.record(zoomed.map(|_| ms(start)));
        out.zoomed_annotations.extend(zoomed);
    }
    out
}

pub fn run(ctx: &Ctx) -> Outcome {
    let passes = ctx.count(PASSES_PER_SECOND);
    let root = ctx.scratch.join("spj");
    let (db, setup_s) = harness::repeat_setup(ctx.quick, || {
        let db = Fixture::create(&root, 1, false);
        seed_birds_database(
            &mut db.shard(0).write(),
            &WorkloadConfig {
                seed: ctx.seed,
                num_birds: BIRDS,
                annotation_ratio: ANNS_PER_ROW as f64,
                ..WorkloadConfig::default()
            },
        )
        .expect("seed birds database");
        db
    });
    let fx = Fixture::new(&root, Arc::new(db));

    // The statements, and the serial reference: every statement's result
    // without the zoom registry.
    let (statements, reference) = harness::with_embedded(&fx.db, |db| {
        let statements = pass_statements(&Birds::read(db, ANNS_PER_ROW), ctx.seed);
        let reference: Vec<u32> = statements
            .iter()
            .map(|(_, sql)| digest_result(&db.query_uncached(sql).expect("reference query")))
            .collect();
        (statements, reference)
    });
    let input_digest = digest_statements(statements.iter().map(|(_, s)| s));

    let mut checks = Checks::default();
    let first = run_pass(&fx.db, &statements, true, &mut Timings::start());
    let mut timings = Timings::start();
    let mut pass_ms = Vec::with_capacity(passes);
    for _ in 0..passes {
        let start = Instant::now();
        run_pass(&fx.db, &statements, false, &mut timings);
        pass_ms.push(ms(start));
    }
    let last = run_pass(&fx.db, &statements, true, &mut Timings::start());
    checks.require(first.result_digests == reference, || {
        "first pass results differ from the serial reference".into()
    });
    checks.require(last.result_digests == reference, || {
        "last pass results differ from the serial reference".into()
    });
    checks.require(
        first.zoomed_annotations == last.zoomed_annotations
            && first.zoomed_annotations.len() == ZOOMS
            && first.zoomed_annotations.iter().all(|n| *n > 0),
        || "zoom-ins differ between the first and the last pass".into(),
    );

    let durability = harness::durability_epilogue(&fx, ctx.quick, &mut checks);
    Outcome {
        setup_s,
        // Rate and median are the median pass's, not a window of statements'
        // or a statement's. Statements differ in cost by four orders of
        // magnitude, so only whole passes compare; and every query writes
        // its result into the zoom cache, where a point lookup costs little
        // while the cache has room and much once each insert evicts, so the
        // median statement sits between two modes and flips from run to run.
        ops_per_s: (statements.len() + ZOOMS) as f64 * 1e3 / stats::median(&pass_ms),
        latency: Latency {
            p50: stats::median(&pass_ms),
            ..timings.latency()
        },
        slo_met_pct: timings.slo_met_pct(),
        durability,
        attempted: timings.attempted(),
        failed: timings.failed(),
        checks,
        frozen: vec![
            ("birds", BIRDS.to_string()),
            ("anns_per_row", ANNS_PER_ROW.to_string()),
            ("passes", passes.to_string()),
            (
                "statements_per_pass",
                (statements.len() + ZOOMS).to_string(),
            ),
        ],
        input_digest,
        sched_lag_p99_ms: 0.0,
        shards: 1,
        lab: ctx.trace.then(|| LabInput {
            anns_per_row: ANNS_PER_ROW,
            data: LabData::Live(Arc::clone(&fx.db)),
            reads: statements.into_iter().map(|(_, s)| s).collect(),
            writes: Vec::new(),
        }),
    }
}
