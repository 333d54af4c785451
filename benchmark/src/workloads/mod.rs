//! The five workloads. Each runs its set-up (several times, for the
//! median), one untimed warm-up, a fixed amount of timed work, and the
//! durability epilogue, and checks its own outputs.

pub mod curation_recovery;
pub mod net;
pub mod replica_tail;
pub mod spj_propagation;
pub mod wire_ingest;
pub mod wire_mixed;

use crate::harness::{Checks, Durability, SLO_MS};
use crate::stats::{self, Latency};
use insightnotes_engine::ShardedDatabase;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub struct Ctx {
    pub seed: u64,
    /// Scales every frozen per-second amount of work.
    pub seconds: f64,
    /// One set-up instead of several (smoke mode).
    pub quick: bool,
    /// Whether the layer probes will run, so their input is worth building.
    pub trace: bool,
    pub scratch: PathBuf,
}

impl Ctx {
    /// `per_second x --seconds`, the fixed amount of work of one phase.
    pub fn count(&self, per_second: f64) -> usize {
        ((per_second * self.seconds).round() as usize).max(1)
    }
}

/// The operations of one timed stretch, in the order they were issued (or,
/// in an open loop, due).
pub struct Timings {
    since: Instant,
    /// Latency in ms; `None` for an operation that failed.
    latency_ms: Vec<Option<f64>>,
    /// Completion times of the successful ones, seconds since `since`, ascending.
    done_at_s: Vec<f64>,
}

impl Timings {
    pub fn start() -> Self {
        Self::from_parts(Vec::new(), Vec::new())
    }

    pub fn from_parts(latency_ms: Vec<Option<f64>>, done_at_s: Vec<f64>) -> Self {
        Self {
            since: Instant::now(),
            latency_ms,
            done_at_s,
        }
    }

    /// Records an operation that completed just now.
    pub fn record(&mut self, latency_ms: Option<f64>) {
        self.latency_ms.push(latency_ms);
        if latency_ms.is_some() {
            self.done_at_s.push(self.since.elapsed().as_secs_f64());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.latency_ms.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.latency_ms.iter().filter(|l| l.is_none()).count() as u64
    }

    pub fn rate(&self) -> f64 {
        stats::rate(&self.done_at_s)
    }

    pub fn latency(&self) -> Latency {
        let answered: Vec<f64> = self.latency_ms.iter().flatten().copied().collect();
        stats::latency(&answered)
    }

    pub fn slo_met_pct(&self) -> f64 {
        stats::within_pct_steady(&self.latency_ms, SLO_MS)
    }
}

pub struct Outcome {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub latency: Latency,
    pub slo_met_pct: f64,
    pub durability: Durability,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Frozen sizes and rates, for the header.
    pub frozen: Vec<(&'static str, String)>,
    /// CRC32 of the generated statement stream.
    pub input_digest: u32,
    /// Open-loop send time minus due time, p99; 0 for closed loops.
    pub sched_lag_p99_ms: f64,
    pub shards: usize,
    /// Present when [`Ctx::trace`] is set.
    pub lab: Option<LabInput>,
}

/// What the traced run's layer probes work on: the workload's data on an
/// embedded single-shard database, and samples of the statements it
/// generated (empty where the workload has none of a class; the probes
/// then generate that class over the same table).
pub struct LabInput {
    pub anns_per_row: usize,
    pub data: LabData,
    pub reads: Vec<String>,
    pub writes: Vec<String>,
}

pub enum LabData {
    /// The workload's own embedded database, as its run left it.
    Live(Arc<ShardedDatabase>),
    /// The workload ran against a server: its set-up script and the
    /// annotations to load are replayed into an embedded database.
    Replay {
        setup: Vec<String>,
        annotations: Vec<String>,
    },
}

pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "spj_propagation" => spj_propagation::run(ctx),
        "wire_ingest" => wire_ingest::run(ctx),
        "wire_mixed" => wire_mixed::run(ctx),
        "curation_recovery" => curation_recovery::run(ctx),
        "replica_tail" => replica_tail::run(ctx),
        _ => return None,
    })
}
