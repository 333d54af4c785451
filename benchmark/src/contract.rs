//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics. `BENCHMARK.json` is printed from these tables
//! (`benchmark --emit-contract`), so the two cannot drift apart.

/// Seconds one run measures for at the frozen sizes. Each workload's amount
/// of work is `frozen rate x --seconds`, so `--seconds` scales the work
/// and the same `--seconds` repeats the same counts exactly.
pub const RUN_SECONDS: u32 = 8;

/// The repo's seed (`SEED` in the bench crate).
pub const DEFAULT_SEED: u64 = 0x0151_6874;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `gen.input_digest` for [`DEFAULT_SEED`] at [`RUN_SECONDS`]: a run
    /// with those fails with "inputs drifted" when `insightnotes-workload`
    /// (or the benchmark's own generator) produces anything else.
    pub pinned_input_digest: u32,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "spj_propagation",
        why: "embedded summary-aware select/project/join/group passes plus zoom-ins; results exceed the zoom cache, so exec, idset and cache eviction carry the time and no log, server or wire is involved",
        pinned_input_digest: 0xff76_99de,
    },
    Workload {
        name: "wire_ingest",
        why: "closed-loop pipelined single Annotate frames over the wire into a 2-shard logged server: the whole write path from frame decode to group fsync and ack, with the query executor idle",
        pinned_input_digest: 0x5a9b_266a,
    },
    Workload {
        name: "wire_mixed",
        why: "open-loop reads beside writes on one 2-shard server at two fixed rates after a closed-loop capacity phase: shard locks and the reactor are shared, and queueing under load is visible",
        pinned_input_digest: 0xec98_56b4,
    },
    Workload {
        name: "curation_recovery",
        why: "serial annotate/FLAG/CORRECT/RETRACT/HISTORY stream on a logged embedded database with a mid-run checkpoint: decremental maintenance, snapshot, replay and on-disk size",
        pinned_input_digest: 0xd59e_018f,
    },
    Workload {
        name: "replica_tail",
        why: "open-loop writes to a primary, each followed through wait_for_offset to a read on an in-process replica, beside closed-loop replica reads: the only workload where replication does work",
        pinned_input_digest: 0x86d9_f34a,
    },
];

pub fn pinned_input_digest(workload: &str) -> Option<u32> {
    WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .map(|w| w.pinned_input_digest)
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// A bound holds for its metric on every workload, so the noisiest workload
/// sets it: about three times the quartile spread seen over ten seeds on
/// the 2-core build host (README.md has the table), capped at the
/// contract's 0.25. The timings are all at the cap because every SELECT
/// writes a zoom-cache file from the thread that serves it.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "slo_met_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.08,
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "stored_bytes_per_ann",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "summary_bytes_per_row",
        unit: "B",
        better: Better::Lower,
        bound: 0.03,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 60] = [
    lower("wire.req_decode_us", "us"),
    lower("wire.resp_encode_us", "us"),
    lower("wire.resp_bytes_per_row", "B"),
    lower("sql.parse_select_us", "us"),
    lower("sql.parse_annotate_us", "us"),
    lower("plan.plan_us", "us"),
    lower("exec.point_us", "us"),
    lower("exec.scan_us", "us"),
    lower("exec.project_us", "us"),
    lower("exec.join2_us", "us"),
    lower("exec.join3_us", "us"),
    lower("exec.groupby_us", "us"),
    lower("exec.sumpred_us", "us"),
    lower("exec.us_per_out_row", "us"),
    lower("idset.union_ns_per_id", "ns"),
    lower("idset.intersect_ns_per_id", "ns"),
    lower("idset.bytes_per_id", "B"),
    lower("zoomin.register_us", "us"),
    lower("zoomin.hit_us", "us"),
    lower("zoomin.miss_us", "us"),
    higher("zoomin.hit_pct", "%"),
    lower("zoomin.evictions", "count"),
    lower("summaries.apply_us", "us"),
    lower("summaries.apply_batch_us_per_ann", "us"),
    lower("summaries.remove_us", "us"),
    lower("summaries.objects_per_row", "count"),
    lower("summaries.object_bytes_per_row", "B"),
    lower("summaries.digest_cache_len", "count"),
    lower("text.classify_us", "us"),
    lower("text.cluster_add_us", "us"),
    lower("text.snippet_us", "us"),
    lower("annotations.content_bytes_per_ann", "B"),
    lower("annotations.retired_pct", "%"),
    lower("shard.prepare_us", "us"),
    lower("shard.apply_us_per_ann", "us"),
    lower("shard.skew", "ratio"),
    lower("shard.s1_ratio", "ratio"),
    lower("wal.append_us", "us"),
    lower("wal.sync_us", "us"),
    lower("wal.bytes_per_ann", "B"),
    higher("wal.anns_per_sync", "count"),
    lower("persist.snapshot_encode_ms", "ms"),
    lower("persist.checkpoint_ms", "ms"),
    lower("persist.restore_ms", "ms"),
    lower("persist.snapshot_bytes_per_ann", "B"),
    lower("persist.replay_us_per_record", "us"),
    lower("persist.records_replayed", "count"),
    lower("persist.as_of_ms", "ms"),
    lower("server.ping_rtt_us", "us"),
    lower("server.residual_read_us", "us"),
    lower("server.residual_write_us", "us"),
    higher("server.requests_served", "count"),
    lower("client.submit_us", "us"),
    lower("replication.bootstrap_s", "s"),
    lower("replication.lag_p50_ms", "ms"),
    lower("replication.lag_p95_ms", "ms"),
    lower("replication.wait_for_offset_us", "us"),
    lower("gen.sched_lag_p99_ms", "ms"),
    lower("gen.trace_overhead_pct", "%"),
    higher("gen.trace_coverage_pct", "%"),
];

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| ok(n)));
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(benchmark_json().len() < 64 << 10);
    }
}
