//! `replica_tail`: a logged 2-shard primary with one in-process replica
//! tailing it. Annotations reach the primary on a fixed schedule; each
//! acked write is followed by the read-your-writes handshake
//! (`replica_state` on the primary, `wait_for_offset` on the replica) and
//! a point SELECT on the replica that must show the write. A second
//! client reads the replica in a closed loop throughout.

use super::net;
use super::{Ctx, LabData, LabInput, Outcome, Timings};
use crate::harness::{
    self, digest_statements, Checks, Fixture, Schedule, Served, SERVER_SHARDS, SLO_MS,
};
use crate::stats::{self, Latency};
use insightnotes_client::Client;
use insightnotes_common::wire::{Request, Response};
use insightnotes_replication::replica::{ReplicaConfig, Replicator};
use insightnotes_server::{ReplicaServing, ServerConfig};
use insightnotes_workload::{ingest_script, IngestConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

const BIRDS: usize = 2000;
const ANNS_PER_ROW: usize = 10;
/// Frozen: annotations per second sent to the primary.
const WRITE_RATE: f64 = 250.0;
/// Clients that run the handshake and the replica read for acked writes.
/// A handshake mostly sleeps inside `wait_for_offset`, so there are more
/// of them than cores; enough that an acked write never waits for one.
const FOLLOWERS: usize = 8;
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// Untimed replica reads before the window; enough to fill its zoom cache.
const WARM_READS: usize = 7000;
/// Consecutive writes whose write-to-visible times are averaged into one
/// sample of the median.
const MEDIAN_BATCH: usize = 25;

/// Sum of the counts in a rendered classifier object, e.g.
/// `ClassBird1 [(Behavior, 3), (Disease, 1), ...]`.
fn classifier_total(summaries: &[String]) -> u64 {
    summaries
        .iter()
        .find(|s| s.starts_with("ClassBird1 "))
        .map_or(0, |s| {
            s.split(", ")
                .filter_map(|part| part.trim_end_matches([')', ']']).parse::<u64>().ok())
                .sum()
        })
}

fn target_row(annotate_sql: &str) -> u64 {
    annotate_sql
        .rsplit("id = ")
        .next()
        .and_then(|id| id.parse().ok())
        .expect("ingest statements end in `id = <row>`")
}

/// Fields drop in this order: the replica's server, its tailers, then the
/// primary they are connected to.
struct Cluster {
    replica: Served,
    replicator: Replicator,
    primary: Served,
}

fn start_cluster(root: &std::path::Path, setup: &[String], preload: &[String]) -> Cluster {
    let db = Fixture::load(&root.join("primary"), SERVER_SHARDS, true, setup, preload);
    harness::checkpoint(&db, &root.join("primary"));
    let primary = harness::serve(db, ServerConfig::default());
    let boot = Replicator::start(&ReplicaConfig::new(
        primary.addr.to_string(),
        crate::host::fresh_dir(&root.join("replica")),
    ))
    .expect("start replica");
    let replica = harness::serve(
        boot.db,
        ServerConfig {
            replica: Some(ReplicaServing {
                primary: primary.addr.to_string(),
                positions: boot.replicator.positions(),
            }),
            ..ServerConfig::default()
        },
    );
    catch_up(primary.addr, replica.addr);
    Cluster {
        primary,
        replica,
        replicator: boot.replicator,
    }
}

/// Blocks until the replica has applied everything the primary committed.
fn catch_up(primary: SocketAddr, replica: SocketAddr) {
    let target = Client::connect(primary)
        .and_then(|mut c| c.replica_state())
        .expect("primary positions");
    Client::connect(replica)
        .and_then(|mut c| c.wait_for_offset(&target, Duration::from_secs(60)))
        .expect("replica catches up");
}

pub fn run(ctx: &Ctx) -> Outcome {
    let writes = ctx.count(WRITE_RATE);
    let mut script = ingest_script(&IngestConfig {
        seed: ctx.seed,
        writers: 1,
        annotations_per_writer: BIRDS * ANNS_PER_ROW + writes,
        num_birds: BIRDS,
        skew: 0.0,
    });
    let mut preload = script.clients.remove(0);
    let stream = preload.split_off(BIRDS * ANNS_PER_ROW);
    let input_digest = digest_statements(script.setup.iter().chain(&preload).chain(&stream));
    let requests: Vec<Request> = stream
        .iter()
        .map(|sql| Request::Annotate { sql: sql.clone() })
        .collect();

    let root = ctx.scratch.join("replica_tail");
    let (cluster, setup_s) =
        harness::repeat_setup(ctx.quick, || start_cluster(&root, &script.setup, &preload));
    let (primary, replica) = (cluster.primary.addr, cluster.replica.addr);
    let fx = Fixture::new(&root.join("primary"), Arc::clone(&cluster.primary.db));

    // What each row must show at least, once write `slot` is visible: its
    // preloaded annotations plus every write to it up to that slot.
    let mut checks = Checks::default();
    let mut seen: HashMap<u64, u64> = HashMap::new();
    let rows = Client::connect(primary)
        .and_then(|mut c| c.query("SELECT id FROM birds"))
        .expect("preload counts");
    for r in &rows.rows {
        if let Some(insightnotes_common::wire::WireValue::Int(id)) = r.values.first() {
            seen.insert(*id as u64, classifier_total(&r.summaries));
        }
    }
    checks.require(seen.values().sum::<u64>() == preload.len() as u64, || {
        "preloaded annotations are not all visible on the primary".into()
    });
    let expected: Vec<(u64, u64)> = stream
        .iter()
        .map(|sql| {
            let row = target_row(sql);
            let count = seen.entry(row).or_insert(0);
            *count += 1;
            (row, *count)
        })
        .collect();

    // Every SELECT's result goes into the replica's 16 MiB zoom cache, and a
    // full cache evicts on every insert: fill it first, so that the reader's
    // rate is the steady state's from the first timed read on.
    let mut warm = Client::connect(replica).expect("connect warm-up reader");
    for i in 0..WARM_READS {
        let row = i % BIRDS + 1;
        warm.query(&format!("SELECT name, weight FROM birds WHERE id = {row}"))
            .expect("warm-up read");
    }
    drop(warm);

    let schedule = Schedule::per_second(Instant::now() + Duration::from_millis(50), WRITE_RATE);
    let (acked_tx, acked_rx) = mpsc::channel::<usize>();
    let acked_rx = Mutex::new(acked_rx);
    let done = AtomicBool::new(false);
    let window = Instant::now();
    let (lags, followed, read_at_s) = std::thread::scope(|scope| {
        let followers: Vec<_> = (0..FOLLOWERS)
            .map(|_| {
                let (acked_rx, expected) = (&acked_rx, &expected);
                scope.spawn(move || {
                    let mut on_primary = Client::connect(primary).expect("connect to primary");
                    let mut on_replica = Client::connect(replica).expect("connect to replica");
                    let mut visible = Vec::new();
                    loop {
                        let next = acked_rx.lock().expect("acked queue").recv();
                        let Ok(slot) = next else { break };
                        let (row, at_least) = expected[slot];
                        let shown = on_primary
                            .replica_state()
                            .and_then(|target| {
                                on_replica.wait_for_offset(&target, HANDSHAKE_TIMEOUT)
                            })
                            .and_then(|()| {
                                on_replica.query(&format!("SELECT id FROM birds WHERE id = {row}"))
                            });
                        let at = Instant::now();
                        if let Ok(rows) = shown {
                            if rows.rows.len() == 1
                                && classifier_total(&rows.rows[0].summaries) >= at_least
                            {
                                visible.push((slot, (at - schedule.due(slot)).as_secs_f64() * 1e3));
                            }
                        }
                    }
                    visible
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            let mut c = Client::connect(replica).expect("connect reader to replica");
            let mut read_at_s = Vec::new();
            let mut row = 0u64;
            while !done.load(Ordering::SeqCst) {
                row = row % BIRDS as u64 + 1;
                if matches!(
                    c.query(&format!("SELECT name, weight FROM birds WHERE id = {row}")),
                    Ok(rows) if rows.rows.len() == 1
                ) {
                    read_at_s.push(window.elapsed().as_secs_f64());
                }
            }
            read_at_s
        });
        let slots: Vec<usize> = (0..writes).collect();
        let lags = net::open_loop(primary, &requests, &slots, schedule, |slot, response, _| {
            if matches!(response, Response::Ack { .. }) {
                let _ = acked_tx.send(slot);
            }
        });
        drop(acked_tx);
        let followed: Vec<(usize, f64)> = followers
            .into_iter()
            .flat_map(|f| f.join().expect("follower thread"))
            .collect();
        done.store(true, Ordering::SeqCst);
        (lags, followed, reader.join().expect("reader thread"))
    });

    let mut latency_ms = vec![None; writes];
    for (slot, latency) in followed {
        latency_ms[slot] = Some(latency);
    }
    // A write is visible either at the follower's first poll (~2 ms) or
    // one 10 ms poll later, about half of them each, so the median of single
    // writes flips between the two; the median of short runs of writes'
    // means does not.
    let batch_means: Vec<f64> = latency_ms
        .chunks(MEDIAN_BATCH)
        .filter_map(|batch| {
            let seen: Vec<f64> = batch.iter().flatten().copied().collect();
            (!seen.is_empty()).then(|| seen.iter().sum::<f64>() / seen.len() as f64)
        })
        .collect();
    let timings = Timings::from_parts(latency_ms, read_at_s);
    let failed = timings.failed();

    // The replica must end byte-identical to the primary, shard by shard.
    catch_up(primary, replica);
    for k in 0..SERVER_SHARDS {
        let same = cluster.primary.db.shard(k).read().snapshot_bytes()
            == cluster.replica.db.shard(k).read().snapshot_bytes();
        checks.require(same, || {
            format!("replica shard {k} differs from the primary's")
        });
    }
    let stored = fx.db.annotation_count();
    checks.require(failed == 0 && stored == preload.len() + writes, || {
        format!("{writes} writes, {failed} not seen on the replica in time; {stored} stored")
    });
    let Cluster {
        primary: primary_server,
        replica: replica_server,
        mut replicator,
    } = cluster;
    replica_server.stop();
    replicator.stop();
    primary_server.stop();

    let mut lags = lags;
    lags.sort_by(|a, b| a.partial_cmp(b).expect("finite lag"));
    let durability = harness::durability_epilogue(&fx, ctx.quick, &mut checks);
    Outcome {
        setup_s,
        ops_per_s: timings.rate(),
        latency: Latency {
            p50: stats::median(&batch_means),
            ..timings.latency()
        },
        slo_met_pct: timings.slo_met_pct(),
        durability,
        attempted: writes as u64,
        failed,
        checks,
        frozen: vec![
            ("birds", BIRDS.to_string()),
            ("preloaded_anns_per_row", ANNS_PER_ROW.to_string()),
            ("writes_per_s", WRITE_RATE.to_string()),
            ("writes", writes.to_string()),
            ("followers", FOLLOWERS.to_string()),
            ("warm_up_replica_reads", WARM_READS.to_string()),
            ("slo_ms", SLO_MS.to_string()),
        ],
        input_digest,
        sched_lag_p99_ms: stats::percentile(&lags, 99.0),
        shards: SERVER_SHARDS,
        lab: ctx.trace.then(|| LabInput {
            anns_per_row: ANNS_PER_ROW,
            data: LabData::Replay {
                setup: script.setup.clone(),
                annotations: preload.clone(),
            },
            reads: Vec::new(),
            writes: stream.iter().take(2048).cloned().collect(),
        }),
    }
}
