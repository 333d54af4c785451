//! Group-commit ingest throughput through the server path (experiment
//! A5, EXPERIMENTS.md).
//!
//! A fixed budget of `ADD ANNOTATION` statements is pushed through
//! `insightd` by 1/8/32 concurrent writer connections, at client batch
//! sizes 1 (one `Annotate` frame per statement), 16, and 256 (one
//! `AnnotateBatch` frame per chunk), while a background analyst load
//! ([`ReaderLoad`]: 8 connections looping a full-table scan with 1 ms
//! think time) keeps the server's shared read lock busy. Batch size 1
//! pays a round-trip, a commit-queue hand-off, and — dominating under
//! reader load — a write-lock acquisition that waits out in-flight
//! scans **per annotation**; larger batches amortize all three across
//! the group, plus the per-row summary-maintenance pass. The sweep runs
//! per shard count, `shards` ∈ {1, 4}: 1 puts every row behind one lock
//! and one committer, 4 hash-partitions rows over four locks fed by one
//! committer each, so concurrent writers only serialize when they hit
//! the same shard. Streams come from `workload::ingest_script`, the pure-write
//! counterpart of the A4 mixed session streams.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use insightnotes_bench::{
    drive_ingest_writer, ReaderLoad, INGEST_READERS, INGEST_READER_SCAN, INGEST_READER_THINK,
};
use insightnotes_client::Client;
use insightnotes_engine::{DbConfig, ShardedDatabase, SyncPolicy};
use insightnotes_server::{Server, ServerConfig, ServerHandle};
use insightnotes_workload::{ingest_script, IngestConfig};
use std::net::SocketAddr;
use std::thread::JoinHandle;

const BIRDS: usize = 500;
/// Total annotations per throughput iteration, split across writers.
const TOTAL: usize = 512;

struct RunningServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<()>>,
}

/// Boots a fresh server and replays the ingest setup phase (DDL, index,
/// summary instances, links, row inserts) over one connection, so every
/// annotation statement in the sweep finds its target row and linked
/// summary instances.
fn start_server(shards: usize) -> RunningServer {
    let db =
        ShardedDatabase::create(DbConfig::default(), shards).expect("sharded in-memory engine");
    start_server_on(db)
}

fn start_server_on(db: ShardedDatabase) -> RunningServer {
    let server = Server::bind_sharded("127.0.0.1:0", db, ServerConfig::default())
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let thread = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    let script = ingest_script(&IngestConfig {
        num_birds: BIRDS,
        ..IngestConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect for setup");
    for stmt in &script.setup {
        client.execute(stmt).expect("setup statement");
    }
    RunningServer {
        addr,
        handle,
        thread: Some(thread),
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread");
        }
    }
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest_throughput");
    group.sample_size(10);

    for shards in [1usize, 4] {
        let server = start_server(shards);
        for writers in [1usize, 8, 32] {
            let script = ingest_script(&IngestConfig {
                writers,
                annotations_per_writer: TOTAL / writers,
                num_birds: BIRDS,
                ..IngestConfig::default()
            });
            let streams = script.clients;
            // Persistent connections, one per writer, reused across
            // iterations: timed regions measure ingest, not accept
            // latency.
            let mut conns: Vec<Client> = (0..writers)
                .map(|_| Client::connect(server.addr).expect("connect"))
                .collect();
            // Background analysts contend on the read locks for the
            // whole writer group (dropped, and joined, at scope end).
            let _readers = ReaderLoad::start(
                server.addr,
                INGEST_READERS,
                INGEST_READER_SCAN,
                INGEST_READER_THINK,
            );
            for batch in [1usize, 16, 256] {
                group.bench_with_input(
                    BenchmarkId::new(&format!("shards_{shards}_writers_{writers}"), batch),
                    &streams,
                    |b, streams| {
                        b.iter(|| {
                            std::thread::scope(|scope| {
                                let workers: Vec<_> = conns
                                    .drain(..)
                                    .zip(streams)
                                    .map(|(mut conn, stream)| {
                                        scope.spawn(move || {
                                            drive_ingest_writer(&mut conn, stream, batch);
                                            conn
                                        })
                                    })
                                    .collect();
                                conns
                                    .extend(workers.into_iter().map(|w| w.join().expect("writer")));
                            });
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

/// The same writer sweep with the server's write-ahead log on: every
/// group commit appends one log record and fsyncs before acks release.
/// Compared against the `off` cell (identical conditions, WAL disabled)
/// this isolates the durability overhead on the server path; the A6
/// report covers the engine-level breakdown.
fn bench_ingest_wal(c: &mut Criterion) {
    const WRITERS: usize = 8;
    let script = ingest_script(&IngestConfig {
        writers: WRITERS,
        annotations_per_writer: TOTAL / WRITERS,
        num_birds: BIRDS,
        ..IngestConfig::default()
    });
    let streams = &script.clients;

    let mut group = c.benchmark_group("ingest_wal");
    group.sample_size(10);
    for (label, wal) in [("off", None), ("batch", Some(SyncPolicy::Batch))] {
        let config = match wal {
            None => DbConfig::default(),
            Some(policy) => {
                let dir = std::env::temp_dir().join(format!(
                    "insightnotes-ingestwal-{}-{label}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                DbConfig {
                    wal_dir: Some(dir),
                    wal_sync: policy,
                    ..DbConfig::default()
                }
            }
        };
        let db = ShardedDatabase::create(config, 1).expect("config");
        let server = start_server_on(db);
        let mut conns: Vec<Client> = (0..WRITERS)
            .map(|_| Client::connect(server.addr).expect("connect"))
            .collect();
        let _readers = ReaderLoad::start(
            server.addr,
            INGEST_READERS,
            INGEST_READER_SCAN,
            INGEST_READER_THINK,
        );
        for batch in [1usize, 256] {
            group.bench_with_input(
                BenchmarkId::new(&format!("wal_{label}"), batch),
                streams,
                |b, streams| {
                    b.iter(|| {
                        std::thread::scope(|scope| {
                            let workers: Vec<_> = conns
                                .drain(..)
                                .zip(streams)
                                .map(|(mut conn, stream)| {
                                    scope.spawn(move || {
                                        drive_ingest_writer(&mut conn, stream, batch);
                                        conn
                                    })
                                })
                                .collect();
                            conns.extend(workers.into_iter().map(|w| w.join().expect("writer")));
                        });
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_ingest_wal);
criterion_main!(benches);
