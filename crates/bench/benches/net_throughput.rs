//! Wire-protocol overhead and concurrent-connection throughput against
//! an in-process `insightd` (experiment A4, EXPERIMENTS.md).
//!
//! Two questions: (1) what does a network round-trip add on top of the
//! embedded call for the paper's interactive operations (ping floor,
//! point SELECT, ADD ANNOTATION), and (2) how does a fixed mixed
//! read/write batch scale when split across 1/2/4/8 concurrent client
//! connections contending on the server's reader/writer lock. Streams
//! come from `workload::session_script`, so the mix matches the
//! concurrency integration test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use insightnotes_bench::annotated_db;
use insightnotes_client::Client;
use insightnotes_engine::{DbConfig, ShardedDatabase};
use insightnotes_server::{Server, ServerConfig, ServerHandle};
use insightnotes_workload::{session_script, SessionConfig};
use std::net::SocketAddr;
use std::thread::JoinHandle;

const BIRDS: usize = 2_000;
const RATIO: f64 = 2.0;
/// Total statements per throughput iteration, split across connections.
const BATCH: usize = 64;

struct RunningServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<()>>,
}

fn start_server() -> RunningServer {
    let db = ShardedDatabase::from_shards(&DbConfig::default(), vec![annotated_db(BIRDS, RATIO)])
        .expect("one-shard engine");
    let server = Server::bind_sharded("127.0.0.1:0", db, ServerConfig::default())
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let thread = std::thread::spawn(move || {
        server.run().expect("server run");
    });
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

/// Round-trip latency floor and per-operation wire costs on a single
/// connection, next to the embedded (in-process, no socket) equivalents.
fn bench_round_trips(c: &mut Criterion) {
    let server = start_server();
    let mut group = c.benchmark_group("net_rtt");
    group.sample_size(20);

    let mut client = Client::connect(server.addr).expect("connect");
    group.bench_function("ping", |b| {
        b.iter(|| client.ping().unwrap());
    });
    group.bench_function("point_select", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let id = (i % BIRDS as u64) + 1;
            client
                .query(&format!("SELECT name, weight FROM birds WHERE id = {id}"))
                .unwrap()
        });
    });
    group.bench_function("add_annotation", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let id = (i % BIRDS as u64) + 1;
            client
                .annotate(&format!(
                    "ADD ANNOTATION 'wire bench observation {i}' AUTHOR 'bench' \
                     ON birds WHERE id = {id}"
                ))
                .unwrap()
        });
    });

    // Embedded baseline for the same point SELECT: engine cost with no
    // socket, framing, or lock-acquisition-over-RwLock in the path.
    let db = annotated_db(BIRDS, RATIO);
    group.bench_function("point_select_embedded", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let id = (i % BIRDS as u64) + 1;
            db.query_uncached(&format!("SELECT name, weight FROM birds WHERE id = {id}"))
                .unwrap()
        });
    });
    group.finish();
}

/// A fixed 64-statement mixed batch (≈30% annotation writes) pushed
/// through 1, 2, 4, or 8 concurrent connections. Per-iteration time is
/// the wall clock for the whole batch; fewer connections mean longer
/// per-connection request chains.
fn bench_concurrent_connections(c: &mut Criterion) {
    let server = start_server();
    let mut group = c.benchmark_group("net_throughput");
    group.sample_size(10);

    for clients in [1usize, 2, 4, 8] {
        // Deterministic streams; setup is skipped (the server database
        // is already seeded by `annotated_db`).
        let script = session_script(&SessionConfig {
            seed: 0xA4,
            clients,
            statements_per_client: BATCH / clients,
            num_birds: BIRDS,
            write_ratio: 0.3,
        });
        let streams = script.clients;
        group.bench_with_input(
            BenchmarkId::new("mixed_batch_64", clients),
            &streams,
            |b, streams| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for stream in streams {
                            scope.spawn(move || {
                                let mut client = Client::connect(server.addr).expect("connect");
                                for sql in stream {
                                    client.send_sql(sql).expect("request");
                                }
                            });
                        }
                    });
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_round_trips, bench_concurrent_connections);
criterion_main!(benches);
