//! Event-loop concurrency and request pipelining against an in-process
//! `insightd` (experiment A9, EXPERIMENTS.md).
//!
//! Two questions: (1) how much does keeping a window of requests in
//! flight on one connection (wire protocol v2) buy over strict
//! request/response alternation — pipelined writes additionally share
//! group commits with the whole window; and (2) what a burst of
//! simultaneously loaded connections costs end to end on the epoll
//! reactor, where connections are event-loop entries rather than
//! threads. The full 1k/10k-connection grid (with memory accounting)
//! lives in the `report` binary's A9 section; these cells are sized for
//! repeated criterion sampling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use insightnotes_bench::annotated_db;
use insightnotes_client::PipelinedClient;
use insightnotes_common::wire::{Request, Response};
use insightnotes_engine::{DbConfig, ShardedDatabase};
use insightnotes_server::{Server, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::thread::JoinHandle;

const BIRDS: usize = 2_000;
const RATIO: f64 = 2.0;
/// Requests pushed through one connection per pipelining iteration.
const REQUESTS: usize = 64;

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

/// Drives `total` copies of `req` through one pipelined connection with
/// at most `depth` in flight, on a windowed schedule: submit a full
/// window as one corked burst, then drain it (so the server sees the
/// window together and can group-commit it in one fsync). Panics on any
/// error response (bench requests are all well-formed).
fn drive_window(
    client: &mut PipelinedClient,
    req_for: impl Fn(u64) -> Request,
    depth: usize,
    total: usize,
) {
    for i in 0..total {
        if client.in_flight() >= depth {
            while client.in_flight() > 0 {
                let (_, resp) = client.recv_any().expect("response");
                assert!(!matches!(resp, Response::Error(_)), "request failed");
            }
        }
        client.submit(&req_for(i as u64)).expect("submit");
    }
    for (_, resp) in client.drain().expect("drain") {
        assert!(!matches!(resp, Response::Error(_)), "request failed");
    }
}

/// One connection, 64 single-row annotation writes, pipeline depth 1
/// vs 16 vs 64. Depth 1 is the serial-protocol baseline: every write
/// pays a full round-trip *and* its own group commit; deeper windows
/// amortize both.
fn bench_pipeline_depth(c: &mut Criterion) {
    let server = start_server();
    let mut group = c.benchmark_group("pipeline_depth");
    group.sample_size(10);

    for depth in [1usize, 16, 64] {
        let mut client = PipelinedClient::connect(server.addr).expect("connect");
        let mut round = 0u64;
        group.bench_with_input(
            BenchmarkId::new("annotate_64", depth),
            &depth,
            |b, &depth| {
                b.iter(|| {
                    round += 1;
                    drive_window(
                        &mut client,
                        |i| Request::Annotate {
                            sql: format!(
                                "ADD ANNOTATION 'depth bench r{round} i{i}' AUTHOR 'bench' \
                                 ON birds WHERE id = {}",
                                (round * REQUESTS as u64 + i) % BIRDS as u64 + 1
                            ),
                        },
                        depth,
                        REQUESTS,
                    );
                });
            },
        );
    }
    group.finish();
}

/// A fleet of simultaneously open pipelined connections, each holding a
/// 16-deep window of pings: the cost of fanning readiness across many
/// event-loop entries. All connections are opened before the timed
/// region; the iteration loads every window, then drains every
/// connection.
fn bench_connection_fanout(c: &mut Criterion) {
    let server = start_server();
    let mut group = c.benchmark_group("conn_fanout");
    group.sample_size(10);

    for conns in [64usize, 256] {
        let mut fleet: Vec<PipelinedClient> = (0..conns)
            .map(|_| PipelinedClient::connect(server.addr).expect("connect"))
            .collect();
        group.bench_with_input(BenchmarkId::new("ping_depth16", conns), &conns, |b, _| {
            b.iter(|| {
                for client in &mut fleet {
                    for _ in 0..16 {
                        client.submit(&Request::Ping).expect("submit");
                    }
                }
                // Corked submits: every window must hit the wire
                // before any connection is drained.
                for client in &mut fleet {
                    client.flush().expect("flush");
                }
                for client in &mut fleet {
                    for (_, resp) in client.drain().expect("drain") {
                        assert!(matches!(resp, Response::Pong { .. }), "expected pong");
                    }
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline_depth, bench_connection_fanout);
criterion_main!(benches);
