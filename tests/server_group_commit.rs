//! The group-commit write path under real concurrency: wire writers
//! mixing single `Annotate` frames with `AnnotateBatch` frames, running
//! against background readers, must leave exactly the state a serial
//! replay of the same statements leaves; and a graceful shutdown fired
//! while the commit queue is busy must lose no reply — every annotation
//! the server acknowledged is in the final state, and every annotation
//! in the final state was acknowledged.
//!
//! State comparison is order-insensitive (see
//! `tests/server_concurrency.rs` for the rationale): annotation ids are
//! assigned in arrival order, which varies run to run, so the check
//! uses commutative aggregates — classifier objects, cluster member
//! totals, and the per-row multiset of raw annotations.

use insightnotes_client::Client;
use insightnotes_engine::{Database, DbConfig, ShardedDatabase};
use insightnotes_server::{Server, ServerConfig, ServerHandle};
use insightnotes_workload::{ingest_script, IngestConfig, SessionScript};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Order-insensitive per-row state, keyed by the bird's `id` column.
#[derive(Debug, PartialEq)]
struct RowState {
    classifier: Option<String>,
    cluster_members: Option<usize>,
    annotations: Vec<(String, String)>,
}

fn fingerprint(db: &Database) -> BTreeMap<i64, RowState> {
    let result = db
        .query_uncached("SELECT id FROM birds")
        .expect("full scan");
    let table = db.catalog().table_id("birds").expect("birds table");
    let mut out = BTreeMap::new();
    for (i, row) in result.rows.iter().enumerate() {
        let id = match row.row.values().first() {
            Some(insightnotes_storage::Value::Int(id)) => *id,
            other => panic!("non-int id column: {other:?}"),
        };
        let mut classifier = None;
        let mut cluster_members = None;
        for (inst, obj) in &row.summaries {
            match db.registry().instance(*inst).expect("instance").name() {
                "ClassBird1" => classifier = Some(obj.to_string()),
                "DupBird1" => {
                    cluster_members = Some(
                        obj.as_cluster()
                            .expect("cluster object")
                            .groups()
                            .iter()
                            .map(|g| g.size)
                            .sum(),
                    );
                }
                other => panic!("unexpected instance {other}"),
            }
        }
        // Base-table scans preserve insert order: position i = RowId i.
        let mut annotations: Vec<(String, String)> = db
            .store()
            .on_row(table, insightnotes_common::RowId(i as u64))
            .iter()
            .map(|(aid, _)| {
                let a = db.store().get(*aid).expect("annotation");
                (a.body.text.clone(), a.body.author.clone())
            })
            .collect();
        annotations.sort();
        out.insert(
            id,
            RowState {
                classifier,
                cluster_members,
                annotations,
            },
        );
    }
    out
}

fn serial_replay(script: &SessionScript) -> Database {
    let mut db = Database::new();
    for stmt in script.serial_order() {
        db.execute_sql(&stmt)
            .unwrap_or_else(|e| panic!("serial replay failed: {e}\n{stmt}"));
    }
    db
}

fn boot() -> (Server, ServerHandle) {
    let db = ShardedDatabase::create(DbConfig::default(), 1).expect("engine");
    let server = Server::bind_sharded("127.0.0.1:0", db, ServerConfig::default()).expect("bind");
    let handle = server.handle();
    (server, handle)
}

/// Drives one writer stream: batch size 1 sends one `Annotate` frame per
/// statement, larger sizes send `AnnotateBatch` chunks. Every item must
/// be acknowledged.
fn drive(client: &mut Client, stream: &[String], batch: usize) {
    if batch <= 1 {
        for sql in stream {
            client.annotate(sql).expect("annotate");
        }
    } else {
        for chunk in stream.chunks(batch) {
            for item in client.annotate_batch(chunk.to_vec()).expect("batch frame") {
                item.expect("batch item");
            }
        }
    }
}

const WRITERS: usize = 8;

#[test]
fn concurrent_batch_writers_match_serial_replay() {
    let script = ingest_script(&IngestConfig {
        seed: 0xBA7C4,
        writers: WRITERS,
        annotations_per_writer: 24,
        num_birds: 60,
        ..IngestConfig::default()
    });
    let reference = fingerprint(&serial_replay(&script));

    let (server, handle) = boot();
    let addr = server.local_addr().expect("addr");
    let db_arc = server.sharded_database();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    let mut setup_client = Client::connect(addr).expect("connect for setup");
    for stmt in &script.setup {
        setup_client.execute(stmt).expect("setup statement");
    }

    // Writers mix frame granularities — single Annotate frames alongside
    // AnnotateBatch frames of several sizes — so the committer coalesces
    // jobs of uneven shape into shared groups. Readers scan throughout,
    // holding the shared lock the commit queue must wait out.
    let batch_sizes = [1usize, 1, 4, 4, 8, 8, 16, 24];
    let stop_readers = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let stop = Arc::clone(&stop_readers);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("reader connect");
                while !stop.load(Ordering::Relaxed) {
                    client
                        .query("SELECT name, wingspan FROM birds")
                        .expect("reader query");
                }
            });
        }
        let writers: Vec<_> = script
            .clients
            .iter()
            .zip(batch_sizes)
            .map(|(stream, batch)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("writer connect");
                    drive(&mut client, stream, batch);
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer");
        }
        stop_readers.store(true, Ordering::Relaxed);
    });

    {
        let db = db_arc.shard(0).read();
        let concurrent = fingerprint(&db);
        assert_eq!(concurrent.len(), reference.len(), "row count");
        for (id, want) in &reference {
            assert_eq!(concurrent.get(id), Some(want), "row {id} diverged");
        }
    }

    handle.shutdown();
    server_thread.join().expect("join server");
    // Setup plus at least one frame per writer chunk (readers add more).
    let min_frames: usize = script
        .clients
        .iter()
        .zip(batch_sizes)
        .map(|(stream, batch)| stream.len().div_ceil(batch.max(1)))
        .sum();
    assert!(
        handle.requests_served() as usize >= script.setup.len() + min_frames,
        "served {} requests",
        handle.requests_served()
    );
}

#[test]
fn graceful_shutdown_mid_queue_loses_no_reply() {
    // Far more work than will ever commit: shutdown fires early, so most
    // of these streams die in flight — which is the point.
    let script = ingest_script(&IngestConfig {
        seed: 0x5D0FF,
        writers: 6,
        annotations_per_writer: 1600,
        num_birds: 40,
        ..IngestConfig::default()
    });

    let (server, handle) = boot();
    let addr = server.local_addr().expect("addr");
    let db_arc = server.sharded_database();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    let mut setup_client = Client::connect(addr).expect("connect for setup");
    for stmt in &script.setup {
        setup_client.execute(stmt).expect("setup statement");
    }
    let setup_frames = handle.requests_served();

    let acked: u64 = std::thread::scope(|scope| {
        let writers: Vec<_> = script
            .clients
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("writer connect");
                    let mut acked = 0u64;
                    'frames: for chunk in stream.chunks(8) {
                        match client.annotate_batch(chunk.to_vec()) {
                            Ok(items) => {
                                for item in items {
                                    // A structured per-item error would
                                    // mean a statement failed, not that
                                    // the server is going down.
                                    item.expect("batch item");
                                    acked += 1;
                                }
                            }
                            // Transport error or server-level error
                            // frame: shutdown reached this connection.
                            Err(_) => break 'frames,
                        }
                    }
                    acked
                })
            })
            .collect();

        // Let a handful of groups commit, then pull the plug while every
        // writer still has hundreds of frames queued behind it.
        while handle.requests_served() < setup_frames + 12 {
            std::thread::yield_now();
        }
        handle.shutdown();
        writers.into_iter().map(|w| w.join().expect("writer")).sum()
    });

    server_thread.join().expect("join server");

    let total_sent = 6 * 1600;
    assert!(acked > 0, "no annotations were acknowledged");
    assert!(
        acked < total_sent,
        "all {total_sent} annotations committed before shutdown; the test \
         did not exercise a mid-queue shutdown"
    );
    // The lossless-shutdown contract, both directions: an ack implies
    // the annotation is in the final state (committed work is never
    // rolled back), and a committed annotation implies its ack reached
    // the writer (the read-side shutdown lets in-flight replies flush).
    let committed = db_arc.annotation_count() as u64;
    assert_eq!(
        committed, acked,
        "committed annotations and acknowledged annotations diverged"
    );
}
