//! Concurrent sessions against one `insightd`: N client threads mix
//! Read-class SELECTs with Write-class `ADD ANNOTATION`s over the wire,
//! and the final database state must match a serial replay of the same
//! statements on an embedded [`Database`].
//!
//! What "match" means here is the paper's summary-object semantics, not
//! byte identity: annotation ids are assigned in arrival order, which
//! differs run to run under real concurrency, so the comparison uses
//! order-insensitive state —
//!
//! - the data rows themselves (writes never touch them),
//! - per-row classifier summary objects (label counts are a commutative
//!   aggregate, so every serializable order yields the same object),
//! - per-row cluster membership totals (the partition into groups can
//!   depend on arrival order, the member count cannot),
//! - the per-row multiset of (text, author) raw annotations.
//!
//! The run finishes with a wire-level shutdown and asserts the final
//! snapshot reopens with the same state (clean shutdown writes a shard
//! snapshot that a fresh `Database::open` reads).

use insightnotes_client::Client;
use insightnotes_common::wire::Response;
use insightnotes_engine::shard::{shard_snapshot_path, snapshot_manifest_path};
use insightnotes_engine::{Database, DbConfig, ShardedDatabase};
use insightnotes_server::{Server, ServerConfig};
use insightnotes_workload::{session_script, SessionConfig, SessionScript};
use std::collections::BTreeMap;

const CLIENTS: usize = 8;

fn script() -> SessionScript {
    session_script(&SessionConfig {
        seed: 0xC0C0,
        clients: CLIENTS,
        statements_per_client: 24,
        num_birds: 120,
        write_ratio: 0.4,
    })
}

/// Order-insensitive database state: one entry per bird row id.
#[derive(Debug, PartialEq)]
struct RowState {
    values: String,
    classifier: Option<String>,
    cluster_members: Option<usize>,
    annotations: Vec<(String, String)>,
}

fn fingerprint(db: &Database) -> BTreeMap<i64, RowState> {
    let result = db
        .query_uncached("SELECT id, name, sci_name, weight, wingspan, region FROM birds")
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
            let name = db
                .registry()
                .instance(*inst)
                .expect("instance")
                .name()
                .to_string();
            match name.as_str() {
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
        // Base-table scans preserve insert order, so result position i is
        // the storage RowId.
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
                values: format!("{:?}", row.row.values()),
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

#[test]
fn concurrent_sessions_match_serial_replay() {
    let script = script();
    let reference = fingerprint(&serial_replay(&script));

    let snapshot = std::env::temp_dir().join(format!(
        "insightnotes-server-concurrency-{}.indb",
        std::process::id()
    ));
    std::fs::remove_file(shard_snapshot_path(&snapshot, 0)).ok();
    std::fs::remove_file(snapshot_manifest_path(&snapshot)).ok();

    let config = ServerConfig {
        snapshot_path: Some(snapshot.clone()),
        ..ServerConfig::default()
    };
    let db = ShardedDatabase::create(DbConfig::default(), 1).expect("engine");
    let server = Server::bind_sharded("127.0.0.1:0", db, config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let db_arc = server.sharded_database();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    // Serial setup phase over one connection.
    let mut setup_client = Client::connect(addr).expect("connect for setup");
    for stmt in &script.setup {
        setup_client.execute(stmt).expect("setup statement");
    }

    // N concurrent sessions, each its own connection, mixing reads and
    // annotation writes.
    std::thread::scope(|scope| {
        for (i, stream) in script.clients.iter().enumerate() {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for sql in stream {
                    match client.send_sql(sql).expect("transport") {
                        Response::Error(e) => {
                            panic!("client {i}: server error for {sql}: {}", e.into_error())
                        }
                        Response::Rows(_) | Response::Ack { .. } | Response::Zoomed(_) => {}
                        other => panic!("client {i}: unexpected frame {other:?}"),
                    }
                }
            });
        }
    });

    // Concurrent state must match the serial replay before shutdown.
    {
        let db = db_arc.shard(0).read();
        let concurrent = fingerprint(&db);
        assert_eq!(concurrent.len(), reference.len(), "row count");
        for (id, want) in &reference {
            assert_eq!(concurrent.get(id), Some(want), "row {id} diverged");
        }
    }

    // Wire-level shutdown: the server snapshots and exits.
    setup_client.shutdown_server().expect("shutdown frame");
    let served = server_thread.join().expect("join server");
    assert!(
        served as usize >= script.setup.len() + CLIENTS * 24,
        "served {served} requests"
    );

    // The final snapshot reopens with the same order-insensitive state.
    let shard0 = shard_snapshot_path(&snapshot, 0);
    let reopened = Database::open(&shard0).expect("reopen snapshot");
    assert_eq!(fingerprint(&reopened), reference, "snapshot state");
    std::fs::remove_file(&shard0).ok();
    std::fs::remove_file(snapshot_manifest_path(&snapshot)).ok();
}
