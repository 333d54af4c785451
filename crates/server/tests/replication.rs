//! End-to-end WAL-shipping replication: a replica bootstrapped from a
//! live primary under concurrent batched writes must converge to a
//! byte-identical logical snapshot (checked at shards ∈ {1, 4} over
//! several write mixes), serve reads locally with read-your-writes via
//! `wait_for_offset`, and reject every write path with a structured
//! `read_only_replica` error. The daemon tests then SIGKILL a replica
//! process mid-tail and mid-bootstrap (via `INSIGHTNOTES_CRASH_POINT`)
//! and verify it resubscribes from its last applied offset without
//! diverging from the primary.

#![cfg(unix)]

use insightnotes_client::Client;
use insightnotes_common::wire::ShardPosition;
use insightnotes_common::Error;
use insightnotes_engine::wal::Wal;
use insightnotes_engine::{DbConfig, ShardedDatabase, SyncPolicy};
use insightnotes_replication::replica::{ReplicaConfig, Replicator};
use insightnotes_replication::PositionTable;
use insightnotes_server::{ReplicaServing, Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("insightnotes-repl-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Nine rows so batches spread across a 4-shard hash layout.
const SCHEMA: &str = "CREATE TABLE t (p INT, q TEXT); \
     INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three'), \
       (4, 'four'), (5, 'five'), (6, 'six'), (7, 'seven'), \
       (8, 'eight'), (9, 'nine'); \
     CREATE SUMMARY INSTANCE K TYPE CLUSTER THRESHOLD 0.5; \
     LINK SUMMARY K TO t";

fn annotation_sql(text: &str, row: u64) -> String {
    format!("ADD ANNOTATION '{text}' AUTHOR 'repl' ON t WHERE p = {row}")
}

// ---------------------------------------------------------------- in-process

struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

fn serve(db: ShardedDatabase, config: ServerConfig) -> Running {
    let server = Server::bind_sharded("127.0.0.1:0", db, config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let thread = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    Running {
        addr,
        handle,
        thread: Some(thread),
    }
}

impl Running {
    fn client(&self) -> Client {
        Client::connect_timeout(&self.addr, Duration::from_secs(10)).expect("connect")
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread");
        }
    }
}

/// Waits until the replica's applied position vector covers `target`.
fn wait_applied(positions: &PositionTable, target: &[ShardPosition]) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let applied = positions.snapshot();
        if applied.len() == target.len() && applied.iter().zip(target).all(|(a, t)| a >= t) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replica stalled: applied {applied:?}, wanted {target:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One convergence round: a WAL-backed primary takes concurrent batched
/// writes from several connections while a cold replica bootstraps
/// mid-stream and tails to the end; every shard's checkpoint bytes must
/// then equal a fresh recovery of the primary's on-disk state.
fn converge_round(shards: usize, writers: usize, rounds: usize, seed: u64) {
    let dir = scratch(&format!("conv-{shards}-{writers}-{seed}"));
    let config = DbConfig {
        wal_dir: Some(dir.join("wal")),
        wal_sync: SyncPolicy::Batch,
        ..DbConfig::default()
    };
    let (db, _) = ShardedDatabase::recover(None, config.clone(), shards).expect("primary recover");
    let primary = serve(db, ServerConfig::default());
    let mut c = primary.client();
    c.execute(SCHEMA).expect("schema");

    let boot_cell = std::sync::Mutex::new(None);
    std::thread::scope(|scope| {
        for w in 0..writers {
            let addr = primary.addr;
            scope.spawn(move || {
                let mut wc =
                    Client::connect_timeout(&addr, Duration::from_secs(10)).expect("writer");
                for round in 0..rounds {
                    let batch: Vec<String> = (0..8)
                        .map(|i| {
                            // Cheap deterministic mix of rows and texts.
                            let row = (seed + w as u64 * 31 + round as u64 * 7 + i) % 9 + 1;
                            annotation_sql(&format!("s{seed} w{w} r{round} i{i}"), row)
                        })
                        .collect();
                    for item in wc.annotate_batch(batch).expect("batch frame") {
                        item.expect("batch item acked");
                    }
                }
            });
        }
        // Start the replica while the writers are mid-stream, so the
        // snapshot bootstrap races live group commits.
        std::thread::sleep(Duration::from_millis(30));
        let boot = Replicator::start(&ReplicaConfig::new(
            primary.addr.to_string(),
            dir.join("replica"),
        ))
        .expect("replica start");
        assert!(boot.resumed.iter().all(|r| !r), "cold dir must bootstrap");
        *boot_cell.lock().unwrap() = Some(boot);
    });
    let boot = boot_cell.into_inner().unwrap().unwrap();

    // Everything acked is committed; the wire target is the primary's
    // fsynced position vector after the last writer finished.
    let target = c.replica_state().expect("primary positions");
    assert_eq!(target.len(), shards);
    wait_applied(&boot.replicator.positions(), &target);
    drop(boot.replicator); // stop tailing before the primary goes away
    drop(primary);

    // Byte-identical convergence: the replica's applied state equals a
    // from-disk recovery of the primary's own snapshot+WAL, per shard.
    let (disk, _) = ShardedDatabase::recover(None, config, shards).expect("disk recover");
    for k in 0..shards {
        assert_eq!(
            disk.shard(k).read().snapshot_bytes(),
            boot.db.shard(k).read().snapshot_bytes(),
            "shard {k} of {shards} diverged (seed {seed})"
        );
    }
}

#[test]
fn replica_converges_byte_identically_single_shard() {
    for seed in [0xA11CE, 0xB0B] {
        converge_round(1, 2, 3, seed);
    }
}

#[test]
fn replica_converges_byte_identically_four_shards() {
    for seed in [0xC0FFEE, 0xD00D] {
        converge_round(4, 4, 3, seed);
    }
}

/// A replica's mirrored log whose header says format version 1 is
/// refused like any other unusable local state: the restarted replica
/// does not resume from it, bootstraps afresh from the primary, and
/// still converges byte-identically.
#[test]
fn replica_refuses_a_version_one_mirrored_log() {
    const SHARDS: usize = 2;
    let dir = scratch("v1-mirror");
    let config = DbConfig {
        wal_dir: Some(dir.join("wal")),
        wal_sync: SyncPolicy::Batch,
        ..DbConfig::default()
    };
    let (db, _) = ShardedDatabase::recover(None, config.clone(), SHARDS).expect("primary recover");
    let primary = serve(db, ServerConfig::default());
    let mut pc = primary.client();
    pc.execute(SCHEMA).expect("schema");
    let batch = (1..=9).map(|r| annotation_sql("mirrored", r)).collect();
    for item in pc.annotate_batch(batch).expect("batch frame") {
        item.expect("acked");
    }
    let target = pc.replica_state().expect("primary positions");
    let replica = ReplicaConfig::new(primary.addr.to_string(), dir.join("replica"));
    {
        let boot = Replicator::start(&replica).expect("replica start");
        wait_applied(&boot.replicator.positions(), &target);
    }
    for k in 0..SHARDS {
        let mirror = dir.join("replica").join(format!("shard-{k}")).join("wal");
        let log = Wal::path_in(&mirror);
        let mut bytes = std::fs::read(&log).expect("mirrored log");
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&log, bytes).expect("rewrite header");
        let err = Wal::open(&mirror, SyncPolicy::Batch).expect_err("version-1 log opened");
        assert_eq!(err.class(), "codec", "{err}");
    }
    let boot = Replicator::start(&replica).expect("replica restart");
    assert!(
        boot.resumed.iter().all(|r| !r),
        "a version-1 mirrored log was resumed from"
    );
    wait_applied(&boot.replicator.positions(), &target);
    drop(boot.replicator);
    drop(primary);
    let (disk, _) = ShardedDatabase::recover(None, config, SHARDS).expect("disk recover");
    for k in 0..SHARDS {
        assert_eq!(
            disk.shard(k).read().snapshot_bytes(),
            boot.db.shard(k).read().snapshot_bytes(),
            "shard {k} diverged after re-bootstrap"
        );
    }
}

#[test]
fn replica_serves_reads_locally_and_rejects_writes() {
    let dir = scratch("ryw");
    let config = DbConfig {
        wal_dir: Some(dir.join("wal")),
        wal_sync: SyncPolicy::Batch,
        ..DbConfig::default()
    };
    let (db, _) = ShardedDatabase::recover(None, config, 2).expect("primary recover");
    let primary = serve(db, ServerConfig::default());
    let mut pc = primary.client();
    pc.execute(SCHEMA).expect("schema");

    let boot = Replicator::start(&ReplicaConfig::new(
        primary.addr.to_string(),
        dir.join("replica"),
    ))
    .expect("replica start");
    let replica = serve(
        boot.db,
        ServerConfig {
            replica: Some(ReplicaServing {
                primary: primary.addr.to_string(),
                positions: boot.replicator.positions(),
            }),
            ..ServerConfig::default()
        },
    );
    let mut rc = replica.client();

    // Read-your-writes: write on the primary, wait for the replica to
    // cover the primary's committed vector, then read it back there.
    pc.annotate(&annotation_sql("fresh observation", 1))
        .expect("primary annotate");
    let target = pc.replica_state().expect("primary positions");
    rc.wait_for_offset(&target, Duration::from_secs(10))
        .expect("replica catches up");
    let rows = rc
        .query("SELECT p, q FROM t WHERE p = 1")
        .expect("replica read");
    assert_eq!(rows.rows.len(), 1);
    assert!(
        rows.rows[0].summaries.iter().any(|s| !s.is_empty()),
        "replica row should carry the propagated summary: {rows:?}"
    );
    let zoom = rc
        .zoom_in(&format!("ZOOMIN REFERENCE QID {} ON K INDEX 1", rows.qid))
        .expect("replica zoom-in");
    assert!(
        zoom.annotations
            .iter()
            .any(|a| a.text == "fresh observation"),
        "zoom-in on the replica should surface the annotation: {zoom:?}"
    );

    // Every write path is rejected with the structured class, naming
    // the primary so clients know where to go.
    let primary_name = primary.addr.to_string();
    let single = rc.annotate(&annotation_sql("rejected", 2)).unwrap_err();
    assert!(
        matches!(&single, Error::ReadOnlyReplica(m) if m.contains(&primary_name)),
        "annotate on a replica must fail read_only_replica, got: {single}"
    );
    let batch = rc
        .annotate_batch(vec![annotation_sql("rejected batch", 2)])
        .unwrap_err();
    assert!(matches!(batch, Error::ReadOnlyReplica(_)), "got: {batch}");
    let ddl = rc.execute("INSERT INTO t VALUES (10, 'ten')").unwrap_err();
    assert!(matches!(ddl, Error::ReadOnlyReplica(_)), "got: {ddl}");

    // The connection survives rejections and keeps serving reads.
    let again = rc
        .query("SELECT p FROM t WHERE p = 2")
        .expect("read after reject");
    assert_eq!(again.rows.len(), 1);
    drop(replica);
    drop(boot.replicator);
}

// ------------------------------------------------------------------ daemons

struct Daemon {
    child: Child,
    addr: SocketAddr,
}

fn spawn_insightd(args: &[String], envs: &[(&str, &str)]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_insightd"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd.env_remove("INSIGHTNOTES_CRASH_POINT");
    cmd.env_remove("INSIGHTNOTES_SYNC_FAIL_AFTER");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn insightd")
}

fn scrape_addr(child: &mut Child) -> SocketAddr {
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read listen line");
    line.trim()
        .strip_prefix("insightd listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .parse()
        .expect("parse bound address")
}

impl Daemon {
    fn primary(dir: &Path, shards: usize) -> Daemon {
        let mut args: Vec<String> = ["--addr", "127.0.0.1:0", "--sync", "batch"]
            .map(String::from)
            .to_vec();
        args.extend(["--shards".into(), shards.to_string()]);
        args.extend(["--wal-dir".into(), dir.display().to_string()]);
        let mut child = spawn_insightd(&args, &[]);
        let addr = scrape_addr(&mut child);
        Daemon { child, addr }
    }

    fn replica(primary: SocketAddr, dir: &Path, crash_point: Option<&str>) -> Daemon {
        let mut child = Self::replica_raw(primary, dir, crash_point);
        let addr = scrape_addr(&mut child);
        Daemon { child, addr }
    }

    /// Spawns without scraping the listen line — for crash points that
    /// may abort the process before (or while) it binds.
    fn replica_raw(primary: SocketAddr, dir: &Path, crash_point: Option<&str>) -> Child {
        let args: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--replica-of",
            &primary.to_string(),
            "--replica-dir",
            &dir.display().to_string(),
        ]
        .map(String::from)
        .to_vec();
        let envs: Vec<(&str, &str)> = match crash_point {
            Some(point) => vec![("INSIGHTNOTES_CRASH_POINT", point)],
            None => vec![],
        };
        spawn_insightd(&args, &envs)
    }

    fn client(&self) -> Client {
        Client::connect_timeout(&self.addr, Duration::from_secs(10)).expect("connect")
    }

    fn kill_nine(mut self) {
        self.child.kill().expect("kill -9");
        self.child.wait().expect("reap");
    }

    /// Waits for the process to die on its own (injected abort).
    fn wait_dead(mut self) {
        let status = self.child.wait().expect("reap");
        assert!(!status.success(), "process was expected to abort");
    }

    /// Graceful stop; returns captured stderr.
    fn shutdown(mut self) -> String {
        self.client().shutdown_server().expect("shutdown request");
        self.child.wait().expect("reap");
        let mut err = String::new();
        self.child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut err)
            .expect("read stderr");
        err
    }
}

/// The full visible state of `t` through one connection: every row with
/// its rendered summaries, plus the raw annotations behind the first
/// cluster group. Two byte-identical servers render these identically.
fn observed_state(c: &mut Client) -> (Vec<String>, Vec<(String, String, String)>) {
    let rows = c.query("SELECT p, q FROM t").expect("scan");
    let rendered: Vec<String> = rows
        .rows
        .iter()
        .map(|r| {
            let values: Vec<String> = r.values.iter().map(ToString::to_string).collect();
            format!("{} | {}", values.join(","), r.summaries.join(" ; "))
        })
        .collect();
    let zoom = c
        .zoom_in(&format!("ZOOMIN REFERENCE QID {} ON K INDEX 1", rows.qid))
        .expect("zoom");
    let mut anns: Vec<(String, String, String)> = zoom
        .annotations
        .iter()
        .map(|a| (a.id.to_string(), a.author.clone(), a.text.clone()))
        .collect();
    anns.sort();
    (rendered, anns)
}

/// Kill a replica mid-tail (abort injected after a frame is mirrored
/// durably but before it applies), restart it, and verify it resumes
/// from its last applied offset — the mirrored frame replays from local
/// disk, the subscription continues from there, and the replica ends up
/// indistinguishable from the primary.
#[test]
fn replica_killed_mid_tail_resubscribes_from_last_applied_offset() {
    let dir = scratch("kill-tail");
    let rdir = dir.join("replica");
    let primary = Daemon::primary(&dir.join("wal"), 2);
    let mut pc = primary.client();
    pc.execute(SCHEMA).expect("schema");
    for item in pc
        .annotate_batch(
            (0..6)
                .map(|i| annotation_sql(&format!("pre {i}"), i + 1))
                .collect(),
        )
        .expect("batch A")
    {
        item.expect("acked");
    }
    let target_a = pc.replica_state().expect("positions after A");

    // Life 1: bootstrap completes (the replica covers batch A), then
    // the first live frame trips the abort after its durable mirror.
    let replica = Daemon::replica(primary.addr, &rdir, Some("replica.apply.after_mirror"));
    replica
        .client()
        .wait_for_offset(&target_a, Duration::from_secs(20))
        .expect("bootstrap covers batch A");
    for item in pc
        .annotate_batch(
            (0..4)
                .map(|i| annotation_sql(&format!("mid {i}"), i + 2))
                .collect(),
        )
        .expect("batch B")
    {
        item.expect("acked");
    }
    let target_b = pc.replica_state().expect("positions after B");
    replica.wait_dead();

    // Life 2: local recovery replays the mirrored frame — the applied
    // vector covers batch B *before* any new frame could arrive, which
    // is only possible if the replica resumed instead of re-bootstrapping.
    let replica = Daemon::replica(primary.addr, &rdir, None);
    let mut rc = replica.client();
    rc.wait_for_offset(&target_b, Duration::from_secs(20))
        .expect("resumed replica covers the mirrored batch");
    for item in pc
        .annotate_batch(
            (0..4)
                .map(|i| annotation_sql(&format!("post {i}"), i + 3))
                .collect(),
        )
        .expect("batch C")
    {
        item.expect("acked");
    }
    let target_c = pc.replica_state().expect("positions after C");
    rc.wait_for_offset(&target_c, Duration::from_secs(20))
        .expect("replica tails batch C");

    assert_eq!(observed_state(&mut pc), observed_state(&mut rc));
    let stderr = replica.shutdown();
    assert!(
        stderr.contains("resuming from local state"),
        "restart must resume, not re-bootstrap; stderr: {stderr}"
    );
    primary.kill_nine();
}

/// Kill a replica mid-bootstrap (abort injected after the snapshot is
/// received but before any local state is installed): the half-dead
/// shard classifies as cold, and a restart re-bootstraps from scratch
/// and still converges.
#[test]
fn replica_killed_mid_bootstrap_rebootstraps_cleanly() {
    let dir = scratch("kill-boot");
    let rdir = dir.join("replica");
    let primary = Daemon::primary(&dir.join("wal"), 2);
    let mut pc = primary.client();
    pc.execute(SCHEMA).expect("schema");
    for item in pc
        .annotate_batch(
            (0..6)
                .map(|i| annotation_sql(&format!("seed {i}"), i + 1))
                .collect(),
        )
        .expect("seed batch")
    {
        item.expect("acked");
    }

    // Life 1 aborts inside the bootstrap; no meta may be left behind.
    let doomed = Daemon::replica_raw(
        primary.addr,
        &rdir,
        Some("replica.bootstrap.before_install"),
    );
    let status = doomed.wait_with_output().expect("reap");
    assert!(!status.status.success(), "bootstrap abort expected");
    assert!(
        !rdir.join("shard-0").join("meta").exists(),
        "an aborted bootstrap must not leave a meta commit point"
    );

    // Life 2 starts cold again, bootstraps, and converges.
    let replica = Daemon::replica(primary.addr, &rdir, None);
    let mut rc = replica.client();
    pc.annotate(&annotation_sql("after restart", 4))
        .expect("live write");
    let target = pc.replica_state().expect("positions");
    rc.wait_for_offset(&target, Duration::from_secs(20))
        .expect("rebootstrapped replica converges");
    assert_eq!(observed_state(&mut pc), observed_state(&mut rc));

    let stderr = replica.shutdown();
    assert!(
        stderr.contains("cold, bootstrapping from primary"),
        "life 2 must report a cold bootstrap; stderr: {stderr}"
    );
    primary.kill_nine();
}
