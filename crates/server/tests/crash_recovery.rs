//! End-to-end crash recovery through the real `insightd` binary: a
//! server running with `--wal-dir` is killed with SIGKILL (no shutdown
//! handler, no snapshot, no destructors) and restarted, and every
//! annotation whose ack a client received before the kill must be
//! queryable again. A second test aborts the server *inside* the
//! group-commit fsync via `INSIGHTNOTES_CRASH_POINT` — the client sees
//! a dead connection instead of an ack, and recovery must preserve
//! exactly the previously-acked prefix.

#![cfg(unix)]

use insightnotes_client::Client;
use insightnotes_engine::shard::shard_snapshot_path;
use insightnotes_engine::Database;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "insightnotes-crashrec-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns `insightd` on an ephemeral port with a WAL and snapshot
    /// in `dir`, scraping the bound address off the first stdout line.
    /// `shards` is pinned explicitly so the layout under test doesn't
    /// depend on the machine's core count.
    fn spawn(dir: &Path, shards: usize, crash_point: Option<&str>) -> Daemon {
        Daemon::spawn_with(dir, shards, crash_point, &[])
    }

    /// Like [`Daemon::spawn`], with extra fault-injection environment
    /// variables (e.g. `INSIGHTNOTES_SYNC_FAIL_AFTER`) set on the child.
    fn spawn_with(
        dir: &Path,
        shards: usize,
        crash_point: Option<&str>,
        envs: &[(&str, &str)],
    ) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_insightd"));
        cmd.args(["--addr", "127.0.0.1:0", "--sync", "batch"])
            .args(["--shards", &shards.to_string()])
            .arg("--wal-dir")
            .arg(dir)
            .arg("--snapshot")
            .arg(dir.join("db.indb"))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        match crash_point {
            Some(point) => cmd.env("INSIGHTNOTES_CRASH_POINT", point),
            None => cmd.env_remove("INSIGHTNOTES_CRASH_POINT"),
        };
        cmd.env_remove("INSIGHTNOTES_SYNC_FAIL_AFTER");
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn insightd");
        let mut line = String::new();
        BufReader::new(child.stdout.as_mut().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read listen line");
        let addr = line
            .trim()
            .strip_prefix("insightd listening on ")
            .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
            .parse()
            .expect("parse bound address");
        Daemon { child, addr }
    }

    fn client(&self) -> Client {
        Client::connect_timeout(&self.addr, Duration::from_secs(10)).expect("connect")
    }

    /// SIGKILL — the crash under test. Nothing on the server gets a
    /// chance to run: no snapshot, no flush, no Drop.
    fn kill_nine(mut self) {
        self.child.kill().expect("kill -9");
        self.child.wait().expect("reap");
    }

    /// Graceful stop via the wire protocol; returns the server's
    /// captured stderr (recovery reports land there).
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

    /// Waits for the process to die on its own (injected abort).
    fn wait_dead(mut self) {
        let status = self.child.wait().expect("reap");
        assert!(!status.success(), "server was expected to abort");
    }
}

const SCHEMA: &str = "CREATE TABLE t (p INT, q TEXT); \
     INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three'); \
     CREATE SUMMARY INSTANCE K TYPE CLUSTER THRESHOLD 0.5; \
     LINK SUMMARY K TO t";

fn annotation_sql(text: &str, row: u64) -> String {
    format!("ADD ANNOTATION '{text}' AUTHOR 'crash' ON t WHERE p = {row}")
}

/// All annotation texts across the per-shard snapshot files
/// (`<path>.shard<k>`), sorted. Annotations are partitioned, so the
/// union over shards is the full logical store.
fn texts_in_sharded_snapshots(path: &Path, shards: usize) -> Vec<String> {
    let mut texts = Vec::new();
    for k in 0..shards {
        let db = Database::open(shard_snapshot_path(path, k)).expect("open shard snapshot");
        let count = db.store().stats().count;
        let before = texts.len();
        // Annotation ids are global; each shard holds a subset.
        for raw in 1..=1024u64 {
            if let Ok(a) = db.store().get(insightnotes_common::AnnotationId::new(raw)) {
                texts.push(a.body.text.clone());
            }
        }
        assert_eq!(
            texts.len() - before,
            count,
            "id scan missed shard {k} annotations"
        );
    }
    texts.sort();
    texts
}

#[test]
fn kill_nine_loses_no_acked_annotations() {
    let dir = scratch("kill9");

    // First life: schema plus a group-committed batch, all acked.
    let daemon = Daemon::spawn(&dir, 1, None);
    let mut c = daemon.client();
    c.execute(SCHEMA).expect("schema");
    let batch: Vec<String> = (0..8)
        .map(|i| annotation_sql(&format!("survivor {i}"), i % 3 + 1))
        .collect();
    for item in c.annotate_batch(batch).expect("batch frame") {
        item.expect("batch item acked");
    }
    daemon.kill_nine();

    // Second life: recovery replays the log; the server keeps working.
    let daemon = Daemon::spawn(&dir, 1, None);
    let mut c = daemon.client();
    c.annotate(&annotation_sql("post-restart", 2))
        .expect("annotate after recovery");
    let stderr = daemon.shutdown();
    assert!(
        stderr.contains("recovery:"),
        "restarted server should report recovery, stderr: {stderr}"
    );

    let mut expected: Vec<String> = (0..8).map(|i| format!("survivor {i}")).collect();
    expected.push("post-restart".into());
    expected.sort();
    assert_eq!(
        texts_in_sharded_snapshots(&dir.join("db.indb"), 1),
        expected
    );
}

/// The sharded daemon under the same SIGKILL: acked writes are spread
/// across four shard WAL segments with independent committers, and a
/// restart must replay every segment — no acked annotation may be lost
/// on any shard, and the per-shard recovery report must land on stderr.
#[test]
fn sharded_kill_nine_loses_no_acked_annotations() {
    const SHARDS: usize = 4;
    let dir = scratch("kill9-sharded");

    // First life: widen to nine rows so the batch lands on several
    // shards, then ack a group-committed batch.
    let daemon = Daemon::spawn(&dir, SHARDS, None);
    let mut c = daemon.client();
    c.execute(SCHEMA).expect("schema");
    c.execute(
        "INSERT INTO t VALUES (4, 'four'), (5, 'five'), (6, 'six'), \
         (7, 'seven'), (8, 'eight'), (9, 'nine')",
    )
    .expect("widen table");
    let batch: Vec<String> = (0..12)
        .map(|i| annotation_sql(&format!("shard survivor {i}"), i % 9 + 1))
        .collect();
    for item in c.annotate_batch(batch).expect("batch frame") {
        item.expect("batch item acked");
    }
    daemon.kill_nine();

    // Second life: per-shard recovery replays each segment; the server
    // keeps accepting writes.
    let daemon = Daemon::spawn(&dir, SHARDS, None);
    let mut c = daemon.client();
    c.annotate(&annotation_sql("post-restart", 5))
        .expect("annotate after recovery");
    let stderr = daemon.shutdown();
    assert!(
        stderr.contains("recovery: shard 0:") && stderr.contains("recovery: shard 3:"),
        "restart should report per-shard recovery, stderr: {stderr}"
    );
    assert!(
        stderr.contains(&format!("across {SHARDS} shard(s)")),
        "restart should summarise the shard count, stderr: {stderr}"
    );

    let mut expected: Vec<String> = (0..12).map(|i| format!("shard survivor {i}")).collect();
    expected.push("post-restart".into());
    expected.sort();
    assert_eq!(
        texts_in_sharded_snapshots(&dir.join("db.indb"), SHARDS),
        expected
    );
}

#[test]
fn aborted_group_commit_preserves_exactly_the_acked_prefix() {
    let dir = scratch("abort-commit");

    // Ack a baseline, stop cleanly (checkpoints snapshot + rotates WAL).
    let daemon = Daemon::spawn(&dir, 1, None);
    let mut c = daemon.client();
    c.execute(SCHEMA).expect("schema");
    c.annotate(&annotation_sql("acked before crash", 1))
        .expect("baseline annotate");
    daemon.shutdown();

    // Second life dies inside the committer's fsync: the batch is never
    // acked — the client sees the connection drop instead.
    let daemon = Daemon::spawn(&dir, 1, Some("wal.sync.before"));
    let mut c = daemon.client();
    let unacked: Vec<String> = (0..4)
        .map(|i| annotation_sql(&format!("never acked {i}"), 1))
        .collect();
    let outcome = c.annotate_batch(unacked);
    assert!(
        outcome.is_err() || outcome.unwrap().iter().all(std::result::Result::is_err),
        "no item of the aborted batch may carry an Ok ack"
    );
    daemon.wait_dead();

    // Third life: everything acked is back; nothing partial. The
    // unacked batch is one atomic log record that never reached an
    // fsync — with the abort landing before the sync it may only
    // survive if the OS flushed it anyway, in which case it must be
    // complete (all 4) — never a partial group.
    let daemon = Daemon::spawn(&dir, 1, None);
    let mut c = daemon.client();
    c.annotate(&annotation_sql("after recovery", 3))
        .expect("annotate after recovery");
    daemon.shutdown();

    let texts = texts_in_sharded_snapshots(&dir.join("db.indb"), 1);
    assert!(texts.contains(&"acked before crash".to_string()));
    assert!(texts.contains(&"after recovery".to_string()));
    let ghosts = texts
        .iter()
        .filter(|t| t.starts_with("never acked"))
        .count();
    assert!(
        ghosts == 0 || ghosts == 4,
        "unacked group must recover atomically, found {ghosts}/4"
    );
}

/// DESIGN.md §12 residual, closed: once a shard's fsync fails, that
/// shard's commits stay disabled for the committer's whole lifetime.
/// The first write after the failure reports the fsync error; every
/// later write is rejected up front (its record never reaches the log),
/// so no annotation whose durability was compensated with an error can
/// silently resurrect. A restart recovers the durable prefix and serves
/// writes again.
#[test]
fn fsync_poisoned_shard_stays_poisoned_for_the_committer_lifetime() {
    let dir = scratch("poisoned");

    // Allow exactly two fsyncs (schema, then one acked annotation);
    // the third fails and must poison the shard.
    let daemon = Daemon::spawn_with(&dir, 1, None, &[("INSIGHTNOTES_SYNC_FAIL_AFTER", "2")]);
    let mut c = daemon.client();
    c.execute(SCHEMA).expect("schema (fsync 1)");
    c.annotate(&annotation_sql("durable before poison", 1))
        .expect("acked annotation (fsync 2)");
    let poisoning = c
        .annotate(&annotation_sql("failed the fsync", 2))
        .unwrap_err();
    assert!(
        poisoning.to_string().contains("injected fsync failure"),
        "first failure should surface the fsync error, got: {poisoning}"
    );
    // Sticky: later, unrelated groups are rejected without ever touching
    // the log — no retry can succeed until the process restarts.
    for i in 0..3 {
        let rejected = c
            .annotate(&annotation_sql(&format!("after poison {i}"), 3))
            .unwrap_err();
        assert!(
            rejected.to_string().contains("commits are disabled"),
            "write {i} after poisoning must be rejected up front, got: {rejected}"
        );
    }
    daemon.kill_nine();

    // Restart without the fault: the acked prefix is intact, writes
    // work again, and nothing rejected after the poisoning resurrects.
    let daemon = Daemon::spawn(&dir, 1, None);
    let mut c = daemon.client();
    c.annotate(&annotation_sql("post-restart", 1))
        .expect("annotate after recovery");
    daemon.shutdown();

    let texts = texts_in_sharded_snapshots(&dir.join("db.indb"), 1);
    assert!(texts.contains(&"durable before poison".to_string()));
    assert!(texts.contains(&"post-restart".to_string()));
    assert!(
        !texts.iter().any(|t| t.starts_with("after poison")),
        "poisoned-shard rejections must never reach the log: {texts:?}"
    );
}
