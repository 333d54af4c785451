//! Crash-recovery properties of the write-ahead log.
//!
//! The durability contract under test: once a write is acknowledged
//! (its WAL record fsynced), it survives any crash — process kill,
//! torn final record, crash mid-checkpoint — and recovery reproduces
//! the exact pre-crash state, byte-identical to a serial re-ingest of
//! the acked prefix. Crashes are simulated two ways:
//!
//! * **byte-level**: the WAL file is copied and truncated at every
//!   byte offset, which covers every possible torn-append shape;
//! * **process-level**: a helper invocation of this test binary runs
//!   an ingest loop with `INSIGHTNOTES_CRASH_POINT` set, aborting
//!   inside the engine's append/sync/checkpoint paths, and the driver
//!   recovers from whatever the dead process left on disk.
//!
//! Torn *snapshots* (satellite of the same bug class) are covered too:
//! truncated snapshot files must fail with a classified error, and
//! stale `.indb.tmp` files from a crashed save must be swept.

use insightnotes::common::RowId;
use insightnotes::engine::persist::snapshot;
use insightnotes::engine::shard::{shard_snapshot_path, snapshot_manifest_path, MANIFEST_FILE};
use insightnotes::engine::wal::{SyncPolicy, Wal};
use insightnotes::engine::{Database, DbConfig, ShardedDatabase};
use insightnotes::sql::parse_one;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("insightnotes-walrec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wal_config(dir: &Path, sync: SyncPolicy) -> DbConfig {
    DbConfig {
        wal_dir: Some(dir.to_path_buf()),
        wal_sync: sync,
        ..DbConfig::default()
    }
}

const SCHEMA: &str = "CREATE TABLE t (p INT, q TEXT);
     INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three');
     CREATE SUMMARY INSTANCE C TYPE CLASSIFIER
       LABELS ('Behavior', 'Disease')
       TRAIN ('Behavior': 'eating stonewort diving',
              'Disease': 'lesions parasites infection');
     CREATE SUMMARY INSTANCE K TYPE CLUSTER THRESHOLD 0.5;
     LINK SUMMARY C TO t;
     LINK SUMMARY K TO t;";

const STATEMENTS: &[&str] = &[
    "ADD ANNOTATION 'eating stonewort near shore' AUTHOR 'ada' ON t WHERE p = 1",
    "ADD ANNOTATION 'lesions parasites infection' AUTHOR 'brahe' ON t WHERE p = 2",
    "ADD ANNOTATION 'diving and foraging' AUTHOR 'ada' ON t WHERE p = 3",
    "ADD ANNOTATION 'eating stonewort near shore' AUTHOR 'curie' ON t COLUMNS (q) WHERE p = 1",
    "DELETE ANNOTATION 2",
    "ADD ANNOTATION 'parasites observed again' AUTHOR 'brahe' ON t WHERE p = 2",
];

/// Zero-stamped state bytes: catalog + store + registry, no epoch or
/// clock, so states reached through different persistence histories
/// (live vs snapshot+replay) compare equal iff logically identical.
fn state_bytes(db: &Database) -> Vec<u8> {
    snapshot(db.catalog(), db.store(), db.registry())
}

/// Reference states: `states[k]` is (state bytes, clock) after the
/// schema plus the first `k` entries of `STATEMENTS`, produced by a
/// plain WAL-less database — the "serial replay of the acked prefix"
/// the recovered state must be byte-identical to.
fn reference_states() -> Vec<(Vec<u8>, u64)> {
    let mut db = Database::new();
    db.execute_sql(SCHEMA).unwrap();
    let mut states = vec![(state_bytes(&db), db.clock_now())];
    for sql in STATEMENTS {
        db.execute_sql(sql).unwrap();
        states.push((state_bytes(&db), db.clock_now()));
    }
    states
}

// -- replay equivalence ---------------------------------------------------

#[test]
fn recovery_without_snapshot_replays_the_full_log() {
    let dir = scratch("full-replay");
    let pre_crash;
    {
        let mut db = Database::with_config(wal_config(&dir, SyncPolicy::Batch)).unwrap();
        db.execute_sql(SCHEMA).unwrap();
        for sql in STATEMENTS {
            db.execute_sql(sql).unwrap();
        }
        db.wal_sync().unwrap();
        pre_crash = (state_bytes(&db), db.clock_now());
        // Dropped without save: the WAL is the only persistent state.
    }
    let (db, report) = Database::recover(None, wal_config(&dir, SyncPolicy::Batch)).unwrap();
    assert!(!report.snapshot_loaded);
    // One Script record for the schema, one per ingest statement.
    assert_eq!(report.records_replayed, 1 + STATEMENTS.len());
    assert_eq!(report.bytes_truncated, 0);
    assert_eq!(
        state_bytes(&db),
        pre_crash.0,
        "replay diverged from pre-crash state"
    );
    assert_eq!(db.clock_now(), pre_crash.1, "logical clock diverged");
    assert_eq!(state_bytes(&db), reference_states().last().unwrap().0);
}

#[test]
fn recovery_replays_the_wal_tail_on_top_of_a_checkpoint() {
    let dir = scratch("tail-replay");
    let snap = dir.join("db.indb");
    let pre_crash;
    {
        let mut db = Database::with_config(wal_config(&dir, SyncPolicy::Batch)).unwrap();
        db.execute_sql(SCHEMA).unwrap();
        for sql in &STATEMENTS[..3] {
            db.execute_sql(sql).unwrap();
        }
        db.checkpoint(&snap).unwrap();
        assert_eq!(db.epoch(), 1);
        for sql in &STATEMENTS[3..] {
            db.execute_sql(sql).unwrap();
        }
        db.wal_sync().unwrap();
        pre_crash = (state_bytes(&db), db.clock_now());
    }
    let (db, report) = Database::recover(Some(&snap), wal_config(&dir, SyncPolicy::Batch)).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(report.records_replayed, STATEMENTS.len() - 3);
    assert_eq!(db.epoch(), 1);
    assert_eq!(state_bytes(&db), pre_crash.0);
    assert_eq!(db.clock_now(), pre_crash.1);
}

#[test]
fn typed_and_batch_entry_points_replay_identically() {
    use insightnotes::annotations::{AnnotationBody, ColSig};
    use insightnotes::common::RowId;
    use insightnotes::engine::{RowAnnotation, SqlStatement};

    let dir = scratch("typed-replay");
    let pre_crash;
    {
        let mut db = Database::with_config(wal_config(&dir, SyncPolicy::Batch)).unwrap();
        db.execute_sql(SCHEMA).unwrap();
        // SQL batch (the server's group-commit path).
        let stmts: Vec<SqlStatement> = [
            STATEMENTS[0],
            "ADD ANNOTATION 'bogus' ON missing WHERE p = 1", // per-item failure
            STATEMENTS[1],
        ]
        .iter()
        .map(|s| SqlStatement::parse(*s).unwrap())
        .collect();
        let results = db.annotate_batch_sql(stmts);
        assert_eq!(
            results
                .iter()
                .map(std::result::Result::is_ok)
                .collect::<Vec<_>>(),
            [true, false, true]
        );
        // Typed single + typed batch.
        db.annotate_rows(
            "t",
            &[RowId::new(1), RowId::new(3)],
            ColSig::whole_row(2),
            AnnotationBody::text("diving and foraging", "ada"),
        )
        .unwrap();
        let ids = db.annotate_rows_batch(vec![
            RowAnnotation {
                table: "t".into(),
                rows: vec![RowId::new(2)],
                cols: ColSig::whole_row(2),
                body: AnnotationBody::text("lesions parasites", "brahe"),
            },
            RowAnnotation {
                table: "missing".into(), // per-item failure must re-fail on replay
                rows: vec![RowId::new(1)],
                cols: ColSig::whole_row(2),
                body: AnnotationBody::text("x", "y"),
            },
        ]);
        assert!(ids[0].is_ok() && ids[1].is_err());
        db.wal_sync().unwrap();
        pre_crash = (state_bytes(&db), db.clock_now());
    }
    let (db, _) = Database::recover(None, wal_config(&dir, SyncPolicy::Batch)).unwrap();
    assert_eq!(state_bytes(&db), pre_crash.0);
    assert_eq!(db.clock_now(), pre_crash.1);
}

// -- acked-prefix durability under byte-level truncation ------------------

/// The core acked-writes property, exhaustively: ingest with per-record
/// watermarks, then truncate the log at *every* byte offset. Recovery
/// must land exactly on the reference state of the longest fully
/// durable prefix — never panic, never lose an acked record below the
/// cut, never invent a partial one above it.
#[test]
fn truncation_at_every_byte_recovers_the_longest_durable_prefix() {
    let dir = scratch("every-byte");
    let refs = reference_states();
    let mut watermarks = Vec::new(); // watermarks[k] = wal_len after k statements
    {
        let mut db = Database::with_config(wal_config(&dir, SyncPolicy::Always)).unwrap();
        db.execute_sql(SCHEMA).unwrap();
        watermarks.push(db.wal_len().unwrap());
        for sql in STATEMENTS {
            db.execute_sql(sql).unwrap();
            watermarks.push(db.wal_len().unwrap());
        }
    }
    let wal_path = Wal::path_in(&dir);
    let bytes = std::fs::read(&wal_path).unwrap();
    assert_eq!(bytes.len() as u64, *watermarks.last().unwrap());

    let schema_end = watermarks[0];
    for cut in schema_end..=bytes.len() as u64 {
        let dir2 = scratch("every-byte-cut");
        std::fs::write(Wal::path_in(&dir2), &bytes[..cut as usize]).unwrap();
        let (db, report) = Database::recover(None, wal_config(&dir2, SyncPolicy::Batch))
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery failed: {e}"));
        // Longest statement prefix whose records fit under the cut.
        let k = watermarks.iter().filter(|&&w| w <= cut).count() - 1;
        assert_eq!(
            state_bytes(&db),
            refs[k].0,
            "cut at byte {cut}: expected state after {k} statements"
        );
        assert_eq!(db.clock_now(), refs[k].1, "cut at byte {cut}: clock");
        assert_eq!(report.bytes_truncated, cut - watermarks[k]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same property under random corruption rather than truncation: a
    /// flipped byte anywhere in the final record's frame drops that
    /// record (and nothing before it) or — if it hits the length field
    /// such that the frame now overruns the file — truncates the tail.
    /// Either way recovery lands on a reference prefix state.
    #[test]
    fn corrupting_the_final_record_never_loses_earlier_acks(
        victim_back_off in 0usize..64,
        flip in 1u8..=255,
    ) {
        let dir = scratch("corrupt-prop");
        let refs = reference_states();
        let mut watermarks = Vec::new();
        {
            let mut db = Database::with_config(wal_config(&dir, SyncPolicy::Always)).unwrap();
            db.execute_sql(SCHEMA).unwrap();
            watermarks.push(db.wal_len().unwrap());
            for sql in STATEMENTS {
                db.execute_sql(sql).unwrap();
                watermarks.push(db.wal_len().unwrap());
            }
        }
        let wal_path = Wal::path_in(&dir);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let last_start = watermarks[watermarks.len() - 2] as usize;
        // Corrupt a byte inside the final record's frame.
        let idx = bytes.len() - 1 - victim_back_off.min(bytes.len() - last_start - 1);
        bytes[idx] ^= flip;
        std::fs::write(&wal_path, &bytes).unwrap();

        let (db, _) = Database::recover(None, wal_config(&dir, SyncPolicy::Batch)).unwrap();
        let got = state_bytes(&db);
        let hit = refs
            .iter()
            .position(|(s, _)| *s == got)
            .expect("recovered state matches no reference prefix");
        prop_assert!(
            hit >= STATEMENTS.len() - 1,
            "corrupting the final record lost earlier records (prefix {hit})"
        );
    }
}

// -- process-kill fault injection -----------------------------------------

/// Helper body, run in a child process with `INSIGHTNOTES_CRASH_POINT`
/// set: ingests `STATEMENTS` one at a time, appending the statement
/// index to an `acked` file only after `wal_sync` returns — the moment
/// a server would release the client's ack. The injected crash aborts
/// somewhere inside append/sync, so the child dies mid-ingest.
#[test]
fn crash_helper_ingest() {
    let Ok(dir) = std::env::var("INSIGHTNOTES_CRASH_HELPER_DIR") else {
        return; // Not a helper invocation: nothing to do.
    };
    let dir = PathBuf::from(dir);
    let mut db = Database::with_config(wal_config(&dir, SyncPolicy::Batch)).unwrap();
    db.execute_sql(SCHEMA).unwrap();
    db.wal_sync().unwrap();
    use std::io::Write;
    let mut acked = std::fs::File::create(dir.join("acked")).unwrap();
    writeln!(acked, "schema").unwrap();
    acked.sync_all().unwrap();
    for (i, sql) in STATEMENTS.iter().enumerate() {
        db.execute_sql(sql).unwrap();
        db.wal_sync().unwrap();
        writeln!(acked, "{i}").unwrap();
        acked.sync_all().unwrap();
    }
    // Crash points upstream usually abort before reaching here; if the
    // configured point was never hit, the helper just exits cleanly.
}

fn run_crash_helper(dir: &Path, crash_point: &str) -> std::process::ExitStatus {
    Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "crash_helper_ingest",
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .env("INSIGHTNOTES_CRASH_HELPER_DIR", dir)
        .env("INSIGHTNOTES_CRASH_POINT", crash_point)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn helper")
}

/// Acked units: the schema script counts as one, each statement as one
/// more — matching the indices of [`prefix_states`].
fn acked_count(dir: &Path) -> usize {
    match std::fs::read_to_string(dir.join("acked")) {
        Ok(s) => s.lines().count(),
        Err(_) => 0,
    }
}

/// [`reference_states`] extended downwards with the empty database:
/// `prefix_states()[u]` is the state after `u` acked units (0 = not
/// even the schema made it to disk).
fn prefix_states() -> Vec<(Vec<u8>, u64)> {
    let empty = Database::new();
    let mut states = vec![(state_bytes(&empty), empty.clock_now())];
    states.extend(reference_states());
    states
}

/// Every acked statement survives an abort injected at each crash
/// point in the append/sync path; the recovered state is byte-identical
/// to a serial replay of *some* prefix at least as long as the acked
/// one (a record can be durable without its ack having been released —
/// durability may overshoot the ack, never undershoot it).
#[test]
fn injected_crashes_never_lose_acked_statements() {
    let refs = prefix_states();
    for crash_point in [
        "wal.append.before",
        "wal.append.torn",
        "wal.append.after",
        "wal.sync.before",
        "wal.sync.after",
    ] {
        let dir = scratch(&format!("crash-{}", crash_point.replace('.', "-")));
        let status = run_crash_helper(&dir, crash_point);
        assert!(
            !status.success(),
            "{crash_point}: helper was expected to abort"
        );
        let acked = acked_count(&dir);
        let (db, report) = Database::recover(None, wal_config(&dir, SyncPolicy::Batch))
            .unwrap_or_else(|e| panic!("{crash_point}: recovery failed: {e}"));
        let got = state_bytes(&db);
        let recovered = refs
            .iter()
            .position(|(s, _)| *s == got)
            .unwrap_or_else(|| panic!("{crash_point}: recovered state matches no serial prefix"));
        assert!(
            recovered >= acked,
            "{crash_point}: acked {acked} statements but recovered only {recovered} \
             (report: {report})"
        );
        assert_eq!(db.clock_now(), refs[recovered].1, "{crash_point}: clock");
    }
}

/// Crashes injected inside the checkpoint itself (snapshot write,
/// rename, WAL rotation) must leave a recoverable pair: either the old
/// snapshot + full WAL, or the new snapshot + (possibly stale) WAL.
#[test]
fn injected_checkpoint_crashes_recover_cleanly() {
    for crash_point in [
        "snapshot.write.after",
        "snapshot.rename.before",
        "snapshot.rename.after",
        "wal.rotate.before",
        "wal.rotate.after",
    ] {
        let dir = scratch(&format!("ckpt-{}", crash_point.replace('.', "-")));
        let snap = dir.join("db.indb");
        let status = Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "crash_helper_checkpoint",
                "--nocapture",
                "--test-threads",
                "1",
            ])
            .env("INSIGHTNOTES_CRASH_HELPER_DIR", &dir)
            .env("INSIGHTNOTES_CRASH_POINT", crash_point)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("spawn helper");
        assert!(
            !status.success(),
            "{crash_point}: helper was expected to abort"
        );
        let snap_arg = snap.exists().then_some(snap.as_path());
        let (db, report) = Database::recover(snap_arg, wal_config(&dir, SyncPolicy::Batch))
            .unwrap_or_else(|e| panic!("{crash_point}: recovery failed: {e}"));
        // Everything was acked before the checkpoint began, so the full
        // final state must come back regardless of where it died.
        let refs = reference_states();
        assert_eq!(
            state_bytes(&db),
            refs.last().unwrap().0,
            "{crash_point}: state after checkpoint crash (report: {report})"
        );
        assert_eq!(
            db.clock_now(),
            refs.last().unwrap().1,
            "{crash_point}: clock"
        );
    }
}

/// Helper body for checkpoint crash injection: full ingest, everything
/// synced, then a checkpoint that aborts at the configured point.
#[test]
fn crash_helper_checkpoint() {
    let Ok(dir) = std::env::var("INSIGHTNOTES_CRASH_HELPER_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let mut db = Database::with_config(wal_config(&dir, SyncPolicy::Batch)).unwrap();
    db.execute_sql(SCHEMA).unwrap();
    for sql in STATEMENTS {
        db.execute_sql(sql).unwrap();
    }
    db.wal_sync().unwrap();
    let _ = db.checkpoint(dir.join("db.indb")); // aborts at the crash point
}

// -- sharded layout: per-shard WAL segments, manifest, recovery -----------

const SHARD_COUNT: usize = 4;
const SHARD_ROWS: u64 = 12;

/// Widens `t` to twelve rows so the single-row ingest statements below
/// land records on several of the four shards.
fn sharded_setup(db: &ShardedDatabase) {
    db.execute_sql(SCHEMA).unwrap();
    let extra: Vec<String> = (4..=SHARD_ROWS)
        .map(|r| format!("({r}, 'row{r}')"))
        .collect();
    db.execute_sql(&format!("INSERT INTO t VALUES {}", extra.join(", ")))
        .unwrap();
}

/// One single-row annotation per row — each touches exactly one shard's
/// lock and WAL segment.
fn sharded_statements() -> Vec<String> {
    (1..=SHARD_ROWS)
        .map(|r| {
            format!(
                "ADD ANNOTATION 'eating stonewort near shore {r}' AUTHOR 'ada' \
                 ON t WHERE p = {r}"
            )
        })
        .collect()
}

/// Full sharded replay: each shard's recovered state is byte-identical
/// to its pre-crash state, and the whole is logically identical to a
/// serial, unsharded replay of the same statement stream — same
/// annotation ids, same `created` ticks, same bodies, row by row.
#[test]
fn sharded_recovery_replays_each_shard_byte_identically() {
    let dir = scratch("sharded-replay");
    let stmts = sharded_statements();
    let pre: Vec<Vec<u8>>;
    {
        let db = ShardedDatabase::create(wal_config(&dir, SyncPolicy::Batch), SHARD_COUNT).unwrap();
        sharded_setup(&db);
        for sql in &stmts {
            db.execute_sql(sql).unwrap();
        }
        db.wal_sync_all().unwrap();
        pre = (0..SHARD_COUNT)
            .map(|k| state_bytes(&db.shard(k).read()))
            .collect();
        // Dropped without checkpoint: the shard WALs are all there is.
    }
    let (db, report) =
        ShardedDatabase::recover(None, wal_config(&dir, SyncPolicy::Batch), SHARD_COUNT).unwrap();
    assert_eq!(report.shards.len(), SHARD_COUNT);
    assert!(report.records_replayed() >= stmts.len());
    for (k, s) in report.shards.iter().enumerate() {
        assert_eq!(s.report.bytes_truncated, 0, "shard {k} saw torn bytes");
    }
    for (k, bytes) in pre.iter().enumerate() {
        assert_eq!(
            &state_bytes(&db.shard(k).read()),
            bytes,
            "shard {k} replay diverged from its pre-crash state"
        );
    }

    let mut serial = Database::new();
    serial.execute_sql(SCHEMA).unwrap();
    let extra: Vec<String> = (4..=SHARD_ROWS)
        .map(|r| format!("({r}, 'row{r}')"))
        .collect();
    serial
        .execute_sql(&format!("INSERT INTO t VALUES {}", extra.join(", ")))
        .unwrap();
    for sql in &stmts {
        serial.execute_sql(sql).unwrap();
    }
    assert_eq!(db.annotation_count(), serial.store().stats().count);
    let t = serial.catalog().table_id("t").unwrap();
    for r in 1..=SHARD_ROWS {
        let row = RowId::new(r);
        let guard = db.shard(db.owner(t, row)).read();
        let digest = |db: &Database| -> Vec<(u64, u64, String)> {
            db.store()
                .on_row(t, row)
                .iter()
                .map(|&(aid, _)| {
                    let a = db.store().get(aid).unwrap();
                    (aid.raw(), a.body.created, a.body.text.clone())
                })
                .collect()
        };
        assert_eq!(
            digest(&guard),
            digest(&serial),
            "row {r} diverged from serial"
        );
    }
}

/// The kill-9 shape the per-shard fsync pipelines make possible: some
/// shard WALs carry the final group's frame, one doesn't (its tail is
/// torn mid-frame). Recovery must keep every record on the intact
/// shards and lose exactly the victim's torn tail — independent
/// segments, independent prefixes.
#[test]
fn torn_tail_on_one_shard_loses_only_that_shards_records() {
    let dir = scratch("sharded-torn-tail");
    let stmts = sharded_statements();
    let mut marks: Vec<Vec<u64>> = vec![Vec::new(); SHARD_COUNT];
    let mut owners = Vec::new();
    {
        let db =
            ShardedDatabase::create(wal_config(&dir, SyncPolicy::Always), SHARD_COUNT).unwrap();
        sharded_setup(&db);
        let t = db.shard(0).read().catalog().table_id("t").unwrap();
        for (i, sql) in stmts.iter().enumerate() {
            db.execute_sql(sql).unwrap();
            owners.push(db.owner(t, RowId::new(i as u64 + 1)));
            for (k, shard_marks) in marks.iter_mut().enumerate() {
                shard_marks.push(db.shard(k).read().wal_len().unwrap());
            }
        }
    }
    // Tear the final statement's frame on its owner shard: cut inside
    // the record, past the previous record boundary.
    let victim = *owners.last().unwrap();
    let victim_wal = Wal::path_in(&dir.join(format!("shard-{victim}")));
    let bytes = std::fs::read(&victim_wal).unwrap();
    let boundary = marks[victim][stmts.len() - 2];
    let cut = boundary + (bytes.len() as u64 - boundary) / 2;
    assert!(
        cut > boundary && cut < bytes.len() as u64,
        "tear must be mid-frame"
    );
    std::fs::write(&victim_wal, &bytes[..cut as usize]).unwrap();

    let (db, report) =
        ShardedDatabase::recover(None, wal_config(&dir, SyncPolicy::Batch), SHARD_COUNT).unwrap();
    assert!(
        report.shards[victim].report.bytes_truncated > 0,
        "victim shard should report the torn tail"
    );
    for (k, s) in report.shards.iter().enumerate() {
        if k != victim {
            assert_eq!(s.report.bytes_truncated, 0, "intact shard {k} lost bytes");
        }
    }
    let t = db.shard(0).read().catalog().table_id("t").unwrap();
    for (i, owner) in owners.iter().enumerate() {
        let row = RowId::new(i as u64 + 1);
        let guard = db.shard(db.owner(t, row)).read();
        let present = !guard.store().on_row(t, row).is_empty();
        let lost = *owner == victim && marks[victim][i] > boundary;
        assert_eq!(
            present, !lost,
            "statement {i} (owner shard {owner}, victim {victim})"
        );
    }
}

/// Shard-count changes and layout mixups are detected, classified
/// errors — never silent corruption.
#[test]
fn shard_count_changes_and_layout_mixups_are_classified_errors() {
    let dir = scratch("sharded-layout");
    {
        let db = ShardedDatabase::create(wal_config(&dir, SyncPolicy::Batch), SHARD_COUNT).unwrap();
        sharded_setup(&db);
        db.wal_sync_all().unwrap();
    }
    // Recover with a different shard count.
    let err = ShardedDatabase::recover(None, wal_config(&dir, SyncPolicy::Batch), 2)
        .expect_err("shard-count change accepted");
    assert!(err.to_string().contains("migration"), "{err}");
    // Recover a four-shard layout with one shard.
    let err = ShardedDatabase::recover(None, wal_config(&dir, SyncPolicy::Batch), 1)
        .expect_err("four-shard layout opened with one shard");
    assert!(err.to_string().contains("migration"), "{err}");
    // Shard segments present but the manifest is gone.
    std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
    let err = ShardedDatabase::recover(None, wal_config(&dir, SyncPolicy::Batch), SHARD_COUNT)
        .expect_err("manifest-less shard segments accepted");
    assert!(err.to_string().contains("manifest"), "{err}");

    // A pre-manifest single-file snapshot, and a pre-manifest log
    // directory, are refused at every shard count.
    let dir2 = scratch("sharded-layout-snap");
    let snap = dir2.join("db.indb");
    let mut plain = Database::new();
    plain.execute_sql(SCHEMA).unwrap();
    plain.save(&snap).unwrap();
    let dir3 = scratch("sharded-layout-wal");
    drop(Database::with_config(wal_config(&dir3, SyncPolicy::Batch)).unwrap());
    for shards in [1, SHARD_COUNT] {
        let err =
            ShardedDatabase::recover(Some(&snap), wal_config(&dir2, SyncPolicy::Batch), shards)
                .expect_err("pre-manifest snapshot accepted");
        assert!(err.to_string().contains("pre-manifest"), "{err}");
        let err = ShardedDatabase::recover(None, wal_config(&dir3, SyncPolicy::Batch), shards)
            .expect_err("pre-manifest log accepted");
        assert!(err.to_string().contains("pre-manifest"), "{err}");
    }
}

/// Per-shard checkpoints write `<path>.shard<k>` snapshots, bump each
/// shard's epoch, rotate each segment, and record the epoch vector in
/// the manifest; recovery stacks each shard's WAL tail on top of its
/// own snapshot.
#[test]
fn sharded_checkpoint_then_tail_replay_recovers_with_epochs() {
    let dir = scratch("sharded-ckpt");
    let snap = dir.join("db.indb");
    let stmts = sharded_statements();
    let pre: Vec<Vec<u8>>;
    {
        let db = ShardedDatabase::create(wal_config(&dir, SyncPolicy::Batch), SHARD_COUNT).unwrap();
        sharded_setup(&db);
        for sql in &stmts[..6] {
            db.execute_sql(sql).unwrap();
        }
        db.checkpoint(&snap).unwrap();
        for sql in &stmts[6..] {
            db.execute_sql(sql).unwrap();
        }
        db.wal_sync_all().unwrap();
        pre = (0..SHARD_COUNT)
            .map(|k| state_bytes(&db.shard(k).read()))
            .collect();
    }
    assert!(
        !snap.exists(),
        "no single-file snapshot in the manifest layout"
    );
    for k in 0..SHARD_COUNT {
        assert!(
            shard_snapshot_path(&snap, k).exists(),
            "shard {k} snapshot missing"
        );
    }
    let (db, report) = ShardedDatabase::recover(
        Some(&snap),
        wal_config(&dir, SyncPolicy::Batch),
        SHARD_COUNT,
    )
    .unwrap();
    for (k, s) in report.shards.iter().enumerate() {
        assert_eq!(s.epoch, 1, "shard {k} epoch");
        assert!(s.report.snapshot_loaded, "shard {k} snapshot not loaded");
    }
    for (k, bytes) in pre.iter().enumerate() {
        assert_eq!(
            &state_bytes(&db.shard(k).read()),
            bytes,
            "shard {k} diverged after checkpointed recovery"
        );
    }
}

/// Snapshot-only deployments (no WAL directory) have no WAL-base
/// manifest, so the sibling `<path>.manifest` written at checkpoint is
/// the only witness of the snapshot set's shard count. Recovering the
/// set with the right count works; a different count — one shard
/// included — or shard files with the manifest deleted is a classified
/// error instead of silently loading a subset of the shards.
#[test]
fn snapshot_only_shard_count_changes_are_classified_errors() {
    let dir = scratch("snap-only-sharded");
    let snap = dir.join("db.indb");
    let stmts = sharded_statements();
    let pre: Vec<Vec<u8>>;
    {
        let db = ShardedDatabase::create(DbConfig::default(), SHARD_COUNT).unwrap();
        sharded_setup(&db);
        for sql in &stmts {
            db.execute_sql(sql).unwrap();
        }
        db.checkpoint(&snap).unwrap();
        pre = (0..SHARD_COUNT)
            .map(|k| state_bytes(&db.shard(k).read()))
            .collect();
    }
    assert!(
        snapshot_manifest_path(&snap).exists(),
        "sharded checkpoint must write the sibling manifest"
    );

    // The right shard count round-trips.
    let (db, report) =
        ShardedDatabase::recover(Some(&snap), DbConfig::default(), SHARD_COUNT).unwrap();
    for (k, s) in report.shards.iter().enumerate() {
        assert!(s.report.snapshot_loaded, "shard {k} snapshot not loaded");
    }
    for (k, bytes) in pre.iter().enumerate() {
        assert_eq!(
            &state_bytes(&db.shard(k).read()),
            bytes,
            "shard {k} diverged after snapshot-only recovery"
        );
    }

    // A different count (the insightd default shifts with the machine's
    // core count) is refused.
    let err = ShardedDatabase::recover(Some(&snap), DbConfig::default(), 2)
        .expect_err("shard-count change accepted in snapshot-only mode");
    assert!(err.to_string().contains("migration"), "{err}");

    // One shard against the four-shard set: shard 0's file exists, so
    // without the manifest check this would silently recover a quarter
    // of the annotations.
    let err = ShardedDatabase::recover(Some(&snap), DbConfig::default(), 1)
        .expect_err("four-shard snapshot set accepted by a one-shard recover");
    assert!(err.to_string().contains("manifest"), "{err}");

    // Shard files with the manifest deleted: incomplete set, refused.
    std::fs::remove_file(snapshot_manifest_path(&snap)).unwrap();
    let err = ShardedDatabase::recover(Some(&snap), DbConfig::default(), SHARD_COUNT)
        .expect_err("manifest-less shard snapshot files accepted");
    assert!(err.to_string().contains("manifest"), "{err}");
}

// -- checkpoint epochs and stale logs -------------------------------------

#[test]
fn stale_wal_from_a_crashed_rotation_is_discarded_not_replayed() {
    let dir = scratch("stale-wal");
    let snap = dir.join("db.indb");
    let mut db = Database::with_config(wal_config(&dir, SyncPolicy::Batch)).unwrap();
    db.execute_sql(SCHEMA).unwrap();
    db.execute_sql(STATEMENTS[0]).unwrap();
    db.wal_sync().unwrap();
    // Keep the epoch-0 log, as a crash between snapshot rename and WAL
    // rotation would have left it.
    let old_log = std::fs::read(Wal::path_in(&dir)).unwrap();
    db.checkpoint(&snap).unwrap();
    let after_checkpoint = state_bytes(&db);
    drop(db);
    std::fs::write(Wal::path_in(&dir), &old_log).unwrap();

    let (db, report) = Database::recover(Some(&snap), wal_config(&dir, SyncPolicy::Batch)).unwrap();
    assert!(report.stale_wal_discarded);
    assert_eq!(report.records_replayed, 0, "stale records must not replay");
    assert_eq!(state_bytes(&db), after_checkpoint);
    assert_eq!(db.epoch(), 1);
}

#[test]
fn wal_from_the_future_is_a_classified_error() {
    let dir = scratch("future-wal");
    let snap = dir.join("db.indb");
    let old_snap = dir.join("old.indb");
    let mut db = Database::with_config(wal_config(&dir, SyncPolicy::Batch)).unwrap();
    db.execute_sql(SCHEMA).unwrap();
    db.checkpoint(&snap).unwrap(); // epoch 1
    std::fs::copy(&snap, &old_snap).unwrap();
    db.execute_sql(STATEMENTS[0]).unwrap();
    db.checkpoint(&snap).unwrap(); // epoch 2
    drop(db);
    // An epoch-1 snapshot cannot anchor an epoch-2 log.
    let err = Database::recover(Some(&old_snap), wal_config(&dir, SyncPolicy::Batch))
        .expect_err("mismatched epochs must not recover silently");
    assert!(
        err.to_string().contains("epoch"),
        "error should name the epoch mismatch: {err}"
    );
}

// -- torn snapshots and stale temp files ----------------------------------

#[test]
fn truncated_snapshots_error_cleanly_and_never_panic() {
    let dir = scratch("torn-snap");
    let snap = dir.join("db.indb");
    let mut db = Database::new();
    db.execute_sql(SCHEMA).unwrap();
    db.execute_sql(STATEMENTS[0]).unwrap();
    db.save(&snap).unwrap();
    let bytes = std::fs::read(&snap).unwrap();
    for cut in [0, 1, 3, 8, 17, bytes.len() / 2, bytes.len() - 1] {
        let torn = dir.join(format!("torn-{cut}.indb"));
        std::fs::write(&torn, &bytes[..cut]).unwrap();
        let err = Database::recover(Some(&torn), DbConfig::default())
            .expect_err("torn snapshot accepted");
        // Classified (codec/IO) error, not a panic and not a fresh db.
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn stale_snapshot_temp_file_is_swept_on_recovery() {
    let dir = scratch("stale-tmp");
    let snap = dir.join("db.indb");
    let mut db = Database::new();
    db.execute_sql(SCHEMA).unwrap();
    db.save(&snap).unwrap();
    let expected = state_bytes(&db);
    // A crash mid-save leaves a temp file beside the real snapshot.
    let tmp = snap.with_extension("indb.tmp");
    std::fs::write(&tmp, b"half-written garbage").unwrap();

    let (db, report) = Database::recover(Some(&snap), DbConfig::default()).unwrap();
    assert!(report.tmp_removed);
    assert!(!tmp.exists(), "temp file should be deleted");
    assert_eq!(state_bytes(&db), expected);

    // Temp file with no committed snapshot at all: a crash before the
    // first rename. Recovery starts fresh rather than failing.
    let lonely = dir.join("never.indb");
    std::fs::write(lonely.with_extension("indb.tmp"), b"garbage").unwrap();
    let (db, report) = Database::recover(Some(&lonely), DbConfig::default()).unwrap();
    assert!(report.tmp_removed);
    assert!(!report.snapshot_loaded);
    assert_eq!(db.store().stats().count, 0);
}

// -- configuration guard rails --------------------------------------------

#[test]
fn with_config_refuses_to_clobber_an_existing_log() {
    let dir = scratch("clobber");
    {
        let mut db = Database::with_config(wal_config(&dir, SyncPolicy::Batch)).unwrap();
        db.execute_sql(SCHEMA).unwrap();
        db.wal_sync().unwrap();
    }
    let err = Database::with_config(wal_config(&dir, SyncPolicy::Batch))
        .expect_err("existing WAL silently clobbered");
    assert!(
        err.to_string().contains("recover"),
        "error should point at Database::recover: {err}"
    );
}

#[test]
fn unlogged_write_entry_points_are_rejected_when_wal_is_on() {
    let dir = scratch("guards");
    let mut db = Database::with_config(wal_config(&dir, SyncPolicy::Batch)).unwrap();
    db.execute_sql(SCHEMA).unwrap();
    // `execute` takes a pre-parsed Statement with no source text, so a
    // write through it could never be logged — it must refuse.
    let stmt = parse_one(STATEMENTS[0]).unwrap();
    assert!(db.execute(stmt).is_err(), "unlogged execute accepted");
    let results = db.annotate_batch(vec![parse_one(STATEMENTS[0]).unwrap()]);
    assert!(results[0].is_err(), "unlogged annotate_batch accepted");
    // Reads are unaffected.
    assert!(db.execute(parse_one("SELECT p FROM t").unwrap()).is_ok());
}

#[test]
fn sync_policies_gate_fsyncs_at_the_database_level() {
    for (policy, check) in [
        // Always: one fsync per logged record, wal_sync is a no-op.
        (
            SyncPolicy::Always,
            &(|a: u64, s: u64| s >= a) as &dyn Fn(u64, u64) -> bool,
        ),
        // Batch: nothing synced until wal_sync is called.
        (SyncPolicy::Batch, &|_, s| s == 0),
        // Off: never synced, even by wal_sync.
        (SyncPolicy::Off, &|_, s| s == 0),
    ] {
        let dir = scratch(&format!("sync-{policy}"));
        let mut db = Database::with_config(wal_config(&dir, policy)).unwrap();
        db.execute_sql(SCHEMA).unwrap();
        db.execute_sql(STATEMENTS[0]).unwrap();
        let (appends, syncs) = db.wal_io_stats().unwrap();
        assert_eq!(appends, 2, "{policy}: two records logged");
        assert!(
            check(appends, syncs),
            "{policy}: {syncs} syncs after {appends} appends"
        );
        db.wal_sync().unwrap();
        let (_, syncs_after) = db.wal_io_stats().unwrap();
        match policy {
            SyncPolicy::Off => assert_eq!(syncs_after, 0, "off must never fsync"),
            _ => assert!(syncs_after >= 1),
        }
    }
}
