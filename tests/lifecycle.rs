//! Annotation lifecycle (`RETRACT` / `CORRECT` / `FLAG`) end to end.
//!
//! The contracts under test:
//!
//! * **maintenance equivalence** — decrementally removing a retracted
//!   or corrected annotation's summary contribution (Incremental mode)
//!   lands on byte-identical *classifier* objects to rebuilding the row
//!   from scratch (Rebuild mode), at one shard and at four;
//! * **durability** — tombstones, flags, and successor links replay
//!   from the WAL after a crash, byte-identical to the pre-crash state;
//! * **replication** — a replica applying the primary's `Script` frames
//!   reproduces the tombstone state and hides retracted annotations
//!   from live reads;
//! * **time travel** — `SELECT ... AS OF <tick>` reproduces the summary
//!   objects a query saw before a retraction or correction, serially
//!   and through the router;
//! * **routed timeline** — the router stamps every creation and
//!   lifecycle event with the tick serial execution would, so a curation
//!   stream at one shard is byte-identical to serial execution;
//! * **recovery sweep** — a crash that lands a lifecycle statement (or
//!   the original commit) on only part of an annotation's owner-shard
//!   set converges at recovery (DESIGN.md §12 / §15).

use insightnotes::common::{AnnotationId, RowId};
use insightnotes::engine::persist::snapshot;
use insightnotes::engine::wal::{SyncPolicy, WalRecord};
use insightnotes::engine::{Database, DbConfig, ExecOutcome, LifecycleKind, ShardedDatabase};
use insightnotes::summaries::MaintenanceMode;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("insightnotes-lc-{}-{tag}", std::process::id()));
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

const NUM_ROWS: u64 = 6;

const SCHEMA: &str = "CREATE TABLE t (p INT, q TEXT);
     INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three'),
                          (4, 'four'), (5, 'five'), (6, 'six');
     CREATE SUMMARY INSTANCE C TYPE CLASSIFIER
       LABELS ('Behavior', 'Disease', 'Other')
       TRAIN ('Behavior': 'eating stonewort diving foraging',
              'Disease': 'lesions parasites infection',
              'Other': 'reference sighting note');
     LINK SUMMARY C TO t;";

/// A fixed curation timeline: three annotations, a flag, a correction
/// (successor id 4), and a retraction, leaving ids {3, 4} live and
/// ids {1, 2} tombstoned.
const LIFECYCLE_STATEMENTS: &[&str] = &[
    "ADD ANNOTATION 'eating stonewort near shore' AUTHOR 'ada' ON t WHERE p = 1",
    "ADD ANNOTATION 'lesions parasites infection' AUTHOR 'brahe' ON t WHERE p = 2",
    "ADD ANNOTATION 'diving and foraging' AUTHOR 'curie' ON t WHERE p = 3",
    "FLAG ANNOTATION 1 'needs review'",
    "CORRECT ANNOTATION 2 'parasites confirmed on recheck' AUTHOR 'brahe'",
    "RETRACT ANNOTATION 1",
];

/// Zero-stamped state bytes (catalog + store + registry): equal iff the
/// two databases are logically identical, tombstones included.
fn state_bytes(db: &Database) -> Vec<u8> {
    snapshot(db.catalog(), db.store(), db.registry())
}

// -- maintenance equivalence (the decremental-retract oracle) -------------

const TEXT_POOL: &[&str] = &[
    "eating stonewort near shore",
    "diving and foraging at dawn",
    "lesions parasites infection observed",
    "parasites on the wing tips",
    "see reference sighting note",
    "note sighting for reference",
];

/// Interprets abstract events into a lifecycle SQL script, simulating
/// the engine's sequential id allocation (the k-th annotation the
/// engine creates — by ADD or as a CORRECT successor — gets id k, at
/// any shard count, because ids are allocated in statement order).
fn lifecycle_script(events: &[(u8, u64, usize, usize)]) -> Vec<String> {
    let mut next_id = 0u64;
    let mut live: Vec<u64> = Vec::new();
    let mut out = Vec::new();
    for &(action, row, text, pick) in events {
        if live.is_empty() || action < 4 {
            next_id += 1;
            live.push(next_id);
            out.push(format!(
                "ADD ANNOTATION '{}' AUTHOR 'ada' ON t WHERE p = {row}",
                TEXT_POOL[text]
            ));
        } else if action < 5 {
            let target = live[pick % live.len()];
            out.push(format!("FLAG ANNOTATION {target} 'disputed'"));
        } else if action < 7 {
            let target = live.swap_remove(pick % live.len());
            next_id += 1;
            live.push(next_id);
            out.push(format!(
                "CORRECT ANNOTATION {target} '{}' AUTHOR 'brahe'",
                TEXT_POOL[(text + 1) % TEXT_POOL.len()]
            ));
        } else {
            let target = live.swap_remove(pick % live.len());
            out.push(format!("RETRACT ANNOTATION {target}"));
        }
    }
    out
}

fn event_strategy() -> impl Strategy<Value = Vec<(u8, u64, usize, usize)>> {
    prop::collection::vec(
        (0u8..8, 1u64..=NUM_ROWS, 0usize..TEXT_POOL.len(), 0usize..64),
        1..30,
    )
}

/// The paper's equivalence class: classifier objects only. Cluster and
/// snippet summaries are order-sensitive (removal then re-add can elect
/// a different representative), so Incremental == Rebuild is asserted
/// for classifiers — the same oracle `DELETE ANNOTATION` uses.
fn classifier_digest(db: &Database) -> Vec<String> {
    let t = db.catalog().table_id("t").unwrap();
    let c = db.registry().instance_id("C").unwrap();
    (1..=NUM_ROWS)
        .map(|r| format!("r{r} {:?}", db.registry().object(t, RowId::new(r), c)))
        .collect()
}

fn classifier_digest_sharded(db: &ShardedDatabase) -> Vec<String> {
    let t = db.shard(0).read().catalog().table_id("t").unwrap();
    (1..=NUM_ROWS)
        .map(|r| {
            let row = RowId::new(r);
            let guard = db.shard(db.owner(t, row)).read();
            let c = guard.registry().instance_id("C").unwrap();
            format!("r{r} {:?}", guard.registry().object(t, row, c))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Decremental retract/correct maintenance is byte-identical to
    /// rebuild-from-scratch on classifier objects, and the sharded
    /// router reproduces the same state at one and four shards.
    #[test]
    fn retract_and_correct_incremental_equals_rebuild(events in event_strategy()) {
        let script = lifecycle_script(&events);
        let mut inc = Database::with_config(DbConfig {
            maintenance: MaintenanceMode::Incremental,
            ..DbConfig::default()
        })
        .unwrap();
        let mut reb = Database::with_config(DbConfig {
            maintenance: MaintenanceMode::Rebuild,
            ..DbConfig::default()
        })
        .unwrap();
        inc.execute_sql(SCHEMA).unwrap();
        reb.execute_sql(SCHEMA).unwrap();
        for sql in &script {
            inc.execute_sql(sql).unwrap();
            reb.execute_sql(sql).unwrap();
        }
        let expected = classifier_digest(&inc);
        prop_assert_eq!(&classifier_digest(&reb), &expected, "Incremental vs Rebuild");
        prop_assert_eq!(
            inc.store().stats().retired,
            reb.store().stats().retired,
            "tombstone counts diverged across maintenance modes"
        );

        for shards in [1usize, 4] {
            let sharded = ShardedDatabase::create(DbConfig::default(), shards).unwrap();
            sharded.execute_sql(SCHEMA).unwrap();
            for sql in &script {
                sharded.execute_sql(sql).unwrap();
            }
            prop_assert_eq!(
                &classifier_digest_sharded(&sharded),
                &expected,
                "sharded ({}) vs serial", shards
            );
        }
    }
}

// -- WAL crash-replay of tombstones ---------------------------------------

#[test]
fn recovery_replays_lifecycle_tombstones_byte_identically() {
    let dir = scratch("replay");
    let pre_crash;
    {
        let mut db = Database::with_config(wal_config(&dir, SyncPolicy::Batch)).unwrap();
        db.execute_sql(SCHEMA).unwrap();
        for sql in LIFECYCLE_STATEMENTS {
            db.execute_sql(sql).unwrap();
        }
        db.wal_sync().unwrap();
        pre_crash = (state_bytes(&db), db.clock_now());
        // Dropped without save: the WAL is the only persistent state.
    }
    let (db, report) = Database::recover(None, wal_config(&dir, SyncPolicy::Batch)).unwrap();
    assert_eq!(report.records_replayed, 1 + LIFECYCLE_STATEMENTS.len());
    assert_eq!(state_bytes(&db), pre_crash.0, "replay diverged");
    assert_eq!(db.clock_now(), pre_crash.1, "logical clock diverged");

    let store = db.store();
    assert_eq!(store.stats().count, 2, "ids 3 and 4 live");
    assert_eq!(store.stats().retired, 2, "ids 1 and 2 tombstoned");
    let id1 = AnnotationId::new(1);
    assert!(!store.is_live(id1));
    assert!(
        store.get(id1).is_err(),
        "live reads must hide the tombstone"
    );
    assert!(store.get_any(id1).is_ok(), "the version itself is retained");
    let kinds: Vec<LifecycleKind> = store.history(id1).unwrap().iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        [
            LifecycleKind::Created,
            LifecycleKind::Flagged,
            LifecycleKind::Retracted
        ]
    );
    let events = store.history(AnnotationId::new(2)).unwrap();
    let corrected = events.last().unwrap();
    assert_eq!(corrected.kind, LifecycleKind::Corrected);
    assert_eq!(corrected.successor, Some(AnnotationId::new(4)));
    assert_eq!(
        store.get(AnnotationId::new(4)).unwrap().body.text,
        "parasites confirmed on recheck"
    );
}

// -- replica apply ---------------------------------------------------------

/// The replication path in miniature: a WAL-less replica applying the
/// primary's `Script` frames lands on byte-identical state, tombstones
/// included, and hides retracted annotations from live reads.
#[test]
fn replica_apply_reproduces_tombstones_and_hides_retracted() {
    let mut primary = Database::new();
    let mut replica = Database::new();
    primary.execute_sql(SCHEMA).unwrap();
    replica
        .apply_wal_record(&WalRecord::Script { sql: SCHEMA.into() })
        .unwrap();
    for sql in LIFECYCLE_STATEMENTS {
        primary.execute_sql(sql).unwrap();
        replica
            .apply_wal_record(&WalRecord::Script {
                sql: (*sql).to_string(),
            })
            .unwrap();
    }
    assert_eq!(
        state_bytes(&replica),
        state_bytes(&primary),
        "replica diverged from primary"
    );
    assert!(replica.store().get(AnnotationId::new(1)).is_err());
    assert!(replica.store().get_any(AnnotationId::new(1)).is_ok());
    assert_eq!(
        replica.store().history(AnnotationId::new(2)).unwrap().len(),
        primary.store().history(AnnotationId::new(2)).unwrap().len()
    );
    // Live summary state agrees too — the retracted annotation's
    // contribution is gone on both sides.
    assert_eq!(classifier_digest(&replica), classifier_digest(&primary));
}

// -- AS OF time travel -----------------------------------------------------

/// What the `AS OF` check needs from an engine, serial or routed.
trait Engine {
    fn run(&mut self, sql: &str);
    fn select(&self, sql: &str) -> insightnotes::QueryResult;
    /// The latest logical tick any part of the engine has issued.
    fn now(&self) -> u64;
}

impl Engine for Database {
    fn run(&mut self, sql: &str) {
        self.execute_sql(sql).unwrap();
    }
    fn select(&self, sql: &str) -> insightnotes::QueryResult {
        self.query(sql).unwrap()
    }
    fn now(&self) -> u64 {
        self.clock_now()
    }
}

impl Engine for ShardedDatabase {
    fn run(&mut self, sql: &str) {
        self.execute_sql(sql).unwrap();
    }
    fn select(&self, sql: &str) -> insightnotes::QueryResult {
        self.query(sql).unwrap()
    }
    fn now(&self) -> u64 {
        (0..self.shard_count())
            .map(|k| self.shard(k).read().clock_now())
            .max()
            .unwrap()
    }
}

/// `AS OF` reproduces the exact summary objects a query returned before
/// a retraction and a correction rewrote the live view — on one
/// database and through the router at one and four shards.
#[test]
fn as_of_reproduces_pre_retract_summaries() {
    let mut engines: Vec<(String, Box<dyn Engine>)> =
        vec![("serial".into(), Box::new(Database::new()))];
    for shards in [1, 4] {
        let db = ShardedDatabase::create(DbConfig::default(), shards).unwrap();
        engines.push((format!("{shards} shard(s)"), Box::new(db)));
    }
    for (label, db) in &mut engines {
        db.run(SCHEMA);
        db.run(LIFECYCLE_STATEMENTS[0]);
        db.run(LIFECYCLE_STATEMENTS[1]);
        let tick = db.now();
        // Result rows embed their summary objects by value, so `before`
        // is a true snapshot even after the registry mutates underneath.
        let summaries = |r: &insightnotes::QueryResult| -> Vec<String> {
            r.rows
                .iter()
                .map(|row| format!("{:?}", row.summaries))
                .collect()
        };
        let before = db.select("SELECT p FROM t ORDER BY p");

        db.run("RETRACT ANNOTATION 1");
        db.run("CORRECT ANNOTATION 2 'see reference sighting note' AUTHOR 'curie'");
        let now = db.select("SELECT p FROM t ORDER BY p");
        assert_ne!(
            summaries(&now),
            summaries(&before),
            "{label}: lifecycle ops must change the live view"
        );

        let past = db.select(&format!("SELECT p FROM t ORDER BY p AS OF {tick}"));
        assert_eq!(
            summaries(&past),
            summaries(&before),
            "{label}: AS OF diverged from the pre-retract snapshot"
        );
        assert_eq!(
            past.qid.raw(),
            0,
            "{label}: historical views are not zoomable"
        );

        // And the open end of the timeline is the live view.
        let current = db.select(&format!("SELECT p FROM t ORDER BY p AS OF {}", db.now()));
        assert_eq!(summaries(&current), summaries(&now), "{label}");
    }
}

/// A zoom-in on a result cached before a retraction neither serves the
/// retracted annotation nor fails looking it up: the router drops its
/// cached rows once a shard removes annotations, at one and four shards.
#[test]
fn zoom_in_after_retract_does_not_serve_cached_rows() {
    for shards in [1, 4] {
        let db = ShardedDatabase::create(DbConfig::default(), shards).unwrap();
        db.execute_sql(SCHEMA).unwrap();
        for sql in &LIFECYCLE_STATEMENTS[..3] {
            db.execute_sql(sql).unwrap();
        }
        let qid = db.query("SELECT p, q FROM t").unwrap().qid.raw();
        let zoom = || -> Vec<u64> {
            let sql = format!("ZOOMIN REFERENCE QID {qid} ON C LABEL 'Behavior'");
            match &db.execute_sql(&sql).unwrap()[..] {
                [ExecOutcome::ZoomIn(z)] => z.annotations.iter().map(|a| a.id.raw()).collect(),
                other => panic!("unexpected outcome {other:?}"),
            }
        };
        let before = zoom();
        assert!(before.contains(&1), "{shards} shard(s): {before:?}");
        db.execute_sql("RETRACT ANNOTATION 1").unwrap();
        let expected: Vec<u64> = before.into_iter().filter(|&id| id != 1).collect();
        assert_eq!(zoom(), expected, "{shards} shard(s)");
    }
}

// -- router-stamped lifecycle ticks ---------------------------------------

/// Creation ticks of every annotation id the engine has allocated.
fn creation_ticks(db: &ShardedDatabase, ids: u64) -> Vec<u64> {
    (1..=ids)
        .map(|raw| {
            (0..db.shard_count())
                .find_map(|k| {
                    let guard = db.shard(k).read();
                    let created = guard.store().get_any(AnnotationId::new(raw)).ok();
                    created.map(|a| a.body.created)
                })
                .unwrap()
        })
        .collect()
}

/// `RETRACT` and `FLAG` take their tick from the router's allocator, so
/// the next `ADD` is stamped after them exactly as in serial execution.
#[test]
fn retract_and_flag_ticks_come_from_the_router() {
    let mut serial = Database::new();
    serial.execute_sql(SCHEMA).unwrap();
    let stream = [
        "ADD ANNOTATION 'eating stonewort near shore' AUTHOR 'ada' ON t WHERE p = 1",
        "ADD ANNOTATION 'lesions parasites infection' AUTHOR 'brahe' ON t WHERE p = 2",
        "RETRACT ANNOTATION 1",
        "FLAG ANNOTATION 2",
        "ADD ANNOTATION 'diving and foraging' AUTHOR 'curie' ON t WHERE p = 3",
    ];
    for sql in stream {
        serial.execute_sql(sql).unwrap();
    }
    let serial_ticks: Vec<u64> = (1..=3)
        .map(|raw| {
            serial
                .store()
                .get_any(AnnotationId::new(raw))
                .unwrap()
                .body
                .created
        })
        .collect();
    assert_eq!(serial_ticks, [1, 2, 5]);
    for shards in [1, 4] {
        let db = ShardedDatabase::create(DbConfig::default(), shards).unwrap();
        db.execute_sql(SCHEMA).unwrap();
        for sql in stream {
            db.execute_sql(sql).unwrap();
        }
        assert_eq!(creation_ticks(&db, 3), [1, 2, 5], "{shards} shard(s)");
    }
}

/// A seeded curation stream (annotate / flag / correct / retract plus
/// reads) through the router: at one shard, shard 0 ends byte-identical
/// to serial execution of the same stream; at four, every annotation's
/// creation and lifecycle-event ticks equal the serial run's.
#[test]
fn curation_stream_through_the_router_matches_serial_execution() {
    use insightnotes::workload::{curation_script, CurationConfig};
    let script = curation_script(&CurationConfig {
        seed: 0xC0DE,
        clients: 2,
        statements_per_client: 120,
        num_birds: 30,
        add_ratio: 0.4,
        flag_ratio: 0.15,
        correct_ratio: 0.15,
        retract_ratio: 0.15,
    });
    let mut serial = Database::new();
    for sql in script.serial_order() {
        serial.execute_sql(&sql).unwrap();
    }
    let ids = serial.store().last_id();
    assert!(serial.store().stats().retired > 0, "stream retired nothing");
    let timeline = |history: &dyn Fn(AnnotationId) -> Vec<insightnotes::engine::LifecycleEvent>| {
        (1..=ids)
            .map(|raw| format!("{raw}: {:?}", history(AnnotationId::new(raw))))
            .collect::<Vec<_>>()
    };
    let serial_timeline = timeline(&|id| serial.store().history(id).unwrap());
    for shards in [1, 4] {
        let db = ShardedDatabase::create(DbConfig::default(), shards).unwrap();
        for sql in script.serial_order() {
            db.execute_sql(&sql).unwrap();
        }
        let routed_timeline = timeline(&|id| {
            (0..shards)
                .find_map(|k| db.shard(k).read().store().history(id).ok())
                .unwrap()
        });
        assert_eq!(routed_timeline, serial_timeline, "{shards} shard(s)");
        if shards == 1 {
            let shard0 = db.shard(0).read();
            assert!(
                state_bytes(&shard0) == state_bytes(&serial),
                "one shard diverged from serial execution"
            );
            assert_eq!(shard0.clock_now(), serial.clock_now());
        }
    }
}

// -- recovery-time membership sweep (DESIGN.md §12 / §15) ------------------

/// A crash can land a lifecycle statement — or the original commit — on
/// only part of a multi-owner annotation's shard set. The recovery
/// sweep converges both shapes: a surviving *tombstone* on any owner
/// completes the retraction everywhere; a missing owner with *no*
/// record rolls the partial commit back to "not written".
#[test]
fn recovery_sweep_converges_partial_lifecycle_and_partial_commits() {
    const SHARDS: usize = 4;
    let dir = scratch("sweep");
    {
        let db = ShardedDatabase::create(wal_config(&dir, SyncPolicy::Batch), SHARDS).unwrap();
        db.execute_sql(SCHEMA).unwrap();
        // Two whole-table annotations: their six target rows hash across
        // several owner shards.
        db.execute_sql("ADD ANNOTATION 'eating stonewort near shore' AUTHOR 'ada' ON t")
            .unwrap();
        db.execute_sql("ADD ANNOTATION 'lesions parasites infection' AUTHOR 'brahe' ON t")
            .unwrap();
        let t = db.shard(0).read().catalog().table_id("t").unwrap();
        let owners: std::collections::BTreeSet<usize> =
            (1..=NUM_ROWS).map(|r| db.owner(t, RowId::new(r))).collect();
        assert!(owners.len() >= 2, "need a multi-owner annotation");
        let victim = *owners.iter().next().unwrap();
        // Crash mid-RETRACT of id 1: only one owner got the tombstone.
        {
            let mut guard = db.shard(victim).write();
            guard.retract_annotation(AnnotationId::new(1)).unwrap();
            guard.wal_sync().unwrap();
        }
        // Crash mid-commit of id 2: one owner never durably stored it
        // (simulated by locally deleting the shard's committed copy).
        {
            let mut guard = db.shard(victim).write();
            guard.delete_annotation(AnnotationId::new(2)).unwrap();
            guard.wal_sync().unwrap();
        }
        db.wal_sync_all().unwrap();
    }

    let (db, report) =
        ShardedDatabase::recover(None, wal_config(&dir, SyncPolicy::Batch), SHARDS).unwrap();
    assert_eq!(report.reconciled, 2, "both divergent annotations repaired");

    let id1 = AnnotationId::new(1);
    let id2 = AnnotationId::new(2);
    let mut tombstones = 0;
    for k in 0..SHARDS {
        let guard = db.shard(k).read();
        // Lifecycle progressed: no shard serves id 1 live, and every
        // shard that holds it holds a tombstone with its timeline.
        assert!(
            guard.store().get(id1).is_err(),
            "shard {k} serves id 1 live"
        );
        if guard.store().get_any(id1).is_ok() {
            tombstones += 1;
            let events = guard.store().history(id1).unwrap();
            assert_eq!(events.last().unwrap().kind, LifecycleKind::Retracted);
        }
        // Commit never finished: id 2 converges to "not written".
        assert!(
            guard.store().get_any(id2).is_err(),
            "shard {k} resurrected the partial commit"
        );
    }
    assert!(tombstones >= 2, "retraction must complete on every owner");

    // The sweep's repairs are themselves WAL-logged: a second recovery
    // replays to the same converged state and repairs nothing.
    drop(db);
    let (_, report2) =
        ShardedDatabase::recover(None, wal_config(&dir, SyncPolicy::Batch), SHARDS).unwrap();
    assert_eq!(report2.reconciled, 0, "converged state re-repaired");
}
