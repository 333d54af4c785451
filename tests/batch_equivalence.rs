//! Property tests for batched annotation ingestion: `annotate_batch`
//! (SQL path) and `annotate_rows_batch` (typed path) must be observably
//! identical to replaying the same annotations one at a time — the same
//! per-item success/failure pattern, the same per-item maintenance
//! stats attribution, the same summary objects, and
//! byte-identical snapshots. Snapshot bytes pin annotation ids and the
//! `created` clock ticks stamped into each body, not just aggregate
//! state, so an id or tick skew introduced by batching shows up even
//! when the summaries happen to agree.
//!
//! Batches deliberately mix in failing items — empty target sets,
//! unknown tables, non-annotation statements — to check that a failure
//! neither aborts the rest of the group nor perturbs the ids and ticks
//! of its neighbors (failed items must consume neither in either path).

use insightnotes::annotations::{AnnotationBody, ColSig};
use insightnotes::common::{AnnotationId, ColumnId, RowId};
use insightnotes::engine::db::SqlStatement;
use insightnotes::engine::persist::snapshot;
use insightnotes::engine::ExecOutcome;
use insightnotes::engine::{Database, DbConfig, RowAnnotation, ShardedDatabase};
use insightnotes::sql::parse_one;
use insightnotes::summaries::{MaintenanceMode, MaintenanceStats};
use proptest::prelude::*;

const TEXT_POOL: &[&str] = &[
    "eating stonewort near shore",
    "eating stonewort near lake today",
    "lesions parasites infection",
    "wingspan plumage measured",
    "reference photo attached survey",
    "diving foraging flocking",
];

const AUTHORS: &[&str] = &["ada", "brahe", "curie"];

const NUM_ROWS: usize = 5;

const SETUP_SQL: &str = "CREATE TABLE t (p INT, q TEXT, r FLOAT);
         INSERT INTO t VALUES (1, 'one', 1.0), (2, 'two', 2.0), (3, 'three', 3.0),
                              (4, 'four', 4.0), (5, 'five', 5.0);
         CREATE SUMMARY INSTANCE C TYPE CLASSIFIER
           LABELS ('Behavior', 'Disease', 'Anatomy', 'Other')
           TRAIN ('Behavior': 'eating stonewort diving foraging',
                  'Disease': 'lesions parasites infection',
                  'Anatomy': 'wingspan plumage measured',
                  'Other': 'reference photo attached');
         CREATE SUMMARY INSTANCE K TYPE CLUSTER THRESHOLD 0.5;
         CREATE SUMMARY INSTANCE S TYPE SNIPPET MIN_SOURCE 60;
         LINK SUMMARY C TO t;
         LINK SUMMARY K TO t;
         LINK SUMMARY S TO t;";

fn fresh_db(mode: MaintenanceMode) -> Database {
    let mut db = Database::with_config(DbConfig {
        maintenance: mode,
        ..DbConfig::default()
    })
    .unwrap();
    db.execute_sql(SETUP_SQL).unwrap();
    db
}

fn all_objects(db: &Database) -> Vec<String> {
    let t = db.catalog().table_id("t").unwrap();
    let mut out = Vec::new();
    for rid in 1..=NUM_ROWS as u64 {
        for (inst, obj) in db.registry().objects_on(t, RowId::new(rid)) {
            out.push(format!("r{rid} {inst} {obj:?}"));
        }
    }
    out
}

fn snapshot_bytes(db: &Database) -> Vec<u8> {
    snapshot(db.catalog(), db.store(), db.registry())
}

/// After comparing end states, both databases absorb one more
/// annotation and the snapshots are compared again: if the batch path
/// advanced the logical clock differently (e.g. ticked for a failed
/// item), the divergence surfaces in this probe's `created` stamp even
/// though the pre-probe snapshots agreed.
fn clock_probe(a: &mut Database, b: &mut Database) {
    for db in [a, b] {
        db.execute_sql("ADD ANNOTATION 'clock probe' AUTHOR 'probe' ON t WHERE p = 1")
            .unwrap();
    }
}

// -- SQL path -------------------------------------------------------------

#[derive(Debug, Clone)]
enum Item {
    /// Valid `ADD ANNOTATION` hitting exactly one existing row.
    Annotate {
        row: usize,
        text: usize,
        author: usize,
        col_scoped: bool,
    },
    /// Predicate matches nothing: fails with an empty target set.
    NoMatch { text: usize },
    /// Unknown table: fails at catalog resolution.
    UnknownTable { text: usize },
    /// Not an `ADD ANNOTATION` at all: batches reject it per item.
    NotAnnotation,
}

fn item_strategy() -> impl Strategy<Value = Item> {
    let annotate = || {
        (
            0usize..NUM_ROWS,
            0usize..TEXT_POOL.len(),
            0usize..AUTHORS.len(),
            any::<bool>(),
        )
            .prop_map(|(row, text, author, col_scoped)| Item::Annotate {
                row,
                text,
                author,
                col_scoped,
            })
    };
    // The valid case is listed several times: `prop_oneof!` picks
    // uniformly, and batches should be mostly-successful with failures
    // sprinkled in, not the reverse.
    prop_oneof![
        annotate(),
        annotate(),
        annotate(),
        annotate(),
        (0usize..TEXT_POOL.len()).prop_map(|text| Item::NoMatch { text }),
        (0usize..TEXT_POOL.len()).prop_map(|text| Item::UnknownTable { text }),
        Just(Item::NotAnnotation),
    ]
}

fn sql_of(item: &Item) -> String {
    match item {
        Item::Annotate {
            row,
            text,
            author,
            col_scoped,
        } => {
            let cols = if *col_scoped { " COLUMNS (q, r)" } else { "" };
            format!(
                "ADD ANNOTATION '{}' AUTHOR '{}' ON t{cols} WHERE p = {}",
                TEXT_POOL[*text],
                AUTHORS[*author],
                row + 1
            )
        }
        Item::NoMatch { text } => {
            format!("ADD ANNOTATION '{}' ON t WHERE p = 99", TEXT_POOL[*text])
        }
        Item::UnknownTable { text } => {
            format!(
                "ADD ANNOTATION '{}' ON missing WHERE p = 1",
                TEXT_POOL[*text]
            )
        }
        Item::NotAnnotation => "SELECT p FROM t".into(),
    }
}

/// Successful items compare their [`MaintenanceStats`] too: the batch
/// path must *attribute* its maintenance work (digests computed, cache
/// hits, object updates) to the same annotation the serial path does,
/// in both maintenance modes — not just end in the same state.
fn stats_of(outcomes: &[ExecOutcome]) -> MaintenanceStats {
    match outcomes {
        [ExecOutcome::Annotated { maintenance, .. }] => *maintenance,
        other => panic!("expected one Annotated outcome, got {other:?}"),
    }
}

/// One-by-one reference execution. `NotAnnotation` items are skipped
/// outright: the batch contract is that they are rejected *without
/// execution*, so the serial reference must not run them either.
fn replay_serial(db: &mut Database, items: &[Item]) -> Vec<Result<MaintenanceStats, String>> {
    items
        .iter()
        .map(|item| match item {
            Item::NotAnnotation => Err("rejected without execution".into()),
            other => db
                .execute_sql(&sql_of(other))
                .map(|outcomes| stats_of(&outcomes))
                .map_err(|e| e.to_string()),
        })
        .collect()
}

fn run_batch(db: &mut Database, items: &[Item]) -> Vec<Result<MaintenanceStats, String>> {
    let stmts = items
        .iter()
        .map(|i| parse_one(&sql_of(i)).expect("generated SQL parses"))
        .collect();
    db.annotate_batch(stmts)
        .into_iter()
        .map(|r| {
            r.map(|outcome| stats_of(std::slice::from_ref(&outcome)))
                .map_err(|e| e.to_string())
        })
        .collect()
}

// -- typed path -----------------------------------------------------------

#[derive(Debug, Clone)]
struct TypedItem {
    row: usize,
    text: usize,
    // Column mask 1..=7 over the three columns of `t`.
    mask: u8,
    bad_table: bool,
}

fn typed_strategy() -> impl Strategy<Value = TypedItem> {
    (0usize..NUM_ROWS, 0usize..TEXT_POOL.len(), 1u8..8, 0usize..8).prop_map(
        |(row, text, mask, fail)| TypedItem {
            row,
            text,
            mask,
            bad_table: fail == 0,
        },
    )
}

fn row_annotation(item: &TypedItem) -> RowAnnotation {
    let cols: Vec<ColumnId> = (0..3u16)
        .filter(|bit| item.mask & (1 << bit) != 0)
        .map(ColumnId::new)
        .collect();
    RowAnnotation {
        table: if item.bad_table { "missing" } else { "t" }.into(),
        rows: vec![RowId::new(item.row as u64 + 1)],
        cols: ColSig::of_columns(&cols),
        body: AnnotationBody::text(TEXT_POOL[item.text], "prop"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sql_batch_matches_serial_replay(
        items in prop::collection::vec(item_strategy(), 1..40),
    ) {
        // Both maintenance modes take distinct paths through
        // `batch_refresh`; the equivalence must hold in each.
        for mode in [MaintenanceMode::Incremental, MaintenanceMode::Rebuild] {
            let mut batched = fresh_db(mode);
            let mut serial = fresh_db(mode);
            let batch_results = run_batch(&mut batched, &items);
            let serial_results = replay_serial(&mut serial, &items);
            prop_assert_eq!(batch_results.len(), items.len());
            for (i, (b, s)) in batch_results.iter().zip(&serial_results).enumerate() {
                match items[i] {
                    // The serial reference never executes these, so only
                    // the rejection itself is comparable.
                    Item::NotAnnotation => prop_assert!(
                        b.is_err(),
                        "item {i}: non-annotation statement accepted by batch"
                    ),
                    _ => prop_assert_eq!(
                        b, s,
                        "item {} diverged between batch and serial ({:?})",
                        i, items[i]
                    ),
                }
            }
            prop_assert_eq!(all_objects(&batched), all_objects(&serial));
            prop_assert_eq!(
                snapshot_bytes(&batched),
                snapshot_bytes(&serial),
                "snapshot bytes diverged"
            );
            clock_probe(&mut batched, &mut serial);
            prop_assert_eq!(
                snapshot_bytes(&batched),
                snapshot_bytes(&serial),
                "logical clocks diverged"
            );
        }
    }

    #[test]
    fn typed_batch_matches_serial_replay(
        items in prop::collection::vec(typed_strategy(), 1..40),
    ) {
        let mut batched = fresh_db(MaintenanceMode::Incremental);
        let mut serial = fresh_db(MaintenanceMode::Incremental);
        let batch_ids = batched.annotate_rows_batch(items.iter().map(row_annotation).collect());
        prop_assert_eq!(batch_ids.len(), items.len());
        for (i, item) in items.iter().enumerate() {
            let ra = row_annotation(item);
            let serial_id = serial.annotate_rows(&ra.table, &ra.rows, ra.cols, ra.body);
            match (&batch_ids[i], serial_id) {
                (Ok(b), Ok(s)) => prop_assert_eq!(*b, s, "item {} got a different id", i),
                (Err(b), Err(s)) => prop_assert_eq!(
                    b.to_string(),
                    s.to_string(),
                    "item {} failed differently",
                    i
                ),
                (b, s) => panic!("item {i}: batch {b:?} vs serial {s:?}"),
            }
        }
        prop_assert_eq!(all_objects(&batched), all_objects(&serial));
        prop_assert_eq!(
            snapshot_bytes(&batched),
            snapshot_bytes(&serial),
            "snapshot bytes diverged"
        );
        clock_probe(&mut batched, &mut serial);
        prop_assert_eq!(
            snapshot_bytes(&batched),
            snapshot_bytes(&serial),
            "logical clocks diverged"
        );
    }
}

// -- sharded path ---------------------------------------------------------

fn fresh_sharded(shards: usize) -> ShardedDatabase {
    let db = ShardedDatabase::create(DbConfig::default(), shards).unwrap();
    db.execute_sql(SETUP_SQL).unwrap();
    db
}

/// The canonical per-row logical state: every stored annotation (id,
/// `created` tick, body, column signature) and every summary object,
/// each read from the row's *owner* shard and rendered semantically.
/// Ids and ticks pin the router's stamp allocation against serial
/// staging's; the rendered objects pin the summaries. (Registry
/// *bytes* can legitimately differ across shard counts — interning
/// orders diverge — which is exactly why this digest, not the
/// snapshot, is the cross-shard comparator; at `shards == 1` the
/// snapshot-byte check below still applies.)
fn logical_digest(db: &ShardedDatabase) -> Vec<String> {
    let t = db.shard(0).read().catalog().table_id("t").unwrap();
    let mut out = Vec::new();
    for rid in 1..=NUM_ROWS as u64 {
        let row = RowId::new(rid);
        let guard = db.shard(db.owner(t, row)).read();
        for &(aid, sig) in guard.store().on_row(t, row) {
            let a = guard.store().get(aid).unwrap();
            out.push(format!(
                "r{rid} a{} t{} '{}' by {} cols {sig}",
                aid.raw(),
                a.body.created,
                a.body.text,
                a.body.author
            ));
        }
        for (inst, obj) in guard.registry().objects_on(t, row) {
            out.push(format!("r{rid} {inst} {obj}"));
        }
    }
    out
}

fn item_stmt(item: &Item) -> SqlStatement {
    let sql = sql_of(item);
    SqlStatement {
        stmt: parse_one(&sql).expect("generated SQL parses"),
        sql,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The sharded SQL batch path against one-at-a-time serial replay on
    /// an unsharded database, at one shard (snapshot bytes must match
    /// too) and at four (hash-routed, logical digest).
    /// Per item: identical success/failure, identical error text,
    /// identical annotation id.
    #[test]
    fn sharded_batch_matches_serial_replay(
        items in prop::collection::vec(item_strategy(), 1..30),
    ) {
        for shards in [1usize, 4] {
            let sharded = fresh_sharded(shards);
            let mut serial = fresh_db(MaintenanceMode::Incremental);

            let stmts: Vec<SqlStatement> = items.iter().map(item_stmt).collect();
            let batch_results = sharded.annotate_batch_sql(stmts);
            prop_assert_eq!(batch_results.len(), items.len());
            for (i, item) in items.iter().enumerate() {
                let batch = batch_results[i]
                    .as_ref()
                    .map(|o| match o {
                        ExecOutcome::Annotated { annotation, .. } => annotation.raw(),
                        other => panic!("unexpected outcome {other:?}"),
                    })
                    .map_err(ToString::to_string);
                match item {
                    Item::NotAnnotation => prop_assert!(
                        batch.is_err(),
                        "item {}: non-annotation accepted by sharded batch", i
                    ),
                    other => {
                        let serial_res = serial
                            .execute_sql(&sql_of(other))
                            .map(|outcomes| match &outcomes[..] {
                                [ExecOutcome::Annotated { annotation, .. }] => annotation.raw(),
                                o => panic!("expected one Annotated outcome, got {o:?}"),
                            })
                            .map_err(|e| e.to_string());
                        prop_assert_eq!(
                            batch, serial_res,
                            "item {} diverged at {} shard(s) ({:?})", i, shards, item
                        );
                    }
                }
            }

            // Clock probe through the sharded router's execute path: a
            // tick skew from the batch surfaces in this `created` stamp.
            sharded
                .execute_sql("ADD ANNOTATION 'clock probe' AUTHOR 'probe' ON t WHERE p = 1")
                .unwrap();
            serial
                .execute_sql("ADD ANNOTATION 'clock probe' AUTHOR 'probe' ON t WHERE p = 1")
                .unwrap();

            if shards == 1 {
                let g = sharded.shard(0).read();
                prop_assert_eq!(
                    snapshot(g.catalog(), g.store(), g.registry()),
                    snapshot_bytes(&serial),
                    "single-shard snapshot bytes diverged from serial"
                );
            }
            let serial_facade = ShardedDatabase::from_shards(&DbConfig::default(), vec![serial]).unwrap();
            prop_assert_eq!(
                logical_digest(&sharded),
                logical_digest(&serial_facade),
                "logical state diverged at {} shard(s)", shards
            );
        }
    }

    /// The sharded typed batch path (`annotate_rows_batch`) against
    /// serial typed ingestion, same shard counts and digest.
    #[test]
    fn sharded_typed_batch_matches_serial_replay(
        items in prop::collection::vec(typed_strategy(), 1..30),
    ) {
        for shards in [1usize, 4] {
            let sharded = fresh_sharded(shards);
            let mut serial = fresh_db(MaintenanceMode::Incremental);
            let ids = sharded.annotate_rows_batch(items.iter().map(row_annotation).collect());
            prop_assert_eq!(ids.len(), items.len());
            for (i, item) in items.iter().enumerate() {
                let ra = row_annotation(item);
                let serial_id = serial.annotate_rows(&ra.table, &ra.rows, ra.cols, ra.body);
                match (&ids[i], serial_id) {
                    (Ok(b), Ok(s)) => prop_assert_eq!(
                        *b, s, "item {} got a different id at {} shard(s)", i, shards
                    ),
                    (Err(b), Err(s)) => prop_assert_eq!(
                        b.to_string(),
                        s.to_string(),
                        "item {} failed differently at {} shard(s)", i, shards
                    ),
                    (b, s) => panic!("item {i}: sharded {b:?} vs serial {s:?}"),
                }
            }
            let serial_facade = ShardedDatabase::from_shards(&DbConfig::default(), vec![serial]).unwrap();
            prop_assert_eq!(
                logical_digest(&sharded),
                logical_digest(&serial_facade),
                "logical state diverged at {} shard(s)", shards
            );
        }
    }
}

/// A fixed shape worth pinning outside the property: failures at the
/// batch's edges and middle, with successes in between — ids must come
/// out dense and in statement order.
#[test]
fn mixed_failure_batch_keeps_ids_dense_and_ordered() {
    let mut db = fresh_db(MaintenanceMode::Incremental);
    let stmts = [
        "ADD ANNOTATION 'x' ON missing",
        "ADD ANNOTATION 'wingspan plumage measured' ON t WHERE p = 1",
        "ADD ANNOTATION 'y' ON t WHERE p = 99",
        "ADD ANNOTATION 'lesions parasites infection' ON t WHERE p = 2",
        "SELECT p FROM t",
        "ADD ANNOTATION 'diving foraging flocking' ON t WHERE p = 1",
    ]
    .iter()
    .map(|s| parse_one(s).unwrap())
    .collect();
    let results = db.annotate_batch(stmts);
    let ids: Vec<Option<u64>> = results
        .iter()
        .map(|r| match r {
            Ok(insightnotes::engine::ExecOutcome::Annotated { annotation, .. }) => {
                Some(annotation.raw())
            }
            Ok(other) => panic!("unexpected outcome {other:?}"),
            Err(_) => None,
        })
        .collect();
    assert_eq!(ids, vec![None, Some(1), None, Some(2), None, Some(3)]);
}

// -- sharded DELETE ANNOTATION routing ------------------------------------

/// `DELETE ANNOTATION` routes to the id's owner shards instead of
/// broadcasting: the client sees the owner's outcome (not a non-owner's
/// "unknown annotation"), `rows_refreshed` counts the target list once
/// rather than once per owner replica, and the end state matches serial
/// execution.
#[test]
fn sharded_delete_annotation_routes_to_owners() {
    for shards in [1usize, 4] {
        let sharded = fresh_sharded(shards);
        let mut serial = fresh_db(MaintenanceMode::Incremental);
        let add = "ADD ANNOTATION 'eating stonewort near shore' AUTHOR 'ada' ON t WHERE p >= 1";
        sharded.execute_sql(add).unwrap();
        serial.execute_sql(add).unwrap();

        let outcomes = sharded.execute_sql("DELETE ANNOTATION 1").unwrap();
        let serial_outcomes = serial.execute_sql("DELETE ANNOTATION 1").unwrap();
        match (&outcomes[..], &serial_outcomes[..]) {
            (
                [ExecOutcome::AnnotationDeleted {
                    annotation,
                    rows_refreshed,
                }],
                [ExecOutcome::AnnotationDeleted {
                    annotation: serial_ann,
                    rows_refreshed: serial_refreshed,
                }],
            ) => {
                assert_eq!(annotation, serial_ann);
                assert_eq!(
                    rows_refreshed, serial_refreshed,
                    "refresh count diverged at {shards} shard(s)"
                );
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
        assert_eq!(sharded.annotation_count(), 0);
        let serial_facade =
            ShardedDatabase::from_shards(&DbConfig::default(), vec![serial]).unwrap();
        assert_eq!(
            logical_digest(&sharded),
            logical_digest(&serial_facade),
            "post-delete state diverged at {shards} shard(s)"
        );

        // Deleting an id no shard holds is one classified error, not a
        // broadcastful of divergent per-shard outcomes.
        let err = sharded.execute_sql("DELETE ANNOTATION 999").unwrap_err();
        assert!(err.to_string().contains("unknown annotation"), "{err}");
    }
}

/// Partitioned-store statements cannot mix with replicated writes in
/// one sharded script: a broadcast `DELETE ANNOTATION` would fail on
/// non-owner shards, and stop-at-first-failure would then apply the
/// rest of the script to a different set of shards — forking the
/// replicas. A pure partitioned script (ADD + DELETE) routes fine.
#[test]
fn sharded_script_mixing_delete_annotation_with_writes_is_rejected() {
    let sharded = fresh_sharded(4);
    sharded
        .execute_sql("ADD ANNOTATION 'wingspan plumage measured' AUTHOR 'ada' ON t WHERE p = 1")
        .unwrap();
    let err = sharded
        .execute_sql("INSERT INTO t VALUES (9, 'nine', 9.0); DELETE ANNOTATION 1")
        .unwrap_err();
    assert!(err.to_string().contains("cannot mix"), "{err}");
    // Nothing was applied: the annotation survives, the row was never
    // inserted anywhere.
    assert_eq!(sharded.annotation_count(), 1);
    assert_eq!(
        sharded
            .query("SELECT p FROM t WHERE p = 9")
            .unwrap()
            .rows
            .len(),
        0
    );

    let outcomes = sharded
        .execute_sql(
            "ADD ANNOTATION 'lesions parasites infection' AUTHOR 'brahe' ON t WHERE p = 2; \
             DELETE ANNOTATION 1",
        )
        .unwrap();
    assert_eq!(outcomes.len(), 2);
    assert_eq!(sharded.annotation_count(), 1);
}

/// The prepare/commit race against a replicated delete: targets resolve
/// under read guards that drop before the owner shards apply, so a
/// broadcast `DELETE FROM` can remove target rows in between. Staging
/// must re-validate: vanished targets are skipped (the delete-first
/// serial schedule), and an annotation whose every target vanished
/// fails cleanly instead of attaching to deleted rows.
#[test]
fn apply_after_broadcast_delete_skips_vanished_targets() {
    let add = "ADD ANNOTATION 'eating stonewort near shore' AUTHOR 'ada' ON t WHERE p >= 1";
    let stmts = vec![SqlStatement {
        stmt: parse_one(add).unwrap(),
        sql: add.to_string(),
    }];

    // Every target row vanishes between prepare and apply.
    let sharded = fresh_sharded(4);
    let prepared = sharded.prepare_sql_annotations(&stmts);
    assert!(prepared[0].is_ok());
    sharded.execute_sql("DELETE FROM t").unwrap();
    let results = sharded.apply_prepared(prepared);
    let err = results.into_iter().next().unwrap().unwrap_err();
    assert!(
        err.to_string().contains("deleted before it committed"),
        "{err}"
    );
    assert_eq!(sharded.annotation_count(), 0);

    // Partial vanish: the surviving row still gets the annotation, and
    // only that row.
    let sharded = fresh_sharded(4);
    let prepared = sharded.prepare_sql_annotations(&stmts);
    sharded.execute_sql("DELETE FROM t WHERE p > 1").unwrap();
    let results = sharded.apply_prepared(prepared);
    match results.into_iter().next().unwrap() {
        Ok(ExecOutcome::Annotated { targets, .. }) => assert_eq!(targets, 1),
        other => panic!("unexpected result {other:?}"),
    }
    assert_eq!(sharded.annotation_count(), 1);
}

/// The partial-commit repair hook: a compensating delete on the owners
/// that committed converges a partially failed multi-owner write back
/// to "not written" on every shard.
#[test]
fn compensate_partial_removes_committed_replicas() {
    let sharded = fresh_sharded(4);
    sharded
        .execute_sql("ADD ANNOTATION 'eating stonewort near shore' AUTHOR 'ada' ON t WHERE p >= 1")
        .unwrap();
    assert_eq!(sharded.annotation_count(), 1);
    let id = AnnotationId::new(1);
    let owners: Vec<usize> = (0..sharded.shard_count())
        .filter(|&k| sharded.shard(k).read().store().get(id).is_ok())
        .collect();
    assert!(!owners.is_empty());
    sharded.compensate_partial(id, &owners);
    assert_eq!(sharded.annotation_count(), 0);
    for k in 0..sharded.shard_count() {
        assert!(sharded.shard(k).read().store().get(id).is_err());
    }
}
