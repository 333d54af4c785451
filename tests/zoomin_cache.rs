//! Zoom-in query processing end-to-end (paper §2.2 / Figure 3) and the
//! disk result cache behind it.

use insightnotes::engine::{Database, DbConfig, ExecOutcome, ShardedDatabase};
use insightnotes::storage::Value;

/// Figure 3's setup: tuples with refuting/approving annotations and an
/// attached article.
fn figure3_db() -> Database {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE t (c1 TEXT, c2 TEXT, c3 INT);
         INSERT INTO t VALUES ('x', 'y', 5), ('x', 'y', 10);
         CREATE SUMMARY INSTANCE NaiveBayesClass TYPE CLASSIFIER
           LABELS ('refute', 'approve')
           TRAIN ('refute': 'wrong invalid verification needs',
                  'approve': 'confirmed correct verified valid');
         CREATE SUMMARY INSTANCE TextSummary TYPE SNIPPET MIN_SOURCE 100;
         LINK SUMMARY NaiveBayesClass TO t;
         LINK SUMMARY TextSummary TO t;
         ADD ANNOTATION 'Value 5 is wrong' ON t WHERE c3 = 5;
         ADD ANNOTATION 'Needs verification' ON t WHERE c3 = 10;
         ADD ANNOTATION 'Invalid experiment data wrong' ON t WHERE c3 = 10;
         ADD ANNOTATION 'confirmed correct by follow-up' ON t WHERE c3 = 5;",
    )
    .unwrap();
    let article = "Wikipedia article about the observed phenomenon. ".repeat(10);
    db.execute_sql(&format!(
        "ADD ANNOTATION 'wikipedia link' DOCUMENT '{article}' ON t WHERE c3 = 5"
    ))
    .unwrap();
    db
}

#[test]
fn zoomin_retrieves_refuting_annotations_per_figure3a() {
    let mut db = figure3_db();
    let result = db.query("SELECT c1, c2, c3 FROM t").unwrap();
    let qid = result.qid.raw();

    // Figure 3(a): ZoomIn on the 'refute' label (index 1) over both rows.
    let outcomes = db
        .execute_sql(&format!(
            "ZoomIn Reference QID {qid} Where c1 = 'x' On NaiveBayesClass Index 1"
        ))
        .unwrap();
    let ExecOutcome::ZoomIn(z) = &outcomes[0] else {
        panic!()
    };
    assert_eq!(z.matched_rows, 2);
    assert_eq!(z.annotations.len(), 3, "one refute on r1, two on r2");
    assert!(z.annotations.iter().any(|a| a.text == "Value 5 is wrong"));
    assert!(z.from_cache);
}

#[test]
fn zoomin_by_label_name_and_with_predicate() {
    let mut db = figure3_db();
    let result = db.query("SELECT c1, c2, c3 FROM t").unwrap();
    let qid = result.qid.raw();
    let outcomes = db
        .execute_sql(&format!(
            "ZOOMIN REFERENCE QID {qid} WHERE c3 = 10 ON NaiveBayesClass LABEL 'refute'"
        ))
        .unwrap();
    let ExecOutcome::ZoomIn(z) = &outcomes[0] else {
        panic!()
    };
    assert_eq!(z.matched_rows, 1);
    assert_eq!(z.annotations.len(), 2);
}

#[test]
fn zoomin_retrieves_document_per_figure3b() {
    let mut db = figure3_db();
    let result = db.query("SELECT c1, c2, c3 FROM t").unwrap();
    let qid = result.qid.raw();
    // Figure 3(b): retrieve the article attached to the c3 = 5 tuple.
    let outcomes = db
        .execute_sql(&format!(
            "ZOOMIN REFERENCE QID {qid} WHERE c3 = 5 ON TextSummary INDEX 1"
        ))
        .unwrap();
    let ExecOutcome::ZoomIn(z) = &outcomes[0] else {
        panic!()
    };
    assert_eq!(z.annotations.len(), 1);
    let doc = z.annotations[0].document.as_ref().expect("full document");
    assert!(doc.contains("Wikipedia article"));
    assert!(doc.len() > 400, "the complete article, not the snippet");
}

#[test]
fn zoomin_errors_on_bad_references() {
    let mut db = figure3_db();
    let result = db.query("SELECT c1, c2, c3 FROM t").unwrap();
    let qid = result.qid.raw();
    assert_eq!(
        db.execute_sql("ZOOMIN REFERENCE QID 99999 ON NaiveBayesClass INDEX 1")
            .unwrap_err()
            .class(),
        "zoomin"
    );
    assert_eq!(
        db.execute_sql(&format!(
            "ZOOMIN REFERENCE QID {qid} ON NaiveBayesClass INDEX 0"
        ))
        .unwrap_err()
        .class(),
        "zoomin"
    );
    assert_eq!(
        db.execute_sql(&format!("ZOOMIN REFERENCE QID {qid} ON Missing INDEX 1"))
            .unwrap_err()
            .class(),
        "summary"
    );
    assert_eq!(
        db.execute_sql(&format!(
            "ZOOMIN REFERENCE QID {qid} ON NaiveBayesClass LABEL 'nope'"
        ))
        .unwrap_err()
        .class(),
        "summary"
    );
}

#[test]
fn zoomin_on_cluster_groups_returns_members() {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE t (x INT);
         INSERT INTO t VALUES (1);
         CREATE SUMMARY INSTANCE SC TYPE CLUSTER THRESHOLD 0.5;
         LINK SUMMARY SC TO t;
         ADD ANNOTATION 'eating stonewort near shore' ON t;
         ADD ANNOTATION 'eating stonewort near lake' ON t;
         ADD ANNOTATION 'wingspan measured at dawn' ON t;",
    )
    .unwrap();
    let result = db.query("SELECT x FROM t").unwrap();
    let qid = result.qid.raw();
    let outcomes = db
        .execute_sql(&format!("ZOOMIN REFERENCE QID {qid} ON SC INDEX 1"))
        .unwrap();
    let ExecOutcome::ZoomIn(z) = &outcomes[0] else {
        panic!()
    };
    assert_eq!(
        z.annotations.len(),
        2,
        "first group holds the two near-dupes"
    );
    assert!(z.annotations.iter().all(|a| a.text.contains("stonewort")));
}

#[test]
fn evicted_results_are_reexecuted_transparently() {
    // A cache too small for any result forces the re-execution path.
    let mut db = Database::with_config(DbConfig {
        cache_budget: 8,
        ..DbConfig::default()
    })
    .unwrap();
    db.execute_sql(
        "CREATE TABLE t (x INT);
         INSERT INTO t VALUES (1), (2);
         CREATE SUMMARY INSTANCE C TYPE CLASSIFIER LABELS ('note') TRAIN ('note': 'word');
         LINK SUMMARY C TO t;
         ADD ANNOTATION 'word note' ON t WHERE x = 1;",
    )
    .unwrap();
    let result = db.query("SELECT x FROM t").unwrap();
    let qid = result.qid.raw();
    assert_eq!(
        db.zoom().cache().stats().rejected,
        1,
        "result too big to cache"
    );

    let outcomes = db
        .execute_sql(&format!(
            "ZOOMIN REFERENCE QID {qid} WHERE x = 1 ON C INDEX 1"
        ))
        .unwrap();
    let ExecOutcome::ZoomIn(z) = &outcomes[0] else {
        panic!()
    };
    assert!(!z.from_cache, "must re-execute the retained plan");
    assert_eq!(z.annotations.len(), 1);
    assert_eq!(z.annotations[0].text, "word note");
}

#[test]
fn reexecution_reflects_current_database_state() {
    let mut db = Database::with_config(DbConfig {
        cache_budget: 8,
        ..DbConfig::default()
    })
    .unwrap();
    db.execute_sql(
        "CREATE TABLE t (x INT);
         INSERT INTO t VALUES (1);
         CREATE SUMMARY INSTANCE C TYPE CLASSIFIER LABELS ('note') TRAIN ('note': 'word');
         LINK SUMMARY C TO t;
         ADD ANNOTATION 'first' ON t;",
    )
    .unwrap();
    let qid = db.query("SELECT x FROM t").unwrap().qid.raw();
    // A second annotation lands after the query ran; re-execution (cache
    // rejected everything) sees it. This mirrors the paper's model where
    // the cache trades staleness bounds for latency — the uncached path
    // is always current.
    db.execute_sql("ADD ANNOTATION 'second' ON t").unwrap();
    let outcomes = db
        .execute_sql(&format!("ZOOMIN REFERENCE QID {qid} ON C INDEX 1"))
        .unwrap();
    let ExecOutcome::ZoomIn(z) = &outcomes[0] else {
        panic!()
    };
    assert_eq!(z.annotations.len(), 2);
}

/// Regression test: cached zoom results (and the QID result cache
/// behind them) must not serve annotations after a lifecycle statement
/// removes them. Before the fix, `RETRACT`/`DELETE`/`CORRECT` left the
/// cached entries untouched and a repeated zoom-in returned the stale
/// annotation set.
#[test]
fn lifecycle_ops_invalidate_cached_zoom_results() {
    let mut db = figure3_db();
    let qid = db.query("SELECT c1, c2, c3 FROM t").unwrap().qid.raw();
    fn refuters(db: &mut Database, qid: u64) -> Vec<String> {
        let outcomes = db
            .execute_sql(&format!(
                "ZOOMIN REFERENCE QID {qid} ON NaiveBayesClass INDEX 1"
            ))
            .unwrap();
        let ExecOutcome::ZoomIn(z) = &outcomes[0] else {
            panic!()
        };
        z.annotations.iter().map(|a| a.text.clone()).collect()
    }
    let first = refuters(&mut db, qid);
    assert_eq!(first.len(), 3, "all refuting annotations before curation");
    assert!(first.contains(&"Value 5 is wrong".to_string()));

    // Retract #1 ('Value 5 is wrong'): the cached zoom result for this
    // QID must stop serving it.
    db.execute_sql("RETRACT ANNOTATION 1").unwrap();
    let after_retract = refuters(&mut db, qid);
    assert!(
        !after_retract.contains(&"Value 5 is wrong".to_string()),
        "zoom served a retracted annotation from the cache"
    );
    assert_eq!(after_retract.len(), 2);

    // Hard-delete #3: same contract for the pre-lifecycle path.
    db.execute_sql("DELETE ANNOTATION 3").unwrap();
    let after_delete = refuters(&mut db, qid);
    assert!(!after_delete.contains(&"Invalid experiment data wrong".to_string()));
    assert_eq!(after_delete.len(), 1);

    // Correct #2: the successor's (still refuting) text replaces the
    // predecessor's in the zoomed set.
    db.execute_sql("CORRECT ANNOTATION 2 'wrong invalid verification still needs work'")
        .unwrap();
    let after_correct = refuters(&mut db, qid);
    assert!(!after_correct.contains(&"Needs verification".to_string()));
    assert!(after_correct.contains(&"wrong invalid verification still needs work".to_string()));
}

#[test]
fn query_results_get_distinct_qids_and_cache_entries() {
    let db = figure3_db();
    let a = db.query("SELECT c1 FROM t").unwrap();
    let b = db.query("SELECT c2 FROM t").unwrap();
    assert_ne!(a.qid, b.qid);
    assert_eq!(db.zoom().query_count(), 2);
    assert!(db.zoom().cache().contains(a.qid));
    assert!(db.zoom().cache().contains(b.qid));
}

#[test]
fn zoomed_result_row_values_match_query_output() {
    let mut db = figure3_db();
    let result = db
        .query("SELECT c3 FROM t WHERE c3 > 1 ORDER BY c3")
        .unwrap();
    assert_eq!(result.rows[0].row[0], Value::Int(5));
    // Zoom-in over a projected result: annotations on dropped columns
    // (c1, c2) no longer contribute.
    let qid = result.qid.raw();
    let outcomes = db
        .execute_sql(&format!(
            "ZOOMIN REFERENCE QID {qid} WHERE c3 = 5 ON NaiveBayesClass INDEX 1"
        ))
        .unwrap();
    let ExecOutcome::ZoomIn(z) = &outcomes[0] else {
        panic!()
    };
    // The whole-row refute annotation still covers c3.
    assert_eq!(z.annotations.len(), 1);
}

/// A read inside a replicated write script runs through the router like
/// a read sent alone: it sees every shard's summaries, and its QID comes
/// from the router's registry, so `ZOOMIN` answers for it.
#[test]
fn reads_inside_a_write_script_are_routed_and_zoomable() {
    for shards in [1usize, 4] {
        let db = ShardedDatabase::create(DbConfig::default(), shards).unwrap();
        db.execute_sql(
            "CREATE TABLE t (c1 TEXT, c3 INT);
             INSERT INTO t VALUES ('a', 1), ('b', 2), ('c', 3), ('d', 4),
                                  ('e', 5), ('f', 6), ('g', 7), ('h', 8);
             CREATE SUMMARY INSTANCE C TYPE CLASSIFIER
               LABELS ('refute', 'approve')
               TRAIN ('refute': 'wrong invalid verification needs',
                      'approve': 'confirmed correct verified valid');
             LINK SUMMARY C TO t",
        )
        .unwrap();
        for v in 1..=8 {
            db.execute_sql(&format!(
                "ADD ANNOTATION 'Value {v} is wrong' ON t WHERE c3 = {v}"
            ))
            .unwrap();
        }
        let select = "SELECT c1, c3 FROM t WHERE c3 <= 8";
        let outcomes = db
            .execute_sql(&format!("INSERT INTO t VALUES ('i', 9); {select}"))
            .unwrap();
        let [ExecOutcome::Inserted { rows: 1, .. }, ExecOutcome::Query(in_script)] = &outcomes[..]
        else {
            panic!("unexpected outcomes {outcomes:?}")
        };
        let alone = db.query(select).unwrap();
        assert_ne!(
            in_script.qid, alone.qid,
            "QIDs collide at {shards} shard(s)"
        );
        assert_eq!(
            format!("{:?}", in_script.rows),
            format!("{:?}", alone.rows),
            "in-script read diverged at {shards} shard(s)"
        );
        for qid in [in_script.qid, alone.qid] {
            let outcomes = db
                .execute_sql(&format!("ZOOMIN REFERENCE QID {} ON C INDEX 1", qid.raw()))
                .unwrap();
            let [ExecOutcome::ZoomIn(z)] = &outcomes[..] else {
                panic!("unexpected outcomes {outcomes:?}")
            };
            assert_eq!(z.matched_rows, 8, "QID {qid} at {shards} shard(s)");
            assert_eq!(z.annotations.len(), 8, "QID {qid} at {shards} shard(s)");
        }
    }
}
