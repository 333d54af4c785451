//! The traced run's layer probes. Every per-layer metric is taken here,
//! from outside the product: by timing one public function of the layer
//! on the workload's data and statements, by reading a public counter, or
//! from a span recorded around the call in the decomposed request path.
//!
//! Reads are decomposed on an embedded database holding the workload's
//! data; writes on a 2-shard logged database at the workload's row count,
//! which is then served (with a replica) for the probes that need a wire.

use crate::harness::{self, ms, timed, Birds, Checks, Fixture, Rng, Template, SERVER_SHARDS};
use crate::host;
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::workloads::{Ctx, LabData, LabInput};
use insightnotes_annotations::{AnnotationBody, ColSig, Target};
use insightnotes_client::{Client, PipelinedClient};
use insightnotes_common::wire::{
    decode_frame_any, frame_bytes_seq, Request, Response, RowsPayload, WireRow, WireValue,
};
use insightnotes_common::{AnnotationId, IdSet, RowId};
use insightnotes_engine::db::QueryResult;
use insightnotes_engine::exec::Executor;
use insightnotes_engine::plan::{estimate_cost, Planner};
use insightnotes_engine::wal::{self, Wal};
use insightnotes_engine::{persist, Database, ShardedDatabase, SqlStatement};
use insightnotes_replication::replica::{ReplicaConfig, Replicator};
use insightnotes_server::{ReplicaServing, ServerConfig};
use insightnotes_sql::{parse_one, Statement};
use insightnotes_storage::Value;
use insightnotes_text::{
    summarize_extractive, tokenize, ClusterConfig, NaiveBayes, OnlineClusterer, SnippetConfig,
    SparseVector, Vocabulary,
};
use insightnotes_workload::{ingest_script, BirdGen, IngestConfig, ANNOTATION_CLASSES};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests of each class driven through the decomposed path (the issue
/// asks for at least 200 per class).
const TRACED_PER_CLASS: usize = 240;
/// Annotations per row the probes' served database is loaded with.
const SERVED_ANNS_PER_ROW: usize = 10;

type Metrics = BTreeMap<&'static str, f64>;

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// Times `f` once per item and returns the median in microseconds.
fn median_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let samples: Vec<f64> = items.iter().map(|item| us(timed(|| f(item)).1)).collect();
    median(&samples)
}

/// Every `k`-th element, `k` chosen so that about `n` are taken.
fn every_kth<T: Clone>(items: &[T], n: usize) -> Vec<T> {
    let k = (items.len() / n.max(1)).max(1);
    items.iter().step_by(k).take(n).cloned().collect()
}

/// The wire form of a result, as the server builds it: values plus each
/// summary object rendered in the paper's notation under its instance name.
fn rows_payload(db: &Database, q: &QueryResult) -> RowsPayload {
    RowsPayload {
        qid: q.qid.raw(),
        columns: q
            .schema
            .columns()
            .iter()
            .map(|c| c.display_name())
            .collect(),
        rows: q
            .rows
            .iter()
            .map(|r| WireRow {
                values: r
                    .row
                    .values()
                    .iter()
                    .map(|v| match v {
                        Value::Null => WireValue::Null,
                        Value::Int(i) => WireValue::Int(*i),
                        Value::Float(f) => WireValue::Float(*f),
                        Value::Text(s) => WireValue::Text(s.clone()),
                        Value::Bool(b) => WireValue::Bool(*b),
                    })
                    .collect(),
                summaries: r
                    .summaries
                    .iter()
                    .map(|(instance, object)| {
                        let name = db
                            .registry()
                            .instance(*instance)
                            .map_or_else(|_| instance.to_string(), |i| i.name().to_string());
                        format!("{name} {object}")
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// One SELECT through the steps the server and the engine take for it,
/// a span around each. Returns the result's row count and frame bytes.
fn decomposed_read(t: &mut Tracer, db: &Database, seq: u64, sql: &str) -> (usize, usize) {
    t.next_request();
    t.span("request.read", |t| {
        let frame = t.span("client.encode_request", |_| {
            frame_bytes_seq(seq, &Request::Query { sql: sql.into() })
        });
        let (_, request) = t.span("wire.decode_request", |_| {
            decode_frame_any::<Request>(&frame[4..]).expect("own frame decodes")
        });
        let sql = request.sql().expect("query frame carries SQL").to_string();
        let Statement::Select(select) = t.span("sql.parse_select", |_| {
            parse_one(&sql).expect("generated SELECT parses")
        }) else {
            unreachable!("read statements are SELECTs")
        };
        let plan = t.span("plan.plan_select", |_| {
            Planner::new(db.catalog(), db.registry())
                .plan_select(&select)
                .expect("plan")
        });
        let rows = t.span("exec.execute", |_| {
            Executor::new(db.catalog(), db.registry())
                .execute(&plan)
                .expect("execute")
        });
        let schema = plan.schema().clone();
        let qid = t.span("zoomin.register", |_| {
            let complexity = estimate_cost(&plan, db.catalog()).cost;
            db.zoom()
                .register(schema.clone(), plan, &rows, complexity)
                .expect("register result")
        });
        let result = QueryResult { qid, schema, rows };
        let payload = t.span("server.render", |_| rows_payload(db, &result));
        let frame = t.span("wire.encode_response", |_| {
            frame_bytes_seq(seq, &Response::Rows(payload))
        });
        let rows = result.rows.len();
        // The caller of `Database::query` pays for dropping the result too.
        t.span("exec.drop_result", |_| drop(result));
        (rows, frame.len())
    })
}

/// One `Annotate` frame through the steps the server's write path takes.
fn decomposed_write(t: &mut Tracer, db: &ShardedDatabase, seq: u64, sql: &str) -> bool {
    t.next_request();
    t.span("request.write", |t| {
        let frame = t.span("client.encode_request", |_| {
            frame_bytes_seq(seq, &Request::Annotate { sql: sql.into() })
        });
        let (_, request) = t.span("wire.decode_request", |_| {
            decode_frame_any::<Request>(&frame[4..]).expect("own frame decodes")
        });
        let statement = t.span("sql.parse_annotate", |_| {
            SqlStatement::parse(request.sql().expect("annotate frame carries SQL"))
                .expect("generated ADD ANNOTATION parses")
        });
        let prepared = t.span("shard.prepare", |_| {
            db.prepare_sql_annotations(std::slice::from_ref(&statement))
        });
        let outcome = t.span("shard.apply", |_| db.apply_prepared(prepared));
        t.span("wal.sync", |_| db.wal_sync_all().expect("sync log"));
        let ok = matches!(outcome.as_slice(), [Ok(_)]);
        let messages = outcome
            .iter()
            .map(|o| {
                o.as_ref()
                    .map_or_else(ToString::to_string, ToString::to_string)
            })
            .collect();
        t.span("wire.encode_response", |_| {
            frame_bytes_seq(seq, &Response::Ack { messages })
        });
        ok
    })
}

fn annotation_parts(sql: &str) -> (String, String, u64) {
    let Ok(Statement::AddAnnotation { text, author, .. }) = parse_one(sql) else {
        panic!("not an ADD ANNOTATION statement: {sql}");
    };
    let row = sql
        .rsplit("id = ")
        .next()
        .and_then(|id| id.parse().ok())
        .expect("generated annotations target `id = <row>`");
    (text, author.unwrap_or_else(|| "anonymous".into()), row)
}

/// Probes that only read the embedded database (or work on a private copy
/// of its registry).
fn embedded_probes(
    db: &Database,
    birds: &Birds,
    writes: &[String],
    seed: u64,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let table = db.catalog().table_id("birds").expect("birds table");
    let arity = db
        .catalog()
        .table_by_name("birds")
        .expect("birds table")
        .schema()
        .arity();
    let mut rng = Rng::new(seed ^ 0x1AB);

    // exec: Executor::execute per template, planned beforehand.
    let (mut exec_s, mut out_rows) = (0.0, 0usize);
    for template in Template::ALL {
        let n = if template == Template::Point { 100 } else { 5 };
        let plans: Vec<_> = (0..n)
            .map(|i| {
                let sql = birds.statement(template, i, &mut rng);
                db.plan_sql(&sql).expect("plan template")
            })
            .collect();
        let samples: Vec<f64> = plans
            .iter()
            .map(|plan| {
                let (rows, s) = timed(|| {
                    Executor::new(db.catalog(), db.registry())
                        .execute(plan)
                        .expect("execute template")
                });
                exec_s += s;
                out_rows += rows.len();
                us(s)
            })
            .collect();
        m.insert(template.metric(), median(&samples));
    }
    m.insert("exec.us_per_out_row", us(exec_s) / out_rows.max(1) as f64);

    // idset: the id-sets the dataset's own summary objects hold.
    let sets: Vec<IdSet> = (1..=birds.count() as u64)
        .flat_map(|row| db.registry().objects_on(table, RowId::new(row)))
        .map(|(_, object)| object.all_ids())
        .filter(|s| !s.is_empty())
        .take(400)
        .collect();
    let pairs: Vec<(&IdSet, &IdSet)> = sets.iter().zip(sets.iter().skip(1)).collect();
    let ids: usize = pairs.iter().map(|(a, b)| a.len() + b.len()).sum();
    let (_, union_s) = timed(|| {
        for (a, b) in &pairs {
            std::hint::black_box(a.union(std::hint::black_box(b)));
        }
    });
    let (_, intersect_s) = timed(|| {
        for (a, b) in &pairs {
            std::hint::black_box(a.intersect(std::hint::black_box(b)));
        }
    });
    m.insert("idset.union_ns_per_id", union_s * 1e9 / ids.max(1) as f64);
    m.insert(
        "idset.intersect_ns_per_id",
        intersect_s * 1e9 / ids.max(1) as f64,
    );
    m.insert(
        "idset.bytes_per_id",
        sets.iter().map(IdSet::heap_bytes).sum::<usize>() as f64
            / sets.iter().map(IdSet::len).sum::<usize>().max(1) as f64,
    );

    // zoomin: hits and misses of ZOOMIN on results registered here. A
    // point result always fits the cache; evicting it forces the miss.
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        let qid = db
            .query(&birds.point(&mut rng))
            .expect("register zoom target")
            .qid;
        let Ok(Statement::ZoomIn(zoom)) = parse_one(&format!(
            "ZOOMIN REFERENCE QID {} ON ClassBird1 LABEL 'Disease'",
            qid.raw()
        )) else {
            unreachable!("ZOOMIN parses")
        };
        for evict_first in [false, true, false] {
            if evict_first {
                db.zoom_cache_evict(qid);
            }
            let (result, s) = timed(|| db.zoom_in(&zoom).expect("zoom in"));
            if result.from_cache {
                &mut hits
            } else {
                &mut misses
            }
            .push(us(s));
        }
    }
    checks.require(!hits.is_empty() && !misses.is_empty(), || {
        "zoom-in probes saw no hit or no miss".into()
    });
    m.insert("zoomin.hit_us", median(&hits));
    m.insert("zoomin.miss_us", median(&misses));
    let cache = db.zoom().cache().stats();
    m.insert(
        "zoomin.hit_pct",
        100.0 * cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    m.insert("zoomin.evictions", cache.evictions as f64);

    // summaries: maintenance calls on a private copy of the registry.
    let snapshot = db.snapshot_bytes();
    let (_, _, mut registry, _, _) = persist::restore(&snapshot).expect("restore registry copy");
    let fresh: Vec<(AnnotationId, AnnotationBody, Vec<Target>)> = writes
        .iter()
        .take(512)
        .enumerate()
        .map(|(i, sql)| {
            let (text, author, row) = annotation_parts(sql);
            (
                AnnotationId::new(1 << 40 | i as u64),
                AnnotationBody::text(text, author),
                vec![Target::new(
                    table,
                    RowId::new(row),
                    ColSig::whole_row(arity),
                )],
            )
        })
        .collect();
    let no_context = |_, _| None;
    let (one_by_one, batch) = fresh.split_at(fresh.len() / 2);
    m.insert(
        "summaries.apply_us",
        median_us(one_by_one, |(id, body, targets)| {
            registry
                .apply_annotation(*id, body, targets, &no_context)
                .expect("apply annotation");
        }),
    );
    let refs: Vec<(AnnotationId, &AnnotationBody, &[Target])> = batch
        .iter()
        .map(|(id, body, targets)| (*id, body, targets.as_slice()))
        .collect();
    let mut by_row: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for (id, _, targets) in batch {
        by_row
            .entry((targets[0].table, targets[0].row))
            .or_default()
            .push((*id, targets[0].cols));
    }
    let bodies: HashMap<AnnotationId, &AnnotationBody> =
        batch.iter().map(|(id, body, _)| (*id, body)).collect();
    let (_, batch_s) = timed(|| {
        registry
            .warm_digests(&refs, &no_context)
            .expect("warm digests");
        registry
            .apply_annotations_batch(&by_row, &bodies, &no_context, &mut HashMap::new())
            .expect("apply batch");
    });
    m.insert(
        "summaries.apply_batch_us_per_ann",
        us(batch_s) / batch.len().max(1) as f64,
    );
    m.insert(
        "summaries.remove_us",
        median_us(&fresh, |(id, _, targets)| {
            registry.remove_annotation(*id, targets)
        }),
    );
    let annotated_rows = db.store().annotated_rows(table).len().max(1) as f64;
    m.insert(
        "summaries.objects_per_row",
        db.registry().object_count() as f64 / annotated_rows,
    );
    m.insert(
        "summaries.object_bytes_per_row",
        db.registry().total_object_bytes() as f64 / annotated_rows,
    );
    m.insert(
        "summaries.digest_cache_len",
        db.registry().digest_cache_len() as f64,
    );

    // text: the three summarizers' kernels on the workload's texts.
    let texts: Vec<String> = writes
        .iter()
        .take(512)
        .map(|sql| annotation_parts(sql).0)
        .collect();
    let mut generator = BirdGen::new(seed);
    let mut classifier = NaiveBayes::new(ANNOTATION_CLASSES.iter().map(|c| (*c).into()).collect());
    for (class, text) in generator.training_corpus(12) {
        classifier.train(class, &text);
    }
    m.insert(
        "text.classify_us",
        median_us(&texts, |text| {
            std::hint::black_box(classifier.classify(text));
        }),
    );
    let mut vocabulary = Vocabulary::new();
    let vectors: Vec<(u64, SparseVector)> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let ids = vocabulary.intern_all(&tokenize(text));
            (i as u64, SparseVector::from_term_ids(&ids))
        })
        .collect();
    let mut clusterer = OnlineClusterer::new(ClusterConfig::default());
    m.insert(
        "text.cluster_add_us",
        median_us(&vectors, |(id, vector)| {
            clusterer.add(*id, vector.clone());
        }),
    );
    let documents: Vec<String> = (0..32)
        .filter_map(|_| generator.annotation(0.0, 1.0).document)
        .collect();
    m.insert(
        "text.snippet_us",
        median_us(&documents, |document| {
            std::hint::black_box(summarize_extractive(document, &SnippetConfig::default()));
        }),
    );

    // annotations: the store's own counters.
    let store = db.store().stats();
    m.insert(
        "annotations.content_bytes_per_ann",
        store.content_bytes as f64 / store.count.max(1) as f64,
    );
    m.insert(
        "annotations.retired_pct",
        100.0 * store.retired as f64 / (store.count + store.retired).max(1) as f64,
    );

    // persist, the part that needs no log: encode, restore, time travel.
    let encode_ms: Vec<f64> = (0..3)
        .map(|_| timed(|| db.snapshot_bytes()).1 * 1e3)
        .collect();
    let restore_ms: Vec<f64> = (0..3)
        .map(|_| timed(|| persist::restore(&snapshot).expect("restore")).1 * 1e3)
        .collect();
    m.insert("persist.snapshot_encode_ms", median(&encode_ms));
    m.insert("persist.restore_ms", median(&restore_ms));
    m.insert(
        "persist.snapshot_bytes_per_ann",
        snapshot.len() as f64 / (store.count + store.retired).max(1) as f64,
    );
    let now = db.clock_now();
    let as_of_ms: Vec<f64> = [now / 4, now / 2, now]
        .iter()
        .map(|tick| {
            let sql = format!(
                "SELECT name FROM birds WHERE id = {} AS OF {tick}",
                rng.one_to(birds.count())
            );
            timed(|| db.query(&sql).expect("AS OF query")).1 * 1e3
        })
        .collect();
    m.insert("persist.as_of_ms", median(&as_of_ms));
}

/// Seconds per request of the three variants of a re-drive: the
/// undecomposed call, the decomposed path with the tracer off, and with it on.
struct Redrive {
    whole: Vec<f64>,
    off: Vec<f64>,
    on: Vec<f64>,
}

/// Median over requests of `a[i] / b[i]`: pairs are the same statement (or,
/// for writes, the same position in a uniform stream), and a median keeps
/// one stall out of the ratio.
fn median_ratio(a: &[f64], b: &[f64]) -> f64 {
    let ratios: Vec<f64> = a.iter().zip(b).map(|(a, b)| a / b.max(1e-12)).collect();
    median(&ratios)
}

/// The read re-drive: the same sample undecomposed (`Database::query`),
/// decomposed with the tracer off, and decomposed with it on. The three
/// run back to back on each statement, so that they meet the zoom cache in
/// the same state (every SELECT adds a result to it, and a full cache evicts
/// on each); which goes first rotates, so that none is always the one that
/// finds the statement's rows cold.
fn traced_reads(db: &Database, reads: &[String], tracer: &mut Tracer, m: &mut Metrics) -> Redrive {
    for sql in reads.iter().take(20) {
        db.query(sql).expect("warm-up query");
    }
    let mut untraced = Tracer::new(false);
    let (mut rows, mut bytes) = (0usize, 0usize);
    let mut r = Redrive {
        whole: Vec::new(),
        off: Vec::new(),
        on: Vec::new(),
    };
    for (i, sql) in reads.iter().enumerate() {
        for turn in 0..3 {
            match (i + turn) % 3 {
                0 => r
                    .whole
                    .push(timed(|| drop(db.query(sql).expect("undecomposed query"))).1),
                1 => r
                    .off
                    .push(timed(|| decomposed_read(&mut untraced, db, i as u64, sql)).1),
                _ => {
                    let ((n, b), s) = timed(|| decomposed_read(tracer, db, i as u64, sql));
                    rows += n;
                    bytes += b;
                    r.on.push(s);
                }
            }
        }
    }
    m.insert("wire.resp_bytes_per_row", bytes as f64 / rows.max(1) as f64);
    r
}

/// The write re-drive on the 2-shard logged database, a third of the
/// sample per variant (each statement can be applied only once).
fn traced_writes(
    db: &ShardedDatabase,
    writes: &[String],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Redrive {
    // The variants take turns statement by statement, so that entry `i` of
    // each was measured within a few fsyncs of the others': what a log
    // force costs drifts over a run on a shared disk, and three passes one
    // after the other would put that drift into the ratios.
    let mut all_ok = true;
    let mut untraced = Tracer::new(false);
    let mut r = Redrive {
        whole: Vec::new(),
        off: Vec::new(),
        on: Vec::new(),
    };
    for (i, turn) in writes.chunks_exact(3).enumerate() {
        r.whole.push(
            timed(|| {
                let statement = SqlStatement::parse(turn[0].as_str()).expect("parse");
                all_ok &= matches!(db.annotate_batch_sql(vec![statement]).as_slice(), [Ok(_)]);
                db.wal_sync_all().expect("sync log");
            })
            .1,
        );
        let (ok, s) = timed(|| decomposed_write(&mut untraced, db, i as u64, &turn[1]));
        all_ok &= ok;
        r.off.push(s);
        let (ok, s) = timed(|| decomposed_write(tracer, db, i as u64, &turn[2]));
        all_ok &= ok;
        r.on.push(s);
    }
    checks.require(all_ok, || "a re-driven annotation was not accepted".into());
    r
}

/// `Wal::append` and `Wal::sync` on the records of a log the probes wrote.
fn wal_probes(log: &std::path::Path, scratch: &std::path::Path, m: &mut Metrics) {
    let bytes = std::fs::read(log).expect("read shard log");
    let mut records = Vec::new();
    let mut at = wal::HEADER_BYTES as usize;
    while let Some((record, used)) = bytes.get(at..).and_then(wal::decode_frame) {
        records.push(record);
        at += used;
    }
    let records = every_kth(&records, 200);
    let mut log = Wal::create(&host::fresh_dir(scratch), 0, harness::FLUSH_POLICY)
        .expect("create scratch log");
    let (mut appends, mut syncs) = (Vec::new(), Vec::new());
    for record in &records {
        appends.push(us(timed(|| log.append(record).expect("append")).1));
        syncs.push(us(timed(|| log.sync().expect("sync")).1));
    }
    m.insert("wal.append_us", median(&appends));
    m.insert("wal.sync_us", median(&syncs));
}

/// Probes that need a server: ping, residuals, client, replication.
fn served_probes(
    sdb: ShardedDatabase,
    root: &std::path::Path,
    reads: &[String],
    writes: &[String],
    in_process_write_us: f64,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    // In-process cost of a read against this database, undecomposed.
    let in_process_read_us = median_us(reads, |sql| {
        let frame = frame_bytes_seq(0, &Request::Query { sql: sql.clone() });
        let _ = decode_frame_any::<Request>(&frame[4..]);
        std::hint::black_box(sdb.query(sql).expect("in-process read"));
    });
    let primary = harness::serve(sdb, ServerConfig::default());
    let fx = Fixture::new(root, Arc::clone(&primary.db));
    let mut client = Client::connect(primary.addr).expect("connect");

    let pings: Vec<u32> = (0..500).collect();
    m.insert(
        "server.ping_rtt_us",
        median_us(&pings, |_| {
            client.ping().expect("ping");
        }),
    );
    let read_rtt = median_us(reads, |sql| {
        std::hint::black_box(client.query(sql).expect("read over the wire"));
    });
    m.insert("server.residual_read_us", read_rtt - in_process_read_us);

    // Replica: bootstrap over the wire from the primary's current state.
    let (quarter, rest) = writes.split_at(writes.len() / 4);
    let (boot, bootstrap_s) = timed(|| {
        let boot = Replicator::start(&ReplicaConfig::new(
            primary.addr.to_string(),
            host::fresh_dir(&root.with_extension("replica")),
        ))
        .expect("start replica");
        let target = client.replica_state().expect("primary positions");
        let positions = boot.replicator.positions();
        while positions
            .snapshot()
            .iter()
            .zip(&target)
            .any(|(have, want)| have < want)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        boot
    });
    m.insert("replication.bootstrap_s", bootstrap_s);
    let mut replicator = boot.replicator;
    let replica = harness::serve(
        boot.db,
        ServerConfig {
            replica: Some(ReplicaServing {
                primary: primary.addr.to_string(),
                positions: replicator.positions(),
            }),
            ..ServerConfig::default()
        },
    );
    let mut on_replica = Client::connect(replica.addr).expect("connect to replica");

    // Serial writes at depth 1: the wire round trip of one Annotate, the
    // handshake after it, and (sampled beside them every 5 ms) how long
    // the replica takes to cover what the primary has committed.
    let stop = AtomicBool::new(false);
    let (write_rtts, waits, lags) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut p = Client::connect(primary.addr).expect("sampler to primary");
            let mut r = Client::connect(replica.addr).expect("sampler to replica");
            let mut lags = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let target = p.replica_state().expect("primary positions");
                let start = Instant::now();
                while r
                    .replica_state()
                    .expect("replica positions")
                    .iter()
                    .zip(&target)
                    .any(|(have, want)| have < want)
                {
                    std::thread::sleep(Duration::from_micros(100));
                }
                lags.push(ms(start));
                std::thread::sleep(Duration::from_millis(5));
            }
            lags
        });
        let (mut rtts, mut waits) = (Vec::new(), Vec::new());
        for sql in quarter {
            let (ack, s) = timed(|| client.annotate(sql));
            checks.require(ack.is_ok(), || "a probe annotation was not acked".into());
            rtts.push(us(s));
            let target = client.replica_state().expect("primary positions");
            let (_, s) = timed(|| {
                on_replica
                    .wait_for_offset(&target, Duration::from_secs(5))
                    .expect("replica reaches the write")
            });
            waits.push(us(s));
        }
        stop.store(true, Ordering::SeqCst);
        (rtts, waits, sampler.join().expect("lag sampler"))
    });
    m.insert(
        "server.residual_write_us",
        median(&write_rtts) - in_process_write_us,
    );
    m.insert("replication.wait_for_offset_us", median(&waits));
    let mut lags = lags;
    lags.sort_by(|a, b| a.partial_cmp(b).expect("finite lag"));
    m.insert("replication.lag_p50_ms", percentile(&lags, 50.0));
    m.insert("replication.lag_p95_ms", percentile(&lags, 95.0));

    // Pipelined: what a submit costs the client, and how many
    // annotations one group fsync carries when 32 are in flight.
    let io_before: Vec<(u64, u64)> = (0..SERVER_SHARDS)
        .map(|k| fx.db.shard(k).read().wal_io_stats().expect("log attached"))
        .collect();
    let mut pipelined = PipelinedClient::connect(primary.addr).expect("connect pipelined");
    let mut submits = Vec::new();
    for chunk in rest.chunks(32) {
        for sql in chunk {
            let request = Request::Annotate { sql: sql.clone() };
            submits.push(us(timed(|| {
                pipelined.submit(&request).expect("submit");
                pipelined.flush().expect("flush");
            })
            .1));
        }
        let acks = pipelined.drain().expect("drain acks");
        checks.require(
            acks.iter().all(|(_, r)| matches!(r, Response::Ack { .. })),
            || "a pipelined probe annotation was not acked".into(),
        );
    }
    m.insert("client.submit_us", median(&submits));
    let fsyncs: u64 = (0..SERVER_SHARDS)
        .map(|k| {
            fx.db
                .shard(k)
                .read()
                .wal_io_stats()
                .expect("log attached")
                .1
                - io_before[k].1
        })
        .sum();
    m.insert(
        "wal.anns_per_sync",
        rest.len() as f64 / fsyncs.max(1) as f64,
    );

    // Log volume, skew, replay and checkpoint of what the probes wrote.
    let counts: Vec<usize> = (0..SERVER_SHARDS)
        .map(|k| fx.db.shard(k).read().store().stats().count)
        .collect();
    let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    m.insert(
        "shard.skew",
        counts.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
    );
    let log_bytes: u64 = (0..SERVER_SHARDS)
        .map(|k| {
            fx.db
                .shard(k)
                .read()
                .wal_committed()
                .expect("log attached")
                .1
                - wal::HEADER_BYTES
        })
        .sum();
    let logged = fx.db.annotation_count();
    m.insert("wal.bytes_per_ann", log_bytes as f64 / logged.max(1) as f64);
    let log_path = fx.db.shard(0).read().wal_path().expect("log attached");
    wal_probes(&log_path, &root.with_extension("wal-probe"), m);

    drop(on_replica);
    replica.stop();
    replicator.stop();
    drop(client);
    drop(pipelined);
    m.insert("server.requests_served", primary.stop() as f64);

    let (seconds, replayed) = harness::crash_and_recover(&fx, true, checks);
    m.insert("persist.records_replayed", replayed as f64);
    m.insert(
        "persist.replay_us_per_record",
        us(seconds) / replayed.max(1) as f64,
    );
    m.insert("persist.checkpoint_ms", timed(|| fx.checkpoint()).1 * 1e3);
}

pub fn run(input: LabInput, ctx: &Ctx, sched_lag_p99_ms: f64, checks: &mut Checks) -> Metrics {
    let mut m = Metrics::new();
    m.insert("gen.sched_lag_p99_ms", sched_lag_p99_ms);

    let embedded = match &input.data {
        LabData::Live(db) => Arc::clone(db),
        LabData::Replay { setup, annotations } => Arc::new(Fixture::load(
            &ctx.scratch.join("lab-embedded"),
            1,
            false,
            setup,
            annotations,
        )),
    };
    let birds = harness::with_embedded(&embedded, |db| Birds::read(db, input.anns_per_row));
    // The lab's own statements, at the workload's row count: what the
    // served database is loaded with, and the class a workload lacks.
    let mut own = ingest_script(&IngestConfig {
        seed: ctx.seed ^ 0x1AB,
        writers: 1,
        annotations_per_writer: birds.count() * SERVED_ANNS_PER_ROW + 3 * TRACED_PER_CLASS + 1024,
        num_birds: birds.count(),
        skew: 0.0,
    });
    let mut own_stream = own.clients.remove(0);
    let own_writes = own_stream.split_off(birds.count() * SERVED_ANNS_PER_ROW);
    // Writes: a third each for the undecomposed, untraced and traced
    // re-drive, from the workload's sample where it has one.
    let (redrive, served_writes) = own_writes.split_at(3 * TRACED_PER_CLASS);
    let redrive: Vec<String> = if input.writes.len() >= 3 * TRACED_PER_CLASS {
        every_kth(&input.writes, 3 * TRACED_PER_CLASS)
    } else {
        redrive.to_vec()
    };
    let mut rng = Rng::new(ctx.seed ^ 0x2AB);
    let reads: Vec<String> = if input.reads.is_empty() {
        (0..TRACED_PER_CLASS)
            .map(|_| birds.point(&mut rng))
            .collect()
    } else {
        every_kth(&input.reads, TRACED_PER_CLASS)
    };
    let mut tracer = Tracer::new(true);
    let r = {
        let guard = embedded.shard(0).read();
        embedded_probes(&guard, &birds, &redrive, ctx.seed, &mut m, checks);
        traced_reads(&guard, &reads, &mut tracer, &mut m)
    };
    drop(embedded);

    // The 2-shard logged database the write path is decomposed on.
    let served_root = ctx.scratch.join("lab-served");
    let sdb = Fixture::load(&served_root, SERVER_SHARDS, true, &own.setup, &own_stream);
    let w = traced_writes(&sdb, &redrive, &mut tracer, checks);

    // The same annotations at one shard, for the cost of routing.
    let batch_s = |db: &ShardedDatabase, statements: &[String]| {
        timed(|| harness::annotate_in_groups(db, statements, 64)).1
    };
    let (for_ratio, served_writes) = served_writes.split_at(512);
    let two_shards_s = batch_s(&sdb, for_ratio);
    let one_root = ctx.scratch.join("lab-one-shard");
    let one = Fixture::load(&one_root, 1, true, &own.setup, &own_stream);
    m.insert("shard.s1_ratio", two_shards_s / batch_s(&one, for_ratio));
    drop(one);
    let _ = std::fs::remove_dir_all(&one_root);

    // Span metrics, coverage and overhead.
    let spans = tracer.spans();
    let by_name = trace::median_self_us(spans);
    for (metric, span) in [
        ("wire.req_decode_us", "wire.decode_request"),
        ("wire.resp_encode_us", "wire.encode_response"),
        ("sql.parse_select_us", "sql.parse_select"),
        ("sql.parse_annotate_us", "sql.parse_annotate"),
        ("plan.plan_us", "plan.plan_select"),
        ("zoomin.register_us", "zoomin.register"),
        ("shard.prepare_us", "shard.prepare"),
        ("shard.apply_us_per_ann", "shard.apply"),
    ] {
        m.insert(metric, by_name.get(span).copied().unwrap_or(0.0));
    }
    // Coverage: per request, the time under the spans of the steps the
    // undecomposed call also takes, over that call's time on the same
    // statement; the lower of the reads' and the writes' median.
    let covered_s = |names: &[&str]| -> Vec<f64> {
        let mut by_request: BTreeMap<u32, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| names.contains(&s.name)) {
            *by_request.entry(s.request).or_default() += (s.end_ns - s.start_ns) as f64 / 1e9;
        }
        by_request.into_values().collect()
    };
    let read_cover = median_ratio(
        &covered_s(&[
            "sql.parse_select",
            "plan.plan_select",
            "exec.execute",
            "zoomin.register",
            "exec.drop_result",
        ]),
        &r.whole,
    );
    let write_cover = median_ratio(
        &covered_s(&[
            "sql.parse_annotate",
            "shard.prepare",
            "shard.apply",
            "wal.sync",
        ]),
        &w.whole,
    );
    let coverage = 100.0 * read_cover.min(write_cover);
    m.insert("gen.trace_coverage_pct", coverage);
    println!(
        "# spans cover {:.1} % of the undecomposed reads and {:.1} % of the undecomposed writes",
        100.0 * read_cover,
        100.0 * write_cover
    );
    // Flagged, not failed: coverage is a ratio of timings, and a stall of
    // the host during one variant must not turn a run with correct outputs
    // into a failed one. The value is a metric of the traced run either way.
    if coverage < 90.0 {
        println!("LOW COVERAGE: spans cover only {coverage:.1} % of the undecomposed calls");
    }
    let on: Vec<f64> = r.on.iter().chain(&w.on).copied().collect();
    let off: Vec<f64> = r.off.iter().chain(&w.off).copied().collect();
    m.insert(
        "gen.trace_overhead_pct",
        100.0 * (median_ratio(&on, &off) - 1.0),
    );
    let write_steps_us: f64 = [
        "wire.decode_request",
        "sql.parse_annotate",
        "shard.prepare",
        "shard.apply",
        "wal.sync",
    ]
    .iter()
    .map(|name| by_name.get(name).copied().unwrap_or(0.0))
    .sum();

    let point_reads: Vec<String> = (0..TRACED_PER_CLASS)
        .map(|_| birds.point(&mut rng))
        .collect();
    served_probes(
        sdb,
        &served_root,
        &point_reads,
        served_writes,
        write_steps_us,
        &mut m,
        checks,
    );

    let trace_path = ctx.scratch.join("trace.jsonl");
    tracer.write_jsonl(&trace_path).expect("write trace.jsonl");
    println!(
        "# {} spans of {} requests written to {}",
        spans.len(),
        reads.len() + w.on.len(),
        trace_path.display()
    );
    m
}
