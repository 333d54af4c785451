//! Shard-per-core engine: N [`Database`] shards behind one router.
//!
//! The single-database engine funnels every write through one
//! `RwLock<Database>` and one WAL, so adding writers past a point *costs*
//! throughput — they serialize on the lock and on one fsync pipeline.
//! [`ShardedDatabase`] partitions that ceiling away (DESIGN.md §12):
//!
//! - **Routing.** Annotations and their summary objects are partitioned
//!   by `hash(table, row_id) % N` ([`shard_of`]); the catalog, table
//!   rows, and summary-instance definitions are *replicated* on every
//!   shard so each shard can plan, resolve predicates, and render tuple
//!   context locally. A single-row annotation therefore touches exactly
//!   one shard: its lock, its WAL segment, its committer.
//! - **Identity.** Annotation ids and logical-clock ticks are allocated
//!   once at the router (one tiny mutex, held for nanoseconds) and
//!   carried into shards as [`StampedRowAnnotation`]s, so the global
//!   id/tick sequence stays monotone exactly as a serial run's would.
//!   A multi-row annotation is stored whole (full target list, same id
//!   and tick) on every shard owning at least one of its rows; reads
//!   always route a row to its owner, so the replicas never conflict.
//!   If one owner fails after another already committed, the committed
//!   owners get a best-effort compensating delete
//!   ([`ShardedDatabase::compensate_partial`]) so the reported failure
//!   converges back to "not written". `DELETE ANNOTATION` likewise
//!   routes to the id's owner shards — never broadcast, since
//!   non-owners don't hold the id and a broadcast would fork the
//!   replicas' statement streams. Lifecycle statements (`RETRACT` /
//!   `CORRECT` / `FLAG ANNOTATION`) route the same way; their ticks (and
//!   a correction's successor id) are allocated once at the router and
//!   carried to every owner as an internal `AT …` / `WITH ID … AT …`
//!   stamp, and recovery runs a cross-shard membership sweep
//!   ([`reconcile_membership`]) that converges any annotation a crash
//!   left partially committed.
//! - **Lock ordering.** Replicated writes (DDL, INSERT, DELETE)
//!   broadcast to all shards in fixed order `0..N` under one broadcast
//!   mutex; sessions that prepare annotations take all shard read locks
//!   in the same fixed order and drop them before touching any write
//!   lock. Writers never hold two shard write locks at once. No cycle,
//!   no deadlock.
//! - **Durability.** Each shard keeps its own WAL segment under
//!   `wal/shard-<k>/` and checkpoints its own snapshot (`<path>.shard<k>`)
//!   with its own epoch. A manifest in the WAL base directory — and a
//!   sibling `<path>.manifest` next to every snapshot set, for
//!   snapshot-only deployments with no WAL directory — records the
//!   shard count and epoch vector; recovering with a different shard
//!   count (or against a pre-manifest single-file layout) is a detected,
//!   classified error — never silent corruption.
//!
//! One shard is the degenerate case of the same path, not a separate
//! engine: the router, the manifest layout (`<wal_dir>/MANIFEST`,
//! `<wal_dir>/shard-0/`, `<path>.shard0`, `<path>.manifest`) and the
//! script rule of [`ShardedDatabase::execute_sql`] apply at every N ≥ 1.

use crate::cache::DiskCache;
use crate::db::{
    resolve_annotation_targets, Database, DbConfig, ExecOutcome, QueryResult, RecoveryReport,
    RowAnnotation, SqlStatement, StampedRowAnnotation, ZoomInResult, ZoomedAnnotation,
};
use crate::exec::{Executor, ObjectSource};
use crate::plan::{estimate_cost, Planner};
use crate::zoomin::ZoomRegistry;
use insightnotes_annotations::{AnnotationBody, Target};
use insightnotes_common::{AnnotationId, Error, IdSet, InstanceId, Qid, Result, RowId, TableId};
use insightnotes_sql::{
    parse, parse_one, Expr, SelectStmt, Statement, StatementClass, ZoomComponent, ZoomInStmt,
};
use insightnotes_summaries::{SharedObject, SummaryRegistry};
use parking_lot::witness::class as lock_class;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ROUTER_COUNTER: AtomicU64 = AtomicU64::new(0);

/// File name of the shard manifest, kept in the WAL base directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Hash-routes `(table, row)` to its owning shard. Deterministic across
/// runs and platforms (splitmix64 finalizer over the raw ids), so a
/// recovered database routes every row exactly as the crashed one did.
pub fn shard_of(table: TableId, row: RowId, shards: usize) -> usize {
    let mut x = (table.raw() as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(row.raw());
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards.max(1) as u64) as usize
}

/// The router's id/tick allocator: annotation ids and clock ticks are
/// handed out together under one lock so the global `(id, created)`
/// sequence stays monotone exactly as serial execution's would.
#[derive(Debug)]
struct StampAlloc {
    next_id: u64,
    clock: u64,
}

impl StampAlloc {
    /// Consumes one id and one tick.
    fn stamp(&mut self) -> (u64, u64) {
        self.next_id += 1;
        (self.next_id, self.tick())
    }

    /// Consumes one tick (a retraction's or flag's event time).
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// Cross-shard state: the allocator, the QID registry and the
/// broadcast order every shard count shares.
#[derive(Debug)]
struct RouterState {
    alloc: Mutex<StampAlloc>,
    /// Router-level QID registry and zoom-in result cache: fan-out
    /// queries register here, not in any shard's session registry.
    zoom: Mutex<ZoomRegistry>,
    /// Sum of the shards' [`Database::removals`] when the router last
    /// checked: once it moves, cached zoom-in rows may embed removed
    /// annotations and are dropped.
    removals_seen: AtomicU64,
    /// Serializes replicated-write broadcasts. Two concurrent broadcasts
    /// interleaving their per-shard lock acquisitions would apply in
    /// different orders on different shards and diverge the replicas;
    /// holding this across the whole `0..N` sweep makes broadcasts
    /// totally ordered.
    broadcast: Mutex<()>,
    /// Rotates which shard's guard single-guard prepares pin. Catalog
    /// and rows are replicated, so any shard serves; always picking
    /// shard 0 would convoy every preparing session behind shard 0's
    /// committer while the other shards' guards sit uncontended.
    prepare_rr: AtomicU64,
    parallelism: Option<usize>,
    wal_base: Option<PathBuf>,
}

/// A prepared annotation: resolved targets, router-allocated stamp, and
/// the (sorted, deduplicated) shards that own at least one target row.
#[derive(Debug, Clone)]
pub struct RoutedAnnotation {
    /// The stamped item every owner shard stores verbatim.
    pub stamped: StampedRowAnnotation,
    /// Owner shard indices, ascending.
    pub shards: Vec<usize>,
}

/// One shard's recovery outcome.
#[derive(Debug, Clone)]
pub struct ShardRecovery {
    /// The shard's checkpoint epoch after recovery.
    pub epoch: u64,
    /// What the shard's recovery found and did.
    pub report: RecoveryReport,
}

/// What [`ShardedDatabase::recover`] found and did, per shard.
#[derive(Debug, Clone)]
pub struct ShardedRecoveryReport {
    /// Per-shard outcomes, indexed by shard.
    pub shards: Vec<ShardRecovery>,
    /// Annotations repaired by the cross-shard membership sweep: a
    /// multi-owner annotation that a crash left committed on some owner
    /// shards but missing (or already tombstoned) on another — the
    /// DESIGN.md §12 residual window — is converged at recovery instead
    /// of resurfacing partially attached.
    pub reconciled: usize,
}

impl ShardedRecoveryReport {
    /// Total WAL records replayed across all shards.
    pub fn records_replayed(&self) -> usize {
        self.shards.iter().map(|s| s.report.records_replayed).sum()
    }

    /// Whether any shard loaded a snapshot or replayed log records.
    pub fn did_work(&self) -> bool {
        self.shards
            .iter()
            .any(|s| s.report.snapshot_loaded || s.report.records_replayed > 0)
    }
}

/// Reads each row's summary objects from the owning shard's registry.
/// Built over the full fixed-order set of shard read guards (or their
/// `AS OF` reconstructions); the executor's morsel workers call it
/// concurrently.
struct ShardObjects<'a> {
    regs: Vec<&'a SummaryRegistry>,
}

impl<'a> ShardObjects<'a> {
    fn new(guards: &'a [RwLockReadGuard<'a, Database>]) -> Self {
        Self {
            regs: guards.iter().map(|g| g.registry()).collect(),
        }
    }
}

impl ObjectSource for ShardObjects<'_> {
    fn objects_on(&self, table: TableId, row: RowId) -> &[(InstanceId, SharedObject)] {
        self.regs[shard_of(table, row, self.regs.len())].objects_on(table, row)
    }
}

/// N [`Database`] shards behind hash routing. See the module docs for
/// the partitioning, identity, lock-ordering, and durability rules.
#[derive(Debug)]
pub struct ShardedDatabase {
    shards: Vec<Arc<RwLock<Database>>>,
    router: RouterState,
}

impl ShardedDatabase {
    /// Creates a fresh database of `shards` shards (at least one). The
    /// manifest is written (durably) *before* any shard WAL is created,
    /// so a crash mid-construction leaves a layout recovery can
    /// classify.
    pub fn create(config: DbConfig, shards: usize) -> Result<Self> {
        let n = shards.max(1);
        if let Some(base) = &config.wal_dir {
            check_layout(base, n)?;
            write_manifest(base, n, &vec![0; n])?;
        }
        let dbs = (0..n)
            .map(|k| Database::with_config(shard_config(&config, k)))
            .collect::<Result<_>>()?;
        Self::from_shards(&config, dbs)
    }

    /// Assembles the router over shard databases — the last step of
    /// [`ShardedDatabase::create`] and [`ShardedDatabase::recover`], and
    /// the replica path: the replication subsystem recovers each shard
    /// from its mirrored log segment and hands the set here for read
    /// serving. The id/tick allocator resumes past the maximum any shard
    /// has seen.
    pub fn from_shards(config: &DbConfig, dbs: Vec<Database>) -> Result<Self> {
        if dbs.is_empty() {
            return Err(Error::Execution(
                "cannot assemble a sharded database over zero shards".into(),
            ));
        }
        let router = build_router(config, &dbs)?;
        let shards = dbs
            .into_iter()
            .enumerate()
            .map(|(k, d)| Arc::new(RwLock::new(d).with_class_indexed(lock_class::SHARD, k as u32)))
            .collect();
        Ok(Self { shards, router })
    }

    /// Opens a database with full crash recovery: each shard
    /// independently sweeps, loads its snapshot (`<path>.shard<k>`),
    /// and replays its own WAL segment. Layout mismatches — a
    /// pre-manifest single-file WAL or snapshot, a manifest whose shard
    /// count differs from `shards`, shard files without a manifest — are
    /// classified errors.
    pub fn recover(
        snapshot: Option<&Path>,
        config: DbConfig,
        shards: usize,
    ) -> Result<(Self, ShardedRecoveryReport)> {
        let n = shards.max(1);
        if let Some(path) = snapshot {
            check_snapshot_layout(path, n, config.wal_dir.is_some())?;
        }
        if let Some(base) = &config.wal_dir {
            check_layout(base, n)?;
            if read_manifest(base)?.is_none() {
                write_manifest(base, n, &vec![0; n])?;
            }
        }
        let mut dbs = Vec::with_capacity(n);
        let mut reports = Vec::with_capacity(n);
        for k in 0..n {
            let snap_k = snapshot.map(|p| shard_snapshot_path(p, k));
            let (db, report) = Database::recover(snap_k.as_deref(), shard_config(&config, k))?;
            reports.push(ShardRecovery {
                epoch: db.epoch(),
                report,
            });
            dbs.push(db);
        }
        // Cross-shard membership reconciliation (closes the DESIGN.md
        // §12 residual): a crash between a multi-owner commit and its
        // compensating deletes leaves the annotation durably stored on
        // some owner shards and absent from others — recovery would
        // resurrect it partially attached. Sweep before the router is
        // built, while the shard set is still private to this thread.
        let reconciled = reconcile_membership(&mut dbs)?;
        Ok((
            Self::from_shards(&config, dbs)?,
            ShardedRecoveryReport {
                shards: reports,
                reconciled,
            },
        ))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Direct handle to one shard. The server's per-shard committers
    /// hold these.
    pub fn shard(&self, k: usize) -> &Arc<RwLock<Database>> {
        &self.shards[k]
    }

    /// The owning shard of `(table, row)`.
    pub fn owner(&self, table: TableId, row: RowId) -> usize {
        shard_of(table, row, self.shards.len())
    }

    /// Fixed-order read guards over every shard.
    fn read_all(&self) -> Vec<RwLockReadGuard<'_, Database>> {
        self.shards.iter().map(|s| s.read()).collect() // lint: lock-class(shard)
    }

    // -- statement execution ----------------------------------------------

    /// Parses and executes a script:
    ///
    /// - all Read-class → per-statement fan-out read path;
    /// - writes, none of them touching the *partitioned* annotation
    ///   store → the whole script broadcasts to every shard in fixed
    ///   order under the broadcast mutex (every shard executes it,
    ///   shard 0's outcomes are returned — replicas apply the identical
    ///   statement stream even when a statement fails);
    /// - annotation statements (`ADD` / `DELETE` / `RETRACT` / `CORRECT`
    ///   / `FLAG ANNOTATION`), optionally with reads between them → each
    ///   routes to its owner shards in order, stopping at the first
    ///   failure exactly as serial execution would;
    /// - annotation statements mixed with replicated writes → a
    ///   classified error, at every shard count. The two routes cannot
    ///   interleave: a partitioned statement succeeds only on the shards
    ///   that own its rows, so broadcasting it would fail on the others,
    ///   and [`Database::execute_sql`]'s stop-at-first-failure would then
    ///   apply the rest of the script to a different set of shards —
    ///   permanently forking the replicated state.
    pub fn execute_sql(&self, sql: &str) -> Result<Vec<ExecOutcome>> {
        let stmts = parse(sql)?;
        if stmts.iter().all(|s| s.class() == StatementClass::Read) {
            return stmts.into_iter().map(|s| self.execute_read(s)).collect();
        }
        let partitioned = |s: &Statement| {
            matches!(
                s,
                Statement::AddAnnotation { .. }
                    | Statement::DeleteAnnotation { .. }
                    | Statement::RetractAnnotation { .. }
                    | Statement::CorrectAnnotation { .. }
                    | Statement::FlagAnnotation { .. }
            )
        };
        if !stmts.iter().any(partitioned) {
            return self.broadcast_script(sql);
        }
        if stmts
            .iter()
            .any(|s| s.class() == StatementClass::Write && !partitioned(s))
        {
            return Err(Error::Execution(
                "a script cannot mix annotation statements (ADD / DELETE / RETRACT / \
                 CORRECT / FLAG ANNOTATION) with other writes; submit annotation \
                 writes separately"
                    .into(),
            ));
        }
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(match stmt {
                Statement::DeleteAnnotation { id } => {
                    self.delete_annotation(AnnotationId::new(id))?
                }
                Statement::RetractAnnotation { id, at } => {
                    self.retract_routed(AnnotationId::new(id), at)?
                }
                Statement::CorrectAnnotation {
                    id,
                    text,
                    document,
                    author,
                    stamp,
                } => self.correct_annotation_routed(
                    AnnotationId::new(id),
                    text,
                    document,
                    author,
                    stamp,
                )?,
                Statement::FlagAnnotation { id, note, at } => {
                    self.flag_routed(AnnotationId::new(id), note, at)?
                }
                add @ Statement::AddAnnotation { .. } => {
                    let prepared = self.prepare(&[&add]);
                    self.apply_prepared(prepared).pop().unwrap_or_else(|| {
                        Err(Error::Execution("batch of one returned no result".into()))
                    })?
                }
                read => self.execute_read(read)?,
            });
        }
        Ok(out)
    }

    /// Executes one Read-class statement (SELECT / ZOOMIN / EXPLAIN /
    /// HISTORY).
    pub fn execute_read(&self, stmt: Statement) -> Result<ExecOutcome> {
        match stmt {
            Statement::Select(sel) => Ok(ExecOutcome::Query(self.run_select_routed(&sel)?)),
            Statement::ZoomIn(z) => Ok(ExecOutcome::ZoomIn(self.zoom_in(&z)?)),
            Statement::Explain(sel) => {
                let g = self.shards[0].read();
                let plan = Planner::new(g.catalog(), g.registry()).plan_select(&sel)?;
                Ok(ExecOutcome::Explain(plan.explain()))
            }
            // Lifecycle statements route to every owner shard, so each
            // owner holds the full identical timeline; the first shard
            // with any version (live or tombstone) answers.
            Statement::HistoryAnnotation { id } => {
                let aid = AnnotationId::new(id);
                let guards = self.read_all();
                for g in &guards {
                    if let Ok(events) = g.store().history(aid) {
                        return Ok(ExecOutcome::History {
                            annotation: aid,
                            events,
                        });
                    }
                }
                Err(Error::Annotation(format!("unknown annotation {aid}")))
            }
            _ => Err(Error::Execution(
                "write-class statement requires exclusive database access".into(),
            )),
        }
    }

    /// Convenience: executes a single SELECT.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        match parse_one(sql)? {
            Statement::Select(sel) => self.run_select_routed(&sel),
            other => Err(Error::Parse(format!(
                "expected a SELECT statement, found {other:?}"
            ))),
        }
    }

    /// Broadcasts a replicated-write script to every shard in fixed
    /// order under the broadcast mutex; returns shard 0's outcomes.
    fn broadcast_script(&self, sql: &str) -> Result<Vec<ExecOutcome>> {
        let _total_order = self.router.broadcast.lock();
        let mut first: Option<Result<Vec<ExecOutcome>>> = None;
        for shard in &self.shards {
            let res = shard.write().execute_sql(sql);
            if first.is_none() {
                first = Some(res);
            }
        }
        first.ok_or_else(|| Error::Execution("broadcast over an empty shard set".into()))?
    }

    // -- annotation ingestion ---------------------------------------------

    /// Runs `op` on each listed shard under that shard's write lock, in
    /// order. Every shard is attempted (replica convergence before error
    /// reporting). Returns the first shard's outcome — each owner stores
    /// the full target list, so summing per-shard counts would
    /// double-count — or any shard's failure, plus the shards on which
    /// `op` succeeded.
    fn on_shards(
        &self,
        shards: &[usize],
        op: impl Fn(&mut Database) -> Result<ExecOutcome>,
    ) -> (Result<ExecOutcome>, Vec<usize>) {
        let mut first: Option<ExecOutcome> = None;
        let mut failure: Option<Error> = None;
        let mut ok_shards = Vec::with_capacity(shards.len());
        for &k in shards {
            match op(&mut self.shards[k].write()) {
                Ok(outcome) => {
                    ok_shards.push(k);
                    first.get_or_insert(outcome);
                }
                Err(e) => failure = Some(e),
            }
        }
        let result = match failure {
            Some(e) => Err(e),
            None => first.ok_or_else(|| {
                Error::Annotation("annotation resolved to zero owner shards".into())
            }),
        };
        (result, ok_shards)
    }

    /// Deletes one annotation through the router. The annotation store
    /// is *partitioned*, so the id lives only on its owner shards; the
    /// deletion routes to the shards actually holding a replica rather
    /// than broadcasting (a non-owner would fail with "unknown
    /// annotation" while the owners deleted — forking both the client's
    /// view of the outcome and, inside a script, the replicated
    /// statement stream). Owners are discovered under the read guards,
    /// which are dropped before any write lock — the same prepare/apply
    /// split every annotation write follows.
    pub fn delete_annotation(&self, id: AnnotationId) -> Result<ExecOutcome> {
        let owners: Vec<usize> = {
            let guards = self.read_all();
            guards
                .iter()
                .enumerate()
                .filter(|(_, g)| g.store().get(id).is_ok())
                .map(|(k, _)| k)
                .collect()
        };
        if owners.is_empty() {
            return Err(Error::Annotation(format!("unknown annotation {id}")));
        }
        self.on_shards(&owners, |db| db.delete_annotation(id)).0
    }

    /// Best-effort repair of a partially committed multi-owner
    /// annotation: deletes the replica from the owner shards that had
    /// already stored it after another owner failed, so the failure the
    /// client sees converges back to "not written" instead of leaving
    /// the annotation attached to some of its rows and missing from
    /// others. Each compensating delete is WAL-logged and synced on its
    /// shard like any other write. Best-effort by construction: if a
    /// compensating delete itself fails (or the process dies first),
    /// the surviving replicas resurface on recovery — the residual
    /// partial-commit window DESIGN.md §12 documents.
    pub fn compensate_partial(&self, id: AnnotationId, shards: &[usize]) {
        for &k in shards {
            let _ = self.shards[k].write().delete_annotation(id);
            let _ = self.shards[k].read().wal_sync();
        }
    }

    /// The shards holding *any* version of `id` — live or tombstoned —
    /// and whether any of them holds it live. Lifecycle statements
    /// discover owners through this wider probe so a retract of an
    /// already-retracted id reaches an owner shard and fails with its
    /// precise lifecycle status ("already retracted") instead of a
    /// misleading "unknown annotation".
    fn lifecycle_holders(&self, id: AnnotationId) -> (Vec<usize>, bool) {
        let guards = self.read_all();
        let holders = guards
            .iter()
            .enumerate()
            .filter(|(_, g)| g.store().get_any(id).is_ok())
            .map(|(k, _)| k)
            .collect();
        (holders, guards.iter().any(|g| g.store().is_live(id)))
    }

    /// Retracts one annotation through the router.
    pub fn retract_annotation(&self, id: AnnotationId) -> Result<ExecOutcome> {
        self.retract_routed(id, None)
    }

    /// `RETRACT ANNOTATION` with a router-allocated tick (unless the
    /// statement already carried an internal `AT …` stamp): every owner
    /// shard tombstones its replica at the same tick and decrementally
    /// removes the summary contribution. The tick is consumed before
    /// validation — unknown ids included — exactly as serial retraction
    /// consumes it, so later creation ticks match a serial run's.
    fn retract_routed(&self, id: AnnotationId, at: Option<u64>) -> Result<ExecOutcome> {
        let at = at.unwrap_or_else(|| self.router.alloc.lock().tick());
        let (holders, _) = self.lifecycle_holders(id);
        if holders.is_empty() {
            return Err(Error::Annotation(format!("unknown annotation {id}")));
        }
        self.on_shards(&holders, |db| db.retract_annotation_at(id, Some(at)))
            .0
    }

    /// Flags one annotation through the router.
    pub fn flag_annotation(&self, id: AnnotationId, note: Option<String>) -> Result<ExecOutcome> {
        self.flag_routed(id, note, None)
    }

    /// `FLAG ANNOTATION` with a router-allocated tick (consumed before
    /// validation, as in [`ShardedDatabase::retract_annotation`]): every
    /// owner shard appends the same flag event to its replica's
    /// timeline, keeping the replicas' histories identical.
    fn flag_routed(
        &self,
        id: AnnotationId,
        note: Option<String>,
        at: Option<u64>,
    ) -> Result<ExecOutcome> {
        let at = at.unwrap_or_else(|| self.router.alloc.lock().tick());
        let (holders, _) = self.lifecycle_holders(id);
        if holders.is_empty() {
            return Err(Error::Annotation(format!("unknown annotation {id}")));
        }
        self.on_shards(&holders, |db| {
            db.flag_annotation_at(id, note.clone(), Some(at))
        })
        .0
    }

    /// Corrects one annotation through the router.
    pub fn correct_annotation(
        &self,
        id: AnnotationId,
        text: String,
        document: Option<String>,
        author: Option<String>,
    ) -> Result<ExecOutcome> {
        self.correct_annotation_routed(id, text, document, author, None)
    }

    /// `CORRECT ANNOTATION` with router-level successor identity: the
    /// successor's `(id, tick)` is allocated **once** from the router's
    /// stamp allocator (unless the statement already carried an internal
    /// `WITH ID … AT …` stamp — the replicated-replay path) and handed
    /// to every owner shard, so all replicas commit a byte-identical
    /// replacement under one global identity. A tombstoned predecessor
    /// fails before any identity is allocated, as in serial execution.
    /// On a partial failure the successor replicas that did commit get a
    /// best-effort compensating delete; a predecessor left tombstoned on
    /// some owners and live on the failed one is the same residual
    /// window as a partial multi-owner commit (DESIGN.md §12) and is
    /// reconciled by the recovery-time membership sweep.
    fn correct_annotation_routed(
        &self,
        id: AnnotationId,
        text: String,
        document: Option<String>,
        author: Option<String>,
        stamp: Option<(u64, u64)>,
    ) -> Result<ExecOutcome> {
        let (holders, live) = self.lifecycle_holders(id);
        let Some(&first) = holders.first() else {
            return Err(Error::Annotation(format!("unknown annotation {id}")));
        };
        if !live {
            let status = self.shards[first].read().store().status(id)?;
            return Err(Error::Annotation(format!(
                "annotation {id} is already {status}"
            )));
        }
        let stamp = stamp.unwrap_or_else(|| self.router.alloc.lock().stamp());
        let (result, ok_shards) = self.on_shards(&holders, |db| {
            db.correct_annotation_stamped(id, text.clone(), document.clone(), author.clone(), stamp)
        });
        if result.is_err() {
            // Converge the successor back to "not written" on the
            // owners that already committed it.
            self.compensate_partial(AnnotationId::new(stamp.0), &ok_shards);
        }
        result
    }

    /// Resolves and stamps a batch of `ADD ANNOTATION` statements under
    /// **one** acquisition of the shard read guards — the sharded
    /// equivalent of [`Database::annotate_batch_sql`]'s staging pass,
    /// with identical per-item failure semantics (a failing item
    /// consumes no id and no tick; `WHERE` predicates over summary
    /// components observe the summary state as of batch start). The
    /// server's sessions call this, then hand each owner shard's slice
    /// to that shard's committer queue.
    pub fn prepare_sql_annotations(&self, stmts: &[SqlStatement]) -> Vec<Result<RoutedAnnotation>> {
        let stmts: Vec<&Statement> = stmts.iter().map(|s| &s.stmt).collect();
        self.prepare(&stmts)
    }

    /// [`ShardedDatabase::prepare_sql_annotations`] over parsed
    /// statements.
    fn prepare(&self, stmts: &[&Statement]) -> Vec<Result<RoutedAnnotation>> {
        let mut out: Vec<Option<Result<RoutedAnnotation>>> = Vec::new();
        out.resize_with(stmts.len(), || None);
        let mut resolved: Vec<(usize, RowAnnotation, Vec<usize>)> = Vec::new();
        {
            // Table rows are replicated on every shard, so plain-column
            // predicates resolve under a single shard's guard — rotated
            // round-robin so concurrent prepares spread across shards
            // instead of convoying behind one committer. Only
            // `SUMMARY_COUNT` predicates read the *partitioned* summary
            // objects and need the full-shard read set — which convoys
            // behind every shard's committer, so high-writer-count
            // pipelines must stay off it in the common case.
            let guards = if stmts.iter().any(|s| match s {
                Statement::AddAnnotation {
                    where_clause: Some(w),
                    ..
                } => reads_summaries(w),
                _ => false,
            }) {
                self.read_all()
            } else {
                let k = self.router.prepare_rr.fetch_add(1, Ordering::Relaxed) as usize
                    % self.shards.len();
                vec![self.shards[k].read()]
            };
            let objects = ShardObjects::new(&guards);
            let shard0 = &*guards[0];
            for (i, s) in stmts.iter().enumerate() {
                let Statement::AddAnnotation {
                    text,
                    document,
                    author,
                    table,
                    columns,
                    where_clause,
                } = s
                else {
                    out[i] = Some(Err(Error::Execution(
                        "annotation batches accept only ADD ANNOTATION statements".into(),
                    )));
                    continue;
                };
                match resolve_annotation_targets(
                    shard0.catalog(),
                    shard0.registry(),
                    &objects,
                    table,
                    columns,
                    where_clause.clone(),
                ) {
                    Ok((tid, cols, rows)) => {
                        let owners = owner_set(tid, &rows, self.shards.len());
                        let mut body = AnnotationBody::text(
                            text.clone(),
                            author.clone().unwrap_or_else(|| "anonymous".into()),
                        );
                        if let Some(doc) = document {
                            body = body.with_document(doc.clone());
                        }
                        resolved.push((
                            i,
                            RowAnnotation {
                                table: table.clone(),
                                rows,
                                cols,
                                body,
                            },
                            owners,
                        ));
                    }
                    Err(e) => out[i] = Some(Err(e)),
                }
            }
        }
        // Stamp the whole batch under one allocator lock: ids and ticks
        // come out contiguous and in batch order, as serial staging's
        // would.
        let mut alloc = self.router.alloc.lock();
        for (i, item, owners) in resolved {
            let (id, tick) = alloc.stamp();
            out[i] = Some(Ok(RoutedAnnotation {
                stamped: StampedRowAnnotation { id, tick, item },
                shards: owners,
            }));
        }
        out.into_iter()
            .map(|r| {
                r.unwrap_or_else(|| Err(Error::Execution("batch item left unresolved".into())))
            })
            .collect()
    }

    /// Applies a prepared batch: groups items per owner shard and
    /// executes each shard's slice as one stamped batch under that
    /// shard's write lock (one WAL record, one amortized maintenance
    /// pass per shard). Multi-owner items report their first shard's
    /// outcome, or any shard's failure — after the owners that did
    /// store the replica are given a best-effort compensating delete
    /// ([`ShardedDatabase::compensate_partial`]).
    pub fn apply_prepared(
        &self,
        prepared: Vec<Result<RoutedAnnotation>>,
    ) -> Vec<Result<ExecOutcome>> {
        let mut results: Vec<Option<Result<ExecOutcome>>> = Vec::new();
        results.resize_with(prepared.len(), || None);
        let mut ids: Vec<Option<AnnotationId>> = vec![None; results.len()];
        let mut ok_shards: Vec<Vec<usize>> = vec![Vec::new(); results.len()];
        let mut per_shard: BTreeMap<usize, Vec<(usize, StampedRowAnnotation)>> = BTreeMap::new();
        for (i, p) in prepared.into_iter().enumerate() {
            match p {
                Err(e) => results[i] = Some(Err(e)),
                Ok(routed) => {
                    ids[i] = Some(AnnotationId::new(routed.stamped.id));
                    // Every owner but the last gets a copy; the last
                    // takes the item itself.
                    if let Some((&last, rest)) = routed.shards.split_last() {
                        for &k in rest {
                            per_shard
                                .entry(k)
                                .or_default()
                                .push((i, routed.stamped.clone()));
                        }
                        per_shard.entry(last).or_default().push((i, routed.stamped));
                    }
                }
            }
        }
        for (k, items) in per_shard {
            let indices: Vec<usize> = items.iter().map(|&(i, _)| i).collect();
            let batch: Vec<StampedRowAnnotation> = items.into_iter().map(|(_, s)| s).collect();
            let shard_results = self.shards[k].write().annotate_rows_batch_stamped(batch);
            for (i, res) in indices.into_iter().zip(shard_results) {
                if res.is_ok() {
                    ok_shards[i].push(k);
                }
                let keep_existing = matches!(results[i], Some(Err(_)));
                match res {
                    Err(e) if !keep_existing => results[i] = Some(Err(e)),
                    Ok(outcome) if results[i].is_none() => results[i] = Some(Ok(outcome)),
                    _ => {}
                }
            }
        }
        // A multi-owner item that failed on one owner but stored on
        // another is repaired before its error is reported.
        for (i, result) in results.iter().enumerate() {
            if matches!(result, Some(Err(_))) && !ok_shards[i].is_empty() {
                if let Some(id) = ids[i] {
                    self.compensate_partial(id, &ok_shards[i]);
                }
            }
        }
        results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| Err(Error::Execution("batch item left unresolved".into())))
            })
            .collect()
    }

    /// Sharded [`Database::annotate_batch_sql`]: every item gets its
    /// own result; a failing item does not abort the rest.
    pub fn annotate_batch_sql(&self, stmts: Vec<SqlStatement>) -> Vec<Result<ExecOutcome>> {
        let prepared = self.prepare_sql_annotations(&stmts);
        self.apply_prepared(prepared)
    }

    /// Sharded [`Database::annotate_rows_batch`]: typed batch ingestion
    /// with serial-equivalent stamp consumption — an unknown table
    /// consumes nothing; an empty target list (or empty column
    /// signature) consumes its tick but no id, exactly as serial
    /// staging does.
    pub fn annotate_rows_batch(&self, items: Vec<RowAnnotation>) -> Vec<Result<AnnotationId>> {
        let mut prepared: Vec<Result<RoutedAnnotation>> = Vec::with_capacity(items.len());
        {
            let shard0 = self.shards[0].read();
            let mut alloc = self.router.alloc.lock();
            for item in items {
                let tid = match shard0.catalog().table_id(&item.table) {
                    Ok(t) => t,
                    Err(e) => {
                        prepared.push(Err(e));
                        continue;
                    }
                };
                if item.rows.is_empty() {
                    alloc.tick();
                    prepared.push(Err(Error::Annotation(
                        "annotation must have at least one target".into(),
                    )));
                    continue;
                }
                if item.cols.is_empty() {
                    alloc.tick();
                    prepared.push(Err(Error::Annotation(
                        "annotation target must cover at least one column".into(),
                    )));
                    continue;
                }
                let owners = owner_set(tid, &item.rows, self.shards.len());
                let (id, tick) = alloc.stamp();
                prepared.push(Ok(RoutedAnnotation {
                    stamped: StampedRowAnnotation { id, tick, item },
                    shards: owners,
                }));
            }
        }
        self.apply_prepared(prepared)
            .into_iter()
            .map(|r| {
                r.map(|o| match o {
                    ExecOutcome::Annotated { annotation, .. } => annotation,
                    _ => unreachable!("stamped items produce Annotated outcomes"),
                })
            })
            .collect()
    }

    // -- fan-out reads ----------------------------------------------------

    /// Plans on shard 0's (replicated) catalog, executes through the
    /// morsel executor with per-row summary objects read from each
    /// row's owning shard, and registers the result in the router's
    /// QID registry. `AS OF t` runs against every shard's summary
    /// registry rebuilt at tick `t` and, as on one database, is not
    /// registered for zoom-in (QID 0).
    fn run_select_routed(&self, sel: &SelectStmt) -> Result<QueryResult> {
        let guards = self.read_all();
        let shard0 = &*guards[0];
        if let Some(t) = sel.as_of {
            let past = guards
                .iter()
                .map(|g| g.registry_as_of(t))
                .collect::<Result<Vec<_>>>()?;
            let objects = ShardObjects {
                regs: past.iter().collect(),
            };
            let plan = Planner::new(shard0.catalog(), &past[0]).plan_select(sel)?;
            let rows = Executor::new(shard0.catalog(), &past[0])
                .with_objects(&objects)
                .execute(&plan)?;
            return Ok(QueryResult {
                qid: Qid::new(0),
                schema: plan.schema().clone(),
                rows,
            });
        }
        // Execute under the guards, register after dropping them: the
        // QID registry spills result rows to the disk cache, and doing
        // that file I/O while holding every shard's read guard would
        // stall all committers behind each scan's cache write.
        let (plan, complexity, rows) = {
            let objects = ShardObjects::new(&guards);
            let plan = Planner::new(shard0.catalog(), shard0.registry()).plan_select(sel)?;
            let complexity = estimate_cost(&plan, shard0.catalog()).cost;
            let mut executor = match self.router.parallelism {
                Some(threads) => {
                    Executor::with_parallelism(shard0.catalog(), shard0.registry(), threads)
                }
                None => Executor::new(shard0.catalog(), shard0.registry()),
            }
            .with_objects(&objects);
            let rows = executor.execute(&plan)?;
            (plan, complexity, rows)
        };
        drop(guards);
        let schema = plan.schema().clone();
        let qid = self
            .router
            .zoom
            .lock()
            .register(schema.clone(), plan, &rows, complexity)?;
        Ok(QueryResult { qid, schema, rows })
    }

    /// Sharded zoom-in: QID metadata and the result cache live at the
    /// router; raw annotation bodies are looked up on whichever shard
    /// owns (a row of) each annotation. Cache I/O — the disk probe, and
    /// the re-offer after a miss — runs with *no* shard guard held
    /// (the same execute-under-guards, file-I/O-after-drop split as
    /// [`ShardedDatabase::run_select_routed`]); only the miss path's
    /// plan re-execution takes the read guards.
    pub fn zoom_in(&self, stmt: &ZoomInStmt) -> Result<ZoomInResult> {
        let router = &self.router;
        let qid = Qid::new(stmt.qid);
        let info_schema = router.zoom.lock().info(qid)?.schema.clone();
        let (predicate, instance, component) = {
            let guards = self.read_all();
            // Cached rows embed summary objects by value, so once any
            // shard removed annotations or rows since they were cached,
            // serving them would resurrect what was removed.
            let removals: u64 = guards.iter().map(|g| g.removals()).sum();
            if router.removals_seen.swap(removals, Ordering::Relaxed) != removals {
                router.zoom.lock().invalidate_results();
            }
            let shard0 = &*guards[0];
            let planner = Planner::new(shard0.catalog(), shard0.registry());
            let predicate = stmt
                .where_clause
                .as_ref()
                .map(|w| planner.bind_expr(w, &info_schema))
                .transpose()?;
            let instance = shard0.registry().instance_id(&stmt.instance)?;
            let component = match &stmt.component {
                ZoomComponent::Index(i) => {
                    if *i == 0 {
                        return Err(Error::ZoomIn("component INDEX is 1-based".into()));
                    }
                    (*i - 1) as usize
                }
                ZoomComponent::Label(name) => match planner.resolve_component(instance, name)? {
                    crate::expr::ComponentSel::Label(i) | crate::expr::ComponentSel::Group(i) => i,
                },
            };
            (predicate, instance, component)
        };

        // Probe the cache under the zoom mutex alone (bound to a `let`
        // so the temporary lock guard drops before the match body — the
        // miss path re-locks the mutex to re-offer).
        let cached = router.zoom.lock().cached_rows(qid)?;
        let (rows, from_cache) = match cached {
            Some(rows) => (rows, true),
            None => {
                let plan = router.zoom.lock().info(qid)?.plan.clone();
                let rows = {
                    let guards = self.read_all();
                    let objects = ShardObjects::new(&guards);
                    let shard0 = &*guards[0];
                    Executor::new(shard0.catalog(), shard0.registry())
                        .with_objects(&objects)
                        .execute(&plan)?
                };
                router.zoom.lock().reoffer(qid, &rows)?;
                (rows, false)
            }
        };

        let guards = self.read_all();
        let mut ids = IdSet::new();
        let mut matched = 0usize;
        for r in &rows {
            let ok = match &predicate {
                Some(p) => p.satisfied(r)?,
                None => true,
            };
            if !ok {
                continue;
            }
            matched += 1;
            if let Some(obj) = r.summary(instance) {
                if component < obj.component_count() {
                    ids = ids.union(&obj.zoom_ids(component)?);
                }
            }
        }

        let mut annotations = Vec::with_capacity(ids.len());
        for id in ids.iter() {
            let aid = AnnotationId::new(id);
            let ann = guards
                .iter()
                .find_map(|g| g.store().get(aid).ok())
                .ok_or_else(|| Error::Annotation(format!("unknown annotation {aid}")))?;
            annotations.push(ZoomedAnnotation {
                id: aid,
                text: ann.body.text.clone(),
                document: ann.body.document.clone(),
                author: ann.body.author.clone(),
            });
        }
        Ok(ZoomInResult {
            annotations,
            from_cache,
            matched_rows: matched,
        })
    }

    // -- durability -------------------------------------------------------

    /// Whether writes are being logged (uniform across shards).
    pub fn wal_enabled(&self) -> bool {
        self.shards[0].read().wal_enabled()
    }

    /// Forces every shard's logged-but-buffered records to disk.
    pub fn wal_sync_all(&self) -> Result<()> {
        for shard in &self.shards {
            shard.read().wal_sync()?;
        }
        Ok(())
    }

    /// Checkpoints every shard in fixed order (`<path>.shard<k>`), then
    /// durably writes the sibling snapshot manifest (`<path>.manifest`)
    /// and, when a WAL directory exists, rewrites its manifest with the
    /// new epoch vector. A crash between per-shard checkpoints is safe:
    /// each shard's own snapshot/WAL epoch pair recovers independently,
    /// and the manifests' epoch vectors are advisory.
    pub fn checkpoint(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let mut epochs = Vec::with_capacity(self.shards.len());
        for (k, shard) in self.shards.iter().enumerate() {
            let mut guard = shard.write();
            guard.checkpoint(shard_snapshot_path(path, k))?;
            epochs.push(guard.epoch());
        }
        // The sibling manifest is written *after* every shard file: in
        // snapshot-only mode it is the commit point of the checkpoint
        // (recovery refuses shard files without one), so it must never
        // describe shard files that are not all on disk yet.
        write_manifest_file(&snapshot_manifest_path(path), self.shards.len(), &epochs)?;
        if let Some(base) = &self.router.wal_base {
            write_manifest(base, self.shards.len(), &epochs)?;
        }
        Ok(())
    }

    // -- statistics -------------------------------------------------------

    /// Total distinct live annotations across shards. A multi-row
    /// annotation replicated to several shards counts once — on the
    /// lowest shard that owns one of its rows.
    pub fn annotation_count(&self) -> usize {
        let n = self.shards.len();
        self.shards
            .iter()
            .enumerate()
            .map(|(k, shard)| {
                let guard = shard.read();
                guard
                    .store()
                    .live()
                    .filter(|(_, ann)| {
                        ann.targets
                            .iter()
                            .map(|t| shard_of(t.table, t.row, n))
                            .min()
                            == Some(k)
                    })
                    .count()
            })
            .sum()
    }
}

/// Recovery-time cross-shard membership sweep (the DESIGN.md §12
/// repair): recomputes every live multi-owner annotation's owner set
/// from its stored targets and converges any annotation a crash left on
/// only part of that set. Annotations whose targets all hash to one
/// shard cannot be partially committed and are skipped without
/// allocating. A missing owner that still holds a *tombstone* of the id
/// means a lifecycle statement (retract / correct) was mid-flight when
/// the crash hit — the surviving live replicas are retracted to complete
/// it, preserving their timelines. A missing owner with no record at all
/// means the original multi-owner commit never finished — the committed
/// replicas are deleted, so the failure the client saw converges back to
/// "not written" instead of resurrecting partially attached. Every
/// repair is WAL-logged and synced on its shard like any other write,
/// in ascending id order.
fn reconcile_membership(dbs: &mut [Database]) -> Result<usize> {
    let n = dbs.len();
    // id → (owner shards, shards holding it live)
    let mut multi: BTreeMap<AnnotationId, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (k, db) in dbs.iter().enumerate() {
        for (id, ann) in db.store().live() {
            if !spans_shards(&ann.targets, n) {
                continue;
            }
            multi
                .entry(id)
                .or_insert_with(|| {
                    let mut owners: Vec<usize> = ann
                        .targets
                        .iter()
                        .map(|t| shard_of(t.table, t.row, n))
                        .collect();
                    owners.sort_unstable();
                    owners.dedup();
                    (owners, Vec::new())
                })
                .1
                .push(k);
        }
    }
    let mut repaired = 0usize;
    for (id, (owners, holders)) in multi {
        let missing: Vec<usize> = owners
            .into_iter()
            .filter(|k| !holders.contains(k))
            .collect();
        if missing.is_empty() {
            continue;
        }
        let lifecycle_progressed = missing
            .iter()
            .any(|&k| dbs.get(k).is_some_and(|db| db.store().get_any(id).is_ok()));
        for k in holders {
            let Some(db) = dbs.get_mut(k) else {
                continue;
            };
            if lifecycle_progressed {
                db.retract_annotation(id)?;
            } else {
                db.delete_annotation(id)?;
            }
            db.wal_sync()?;
        }
        repaired += 1;
    }
    Ok(repaired)
}

/// Whether a target list's rows hash to more than one shard.
fn spans_shards(targets: &[Target], shards: usize) -> bool {
    let mut owners = targets.iter().map(|t| shard_of(t.table, t.row, shards));
    let first = owners.next();
    owners.any(|k| Some(k) != first)
}

/// Sorted, deduplicated owner shards of a target row set.
fn owner_set(table: TableId, rows: &[RowId], shards: usize) -> Vec<usize> {
    let mut owners: Vec<usize> = rows.iter().map(|&r| shard_of(table, r, shards)).collect();
    owners.sort_unstable();
    owners.dedup();
    owners
}

/// Per-shard construction config: WAL segment under
/// `<base>/shard-<k>/`, zoom cache under a per-shard subdirectory (a
/// fresh temp dir per shard when unset).
fn shard_config(base: &DbConfig, k: usize) -> DbConfig {
    let mut config = base.clone();
    config.wal_dir = base.wal_dir.as_ref().map(|d| d.join(format!("shard-{k}")));
    config.cache_dir = base
        .cache_dir
        .as_ref()
        .map(|d| d.join(format!("shard-{k}")));
    config
}

/// Whether an unbound predicate reads summary state (`SUMMARY_COUNT`
/// anywhere in the tree). Everything else resolves against replicated
/// row state.
fn reads_summaries(e: &Expr) -> bool {
    match e {
        Expr::SummaryCount { .. } => true,
        Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
            reads_summaries(l) || reads_summaries(r)
        }
        Expr::Not(b) | Expr::IsNull(b, _) | Expr::Contains(b, _) => reads_summaries(b),
        Expr::Column(_) | Expr::Literal(_) => false,
    }
}

/// `<path>.shard<k>` — one snapshot file per shard.
pub fn shard_snapshot_path(path: &Path, k: usize) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".shard{k}"));
    PathBuf::from(os)
}

/// `<path>.manifest` — the sibling manifest of a snapshot set, recording
/// the shard count and epoch vector next to the `<path>.shard<k>` files
/// so a snapshot-only recovery (no WAL directory, hence no WAL-base
/// manifest) detects a shard-count change instead of silently loading a
/// subset of the shard files.
pub fn snapshot_manifest_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".manifest");
    PathBuf::from(os)
}

/// Whether any `<path>.shard<k>` file exists next to `path`.
fn shard_snapshots_present(path: &Path) -> Result<bool> {
    let Some(name) = path.file_name() else {
        return Ok(false);
    };
    let prefix = {
        let mut p = name.to_os_string();
        p.push(".shard");
        p.to_string_lossy().into_owned()
    };
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let entries = match std::fs::read_dir(parent) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        if entry?.file_name().to_string_lossy().starts_with(&prefix) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Rejects snapshot sets a recovery with `shards` shards must not load:
/// a pre-manifest single-file snapshot at `path` itself, a sibling
/// manifest recording a different shard count, or (without a WAL
/// directory) shard files with no manifest.
fn check_snapshot_layout(path: &Path, shards: usize, has_wal: bool) -> Result<()> {
    if path.exists() {
        return Err(Error::Execution(format!(
            "snapshot {} is a pre-manifest single-file snapshot; only the manifest \
             layout (<path>.shard<k> plus <path>.manifest) is opened, and converting \
             requires an explicit migration",
            path.display()
        )));
    }
    match read_manifest_file(&snapshot_manifest_path(path))? {
        Some((recorded, _)) if recorded != shards => Err(Error::Execution(format!(
            "snapshot manifest {} records {recorded} shard(s) but {shards} were \
             configured; shard-count changes require an explicit migration",
            snapshot_manifest_path(path).display()
        ))),
        // In snapshot-only mode the sibling manifest is the only witness
        // of the set's shard count; shard files without it mean the set
        // is incomplete (crash mid-checkpoint), and loading a guessed
        // subset would silently drop the other shards' data. With a WAL
        // directory its manifest stays authoritative, and a crash
        // between per-shard checkpoints legitimately leaves shard files
        // newer than the sibling manifest.
        None if !has_wal && shard_snapshots_present(path)? => Err(Error::Execution(format!(
            "shard snapshot files exist next to {} but its snapshot manifest is \
             missing; the snapshot set is incomplete or mid-migration",
            path.display()
        ))),
        _ => Ok(()),
    }
}

/// Rejects WAL-base layouts an open with `shards` shards must not
/// touch: a pre-manifest single-directory log, or a manifest recording a
/// different shard count.
fn check_layout(base: &Path, shards: usize) -> Result<()> {
    if base.join(crate::wal::WAL_FILE).exists() {
        return Err(Error::Execution(format!(
            "write-ahead log at {} uses the pre-manifest single-directory layout; \
             only the manifest layout (MANIFEST plus shard-<k>/) is opened, and \
             converting requires an explicit migration",
            base.display()
        )));
    }
    match read_manifest(base)? {
        Some((recorded, _)) if recorded != shards => Err(Error::Execution(format!(
            "shard manifest at {} records {recorded} shard(s) but {shards} were \
             configured; shard-count changes require an explicit migration",
            base.display()
        ))),
        Some(_) => Ok(()),
        None => {
            // No manifest: refuse to guess if shard segments already exist.
            for k in 0..shards.max(2) {
                let dir = base.join(format!("shard-{k}"));
                if dir.exists() {
                    return Err(Error::Execution(format!(
                        "shard WAL segment {} exists but the manifest is missing; \
                         the layout is corrupt or mid-migration",
                        dir.display()
                    )));
                }
            }
            Ok(())
        }
    }
}

/// Durably writes the manifest (`shards` + epoch vector) into the WAL
/// base directory.
fn write_manifest(base: &Path, shards: usize, epochs: &[u64]) -> Result<()> {
    std::fs::create_dir_all(base)?;
    write_manifest_file(&base.join(MANIFEST_FILE), shards, epochs)
}

/// Durably writes a manifest to an explicit file path — the WAL-base
/// `MANIFEST` or a snapshot set's sibling `<path>.manifest`.
fn write_manifest_file(file: &Path, shards: usize, epochs: &[u64]) -> Result<()> {
    let mut text = String::from("insightnotes-shard-manifest v1\n");
    text.push_str(&format!("shards {shards}\n"));
    for (k, e) in epochs.iter().enumerate() {
        text.push_str(&format!("epoch {k} {e}\n"));
    }
    crate::persist::write_durable(file, text.as_bytes())
}

/// Reads the WAL-base manifest, if present.
pub(crate) fn read_manifest(base: &Path) -> Result<Option<(usize, Vec<u64>)>> {
    read_manifest_file(&base.join(MANIFEST_FILE))
}

/// Reads a manifest file, if present: `(shard count, epoch vector)`.
fn read_manifest_file(path: &Path) -> Result<Option<(usize, Vec<u64>)>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let corrupt = |what: &str| {
        Error::Execution(format!(
            "shard manifest at {} is corrupt: {what}",
            path.display()
        ))
    };
    let mut lines = text.lines();
    if lines.next() != Some("insightnotes-shard-manifest v1") {
        return Err(corrupt("bad header"));
    }
    let shards: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("shards "))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| corrupt("missing shard count"))?;
    let mut epochs = Vec::with_capacity(shards);
    for (k, line) in lines.enumerate() {
        let epoch = line
            .strip_prefix(&format!("epoch {k} "))
            .and_then(|e| e.parse::<u64>().ok())
            .ok_or_else(|| corrupt("bad epoch line"))?;
        epochs.push(epoch);
    }
    if epochs.len() != shards {
        return Err(corrupt("epoch vector length mismatch"));
    }
    Ok(Some((shards, epochs)))
}

/// Builds router state over freshly opened shards: the id/tick
/// allocator resumes past the maximum any shard has durably seen.
fn build_router(config: &DbConfig, shards: &[Database]) -> Result<RouterState> {
    let cache_dir = config.cache_dir.as_ref().map_or_else(
        || {
            std::env::temp_dir().join(format!(
                "insightnotes-router-{}-{}",
                std::process::id(),
                ROUTER_COUNTER.fetch_add(1, Ordering::Relaxed)
            ))
        },
        |d| d.join("router"),
    );
    let cache = DiskCache::new(cache_dir, config.cache_budget, config.policy.build())?;
    let next_id = shards.iter().map(|d| d.store().last_id()).max();
    let clock = shards.iter().map(Database::clock_now).max();
    Ok(RouterState {
        alloc: Mutex::new(StampAlloc {
            next_id: next_id.unwrap_or(0),
            clock: clock.unwrap_or(0),
        })
        .with_class(lock_class::ALLOC),
        zoom: Mutex::new(ZoomRegistry::new(cache)).with_class(lock_class::ZOOM),
        removals_seen: AtomicU64::new(shards.iter().map(Database::removals).sum()),
        broadcast: Mutex::new(()).with_class(lock_class::BROADCAST),
        prepare_rr: AtomicU64::new(0),
        parallelism: config.parallelism,
        wal_base: config.wal_dir.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_deterministic_and_single_shard_collapses() {
        let t = TableId::new(3);
        for r in 1..100u64 {
            let row = RowId::new(r);
            assert_eq!(shard_of(t, row, 1), 0);
            assert_eq!(shard_of(t, row, 4), shard_of(t, row, 4));
            assert!(shard_of(t, row, 4) < 4);
        }
    }

    #[test]
    fn shard_of_spreads_rows() {
        let t = TableId::new(1);
        let mut hit = [0usize; 4];
        for r in 1..=400u64 {
            hit[shard_of(t, RowId::new(r), 4)] += 1;
        }
        for (k, &h) in hit.iter().enumerate() {
            assert!(h > 40, "shard {k} starved: {h}/400");
        }
    }

    #[test]
    fn manifest_round_trips() {
        let dir =
            std::env::temp_dir().join(format!("insightnotes-manifest-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(read_manifest(&dir).unwrap(), None);
        write_manifest(&dir, 4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some((4, vec![1, 2, 3, 4])));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_rejects_pre_manifest_wal_at_every_shard_count() {
        let dir = std::env::temp_dir().join(format!(
            "insightnotes-shardlayout-test-{}",
            std::process::id()
        ));
        for shards in [1, 4] {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(crate::wal::WAL_FILE), b"").unwrap();
            let config = DbConfig {
                wal_dir: Some(dir.clone()),
                ..DbConfig::default()
            };
            let err = ShardedDatabase::create(config, shards).unwrap_err();
            assert!(err.to_string().contains("pre-manifest"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
