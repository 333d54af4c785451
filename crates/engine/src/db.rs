//! The `Database` facade: catalog + annotation store + summary registry +
//! query engine + zoom-in cache behind one `execute_sql` entry point.
//!
//! This is the public API a downstream user adopts:
//!
//! ```
//! use insightnotes_engine::Database;
//!
//! let mut db = Database::new();
//! db.execute_sql("CREATE TABLE birds (name TEXT, weight FLOAT)").unwrap();
//! db.execute_sql("INSERT INTO birds VALUES ('Swan Goose', 3.2)").unwrap();
//! db.execute_sql(
//!     "CREATE SUMMARY INSTANCE ClassBird1 TYPE CLASSIFIER \
//!      LABELS ('Behavior', 'Other') \
//!      TRAIN ('Behavior': 'eating stonewort near shore', 'Other': 'see reference')",
//! )
//! .unwrap();
//! db.execute_sql("LINK SUMMARY ClassBird1 TO birds").unwrap();
//! db.execute_sql("ADD ANNOTATION 'found eating stonewort' ON birds").unwrap();
//! let result = db.query("SELECT name FROM birds").unwrap();
//! assert_eq!(result.rows.len(), 1);
//! assert_eq!(result.rows[0].summaries.len(), 1);
//! ```

use crate::annotated::AnnotatedRow;
use crate::cache::{DiskCache, Lfu, Lru, Rco, ReplacementPolicy};
use crate::exec::{trace::render_row_resolved, Executor, TraceLog};
use crate::expr::SExpr;
use crate::plan::{estimate_cost, LogicalPlan, Planner};
use crate::raw::{RawExecutor, RawRow};
use crate::wal::{SyncPolicy, Wal, WalRecord, WalRowAnnotation, WalStampedAnnotation};
use crate::zoomin::ZoomRegistry;
use insightnotes_annotations::{AnnotationBody, AnnotationStore, ColSig, LifecycleEvent, Target};
use insightnotes_common::{
    AnnotationId, ColumnId, Error, InstanceId, LogicalClock, Qid, Result, RowId, TableId,
};
use insightnotes_sql::{
    parse, parse_one, quote_str, CreateInstanceStmt, Expr, Literal, SelectStmt, Statement,
    StatementClass, ZoomComponent, ZoomInStmt,
};
use insightnotes_storage::{Catalog, Column, DataType, Row, Schema, Value};
use insightnotes_summaries::{
    rebuild_row_from_store, refresh_after_add, InstanceDef, InstanceProperties, MaintenanceMode,
    MaintenanceStats, SummaryRegistry,
};
use insightnotes_text::{ClusterConfig, NaiveBayes, SnippetConfig};
use parking_lot::witness::class as lock_class;
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DB_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Cache replacement policy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's Recency-Complexity-Overhead policy.
    Rco,
    /// Least-recently-used baseline.
    Lru,
    /// Least-frequently-used baseline.
    Lfu,
}

impl PolicyKind {
    pub(crate) fn build(self) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Rco => Box::new(Rco::default()),
            PolicyKind::Lru => Box::new(Lru),
            PolicyKind::Lfu => Box::new(Lfu),
        }
    }
}

/// Database construction options.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Zoom-in cache directory (`None` = a fresh temp directory).
    pub cache_dir: Option<PathBuf>,
    /// Zoom-in cache byte budget.
    pub cache_budget: u64,
    /// Cache replacement policy.
    pub policy: PolicyKind,
    /// Summary maintenance strategy.
    pub maintenance: MaintenanceMode,
    /// Query-execution worker threads (`None` = serial). Traced queries
    /// (demo scenario 3) always run serially regardless, so their
    /// per-operator output stays deterministic.
    pub parallelism: Option<usize>,
    /// Write-ahead log directory. `None` (the default) disables logging
    /// entirely — writes live in memory until an explicit
    /// [`Database::save`], exactly as before. When set, every write is
    /// appended to the log before it executes, and
    /// [`Database::recover`] replays the log tail on restart.
    pub wal_dir: Option<PathBuf>,
    /// When logged records are fsynced (ignored unless `wal_dir` is set).
    pub wal_sync: SyncPolicy,
}

impl Default for DbConfig {
    fn default() -> Self {
        Self {
            cache_dir: None,
            cache_budget: 16 << 20,
            policy: PolicyKind::Rco,
            maintenance: MaintenanceMode::Incremental,
            parallelism: None,
            wal_dir: None,
            wal_sync: SyncPolicy::Batch,
        }
    }
}

/// A parsed statement that still carries its source text. The
/// write-ahead log stores logical writes as SQL text (replay simply
/// re-executes them), so WAL-enabled write entry points need both forms;
/// pairing them in one value lets the server parse once at the session
/// layer and hand the committer something it can both log and execute.
#[derive(Debug, Clone)]
pub struct SqlStatement {
    /// The statement's source text (what the WAL records).
    pub sql: String,
    /// The parsed form (what the executor runs). Invariant: this is the
    /// parse of `sql`.
    pub stmt: Statement,
}

impl SqlStatement {
    /// Parses one statement, keeping its source text alongside.
    pub fn parse(sql: impl Into<String>) -> Result<Self> {
        let sql = sql.into();
        let stmt = parse_one(&sql)?;
        Ok(Self { sql, stmt })
    }
}

/// What [`Database::recover`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot file existed and was loaded.
    pub snapshot_loaded: bool,
    /// Write-ahead log records re-executed on top of the snapshot.
    pub records_replayed: usize,
    /// Bytes cut off the log's torn tail (unacked writes lost mid-append).
    pub bytes_truncated: u64,
    /// Whether a pre-checkpoint log (every record already covered by the
    /// snapshot) was discarded instead of replayed.
    pub stale_wal_discarded: bool,
    /// Whether a stale snapshot temp file from a crashed save was swept.
    pub tmp_removed: bool,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snapshot {}; {} WAL record(s) replayed; {} torn byte(s) truncated{}{}",
            if self.snapshot_loaded {
                "loaded"
            } else {
                "absent"
            },
            self.records_replayed,
            self.bytes_truncated,
            if self.stale_wal_discarded {
                "; stale pre-checkpoint WAL discarded"
            } else {
                ""
            },
            if self.tmp_removed {
                "; stale snapshot temp file removed"
            } else {
                ""
            },
        )
    }
}

/// One query's result: QID, output schema, and annotated rows.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The result's QID (referenced by `ZOOMIN`).
    pub qid: Qid,
    /// Output schema.
    pub schema: Schema,
    /// Result tuples with their propagated summary objects.
    pub rows: Vec<AnnotatedRow>,
}

/// One raw annotation returned by a zoom-in.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoomedAnnotation {
    /// Annotation id.
    pub id: AnnotationId,
    /// Free text.
    pub text: String,
    /// Attached document, if any.
    pub document: Option<String>,
    /// Curator.
    pub author: String,
}

/// The outcome of a `ZOOMIN` command.
#[derive(Debug, Clone)]
pub struct ZoomInResult {
    /// The raw annotations behind the expanded component.
    pub annotations: Vec<ZoomedAnnotation>,
    /// Whether the referenced result was served from the disk cache.
    pub from_cache: bool,
    /// How many result tuples matched the refinement predicate.
    pub matched_rows: usize,
}

/// One item of a typed [`Database::annotate_rows_batch`] call: an
/// annotation and the explicit rows it attaches to.
#[derive(Debug, Clone)]
pub struct RowAnnotation {
    /// Target table name.
    pub table: String,
    /// Explicit target row ids.
    pub rows: Vec<RowId>,
    /// Covered columns.
    pub cols: ColSig,
    /// The annotation itself (`created` is stamped at staging time).
    pub body: AnnotationBody,
}

/// A [`RowAnnotation`] whose id and clock tick were allocated up front
/// by the shard router. Sharded ingestion stamps `(id, tick)` once at
/// the router so every shard stores the same annotation under the same
/// identity a serial single-database run would have produced.
#[derive(Debug, Clone)]
pub struct StampedRowAnnotation {
    /// Router-allocated annotation id.
    pub id: u64,
    /// Router-allocated logical-clock tick (becomes `body.created`).
    pub tick: u64,
    /// The annotation and its explicit targets.
    pub item: RowAnnotation,
}

/// The result of executing one statement.
#[derive(Debug)]
pub enum ExecOutcome {
    /// `CREATE TABLE` succeeded.
    TableCreated(String),
    /// `DROP TABLE` succeeded.
    TableDropped(String),
    /// `INSERT` succeeded.
    Inserted {
        /// Target table.
        table: String,
        /// Rows inserted.
        rows: usize,
    },
    /// `ADD ANNOTATION` succeeded.
    Annotated {
        /// The new annotation's id.
        annotation: AnnotationId,
        /// Number of target rows.
        targets: usize,
        /// Maintenance work performed.
        maintenance: MaintenanceStats,
    },
    /// `CREATE SUMMARY INSTANCE` succeeded.
    InstanceCreated {
        /// Instance name.
        name: String,
        /// Assigned id.
        id: InstanceId,
    },
    /// `DROP SUMMARY INSTANCE` succeeded.
    InstanceDropped(String),
    /// `LINK SUMMARY` succeeded.
    Linked {
        /// Instance name.
        instance: String,
        /// Table name.
        table: String,
        /// Annotated rows caught up by rebuild.
        rows_rebuilt: usize,
    },
    /// `UNLINK SUMMARY` succeeded.
    Unlinked {
        /// Instance name.
        instance: String,
        /// Table name.
        table: String,
    },
    /// A SELECT produced a result.
    Query(QueryResult),
    /// A ZOOMIN produced raw annotations.
    ZoomIn(ZoomInResult),
    /// An EXPLAIN produced a plan rendering.
    Explain(String),
    /// `CREATE INDEX` / `DROP INDEX` succeeded.
    IndexChanged {
        /// Target table.
        table: String,
        /// Indexed column.
        column: String,
        /// True for CREATE, false for DROP.
        created: bool,
    },
    /// `DELETE FROM` removed rows (and their annotations / summaries).
    RowsDeleted {
        /// Target table.
        table: String,
        /// Rows removed.
        rows: usize,
    },
    /// `DELETE ANNOTATION` removed an annotation and refreshed summaries.
    AnnotationDeleted {
        /// The removed annotation.
        annotation: AnnotationId,
        /// Rows whose summaries were rebuilt.
        rows_refreshed: usize,
    },
    /// `RETRACT ANNOTATION` tombstoned an annotation and removed its
    /// summary contribution.
    AnnotationRetracted {
        /// The retracted annotation.
        annotation: AnnotationId,
        /// Rows whose summaries were refreshed.
        rows_refreshed: usize,
    },
    /// `CORRECT ANNOTATION` superseded an annotation with a replacement.
    AnnotationCorrected {
        /// The superseded (now tombstoned) annotation.
        annotation: AnnotationId,
        /// The replacement annotation's id.
        successor: AnnotationId,
        /// Rows whose summaries were refreshed.
        rows_refreshed: usize,
    },
    /// `FLAG ANNOTATION` marked an annotation as disputed.
    AnnotationFlagged {
        /// The flagged annotation.
        annotation: AnnotationId,
    },
    /// `HISTORY` replayed an annotation's lifecycle timeline.
    History {
        /// The inspected annotation.
        annotation: AnnotationId,
        /// Its lifecycle events, oldest first (creation included).
        events: Vec<LifecycleEvent>,
    },
}

/// An InsightNotes database instance.
///
/// The API is split into a **read path** (`&self`: [`Database::query`],
/// [`Database::zoom_in`], [`Database::execute_read`], …) and a **write
/// path** (`&mut self`: [`Database::execute`] for DDL / INSERT /
/// ADD ANNOTATION / registry changes). Session-local state that even
/// read-only queries touch — QID assignment and the zoom-in result
/// cache — lives behind an interior [`Mutex`], so many sessions can run
/// queries concurrently under one shared lock (`RwLock<Database>` in
/// `insightd`) while writers take the exclusive side.
#[derive(Debug)]
pub struct Database {
    catalog: Catalog,
    store: AnnotationStore,
    registry: SummaryRegistry,
    zoom: Mutex<ZoomRegistry>,
    clock: LogicalClock,
    config: DbConfig,
    /// Checkpoint epoch: bumped by [`Database::checkpoint`], stamped into
    /// snapshots and the WAL header so recovery can tell a log that
    /// extends the snapshot from one the snapshot already covers.
    epoch: u64,
    /// The write-ahead log, when [`DbConfig::wal_dir`] is set. Interior
    /// mutability so [`Database::wal_sync`] works from `&self` (the
    /// server syncs under its shared lock after releasing the writer).
    wal: Option<Mutex<Wal>>,
    /// Writes so far that removed annotations or rows (or replaced the
    /// whole state) — each one invalidates cached zoom-in results.
    removals: u64,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Creates a database with default configuration (RCO cache in a
    /// fresh temp directory).
    pub fn new() -> Self {
        Self::with_config(DbConfig::default()).expect("default database construction")
    }

    /// Creates a database with explicit configuration. When the
    /// configuration names a WAL directory, a fresh (empty) log is
    /// created; if one already exists this **fails** — an existing log
    /// holds writes that must be replayed, so go through
    /// [`Database::recover`] instead.
    pub fn with_config(config: DbConfig) -> Result<Self> {
        let mut db = Self::with_config_detached(config)?;
        if let Some(dir) = db.config.wal_dir.clone() {
            let w = Wal::create(&dir, db.epoch, db.config.wal_sync)?;
            db.wal = Some(Mutex::new(w).with_class(lock_class::WAL));
        }
        Ok(db)
    }

    /// Builds the database without touching the WAL directory; recovery
    /// attaches the log itself after replaying it.
    fn with_config_detached(config: DbConfig) -> Result<Self> {
        let dir = config.cache_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "insightnotes-db-{}-{}",
                std::process::id(),
                DB_COUNTER.fetch_add(1, Ordering::Relaxed)
            ))
        });
        let cache = DiskCache::new(dir, config.cache_budget, config.policy.build())?;
        Ok(Self {
            catalog: Catalog::new(),
            store: AnnotationStore::new(),
            registry: SummaryRegistry::new(),
            zoom: Mutex::new(ZoomRegistry::new(cache)).with_class(lock_class::ZOOM),
            clock: LogicalClock::new(),
            config,
            epoch: 0,
            wal: None,
            removals: 0,
        })
    }

    /// Swaps in restored durable state (snapshot open path), resuming
    /// the checkpoint epoch and logical clock where the snapshot left
    /// off. Session state (QIDs, caches) starts fresh.
    pub(crate) fn replace_state(
        &mut self,
        catalog: Catalog,
        store: AnnotationStore,
        registry: SummaryRegistry,
        epoch: u64,
        clock: u64,
    ) {
        self.catalog = catalog;
        self.store = store;
        self.registry = registry;
        self.epoch = epoch;
        self.clock.advance_to(clock);
        self.removals += 1;
    }

    /// Opens a database with full crash recovery: sweeps a stale
    /// snapshot temp file, loads the snapshot if one exists (a missing
    /// file means a fresh database — the first checkpoint creates it),
    /// then replays the write-ahead log tail on top, truncating the log
    /// at its first torn or corrupt record. Replay re-executes each
    /// logged statement through the normal execution paths, so the
    /// recovered state is byte-identical to a serial re-run of the
    /// logged prefix; records that failed originally fail identically
    /// again (the log is written before execution) and are skipped.
    ///
    /// Without a configured [`DbConfig::wal_dir`] this degrades to
    /// [`Database::open_with_config`] semantics plus temp-file sweeping.
    pub fn recover(snapshot: Option<&Path>, config: DbConfig) -> Result<(Self, RecoveryReport)> {
        let mut report = RecoveryReport::default();
        let mut db = Self::with_config_detached(config)?;
        if let Some(path) = snapshot {
            report.tmp_removed = crate::persist::remove_stale_tmp(path);
            if path.exists() {
                let bytes = std::fs::read(path)?;
                let (catalog, store, registry, epoch, clock) = crate::persist::restore(&bytes)?;
                db.replace_state(catalog, store, registry, epoch, clock);
                report.snapshot_loaded = true;
            }
        }
        let Some(dir) = db.config.wal_dir.clone() else {
            return Ok((db, report));
        };
        let policy = db.config.wal_sync;
        match Wal::open(&dir, policy)? {
            None => {
                db.wal = Some(
                    Mutex::new(Wal::create(&dir, db.epoch, policy)?).with_class(lock_class::WAL),
                );
            }
            Some(scan) => {
                report.bytes_truncated = scan.truncated_bytes;
                match scan.wal.epoch().cmp(&db.epoch) {
                    std::cmp::Ordering::Less => {
                        // The crash hit between a checkpoint's snapshot
                        // rename and its log rotation: every logged
                        // record is already in the snapshot, so finish
                        // the rotation instead of double-applying.
                        report.stale_wal_discarded = true;
                        let mut w = scan.wal;
                        w.rotate(db.epoch)?;
                        db.wal = Some(Mutex::new(w).with_class(lock_class::WAL));
                    }
                    std::cmp::Ordering::Greater => {
                        return Err(Error::Execution(format!(
                            "write-ahead log epoch {} is ahead of snapshot epoch {}; \
                             the snapshot is stale or belongs to another database",
                            scan.wal.epoch(),
                            db.epoch
                        )));
                    }
                    std::cmp::Ordering::Equal => {
                        // Replay before attaching the log, so replayed
                        // statements run through the public write paths
                        // without being appended a second time.
                        report.records_replayed = scan.records.len();
                        for record in &scan.records {
                            db.replay(record);
                        }
                        db.wal = Some(Mutex::new(scan.wal).with_class(lock_class::WAL));
                    }
                }
            }
        }
        Ok((db, report))
    }

    /// Re-executes one logged record. Errors are deliberately swallowed:
    /// the log is appended *before* execution, so a record whose
    /// statement failed originally (unknown table, empty target set)
    /// re-fails identically here — that re-failure is the correct
    /// recovered state, not a recovery problem.
    fn replay(&mut self, record: &WalRecord) {
        debug_assert!(
            self.wal.is_none(),
            "replay must run before the log attaches"
        );
        match record {
            WalRecord::Script { sql } => {
                let _ = self.execute_sql(sql);
            }
            WalRecord::Batch { statements } => {
                let stmts: Vec<Statement> = statements
                    .iter()
                    .filter_map(|s| parse_one(s).ok())
                    .collect();
                let _ = self.annotate_batch(stmts);
            }
            WalRecord::Rows { items } => {
                let items: Vec<RowAnnotation> = items
                    .iter()
                    .map(|i| RowAnnotation {
                        table: i.table.clone(),
                        rows: i.rows.iter().map(|&r| RowId::new(r)).collect(),
                        cols: ColSig::from_bits(i.cols),
                        body: replay_body(&i.text, &i.document, &i.author),
                    })
                    .collect();
                let _ = self.annotate_rows_batch(items);
            }
            WalRecord::Stamped { items } => {
                let items: Vec<StampedRowAnnotation> = items
                    .iter()
                    .map(|s| StampedRowAnnotation {
                        id: s.id,
                        tick: s.tick,
                        item: RowAnnotation {
                            table: s.item.table.clone(),
                            rows: s.item.rows.iter().map(|&r| RowId::new(r)).collect(),
                            cols: ColSig::from_bits(s.item.cols),
                            body: replay_body(&s.item.text, &s.item.document, &s.item.author),
                        },
                    })
                    .collect();
                let _ = self.annotate_rows_batch_stamped(items);
            }
            WalRecord::Targets {
                targets,
                text,
                document,
                author,
            } => {
                let targets: Vec<(TableId, RowId, ColSig)> = targets
                    .iter()
                    .map(|&(t, r, c)| (TableId::new(t), RowId::new(r), ColSig::from_bits(c)))
                    .collect();
                let _ = self.annotate_targets(targets, replay_body(text, document, author));
            }
        }
    }

    /// Checkpoints: writes a durable snapshot stamped with the next
    /// epoch, then rotates the write-ahead log down to an empty header.
    /// A crash anywhere in between is safe — recovery either sees the
    /// old snapshot with a matching log (replays it) or the new snapshot
    /// with a stale log (discards it). Without a WAL this is just
    /// [`Database::save`].
    pub fn checkpoint(&mut self, path: impl AsRef<Path>) -> Result<()> {
        if self.wal.is_none() {
            return self.save(path);
        }
        self.epoch += 1;
        match self.save(path.as_ref()) {
            Ok(()) => {
                self.wal
                    .as_ref()
                    .expect("checked above")
                    .lock()
                    .rotate(self.epoch)?;
                Ok(())
            }
            Err(e) => {
                self.epoch -= 1;
                Err(e)
            }
        }
    }

    // -- write-ahead log ---------------------------------------------------

    /// Whether writes are being logged.
    pub fn wal_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// Forces every logged-but-buffered record to disk. This is the
    /// group-commit point under [`SyncPolicy::Batch`]: the server calls
    /// it once per drained batch and releases acks only afterwards. A
    /// no-op when the WAL is off, under [`SyncPolicy::Off`], or when
    /// nothing is pending.
    pub fn wal_sync(&self) -> Result<()> {
        if let Some(w) = &self.wal {
            w.lock().sync()?;
        }
        Ok(())
    }

    /// `(appends, fsyncs)` performed by the log, if one is attached.
    pub fn wal_io_stats(&self) -> Option<(u64, u64)> {
        self.wal.as_ref().map(|w| w.lock().io_stats())
    }

    /// The log's durable watermark — its current byte length, every bit
    /// of which survives a crash once [`Database::wal_sync`] returns.
    /// Fault-injection tests snapshot this after each sync to know which
    /// acked prefix must be recoverable.
    pub fn wal_len(&self) -> Option<u64> {
        self.wal.as_ref().map(|w| w.lock().len())
    }

    fn wal_append(&self, record: &WalRecord) -> Result<()> {
        if let Some(w) = &self.wal {
            w.lock().append(record)?;
        }
        Ok(())
    }

    /// The log's committed watermark `(epoch, offset)` — the prefix that
    /// is safe to ship to replicas: fsynced under [`SyncPolicy::Always`]
    /// / [`SyncPolicy::Batch`], everything appended under
    /// [`SyncPolicy::Off`]. `None` when no log is attached.
    pub fn wal_committed(&self) -> Option<(u64, u64)> {
        self.wal.as_ref().map(|w| {
            let w = w.lock();
            (w.epoch(), w.committed_len())
        })
    }

    /// The log file's path, if a log is attached. Replication tails the
    /// committed prefix of this file through an independent read handle.
    pub fn wal_path(&self) -> Option<std::path::PathBuf> {
        self.wal.as_ref().map(|w| w.lock().path().to_path_buf())
    }

    // -- replication -------------------------------------------------------

    /// Applies one shipped log record through the normal write paths —
    /// the replica apply point. Semantics match recovery replay exactly
    /// (same id / clock / vocabulary determinism; a record whose
    /// statement fails is the correct applied state, not an error).
    /// Only valid on a database without an attached log: a replica's
    /// mirrored log is managed by the replication subsystem, so applying
    /// here must not append a second copy.
    pub fn apply_wal_record(&mut self, record: &WalRecord) -> Result<()> {
        if self.wal.is_some() {
            return Err(Error::Execution(
                "apply_wal_record is a replica-side path; this database has its own \
                 write-ahead log attached"
                    .into(),
            ));
        }
        self.replay(record);
        Ok(())
    }

    /// Serializes the full logical state (catalog, annotations,
    /// summaries, epoch, clock) — the payload a primary streams to a
    /// bootstrapping replica. Byte-identical to what
    /// [`Database::save`] would write for the same state.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        crate::persist::snapshot_with(
            &self.catalog,
            &self.store,
            &self.registry,
            self.epoch,
            self.clock.now(),
        )
    }

    /// Installs serialized state received from a primary's snapshot
    /// bootstrap (the bytes of [`Database::snapshot_bytes`]), replacing
    /// all local logical state. Session state (QIDs, caches) resets.
    pub fn install_replica_state(&mut self, bytes: &[u8]) -> Result<()> {
        let (catalog, store, registry, epoch, clock) = crate::persist::restore(bytes)?;
        self.replace_state(catalog, store, registry, epoch, clock);
        Ok(())
    }

    // -- component access ------------------------------------------------

    /// The table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The raw annotation store.
    pub fn store(&self) -> &AnnotationStore {
        &self.store
    }

    /// The summary registry.
    pub fn registry(&self) -> &SummaryRegistry {
        &self.registry
    }

    /// Mutable summary registry (ablation switches live here).
    pub fn registry_mut(&mut self) -> &mut SummaryRegistry {
        &mut self.registry
    }

    /// The zoom-in registry (cache statistics). The returned guard holds
    /// the registry's session lock; drop it before issuing queries.
    pub fn zoom(&self) -> MutexGuard<'_, ZoomRegistry> {
        self.zoom.lock()
    }

    /// Evicts one result from the zoom-in cache (experiment hook; the
    /// cache normally evicts on its own under budget pressure).
    pub fn zoom_cache_evict(&self, qid: Qid) -> bool {
        self.zoom.lock().cache_mut().remove(qid).unwrap_or(false)
    }

    /// The active maintenance mode.
    pub fn maintenance_mode(&self) -> MaintenanceMode {
        self.config.maintenance
    }

    /// The current checkpoint epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The logical clock's latest issued tick (persisted in snapshots so
    /// recovery resumes past it).
    pub fn clock_now(&self) -> u64 {
        self.clock.now()
    }

    /// How many writes so far removed annotations or rows (or replaced
    /// the whole state). A cache of result rows taken at one count is
    /// stale once it moves.
    pub(crate) fn removals(&self) -> u64 {
        self.removals
    }

    /// Switches the maintenance strategy (experiment E1).
    pub fn set_maintenance_mode(&mut self, mode: MaintenanceMode) {
        self.config.maintenance = mode;
    }

    // -- statement execution ----------------------------------------------

    /// Parses and executes a string of `;`-separated statements.
    ///
    /// With a write-ahead log attached, the script's source text is
    /// appended (and, under [`SyncPolicy::Always`], fsynced) **before**
    /// anything executes, whenever the script contains at least one
    /// write. Execution stops at the first failing statement, exactly as
    /// before — and replay reproduces that same partial execution, which
    /// is why logging the text up front is sound.
    pub fn execute_sql(&mut self, sql: &str) -> Result<Vec<ExecOutcome>> {
        let stmts = parse(sql)?;
        if self.wal.is_some() && stmts.iter().any(|s| s.class() == StatementClass::Write) {
            self.wal_append(&WalRecord::Script {
                sql: sql.to_string(),
            })?;
        }
        stmts
            .into_iter()
            .map(|stmt| {
                if stmt.class() == StatementClass::Read {
                    self.execute_read(stmt)
                } else {
                    self.apply_stmt(stmt)
                }
            })
            .collect()
    }

    /// Executes one Read-class statement (SELECT / ZOOMIN / EXPLAIN /
    /// HISTORY) from a shared reference. This is the entry point
    /// `insightd` uses under its shared lock: durable state is only read;
    /// the session-local QID and result-cache updates go through the
    /// interior zoom lock. Write-class statements are rejected — route
    /// them through [`Database::execute`].
    pub fn execute_read(&self, stmt: Statement) -> Result<ExecOutcome> {
        match stmt {
            Statement::Select(sel) => Ok(ExecOutcome::Query(self.run_select(&sel, false)?.0)),
            Statement::ZoomIn(z) => Ok(ExecOutcome::ZoomIn(self.zoom_in(&z)?)),
            Statement::Explain(sel) => {
                let plan = Planner::new(&self.catalog, &self.registry).plan_select(&sel)?;
                Ok(ExecOutcome::Explain(plan.explain()))
            }
            Statement::HistoryAnnotation { id } => self.history(AnnotationId::new(id)),
            _ => Err(Error::Execution(
                "write-class statement requires exclusive database access".into(),
            )),
        }
    }

    /// Executes one parsed statement.
    ///
    /// On a WAL-enabled database, write-class statements are rejected
    /// here: a parsed [`Statement`] no longer carries its source text,
    /// so accepting it would execute a write the log never saw — an
    /// acked-but-unlogged write is precisely the bug the WAL exists to
    /// rule out. Route writes through [`Database::execute_sql`] (or the
    /// typed annotation APIs, which log typed records) instead.
    pub fn execute(&mut self, stmt: Statement) -> Result<ExecOutcome> {
        if stmt.class() == StatementClass::Read {
            return self.execute_read(stmt);
        }
        if self.wal.is_some() {
            return Err(Error::Execution(
                "write-ahead logging records statements by source text; execute writes \
                 through execute_sql / annotate_batch_sql on a WAL-enabled database"
                    .into(),
            ));
        }
        self.apply_stmt(stmt)
    }

    /// Executes one parsed write-class statement (post-logging).
    fn apply_stmt(&mut self, stmt: Statement) -> Result<ExecOutcome> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let cols = columns
                    .into_iter()
                    .map(|(n, ty)| Ok(Column::new(n, DataType::parse(&ty)?)))
                    .collect::<Result<Vec<_>>>()?;
                if cols.len() > ColSig::MAX_COLUMNS as usize {
                    return Err(Error::Catalog(format!(
                        "tables are limited to {} columns",
                        ColSig::MAX_COLUMNS
                    )));
                }
                self.catalog.create_table(&name, Schema::new(cols))?;
                Ok(ExecOutcome::TableCreated(name.to_ascii_lowercase()))
            }
            Statement::DropTable { name } => {
                let id = self.catalog.table_id(&name)?;
                // Unlink summaries and drop the rows' annotations first.
                for inst in self.registry.linked_instances(id).to_vec() {
                    self.registry.unlink(inst, id)?;
                }
                for rid in self.store.annotated_rows(id) {
                    self.store.clear_row(id, rid);
                    self.registry.clear_row(id, rid);
                }
                self.catalog.drop_table(&name)?;
                self.invalidate_zoom_results();
                Ok(ExecOutcome::TableDropped(name.to_ascii_lowercase()))
            }
            Statement::Insert { table, rows } => {
                let id = self.catalog.table_id(&table)?;
                let t = self.catalog.table_mut(id)?;
                let n = rows.len();
                for lits in rows {
                    let values: Vec<Value> = lits.into_iter().map(literal_value).collect();
                    t.insert(Row::new(values))?;
                }
                Ok(ExecOutcome::Inserted {
                    table: table.to_ascii_lowercase(),
                    rows: n,
                })
            }
            Statement::AddAnnotation {
                text,
                document,
                author,
                table,
                columns,
                where_clause,
            } => self.add_annotation_stmt(text, document, author, &table, &columns, where_clause),
            Statement::CreateInstance(ci) => self.create_instance_stmt(ci),
            Statement::DropInstance { name } => {
                let id = self.registry.instance_id(&name)?;
                self.registry.drop_instance(id)?;
                Ok(ExecOutcome::InstanceDropped(name))
            }
            Statement::LinkSummary { instance, table } => {
                let inst = self.registry.instance_id(&instance)?;
                let tid = self.catalog.table_id(&table)?;
                self.registry.link(inst, tid)?;
                // Catch-up: absorb annotations that predate the link.
                let rows = self.store.annotated_rows(tid);
                let n = rows.len();
                let catalog = &self.catalog;
                let store = &self.store;
                let registry = &mut self.registry;
                for rid in rows {
                    rebuild_row_from_store(registry, store, tid, rid, &|t, r| {
                        tuple_context(catalog, t, r)
                    })?;
                }
                Ok(ExecOutcome::Linked {
                    instance,
                    table,
                    rows_rebuilt: n,
                })
            }
            Statement::UnlinkSummary { instance, table } => {
                let inst = self.registry.instance_id(&instance)?;
                let tid = self.catalog.table_id(&table)?;
                self.registry.unlink(inst, tid)?;
                Ok(ExecOutcome::Unlinked { instance, table })
            }
            Statement::DeleteRows {
                table,
                where_clause,
            } => self.delete_rows_stmt(&table, where_clause),
            Statement::DeleteAnnotation { id } => {
                // Already logged as part of the surrounding script.
                self.delete_annotation_inner(AnnotationId::new(id))
            }
            Statement::RetractAnnotation { id, at } => {
                // Already logged as part of the surrounding script.
                self.retract_annotation_inner(AnnotationId::new(id), at)
            }
            Statement::CorrectAnnotation {
                id,
                text,
                document,
                author,
                stamp,
            } => {
                self.correct_annotation_inner(AnnotationId::new(id), text, document, author, stamp)
            }
            Statement::FlagAnnotation { id, note, at } => {
                self.flag_annotation_inner(AnnotationId::new(id), note, at)
            }
            Statement::CreateIndex { table, column } => {
                let tid = self.catalog.table_id(&table)?;
                let col = self.catalog.table(tid)?.schema().resolve(None, &column)? as u16;
                self.catalog.table_mut(tid)?.create_index(col)?;
                Ok(ExecOutcome::IndexChanged {
                    table: table.to_ascii_lowercase(),
                    column: column.to_ascii_lowercase(),
                    created: true,
                })
            }
            Statement::DropIndex { table, column } => {
                let tid = self.catalog.table_id(&table)?;
                let col = self.catalog.table(tid)?.schema().resolve(None, &column)? as u16;
                if !self.catalog.table_mut(tid)?.drop_index(col) {
                    return Err(Error::Catalog(format!(
                        "no index on `{table}` (`{column}`)"
                    )));
                }
                Ok(ExecOutcome::IndexChanged {
                    table: table.to_ascii_lowercase(),
                    column: column.to_ascii_lowercase(),
                    created: false,
                })
            }
            Statement::Select(_)
            | Statement::ZoomIn(_)
            | Statement::Explain(_)
            | Statement::HistoryAnnotation { .. } => {
                unreachable!("read-class statements are dispatched to execute_read")
            }
        }
    }

    fn delete_rows_stmt(&mut self, table: &str, where_clause: Option<Expr>) -> Result<ExecOutcome> {
        let tid = self.catalog.table_id(table)?;
        let qualified = self.catalog.table(tid)?.schema().qualify(table);
        let predicate = where_clause
            .map(|w| Planner::new(&self.catalog, &self.registry).bind_expr(&w, &qualified))
            .transpose()?;
        let victims = self.matching_rows(tid, predicate.as_ref())?;
        for rid in &victims {
            self.catalog.table_mut(tid)?.delete(*rid);
            self.store.clear_row(tid, *rid);
            self.registry.clear_row(tid, *rid);
        }
        if !victims.is_empty() {
            self.invalidate_zoom_results();
        }
        Ok(ExecOutcome::RowsDeleted {
            table: table.to_ascii_lowercase(),
            rows: victims.len(),
        })
    }

    /// Removes one annotation and refreshes the summaries of every row it
    /// was attached to. Under [`MaintenanceMode::Incremental`] the
    /// contribution is subtracted decrementally (O(1) per object, exact
    /// for classifier/snippet; cluster membership exact, centroids remain
    /// a bounded sketch); under [`MaintenanceMode::Rebuild`] the affected
    /// rows are re-summarized from the store, which also re-canonicalizes
    /// cluster centroids.
    pub fn delete_annotation(&mut self, id: AnnotationId) -> Result<ExecOutcome> {
        // The deletion has a trivial, lossless SQL rendering, so the
        // typed API logs it as a script record.
        if self.wal.is_some() {
            self.wal_append(&WalRecord::Script {
                sql: format!("DELETE ANNOTATION {}", id.raw()),
            })?;
        }
        self.delete_annotation_inner(id)
    }

    fn delete_annotation_inner(&mut self, id: AnnotationId) -> Result<ExecOutcome> {
        let removed = self.store.remove(id)?;
        self.invalidate_zoom_results();
        let rows_refreshed = self.refresh_after_remove(id, &removed.targets)?;
        Ok(ExecOutcome::AnnotationDeleted {
            annotation: id,
            rows_refreshed,
        })
    }

    /// Removes one (already detached) annotation's effect from the
    /// summary registry. Under [`MaintenanceMode::Incremental`] the
    /// contribution is subtracted in O(objects); under
    /// [`MaintenanceMode::Rebuild`] every target row is re-summarized
    /// from the store. The rebuild loop is deterministic across **all**
    /// targets even when one fails: the remaining rows still rebuild (no
    /// mid-loop abort leaving the registry partially refreshed), and the
    /// returned count reflects only rows actually refreshed.
    fn refresh_after_remove(&mut self, id: AnnotationId, targets: &[Target]) -> Result<usize> {
        match self.config.maintenance {
            MaintenanceMode::Incremental => {
                self.registry.remove_annotation(id, targets);
                Ok(targets.len())
            }
            MaintenanceMode::Rebuild => {
                let catalog = &self.catalog;
                let store = &self.store;
                let registry = &mut self.registry;
                let mut refreshed = 0usize;
                let mut first_err: Option<Error> = None;
                for target in targets {
                    let rebuilt = rebuild_row_from_store(
                        registry,
                        store,
                        target.table,
                        target.row,
                        &|t, r| tuple_context(catalog, t, r),
                    );
                    match rebuilt {
                        Ok(_) => refreshed += 1,
                        Err(e) => {
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                        }
                    }
                }
                match first_err {
                    None => Ok(refreshed),
                    Some(e) => Err(Error::Summary(format!(
                        "summary rebuild failed on {} of {} target row(s); the other \
                         {refreshed} refreshed (first error: {e})",
                        targets.len() - refreshed,
                        targets.len(),
                    ))),
                }
            }
        }
    }

    /// Drops every cached zoom-in result payload. Called on any
    /// annotation-removing write: cached rows embed summary objects, so
    /// serving them after a removal would resurrect dropped snippets.
    fn invalidate_zoom_results(&mut self) {
        self.removals += 1;
        self.zoom.lock().invalidate_results();
    }

    /// `RETRACT ANNOTATION`: tombstones the annotation — its summary
    /// contribution is removed exactly as a deletion's would be, but the
    /// version itself and its timeline survive for `HISTORY` / `AS OF`.
    pub fn retract_annotation(&mut self, id: AnnotationId) -> Result<ExecOutcome> {
        self.retract_annotation_at(id, None)
    }

    /// [`Database::retract_annotation`] at an event tick the shard
    /// router allocated (`Some`), so every owner shard tombstones at the
    /// same time. The logged statement carries it (`AT …`), so WAL
    /// replay reproduces it.
    pub(crate) fn retract_annotation_at(
        &mut self,
        id: AnnotationId,
        at: Option<u64>,
    ) -> Result<ExecOutcome> {
        if self.wal.is_some() {
            self.wal_append(&WalRecord::Script {
                sql: format!("RETRACT ANNOTATION {}{}", id.raw(), render_at(at)),
            })?;
        }
        self.retract_annotation_inner(id, at)
    }

    fn retract_annotation_inner(
        &mut self,
        id: AnnotationId,
        at: Option<u64>,
    ) -> Result<ExecOutcome> {
        // The tick is consumed before validation so a failing retract
        // replays identically (same clock trajectory) from the WAL.
        let at = self.event_tick(at);
        let removed = self.store.retract(id, at)?;
        self.invalidate_zoom_results();
        let rows_refreshed = self.refresh_after_remove(id, &removed.targets)?;
        Ok(ExecOutcome::AnnotationRetracted {
            annotation: id,
            rows_refreshed,
        })
    }

    /// `CORRECT ANNOTATION`: supersedes `id` with a replacement that
    /// inherits its targets. The predecessor becomes a tombstone linked
    /// to the successor; the summary engine decrementally removes the old
    /// contribution and absorbs the new one in O(annotation) under
    /// [`MaintenanceMode::Incremental`].
    pub fn correct_annotation(
        &mut self,
        id: AnnotationId,
        text: String,
        document: Option<String>,
        author: Option<String>,
    ) -> Result<ExecOutcome> {
        if self.wal.is_some() {
            self.wal_append(&WalRecord::Script {
                sql: render_correct_sql(
                    id.raw(),
                    &text,
                    document.as_deref(),
                    author.as_deref(),
                    None,
                ),
            })?;
        }
        self.correct_annotation_inner(id, text, document, author, None)
    }

    /// Router path of `CORRECT ANNOTATION`: the successor's `(id, tick)`
    /// was pre-allocated at the shard router so every owner shard commits
    /// a byte-identical replacement. The logged statement carries the
    /// stamp (`WITH ID … AT …`), so per-shard WAL replay re-creates the
    /// same successor identity the router handed out.
    pub(crate) fn correct_annotation_stamped(
        &mut self,
        id: AnnotationId,
        text: String,
        document: Option<String>,
        author: Option<String>,
        stamp: (u64, u64),
    ) -> Result<ExecOutcome> {
        if self.wal.is_some() {
            self.wal_append(&WalRecord::Script {
                sql: render_correct_sql(
                    id.raw(),
                    &text,
                    document.as_deref(),
                    author.as_deref(),
                    Some(stamp),
                ),
            })?;
        }
        self.correct_annotation_inner(id, text, document, author, Some(stamp))
    }

    fn correct_annotation_inner(
        &mut self,
        id: AnnotationId,
        text: String,
        document: Option<String>,
        author: Option<String>,
        stamp: Option<(u64, u64)>,
    ) -> Result<ExecOutcome> {
        // Validate the predecessor up front — before any identity is
        // allocated — so a correction of a tombstone fails cleanly with
        // its lifecycle status.
        if !self.store.is_live(id) {
            let status = self.store.status(id)?;
            return Err(Error::Annotation(format!(
                "annotation {id} is already {status}"
            )));
        }
        let old = self.store.get(id)?;
        let targets = old.targets.clone();
        let author = author.unwrap_or_else(|| old.body.author.clone());
        // The router pre-allocates `(successor id, tick)` in sharded
        // mode so every owner shard commits an identical replacement;
        // serial execution allocates both locally.
        let tick = self.event_tick(stamp.map(|(_, t)| t));
        let mut body = AnnotationBody::text(text, author);
        if let Some(d) = document {
            body = body.with_document(d);
        }
        body.created = tick;
        let successor = match stamp {
            Some((sid, _)) => self
                .store
                .add_at(AnnotationId::new(sid), body, targets.clone())?,
            None => self.store.add(body, targets.clone())?,
        };
        self.store.correct(id, successor, tick)?;
        self.invalidate_zoom_results();
        // Subtract the predecessor, then absorb the successor. Under
        // Rebuild the store already holds the final annotation set (the
        // predecessor's index entries are detached), so the single
        // deterministic rebuild pass inside refresh_after_remove covers
        // both halves at once.
        let rows_refreshed = self.refresh_after_remove(id, &targets)?;
        if matches!(self.config.maintenance, MaintenanceMode::Incremental) {
            let catalog = &self.catalog;
            let store = &self.store;
            let registry = &mut self.registry;
            refresh_after_add(
                registry,
                store,
                successor,
                &|t, r| tuple_context(catalog, t, r),
                MaintenanceMode::Incremental,
            )?;
        }
        Ok(ExecOutcome::AnnotationCorrected {
            annotation: id,
            successor,
            rows_refreshed,
        })
    }

    /// `FLAG ANNOTATION`: marks an annotation as disputed. The
    /// annotation stays live — its summary contribution is untouched —
    /// but the flag (and optional reviewer note) lands on its timeline.
    pub fn flag_annotation(
        &mut self,
        id: AnnotationId,
        note: Option<String>,
    ) -> Result<ExecOutcome> {
        self.flag_annotation_at(id, note, None)
    }

    /// [`Database::flag_annotation`] at a router-allocated event tick,
    /// logged as `FLAG ANNOTATION … AT …` (see
    /// [`Database::retract_annotation_at`]).
    pub(crate) fn flag_annotation_at(
        &mut self,
        id: AnnotationId,
        note: Option<String>,
        at: Option<u64>,
    ) -> Result<ExecOutcome> {
        if self.wal.is_some() {
            let mut sql = format!("FLAG ANNOTATION {}", id.raw());
            if let Some(n) = &note {
                sql.push(' ');
                sql.push_str(&quote_str(n));
            }
            sql.push_str(&render_at(at));
            self.wal_append(&WalRecord::Script { sql })?;
        }
        self.flag_annotation_inner(id, note, at)
    }

    fn flag_annotation_inner(
        &mut self,
        id: AnnotationId,
        note: Option<String>,
        at: Option<u64>,
    ) -> Result<ExecOutcome> {
        let at = self.event_tick(at);
        self.store.flag(id, note, at)?;
        Ok(ExecOutcome::AnnotationFlagged { annotation: id })
    }

    /// A lifecycle event's tick: the router-allocated one when given
    /// (the clock advances to it), else the next local tick.
    fn event_tick(&mut self, at: Option<u64>) -> u64 {
        match at {
            Some(t) => {
                self.clock.advance_to(t);
                t
            }
            None => self.clock.tick(),
        }
    }

    /// `HISTORY <id>`: the annotation's lifecycle timeline, oldest event
    /// first (creation synthesized from its stamped tick). Works on live
    /// and tombstoned annotations alike; hard-deleted ids are unknown.
    pub fn history(&self, id: AnnotationId) -> Result<ExecOutcome> {
        Ok(ExecOutcome::History {
            annotation: id,
            events: self.store.history(id)?,
        })
    }

    /// Convenience: executes a single SELECT and returns its result.
    /// Shared access suffices: queries never touch durable state.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        match self.execute_read(single_select(sql)?)? {
            ExecOutcome::Query(q) => Ok(q),
            _ => unreachable!("select statements produce query outcomes"),
        }
    }

    /// Executes a SELECT *without* registering the result for zoom-in
    /// (no QID, no cache write). Benchmarks use this to isolate pure
    /// propagation cost; interactive callers should prefer
    /// [`Database::query`]. The returned QID is 0 and not zoomable.
    pub fn query_uncached(&self, sql: &str) -> Result<QueryResult> {
        let Statement::Select(sel) = single_select(sql)? else {
            unreachable!("single_select returns selects only")
        };
        let plan = Planner::new(&self.catalog, &self.registry).plan_select(&sel)?;
        let mut executor = match self.config.parallelism {
            Some(threads) => Executor::with_parallelism(&self.catalog, &self.registry, threads),
            None => Executor::new(&self.catalog, &self.registry),
        };
        let rows = executor.execute(&plan)?;
        Ok(QueryResult {
            qid: Qid::new(0),
            schema: plan.schema().clone(),
            rows,
        })
    }

    /// Executes a SELECT with per-operator tracing (demo scenario 3).
    pub fn query_traced(&self, sql: &str) -> Result<(QueryResult, TraceLog)> {
        let Statement::Select(sel) = single_select(sql)? else {
            unreachable!("single_select returns selects only")
        };
        let (result, trace) = self.run_select(&sel, true)?;
        Ok((result, trace.expect("tracing requested")))
    }

    /// Plans a SELECT without executing it (`EXPLAIN`, benches).
    pub fn plan_sql(&self, sql: &str) -> Result<LogicalPlan> {
        let Statement::Select(sel) = single_select(sql)? else {
            unreachable!("single_select returns selects only")
        };
        Planner::new(&self.catalog, &self.registry).plan_select(&sel)
    }

    /// Executes a SELECT through the raw-propagation baseline engine
    /// (experiment E2). Raw annotations (content included) travel with
    /// every tuple.
    pub fn query_raw(&self, sql: &str) -> Result<Vec<RawRow>> {
        let plan = self.plan_sql(sql)?;
        RawExecutor::new(&self.catalog, &self.store).execute(&plan)
    }

    /// Renders a result set (rows + summary objects) in the paper's
    /// notation, one line per tuple.
    pub fn render_result(&self, result: &QueryResult) -> String {
        let mut out = String::new();
        let cols: Vec<String> = result
            .schema
            .columns()
            .iter()
            .map(Column::display_name)
            .collect();
        out.push_str(&format!("QID {} | {}\n", result.qid, cols.join(", ")));
        for r in &result.rows {
            out.push_str(&render_row_resolved(r, &self.registry, Some(&self.store)));
            out.push('\n');
        }
        out
    }

    fn run_select(
        &self,
        sel: &SelectStmt,
        traced: bool,
    ) -> Result<(QueryResult, Option<TraceLog>)> {
        if let Some(t) = sel.as_of {
            if traced {
                return Err(Error::Execution(
                    "AS OF queries run against an ephemeral summary view and cannot be traced"
                        .into(),
                ));
            }
            return self.run_select_as_of(sel, t);
        }
        let plan = Planner::new(&self.catalog, &self.registry).plan_select(sel)?;
        let complexity = estimate_cost(&plan, &self.catalog).cost;
        let mut executor = if traced {
            Executor::with_trace(&self.catalog, &self.registry)
        } else {
            match self.config.parallelism {
                Some(threads) => Executor::with_parallelism(&self.catalog, &self.registry, threads),
                None => Executor::new(&self.catalog, &self.registry),
            }
        };
        let rows = executor.execute(&plan)?;
        let schema = plan.schema().clone();
        // Only the QID/result-cache registration needs the session lock;
        // planning and execution above run fully concurrently.
        let qid = self
            .zoom
            .lock()
            .register(schema.clone(), plan, &rows, complexity)?;
        Ok((QueryResult { qid, schema, rows }, executor.trace))
    }

    /// `SELECT ... AS OF <tick>`: runs the query against an ephemeral
    /// summary view reconstructed from the annotation set as it existed
    /// at logical tick `t` — live annotations created by then plus
    /// tombstones retired after it. Rows and schema are current (data
    /// time travel is out of scope; the annotation timeline is the
    /// paper's axis), and the result is not registered for zoom-in
    /// (QID 0): a cached plan re-executed later could not reproduce the
    /// historical view.
    fn run_select_as_of(
        &self,
        sel: &SelectStmt,
        t: u64,
    ) -> Result<(QueryResult, Option<TraceLog>)> {
        let registry = self.registry_as_of(t)?;
        let plan = Planner::new(&self.catalog, &registry).plan_select(sel)?;
        let mut executor = Executor::new(&self.catalog, &registry);
        let rows = executor.execute(&plan)?;
        Ok((
            QueryResult {
                qid: Qid::new(0),
                schema: plan.schema().clone(),
                rows,
            },
            None,
        ))
    }

    /// Reconstructs an ephemeral summary registry reflecting the
    /// annotation timeline at tick `t`. The registry is deep-copied
    /// through its snapshot codec (instances, links, and digest state
    /// travel; shared live objects stay untouched), then every row that
    /// is annotated now *or* was annotated at `t` is rebuilt from the
    /// as-of annotation list — rows that gained annotations after `t`
    /// shed them, retracted ones reappear.
    pub(crate) fn registry_as_of(&self, t: u64) -> Result<SummaryRegistry> {
        use insightnotes_common::codec::{Decoder, Encodable, Encoder};
        let mut enc = Encoder::with_capacity(4096);
        self.registry.encode(&mut enc);
        let bytes = enc.finish();
        let mut registry = SummaryRegistry::decode(&mut Decoder::new(&bytes))?;

        let past = self.store.as_of(t);
        type RowAnns<'a> = Vec<(AnnotationId, ColSig, &'a AnnotationBody)>;
        let mut by_row: BTreeMap<(TableId, RowId), RowAnns> = BTreeMap::new();
        for (id, ann) in &past {
            for tgt in &ann.targets {
                by_row
                    .entry((tgt.table, tgt.row))
                    .or_default()
                    .push((*id, tgt.cols, &ann.body));
            }
        }
        let mut rows: std::collections::BTreeSet<(TableId, RowId)> =
            by_row.keys().copied().collect();
        for (_, ann) in self.store.as_of(u64::MAX) {
            for tgt in &ann.targets {
                rows.insert((tgt.table, tgt.row));
            }
        }
        let catalog = &self.catalog;
        for (table, row) in rows {
            let anns = by_row.get(&(table, row)).map_or(&[][..], Vec::as_slice);
            registry.rebuild_row(table, row, anns, &|t, r| tuple_context(catalog, t, r))?;
        }
        Ok(registry)
    }

    // -- annotations -------------------------------------------------------

    fn add_annotation_stmt(
        &mut self,
        text: String,
        document: Option<String>,
        author: Option<String>,
        table: &str,
        columns: &[String],
        where_clause: Option<Expr>,
    ) -> Result<ExecOutcome> {
        let (id, targets) =
            self.stage_annotation(text, document, author, table, columns, where_clause)?;
        let catalog = &self.catalog;
        let store = &self.store;
        let registry = &mut self.registry;
        let maintenance = refresh_after_add(
            registry,
            store,
            id,
            &|t, r| tuple_context(catalog, t, r),
            self.config.maintenance,
        )?;
        Ok(ExecOutcome::Annotated {
            annotation: id,
            targets,
            maintenance,
        })
    }

    /// Stages one `ADD ANNOTATION`: resolves the covered columns and
    /// target rows, ticks the logical clock, and inserts into the store —
    /// everything short of refreshing summaries, which single-statement
    /// execution does immediately and [`Database::annotate_batch`] defers
    /// to one amortized pass. Returns the new id and its target count.
    fn stage_annotation(
        &mut self,
        text: String,
        document: Option<String>,
        author: Option<String>,
        table: &str,
        columns: &[String],
        where_clause: Option<Expr>,
    ) -> Result<(AnnotationId, usize)> {
        let (tid, cols, rows) = resolve_annotation_targets(
            &self.catalog,
            &self.registry,
            &self.registry,
            table,
            columns,
            where_clause,
        )?;
        let targets: Vec<Target> = rows
            .into_iter()
            .map(|rid| Target::new(tid, rid, cols))
            .collect();
        let n = targets.len();

        let mut body = AnnotationBody::text(text, author.unwrap_or_else(|| "anonymous".into()));
        body.created = self.clock.tick();
        if let Some(doc) = document {
            body = body.with_document(doc);
        }
        let id = self.store.add(body, targets)?;
        Ok((id, n))
    }

    /// Executes a batch of `ADD ANNOTATION` statements under **one**
    /// exclusive-lock acquisition with amortized maintenance. Every item
    /// gets its own result — a failing statement (unknown table, empty
    /// target set) does not abort the rest of the batch.
    ///
    /// Staging (predicate resolution, clock ticks, store inserts) runs
    /// item by item exactly as [`Database::execute`] would, so the
    /// resulting store and snapshot bytes are identical to a serial
    /// replay. Maintenance then runs once over the whole batch, grouped
    /// by `(table, row)`: one summary-object unshare per touched
    /// `(row, instance)` pair and one tuple-context rendering per row,
    /// instead of one of each per annotation. Within a batch, `WHERE`
    /// predicates over summary components observe the summary state as
    /// of batch start (maintenance is deferred to the end).
    pub fn annotate_batch(&mut self, stmts: Vec<Statement>) -> Vec<Result<ExecOutcome>> {
        if self.wal.is_some() {
            let err = || {
                Err(Error::Execution(
                    "write-ahead logging records statements by source text; submit \
                     annotation batches through annotate_batch_sql on a WAL-enabled database"
                        .into(),
                ))
            };
            return stmts.iter().map(|_| err()).collect();
        }
        self.annotate_batch_inner(stmts)
    }

    /// [`Database::annotate_batch`] with source texts attached: on a
    /// WAL-enabled database the whole batch is appended as **one** log
    /// record before any item stages — the group-commit unit the server's
    /// committer fsyncs once per drained queue. If the append itself
    /// fails, no item executes and every item reports the failure.
    pub fn annotate_batch_sql(&mut self, stmts: Vec<SqlStatement>) -> Vec<Result<ExecOutcome>> {
        let (texts, parsed): (Vec<String>, Vec<Statement>) =
            stmts.into_iter().map(|s| (s.sql, s.stmt)).unzip();
        if self.wal.is_some() {
            if let Err(e) = self.wal_append(&WalRecord::Batch { statements: texts }) {
                let msg = format!("write-ahead log append failed: {e}");
                return parsed
                    .iter()
                    .map(|_| Err(Error::Execution(msg.clone())))
                    .collect();
            }
        }
        self.annotate_batch_inner(parsed)
    }

    fn annotate_batch_inner(&mut self, stmts: Vec<Statement>) -> Vec<Result<ExecOutcome>> {
        let mut results: Vec<Option<Result<ExecOutcome>>> = Vec::new();
        results.resize_with(stmts.len(), || None);
        let mut staged: Vec<(usize, AnnotationId, usize)> = Vec::new();
        for (i, stmt) in stmts.into_iter().enumerate() {
            match stmt {
                Statement::AddAnnotation {
                    text,
                    document,
                    author,
                    table,
                    columns,
                    where_clause,
                } => match self.stage_annotation(
                    text,
                    document,
                    author,
                    &table,
                    &columns,
                    where_clause,
                ) {
                    Ok((id, targets)) => staged.push((i, id, targets)),
                    Err(e) => results[i] = Some(Err(e)),
                },
                _ => {
                    results[i] = Some(Err(Error::Execution(
                        "annotation batches accept only ADD ANNOTATION statements".into(),
                    )));
                }
            }
        }
        let ids: Vec<AnnotationId> = staged.iter().map(|&(_, id, _)| id).collect();
        match self.batch_refresh(&ids) {
            Ok(mut per_ann) => {
                for (i, id, targets) in staged {
                    results[i] = Some(Ok(ExecOutcome::Annotated {
                        annotation: id,
                        targets,
                        maintenance: per_ann.remove(&id).unwrap_or_default(),
                    }));
                }
            }
            Err(e) => {
                let msg = format!("batch maintenance failed: {e}");
                for (i, _, _) in staged {
                    results[i] = Some(Err(Error::Summary(msg.clone())));
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch item resolved"))
            .collect()
    }

    /// Typed batch ingestion: the [`Database::annotate_rows`] equivalent
    /// of [`Database::annotate_batch`]. Items are staged in order (same
    /// clock ticks and annotation ids as one-by-one calls), then
    /// summaries refresh in one amortized pass.
    pub fn annotate_rows_batch(&mut self, items: Vec<RowAnnotation>) -> Vec<Result<AnnotationId>> {
        if self.wal.is_some() {
            let record = WalRecord::Rows {
                items: items.iter().map(wal_row_item).collect(),
            };
            if let Err(e) = self.wal_append(&record) {
                let msg = format!("write-ahead log append failed: {e}");
                return items
                    .iter()
                    .map(|_| Err(Error::Execution(msg.clone())))
                    .collect();
            }
        }
        let mut results: Vec<Option<Result<AnnotationId>>> = Vec::new();
        results.resize_with(items.len(), || None);
        let mut staged: Vec<(usize, AnnotationId)> = Vec::new();
        for (i, item) in items.into_iter().enumerate() {
            match self.stage_row_annotation(item) {
                Ok(id) => staged.push((i, id)),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        let ids: Vec<AnnotationId> = staged.iter().map(|&(_, id)| id).collect();
        match self.batch_refresh(&ids) {
            Ok(_) => {
                for (i, id) in staged {
                    results[i] = Some(Ok(id));
                }
            }
            Err(e) => {
                let msg = format!("batch maintenance failed: {e}");
                for (i, _) in staged {
                    results[i] = Some(Err(Error::Summary(msg.clone())));
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch item resolved"))
            .collect()
    }

    fn stage_row_annotation(&mut self, item: RowAnnotation) -> Result<AnnotationId> {
        let tid = self.catalog.table_id(&item.table)?;
        let mut body = item.body;
        body.created = self.clock.tick();
        let targets: Vec<Target> = item
            .rows
            .iter()
            .map(|&r| Target::new(tid, r, item.cols))
            .collect();
        self.store.add(body, targets)
    }

    /// Pre-stamped batch ingestion for the shard router: like
    /// [`Database::annotate_rows_batch`], but each item carries the
    /// annotation id and clock tick the router already allocated, so
    /// every shard that stores (a slice of) the same annotation agrees
    /// on its identity and timestamp. On a WAL-enabled database the
    /// whole batch is logged as one [`WalRecord::Stamped`] record before
    /// any item stages.
    ///
    /// Failure semantics mirror serial staging: an unknown table fails
    /// before the tick is consumed; an empty target list consumes the
    /// tick (the clock advances past it) but stores nothing.
    pub fn annotate_rows_batch_stamped(
        &mut self,
        items: Vec<StampedRowAnnotation>,
    ) -> Vec<Result<ExecOutcome>> {
        if self.wal.is_some() {
            let record = WalRecord::Stamped {
                items: items.iter().map(wal_stamped_item).collect(),
            };
            if let Err(e) = self.wal_append(&record) {
                let msg = format!("write-ahead log append failed: {e}");
                return items
                    .iter()
                    .map(|_| Err(Error::Execution(msg.clone())))
                    .collect();
            }
        }
        let mut results: Vec<Option<Result<ExecOutcome>>> = Vec::new();
        results.resize_with(items.len(), || None);
        let mut staged: Vec<(usize, AnnotationId, usize)> = Vec::new();
        for (i, s) in items.into_iter().enumerate() {
            match self.stage_stamped(s) {
                Ok((id, targets)) => staged.push((i, id, targets)),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        let ids: Vec<AnnotationId> = staged.iter().map(|&(_, id, _)| id).collect();
        match self.batch_refresh(&ids) {
            Ok(mut per_ann) => {
                for (i, id, targets) in staged {
                    results[i] = Some(Ok(ExecOutcome::Annotated {
                        annotation: id,
                        targets,
                        maintenance: per_ann.remove(&id).unwrap_or_default(),
                    }));
                }
            }
            Err(e) => {
                let msg = format!("batch maintenance failed: {e}");
                for (i, _, _) in staged {
                    results[i] = Some(Err(Error::Summary(msg.clone())));
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch item resolved"))
            .collect()
    }

    /// Stages one pre-stamped annotation: advances the clock to the
    /// router-allocated tick, then stores under the router-allocated id.
    ///
    /// Target rows are re-validated against the (replicated) table:
    /// the router resolved them under shard read guards that were
    /// dropped before this shard's write lock was taken, so a
    /// replicated `DELETE FROM` broadcast may have removed rows in
    /// between — attaching to them would fabricate a state no serial
    /// schedule produces. Vanished rows are skipped; an annotation
    /// whose every target vanished fails (tick consumed, nothing
    /// stored), matching the serial schedule in which the delete
    /// committed first. The filter reads only this shard's own state,
    /// so WAL replay of the stamped record re-derives the identical
    /// target set.
    fn stage_stamped(&mut self, s: StampedRowAnnotation) -> Result<(AnnotationId, usize)> {
        let tid = self.catalog.table_id(&s.item.table)?;
        self.clock.advance_to(s.tick);
        let mut body = s.item.body;
        body.created = s.tick;
        let table = self.catalog.table(tid)?;
        let targets: Vec<Target> = s
            .item
            .rows
            .iter()
            .filter(|&&r| table.get(r).is_some())
            .map(|&r| Target::new(tid, r, s.item.cols))
            .collect();
        if targets.is_empty() && !s.item.rows.is_empty() {
            return Err(Error::Annotation(format!(
                "annotation {} targets only rows deleted before it committed",
                s.id
            )));
        }
        let n = targets.len();
        let id = self.store.add_at(AnnotationId::new(s.id), body, targets)?;
        Ok((id, n))
    }

    /// One maintenance pass over a batch of freshly stored annotations.
    /// Returns per-annotation maintenance counters that match what a
    /// serial one-by-one replay would have reported for each annotation.
    /// Under [`MaintenanceMode::Incremental`] work is grouped by
    /// `(table, row)`; under [`MaintenanceMode::Rebuild`] each
    /// annotation re-summarizes its target rows from the rows' history
    /// up to that annotation — exactly the serial sequence, so both the
    /// resulting state and the per-annotation attribution coincide with
    /// serial replay.
    fn batch_refresh(
        &mut self,
        ids: &[AnnotationId],
    ) -> Result<HashMap<AnnotationId, MaintenanceStats>> {
        let mut per_ann: HashMap<AnnotationId, MaintenanceStats> = ids
            .iter()
            .map(|&id| (id, MaintenanceStats::default()))
            .collect();
        if ids.is_empty() {
            return Ok(per_ann);
        }
        let mut by_row: BTreeMap<(TableId, RowId), Vec<(AnnotationId, ColSig)>> = BTreeMap::new();
        let mut bodies: HashMap<AnnotationId, &AnnotationBody> = HashMap::new();
        let mut in_order: Vec<(AnnotationId, &AnnotationBody, &[Target])> =
            Vec::with_capacity(ids.len());
        for &id in ids {
            let ann = self.store.get(id)?;
            bodies.insert(id, &ann.body);
            in_order.push((id, &ann.body, ann.targets.as_slice()));
            for t in &ann.targets {
                by_row
                    .entry((t.table, t.row))
                    .or_default()
                    .push((id, t.cols));
            }
        }
        let catalog = &self.catalog;
        let store = &self.store;
        let registry = &mut self.registry;
        match self.config.maintenance {
            MaintenanceMode::Incremental => {
                // Digest in arrival order before any row-grouped work:
                // digesting interns cluster-vocabulary terms, whose ids
                // must be assigned in the order a serial replay would
                // assign them for the batch to stay byte-identical to
                // one-by-one ingest.
                registry.warm_digests(&in_order, &|t, r| tuple_context(catalog, t, r))?;
                registry.apply_annotations_batch(
                    &by_row,
                    &bodies,
                    &|t, r| tuple_context(catalog, t, r),
                    &mut per_ann,
                )?;
            }
            MaintenanceMode::Rebuild => {
                // Serial replay rebuilds each target row once per added
                // annotation, seeing only annotations up to and
                // including it. Replicating that sequence (rather than
                // one final rebuild per row) keeps both the digest /
                // vocabulary order and the per-annotation stats
                // attribution identical to serial ingest; no warm-up
                // pass is needed because this *is* the serial order.
                for &(id, _, targets) in &in_order {
                    for t in targets {
                        let on_row = store.on_row(t.table, t.row).to_vec();
                        let mut anns: Vec<(AnnotationId, ColSig, &AnnotationBody)> =
                            Vec::with_capacity(on_row.len());
                        for (aid, cols) in &on_row {
                            if *aid > id {
                                continue;
                            }
                            anns.push((*aid, *cols, &store.get(*aid)?.body));
                        }
                        let stats = registry.rebuild_row(t.table, t.row, &anns, &|t, r| {
                            tuple_context(catalog, t, r)
                        })?;
                        per_ann.entry(id).or_default().absorb(stats);
                    }
                }
            }
        }
        Ok(per_ann)
    }

    /// Row ids of `table` satisfying `predicate` (`None` = all rows).
    fn matching_rows(&self, table: TableId, predicate: Option<&SExpr>) -> Result<Vec<RowId>> {
        matching_rows_with(&self.catalog, &self.registry, table, predicate)
    }

    /// Typed annotation API (used by the workload loader): attaches one
    /// annotation to explicit row ids.
    pub fn annotate_rows(
        &mut self,
        table: &str,
        rows: &[RowId],
        cols: ColSig,
        body: AnnotationBody,
    ) -> Result<AnnotationId> {
        if self.wal.is_some() {
            self.wal_append(&WalRecord::Rows {
                items: vec![WalRowAnnotation {
                    table: table.to_string(),
                    rows: rows.iter().map(|r| r.raw()).collect(),
                    cols: cols.bits(),
                    text: body.text.clone(),
                    document: body.document.clone(),
                    author: body.author.clone(),
                }],
            })?;
        }
        let tid = self.catalog.table_id(table)?;
        let mut body = body;
        body.created = self.clock.tick();
        let targets: Vec<Target> = rows.iter().map(|&r| Target::new(tid, r, cols)).collect();
        let id = self.store.add(body, targets)?;
        let catalog = &self.catalog;
        let store = &self.store;
        let registry = &mut self.registry;
        refresh_after_add(
            registry,
            store,
            id,
            &|t, r| tuple_context(catalog, t, r),
            self.config.maintenance,
        )?;
        Ok(id)
    }

    /// Typed annotation API: attaches one annotation to targets that may
    /// span tables (the paper's "same annotation attached to both tuples
    /// r and s" case behind join-merge double-count avoidance).
    pub fn annotate_targets(
        &mut self,
        targets: Vec<(TableId, RowId, ColSig)>,
        body: AnnotationBody,
    ) -> Result<AnnotationId> {
        if self.wal.is_some() {
            self.wal_append(&WalRecord::Targets {
                targets: targets
                    .iter()
                    .map(|&(t, r, c)| (t.raw(), r.raw(), c.bits()))
                    .collect(),
                text: body.text.clone(),
                document: body.document.clone(),
                author: body.author.clone(),
            })?;
        }
        let mut body = body;
        body.created = self.clock.tick();
        let targets: Vec<Target> = targets
            .into_iter()
            .map(|(t, r, c)| Target::new(t, r, c))
            .collect();
        let id = self.store.add(body, targets)?;
        let catalog = &self.catalog;
        let store = &self.store;
        let registry = &mut self.registry;
        refresh_after_add(
            registry,
            store,
            id,
            &|t, r| tuple_context(catalog, t, r),
            self.config.maintenance,
        )?;
        Ok(id)
    }

    // -- summary instances ---------------------------------------------------

    fn create_instance_stmt(&mut self, ci: CreateInstanceStmt) -> Result<ExecOutcome> {
        let name = ci.name().to_string();
        let def = match ci {
            CreateInstanceStmt::Classifier {
                name,
                labels,
                training,
                annotation_invariant,
                data_invariant,
            } => {
                let mut model = NaiveBayes::new(labels);
                for (label, text) in &training {
                    let ix = model.label_index(label).ok_or_else(|| {
                        Error::Summary(format!("training pair uses unknown label `{label}`"))
                    })?;
                    model.train(ix, text);
                }
                InstanceDef::Classifier {
                    name,
                    model,
                    properties: InstanceProperties {
                        annotation_invariant,
                        data_invariant,
                    },
                }
            }
            CreateInstanceStmt::Cluster { name, threshold } => InstanceDef::Cluster {
                name,
                config: ClusterConfig {
                    threshold: threshold as f32,
                    ..ClusterConfig::default()
                },
                properties: InstanceProperties::default(),
            },
            CreateInstanceStmt::Snippet {
                name,
                max_sentences,
                max_chars,
                min_source,
            } => InstanceDef::Snippet {
                name,
                config: SnippetConfig {
                    max_sentences: max_sentences as usize,
                    max_chars: max_chars as usize,
                    ..SnippetConfig::default()
                },
                min_source_bytes: min_source as usize,
                properties: InstanceProperties::default(),
            },
        };
        let id = self.registry.create_instance(def)?;
        Ok(ExecOutcome::InstanceCreated { name, id })
    }

    // -- zoom-in ------------------------------------------------------------

    /// Executes a zoom-in command (Figure 3). Shared access suffices;
    /// cache reads / re-executions serialize on the interior zoom lock.
    pub fn zoom_in(&self, stmt: &ZoomInStmt) -> Result<ZoomInResult> {
        let qid = Qid::new(stmt.qid);
        let info_schema = self.zoom.lock().info(qid)?.schema.clone();
        let planner = Planner::new(&self.catalog, &self.registry);
        let predicate = stmt
            .where_clause
            .as_ref()
            .map(|w| planner.bind_expr(w, &info_schema))
            .transpose()?;
        let instance = self.registry.instance_id(&stmt.instance)?;
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

        let (rows, from_cache) = self
            .zoom
            .lock()
            .fetch_rows(qid, &self.catalog, &self.registry)?;
        let mut ids = insightnotes_common::IdSet::new();
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
            let ann = self.store.get(AnnotationId::new(id))?;
            annotations.push(ZoomedAnnotation {
                id: AnnotationId::new(id),
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
}

/// Row ids of `table` satisfying `predicate` (`None` = all rows), with
/// summary-component predicate parts read from an explicit
/// [`crate::exec::ObjectSource`] — the shard router passes its
/// cross-shard facade so predicates over summaries see each row's
/// owning shard. A top-level `col = const` conjunct on an indexed
/// column probes the hash index instead of scanning; the full predicate
/// is still verified per candidate.
pub(crate) fn matching_rows_with(
    catalog: &Catalog,
    objects: &(dyn crate::exec::ObjectSource + Sync),
    table: TableId,
    predicate: Option<&SExpr>,
) -> Result<Vec<RowId>> {
    let t = catalog.table(table)?;
    let mut out = Vec::new();
    let probe = predicate.and_then(|p| {
        let mut conjuncts = Vec::new();
        flatten_and(p, &mut conjuncts);
        conjuncts.into_iter().find_map(|c| match c {
            SExpr::Cmp(insightnotes_storage::CmpOp::Eq, l, r) => match (&*l, &*r) {
                (SExpr::Column(col), SExpr::Literal(v))
                | (SExpr::Literal(v), SExpr::Column(col))
                    if !v.is_null() && t.has_index(*col as u16) =>
                {
                    Some((*col as u16, v.clone()))
                }
                _ => None,
            },
            _ => None,
        })
    });
    if let Some((col, value)) = probe {
        let rids: Vec<RowId> = t
            .index_lookup(col, &value)
            .expect("has_index checked")
            .to_vec();
        for rid in rids {
            let row = t.get(rid).expect("index points at live rows");
            let ok = match predicate {
                Some(p) => p.satisfied_parts(row, objects.objects_on(table, rid))?,
                None => true,
            };
            if ok {
                out.push(rid);
            }
        }
    } else {
        for (rid, row) in t.scan() {
            let ok = match predicate {
                Some(p) => p.satisfied_parts(row, objects.objects_on(table, rid))?,
                None => true,
            };
            if ok {
                out.push(rid);
            }
        }
    }
    Ok(out)
}

/// Resolves one `ADD ANNOTATION`'s covered columns and target rows —
/// the read-only half of staging, shared between serial staging and the
/// shard router (which resolves under read guards, stamps, then routes
/// each target row to its owning shard). Errors exactly as serial
/// staging would: unknown table / column first, then an empty match set.
pub(crate) fn resolve_annotation_targets(
    catalog: &Catalog,
    registry: &SummaryRegistry,
    objects: &(dyn crate::exec::ObjectSource + Sync),
    table: &str,
    columns: &[String],
    where_clause: Option<Expr>,
) -> Result<(TableId, ColSig, Vec<RowId>)> {
    let tid = catalog.table_id(table)?;
    let schema = catalog.table(tid)?.schema().clone();
    let qualified = schema.qualify(table);

    // Resolve covered columns (empty list = whole row).
    let cols = if columns.is_empty() {
        ColSig::whole_row(schema.arity())
    } else {
        let mut ids = Vec::with_capacity(columns.len());
        for c in columns {
            ids.push(ColumnId::new(schema.resolve(None, c)? as u16));
        }
        ColSig::of_columns(&ids)
    };

    // Find target rows (through an index when the predicate allows).
    let predicate = where_clause
        .map(|w| Planner::new(catalog, registry).bind_expr(&w, &qualified))
        .transpose()?;
    let rows = matching_rows_with(catalog, objects, tid, predicate.as_ref())?;
    if rows.is_empty() {
        return Err(Error::Annotation(
            "annotation matched no rows; nothing attached".into(),
        ));
    }
    Ok((tid, cols, rows))
}

/// Splits a conjunction into its top-level conjuncts.
fn flatten_and(e: &SExpr, out: &mut Vec<SExpr>) {
    match e {
        SExpr::And(l, r) => {
            flatten_and(l, out);
            flatten_and(r, out);
        }
        other => out.push(other.clone()),
    }
}

/// Renders a lossless `CORRECT ANNOTATION` statement (string fields
/// quoted with `''` doubling) — what the typed API and the shard router
/// log / route.
pub(crate) fn render_correct_sql(
    id: u64,
    text: &str,
    document: Option<&str>,
    author: Option<&str>,
    stamp: Option<(u64, u64)>,
) -> String {
    let mut sql = format!("CORRECT ANNOTATION {id} {}", quote_str(text));
    if let Some(d) = document {
        sql.push_str(" DOCUMENT ");
        sql.push_str(&quote_str(d));
    }
    if let Some(a) = author {
        sql.push_str(" AUTHOR ");
        sql.push_str(&quote_str(a));
    }
    if let Some((sid, tick)) = stamp {
        sql.push_str(&format!(" WITH ID {sid} AT {tick}"));
    }
    sql
}

/// The internal ` AT <tick>` suffix of a router-stamped `RETRACT` /
/// `FLAG ANNOTATION` (empty when the tick is local).
fn render_at(at: Option<u64>) -> String {
    at.map_or_else(String::new, |t| format!(" AT {t}"))
}

/// Projects a typed batch item into its log form (`created` excluded:
/// replay re-stamps it from the replayed clock).
fn wal_row_item(item: &RowAnnotation) -> WalRowAnnotation {
    WalRowAnnotation {
        table: item.table.clone(),
        rows: item.rows.iter().map(|r| r.raw()).collect(),
        cols: item.cols.bits(),
        text: item.body.text.clone(),
        document: item.body.document.clone(),
        author: item.body.author.clone(),
    }
}

/// Projects one pre-stamped batch item into its log form.
fn wal_stamped_item(s: &StampedRowAnnotation) -> WalStampedAnnotation {
    WalStampedAnnotation {
        id: s.id,
        tick: s.tick,
        item: wal_row_item(&s.item),
    }
}

/// Rebuilds an annotation body from its logged fields.
fn replay_body(text: &str, document: &Option<String>, author: &str) -> AnnotationBody {
    let mut body = AnnotationBody::text(text.to_string(), author.to_string());
    if let Some(d) = document {
        body = body.with_document(d.clone());
    }
    body
}

/// Renders a tuple's text content for data-variant summary instances.
fn tuple_context(catalog: &Catalog, table: TableId, row: RowId) -> Option<String> {
    let t = catalog.table(table).ok()?;
    let r = t.get(row)?;
    let mut out = String::new();
    for v in r.values() {
        if let Value::Text(s) = v {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(s);
        }
    }
    Some(out)
}

fn literal_value(lit: Literal) -> Value {
    match lit {
        Literal::Null => Value::Null,
        Literal::Int(v) => Value::Int(v),
        Literal::Float(v) => Value::Float(v),
        Literal::Str(s) => Value::Text(s),
        Literal::Bool(b) => Value::Bool(b),
    }
}

fn single_select(sql: &str) -> Result<Statement> {
    let stmt = insightnotes_sql::parse_one(sql)?;
    match stmt {
        Statement::Select(_) => Ok(stmt),
        other => Err(Error::Parse(format!(
            "expected a SELECT statement, found {other:?}"
        ))),
    }
}

impl std::fmt::Display for ExecOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecOutcome::TableCreated(n) => write!(f, "table `{n}` created"),
            ExecOutcome::TableDropped(n) => write!(f, "table `{n}` dropped"),
            ExecOutcome::Inserted { table, rows } => {
                write!(f, "{rows} row(s) inserted into `{table}`")
            }
            ExecOutcome::Annotated {
                annotation,
                targets,
                maintenance,
            } => write!(
                f,
                "annotation {annotation} attached to {targets} row(s) \
                 ({} digests, {} cache hits, {} object updates)",
                maintenance.digests_computed, maintenance.cache_hits, maintenance.objects_updated
            ),
            ExecOutcome::InstanceCreated { name, id } => {
                write!(f, "summary instance `{name}` created ({id})")
            }
            ExecOutcome::InstanceDropped(n) => write!(f, "summary instance `{n}` dropped"),
            ExecOutcome::Linked {
                instance,
                table,
                rows_rebuilt,
            } => write!(
                f,
                "summary `{instance}` linked to `{table}` ({rows_rebuilt} rows caught up)"
            ),
            ExecOutcome::Unlinked { instance, table } => {
                write!(f, "summary `{instance}` unlinked from `{table}`")
            }
            ExecOutcome::Query(q) => write!(f, "{} row(s), QID {}", q.rows.len(), q.qid),
            ExecOutcome::ZoomIn(z) => write!(
                f,
                "{} annotation(s) from {} matching row(s){}",
                z.annotations.len(),
                z.matched_rows,
                if z.from_cache {
                    " [cache]"
                } else {
                    " [re-executed]"
                }
            ),
            ExecOutcome::Explain(plan) => write!(f, "{plan}"),
            ExecOutcome::IndexChanged {
                table,
                column,
                created,
            } => write!(
                f,
                "index on `{table}` (`{column}`) {}",
                if *created { "created" } else { "dropped" }
            ),
            ExecOutcome::RowsDeleted { table, rows } => {
                write!(f, "{rows} row(s) deleted from `{table}`")
            }
            ExecOutcome::AnnotationDeleted {
                annotation,
                rows_refreshed,
            } => write!(
                f,
                "annotation {annotation} deleted; {rows_refreshed} row summaries rebuilt"
            ),
            ExecOutcome::AnnotationRetracted {
                annotation,
                rows_refreshed,
            } => write!(
                f,
                "annotation {annotation} retracted; {rows_refreshed} row summaries refreshed"
            ),
            ExecOutcome::AnnotationCorrected {
                annotation,
                successor,
                rows_refreshed,
            } => write!(
                f,
                "annotation {annotation} corrected by {successor}; \
                 {rows_refreshed} row summaries refreshed"
            ),
            ExecOutcome::AnnotationFlagged { annotation } => {
                write!(f, "annotation {annotation} flagged")
            }
            ExecOutcome::History { annotation, events } => {
                write!(f, "annotation {annotation}:")?;
                for e in events {
                    write!(f, " [{} at tick {}", e.kind, e.at)?;
                    if let Some(n) = &e.note {
                        write!(f, " ({n})")?;
                    }
                    if let Some(s) = e.successor {
                        write!(f, " -> {s}")?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
        }
    }
}
