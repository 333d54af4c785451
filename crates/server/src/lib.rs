#![warn(missing_docs)]
//! # insightnotes-server
//!
//! `insightd`: a concurrent TCP daemon serving one shared
//! [`Database`] to many client sessions over the
//! [`insightnotes_common::wire`] frame protocol.
//!
//! ## Session model
//!
//! A readiness-based **reactor** (see [`reactor`]): one accept loop
//! hands sockets round-robin to N worker event loops, each owning an
//! epoll set of nonblocking connections with per-connection frame
//! state machines. Requests are **pipelined** — a v2 client tags every
//! request with a sequence id and keeps many in flight on one
//! connection; reads complete (and may reorder) as the engine finishes
//! them, writes flow into the per-shard commit queues and ack in
//! commit (fsync) order. Serial v1 frames stay accepted on the same
//! port, answered in v1.
//!
//! The engine sits behind an `Arc<`[`ShardedDatabase`]`>` — N ≥ 1
//! partitioned [`Database`] shards behind one router, one shard being
//! the degenerate case of the same path. Read-class work (SELECT,
//! ZOOMIN, EXPLAIN) executes inline on the worker under shared locks;
//! replicated Write-class work (DDL, INSERT, registry changes)
//! broadcasts under exclusive locks in fixed shard order on a dedicated
//! execute thread. Queries from N sessions therefore execute
//! concurrently; writers to *different shards* do not serialize against
//! each other — and one stalled connection does not cost an OS thread.
//!
//! ## Group commit, per shard
//!
//! `Annotate` and `AnnotateBatch` frames do **not** take an exclusive
//! lock from their session thread. Each shard gets its own bounded
//! commit queue ([`ServerConfig::commit_queue_depth`]) and its own
//! committer thread. The session resolves targets and obtains
//! router-stamped ids/ticks ([`ShardedDatabase::prepare_sql_annotations`],
//! shard read guards dropped before any enqueue), then hands each owner
//! shard's slice to that shard's queue — all sends before any reply
//! wait, so disjoint shards group-commit **in parallel**. Each committer
//! drains whatever has accumulated into one
//! [`Database::annotate_rows_batch_stamped`] call — one exclusive-lock
//! acquisition per *group* of concurrent writers instead of one per
//! annotation. Per-statement results fan back out to the waiting
//! sessions (partial failure allowed within a batch). Every queue drains
//! fully on graceful shutdown: every enqueued writer still receives its
//! reply.
//!
//! ## Durability
//!
//! With a write-ahead log attached (`insightd --wal-dir`), each
//! committer is its shard's **group-fsync** point: the drained group
//! lands in that shard's WAL segment as one record before it executes,
//! one `fsync` covers it (under the `batch` sync policy), and replies
//! are released only **after** that fsync returns — an ack therefore
//! promises the annotation survives `kill -9` or power loss. A
//! multi-shard annotation acks only after *every* owner shard's fsync.
//! If an fsync fails, every would-be success in that shard's group is
//! converted to an error, because the ack's promise could not be kept.
//! `Execute` frames carrying writes follow the same discipline (log,
//! execute, sync, then reply). On restart, `insightd` recovers through
//! [`ShardedDatabase::recover`]: per-shard snapshot plus WAL-tail
//! replay, cross-checked against the shard manifest.
//!
//! ## Robustness
//!
//! - **Connection limit** — accepts beyond
//!   [`ServerConfig::max_connections`] are answered with a best-effort
//!   nonblocking error frame and closed; the accept loop never blocks
//!   on a refused client.
//! - **Progress deadlines** — `set_read_timeout`/`set_write_timeout`
//!   are silent no-ops on nonblocking sockets, so the reactor enforces
//!   deadlines itself with a timer wheel: a connection that is
//!   mid-frame (slowloris) or sitting on unflushed response bytes
//!   (stalled reader) and makes no socket progress for
//!   [`ServerConfig::request_timeout`] is evicted. Idle connections
//!   between frames are unbounded (idle REPL sessions stay up).
//! - **Backpressure** — per-connection in-flight caps and write-queue
//!   watermarks stop a flooding client from ballooning server memory;
//!   commit-queue saturation parks further writes from a connection
//!   (retried in order) instead of blocking a thread.
//! - **Graceful shutdown** — SIGINT/SIGTERM (see
//!   [`install_signal_handlers`]), a client `Shutdown` frame, or
//!   [`ServerHandle::shutdown`] all drain the same path: stop
//!   accepting, stop reading, let in-flight work finish and its acks
//!   flush (bounded by the request timeout), join the reactor and
//!   committers, then write a final [`insightnotes_engine::persist`]
//!   snapshot when a snapshot path is configured.
//!
//! ## Replication
//!
//! A WAL-attached primary also serves [`Request::Subscribe`]: the
//! session switches into a one-way streaming mode that bootstraps the
//! subscriber with a chunked snapshot when needed and then ships every
//! *committed* (fsynced, hence acked) WAL byte range as
//! [`Response::WalFrame`]s — see [`insightnotes_replication::feed`].
//! A server started in replica mode ([`ServerConfig::replica`]) serves
//! reads from locally applied state, answers
//! [`Request::ReplicaState`] with its applied position vector (the
//! read-your-writes handshake), and rejects every write with
//! [`Error::ReadOnlyReplica`] naming the primary.

pub mod reactor;

use insightnotes_common::wire::{
    self, BatchItem, HistoryPayload, Request, Response, RowsPayload, ShardPosition, WireAnnotation,
    WireError, WireLifecycleEvent, WireLifecycleKind, WireRow, WireValue, ZoomPayload,
};
use insightnotes_common::{AnnotationId, Error, Result};
use insightnotes_engine::db::{ExecOutcome, QueryResult, SqlStatement, ZoomInResult};
use insightnotes_engine::{Database, LifecycleKind, ShardedDatabase, StampedRowAnnotation};
use insightnotes_replication::feed::{self, FeedStart};
use insightnotes_replication::PositionTable;
use insightnotes_sql::{parse, Statement, StatementClass};
use insightnotes_storage::{Column, Value};
use parking_lot::witness::class as lock_class;
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum simultaneously served connections; excess connects get an
    /// error frame and are closed.
    pub max_connections: usize,
    /// Deadline for finishing one in-flight request frame (read of the
    /// remaining frame bytes) and for writing a response.
    pub request_timeout: Duration,
    /// How often blocked accept/read loops wake to check for shutdown.
    pub poll_interval: Duration,
    /// When set, a final durable snapshot is written here during
    /// graceful shutdown.
    pub snapshot_path: Option<PathBuf>,
    /// Capacity of the group-commit queue (in enqueued frames). Sessions
    /// whose `Annotate`/`AnnotateBatch` lands on a full queue block until
    /// the committer drains — natural backpressure on ingest bursts.
    pub commit_queue_depth: usize,
    /// When set, this server is a read replica: reads serve locally,
    /// writes are rejected with [`Error::ReadOnlyReplica`], and
    /// `ReplicaState` reports the tailers' applied positions.
    pub replica: Option<ReplicaServing>,
    /// Reactor worker (event-loop) threads. `0` means one per available
    /// core.
    pub reactor_workers: usize,
}

/// Replica-mode serving context: where writes should be redirected and
/// which applied positions to report.
#[derive(Debug, Clone)]
pub struct ReplicaServing {
    /// Primary address, quoted in `ReadOnlyReplica` rejections.
    pub primary: String,
    /// Applied-position table shared with the replica's tailer threads.
    pub positions: Arc<PositionTable>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            // Connections are event-loop entries now, not threads; the
            // default admits the 10k the reactor is built for.
            max_connections: 10_000,
            request_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(50),
            snapshot_path: None,
            commit_queue_depth: 256,
            replica: None,
            reactor_workers: 0,
        }
    }
}

/// Per-shard commit notification: the shard's committer bumps `seq`
/// after every successful group fsync and wakes all waiters, so a
/// caught-up replication feed ships the new frames immediately instead
/// of discovering them on its next poll tick. Steady-state replication
/// lag is then one ship + one apply, not the poll interval.
#[derive(Debug)]
struct CommitSignal {
    seq: Mutex<u64>,
    cond: Condvar,
}

impl Default for CommitSignal {
    fn default() -> Self {
        Self {
            seq: Mutex::new(0).with_class(lock_class::COMMIT_QUEUE),
            cond: Condvar::new(),
        }
    }
}

/// Shared mutable server state (the handle and every session see it).
#[derive(Debug)]
struct ServerState {
    config: ServerConfig,
    shutdown: AtomicBool,
    active: AtomicUsize,
    served: AtomicU64,
    /// One [`CommitSignal`] per shard.
    commits: Vec<CommitSignal>,
}

impl ServerState {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || signal_requested()
    }

    /// Current commit sequence for `shard` (0 if out of range).
    fn commit_seq(&self, shard: usize) -> u64 {
        self.commits.get(shard).map_or(0, |s| *s.seq.lock())
    }

    /// Bumps `shard`'s commit sequence and wakes every feed waiting on it.
    fn notify_commit(&self, shard: usize) {
        if let Some(s) = self.commits.get(shard) {
            *s.seq.lock() += 1;
            s.cond.notify_all();
        }
    }

    /// Blocks until `shard`'s commit sequence moves past `seen`, the
    /// timeout elapses, or a spurious wakeup fires — the caller's poll
    /// loop re-checks the committed watermark either way, so this only
    /// needs to be a bounded, prompt-on-commit wait.
    fn wait_commit_past(&self, shard: usize, seen: u64, timeout: Duration) {
        let Some(s) = self.commits.get(shard) else {
            std::thread::sleep(timeout);
            return;
        };
        let guard = s.seq.lock();
        if *guard != seen {
            return;
        }
        drop(s.cond.wait_timeout(guard, timeout));
    }

    fn begin_shutdown(&self) {
        // Just a flag: reactor workers poll it (within one poll
        // interval) and run the drain protocol themselves — no session
        // sockets to unblock, nothing here ever blocks.
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// A cheap clone-able handle for observing and stopping a running server.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Asks the server to shut down gracefully; returns immediately.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutting_down()
    }

    /// Total requests served so far, across all sessions.
    pub fn requests_served(&self) -> u64 {
        self.state.served.load(Ordering::Relaxed)
    }

    /// Currently live sessions.
    pub fn active_sessions(&self) -> usize {
        self.state.active.load(Ordering::Relaxed)
    }
}

/// The `insightd` server: a listener plus the shared database.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    db: Arc<ShardedDatabase>,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds a listener over the engine (`insightd --shards N` builds one
    /// via [`ShardedDatabase::recover`]). Use port 0 for an ephemeral
    /// port; read it back with [`Server::local_addr`].
    pub fn bind_sharded(
        addr: impl ToSocketAddrs,
        db: ShardedDatabase,
        config: ServerConfig,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        // Non-blocking accept lets the loop poll the shutdown flag.
        listener.set_nonblocking(true)?;
        let commits = (0..db.shard_count())
            .map(|_| CommitSignal::default())
            .collect();
        Ok(Self {
            listener,
            db: Arc::new(db),
            state: Arc::new(ServerState {
                config,
                shutdown: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                served: AtomicU64::new(0),
                commits,
            }),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// A handle for stopping/observing the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// The sharded engine behind the server.
    pub fn sharded_database(&self) -> Arc<ShardedDatabase> {
        Arc::clone(&self.db)
    }

    /// Serves connections until shutdown is requested, then drains the
    /// reactor and every shard's commit queue and writes the final
    /// snapshot (when configured). Returns the total requests served.
    pub fn run(self) -> Result<u64> {
        let depth = self.state.config.commit_queue_depth.max(1);
        let shard_count = self.db.shard_count();
        let mut txs = Vec::with_capacity(shard_count);
        let mut backlog = Vec::with_capacity(shard_count);
        let mut committers = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let (tx, rx) = mpsc::channel::<CommitJob>();
            let gauge = Arc::new(AtomicUsize::new(0));
            let db = Arc::clone(&self.db);
            let state = Arc::clone(&self.state);
            let g = Arc::clone(&gauge);
            committers.push(std::thread::spawn(move || {
                run_committer(rx, &db, shard, &state, &g);
            }));
            txs.push(tx);
            backlog.push(gauge);
        }
        let ctx = Arc::new(SessionCtx {
            db: Arc::clone(&self.db),
            state: Arc::clone(&self.state),
            queues: CommitQueues {
                txs: Mutex::new(txs).with_class(lock_class::COMMIT_QUEUE),
                backlog,
                depth,
            },
            execute_lane: ExecuteLane::start(),
            feeders: Mutex::new(Vec::new()).with_class(lock_class::REACTOR),
        });
        let workers = match self.state.config.reactor_workers {
            0 => std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            n => n,
        };
        let mut reactor =
            reactor::Reactor::start(workers, Arc::clone(&ctx) as Arc<dyn reactor::Ops>)?;
        // The (nonblocking) listener rides its own epoll set so a
        // connect wakes the accept loop immediately — sleeping a poll
        // interval between accept attempts would turn a burst of N
        // connects into N × interval of accept latency. The timeout
        // only bounds how stale the shutdown check can get.
        let accept_poll = {
            use std::os::fd::AsRawFd;
            let ep = reactor::epoll::Epoll::new()?;
            ep.add(
                self.listener.as_raw_fd(),
                0,
                reactor::epoll::Interest {
                    read: true,
                    write: false,
                    rdhup: false,
                },
            )?;
            ep
        };
        let mut ready = Vec::with_capacity(4);
        loop {
            if self.state.shutting_down() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.state.active.load(Ordering::Relaxed)
                        >= self.state.config.max_connections
                    {
                        refuse(&stream, &self.state.config);
                        continue;
                    }
                    // Count the slot before handing off; the worker (or a
                    // failed hand-off) releases it.
                    self.state.active.fetch_add(1, Ordering::Relaxed);
                    if !reactor.assign(stream) {
                        self.state.active.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    accept_poll.wait_ready(&mut ready, Some(self.state.config.poll_interval))?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Fd exhaustion (EMFILE/ENFILE) is load, not a server
                // defect: back off and retry instead of tearing down
                // every established connection. (No epoll wait here —
                // the pending connection keeps the listener readable,
                // which would spin.)
                Err(e) if matches!(e.raw_os_error(), Some(23 | 24)) => {
                    std::thread::sleep(self.state.config.poll_interval);
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.state.begin_shutdown();
        // Drain order matters: workers first (they wait for in-flight
        // commit acks, flush write queues, close sockets), with the
        // committers and execute lane still live to produce those acks.
        reactor.join();
        ctx.execute_lane.join();
        ctx.join_feeders();
        // Now nothing can enqueue: closing the queues disconnects the
        // channels, each committer finishes whatever is still buffered
        // (mpsc delivers queued messages after disconnect) and exits.
        ctx.queues.close();
        for committer in committers {
            let _ = committer.join();
        }
        if let Some(path) = &self.state.config.snapshot_path {
            // With a WAL this is a checkpoint (durable snapshot, then log
            // rotation, per shard); without one it degrades to a plain
            // durable save.
            self.db.checkpoint(path)?;
        }
        Ok(self.state.served.load(Ordering::Relaxed))
    }
}

// -- group commit ---------------------------------------------------------

/// How a commit job's results get back to whoever is waiting: a
/// one-shot callback invoked **on the committer thread** after the
/// group's fsync, with one [`BatchItem`] per submitted item, in order.
/// In the reactor world "whoever is waiting" is a connection, and the
/// callback posts the encoded response back to its event loop.
type CommitReply = Box<dyn FnOnce(Vec<BatchItem>) + Send>;

/// One enqueued ingest frame — items already resolved and stamped by
/// the router, every one owned by this queue's shard — plus its
/// completion callback.
struct CommitJob {
    items: Vec<StampedRowAnnotation>,
    reply: CommitReply,
}

/// Every shard's commit queue plus the backlog gauges the reactor's
/// admission check reads. Queue channels are unbounded — depth is
/// enforced at *admission* ([`CommitQueues::all_ready`]): a connection
/// whose write lands on a saturated queue is parked by its event loop
/// and retried, instead of blocking an OS thread the way the old
/// bounded `sync_channel` did.
struct CommitQueues {
    txs: Mutex<Vec<mpsc::Sender<CommitJob>>>,
    backlog: Vec<Arc<AtomicUsize>>,
    depth: usize,
}

impl CommitQueues {
    /// Whether every shard's backlog is below the configured depth —
    /// the admission gate for new write frames.
    fn all_ready(&self) -> bool {
        self.backlog
            .iter()
            .all(|g| g.load(Ordering::Relaxed) < self.depth)
    }

    /// Enqueues one job's items on `shard`'s queue. Infallible from the
    /// caller's view: if the queue is closed (shutdown) or the shard is
    /// unknown, `reply` is invoked immediately with per-item errors —
    /// every submitted reply runs exactly once, always.
    fn submit(&self, shard: usize, items: Vec<StampedRowAnnotation>, reply: CommitReply) {
        let n = items.len();
        let tx = self.txs.lock().get(shard).cloned();
        let job = CommitJob { items, reply };
        let failed = match tx {
            Some(tx) => {
                let gauge = self.backlog.get(shard);
                if let Some(g) = gauge {
                    g.fetch_add(1, Ordering::Relaxed);
                }
                match tx.send(job) {
                    Ok(()) => None,
                    Err(mpsc::SendError(job)) => {
                        if let Some(g) = gauge {
                            g.fetch_sub(1, Ordering::Relaxed);
                        }
                        Some(job)
                    }
                }
            }
            None => Some(job),
        };
        if let Some(job) = failed {
            let item = BatchItem::Err(WireError::from(&Error::Execution(
                "commit queue closed (server shutting down)".into(),
            )));
            (job.reply)(vec![item; n]);
        }
    }

    /// Drops every sender; committers drain what is buffered and exit.
    fn close(&self) {
        self.txs.lock().clear();
    }
}

/// Converts one engine result into its wire item, poisoning would-be
/// successes when the group's fsync failed (the ack's durability
/// promise could not be kept).
fn batch_item(r: Result<ExecOutcome>, sync_err: Option<&Error>) -> BatchItem {
    match (r, sync_err) {
        (Ok(_), Some(e)) => BatchItem::Err(WireError::from(&Error::Execution(format!(
            "write-ahead log sync failed; write not durable: {e}"
        )))),
        (Ok(outcome), None) => BatchItem::Ok(outcome.to_string()),
        (Err(e), _) => BatchItem::Err(WireError::from(&e)),
    }
}

/// One shard's dedicated committer thread: each wake-up drains every
/// job that has accumulated in its queue (capped at
/// [`wire::MAX_BATCH_ITEMS`] items per group) and ingests the combined
/// lists through **one** exclusive-lock acquisition on its shard
/// ([`Database::annotate_rows_batch_stamped`]), then fsyncs that
/// shard's WAL segment (the group-commit point;
/// readers may proceed during the fsync, which only needs the shared
/// lock) and fans the per-item results back to the waiting sessions. A
/// failed fsync poisons every would-be success in the group. Exits when
/// every sender is gone and the queue is empty, which is what makes
/// shutdown lossless. N shards run N of these: N independent lock
/// domains and N overlapping fsync pipelines.
///
/// A failed fsync also poisons the *committer itself* for the rest of
/// its lifetime (mirroring the engine-level `Wal` poisoning): every
/// later group on this shard is rejected without executing. Were
/// commits allowed to resume after a sync failure, a previously
/// compensated (error-acked) annotation could silently resurrect on the
/// next successful fsync — the DESIGN.md §12 residual risk this
/// closes. Recovery is an operator restart, which replays only the
/// durable prefix.
fn run_committer(
    rx: mpsc::Receiver<CommitJob>,
    db: &ShardedDatabase,
    shard: usize,
    state: &ServerState,
    backlog: &AtomicUsize,
) {
    let mut poisoned: Option<String> = None;
    while let Ok(first) = rx.recv() {
        backlog.fetch_sub(1, Ordering::Relaxed);
        let mut queued = first.items.len();
        let mut jobs = vec![first];
        while queued < wire::MAX_BATCH_ITEMS {
            match rx.try_recv() {
                Ok(job) => {
                    backlog.fetch_sub(1, Ordering::Relaxed);
                    queued += job.items.len();
                    jobs.push(job);
                }
                Err(_) => break,
            }
        }
        let mut group = Vec::with_capacity(queued);
        // Per job: (item count, reply) — replies fan back out in order.
        let mut replies = Vec::with_capacity(jobs.len());
        for mut job in jobs {
            replies.push((job.items.len(), job.reply));
            group.append(&mut job.items);
        }
        if let Some(why) = &poisoned {
            let item = BatchItem::Err(WireError::from(&Error::Execution(format!(
                "shard {shard} commits are disabled after an earlier write-ahead-log \
                 sync failure: {why}"
            ))));
            for (n, reply) in replies {
                reply(vec![item.clone(); n]);
            }
            continue;
        }
        let handle = db.shard(shard);
        let results = handle.write().annotate_rows_batch_stamped(group);
        // Group-commit fsync *after* releasing the exclusive lock (sync
        // only needs `&self`), *before* releasing any reply.
        let sync_err = handle.read().wal_sync().err();
        if let Some(e) = &sync_err {
            poisoned = Some(e.to_string());
        } else {
            // The group is durable: move the committed watermark's
            // signal so caught-up replication feeds ship it now.
            state.notify_commit(shard);
        }
        let mut results = results.into_iter();
        for (n, reply) in replies {
            let items: Vec<BatchItem> = results
                .by_ref()
                .take(n)
                .map(|r| batch_item(r, sync_err.as_ref()))
                .collect();
            // The callback posts to the connection's event loop; a dead
            // connection just drops its response, everyone else's still
            // goes out.
            reply(items);
        }
    }
}

/// Routes one frame's `ADD ANNOTATION` statements into the commit
/// queue(s): the *session* resolves targets and obtains router stamps
/// (shard read guards acquired and dropped inside
/// [`ShardedDatabase::prepare_sql_annotations`], so no lock is held
/// across a queue send), then submits each owner shard's slice to that
/// shard's committer — all sends first, then all replies, so disjoint
/// shards commit and fsync in parallel. A multi-owner item
/// acks only once every owner shard has fsynced; any owner's failure
/// becomes the item's result — after the owners that did durably store
/// the replica are given a best-effort compensating delete
/// ([`ShardedDatabase::compensate_partial`]), so the reported failure
/// does not leave the annotation attached to a subset of its rows.
fn submit_annotations_async(
    db: &Arc<ShardedDatabase>,
    queues: &CommitQueues,
    stmts: Vec<SqlStatement>,
    done: CommitReply,
) {
    let prepared = db.prepare_sql_annotations(&stmts);
    let mut slots: Vec<Option<BatchItem>> = Vec::new();
    slots.resize_with(prepared.len(), || None);
    let mut ids: Vec<Option<AnnotationId>> = vec![None; slots.len()];
    let mut per_shard: BTreeMap<usize, (Vec<usize>, Vec<StampedRowAnnotation>)> = BTreeMap::new();
    for (i, p) in prepared.into_iter().enumerate() {
        match p {
            Err(e) => {
                if let Some(slot) = slots.get_mut(i) {
                    *slot = Some(BatchItem::Err(WireError::from(&e)));
                }
            }
            Ok(routed) => {
                if let Some(id) = ids.get_mut(i) {
                    *id = Some(AnnotationId::new(routed.stamped.id));
                }
                for &k in &routed.shards {
                    let (indices, batch) = per_shard.entry(k).or_default();
                    indices.push(i);
                    batch.push(routed.stamped.clone());
                }
            }
        }
    }
    if per_shard.is_empty() {
        // Every item failed preparation; nothing to enqueue.
        done(finalize_slots(slots));
        return;
    }
    let combine = Arc::new(
        Mutex::new(Combine {
            slots,
            ids,
            ok_shards: Vec::new(),
            ok_from: Vec::new(),
            remaining: per_shard.len(),
            done: Some(done),
        })
        .with_class(lock_class::REACTOR),
    );
    {
        let mut g = combine.lock();
        let n = g.slots.len();
        g.ok_shards.resize_with(n, Vec::new);
        g.ok_from = vec![None; n];
    }
    for (k, (indices, batch)) in per_shard {
        let combine = Arc::clone(&combine);
        let db = Arc::clone(db);
        queues.submit(
            k,
            batch,
            Box::new(move |items| {
                let mut g = combine.lock();
                let Combine {
                    slots,
                    ok_shards,
                    ok_from,
                    ..
                } = &mut *g;
                merge_shard_results(slots, ok_shards, ok_from, k, &indices, items);
                g.remaining = g.remaining.saturating_sub(1);
                if g.remaining == 0 {
                    // Last owner shard in (running on its committer
                    // thread): take the accumulated state out and
                    // release the combine mutex *before* compensating —
                    // compensation acquires shard write locks, which
                    // rank before the combine mutex in locks.toml.
                    let slots = std::mem::take(&mut g.slots);
                    let ids = std::mem::take(&mut g.ids);
                    let ok_shards = std::mem::take(&mut g.ok_shards);
                    let done = g.done.take();
                    drop(g);
                    compensate_failures(&db, &slots, &ids, &ok_shards);
                    if let Some(done) = done {
                        done(finalize_slots(slots));
                    }
                }
            }),
        );
    }
}

/// Accumulated state of one multi-shard annotation batch: per-item
/// result slots merged as each owner shard's committer reports in (in
/// any order), plus the bookkeeping compensation needs.
struct Combine {
    slots: Vec<Option<BatchItem>>,
    ids: Vec<Option<AnnotationId>>,
    /// Which shards acked each item (candidates for compensation).
    ok_shards: Vec<Vec<usize>>,
    /// Which shard produced each slot's standing `Ok` (so the winning
    /// message is the lowest shard's, independent of arrival order —
    /// same answer the old sequential collection produced).
    ok_from: Vec<Option<usize>>,
    remaining: usize,
    done: Option<CommitReply>,
}

/// Folds one owner shard's per-item results into the combine slots.
/// Multi-owner rule: any shard's failure wins; among successes the
/// lowest shard's message stands.
fn merge_shard_results(
    slots: &mut [Option<BatchItem>],
    ok_shards: &mut [Vec<usize>],
    ok_from: &mut [Option<usize>],
    k: usize,
    indices: &[usize],
    items: Vec<BatchItem>,
) {
    for (&i, item) in indices.iter().zip(items) {
        let Some(slot) = slots.get_mut(i) else {
            continue;
        };
        if matches!(item, BatchItem::Ok(_)) {
            if let Some(oks) = ok_shards.get_mut(i) {
                oks.push(k);
            }
        }
        let standing_ok_from = ok_from.get(i).copied().flatten();
        let replace = match (&slot, &item) {
            (Some(BatchItem::Err(_)), _) => false,
            (Some(BatchItem::Ok(_)), BatchItem::Err(_)) => true,
            (Some(BatchItem::Ok(_)), BatchItem::Ok(_)) => standing_ok_from.is_none_or(|w| k < w),
            (None, _) => true,
        };
        if replace {
            if let Some(w) = ok_from.get_mut(i) {
                *w = matches!(item, BatchItem::Ok(_)).then_some(k);
            }
            *slot = Some(item);
        }
    }
}

/// A multi-owner item that committed (and fsynced) on some owners but
/// failed — or lost its group fsync — on another is repaired before
/// the error goes out: the successful owners' replicas are deleted so
/// the acked failure converges to "not written".
fn compensate_failures(
    db: &ShardedDatabase,
    slots: &[Option<BatchItem>],
    ids: &[Option<AnnotationId>],
    ok_shards: &[Vec<usize>],
) {
    for ((slot, id), oks) in slots.iter().zip(ids).zip(ok_shards) {
        if matches!(slot, Some(BatchItem::Err(_))) && !oks.is_empty() {
            if let Some(id) = id {
                db.compensate_partial(*id, oks);
            }
        }
    }
}

fn finalize_slots(slots: Vec<Option<BatchItem>>) -> Vec<BatchItem> {
    slots
        .into_iter()
        .map(|s| {
            s.unwrap_or_else(|| {
                BatchItem::Err(WireError::from(&Error::Execution(
                    "batch slot missing a committer result".into(),
                )))
            })
        })
        .collect()
}

/// Turns away a connection over the limit with a structured error frame,
/// written under the same [`ServerConfig::request_timeout`] every other
/// response honors.
/// Best-effort refusal for an over-limit connection. Runs on the
/// accept thread, so it must never block: the socket goes nonblocking
/// and gets exactly one `write` attempt — a peer whose buffers are
/// already full simply sees the close.
fn refuse(stream: &TcpStream, config: &ServerConfig) {
    let _ = stream.set_nonblocking(true);
    let frame = wire::frame_bytes(&Response::Error(WireError::from(&Error::Execution(
        format!(
            "connection limit ({}) reached; try again later",
            config.max_connections
        ),
    ))));
    let _ = (&*stream).write(&frame);
}

// -- replication feed -----------------------------------------------------

/// Idle poll ticks between replication heartbeats (empty `WalFrame`s
/// that both prove liveness and detect a dead subscriber).
const HEARTBEAT_TICKS: u32 = 20;

/// A feeder thread's handle to its subscriber connection on the
/// reactor. Frames are queued through the worker's message channel; the
/// sink paces itself against the connection's shared write gauge so a
/// slow subscriber throttles its feeder instead of ballooning the
/// worker's buffers.
struct FeedSink {
    reply: reactor::ReplyTo,
    shared: Arc<reactor::ConnShared>,
}

impl FeedSink {
    /// Queues one frame, waiting out write backpressure. `Err` means
    /// the subscriber (or its worker) is gone and the feed should end.
    fn send(&self, resp: &Response) -> Result<()> {
        loop {
            if self.shared.closed.load(Ordering::Acquire) {
                return Err(Error::Execution("subscriber disconnected".into()));
            }
            if self.shared.pending_write_bytes.load(Ordering::Acquire) < reactor::HIGH_WATERMARK {
                if self.reply.stream_frame(resp) {
                    return Ok(());
                }
                return Err(Error::Execution("subscriber worker exited".into()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Serves one replication subscription until the stream breaks or the
/// server shuts down. Failures that are the subscriber's fault (bad
/// shard index, subscribing to a replica, WAL disabled) go out as a
/// structured error frame; delivery failures just end the feed — the
/// subscriber reconnects and resubscribes.
fn run_feed(
    sink: &FeedSink,
    db: &ShardedDatabase,
    state: &ServerState,
    shard: u32,
    epoch: u64,
    offset: u64,
) {
    if let Err(e) = try_run_feed(sink, db, state, shard, epoch, offset) {
        let _ = sink.send(&Response::Error(WireError::from(&e)));
    }
    sink.reply.end_stream();
}

fn try_run_feed(
    sink: &FeedSink,
    db: &ShardedDatabase,
    state: &ServerState,
    shard: u32,
    sub_epoch: u64,
    sub_offset: u64,
) -> Result<()> {
    if let Some(replica) = &state.config.replica {
        return Err(Error::Execution(format!(
            "this server is a replica; subscribe to the primary at {}",
            replica.primary
        )));
    }
    let shard_idx = usize::try_from(shard).unwrap_or(usize::MAX);
    if shard_idx >= db.shard_count() {
        return Err(Error::Execution(format!(
            "no shard {shard} on this primary ({} shard(s))",
            db.shard_count()
        )));
    }
    let handle = db.shard(shard_idx);
    let mut sub = (sub_epoch, sub_offset);
    'plan: loop {
        if state.shutting_down() {
            return Ok(());
        }
        // Decide how this subscriber joins: resume at its own position,
        // or snapshot-bootstrap it (also the path after an epoch
        // rotation mid-stream — the subscriber sees a fresh
        // SubscribeAck and discards its local shard state).
        let (epoch, mut cursor) = match feed::plan_feed(handle, sub.0, sub.1)? {
            FeedStart::Resume { epoch, offset } => {
                sink.send(&Response::SubscribeAck {
                    epoch,
                    offset,
                    snapshot: false,
                })?;
                (epoch, offset)
            }
            FeedStart::Bootstrap {
                epoch,
                offset,
                snapshot,
            } => {
                sink.send(&Response::SubscribeAck {
                    epoch,
                    offset,
                    snapshot: true,
                })?;
                let total = snapshot.len();
                let mut sent = 0usize;
                loop {
                    let end = (sent + feed::SNAPSHOT_CHUNK_BYTES).min(total);
                    let Some(chunk) = snapshot.get(sent..end) else {
                        break;
                    };
                    sink.send(&Response::SnapshotChunk {
                        data: chunk.to_vec(),
                        last: end == total,
                    })?;
                    sent = end;
                    if sent >= total {
                        break;
                    }
                }
                (epoch, offset)
            }
        };
        let mut idle = 0u32;
        loop {
            if state.shutting_down() {
                return Ok(());
            }
            // Snapshot the commit signal *before* reading the watermark:
            // a commit that lands between the read and the wait below
            // moves the sequence past `seen`, so the wait returns
            // immediately instead of losing the wakeup.
            let seen = state.commit_seq(shard_idx);
            match feed::read_committed(handle, epoch, cursor)? {
                // The shard's log left this epoch (checkpoint rotation):
                // re-plan, which bootstraps the subscriber afresh.
                None => {
                    sub = (epoch, cursor);
                    continue 'plan;
                }
                Some((_, data)) if data.is_empty() => {
                    state.wait_commit_past(shard_idx, seen, state.config.poll_interval);
                    idle += 1;
                    if idle >= HEARTBEAT_TICKS {
                        idle = 0;
                        sink.send(&Response::WalFrame {
                            epoch,
                            offset: cursor,
                            data: Vec::new(),
                        })?;
                    }
                }
                Some((end, data)) => {
                    idle = 0;
                    sink.send(&Response::WalFrame {
                        epoch,
                        offset: cursor,
                        data,
                    })?;
                    cursor = end;
                }
            }
        }
    }
}

/// Rejects a write-class request when this server is a replica.
fn reject_if_replica(state: &ServerState) -> Result<()> {
    if let Some(replica) = &state.config.replica {
        return Err(Error::ReadOnlyReplica(format!(
            "writes must go to the primary at {}",
            replica.primary
        )));
    }
    Ok(())
}

// -- request dispatch -----------------------------------------------------

/// A dedicated thread for `Execute` requests that write: they hold
/// shard write locks and fsync inline, which must never happen on a
/// reactor worker. One thread (not a pool) so two pipelined `Execute`s
/// from the same connection apply in submission order — the property
/// the serial-replay determinism test depends on.
/// A queued unit of work for the lane thread.
type ExecuteJob = Box<dyn FnOnce() + Send>;

struct ExecuteLane {
    tx: Mutex<Option<mpsc::Sender<ExecuteJob>>>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ExecuteLane {
    fn start() -> Self {
        let (tx, rx) = mpsc::channel::<ExecuteJob>();
        let thread = std::thread::Builder::new()
            .name("execute-lane".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    job();
                }
            })
            .ok();
        Self {
            tx: Mutex::new(thread.is_some().then_some(tx)).with_class(lock_class::REACTOR),
            thread: Mutex::new(thread).with_class(lock_class::REACTOR),
        }
    }

    /// Queues a job; false if the lane never started or already joined
    /// (the caller answers with an error instead).
    fn spawn(&self, job: ExecuteJob) -> bool {
        match &*self.tx.lock() {
            Some(tx) => tx.send(job).is_ok(),
            None => false,
        }
    }

    /// Disconnects the lane and waits for queued jobs to finish.
    fn join(&self) {
        self.tx.lock().take();
        // Bind the handle first: an `if let` scrutinee temporary would
        // keep the `thread` mutex locked across the join.
        let t = self.thread.lock().take();
        if let Some(t) = t {
            let _ = t.join();
        }
    }
}

/// Everything [`reactor::Ops::handle`] needs to dispatch a request:
/// the engine, shared server state, the per-shard commit queues, the
/// `Execute` write lane, and the replication feeder threads spawned for
/// `Subscribe` connections.
struct SessionCtx {
    db: Arc<ShardedDatabase>,
    state: Arc<ServerState>,
    queues: CommitQueues,
    execute_lane: ExecuteLane,
    feeders: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SessionCtx {
    /// Joins every replication feeder (they notice shutdown through the
    /// server state and the closed connection flags).
    fn join_feeders(&self) {
        let handles: Vec<_> = self.feeders.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn error_response(e: &Error) -> Response {
    Response::Error(WireError::from(e))
}

fn respond_result(r: Result<Response>) -> reactor::Action {
    reactor::Action::Respond(r.unwrap_or_else(|e| error_response(&e)))
}

impl reactor::Ops for SessionCtx {
    fn handle(
        &self,
        reply: &reactor::ReplyTo,
        shared: &Arc<reactor::ConnShared>,
        req: Request,
    ) -> reactor::Action {
        use reactor::Action;
        // Ingest admission control runs before the request counts as
        // served: a parked (Busy) request is retried later, and must
        // not be counted twice. Replica-mode rejection stays *after*
        // the gate so the error path is identical either way.
        if matches!(
            req,
            Request::Annotate { .. } | Request::AnnotateBatch { .. }
        ) && reject_if_replica(&self.state).is_ok()
            && !self.queues.all_ready()
        {
            return Action::Busy(req);
        }
        self.state.served.fetch_add(1, Ordering::Relaxed);
        match req {
            Request::Ping => Action::Respond(Response::Pong {
                version: wire::WIRE_VERSION,
                served: self.state.served.load(Ordering::Relaxed),
            }),
            Request::Shutdown => {
                self.state.begin_shutdown();
                Action::RespondAndClose(Response::ShuttingDown)
            }
            Request::Query { sql } => respond_result(query_response(&self.db, &sql)),
            Request::ZoomIn { sql } => respond_result(zoom_response(&self.db, &sql)),
            Request::ReplicaState => respond_result(replica_state_response(&self.db, &self.state)),
            // Read-only: replicas answer from locally applied state.
            Request::History { annotation } => {
                respond_result(history_response(&self.db, annotation))
            }
            Request::Annotate { sql } => {
                if let Err(e) = reject_if_replica(&self.state) {
                    return Action::Respond(error_response(&e));
                }
                let stmt = match annotate_statement(&sql, "Annotate") {
                    Ok(stmt) => stmt,
                    Err(e) => return Action::Respond(error_response(&e)),
                };
                let reply = reply.clone();
                submit_annotations_async(
                    &self.db,
                    &self.queues,
                    vec![stmt],
                    Box::new(move |mut items| {
                        let resp = match items.pop() {
                            Some(BatchItem::Ok(message)) => Response::Ack {
                                messages: vec![message],
                            },
                            Some(BatchItem::Err(e)) => Response::Error(e),
                            None => error_response(&Error::Execution(
                                "committer returned no result".into(),
                            )),
                        };
                        reply.respond(&resp);
                    }),
                );
                Action::Pending
            }
            Request::AnnotateBatch { statements } => {
                if let Err(e) = reject_if_replica(&self.state) {
                    return Action::Respond(error_response(&e));
                }
                // Each item parses independently; the ones that don't
                // become per-item errors while the rest still
                // group-commit.
                let mut slots: Vec<Option<BatchItem>> = Vec::new();
                slots.resize_with(statements.len(), || None);
                let mut stmts = Vec::new();
                let mut indices = Vec::new();
                for (i, sql) in statements.iter().enumerate() {
                    match annotate_statement(sql, "AnnotateBatch") {
                        Ok(stmt) => {
                            indices.push(i);
                            stmts.push(stmt);
                        }
                        Err(e) => {
                            if let Some(slot) = slots.get_mut(i) {
                                *slot = Some(BatchItem::Err(WireError::from(&e)));
                            }
                        }
                    }
                }
                if stmts.is_empty() {
                    return Action::Respond(Response::BatchAck {
                        results: finalize_slots(slots),
                    });
                }
                let reply = reply.clone();
                submit_annotations_async(
                    &self.db,
                    &self.queues,
                    stmts,
                    Box::new(move |committed| {
                        for (i, item) in indices.into_iter().zip(committed) {
                            if let Some(slot) = slots.get_mut(i) {
                                *slot = Some(item);
                            }
                        }
                        reply.respond(&Response::BatchAck {
                            results: finalize_slots(slots),
                        });
                    }),
                );
                Action::Pending
            }
            Request::Execute { sql } => {
                let stmts = match parse(&sql) {
                    Ok(stmts) if stmts.is_empty() => {
                        return Action::Respond(error_response(&Error::Parse(
                            "empty statement".into(),
                        )))
                    }
                    Ok(stmts) => stmts,
                    Err(e) => return Action::Respond(error_response(&e)),
                };
                if stmts.iter().all(|s| s.class() == StatementClass::Read) {
                    // Pure reads run inline on the worker: shard read
                    // locks only, no fsync, nothing blocking.
                    return respond_result(execute_reads(&self.db, stmts));
                }
                if let Err(e) = reject_if_replica(&self.state) {
                    return Action::Respond(error_response(&e));
                }
                let db = Arc::clone(&self.db);
                let reply = reply.clone();
                let spawned = self.execute_lane.spawn(Box::new(move || {
                    let resp =
                        execute_write_script(&db, &sql).unwrap_or_else(|e| error_response(&e));
                    reply.respond(&resp);
                }));
                if spawned {
                    Action::Pending
                } else {
                    Action::Respond(error_response(&Error::Execution(
                        "execute lane unavailable (server shutting down)".into(),
                    )))
                }
            }
            Request::Subscribe {
                shard,
                epoch,
                offset,
            } => {
                // The connection becomes a one-way replication stream; a
                // dedicated feeder thread paces itself against the
                // subscriber's write gauge. Subscriber-fault errors
                // (bad shard, replica primary, no WAL) surface as an
                // error frame on the stream before it ends.
                let sink = FeedSink {
                    reply: reply.clone(),
                    shared: Arc::clone(shared),
                };
                let db = Arc::clone(&self.db);
                let state = Arc::clone(&self.state);
                let spawn = std::thread::Builder::new()
                    .name(format!("replica-feed-{shard}"))
                    .spawn(move || run_feed(&sink, &db, &state, shard, epoch, offset));
                match spawn {
                    Ok(handle) => {
                        let mut feeders = self.feeders.lock();
                        feeders.retain(|h| !h.is_finished());
                        feeders.push(handle);
                        Action::Stream
                    }
                    Err(e) => Action::Respond(error_response(&Error::Io(e))),
                }
            }
        }
    }

    fn shutting_down(&self) -> bool {
        self.state.shutting_down()
    }

    fn request_timeout(&self) -> Duration {
        self.state.config.request_timeout
    }

    fn poll_interval(&self) -> Duration {
        self.state.config.poll_interval
    }

    fn on_conn_gone(&self) {
        self.state.active.fetch_sub(1, Ordering::Relaxed);
    }
}

// -- read-path helpers ----------------------------------------------------

fn query_response(db: &ShardedDatabase, sql: &str) -> Result<Response> {
    let stmt = expect_single(sql, "Query")?;
    if !matches!(stmt, Statement::Select(_)) {
        return Err(Error::Execution(
            "Query frames carry exactly one SELECT; use Execute for other statements".into(),
        ));
    }
    match db.execute_read(stmt)? {
        ExecOutcome::Query(q) => {
            // Summary-instance names are replicated; shard 0's
            // registry renders them for the wire.
            let shard0 = db.shard(0).read();
            Ok(Response::Rows(rows_payload(&shard0, &q)))
        }
        _ => Err(Error::Execution(
            "SELECT produced a non-query outcome; engine/server protocol mismatch".into(),
        )),
    }
}

fn zoom_response(db: &ShardedDatabase, sql: &str) -> Result<Response> {
    let stmt = expect_single(sql, "ZoomIn")?;
    if !matches!(stmt, Statement::ZoomIn(_)) {
        return Err(Error::Execution(
            "ZoomIn frames carry exactly one ZOOMIN statement".into(),
        ));
    }
    match db.execute_read(stmt)? {
        ExecOutcome::ZoomIn(z) => Ok(Response::Zoomed(zoom_payload(z))),
        _ => Err(Error::Execution(
            "ZOOMIN produced a non-zoom-in outcome; engine/server protocol mismatch".into(),
        )),
    }
}

/// Runs an all-read `Execute` script inline (shard read locks only).
fn execute_reads(db: &ShardedDatabase, stmts: Vec<Statement>) -> Result<Response> {
    let messages = stmts
        .into_iter()
        .map(|s| Ok(db.execute_read(s)?.to_string()))
        .collect::<Result<Vec<_>>>()?;
    Ok(Response::Ack { messages })
}

/// Runs a write-bearing `Execute` script on the execute lane. The
/// script's source text goes through `execute_sql` so the WAL (when
/// attached) records it before execution — on every shard it touches;
/// the sync below is the per-request commit point, after which the
/// ack's durability promise holds.
fn execute_write_script(db: &ShardedDatabase, sql: &str) -> Result<Response> {
    let outcomes = db.execute_sql(sql)?;
    db.wal_sync_all()?;
    Ok(Response::Ack {
        messages: outcomes
            .iter()
            .map(std::string::ToString::to_string)
            .collect(),
    })
}

fn history_response(db: &ShardedDatabase, annotation: u64) -> Result<Response> {
    match db.execute_read(Statement::HistoryAnnotation { id: annotation })? {
        ExecOutcome::History { annotation, events } => Ok(Response::History(HistoryPayload {
            annotation: annotation.raw(),
            events: events
                .into_iter()
                .map(|e| WireLifecycleEvent {
                    kind: match e.kind {
                        LifecycleKind::Created => WireLifecycleKind::Created,
                        LifecycleKind::Flagged => WireLifecycleKind::Flagged,
                        LifecycleKind::Retracted => WireLifecycleKind::Retracted,
                        LifecycleKind::Corrected => WireLifecycleKind::Corrected,
                    },
                    at: e.at,
                    note: e.note,
                    successor: e.successor.map(insightnotes_common::AnnotationId::raw),
                })
                .collect(),
        })),
        _ => Err(Error::Execution(
            "HISTORY produced a non-history outcome; engine/server protocol mismatch".into(),
        )),
    }
}

fn replica_state_response(db: &ShardedDatabase, state: &ServerState) -> Result<Response> {
    if let Some(replica) = &state.config.replica {
        return Ok(Response::ReplicaState {
            shards: replica.positions.snapshot(),
        });
    }
    let mut shards = Vec::with_capacity(db.shard_count());
    for k in 0..db.shard_count() {
        let (epoch, offset) = db.shard(k).read().wal_committed().ok_or_else(|| {
            Error::Execution("replication state requires a write-ahead log (--wal-dir)".into())
        })?;
        shards.push(ShardPosition { epoch, offset });
    }
    Ok(Response::ReplicaState { shards })
}

fn expect_single(sql: &str, kind: &str) -> Result<Statement> {
    let mut stmts = parse(sql)?;
    if stmts.len() != 1 {
        return Err(Error::Execution(format!(
            "{kind} frames carry exactly one statement, found {}",
            stmts.len()
        )));
    }
    Ok(stmts.remove(0))
}

/// Parses one ingest item: exactly one `ADD ANNOTATION` statement,
/// returned with its source text so the committer can log it.
fn annotate_statement(sql: &str, kind: &str) -> Result<SqlStatement> {
    let stmt = expect_single(sql, kind)?;
    if !matches!(stmt, Statement::AddAnnotation { .. }) {
        return Err(Error::Execution(format!(
            "{kind} items carry exactly one ADD ANNOTATION statement"
        )));
    }
    Ok(SqlStatement {
        sql: sql.to_string(),
        stmt,
    })
}

fn wire_value(v: &Value) -> WireValue {
    match v {
        Value::Null => WireValue::Null,
        Value::Int(i) => WireValue::Int(*i),
        Value::Float(f) => WireValue::Float(*f),
        Value::Text(s) => WireValue::Text(s.clone()),
        Value::Bool(b) => WireValue::Bool(*b),
    }
}

/// Converts an engine result set into its wire representation. Summary
/// objects are shipped in the paper's rendered notation.
fn rows_payload(db: &Database, q: &QueryResult) -> RowsPayload {
    let columns = q
        .schema
        .columns()
        .iter()
        .map(Column::display_name)
        .collect();
    let rows = q
        .rows
        .iter()
        .map(|r| WireRow {
            values: r.row.values().iter().map(wire_value).collect(),
            summaries: r
                .summaries
                .iter()
                .map(|(inst, obj)| {
                    let name = db
                        .registry()
                        .instance(*inst)
                        .map_or_else(|_| inst.to_string(), |i| i.name().to_string());
                    format!("{name} {obj}")
                })
                .collect(),
        })
        .collect();
    RowsPayload {
        qid: q.qid.raw(),
        columns,
        rows,
    }
}

fn zoom_payload(z: ZoomInResult) -> ZoomPayload {
    ZoomPayload {
        annotations: z
            .annotations
            .into_iter()
            .map(|a| WireAnnotation {
                id: a.id.raw(),
                text: a.text,
                document: a.document,
                author: a.author,
            })
            .collect(),
        from_cache: z.from_cache,
        matched_rows: z.matched_rows as u64,
    }
}

// -- signal handling ------------------------------------------------------

static SIGNALED: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has been observed since
/// [`install_signal_handlers`] ran.
pub fn signal_requested() -> bool {
    SIGNALED.load(Ordering::Relaxed)
}

/// Installs SIGINT/SIGTERM handlers that flip an atomic flag; the accept
/// loop polls it and drains into the graceful-shutdown path (final
/// snapshot included). No-op on non-Unix targets.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNALED.store(true, Ordering::Relaxed);
    }
    // std links libc; declaring the two symbols we need avoids an
    // external crate. BSD `signal` semantics (glibc default) are fine —
    // the accept loop never blocks, it polls.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    // SAFETY: `signal` is async-signal-safe to install, the handler is a
    // real `extern "C" fn(i32)` whose body only performs an atomic store
    // (itself async-signal-safe), and the `usize` casts round-trip
    // function pointers on every supported Unix ABI.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// No-op fallback for non-Unix targets.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

#[cfg(test)]
mod tests {
    use super::*;

    // The whole session model hinges on the database being shareable
    // across session threads.
    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<ShardedDatabase>();
        assert_send_sync::<Server>();
    }

    #[test]
    fn classification_picks_the_expected_lock() {
        let read = parse("SELECT name FROM birds").unwrap();
        assert!(read.iter().all(|s| s.class() == StatementClass::Read));
        let write = parse("INSERT INTO birds VALUES (1)").unwrap();
        assert!(write.iter().all(|s| s.class() == StatementClass::Write));
        let mixed = parse("SELECT name FROM birds; DELETE FROM birds").unwrap();
        assert!(!mixed.iter().all(|s| s.class() == StatementClass::Read));
    }

    #[test]
    fn expect_single_rejects_batches() {
        assert!(expect_single("SELECT a FROM t; SELECT b FROM t", "Query").is_err());
        assert!(expect_single("SELECT a FROM t", "Query").is_ok());
    }
}
