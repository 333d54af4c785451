//! `insightd` — the InsightNotes annotation-engine daemon.
//!
//! ```text
//! insightd [--addr 127.0.0.1:7433] [--snapshot db.indb] [--max-conns 10000]
//!          [--timeout-ms 10000] [--parallelism N] [--shards N]
//!          [--reactor-workers N] [--wal-dir DIR] [--sync always|batch|off]
//!          [--replica-of HOST:PORT --replica-dir DIR]
//! ```
//!
//! Serves the wire protocol (see `insightnotes_common::wire`) over TCP
//! on an epoll reactor: `--reactor-workers` event-loop threads (default
//! one per core) each multiplex thousands of nonblocking connections,
//! and pipelined (protocol v2) clients keep many requests in flight per
//! connection. At startup the soft `RLIMIT_NOFILE` is raised to the
//! hard limit so `--max-conns` (default 10 000) is reachable without an
//! external `ulimit` dance. With `--snapshot FILE`, an existing snapshot
//! set (`FILE.shard<k>` plus `FILE.manifest`) is loaded at startup and a
//! fresh one is written on graceful shutdown (SIGINT/SIGTERM or a client
//! `.shutdown`). With `--wal-dir`, every
//! write is appended to a write-ahead log before it executes and acks
//! are released only after the log is durable (`--sync` picks the fsync
//! policy, default `batch` = one fsync per group-committed batch);
//! startup then runs full crash recovery — snapshot plus WAL-tail
//! replay — so a `kill -9` loses no acknowledged write. `--shards N`
//! partitions the engine into N hash-routed shards (default: the
//! machine's available cores), each with its own lock, WAL segment
//! under `<wal-dir>/shard-<k>/`, snapshot file (`<snapshot>.shard<k>`),
//! and committer thread; recovery then runs per shard and reports each
//! shard's epoch and replay count on stderr. `--addr` with port 0 picks
//! an ephemeral port; the bound address is printed on the first stdout
//! line (`insightd listening on HOST:PORT`) so scripts can scrape it.
//!
//! `--replica-of HOST:PORT` starts a **read replica** instead: local
//! state recovers from `--replica-dir` (snapshot-bootstrapped from the
//! primary when cold or inconsistent), per-shard tailer threads follow
//! the primary's committed WAL stream, reads serve locally, and writes
//! are rejected with a structured `read_only_replica` error naming the
//! primary. The replica inherits the primary's shard count; `--shards`,
//! `--wal-dir`, `--sync`, and `--snapshot` are primary-only flags and
//! conflict with replica mode.

use insightnotes_engine::{DbConfig, ShardedDatabase, SyncPolicy};
use insightnotes_replication::replica::{ReplicaConfig, Replicator};
use insightnotes_server::{install_signal_handlers, ReplicaServing, Server, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    match run() {
        Ok(served) => eprintln!("insightd: clean shutdown after {served} request(s)"),
        Err(e) => {
            eprintln!("insightd: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> insightnotes_common::Result<u64> {
    let opts = parse_args()?;
    // Raise the soft fd limit before anything opens sockets; report the
    // ceiling when it still undercuts the configured connection limit.
    let fd_limit = insightnotes_server::reactor::raise_fd_limit();
    if (fd_limit as usize) < opts.max_conns.saturating_add(64) {
        eprintln!(
            "insightd: warning: fd limit {fd_limit} may undercut --max-conns {}",
            opts.max_conns
        );
    }
    if let Some(primary) = opts.replica_of.clone() {
        return run_replica(&opts, primary);
    }

    let db_config = DbConfig {
        parallelism: opts.parallelism,
        wal_dir: opts.wal_dir.clone(),
        wal_sync: opts.sync,
        ..DbConfig::default()
    };
    // Recovery handles every startup shape uniformly: fresh database,
    // snapshot only, snapshot + WAL tail, torn tails, stale temp files —
    // per shard, cross-checked against the shard manifest.
    let (db, report) = ShardedDatabase::recover(opts.snapshot.as_deref(), db_config, opts.shards)?;
    if report.did_work() || opts.wal_dir.is_some() {
        for (k, s) in report.shards.iter().enumerate() {
            eprintln!(
                "insightd: recovery: shard {k}: epoch {}; {}",
                s.epoch, s.report
            );
        }
        let tables = db.shard(0).read().catalog().table_names().len();
        eprintln!(
            "insightd: recovery: {} record(s) replayed across {} shard(s) \
             ({tables} tables, {} annotations)",
            report.records_replayed(),
            db.shard_count(),
            db.annotation_count()
        );
    }

    let config = ServerConfig {
        max_connections: opts.max_conns,
        request_timeout: Duration::from_millis(opts.timeout_ms),
        snapshot_path: opts.snapshot.clone(),
        reactor_workers: opts.reactor_workers,
        ..ServerConfig::default()
    };
    let server = Server::bind_sharded(opts.addr.as_str(), db, config)?;
    install_signal_handlers();

    // Scripts parse this exact line to discover ephemeral ports.
    println!("insightd listening on {}", server.local_addr()?);
    use std::io::Write;
    std::io::stdout().flush().ok();

    let served = server.run()?;
    if let Some(path) = &opts.snapshot {
        eprintln!("insightd: snapshot written to {}", path.display());
    }
    Ok(served)
}

/// Replica mode: recover/bootstrap local state, start the tailers, and
/// serve reads until shutdown.
fn run_replica(opts: &Opts, primary: String) -> insightnotes_common::Result<u64> {
    let bad = |m: &str| insightnotes_common::Error::Execution(m.into());
    let Some(dir) = opts.replica_dir.clone() else {
        return Err(bad("--replica-of needs --replica-dir for local state"));
    };
    if opts.wal_dir.is_some() || opts.snapshot.is_some() || opts.shards_set {
        return Err(bad(
            "--wal-dir/--snapshot/--shards are primary-only flags; a replica \
             mirrors the primary's layout into --replica-dir",
        ));
    }
    let boot = Replicator::start(&ReplicaConfig::new(primary.clone(), dir))?;
    for (k, resumed) in boot.resumed.iter().enumerate() {
        eprintln!(
            "insightd: replica: shard {k}: {}",
            if *resumed {
                "resuming from local state"
            } else {
                "cold, bootstrapping from primary"
            }
        );
    }
    let config = ServerConfig {
        max_connections: opts.max_conns,
        request_timeout: Duration::from_millis(opts.timeout_ms),
        snapshot_path: None,
        replica: Some(ReplicaServing {
            primary,
            positions: boot.replicator.positions(),
        }),
        reactor_workers: opts.reactor_workers,
        ..ServerConfig::default()
    };
    let server = Server::bind_sharded(opts.addr.as_str(), boot.db, config)?;
    install_signal_handlers();
    println!("insightd listening on {}", server.local_addr()?);
    use std::io::Write;
    std::io::stdout().flush().ok();
    let served = server.run()?;
    // Stop tailing only after the listener drained: reads served during
    // shutdown still see the freshest applied state.
    drop(boot.replicator);
    Ok(served)
}

struct Opts {
    addr: String,
    snapshot: Option<PathBuf>,
    max_conns: usize,
    timeout_ms: u64,
    parallelism: Option<usize>,
    shards: usize,
    /// Whether `--shards` was given explicitly (it conflicts with
    /// replica mode, whose shard count comes from the primary).
    shards_set: bool,
    wal_dir: Option<PathBuf>,
    sync: SyncPolicy,
    replica_of: Option<String>,
    replica_dir: Option<PathBuf>,
    /// Reactor event-loop threads; 0 = one per core.
    reactor_workers: usize,
}

fn parse_args() -> insightnotes_common::Result<Opts> {
    let mut opts = Opts {
        addr: "127.0.0.1:7433".into(),
        snapshot: None,
        max_conns: 10_000,
        timeout_ms: 10_000,
        parallelism: None,
        // Shard per core by default; a one-core box gets one shard on
        // the same routed path and on-disk layout.
        shards: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        shards_set: false,
        wal_dir: None,
        sync: SyncPolicy::Batch,
        replica_of: None,
        replica_dir: None,
        reactor_workers: 0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let bad = |m: String| insightnotes_common::Error::Execution(m);
    while let Some(flag) = args.get(i).map(String::as_str) {
        if flag == "--help" || flag == "-h" {
            println!(
                "usage: insightd [--addr HOST:PORT] [--snapshot FILE] \
                 [--max-conns N] [--timeout-ms N] [--parallelism N] \
                 [--shards N] [--reactor-workers N] [--wal-dir DIR] \
                 [--sync always|batch|off] \
                 [--replica-of HOST:PORT --replica-dir DIR]"
            );
            std::process::exit(0);
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| bad(format!("{flag} needs a value")))?;
        match flag {
            "--addr" => opts.addr = value.clone(),
            "--snapshot" => opts.snapshot = Some(PathBuf::from(value)),
            "--max-conns" => {
                opts.max_conns = value
                    .parse()
                    .map_err(|_| bad(format!("bad count {value}")))?;
            }
            "--timeout-ms" => {
                opts.timeout_ms = value.parse().map_err(|_| bad(format!("bad ms {value}")))?;
            }
            "--parallelism" => {
                opts.parallelism = Some(
                    value
                        .parse()
                        .map_err(|_| bad(format!("bad count {value}")))?,
                );
            }
            "--shards" => {
                opts.shards = value
                    .parse()
                    .map_err(|_| bad(format!("bad count {value}")))?;
                if opts.shards == 0 {
                    return Err(bad("--shards must be at least 1".into()));
                }
                opts.shards_set = true;
            }
            "--reactor-workers" => {
                opts.reactor_workers = value
                    .parse()
                    .map_err(|_| bad(format!("bad count {value}")))?;
            }
            "--wal-dir" => opts.wal_dir = Some(PathBuf::from(value)),
            "--sync" => opts.sync = SyncPolicy::parse(value)?,
            "--replica-of" => opts.replica_of = Some(value.clone()),
            "--replica-dir" => opts.replica_dir = Some(PathBuf::from(value)),
            other => return Err(bad(format!("unknown flag {other}"))),
        }
        i += 2;
    }
    Ok(opts)
}
