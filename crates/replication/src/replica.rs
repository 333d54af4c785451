//! Replica-side runtime: per-shard tailer threads that bootstrap,
//! mirror, and apply the primary's committed log stream.
//!
//! ## On-disk layout
//!
//! A replica owns a directory with one subdirectory per primary shard:
//!
//! ```text
//! <dir>/shard-<k>/meta                  # shard count, epoch, base offset
//! <dir>/shard-<k>/snapshot              # bootstrap state (checkpoint bytes)
//! <dir>/shard-<k>/wal/insightnotes.wal  # mirrored committed frames
//! ```
//!
//! The mirrored log stores the primary's frame *bytes* verbatim behind
//! a `base` offset: local offset `HEADER_BYTES + i` holds the byte the
//! primary has at `base + i`. Frames are made durable locally *before*
//! they are applied to the in-memory engine, so after `kill -9` the
//! shard recovers to exactly its applied prefix (snapshot + mirrored
//! records) and resubscribes from there.
//!
//! The `meta` file is the commit point of a bootstrap: it is removed
//! first and rewritten last when state is reset, so a crash mid-reset
//! always leaves a shard that classifies as cold (wiped and
//! re-bootstrapped) rather than a stale meta over new files.

use std::fs::File;
use std::io::Read;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use insightnotes_common::wire::{self, Request, Response, ShardPosition};
use insightnotes_common::{Error, Result};
use insightnotes_engine::wal::{self, SyncPolicy, Wal};
use insightnotes_engine::{Database, DbConfig, ShardedDatabase};
use parking_lot::RwLock;

use crate::position::PositionTable;

const META_FILE: &str = "meta";
const SNAPSHOT_FILE: &str = "snapshot";
const WAL_SUBDIR: &str = "wal";
const META_HEADER: &str = "insightnotes-replica-shard v1";

/// How a replica finds and follows its primary.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Primary server address (`host:port`).
    pub primary: String,
    /// Replica state directory (created on demand).
    pub dir: PathBuf,
    /// Delay between reconnect attempts after a broken stream.
    pub reconnect_backoff: Duration,
    /// Socket read-poll tick; also the latency floor for noticing
    /// a stop request while idle.
    pub poll_interval: Duration,
    /// Connect/write timeout, and the stall bound for one in-flight
    /// frame: a frame that starts arriving must finish within this.
    pub io_timeout: Duration,
}

impl ReplicaConfig {
    /// Defaults tuned for same-datacenter replication.
    pub fn new(primary: impl Into<String>, dir: impl Into<PathBuf>) -> Self {
        Self {
            primary: primary.into(),
            dir: dir.into(),
            reconnect_backoff: Duration::from_millis(200),
            poll_interval: Duration::from_millis(25),
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// A running replica: the tailer threads and their applied positions.
///
/// Dropping (or [`Replicator::stop`]) signals the tailers and joins
/// them; the associated engine keeps serving whatever was applied.
#[derive(Debug)]
pub struct Replicator {
    positions: Arc<PositionTable>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// Everything [`Replicator::start`] assembles: a queryable engine plus
/// the replication runtime feeding it.
#[derive(Debug)]
pub struct ReplicaBoot {
    /// The local engine, shard layout matching the primary. Reads only —
    /// tailer threads own all mutation.
    pub db: ShardedDatabase,
    /// The running tailer threads.
    pub replicator: Replicator,
    /// Per shard: whether local state survived restart (`true` =
    /// resumed from disk, `false` = cold, will snapshot-bootstrap).
    pub resumed: Vec<bool>,
}

impl Replicator {
    /// Recover local replica state (wiping anything inconsistent),
    /// assemble the engine, and launch one tailer thread per shard.
    ///
    /// The shard count comes from local `meta` files when present,
    /// otherwise from asking the primary, so a cold replica needs the
    /// primary reachable once at startup.
    pub fn start(config: &ReplicaConfig) -> Result<ReplicaBoot> {
        let shards = discover_shards(config)?;
        let mut dbs = Vec::with_capacity(shards);
        let mut tails = Vec::with_capacity(shards);
        let mut resumed = Vec::with_capacity(shards);
        for k in 0..shards {
            let local = recover_shard(&config.dir, k, shards)?;
            resumed.push(local.tail.wal.is_some());
            dbs.push(local.db);
            tails.push(local.tail);
        }
        let db = ShardedDatabase::from_shards(&DbConfig::default(), dbs)?;
        let positions = Arc::new(PositionTable::new(shards));
        for (k, tail) in tails.iter().enumerate() {
            positions.set(k, tail.position());
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::with_capacity(shards);
        for (k, tail) in tails.into_iter().enumerate() {
            let shard = Arc::clone(db.shard(k));
            let positions = Arc::clone(&positions);
            let stop = Arc::clone(&stop);
            let cfg = config.clone();
            threads.push(std::thread::spawn(move || {
                run_tailer(&cfg, k, shards, &shard, tail, &positions, &stop);
            }));
        }
        Ok(ReplicaBoot {
            db,
            replicator: Replicator {
                positions,
                stop,
                threads,
            },
            resumed,
        })
    }

    /// Shared handle to the applied-position table (what a replica
    /// server reports for `ReplicaState`).
    #[must_use]
    pub fn positions(&self) -> Arc<PositionTable> {
        Arc::clone(&self.positions)
    }

    /// Signal every tailer to stop and join them.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.stop();
    }
}

// -- local state ------------------------------------------------------------

/// One shard's replication cursor plus its mirrored log (if any).
#[derive(Debug)]
struct ShardTail {
    epoch: u64,
    /// Primary offset the local log's `HEADER_BYTES` corresponds to.
    base: u64,
    /// `None` = cold: no usable local state, must bootstrap.
    wal: Option<Wal>,
}

impl ShardTail {
    fn position(&self) -> ShardPosition {
        match &self.wal {
            Some(w) => ShardPosition {
                epoch: self.epoch,
                offset: self.base + (w.len() - wal::HEADER_BYTES),
            },
            None => ShardPosition {
                epoch: 0,
                offset: 0,
            },
        }
    }
}

struct LocalShard {
    db: Database,
    tail: ShardTail,
}

fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

fn fresh_db() -> Result<Database> {
    Database::with_config(DbConfig::default())
}

/// Recover one shard from disk, wiping it back to cold on any
/// inconsistency (missing/torn files, epoch disagreement, a different
/// shard count) — the stream from the primary re-creates everything.
fn recover_shard(dir: &Path, shard: usize, expect_shards: usize) -> Result<LocalShard> {
    let sdir = shard_dir(dir, shard);
    if let Ok(Some(local)) = try_recover_shard(&sdir, expect_shards) {
        return Ok(local);
    }
    wipe_dir(&sdir)?;
    Ok(LocalShard {
        db: fresh_db()?,
        tail: ShardTail {
            epoch: 0,
            base: 0,
            wal: None,
        },
    })
}

fn try_recover_shard(sdir: &Path, expect_shards: usize) -> Result<Option<LocalShard>> {
    let Some((shards, epoch, base)) = read_meta(&sdir.join(META_FILE))? else {
        return Ok(None);
    };
    if shards != expect_shards {
        return Ok(None);
    }
    let snapshot = match std::fs::read(sdir.join(SNAPSHOT_FILE)) {
        Ok(bytes) => bytes,
        Err(_) => return Ok(None),
    };
    let Some(scan) = Wal::open(&sdir.join(WAL_SUBDIR), SyncPolicy::Batch)? else {
        return Ok(None);
    };
    if scan.wal.epoch() != epoch {
        return Ok(None);
    }
    let mut db = fresh_db()?;
    // lint:allow(wal-bypass) — replica-side replay: durability lives in
    // the mirrored log these records were decoded from, not in re-logging.
    db.install_replica_state(&snapshot)?;
    for record in scan.records {
        // lint:allow(wal-bypass) — same: replaying the mirrored log.
        db.apply_wal_record(record)?;
    }
    Ok(Some(LocalShard {
        db,
        tail: ShardTail {
            epoch,
            base,
            wal: Some(scan.wal),
        },
    }))
}

fn wipe_dir(dir: &Path) -> Result<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Install a fresh bootstrap on disk: tear down the old generation
/// (meta first), lay down the snapshot and an empty mirrored log for
/// `epoch`, then commit with a new meta (written last).
fn reset_shard_disk(
    sdir: &Path,
    shards: usize,
    epoch: u64,
    base: u64,
    snapshot: &[u8],
) -> Result<Wal> {
    let meta = sdir.join(META_FILE);
    if meta.exists() {
        std::fs::remove_file(&meta)?;
        wal::sync_dir(sdir)?;
    }
    let wal_dir = sdir.join(WAL_SUBDIR);
    if wal_dir.exists() {
        std::fs::remove_dir_all(&wal_dir)?;
    }
    write_durable(&sdir.join(SNAPSHOT_FILE), snapshot)?;
    let mirror = Wal::create(&wal_dir, epoch, SyncPolicy::Batch)?;
    write_meta(&meta, shards, epoch, base)?;
    Ok(mirror)
}

fn write_meta(path: &Path, shards: usize, epoch: u64, base: u64) -> Result<()> {
    let text = format!("{META_HEADER}\nshards {shards}\nepoch {epoch}\nbase {base}\n");
    write_durable(path, text.as_bytes())
}

/// Parse a shard meta file. `Ok(None)` = absent or unparseable (the
/// caller treats both as cold).
fn read_meta(path: &Path) -> Result<Option<(usize, u64, u64)>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut lines = text.lines();
    if lines.next() != Some(META_HEADER) {
        return Ok(None);
    }
    let mut field = |name: &str| -> Option<u64> {
        let line = lines.next()?;
        let value = line.strip_prefix(name)?.strip_prefix(' ')?;
        value.parse().ok()
    };
    let (Some(shards), Some(epoch), Some(base)) = (field("shards"), field("epoch"), field("base"))
    else {
        return Ok(None);
    };
    let Ok(shards) = usize::try_from(shards) else {
        return Ok(None);
    };
    Ok(Some((shards, epoch, base)))
}

/// Write `bytes` to `path` atomically and durably: temp file, fsync,
/// rename, directory fsync.
fn write_durable(path: &Path, bytes: &[u8]) -> Result<()> {
    let Some(parent) = path.parent() else {
        return Err(Error::Execution(format!(
            "replica file path {} has no parent directory",
            path.display()
        )));
    };
    std::fs::create_dir_all(parent)?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        std::io::Write::write_all(&mut f, bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    wal::sync_dir(parent)
}

// -- primary discovery ------------------------------------------------------

fn discover_shards(config: &ReplicaConfig) -> Result<usize> {
    if let Some((shards, _, _)) = read_meta(&shard_dir(&config.dir, 0).join(META_FILE))? {
        if shards > 0 {
            return Ok(shards);
        }
    }
    let state = primary_state(config)?;
    if state.is_empty() {
        return Err(Error::Execution(format!(
            "primary at {} reported zero shards",
            config.primary
        )));
    }
    Ok(state.len())
}

/// One blocking `ReplicaState` round trip against the primary.
fn primary_state(config: &ReplicaConfig) -> Result<Vec<ShardPosition>> {
    let mut stream = connect(config)?;
    stream.set_read_timeout(Some(config.io_timeout))?;
    wire::write_frame(&mut stream, &Request::ReplicaState)?;
    match wire::read_frame::<Response>(&mut stream)? {
        Some(Response::ReplicaState { shards }) => Ok(shards),
        Some(Response::Error(e)) => Err(e.into_error()),
        Some(_) => Err(Error::Execution(
            "primary sent an unexpected reply to ReplicaState".into(),
        )),
        None => Err(Error::Execution(format!(
            "primary at {} closed the connection during discovery",
            config.primary
        ))),
    }
}

fn connect(config: &ReplicaConfig) -> Result<TcpStream> {
    let mut last = None;
    for addr in config.primary.to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, config.io_timeout) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_write_timeout(Some(config.io_timeout))?;
                stream.set_read_timeout(Some(config.poll_interval))?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    match last {
        Some(e) => Err(e.into()),
        None => Err(Error::Execution(format!(
            "primary address {} resolves to nothing",
            config.primary
        ))),
    }
}

// -- frame polling ----------------------------------------------------------

enum Polled {
    Frame(Response),
    Stopped,
    Closed,
}

fn blocked(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read one response frame, polling so a stop request is noticed while
/// the stream is idle. Once a frame starts arriving it must complete
/// within `stall`.
fn poll_frame(stream: &mut TcpStream, stop: &AtomicBool, stall: Duration) -> Result<Polled> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled == 0 {
        if stop.load(Ordering::Relaxed) {
            return Ok(Polled::Stopped);
        }
        match stream.read(&mut len_buf) {
            Ok(0) => return Ok(Polled::Closed),
            Ok(n) => filled = n,
            Err(e) if blocked(&e) || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let deadline = Instant::now() + stall;
    fill(stream, &mut len_buf, filled, deadline)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > wire::MAX_FRAME_BYTES {
        return Err(Error::Codec(format!(
            "replication frame of {len} bytes exceeds the {}-byte limit",
            wire::MAX_FRAME_BYTES
        )));
    }
    let mut payload = vec![0u8; len];
    fill(stream, &mut payload, 0, deadline)?;
    Ok(Polled::Frame(wire::decode_frame::<Response>(&payload)?))
}

fn fill(
    stream: &mut TcpStream,
    buf: &mut [u8],
    mut filled: usize,
    deadline: Instant,
) -> Result<()> {
    while filled < buf.len() {
        let Some(rest) = buf.get_mut(filled..) else {
            break;
        };
        match stream.read(rest) {
            Ok(0) => {
                return Err(Error::Execution(
                    "replication stream closed mid-frame".into(),
                ))
            }
            Ok(n) => filled += n,
            Err(e) if blocked(&e) || e.kind() == std::io::ErrorKind::Interrupted => {
                if Instant::now() >= deadline {
                    return Err(Error::Execution(
                        "replication stream stalled mid-frame".into(),
                    ));
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

// -- the tailer -------------------------------------------------------------

fn run_tailer(
    cfg: &ReplicaConfig,
    shard: usize,
    shards: usize,
    handle: &Arc<RwLock<Database>>,
    mut tail: ShardTail,
    positions: &PositionTable,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::Relaxed) {
        // Transient errors (primary down, broken stream, protocol
        // hiccup) all heal the same way: back off, reconnect, and
        // resubscribe from the last applied position.
        let _ = stream_once(cfg, shard, shards, handle, &mut tail, positions, stop);
        if stop.load(Ordering::Relaxed) {
            return;
        }
        std::thread::sleep(cfg.reconnect_backoff);
    }
}

fn stream_once(
    cfg: &ReplicaConfig,
    shard: usize,
    shards: usize,
    handle: &Arc<RwLock<Database>>,
    tail: &mut ShardTail,
    positions: &PositionTable,
    stop: &AtomicBool,
) -> Result<()> {
    let mut stream = connect(cfg)?;
    let pos = tail.position();
    let Ok(shard_u32) = u32::try_from(shard) else {
        return Err(Error::Execution(format!(
            "shard index {shard} overflows u32"
        )));
    };
    wire::write_frame(
        &mut stream,
        &Request::Subscribe {
            shard: shard_u32,
            epoch: pos.epoch,
            offset: pos.offset,
        },
    )?;
    loop {
        match poll_frame(&mut stream, stop, cfg.io_timeout)? {
            Polled::Stopped => return Ok(()),
            Polled::Closed => {
                return Err(Error::Execution(
                    "primary closed the replication stream".into(),
                ))
            }
            Polled::Frame(Response::SubscribeAck {
                epoch,
                offset,
                snapshot,
            }) => {
                if snapshot {
                    let Some(bytes) = receive_snapshot(&mut stream, stop, cfg.io_timeout)? else {
                        return Ok(());
                    };
                    wal::crash_point("replica.bootstrap.before_install");
                    let mirror = reset_shard_disk(
                        &shard_dir(&cfg.dir, shard),
                        shards,
                        epoch,
                        offset,
                        &bytes,
                    )?;
                    // lint:allow(wal-bypass) — bootstrap install: the
                    // snapshot was made durable by reset_shard_disk above.
                    handle.write().install_replica_state(&bytes)?;
                    tail.epoch = epoch;
                    tail.base = offset;
                    tail.wal = Some(mirror);
                    positions.set(shard, tail.position());
                    wal::crash_point("replica.bootstrap.after_install");
                } else if (ShardPosition { epoch, offset }) != tail.position() {
                    return Err(Error::Execution(format!(
                        "primary acknowledged resume at {epoch}/{offset} but shard {shard} \
                         subscribed at {}/{}",
                        tail.position().epoch,
                        tail.position().offset
                    )));
                }
            }
            Polled::Frame(Response::WalFrame {
                epoch,
                offset,
                data,
            }) => {
                apply_frame(handle, tail, shard, epoch, offset, &data)?;
                positions.set(shard, tail.position());
            }
            Polled::Frame(Response::Error(e)) => return Err(e.into_error()),
            Polled::Frame(_) => {
                return Err(Error::Execution(
                    "unexpected frame on the replication stream".into(),
                ))
            }
        }
    }
}

/// Mirror one shipped byte range durably, then replay its records into
/// the engine. Empty `data` is a heartbeat.
fn apply_frame(
    handle: &Arc<RwLock<Database>>,
    tail: &mut ShardTail,
    shard: usize,
    epoch: u64,
    offset: u64,
    data: &[u8],
) -> Result<()> {
    let Some(mirror) = tail.wal.as_mut() else {
        return Err(Error::Execution(format!(
            "primary streamed shard {shard} data before any bootstrap"
        )));
    };
    if epoch != tail.epoch {
        return Err(Error::Execution(format!(
            "shard {shard} stream jumped from epoch {} to {epoch} without a bootstrap",
            tail.epoch
        )));
    }
    if data.is_empty() {
        return Ok(());
    }
    let expected = tail.base + (mirror.len() - wal::HEADER_BYTES);
    if offset != expected {
        return Err(Error::Execution(format!(
            "shard {shard} stream sent offset {offset} where {expected} was expected"
        )));
    }
    // Durable before applied: a crash from here on recovers these
    // records from the local mirror instead of losing the tail.
    mirror.append_raw(data)?;
    mirror.sync()?;
    wal::crash_point("replica.apply.after_mirror");
    let mut cursor = 0usize;
    let mut guard = handle.write();
    while let Some(chunk) = data.get(cursor..) {
        if chunk.is_empty() {
            break;
        }
        let Some((record, used)) = wal::decode_frame(chunk) else {
            return Err(Error::Codec(format!(
                "mirrored shard {shard} bytes hold a torn frame at offset {cursor}"
            )));
        };
        // lint:allow(wal-bypass) — the frame was appended and fsynced to
        // the local mirror before this apply; a crash here replays it.
        guard.apply_wal_record(record)?;
        cursor += used;
    }
    Ok(())
}

/// Collect a chunked snapshot stream. `Ok(None)` = stop requested.
fn receive_snapshot(
    stream: &mut TcpStream,
    stop: &AtomicBool,
    stall: Duration,
) -> Result<Option<Vec<u8>>> {
    let mut bytes = Vec::new();
    loop {
        match poll_frame(stream, stop, stall)? {
            Polled::Stopped => return Ok(None),
            Polled::Closed => {
                return Err(Error::Execution(
                    "primary closed the stream mid-snapshot".into(),
                ))
            }
            Polled::Frame(Response::SnapshotChunk { data, last }) => {
                bytes.extend_from_slice(&data);
                if last {
                    return Ok(Some(bytes));
                }
            }
            Polled::Frame(Response::Error(e)) => return Err(e.into_error()),
            Polled::Frame(_) => {
                return Err(Error::Execution(
                    "unexpected frame inside a snapshot stream".into(),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "insightnotes-replica-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn meta_round_trips_and_rejects_garbage() {
        let dir = temp_dir("meta");
        let path = dir.join(META_FILE);
        write_meta(&path, 4, 7, 1234).expect("write");
        assert_eq!(read_meta(&path).expect("read"), Some((4, 7, 1234)));
        std::fs::write(&path, "not a meta file\n").expect("clobber");
        assert_eq!(read_meta(&path).expect("read"), None);
        assert_eq!(read_meta(&dir.join("absent")).expect("read"), None);
    }

    #[test]
    fn inconsistent_shard_state_is_wiped_back_to_cold() {
        let dir = temp_dir("wipe");
        // A meta with no snapshot behind it is inconsistent.
        let sdir = shard_dir(&dir, 0);
        write_meta(&sdir.join(META_FILE), 1, 3, 99).expect("write");
        let local = recover_shard(&dir, 0, 1).expect("recover");
        assert!(local.tail.wal.is_none());
        assert_eq!(
            local.tail.position(),
            ShardPosition {
                epoch: 0,
                offset: 0
            }
        );
        assert!(
            !sdir.join(META_FILE).exists(),
            "wipe removes the stale meta"
        );
    }

    #[test]
    fn bootstrap_reset_then_recover_resumes_at_base() {
        let dir = temp_dir("reset");
        let sdir = shard_dir(&dir, 0);
        let snapshot = Database::new().snapshot_bytes();
        let mirror = reset_shard_disk(&sdir, 1, 2, 500, &snapshot).expect("reset");
        assert_eq!(mirror.epoch(), 2);
        drop(mirror);
        let local = recover_shard(&dir, 0, 1).expect("recover");
        assert!(local.tail.wal.is_some());
        assert_eq!(
            local.tail.position(),
            ShardPosition {
                epoch: 2,
                offset: 500
            }
        );
        // A different shard count invalidates the state.
        let local = recover_shard(&dir, 0, 2).expect("recover");
        assert!(local.tail.wal.is_none());
    }
}
