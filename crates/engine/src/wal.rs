//! Write-ahead log: the durability backbone behind `insightd`'s acks.
//!
//! The engine's write entry points append one **logical** record *before*
//! executing it, and the server releases a client's acknowledgement only
//! after the log has been fsynced (see [`SyncPolicy`]). There are two
//! record kinds ([`WalRecord`]):
//!
//! - `Script` — the SQL source text of a catalog or row write script
//!   (DDL, `INSERT`, `DELETE FROM`, summary-registry changes);
//! - `Stamped` — typed annotation events ([`AnnotationEvent`]: add,
//!   retract, flag, correct, delete), each carrying the annotation ids
//!   and logical-clock tick it was stamped with before logging.
//!
//! Recovery ([`crate::db::Database::recover`]) loads the latest snapshot
//! and re-applies the log tail: scripts re-execute through
//! [`crate::db::Database::execute_sql`], and event records go through
//! the same apply function live writes use
//! ([`crate::db::Database::annotate_stamped`]). Ids and ticks come out
//! of the log, never out of a replay-time allocator, so the recovered
//! state is byte-identical to the pre-crash one.
//!
//! ## File format
//!
//! ```text
//! header:  "INWL" | u32 version | u64 epoch
//! record:  u32 payload_len | u32 crc32(payload) | payload
//! ```
//!
//! All integers little-endian. The `epoch` pairs the log with the
//! snapshot it extends: a checkpoint writes a durable snapshot stamped
//! with `epoch + 1` and only then rotates the log to the new epoch, so a
//! crash between the two steps leaves a stale log (`log epoch <
//! snapshot epoch`) that recovery discards instead of double-applying.
//! Payloads use the workspace codec ([`insightnotes_common::codec`]).
//!
//! Recovery scans the record frames, verifying length bounds, CRC, and
//! strict payload decode; the first violation is treated as a torn tail —
//! the file is truncated there and the scan stops. Corruption *behind*
//! a valid tail is indistinguishable from a torn append by design: both
//! lose the suffix, never the prefix.
//!
//! ## Crash points
//!
//! Setting `INSIGHTNOTES_CRASH_POINT` to one of the names passed to
//! [`crash_point`] makes the process abort (SIGABRT, no unwinding, no
//! destructors — as close to `kill -9` as an in-process hook gets) the
//! moment that point is reached. The fault-injection tests drive every
//! append/fsync/rename/rotate window through this hook.

use insightnotes_common::codec::{Decoder, Encodable, Encoder};
use insightnotes_common::{crc32, Error, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"INWL";
/// Log format version. Version 2 logs annotation writes only as typed
/// [`WalRecord::Stamped`] events; older logs are refused by
/// [`Wal::open`].
const VERSION: u32 = 2;
/// Fixed size of the log header (`"INWL" | u32 version | u64 epoch`).
/// Record frames start at this file offset; replication offsets are
/// file offsets, so a fresh subscription starts here.
pub const HEADER_BYTES: u64 = 16;
/// Upper bound on one record's payload (matches the wire frame cap).
pub const MAX_RECORD_BYTES: usize = 64 << 20;
/// The log's file name inside [`crate::db::DbConfig::wal_dir`].
pub const WAL_FILE: &str = "insightnotes.wal";

/// Aborts the process when `INSIGHTNOTES_CRASH_POINT` names this point.
/// Fault-injection hook; a no-op in normal operation.
pub fn crash_point(name: &str) {
    if let Ok(target) = std::env::var("INSIGHTNOTES_CRASH_POINT") {
        if target == name {
            eprintln!("crash point `{name}` reached; aborting");
            std::process::abort();
        }
    }
}

/// Reads `INSIGHTNOTES_SYNC_FAIL_AFTER` once per log construction: the
/// number of fsyncs allowed to succeed before every later one fails
/// (without aborting). Fault-injection hook; `None` in normal operation.
fn sync_fail_limit() -> Option<u64> {
    std::env::var("INSIGHTNOTES_SYNC_FAIL_AFTER")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// When appended records are forced to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync inside every append — maximum durability, one fsync per
    /// write statement.
    Always,
    /// Appends buffer in the OS; an explicit [`Wal::sync`] (the server's
    /// group-commit point, one per drained batch) makes them durable
    /// before any ack is released.
    #[default]
    Batch,
    /// Never fsync (crash durability limited to what the OS flushes on
    /// its own). The log still replays after a clean process exit.
    Off,
}

impl SyncPolicy {
    /// Parses a policy name (`always` / `batch` / `off`), as spelled in
    /// `insightd --sync`.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "batch" => Ok(SyncPolicy::Batch),
            "off" => Ok(SyncPolicy::Off),
            other => Err(Error::Execution(format!(
                "unknown sync policy `{other}` (expected always | batch | off)"
            ))),
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SyncPolicy::Always => "always",
            SyncPolicy::Batch => "batch",
            SyncPolicy::Off => "off",
        })
    }
}

/// One group of an annotation's attachment points: rows of one table
/// covering the same columns. An [`AnnotationEvent::Add`] carries a
/// list of these, so a multi-table annotation is one event.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetGroup {
    /// Target table name.
    pub table: String,
    /// Target row ids.
    pub rows: Vec<u64>,
    /// Covered-column bitmask ([`insightnotes_annotations::ColSig`] bits).
    pub cols: u64,
}

/// One annotation event, stamped with the ids and tick it applies
/// under. Stamping happens once, before logging — at the shard router,
/// or from the database's own store and clock when there is no router —
/// so replay and replicas apply the same event verbatim and never
/// allocate.
#[derive(Debug, Clone, PartialEq)]
pub enum AnnotationEvent {
    /// `ADD ANNOTATION`: a new annotation `id` created at `tick`.
    Add {
        /// Annotation id.
        id: u64,
        /// Creation tick (the body's `created` stamp).
        tick: u64,
        /// Attachment points.
        targets: Vec<TargetGroup>,
        /// Annotation text.
        text: String,
        /// Attached document, if any.
        document: Option<String>,
        /// Curator.
        author: String,
    },
    /// `RETRACT ANNOTATION`: tombstones `id` at `tick`.
    Retract {
        /// Annotation id.
        id: u64,
        /// Event tick.
        tick: u64,
    },
    /// `FLAG ANNOTATION`: marks `id` as disputed at `tick`.
    Flag {
        /// Annotation id.
        id: u64,
        /// Event tick.
        tick: u64,
        /// Reviewer note, if any.
        note: Option<String>,
    },
    /// `CORRECT ANNOTATION`: supersedes `id` by `successor`, created at
    /// `tick` on the predecessor's targets.
    Correct {
        /// The superseded annotation id.
        id: u64,
        /// The replacement's id.
        successor: u64,
        /// Event tick (also the replacement's creation tick).
        tick: u64,
        /// Replacement text.
        text: String,
        /// Replacement document, if any.
        document: Option<String>,
        /// Replacement curator (`None` keeps the predecessor's).
        author: Option<String>,
    },
    /// `DELETE ANNOTATION`: removes `id` with its timeline.
    Delete {
        /// Annotation id.
        id: u64,
    },
}

impl Encodable for AnnotationEvent {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            AnnotationEvent::Add {
                id,
                tick,
                targets,
                text,
                document,
                author,
            } => {
                enc.u8(1);
                enc.varint(*id);
                enc.varint(*tick);
                enc.seq(targets, |e, g| {
                    e.str(&g.table);
                    e.seq(&g.rows, |e, r| e.varint(*r));
                    e.u64(g.cols);
                });
                enc.str(text);
                enc.option(document, |e, d| e.str(d));
                enc.str(author);
            }
            AnnotationEvent::Retract { id, tick } => {
                enc.u8(2);
                enc.varint(*id);
                enc.varint(*tick);
            }
            AnnotationEvent::Flag { id, tick, note } => {
                enc.u8(3);
                enc.varint(*id);
                enc.varint(*tick);
                enc.option(note, |e, n| e.str(n));
            }
            AnnotationEvent::Correct {
                id,
                successor,
                tick,
                text,
                document,
                author,
            } => {
                enc.u8(4);
                enc.varint(*id);
                enc.varint(*successor);
                enc.varint(*tick);
                enc.str(text);
                enc.option(document, |e, d| e.str(d));
                enc.option(author, |e, a| e.str(a));
            }
            AnnotationEvent::Delete { id } => {
                enc.u8(5);
                enc.varint(*id);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.u8()? {
            1 => Ok(AnnotationEvent::Add {
                id: dec.varint()?,
                tick: dec.varint()?,
                targets: dec.seq(|d| {
                    Ok(TargetGroup {
                        table: d.str()?,
                        rows: d.seq(Decoder::varint)?,
                        cols: d.u64()?,
                    })
                })?,
                text: dec.str()?,
                document: dec.option(Decoder::str)?,
                author: dec.str()?,
            }),
            2 => Ok(AnnotationEvent::Retract {
                id: dec.varint()?,
                tick: dec.varint()?,
            }),
            3 => Ok(AnnotationEvent::Flag {
                id: dec.varint()?,
                tick: dec.varint()?,
                note: dec.option(Decoder::str)?,
            }),
            4 => Ok(AnnotationEvent::Correct {
                id: dec.varint()?,
                successor: dec.varint()?,
                tick: dec.varint()?,
                text: dec.str()?,
                document: dec.option(Decoder::str)?,
                author: dec.option(Decoder::str)?,
            }),
            5 => Ok(AnnotationEvent::Delete { id: dec.varint()? }),
            tag => Err(Error::Codec(format!("unknown annotation event tag {tag}"))),
        }
    }
}

/// One logical write, as replayed by recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A `;`-separated script of catalog and row writes
    /// ([`crate::db::Database::execute_sql`] semantics: statements run in
    /// order, stopping at the first error). Never holds annotation
    /// statements: those are logged as [`WalRecord::Stamped`] events.
    Script {
        /// The script's source text.
        sql: String,
    },
    /// Stamped annotation events, applied in order by
    /// [`crate::db::Database::annotate_stamped`].
    Stamped {
        /// The events in submission order.
        events: Vec<AnnotationEvent>,
    },
}

impl Encodable for WalRecord {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            WalRecord::Script { sql } => {
                enc.u8(1);
                enc.str(sql);
            }
            WalRecord::Stamped { events } => {
                enc.u8(2);
                enc.seq(events, |e, ev| ev.encode(e));
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.u8()? {
            1 => Ok(WalRecord::Script { sql: dec.str()? }),
            2 => Ok(WalRecord::Stamped {
                events: dec.seq(AnnotationEvent::decode)?,
            }),
            tag => Err(Error::Codec(format!("unknown WAL record tag {tag}"))),
        }
    }
}

/// What a [`Wal::open`] scan found.
#[derive(Debug)]
pub struct WalScan {
    /// The reopened log, positioned for appends after the valid tail.
    pub wal: Wal,
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes cut off the tail (0 = the log was clean).
    pub truncated_bytes: u64,
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: SyncPolicy,
    epoch: u64,
    /// Valid length (header + intact records) — everything appended.
    len: u64,
    /// Prefix known durable (≤ `len`).
    synced_len: u64,
    appends: u64,
    syncs: u64,
    /// Set when an fsync failed: the durable prefix is unknowable, so
    /// the log refuses all further work (DESIGN.md §12).
    poisoned: Option<String>,
    /// Fault injection: fail every fsync once `syncs` reaches this
    /// (captured from `INSIGHTNOTES_SYNC_FAIL_AFTER` at construction).
    sync_fail_after: Option<u64>,
}

impl Wal {
    /// The log's path inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(WAL_FILE)
    }

    /// Creates a fresh log for `epoch` in `dir` (creating the directory
    /// if needed), failing if one already exists — an existing log holds
    /// writes that [`crate::db::Database::recover`] must replay first.
    pub fn create(dir: &Path, epoch: u64, policy: SyncPolicy) -> Result<Wal> {
        std::fs::create_dir_all(dir)?;
        let path = Self::path_in(dir);
        if path.exists() {
            return Err(Error::Execution(format!(
                "write-ahead log {} already exists; recover the database instead of \
                 creating a fresh one over it",
                path.display()
            )));
        }
        let mut file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)?;
        file.write_all(&header_bytes(epoch))?;
        file.sync_all()?;
        sync_dir(dir)?;
        Ok(Wal {
            file,
            path,
            policy,
            epoch,
            len: HEADER_BYTES,
            synced_len: HEADER_BYTES,
            appends: 0,
            syncs: 0,
            poisoned: None,
            sync_fail_after: sync_fail_limit(),
        })
    }

    /// Opens an existing log, scanning and truncating its torn tail.
    /// Returns `Ok(None)` when `dir` holds no log.
    pub fn open(dir: &Path, policy: SyncPolicy) -> Result<Option<WalScan>> {
        let path = Self::path_in(dir);
        let mut file = match OpenOptions::new().read(true).write(true).open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.len() < HEADER_BYTES as usize {
            return Err(Error::Codec(format!(
                "write-ahead log {} is shorter than its header ({} bytes)",
                path.display(),
                bytes.len()
            )));
        }
        if bytes.get(..4) != Some(MAGIC.as_slice()) {
            return Err(Error::Codec(format!(
                "{} is not an InsightNotes write-ahead log",
                path.display()
            )));
        }
        // The length check above guarantees the header fields exist, but
        // recovery is a no-panic path: a short read maps to a structured
        // error, never an abort.
        let (Some(version), Some(epoch)) = (le_field(&bytes, 4), le_field(&bytes, 8)) else {
            return Err(Error::Codec(format!(
                "write-ahead log {} header truncated",
                path.display()
            )));
        };
        let version = u32::from_le_bytes(version);
        if version != VERSION {
            return Err(Error::Codec(format!(
                "unsupported write-ahead log version {version} (expected {VERSION})"
            )));
        }
        let epoch = u64::from_le_bytes(epoch);

        // Scan records; the first torn or corrupt frame ends the log.
        let mut records = Vec::new();
        let mut pos = HEADER_BYTES as usize;
        while let Some((record, consumed)) = bytes.get(pos..).and_then(decode_frame) {
            records.push(record);
            pos += consumed;
        }
        let truncated_bytes = (bytes.len() - pos) as u64;
        if truncated_bytes > 0 {
            file.set_len(pos as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(pos as u64))?;
        Ok(Some(WalScan {
            wal: Wal {
                file,
                path,
                policy,
                epoch,
                len: pos as u64,
                synced_len: pos as u64,
                appends: 0,
                syncs: 0,
                poisoned: None,
                sync_fail_after: sync_fail_limit(),
            },
            records,
            truncated_bytes,
        }))
    }

    /// The epoch this log extends.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The log's current valid length in bytes (header included). After
    /// a [`Wal::sync`], this prefix is durable — the fault-injection
    /// tests use it as the acked watermark.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == HEADER_BYTES
    }

    /// The committed watermark: the prefix of the log that is safe to
    /// ship to replicas. Under [`SyncPolicy::Off`] there is no fsync
    /// point, so everything appended counts as committed; otherwise this
    /// is the fsynced prefix — acks (and therefore replication frames)
    /// never precede it.
    pub fn committed_len(&self) -> u64 {
        if self.policy == SyncPolicy::Off {
            self.len
        } else {
            self.synced_len
        }
    }

    /// `(appends, fsyncs)` since open — group commit amortization shows
    /// up as appends ≫ fsyncs.
    pub fn io_stats(&self) -> (u64, u64) {
        (self.appends, self.syncs)
    }

    /// Appends one record. Under [`SyncPolicy::Always`] the record is
    /// durable on return; otherwise durability waits for [`Wal::sync`].
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        self.check_poisoned()?;
        let mut enc = Encoder::with_capacity(256);
        record.encode(&mut enc);
        let payload = enc.finish();
        if payload.len() > MAX_RECORD_BYTES {
            return Err(Error::Execution(format!(
                "WAL record of {} bytes exceeds the {MAX_RECORD_BYTES}-byte limit",
                payload.len()
            )));
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        crash_point("wal.append.before");
        if std::env::var("INSIGHTNOTES_CRASH_POINT").as_deref() == Ok("wal.append.torn") {
            // Write (and force out) half the frame, then die: recovery
            // must find a genuinely torn record on disk, not an empty
            // buffer the OS never saw.
            let half = &frame[..frame.len() / 2];
            let _ = self.file.write_all(half);
            let _ = self.file.sync_all();
            crash_point("wal.append.torn");
        }
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.appends += 1;
        crash_point("wal.append.after");
        if self.policy == SyncPolicy::Always {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends pre-framed record bytes verbatim — the replication path:
    /// a replica mirrors the primary's shipped frame bytes into its own
    /// log so both files agree byte-for-byte behind the applied offset.
    /// The bytes must parse as a whole number of intact record frames;
    /// anything else is rejected before touching the file.
    pub fn append_raw(&mut self, bytes: &[u8]) -> Result<()> {
        self.check_poisoned()?;
        let mut pos = 0usize;
        while pos < bytes.len() {
            let Some((_, consumed)) = bytes.get(pos..).and_then(decode_frame) else {
                return Err(Error::Codec(format!(
                    "raw WAL append of {} bytes holds a torn or corrupt frame at offset {pos}",
                    bytes.len()
                )));
            };
            pos += consumed;
            self.appends += 1;
        }
        self.file.write_all(bytes)?;
        self.len += bytes.len() as u64;
        if self.policy == SyncPolicy::Always {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces every appended record to disk (no-op under
    /// [`SyncPolicy::Off`], or when nothing is pending). This is the
    /// commit point: acks must not be released before it returns.
    ///
    /// A *failed* fsync permanently poisons the log: after it, the
    /// kernel may have dropped any subset of the dirty pages, so the
    /// durable prefix on disk is unknowable from inside the process. If
    /// appends were allowed to continue and a later fsync succeeded,
    /// writes that were already error-acked (and possibly compensated)
    /// could silently resurrect on restart. Every subsequent
    /// append/sync/rotate fails fast instead; recovery is a restart,
    /// which replays exactly the intact durable prefix.
    pub fn sync(&mut self) -> Result<()> {
        self.check_poisoned()?;
        if self.policy == SyncPolicy::Off || self.synced_len == self.len {
            return Ok(());
        }
        crash_point("wal.sync.before");
        if let Err(e) = self.sync_data_with_fault() {
            self.poisoned = Some(e.to_string());
            return Err(e);
        }
        self.synced_len = self.len;
        self.syncs += 1;
        crash_point("wal.sync.after");
        Ok(())
    }

    /// The real fsync, with the `INSIGHTNOTES_SYNC_FAIL_AFTER=<n>`
    /// fault-injection hook in front: once `n` fsyncs have succeeded on
    /// this log, every later one fails (without aborting the process) —
    /// how the poisoning regression tests simulate a dying disk.
    fn sync_data_with_fault(&mut self) -> Result<()> {
        if let Some(limit) = self.sync_fail_after {
            if self.syncs >= limit {
                return Err(Error::Io(std::io::Error::other(
                    "injected fsync failure (INSIGHTNOTES_SYNC_FAIL_AFTER)",
                )));
            }
        }
        self.file.sync_data()?;
        Ok(())
    }

    /// Test-only: arm the fsync fault on this log directly, without
    /// touching the (process-global, race-prone) environment.
    #[cfg(test)]
    pub(crate) fn fail_syncs_after(&mut self, n: u64) {
        self.sync_fail_after = Some(n);
    }

    fn check_poisoned(&self) -> Result<()> {
        if let Some(why) = &self.poisoned {
            return Err(Error::Execution(format!(
                "write-ahead log {} is poisoned after a failed sync ({why}); \
                 restart the server to recover the durable prefix",
                self.path.display()
            )));
        }
        Ok(())
    }

    /// Restarts the log at `new_epoch` after a checkpoint: the snapshot
    /// stamped with `new_epoch` is durable, so every logged record is
    /// already reflected in it and the log can be cut back to a bare
    /// header.
    pub fn rotate(&mut self, new_epoch: u64) -> Result<()> {
        self.check_poisoned()?;
        crash_point("wal.rotate.before");
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header_bytes(new_epoch))?;
        self.file.sync_all()?;
        self.epoch = new_epoch;
        self.len = HEADER_BYTES;
        self.synced_len = HEADER_BYTES;
        crash_point("wal.rotate.after");
        Ok(())
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn header_bytes(epoch: u64) -> [u8; HEADER_BYTES as usize] {
    let mut h = [0u8; HEADER_BYTES as usize];
    h[..4].copy_from_slice(MAGIC);
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&epoch.to_le_bytes());
    h
}

/// Panic-free fixed-width field read: the `N` bytes at `at`, or `None`
/// when `bytes` is too short. Recovery code uses this instead of
/// `bytes[a..b].try_into().unwrap()` so a truncated log can never abort
/// the process.
fn le_field<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes
        .get(at..at.checked_add(N)?)
        .and_then(|s| s.try_into().ok())
}

/// Decodes one record frame from the front of `bytes`; `None` marks a
/// torn or corrupt frame (truncation point). Public so the replication
/// subsystem can decode shipped frame bytes with the same strictness as
/// recovery.
pub fn decode_frame(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    let len = u32::from_le_bytes(le_field(bytes, 0)?) as usize;
    if len > MAX_RECORD_BYTES {
        return None;
    }
    let crc = u32::from_le_bytes(le_field(bytes, 4)?);
    let payload = bytes.get(8..8 + len)?;
    if crc32(payload) != crc {
        return None;
    }
    let mut dec = Decoder::new(payload);
    let record = WalRecord::decode(&mut dec).ok()?;
    dec.expect_end().ok()?;
    Some((record, 8 + len))
}

/// fsyncs a directory so a just-created or just-renamed entry inside it
/// survives power loss (no-op on platforms where directories cannot be
/// opened for sync).
pub fn sync_dir(dir: &Path) -> Result<()> {
    match File::open(dir) {
        Ok(d) => {
            d.sync_all()?;
            Ok(())
        }
        Err(_) if !cfg!(unix) => Ok(()),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "insightnotes-wal-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Script {
                sql: "CREATE TABLE t (a INT); INSERT INTO t VALUES (1)".into(),
            },
            WalRecord::Stamped {
                events: vec![
                    AnnotationEvent::Add {
                        id: 1,
                        tick: 2,
                        targets: vec![
                            TargetGroup {
                                table: "t".into(),
                                rows: vec![1, 2],
                                cols: 0b11,
                            },
                            TargetGroup {
                                table: "u".into(),
                                rows: vec![7],
                                cols: 0b10,
                            },
                        ],
                        text: "typed".into(),
                        document: Some("doc".into()),
                        author: "ada".into(),
                    },
                    AnnotationEvent::Flag {
                        id: 1,
                        tick: 3,
                        note: Some("dubious".into()),
                    },
                ],
            },
            WalRecord::Stamped {
                events: vec![
                    AnnotationEvent::Correct {
                        id: 1,
                        successor: 2,
                        tick: 4,
                        text: "fixed".into(),
                        document: None,
                        author: None,
                    },
                    AnnotationEvent::Retract { id: 2, tick: 5 },
                ],
            },
            WalRecord::Stamped {
                events: vec![AnnotationEvent::Delete { id: 2 }],
            },
        ]
    }

    #[test]
    fn records_round_trip_through_append_and_open() {
        let dir = temp_dir("roundtrip");
        let records = sample_records();
        {
            let mut wal = Wal::create(&dir, 3, SyncPolicy::Always).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let scan = Wal::open(&dir, SyncPolicy::Batch).unwrap().unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.wal.epoch(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_to_clobber_an_existing_log() {
        let dir = temp_dir("clobber");
        let _wal = Wal::create(&dir, 0, SyncPolicy::Off).unwrap();
        let err = Wal::create(&dir, 0, SyncPolicy::Off).unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_byte_offset() {
        let dir = temp_dir("torn");
        let records = sample_records();
        {
            let mut wal = Wal::create(&dir, 0, SyncPolicy::Off).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let path = Wal::path_in(&dir);
        let full = std::fs::read(&path).unwrap();
        // Find where the final record starts by re-framing the first three.
        let scan = Wal::open(&dir, SyncPolicy::Off).unwrap().unwrap();
        drop(scan);
        let mut tail_start = HEADER_BYTES as usize;
        for _ in 0..records.len() - 1 {
            let len =
                u32::from_le_bytes(full[tail_start..tail_start + 4].try_into().unwrap()) as usize;
            tail_start += 8 + len;
        }
        for cut in tail_start..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = Wal::open(&dir, SyncPolicy::Off).unwrap().unwrap();
            assert_eq!(
                scan.records,
                records[..records.len() - 1],
                "cut at byte {cut}"
            );
            assert_eq!(scan.truncated_bytes, (cut - tail_start) as u64);
            // The scan physically truncated the file back to the prefix.
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                tail_start as u64,
                "cut at byte {cut}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_byte_in_final_record_drops_only_that_record() {
        let dir = temp_dir("corrupt");
        let records = sample_records();
        {
            let mut wal = Wal::create(&dir, 0, SyncPolicy::Off).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let path = Wal::path_in(&dir);
        let full = std::fs::read(&path).unwrap();
        let mut corrupt = full.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        std::fs::write(&path, &corrupt).unwrap();
        let scan = Wal::open(&dir, SyncPolicy::Off).unwrap().unwrap();
        assert_eq!(scan.records, records[..records.len() - 1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_and_truncated_headers_are_classified_errors() {
        let dir = temp_dir("badheader");
        std::fs::create_dir_all(&dir).unwrap();
        let path = Wal::path_in(&dir);

        std::fs::write(&path, b"NOPE").unwrap();
        assert_eq!(
            Wal::open(&dir, SyncPolicy::Off).unwrap_err().class(),
            "codec"
        );

        std::fs::write(&path, b"INWLxxxxyyyyzzzz").unwrap();
        assert_eq!(
            Wal::open(&dir, SyncPolicy::Off).unwrap_err().class(),
            "codec"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotate_cuts_the_log_back_to_a_header_with_the_new_epoch() {
        let dir = temp_dir("rotate");
        let mut wal = Wal::create(&dir, 0, SyncPolicy::Batch).unwrap();
        for r in &sample_records() {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        assert!(!wal.is_empty());
        wal.rotate(1).unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.epoch(), 1);
        // Appends keep working after rotation, and reopen sees only them.
        wal.append(&WalRecord::Script { sql: "x".into() }).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let scan = Wal::open(&dir, SyncPolicy::Batch).unwrap().unwrap();
        assert_eq!(scan.wal.epoch(), 1);
        assert_eq!(scan.records.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_policies_gate_fsync_counts() {
        let dir = temp_dir("policies");
        let mut wal = Wal::create(&dir, 0, SyncPolicy::Always).unwrap();
        wal.append(&WalRecord::Script { sql: "a".into() }).unwrap();
        wal.append(&WalRecord::Script { sql: "b".into() }).unwrap();
        assert_eq!(wal.io_stats(), (2, 2));
        // A redundant explicit sync is free.
        wal.sync().unwrap();
        assert_eq!(wal.io_stats(), (2, 2));
        std::fs::remove_dir_all(&dir).ok();

        let dir = temp_dir("policies2");
        let mut wal = Wal::create(&dir, 0, SyncPolicy::Batch).unwrap();
        wal.append(&WalRecord::Script { sql: "a".into() }).unwrap();
        wal.append(&WalRecord::Script { sql: "b".into() }).unwrap();
        assert_eq!(wal.io_stats(), (2, 0));
        wal.sync().unwrap();
        assert_eq!(wal.io_stats(), (2, 1));
        std::fs::remove_dir_all(&dir).ok();

        let dir = temp_dir("policies3");
        let mut wal = Wal::create(&dir, 0, SyncPolicy::Off).unwrap();
        wal.append(&WalRecord::Script { sql: "a".into() }).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.io_stats(), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_raw_mirrors_frames_and_rejects_torn_bytes() {
        let dir = temp_dir("rawsrc");
        let records = sample_records();
        {
            let mut wal = Wal::create(&dir, 5, SyncPolicy::Off).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let frames = std::fs::read(Wal::path_in(&dir)).unwrap()[HEADER_BYTES as usize..].to_vec();
        std::fs::remove_dir_all(&dir).ok();

        let dir = temp_dir("rawdst");
        let mut wal = Wal::create(&dir, 5, SyncPolicy::Batch).unwrap();
        // Torn or corrupt raw bytes are rejected without touching the file.
        let err = wal.append_raw(&frames[..frames.len() - 1]).unwrap_err();
        assert_eq!(err.class(), "codec");
        assert!(wal.is_empty());

        wal.append_raw(&frames).unwrap();
        assert_eq!(wal.committed_len(), HEADER_BYTES);
        wal.sync().unwrap();
        assert_eq!(wal.committed_len(), HEADER_BYTES + frames.len() as u64);
        drop(wal);
        // The mirrored log reopens to the same records, byte-identical
        // behind the shipped frames.
        let scan = Wal::open(&dir, SyncPolicy::Batch).unwrap().unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn committed_len_counts_everything_under_sync_off() {
        let dir = temp_dir("committed-off");
        let mut wal = Wal::create(&dir, 0, SyncPolicy::Off).unwrap();
        wal.append(&WalRecord::Script { sql: "a".into() }).unwrap();
        assert_eq!(wal.committed_len(), wal.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_sync_poisons_the_log_for_good() {
        let dir = temp_dir("poison");
        let mut wal = Wal::create(&dir, 1, SyncPolicy::Batch).unwrap();
        wal.append(&WalRecord::Script { sql: "a".into() }).unwrap();
        wal.sync().unwrap();
        let durable = wal.committed_len();
        wal.fail_syncs_after(1);
        wal.append(&WalRecord::Script { sql: "b".into() }).unwrap();
        let err = wal.sync().unwrap_err();
        assert!(err.to_string().contains("injected fsync failure"), "{err}");
        // Sticky: every later operation refuses, the committed
        // watermark never advances past the last good fsync, and even a
        // checkpoint rotation cannot resurrect the log.
        assert!(wal.append(&WalRecord::Script { sql: "c".into() }).is_err());
        assert!(wal.sync().is_err());
        assert!(wal.rotate(2).is_err());
        assert_eq!(wal.committed_len(), durable);
        // Restart is the recovery path: reopening scans whatever made it
        // to the file intact (in-process the page cache still holds the
        // unsynced append; after power loss it may not — the daemon
        // fault-injection tests cover that side).
        drop(wal);
        let scan = Wal::open(&dir, SyncPolicy::Batch).unwrap().unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_policy_parse_round_trips() {
        for p in [SyncPolicy::Always, SyncPolicy::Batch, SyncPolicy::Off] {
            assert_eq!(SyncPolicy::parse(&p.to_string()).unwrap(), p);
        }
        assert!(SyncPolicy::parse("sometimes").is_err());
    }
}
