//! The `insightd` wire protocol.
//!
//! Client and server exchange **length-prefixed binary frames** over a
//! byte stream (TCP in practice; the functions here only require
//! `Read`/`Write`, which keeps them trivially testable over in-memory
//! buffers). Two frame layouts are live, distinguished by the version
//! word that follows the magic:
//!
//! ```text
//! u32 LE   frame length N (bytes that follow, bounded by MAX_FRAME_BYTES)
//! [u8; 4]  magic  "INWP"         ─┐
//! u16 LE   protocol version       │ N bytes, decoded strictly:
//! u64 LE   sequence id (v2 only)  │ unknown tags, truncation and
//! u8       message kind tag       │ trailing bytes are codec errors
//! …        kind-specific body    ─┘
//! ```
//!
//! **Version 1 (serial)** has no sequence id: one request, one response,
//! in lock step. **Version 2 (pipelined)** inserts a client-assigned
//! `u64` sequence id between the version word and the kind tag, and the
//! contract changes to *many requests in flight per connection*:
//!
//! - the client stamps every request frame with a sequence id of its
//!   choosing (unique among its own in-flight requests);
//! - the server echoes that id on the matching response frame, and on
//!   **every** frame of a streaming answer (`SubscribeAck` /
//!   `SnapshotChunk` / `WalFrame` all repeat the `Subscribe` seq);
//! - read-only requests may be answered **out of order**; write
//!   requests are acknowledged in commit (fsync) order.
//!
//! Version negotiation is per-frame and implicit: the server answers a
//! frame in the version it arrived in, so v1 and v2 clients coexist on
//! one listener with no handshake. A client discovers v2 support by
//! sending a v1 [`Request::Ping`] and checking
//! [`Response::Pong`]`::version` (the server's *maximum* supported
//! version) before switching to v2 frames. Decoders reject any other
//! version outright, so a v2 frame reaching a v1-only peer (an old
//! replica, say) fails fast instead of being half-parsed.
//!
//! Requests carry SQL text ([`Request::Query`], [`Request::Execute`],
//! [`Request::Annotate`], [`Request::ZoomIn`]), a statement batch
//! ([`Request::AnnotateBatch`], capped at [`MAX_BATCH_ITEMS`] items), or
//! are control frames ([`Request::Ping`], [`Request::Shutdown`]).
//! Responses carry either structured payloads ([`RowsPayload`],
//! [`ZoomPayload`], per-item [`BatchItem`] results) or a
//! structured error frame ([`WireError`]) that round-trips
//! [`enum@Error`] across the connection: the client re-raises the same
//! error class the server-side engine produced.
//!
//! The payload types are deliberately self-contained (plain strings and
//! scalars, no engine types) so that a client needs only this crate to
//! speak the protocol; summary objects travel in their rendered paper
//! notation (`ClassBird1 [(Behavior, 14), …]`).

use crate::codec::{Decoder, Encodable, Encoder};
use crate::error::{Error, Result};
use std::io::{Read, Write};

/// Frame magic: **I**nsight**N**otes **W**ire **P**rotocol.
pub const WIRE_MAGIC: [u8; 4] = *b"INWP";

/// Maximum protocol version this build speaks (the pipelined layout).
/// Advertised in [`Response::Pong`]; decoders accept exactly the
/// versions listed here and reject everything else so a future frame
/// layout can never be half-parsed by an old peer.
pub const WIRE_VERSION: u16 = 2;

/// The serial (one request, one response) frame layout. Still fully
/// supported: [`frame_bytes`] / [`read_frame`] speak it, and the server
/// answers a v1 frame with a v1 frame.
pub const WIRE_VERSION_SERIAL: u16 = 1;

/// Byte length of a v2 frame header inside the payload (after the u32
/// length prefix): magic + version word + sequence id. A frame whose
/// declared length is at least this long carries a recoverable header
/// even when the body is oversized or garbage — the reactor uses this
/// to answer oversized frames with a seq-addressed error instead of
/// dropping the connection.
pub const V2_HEADER_BYTES: usize = 4 + 2 + 8;

/// Upper bound on a single frame's payload. A corrupt or hostile length
/// prefix fails fast instead of triggering an allocation of its claimed
/// size.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Upper bound on the statement count of one [`Request::AnnotateBatch`],
/// mirroring [`MAX_FRAME_BYTES`]: a batch above this limit is a codec
/// error at decode time (the server answers with a structured error
/// frame, the connection stays usable).
pub const MAX_BATCH_ITEMS: usize = 64 << 10;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// A single `SELECT`; answered with [`Response::Rows`].
    Query {
        /// The SELECT text.
        sql: String,
    },
    /// One or more `;`-separated statements of any kind; answered with
    /// [`Response::Ack`] listing one rendered outcome per statement.
    Execute {
        /// The statement text.
        sql: String,
    },
    /// A single `ADD ANNOTATION`; answered with [`Response::Ack`].
    Annotate {
        /// The statement text.
        sql: String,
    },
    /// Up to [`MAX_BATCH_ITEMS`] `ADD ANNOTATION` statements ingested as
    /// one group; answered with [`Response::BatchAck`] carrying one
    /// structured result per statement (partial failure allowed — a bad
    /// item does not abort its neighbours).
    AnnotateBatch {
        /// One `ADD ANNOTATION` statement per entry, in batch order.
        statements: Vec<String>,
    },
    /// A single `ZOOMIN`; answered with [`Response::Zoomed`].
    ZoomIn {
        /// The statement text.
        sql: String,
    },
    /// Asks the server to shut down gracefully (final snapshot included);
    /// answered with [`Response::ShuttingDown`].
    Shutdown,
    /// Switches the connection into replication streaming mode for one
    /// shard. `epoch`/`offset` name the subscriber's position in that
    /// shard's WAL ((0, 0) = no local state); the server answers with
    /// [`Response::SubscribeAck`], optionally a [`Response::SnapshotChunk`]
    /// bootstrap stream, then an unbounded sequence of
    /// [`Response::WalFrame`]s. No further requests are read on the
    /// connection.
    Subscribe {
        /// Shard index to tail (`0..shards`).
        shard: u32,
        /// WAL epoch of the subscriber's last applied frame, 0 if none.
        epoch: u64,
        /// Byte offset *after* the last applied record frame in that
        /// epoch's WAL (file offset, header included), 0 if none.
        offset: u64,
    },
    /// Asks for the per-shard replication position vector; answered with
    /// [`Response::ReplicaState`]. On a primary the vector holds each
    /// shard's committed (fsynced) WAL position; on a replica, the
    /// primary position it has applied locally.
    ReplicaState,
    /// `HISTORY <annotation-id>`: asks for one annotation's lifecycle
    /// timeline; answered with [`Response::History`]. Read-only, so
    /// replicas serve it too.
    History {
        /// The annotation id whose timeline is requested.
        annotation: u64,
    },
}

impl Request {
    /// The SQL text carried by this request, if any. Batch requests
    /// carry many statements and return `None` here; read them from
    /// [`Request::AnnotateBatch`] directly.
    pub fn sql(&self) -> Option<&str> {
        match self {
            Request::Query { sql }
            | Request::Execute { sql }
            | Request::Annotate { sql }
            | Request::ZoomIn { sql } => Some(sql),
            Request::Ping
            | Request::Shutdown
            | Request::AnnotateBatch { .. }
            | Request::Subscribe { .. }
            | Request::ReplicaState
            | Request::History { .. } => None,
        }
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// The server's protocol version.
        version: u16,
        /// Number of requests the connection has served so far.
        served: u64,
    },
    /// Statement(s) executed; one rendered outcome line each.
    Ack {
        /// Rendered `ExecOutcome`-style messages, in statement order.
        messages: Vec<String>,
    },
    /// Answer to [`Request::AnnotateBatch`]: one result per statement,
    /// in batch order. Failed items carry the engine error; successful
    /// neighbours committed regardless.
    BatchAck {
        /// Per-statement outcomes, in batch order.
        results: Vec<BatchItem>,
    },
    /// A query result set.
    Rows(RowsPayload),
    /// A zoom-in result.
    Zoomed(ZoomPayload),
    /// The request failed; carries the engine error.
    Error(WireError),
    /// The server acknowledged a shutdown request and will close the
    /// connection after this frame.
    ShuttingDown,
    /// First answer to [`Request::Subscribe`]: the position the stream
    /// will continue from. When `snapshot` is true the subscriber's
    /// position was unusable (no state, stale epoch, or truncated
    /// history) and a [`Response::SnapshotChunk`] bootstrap stream
    /// follows before the first [`Response::WalFrame`]; the subscriber
    /// must discard its local shard state. A new `SubscribeAck` may
    /// arrive mid-stream when the primary checkpoints (epoch rotation).
    SubscribeAck {
        /// WAL epoch the following frames belong to.
        epoch: u64,
        /// WAL byte offset the first following frame starts at.
        offset: u64,
        /// Whether a snapshot bootstrap stream precedes the WAL frames.
        snapshot: bool,
    },
    /// One chunk of a snapshot bootstrap stream (serialized shard state,
    /// chunked to bound frame sizes). `last` marks the final chunk.
    SnapshotChunk {
        /// Raw snapshot bytes; concatenate chunks in arrival order.
        data: Vec<u8>,
        /// Whether this is the final chunk of the snapshot.
        last: bool,
    },
    /// A slice of committed (fsynced and acked) WAL record frames,
    /// verbatim bytes from the primary's log. Empty `data` is a
    /// heartbeat carrying the current committed position.
    WalFrame {
        /// WAL epoch these bytes belong to.
        epoch: u64,
        /// File offset of the first byte in `data`.
        offset: u64,
        /// Raw record-frame bytes (`u32 len | u32 crc | payload`…).
        data: Vec<u8>,
    },
    /// Answer to [`Request::ReplicaState`]: one position per shard, in
    /// shard order.
    ReplicaState {
        /// Per-shard committed/applied WAL positions.
        shards: Vec<ShardPosition>,
    },
    /// Answer to [`Request::History`]: the annotation's lifecycle
    /// timeline, oldest event first.
    History(HistoryPayload),
}

/// The payload of [`Response::History`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryPayload {
    /// The annotation id the timeline belongs to.
    pub annotation: u64,
    /// Lifecycle events, oldest first (creation always leads).
    pub events: Vec<WireLifecycleEvent>,
}

/// One event of an annotation's lifecycle timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireLifecycleEvent {
    /// What happened.
    pub kind: WireLifecycleKind,
    /// Logical-clock tick of the event.
    pub at: u64,
    /// Reviewer note attached to a flag, if any.
    pub note: Option<String>,
    /// Successor annotation id of a correction, if any.
    pub successor: Option<u64>,
}

/// The event kinds a [`WireLifecycleEvent`] can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireLifecycleKind {
    /// The annotation was added.
    Created,
    /// The annotation was flagged as disputed.
    Flagged,
    /// The annotation was retracted (tombstoned, no successor).
    Retracted,
    /// The annotation was corrected (tombstoned with a successor).
    Corrected,
}

impl std::fmt::Display for WireLifecycleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WireLifecycleKind::Created => "created",
            WireLifecycleKind::Flagged => "flagged",
            WireLifecycleKind::Retracted => "retracted",
            WireLifecycleKind::Corrected => "corrected",
        })
    }
}

/// One shard's replication position inside [`Response::ReplicaState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardPosition {
    /// WAL epoch of the position.
    pub epoch: u64,
    /// Byte offset after the last committed/applied record frame.
    pub offset: u64,
}

/// One value in a result row, mirroring the storage value space.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Boolean.
    Bool(bool),
}

impl std::fmt::Display for WireValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireValue::Null => write!(f, "NULL"),
            WireValue::Int(v) => write!(f, "{v}"),
            WireValue::Float(v) => write!(f, "{v}"),
            WireValue::Text(s) => write!(f, "{s}"),
            WireValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One result tuple: values plus its summary objects rendered in the
/// paper's notation (`Instance [(Component, count), …]`).
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    /// The data values, in output-schema order.
    pub values: Vec<WireValue>,
    /// Rendered summary objects, sorted by instance name.
    pub summaries: Vec<String>,
}

/// The payload of [`Response::Rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowsPayload {
    /// The result's QID (zoom-in reference).
    pub qid: u64,
    /// Output column display names.
    pub columns: Vec<String>,
    /// The result tuples.
    pub rows: Vec<WireRow>,
}

/// One raw annotation inside a [`ZoomPayload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireAnnotation {
    /// Annotation id.
    pub id: u64,
    /// Free text.
    pub text: String,
    /// Attached document, if any.
    pub document: Option<String>,
    /// Curator.
    pub author: String,
}

/// The payload of [`Response::Zoomed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoomPayload {
    /// The raw annotations behind the expanded component.
    pub annotations: Vec<WireAnnotation>,
    /// Whether the referenced result came from the disk cache.
    pub from_cache: bool,
    /// Result tuples matching the refinement predicate.
    pub matched_rows: u64,
}

/// One statement's outcome inside a [`Response::BatchAck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchItem {
    /// The statement committed; carries its rendered outcome line.
    Ok(String),
    /// The statement failed; the rest of the batch was unaffected.
    Err(WireError),
}

impl BatchItem {
    /// Converts into a plain `Result`, re-raising the engine error class.
    pub fn into_result(self) -> Result<String> {
        match self {
            BatchItem::Ok(m) => Ok(m),
            BatchItem::Err(e) => Err(e.into_error()),
        }
    }

    /// Whether the item committed.
    pub fn is_ok(&self) -> bool {
        matches!(self, BatchItem::Ok(_))
    }
}

/// A structured error frame: `class` is [`Error::class`], `message` the
/// display text. [`WireError::into_error`] reconstructs the matching
/// [`enum@Error`] variant on the client side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable error class (`parse`, `catalog`, …).
    pub class: String,
    /// Human-readable message.
    pub message: String,
}

impl From<&Error> for WireError {
    fn from(e: &Error) -> Self {
        Self {
            class: e.class().to_string(),
            message: match e {
                // Display prefixes the class; keep only the message so the
                // reconstructed error does not double it.
                Error::Io(io) => io.to_string(),
                Error::Parse(m)
                | Error::Catalog(m)
                | Error::Type(m)
                | Error::Execution(m)
                | Error::Annotation(m)
                | Error::Summary(m)
                | Error::ZoomIn(m)
                | Error::Codec(m)
                | Error::ReadOnlyReplica(m) => m.clone(),
            },
        }
    }
}

impl WireError {
    /// Reconstructs the engine error this frame was built from. Unknown
    /// classes (a newer server) degrade to [`Error::Execution`].
    pub fn into_error(self) -> Error {
        let m = self.message;
        match self.class.as_str() {
            "parse" => Error::Parse(m),
            "catalog" => Error::Catalog(m),
            "type" => Error::Type(m),
            "execution" => Error::Execution(m),
            "annotation" => Error::Annotation(m),
            "summary" => Error::Summary(m),
            "zoomin" => Error::ZoomIn(m),
            "codec" => Error::Codec(m),
            "read_only_replica" => Error::ReadOnlyReplica(m),
            "io" => Error::Io(std::io::Error::other(m)),
            _ => Error::Execution(format!("[{}] {m}", self.class)),
        }
    }
}

// -- encodings ------------------------------------------------------------

const REQ_PING: u8 = 1;
const REQ_QUERY: u8 = 2;
const REQ_EXECUTE: u8 = 3;
const REQ_ANNOTATE: u8 = 4;
const REQ_ZOOMIN: u8 = 5;
const REQ_SHUTDOWN: u8 = 6;
const REQ_ANNOTATE_BATCH: u8 = 7;
const REQ_SUBSCRIBE: u8 = 8;
const REQ_REPLICA_STATE: u8 = 9;
const REQ_HISTORY: u8 = 10;

impl Encodable for Request {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Request::Ping => enc.u8(REQ_PING),
            Request::Query { sql } => {
                enc.u8(REQ_QUERY);
                enc.str(sql);
            }
            Request::Execute { sql } => {
                enc.u8(REQ_EXECUTE);
                enc.str(sql);
            }
            Request::Annotate { sql } => {
                enc.u8(REQ_ANNOTATE);
                enc.str(sql);
            }
            Request::ZoomIn { sql } => {
                enc.u8(REQ_ZOOMIN);
                enc.str(sql);
            }
            Request::Shutdown => enc.u8(REQ_SHUTDOWN),
            Request::AnnotateBatch { statements } => {
                enc.u8(REQ_ANNOTATE_BATCH);
                enc.seq(statements, |e, s| e.str(s));
            }
            Request::Subscribe {
                shard,
                epoch,
                offset,
            } => {
                enc.u8(REQ_SUBSCRIBE);
                enc.u32(*shard);
                enc.u64(*epoch);
                enc.u64(*offset);
            }
            Request::ReplicaState => enc.u8(REQ_REPLICA_STATE),
            Request::History { annotation } => {
                enc.u8(REQ_HISTORY);
                enc.varint(*annotation);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.u8()? {
            REQ_PING => Request::Ping,
            REQ_QUERY => Request::Query { sql: dec.str()? },
            REQ_EXECUTE => Request::Execute { sql: dec.str()? },
            REQ_ANNOTATE => Request::Annotate { sql: dec.str()? },
            REQ_ZOOMIN => Request::ZoomIn { sql: dec.str()? },
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_ANNOTATE_BATCH => {
                let statements: Vec<String> = dec.seq(super::codec::Decoder::str)?;
                if statements.len() > MAX_BATCH_ITEMS {
                    return Err(Error::Codec(format!(
                        "annotation batch of {} statements exceeds the \
                         {MAX_BATCH_ITEMS}-item limit",
                        statements.len()
                    )));
                }
                Request::AnnotateBatch { statements }
            }
            REQ_SUBSCRIBE => Request::Subscribe {
                shard: dec.u32()?,
                epoch: dec.u64()?,
                offset: dec.u64()?,
            },
            REQ_REPLICA_STATE => Request::ReplicaState,
            REQ_HISTORY => Request::History {
                annotation: dec.varint()?,
            },
            tag => return Err(Error::Codec(format!("unknown request tag {tag}"))),
        })
    }
}

const RESP_PONG: u8 = 1;
const RESP_ACK: u8 = 2;
const RESP_ROWS: u8 = 3;
const RESP_ZOOMED: u8 = 4;
const RESP_ERROR: u8 = 5;
const RESP_SHUTTING_DOWN: u8 = 6;
const RESP_BATCH_ACK: u8 = 7;
const RESP_SUBSCRIBE_ACK: u8 = 8;
const RESP_SNAPSHOT_CHUNK: u8 = 9;
const RESP_WAL_FRAME: u8 = 10;
const RESP_REPLICA_STATE: u8 = 11;
const RESP_HISTORY: u8 = 12;

const ITEM_OK: u8 = 0;
const ITEM_ERR: u8 = 1;

impl Encodable for BatchItem {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            BatchItem::Ok(m) => {
                enc.u8(ITEM_OK);
                enc.str(m);
            }
            BatchItem::Err(e) => {
                enc.u8(ITEM_ERR);
                enc.str(&e.class);
                enc.str(&e.message);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.u8()? {
            ITEM_OK => BatchItem::Ok(dec.str()?),
            ITEM_ERR => BatchItem::Err(WireError {
                class: dec.str()?,
                message: dec.str()?,
            }),
            tag => return Err(Error::Codec(format!("unknown batch item tag {tag}"))),
        })
    }
}

impl Encodable for Response {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Response::Pong { version, served } => {
                enc.u8(RESP_PONG);
                enc.u16(*version);
                enc.u64(*served);
            }
            Response::Ack { messages } => {
                enc.u8(RESP_ACK);
                enc.seq(messages, |e, m| e.str(m));
            }
            Response::Rows(p) => {
                enc.u8(RESP_ROWS);
                p.encode(enc);
            }
            Response::Zoomed(p) => {
                enc.u8(RESP_ZOOMED);
                p.encode(enc);
            }
            Response::Error(e) => {
                enc.u8(RESP_ERROR);
                enc.str(&e.class);
                enc.str(&e.message);
            }
            Response::ShuttingDown => enc.u8(RESP_SHUTTING_DOWN),
            Response::BatchAck { results } => {
                enc.u8(RESP_BATCH_ACK);
                results.encode(enc);
            }
            Response::SubscribeAck {
                epoch,
                offset,
                snapshot,
            } => {
                enc.u8(RESP_SUBSCRIBE_ACK);
                enc.u64(*epoch);
                enc.u64(*offset);
                enc.bool(*snapshot);
            }
            Response::SnapshotChunk { data, last } => {
                enc.u8(RESP_SNAPSHOT_CHUNK);
                enc.bytes(data);
                enc.bool(*last);
            }
            Response::WalFrame {
                epoch,
                offset,
                data,
            } => {
                enc.u8(RESP_WAL_FRAME);
                enc.u64(*epoch);
                enc.u64(*offset);
                enc.bytes(data);
            }
            Response::ReplicaState { shards } => {
                enc.u8(RESP_REPLICA_STATE);
                enc.seq(shards, |e, s| {
                    e.u64(s.epoch);
                    e.u64(s.offset);
                });
            }
            Response::History(p) => {
                enc.u8(RESP_HISTORY);
                p.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.u8()? {
            RESP_PONG => Response::Pong {
                version: dec.u16()?,
                served: dec.u64()?,
            },
            RESP_ACK => Response::Ack {
                messages: dec.seq(super::codec::Decoder::str)?,
            },
            RESP_BATCH_ACK => Response::BatchAck {
                results: Vec::<BatchItem>::decode(dec)?,
            },
            RESP_ROWS => Response::Rows(RowsPayload::decode(dec)?),
            RESP_ZOOMED => Response::Zoomed(ZoomPayload::decode(dec)?),
            RESP_ERROR => Response::Error(WireError {
                class: dec.str()?,
                message: dec.str()?,
            }),
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_SUBSCRIBE_ACK => Response::SubscribeAck {
                epoch: dec.u64()?,
                offset: dec.u64()?,
                snapshot: dec.bool()?,
            },
            RESP_SNAPSHOT_CHUNK => Response::SnapshotChunk {
                data: dec.bytes()?.to_vec(),
                last: dec.bool()?,
            },
            RESP_WAL_FRAME => Response::WalFrame {
                epoch: dec.u64()?,
                offset: dec.u64()?,
                data: dec.bytes()?.to_vec(),
            },
            RESP_REPLICA_STATE => Response::ReplicaState {
                shards: dec.seq(|d| {
                    Ok(ShardPosition {
                        epoch: d.u64()?,
                        offset: d.u64()?,
                    })
                })?,
            },
            RESP_HISTORY => Response::History(HistoryPayload::decode(dec)?),
            tag => return Err(Error::Codec(format!("unknown response tag {tag}"))),
        })
    }
}

const VAL_NULL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_FLOAT: u8 = 2;
const VAL_TEXT: u8 = 3;
const VAL_BOOL: u8 = 4;

impl Encodable for WireValue {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            WireValue::Null => enc.u8(VAL_NULL),
            WireValue::Int(v) => {
                enc.u8(VAL_INT);
                enc.i64(*v);
            }
            WireValue::Float(v) => {
                enc.u8(VAL_FLOAT);
                enc.f64(*v);
            }
            WireValue::Text(s) => {
                enc.u8(VAL_TEXT);
                enc.str(s);
            }
            WireValue::Bool(b) => {
                enc.u8(VAL_BOOL);
                enc.bool(*b);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.u8()? {
            VAL_NULL => WireValue::Null,
            VAL_INT => WireValue::Int(dec.i64()?),
            VAL_FLOAT => WireValue::Float(dec.f64()?),
            VAL_TEXT => WireValue::Text(dec.str()?),
            VAL_BOOL => WireValue::Bool(dec.bool()?),
            tag => return Err(Error::Codec(format!("unknown value tag {tag}"))),
        })
    }
}

impl Encodable for WireRow {
    fn encode(&self, enc: &mut Encoder) {
        self.values.encode(enc);
        enc.seq(&self.summaries, |e, s| e.str(s));
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Self {
            values: Vec::<WireValue>::decode(dec)?,
            summaries: dec.seq(super::codec::Decoder::str)?,
        })
    }
}

impl Encodable for RowsPayload {
    fn encode(&self, enc: &mut Encoder) {
        enc.varint(self.qid);
        enc.seq(&self.columns, |e, c| e.str(c));
        self.rows.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Self {
            qid: dec.varint()?,
            columns: dec.seq(super::codec::Decoder::str)?,
            rows: Vec::<WireRow>::decode(dec)?,
        })
    }
}

impl Encodable for WireAnnotation {
    fn encode(&self, enc: &mut Encoder) {
        enc.varint(self.id);
        enc.str(&self.text);
        enc.option(&self.document, |e, d| e.str(d));
        enc.str(&self.author);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Self {
            id: dec.varint()?,
            text: dec.str()?,
            document: dec.option(super::codec::Decoder::str)?,
            author: dec.str()?,
        })
    }
}

const LIFECYCLE_CREATED: u8 = 0;
const LIFECYCLE_FLAGGED: u8 = 1;
const LIFECYCLE_RETRACTED: u8 = 2;
const LIFECYCLE_CORRECTED: u8 = 3;

impl Encodable for WireLifecycleKind {
    fn encode(&self, enc: &mut Encoder) {
        enc.u8(match self {
            WireLifecycleKind::Created => LIFECYCLE_CREATED,
            WireLifecycleKind::Flagged => LIFECYCLE_FLAGGED,
            WireLifecycleKind::Retracted => LIFECYCLE_RETRACTED,
            WireLifecycleKind::Corrected => LIFECYCLE_CORRECTED,
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.u8()? {
            LIFECYCLE_CREATED => WireLifecycleKind::Created,
            LIFECYCLE_FLAGGED => WireLifecycleKind::Flagged,
            LIFECYCLE_RETRACTED => WireLifecycleKind::Retracted,
            LIFECYCLE_CORRECTED => WireLifecycleKind::Corrected,
            tag => return Err(Error::Codec(format!("unknown lifecycle kind tag {tag}"))),
        })
    }
}

impl Encodable for WireLifecycleEvent {
    fn encode(&self, enc: &mut Encoder) {
        self.kind.encode(enc);
        enc.varint(self.at);
        enc.option(&self.note, |e, n| e.str(n));
        enc.option(&self.successor, |e, s| e.varint(*s));
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Self {
            kind: WireLifecycleKind::decode(dec)?,
            at: dec.varint()?,
            note: dec.option(super::codec::Decoder::str)?,
            successor: dec.option(super::codec::Decoder::varint)?,
        })
    }
}

impl Encodable for HistoryPayload {
    fn encode(&self, enc: &mut Encoder) {
        enc.varint(self.annotation);
        self.events.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Self {
            annotation: dec.varint()?,
            events: Vec::<WireLifecycleEvent>::decode(dec)?,
        })
    }
}

impl Encodable for ZoomPayload {
    fn encode(&self, enc: &mut Encoder) {
        self.annotations.encode(enc);
        enc.bool(self.from_cache);
        enc.varint(self.matched_rows);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Self {
            annotations: Vec::<WireAnnotation>::decode(dec)?,
            from_cache: dec.bool()?,
            matched_rows: dec.varint()?,
        })
    }
}

// -- frame I/O ------------------------------------------------------------

/// Serializes one message into a complete **v1 (serial)** frame, length
/// prefix included.
pub fn frame_bytes<T: Encodable>(msg: &T) -> Vec<u8> {
    frame_bytes_versioned(None, msg)
}

/// Serializes one message into a complete **v2 (pipelined)** frame
/// carrying `seq`, length prefix included.
pub fn frame_bytes_seq<T: Encodable>(seq: u64, msg: &T) -> Vec<u8> {
    frame_bytes_versioned(Some(seq), msg)
}

fn frame_bytes_versioned<T: Encodable>(seq: Option<u64>, msg: &T) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(64);
    enc.u8(WIRE_MAGIC[0]);
    enc.u8(WIRE_MAGIC[1]);
    enc.u8(WIRE_MAGIC[2]);
    enc.u8(WIRE_MAGIC[3]);
    match seq {
        None => enc.u16(WIRE_VERSION_SERIAL),
        Some(seq) => {
            enc.u16(WIRE_VERSION);
            enc.u64(seq);
        }
    }
    msg.encode(&mut enc);
    let payload = enc.finish();
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes one **v1** message from a frame payload (the bytes after the
/// length prefix): validates magic and version, then decodes strictly.
/// Serial-only callers (the blocking client, replication subscribers)
/// use this so an unexpected v2 frame is a clean codec error.
pub fn decode_frame<T: Encodable>(payload: &[u8]) -> Result<T> {
    match decode_frame_any(payload)? {
        (None, msg) => Ok(msg),
        (Some(_), _) => Err(Error::Codec(
            "unexpected pipelined (v2) frame on a serial (v1) connection".into(),
        )),
    }
}

/// Decodes one message from a frame payload in **either live version**:
/// returns `(None, msg)` for a v1 frame and `(Some(seq), msg)` for a
/// v2 frame. This is the server-side entry point — the reactor answers
/// in whichever version the request arrived in.
pub fn decode_frame_any<T: Encodable>(payload: &[u8]) -> Result<(Option<u64>, T)> {
    let mut dec = Decoder::new(payload);
    let magic = [dec.u8()?, dec.u8()?, dec.u8()?, dec.u8()?];
    if magic != WIRE_MAGIC {
        return Err(Error::Codec("not an InsightNotes wire frame".into()));
    }
    let seq = match dec.u16()? {
        WIRE_VERSION_SERIAL => None,
        WIRE_VERSION => Some(dec.u64()?),
        version => {
            return Err(Error::Codec(format!(
                "unsupported wire protocol version {version} (expected \
                 {WIRE_VERSION_SERIAL} or {WIRE_VERSION})"
            )))
        }
    };
    let msg = T::decode(&mut dec)?;
    dec.expect_end()?;
    Ok((seq, msg))
}

/// Best-effort peek at the sequence id of a frame payload *prefix*:
/// `Some(seq)` when the first [`V2_HEADER_BYTES`] bytes parse as a v2
/// header, `None` otherwise (v1 frame, foreign bytes, or a prefix too
/// short to tell). Used to address error responses for frames whose
/// bodies were discarded (oversized declared length) — the header
/// streams in first, so the seq is usually recoverable even when the
/// body never is.
pub fn peek_seq(prefix: &[u8]) -> Option<u64> {
    let (magic, rest) = (prefix.get(..4)?, prefix.get(4..)?);
    if magic != WIRE_MAGIC {
        return None;
    }
    let version = u16::from_le_bytes([*rest.first()?, *rest.get(1)?]);
    if version != WIRE_VERSION {
        return None;
    }
    let seq_bytes: [u8; 8] = rest.get(2..10)?.try_into().ok()?;
    Some(u64::from_le_bytes(seq_bytes))
}

/// Writes one message as a **v1** frame and flushes.
pub fn write_frame<T: Encodable>(w: &mut impl Write, msg: &T) -> Result<()> {
    w.write_all(&frame_bytes(msg))?;
    w.flush()?;
    Ok(())
}

/// Writes one message as a **v2** frame carrying `seq` and flushes.
pub fn write_frame_seq<T: Encodable>(w: &mut impl Write, seq: u64, msg: &T) -> Result<()> {
    w.write_all(&frame_bytes_seq(seq, msg))?;
    w.flush()?;
    Ok(())
}

/// Reads one **v1** message frame. Returns `Ok(None)` on clean
/// end-of-stream (the peer closed before starting another frame);
/// errors on mid-frame EOF, oversized lengths, and every decode
/// failure.
pub fn read_frame<T: Encodable>(r: &mut impl Read) -> Result<Option<T>> {
    match read_frame_payload(r)? {
        None => Ok(None),
        Some(payload) => decode_frame(&payload).map(Some),
    }
}

/// Reads one **v2** message frame, returning its sequence id alongside
/// the message. A v1 frame here is a codec error — a pipelined client
/// never receives unnumbered frames once it has switched to v2.
pub fn read_frame_seq<T: Encodable>(r: &mut impl Read) -> Result<Option<(u64, T)>> {
    match read_frame_payload(r)? {
        None => Ok(None),
        Some(payload) => match decode_frame_any(&payload)? {
            (Some(seq), msg) => Ok(Some((seq, msg))),
            (None, _) => Err(Error::Codec(
                "server answered a pipelined (v2) request with a serial (v1) frame".into(),
            )),
        },
    }
}

/// Reads one frame's payload bytes (everything after the length
/// prefix), or `None` on clean end-of-stream.
fn read_frame_payload(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match read_full(r, &mut len_buf)? {
        0 => return Ok(None),
        4 => {}
        n => {
            return Err(Error::Codec(format!(
                "connection closed mid-frame ({n} of 4 length bytes)"
            )))
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(Error::Codec(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    let got = read_full(r, &mut payload)?;
    if got != len {
        return Err(Error::Codec(format!(
            "connection closed mid-frame ({got} of {len} payload bytes)"
        )));
    }
    Ok(Some(payload))
}

/// Reads until `buf` is full or EOF; returns the bytes read. Unlike
/// `read_exact`, a clean EOF at offset 0 is distinguishable from a
/// partial frame.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize> {
    let mut filled = 0;
    loop {
        let Some(rest) = buf.get_mut(filled..) else {
            return Err(Error::Codec("frame read cursor out of range".into()));
        };
        if rest.is_empty() {
            break;
        }
        match r.read(rest) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encodable + PartialEq + std::fmt::Debug>(msg: &T) {
        let bytes = frame_bytes(msg);
        let mut cursor = &bytes[..];
        let got: T = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(&got, msg);
        assert!(cursor.is_empty());

        // Every message also survives the pipelined layout, with its
        // sequence id intact.
        let seq = 0x0102_0304_0506_0708;
        let bytes = frame_bytes_seq(seq, msg);
        let mut cursor = &bytes[..];
        let (got_seq, got): (u64, T) = read_frame_seq(&mut cursor).unwrap().expect("one frame");
        assert_eq!(got_seq, seq);
        assert_eq!(&got, msg);
        assert!(cursor.is_empty());
    }

    #[test]
    fn requests_round_trip() {
        round_trip(&Request::Ping);
        round_trip(&Request::Query {
            sql: "SELECT name FROM birds".into(),
        });
        round_trip(&Request::Execute {
            sql: "CREATE TABLE t (x INT); INSERT INTO t VALUES (1)".into(),
        });
        round_trip(&Request::Annotate {
            sql: "ADD ANNOTATION 'seen diving' ON birds WHERE id = 3".into(),
        });
        round_trip(&Request::ZoomIn {
            sql: "ZOOMIN REFERENCE QID 101 ON C LABEL 'Behavior'".into(),
        });
        round_trip(&Request::Shutdown);
        round_trip(&Request::AnnotateBatch {
            statements: vec![
                "ADD ANNOTATION 'seen diving' ON birds WHERE id = 3".into(),
                "ADD ANNOTATION 'lesions on wing' ON birds WHERE id = 4".into(),
            ],
        });
        round_trip(&Request::AnnotateBatch { statements: vec![] });
        round_trip(&Request::Subscribe {
            shard: 3,
            epoch: 7,
            offset: 4096,
        });
        round_trip(&Request::Subscribe {
            shard: 0,
            epoch: 0,
            offset: 0,
        });
        round_trip(&Request::ReplicaState);
        round_trip(&Request::History { annotation: 42 });
    }

    #[test]
    fn history_round_trips_every_lifecycle_kind() {
        // Request::History / Response::History carry the full timeline:
        // every WireLifecycleKind survives the codec, with and without
        // the optional note/successor payloads.
        round_trip(&Response::History(HistoryPayload {
            annotation: 7,
            events: vec![
                WireLifecycleEvent {
                    kind: WireLifecycleKind::Created,
                    at: 3,
                    note: None,
                    successor: None,
                },
                WireLifecycleEvent {
                    kind: WireLifecycleKind::Flagged,
                    at: 5,
                    note: Some("disputed by reviewer".into()),
                    successor: None,
                },
                WireLifecycleEvent {
                    kind: WireLifecycleKind::Corrected,
                    at: 9,
                    note: None,
                    successor: Some(12),
                },
                WireLifecycleEvent {
                    kind: WireLifecycleKind::Retracted,
                    at: 11,
                    note: None,
                    successor: None,
                },
            ],
        }));
        round_trip(&Response::History(HistoryPayload {
            annotation: 1,
            events: vec![],
        }));
        // An unknown kind tag is a structured codec error, not a panic.
        for kind in [
            WireLifecycleKind::Created,
            WireLifecycleKind::Flagged,
            WireLifecycleKind::Retracted,
            WireLifecycleKind::Corrected,
        ] {
            assert!(!kind.to_string().is_empty());
        }
        let mut enc = Encoder::with_capacity(8);
        enc.u8(99);
        let bytes = enc.finish();
        let err = WireLifecycleKind::decode(&mut Decoder::new(&bytes)).unwrap_err();
        assert_eq!(err.class(), "codec");
    }

    #[test]
    fn replication_responses_round_trip() {
        round_trip(&Response::SubscribeAck {
            epoch: 2,
            offset: 16,
            snapshot: true,
        });
        round_trip(&Response::SubscribeAck {
            epoch: 9,
            offset: 88_124,
            snapshot: false,
        });
        round_trip(&Response::SnapshotChunk {
            data: vec![0xDE, 0xAD, 0xBE, 0xEF],
            last: false,
        });
        round_trip(&Response::SnapshotChunk {
            data: vec![],
            last: true,
        });
        round_trip(&Response::WalFrame {
            epoch: 2,
            offset: 16,
            data: vec![1, 2, 3, 4, 5],
        });
        // Empty data is the heartbeat form.
        round_trip(&Response::WalFrame {
            epoch: 2,
            offset: 1024,
            data: vec![],
        });
        round_trip(&Response::ReplicaState {
            shards: vec![
                ShardPosition {
                    epoch: 1,
                    offset: 16,
                },
                ShardPosition {
                    epoch: 3,
                    offset: 9999,
                },
            ],
        });
        round_trip(&Response::ReplicaState { shards: vec![] });
    }

    #[test]
    fn batch_ack_round_trips_mixed_results() {
        round_trip(&Response::BatchAck {
            results: vec![
                BatchItem::Ok("annotation 1 attached to 2 row(s)".into()),
                BatchItem::Err(WireError {
                    class: "annotation".into(),
                    message: "annotation matched no rows; nothing attached".into(),
                }),
                BatchItem::Ok("annotation 2 attached to 1 row(s)".into()),
            ],
        });
        round_trip(&Response::BatchAck { results: vec![] });
        assert!(BatchItem::Ok("x".into()).is_ok());
        assert_eq!(
            BatchItem::Err(WireError {
                class: "catalog".into(),
                message: "unknown table `t`".into(),
            })
            .into_result()
            .unwrap_err()
            .class(),
            "catalog"
        );
    }

    #[test]
    fn batch_item_cap_is_a_codec_error_at_the_boundary() {
        // Exactly MAX_BATCH_ITEMS decodes fine.
        let at_cap = Request::AnnotateBatch {
            statements: vec![String::new(); MAX_BATCH_ITEMS],
        };
        let bytes = frame_bytes(&at_cap);
        let got: Request = read_frame(&mut &bytes[..]).unwrap().expect("one frame");
        assert_eq!(got, at_cap);

        // One past the cap is rejected as a structured codec error — the
        // frame itself is well-delimited, so a server answers with an
        // error frame instead of dropping the connection.
        let over = Request::AnnotateBatch {
            statements: vec![String::new(); MAX_BATCH_ITEMS + 1],
        };
        let bytes = frame_bytes(&over);
        let err = read_frame::<Request>(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.class(), "codec");
        assert!(err.to_string().contains("item limit"), "{err}");
    }

    #[test]
    fn responses_round_trip() {
        round_trip(&Response::Pong {
            version: WIRE_VERSION,
            served: 17,
        });
        round_trip(&Response::Ack {
            messages: vec!["table `t` created".into(), "1 row(s) inserted".into()],
        });
        round_trip(&Response::Rows(RowsPayload {
            qid: 104,
            columns: vec!["name".into(), "weight".into()],
            rows: vec![WireRow {
                values: vec![WireValue::Text("Swan Goose".into()), WireValue::Float(3.25)],
                summaries: vec!["ClassBird1 [(Behavior, 2), (Other, 0)]".into()],
            }],
        }));
        round_trip(&Response::Zoomed(ZoomPayload {
            annotations: vec![WireAnnotation {
                id: 9,
                text: "found eating stonewort".into(),
                document: Some("survey.pdf".into()),
                author: "curator".into(),
            }],
            from_cache: true,
            matched_rows: 3,
        }));
        round_trip(&Response::ShuttingDown);
        round_trip(&Response::Rows(RowsPayload {
            qid: 0,
            columns: vec![],
            rows: vec![WireRow {
                values: vec![WireValue::Null, WireValue::Int(-5), WireValue::Bool(true)],
                summaries: vec![],
            }],
        }));
    }

    #[test]
    fn errors_round_trip_the_engine_error() {
        for e in [
            Error::Parse("unexpected token".into()),
            Error::Catalog("unknown table `t`".into()),
            Error::ZoomIn("unknown QID 7".into()),
            Error::Io(std::io::Error::other("disk gone")),
        ] {
            let wire = WireError::from(&e);
            round_trip(&Response::Error(wire.clone()));
            let back = wire.into_error();
            assert_eq!(back.class(), e.class());
            assert_eq!(back.to_string(), e.to_string());
        }
    }

    #[test]
    fn unknown_error_class_degrades_gracefully() {
        let back = WireError {
            class: "quantum".into(),
            message: "flux".into(),
        }
        .into_error();
        assert_eq!(back.class(), "execution");
        assert!(back.to_string().contains("quantum"));
    }

    #[test]
    fn clean_eof_is_none_and_mid_frame_eof_is_an_error() {
        let mut empty: &[u8] = &[];
        assert!(read_frame::<Request>(&mut empty).unwrap().is_none());

        let bytes = frame_bytes(&Request::Ping);
        for cut in 1..bytes.len() {
            let mut partial = &bytes[..cut];
            assert!(
                read_frame::<Request>(&mut partial).is_err(),
                "cut at {cut} must error"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let mut bytes = frame_bytes(&Request::Ping);
        bytes[4] = b'X';
        assert!(read_frame::<Request>(&mut &bytes[..]).is_err());

        let mut bytes = frame_bytes(&Request::Ping);
        bytes[8] = 99; // version low byte
        let err = read_frame::<Request>(&mut &bytes[..]).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // A hypothetical v3 is rejected by the any-version decoder too.
        let mut bytes = frame_bytes_seq(7, &Request::Ping);
        bytes[8] = 3;
        assert!(decode_frame_any::<Request>(&bytes[4..]).is_err());
    }

    #[test]
    fn versions_stay_in_their_lanes() {
        // The serial reader refuses a pipelined frame…
        let v2 = frame_bytes_seq(42, &Request::Ping);
        let err = read_frame::<Request>(&mut &v2[..]).unwrap_err();
        assert!(err.to_string().contains("pipelined"), "{err}");

        // …and the pipelined reader refuses a serial frame.
        let v1 = frame_bytes(&Request::Ping);
        let err = read_frame_seq::<Request>(&mut &v1[..]).unwrap_err();
        assert!(err.to_string().contains("serial"), "{err}");

        // The server-side decoder accepts both and reports which.
        let (seq, _) = decode_frame_any::<Request>(&v1[4..]).unwrap();
        assert_eq!(seq, None);
        let (seq, _) = decode_frame_any::<Request>(&v2[4..]).unwrap();
        assert_eq!(seq, Some(42));
    }

    #[test]
    fn seq_ids_round_trip_across_the_full_u64_range() {
        for seq in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            let bytes = frame_bytes_seq(seq, &Request::Ping);
            let (got, msg) = read_frame_seq::<Request>(&mut &bytes[..])
                .unwrap()
                .expect("one frame");
            assert_eq!(got, seq);
            assert_eq!(msg, Request::Ping);
        }
    }

    #[test]
    fn peek_seq_recovers_the_header_from_a_prefix() {
        let bytes = frame_bytes_seq(0xABCD, &Request::Ping);
        let payload = &bytes[4..];
        // The full payload and any prefix long enough to hold the
        // header both recover the seq…
        assert_eq!(peek_seq(payload), Some(0xABCD));
        assert_eq!(peek_seq(&payload[..V2_HEADER_BYTES]), Some(0xABCD));
        // …shorter prefixes, v1 frames, and foreign bytes do not.
        assert_eq!(peek_seq(&payload[..V2_HEADER_BYTES - 1]), None);
        let v1 = frame_bytes(&Request::Ping);
        assert_eq!(peek_seq(&v1[4..]), None);
        assert_eq!(peek_seq(b"not a frame at all"), None);
    }

    #[test]
    fn oversized_length_prefix_fails_without_allocating() {
        let mut bytes = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let err = read_frame::<Request>(&mut &bytes[..]).unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
    }

    #[test]
    fn trailing_bytes_inside_a_frame_are_rejected() {
        let inner = frame_bytes(&Request::Ping);
        // Rebuild the frame with one junk byte appended to the payload.
        let mut payload = inner[4..].to_vec();
        payload.push(0xAA);
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        assert_eq!(
            read_frame::<Request>(&mut &bytes[..]).unwrap_err().class(),
            "codec"
        );
    }
}
