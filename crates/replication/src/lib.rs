#![warn(missing_docs)]
//! # insightnotes-replication
//!
//! WAL-shipping replication: read replicas that tail the primary's
//! per-shard write-ahead logs over the wire.
//!
//! PR 4's epoch-stamped, CRC-framed logical WAL and PR 6's per-shard
//! segments are already a replication stream in disguise — every
//! committed write exists as a self-delimiting record frame in exactly
//! the shard log(s) that executed it. This crate turns those frames
//! into a distribution layer:
//!
//! - **Primary side** ([`feed`]): helpers the server's session loop uses
//!   to answer [`Request::Subscribe`] — plan a subscription (resume at
//!   the subscriber's position, or snapshot-bootstrap it), and read
//!   committed byte ranges out of a shard's log file without holding
//!   engine locks across file I/O. Only the *committed* watermark
//!   ([`Wal::committed_len`]) is ever shipped: a replica sees a record
//!   no earlier than the client that wrote it got its fsynced ack.
//! - **Replica side** ([`replica`]): a [`replica::Replicator`] owns one
//!   tailer thread per primary shard. Each tailer bootstraps from a
//!   streamed snapshot when it has no usable local state, mirrors the
//!   shipped frame bytes into a local log segment (durable *before*
//!   apply), and replays each record through
//!   [`Database::apply_wal_record`] — the replay recovery runs: a
//!   `Script` record re-executes, and a `Stamped` record's typed events
//!   go through [`Database::annotate_stamped`], the apply function the
//!   primary's committers use. Ids and ticks travel inside the events,
//!   so the replica's state is byte-identical to the primary's. After
//!   `kill -9`, the replica recovers from its own snapshot + mirrored
//!   log and resubscribes at its last applied offset.
//! - **Positions** ([`position::PositionTable`]): the applied
//!   epoch/offset vector a replica server exposes through
//!   [`Request::ReplicaState`], which is what
//!   `Client::wait_for_offset` polls for read-your-writes.
//!
//! [`Request::Subscribe`]: insightnotes_common::wire::Request::Subscribe
//! [`Request::ReplicaState`]: insightnotes_common::wire::Request::ReplicaState
//! [`Wal::committed_len`]: insightnotes_engine::wal::Wal::committed_len
//! [`Database::apply_wal_record`]: insightnotes_engine::Database::apply_wal_record
//! [`Database::annotate_stamped`]: insightnotes_engine::Database::annotate_stamped

pub mod feed;
pub mod position;
pub mod replica;

pub use feed::{plan_feed, read_committed, FeedStart, SNAPSHOT_CHUNK_BYTES};
pub use position::PositionTable;
pub use replica::{ReplicaBoot, ReplicaConfig, Replicator};
