#![warn(missing_docs)]
//! # insightnotes-engine
//!
//! The InsightNotes query engine: a relational executor whose tuples carry
//! summary objects, extended operator semantics that transform those
//! objects in-pipeline (projection subtracts, join merges without double
//! counting, grouping/distinct fold — Figure 2 of the paper), zoom-in
//! query processing over QID-addressed results (Figure 3), and the
//! disk-based result cache with the RCO replacement policy that makes
//! zoom-in interactive.
//!
//! Layout:
//!
//! - [`annotated`] — the pipeline tuple: a row plus its summary objects;
//! - [`expr`] — scalar expressions extended with `SUMMARY_COUNT`
//!   (summary-based predicates);
//! - [`plan`] — logical plans, the binder/planner (which enforces the
//!   project-before-merge rule of Theorems 1–2), and cost estimation;
//! - [`exec`] — the summary-aware operators plus the Figure-2 trace mode;
//! - [`raw`] — the raw-propagation baseline engine (DBNotes-style), used
//!   by the comparison experiments;
//! - [`zoomin`] — QID registry and zoom-in execution;
//! - [`cache`] — the disk result cache with RCO / LRU / LFU policies;
//! - [`db`] — the [`db::Database`] facade tying it all together
//!   behind `execute_sql`;
//! - [`persist`] — durable snapshots (`Database::save` / `Database::open`);
//! - [`wal`] — the write-ahead log behind `Database::recover`, which turns
//!   server acks into a durability promise.

pub mod annotated;
pub mod cache;
pub mod db;
pub mod exec;
pub mod expr;
pub mod persist;
pub mod plan;
pub mod raw;
pub mod shard;
pub mod wal;
pub mod zoomin;

pub use annotated::AnnotatedRow;
pub use db::{
    Database, DbConfig, ExecOutcome, PolicyKind, QueryResult, RecoveryReport, RowAnnotation,
    SqlStatement, ZoomInResult,
};
pub use exec::TraceLog;
pub use expr::SExpr;
pub use insightnotes_annotations::{LifecycleEvent, LifecycleKind};
pub use plan::LogicalPlan;
pub use shard::{
    shard_of, RoutedAnnotation, ShardRecovery, ShardedDatabase, ShardedRecoveryReport,
};
pub use wal::{AnnotationEvent, SyncPolicy};
