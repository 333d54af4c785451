#![warn(missing_docs)]
//! # insightnotes-sql
//!
//! The SQL front-end: a lexer, an AST, and a recursive-descent parser for
//! the query subset InsightNotes' semantics are defined over
//! (select / project / join / group-aggregate / distinct / order / limit)
//! plus the InsightNotes command extensions:
//!
//! ```sql
//! -- annotate all matching rows (Figure 1 / demo scenario 2)
//! ADD ANNOTATION 'size seems wrong' ON birds WHERE name = 'Swan Goose';
//! ADD ANNOTATION 'ref' DOCUMENT '...' ON birds COLUMNS (weight) WHERE id = 7;
//!
//! -- the summarization hierarchy (Figure 4)
//! CREATE SUMMARY INSTANCE ClassBird1 TYPE CLASSIFIER
//!   LABELS ('Behavior', 'Disease', 'Anatomy', 'Other')
//!   TRAIN ('Behavior': 'found eating stonewort', ...);
//! CREATE SUMMARY INSTANCE SimCluster TYPE CLUSTER THRESHOLD 0.4;
//! CREATE SUMMARY INSTANCE TextSummary1 TYPE SNIPPET MAX_SENTENCES 3;
//! LINK SUMMARY ClassBird1 TO birds;
//!
//! -- zoom-in (Figure 3)
//! ZOOMIN REFERENCE QID 101 WHERE c1 = 'x' ON NaiveBayesClass INDEX 1;
//! ```
//!
//! Summary-based predicates are expressed with the
//! `SUMMARY_COUNT(instance, 'label')` pseudo-function, usable anywhere a
//! scalar is (SELECT list, WHERE, ORDER BY) — the "summaries as
//! first-class citizens" capability of the EDBT'15 companion paper.

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::*;
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::{parse, parse_one, parse_spanned};
