//! `wal-bypass`: `&mut Database` mutations must flow through the
//! WAL-logged entry points.
//!
//! PR 4's durability contract — an acknowledged write survives
//! `kill -9` — holds only because every mutating entry point logs its
//! statement *before* executing it. The entry points are `execute`,
//! `execute_sql`, the `annotate*` family, `recover` and `checkpoint`;
//! any other `&mut self` method on `Database` is internal plumbing, and
//! calling one directly from outside the engine crate silently skips
//! the log.
//!
//! The rule reads the real method surface from
//! `crates/engine/src/db.rs` (every `&mut self` function in an
//! `impl Database` block) and from `crates/engine/src/shard.rs`
//! (`impl ShardedDatabase` — the shard router wraps one WAL handle per
//! shard, and the same contract holds segment by segment), so a new
//! mutating method is protected the moment it is written. Call sites
//! are flagged in every non-test, non-example file outside the engine
//! crate.

use super::{Code, Rule};
use crate::diag::Diagnostic;
use crate::workspace::Workspace;
use std::collections::BTreeSet;

/// WAL-logged entry points (callable from anywhere).
const ENTRY_POINTS: [&str; 4] = ["execute", "execute_sql", "recover", "checkpoint"];

/// Prefix covering the annotation family (`annotate_stamped`,
/// `annotate_rows`, `annotate_targets`, …), all of which log.
const ENTRY_PREFIX: &str = "annotate";

pub(crate) struct WalBypass;

impl Rule for WalBypass {
    fn name(&self) -> &'static str {
        "wal-bypass"
    }

    fn description(&self) -> &'static str {
        "&mut Database methods may only be called via WAL-logged entry points outside the engine"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let restricted = restricted_methods(ws);
        if restricted.is_empty() {
            return;
        }
        for file in &ws.files {
            // The engine crate is the implementation; it may compose its
            // own private steps (the entry points themselves live there).
            if file.rel.starts_with("crates/engine/") {
                continue;
            }
            for func in file.live_functions() {
                let code = Code::of(func.body_tokens(&file.tokens));
                for i in 0..code.len() {
                    let Some(name) = code.method_call(i) else {
                        continue;
                    };
                    if restricted.contains(name.text.as_str()) {
                        out.push(Diagnostic {
                            rule: self.name(),
                            file: file.rel.clone(),
                            line: name.line,
                            col: name.col,
                            message: format!(
                                "`{}` is a `&mut self` Database method outside the WAL-logged \
                                 entry points (execute, execute_sql, annotate*, recover, \
                                 checkpoint); calling it directly bypasses the write-ahead \
                                 log, so the mutation would not survive a crash",
                                name.text
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// The `&mut self` methods of `impl Database` (db.rs) and
/// `impl ShardedDatabase` (shard.rs), minus the WAL-logged entry
/// points. The sharded router serves writes through `&self` plus
/// interior per-shard locks, so any `&mut self` method it ever grows
/// is by construction internal plumbing.
const SURFACES: [(&str, &str); 2] = [
    ("crates/engine/src/db.rs", "Database"),
    ("crates/engine/src/shard.rs", "ShardedDatabase"),
];

fn restricted_methods(ws: &Workspace) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (path, impl_type) in SURFACES {
        let Some(file) = ws.file_ending_with(path) else {
            continue;
        };
        out.extend(
            file.functions
                .iter()
                .filter(|f| {
                    f.impl_type.as_deref() == Some(impl_type)
                        && f.takes_mut_self
                        && !f.is_test
                        && !ENTRY_POINTS.contains(&f.name.as_str())
                        && !f.name.starts_with(ENTRY_PREFIX)
                })
                .map(|f| f.name.clone()),
        );
    }
    out
}
