//! The summary-aware executor.
//!
//! Executes a [`LogicalPlan`] over the catalog + summary registry,
//! producing [`AnnotatedRow`]s. Each operator implements the paper's
//! extended semantics:
//!
//! - **Scan** attaches each row's maintained summary objects;
//! - **Filter** passes summaries through untouched (Figure 2 step 2);
//! - **Project** removes the effect of annotations attached only to
//!   projected-out columns (Figure 2 step 1);
//! - **Join** merges the two sides' objects without double counting
//!   (Figure 2 step 3) — see [`join`];
//! - **Aggregate** / **Distinct** fold the summaries of the tuples they
//!   coalesce — see [`aggregate`];
//! - **Sort** / **Limit** reorder / truncate without touching summaries.
//!
//! With a [`TraceLog`] attached, the executor records every operator's
//! output (rows plus rendered summary objects) — the "under-the-hood"
//! visualization of demo scenario 3. Tracing forces serial, streaming-free
//! execution so the recorded per-operator outputs stay deterministic and
//! complete.
//!
//! With a parallelism degree above one (and no trace attached), operators
//! run **morsel-driven parallel** — see [`par`] for the execution model
//! and why parallel output order matches serial exactly.

pub mod aggregate;
pub mod join;
pub mod par;
pub mod trace;

pub use trace::{TraceLog, TraceStep};

use crate::annotated::AnnotatedRow;
use crate::expr::SExpr;
use crate::plan::logical::{LogicalPlan, SortKey};
use insightnotes_common::{InstanceId, Result};
use insightnotes_storage::{Catalog, Row};
use insightnotes_summaries::{SharedObject, SummaryRegistry};

/// Where a scan finds the summary objects attached to a row.
///
/// A single-shard database answers from its one [`SummaryRegistry`];
/// the shard router answers from a facade that hash-routes each
/// `(table, row)` to the owning shard's registry. Must be `Sync` in
/// practice: `Executor::attach` calls it from morsel workers.
pub trait ObjectSource {
    /// The summary objects maintained on `(table, row)`, in instance
    /// order — same contract as [`SummaryRegistry::objects_on`].
    fn objects_on(
        &self,
        table: insightnotes_common::TableId,
        row: insightnotes_common::RowId,
    ) -> &[(InstanceId, SharedObject)];
}

impl ObjectSource for SummaryRegistry {
    fn objects_on(
        &self,
        table: insightnotes_common::TableId,
        row: insightnotes_common::RowId,
    ) -> &[(InstanceId, SharedObject)] {
        SummaryRegistry::objects_on(self, table, row)
    }
}

/// Execution context: the data and summary state a query runs against.
pub struct Executor<'a> {
    /// Table storage.
    pub catalog: &'a Catalog,
    /// Summary instances and per-row objects.
    pub registry: &'a SummaryRegistry,
    /// Optional per-operator trace sink.
    pub trace: Option<TraceLog>,
    /// Worker threads for morsel-driven execution (1 = serial).
    parallelism: usize,
    /// Overrides where scans fetch per-row summary objects (the shard
    /// router's cross-shard facade); `None` = read `registry`.
    objects: Option<&'a (dyn ObjectSource + Sync)>,
}

impl<'a> Executor<'a> {
    /// Creates a serial executor without tracing.
    pub fn new(catalog: &'a Catalog, registry: &'a SummaryRegistry) -> Self {
        Self {
            catalog,
            registry,
            trace: None,
            parallelism: 1,
            objects: None,
        }
    }

    /// Redirects per-row summary-object lookups to `objects` (the shard
    /// router's cross-shard facade). `registry` still provides instance
    /// metadata (names, linked instances) for planning and tracing.
    pub fn with_objects(mut self, objects: &'a (dyn ObjectSource + Sync)) -> Self {
        self.objects = Some(objects);
        self
    }

    /// Creates an executor running morsel-driven parallel on up to
    /// `threads` workers.
    pub fn with_parallelism(
        catalog: &'a Catalog,
        registry: &'a SummaryRegistry,
        threads: usize,
    ) -> Self {
        Self {
            catalog,
            registry,
            trace: None,
            parallelism: threads.max(1),
            objects: None,
        }
    }

    /// Creates an executor that records every operator's output. Tracing
    /// implies serial execution.
    pub fn with_trace(catalog: &'a Catalog, registry: &'a SummaryRegistry) -> Self {
        Self {
            catalog,
            registry,
            trace: Some(TraceLog::default()),
            parallelism: 1,
            objects: None,
        }
    }

    /// The worker budget for this query: the configured degree, forced
    /// to 1 while tracing (the trace must observe serial operator order).
    fn threads(&self) -> usize {
        if self.trace.is_some() {
            1
        } else {
            self.parallelism.max(1)
        }
    }

    /// Executes a plan to completion.
    pub fn execute(&mut self, plan: &LogicalPlan) -> Result<Vec<AnnotatedRow>> {
        let threads = self.threads();
        let rows = match plan {
            LogicalPlan::Scan { table, .. } => self.scan(*table)?,
            LogicalPlan::IndexScan {
                table, col, value, ..
            } => self.index_scan(*table, *col, value)?,
            LogicalPlan::Filter { input, predicate } => {
                let input_rows = self.execute(input)?;
                par::map_morsels(input_rows, threads, &|chunk, _| {
                    let mut out = Vec::with_capacity(chunk.len());
                    for r in chunk {
                        if predicate.satisfied(&r)? {
                            out.push(r);
                        }
                    }
                    Ok(out)
                })?
            }
            LogicalPlan::Project {
                input,
                exprs,
                col_map,
                ..
            } => {
                let input_rows = self.execute(input)?;
                let remap = |c: u16| col_map.get(c as usize).copied().flatten();
                par::map_morsels(input_rows, threads, &|chunk, _| {
                    let mut out = Vec::with_capacity(chunk.len());
                    for mut r in chunk {
                        let mut values = Vec::with_capacity(exprs.len());
                        for e in exprs {
                            values.push(e.eval(&r)?);
                        }
                        r.project_summaries(&remap);
                        out.push(AnnotatedRow {
                            row: Row::new(values),
                            summaries: r.summaries,
                        });
                    }
                    Ok(out)
                })?
            }
            LogicalPlan::Join {
                left,
                right,
                predicate,
                ..
            } => {
                let l = self.execute(left)?;
                let r = self.execute(right)?;
                join::join(l, r, left.schema().arity(), predicate.as_ref(), threads)?
            }
            LogicalPlan::Aggregate {
                input,
                group_cols,
                aggs,
                ..
            } => {
                let input_rows = self.execute(input)?;
                if threads > 1 {
                    aggregate::aggregate_parallel(input_rows, group_cols, aggs, threads)?
                } else {
                    aggregate::aggregate(input_rows, group_cols, aggs)?
                }
            }
            LogicalPlan::Distinct { input } => {
                let input_rows = self.execute(input)?;
                if threads > 1 {
                    aggregate::distinct_parallel(input_rows, threads)?
                } else {
                    aggregate::distinct(input_rows)?
                }
            }
            LogicalPlan::Sort { input, keys } => {
                let rows = self.execute(input)?;
                sort(rows, keys, threads)?
            }
            LogicalPlan::Limit { input, n } => {
                let n = *n as usize;
                // Early termination: with no trace attached (tracing must
                // observe full operator outputs), LIMIT over a Scan or a
                // Filter-over-Scan streams rows and stops at the n-th
                // survivor instead of materializing the whole table.
                match (self.trace.is_none(), input.as_ref()) {
                    (true, LogicalPlan::Scan { table, .. }) => {
                        self.scan_limited(*table, None, n)?
                    }
                    (
                        true,
                        LogicalPlan::Filter {
                            input: scan,
                            predicate,
                        },
                    ) if matches!(scan.as_ref(), LogicalPlan::Scan { .. }) => {
                        let LogicalPlan::Scan { table, .. } = scan.as_ref() else {
                            unreachable!("guarded by matches!");
                        };
                        self.scan_limited(*table, Some(predicate), n)?
                    }
                    _ => {
                        let mut rows = self.execute(input)?;
                        rows.truncate(n);
                        rows
                    }
                }
            }
        };
        if let Some(trace) = &mut self.trace {
            trace.record(plan, self.registry, &rows);
        }
        Ok(rows)
    }

    fn index_scan(
        &self,
        table: insightnotes_common::TableId,
        col: u16,
        value: &insightnotes_storage::Value,
    ) -> Result<Vec<AnnotatedRow>> {
        let t = self.catalog.table(table)?;
        let rids = t.index_lookup(col, value).ok_or_else(|| {
            insightnotes_common::Error::Execution(format!(
                "plan expects an index on column {col} of `{}`",
                t.name()
            ))
        })?;
        let sources: Vec<(insightnotes_common::RowId, &Row)> = rids
            .iter()
            .map(|&rid| {
                t.get(rid).map(|row| (rid, row)).ok_or_else(|| {
                    insightnotes_common::Error::Execution(format!(
                        "index points at missing row {rid}"
                    ))
                })
            })
            .collect::<Result<_>>()?;
        self.attach(table, sources)
    }

    fn scan(&self, table: insightnotes_common::TableId) -> Result<Vec<AnnotatedRow>> {
        let t = self.catalog.table(table)?;
        let sources: Vec<(insightnotes_common::RowId, &Row)> = t.scan().collect();
        self.attach(table, sources)
    }

    /// Clones rows out of storage and attaches their summary objects —
    /// Arc handle clones off the registry, not payload copies
    /// (copy-on-write) — morsel-parallel when the executor allows.
    fn attach(
        &self,
        table: insightnotes_common::TableId,
        sources: Vec<(insightnotes_common::RowId, &Row)>,
    ) -> Result<Vec<AnnotatedRow>> {
        let objects = self.object_source();
        par::map_morsels(sources, self.threads(), &|chunk, _| {
            Ok(chunk
                .into_iter()
                .map(|(rid, row)| {
                    let summaries = objects.objects_on(table, rid).to_vec();
                    AnnotatedRow::from_shared(row.clone(), summaries)
                })
                .collect())
        })
    }

    /// Where this executor's scans read per-row summary objects.
    fn object_source(&self) -> &(dyn ObjectSource + Sync) {
        self.objects.unwrap_or(self.registry)
    }

    /// Streaming scan (+ optional filter) that stops after `n` output
    /// rows — the LIMIT pushdown path.
    fn scan_limited(
        &self,
        table: insightnotes_common::TableId,
        predicate: Option<&SExpr>,
        n: usize,
    ) -> Result<Vec<AnnotatedRow>> {
        let t = self.catalog.table(table)?;
        let objects = self.object_source();
        let mut out = Vec::with_capacity(n.min(t.len()));
        for (rid, row) in t.scan() {
            if out.len() >= n {
                break;
            }
            let summaries = objects.objects_on(table, rid).to_vec();
            let arow = AnnotatedRow::from_shared(row.clone(), summaries);
            let keep = match predicate {
                Some(p) => p.satisfied(&arow)?,
                None => true,
            };
            if keep {
                out.push(arow);
            }
        }
        Ok(out)
    }
}

fn sort(rows: Vec<AnnotatedRow>, keys: &[SortKey], threads: usize) -> Result<Vec<AnnotatedRow>> {
    // Pre-evaluate keys (morsel-parallel — expression evaluation is the
    // expensive part) so comparator closures stay infallible.
    let mut keyed: Vec<(Vec<insightnotes_storage::Value>, AnnotatedRow)> =
        par::map_morsels(rows, threads, &|chunk, _| {
            let mut out = Vec::with_capacity(chunk.len());
            for r in chunk {
                let mut k = Vec::with_capacity(keys.len());
                for key in keys {
                    k.push(key.expr.eval(&r)?);
                }
                out.push((k, r));
            }
            Ok(out)
        })?;
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, key) in keys.iter().enumerate() {
            let ord = ka[i].sort_cmp(&kb[i]);
            let ord = if key.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::SExpr;
    use insightnotes_storage::{CmpOp, Column, DataType, Schema, Value};

    fn setup() -> (Catalog, SummaryRegistry, insightnotes_common::TableId) {
        let mut cat = Catalog::new();
        let id = cat
            .create_table(
                "t",
                Schema::new(vec![
                    Column::new("x", DataType::Int),
                    Column::new("name", DataType::Text),
                ]),
            )
            .unwrap();
        let t = cat.table_mut(id).unwrap();
        for (x, name) in [(1, "swan"), (2, "goose"), (3, "heron")] {
            t.insert(Row::new(vec![Value::Int(x), Value::Text(name.into())]))
                .unwrap();
        }
        (cat, SummaryRegistry::new(), id)
    }

    fn scan_plan(id: insightnotes_common::TableId, cat: &Catalog) -> LogicalPlan {
        LogicalPlan::Scan {
            table: id,
            binding: "t".into(),
            schema: cat.table(id).unwrap().schema().qualify("t"),
        }
    }

    #[test]
    fn scan_filter_limit() {
        let (cat, reg, id) = setup();
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan_plan(id, &cat)),
                predicate: SExpr::Cmp(
                    CmpOp::Ge,
                    Box::new(SExpr::Column(0)),
                    Box::new(SExpr::Literal(Value::Int(2))),
                ),
            }),
            n: 1,
        };
        let rows = Executor::new(&cat, &reg).execute(&plan).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].row[0], Value::Int(2));
    }

    #[test]
    fn sort_orders_with_desc_and_nulls() {
        let (mut cat, reg, id) = setup();
        cat.table_mut(id)
            .unwrap()
            .insert(Row::new(vec![Value::Null, Value::Text("mystery".into())]))
            .unwrap();
        let plan = LogicalPlan::Sort {
            input: Box::new(scan_plan(id, &cat)),
            keys: vec![SortKey {
                expr: SExpr::Column(0),
                desc: true,
            }],
        };
        let rows = Executor::new(&cat, &reg).execute(&plan).unwrap();
        assert_eq!(rows[0].row[0], Value::Int(3));
        assert!(rows[3].row[0].is_null(), "nulls sort first → last on desc");
    }

    #[test]
    fn project_computes_expressions() {
        let (cat, reg, id) = setup();
        let schema = Schema::new(vec![Column::new("doubled", DataType::Int)]);
        let plan = LogicalPlan::Project {
            input: Box::new(scan_plan(id, &cat)),
            exprs: vec![SExpr::Arith(
                insightnotes_storage::ArithOp::Mul,
                Box::new(SExpr::Column(0)),
                Box::new(SExpr::Literal(Value::Int(2))),
            )],
            schema,
            col_map: vec![Some(0), None],
        };
        let rows = Executor::new(&cat, &reg).execute(&plan).unwrap();
        assert_eq!(rows[1].row[0], Value::Int(4));
        assert_eq!(rows[0].row.arity(), 1);
    }

    #[test]
    fn trace_records_each_operator() {
        let (cat, reg, id) = setup();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan_plan(id, &cat)),
            predicate: SExpr::Literal(Value::Bool(true)),
        };
        let mut ex = Executor::with_trace(&cat, &reg);
        ex.execute(&plan).unwrap();
        let trace = ex.trace.unwrap();
        assert_eq!(trace.steps.len(), 2);
        assert_eq!(trace.steps[0].operator, "Scan");
        assert_eq!(trace.steps[1].operator, "Filter");
        assert_eq!(trace.steps[1].rows.len(), 3);
    }
}
