//! Grouping, aggregation, and duplicate elimination.
//!
//! Both operators coalesce multiple input tuples into one output tuple,
//! and in InsightNotes the output tuple's summary objects are the *merge*
//! of the coalesced tuples' objects. For GROUP BY, each member's summaries
//! are first projected onto the grouping columns (project-before-merge
//! again — the aggregate result columns have no annotation provenance).

use crate::annotated::AnnotatedRow;
use crate::plan::logical::AggSpec;
use insightnotes_common::{Error, Result};
use insightnotes_sql::AggFunc;
use insightnotes_storage::{Row, Value};
use std::collections::HashMap;

/// One in-flight aggregate computation.
#[derive(Debug, Clone)]
enum Accumulator {
    Count(i64),
    Sum { total: f64, seen: bool },
    Avg { total: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Accumulator {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::Sum => Accumulator::Sum {
                total: 0.0,
                seen: false,
            },
            AggFunc::Avg => Accumulator::Avg { total: 0.0, n: 0 },
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
        }
    }

    fn update(&mut self, value: Option<Value>) -> Result<()> {
        match self {
            Accumulator::Count(n) => {
                // COUNT(*) counts rows (value None); COUNT(e) skips NULLs.
                match value {
                    None => *n += 1,
                    Some(v) if !v.is_null() => *n += 1,
                    _ => {}
                }
            }
            Accumulator::Sum { total, seen } => {
                if let Some(v) = value {
                    if !v.is_null() {
                        *total += v
                            .as_f64()
                            .ok_or_else(|| Error::Type(format!("SUM over non-numeric {v:?}")))?;
                        *seen = true;
                    }
                }
            }
            Accumulator::Avg { total, n } => {
                if let Some(v) = value {
                    if !v.is_null() {
                        *total += v
                            .as_f64()
                            .ok_or_else(|| Error::Type(format!("AVG over non-numeric {v:?}")))?;
                        *n += 1;
                    }
                }
            }
            Accumulator::Min(best) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let replace = match best {
                            Some(b) => v.sql_cmp(b) == Some(std::cmp::Ordering::Less),
                            None => true,
                        };
                        if replace {
                            *best = Some(v);
                        }
                    }
                }
            }
            Accumulator::Max(best) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let replace = match best {
                            Some(b) => v.sql_cmp(b) == Some(std::cmp::Ordering::Greater),
                            None => true,
                        };
                        if replace {
                            *best = Some(v);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Folds another accumulator of the same function into this one
    /// (partial-aggregate merge). Exact for COUNT/MIN/MAX and for
    /// SUM/AVG over integers; float SUM/AVG merge is subject to the
    /// usual addition reordering.
    fn absorb(&mut self, other: Accumulator) -> Result<()> {
        match (self, other) {
            (Accumulator::Count(n), Accumulator::Count(m)) => *n += m,
            (Accumulator::Sum { total, seen }, Accumulator::Sum { total: t, seen: s }) => {
                *total += t;
                *seen |= s;
            }
            (Accumulator::Avg { total, n }, Accumulator::Avg { total: t, n: m }) => {
                *total += t;
                *n += m;
            }
            (acc @ Accumulator::Min(_), Accumulator::Min(v))
            | (acc @ Accumulator::Max(_), Accumulator::Max(v)) => {
                if let Some(v) = v {
                    acc.update(Some(v))?;
                }
            }
            _ => {
                return Err(Error::Execution(
                    "partial aggregates disagree on function".into(),
                ))
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            Accumulator::Count(n) => Value::Int(n),
            Accumulator::Sum { total, seen } => {
                if seen {
                    Value::Float(total)
                } else {
                    Value::Null
                }
            }
            Accumulator::Avg { total, n } => {
                if n > 0 {
                    Value::Float(total / n as f64)
                } else {
                    Value::Null
                }
            }
            Accumulator::Min(v) | Accumulator::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

struct Group {
    key_row: Vec<Value>,
    accumulators: Vec<Accumulator>,
    carrier: AnnotatedRow,
}

/// Partial grouping state: the groups seen so far, in first-seen order.
/// One state per input morsel under parallel execution; partials merge
/// left-to-right in morsel order, which reproduces the serial executor's
/// first-seen group order exactly.
struct GroupState {
    order: Vec<Vec<u8>>,
    groups: HashMap<Vec<u8>, Group>,
}

impl GroupState {
    fn new() -> Self {
        Self {
            order: Vec::new(),
            groups: HashMap::new(),
        }
    }

    fn fold_row(
        &mut self,
        mut r: AnnotatedRow,
        group_cols: &[usize],
        aggs: &[AggSpec],
    ) -> Result<()> {
        let key = r.row.group_key(group_cols);
        // Project member summaries onto the grouping columns, speaking
        // output ordinals.
        r.project_summaries(&|c| {
            group_cols
                .iter()
                .position(|&g| g == c as usize)
                .map(|p| p as u16)
        });
        let group = match self.groups.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(o) => o.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                self.order.push(key);
                v.insert(Group {
                    key_row: group_cols.iter().map(|&c| r.row[c].clone()).collect(),
                    accumulators: aggs.iter().map(|a| Accumulator::new(a.func)).collect(),
                    carrier: AnnotatedRow::bare(Row::default()),
                })
            }
        };
        for (acc, spec) in group.accumulators.iter_mut().zip(aggs) {
            let value = spec.arg.as_ref().map(|e| e.eval(&r)).transpose()?;
            acc.update(value)?;
        }
        group.carrier.merge_summaries(&r)
    }

    /// Merges a later partial into this one: matching groups absorb
    /// accumulators and merge carriers (the no-double-count algebra);
    /// new groups append in the partial's first-seen order.
    fn absorb(&mut self, other: GroupState) -> Result<()> {
        let mut groups = other.groups;
        for key in other.order {
            let theirs = groups.remove(&key).expect("key recorded");
            match self.groups.entry(key.clone()) {
                std::collections::hash_map::Entry::Occupied(o) => {
                    let mine = o.into_mut();
                    for (acc, t) in mine.accumulators.iter_mut().zip(theirs.accumulators) {
                        acc.absorb(t)?;
                    }
                    mine.carrier.merge_summaries(&theirs.carrier)?;
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    self.order.push(key);
                    v.insert(theirs);
                }
            }
        }
        Ok(())
    }

    fn finish(mut self, group_cols: &[usize], aggs: &[AggSpec]) -> Result<Vec<AnnotatedRow>> {
        // SQL: a global aggregate over empty input still yields one row.
        if self.groups.is_empty() && group_cols.is_empty() {
            let values: Vec<Value> = aggs
                .iter()
                .map(|a| Accumulator::new(a.func).finish())
                .collect();
            return Ok(vec![AnnotatedRow::bare(Row::new(values))]);
        }
        let mut out = Vec::with_capacity(self.order.len());
        for key in self.order {
            let group = self.groups.remove(&key).expect("key recorded");
            let mut values = group.key_row;
            values.extend(group.accumulators.into_iter().map(Accumulator::finish));
            out.push(AnnotatedRow {
                row: Row::new(values),
                summaries: group.carrier.summaries,
            });
        }
        Ok(out)
    }
}

/// Groups rows and computes aggregates. Output rows are
/// `[group values…, aggregate values…]`; output summaries are the merge of
/// member summaries projected onto the grouping columns. With no grouping
/// columns, a single global group is produced (even over empty input, per
/// SQL semantics).
pub fn aggregate(
    rows: Vec<AnnotatedRow>,
    group_cols: &[usize],
    aggs: &[AggSpec],
) -> Result<Vec<AnnotatedRow>> {
    let mut state = GroupState::new();
    for r in rows {
        state.fold_row(r, group_cols, aggs)?;
    }
    state.finish(group_cols, aggs)
}

/// Parallel aggregation: each input morsel folds into a partial
/// `GroupState`; the partials merge left-to-right in morsel order.
/// Group output order and the summary algebra match the serial path;
/// float SUM/AVG may differ by addition reordering.
pub fn aggregate_parallel(
    rows: Vec<AnnotatedRow>,
    group_cols: &[usize],
    aggs: &[AggSpec],
    threads: usize,
) -> Result<Vec<AnnotatedRow>> {
    let partials = super::par::fold_morsels(rows, threads, &|chunk| {
        let mut state = GroupState::new();
        for r in chunk {
            state.fold_row(r, group_cols, aggs)?;
        }
        Ok(state)
    })?;
    let mut merged = GroupState::new();
    for partial in partials {
        merged.absorb(partial)?;
    }
    merged.finish(group_cols, aggs)
}

/// Partial duplicate-elimination state: surviving rows with their keys,
/// in first-seen order.
struct DistinctState {
    seen: HashMap<Vec<u8>, usize>,
    out: Vec<AnnotatedRow>,
    keys: Vec<Vec<u8>>,
}

impl DistinctState {
    fn new() -> Self {
        Self {
            seen: HashMap::new(),
            out: Vec::new(),
            keys: Vec::new(),
        }
    }

    fn fold_row(&mut self, r: AnnotatedRow, key: Vec<u8>) -> Result<()> {
        match self.seen.get(&key) {
            Some(&i) => self.out[i].merge_summaries(&r)?,
            None => {
                self.seen.insert(key.clone(), self.out.len());
                self.out.push(r);
                self.keys.push(key);
            }
        }
        Ok(())
    }
}

fn row_key(r: &AnnotatedRow) -> Vec<u8> {
    let all: Vec<usize> = (0..r.row.arity()).collect();
    r.row.group_key(&all)
}

/// Duplicate elimination: the first occurrence survives and absorbs the
/// summaries of every eliminated duplicate.
pub fn distinct(rows: Vec<AnnotatedRow>) -> Result<Vec<AnnotatedRow>> {
    let mut state = DistinctState::new();
    for r in rows {
        let key = row_key(&r);
        state.fold_row(r, key)?;
    }
    Ok(state.out)
}

/// Parallel duplicate elimination: per-morsel partials merged in morsel
/// order, reproducing the serial first-occurrence order.
pub fn distinct_parallel(rows: Vec<AnnotatedRow>, threads: usize) -> Result<Vec<AnnotatedRow>> {
    let partials = super::par::fold_morsels(rows, threads, &|chunk| {
        let mut state = DistinctState::new();
        for r in chunk {
            let key = row_key(&r);
            state.fold_row(r, key)?;
        }
        Ok(state)
    })?;
    let mut merged = DistinctState::new();
    for partial in partials {
        for (r, key) in partial.out.into_iter().zip(partial.keys) {
            merged.fold_row(r, key)?;
        }
    }
    Ok(merged.out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::SExpr;
    use insightnotes_annotations::ColSig;
    use insightnotes_common::InstanceId;
    use insightnotes_summaries::{object::ClassifierObject, Contribution, SummaryObject};
    use std::sync::Arc;

    fn arow(vals: Vec<Value>, ids: &[u64]) -> AnnotatedRow {
        let arity = vals.len();
        let summaries = if ids.is_empty() {
            vec![]
        } else {
            let labels: Arc<[String]> = vec!["L".to_string()].into();
            let mut obj = SummaryObject::Classifier(ClassifierObject::new(labels));
            for &id in ids {
                obj.apply(id, ColSig::whole_row(arity), &Contribution::Label(0))
                    .unwrap();
            }
            vec![(InstanceId(1), obj)]
        };
        AnnotatedRow::new(Row::new(vals), summaries)
    }

    fn spec(func: AggFunc, col: Option<usize>) -> AggSpec {
        AggSpec {
            func,
            arg: col.map(SExpr::Column),
        }
    }

    #[test]
    fn groups_and_computes_all_aggregates() {
        let rows = vec![
            arow(vec![Value::Text("a".into()), Value::Int(1)], &[]),
            arow(vec![Value::Text("a".into()), Value::Int(3)], &[]),
            arow(vec![Value::Text("b".into()), Value::Int(10)], &[]),
        ];
        let out = aggregate(
            rows,
            &[0],
            &[
                spec(AggFunc::Count, None),
                spec(AggFunc::Sum, Some(1)),
                spec(AggFunc::Avg, Some(1)),
                spec(AggFunc::Min, Some(1)),
                spec(AggFunc::Max, Some(1)),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let a = &out[0].row;
        assert_eq!(a[0], Value::Text("a".into()));
        assert_eq!(a[1], Value::Int(2));
        assert_eq!(a[2], Value::Float(4.0));
        assert_eq!(a[3], Value::Float(2.0));
        assert_eq!(a[4], Value::Int(1));
        assert_eq!(a[5], Value::Int(3));
    }

    #[test]
    fn count_expr_skips_nulls_but_count_star_does_not() {
        let rows = vec![arow(vec![Value::Int(1)], &[]), arow(vec![Value::Null], &[])];
        let out = aggregate(
            rows,
            &[],
            &[spec(AggFunc::Count, None), spec(AggFunc::Count, Some(0))],
        )
        .unwrap();
        assert_eq!(out[0].row[0], Value::Int(2));
        assert_eq!(out[0].row[1], Value::Int(1));
    }

    #[test]
    fn global_aggregate_over_empty_input_yields_one_row() {
        let out = aggregate(
            vec![],
            &[],
            &[spec(AggFunc::Count, None), spec(AggFunc::Sum, Some(0))],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].row[0], Value::Int(0));
        assert!(out[0].row[1].is_null());
    }

    #[test]
    fn grouped_summaries_merge_without_double_count() {
        let rows = vec![
            arow(vec![Value::Text("a".into())], &[1, 2]),
            arow(vec![Value::Text("a".into())], &[2, 3]),
            arow(vec![Value::Text("b".into())], &[9]),
        ];
        let out = aggregate(rows, &[0], &[spec(AggFunc::Count, None)]).unwrap();
        assert_eq!(
            out[0].summary(InstanceId(1)).unwrap().annotation_count(),
            3,
            "annotation 2 counted once across group members"
        );
        assert_eq!(out[1].summary(InstanceId(1)).unwrap().annotation_count(), 1);
    }

    #[test]
    fn distinct_folds_duplicate_summaries() {
        let rows = vec![
            arow(vec![Value::Int(1)], &[1]),
            arow(vec![Value::Int(1)], &[2]),
            arow(vec![Value::Int(2)], &[3]),
        ];
        let out = distinct(rows).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].summary(InstanceId(1)).unwrap().annotation_count(), 2);
    }

    #[test]
    fn distinct_groups_nulls_together() {
        let rows = vec![arow(vec![Value::Null], &[]), arow(vec![Value::Null], &[])];
        assert_eq!(distinct(rows).unwrap().len(), 1);
    }
}
