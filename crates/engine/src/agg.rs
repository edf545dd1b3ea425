//! Aggregate accumulators and hash grouping, shared by the Volcano and
//! staged engines.

use crate::error::{EngineError, EngineResult};
use crate::expr::eval;
use crate::kernel::Blocking;
use staged_planner::plan::col_at;
use staged_planner::AggSpec;
use staged_sql::ast::{AggFunc, Expr};
use staged_storage::{Tuple, Value};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Running state of one aggregate.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    distinct: bool,
    seen: HashSet<Vec<u8>>,
    count: i64,
    sum_i: i64,
    sum_f: f64,
    saw_float: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    /// Fresh accumulator for a spec.
    pub fn new(spec: &AggSpec) -> Self {
        Self {
            func: spec.func,
            distinct: spec.distinct,
            seen: HashSet::new(),
            count: 0,
            sum_i: 0,
            sum_f: 0.0,
            saw_float: false,
            min: None,
            max: None,
        }
    }

    /// Feed one input value (already evaluated; `Null` for `COUNT(*)` rows
    /// is passed as `Some(non-null)` by the caller — see `update_star`).
    pub fn update(&mut self, v: &Value) -> EngineResult<()> {
        if v.is_null() {
            return Ok(()); // aggregates skip NULLs
        }
        if self.distinct {
            let mut key = Vec::new();
            v.encode(&mut key);
            if !self.seen.insert(key) {
                return Ok(());
            }
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match v {
                Value::Int(i) => {
                    self.sum_i = self
                        .sum_i
                        .checked_add(*i)
                        .ok_or_else(|| EngineError::Eval("SUM overflow".into()))?;
                    self.sum_f += *i as f64;
                }
                Value::Float(f) => {
                    self.saw_float = true;
                    self.sum_f += f;
                }
                other => {
                    return Err(EngineError::Eval(format!("SUM/AVG over {other}")));
                }
            },
            AggFunc::Min => {
                if self.min.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                    self.min = Some(v.clone());
                }
            }
            AggFunc::Max => {
                if self.max.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                    self.max = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// Feed a `COUNT(*)` row (no argument, NULLs still count).
    pub fn update_star(&mut self) {
        self.count += 1;
    }

    /// Final value of the aggregate.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.saw_float {
                    Value::Float(self.sum_f)
                } else {
                    Value::Int(self.sum_i)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum_f / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Where a group key or an aggregate argument comes from, resolved once
/// per plan so the per-row loop reads plain columns straight off the tuple
/// and runs the expression interpreter only for computed expressions.
enum Source {
    /// A bound column reference.
    Col(usize),
    /// Anything else: interpreted per row.
    Expr(Expr),
}

impl Source {
    fn of(e: &Expr) -> Self {
        match e {
            Expr::Column(c) if c.index.is_some() => Source::Col(c.index.expect("checked")),
            e => Source::Expr(e.clone()),
        }
    }

    /// The value for row `t`: borrowed from the row for a column,
    /// evaluated for an expression.
    fn read<'t>(&self, t: &'t Tuple) -> EngineResult<Cow<'t, Value>> {
        match self {
            Source::Col(i) => t
                .values()
                .get(*i)
                .map(Cow::Borrowed)
                .ok_or_else(|| EngineError::Internal(format!("column {i} out of arity"))),
            Source::Expr(e) => eval(e, t).map(Cow::Owned),
        }
    }
}

/// The state of one hash aggregate: groups in first-seen order, each with
/// its key values and one [`Accumulator`] per aggregate. Rows are absorbed
/// one at a time and [`finish`](Self::finish) yields `key values ⧺
/// aggregate values` per group. Both engines' `HashAggregate`, a scan
/// folding its rows into an aggregate and the [`AggMerger`] all run this.
///
/// A row's key is encoded into a reused scratch buffer; key values are
/// copied out of the row (or evaluated again) only when its group is first
/// seen, so absorbing a row into an existing group allocates nothing.
pub struct GroupTable {
    keys: Vec<Source>,
    aggs: Vec<AggSpec>,
    /// One per aggregate; `None` for `COUNT(*)`.
    args: Vec<Option<Source>>,
    key_scratch: Vec<u8>,
    groups: Vec<(Vec<Value>, Vec<Accumulator>)>,
    index: HashMap<Vec<u8>, usize>,
}

impl GroupTable {
    /// An empty table grouping by `group_by` and computing `aggs`.
    pub fn new(group_by: &[Expr], aggs: &[AggSpec]) -> Self {
        Self {
            keys: group_by.iter().map(Source::of).collect(),
            aggs: aggs.to_vec(),
            args: aggs.iter().map(|a| a.arg.as_ref().map(Source::of)).collect(),
            key_scratch: Vec::new(),
            groups: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Fold one row into its group.
    pub fn absorb(&mut self, t: &Tuple) -> EngineResult<()> {
        self.key_scratch.clear();
        for k in &self.keys {
            k.read(t)?.encode(&mut self.key_scratch);
        }
        let slot = match self.index.get(self.key_scratch.as_slice()) {
            Some(&s) => s,
            None => {
                let vals = self
                    .keys
                    .iter()
                    .map(|k| k.read(t).map(Cow::into_owned))
                    .collect::<EngineResult<_>>()?;
                self.groups.push((vals, self.aggs.iter().map(Accumulator::new).collect()));
                self.index.insert(self.key_scratch.clone(), self.groups.len() - 1);
                self.groups.len() - 1
            }
        };
        for (acc, arg) in self.groups[slot].1.iter_mut().zip(&self.args) {
            match arg {
                Some(a) => acc.update(&*a.read(t)?)?,
                None => acc.update_star(),
            }
        }
        Ok(())
    }

    /// One row per group: `key values ⧺ aggregate values`. A global
    /// aggregate (no grouping) over zero rows still yields one row.
    pub fn finish(mut self) -> Vec<Tuple> {
        if self.groups.is_empty() && self.keys.is_empty() {
            self.groups.push((Vec::new(), self.aggs.iter().map(Accumulator::new).collect()));
        }
        self.groups
            .into_iter()
            .map(|(mut vals, accs)| {
                vals.extend(accs.iter().map(Accumulator::finish));
                Tuple::new(vals)
            })
            .collect()
    }

    /// Every column the keys and arguments read, sorted and deduplicated,
    /// when each is a plain column; `None` when any is computed.
    pub(crate) fn plain_cols(&self) -> Option<Vec<usize>> {
        let mut cols = Vec::new();
        for src in self.keys.iter().chain(self.args.iter().flatten()) {
            match src {
                Source::Col(i) => cols.push(*i),
                Source::Expr(_) => return None,
            }
        }
        cols.sort_unstable();
        cols.dedup();
        Some(cols)
    }

    /// Rewrite column indexes through `pos` (old slot → pruned slot). Only
    /// meaningful when [`plain_cols`](Self::plain_cols) is `Some`.
    pub(crate) fn remap_columns(&mut self, pos: &dyn Fn(usize) -> usize) {
        for src in self.keys.iter_mut().chain(self.args.iter_mut().flatten()) {
            match src {
                Source::Col(i) => *i = pos(*i),
                Source::Expr(_) => debug_assert!(false, "remap is only valid on plain columns"),
            }
        }
    }
}

/// Combines partially-aggregated rows into final aggregate values: the
/// merge half of two-phase (partition-parallel) aggregation, which the
/// Volcano and staged `MergeAggregate` both run.
///
/// Input rows have the layout `group values ⧺ partial values`, where the
/// partial columns follow [`staged_planner::plan::partial_agg_specs`]'s
/// expansion of the final aggregate list (COUNT/SUM/MIN/MAX → one column,
/// AVG → SUM then COUNT). They are grouped by a [`GroupTable`] whose
/// aggregates combine the partial columns: partial COUNTs and SUMs are
/// summed, partial MIN/MAX re-minimized/-maximized.
pub struct AggMerger {
    aggs: Vec<AggSpec>,
    group_len: usize,
    width: usize,
    groups: GroupTable,
}

impl AggMerger {
    /// A merger for `aggs` final aggregates under `group_len` group keys.
    pub fn new(group_len: usize, aggs: Vec<AggSpec>) -> Self {
        let combine = aggs.iter().flat_map(|a| match a.func {
            // Final COUNT = sum of partial counts; AVG carries (sum, count).
            AggFunc::Count | AggFunc::Sum => &[AggFunc::Sum][..],
            AggFunc::Min => &[AggFunc::Min],
            AggFunc::Max => &[AggFunc::Max],
            AggFunc::Avg => &[AggFunc::Sum, AggFunc::Sum],
        });
        let specs: Vec<AggSpec> = combine
            .enumerate()
            .map(|(j, &func)| AggSpec { func, arg: Some(col_at(group_len + j)), distinct: false })
            .collect();
        let keys: Vec<Expr> = (0..group_len).map(col_at).collect();
        let width = group_len + specs.len();
        Self { groups: GroupTable::new(&keys, &specs), aggs, group_len, width }
    }
}

impl Blocking for AggMerger {
    fn push(&mut self, _: usize, t: Tuple) -> EngineResult<()> {
        if t.values().len() != self.width {
            return Err(EngineError::Internal(format!(
                "partial-aggregate row has {} columns, expected {}",
                t.values().len(),
                self.width
            )));
        }
        self.groups.absorb(&t)
    }

    /// Finish every group: `group values ⧺ final aggregate values`.
    fn output(self) -> EngineResult<Vec<Tuple>> {
        let finals = |t: Tuple| {
            let (keys, partials) = t.values().split_at(self.group_len);
            let mut vals = keys.to_vec();
            let mut partials = partials.iter();
            let mut next = || partials.next().expect("a partial column per combine aggregate");
            for a in &self.aggs {
                vals.push(match a.func {
                    // A sum of no partial counts is NULL; COUNT maps it to 0.
                    AggFunc::Count => Value::Int(next().as_int().unwrap_or(0)),
                    AggFunc::Avg => {
                        let sum = next().as_float();
                        match next().as_int().unwrap_or(0) {
                            0 => Value::Null,
                            count => Value::Float(sum.unwrap_or(0.0) / count as f64),
                        }
                    }
                    AggFunc::Sum | AggFunc::Min | AggFunc::Max => next().clone(),
                });
            }
            Tuple::new(vals)
        };
        Ok(self.groups.finish().into_iter().map(finals).collect())
    }
}

impl Blocking for GroupTable {
    fn push(&mut self, _: usize, t: Tuple) -> EngineResult<()> {
        self.absorb(&t)
    }

    fn output(self) -> EngineResult<Vec<Tuple>> {
        Ok(self.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(func: AggFunc, distinct: bool) -> AggSpec {
        AggSpec { func, arg: None, distinct }
    }

    #[test]
    fn count_sum_avg_min_max() {
        let mut c = Accumulator::new(&spec(AggFunc::Count, false));
        let mut s = Accumulator::new(&spec(AggFunc::Sum, false));
        let mut a = Accumulator::new(&spec(AggFunc::Avg, false));
        let mut mn = Accumulator::new(&spec(AggFunc::Min, false));
        let mut mx = Accumulator::new(&spec(AggFunc::Max, false));
        for i in 1..=4i64 {
            for acc in [&mut c, &mut s, &mut a, &mut mn, &mut mx] {
                acc.update(&Value::Int(i)).unwrap();
            }
        }
        assert_eq!(c.finish(), Value::Int(4));
        assert_eq!(s.finish(), Value::Int(10));
        assert_eq!(a.finish(), Value::Float(2.5));
        assert_eq!(mn.finish(), Value::Int(1));
        assert_eq!(mx.finish(), Value::Int(4));
    }

    #[test]
    fn nulls_are_skipped_but_count_star_counts() {
        let mut c = Accumulator::new(&spec(AggFunc::Count, false));
        c.update(&Value::Null).unwrap();
        c.update(&Value::Int(1)).unwrap();
        assert_eq!(c.finish(), Value::Int(1));
        let mut star = Accumulator::new(&spec(AggFunc::Count, false));
        star.update_star();
        star.update_star();
        assert_eq!(star.finish(), Value::Int(2));
    }

    #[test]
    fn distinct_dedups() {
        let mut s = Accumulator::new(&spec(AggFunc::Sum, true));
        for v in [1, 2, 2, 3, 3, 3] {
            s.update(&Value::Int(v)).unwrap();
        }
        assert_eq!(s.finish(), Value::Int(6));
    }

    #[test]
    fn empty_input_yields_null_or_zero() {
        assert_eq!(Accumulator::new(&spec(AggFunc::Count, false)).finish(), Value::Int(0));
        assert_eq!(Accumulator::new(&spec(AggFunc::Sum, false)).finish(), Value::Null);
        assert_eq!(Accumulator::new(&spec(AggFunc::Avg, false)).finish(), Value::Null);
        assert_eq!(Accumulator::new(&spec(AggFunc::Min, false)).finish(), Value::Null);
    }

    #[test]
    fn sum_switches_to_float_when_needed() {
        let mut s = Accumulator::new(&spec(AggFunc::Sum, false));
        s.update(&Value::Int(1)).unwrap();
        s.update(&Value::Float(0.5)).unwrap();
        assert_eq!(s.finish(), Value::Float(1.5));
    }

    fn int_row(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    /// Merge `rows` of partial aggregates under `group_len` group keys.
    fn merge(group_len: usize, aggs: &[AggFunc], rows: Vec<Tuple>) -> EngineResult<Vec<Tuple>> {
        let mut m = AggMerger::new(group_len, aggs.iter().map(|&f| spec(f, false)).collect());
        for t in rows {
            m.push(0, t)?;
        }
        m.output()
    }

    #[test]
    fn merger_combines_partial_states_per_group() {
        // Final aggs: COUNT(*), SUM(x), MIN(x), AVG(x) → partial layout
        // count | sum | min | avg-sum | avg-count after one group column.
        let aggs = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Avg];
        // Partition 1: group 7 saw rows {1, 3}; partition 2: group 7 saw
        // {5}; partition 2 also saw group 8 = {2}.
        let rows = merge(
            1,
            &aggs,
            vec![
                int_row(&[7, 2, 4, 1, 4, 2]),
                int_row(&[8, 1, 2, 2, 2, 1]),
                int_row(&[7, 1, 5, 5, 5, 1]),
            ],
        )
        .unwrap();
        assert_eq!(
            rows,
            [
                Tuple::new(vec![
                    Value::Int(7),
                    Value::Int(3),
                    Value::Int(9),
                    Value::Int(1),
                    Value::Float(3.0)
                ]),
                Tuple::new(vec![
                    Value::Int(8),
                    Value::Int(1),
                    Value::Int(2),
                    Value::Int(2),
                    Value::Float(2.0)
                ]),
            ]
        );
    }

    #[test]
    fn merger_global_aggregate_handles_empty_partials() {
        let aggs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg];
        // Two partitions, both empty: each partial emits COUNT 0, SUM NULL,
        // AVG partials (NULL, 0).
        let empty = || Tuple::new(vec![Value::Int(0), Value::Null, Value::Null, Value::Int(0)]);
        let rows = merge(0, &aggs, vec![empty(), empty()]).unwrap();
        assert_eq!(rows, [Tuple::new(vec![Value::Int(0), Value::Null, Value::Null])]);
        // No partial row at all still yields the one global row.
        assert_eq!(merge(0, &aggs, Vec::new()).unwrap(), rows);
    }

    #[test]
    fn merger_finishes_count_over_null_partials_as_zero_and_avg_from_sum_and_count() {
        // A COUNT whose partial column is NULL everywhere sums to NULL, and
        // finishes as 0; AVG is (sum of sums) / (sum of counts), a float
        // even over integer sums.
        let partial = |sum, count| {
            Tuple::new(vec![Value::Int(1), Value::Null, Value::Int(sum), Value::Int(count)])
        };
        let rows = merge(1, &[AggFunc::Count, AggFunc::Avg], vec![partial(7, 2), partial(0, 3)]);
        let want = Tuple::new(vec![Value::Int(1), Value::Int(0), Value::Float(7.0 / 5.0)]);
        assert_eq!(rows.unwrap(), [want]);
    }

    #[test]
    fn merger_refuses_a_row_of_the_wrong_width() {
        // One group key and COUNT + AVG: 1 + 1 + 2 = 4 columns.
        let aggs = [AggFunc::Count, AggFunc::Avg];
        for width in [0usize, 1, 3, 5] {
            let row = int_row(&vec![1; width]);
            let err = merge(1, &aggs, vec![int_row(&[1, 1, 1, 1]), row]).unwrap_err();
            assert!(err.to_string().contains("expected 4"), "width {width}: {err}");
        }
    }

    #[test]
    fn min_max_over_strings() {
        let mut mn = Accumulator::new(&spec(AggFunc::Min, false));
        let mut mx = Accumulator::new(&spec(AggFunc::Max, false));
        for s in ["pear", "apple", "zucchini"] {
            mn.update(&Value::Str(s.into())).unwrap();
            mx.update(&Value::Str(s.into())).unwrap();
        }
        assert_eq!(mn.finish(), Value::Str("apple".into()));
        assert_eq!(mx.finish(), Value::Str("zucchini".into()));
    }
}
