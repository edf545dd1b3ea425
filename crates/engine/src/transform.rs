//! The fused per-row operators: filters, projections and limits, compiled
//! once per plan into a [`Transform`] chain. Neither engine gives them an
//! operator of their own. [`fuse`] peels them off the top of a plan node,
//! and whatever produces that node's rows — a Volcano executor or a staged
//! task — runs the chain on each row.

use crate::error::{EngineError, EngineResult};
use crate::expr::{eval, eval_predicate};
use staged_planner::PhysicalPlan;
use staged_sql::ast::{BinOp, ColumnRef, Expr};
use staged_storage::{Tuple, Value};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// One per-row operator of a fused chain.
///
/// Transforms are *compiled* when the chain is built: expression shapes the
/// inner loops hit constantly — constant integer comparisons, plain column
/// projections — are analyzed once per plan and run as direct
/// index/compare code per row, falling back to the general expression
/// interpreter only for shapes the fast paths do not cover.
pub enum Transform {
    /// Drop tuples failing the predicate.
    Filter(Pred),
    /// Re-map through expressions.
    Project(Proj),
    /// Emit at most the shared remaining count (cross-task counter).
    Limit(Arc<AtomicI64>),
}

impl Transform {
    /// Compile a filter predicate.
    pub fn filter(expr: Expr) -> Self {
        Transform::Filter(Pred::compile(expr))
    }

    /// Compile a projection list.
    pub fn project(exprs: &[Expr]) -> Self {
        Transform::Project(Proj::compile(exprs))
    }
}

/// A compiled predicate: the generic expression plus an optional fast
/// path. Constant integer comparisons on one column — `c = k`, `c < k`,
/// `c BETWEEN a AND b`, in either orientation — compile to one inclusive
/// interval test `lo <= c <= hi` with no interpreter dispatch and no
/// `Value` clones.
pub struct Pred {
    expr: Expr,
    fast: Option<IntRange>,
}

#[derive(Clone, Copy)]
struct IntRange {
    idx: usize,
    lo: i64,
    hi: i64,
}

/// `(column index, constant)` when `e` is `Column <op> IntLiteral` in the
/// given orientation.
fn col_int(a: &Expr, b: &Expr) -> Option<(usize, i64)> {
    match (a, b) {
        (Expr::Column(c), Expr::Literal(Value::Int(k))) => Some((c.index?, *k)),
        _ => None,
    }
}

impl Pred {
    /// Analyze `expr` once; tuples then take the cheapest path it admits.
    pub fn compile(expr: Expr) -> Self {
        let range =
            |idx: usize, lo: Option<i64>, hi: Option<i64>| Some(IntRange { idx, lo: lo?, hi: hi? });
        // `k <op> column` mirrors to `column <flip(op)> k`.
        let flip = |op: BinOp| match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        };
        let fast = match &expr {
            Expr::Binary { left, op, right } => {
                // Normalize to `column <op> constant`.
                let norm = col_int(left, right)
                    .map(|(idx, k)| (idx, k, *op))
                    .or_else(|| col_int(right, left).map(|(idx, k)| (idx, k, flip(*op))));
                norm.and_then(|(idx, k, op)| match op {
                    BinOp::Eq => range(idx, Some(k), Some(k)),
                    BinOp::Lt => range(idx, Some(i64::MIN), k.checked_sub(1)),
                    BinOp::LtEq => range(idx, Some(i64::MIN), Some(k)),
                    BinOp::Gt => range(idx, k.checked_add(1), Some(i64::MAX)),
                    BinOp::GtEq => range(idx, Some(k), Some(i64::MAX)),
                    _ => None,
                })
            }
            Expr::Between { expr: e, lo, hi, negated: false } => match (&**e, &**lo, &**hi) {
                (Expr::Column(c), Expr::Literal(Value::Int(a)), Expr::Literal(Value::Int(b))) => {
                    c.index.and_then(|idx| range(idx, Some(*a), Some(*b)))
                }
                _ => None,
            },
            _ => None,
        };
        Self { expr, fast }
    }

    /// SQL WHERE semantics: NULL is false.
    #[inline]
    pub fn test(&self, t: &Tuple) -> EngineResult<bool> {
        if let Some(r) = self.fast {
            match t.values().get(r.idx) {
                Some(Value::Int(v)) => return Ok(r.lo <= *v && *v <= r.hi),
                Some(Value::Null) => return Ok(false),
                // Non-integer value (numeric coercion): interpreter path.
                _ => {}
            }
        }
        eval_predicate(&self.expr, t)
    }

    /// The single column the fast path reads, when one exists. A `Some`
    /// here guarantees the whole predicate (fast path *and* interpreter
    /// fallback) touches no other column, which is what makes it safe to
    /// prune the rest of the row underneath it.
    pub(crate) fn fast_col(&self) -> Option<usize> {
        self.fast.map(|r| r.idx)
    }

    /// Rewrite column indexes through `pos` (old slot → pruned slot). Only
    /// meaningful when [`fast_col`](Self::fast_col) is `Some`: the
    /// expression then has the comparison/BETWEEN shape the walker below
    /// covers, so the interpreter fallback stays consistent with the
    /// remapped fast path.
    pub(crate) fn remap_columns(&mut self, pos: &dyn Fn(usize) -> usize) {
        debug_assert!(self.fast.is_some(), "remap is only valid on fast predicates");
        if let Some(r) = &mut self.fast {
            r.idx = pos(r.idx);
        }
        fn walk(e: &mut Expr, pos: &dyn Fn(usize) -> usize) {
            match e {
                Expr::Column(c) => {
                    if let Some(i) = c.index {
                        c.index = Some(pos(i));
                    }
                }
                Expr::Binary { left, right, .. } => {
                    walk(left, pos);
                    walk(right, pos);
                }
                Expr::Between { expr, lo, hi, .. } => {
                    walk(expr, pos);
                    walk(lo, pos);
                    walk(hi, pos);
                }
                _ => {}
            }
        }
        walk(&mut self.expr, pos);
    }
}

/// A compiled projection: when every output expression is a plain bound
/// column reference, tuples are re-mapped by direct index gather instead
/// of per-expression interpretation, and the expressions are not kept.
pub enum Proj {
    /// Gather these column indexes.
    Cols(Vec<usize>),
    /// Evaluate these expressions.
    Exprs(Vec<Expr>),
}

impl Proj {
    /// Analyze the projection list once.
    pub fn compile(exprs: &[Expr]) -> Self {
        let mut cols = Vec::with_capacity(exprs.len());
        for e in exprs {
            match e {
                Expr::Column(ColumnRef { index: Some(i), .. }) => cols.push(*i),
                _ => return Proj::Exprs(exprs.to_vec()),
            }
        }
        Proj::Cols(cols)
    }

    /// Re-map one tuple.
    #[inline]
    pub fn apply(&self, t: Tuple) -> EngineResult<Tuple> {
        let vals = match self {
            Proj::Cols(cols) => {
                let vals = t.values();
                cols.iter()
                    .map(|&i| {
                        vals.get(i).cloned().ok_or_else(|| {
                            EngineError::Internal(format!("column {i} out of arity"))
                        })
                    })
                    .collect::<EngineResult<Vec<_>>>()?
            }
            Proj::Exprs(exprs) => {
                exprs.iter().map(|e| eval(e, &t)).collect::<EngineResult<Vec<_>>>()?
            }
        };
        Ok(Tuple::new(vals))
    }

    /// The gathered column indexes when every output is a plain column.
    pub(crate) fn plain_cols(&self) -> Option<&[usize]> {
        match self {
            Proj::Cols(cols) => Some(cols),
            Proj::Exprs(_) => None,
        }
    }

    /// Rewrite column indexes through `pos` (old slot → pruned slot). Only
    /// meaningful when [`plain_cols`](Self::plain_cols) is `Some`.
    pub(crate) fn remap_columns(&mut self, pos: &dyn Fn(usize) -> usize) {
        debug_assert!(
            self.plain_cols().is_some(),
            "remap is only valid on plain-column projections"
        );
        if let Proj::Cols(cols) = self {
            for c in cols.iter_mut() {
                *c = pos(*c);
            }
        }
    }
}

/// Peel the fused per-row operators off the top of `plan`: filters,
/// projections and limits get no stage of their own ("we group together
/// operators which use a small portion of the common or shared data and
/// code") and run inside whatever produces their input. Returns that
/// producing node and the compiled chain, innermost first, with `above`
/// (the transforms fused from further up) appended.
pub fn fuse(mut plan: &PhysicalPlan, above: Vec<Transform>) -> (&PhysicalPlan, Vec<Transform>) {
    let mut outer_first = Vec::new();
    loop {
        let (t, input) = match plan {
            PhysicalPlan::Filter { input, predicate } => {
                (Transform::filter(predicate.clone()), input)
            }
            PhysicalPlan::Project { input, exprs, .. } => (Transform::project(exprs), input),
            PhysicalPlan::Limit { input, n } => {
                (Transform::Limit(Arc::new(AtomicI64::new(*n as i64))), input)
            }
            _ => break,
        };
        outer_first.push(t);
        plan = input;
    }
    outer_first.reverse();
    outer_first.extend(above);
    (plan, outer_first)
}

/// Apply a transform chain; `None` means the tuple was filtered out.
pub fn apply_transforms(ts: &[Transform], mut t: Tuple) -> EngineResult<Option<Tuple>> {
    for tr in ts {
        match tr {
            Transform::Filter(p) => {
                if !p.test(&t)? {
                    return Ok(None);
                }
            }
            Transform::Project(proj) => {
                t = proj.apply(t)?;
            }
            Transform::Limit(left) => {
                if left.fetch_sub(1, Ordering::SeqCst) <= 0 {
                    return Ok(None);
                }
            }
        }
    }
    Ok(Some(t))
}

/// True once a `Limit` in the chain has passed its last row: no later row
/// can get through, so the producer may stop.
pub fn spent(ts: &[Transform]) -> bool {
    ts.iter().any(|t| matches!(t, Transform::Limit(left) if left.load(Ordering::SeqCst) <= 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_planner::plan::col_at;

    #[test]
    fn transforms_compose_in_order() {
        let ts = vec![
            Transform::filter(Expr::binary(col_at(0), BinOp::Gt, Expr::int(1))),
            Transform::project(&[Expr::binary(col_at(0), BinOp::Mul, Expr::int(10))]),
        ];
        let keep = apply_transforms(&ts, Tuple::new(vec![Value::Int(5)])).unwrap();
        assert_eq!(keep.unwrap().values(), &[Value::Int(50)]);
        let drop = apply_transforms(&ts, Tuple::new(vec![Value::Int(0)])).unwrap();
        assert!(drop.is_none());
    }

    #[test]
    fn compiled_predicates_agree_with_the_interpreter() {
        let t = |v: &Value| Tuple::new(vec![v.clone()]);
        let cmp = |op, k| Expr::binary(col_at(0), op, Expr::int(k));
        let between = |a, b| Expr::Between {
            expr: Box::new(col_at(0)),
            lo: Box::new(Expr::int(a)),
            hi: Box::new(Expr::int(b)),
            negated: false,
        };
        let (min, max) = (Value::Int(i64::MIN), Value::Int(i64::MAX));
        // (predicate, compiles to an interval, rows it must pass or fail)
        type Case = (Expr, bool, Vec<(Value, bool)>);
        let cases: Vec<Case> = vec![
            (cmp(BinOp::Eq, 5), true, vec![(Value::Int(5), true), (Value::Int(4), false)]),
            // Mirrored orientation: `10 > c` is `c < 10`.
            (
                Expr::binary(Expr::int(10), BinOp::Gt, col_at(0)),
                true,
                vec![(Value::Int(9), true), (Value::Int(10), false)],
            ),
            (
                between(2, 4),
                true,
                vec![(Value::Int(2), true), (Value::Int(4), true), (Value::Int(5), false)],
            ),
            // At the ends of i64: `< MIN` and `> MAX` have no interval (the
            // bound would overflow) and stay on the interpreter.
            (cmp(BinOp::Lt, i64::MIN), false, vec![(min.clone(), false), (max.clone(), false)]),
            (cmp(BinOp::Gt, i64::MAX), false, vec![(min.clone(), false), (max.clone(), false)]),
            (cmp(BinOp::Lt, i64::MAX), true, vec![(min.clone(), true), (max.clone(), false)]),
            (cmp(BinOp::Gt, i64::MIN), true, vec![(min.clone(), false), (max.clone(), true)]),
            (cmp(BinOp::LtEq, i64::MIN), true, vec![(min.clone(), true), (Value::Int(0), false)]),
            (cmp(BinOp::GtEq, i64::MAX), true, vec![(max.clone(), true), (Value::Int(0), false)]),
            // Negative constants.
            (cmp(BinOp::Lt, -3), true, vec![(Value::Int(-4), true), (Value::Int(-3), false)]),
            (
                between(-5, -2),
                true,
                vec![(Value::Int(-5), true), (Value::Int(-2), true), (Value::Int(-1), false)],
            ),
            (
                Expr::binary(Expr::int(-7), BinOp::GtEq, col_at(0)),
                true,
                vec![(Value::Int(-7), true), (Value::Int(-6), false)],
            ),
        ];
        // Every case also sees NULL, floats in and out of the interval and a
        // string: values the interval does not hold go to the interpreter.
        let others = [
            Value::Null,
            Value::Float(4.5),
            Value::Float(-4.5),
            Value::Float(5.0),
            Value::Float(1e300),
            Value::Str("5".into()),
        ];
        for (expr, fast, rows) in cases {
            let pred = Pred::compile(expr.clone());
            assert_eq!(pred.fast.is_some(), fast, "{expr:?}");
            for (v, want) in &rows {
                assert_eq!(pred.test(&t(v)).unwrap(), *want, "{expr:?} on {v:?}");
            }
            for v in rows.iter().map(|(v, _)| v).chain(&others) {
                let (got, reference) = (pred.test(&t(v)), eval_predicate(&expr, &t(v)));
                let show = |r: EngineResult<bool>| r.map_err(|e| e.to_string());
                assert_eq!(show(got), show(reference), "{expr:?} on {v:?}");
            }
        }
    }

    #[test]
    fn compiled_projection_gathers_columns() {
        let proj = Proj::compile(&[col_at(2), col_at(0)]);
        assert_eq!(proj.plain_cols(), Some(&[2, 0][..]), "plain column list compiles to a gather");
        let out =
            proj.apply(Tuple::new(vec![Value::Int(1), Value::Int(2), Value::Int(3)])).unwrap();
        assert_eq!(out.values(), &[Value::Int(3), Value::Int(1)]);
        let mixed = Proj::compile(&[Expr::binary(col_at(0), BinOp::Mul, Expr::int(2))]);
        assert!(mixed.plain_cols().is_none(), "computed expressions stay on the interpreter");
        let out = mixed.apply(Tuple::new(vec![Value::Int(4)])).unwrap();
        assert_eq!(out.values(), &[Value::Int(8)]);
    }

    #[test]
    fn limit_transform_is_shared_across_producers() {
        let left = Arc::new(AtomicI64::new(2));
        let ts = vec![Transform::Limit(Arc::clone(&left))];
        let t = Tuple::new(vec![Value::Int(1)]);
        assert!(apply_transforms(&ts, t.clone()).unwrap().is_some());
        assert!(apply_transforms(&ts, t.clone()).unwrap().is_some());
        assert!(apply_transforms(&ts, t).unwrap().is_none(), "limit exhausted");
    }

    #[test]
    fn a_chain_is_spent_once_any_limit_in_it_is() {
        let limit = |n| Transform::Limit(Arc::new(AtomicI64::new(n)));
        let filter = || Transform::filter(Expr::binary(col_at(0), BinOp::Gt, Expr::int(0)));
        let (one, zero) = (Tuple::new(vec![Value::Int(1)]), Tuple::new(vec![Value::Int(0)]));
        assert!(!spent(&[filter()]), "no limit: never spent");
        assert!(spent(&[filter(), limit(0)]), "LIMIT 0 is spent before any row");
        // A row the filter drops never reaches the limit above it.
        let ts = [filter(), limit(1)];
        assert!(apply_transforms(&ts, zero.clone()).unwrap().is_none());
        assert!(!spent(&ts));
        assert!(apply_transforms(&ts, one.clone()).unwrap().is_some());
        assert!(spent(&ts), "the last row passed");
        // A limit below a filter is spent by the rows it passes, kept or not.
        let ts = [limit(1), filter()];
        assert!(apply_transforms(&ts, zero).unwrap().is_none());
        assert!(spent(&ts));
        assert!(apply_transforms(&ts, one).unwrap().is_none());
    }
}
