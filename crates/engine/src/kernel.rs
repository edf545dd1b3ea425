//! One kernel per operator: the join, sort and distinct code both engines
//! call. Staging changes when an operator's code runs, not what it is
//! (paper §4.1): the Volcano executors and the staged tasks wrap these
//! kernels in their own control flow — rows pulled one at a time, or pages
//! pushed through exchange buffers under a quota — and nothing else.

use crate::error::{EngineError, EngineResult};
use crate::expr::{eval, eval_predicate};
use staged_sql::ast::Expr;
use staged_storage::{Tuple, Value};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// An operator that reads every row of its inputs before it emits one:
/// sort, merge join, hash aggregate, partial-aggregate merge, index probe.
/// Volcano pushes rows in as it pulls them, the staged engine as pages
/// arrive; both then drain what [`output`](Self::output) returns.
pub trait Blocking {
    /// Take one row of input `input` (0 = left, 1 = right for a join).
    fn push(&mut self, input: usize, t: Tuple) -> EngineResult<()>;

    /// Every input is complete: the operator's rows.
    fn output(self) -> EngineResult<Vec<Tuple>>;
}

/// `2^63`: the first `f64` above every `i64`.
const I64_END: f64 = 9_223_372_036_854_775_808.0;

/// Encode equi-join keys byte-wise; `None` when any key is NULL (SQL
/// equality never matches NULLs). An `Int` stays exact, so integers above
/// 2^53 stay distinct; a `Float` holding an integer in `i64` range encodes
/// as that `Int`, so `1 = 1.0` still matches.
pub(crate) fn encode_key(exprs: &[Expr], tuple: &Tuple) -> EngineResult<Option<Vec<u8>>> {
    let mut out = Vec::new();
    for e in exprs {
        match eval(e, tuple)? {
            Value::Null => return Ok(None),
            Value::Float(f) if f.fract() == 0.0 && (-I64_END..I64_END).contains(&f) => {
                Value::Int(f as i64).encode(&mut out)
            }
            v => v.encode(&mut out),
        }
    }
    Ok(Some(out))
}

/// One candidate pair of any join: `l ⧺ r` when the residual holds.
pub(crate) fn join_pair(
    l: &Tuple,
    r: &Tuple,
    residual: &Option<Expr>,
) -> EngineResult<Option<Tuple>> {
    let joined = l.concat(r);
    Ok(match residual {
        Some(p) if !eval_predicate(p, &joined)? => None,
        _ => Some(joined),
    })
}

/// The hash join: build rows hashed on their keys, probe rows matched
/// against them.
pub(crate) struct JoinTable {
    build_keys: Vec<Expr>,
    probe_keys: Vec<Expr>,
    residual: Option<Expr>,
    rows: HashMap<Vec<u8>, Vec<Tuple>>,
}

impl JoinTable {
    /// An empty table joining on `keys` (build side, probe side).
    pub(crate) fn new(keys: &[(Expr, Expr)], residual: &Option<Expr>) -> Self {
        let (build_keys, probe_keys) = keys.iter().cloned().unzip();
        Self { build_keys, probe_keys, residual: residual.clone(), rows: HashMap::new() }
    }

    /// Hash one build row; a row with a NULL key can never match.
    pub(crate) fn build(&mut self, t: Tuple) -> EngineResult<()> {
        if let Some(k) = encode_key(&self.build_keys, &t)? {
            self.rows.entry(k).or_default().push(t);
        }
        Ok(())
    }

    /// Append every joined row of probe row `t` to `out`.
    pub(crate) fn probe(&self, t: &Tuple, out: &mut Vec<Tuple>) -> EngineResult<()> {
        let Some(k) = encode_key(&self.probe_keys, t)? else { return Ok(()) };
        for m in self.rows.get(&k).into_iter().flatten() {
            out.extend(join_pair(m, t, &self.residual)?);
        }
        Ok(())
    }
}

/// The sort-merge join over both inputs, gathered whole.
pub(crate) struct MergeJoin {
    keys: (Expr, Expr),
    residual: Option<Expr>,
    rows: [Vec<Tuple>; 2],
}

impl MergeJoin {
    /// A merge join on `keys` (left, right).
    pub(crate) fn new(keys: &(Expr, Expr), residual: &Option<Expr>) -> Self {
        Self { keys: keys.clone(), residual: residual.clone(), rows: Default::default() }
    }
}

impl Blocking for MergeJoin {
    fn push(&mut self, input: usize, t: Tuple) -> EngineResult<()> {
        self.rows[input].push(t);
        Ok(())
    }

    /// Sort both sides on their key and merge them. Rows whose key is NULL
    /// never match.
    fn output(self) -> EngineResult<Vec<Tuple>> {
        let keyed = |rows: Vec<Tuple>, key: &Expr| -> EngineResult<Vec<(Value, Tuple)>> {
            let mut out = Vec::with_capacity(rows.len());
            for t in rows {
                let k = eval(key, &t)?;
                if !k.is_null() {
                    out.push((k, t));
                }
            }
            out.sort_by(|a, b| a.0.total_cmp(&b.0));
            Ok(out)
        };
        let [l, r] = self.rows;
        let (l, r) = (keyed(l, &self.keys.0)?, keyed(r, &self.keys.1)?);
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < l.len() && j < r.len() {
            match l[i].0.sql_cmp(&r[j].0) {
                Some(Ordering::Less) => i += 1,
                Some(Ordering::Greater) => j += 1,
                Some(Ordering::Equal) => {
                    // Emit the cross product of the two equal-key groups.
                    let key = &l[i].0;
                    let same = |v: &Value| v.sql_cmp(key) == Some(Ordering::Equal);
                    let i_end = i + l[i..].iter().take_while(|(k, _)| same(k)).count();
                    let j_end = j + r[j..].iter().take_while(|(k, _)| same(k)).count();
                    for (_, lt) in &l[i..i_end] {
                        for (_, rt) in &r[j..j_end] {
                            out.extend(join_pair(lt, rt, &self.residual)?);
                        }
                    }
                    (i, j) = (i_end, j_end);
                }
                None => return Err(EngineError::Eval("incomparable merge-join keys".into())),
            }
        }
        Ok(out)
    }
}

/// ORDER BY over the whole input: stable, NULLs first on ASC.
pub(crate) struct Sort {
    keys: Vec<(Expr, bool)>,
    rows: Vec<Tuple>,
}

impl Sort {
    /// A sort on `keys` (expression, ascending).
    pub(crate) fn new(keys: &[(Expr, bool)]) -> Self {
        Self { keys: keys.to_vec(), rows: Vec::new() }
    }
}

impl Blocking for Sort {
    fn push(&mut self, _: usize, t: Tuple) -> EngineResult<()> {
        self.rows.push(t);
        Ok(())
    }

    fn output(self) -> EngineResult<Vec<Tuple>> {
        // Each row's key values are computed once, not per comparison.
        let mut keyed = Vec::with_capacity(self.rows.len());
        for t in self.rows {
            let ks =
                self.keys.iter().map(|(e, _)| eval(e, &t)).collect::<EngineResult<Vec<_>>>()?;
            keyed.push((ks, t));
        }
        keyed.sort_by(|a, b| {
            let ords = self.keys.iter().zip(a.0.iter().zip(&b.0));
            ords.map(|((_, asc), (x, y))| if *asc { x.total_cmp(y) } else { y.total_cmp(x) })
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        Ok(keyed.into_iter().map(|(_, t)| t).collect())
    }
}

/// DISTINCT: the rows seen so far, by their encoding.
#[derive(Default)]
pub(crate) struct DistinctSet(HashSet<Vec<u8>>);

impl DistinctSet {
    /// True the first time `t` is seen.
    pub(crate) fn first(&mut self, t: &Tuple) -> bool {
        self.0.insert(t.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_planner::plan::col_at;
    use staged_sql::ast::BinOp;

    fn row(vals: &[Value]) -> Tuple {
        Tuple::new(vals.to_vec())
    }

    /// Hash-join `build` with `probe` on column 0 of each side.
    fn hash_join(build: &[Tuple], probe: &[Tuple], residual: Option<Expr>) -> Vec<Tuple> {
        let mut table = JoinTable::new(&[(col_at(0), col_at(0))], &residual);
        for t in build {
            table.build(t.clone()).unwrap();
        }
        let mut out = Vec::new();
        for t in probe {
            table.probe(t, &mut out).unwrap();
        }
        out
    }

    #[test]
    fn hash_join_never_matches_null_keys() {
        let (n, one) = (Value::Null, Value::Int(1));
        let out = hash_join(
            &[row(&[n.clone(), Value::Str("b".into())]), row(&[one.clone(), Value::Int(10)])],
            &[row(&[n, Value::Int(20)]), row(&[one.clone(), Value::Int(30)])],
            None,
        );
        assert_eq!(out, [row(&[one.clone(), Value::Int(10), one, Value::Int(30)])]);
    }

    #[test]
    fn hash_join_duplicates_on_both_sides_give_the_cross_product() {
        let b = [row(&[Value::Int(7), Value::Int(1)]), row(&[Value::Int(7), Value::Int(2)])];
        let p = [row(&[Value::Int(7), Value::Int(3)]), row(&[Value::Int(7), Value::Int(4)])];
        let mut got: Vec<(i64, i64)> = hash_join(&b, &p, None)
            .iter()
            .map(|t| (t.get(1).as_int().unwrap(), t.get(3).as_int().unwrap()))
            .collect();
        got.sort_unstable();
        assert_eq!(got, [(1, 3), (1, 4), (2, 3), (2, 4)]);
    }

    #[test]
    fn hash_join_applies_the_residual_to_the_concatenated_row() {
        // Residual `#1 < #3`: the build row's column 1 against the probe
        // row's column 1, which sits at 3 only after the concat.
        let residual = Expr::binary(col_at(1), BinOp::Lt, col_at(3));
        let b = [row(&[Value::Int(5), Value::Int(10)]), row(&[Value::Int(5), Value::Int(30)])];
        let p = [row(&[Value::Int(5), Value::Int(20)])];
        let out = hash_join(&b, &p, Some(residual));
        assert_eq!(out, [row(&[Value::Int(5), Value::Int(10), Value::Int(5), Value::Int(20)])]);
    }

    #[test]
    fn hash_join_with_an_empty_build_side_gives_no_rows() {
        assert!(hash_join(&[], &[row(&[Value::Int(1)]), row(&[Value::Null])], None).is_empty());
    }

    #[test]
    fn join_keys_keep_integers_exact_and_match_integral_floats() {
        let key = |v: Value| encode_key(&[col_at(0)], &row(&[v])).unwrap();
        assert_ne!(key(Value::Int(9_007_199_254_740_993)), key(Value::Int(9_007_199_254_740_992)));
        assert_eq!(key(Value::Int(1)), key(Value::Float(1.0)));
        assert_eq!(key(Value::Int(0)), key(Value::Float(-0.0)));
        assert_ne!(key(Value::Int(1)), key(Value::Float(1.5)));
        assert_ne!(key(Value::Int(i64::MAX)), key(Value::Float(I64_END)));
        assert_eq!(key(Value::Int(i64::MIN)), key(Value::Float(-I64_END)));
        assert_eq!(key(Value::Null), None);
    }

    #[test]
    fn merge_join_and_sort_order_and_pair_rows() {
        let mut mj = MergeJoin::new(&(col_at(0), col_at(0)), &None);
        for (side, k) in [(0, 2), (0, 1), (0, 2), (1, 2), (1, 3), (1, 1)] {
            mj.push(side, row(&[Value::Int(k)])).unwrap();
        }
        mj.push(0, row(&[Value::Null])).unwrap();
        let keys: Vec<i64> =
            mj.output().unwrap().iter().map(|t| t.get(0).as_int().unwrap()).collect();
        assert_eq!(keys, [1, 2, 2]);
        let mut sort = Sort::new(&[(col_at(0), false)]);
        for k in [Value::Int(1), Value::Null, Value::Int(3)] {
            sort.push(0, row(&[k])).unwrap();
        }
        let sorted: Vec<Value> = sort.output().unwrap().iter().map(|t| t.get(0).clone()).collect();
        assert_eq!(sorted, [Value::Int(3), Value::Int(1), Value::Null]);
    }
}
