//! Pull-based (Volcano) execution: the monolithic baseline engine.
//!
//! `build` compiles a [`PhysicalPlan`] into a tree of [`Executor`]s; the
//! whole query then runs as one call chain on the calling thread — the
//! work-centric execution model of §3.1 whose cache behaviour the staged
//! design improves on. Correctness-wise both engines are equivalent and the
//! integration tests diff them query-by-query.

use crate::agg::{Accumulator, AggMerger};
use crate::context::ExecContext;
use crate::error::{EngineError, EngineResult};
use crate::expr::{eval, eval_predicate};
use crate::probe::index_probe;
use staged_planner::{AggSpec, PhysicalPlan};
use staged_sql::ast::Expr;
use staged_storage::catalog::{IndexInfo, TableInfo};
use staged_storage::{ReadView, Rid, StorageResult, Tuple, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A pull-based operator.
pub trait Executor {
    /// Produce the next tuple, or `None` when exhausted.
    fn next(&mut self) -> EngineResult<Option<Tuple>>;
}

/// Compile a physical plan into an executor tree.
pub fn build(plan: &PhysicalPlan, ctx: &ExecContext) -> EngineResult<Box<dyn Executor>> {
    Ok(match plan {
        PhysicalPlan::SeqScan { table, predicate, snapshot } => {
            ctx.note_module_entry(4096);
            let mut scan = table.heap.scan();
            if let Some(view) = snapshot {
                scan = scan.with_snapshot(Arc::clone(&table.versions), *view);
            }
            Box::new(SeqScanExec { ctx: ctx.clone(), scan, predicate: predicate.clone() })
        }
        PhysicalPlan::PartitionScan { table, partition, predicate, snapshot } => {
            ctx.note_module_entry(4096);
            let mut scan = table.heap.scan_partition(*partition);
            if let Some(view) = snapshot {
                scan = scan.with_snapshot(Arc::clone(&table.versions), *view);
            }
            Box::new(SeqScanExec { ctx: ctx.clone(), scan, predicate: predicate.clone() })
        }
        PhysicalPlan::Exchange { inputs } => {
            // The Volcano equivalent of the staged engine's parallel merge:
            // a *sequential* union over the same partial plans, so the
            // differential tests compare identical plan shapes.
            let children = inputs.iter().map(|i| build(i, ctx)).collect::<EngineResult<_>>()?;
            Box::new(ExchangeExec { children, cur: 0 })
        }
        PhysicalPlan::MergeAggregate { inputs, group_by_len, aggs } => {
            ctx.note_operator_code(4096);
            let children = inputs.iter().map(|i| build(i, ctx)).collect::<EngineResult<_>>()?;
            Box::new(MergeAggExec {
                inputs: Some(children),
                merger: Some(AggMerger::new(*group_by_len, aggs.clone())),
                results: Vec::new(),
                pos: 0,
            })
        }
        PhysicalPlan::IndexScan { table, index, lo, hi, predicate, snapshot } => {
            ctx.note_module_entry(4096);
            Box::new(IndexScanExec {
                ctx: ctx.clone(),
                table: Arc::clone(table),
                index: Arc::clone(index),
                lo: *lo,
                hi: *hi,
                predicate: predicate.clone(),
                snapshot: *snapshot,
                rows: None,
            })
        }
        PhysicalPlan::Filter { input, predicate } => {
            Box::new(FilterExec { input: build(input, ctx)?, predicate: predicate.clone() })
        }
        PhysicalPlan::Project { input, exprs, .. } => {
            Box::new(ProjectExec { input: build(input, ctx)?, exprs: exprs.clone() })
        }
        PhysicalPlan::NestedLoopJoin { left, right, predicate } => {
            ctx.note_operator_code(8192);
            Box::new(NestedLoopJoinExec {
                ctx: ctx.clone(),
                left: build(left, ctx)?,
                right: build(right, ctx)?,
                predicate: predicate.clone(),
                inner: None,
                outer: None,
                inner_pos: 0,
            })
        }
        PhysicalPlan::HashJoin { left, right, keys, residual } => {
            ctx.note_operator_code(8192);
            Box::new(HashJoinExec {
                ctx: ctx.clone(),
                left: Some(build(left, ctx)?),
                right: build(right, ctx)?,
                keys: keys.clone(),
                residual: residual.clone(),
                table: HashMap::new(),
                pending: Vec::new(),
            })
        }
        PhysicalPlan::MergeJoin { left, right, keys, residual } => {
            ctx.note_operator_code(8192);
            Box::new(MergeJoinExec::new(
                ctx.clone(),
                build(left, ctx)?,
                build(right, ctx)?,
                keys.clone(),
                residual.clone(),
            ))
        }
        PhysicalPlan::Sort { input, keys } => {
            ctx.note_operator_code(4096);
            Box::new(SortExec {
                ctx: ctx.clone(),
                input: Some(build(input, ctx)?),
                keys: keys.clone(),
                sorted: Vec::new(),
                pos: 0,
            })
        }
        PhysicalPlan::HashAggregate { input, group_by, aggs } => {
            ctx.note_operator_code(4096);
            Box::new(HashAggExec {
                ctx: ctx.clone(),
                input: Some(build(input, ctx)?),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                results: Vec::new(),
                pos: 0,
            })
        }
        PhysicalPlan::Distinct { input } => Box::new(DistinctExec {
            input: build(input, ctx)?,
            seen: std::collections::HashSet::new(),
        }),
        PhysicalPlan::Limit { input, n } => {
            Box::new(LimitExec { input: build(input, ctx)?, remaining: *n })
        }
    })
}

/// Run a plan to completion, collecting all output tuples.
pub fn run(plan: &PhysicalPlan, ctx: &ExecContext) -> EngineResult<Vec<Tuple>> {
    let mut exec = build(plan, ctx)?;
    let mut out = Vec::new();
    while let Some(t) = exec.next()? {
        out.push(t);
    }
    Ok(out)
}

struct SeqScanExec<I> {
    ctx: ExecContext,
    scan: I,
    predicate: Option<Expr>,
}

impl<I: Iterator<Item = StorageResult<(Rid, Tuple)>>> Executor for SeqScanExec<I> {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        for item in self.scan.by_ref() {
            let (_, tuple) = item?;
            self.ctx.note_page_ref();
            match &self.predicate {
                Some(p) if !eval_predicate(p, &tuple)? => continue,
                _ => return Ok(Some(tuple)),
            }
        }
        Ok(None)
    }
}

/// Sequential union over partition-partial plans.
struct ExchangeExec {
    children: Vec<Box<dyn Executor>>,
    cur: usize,
}

impl Executor for ExchangeExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        while self.cur < self.children.len() {
            if let Some(t) = self.children[self.cur].next()? {
                return Ok(Some(t));
            }
            self.cur += 1;
        }
        Ok(None)
    }
}

/// Drain every partial-aggregation input, combine the partial states, then
/// emit final rows.
struct MergeAggExec {
    inputs: Option<Vec<Box<dyn Executor>>>,
    merger: Option<AggMerger>,
    results: Vec<Tuple>,
    pos: usize,
}

impl Executor for MergeAggExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        if let Some(mut inputs) = self.inputs.take() {
            let mut merger = self.merger.take().expect("merger set at build");
            for input in inputs.iter_mut() {
                while let Some(t) = input.next()? {
                    merger.absorb(&t)?;
                }
            }
            self.results = merger.finish();
        }
        if self.pos < self.results.len() {
            self.pos += 1;
            Ok(Some(self.results[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }
}

/// Index scan: the whole probe runs on the first `next()` (one overlay
/// pass judges every fetched row together), then rows drain one by one.
struct IndexScanExec {
    ctx: ExecContext,
    table: Arc<TableInfo>,
    index: Arc<IndexInfo>,
    lo: Option<i64>,
    hi: Option<i64>,
    predicate: Option<Expr>,
    snapshot: Option<ReadView>,
    rows: Option<std::vec::IntoIter<(Rid, Tuple)>>,
}

impl Executor for IndexScanExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        if self.rows.is_none() {
            let rows = index_probe(
                &self.ctx,
                &self.table,
                &self.index,
                self.lo,
                self.hi,
                self.predicate.as_ref(),
                self.snapshot,
            )?;
            self.rows = Some(rows.into_iter());
        }
        Ok(self.rows.as_mut().and_then(Iterator::next).map(|(_, tuple)| tuple))
    }
}

struct FilterExec {
    input: Box<dyn Executor>,
    predicate: Expr,
}

impl Executor for FilterExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        while let Some(t) = self.input.next()? {
            if eval_predicate(&self.predicate, &t)? {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }
}

struct ProjectExec {
    input: Box<dyn Executor>,
    exprs: Vec<Expr>,
}

impl Executor for ProjectExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        match self.input.next()? {
            Some(t) => {
                let vals =
                    self.exprs.iter().map(|e| eval(e, &t)).collect::<EngineResult<Vec<_>>>()?;
                Ok(Some(Tuple::new(vals)))
            }
            None => Ok(None),
        }
    }
}

/// Block nested-loop join: the inner input is materialized once.
struct NestedLoopJoinExec {
    ctx: ExecContext,
    left: Box<dyn Executor>,
    right: Box<dyn Executor>,
    predicate: Option<Expr>,
    inner: Option<Vec<Tuple>>,
    outer: Option<Tuple>,
    inner_pos: usize,
}

impl Executor for NestedLoopJoinExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        if self.inner.is_none() {
            let mut inner = Vec::new();
            while let Some(t) = self.right.next()? {
                self.ctx.note_private_bytes(t.encoded_len() as u64);
                inner.push(t);
            }
            self.inner = Some(inner);
        }
        loop {
            if self.outer.is_none() {
                self.outer = self.left.next()?;
                self.inner_pos = 0;
                if self.outer.is_none() {
                    return Ok(None);
                }
            }
            let outer = self.outer.as_ref().expect("outer set above");
            let inner = self.inner.as_ref().expect("inner materialized");
            while self.inner_pos < inner.len() {
                let joined = outer.concat(&inner[self.inner_pos]);
                self.inner_pos += 1;
                match &self.predicate {
                    Some(p) if !eval_predicate(p, &joined)? => continue,
                    _ => return Ok(Some(joined)),
                }
            }
            self.outer = None;
        }
    }
}

/// Encode join/group keys byte-wise; `None` when any key is NULL (SQL
/// equality never matches NULLs).
pub(crate) fn encode_key(exprs: &[&Expr], tuple: &Tuple) -> EngineResult<Option<Vec<u8>>> {
    let mut out = Vec::new();
    for e in exprs {
        let v = eval(e, tuple)?;
        if v.is_null() {
            return Ok(None);
        }
        // Normalize Int/Float so 1 = 1.0 joins match.
        match v {
            Value::Int(i) => Value::Float(i as f64).encode(&mut out),
            other => other.encode(&mut out),
        }
    }
    Ok(Some(out))
}

struct HashJoinExec {
    ctx: ExecContext,
    left: Option<Box<dyn Executor>>,
    right: Box<dyn Executor>,
    keys: Vec<(Expr, Expr)>,
    residual: Option<Expr>,
    table: HashMap<Vec<u8>, Vec<Tuple>>,
    pending: Vec<Tuple>,
}

impl Executor for HashJoinExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        // Build phase.
        if let Some(mut left) = self.left.take() {
            let key_exprs: Vec<&Expr> = self.keys.iter().map(|(l, _)| l).collect();
            while let Some(t) = left.next()? {
                self.ctx.note_private_bytes(t.encoded_len() as u64);
                if let Some(k) = encode_key(&key_exprs, &t)? {
                    self.table.entry(k).or_default().push(t);
                }
            }
        }
        loop {
            if let Some(t) = self.pending.pop() {
                return Ok(Some(t));
            }
            let Some(probe) = self.right.next()? else {
                return Ok(None);
            };
            let key_exprs: Vec<&Expr> = self.keys.iter().map(|(_, r)| r).collect();
            let Some(k) = encode_key(&key_exprs, &probe)? else {
                continue;
            };
            if let Some(matches) = self.table.get(&k) {
                for m in matches {
                    let joined = m.concat(&probe);
                    match &self.residual {
                        Some(p) if !eval_predicate(p, &joined)? => continue,
                        _ => self.pending.push(joined),
                    }
                }
            }
        }
    }
}

struct MergeJoinExec {
    ctx: ExecContext,
    left: Option<Box<dyn Executor>>,
    right: Option<Box<dyn Executor>>,
    keys: (Expr, Expr),
    residual: Option<Expr>,
    output: Vec<Tuple>,
    pos: usize,
    done: bool,
}

impl MergeJoinExec {
    fn new(
        ctx: ExecContext,
        left: Box<dyn Executor>,
        right: Box<dyn Executor>,
        keys: (Expr, Expr),
        residual: Option<Expr>,
    ) -> Self {
        Self {
            ctx,
            left: Some(left),
            right: Some(right),
            keys,
            residual,
            output: Vec::new(),
            pos: 0,
            done: false,
        }
    }

    /// Sort-merge both inputs and materialize the join output.
    fn compute(&mut self) -> EngineResult<()> {
        let gather = |input: Option<Box<dyn Executor>>| -> EngineResult<Vec<Tuple>> {
            let mut rows = Vec::new();
            if let Some(mut input) = input {
                while let Some(t) = input.next()? {
                    self.ctx.note_private_bytes(t.encoded_len() as u64);
                    rows.push(t);
                }
            }
            Ok(rows)
        };
        let lrows = gather(self.left.take())?;
        let rrows = gather(self.right.take())?;
        self.output = merge_join(lrows, rrows, &self.keys, &self.residual)?;
        Ok(())
    }
}

/// Sort-merge two materialized inputs on `keys`: the join kernel of both
/// engines. Rows whose key is NULL never match.
pub(crate) fn merge_join(
    lrows: Vec<Tuple>,
    rrows: Vec<Tuple>,
    keys: &(Expr, Expr),
    residual: &Option<Expr>,
) -> EngineResult<Vec<Tuple>> {
    let mut l: Vec<(Value, Tuple)> = Vec::with_capacity(lrows.len());
    for t in lrows {
        let k = eval(&keys.0, &t)?;
        if !k.is_null() {
            l.push((k, t));
        }
    }
    let mut r: Vec<(Value, Tuple)> = Vec::with_capacity(rrows.len());
    for t in rrows {
        let k = eval(&keys.1, &t)?;
        if !k.is_null() {
            r.push((k, t));
        }
    }
    l.sort_by(|a, b| a.0.total_cmp(&b.0));
    r.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < l.len() && j < r.len() {
        match l[i].0.sql_cmp(&r[j].0) {
            Some(std::cmp::Ordering::Less) => i += 1,
            Some(std::cmp::Ordering::Greater) => j += 1,
            Some(std::cmp::Ordering::Equal) => {
                // Emit the cross product of the two equal-key groups.
                let key = l[i].0.clone();
                let i0 = i;
                while i < l.len() && l[i].0.sql_cmp(&key) == Some(std::cmp::Ordering::Equal) {
                    i += 1;
                }
                let j0 = j;
                while j < r.len() && r[j].0.sql_cmp(&key) == Some(std::cmp::Ordering::Equal) {
                    j += 1;
                }
                for (_, lt) in &l[i0..i] {
                    for (_, rt) in &r[j0..j] {
                        let joined = lt.concat(rt);
                        match residual {
                            Some(p) if !eval_predicate(p, &joined)? => continue,
                            _ => out.push(joined),
                        }
                    }
                }
            }
            None => return Err(EngineError::Eval("incomparable merge-join keys".into())),
        }
    }
    Ok(out)
}

impl Executor for MergeJoinExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        if !self.done {
            self.compute()?;
            self.done = true;
        }
        if self.pos < self.output.len() {
            self.pos += 1;
            Ok(Some(self.output[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }
}

struct SortExec {
    ctx: ExecContext,
    input: Option<Box<dyn Executor>>,
    keys: Vec<(Expr, bool)>,
    sorted: Vec<Tuple>,
    pos: usize,
}

/// Sort tuples by key expressions (stable; NULLs first on ASC).
pub fn sort_tuples(rows: &mut [Tuple], keys: &[(Expr, bool)]) -> EngineResult<()> {
    // Precompute key values to avoid re-evaluating during comparisons.
    let mut keyed: Vec<(Vec<Value>, Tuple)> = Vec::with_capacity(rows.len());
    for t in rows.iter() {
        let ks = keys.iter().map(|(e, _)| eval(e, t)).collect::<EngineResult<Vec<_>>>()?;
        keyed.push((ks, t.clone()));
    }
    keyed.sort_by(|a, b| {
        for (idx, (_, asc)) in keys.iter().enumerate() {
            let ord = a.0[idx].total_cmp(&b.0[idx]);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    for (slot, (_, t)) in rows.iter_mut().zip(keyed) {
        *slot = t;
    }
    Ok(())
}

impl Executor for SortExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        if let Some(mut input) = self.input.take() {
            while let Some(t) = input.next()? {
                self.ctx.note_private_bytes(t.encoded_len() as u64);
                self.sorted.push(t);
            }
            sort_tuples(&mut self.sorted, &self.keys)?;
        }
        if self.pos < self.sorted.len() {
            self.pos += 1;
            Ok(Some(self.sorted[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }
}

struct HashAggExec {
    ctx: ExecContext,
    input: Option<Box<dyn Executor>>,
    group_by: Vec<Expr>,
    aggs: Vec<AggSpec>,
    results: Vec<Tuple>,
    pos: usize,
}

impl HashAggExec {
    fn compute(&mut self, mut input: Box<dyn Executor>) -> EngineResult<()> {
        // Group key (raw values for output) → accumulators. Insertion order
        // is preserved for deterministic output before any Sort above.
        let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
        let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut saw_row = false;
        while let Some(t) = input.next()? {
            saw_row = true;
            self.ctx.note_private_bytes(t.encoded_len() as u64);
            let mut key_bytes = Vec::new();
            let mut key_vals = Vec::with_capacity(self.group_by.len());
            for g in &self.group_by {
                let v = eval(g, &t)?;
                v.encode(&mut key_bytes);
                key_vals.push(v);
            }
            let slot = match index.get(&key_bytes) {
                Some(&s) => s,
                None => {
                    let accs = self.aggs.iter().map(Accumulator::new).collect();
                    groups.push((key_vals, accs));
                    index.insert(key_bytes, groups.len() - 1);
                    groups.len() - 1
                }
            };
            for (acc, spec) in groups[slot].1.iter_mut().zip(&self.aggs) {
                match &spec.arg {
                    Some(a) => acc.update(&eval(a, &t)?)?,
                    None => acc.update_star(),
                }
            }
        }
        // Global aggregation over zero rows still yields one row.
        if !saw_row && self.group_by.is_empty() {
            let accs: Vec<Accumulator> = self.aggs.iter().map(Accumulator::new).collect();
            groups.push((Vec::new(), accs));
        }
        for (key_vals, accs) in groups {
            let mut vals = key_vals;
            vals.extend(accs.iter().map(Accumulator::finish));
            self.results.push(Tuple::new(vals));
        }
        Ok(())
    }
}

impl Executor for HashAggExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        if let Some(input) = self.input.take() {
            self.compute(input)?;
        }
        if self.pos < self.results.len() {
            self.pos += 1;
            Ok(Some(self.results[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }
}

struct DistinctExec {
    input: Box<dyn Executor>,
    seen: std::collections::HashSet<Vec<u8>>,
}

impl Executor for DistinctExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        while let Some(t) = self.input.next()? {
            if self.seen.insert(t.encode()) {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }
}

struct LimitExec {
    input: Box<dyn Executor>,
    remaining: u64,
}

impl Executor for LimitExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next()? {
            Some(t) => {
                self.remaining -= 1;
                Ok(Some(t))
            }
            None => Ok(None),
        }
    }
}
