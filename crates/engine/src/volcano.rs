//! Pull-based (Volcano) execution: the monolithic baseline engine.
//!
//! `build` compiles a [`PhysicalPlan`] into a tree of [`Executor`]s; the
//! whole query then runs as one call chain on the calling thread — the
//! work-centric execution model of §3.1 whose cache behaviour the staged
//! design improves on. The executors own only the pull control flow: every
//! operator's algorithm is the kernel the staged engine runs too
//! ([`crate::kernel`], [`crate::transform`], [`crate::agg`],
//! [`crate::probe`]).

use crate::agg::{AggMerger, GroupTable};
use crate::context::ExecContext;
use crate::error::EngineResult;
use crate::expr::eval_predicate;
use crate::kernel::{join_pair, Blocking, DistinctSet, JoinTable, MergeJoin, Sort};
use crate::probe::Probe;
use crate::transform::{apply_transforms, fuse, spent, Transform};
use staged_planner::PhysicalPlan;
use staged_sql::ast::Expr;
use staged_storage::{Rid, StorageResult, Tuple};
use std::sync::Arc;

/// A pull-based operator.
pub trait Executor {
    /// Produce the next tuple, or `None` when exhausted.
    fn next(&mut self) -> EngineResult<Option<Tuple>>;
}

/// Compile a physical plan into an executor tree.
pub fn build(plan: &PhysicalPlan, ctx: &ExecContext) -> EngineResult<Box<dyn Executor>> {
    let all = |inputs: &[PhysicalPlan]| -> EngineResult<Vec<_>> {
        inputs.iter().map(|i| build(i, ctx)).collect()
    };
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
            Box::new(ExchangeExec { children: all(inputs)?, cur: 0 })
        }
        PhysicalPlan::MergeAggregate { inputs, group_by_len, aggs } => {
            ctx.note_operator_code(4096);
            drain(ctx, false, all(inputs)?, AggMerger::new(*group_by_len, aggs.clone()))
        }
        PhysicalPlan::IndexScan { .. } => {
            ctx.note_module_entry(4096);
            drain(ctx, false, Vec::new(), Probe::new(ctx, plan))
        }
        PhysicalPlan::Filter { .. } | PhysicalPlan::Project { .. } | PhysicalPlan::Limit { .. } => {
            let (input, transforms) = fuse(plan, Vec::new());
            Box::new(TransformExec { input: build(input, ctx)?, transforms })
        }
        PhysicalPlan::NestedLoopJoin { left, right, predicate } => {
            ctx.note_operator_code(8192);
            Box::new(NestedLoopJoinExec {
                ctx: ctx.clone(),
                left: build(left, ctx)?,
                right: Some(build(right, ctx)?),
                predicate: predicate.clone(),
                inner: Vec::new(),
                outer: None,
                inner_pos: 0,
            })
        }
        PhysicalPlan::HashJoin { left, right, keys, residual } => {
            ctx.note_operator_code(8192);
            Box::new(HashJoinExec {
                ctx: ctx.clone(),
                build: Some(build(left, ctx)?),
                probe: build(right, ctx)?,
                table: JoinTable::new(keys, residual),
                pending: Vec::new(),
            })
        }
        PhysicalPlan::MergeJoin { left, right, keys, residual } => {
            ctx.note_operator_code(8192);
            let inputs = vec![build(left, ctx)?, build(right, ctx)?];
            drain(ctx, true, inputs, MergeJoin::new(keys, residual))
        }
        PhysicalPlan::Sort { input, keys } => {
            ctx.note_operator_code(4096);
            drain(ctx, true, vec![build(input, ctx)?], Sort::new(keys))
        }
        PhysicalPlan::HashAggregate { input, group_by, aggs } => {
            ctx.note_operator_code(4096);
            drain(ctx, true, vec![build(input, ctx)?], GroupTable::new(group_by, aggs))
        }
        PhysicalPlan::Distinct { input } => {
            Box::new(DistinctExec { input: build(input, ctx)?, seen: DistinctSet::default() })
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

/// A [`Blocking`] operator: the first `next()` pulls every row of every
/// input into the kernel, in input order; later calls hand out its rows.
struct DrainExec<K> {
    ctx: ExecContext,
    /// Book each input row as private data (the operator holds it).
    note_rows: bool,
    inputs: Vec<Box<dyn Executor>>,
    op: Option<K>,
    rows: std::vec::IntoIter<Tuple>,
}

fn drain<K: Blocking + 'static>(
    ctx: &ExecContext,
    note_rows: bool,
    inputs: Vec<Box<dyn Executor>>,
    op: K,
) -> Box<dyn Executor> {
    let rows = Vec::new().into_iter();
    Box::new(DrainExec { ctx: ctx.clone(), note_rows, inputs, op: Some(op), rows })
}

impl<K: Blocking> Executor for DrainExec<K> {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        if let Some(mut op) = self.op.take() {
            for (i, input) in self.inputs.iter_mut().enumerate() {
                while let Some(t) = input.next()? {
                    if self.note_rows {
                        self.ctx.note_private_bytes(t.encoded_len() as u64);
                    }
                    op.push(i, t)?;
                }
            }
            self.rows = op.output()?.into_iter();
        }
        Ok(self.rows.next())
    }
}

/// The fused filters, projections and limits above one input: the chain a
/// staged task runs on its rows. Pulls nothing more once a limit is spent.
struct TransformExec {
    input: Box<dyn Executor>,
    transforms: Vec<Transform>,
}

impl Executor for TransformExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        while !spent(&self.transforms) {
            let Some(t) = self.input.next()? else { break };
            if let Some(t) = apply_transforms(&self.transforms, t)? {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }
}

/// Block nested-loop join: the inner input is materialized once.
struct NestedLoopJoinExec {
    ctx: ExecContext,
    left: Box<dyn Executor>,
    /// The inner input, until it is materialized into `inner`.
    right: Option<Box<dyn Executor>>,
    predicate: Option<Expr>,
    inner: Vec<Tuple>,
    outer: Option<Tuple>,
    inner_pos: usize,
}

impl Executor for NestedLoopJoinExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        if let Some(mut right) = self.right.take() {
            while let Some(t) = right.next()? {
                self.ctx.note_private_bytes(t.encoded_len() as u64);
                self.inner.push(t);
            }
        }
        loop {
            let Some(outer) = &self.outer else {
                self.outer = self.left.next()?;
                self.inner_pos = 0;
                if self.outer.is_none() {
                    return Ok(None);
                }
                continue;
            };
            while self.inner_pos < self.inner.len() {
                self.inner_pos += 1;
                let pair = join_pair(outer, &self.inner[self.inner_pos - 1], &self.predicate)?;
                if pair.is_some() {
                    return Ok(pair);
                }
            }
            self.outer = None;
        }
    }
}

/// Hash join: the build (left) input is hashed on the first `next()`, then
/// probe rows stream through.
struct HashJoinExec {
    ctx: ExecContext,
    build: Option<Box<dyn Executor>>,
    probe: Box<dyn Executor>,
    table: JoinTable,
    pending: Vec<Tuple>,
}

impl Executor for HashJoinExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        if let Some(mut build) = self.build.take() {
            while let Some(t) = build.next()? {
                self.ctx.note_private_bytes(t.encoded_len() as u64);
                self.table.build(t)?;
            }
        }
        loop {
            if let Some(t) = self.pending.pop() {
                return Ok(Some(t));
            }
            let Some(t) = self.probe.next()? else { return Ok(None) };
            self.table.probe(&t, &mut self.pending)?;
        }
    }
}

struct DistinctExec {
    input: Box<dyn Executor>,
    seen: DistinctSet,
}

impl Executor for DistinctExec {
    fn next(&mut self) -> EngineResult<Option<Tuple>> {
        while let Some(t) = self.input.next()? {
            if self.seen.first(&t) {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }
}
