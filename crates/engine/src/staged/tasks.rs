//! Operator tasks for the staged engine and the plan → task compiler. A task
//! owns only its packet's control flow — exchange pages in and out, and the
//! quota of one visit; the operator's algorithm is the kernel Volcano runs
//! too ([`crate::kernel`], [`crate::transform`], [`crate::agg`],
//! [`crate::probe`]).

use super::{
    prune_scan_columns, shut_down, submit, ExchangeBuffer, OperatorTask, QueryCtl, QueryResult,
    StageKind, StagedEngine, StepResult, TaskPacket, WakeCell, BUFFER_DEPTH,
};
use crate::agg::{AggMerger, GroupTable};
use crate::context::ExecContext;
use crate::error::EngineResult;
use crate::kernel::{join_pair, Blocking, DistinctSet, JoinTable, MergeJoin, Sort};
use crate::probe::Probe;
use crate::transform::{apply_transforms, fuse, spent, Pred, Transform};
use staged_planner::PhysicalPlan;
use staged_sql::ast::Expr;
use staged_storage::partition::PartitionedPageScan;
use staged_storage::{Rid, Tuple};
use std::sync::Arc;

/// Batch-building output side of a task: stages tuples and flushes pages
/// into the exchange buffer, whose pushes wake the consumer. Pages hold the
/// engine's fixed page size ([`StagedEngine::page_size`]). All accounting
/// — the staged backlog, [`Emitter::ready`] — is denominated in *tuples*,
/// never pages, so back-pressure thresholds mean the same thing at page
/// size 1 and page size 4096.
pub struct Emitter {
    out: Arc<ExchangeBuffer>,
    page: usize,
    staging: Vec<Tuple>,
    closed: bool,
}

impl Emitter {
    /// Create an emitter sealing pages of `page` tuples (at least 1).
    pub fn new(out: Arc<ExchangeBuffer>, page: usize) -> Self {
        Self { out, page: page.max(1), staging: Vec::new(), closed: false }
    }

    /// The tuples-per-page bound (knob (c)).
    pub fn page_cap(&self) -> usize {
        self.page
    }

    /// Queue a tuple and flush full pages opportunistically.
    pub fn emit(&mut self, t: Tuple) {
        self.staging.push(t);
        if self.staging.len() >= self.page_cap() {
            self.pump();
        }
    }

    /// Queue a whole run of tuples, then flush full pages. This is the
    /// batch fast path: one length check and at most a few buffer locks
    /// for the entire run, instead of per-tuple bookkeeping.
    pub fn emit_all<I: IntoIterator<Item = Tuple>>(&mut self, tuples: I) {
        self.staging.extend(tuples);
        if self.staging.len() >= self.page_cap() {
            self.pump();
        }
    }

    /// Producer-side readiness: stop producing once the backlog exceeds one
    /// page worth of tuples and the consumer is not draining.
    pub fn ready(&self) -> bool {
        self.staging.len() < self.page_cap() || self.out.has_space()
    }

    /// Push the first page of the staged tuples. With `last` that may be
    /// a partial page, or none, and when it is all that is staged it
    /// closes the stream: one wake of the consumer for both. `false` while
    /// the buffer is full.
    fn flush_one(&mut self, last: bool) -> bool {
        let n = self.staging.len().min(self.page);
        let last = last && n == self.staging.len();
        match self.out.try_push(self.staging.drain(..n).collect(), last) {
            Ok(()) => {
                self.closed |= last;
                true
            }
            Err(page) => {
                self.staging.splice(0..0, page);
                false
            }
        }
    }

    /// Flush as many full pages as the buffer accepts.
    pub fn pump(&mut self) {
        while self.staging.len() >= self.page && self.flush_one(false) {}
    }

    /// Flush everything and close the stream: `Done`, or `Blocked` while
    /// the buffer is still full (retry next quantum).
    pub fn finish(&mut self) -> StepResult {
        while !self.closed {
            if !self.flush_one(true) {
                return StepResult::Blocked;
            }
        }
        StepResult::Done
    }
}

/// Answer a *lone probe* — an `IndexScan` under nothing but fused
/// `Filter`/`Project`/`Limit` transforms — to completion on the calling
/// thread, or `None` for any other plan. The probe finishes before a
/// hand-off would: it could never join a cohort, and the `iscan` → `send`
/// hand-offs would buy nothing (DESIGN.md §3, §11). It runs the same
/// [`Probe`] and transform chain the queued `iscan` task runs and is
/// booked on the `iscan` stage as a followed visit of one.
pub(super) fn lone_probe(engine: &StagedEngine, plan: &PhysicalPlan) -> Option<QueryResult> {
    let (plan, transforms) = fuse(plan, Vec::new());
    let PhysicalPlan::IndexScan { .. } = plan else { return None };
    let probe = Probe::new(engine.ctx(), plan);
    let rows = || -> QueryResult {
        let mut out = Vec::new();
        for t in probe.run()? {
            out.extend(apply_transforms(&transforms, t)?);
        }
        Ok(out)
    };
    let served = engine.runtime().serve_inline(engine.stage_id(StageKind::IScan), rows);
    Some(served.unwrap_or_else(|| Err(shut_down())))
}

/// Compile `plan` into tasks for the query behind `ctl` and launch them:
/// the leaves are enqueued (bottom-up activation), everything above them
/// starts out parked.
pub(super) fn compile_and_launch(
    engine: &Arc<StagedEngine>,
    plan: &PhysicalPlan,
    ctl: Arc<QueryCtl>,
) {
    let send = WakeCell::new(engine.runtime(), &ctl);
    let root = build(engine, plan, &send, Vec::new(), &ctl);
    let task = Box::new(SendTask { inputs: vec![root], ctl: Arc::clone(&ctl) });
    send.park(engine.stage_id(StageKind::Send), TaskPacket { ctl, task, cell: Arc::clone(&send) });
}

/// Compile `plan` into the tasks that fill one buffer for `consumer`'s
/// task, and return that buffer. The plan's top task gets a cell of its
/// own. A scan or a queued probe is enqueued at once; an operator with
/// inputs starts out parked in its cell until an input page or close
/// wakes it (bottom-up activation).
fn build(
    engine: &Arc<StagedEngine>,
    plan: &PhysicalPlan,
    consumer: &Arc<WakeCell>,
    transforms: Vec<Transform>,
    ctl: &Arc<QueryCtl>,
) -> Arc<ExchangeBuffer> {
    let (plan, transforms) = fuse(plan, transforms);
    let cell = WakeCell::new(engine.runtime(), ctl);
    let out = ExchangeBuffer::new(BUFFER_DEPTH, Arc::clone(&cell), Arc::clone(consumer));
    let emitter = Emitter::new(Arc::clone(&out), engine.page_size());
    // Every input gets a buffer of its own, all feeding this task's cell.
    let inputs = |plans: Vec<&PhysicalPlan>| -> Vec<Arc<ExchangeBuffer>> {
        plans.into_iter().map(|p| build(engine, p, &cell, Vec::new(), ctl)).collect()
    };
    let (kind, task): (_, Box<dyn OperatorTask>) = match plan {
        PhysicalPlan::Filter { .. } | PhysicalPlan::Project { .. } | PhysicalPlan::Limit { .. } => {
            unreachable!("fused into the producing task")
        }
        PhysicalPlan::SeqScan { .. } | PhysicalPlan::PartitionScan { .. } => {
            (StageKind::FScan, scan_task(engine, plan, None, transforms, emitter))
        }
        PhysicalPlan::Exchange { inputs: plans } => {
            // N independent partial pipelines converge at one union task on
            // the merge stage; the first page from any child activates it.
            let inputs = inputs(plans.iter().collect());
            (
                StageKind::Merge,
                Box::new(ForwardTask { inputs, distinct: None, transforms, emitter }),
            )
        }
        PhysicalPlan::MergeAggregate { inputs: plans, group_by_len, aggs } => {
            // Partial-aggregate pipelines (over a partition scan, each one
            // fscan packet folding its rows) converge at the combining task
            // on the merge stage.
            let merger = AggMerger::new(*group_by_len, aggs.clone());
            (
                StageKind::Merge,
                blocking(merger, inputs(plans.iter().collect()), transforms, emitter),
            )
        }
        PhysicalPlan::IndexScan { .. } => {
            let probe = Probe::new(engine.ctx(), plan);
            (StageKind::IScan, blocking(probe, Vec::new(), transforms, emitter))
        }
        PhysicalPlan::Sort { input, keys } => {
            (StageKind::Sort, blocking(Sort::new(keys), inputs(vec![input]), transforms, emitter))
        }
        PhysicalPlan::HashAggregate { input, group_by, aggs }
            if matches!(
                &**input,
                PhysicalPlan::SeqScan { .. } | PhysicalPlan::PartitionScan { .. }
            ) =>
        {
            // An aggregate directly on a scan gets no packet of its own: the
            // scan folds its rows into the groups where it decodes them.
            let groups = Some(GroupTable::new(group_by, aggs));
            (StageKind::FScan, scan_task(engine, input, groups, transforms, emitter))
        }
        PhysicalPlan::HashAggregate { input, group_by, aggs } => {
            let groups = GroupTable::new(group_by, aggs);
            (StageKind::Aggr, blocking(groups, inputs(vec![input]), transforms, emitter))
        }
        PhysicalPlan::Distinct { input } => {
            let inputs = inputs(vec![input]);
            let distinct = Some(DistinctSet::default());
            (StageKind::Aggr, Box::new(ForwardTask { inputs, distinct, transforms, emitter }))
        }
        PhysicalPlan::HashJoin { left, right, keys, residual } => {
            let inputs = inputs(vec![left, right]);
            let table = JoinTable::new(keys, residual);
            let task = HashJoinTask { inputs, building: true, table, transforms, emitter };
            (StageKind::Join, Box::new(task))
        }
        PhysicalPlan::MergeJoin { left, right, keys, residual } => {
            let join = MergeJoin::new(keys, residual);
            (StageKind::Join, blocking(join, inputs(vec![left, right]), transforms, emitter))
        }
        PhysicalPlan::NestedLoopJoin { left, right, predicate } => {
            let task = NestedLoopTask {
                inputs: inputs(vec![left, right]),
                predicate: predicate.clone(),
                rows: Default::default(),
                i: 0,
                j: 0,
                transforms,
                emitter,
            };
            (StageKind::Join, Box::new(task))
        }
    };
    let stage = engine.stage_id(kind);
    let packet = TaskPacket { ctl: Arc::clone(ctl), task, cell: Arc::clone(&cell) };
    match kind {
        StageKind::FScan | StageKind::IScan => submit(engine.runtime(), stage, packet),
        _ => cell.park(stage, packet),
    }
    out
}

/// Compile a `SeqScan` or `PartitionScan` into one `fscan` task. Without
/// `groups` the scan's predicate and `transforms` run on each row and the
/// survivors flow on through `emitter`. With `groups` the node is the
/// input of a `HashAggregate`: the predicate is tested on each row,
/// survivors are folded into `groups`, and only the finished groups —
/// through `transforms`, the operators fused above the aggregate — flow
/// on. Either way the scan decodes only the columns that are read
/// (`prune_scan_columns`, [`prune_fold_columns`]).
fn scan_task(
    engine: &Arc<StagedEngine>,
    plan: &PhysicalPlan,
    groups: Option<GroupTable>,
    transforms: Vec<Transform>,
    emitter: Emitter,
) -> Box<dyn OperatorTask> {
    let (table, partition, predicate, snapshot) = match plan {
        PhysicalPlan::SeqScan { table, predicate, snapshot } => (table, None, predicate, snapshot),
        PhysicalPlan::PartitionScan { table, partition, predicate, snapshot } => {
            (table, Some(*partition), predicate, snapshot)
        }
        _ => unreachable!("scan_task takes a scan node"),
    };
    let arity = table.schema.len();
    let mut filter = predicate.clone().map(Pred::compile);
    let (cols, transforms, fold) = match groups {
        None => {
            let mut ts: Vec<Transform> =
                filter.map(Transform::Filter).into_iter().chain(transforms).collect();
            (prune_scan_columns(&mut ts, arity), ts, None)
        }
        Some(mut groups) => {
            let cols = prune_fold_columns(filter.as_mut(), &mut groups, arity);
            (cols, transforms, Some(Fold { filter, groups }))
        }
    };
    let mut scan = match partition {
        Some(p) => table.heap.scan_partition_pages(p),
        None => table.heap.scan_pages(),
    };
    if let Some(cols) = cols {
        scan = scan.with_columns(cols);
    }
    if let Some(view) = snapshot {
        scan = scan.with_snapshot(Arc::clone(&table.versions), *view);
    }
    Box::new(ScanTask {
        ctx: engine.ctx().clone(),
        scan,
        page: Vec::new(),
        transforms,
        fold,
        emitter,
    })
}

/// Column pruning for a scan that folds its rows into `groups`: when the
/// filter (if any) provably reads one column and every group key and
/// aggregate argument is a plain column, the scan decodes only the union
/// of those columns, and the filter and the table are rewritten in place
/// to address that pruned layout directly — no projection in between. A
/// `COUNT(*)` with no grouping and no filter decodes nothing at all.
///
/// Returns the sorted column set, or `None` (nothing rewritten) when a
/// computed expression needs the full row or every column is read anyway.
fn prune_fold_columns(
    filter: Option<&mut Pred>,
    groups: &mut GroupTable,
    arity: usize,
) -> Option<Vec<usize>> {
    let mut needed = groups.plain_cols()?;
    if let Some(p) = &filter {
        needed.push(p.fast_col()?);
        needed.sort_unstable();
        needed.dedup();
    }
    if needed.len() >= arity {
        return None;
    }
    let pos = |c: usize| needed.binary_search(&c).expect("every read column is in `needed`");
    if let Some(p) = filter {
        p.remap_columns(&pos);
    }
    groups.remap_columns(&pos);
    Some(needed)
}

/// The intake loop of every task with inputs: round-robin over `inputs`,
/// handing each page that is ready to `take` with its input's index.
/// `None` once every input is closed and drained; otherwise the step's
/// result: `Working` when `quota` tuples have moved, `Blocked` when `take`
/// answers `false` (its output is full) or every input is empty.
fn pull(
    inputs: &[Arc<ExchangeBuffer>],
    quota: usize,
    mut take: impl FnMut(usize, Vec<Tuple>) -> EngineResult<bool>,
) -> EngineResult<Option<StepResult>> {
    let mut moved = 0usize;
    loop {
        let mut any = false;
        for (i, input) in inputs.iter().enumerate() {
            while let Some(page) = input.try_pop() {
                moved += page.len().max(1);
                any = true;
                if !take(i, page)? {
                    return Ok(Some(StepResult::Blocked));
                }
                if moved >= quota {
                    return Ok(Some(StepResult::Working));
                }
            }
        }
        if !any {
            let finished = inputs.iter().all(|b| b.is_finished());
            return Ok((!finished).then_some(StepResult::Blocked));
        }
    }
}

/// Emit a whole run of tuples through the transform chain: the batch inner
/// loop every producing task shares. With no transforms the run lands in
/// the staging page as one `extend`; with transforms each survivor is
/// appended and pages are sealed at the end of the run.
fn emit_batch_transformed<I: IntoIterator<Item = Tuple>>(
    emitter: &mut Emitter,
    transforms: &[Transform],
    tuples: I,
) -> EngineResult<()> {
    if transforms.is_empty() {
        emitter.emit_all(tuples);
        return Ok(());
    }
    for t in tuples {
        if let Some(t) = apply_transforms(transforms, t)? {
            emitter.emit(t);
        }
    }
    emitter.pump();
    Ok(())
}

// ---------------------------------------------------------------- scans --

/// Sequential scan task over one partition or all of them. Each step
/// refills one storage page in place ([`PartitionedPageScan::next_into`]):
/// the storage page is the unit of production, the exchange page the unit
/// of shipment. Rows either flow on through the transform chain, or — when
/// the task [`Fold`]s them into an aggregate — stay in the page buffer,
/// whose tuples the next refill overwrites, and only the finished groups
/// flow on.
pub(super) struct ScanTask {
    ctx: ExecContext,
    scan: PartitionedPageScan,
    page: Vec<(Rid, Tuple)>,
    /// Applied to each row, or with a fold to each finished group.
    transforms: Vec<Transform>,
    fold: Option<Fold>,
    emitter: Emitter,
}

/// The aggregate a scan folds its rows into: the scan's predicate and the
/// table of groups the rows it passes are absorbed into.
struct Fold {
    filter: Option<Pred>,
    groups: GroupTable,
}

impl OperatorTask for ScanTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        let mut produced = 0usize;
        while produced < quota {
            if !self.emitter.ready() {
                return Ok(StepResult::Blocked);
            }
            // A spent LIMIT ends the scan, unless it sits above a fold,
            // where it counts groups, not rows.
            let done = self.fold.is_none() && spent(&self.transforms);
            if done || !self.scan.next_into(&mut self.page)? {
                if let Some(fold) = self.fold.take() {
                    emit_batch_transformed(
                        &mut self.emitter,
                        &self.transforms,
                        fold.groups.finish(),
                    )?;
                }
                return Ok(self.emitter.finish());
            }
            self.ctx.note_page_ref();
            produced += self.page.len();
            match &mut self.fold {
                Some(fold) => {
                    for (_, t) in &self.page {
                        if fold.filter.as_ref().map_or(Ok(true), |p| p.test(t))? {
                            fold.groups.absorb(t)?;
                        }
                    }
                }
                None => emit_batch_transformed(
                    &mut self.emitter,
                    &self.transforms,
                    self.page.drain(..).map(|(_, t)| t),
                )?,
            }
        }
        Ok(StepResult::Working)
    }
}

// ------------------------------------------------------------- blocking --

/// A [`Blocking`] operator's task — sort, merge join, hash aggregate over a
/// non-scan input, partial-aggregate merge, queued index probe: absorbs
/// every page of its inputs as it arrives, then drains the operator's rows
/// one exchange page per readiness check.
struct BlockingTask<K> {
    inputs: Vec<Arc<ExchangeBuffer>>,
    op: Option<K>,
    rows: std::vec::IntoIter<Tuple>,
    transforms: Vec<Transform>,
    emitter: Emitter,
}

/// A [`BlockingTask`] running `op` over `inputs`.
fn blocking<K: Blocking + Send + 'static>(
    op: K,
    inputs: Vec<Arc<ExchangeBuffer>>,
    transforms: Vec<Transform>,
    emitter: Emitter,
) -> Box<dyn OperatorTask> {
    let rows = Vec::new().into_iter();
    Box::new(BlockingTask { inputs, op: Some(op), rows, transforms, emitter })
}

impl<K: Blocking + Send> OperatorTask for BlockingTask<K> {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        if let Some(op) = &mut self.op {
            let absorb = |i, page: Vec<Tuple>| {
                page.into_iter().try_for_each(|t| op.push(i, t)).map(|()| true)
            };
            if let Some(r) = pull(&self.inputs, quota, absorb)? {
                return Ok(r);
            }
            self.rows = self.op.take().expect("absorbing until here").output()?.into_iter();
        }
        let mut produced = 0usize;
        while produced < quota {
            if self.rows.as_slice().is_empty() {
                return Ok(self.emitter.finish());
            }
            if !self.emitter.ready() {
                return Ok(StepResult::Blocked);
            }
            let n = self.rows.len().min(quota - produced).min(self.emitter.page_cap());
            emit_batch_transformed(
                &mut self.emitter,
                &self.transforms,
                self.rows.by_ref().take(n),
            )?;
            produced += n;
        }
        Ok(StepResult::Working)
    }
}

// ------------------------------------------------------------ streaming --

/// Forwards every page of its inputs through the transform chain as it
/// arrives, so fast inputs never wait for slow ones: the staged `Exchange`
/// (a bag union of N partial pipelines) and, with a seen-set, `DISTINCT`.
struct ForwardTask {
    inputs: Vec<Arc<ExchangeBuffer>>,
    distinct: Option<DistinctSet>,
    transforms: Vec<Transform>,
    emitter: Emitter,
}

impl OperatorTask for ForwardTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        if !self.emitter.ready() {
            return Ok(StepResult::Blocked);
        }
        let r = pull(&self.inputs, quota, |_, page| {
            let seen = &mut self.distinct;
            let new = page.into_iter().filter(|t| seen.as_mut().is_none_or(|s| s.first(t)));
            emit_batch_transformed(&mut self.emitter, &self.transforms, new)?;
            Ok(self.emitter.ready())
        })?;
        Ok(r.unwrap_or_else(|| self.emitter.finish()))
    }
}

/// Hash join: hashes the whole build (left) input, then streams the probe
/// input through the table.
struct HashJoinTask {
    inputs: Vec<Arc<ExchangeBuffer>>,
    building: bool,
    table: JoinTable,
    transforms: Vec<Transform>,
    emitter: Emitter,
}

impl OperatorTask for HashJoinTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        if self.building {
            let hash = |_, page: Vec<Tuple>| {
                page.into_iter().try_for_each(|t| self.table.build(t)).map(|()| true)
            };
            if let Some(r) = pull(&self.inputs[..1], quota, hash)? {
                return Ok(r);
            }
            self.building = false;
        }
        // Probe phase: one probe page per readiness check; every match the
        // page produces goes straight out through the transform chain (the
        // page is the granularity of back-pressure, so the staging run may
        // overshoot by one page's join fan-out before the task yields).
        if !self.emitter.ready() {
            return Ok(StepResult::Blocked);
        }
        let r = pull(&self.inputs[1..], quota, |_, page| {
            let mut joined = Vec::new();
            for t in &page {
                self.table.probe(t, &mut joined)?;
            }
            emit_batch_transformed(&mut self.emitter, &self.transforms, joined)?;
            Ok(self.emitter.ready())
        })?;
        Ok(r.unwrap_or_else(|| self.emitter.finish()))
    }
}

/// Nested-loop join: gathers both inputs whole, then walks the (outer,
/// inner) pairs, `quota` pairs per visit.
struct NestedLoopTask {
    inputs: Vec<Arc<ExchangeBuffer>>,
    predicate: Option<Expr>,
    rows: [Vec<Tuple>; 2],
    i: usize,
    j: usize,
    transforms: Vec<Transform>,
    emitter: Emitter,
}

impl OperatorTask for NestedLoopTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        let gather = |side: usize, page: Vec<Tuple>| {
            self.rows[side].extend(page);
            Ok(true)
        };
        if let Some(r) = pull(&self.inputs, quota, gather)? {
            return Ok(r);
        }
        let [outer, inner] = &self.rows;
        let mut produced = 0usize;
        while produced < quota {
            if inner.is_empty() || self.i >= outer.len() {
                return Ok(self.emitter.finish());
            }
            if !self.emitter.ready() {
                return Ok(StepResult::Blocked);
            }
            let pair = join_pair(&outer[self.i], &inner[self.j], &self.predicate)?;
            // Advance the (i, j) cursor.
            self.j += 1;
            if self.j == inner.len() {
                self.j = 0;
                self.i += 1;
            }
            produced += 1;
            emit_batch_transformed(&mut self.emitter, &self.transforms, pair)?;
        }
        Ok(StepResult::Working)
    }
}

// ----------------------------------------------------------------- send --

struct SendTask {
    inputs: Vec<Arc<ExchangeBuffer>>,
    ctl: Arc<QueryCtl>,
}

impl OperatorTask for SendTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        let deliver = |_, page| {
            self.ctl.emit(page);
            Ok(true)
        };
        Ok(pull(&self.inputs, quota, deliver)?.unwrap_or(StepResult::Done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staged::tests::detached_buffer;
    use crate::staged::EngineConfig;
    use staged_storage::{BufferPool, Catalog, MemDisk, Value};

    fn tuple(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i)])
    }

    fn test_engine() -> Arc<StagedEngine> {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 64)));
        StagedEngine::new(ExecContext::new(cat), EngineConfig::default())
    }

    #[test]
    fn emitter_backpressure_is_tuple_denominated_and_stalls_producer() {
        // Regression for the batch refactor: with pages of 4 tuples and a
        // downstream buffer of 1 page, the producer must stall once the
        // buffer is full AND a full page is staged — and both backlog and
        // the stall threshold must count tuples, not pages.
        let engine = test_engine();
        let buf = detached_buffer(&engine, 1);
        let mut e = Emitter::new(Arc::clone(&buf), 4);
        for i in 0..4 {
            assert!(e.ready());
            e.emit(tuple(i));
        }
        assert_eq!(e.staging.len(), 0, "a full page flushed into the free buffer");
        assert!(!buf.has_space());
        for i in 4..8 {
            e.emit(tuple(i));
        }
        assert_eq!(e.staging.len(), 4, "backlog reports staged tuples, not batches");
        assert!(!e.ready(), "full downstream buffer must stall the producer");
        assert_eq!(e.finish(), StepResult::Blocked, "a page is stuck behind the full buffer");
        // The consumer drains one page; the producer unblocks and drains.
        let page = buf.try_pop().expect("one page queued");
        assert_eq!(page.len(), 4);
        assert!(e.ready());
        assert_eq!(e.finish(), StepResult::Done);
        assert_eq!(buf.try_pop().unwrap().len(), 4);
        assert!(buf.is_finished(), "closed behind its last page");
        engine.shutdown();
    }

    #[test]
    fn emitter_seals_pages_of_the_engine_page_size() {
        // Knob (c) is fixed per engine; a page size of 0 clamps to 1.
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 8)));
        let cfg = |batch_capacity| EngineConfig { batch_capacity, ..Default::default() };
        let tiny = StagedEngine::new(ExecContext::new(Arc::clone(&cat)), cfg(0));
        assert_eq!(tiny.page_size(), 1);
        tiny.shutdown();
        let engine = StagedEngine::new(ExecContext::new(cat), cfg(3));
        let buf = detached_buffer(&engine, 8);
        let mut e = Emitter::new(Arc::clone(&buf), engine.page_size());
        e.emit_all((0..7).map(tuple));
        assert_eq!(buf.try_pop().unwrap().len(), 3);
        assert_eq!(buf.try_pop().unwrap().len(), 3);
        assert_eq!(e.staging.len(), 1, "partial page stays staged until finish");
        assert_eq!(e.finish(), StepResult::Done);
        assert_eq!(buf.try_pop().unwrap().len(), 1);
        engine.shutdown();
    }
}
