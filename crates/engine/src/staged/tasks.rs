//! Operator tasks for the staged engine and the plan → task compiler.

use super::{
    apply_transforms, prune_scan_columns, shut_down, Activator, EngineConfig, ExchangeBuffer,
    OperatorTask, Pred, QueryCtl, StageKind, StagedEngine, StepResult, TaskPacket, Transform,
    TupleBatch,
};
use crate::agg::{AggMerger, GroupTable};
use crate::context::ExecContext;
use crate::error::EngineResult;
use crate::expr::eval_predicate;
use crate::probe::index_probe;
use crate::volcano::{encode_key, merge_join, sort_tuples};
use staged_planner::PhysicalPlan;
use staged_sql::ast::Expr;
use staged_storage::catalog::{IndexInfo, TableInfo};
use staged_storage::partition::PartitionedPageScan;
use staged_storage::{ReadView, Rid, Tuple};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::AtomicI64;
use std::sync::Arc;

/// Batch-building output side of a task: stages tuples, flushes pages into
/// the exchange buffer, activates the parent bottom-up. Pages hold the
/// engine's fixed page size ([`StagedEngine::page_size`]). All accounting
/// — the staged backlog, [`Emitter::ready`] — is denominated in *tuples*,
/// never pages, so back-pressure thresholds mean the same thing at page
/// size 1 and page size 4096.
pub struct Emitter {
    out: Arc<ExchangeBuffer>,
    parent: Arc<Activator>,
    page: usize,
    staging: Vec<Tuple>,
    closed: bool,
}

impl Emitter {
    /// Create an emitter sealing pages of `page` tuples (at least 1).
    pub fn new(out: Arc<ExchangeBuffer>, parent: Arc<Activator>, page: usize) -> Self {
        Self { out, parent, page: page.max(1), staging: Vec::new(), closed: false }
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

    fn flush_one(&mut self, force_partial: bool) -> bool {
        let cap = self.page_cap();
        if self.staging.is_empty() || (!force_partial && self.staging.len() < cap) {
            return true;
        }
        let n = self.staging.len().min(cap);
        let batch = TupleBatch::from_tuples(self.staging.drain(..n).collect());
        match self.out.try_push(batch) {
            Ok(()) => {
                self.parent.activate();
                true
            }
            Err(b) => {
                self.staging.splice(0..0, b.into_tuples());
                false
            }
        }
    }

    /// Flush as many full pages as the buffer accepts.
    pub fn pump(&mut self) {
        while self.staging.len() >= self.page_cap() {
            if !self.flush_one(false) {
                return;
            }
        }
    }

    /// Flush everything and close the stream; `false` if the buffer is
    /// still full (retry next quantum).
    pub fn finish(&mut self) -> bool {
        while !self.staging.is_empty() {
            if !self.flush_one(true) {
                return false;
            }
        }
        if !self.closed {
            self.out.close();
            self.parent.activate();
            self.closed = true;
        }
        true
    }
}

/// Input side of a task: pulls whole pages off the exchange buffer —
/// one lock per page, never one per tuple. Consumers run tight inner
/// loops over the returned run.
pub struct Intake {
    buf: Arc<ExchangeBuffer>,
}

impl Intake {
    /// Wrap a buffer.
    pub fn new(buf: Arc<ExchangeBuffer>) -> Self {
        Self { buf }
    }

    /// Next available page of tuples, if any.
    pub fn next_batch(&mut self) -> Option<Vec<Tuple>> {
        self.buf.try_pop().map(TupleBatch::into_tuples)
    }

    /// True when the producer closed and everything was consumed.
    pub fn finished(&self) -> bool {
        self.buf.is_finished()
    }
}

/// The engine's one entry point: run `plan` for the query behind `ctl`.
///
/// A *lone probe* — an `IndexScan` under nothing but fused
/// `Filter`/`Project`/`Limit` transforms — runs to completion on the
/// calling thread: the submitter blocks in `collect()` until the answer
/// arrives, so the probe could never join a cohort and the `iscan` → `send`
/// hand-offs would buy nothing (DESIGN.md §3, §11). It runs the same
/// [`Probe`] and transform chain the queued [`IndexScanTask`] runs and is
/// booked on the `iscan` stage as a followed visit of one. Every other plan
/// is compiled into tasks whose leaves are enqueued (bottom-up activation).
pub(super) fn compile_and_launch(
    engine: &Arc<StagedEngine>,
    plan: &PhysicalPlan,
    ctl: Arc<QueryCtl>,
) {
    let (plan, transforms) = fuse(plan, Vec::new());
    if let PhysicalPlan::IndexScan { .. } = plan {
        let probe = Probe::new(engine.ctx(), plan);
        let rows = || -> EngineResult<Vec<Tuple>> {
            let mut out = Vec::new();
            for t in probe.run()? {
                out.extend(apply_transforms(&transforms, t)?);
            }
            Ok(out)
        };
        match engine.runtime().serve_inline(engine.stage_id(StageKind::IScan), rows) {
            Some(Ok(rows)) => rows.into_iter().for_each(|t| ctl.emit(t)),
            Some(Err(e)) => ctl.fail(e),
            None => ctl.fail(shut_down()),
        }
        return;
    }
    let cfg = engine.config().clone();
    let root_buf = ExchangeBuffer::new(cfg.buffer_depth);
    let send_act = engine.make_activator();
    send_act.park(
        engine.stage_id(StageKind::Send),
        TaskPacket {
            ctl: Arc::clone(&ctl),
            task: Box::new(SendTask {
                input: Intake::new(Arc::clone(&root_buf)),
                ctl: Arc::clone(&ctl),
            }),
        },
    );
    build(engine, plan, root_buf, transforms, send_act, ctl, &cfg);
}

/// Peel the fused per-tuple operators off the top of `plan`: filters,
/// projections and limits get no stage of their own ("we group together
/// operators which use a small portion of the common or shared data and
/// code") and run inside the task producing their input. Returns that
/// producing node and the compiled chain, innermost first, with `above`
/// (the transforms fused from further up) appended.
fn fuse(mut plan: &PhysicalPlan, above: Vec<Transform>) -> (&PhysicalPlan, Vec<Transform>) {
    let mut outer_first = Vec::new();
    loop {
        let (t, input) = match plan {
            PhysicalPlan::Filter { input, predicate } => {
                (Transform::filter(predicate.clone()), input)
            }
            PhysicalPlan::Project { input, exprs, .. } => {
                (Transform::project(exprs.clone()), input)
            }
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

#[allow(clippy::too_many_arguments)]
fn build(
    engine: &Arc<StagedEngine>,
    plan: &PhysicalPlan,
    out: Arc<ExchangeBuffer>,
    transforms: Vec<Transform>,
    parent: Arc<Activator>,
    ctl: Arc<QueryCtl>,
    cfg: &EngineConfig,
) {
    let ctx = engine.ctx().clone();
    let (plan, transforms) = fuse(plan, transforms);
    match plan {
        PhysicalPlan::Filter { .. } | PhysicalPlan::Project { .. } | PhysicalPlan::Limit { .. } => {
            unreachable!("fused into the producing task")
        }
        PhysicalPlan::SeqScan { .. } | PhysicalPlan::PartitionScan { .. } => {
            launch_scan(engine, plan, None, transforms, out, parent, ctl);
        }
        PhysicalPlan::Exchange { inputs } => {
            // N independent partial pipelines converge at one union task on
            // the merge stage; the first page from any child activates it.
            fan_in(engine, inputs, out, parent, ctl, cfg, |intakes, emitter| {
                Box::new(UnionTask { inputs: intakes, transforms, emitter })
            });
        }
        PhysicalPlan::MergeAggregate { inputs, group_by_len, aggs } => {
            // Partial-aggregate pipelines (over a partition scan, each one
            // fscan packet folding its rows) converge at the combining task
            // on the merge stage.
            fan_in(engine, inputs, out, parent, ctl, cfg, |intakes, emitter| {
                Box::new(MergeAggTask {
                    inputs: intakes,
                    merger: Some(AggMerger::new(*group_by_len, aggs.clone())),
                    results: None,
                    pos: 0,
                    transforms,
                    emitter,
                })
            });
        }
        PhysicalPlan::IndexScan { .. } => {
            let task = IndexScanTask {
                probe: Probe::new(&ctx, plan),
                rows: None,
                pos: 0,
                transforms,
                emitter: Emitter::new(out, parent, engine.page_size()),
            };
            engine.enqueue(StageKind::IScan, TaskPacket { ctl, task: Box::new(task) });
        }
        PhysicalPlan::Sort { input, keys } => {
            let in_buf = ExchangeBuffer::new(cfg.buffer_depth);
            let act = engine.make_activator();
            let task = SortTask {
                input: Intake::new(Arc::clone(&in_buf)),
                keys: keys.clone(),
                rows: Vec::new(),
                sorted: false,
                pos: 0,
                transforms,
                emitter: Emitter::new(out, parent, engine.page_size()),
            };
            act.park(
                engine.stage_id(StageKind::Sort),
                TaskPacket { ctl: Arc::clone(&ctl), task: Box::new(task) },
            );
            build(engine, input, in_buf, Vec::new(), act, ctl, cfg);
        }
        PhysicalPlan::HashAggregate { input, group_by, aggs }
            if matches!(
                &**input,
                PhysicalPlan::SeqScan { .. } | PhysicalPlan::PartitionScan { .. }
            ) =>
        {
            // An aggregate directly on a scan gets no packet of its own: the
            // scan folds its rows into the groups where it decodes them.
            launch_scan(
                engine,
                input,
                Some(GroupTable::new(group_by, aggs)),
                transforms,
                out,
                parent,
                ctl,
            );
        }
        PhysicalPlan::HashAggregate { input, group_by, aggs } => {
            let in_buf = ExchangeBuffer::new(cfg.buffer_depth);
            let act = engine.make_activator();
            let task = AggTask {
                input: Intake::new(Arc::clone(&in_buf)),
                groups: Some(GroupTable::new(group_by, aggs)),
                transforms,
                emitter: Emitter::new(out, parent, engine.page_size()),
            };
            act.park(
                engine.stage_id(StageKind::Aggr),
                TaskPacket { ctl: Arc::clone(&ctl), task: Box::new(task) },
            );
            build(engine, input, in_buf, Vec::new(), act, ctl, cfg);
        }
        PhysicalPlan::Distinct { input } => {
            let in_buf = ExchangeBuffer::new(cfg.buffer_depth);
            let act = engine.make_activator();
            let task = DistinctTask {
                input: Intake::new(Arc::clone(&in_buf)),
                seen: HashSet::new(),
                transforms,
                emitter: Emitter::new(out, parent, engine.page_size()),
            };
            act.park(
                engine.stage_id(StageKind::Aggr),
                TaskPacket { ctl: Arc::clone(&ctl), task: Box::new(task) },
            );
            build(engine, input, in_buf, Vec::new(), act, ctl, cfg);
        }
        PhysicalPlan::HashJoin { left, right, keys, residual } => {
            let build_buf = ExchangeBuffer::new(cfg.buffer_depth);
            let probe_buf = ExchangeBuffer::new(cfg.buffer_depth);
            let act = engine.make_activator();
            let task = HashJoinTask {
                build: Intake::new(Arc::clone(&build_buf)),
                probe: Intake::new(Arc::clone(&probe_buf)),
                building: true,
                keys: keys.clone(),
                residual: residual.clone(),
                table: HashMap::new(),
                transforms,
                emitter: Emitter::new(out, parent, engine.page_size()),
            };
            act.park(
                engine.stage_id(StageKind::Join),
                TaskPacket { ctl: Arc::clone(&ctl), task: Box::new(task) },
            );
            build(engine, left, build_buf, Vec::new(), Arc::clone(&act), Arc::clone(&ctl), cfg);
            build(engine, right, probe_buf, Vec::new(), act, ctl, cfg);
        }
        PhysicalPlan::MergeJoin { left, right, keys, residual } => {
            let lbuf = ExchangeBuffer::new(cfg.buffer_depth);
            let rbuf = ExchangeBuffer::new(cfg.buffer_depth);
            let act = engine.make_activator();
            let task = MergeJoinTask {
                left: Intake::new(Arc::clone(&lbuf)),
                right: Intake::new(Arc::clone(&rbuf)),
                keys: keys.clone(),
                residual: residual.clone(),
                lrows: Vec::new(),
                rrows: Vec::new(),
                output: None,
                pos: 0,
                transforms,
                emitter: Emitter::new(out, parent, engine.page_size()),
            };
            act.park(
                engine.stage_id(StageKind::Join),
                TaskPacket { ctl: Arc::clone(&ctl), task: Box::new(task) },
            );
            build(engine, left, lbuf, Vec::new(), Arc::clone(&act), Arc::clone(&ctl), cfg);
            build(engine, right, rbuf, Vec::new(), act, ctl, cfg);
        }
        PhysicalPlan::NestedLoopJoin { left, right, predicate } => {
            let lbuf = ExchangeBuffer::new(cfg.buffer_depth);
            let rbuf = ExchangeBuffer::new(cfg.buffer_depth);
            let act = engine.make_activator();
            let task = NestedLoopTask {
                left: Intake::new(Arc::clone(&lbuf)),
                right: Intake::new(Arc::clone(&rbuf)),
                predicate: predicate.clone(),
                lrows: Vec::new(),
                rrows: Vec::new(),
                gathered: false,
                i: 0,
                j: 0,
                transforms,
                emitter: Emitter::new(out, parent, engine.page_size()),
            };
            act.park(
                engine.stage_id(StageKind::Join),
                TaskPacket { ctl: Arc::clone(&ctl), task: Box::new(task) },
            );
            build(engine, left, lbuf, Vec::new(), Arc::clone(&act), Arc::clone(&ctl), cfg);
            build(engine, right, rbuf, Vec::new(), act, ctl, cfg);
        }
    }
}

/// Compile a `SeqScan` or `PartitionScan` into one `fscan` packet. Without
/// `groups` the scan's predicate and `transforms` run on each row and the
/// survivors flow on to `out`. With `groups` the node is the input of a
/// `HashAggregate`: the predicate is tested on each row, survivors are
/// folded into `groups`, and only the finished groups — through
/// `transforms`, the operators fused above the aggregate — flow on to
/// `out`. Either way the scan decodes only the columns that are read
/// (`prune_scan_columns`, [`prune_fold_columns`]).
fn launch_scan(
    engine: &Arc<StagedEngine>,
    plan: &PhysicalPlan,
    groups: Option<GroupTable>,
    transforms: Vec<Transform>,
    out: Arc<ExchangeBuffer>,
    parent: Arc<Activator>,
    ctl: Arc<QueryCtl>,
) {
    let (table, partition, predicate, snapshot) = match plan {
        PhysicalPlan::SeqScan { table, predicate, snapshot } => (table, None, predicate, snapshot),
        PhysicalPlan::PartitionScan { table, partition, predicate, snapshot } => {
            (table, Some(*partition), predicate, snapshot)
        }
        _ => unreachable!("launch_scan takes a scan node"),
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
    let task = ScanTask {
        ctx: engine.ctx().clone(),
        scan,
        page: Vec::new(),
        transforms,
        fold,
        emitter: Emitter::new(out, parent, engine.page_size()),
    };
    engine.enqueue(StageKind::FScan, TaskPacket { ctl, task: Box::new(task) });
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

/// Shared fan-in wiring for the merge-stage tasks: one exchange buffer +
/// intake per partial pipeline, the convergence task parked on the merge
/// stage behind a single activator (first page from any child wakes it),
/// then every child pipeline built against its buffer.
fn fan_in(
    engine: &Arc<StagedEngine>,
    inputs: &[PhysicalPlan],
    out: Arc<ExchangeBuffer>,
    parent: Arc<Activator>,
    ctl: Arc<QueryCtl>,
    cfg: &EngineConfig,
    make_task: impl FnOnce(Vec<Intake>, Emitter) -> Box<dyn OperatorTask>,
) {
    let act = engine.make_activator();
    let mut intakes = Vec::with_capacity(inputs.len());
    let mut bufs = Vec::with_capacity(inputs.len());
    for _ in inputs {
        let b = ExchangeBuffer::new(cfg.buffer_depth);
        intakes.push(Intake::new(Arc::clone(&b)));
        bufs.push(b);
    }
    let task = make_task(intakes, Emitter::new(out, parent, engine.page_size()));
    act.park(engine.stage_id(StageKind::Merge), TaskPacket { ctl: Arc::clone(&ctl), task });
    for (input, buf) in inputs.iter().zip(bufs) {
        build(engine, input, buf, Vec::new(), Arc::clone(&act), Arc::clone(&ctl), cfg);
    }
}

/// Emit through the transform chain; returns `Ok(true)` if a tuple reached
/// the emitter.
fn emit_transformed(
    emitter: &mut Emitter,
    transforms: &[Transform],
    t: Tuple,
) -> EngineResult<bool> {
    match apply_transforms(transforms, t)? {
        Some(t) => {
            emitter.emit(t);
            Ok(true)
        }
        None => Ok(false),
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
                return Ok(if produced > 0 { StepResult::Working } else { StepResult::Blocked });
            }
            if !self.scan.next_into(&mut self.page)? {
                if let Some(fold) = self.fold.take() {
                    emit_batch_transformed(
                        &mut self.emitter,
                        &self.transforms,
                        fold.groups.finish(),
                    )?;
                }
                return Ok(if self.emitter.finish() {
                    StepResult::Done
                } else {
                    StepResult::Blocked
                });
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

/// One `IndexScan` node's probe, ready to run: the queued
/// [`IndexScanTask`] and a lone probe served inline run exactly this.
pub(super) struct Probe {
    ctx: ExecContext,
    table: Arc<TableInfo>,
    index: Arc<IndexInfo>,
    lo: Option<i64>,
    hi: Option<i64>,
    predicate: Option<Expr>,
    snapshot: Option<ReadView>,
}

impl Probe {
    /// The probe of `plan`, which must be an `IndexScan`.
    fn new(ctx: &ExecContext, plan: &PhysicalPlan) -> Self {
        let PhysicalPlan::IndexScan { table, index, lo, hi, predicate, snapshot } = plan else {
            unreachable!("a probe is built from an IndexScan node")
        };
        Self {
            ctx: ctx.clone(),
            table: Arc::clone(table),
            index: Arc::clone(index),
            lo: *lo,
            hi: *hi,
            predicate: predicate.clone(),
            snapshot: *snapshot,
        }
    }

    /// Every row the probe yields (one overlay pass judges them together).
    fn run(&self) -> EngineResult<Vec<Tuple>> {
        let rows = index_probe(
            &self.ctx,
            &self.table,
            &self.index,
            self.lo,
            self.hi,
            self.predicate.as_ref(),
            self.snapshot,
        )?;
        Ok(rows.into_iter().map(|(_, tuple)| tuple).collect())
    }
}

/// Index scan task: the first visit to the `iscan` stage runs the whole
/// probe; later visits only drain the materialized rows into the exchange
/// layer.
pub(super) struct IndexScanTask {
    pub probe: Probe,
    pub rows: Option<Vec<Tuple>>,
    pub pos: usize,
    pub transforms: Vec<Transform>,
    pub emitter: Emitter,
}

impl OperatorTask for IndexScanTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        if self.rows.is_none() {
            self.rows = Some(self.probe.run()?);
        }
        let rows = self.rows.as_deref().expect("materialized above");
        drain_materialized(&mut self.pos, rows, &self.transforms, &mut self.emitter, quota)
    }
}

// ----------------------------------------------------------------- sort --

pub(super) struct SortTask {
    pub input: Intake,
    pub keys: Vec<(Expr, bool)>,
    pub rows: Vec<Tuple>,
    pub sorted: bool,
    pub pos: usize,
    pub transforms: Vec<Transform>,
    pub emitter: Emitter,
}

impl OperatorTask for SortTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        if !self.sorted {
            let mut consumed = 0usize;
            while consumed < quota {
                match self.input.next_batch() {
                    Some(batch) => {
                        consumed += batch.len().max(1);
                        self.rows.extend(batch);
                    }
                    None if self.input.finished() => {
                        sort_tuples(&mut self.rows, &self.keys)?;
                        self.sorted = true;
                        break;
                    }
                    None => {
                        return Ok(if consumed > 0 {
                            StepResult::Working
                        } else {
                            StepResult::Blocked
                        })
                    }
                }
            }
            if !self.sorted {
                return Ok(StepResult::Working);
            }
        }
        drain_materialized(&mut self.pos, &self.rows, &self.transforms, &mut self.emitter, quota)
    }
}

/// Shared drain phase: emit `rows[pos..]` through transforms, one exchange
/// page per readiness check.
fn drain_materialized(
    pos: &mut usize,
    rows: &[Tuple],
    transforms: &[Transform],
    emitter: &mut Emitter,
    quota: usize,
) -> EngineResult<StepResult> {
    let mut produced = 0usize;
    while produced < quota {
        if *pos >= rows.len() {
            return if emitter.finish() { Ok(StepResult::Done) } else { Ok(StepResult::Blocked) };
        }
        if !emitter.ready() {
            return Ok(if produced > 0 { StepResult::Working } else { StepResult::Blocked });
        }
        let n = (rows.len() - *pos).min(quota - produced).min(emitter.page_cap());
        emit_batch_transformed(emitter, transforms, rows[*pos..*pos + n].iter().cloned())?;
        *pos += n;
        produced += n;
    }
    Ok(StepResult::Working)
}

// ---------------------------------------------------------------- merge --

/// Bag union of N partial pipelines (the staged `Exchange`): forwards
/// whatever any input has ready, so fast partitions never wait for slow
/// ones.
pub(super) struct UnionTask {
    pub inputs: Vec<Intake>,
    pub transforms: Vec<Transform>,
    pub emitter: Emitter,
}

impl OperatorTask for UnionTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        let mut moved = 0usize;
        loop {
            let mut any = false;
            for i in 0..self.inputs.len() {
                loop {
                    if moved >= quota {
                        return Ok(StepResult::Working);
                    }
                    if !self.emitter.ready() {
                        return Ok(if moved > 0 {
                            StepResult::Working
                        } else {
                            StepResult::Blocked
                        });
                    }
                    match self.inputs[i].next_batch() {
                        Some(batch) => {
                            moved += batch.len().max(1);
                            emit_batch_transformed(&mut self.emitter, &self.transforms, batch)?;
                            any = true;
                        }
                        None => break,
                    }
                }
            }
            if !any {
                if self.inputs.iter().all(Intake::finished) {
                    return if self.emitter.finish() {
                        Ok(StepResult::Done)
                    } else {
                        Ok(StepResult::Blocked)
                    };
                }
                return Ok(if moved > 0 { StepResult::Working } else { StepResult::Blocked });
            }
        }
    }
}

/// Combine N partial-aggregation pipelines into final aggregate rows (the
/// staged `MergeAggregate`): absorbs partial rows as they arrive from any
/// partition, finishes once every input closes.
pub(super) struct MergeAggTask {
    pub inputs: Vec<Intake>,
    pub merger: Option<AggMerger>,
    pub results: Option<Vec<Tuple>>,
    pub pos: usize,
    pub transforms: Vec<Transform>,
    pub emitter: Emitter,
}

impl OperatorTask for MergeAggTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        if self.results.is_none() {
            let merger = self.merger.as_mut().expect("merger present until finish");
            let mut consumed = 0usize;
            loop {
                let mut any = false;
                for i in 0..self.inputs.len() {
                    loop {
                        if consumed >= quota {
                            return Ok(StepResult::Working);
                        }
                        match self.inputs[i].next_batch() {
                            Some(batch) => {
                                consumed += batch.len().max(1);
                                for t in &batch {
                                    merger.absorb(t)?;
                                }
                                any = true;
                            }
                            None => break,
                        }
                    }
                }
                if !any {
                    if self.inputs.iter().all(Intake::finished) {
                        break;
                    }
                    return Ok(if consumed > 0 {
                        StepResult::Working
                    } else {
                        StepResult::Blocked
                    });
                }
            }
            let merger = self.merger.take().expect("merger present until finish");
            self.results = Some(merger.finish());
        }
        let rows = self.results.as_ref().expect("computed above");
        drain_materialized(&mut self.pos, rows, &self.transforms, &mut self.emitter, quota)
    }
}

// ------------------------------------------------------------ aggregate --

/// A hash aggregate over an input that is not a scan (a join, a sort, an
/// index probe, a union): absorbs whole pages from the `aggr` stage queue,
/// then emits the finished groups.
pub(super) struct AggTask {
    input: Intake,
    groups: Option<GroupTable>,
    transforms: Vec<Transform>,
    emitter: Emitter,
}

impl OperatorTask for AggTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        if let Some(groups) = &mut self.groups {
            let mut consumed = 0usize;
            loop {
                if consumed >= quota {
                    return Ok(StepResult::Working);
                }
                match self.input.next_batch() {
                    Some(batch) => {
                        consumed += batch.len().max(1);
                        for t in &batch {
                            groups.absorb(t)?;
                        }
                    }
                    None if self.input.finished() => break,
                    None => {
                        return Ok(if consumed > 0 {
                            StepResult::Working
                        } else {
                            StepResult::Blocked
                        })
                    }
                }
            }
            let rows = self.groups.take().expect("absorbing until here").finish();
            emit_batch_transformed(&mut self.emitter, &self.transforms, rows)?;
        }
        Ok(if self.emitter.finish() { StepResult::Done } else { StepResult::Blocked })
    }
}

pub(super) struct DistinctTask {
    pub input: Intake,
    pub seen: HashSet<Vec<u8>>,
    pub transforms: Vec<Transform>,
    pub emitter: Emitter,
}

impl OperatorTask for DistinctTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        let mut moved = 0usize;
        while moved < quota {
            if !self.emitter.ready() {
                return Ok(if moved > 0 { StepResult::Working } else { StepResult::Blocked });
            }
            match self.input.next_batch() {
                Some(batch) => {
                    moved += batch.len().max(1);
                    for t in batch {
                        if self.seen.insert(t.encode()) {
                            emit_transformed(&mut self.emitter, &self.transforms, t)?;
                        }
                    }
                    self.emitter.pump();
                }
                None if self.input.finished() => {
                    return if self.emitter.finish() {
                        Ok(StepResult::Done)
                    } else {
                        Ok(StepResult::Blocked)
                    };
                }
                None => {
                    return Ok(if moved > 0 { StepResult::Working } else { StepResult::Blocked })
                }
            }
        }
        Ok(StepResult::Working)
    }
}

// ---------------------------------------------------------------- joins --

pub(super) struct HashJoinTask {
    pub build: Intake,
    pub probe: Intake,
    pub building: bool,
    pub keys: Vec<(Expr, Expr)>,
    pub residual: Option<Expr>,
    pub table: HashMap<Vec<u8>, Vec<Tuple>>,
    pub transforms: Vec<Transform>,
    pub emitter: Emitter,
}

impl OperatorTask for HashJoinTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        let mut work = 0usize;
        if self.building {
            let key_exprs: Vec<&Expr> = self.keys.iter().map(|(l, _)| l).collect();
            loop {
                if work >= quota {
                    return Ok(StepResult::Working);
                }
                match self.build.next_batch() {
                    Some(batch) => {
                        work += batch.len().max(1);
                        for t in batch {
                            if let Some(k) = encode_key(&key_exprs, &t)? {
                                self.table.entry(k).or_default().push(t);
                            }
                        }
                    }
                    None if self.build.finished() => {
                        self.building = false;
                        break;
                    }
                    None => {
                        return Ok(if work > 0 { StepResult::Working } else { StepResult::Blocked })
                    }
                }
            }
        }
        // Probe phase: one probe page per readiness check; every match the
        // page produces goes straight out through the transform chain (the
        // page is the granularity of back-pressure, so the staging run may
        // overshoot by one page's join fan-out before the task yields).
        let key_exprs: Vec<&Expr> = self.keys.iter().map(|(_, r)| r).collect();
        while work < quota {
            if !self.emitter.ready() {
                return Ok(if work > 0 { StepResult::Working } else { StepResult::Blocked });
            }
            match self.probe.next_batch() {
                Some(batch) => {
                    work += batch.len().max(1);
                    for probe in batch {
                        let Some(k) = encode_key(&key_exprs, &probe)? else { continue };
                        if let Some(matches) = self.table.get(&k) {
                            for m in matches {
                                let joined = m.concat(&probe);
                                match &self.residual {
                                    Some(p) if !eval_predicate(p, &joined)? => continue,
                                    _ => {
                                        emit_transformed(
                                            &mut self.emitter,
                                            &self.transforms,
                                            joined,
                                        )?;
                                    }
                                }
                            }
                        }
                    }
                    self.emitter.pump();
                }
                None if self.probe.finished() => {
                    return if self.emitter.finish() {
                        Ok(StepResult::Done)
                    } else {
                        Ok(StepResult::Blocked)
                    };
                }
                None => {
                    return Ok(if work > 0 { StepResult::Working } else { StepResult::Blocked })
                }
            }
        }
        Ok(StepResult::Working)
    }
}

pub(super) struct MergeJoinTask {
    pub left: Intake,
    pub right: Intake,
    pub keys: (Expr, Expr),
    pub residual: Option<Expr>,
    pub lrows: Vec<Tuple>,
    pub rrows: Vec<Tuple>,
    pub output: Option<Vec<Tuple>>,
    pub pos: usize,
    pub transforms: Vec<Transform>,
    pub emitter: Emitter,
}

impl OperatorTask for MergeJoinTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        if self.output.is_none() {
            let mut moved = 0usize;
            while moved < quota {
                if let Some(batch) = self.left.next_batch() {
                    moved += batch.len().max(1);
                    self.lrows.extend(batch);
                    continue;
                }
                if let Some(batch) = self.right.next_batch() {
                    moved += batch.len().max(1);
                    self.rrows.extend(batch);
                    continue;
                }
                if self.left.finished() && self.right.finished() {
                    break;
                }
                return Ok(if moved > 0 { StepResult::Working } else { StepResult::Blocked });
            }
            if !(self.left.finished() && self.right.finished()) {
                return Ok(StepResult::Working);
            }
            self.output = Some(merge_join(
                std::mem::take(&mut self.lrows),
                std::mem::take(&mut self.rrows),
                &self.keys,
                &self.residual,
            )?);
        }
        let rows = self.output.as_ref().expect("computed above");
        drain_materialized(&mut self.pos, rows, &self.transforms, &mut self.emitter, quota)
    }
}

pub(super) struct NestedLoopTask {
    pub left: Intake,
    pub right: Intake,
    pub predicate: Option<Expr>,
    pub lrows: Vec<Tuple>,
    pub rrows: Vec<Tuple>,
    pub gathered: bool,
    pub i: usize,
    pub j: usize,
    pub transforms: Vec<Transform>,
    pub emitter: Emitter,
}

impl OperatorTask for NestedLoopTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        if !self.gathered {
            let mut moved = 0usize;
            while moved < quota {
                if let Some(batch) = self.left.next_batch() {
                    moved += batch.len().max(1);
                    self.lrows.extend(batch);
                    continue;
                }
                if let Some(batch) = self.right.next_batch() {
                    moved += batch.len().max(1);
                    self.rrows.extend(batch);
                    continue;
                }
                if self.left.finished() && self.right.finished() {
                    self.gathered = true;
                    break;
                }
                return Ok(if moved > 0 { StepResult::Working } else { StepResult::Blocked });
            }
            if !self.gathered {
                return Ok(StepResult::Working);
            }
        }
        if self.rrows.is_empty() {
            // Inner relation empty: no output at all.
            self.i = self.lrows.len();
        }
        let mut produced = 0usize;
        while produced < quota {
            if self.i >= self.lrows.len() {
                return if self.emitter.finish() {
                    Ok(StepResult::Done)
                } else {
                    Ok(StepResult::Blocked)
                };
            }
            if !self.emitter.ready() {
                return Ok(if produced > 0 { StepResult::Working } else { StepResult::Blocked });
            }
            let joined = self.lrows[self.i].concat(&self.rrows[self.j]);
            // Advance the (i, j) cursor.
            self.j += 1;
            if self.j >= self.rrows.len() {
                self.j = 0;
                self.i += 1;
            }
            produced += 1;
            match &self.predicate {
                Some(p) if !eval_predicate(p, &joined)? => continue,
                _ => {
                    emit_transformed(&mut self.emitter, &self.transforms, joined)?;
                }
            }
        }
        Ok(StepResult::Working)
    }
}

// ----------------------------------------------------------------- send --

pub(super) struct SendTask {
    pub input: Intake,
    pub ctl: Arc<QueryCtl>,
}

impl OperatorTask for SendTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        let mut moved = 0usize;
        while moved < quota {
            match self.input.next_batch() {
                Some(batch) => {
                    moved += batch.len().max(1);
                    for t in batch {
                        self.ctl.emit(t);
                    }
                }
                None if self.input.finished() => return Ok(StepResult::Done),
                None => {
                    return Ok(if moved > 0 { StepResult::Working } else { StepResult::Blocked })
                }
            }
        }
        Ok(StepResult::Working)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let buf = ExchangeBuffer::new(1);
        let mut e = Emitter::new(Arc::clone(&buf), engine.make_activator(), 4);
        for i in 0..4 {
            assert!(e.ready());
            e.emit(tuple(i));
        }
        assert_eq!(e.staging.len(), 0, "a full page flushed into the free buffer");
        assert_eq!(buf.queued_tuples(), 4);
        for i in 4..8 {
            e.emit(tuple(i));
        }
        assert_eq!(e.staging.len(), 4, "backlog reports staged tuples, not batches");
        assert!(!e.ready(), "full downstream buffer must stall the producer");
        assert!(!e.finish(), "cannot close while a page is stuck behind the buffer");
        // The consumer drains one page; the producer unblocks and drains.
        let page = buf.try_pop().expect("one page queued");
        assert_eq!(page.len(), 4);
        assert!(e.ready());
        assert!(e.finish());
        assert_eq!(buf.queued_tuples(), 4);
        assert!(buf.is_closed());
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
        let buf = ExchangeBuffer::new(8);
        let mut e = Emitter::new(Arc::clone(&buf), engine.make_activator(), engine.page_size());
        e.emit_all((0..7).map(tuple));
        assert_eq!(buf.try_pop().unwrap().len(), 3);
        assert_eq!(buf.try_pop().unwrap().len(), 3);
        assert_eq!(e.staging.len(), 1, "partial page stays staged until finish");
        assert!(e.finish());
        assert_eq!(buf.try_pop().unwrap().len(), 1);
        engine.shutdown();
    }
}
