//! The staged execution engine (paper §4.1.2 and §4.3).
//!
//! Each relational operator runs as a *task* carried by a packet queued at
//! one of the execution-engine stages of Figure 3 — fscan, iscan, sort,
//! join, aggregate, send. Dataflow is page-based: bounded
//! [`ExchangeBuffer`]s of [`TupleBatch`]es connect producers to consumers.
//! Activation is bottom-up: leaf (scan) packets are enqueued when the query
//! arrives; an operator packet enters its stage's queue only when its first
//! input page is ready ("activation occurs in a bottom-up fashion with
//! respect to the operator tree"). A task that cannot make progress —
//! output buffer full or input empty — requeues itself at the back of its
//! stage queue, which is the cooperative yield of §4.3.
//!
//! Every scan is a dedicated page scan owned by one query, filtered
//! through that query's snapshot when it has one (DESIGN.md §3 on why the
//! §5.4 shared scans are not implemented).

mod tasks;

use crate::batch::TupleBatch;
use crate::context::ExecContext;
use crate::error::{EngineError, EngineResult};
use crate::expr::{eval, eval_predicate};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use staged_core::prelude::*;
use staged_planner::PhysicalPlan;
use staged_sql::ast::{BinOp, Expr};
use staged_storage::Tuple;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The execution-engine stages of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Sequential file scans (replicated per table in the paper; one queue
    /// for every table here).
    FScan,
    /// Index scans.
    IScan,
    /// Sorting.
    Sort,
    /// All three join algorithms.
    Join,
    /// Aggregation (and duplicate elimination).
    Aggr,
    /// Partition-parallel convergence: exchange unions and partial-
    /// aggregate merges (paper §6).
    Merge,
    /// Result delivery to the client.
    Send,
}

impl StageKind {
    /// All engine stages, in pipeline order.
    pub const ALL: [StageKind; 7] = [
        StageKind::FScan,
        StageKind::IScan,
        StageKind::Sort,
        StageKind::Join,
        StageKind::Aggr,
        StageKind::Merge,
        StageKind::Send,
    ];

    /// Stage name used in the runtime.
    pub fn name(&self) -> &'static str {
        match self {
            StageKind::FScan => "fscan",
            StageKind::IScan => "iscan",
            StageKind::Sort => "sort",
            StageKind::Join => "join",
            StageKind::Aggr => "aggr",
            StageKind::Merge => "merge",
            StageKind::Send => "send",
        }
    }
}

/// Outcome of one task quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// Made progress; more work remains.
    Working,
    /// Could not progress (input empty / output full); retry later.
    Blocked,
    /// Finished; destroy the packet.
    Done,
}

/// One operator's work, carried through stage queues inside a packet.
/// Mirrors the paper's packet: the task *is* the query's backpack for this
/// operator — its state and private data.
pub trait OperatorTask: Send {
    /// Perform up to `quota` tuples worth of work.
    fn step(&mut self, quota: usize) -> EngineResult<StepResult>;
}

/// Bounded single-producer/single-consumer page buffer between stages.
/// Capacity is counted in *pages* (of the engine's page size), while [`ExchangeBuffer::queued_tuples`] keeps the backlog
/// observable in tuples so back-pressure accounting stays denominated in
/// rows regardless of the page size.
pub struct ExchangeBuffer {
    inner: Mutex<VecDeque<TupleBatch>>,
    capacity: usize,
    closed: AtomicBool,
    tuples: AtomicUsize,
}

impl ExchangeBuffer {
    /// A buffer holding at most `capacity` batches.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            closed: AtomicBool::new(false),
            tuples: AtomicUsize::new(0),
        })
    }

    /// True when another batch fits.
    pub fn has_space(&self) -> bool {
        self.inner.lock().len() < self.capacity
    }

    /// Non-blocking push; hands the batch back when full.
    pub fn try_push(&self, batch: TupleBatch) -> Result<(), TupleBatch> {
        let mut q = self.inner.lock();
        if q.len() >= self.capacity {
            Err(batch)
        } else {
            self.tuples.fetch_add(batch.len(), Ordering::Relaxed);
            q.push_back(batch);
            Ok(())
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<TupleBatch> {
        let popped = self.inner.lock().pop_front();
        if let Some(b) = &popped {
            self.tuples.fetch_sub(b.len(), Ordering::Relaxed);
        }
        popped
    }

    /// Tuples currently queued (across all buffered pages).
    pub fn queued_tuples(&self) -> usize {
        self.tuples.load(Ordering::Relaxed)
    }

    /// Producer signals end of stream.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// No more batches will ever arrive.
    pub fn is_finished(&self) -> bool {
        self.closed.load(Ordering::SeqCst) && self.inner.lock().is_empty()
    }

    /// Producer has closed (batches may still be queued).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

/// Per-query control block: result sink + cancellation.
pub struct QueryCtl {
    sink: Sender<EngineResult<Tuple>>,
    cancelled: AtomicBool,
}

impl QueryCtl {
    fn new(sink: Sender<EngineResult<Tuple>>) -> Arc<Self> {
        Arc::new(Self { sink, cancelled: AtomicBool::new(false) })
    }

    /// Deliver one result tuple.
    pub fn emit(&self, t: Tuple) {
        let _ = self.sink.send(Ok(t));
    }

    /// Abort the query with an error (first error wins).
    pub fn fail(&self, e: EngineError) {
        if !self.cancelled.swap(true, Ordering::SeqCst) {
            let _ = self.sink.send(Err(e));
        }
    }

    /// True once the query is aborted.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// A packet: one operator task plus its query control block.
pub struct TaskPacket {
    /// Control block.
    pub ctl: Arc<QueryCtl>,
    /// The operator state machine.
    pub task: Box<dyn OperatorTask>,
}

/// Parent-activation cell: the parent's packet parks here until a child
/// produces its first page (bottom-up activation).
pub struct Activator {
    pending: Mutex<Option<(StageId, TaskPacket)>>,
    runtime: StagedRuntime<TaskPacket>,
}

impl Activator {
    fn new(runtime: StagedRuntime<TaskPacket>) -> Arc<Self> {
        Arc::new(Self { pending: Mutex::new(None), runtime })
    }

    fn park(&self, stage: StageId, packet: TaskPacket) {
        *self.pending.lock() = Some((stage, packet));
    }

    /// Enqueue the parked packet, if any (idempotent).
    pub fn activate(&self) {
        if let Some((stage, packet)) = self.pending.lock().take() {
            submit(&self.runtime, stage, packet);
        }
    }
}

/// Enqueue a task packet; `false` when refused. Once the engine is shut
/// down its queues refuse packets, and the query fails with [`shut_down`]
/// instead of ending silently short of rows.
fn submit(runtime: &StagedRuntime<TaskPacket>, stage: StageId, packet: TaskPacket) -> bool {
    match runtime.enqueue(stage, packet) {
        Ok(()) => true,
        Err(refused) => {
            refused.into_packet().ctl.fail(shut_down());
            false
        }
    }
}

/// The error a query submitted to (or still running in) a shut-down engine
/// fails with, queued or served inline alike.
pub(crate) fn shut_down() -> EngineError {
    EngineError::Internal("staged engine is shut down".into())
}

/// Tuning of the staged engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Tuples per exchanged page (knob (c) of §4.4), fixed for the
    /// engine's lifetime (DESIGN.md §12).
    pub batch_capacity: usize,
    /// Batches each exchange buffer may hold before back-pressure.
    pub buffer_depth: usize,
    /// Worker threads per stage.
    pub workers_per_stage: usize,
    /// Task packets an engine-stage worker may serve per queue visit
    /// (cohort scheduling, §4.2; knob (b) of §4.4). Gated service: a task requeued mid-visit (Working/Blocked yields) goes to
    /// the back of the queue and joins the *next* visit, so a cohort never
    /// spins on its own yields.
    pub cohort: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { batch_capacity: 256, buffer_depth: 4, workers_per_stage: 1, cohort: 8 }
    }
}

/// The staged execution engine: seven stages over a [`StagedRuntime`].
pub struct StagedEngine {
    runtime: StagedRuntime<TaskPacket>,
    ctx: ExecContext,
    config: EngineConfig,
}

impl StagedEngine {
    /// Build the engine and spawn its stage workers.
    pub fn new(ctx: ExecContext, config: EngineConfig) -> Arc<Self> {
        let mut builder = StagedRuntime::<TaskPacket>::builder();
        for kind in StageKind::ALL {
            let logic =
                EngineStageLogic { kind, blocked_streak: std::sync::atomic::AtomicUsize::new(0) };
            let id = builder.add_stage(
                StageSpec::new(kind.name(), logic)
                    .with_queue_capacity(4096)
                    .with_workers(config.workers_per_stage)
                    // Gated cohorts: operator tasks yield by requeueing
                    // themselves to the back, where the next visit finds
                    // them — a visit never spins over its own yields.
                    .with_batch(BatchPolicy::DGated)
                    .with_max_cohort(config.cohort),
            );
            // Registration follows `StageKind::ALL`, so a kind's
            // discriminant is its stage id (`stage_id`).
            assert_eq!(id, kind as StageId, "stages register in StageKind::ALL order");
        }
        let runtime = builder.build();
        Arc::new(Self { runtime, ctx, config })
    }

    /// Stage id for a kind.
    pub fn stage_id(&self, kind: StageKind) -> StageId {
        kind as StageId
    }

    /// The underlying runtime (monitoring, inline service).
    pub fn runtime(&self) -> &StagedRuntime<TaskPacket> {
        &self.runtime
    }

    /// The execution context.
    pub fn ctx(&self) -> &ExecContext {
        &self.ctx
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Exchange page size in tuples: [`EngineConfig::batch_capacity`],
    /// at least 1.
    pub fn page_size(&self) -> usize {
        self.config.batch_capacity.max(1)
    }

    /// Submit a plan; returns a handle delivering result tuples. A lone
    /// index probe is answered on the calling thread before this returns;
    /// every other plan runs on the stage workers (DESIGN.md §11).
    pub fn execute(self: &Arc<Self>, plan: &PhysicalPlan) -> StagedResult {
        let (tx, rx) = unbounded();
        tasks::compile_and_launch(self, plan, QueryCtl::new(tx));
        StagedResult { rx }
    }

    /// Shut the stage workers down (drains queues first).
    pub fn shutdown(&self) {
        self.runtime.shutdown();
    }

    pub(crate) fn make_activator(&self) -> Arc<Activator> {
        Activator::new(self.runtime.clone())
    }

    /// Enqueue a task packet at `kind`'s stage; `false` when the engine
    /// is shut down and refused it (the packet's query has been failed).
    pub(crate) fn enqueue(&self, kind: StageKind, packet: TaskPacket) -> bool {
        submit(&self.runtime, self.stage_id(kind), packet)
    }
}

/// One stage's logic: run a quantum of the dequeued task.
struct EngineStageLogic {
    kind: StageKind,
    /// Consecutive Blocked results across the whole stage; once a full lap
    /// of the queue makes no progress, the worker backs off instead of
    /// spinning through blocked packets at full speed.
    blocked_streak: std::sync::atomic::AtomicUsize,
}

impl StageLogic<TaskPacket> for EngineStageLogic {
    fn process(
        &self,
        mut packet: TaskPacket,
        ctx: &StageCtx<'_, TaskPacket>,
    ) -> Result<(), StageError> {
        if packet.ctl.is_cancelled() {
            return Ok(()); // drop the packet; query aborted
        }
        // Quota is passed through the task; the stage itself is agnostic.
        match packet.task.step(DEFAULT_QUOTA) {
            Ok(StepResult::Done) => {
                self.blocked_streak.store(0, Ordering::Relaxed);
                Ok(())
            }
            Ok(StepResult::Working) => {
                self.blocked_streak.store(0, Ordering::Relaxed);
                ctx.requeue_back(packet).map_err(|_| StageError::new("requeue failed"))?;
                Ok(())
            }
            Ok(StepResult::Blocked) => {
                let streak = self.blocked_streak.fetch_add(1, Ordering::Relaxed) + 1;
                if streak > ctx.queue_depth(ctx.stage_id).max(1) {
                    // A whole lap produced nothing: wait for upstream.
                    std::thread::sleep(Duration::from_micros(100));
                }
                ctx.requeue_back(packet).map_err(|_| StageError::new("requeue failed"))?;
                Ok(())
            }
            Err(e) => {
                packet.ctl.fail(e.clone());
                Err(StageError::new(format!("{} task failed: {e}", self.kind.name())))
            }
        }
    }
}

const DEFAULT_QUOTA: usize = 4096;

/// Handle to a staged query's results.
pub struct StagedResult {
    rx: Receiver<EngineResult<Tuple>>,
}

impl StagedResult {
    /// Block until the query finishes, collecting all tuples.
    pub fn collect(self) -> EngineResult<Vec<Tuple>> {
        let mut out = Vec::new();
        for item in self.rx.iter() {
            out.push(item?);
        }
        Ok(out)
    }
}

/// Per-tuple transforms fused into a producing task (filters, projections
/// and limits do not get their own stage: "we group together operators
/// which use a small portion of the common or shared data and code").
///
/// Transforms are *compiled* when the task is built: expression shapes the
/// batch inner loops hit constantly — constant integer comparisons, plain
/// column projections — are analyzed once per plan and run as direct
/// index/compare code per tuple, falling back to the general expression
/// interpreter (which the Volcano baseline pays on every `next()`) only
/// for shapes the fast paths do not cover.
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
    pub fn project(exprs: Vec<Expr>) -> Self {
        Transform::Project(Proj::compile(exprs))
    }

    /// A projection that gathers raw column indexes — used by the scan
    /// narrowing in the task compiler, where no source expressions exist.
    pub fn project_cols(cols: Vec<usize>) -> Self {
        Transform::Project(Proj { exprs: Vec::new(), cols: Some(cols) })
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
        (Expr::Column(c), Expr::Literal(staged_storage::Value::Int(k))) => Some((c.index?, *k)),
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
                (
                    Expr::Column(c),
                    Expr::Literal(staged_storage::Value::Int(a)),
                    Expr::Literal(staged_storage::Value::Int(b)),
                ) => c.index.and_then(|idx| range(idx, Some(*a), Some(*b))),
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
                Some(staged_storage::Value::Int(v)) => return Ok(r.lo <= *v && *v <= r.hi),
                Some(staged_storage::Value::Null) => return Ok(false),
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
/// of per-expression interpretation.
pub struct Proj {
    exprs: Vec<Expr>,
    cols: Option<Vec<usize>>,
}

impl Proj {
    /// Analyze the projection list once.
    pub fn compile(exprs: Vec<Expr>) -> Self {
        let cols = exprs
            .iter()
            .map(|e| match e {
                Expr::Column(c) => c.index,
                _ => None,
            })
            .collect::<Option<Vec<usize>>>();
        Self { exprs, cols }
    }

    /// Re-map one tuple.
    #[inline]
    pub fn apply(&self, t: Tuple) -> EngineResult<Tuple> {
        if let Some(cols) = &self.cols {
            let vals = t.values();
            let out = cols
                .iter()
                .map(|&i| {
                    vals.get(i)
                        .cloned()
                        .ok_or_else(|| EngineError::Internal(format!("column {i} out of arity")))
                })
                .collect::<EngineResult<Vec<_>>>()?;
            return Ok(Tuple::new(out));
        }
        let vals = self.exprs.iter().map(|e| eval(e, &t)).collect::<EngineResult<Vec<_>>>()?;
        Ok(Tuple::new(vals))
    }

    /// The gathered column indexes when every output is a plain column.
    pub(crate) fn plain_cols(&self) -> Option<&[usize]> {
        self.cols.as_deref()
    }

    /// Rewrite column indexes through `pos` (old slot → pruned slot). Only
    /// meaningful when [`plain_cols`](Self::plain_cols) is `Some`, so every
    /// expression is a bound column reference.
    pub(crate) fn remap_columns(&mut self, pos: &dyn Fn(usize) -> usize) {
        debug_assert!(self.cols.is_some(), "remap is only valid on plain-column projections");
        if let Some(cols) = &mut self.cols {
            for c in cols.iter_mut() {
                *c = pos(*c);
            }
        }
        for e in &mut self.exprs {
            if let Expr::Column(c) = e {
                if let Some(i) = c.index {
                    c.index = Some(pos(i));
                }
            }
        }
    }
}

/// Column pruning for scan-side transform chains. When the chain starts
/// with fast-path filters (each provably touching one column) and reaches
/// a plain-column projection, the scan only needs to decode the union of
/// the columns that prefix touches — everything else is skipped at the
/// page, unread string columns costing a few branches instead of an
/// allocation (`Tuple::decode_columns`). The prefix is rewritten in place
/// to address the pruned layout; the suffix after the projection sees the
/// projection's output, whose layout is unchanged, so it needs no rewrite.
///
/// Returns the sorted column set the scan must decode, or `None` (chain
/// untouched) when the shape does not admit pruning or when the prefix
/// already needs every one of the table's `arity` columns.
pub(crate) fn prune_scan_columns(ts: &mut Vec<Transform>, arity: usize) -> Option<Vec<usize>> {
    // The prefix may hold fast filters and limits (which read no columns);
    // the first plain-column projection closes it.
    let mut proj_at = None;
    for (i, t) in ts.iter().enumerate() {
        match t {
            Transform::Filter(p) if p.fast_col().is_some() => {}
            Transform::Limit(_) => {}
            Transform::Project(p) if p.plain_cols().is_some() => {
                proj_at = Some(i);
                break;
            }
            _ => return None,
        }
    }
    let proj_at = proj_at?;
    let mut needed: Vec<usize> = ts[..proj_at]
        .iter()
        .filter_map(|t| match t {
            Transform::Filter(p) => p.fast_col(),
            _ => None,
        })
        .collect();
    if let Transform::Project(p) = &ts[proj_at] {
        needed.extend(p.plain_cols().expect("checked above"));
    }
    needed.sort_unstable();
    needed.dedup();
    if needed.len() >= arity {
        return None;
    }
    let pos = |c: usize| needed.binary_search(&c).expect("prefix columns are all in `needed`");
    for t in &mut ts[..proj_at] {
        if let Transform::Filter(p) = t {
            p.remap_columns(&pos);
        }
    }
    let identity = match &mut ts[proj_at] {
        Transform::Project(p) => {
            p.remap_columns(&pos);
            p.plain_cols().expect("still plain").iter().copied().eq(0..needed.len())
        }
        _ => unreachable!("proj_at indexes a projection"),
    };
    if identity {
        // The projection now re-emits the pruned tuple unchanged: drop it.
        ts.remove(proj_at);
    }
    Some(needed)
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

#[cfg(test)]
mod tests {
    use super::*;
    use staged_storage::Value;

    #[test]
    fn exchange_buffer_backpressure_and_close() {
        let b = ExchangeBuffer::new(2);
        assert!(b.try_push(TupleBatch::default()).is_ok());
        assert!(b.try_push(TupleBatch::default()).is_ok());
        assert!(b.try_push(TupleBatch::default()).is_err(), "full at depth 2");
        assert!(!b.is_finished());
        b.close();
        assert!(!b.is_finished(), "still has queued batches");
        b.try_pop().unwrap();
        b.try_pop().unwrap();
        assert!(b.is_finished());
        assert!(b.try_pop().is_none());
    }

    #[test]
    fn exchange_buffer_counts_queued_tuples() {
        let mk = |n: usize| {
            TupleBatch::from_tuples(
                (0..n).map(|i| Tuple::new(vec![Value::Int(i as i64)])).collect(),
            )
        };
        let b = ExchangeBuffer::new(3);
        assert_eq!(b.queued_tuples(), 0);
        b.try_push(mk(5)).unwrap();
        b.try_push(mk(2)).unwrap();
        assert_eq!(b.queued_tuples(), 7, "backlog is denominated in tuples, not pages");
        b.try_pop().unwrap();
        assert_eq!(b.queued_tuples(), 2);
        b.try_pop().unwrap();
        assert_eq!(b.queued_tuples(), 0);
    }

    #[test]
    fn transforms_compose_in_order() {
        use staged_sql::ast::ColumnRef;
        let col0 = Expr::Column(ColumnRef { table: None, name: "#0".into(), index: Some(0) });
        let ts = vec![
            Transform::filter(Expr::binary(col0.clone(), BinOp::Gt, Expr::int(1))),
            Transform::project(vec![Expr::binary(col0.clone(), BinOp::Mul, Expr::int(10))]),
        ];
        let keep = apply_transforms(&ts, Tuple::new(vec![Value::Int(5)])).unwrap();
        assert_eq!(keep.unwrap().values(), &[Value::Int(50)]);
        let drop = apply_transforms(&ts, Tuple::new(vec![Value::Int(0)])).unwrap();
        assert!(drop.is_none());
    }

    #[test]
    fn compiled_predicates_agree_with_the_interpreter() {
        use staged_sql::ast::ColumnRef;
        let col =
            |i: usize| Expr::Column(ColumnRef { table: None, name: "#0".into(), index: Some(i) });
        let t = |v: Value| Tuple::new(vec![v]);
        let cases: Vec<(Expr, &[(Value, bool)])> = vec![
            (
                Expr::binary(col(0), BinOp::Eq, Expr::int(5)),
                &[(Value::Int(5), true), (Value::Int(4), false), (Value::Null, false)],
            ),
            (
                // Mirrored orientation: `10 > c` is `c < 10`.
                Expr::binary(Expr::int(10), BinOp::Gt, col(0)),
                &[(Value::Int(9), true), (Value::Int(10), false)],
            ),
            (
                Expr::Between {
                    expr: Box::new(col(0)),
                    lo: Box::new(Expr::int(2)),
                    hi: Box::new(Expr::int(4)),
                    negated: false,
                },
                &[(Value::Int(2), true), (Value::Int(4), true), (Value::Int(5), false)],
            ),
        ];
        for (expr, table) in cases {
            let pred = Pred::compile(expr.clone());
            assert!(pred.fast.is_some(), "{expr:?} should compile to an interval");
            for (v, want) in table {
                assert_eq!(pred.test(&t(v.clone())).unwrap(), *want, "{expr:?} on {v:?}");
                // The fast path must agree with the interpreter exactly.
                assert_eq!(
                    pred.test(&t(v.clone())).unwrap(),
                    eval_predicate(&expr, &t(v.clone())).unwrap()
                );
            }
        }
        // Float value through an Int-compiled interval: interpreter path.
        let pred = Pred::compile(Expr::binary(col(0), BinOp::Eq, Expr::int(5)));
        assert!(pred.test(&t(Value::Float(5.0))).unwrap(), "numeric coercion preserved");
    }

    #[test]
    fn compiled_projection_gathers_columns() {
        use staged_sql::ast::ColumnRef;
        let col =
            |i: usize| Expr::Column(ColumnRef { table: None, name: "#0".into(), index: Some(i) });
        let proj = Proj::compile(vec![col(2), col(0)]);
        assert!(proj.cols.is_some(), "plain column list compiles to a gather");
        let out =
            proj.apply(Tuple::new(vec![Value::Int(1), Value::Int(2), Value::Int(3)])).unwrap();
        assert_eq!(out.values(), &[Value::Int(3), Value::Int(1)]);
        let mixed = Proj::compile(vec![Expr::binary(col(0), BinOp::Mul, Expr::int(2))]);
        assert!(mixed.cols.is_none(), "computed expressions stay on the interpreter");
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
}
