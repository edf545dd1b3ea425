//! The staged execution engine (paper §4.1.2 and §4.3).
//!
//! Each relational operator runs as a *task* carried by a packet queued at
//! one of the execution-engine stages of Figure 3 — fscan, iscan, sort,
//! join, aggregate, send. Dataflow is page-based: bounded
//! [`ExchangeBuffer`]s of tuple pages connect producers to consumers.
//! Activation is bottom-up: leaf (scan) packets are enqueued when the query
//! arrives; an operator packet enters its stage's queue only when its first
//! input page is ready ("activation occurs in a bottom-up fashion with
//! respect to the operator tree"). A task that cannot make progress —
//! output buffer full or input empty — requeues itself at the back of its
//! stage queue, which is the cooperative yield of §4.3.
//!
//! Every scan is a dedicated page scan owned by one query, filtered
//! through that query's snapshot when it has one (DESIGN.md §3 on why the
//! §5.4 shared scans are not implemented). A hash aggregate directly on a
//! scan is folded into the scan's packet (DESIGN.md §12).

mod tasks;

use crate::context::ExecContext;
use crate::error::{EngineError, EngineResult};
use crate::transform::Transform;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use staged_core::prelude::*;
use staged_planner::PhysicalPlan;
use staged_storage::Tuple;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
    /// Aggregation over inputs other than a scan, and duplicate
    /// elimination. An aggregate directly on a scan runs inside the scan's
    /// `fscan` packet instead.
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

/// Bounded single-producer/single-consumer page buffer between stages. A
/// page is a `Vec` of at most the engine's page size tuples (knob (c) of
/// §4.4). Capacity is counted in *pages*, while
/// [`ExchangeBuffer::queued_tuples`] keeps the backlog observable in tuples
/// so back-pressure accounting stays denominated in rows regardless of the
/// page size.
pub struct ExchangeBuffer {
    inner: Mutex<VecDeque<Vec<Tuple>>>,
    capacity: usize,
    closed: AtomicBool,
    tuples: AtomicUsize,
}

impl ExchangeBuffer {
    /// A buffer holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            closed: AtomicBool::new(false),
            tuples: AtomicUsize::new(0),
        })
    }

    /// True when another page fits.
    pub fn has_space(&self) -> bool {
        self.inner.lock().len() < self.capacity
    }

    /// Non-blocking push; hands the page back when full.
    pub fn try_push(&self, page: Vec<Tuple>) -> Result<(), Vec<Tuple>> {
        let mut q = self.inner.lock();
        if q.len() >= self.capacity {
            Err(page)
        } else {
            self.tuples.fetch_add(page.len(), Ordering::Relaxed);
            q.push_back(page);
            Ok(())
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<Vec<Tuple>> {
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

    /// No more pages will ever arrive.
    pub fn is_finished(&self) -> bool {
        self.closed.load(Ordering::SeqCst) && self.inner.lock().is_empty()
    }

    /// Producer has closed (pages may still be queued).
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
    /// Worker threads of every stage but `fscan`, and the least `fscan`
    /// runs ([`EngineConfig::scan_workers`]).
    pub workers_per_stage: usize,
    /// Task packets a worker of every stage but `fscan` may serve per
    /// queue visit (cohort scheduling, §4.2; knob (b) of §4.4); `fscan`
    /// serves one. Gated service: a task requeued mid-visit
    /// (Working/Blocked yields) goes to the back of the queue and joins
    /// the *next* visit, so a cohort never spins on its own yields.
    pub cohort: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { batch_capacity: 256, buffer_depth: 4, workers_per_stage: 1, cohort: 8 }
    }
}

/// Most `fscan` workers one engine starts, however many cores the host
/// has. Every engine a process builds starts its own, so without a cap a
/// test binary running one engine per core would start cores² scan
/// threads (DESIGN.md §11).
pub const SCAN_MAX_WORKERS: usize = 8;

impl EngineConfig {
    /// Workers of the `fscan` stage: one per available core, at most
    /// [`SCAN_MAX_WORKERS`], and never fewer than `workers_per_stage`.
    /// A scan's partition packets spread over them (DESIGN.md §8).
    pub fn scan_workers(&self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        cores.min(SCAN_MAX_WORKERS).max(self.workers_per_stage)
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
            // A scan quantum is thousands of rows, far longer than the
            // queue work a cohort would amortize (§4.2), so `fscan` serves
            // one packet per visit: a query's partition packets then go to
            // as many workers as are free, not all to the first one.
            let (workers, cohort) = match kind {
                StageKind::FScan => (config.scan_workers(), 1),
                _ => (config.workers_per_stage, config.cohort),
            };
            let id = builder.add_stage(
                StageSpec::new(kind.name(), logic)
                    .with_queue_capacity(4096)
                    .with_workers(workers)
                    // Gated cohorts: operator tasks yield by requeueing
                    // themselves to the back, where the next visit finds
                    // them — a visit never spins over its own yields.
                    .with_batch(BatchPolicy::DGated)
                    .with_max_cohort(cohort),
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

#[cfg(test)]
mod tests {
    use super::*;
    use staged_storage::Value;

    #[test]
    fn exchange_buffer_backpressure_and_close() {
        let b = ExchangeBuffer::new(2);
        assert!(b.try_push(Vec::new()).is_ok());
        assert!(b.try_push(Vec::new()).is_ok());
        assert!(b.try_push(Vec::new()).is_err(), "full at depth 2");
        assert!(!b.is_finished());
        b.close();
        assert!(!b.is_finished(), "still has queued pages");
        b.try_pop().unwrap();
        b.try_pop().unwrap();
        assert!(b.is_finished());
        assert!(b.try_pop().is_none());
    }

    #[test]
    fn exchange_buffer_counts_queued_tuples() {
        let mk = |n: usize| (0..n).map(|i| Tuple::new(vec![Value::Int(i as i64)])).collect();
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
}
