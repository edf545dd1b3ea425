//! The staged execution engine (paper §4.1.2 and §4.3).
//!
//! Each relational operator runs as a *task* carried by a packet queued at
//! one of the execution-engine stages of Figure 3 — fscan, iscan, sort,
//! join, aggregate, send. Dataflow is page-based: bounded
//! [`ExchangeBuffer`]s of tuple pages connect producers to consumers.
//!
//! A task waits in one way only. When it cannot make progress — output
//! buffer full or every input empty — its packet leaves the queues (§4.1.1
//! case iii) and parks in the task's [`WakeCell`], holding a slot in its
//! stage's queue (a [`Reservation`]); the buffer end that moves — a page
//! pushed into an empty input, an input closed, a page popped from a full
//! output — fills that slot with it. A stage with a task parked cannot
//! close, so [`StagedEngine::shutdown`] is the runtime's own drain.
//! Activation is the first use of the same cell: leaf (scan) packets are
//! enqueued when the query arrives, and every operator above them starts
//! out parked until its first input page or close ("activation occurs in
//! a bottom-up fashion with respect to the operator tree", §4.3). A task
//! that made progress and has more to do requeues itself at the back of
//! its stage queue, which is the cooperative yield of §4.3.
//!
//! A query ends in one call: its control block collects the result pages
//! and, when the query's last packet lets it go, hands the rows or the
//! first error to the `done` it was launched with ([`StagedEngine::launch`]).
//! Nobody waits on a running query.
//!
//! Every scan is a dedicated page scan owned by one query, filtered
//! through that query's snapshot when it has one (DESIGN.md §3 on why the
//! §5.4 shared scans are not implemented). A hash aggregate directly on a
//! scan is folded into the scan's packet (DESIGN.md §12).

mod tasks;

use crate::context::ExecContext;
use crate::error::{EngineError, EngineResult};
use crate::transform::Transform;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use staged_core::prelude::*;
use staged_planner::PhysicalPlan;
use staged_storage::Tuple;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

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
    /// Could not progress (input empty / output full): park until a
    /// buffer end moves.
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

/// A task's one wake cell: where its packet waits, in no queue but with a
/// slot held in its stage's, whenever the task cannot progress — for its
/// first input at activation (§4.3) and every time it blocks after that
/// (§4.1.1 case iii). A wake fills the slot with the parked packet or,
/// when nothing is parked, leaves a *notified* mark that the next park
/// consumes at once, so a wake that races ahead of the park is never
/// lost. The buffers on either side of a task wake its cell
/// ([`ExchangeBuffer`]), and a failing query wakes every cell it has
/// ([`QueryCtl::fail`]).
pub struct WakeCell {
    state: Mutex<Wake>,
    runtime: StagedRuntime<TaskPacket>,
}

enum Wake {
    /// Nothing parked, no wake pending.
    Idle,
    /// The task's packet and its slot in the stage it re-enters.
    Parked(Reservation<TaskPacket>, TaskPacket),
    /// Woken while nothing was parked: the next park re-admits at once.
    Notified,
}

impl WakeCell {
    /// A cell for one task of the query behind `ctl`, registered with it
    /// so a failure wakes it; a cell made after the failure starts out
    /// notified. One critical section with `fail`'s taking of the list, so
    /// no cell misses both.
    fn new(runtime: &StagedRuntime<TaskPacket>, ctl: &QueryCtl) -> Arc<Self> {
        let cell = Arc::new(Self { state: Mutex::new(Wake::Idle), runtime: runtime.clone() });
        let mut cells = ctl.cells.lock();
        if ctl.is_cancelled() {
            cell.wake();
        } else {
            cells.push(Arc::clone(&cell));
        }
        drop(cells);
        cell
    }

    /// Park `packet` with a slot held in `stage` until the next wake — or
    /// fill the slot now if a wake came since the last park. A closed
    /// stage holds no slot: the query fails with [`shut_down`].
    fn park(&self, stage: StageId, packet: TaskPacket) {
        let Some(slot) = self.runtime.hold(stage) else {
            return packet.ctl.fail(shut_down());
        };
        let mut state = self.state.lock();
        match std::mem::replace(&mut *state, Wake::Idle) {
            Wake::Idle => *state = Wake::Parked(slot, packet),
            Wake::Notified => {
                drop(state);
                slot.fill(packet);
            }
            Wake::Parked(..) => unreachable!("a task has one packet"),
        }
    }

    /// Fill the parked packet's slot, or mark the cell notified when none
    /// is parked.
    pub fn wake(&self) {
        let mut state = self.state.lock();
        if let Wake::Parked(slot, packet) = std::mem::replace(&mut *state, Wake::Notified) {
            *state = Wake::Idle;
            drop(state);
            slot.fill(packet);
        }
    }
}

/// Bounded single-producer/single-consumer page buffer between stages. A
/// page is a `Vec` of at most the engine's page size tuples (knob (c) of
/// §4.4); capacity is counted in pages.
///
/// Each end wakes the task on the other end when it leaves the state that
/// task waits on: a push into an empty buffer and the close (which rides
/// on the last push) wake the consumer's cell, a pop from a full buffer
/// wakes the producer's.
pub struct ExchangeBuffer {
    inner: Mutex<VecDeque<Vec<Tuple>>>,
    capacity: usize,
    closed: AtomicBool,
    producer: Arc<WakeCell>,
    consumer: Arc<WakeCell>,
}

impl ExchangeBuffer {
    /// A buffer holding at most `capacity` pages from `producer`'s task to
    /// `consumer`'s.
    pub fn new(capacity: usize, producer: Arc<WakeCell>, consumer: Arc<WakeCell>) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            closed: AtomicBool::new(false),
            producer,
            consumer,
        })
    }

    /// True when another page fits.
    pub fn has_space(&self) -> bool {
        self.inner.lock().len() < self.capacity
    }

    /// Non-blocking push of `page` (nothing when it is empty), closing
    /// the stream with it when `last`; hands the page back when full.
    pub fn try_push(&self, page: Vec<Tuple>, last: bool) -> Result<(), Vec<Tuple>> {
        let mut q = self.inner.lock();
        if !page.is_empty() && q.len() >= self.capacity {
            return Err(page);
        }
        let wake = last || (q.is_empty() && !page.is_empty());
        if !page.is_empty() {
            q.push_back(page);
        }
        if last {
            self.closed.store(true, Ordering::SeqCst);
        }
        drop(q);
        if wake {
            self.consumer.wake();
        }
        Ok(())
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<Vec<Tuple>> {
        let mut q = self.inner.lock();
        let was_full = q.len() >= self.capacity;
        let page = q.pop_front()?;
        drop(q);
        if was_full {
            self.producer.wake();
        }
        Some(page)
    }

    /// No more pages will ever arrive.
    pub fn is_finished(&self) -> bool {
        self.closed.load(Ordering::SeqCst) && self.inner.lock().is_empty()
    }
}

/// What a query ends with: its result rows, or its first error.
pub type QueryResult = EngineResult<Vec<Tuple>>;

/// The call a launched query ends in ([`StagedEngine::launch`]).
type Done = Box<dyn FnOnce(QueryResult) + Send>;

/// Per-query control block: the result so far, the call it ends in, and
/// cancellation.
pub struct QueryCtl {
    /// The pages delivered so far, or the first error.
    result: Mutex<QueryResult>,
    done: Mutex<Option<Done>>,
    cancelled: AtomicBool,
    /// Every task's cell, so a failure can wake whatever is parked.
    cells: Mutex<Vec<Arc<WakeCell>>>,
    /// The engine's count of live queries ([`StagedEngine::live_queries`]).
    live: Arc<AtomicUsize>,
}

impl QueryCtl {
    fn new(live: &Arc<AtomicUsize>, done: Done) -> Arc<Self> {
        live.fetch_add(1, Ordering::SeqCst);
        Arc::new(Self {
            result: Mutex::new(Ok(Vec::new())),
            done: Mutex::new(Some(done)),
            cancelled: AtomicBool::new(false),
            cells: Mutex::new(Vec::new()),
            live: Arc::clone(live),
        })
    }

    /// Add a page of result tuples (dropped once the query has failed).
    pub fn emit(&self, page: Vec<Tuple>) {
        if let Ok(rows) = &mut *self.result.lock() {
            rows.extend(page);
        }
    }

    /// Abort the query with an error (first error wins). The query's
    /// parked packets wait for buffers that will not move now, so every
    /// cell is woken: each packet fills its slot, finds the query
    /// cancelled and is dropped.
    pub fn fail(&self, e: EngineError) {
        if !self.cancelled.swap(true, Ordering::SeqCst) {
            *self.result.lock() = Err(e);
            let cells = std::mem::take(&mut *self.cells.lock());
            cells.iter().for_each(|c| c.wake());
        }
    }

    /// True once the query is aborted.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// The query's last packet let go: it ends. It is counted out first, so a
/// `done` that hands the query's slot on (the server's `disconnect`
/// reservation) can never let a new query start while this one still
/// counts as live.
impl Drop for QueryCtl {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
        if let Some(done) = self.done.get_mut().take() {
            done(std::mem::replace(self.result.get_mut(), Ok(Vec::new())));
        }
    }
}

/// A packet: one operator task plus its query control block.
pub struct TaskPacket {
    /// Control block.
    pub ctl: Arc<QueryCtl>,
    /// The operator state machine.
    pub task: Box<dyn OperatorTask>,
    /// Where the packet parks while the task is blocked.
    cell: Arc<WakeCell>,
}

/// Enqueue a leaf task packet at its query's launch. Once the engine is
/// shut down its queues refuse packets, and the query fails with
/// [`shut_down`] instead of ending silently short of rows. Every other
/// admission is the fill of a slot its packet holds ([`WakeCell`]).
fn submit(runtime: &StagedRuntime<TaskPacket>, stage: StageId, packet: TaskPacket) {
    if let Err(refused) = runtime.enqueue(stage, packet) {
        refused.into_packet().ctl.fail(shut_down());
    }
}

/// The error a query submitted to (or still running in) a shut-down engine
/// fails with, queued or served inline alike.
pub(crate) fn shut_down() -> EngineError {
    EngineError::Internal("staged engine is shut down".into())
}

/// Task packets a worker of every stage but `fscan` may serve per queue
/// visit (cohort scheduling, §4.2; knob (b) of §4.4); `fscan` serves one.
/// Gated service: a task that yields mid-visit goes to the back of the
/// queue and joins the *next* visit, so a cohort never spins on its own
/// yields.
pub const COHORT: usize = 8;

/// Pages each exchange buffer holds before its producer parks.
const BUFFER_DEPTH: usize = 4;

/// Tuning of the staged engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Tuples per exchanged page (knob (c) of §4.4), fixed for the
    /// engine's lifetime (DESIGN.md §12).
    pub batch_capacity: usize,
    /// Worker threads of every stage but `fscan`, and the least `fscan`
    /// runs ([`EngineConfig::scan_workers`]).
    pub workers_per_stage: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { batch_capacity: 256, workers_per_stage: 1 }
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
    live: Arc<AtomicUsize>,
}

impl StagedEngine {
    /// Build the engine and spawn its stage workers.
    pub fn new(ctx: ExecContext, config: EngineConfig) -> Arc<Self> {
        let mut builder = StagedRuntime::<TaskPacket>::builder();
        for kind in StageKind::ALL {
            // A scan quantum is thousands of rows, far longer than the
            // queue work a cohort would amortize (§4.2), so `fscan` serves
            // one packet per visit: a query's partition packets then go to
            // as many workers as are free, not all to the first one.
            let (workers, cohort) = match kind {
                StageKind::FScan => (config.scan_workers(), 1),
                _ => (config.workers_per_stage, COHORT),
            };
            let id = builder.add_stage(
                StageSpec::new(kind.name(), EngineStageLogic { kind })
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
        Arc::new(Self { runtime, ctx, config, live: Arc::default() })
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

    /// Exchange page size in tuples: [`EngineConfig::batch_capacity`],
    /// at least 1.
    pub fn page_size(&self) -> usize {
        self.config.batch_capacity.max(1)
    }

    /// Launch a plan. A lone index probe is answered on the calling thread
    /// before this returns: it hands back `payload` with the result, and
    /// `done` is dropped unused. Every other plan runs on the stage
    /// workers and `None` comes back at once; when the query ends, on
    /// whichever thread lets it go last, `done` gets `payload` and the
    /// rows or the first error (DESIGN.md §3, §11).
    pub fn launch<T: Send + 'static>(
        self: &Arc<Self>,
        plan: &PhysicalPlan,
        payload: T,
        done: impl FnOnce(T, QueryResult) + Send + 'static,
    ) -> Option<(T, QueryResult)> {
        if let Some(result) = tasks::lone_probe(self, plan) {
            return Some((payload, result));
        }
        let ctl = QueryCtl::new(&self.live, Box::new(move |r| done(payload, r)));
        tasks::compile_and_launch(self, plan, ctl);
        None
    }

    /// Submit a plan; returns a handle to wait on its result with.
    pub fn execute(self: &Arc<Self>, plan: &PhysicalPlan) -> StagedResult {
        let (tx, rx) = bounded(1);
        let deliver = |tx: Sender<_>, result| tx.send(result).unwrap_or(());
        if let Some((tx, result)) = self.launch(plan, tx, deliver) {
            deliver(tx, result);
        }
        StagedResult { rx }
    }

    /// Queries launched and not yet ended.
    pub fn live_queries(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Drain and stop the stages in `StageKind::ALL` order, the contract
    /// every server's `shutdown` keeps: a stage closes only when nothing
    /// is queued or in service there and no parked task holds a slot in
    /// it, so every query running when this is called ends with its rows
    /// or its error before it returns. A query launched after a stage it
    /// needs has closed fails with a shut-down error.
    pub fn shutdown(&self) {
        self.runtime.shutdown();
    }
}

/// One stage's logic: run a quantum of the dequeued task.
struct EngineStageLogic {
    kind: StageKind,
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
        // A task that panics fails its query: its packet is gone, and the
        // rest would otherwise wait in their cells for it for ever.
        let step = catch_unwind(AssertUnwindSafe(|| packet.task.step(DEFAULT_QUOTA)))
            .unwrap_or_else(|_| Err(EngineError::Internal("operator task panicked".into())));
        match step {
            Ok(StepResult::Done) => Ok(()),
            Ok(StepResult::Working) => {
                ctx.requeue_back(packet).map_err(|_| StageError::new("requeue failed"))
            }
            Ok(StepResult::Blocked) => {
                Arc::clone(&packet.cell).park(ctx.stage_id, packet);
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

/// Handle to a staged query's result.
pub struct StagedResult {
    rx: Receiver<QueryResult>,
}

impl StagedResult {
    /// Block until the query ends, returning all its tuples.
    pub fn collect(self) -> QueryResult {
        self.rx.recv().unwrap_or_else(|_| Err(shut_down()))
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
pub(crate) mod tests {
    use super::*;
    use crate::volcano;
    use staged_planner::{plan_select, PlannerConfig};
    use staged_sql::binder::{BindContext, Binder};
    use staged_sql::parser::parse_statement;
    use staged_sql::Statement;
    use staged_storage::{BufferPool, Catalog, Column, DataType, MemDisk, Schema, Value};
    use std::time::{Duration, Instant};

    fn engine(batch_capacity: usize) -> Arc<StagedEngine> {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 64)));
        let cfg = EngineConfig { batch_capacity, ..Default::default() };
        StagedEngine::new(ExecContext::new(cat), cfg)
    }

    /// A query control block of its own, outside the engine's live count.
    fn ctl() -> (Arc<QueryCtl>, Receiver<QueryResult>) {
        ctl_of(&Arc::default())
    }

    /// A query control block counted in `live`; its result arrives on the
    /// receiver.
    fn ctl_of(live: &Arc<AtomicUsize>) -> (Arc<QueryCtl>, Receiver<QueryResult>) {
        let (tx, rx) = bounded(1);
        let done = move |result| {
            let _ = tx.send(result);
        };
        (QueryCtl::new(live, Box::new(done)), rx)
    }

    /// A buffer of `capacity` pages between two cells of a query of its own.
    pub(crate) fn detached_buffer(engine: &StagedEngine, capacity: usize) -> Arc<ExchangeBuffer> {
        let (ctl, _) = ctl();
        let cell = || WakeCell::new(engine.runtime(), &ctl);
        ExchangeBuffer::new(capacity, cell(), cell())
    }

    fn page() -> Vec<Tuple> {
        vec![Tuple::new(vec![Value::Int(1)])]
    }

    /// A task that counts its admissions and blocks every time, so each
    /// one ends parked in its cell again.
    struct Stalled(Arc<AtomicUsize>);

    impl OperatorTask for Stalled {
        fn step(&mut self, _quota: usize) -> EngineResult<StepResult> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Ok(StepResult::Blocked)
        }
    }

    /// Park a [`Stalled`] task of `ctl`'s query in `cell`; returns its
    /// admission count.
    fn park_stalled(
        engine: &StagedEngine,
        ctl: &Arc<QueryCtl>,
        cell: &Arc<WakeCell>,
    ) -> Arc<AtomicUsize> {
        let steps = Arc::new(AtomicUsize::new(0));
        let task = Box::new(Stalled(Arc::clone(&steps)));
        let packet = TaskPacket { ctl: Arc::clone(ctl), task, cell: Arc::clone(cell) };
        cell.park(engine.stage_id(StageKind::Join), packet);
        steps
    }

    /// Wait until `steps` reaches `n`, then check it stays there: the
    /// packet went back to its cell and nothing re-admitted it again.
    fn admitted(steps: &AtomicUsize, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while steps.load(Ordering::SeqCst) < n {
            assert!(
                Instant::now() < deadline,
                "admitted {} times, want {n}",
                steps.load(Ordering::SeqCst)
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(steps.load(Ordering::SeqCst), n, "admitted more than once per wake");
    }

    #[test]
    fn a_wake_before_the_park_readmits_at_once() {
        let engine = engine(256);
        let (ctl, _rx) = ctl();
        let cell = WakeCell::new(engine.runtime(), &ctl);
        cell.wake();
        let steps = park_stalled(&engine, &ctl, &cell);
        admitted(&steps, 1);
        // Back in the cell with no wake pending: it stays parked.
        cell.wake();
        admitted(&steps, 2);
        // Failing the query drains it: re-admitted, found cancelled, dropped.
        ctl.fail(shut_down());
        drop(ctl);
        engine.shutdown();
    }

    #[test]
    fn a_pop_from_a_full_buffer_readmits_the_parked_producer_once() {
        let engine = engine(256);
        let (ctl, _rx) = ctl();
        let (producer, consumer) =
            (WakeCell::new(engine.runtime(), &ctl), WakeCell::new(engine.runtime(), &ctl));
        let buf = ExchangeBuffer::new(2, Arc::clone(&producer), consumer);
        buf.try_push(page(), false).unwrap();
        buf.try_push(page(), false).unwrap();
        assert!(buf.try_push(page(), false).is_err(), "full at depth 2");
        let steps = park_stalled(&engine, &ctl, &producer);
        admitted(&steps, 0);
        buf.try_pop().unwrap();
        admitted(&steps, 1);
        buf.try_pop().unwrap();
        assert!(buf.try_pop().is_none());
        admitted(&steps, 1); // neither pop found the buffer full
        ctl.fail(shut_down());
        drop(ctl);
        engine.shutdown();
    }

    #[test]
    fn a_push_readmits_the_parked_consumer_once() {
        let engine = engine(256);
        let (ctl, _rx) = ctl();
        let (producer, consumer) =
            (WakeCell::new(engine.runtime(), &ctl), WakeCell::new(engine.runtime(), &ctl));
        let buf = ExchangeBuffer::new(4, producer, Arc::clone(&consumer));
        let steps = park_stalled(&engine, &ctl, &consumer);
        admitted(&steps, 0);
        buf.try_push(page(), false).unwrap();
        admitted(&steps, 1);
        buf.try_push(page(), false).unwrap();
        admitted(&steps, 1); // the buffer was not empty: nobody waits on it
        buf.try_push(Vec::new(), true).unwrap();
        admitted(&steps, 2);
        ctl.fail(shut_down());
        drop(ctl);
        engine.shutdown();
    }

    #[test]
    fn a_failed_input_leaves_no_packet_parked() {
        // Pages of one tuple: the join's other input fills its buffer at
        // once and parks on it, while the failing input dies at row 400.
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 64)));
        let schema =
            |a, b| Schema::new(vec![Column::new(a, DataType::Int), Column::new(b, DataType::Int)]);
        let t = cat.create_table("t", schema("a", "g")).unwrap();
        let u = cat.create_table("u", schema("a", "w")).unwrap();
        for i in 0..500i64 {
            t.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Int(i % 7)])).unwrap();
            u.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Int(i % 3)])).unwrap();
        }
        let sql = "SELECT t.a, u.w FROM t, u WHERE t.a = u.a AND 10 / (t.a - 400) < 100";
        let Statement::Select(sel) = parse_statement(sql).unwrap() else { unreachable!() };
        let bound = Binder::new(BindContext::new(&cat)).bind_select(sel).unwrap();
        let plan = plan_select(&bound, &cat, &PlannerConfig::default()).unwrap();
        let ctx = ExecContext::new(Arc::clone(&cat));
        assert!(volcano::run(&plan, &ctx).is_err());
        let engine =
            StagedEngine::new(ctx, EngineConfig { batch_capacity: 1, ..Default::default() });
        for _ in 0..20 {
            // The result arrives only when the query's control block
            // drops, which a packet left in a cell would prevent for ever.
            match engine.execute(&plan).rx.recv_timeout(Duration::from_secs(10)) {
                Ok(result) => assert!(result.is_err()),
                Err(_) => panic!("a packet of the failed query is stranded"),
            }
        }
        engine.shutdown();
    }

    /// A task whose every quantum panics.
    struct Panics;

    impl OperatorTask for Panics {
        fn step(&mut self, _quota: usize) -> EngineResult<StepResult> {
            panic!("a planted operator bug")
        }
    }

    #[test]
    fn a_task_that_panics_fails_its_query_and_leaves_nothing_parked() {
        let engine = engine(256);
        let (ctl, rx) = ctl_of(&engine.live);
        // One task of the query waits parked for input from the one that
        // panics.
        let waiting = WakeCell::new(engine.runtime(), &ctl);
        let steps = park_stalled(&engine, &ctl, &waiting);
        let cell = WakeCell::new(engine.runtime(), &ctl);
        let task = Box::new(Panics);
        submit(engine.runtime(), engine.stage_id(StageKind::Join), TaskPacket { ctl, task, cell });
        let result = rx.recv_timeout(Duration::from_secs(10)).expect("the query ended");
        assert!(
            matches!(&result, Err(EngineError::Internal(m)) if m.contains("panicked")),
            "{result:?}"
        );
        assert_eq!(steps.load(Ordering::SeqCst), 0, "the waiting task was dropped, not run");
        assert_eq!(engine.live_queries(), 0);
        engine.shutdown();
        // The panic was booked as one failed packet of the stage.
        assert_eq!(engine.runtime().stats()[engine.stage_id(StageKind::Join)].errors, 1);
    }

    #[test]
    fn exchange_buffer_backpressure_and_close() {
        let engine = engine(256);
        let b = detached_buffer(&engine, 2);
        assert!(b.try_push(page(), false).is_ok());
        assert!(b.try_push(page(), false).is_ok());
        assert!(b.try_push(page(), false).is_err(), "full at depth 2");
        assert!(!b.is_finished());
        b.try_push(Vec::new(), true).unwrap();
        assert!(!b.is_finished(), "still has queued pages");
        b.try_pop().unwrap();
        b.try_pop().unwrap();
        assert!(b.is_finished());
        assert!(b.try_pop().is_none());
        engine.shutdown();
    }
}
