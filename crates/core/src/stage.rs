//! The stage abstraction: "an independent server with its own queue, thread
//! support, and resource management that communicates and interacts with the
//! other stages through a well-defined interface" (paper §4.1).

use crate::error::{EnqueueError, StageError};
use crate::runtime::{Reservation, RuntimeShared};
use std::cell::RefCell;
use std::sync::Arc;

/// Index of a stage inside a runtime. Stable for the runtime's lifetime.
pub type StageId = usize;

/// How a production stage's workers form *cohorts* — the batches of packets
/// served during one queue visit (paper §4.2: cohort scheduling amortizes
/// the module "load time" over a whole visit).
///
/// The production runtime serves one of the §4.2 disciplines, D-gated;
/// the full policy space of [`crate::policy`] (non-gated and T-gated(k)
/// included) is studied where it can be measured deterministically, in
/// [`crate::coop`] and `staged-sim` (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// One packet per visit, taken from the stage's own queue by the
    /// stage's own workers — and nothing else: the runtime never *follows*
    /// a packet into a `Single` stage (see [`StageCtx::send`]), so every
    /// packet it serves went through its bounded queue. Kept by stages
    /// whose queue bound is itself the point (the server's `net` admission
    /// stage: its queue *is* the admission limit, and load served past it
    /// on another thread would be load admitted past it) or whose worker
    /// may block for long inside `process` (the threaded baseline's `pool`
    /// stage, whose workers wait for partition locks in `lock_all`). A
    /// stage that merely needs its state
    /// protected should lock it instead: a followed packet runs
    /// concurrently with the stage's own workers, exactly as a second
    /// worker would.
    Single,
    /// Gated service: the visit serves only the packets already queued
    /// when it starts (up to the cohort bound); later arrivals wait for
    /// the next visit.
    DGated,
}

/// Outcome of processing one packet; mirrors the three cases of §4.1.1.
///
/// The stage code returns by either (i) destroying the packet, (ii)
/// forwarding it to another stage, or (iii) enqueueing it back into the same
/// stage's queue. Cases (ii) and (iii) are performed through [`StageCtx`];
/// the return value only signals success for monitoring purposes.
pub type StageResult = Result<(), StageError>;

/// The stage-specific server code, "contained within dequeue" (§4.1.1).
///
/// Implementations must be `Send + Sync` because a stage runs a pool of
/// worker threads over shared logic; per-query state belongs in the packet's
/// backpack, per-stage state behind interior mutability inside the logic —
/// this is precisely the paper's "each stage exclusively owns data structures
/// and sources".
pub trait StageLogic<P: Send + 'static>: Send + Sync + 'static {
    /// Process one packet. Forward work with [`StageCtx::send`], requeue with
    /// [`StageCtx::requeue_back`], or drop the packet to destroy it.
    fn process(&self, packet: P, ctx: &StageCtx<'_, P>) -> StageResult;

    /// Called when a worker finds the queue empty (after a poll timeout).
    /// Stages use this for housekeeping (flushing buffers, pumping feeds).
    fn on_idle(&self, _ctx: &StageCtx<'_, P>) {}
}

/// Blanket impl so plain closures can act as stages in tests and examples.
impl<P, F> StageLogic<P> for F
where
    P: Send + 'static,
    F: Fn(P, &StageCtx<'_, P>) -> StageResult + Send + Sync + 'static,
{
    fn process(&self, packet: P, ctx: &StageCtx<'_, P>) -> StageResult {
        self(packet, ctx)
    }
}

/// Static description of a stage, handed to the runtime builder. Every
/// parameter is fixed for the runtime's lifetime.
pub struct StageSpec<P: Send + 'static> {
    /// Stage name (unique within a runtime).
    pub name: String,
    /// The stage's server code.
    pub logic: Arc<dyn StageLogic<P>>,
    /// Capacity of the incoming packet queue.
    pub queue_capacity: usize,
    /// Number of worker threads.
    pub workers: usize,
    /// How workers form cohorts during a queue visit.
    pub batch: BatchPolicy,
    /// Upper bound on the packets one visit serves (ignored by
    /// [`BatchPolicy::Single`] stages, which serve one).
    pub max_cohort: usize,
}

impl<P: Send + 'static> StageSpec<P> {
    /// A spec with the given name and logic, queue capacity 64, 1 worker,
    /// gated cohorts of at most [`DEFAULT_MAX_COHORT`] packets.
    pub fn new(name: impl Into<String>, logic: impl StageLogic<P>) -> Self {
        Self {
            name: name.into(),
            logic: Arc::new(logic),
            queue_capacity: 64,
            workers: 1,
            batch: BatchPolicy::DGated,
            max_cohort: DEFAULT_MAX_COHORT,
        }
    }

    /// Set the queue capacity.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    /// Set the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the cohort policy.
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Set the cohort bound (min 1).
    pub fn with_max_cohort(mut self, max: usize) -> Self {
        self.max_cohort = max.max(1);
        self
    }
}

/// Default cohort bound for new stages.
pub const DEFAULT_MAX_COHORT: usize = 16;

/// Handle a stage uses to interact with the rest of the pipeline while
/// processing a packet.
pub struct StageCtx<'a, P: Send + 'static> {
    pub(crate) shared: &'a Arc<RuntimeShared<P>>,
    /// The stage this context belongs to.
    pub stage_id: StageId,
    /// Visit-scoped forward buffer (cohort scheduling, §4.2). When the
    /// runtime serves a queue visit it collects the visit's outgoing
    /// packets here and flushes them per destination in batches — one
    /// downstream lock acquisition and a bounded wake-up per flush,
    /// instead of one per packet. `None` in contexts with no visit (tests
    /// building a bare ctx).
    pub(crate) outbox: Option<RefCell<Vec<(StageId, P)>>>,
}

impl<'a, P: Send + 'static> StageCtx<'a, P> {
    /// Forward a packet to another stage.
    ///
    /// During a runtime visit the forward is *buffered*: it is delivered
    /// (in order, blocking under back-pressure) when the worker flushes —
    /// at the latest at visit end — so the call itself always succeeds
    /// and a pipeline-closed failure is accounted as a stage error at
    /// flush time instead of here.
    ///
    /// Delivery is not always an enqueue. When a visit ends with exactly
    /// one buffered forward, nobody is waiting in the worker's own queue,
    /// and the destination is idle, cheap (mean demand under a fixed few
    /// hand-offs' worth) and not [`BatchPolicy::Single`], the worker
    /// *follows* the packet: it calls the destination's
    /// [`StageLogic::process`] itself, with a context whose `stage_id` is
    /// the destination's, and books the service on the destination's
    /// monitor (`StageStats::followed`). Stage code cannot tell the
    /// difference except by its thread name; what it must not assume is
    /// that `workers` bounds how many threads run `process` at once.
    pub fn send(&self, dest: StageId, packet: P) -> Result<(), EnqueueError<P>> {
        if let Some(out) = &self.outbox {
            out.borrow_mut().push((dest, packet));
            return Ok(());
        }
        self.shared.enqueue(dest, packet)
    }

    /// Forward without blocking (overload paths use this to shed load).
    pub fn try_send(&self, dest: StageId, packet: P) -> Result<(), EnqueueError<P>> {
        self.shared.try_enqueue(dest, packet)
    }

    /// Put a packet at the back of this stage's own queue (paper case iii:
    /// "there is more work but the client needs to wait on some
    /// condition"; the staged execution engine's yield after a quantum
    /// that made progress, §4.3). Buffered like
    /// [`send`](Self::send) during a visit; the flush appends self-requeues
    /// capacity-exempt, so a yielding cohort can never deadlock its own
    /// stage.
    pub fn requeue_back(&self, packet: P) -> Result<(), EnqueueError<P>> {
        if let Some(out) = &self.outbox {
            out.borrow_mut().push((self.stage_id, packet));
            return Ok(());
        }
        self.shared.enqueue(self.stage_id, packet)
    }

    /// Hold a counted slot in `dest`'s queue for this packet, which leaves
    /// the pipeline to wait elsewhere and comes back through the
    /// [`Reservation`]. Blocks while `dest` is full, like a forward under
    /// back-pressure; `None` once `dest` is closed.
    pub fn reserve(&self, dest: StageId) -> Option<Reservation<P>> {
        self.shared.reserve(dest, true)
    }

    /// Hold an uncounted slot in `dest`'s queue: like
    /// [`reserve`](Self::reserve), but it takes no room from the capacity
    /// and never blocks, so a stage may hold one in its own queue for a
    /// packet it parks.
    pub fn hold(&self, dest: StageId) -> Option<Reservation<P>> {
        self.shared.reserve(dest, false)
    }

    /// Look up a stage id by name.
    pub fn stage_id_of(&self, name: &str) -> Option<StageId> {
        self.shared.stage_id(name)
    }

    /// Report that the current packet was requeued to wait on a condition
    /// (case iii of §4.1.1). The lock-manager stage calls this on every
    /// conflict-requeue, so `StageStats::retries` exposes lock contention.
    pub fn record_retry(&self) {
        self.shared.stage(self.stage_id).monitor.record_retry();
    }
}
