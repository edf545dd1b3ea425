//! The OS-threaded staged runtime.
//!
//! Each stage gets a bounded queue and a pool of worker threads that
//! "continuously call dequeue on the stage's queue" (§4.1.1). On a
//! multiprocessor this is the natural mapping of §5.3 — stages run in
//! parallel and the OS spreads their workers over the CPUs. Deterministic
//! single-CPU scheduling experiments use [`crate::coop`] instead.
//!
//! Workers serve the queue in **cohorts** (paper §4.2's cohort
//! scheduling): one queue visit grabs a batch of packets under a single
//! lock acquisition and processes them back to back, amortizing the
//! stage's "load time" — instruction/data cache warm-up, queue
//! synchronization, monitoring — over the whole visit. The per-stage
//! [`BatchPolicy`] picks gated cohorts or one packet per visit.
//!
//! A stage's worker count, policy, cohort bound and queue capacity are
//! fixed when the runtime is built: §4.4's self-tuning of these knobs is
//! not implemented (DESIGN.md §11 gives the static defaults and why).
//!
//! When no cohort forms — one packet in the visit, nothing waiting behind
//! it — a hand-off buys no locality and costs a thread wake-up, so the
//! worker *follows* a lone forward into an idle, cheap destination and
//! runs that stage's code itself (`take_lone_forward`, DESIGN.md §11).
//!
//! A packet that must wait on something outside the pipeline leaves it
//! with a [`Reservation`] of its next stage's queue, and comes back into
//! that slot when the wait ends, so no worker waits with it (§4.1.1 case
//! iii).

use crate::error::EnqueueError;
use crate::monitor::{snapshot, StageMonitor, StageStats};
use crate::queue::{DequeuedCohort, StageQueue};
use crate::stage::{BatchPolicy, StageCtx, StageId, StageLogic, StageSpec};
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shortest wait on an empty queue before running the idle hook. An idle
/// worker parks on the queue's condvar (it is woken instantly by the next
/// enqueue); this timeout only paces the idle *hook* and the stats
/// counter, and doubles per consecutive idle wakeup up to
/// [`IDLE_POLL_MAX`] so a quiet stage stops burning wakeups.
const IDLE_POLL: Duration = Duration::from_millis(20);
/// Longest idle-hook interval the exponential backoff reaches.
const IDLE_POLL_MAX: Duration = Duration::from_millis(640);

pub(crate) struct StageInner<P: Send + 'static> {
    pub(crate) name: String,
    pub(crate) queue: StageQueue<P>,
    logic: Arc<dyn StageLogic<P>>,
    pub(crate) monitor: StageMonitor,
    batch: BatchPolicy,
    /// Packets one visit serves at most: 1 for [`BatchPolicy::Single`].
    batch_limit: usize,
    workers: usize,
}

impl<P: Send + 'static> StageInner<P> {
    /// The demand test of following: the stage has a demand estimate —
    /// mean service time per packet — and it is under
    /// [`FOLLOW_MAX_DEMAND`]. No estimate yet means no follow.
    fn cheap_to_follow(&self) -> bool {
        let processed = self.monitor.processed();
        processed > 0 && self.monitor.busy_nanos() / processed < FOLLOW_MAX_DEMAND.as_nanos() as u64
    }

    /// Book one packet this stage served on a thread other than its own
    /// workers': service time (or the error) plus a followed visit of one.
    fn record_followed(&self, ok: bool, busy: Duration) {
        if ok {
            self.monitor.record_processed(busy);
        } else {
            self.monitor.record_error();
        }
        self.monitor.record_followed();
    }
}

/// Shared state between the runtime handle and its workers.
pub struct RuntimeShared<P: Send + 'static> {
    stages: Vec<StageInner<P>>,
}

impl<P: Send + 'static> RuntimeShared<P> {
    pub(crate) fn stage(&self, id: StageId) -> &StageInner<P> {
        &self.stages[id]
    }

    pub(crate) fn stage_id(&self, name: &str) -> Option<StageId> {
        self.stages.iter().position(|s| s.name == name)
    }

    pub(crate) fn enqueue(&self, dest: StageId, packet: P) -> Result<(), EnqueueError<P>> {
        self.stages[dest].queue.enqueue(packet)
    }

    pub(crate) fn try_enqueue(&self, dest: StageId, packet: P) -> Result<(), EnqueueError<P>> {
        self.stages[dest].queue.try_enqueue(packet)
    }
}

/// A slot held in a stage's queue ([`StageQueue::reserve`]) for a packet
/// that is waiting outside the pipeline and will come back into that
/// stage: [`fill`](Self::fill) puts it there from whichever thread sees
/// the wait end. The slot counts against the queue's capacity, which
/// bounds how many packets wait outside at once, and keeps the queue from
/// going quiet, so `shutdown` waits for the packet before it closes the
/// stage. Dropped unfilled, it gives the slot back.
pub struct Reservation<P: Send + 'static> {
    pub(crate) shared: Arc<RuntimeShared<P>>,
    pub(crate) stage: StageId,
    pub(crate) held: bool,
}

impl<P: Send + 'static> Reservation<P> {
    /// Put `packet` in the held slot. Never blocks.
    pub fn fill(mut self, packet: P) {
        self.held = false;
        self.shared.stage(self.stage).queue.fill(packet);
    }
}

impl<P: Send + 'static> Drop for Reservation<P> {
    fn drop(&mut self) {
        if self.held {
            self.shared.stage(self.stage).queue.release();
        }
    }
}

/// Builder for [`StagedRuntime`].
pub struct RuntimeBuilder<P: Send + 'static> {
    specs: Vec<StageSpec<P>>,
}

impl<P: Send + 'static> Default for RuntimeBuilder<P> {
    fn default() -> Self {
        Self { specs: Vec::new() }
    }
}

impl<P: Send + 'static> RuntimeBuilder<P> {
    /// Add a stage; returns its [`StageId`] (ids are assigned in call order).
    pub fn add_stage(&mut self, spec: StageSpec<P>) -> StageId {
        assert!(
            self.specs.iter().all(|s| s.name != spec.name),
            "duplicate stage name {:?}",
            spec.name
        );
        self.specs.push(spec);
        self.specs.len() - 1
    }

    /// Construct the runtime and spawn every stage's worker pool.
    pub fn build(self) -> StagedRuntime<P> {
        let stages: Vec<StageInner<P>> = self
            .specs
            .into_iter()
            .map(|spec| StageInner {
                name: spec.name,
                queue: StageQueue::new(spec.queue_capacity),
                logic: spec.logic,
                monitor: StageMonitor::default(),
                batch: spec.batch,
                batch_limit: match spec.batch {
                    BatchPolicy::Single => 1,
                    BatchPolicy::DGated => spec.max_cohort.max(1),
                },
                workers: spec.workers,
            })
            .collect();
        let shared = Arc::new(RuntimeShared { stages });
        let mut handles = Vec::new();
        for (id, stage) in shared.stages.iter().enumerate() {
            for rank in 0..stage.workers {
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("stage-{}-{rank}", stage.name))
                    .spawn(move || worker_loop(shared, id))
                    .expect("failed to spawn stage worker");
                handles.push(handle);
            }
        }
        StagedRuntime { shared, handles: Arc::new(Mutex::new(handles)) }
    }
}

/// A running staged server: a set of stages plus their worker threads.
///
/// Cloning yields another handle to the same runtime.
pub struct StagedRuntime<P: Send + 'static> {
    shared: Arc<RuntimeShared<P>>,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl<P: Send + 'static> Clone for StagedRuntime<P> {
    fn clone(&self) -> Self {
        Self { shared: Arc::clone(&self.shared), handles: Arc::clone(&self.handles) }
    }
}

impl<P: Send + 'static> StagedRuntime<P> {
    /// Start building a runtime.
    pub fn builder() -> RuntimeBuilder<P> {
        RuntimeBuilder::default()
    }

    /// Inject a packet into a stage from outside the pipeline (blocking under
    /// back-pressure). This is how clients submit work.
    pub fn enqueue(&self, dest: StageId, packet: P) -> Result<(), EnqueueError<P>> {
        self.shared.enqueue(dest, packet)
    }

    /// Non-blocking injection; `Full` means the server is overloaded and the
    /// caller should shed or retry (paper §5.2 overload behaviour).
    pub fn try_enqueue(&self, dest: StageId, packet: P) -> Result<(), EnqueueError<P>> {
        self.shared.try_enqueue(dest, packet)
    }

    /// Put packets that were admitted once already back on `stage`'s queue
    /// (at the back, exempt from the capacity bound and the closed flag).
    /// This is how a stage that parked packets *outside* its queue to wait
    /// on a condition (§4.1.1 case iii) re-admits them when the condition
    /// changes — from whichever thread saw it change.
    pub fn readmit(&self, stage: StageId, packets: Vec<P>) {
        self.shared.stages[stage].queue.requeue_back_batch(packets);
    }

    /// Run one packet's worth of `stage`'s work, `f`, on the calling thread
    /// and book it on the stage's monitor exactly as a followed packet is
    /// booked: service time (or an error), `followed`, a cohort of one. A
    /// caller that would only block until the stage's answer came back
    /// pays no hand-off this way and the stage's statistics stay whole.
    ///
    /// Returns `None` without running `f` once the stage's queue is closed
    /// (`shutdown`), where an enqueue would have been refused.
    pub fn serve_inline<T, E>(
        &self,
        stage: StageId,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<Result<T, E>> {
        let inner = &self.shared.stages[stage];
        if inner.queue.is_closed() {
            return None;
        }
        let start = Instant::now();
        let res = f();
        inner.record_followed(res.is_ok(), start.elapsed());
        Some(res)
    }

    /// Snapshot statistics for every stage.
    pub fn stats(&self) -> Vec<StageStats> {
        self.shared
            .stages
            .iter()
            .enumerate()
            .map(|(id, s)| {
                snapshot(&s.name, id, &s.monitor, s.queue.stats(), s.batch_limit, s.workers)
            })
            .collect()
    }

    /// Drain and stop the runtime. Stages are drained and closed in
    /// registration order (for servers this is pipeline order), so packets
    /// in flight — including producers blocked on a downstream queue under
    /// back-pressure, and packets waiting outside on a [`Reservation`] —
    /// complete before their stage closes.
    pub fn shutdown(&self) {
        for s in &self.shared.stages {
            // Wait until nothing is queued, no visit is open (a worker
            // following a packet keeps its home visit open throughout) and
            // no slot is held.
            s.queue.wait_quiet();
            s.queue.close();
        }
        let handles: Vec<_> = self.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Buffered forwards are flushed once the visit has this many pending, so
/// a long visit still overlaps with its downstream stages on an SMP.
const FLUSH_THRESHOLD: usize = 8;

fn worker_loop<P: Send + 'static>(shared: Arc<RuntimeShared<P>>, stage: StageId) {
    let mut ctx = StageCtx {
        shared: &shared,
        stage_id: stage,
        outbox: Some(std::cell::RefCell::new(Vec::new())),
    };
    let inner = shared.stage(stage);
    let mut idle_wait = IDLE_POLL;
    loop {
        match inner.queue.dequeue_batch(inner.batch_limit, idle_wait) {
            DequeuedCohort::Cohort(cohort) => {
                idle_wait = IDLE_POLL;
                serve_visit(inner, &mut ctx, cohort);
            }
            DequeuedCohort::TimedOut => {
                // The worker was parked on the condvar the whole time (an
                // enqueue wakes it instantly); the timeout only paces the
                // idle hook, so back off exponentially while quiet.
                inner.monitor.record_idle_poll();
                inner.logic.on_idle(&ctx);
                flush_outbox(&ctx);
                idle_wait = (idle_wait * 2).min(IDLE_POLL_MAX);
            }
            DequeuedCohort::Closed => {
                flush_outbox(&ctx);
                return;
            }
        }
    }
}

/// A stage is followed into only while its mean demand per packet stays
/// under this: a few thread hand-offs' worth (one costs 20–35 µs on the
/// boxes this was measured on). Past that, serving the packet on the
/// sender's thread would hold the sender's own queue up for longer than
/// the wake-ups it saves. It is a constant, not a knob: it compares two
/// costs of the machine, not of a workload (DESIGN.md §11).
const FOLLOW_MAX_DEMAND: Duration = Duration::from_micros(100);

/// Deliver the buffered forwards of `ctx`'s stage: consecutive
/// same-destination runs become one batched enqueue (a single downstream
/// lock acquisition and a bounded wake-up), self-requeues rejoin this
/// stage's queue capacity-exempt. Packets bound for a closed queue
/// (shutdown) are dropped and counted as this stage's errors — the same
/// fate a direct send's error return used to record.
fn flush_outbox<P: Send + 'static>(ctx: &StageCtx<'_, P>) {
    let Some(cell) = &ctx.outbox else { return };
    // Take the buffer before flushing: an enqueue may block under
    // back-pressure and nothing may hold the borrow across that.
    let mut items = std::mem::take(&mut *cell.borrow_mut());
    let (shared, stage) = (ctx.shared, ctx.stage_id);
    let mut iter = items.drain(..).peekable();
    while let Some((dest, pkt)) = iter.next() {
        let queue = &shared.stage(dest).queue;
        let dropped = if iter.peek().is_none_or(|(d, _)| *d != dest) {
            // A run of one — the common case — moves without a `Vec`.
            if dest == stage {
                queue.requeue_back(pkt);
                0
            } else {
                queue.enqueue(pkt).map_or(1, |()| 0)
            }
        } else {
            let mut run = vec![pkt];
            while iter.peek().is_some_and(|(d, _)| *d == dest) {
                run.push(iter.next().expect("peeked").1);
            }
            if dest == stage {
                queue.requeue_back_batch(run);
                0
            } else {
                queue.enqueue_batch(run).err().unwrap_or(0)
            }
        };
        for _ in 0..dropped {
            shared.stage(stage).monitor.record_error();
        }
    }
    drop(iter);
    // Hand the emptied buffer back so its capacity is reused.
    *cell.borrow_mut() = items;
}

/// The follow test (DESIGN.md §11). At the end of a visit, take the
/// outbox's packet — and open a visit on its destination — when all of
/// these hold:
///
/// 1. the outbox holds exactly one packet, bound for another stage;
/// 2. the destination is not [`BatchPolicy::Single`];
/// 3. the destination has a demand estimate and it is under
///    [`FOLLOW_MAX_DEMAND`];
/// 4. the worker's home queue is empty (nobody is waiting for it);
/// 5. the destination is idle: nothing queued, no visit in progress.
///
/// Under load (4) and (5) fail, the packet is enqueued as always and
/// cohorts form downstream.
fn take_lone_forward<P: Send + 'static>(
    home: &StageInner<P>,
    ctx: &StageCtx<'_, P>,
) -> Option<(StageId, P)> {
    let mut out = ctx.outbox.as_ref()?.borrow_mut();
    let &[(dest, _)] = out.as_slice() else { return None };
    let to = ctx.shared.stage(dest);
    if dest == ctx.stage_id || to.batch == BatchPolicy::Single || !to.cheap_to_follow() {
        return None;
    }
    if !home.queue.is_empty() || !to.queue.try_begin_visit() {
        return None;
    }
    out.pop()
}

/// Serve one queue visit: a cohort of packets processed back to back
/// (paper §4.2 — the batching that amortizes the stage's load time).
///
/// The visit ends by delivering what it buffered — or, for a lone forward
/// into an idle cheap stage, by following it (see [`take_lone_forward`]):
/// the worker runs the destination's code itself, under a context that
/// carries the destination's id and books the service on the
/// destination's monitor, and repeats until a condition fails. The home
/// visit stays open throughout and each followed stage's visit stays open
/// until the packet has moved on, so `shutdown` waits for the chain.
fn serve_visit<P: Send + 'static>(
    inner: &StageInner<P>,
    ctx: &mut StageCtx<'_, P>,
    cohort: Vec<P>,
) {
    let home = ctx.stage_id;
    let served = cohort.len();
    // Timestamps are chained packet to packet: one clock read per packet
    // closes packet i and opens packet i+1, halving the per-packet timer
    // overhead of the old one-at-a-time loop.
    let mut last = Instant::now();
    for p in cohort {
        let ok = inner.logic.process(p, ctx).is_ok();
        let now = Instant::now();
        if ok {
            inner.monitor.record_processed(now.duration_since(last));
        } else {
            inner.monitor.record_error();
        }
        last = now;
        // Keep downstream stages fed during long visits. The flush can
        // block under back-pressure, so the timestamp chain restarts
        // after it — queue-wait must not read as service demand.
        if ctx.outbox.as_ref().is_some_and(|o| o.borrow().len() >= FLUSH_THRESHOLD) {
            flush_outbox(ctx);
            last = Instant::now();
        }
    }
    inner.monitor.record_cohort(served);
    // Deliver or follow. Whatever the last stage served leaves in the
    // outbox reaches a queue (or the next followed stage) before that
    // stage's visit closes: shutdown's quiesce check must always find an
    // in-flight packet either queued or under an open visit.
    let mut serving: Option<&StageInner<P>> = None;
    loop {
        let next = take_lone_forward(inner, ctx);
        if next.is_none() {
            flush_outbox(ctx);
        }
        if let Some(done) = serving.take() {
            done.queue.end_visit();
        }
        let Some((dest, pkt)) = next else { break };
        let stage = ctx.shared.stage(dest);
        ctx.stage_id = dest;
        let ok = stage.logic.process(pkt, ctx).is_ok();
        let now = Instant::now();
        stage.record_followed(ok, now.duration_since(last));
        last = now;
        serving = Some(stage);
    }
    ctx.stage_id = home;
    inner.queue.end_visit();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::StageResult;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::mpsc;

    fn ok_stage<P: Send + 'static>(
        f: impl Fn(P, &StageCtx<'_, P>) + Send + Sync + 'static,
    ) -> impl StageLogic<P> {
        move |p: P, ctx: &StageCtx<'_, P>| -> StageResult {
            f(p, ctx);
            Ok(())
        }
    }

    #[test]
    fn two_stage_pipeline_forwards_packets() {
        let (tx, rx) = mpsc::channel::<u64>();
        let mut b = StagedRuntime::<u64>::builder();
        let first = b.add_stage(StageSpec::new(
            "double",
            |p: u64, ctx: &StageCtx<'_, u64>| -> StageResult {
                let sink = ctx.stage_id_of("sink").unwrap();
                ctx.send(sink, p * 2).map_err(|_| crate::StageError::new("send"))?;
                Ok(())
            },
        ));
        let tx2 = Mutex::new(tx);
        b.add_stage(StageSpec::new(
            "sink",
            ok_stage(move |p: u64, _ctx: &StageCtx<'_, u64>| {
                tx2.lock().send(p).unwrap();
            }),
        ));
        let rt = b.build();
        for i in 0..10 {
            rt.enqueue(first, i).unwrap();
        }
        let mut got: Vec<u64> =
            (0..10).map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        rt.shutdown();
        let stats = rt.stats();
        assert_eq!(stats[0].processed, 10);
        assert_eq!(stats[1].processed, 10);
    }

    #[test]
    fn errors_are_counted_not_fatal() {
        let mut b = StagedRuntime::<u32>::builder();
        let s = b.add_stage(StageSpec::new(
            "flaky",
            |p: u32, _ctx: &StageCtx<'_, u32>| -> StageResult {
                if p.is_multiple_of(2) {
                    Err(crate::StageError::new("even packets fail"))
                } else {
                    Ok(())
                }
            },
        ));
        let rt = b.build();
        for i in 0..8 {
            rt.enqueue(s, i).unwrap();
        }
        rt.shutdown();
        let st = &rt.stats()[0];
        assert_eq!(st.errors, 4);
        assert_eq!(st.processed, 4);
    }

    #[test]
    fn shutdown_drains_pending_packets() {
        let (tx, rx) = mpsc::channel::<u32>();
        let tx = Mutex::new(tx);
        let mut b = StagedRuntime::<u32>::builder();
        let s = b.add_stage(
            StageSpec::new(
                "slow",
                ok_stage(move |p: u32, _: &StageCtx<'_, u32>| {
                    std::thread::sleep(Duration::from_millis(2));
                    tx.lock().send(p).unwrap();
                }),
            )
            .with_queue_capacity(128),
        );
        let rt = b.build();
        for i in 0..20 {
            rt.enqueue(s, i).unwrap();
        }
        rt.shutdown();
        let got: Vec<u32> = rx.try_iter().collect();
        assert_eq!(got.len(), 20, "all packets processed before shutdown returns");
    }

    #[test]
    fn a_packet_out_on_a_reservation_holds_shutdown_and_comes_back() {
        // `a` lets each packet leave with a slot held in `b`; the test
        // thread plays the outside wait and fills the slot later.
        let (out_tx, out) = mpsc::channel::<(u32, Reservation<u32>)>();
        let (done_tx, done) = mpsc::channel::<u32>();
        let (out_tx, done_tx) = (Mutex::new(out_tx), Mutex::new(done_tx));
        let mut b = StagedRuntime::<u32>::builder();
        let a = b.add_stage(StageSpec::new(
            "a",
            ok_stage(move |p: u32, ctx: &StageCtx<'_, u32>| {
                let slot = ctx.reserve(1).expect("b is open");
                out_tx.lock().send((p, slot)).unwrap();
            }),
        ));
        b.add_stage(
            StageSpec::new(
                "b",
                ok_stage(move |p: u32, _: &StageCtx<'_, u32>| done_tx.lock().send(p).unwrap()),
            )
            .with_queue_capacity(2),
        );
        let rt = b.build();
        for i in 0..3 {
            rt.enqueue(a, i).unwrap();
        }
        let wait = Duration::from_secs(5);
        let (p0, s0) = out.recv_timeout(wait).unwrap();
        let (p1, s1) = out.recv_timeout(wait).unwrap();
        // Two slots fill `b`: the third packet's reservation waits for room.
        assert!(out.recv_timeout(Duration::from_millis(50)).is_err(), "b's capacity bounds them");
        drop(s1); // given back unused: room for the third
        let (p2, s2) = out.recv_timeout(wait).unwrap();
        let stopper = {
            let rt = rt.clone();
            std::thread::spawn(move || rt.shutdown())
        };
        s0.fill(p0 + 10);
        assert_eq!(done.recv_timeout(wait).unwrap(), p0 + 10);
        assert!(done.recv_timeout(Duration::from_millis(50)).is_err());
        assert!(!stopper.is_finished(), "shutdown waits for the held slot");
        s2.fill(p2 + 10);
        stopper.join().unwrap();
        assert_eq!(done.try_recv(), Ok(p2 + 10), "served before b closed");
        assert_eq!(p1, 1);
        assert_eq!(rt.stats()[1].processed, 2);
    }

    #[test]
    fn idle_polls_surface_in_stats_snapshots() {
        // A worker that wakes to an empty queue must be visible in the
        // monitor: `idle_polls` is how the STATS wire command shows an
        // over-provisioned stage.
        let mut b = StagedRuntime::<u8>::builder();
        let s = b.add_stage(StageSpec::new("sleepy", ok_stage(|_: u8, _: &StageCtx<'_, u8>| {})));
        let rt = b.build();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while rt.stats()[s].idle_polls == 0 {
            assert!(std::time::Instant::now() < deadline, "no idle poll recorded");
            std::thread::sleep(Duration::from_millis(5));
        }
        rt.enqueue(s, 1).unwrap();
        rt.shutdown();
        let st = &rt.stats()[s];
        assert!(st.idle_polls >= 1);
        assert_eq!(st.processed, 1);
    }

    /// Helper for the cohort tests: a stage whose workers block on `hold`
    /// while it is `true`, so the test can pile up a backlog and then
    /// release one visit over all of it.
    fn held_stage(hold: Arc<AtomicBool>, tx: mpsc::Sender<u32>) -> impl StageLogic<u32> {
        let tx = Mutex::new(tx);
        move |p: u32, _: &StageCtx<'_, u32>| -> StageResult {
            while hold.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
            }
            tx.lock().send(p).unwrap();
            Ok(())
        }
    }

    #[test]
    fn gated_cohorts_batch_and_preserve_fifo() {
        let hold = Arc::new(AtomicBool::new(true));
        let (tx, rx) = mpsc::channel::<u32>();
        let mut b = StagedRuntime::<u32>::builder();
        let s = b.add_stage(
            StageSpec::new("batchy", held_stage(Arc::clone(&hold), tx))
                .with_batch(BatchPolicy::DGated)
                .with_max_cohort(32)
                .with_queue_capacity(64),
        );
        let rt = b.build();
        // The first enqueue wakes the worker (visit of 1, parked on hold);
        // the rest pile up for the second visit.
        for i in 0..16 {
            rt.enqueue(s, i).unwrap();
        }
        std::thread::sleep(Duration::from_millis(30));
        hold.store(false, Ordering::SeqCst);
        let got: Vec<u32> =
            (0..16).map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap()).collect();
        assert_eq!(got, (0..16).collect::<Vec<_>>(), "FIFO across cohorts");
        rt.shutdown();
        let st = &rt.stats()[s];
        assert_eq!(st.processed, 16);
        assert!(st.max_cohort > 1, "backlog should have been served as a cohort");
        assert!(
            st.cohorts < st.processed,
            "batched visits: {} cohorts for {} packets",
            st.cohorts,
            st.processed
        );
        assert_eq!(st.batch_limit, 32);
    }

    #[test]
    fn shutdown_drains_partial_cohort_in_flight() {
        // The whole backlog fits one cohort, so the instant shutdown is
        // called the queue is empty but the worker holds every packet in
        // hand: shutdown must wait for the visit, not close under it.
        let (tx, rx) = mpsc::channel::<u32>();
        let tx = Mutex::new(tx);
        let mut b = StagedRuntime::<u32>::builder();
        let s = b.add_stage(
            StageSpec::new("slowcohort", move |p: u32, _: &StageCtx<'_, u32>| -> StageResult {
                std::thread::sleep(Duration::from_millis(3));
                tx.lock().send(p).unwrap();
                Ok(())
            })
            .with_batch(BatchPolicy::DGated)
            .with_max_cohort(16)
            .with_queue_capacity(64),
        );
        let rt = b.build();
        for i in 0..10 {
            rt.enqueue(s, i).unwrap();
        }
        rt.shutdown();
        let got: Vec<u32> = rx.try_iter().collect();
        assert_eq!(got.len(), 10, "shutdown must drain the in-flight cohort");
    }

    #[test]
    fn max_cohort_bounds_every_visit() {
        let hold = Arc::new(AtomicBool::new(true));
        let (tx, rx) = mpsc::channel::<u32>();
        let mut b = StagedRuntime::<u32>::builder();
        let s = b.add_stage(
            StageSpec::new("bounded", held_stage(Arc::clone(&hold), tx))
                .with_batch(BatchPolicy::DGated)
                .with_max_cohort(4)
                .with_queue_capacity(64),
        );
        let rt = b.build();
        // The first visit takes packet 0 and parks on `hold`; the other 12
        // pile up behind it, three cohorts' worth at the bound.
        for i in 0..13 {
            rt.enqueue(s, i).unwrap();
        }
        std::thread::sleep(Duration::from_millis(30));
        hold.store(false, Ordering::SeqCst);
        for i in 0..13 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), i);
        }
        rt.shutdown();
        let st = &rt.stats()[s];
        assert_eq!(st.max_cohort, 4, "the backlog filled visits up to the bound, never past it");
        assert_eq!(st.batch_limit, 4);
    }

    #[test]
    fn idle_workers_back_off_exponentially() {
        // Regression for the fixed 20 ms poll: an idle stage used to burn
        // ~50 idle polls per second forever. With exponential backoff the
        // poll interval doubles to a cap, so 1.5 s of quiet costs a
        // handful of polls, while a late enqueue is still served promptly
        // (workers park on the queue condvar; the timeout only paces the
        // idle hook).
        let mut b = StagedRuntime::<u8>::builder();
        let s = b.add_stage(StageSpec::new("quiet", ok_stage(|_: u8, _: &StageCtx<'_, u8>| {})));
        let rt = b.build();
        std::thread::sleep(Duration::from_millis(1500));
        let idle = rt.stats()[s].idle_polls;
        assert!(idle >= 1, "the idle hook must still run");
        assert!(
            idle <= 12,
            "idle polls must back off: got {idle} in 1.5s (fixed 20ms polling would give ~75)"
        );
        // A packet after a long quiet spell is picked up immediately.
        let start = Instant::now();
        rt.enqueue(s, 1).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while rt.stats()[s].processed == 0 {
            assert!(Instant::now() < deadline, "packet not served after idle backoff");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "condvar wakeup must not wait out the backed-off poll interval"
        );
        rt.shutdown();
    }

    #[test]
    fn requeue_back_retries_later() {
        // A packet that isn't ready the first time goes to the back of the
        // queue and is processed on a later dequeue (paper case iii).
        let (tx, rx) = mpsc::channel::<u32>();
        let tx = Mutex::new(tx);
        let attempts = Arc::new(AtomicU64::new(0));
        let at = Arc::clone(&attempts);
        let mut b = StagedRuntime::<u32>::builder();
        let s = b.add_stage(StageSpec::new(
            "retry",
            move |p: u32, ctx: &StageCtx<'_, u32>| -> StageResult {
                if at.fetch_add(1, Ordering::SeqCst) == 0 {
                    ctx.requeue_back(p).map_err(|_| crate::StageError::new("requeue"))?;
                } else {
                    tx.lock().send(p).unwrap();
                }
                Ok(())
            },
        ));
        let rt = b.build();
        rt.enqueue(s, 99).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 99);
        rt.shutdown();
        assert!(attempts.load(Ordering::SeqCst) >= 2);
    }

    /// Two packets put on a two-worker stage's queue in one call, each
    /// waiting in `process` — at most `wait` — until both are there: true
    /// if they met, that is, if two workers served them at once.
    fn served_together(max_cohort: usize, wait: Duration) -> bool {
        let (here, met) = (AtomicU64::new(0), Arc::new(AtomicU64::new(0)));
        let both = Arc::clone(&met);
        let mut b = StagedRuntime::<u8>::builder();
        let s = b.add_stage(
            StageSpec::new(
                "pair",
                ok_stage(move |_: u8, _: &StageCtx<'_, u8>| {
                    here.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + wait;
                    while here.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    if here.load(Ordering::SeqCst) >= 2 {
                        both.fetch_add(1, Ordering::SeqCst);
                    }
                }),
            )
            .with_workers(2)
            .with_batch(BatchPolicy::DGated)
            .with_max_cohort(max_cohort),
        );
        let rt = b.build();
        // Both are queued before any worker's grab.
        rt.readmit(s, vec![1, 2]);
        rt.shutdown();
        met.load(Ordering::SeqCst) == 2
    }

    #[test]
    fn one_packet_visits_serve_a_backlog_on_every_worker_at_once() {
        assert!(
            served_together(1, Duration::from_secs(10)),
            "a cohort bound of 1 spreads the pair"
        );
        // The grab of a cohort of 8 takes both packets to one worker, which
        // serves them one after the other: the first one's wait runs out.
        assert!(!served_together(8, Duration::from_millis(200)), "a cohort of 8 kept them apart");
    }

    // ---- Following a lone packet (DESIGN.md §11) -----------------------

    const A: StageId = 0;
    const B: StageId = 1;
    const C: StageId = 2;
    /// Packets numbered from here prime the demand estimates.
    const PRIMER: u32 = 1_000_000;

    /// A chain `a → b → c` whose stages log `(stage, packet, thread)`;
    /// `b` calls `at_b(packet)` first (tests block or sleep there) and `c`
    /// reports each packet on `done`.
    struct Chain {
        rt: StagedRuntime<u32>,
        log: Log,
        done: mpsc::Receiver<u32>,
    }

    type Log = Arc<Mutex<Vec<(StageId, u32, String)>>>;

    fn chain(
        workers: usize,
        b_policy: BatchPolicy,
        at_b: impl Fn(u32) + Send + Sync + 'static,
    ) -> Chain {
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let (tx, done) = mpsc::channel::<u32>();
        let tx = Mutex::new(tx);
        fn spec(name: &str, workers: usize, logic: impl StageLogic<u32>) -> StageSpec<u32> {
            StageSpec::new(name, logic).with_workers(workers).with_queue_capacity(4096)
        }
        let logged = |log: &Log| {
            let log = Arc::clone(log);
            move |p: u32, ctx: &StageCtx<'_, u32>| {
                let thread = std::thread::current().name().unwrap_or("?").to_string();
                log.lock().push((ctx.stage_id, p, thread));
            }
        };
        let mut b = StagedRuntime::<u32>::builder();
        let note = logged(&log);
        b.add_stage(spec("a", workers, move |p: u32, ctx: &StageCtx<'_, u32>| -> StageResult {
            note(p, ctx);
            ctx.send(B, p).map_err(|_| crate::StageError::new("send"))
        }));
        let note = logged(&log);
        b.add_stage(
            spec("b", workers, move |p: u32, ctx: &StageCtx<'_, u32>| -> StageResult {
                at_b(p);
                note(p, ctx);
                ctx.send(C, p).map_err(|_| crate::StageError::new("send"))
            })
            .with_batch(b_policy),
        );
        let note = logged(&log);
        b.add_stage(spec("c", workers, move |p: u32, ctx: &StageCtx<'_, u32>| -> StageResult {
            note(p, ctx);
            tx.lock().send(p).unwrap();
            Ok(())
        }));
        Chain { rt: b.build(), log, done }
    }

    impl Chain {
        /// Wait until nothing is queued and no visit is open anywhere.
        fn settle(&self) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !self.rt.shared.stages.iter().all(|s| s.queue.is_quiet()) {
                assert!(Instant::now() < deadline, "runtime never went quiet");
                std::thread::yield_now();
            }
        }

        fn delivered(&self) -> u32 {
            self.done.recv_timeout(Duration::from_secs(10)).expect("packet delivered")
        }

        /// Give `b` and `c` a demand estimate that one preempted sample
        /// cannot push over the follow threshold.
        fn prime(&self) {
            for i in 0..64 {
                self.rt.enqueue(A, PRIMER + i).unwrap();
                self.delivered();
            }
            self.settle();
        }

        /// Prime until `b` and `c` pass the demand test of following. On a
        /// busy host one preempted sample can lift a short history's mean
        /// over [`FOLLOW_MAX_DEMAND`]; more cheap samples bring it back.
        /// Returns with the chain quiet.
        fn make_followable(&self) {
            let deadline = Instant::now() + Duration::from_secs(60);
            while ![B, C].iter().all(|&s| self.rt.shared.stage(s).cheap_to_follow()) {
                assert!(Instant::now() < deadline, "demand estimates never fell under the bound");
                self.prime();
            }
            self.settle();
        }

        /// Send one packet through the idle chain and wait for it.
        fn one(&self, p: u32) {
            self.rt.enqueue(A, p).unwrap();
            assert_eq!(self.delivered(), p);
            self.settle();
        }

        fn threads_at(&self, stage: StageId, p: u32) -> Vec<String> {
            let log = self.log.lock();
            log.iter().filter(|e| e.0 == stage && e.1 == p).map(|e| e.2.clone()).collect()
        }
    }

    #[test]
    fn lone_packet_is_followed_through_an_idle_chain() {
        let ch = chain(1, BatchPolicy::DGated, |_| {});
        // No estimate yet: the very first packet is handed over, not
        // followed, at both hops.
        ch.one(PRIMER - 1);
        let st = ch.rt.stats();
        assert_eq!((st[B].followed, st[B].queue.enqueued), (0, 1));
        assert_eq!((st[C].followed, st[C].queue.enqueued), (0, 1));
        assert_eq!(ch.threads_at(C, PRIMER - 1), ["stage-c-0"]);
        for p in 0..20 {
            // Each packet starts from what following assumes: a quiet
            // chain whose stages have estimates under the bound.
            ch.make_followable();
            let before = ch.rt.stats();
            ch.one(p);
            assert_eq!(ch.threads_at(B, p), ["stage-a-0"], "b ran on a's worker");
            assert_eq!(ch.threads_at(C, p), ["stage-a-0"], "c ran on a's worker");
            let st = ch.rt.stats();
            for s in [B, C] {
                assert_eq!(st[s].followed - before[s].followed, 1);
                assert_eq!(st[s].queue.enqueued, before[s].queue.enqueued, "nothing went by queue");
                assert_eq!(st[s].processed - before[s].processed, 1, "booked where the code ran");
                assert_eq!(st[s].cohorts - before[s].cohorts, 1, "a followed packet is a visit");
            }
        }
        assert_eq!(ch.rt.stats()[A].followed, 0);
        ch.rt.shutdown();
    }

    #[test]
    fn single_stage_is_never_followed_into() {
        let ch = chain(1, BatchPolicy::Single, |_| {});
        for p in 0..10 {
            ch.make_followable();
            ch.one(p);
            assert_eq!(ch.threads_at(B, p), ["stage-b-0"]);
            // ... but b's own worker follows on into c.
            assert_eq!(ch.threads_at(C, p), ["stage-b-0"]);
        }
        assert_eq!(ch.rt.stats()[B].followed, 0);
        ch.rt.shutdown();
    }

    #[test]
    fn backlogged_destination_is_not_followed_into() {
        // Packet 7 blocks b's own worker; packet 8 queues behind it.
        let gate = Arc::new(AtomicBool::new(true));
        let g = Arc::clone(&gate);
        let ch = chain(1, BatchPolicy::DGated, move |p| {
            while p == 7 && g.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        ch.prime();
        ch.rt.enqueue(B, 7).unwrap();
        while ch.rt.stats()[B].queue.depth > 0 {
            std::thread::yield_now();
        }
        ch.rt.enqueue(B, 8).unwrap();
        let before = ch.rt.stats().swap_remove(B);
        ch.rt.enqueue(A, 9).unwrap();
        // Wait for 9 to reach b by either path. a's `processed` moves
        // before its visit delivers the forward, so it is no signal.
        let arrived = |s: &StageStats| s.queue.enqueued + s.followed;
        while arrived(&ch.rt.stats()[B]) == arrived(&before) {
            std::thread::yield_now();
        }
        let st = ch.rt.stats();
        assert_eq!(st[B].queue.enqueued, before.queue.enqueued + 1, "9 queued behind the backlog");
        assert_eq!(st[B].queue.depth, 2);
        gate.store(false, Ordering::SeqCst);
        let got: Vec<u32> = (0..3).map(|_| ch.delivered()).collect();
        assert_eq!(got, [7, 8, 9], "and kept its place");
        ch.rt.shutdown();
    }

    #[test]
    fn expensive_stage_is_not_followed_into_and_cannot_hold_the_sender_up() {
        // b sleeps 2 ms per packet: far over the follow threshold. While
        // it serves packet 1 — held there until a has served packet 2 —
        // a's worker must be free to serve packet 2: had it followed 1
        // into b, 2 would sit in a's queue until the gate timed out.
        let a_served_2 = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&a_served_2);
        let ch = chain(1, BatchPolicy::DGated, move |p| {
            std::thread::sleep(Duration::from_millis(2));
            let deadline = Instant::now() + Duration::from_secs(5);
            while p == 1 && !seen.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        ch.one(PRIMER);
        ch.rt.enqueue(A, 1).unwrap();
        while ch.threads_at(B, 1).is_empty() && ch.rt.stats()[B].queue.dequeued < 2 {
            std::thread::yield_now();
        }
        let sent = Instant::now();
        ch.rt.enqueue(A, 2).unwrap();
        while ch.threads_at(A, 2).is_empty() {
            assert!(sent.elapsed() < Duration::from_secs(2), "a's worker is stuck inside b");
            std::thread::yield_now();
        }
        a_served_2.store(true, Ordering::SeqCst);
        assert_eq!((ch.delivered(), ch.delivered()), (1, 2));
        assert_eq!(ch.threads_at(B, 1), ["stage-b-0"]);
        assert_eq!(ch.rt.stats()[B].followed, 0);
        ch.rt.shutdown();
    }

    #[test]
    fn follower_goes_home_when_its_own_queue_fills() {
        // a's worker follows packet 1 into b and is held there while
        // packet 2 arrives in a's queue: at the next hop it must hand 1
        // over to c's worker and go home for 2.
        let gate = Arc::new(AtomicBool::new(true));
        let g = Arc::clone(&gate);
        let ch = chain(1, BatchPolicy::DGated, move |p| {
            while p == 1 && g.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        ch.prime();
        let before = ch.rt.stats();
        ch.rt.enqueue(A, 1).unwrap();
        while ch.rt.stats()[A].processed == before[A].processed {
            std::thread::yield_now();
        }
        ch.rt.enqueue(A, 2).unwrap();
        gate.store(false, Ordering::SeqCst);
        assert_eq!(ch.delivered(), 1);
        assert_eq!(ch.delivered(), 2);
        ch.settle();
        assert_eq!(ch.threads_at(B, 1), ["stage-a-0"], "1 was followed into b");
        assert_eq!(ch.threads_at(C, 1), ["stage-c-0"], "and handed over at the next hop");
        ch.rt.shutdown();
    }

    #[test]
    fn shutdown_waits_for_a_followed_chain_in_flight() {
        let gate = Arc::new(AtomicBool::new(true));
        let g = Arc::clone(&gate);
        let ch = chain(1, BatchPolicy::DGated, move |p| {
            while p == 1 && g.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        ch.prime();
        let before = ch.rt.stats()[A].processed;
        ch.rt.enqueue(A, 1).unwrap();
        while ch.rt.stats()[A].processed == before {
            std::thread::yield_now();
        }
        // a's worker is now inside b, on a's open visit and b's.
        let rt = ch.rt.clone();
        let stopper = std::thread::spawn(move || rt.shutdown());
        std::thread::sleep(Duration::from_millis(30));
        assert!(!stopper.is_finished(), "shutdown must wait for the chain");
        gate.store(false, Ordering::SeqCst);
        stopper.join().unwrap();
        assert_eq!(ch.done.try_recv(), Ok(1), "the packet reached c before the stages closed");
        assert_eq!(ch.threads_at(B, 1), ["stage-a-0"]);
    }

    /// 10k numbered packets through the chain, arriving in bursts with
    /// idle gaps, so both delivery paths are taken many times over.
    fn mixed_arrival(workers: usize) -> Chain {
        const N: u32 = 10_000;
        let ch = chain(workers, BatchPolicy::DGated, |_| {});
        ch.prime();
        ch.log.lock().clear();
        let before = ch.rt.stats();
        let (mut next, mut got, mut seed) = (0u32, 0u32, 0x9E37_79B9u32);
        while next < N {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let burst = if seed >> 31 == 0 { 1 } else { 1 + (seed >> 8) % 40 };
            for _ in 0..burst.min(N - next) {
                ch.rt.enqueue(A, next).unwrap();
                next += 1;
            }
            // Half the time let the chain drain and go idle.
            if (seed >> 16) & 1 == 0 {
                while got < next {
                    ch.delivered();
                    got += 1;
                }
            }
        }
        ch.rt.shutdown();
        let st = ch.rt.stats();
        for s in [B, C] {
            let mut seen: Vec<u32> =
                ch.log.lock().iter().filter(|e| e.0 == s).map(|e| e.1).collect();
            if workers == 1 {
                // One worker per stage, one source: a followed packet never
                // overtakes a queued one and never runs beside the stage's
                // own worker, so every stage sees strict FIFO.
                assert!(seen.windows(2).all(|w| w[0] < w[1]), "stage {s} reordered");
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..N).collect::<Vec<_>>(), "stage {s}: exactly once");
            assert_eq!(st[s].processed - before[s].processed, u64::from(N));
            let followed = st[s].followed - before[s].followed;
            let queued = st[s].queue.enqueued - before[s].queue.enqueued;
            assert_eq!(followed + queued, u64::from(N), "stage {s}: followed or queued");
            assert!(followed > 0 && queued > 0, "stage {s}: {followed} followed, {queued} queued");
        }
        ch
    }

    #[test]
    fn mixed_arrival_is_fifo_and_exactly_once_with_one_worker() {
        mixed_arrival(1);
    }

    #[test]
    fn mixed_arrival_is_exactly_once_with_four_workers() {
        mixed_arrival(4);
    }
}
