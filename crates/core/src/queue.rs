//! Bounded packet queues with back-pressure.
//!
//! Every stage owns one `StageQueue`. `enqueue` blocks while the queue is at
//! capacity — this is the paper's back-pressure flow control (§4.1.1):
//! "whenever enqueue causes the next stage's queue to overflow we apply
//! back-pressure flow control by suspending the enqueue operation (and
//! subsequently freeze the query's execution thread in that stage). The rest
//! of the queries that do not output to the blocked stage will continue to
//! run."
//!
//! A slot can also be *reserved* ahead of its packet ([`StageQueue::reserve`]):
//! a stage that lets a packet leave the pipeline to wait elsewhere — a
//! staged `SELECT` running in the engine — keeps its place downstream, so
//! the wait stays bounded by the queue's capacity and `shutdown` cannot
//! close the queue under it.

use crate::error::EnqueueError;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Counters exposed by a queue (all monotonically increasing except depth).
#[derive(Debug, Default)]
pub struct QueueCounters {
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    blocked_enqueues: AtomicU64,
    max_depth: AtomicUsize,
}

/// Snapshot of [`QueueCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Packets accepted so far.
    pub enqueued: u64,
    /// Packets removed so far.
    pub dequeued: u64,
    /// Enqueue calls that had to wait for space (back-pressure events).
    pub blocked_enqueues: u64,
    /// High-water mark of the queue depth.
    pub max_depth: usize,
    /// Current depth.
    pub depth: usize,
}

struct Inner<P> {
    items: VecDeque<P>,
    closed: bool,
    /// Visits in progress: cohorts handed out by
    /// [`StageQueue::dequeue_batch`] (or claimed by
    /// [`StageQueue::try_begin_visit`]) and not yet closed with
    /// [`StageQueue::end_visit`]. Kept under the queue lock so "nothing
    /// queued and nobody serving" is one exact test.
    serving: usize,
    /// Slots held for packets still on their way ([`StageQueue::reserve`]).
    /// Each counts against the capacity and keeps the queue from being
    /// quiet until it is filled or released.
    reserved: usize,
}

impl<P> Inner<P> {
    fn quiet(&self) -> bool {
        self.items.is_empty() && self.serving == 0 && self.reserved == 0
    }
}

/// A bounded MPMC queue of packets.
pub struct StageQueue<P> {
    inner: Mutex<Inner<P>>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Signalled when the queue goes quiet ([`StageQueue::wait_quiet`]).
    quiet: Condvar,
    capacity: usize,
    counters: QueueCounters,
}

/// Result of [`StageQueue::dequeue_batch`]: one gated queue visit.
#[derive(Debug, PartialEq, Eq)]
pub enum DequeuedCohort<P> {
    /// The packets present when the visit started (at least one, at most
    /// the requested bound), in FIFO order.
    Cohort(Vec<P>),
    /// The wait timed out; the queue is still open.
    TimedOut,
    /// The queue is closed and drained.
    Closed,
}

/// Wake up to `n` waiters on `cv` — one per item or slot made available.
/// `notify_all` would stampede every waiter over `n` resources and put
/// the rest straight back to sleep.
fn notify_n(cv: &Condvar, n: usize) {
    for _ in 0..n {
        if !cv.notify_one() {
            break;
        }
    }
}

impl<P> StageQueue<P> {
    /// Create a queue holding at most `capacity` packets (min 1).
    pub fn new(capacity: usize) -> Self {
        let inner = Inner { items: VecDeque::new(), closed: false, serving: 0, reserved: 0 };
        Self {
            inner: Mutex::new(inner),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            quiet: Condvar::new(),
            capacity: capacity.max(1),
            counters: QueueCounters::default(),
        }
    }

    /// Current number of queued packets.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// True when no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Add a packet, blocking while the queue is full (back-pressure).
    ///
    /// Returns the packet inside `EnqueueError::Closed` if the queue was (or
    /// becomes) closed while waiting.
    pub fn enqueue(&self, packet: P) -> Result<(), EnqueueError<P>> {
        let inner = self.wait_for_room();
        if inner.closed {
            return Err(EnqueueError::Closed(packet));
        }
        self.push(inner, [packet]);
        Ok(())
    }

    /// Add a packet without blocking; fails with `Full` when at capacity.
    pub fn try_enqueue(&self, packet: P) -> Result<(), EnqueueError<P>> {
        let inner = self.inner.lock();
        if inner.closed {
            return Err(EnqueueError::Closed(packet));
        }
        if self.full(&inner) {
            return Err(EnqueueError::Full(packet));
        }
        self.push(inner, [packet]);
        Ok(())
    }

    /// Add a whole batch, blocking while the queue is full (back-pressure,
    /// admitting incrementally as space frees). Used by the runtime to
    /// flush a visit's buffered forwards with one lock acquisition instead
    /// of one per packet (cohort scheduling, §4.2).
    ///
    /// If the queue is (or becomes) closed, the not-yet-admitted packets
    /// are dropped and their count returned as the error.
    pub fn enqueue_batch(&self, packets: Vec<P>) -> Result<(), usize> {
        if packets.is_empty() {
            return Ok(());
        }
        let mut iter = packets.into_iter().peekable();
        let mut inner = self.inner.lock();
        loop {
            if inner.closed {
                return Err(iter.count());
            }
            let mut pushed = 0usize;
            while !self.full(&inner) && iter.peek().is_some() {
                inner.items.push_back(iter.next().expect("peeked"));
                pushed += 1;
            }
            if pushed > 0 {
                self.note_depth(inner.items.len());
                self.counters.enqueued.fetch_add(pushed as u64, Ordering::Relaxed);
            }
            if iter.peek().is_none() {
                drop(inner);
                notify_n(&self.not_empty, pushed);
                return Ok(());
            }
            // Full mid-batch: wake consumers for what went in, then wait
            // for space (back-pressure on the flushing worker).
            drop(inner);
            notify_n(&self.not_empty, pushed);
            inner = self.wait_for_room();
        }
    }

    /// Append `packets` under the held lock, then wake a consumer for each.
    fn push(&self, mut inner: MutexGuard<'_, Inner<P>>, packets: impl IntoIterator<Item = P>) {
        let before = inner.items.len();
        inner.items.extend(packets);
        let n = inner.items.len() - before;
        self.note_depth(inner.items.len());
        self.counters.enqueued.fetch_add(n as u64, Ordering::Relaxed);
        drop(inner);
        notify_n(&self.not_empty, n);
    }

    /// True when queued packets and reserved slots fill the capacity.
    fn full(&self, inner: &Inner<P>) -> bool {
        inner.items.len() + inner.reserved >= self.capacity
    }

    /// Lock the queue once it has room or is closed, blocking meanwhile
    /// (back-pressure, counted once per blocked call).
    fn wait_for_room(&self) -> MutexGuard<'_, Inner<P>> {
        let mut inner = self.inner.lock();
        if self.full(&inner) && !inner.closed {
            self.counters.blocked_enqueues.fetch_add(1, Ordering::Relaxed);
            while self.full(&inner) && !inner.closed {
                self.not_full.wait(&mut inner);
            }
        }
        inner
    }

    /// Hold one slot for a packet that is not here yet, blocking while the
    /// queue is full exactly as [`enqueue`](Self::enqueue) does. False once
    /// the queue is closed. The slot counts against the capacity, and the
    /// queue is not quiet, until [`fill`](Self::fill) or
    /// [`release`](Self::release) gives it back.
    pub fn reserve(&self) -> bool {
        let mut inner = self.wait_for_room();
        if inner.closed {
            return false;
        }
        inner.reserved += 1;
        true
    }

    /// Put `packet` in a slot [`reserve`](Self::reserve) held: never
    /// blocks, and a queue with a slot held is never closed.
    pub fn fill(&self, packet: P) {
        let mut inner = self.inner.lock();
        inner.reserved -= 1;
        self.push(inner, [packet]);
    }

    /// Give back a slot [`reserve`](Self::reserve) held, unused.
    pub fn release(&self) {
        let mut inner = self.inner.lock();
        inner.reserved -= 1;
        self.signal_quiet(&inner);
        drop(inner);
        self.not_full.notify_one();
    }

    /// [`requeue_back_batch`](Self::requeue_back_batch) for one packet,
    /// without the `Vec`.
    pub fn requeue_back(&self, packet: P) {
        self.push(self.inner.lock(), [packet]);
    }

    /// Append a batch to the *back* of this stage's own queue, exempt from
    /// the capacity check and the closed flag (the packets were already
    /// admitted once — this is how a visit's buffered self-requeues
    /// rejoin the queue without deadlocking the stage against itself).
    pub fn requeue_back_batch(&self, packets: Vec<P>) {
        self.push(self.inner.lock(), packets);
    }

    /// Remove up to `max` packets in one queue visit, waiting at most
    /// `timeout` for the first one.
    ///
    /// This is the *gated* dequeue of cohort scheduling (paper §4.2): the
    /// cohort is exactly the packets already queued when the grab happens
    /// (bounded by `max`), taken under a single lock acquisition, in FIFO
    /// order. Packets arriving after the grab wait for the next visit.
    ///
    /// A returned cohort opens a *visit*: the queue counts as being served
    /// until the caller closes it with [`end_visit`](Self::end_visit).
    pub fn dequeue_batch(&self, max: usize, timeout: Duration) -> DequeuedCohort<P> {
        let max = max.max(1);
        let mut inner = self.inner.lock();
        loop {
            if !inner.items.is_empty() {
                let n = inner.items.len().min(max);
                let cohort: Vec<P> = inner.items.drain(..n).collect();
                inner.serving += 1;
                self.counters.dequeued.fetch_add(n as u64, Ordering::Relaxed);
                drop(inner);
                // A batch grab frees n slots: wake exactly n blocked
                // producers (notify_all would stampede every waiter over
                // the n slots and put the rest straight back to sleep).
                notify_n(&self.not_full, n);
                return DequeuedCohort::Cohort(cohort);
            }
            if inner.closed {
                return DequeuedCohort::Closed;
            }
            if self.not_empty.wait_for(&mut inner, timeout).timed_out() {
                return DequeuedCohort::TimedOut;
            }
        }
    }

    /// Close a visit opened by [`dequeue_batch`](Self::dequeue_batch) or
    /// [`try_begin_visit`](Self::try_begin_visit).
    pub fn end_visit(&self) {
        let mut inner = self.inner.lock();
        inner.serving -= 1;
        self.signal_quiet(&inner);
    }

    /// Open a visit with no packets, but only on an *idle* stage: nothing
    /// queued and no visit in progress. The test and the claim are one
    /// critical section, so two callers cannot both find the stage idle.
    /// The runtime uses this to serve a lone packet on the sender's thread
    /// (DESIGN.md §11, "following").
    pub fn try_begin_visit(&self) -> bool {
        let mut inner = self.inner.lock();
        let idle = inner.items.is_empty() && inner.serving == 0;
        if idle {
            inner.serving = 1;
        }
        idle
    }

    /// True when nothing is queued, no visit is in progress and no slot
    /// is reserved.
    pub fn is_quiet(&self) -> bool {
        self.inner.lock().quiet()
    }

    /// Block until the queue is quiet ([`is_quiet`](Self::is_quiet)).
    pub fn wait_quiet(&self) {
        let mut inner = self.inner.lock();
        while !inner.quiet() {
            self.quiet.wait(&mut inner);
        }
    }

    /// Wake [`wait_quiet`](Self::wait_quiet) callers if `inner` is quiet;
    /// called, under the lock, wherever a visit or a slot ends.
    fn signal_quiet(&self, inner: &Inner<P>) {
        if inner.quiet() {
            self.quiet.notify_all();
        }
    }

    /// Close the queue: pending packets can still be dequeued, new enqueues
    /// fail, blocked producers and consumers wake up.
    pub fn close(&self) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// True once [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }

    /// Snapshot the queue counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            enqueued: self.counters.enqueued.load(Ordering::Relaxed),
            dequeued: self.counters.dequeued.load(Ordering::Relaxed),
            blocked_enqueues: self.counters.blocked_enqueues.load(Ordering::Relaxed),
            max_depth: self.counters.max_depth.load(Ordering::Relaxed),
            depth: self.len(),
        }
    }

    fn note_depth(&self, depth: usize) {
        self.counters.max_depth.fetch_max(depth, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Take one packet as a visit of one, waiting for it; `None` once the
    /// queue is closed and drained.
    fn pop<P>(q: &StageQueue<P>) -> Option<P> {
        loop {
            match q.dequeue_batch(1, Duration::from_millis(50)) {
                DequeuedCohort::Cohort(mut c) => {
                    q.end_visit();
                    return c.pop();
                }
                DequeuedCohort::TimedOut => continue,
                DequeuedCohort::Closed => return None,
            }
        }
    }

    #[test]
    fn fifo_order() {
        let q = StageQueue::new(8);
        for i in 0..5 {
            q.enqueue(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(pop(&q), Some(i));
        }
    }

    #[test]
    fn try_enqueue_full() {
        let q = StageQueue::new(2);
        q.try_enqueue(1).unwrap();
        q.try_enqueue(2).unwrap();
        match q.try_enqueue(3) {
            Err(EnqueueError::Full(3)) => {}
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn close_drains_then_none() {
        let q = StageQueue::new(4);
        q.enqueue("a").unwrap();
        q.close();
        assert!(q.enqueue("b").is_err());
        assert_eq!(pop(&q), Some("a"));
        assert_eq!(pop(&q), None);
    }

    #[test]
    fn backpressure_blocks_until_space() {
        let q = Arc::new(StageQueue::new(1));
        q.enqueue(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.enqueue(1).is_ok());
        // Give the producer time to block, then free a slot.
        thread::sleep(Duration::from_millis(30));
        assert_eq!(pop(&q), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(pop(&q), Some(1));
        assert!(q.stats().blocked_enqueues >= 1);
    }

    #[test]
    fn stats_track_depth_high_water() {
        let q = StageQueue::new(16);
        for i in 0..7 {
            q.enqueue(i).unwrap();
        }
        pop(&q);
        let s = q.stats();
        assert_eq!(s.enqueued, 7);
        assert_eq!(s.dequeued, 1);
        assert_eq!(s.max_depth, 7);
        assert_eq!(s.depth, 6);
    }

    #[test]
    fn dequeue_batch_is_gated_and_fifo() {
        let q = StageQueue::new(16);
        for i in 0..6 {
            q.enqueue(i).unwrap();
        }
        // The visit takes only what is present, bounded by max, in order.
        match q.dequeue_batch(4, Duration::from_millis(10)) {
            DequeuedCohort::Cohort(c) => assert_eq!(c, vec![0, 1, 2, 3]),
            other => panic!("expected cohort, got {other:?}"),
        }
        // Packets enqueued after the grab belong to the next visit.
        q.enqueue(6).unwrap();
        match q.dequeue_batch(8, Duration::from_millis(10)) {
            DequeuedCohort::Cohort(c) => assert_eq!(c, vec![4, 5, 6]),
            other => panic!("expected cohort, got {other:?}"),
        }
        assert_eq!(q.stats().dequeued, 7);
    }

    #[test]
    fn dequeue_batch_times_out_then_closes() {
        let q: StageQueue<u8> = StageQueue::new(4);
        assert_eq!(q.dequeue_batch(4, Duration::from_millis(5)), DequeuedCohort::TimedOut);
        q.enqueue(1).unwrap();
        q.close();
        // Closed queues still drain pending cohorts first.
        assert_eq!(q.dequeue_batch(4, Duration::from_millis(5)), DequeuedCohort::Cohort(vec![1]));
        assert_eq!(q.dequeue_batch(4, Duration::from_millis(5)), DequeuedCohort::Closed);
    }

    #[test]
    fn a_visit_can_be_claimed_only_on_an_idle_queue() {
        let q = StageQueue::new(4);
        assert!(q.is_quiet());
        q.enqueue(1).unwrap();
        assert!(!q.try_begin_visit(), "a packet is queued");
        let DequeuedCohort::Cohort(_) = q.dequeue_batch(4, Duration::from_millis(5)) else {
            panic!("expected cohort");
        };
        assert!(!q.is_quiet() && !q.try_begin_visit(), "empty, but a visit is open");
        q.end_visit();
        assert!(q.try_begin_visit(), "idle: claimed");
        assert!(!q.try_begin_visit(), "only once");
        q.end_visit();
        assert!(q.is_quiet());
        // A lone capacity-exempt requeue lands at the back.
        q.enqueue(2).unwrap();
        q.requeue_back(3);
        assert_eq!((pop(&q), pop(&q)), (Some(2), Some(3)));
    }

    #[test]
    fn a_reserved_slot_holds_capacity_and_quiet_until_filled_or_released() {
        let q = Arc::new(StageQueue::new(2));
        assert!(q.reserve());
        q.enqueue(1).unwrap();
        assert!(matches!(q.try_enqueue(2), Err(EnqueueError::Full(2))), "the slot is held");
        let (q2, (tx, rx)) = (Arc::clone(&q), std::sync::mpsc::channel());
        let waiter = thread::spawn(move || {
            q2.wait_quiet();
            tx.send(()).unwrap();
        });
        assert_eq!(pop(&q), Some(1));
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err(), "a held slot is not quiet");
        q.fill(3);
        assert_eq!(q.stats().depth, 1);
        assert_eq!(pop(&q), Some(3));
        rx.recv_timeout(Duration::from_secs(5)).expect("quiet once the filled slot is served");
        waiter.join().unwrap();
        // A slot given back unused frees its room and the quiet state.
        assert!(q.reserve() && q.reserve());
        assert!(matches!(q.try_enqueue(4), Err(EnqueueError::Full(4))));
        q.release();
        q.release();
        assert!(q.is_quiet());
        q.try_enqueue(5).unwrap();
        q.close();
        assert!(!q.reserve(), "a closed queue holds no slot");
    }

    #[test]
    fn mpmc_under_contention_delivers_everything() {
        let q = Arc::new(StageQueue::new(4));
        let total = 1000u64;
        let mut producers = vec![];
        for t in 0..4 {
            let q = Arc::clone(&q);
            producers.push(thread::spawn(move || {
                for i in 0..(total / 4) {
                    q.enqueue(t * total + i).unwrap();
                }
            }));
        }
        let mut consumers = vec![];
        for _ in 0..3 {
            let q = Arc::clone(&q);
            consumers.push(thread::spawn(move || {
                let mut n = 0u64;
                while pop(&q).is_some() {
                    n += 1;
                }
                n
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let got: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(got, total);
    }
}
