//! Per-stage monitoring.
//!
//! "Each stage provides its own monitoring and self-tuning mechanism. The
//! utilization of both the system's hardware resources and software
//! components (at a stage granularity) can be exploited during the
//! self-tuning process" (paper §5.2). These counters are the raw material
//! for the autotuner in [`crate::tune`] and for the monitoring tables the
//! benchmarks print.

use crate::queue::QueueStats;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Live counters attached to one stage.
#[derive(Debug, Default)]
pub struct StageMonitor {
    processed: AtomicU64,
    errors: AtomicU64,
    busy_nanos: AtomicU64,
    idle_polls: AtomicU64,
    io_blocked_nanos: AtomicU64,
    retries: AtomicU64,
    cohorts: AtomicU64,
    max_cohort: AtomicUsize,
    cutoff_preempts: AtomicU64,
    followed: AtomicU64,
}

impl StageMonitor {
    /// Record a successfully processed packet and the time spent on it.
    pub fn record_processed(&self, busy: Duration) {
        self.processed.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Record a packet whose processing failed.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an idle poll (worker woke up to an empty queue).
    pub fn record_idle_poll(&self) {
        self.idle_polls.fetch_add(1, Ordering::Relaxed);
    }

    /// Record time a worker spent blocked on (simulated or real) I/O. Stage
    /// logic calls this around its I/O so the autotuner can size the pool by
    /// I/O frequency, as §5.1(1) prescribes.
    pub fn record_io_blocked(&self, blocked: Duration) {
        self.io_blocked_nanos.fetch_add(blocked.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Record a packet requeued because it is waiting on a condition (paper
    /// §4.1.1 case iii — e.g. the lock-manager stage parking a transaction
    /// behind a conflicting lock). High retry counts flag contention to the
    /// monitor without any stage-specific plumbing.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Packets processed so far.
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Errors so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Total busy time in nanoseconds.
    pub fn busy_nanos(&self) -> u64 {
        self.busy_nanos.load(Ordering::Relaxed)
    }

    /// Total I/O-blocked time in nanoseconds.
    pub fn io_blocked_nanos(&self) -> u64 {
        self.io_blocked_nanos.load(Ordering::Relaxed)
    }

    /// Condition-wait requeues so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Record one completed queue visit that served `served` packets (the
    /// cohort of §4.2's cohort scheduling). No-visit wakeups are idle
    /// polls, not empty cohorts.
    pub fn record_cohort(&self, served: usize) {
        self.cohorts.fetch_add(1, Ordering::Relaxed);
        self.max_cohort.fetch_max(served, Ordering::Relaxed);
    }

    /// Record a packet this stage served on any thread other than this
    /// stage's worker (the runtime followed it here, or a caller served it
    /// inline; DESIGN.md §11). It is a visit of one, so
    /// `processed / cohorts` stays the mean cohort.
    pub fn record_followed(&self) {
        self.followed.fetch_add(1, Ordering::Relaxed);
        self.record_cohort(1);
    }

    /// Record a T-gated visit that hit its service cutoff and returned the
    /// unserved remainder of its cohort to the queue.
    pub fn record_cutoff_preempt(&self) {
        self.cutoff_preempts.fetch_add(1, Ordering::Relaxed);
    }

    /// Queue visits that served at least one packet.
    pub fn cohorts(&self) -> u64 {
        self.cohorts.load(Ordering::Relaxed)
    }

    /// Largest cohort served by any single visit.
    pub fn max_cohort(&self) -> usize {
        self.max_cohort.load(Ordering::Relaxed)
    }

    /// T-gated visits cut off before serving their whole cohort.
    pub fn cutoff_preempts(&self) -> u64 {
        self.cutoff_preempts.load(Ordering::Relaxed)
    }
}

/// Immutable snapshot of one stage's state, as reported by the runtime.
///
/// This is the schema consumed by the autotuner, the bench tables and the
/// wire protocol's `STATS` command (PROTOCOL.md §6); the field-by-field
/// interpretation — including how `idle_polls` and `retries` read as
/// over-provisioning and contention signals — is documented in
/// EXPERIMENTS.md ("Stage-stats schema").
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Stage name.
    pub name: String,
    /// Stage id.
    pub stage_id: usize,
    /// Packets processed successfully.
    pub processed: u64,
    /// Packets whose processing returned an error.
    pub errors: u64,
    /// Cumulative busy time, nanoseconds.
    pub busy_nanos: u64,
    /// Cumulative simulated/real I/O blocked time, nanoseconds.
    pub io_blocked_nanos: u64,
    /// Idle polls (wakeups with an empty queue).
    pub idle_polls: u64,
    /// Packets requeued while waiting on a condition (lock conflicts, full
    /// output buffers).
    pub retries: u64,
    /// Queue visits that served at least one packet (cohort scheduling,
    /// §4.2). `processed + errors` over `cohorts` is the mean cohort size.
    pub cohorts: u64,
    /// Largest cohort any single visit served.
    pub max_cohort: usize,
    /// T-gated visits that hit their service cutoff and returned the
    /// unserved remainder of the cohort to the queue.
    pub cutoff_preempts: u64,
    /// Packets served on any thread other than this stage's worker: the
    /// sender's worker followed a lone packet into this (idle, cheap)
    /// stage instead of handing it over, or a caller that would only have
    /// blocked on the answer served it inline
    /// ([`StagedRuntime::serve_inline`](crate::StagedRuntime::serve_inline)).
    /// They are included in `processed`/`errors` and
    /// each counts as a visit of one in `cohorts`; they never passed
    /// through the queue, so `queue.enqueued` does not count them.
    pub followed: u64,
    /// Current cohort bound (the run-time batch knob, §4.4 knob (b)).
    pub batch_limit: usize,
    /// Workers currently allowed to dequeue.
    pub target_workers: usize,
    /// Workers currently alive (spawned).
    pub spawned_workers: usize,
    /// Queue counters.
    pub queue: QueueStats,
}

impl StageStats {
    /// Fraction of busy time spent blocked on I/O (0 when never busy).
    pub fn io_fraction(&self) -> f64 {
        let total = self.busy_nanos;
        if total == 0 {
            0.0
        } else {
            self.io_blocked_nanos as f64 / total as f64
        }
    }

    /// Mean packets served per queue visit (0 when no visit completed).
    /// The batching-for-locality win of §4.2 scales with this number.
    pub fn mean_cohort(&self) -> f64 {
        if self.cohorts == 0 {
            0.0
        } else {
            (self.processed + self.errors) as f64 / self.cohorts as f64
        }
    }
}

pub(crate) fn snapshot(
    name: &str,
    stage_id: usize,
    monitor: &StageMonitor,
    queue: QueueStats,
    batch_limit: usize,
    target_workers: usize,
    spawned_workers: usize,
) -> StageStats {
    StageStats {
        name: name.to_string(),
        stage_id,
        processed: monitor.processed(),
        errors: monitor.errors(),
        busy_nanos: monitor.busy_nanos(),
        io_blocked_nanos: monitor.io_blocked_nanos(),
        idle_polls: monitor.idle_polls.load(Ordering::Relaxed),
        retries: monitor.retries(),
        cohorts: monitor.cohorts(),
        max_cohort: monitor.max_cohort(),
        cutoff_preempts: monitor.cutoff_preempts(),
        followed: monitor.followed.load(Ordering::Relaxed),
        batch_limit,
        target_workers,
        spawned_workers,
        queue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_fraction_is_guarded_against_zero_busy() {
        let m = StageMonitor::default();
        let s = snapshot("s", 0, &m, crate::queue::StageQueue::<u8>::new(1).stats(), 1, 1, 1);
        assert_eq!(s.io_fraction(), 0.0);
        assert_eq!(s.mean_cohort(), 0.0, "no visits yet");
    }

    #[test]
    fn counters_accumulate() {
        let m = StageMonitor::default();
        m.record_processed(Duration::from_nanos(500));
        m.record_processed(Duration::from_nanos(700));
        m.record_error();
        m.record_io_blocked(Duration::from_nanos(300));
        m.record_retry();
        m.record_retry();
        assert_eq!(m.processed(), 2);
        assert_eq!(m.errors(), 1);
        assert_eq!(m.busy_nanos(), 1200);
        assert_eq!(m.io_blocked_nanos(), 300);
        assert_eq!(m.retries(), 2);
    }

    #[test]
    fn cohort_counters_roll_up() {
        let m = StageMonitor::default();
        m.record_processed(Duration::from_nanos(100));
        m.record_processed(Duration::from_nanos(100));
        m.record_processed(Duration::from_nanos(100));
        m.record_cohort(2);
        m.record_cohort(1);
        m.record_cutoff_preempt();
        assert_eq!(m.cohorts(), 2);
        assert_eq!(m.max_cohort(), 2);
        assert_eq!(m.cutoff_preempts(), 1);
        let s = snapshot("s", 0, &m, crate::queue::StageQueue::<u8>::new(1).stats(), 4, 1, 1);
        assert_eq!(s.batch_limit, 4);
        assert_eq!(s.mean_cohort(), 1.5);
    }
}
