//! Per-stage monitoring.
//!
//! "Each stage provides its own monitoring and self-tuning mechanism. The
//! utilization of both the system's hardware resources and software
//! components (at a stage granularity) can be exploited during the
//! self-tuning process" (paper §5.2). These counters feed the monitoring
//! tables the benchmarks print and the wire protocol's `STATS` command; no
//! tuner reads them (DESIGN.md §11).

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
    retries: AtomicU64,
    cohorts: AtomicU64,
    max_cohort: AtomicUsize,
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

    /// Queue visits that served at least one packet.
    pub fn cohorts(&self) -> u64 {
        self.cohorts.load(Ordering::Relaxed)
    }

    /// Largest cohort served by any single visit.
    pub fn max_cohort(&self) -> usize {
        self.max_cohort.load(Ordering::Relaxed)
    }
}

/// Immutable snapshot of one stage's state, as reported by the runtime.
///
/// This is the schema consumed by the bench tables and the wire
/// protocol's `STATS` command (PROTOCOL.md §6); the field-by-field
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
    /// Packets served on any thread other than this stage's worker: the
    /// sender's worker followed a lone packet into this (idle, cheap)
    /// stage instead of handing it over, or a caller that would only have
    /// blocked on the answer served it inline
    /// ([`StagedRuntime::serve_inline`](crate::StagedRuntime::serve_inline)).
    /// They are included in `processed`/`errors` and
    /// each counts as a visit of one in `cohorts`; they never passed
    /// through the queue, so `queue.enqueued` does not count them.
    pub followed: u64,
    /// Cohort bound, fixed when the stage was built (1 for a
    /// [`BatchPolicy::Single`](crate::BatchPolicy::Single) stage).
    pub batch_limit: usize,
    /// Worker threads, fixed when the stage was built.
    pub workers: usize,
    /// Queue counters.
    pub queue: QueueStats,
}

impl StageStats {
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
    workers: usize,
) -> StageStats {
    StageStats {
        name: name.to_string(),
        stage_id,
        processed: monitor.processed(),
        errors: monitor.errors(),
        busy_nanos: monitor.busy_nanos(),
        idle_polls: monitor.idle_polls.load(Ordering::Relaxed),
        retries: monitor.retries(),
        cohorts: monitor.cohorts(),
        max_cohort: monitor.max_cohort(),
        followed: monitor.followed.load(Ordering::Relaxed),
        batch_limit,
        workers,
        queue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_cohort_is_guarded_against_no_visits() {
        let m = StageMonitor::default();
        let s = snapshot("s", 0, &m, crate::queue::StageQueue::<u8>::new(1).stats(), 1, 1);
        assert_eq!(s.mean_cohort(), 0.0, "no visits yet");
    }

    #[test]
    fn counters_accumulate() {
        let m = StageMonitor::default();
        m.record_processed(Duration::from_nanos(500));
        m.record_processed(Duration::from_nanos(700));
        m.record_error();
        m.record_retry();
        m.record_retry();
        assert_eq!(m.processed(), 2);
        assert_eq!(m.errors(), 1);
        assert_eq!(m.busy_nanos(), 1200);
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
        assert_eq!(m.cohorts(), 2);
        assert_eq!(m.max_cohort(), 2);
        let s = snapshot("s", 0, &m, crate::queue::StageQueue::<u8>::new(1).stats(), 4, 1);
        assert_eq!(s.batch_limit, 4);
        assert_eq!(s.mean_cohort(), 1.5);
    }
}
