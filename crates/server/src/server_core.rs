//! The server core: everything a primary is apart from how it schedules
//! statements.
//!
//! [`ServerCore`] is built once, by [`ServerCore::open`] — recovery, the
//! log, the statement [`Pipeline`], the two WAL feeds — and owned by both
//! the staged server and the threaded baseline. It also holds the parts of
//! maintenance that are not scheduling: the checkpoint claim and body, the
//! feed pump, and the synthetic `STATS` rows. What is left in
//! `staged_server.rs` and `threaded.rs` is the paper's experimental
//! variable: stages with queues versus a pool of threads.

use crate::feed::{FeedStats, WalFeed};
use crate::pipeline::Pipeline;
use crate::reactivity::ReactivityHub;
use crate::replication::ReplicationHub;
use crate::types::{QueryOutput, Response, ServerConfig, ServerError};
use crossbeam::channel::{bounded, Receiver};
use staged_cachesim::tracker::RefTracker;
use staged_core::error::EnqueueError;
use staged_engine::checkpoint::{self, RecoveryReport};
use staged_engine::context::ExecContext;
use staged_storage::wal::Lsn;
use staged_storage::{
    Catalog, Column, DataType, Schema, SegmentStore, SnapshotStore, Tuple, Value,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A response channel that already holds its answer.
pub(crate) fn answered(res: Response) -> Receiver<Response> {
    let (tx, rx) = bounded(1);
    let _ = tx.send(res);
    rx
}

/// What a bounded queue made of a submission whose response will arrive on
/// `rx`: admitted, refused because the queue is full, or refused because
/// the server is shutting down.
pub(crate) fn queued<P>(
    enqueued: Result<(), EnqueueError<P>>,
    rx: Receiver<Response>,
) -> Result<Receiver<Response>, ServerError> {
    match enqueued {
        Ok(()) => Ok(rx),
        Err(EnqueueError::Full(_)) => Err(ServerError::Overloaded),
        Err(EnqueueError::Closed(_)) => Err(ServerError::ShuttingDown),
    }
}

/// One row of the `STATS` result: the stage (or layer) name and the ten
/// counters of PROTOCOL.md §6, in column order — processed, errors,
/// retries, idle_polls, cohorts, max_cohort, preempts, batch, queued,
/// workers. Synthetic rows reuse the columns for their layer's own
/// quantities.
pub(crate) fn stats_row(name: &str, counters: [u64; 10]) -> Tuple {
    let mut values = vec![Value::Str(name.into())];
    values.extend(counters.map(|c| Value::Int(c as i64)));
    Tuple::new(values)
}

/// The `STATS` result set over `rows`.
pub(crate) fn stats_output(rows: Vec<Tuple>) -> QueryOutput {
    let int = |name| Column::new(name, DataType::Int);
    let schema = Schema::new(vec![
        Column::new("stage", DataType::Str),
        int("processed"),
        int("errors"),
        int("retries"),
        int("idle_polls"),
        int("cohorts"),
        int("max_cohort"),
        int("preempts"),
        int("batch"),
        int("queued"),
        int("workers"),
    ]);
    let message = format!("STATS {}", rows.len());
    QueryOutput { rows, schema: Some(schema), message }
}

/// The synthetic `mvcc` row: `processed` = commit timestamps allocated,
/// `cohorts` = tracked creation stamps, `max_cohort` = dead versions
/// retained, `preempts` = writer transactions with unflipped entries,
/// `batch` = dead versions reclaimed by vacuum so far, `queued` = snapshot
/// pins currently held.
pub(crate) fn mvcc_row(pipe: &Pipeline) -> Tuple {
    let (mut created, mut dead, mut pending, mut reclaimed) = (0, 0, 0, 0);
    for table in pipe.ctx.catalog.list_tables() {
        let s = table.versions.stats();
        created += s.created;
        dead += s.dead;
        pending += s.pending_txns;
        reclaimed += table.versions.gc_totals().0;
    }
    let oracle = pipe.txn.mgr().oracle();
    let (latest, pins) = (oracle.latest(), oracle.pins());
    stats_row("mvcc", [latest, 0, 0, 0, created, dead, pending, reclaimed, pins, 0])
}

/// What both primaries are made of. See the module docs.
pub(crate) struct ServerCore {
    /// The DBMS and the statement steps over it.
    pub pipe: Pipeline,
    snapshots: Arc<dyn SnapshotStore>,
    /// `REPLICATE` feeds: the primary side of replication.
    pub replication: Arc<ReplicationHub>,
    /// `SUBSCRIBE` change feeds.
    pub reactivity: Arc<ReactivityHub>,
    /// What recovery found and did when the core was opened.
    pub recovery: RecoveryReport,
    /// Statements completed.
    pub served: AtomicU64,
    /// True while a checkpoint holds (or is acquiring) the quiesce locks.
    /// Checkpoints serialize on this claim: they all lock re-entrantly
    /// under the one `CHECKPOINT_XID`, so without it the first to finish
    /// would release a concurrent one's locks mid-snapshot.
    checkpointing: AtomicBool,
    /// How long a statement may wait for its partition locks, and a
    /// checkpoint for its turn and its quiesce.
    pub lock_timeout: Duration,
}

impl ServerCore {
    /// Open a primary over `catalog` and the given stores, running
    /// checkpointed recovery first: restore the latest snapshot (if any)
    /// into the catalog, replay only the WAL tail at or after its LSN,
    /// repair a torn log tail. The catalog must be empty when a snapshot
    /// exists (recovery rebuilds the tables it describes).
    pub fn open(
        catalog: Arc<Catalog>,
        config: &ServerConfig,
        tracker: Option<Arc<RefTracker>>,
        segments: Arc<dyn SegmentStore>,
        snapshots: Arc<dyn SnapshotStore>,
    ) -> Result<Self, ServerError> {
        // Tables created through this server's DDL path inherit the
        // configured partition count (scoped to this server's context).
        let mut ctx = ExecContext::new(Arc::clone(&catalog)).with_partitions(config.partitions);
        if let Some(t) = tracker {
            ctx = ctx.with_tracker(t);
        }
        let (wal, recovery) =
            checkpoint::recover(&ctx, segments, snapshots.as_ref(), config.wal_segment_pages)
                .map_err(|e| ServerError::Execution(format!("recovery failed: {e}")))?;
        let wal = Arc::new(wal);
        let pipe = Pipeline::new(ctx, Arc::clone(&wal), config.planner.clone());
        pipe.txn.mgr().resume_after(recovery.max_xid);
        Ok(Self {
            replication: Arc::new(WalFeed::new(Arc::clone(&wal), config.feed_outbox, ())),
            reactivity: Arc::new(WalFeed::new(wal, config.feed_outbox, catalog)),
            pipe,
            snapshots,
            recovery,
            served: AtomicU64::new(0),
            checkpointing: AtomicBool::new(false),
            lock_timeout: config.lock_timeout,
        })
    }

    /// Try to become the one running checkpoint. `false` means another
    /// holds the claim; the caller waits its turn however it schedules
    /// waiting. Pairs with [`release_checkpoint`](Self::release_checkpoint).
    pub fn try_claim_checkpoint(&self) -> bool {
        self.checkpointing
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Give the claim back, after releasing the quiesce locks.
    pub fn release_checkpoint(&self) {
        self.checkpointing.store(false, Ordering::Release);
    }

    /// The checkpoint body. The caller holds the claim and every partition
    /// lock under `CHECKPOINT_XID`, so the database is still: in-flight
    /// writers hold their locks through commit (strict 2PL), so none are
    /// mid-statement.
    pub fn checkpoint_quiesced(&self) -> Response {
        let catalog = &self.pipe.ctx.catalog;
        // The truncation floor is clamped to the minimum replica-acked
        // LSN: history a live replica has not yet confirmed durable stays
        // on disk so a reconnect can resume, not re-seed.
        let outcome = checkpoint::checkpoint_with_floor(
            catalog,
            &self.pipe.wal,
            self.snapshots.as_ref(),
            self.replication.min_acked(),
        );
        // Writers are quiesced, so this is the one safe moment to reclaim
        // dead versions — whether or not the snapshot succeeded.
        let gc = checkpoint::vacuum(catalog, self.pipe.txn.mgr());
        let o = outcome.map_err(|e| ServerError::Execution(e.to_string()))?;
        Ok(QueryOutput::message(format!(
            "CHECKPOINT {} rows={} segments_deleted={} versions_gc={}",
            o.lsn, o.rows, o.segments_deleted, gc.dead_removed
        )))
    }

    /// Pump both feeds. Each returns before touching the WAL store when it
    /// has no subscriber, so an idle server pays two uncontended locks.
    pub fn pump_feeds(&self) {
        self.replication.pump();
        self.reactivity.pump();
    }

    /// The `STATS` result: the caller's scheduling rows followed by the
    /// core's synthetic ones (PROTOCOL.md §6). Each reuses the stage
    /// columns for its layer's own quantities:
    ///
    /// * `wal` — `processed` = pages written, `batch` = pages per segment
    ///   (the rotation threshold), `queued` = live segments;
    /// * `mvcc` — see [`mvcc_row`];
    /// * `replication` — `processed` = records shipped, `errors` = slow
    ///   replicas evicted, `idle_polls`/`preempts` = shipped LSN
    ///   (segment/offset), `cohorts` = connected replicas, `max_cohort` =
    ///   worst per-replica lag in unacked records, `batch` = outbox
    ///   capacity, `queued` = total unacked records;
    /// * `subscriptions` — `processed` = `CHANGE` lines delivered, `errors`
    ///   = slow subscribers evicted, `cohorts` = live subscribers,
    ///   `max_cohort` = worst single overflow backlog, `batch` = outbox
    ///   capacity, `queued` = committed lines queued beyond full outboxes.
    pub fn stats_output(&self, mut rows: Vec<Tuple>) -> QueryOutput {
        let wal = &self.pipe.wal;
        let segments = wal.segments().map_or(0, |s| s.len()) as u64;
        let pages = wal.io_stats().writes;
        rows.push(stats_row("wal", [pages, 0, 0, 0, 0, 0, 0, wal.segment_pages(), segments, 0]));
        rows.push(mvcc_row(&self.pipe));
        let feed_row = |name, s: FeedStats, lsn: Lsn| {
            let counters = [
                s.delivered,
                s.evicted,
                0,
                lsn.segment,
                s.connected,
                s.max_lag,
                lsn.offset,
                s.outbox_capacity,
                s.total_lag,
                0,
            ];
            stats_row(name, counters)
        };
        let shipping = self.replication.stats();
        rows.push(feed_row("replication", shipping, shipping.high_water));
        rows.push(feed_row("subscriptions", self.reactivity.stats(), Lsn::ZERO));
        stats_output(rows)
    }
}
