//! The server core: everything a primary is apart from how it schedules
//! statements.
//!
//! [`ServerCore`] is built once, by [`ServerCore::open`] — recovery, the
//! log, the statement [`Pipeline`], the two WAL feeds — and owned by both
//! the staged server and the threaded baseline. It also holds the parts of
//! maintenance that are not scheduling: the checkpoint body, the feed
//! pump stage both servers register ([`FeedPump`]), and the `STATS` rows.
//! A checkpoint gets its locks the way every writer does, through each
//! server's own lock path. Both servers run on a `StagedRuntime`; what is
//! left in `staged_server.rs` and `threaded.rs` is the paper's
//! experimental variable: nine stages with queues versus one stage whose
//! workers run a whole statement each.

use crate::feed::{FeedStats, WalFeed};
use crate::pipeline::Pipeline;
use crate::reactivity::ReactivityHub;
use crate::replication::ReplicationHub;
use crate::types::{QueryOutput, Response, ServerConfig, ServerError};
use crossbeam::channel::{bounded, Receiver};
use staged_cachesim::tracker::RefTracker;
use staged_core::error::EnqueueError;
use staged_core::monitor::StageStats;
use staged_core::{StageCtx, StageError, StageLogic};
use staged_engine::checkpoint::{self, RecoveryReport};
use staged_engine::context::ExecContext;
use staged_storage::wal::Lsn;
use staged_storage::{
    Catalog, Column, DataType, Schema, SegmentStore, SnapshotStore, Tuple, Value,
};
use std::sync::atomic::AtomicU64;
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

/// One `STATS` row per stage, from the runtime's monitors. Stage rows read
/// 0 in `preempts`: gated visits are never cut off. The `replication`
/// stage's row is left out: that stage's only work is its idle-hook pump,
/// and its queue row would shadow the core's shipping row of the same
/// name, which carries the useful counters.
pub(crate) fn stats_rows(stages: Vec<StageStats>) -> Vec<Tuple> {
    stages
        .into_iter()
        .filter(|s| s.name != "replication")
        .map(|s| {
            let counters = [
                s.processed,
                s.errors,
                s.retries,
                s.idle_polls,
                s.cohorts,
                s.max_cohort as u64,
                0,
                s.batch_limit as u64,
                s.queue.depth as u64,
                s.workers as u64,
            ];
            stats_row(&s.name, counters)
        })
        .collect()
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

/// The `replication` stage both primaries register: one worker, routed no
/// packets, whose idle hook pumps committed WAL into every replica's and
/// subscriber's bounded outbox, evicting those that stopped draining. The
/// network loop also pumps when a feed is caught up, so the idle cadence
/// only bounds the *eviction* latency of a stalled peer, not the delivery
/// latency of a healthy one.
pub(crate) struct FeedPump {
    replication: Arc<ReplicationHub>,
    reactivity: Arc<ReactivityHub>,
}

impl<P: Send + 'static> StageLogic<P> for FeedPump {
    fn process(&self, _pkt: P, _ctx: &StageCtx<'_, P>) -> Result<(), StageError> {
        Err(StageError::new("nothing routes packets to the replication stage"))
    }

    /// Each hub returns before touching the WAL store when it has no
    /// subscriber, so an idle server pays two uncontended locks.
    fn on_idle(&self, _ctx: &StageCtx<'_, P>) {
        self.replication.pump();
        self.reactivity.pump();
    }
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
    /// How long a statement (a checkpoint included) may wait for its
    /// partition locks.
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
            lock_timeout: config.lock_timeout,
        })
    }

    /// The checkpoint body. The caller's `CHECKPOINT` transaction holds
    /// every partition lock, so the database is still: in-flight writers
    /// hold their locks through commit (strict 2PL), so none are
    /// mid-statement. Two checkpoints serialize on those locks.
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

    /// The `replication` stage's logic over this core's two feeds.
    pub fn feed_pump(&self) -> FeedPump {
        FeedPump {
            replication: Arc::clone(&self.replication),
            reactivity: Arc::clone(&self.reactivity),
        }
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use staged_storage::wal::LogRecord;

    /// Drive a `CHECKPOINT` into its lock timeout behind a writer that
    /// holds the last key of its lock set, then check what it left: no
    /// lock held, an `Abort` logged for its xid, the partitions it had
    /// taken writable at once, and — after the writer goes — every
    /// partition writable and the next checkpoint through. `execute` runs
    /// autocommit statements; `writer` runs statements in one session.
    /// The server's lock timeout must be short.
    pub(crate) fn checkpoint_timeout_leaves_nothing_held(
        core: &ServerCore,
        execute: &dyn Fn(&str) -> Response,
        writer: &dyn Fn(&str) -> Response,
    ) {
        execute("CREATE TABLE a (id INT, v INT)").unwrap();
        execute("CREATE TABLE b (id INT, v INT)").unwrap();
        execute("INSERT INTO a VALUES (1, 1), (2, 2), (3, 3)").unwrap();
        // `b`'s keys sort after `a`'s: the checkpoint takes every partition
        // of `a` before it waits on the writer's.
        writer("BEGIN").unwrap();
        writer("INSERT INTO b VALUES (0, 0)").unwrap();

        let err = execute("CHECKPOINT").unwrap_err();
        assert_eq!(err, crate::pipeline::lock_timeout_error());
        let aborted: Vec<u64> = core
            .pipe
            .wal
            .read_all()
            .unwrap()
            .into_iter()
            .filter_map(|(_, r)| match r {
                LogRecord::Abort { xid } => Some(xid),
                _ => None,
            })
            .collect();
        let [xid] = aborted[..] else { panic!("one Abort, the checkpoint's: {aborted:?}") };
        assert_eq!(core.pipe.txn.mgr().locks().held_by(xid), 0, "the checkpoint holds no lock");
        execute("UPDATE a SET v = v + 1").unwrap();

        writer("ROLLBACK").unwrap();
        execute("INSERT INTO b VALUES (1, 1), (2, 2), (3, 3)").unwrap();
        execute("UPDATE b SET v = v + 1").unwrap();
        let out = execute("CHECKPOINT").unwrap();
        assert!(out.message.starts_with("CHECKPOINT"), "got {:?}", out.message);
        assert!(out.message.contains("rows=6"), "got {:?}", out.message);
    }
}
