//! The work-centric thread-pool baseline (paper §3.1.1).
//!
//! "A pool of threads that picks a client from the queue, works on the
//! client until it exits the execution engine, puts it on an exit queue and
//! picks another client from the input queue." That pool is one §4.1
//! stage: the `pool` stage of a [`StagedRuntime`], one bounded queue and
//! `pool_size` workers serving one statement per visit. Each worker runs
//! the whole `Pipeline` — plan, admit, lock, run, settle — as
//! direct procedure calls on the Volcano engine; the pool size is the knob
//! whose tuning dilemma Figure 2 demonstrates. Beside it runs the same
//! `replication` stage the staged server registers. The scheduling
//! substrate is the staged server's, so the stage graph is the only
//! difference between the two; everything that is not scheduling is the
//! `ServerCore` they share.

use crate::pipeline::{self, Pipeline, PlannedAction};
use crate::reactivity::ReactivityHub;
use crate::replication::ReplicationHub;
use crate::server_core::{answered, queued, stats_rows, ServerCore};
use crate::session::{Host, Session};
use crate::types::{QueryOutput, Response, ServerConfig, ServerError};
use crossbeam::channel::{bounded, Receiver, Sender};
use staged_core::prelude::*;
use staged_engine::checkpoint::RecoveryReport;
use staged_planner::PlannerConfig;
use staged_storage::wal::Wal;
use staged_storage::{Catalog, MemSegmentStore, MemSnapshotStore, SegmentStore, SnapshotStore};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// One queued statement.
struct Job {
    sql: String,
    session: Option<u64>,
    reply: Sender<Response>,
}

const POOL: StageId = 0;
const REPLICATION: StageId = 1;

/// The `pool` stage: a worker runs one statement start to finish.
struct Pool(Arc<ServerCore>);

impl StageLogic<Job> for Pool {
    fn process(&self, job: Job, _ctx: &StageCtx<'_, Job>) -> Result<(), StageError> {
        let res = process(&self.0, &job.sql, job.session);
        self.0.served.fetch_add(1, Ordering::Relaxed);
        let _ = job.reply.send(res);
        Ok(())
    }
}

struct Inner {
    core: Arc<ServerCore>,
    runtime: StagedRuntime<Job>,
}

impl Inner {
    /// Queue one statement for the pool (see [`Host::enqueue`]).
    fn submit(
        &self,
        sql: String,
        session: Option<u64>,
        wait: bool,
    ) -> Result<Receiver<Response>, ServerError> {
        let (reply, rx) = bounded(1);
        let job = Job { sql, session, reply };
        let rt = &self.runtime;
        queued(if wait { rt.enqueue(POOL, job) } else { rt.try_enqueue(POOL, job) }, rx)
    }
}

impl Host for Inner {
    fn enqueue(
        &self,
        sql: String,
        sid: u64,
        wait: bool,
    ) -> Result<Receiver<Response>, ServerError> {
        self.submit(sql, Some(sid), wait)
    }

    fn pipeline(&self) -> &Pipeline {
        &self.core.pipe
    }
}

/// The thread-pool server.
pub struct ThreadedServer {
    inner: Arc<Inner>,
    pool_size: usize,
}

impl ThreadedServer {
    /// Start a pool of `pool_size` workers over `catalog`.
    pub fn new(catalog: Arc<Catalog>, pool_size: usize, planner: PlannerConfig) -> Self {
        Self::with_lock_timeout(catalog, pool_size, planner, Duration::from_secs(2))
    }

    /// Like [`new`](Self::new) with an explicit deadlock timeout for the
    /// lock manager.
    pub fn with_lock_timeout(
        catalog: Arc<Catalog>,
        pool_size: usize,
        planner: PlannerConfig,
        lock_timeout: Duration,
    ) -> Self {
        Self::with_stores(
            catalog,
            pool_size,
            planner,
            lock_timeout,
            Arc::new(MemSegmentStore::new()),
            Arc::new(MemSnapshotStore::new()),
        )
        .expect("recovery from fresh in-memory stores cannot fail")
    }

    /// Build the pool over existing WAL-segment and snapshot stores,
    /// running checkpointed recovery first (the same `ServerCore::open` as
    /// `StagedServer::with_stores`, under the default `ServerConfig` apart
    /// from `planner` and `lock_timeout`).
    pub fn with_stores(
        catalog: Arc<Catalog>,
        pool_size: usize,
        planner: PlannerConfig,
        lock_timeout: Duration,
        segments: Arc<dyn SegmentStore>,
        snapshots: Arc<dyn SnapshotStore>,
    ) -> Result<Self, ServerError> {
        let config = ServerConfig { planner, lock_timeout, ..ServerConfig::default() };
        let core = Arc::new(ServerCore::open(catalog, &config, None, segments, snapshots)?);
        let pool_size = pool_size.max(1);
        let mut b = StagedRuntime::<Job>::builder();
        // One statement per visit, never followed into: a worker may block
        // in `lock_all` for as long as the lock timeout.
        let pool = StageSpec::new("pool", Pool(Arc::clone(&core)))
            .with_queue_capacity(1024)
            .with_workers(pool_size)
            .with_batch(BatchPolicy::Single);
        assert_eq!(b.add_stage(pool), POOL);
        let pump = StageSpec::new("replication", core.feed_pump()).with_batch(BatchPolicy::Single);
        assert_eq!(b.add_stage(pump), REPLICATION);
        Ok(Self { inner: Arc::new(Inner { core, runtime: b.build() }), pool_size })
    }

    /// Run the `CHECKPOINT` statement and wait for it. A pool worker runs
    /// it like any writer: it blocks until every partition lock is held
    /// (bounded by the lock timeout), runs the core's checkpoint body, and
    /// commits, which releases the locks.
    pub fn checkpoint(&self) -> Response {
        self.execute_sql("CHECKPOINT")
    }

    /// Submit SQL for execution (one-shot autocommit; use
    /// [`session`](Self::session) for multi-statement transactions).
    pub fn submit(&self, sql: impl Into<String>) -> Receiver<Response> {
        self.inner.submit(sql.into(), None, true).unwrap_or_else(|e| answered(Err(e)))
    }

    /// Run one statement to completion.
    pub fn execute_sql(&self, sql: &str) -> Response {
        self.submit(sql).recv().unwrap_or(Err(ServerError::ShuttingDown))
    }

    /// Open a client session on the pool queue.
    pub fn session(&self) -> Session {
        Session::open(Arc::clone(&self.inner) as Arc<dyn Host>)
    }

    /// Live transactions (diagnostics).
    pub fn active_txns(&self) -> usize {
        self.inner.core.pipe.txn.mgr().active_count()
    }

    /// Queries completed so far.
    pub fn served(&self) -> u64 {
        self.inner.core.served.load(Ordering::Relaxed)
    }

    /// Size of the worker pool, as configured at construction.
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// What recovery found and did when this server was built.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.inner.core.recovery
    }

    /// The write-ahead log (for monitoring: live segments, I/O counters).
    pub fn wal(&self) -> &Wal {
        &self.inner.core.pipe.wal
    }

    /// The WAL-shipping hub (primary side of replication): replica
    /// subscriptions, the shipping pump, and the acked-LSN floor that
    /// clamps checkpoint truncation.
    pub fn replication_hub(&self) -> &Arc<ReplicationHub> {
        &self.inner.core.replication
    }

    /// The subscription hub (`SUBSCRIBE` change feeds): registrations,
    /// bounded per-subscriber outboxes, and the change pump.
    pub fn reactivity_hub(&self) -> &Arc<ReactivityHub> {
        &self.inner.core.reactivity
    }

    /// The `STATS` result: the `pool` stage's row — one statement per
    /// visit, so `batch` and `max_cohort` read 1 — then the core's
    /// synthetic rows.
    pub(crate) fn stats_output(&self) -> QueryOutput {
        self.inner.core.stats_output(stats_rows(self.inner.runtime.stats()))
    }

    /// Stop the pool, draining queued requests first. Takes `&self` —
    /// the same shutdown contract as `StagedServer::shutdown` — and is
    /// idempotent: every request admitted before the call is answered,
    /// later submissions get `ShuttingDown`.
    pub fn shutdown(&self) {
        self.inner.runtime.shutdown();
    }
}

/// The whole pipeline as one procedure call chain — the monolithic model.
/// Lock acquisition is *sequential* here (block, then execute), the
/// baseline counterpart of the staged server's lock-manager stage; a
/// `CHECKPOINT` takes the same path and runs the core's checkpoint body in
/// place of the execute step.
fn process(core: &ServerCore, sql: &str, session: Option<u64>) -> Response {
    let pipe = &core.pipe;
    let action = pipe.plan(sql)?;
    let mut slot = pipe.admit(session, &action)?;
    let locks = pipe.txn.mgr().locks();
    let res = locks
        .lock_all(slot.xid, &mut slot.keys, core.lock_timeout)
        .map_err(|_| pipeline::lock_timeout_error())
        .and_then(|()| match action {
            PlannedAction::Checkpoint => core.checkpoint_quiesced(),
            action => pipe.run(action, session, &slot),
        });
    pipe.settle(session, &slot, res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_storage::wal::Lsn;
    use staged_storage::{BufferPool, MemDisk, Value};
    use std::time::Instant;

    fn server(pool: usize) -> ThreadedServer {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 256)));
        ThreadedServer::new(cat, pool, PlannerConfig::default())
    }

    #[test]
    fn end_to_end_sql() {
        let s = server(2);
        s.execute_sql("CREATE TABLE kv (k INT, v VARCHAR(16))").unwrap();
        s.execute_sql("INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')").unwrap();
        let out = s.execute_sql("SELECT v FROM kv WHERE k = 2").unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].to_string(), "['two']");
        let out = s.execute_sql("DELETE FROM kv WHERE k > 1").unwrap();
        assert_eq!(out.message, "DELETE 2");
        s.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let s = server(4);
        s.execute_sql("CREATE TABLE n (x INT)").unwrap();
        for i in 0..32 {
            s.execute_sql(&format!("INSERT INTO n VALUES ({i})")).unwrap();
        }
        let receivers: Vec<_> = (0..16).map(|_| s.submit("SELECT COUNT(*) FROM n")).collect();
        for rx in receivers {
            let out = rx.recv().unwrap().unwrap();
            assert_eq!(out.rows[0].to_string(), "[32]");
        }
        assert!(s.served() >= 16 + 33);
        s.shutdown();
    }

    #[test]
    fn shutdown_drains_every_admitted_request() {
        let s = server(1);
        s.execute_sql("CREATE TABLE d (x INT)").unwrap();
        s.execute_sql("INSERT INTO d VALUES (1), (2), (3)").unwrap();
        // Flood the single worker so most requests are still queued when
        // shutdown is called: none may be silently dropped.
        let receivers: Vec<_> = (0..64).map(|_| s.submit("SELECT COUNT(*) FROM d")).collect();
        s.shutdown();
        for rx in receivers {
            let out = rx.recv().expect("drained response").unwrap();
            assert_eq!(out.rows[0].to_string(), "[3]");
        }
        // After shutdown new submissions are refused loudly, not dropped.
        assert!(matches!(
            s.submit("SELECT COUNT(*) FROM d").recv(),
            Ok(Err(ServerError::ShuttingDown))
        ));
        // And shutdown is idempotent under the unified `&self` contract.
        s.shutdown();
    }

    #[test]
    fn a_checkpoint_waits_for_a_writer_then_succeeds() {
        let s = server(2);
        s.execute_sql("CREATE TABLE w (x INT)").unwrap();
        let writer = s.session();
        writer.execute_sql("BEGIN").unwrap();
        writer.execute_sql("INSERT INTO w VALUES (1)").unwrap();
        // The checkpoint begins its transaction, then blocks one pool worker
        // on the writer's lock; the other worker is free to run the
        // writer's COMMIT.
        let ckpt = s.submit("CHECKPOINT");
        while s.active_txns() < 2 {
            std::thread::yield_now();
        }
        assert!(ckpt.try_recv().is_err(), "checkpoint ran beside an open writer");
        writer.execute_sql("COMMIT").unwrap();
        let out = ckpt.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        assert!(out.message.starts_with("CHECKPOINT"), "got {:?}", out.message);
        assert!(out.message.contains("rows=1"), "the committed row is in the snapshot");
        s.shutdown();
    }

    #[test]
    fn a_checkpoint_that_times_out_leaves_nothing_held() {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 256)));
        let timeout = Duration::from_millis(100);
        let s = ThreadedServer::with_lock_timeout(cat, 2, PlannerConfig::default(), timeout);
        let writer = s.session();
        crate::server_core::tests::checkpoint_timeout_leaves_nothing_held(
            &s.inner.core,
            &|sql| s.execute_sql(sql),
            &|sql| writer.execute_sql(sql),
        );
        s.shutdown();
    }

    /// The `pool` row is the runtime's monitor row: one cohort per
    /// statement, and the pool's own worker count.
    #[test]
    fn stats_pool_row_carries_the_runtime_counters() {
        let s = server(3);
        s.execute_sql("CREATE TABLE m (x INT)").unwrap();
        for i in 0..8 {
            s.execute_sql(&format!("INSERT INTO m VALUES ({i})")).unwrap();
        }
        // Shut down first: every visit is then closed and booked.
        s.shutdown();
        let out = s.stats_output();
        let name = |r: &staged_storage::Tuple| match &r.values()[0] {
            Value::Str(n) => n.clone(),
            v => panic!("stage name {v:?}"),
        };
        let names: Vec<String> = out.rows.iter().map(name).collect();
        assert_eq!(names, ["pool", "wal", "mvcc", "replication", "subscriptions"]);
        let pool: Vec<i64> = out.rows[0].values()[1..]
            .iter()
            .map(|v| match v {
                Value::Int(n) => *n,
                v => panic!("counter {v:?}"),
            })
            .collect();
        let [processed, _, _, _, cohorts, max_cohort, _, batch, _, workers] = pool[..] else {
            panic!("ten counters: {pool:?}");
        };
        assert_eq!(processed, 9, "every statement booked on the pool stage");
        assert!(cohorts >= 9, "one visit per statement: {cohorts}");
        assert_eq!((max_cohort, batch, workers), (1, 1, 3));
    }

    /// With no front end to pump, the `replication` stage's idle hook alone
    /// fills an undrained subscription's outbox and evicts it.
    #[test]
    fn the_replication_stage_evicts_an_undrained_subscription() {
        let s = server(1);
        let hub = s.replication_hub();
        let (_id, rx) = hub.subscribe(Lsn::ZERO).unwrap();
        // The outbox's wake hook fires on every delivery and on the
        // hang-up an eviction makes; the test never drains the outbox.
        let (woke, wake) = crossbeam::channel::unbounded();
        rx.set_wake_hook(Arc::new(move || {
            let _ = woke.send(());
        }));
        s.execute_sql("CREATE TABLE e (x INT)").unwrap();
        let rows: Vec<String> = (0..1100).map(|i| format!("({i})")).collect();
        s.execute_sql(&format!("INSERT INTO e VALUES {}", rows.join(", "))).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while hub.stats().evicted == 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            wake.recv_timeout(left).expect("the stalled subscription was never evicted");
        }
        assert_eq!(rx.len(), crate::feed::DEFAULT_OUTBOX_CAPACITY, "the outbox filled, undrained");
        s.shutdown();
    }

    #[test]
    fn sql_errors_are_reported_not_fatal() {
        let s = server(1);
        assert!(matches!(s.execute_sql("SELEC nope"), Err(ServerError::Sql(_))));
        assert!(matches!(s.execute_sql("SELECT * FROM missing"), Err(ServerError::Sql(_))));
        // Server still healthy.
        s.execute_sql("CREATE TABLE ok (x INT)").unwrap();
        s.shutdown();
    }
}
