//! The work-centric thread-pool baseline (paper §3.1.1).
//!
//! "A pool of threads that picks a client from the queue, works on the
//! client until it exits the execution engine, puts it on an exit queue and
//! picks another client from the input queue." Each worker runs the whole
//! `Pipeline` — plan, join a transaction, lock, run, settle — as direct
//! procedure calls on the Volcano engine; the pool size is the knob whose
//! tuning dilemma Figure 2 demonstrates. Everything that is not scheduling
//! is the `ServerCore` shared with the staged server.

use crate::pipeline::{self, Exec, PlannedAction, TxnSlot};
use crate::reactivity::ReactivityHub;
use crate::replication::ReplicationHub;
use crate::server_core::{answered, queued, stats_row, ServerCore};
use crate::types::{QueryOutput, Response, ServerConfig, ServerError};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use staged_core::queue::{Dequeued, StageQueue};
use staged_engine::checkpoint::RecoveryReport;
use staged_engine::txn::LockMode;
use staged_planner::PlannerConfig;
use staged_storage::wal::Wal;
use staged_storage::{Catalog, MemSegmentStore, MemSnapshotStore, SegmentStore, SnapshotStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One queued statement.
struct Job {
    sql: String,
    session: Option<u64>,
    reply: Sender<Response>,
}

struct Inner {
    core: ServerCore,
    queue: StageQueue<Job>,
    pool_size: usize,
    /// Stops the `repl-pump` thread at shutdown.
    stop: AtomicBool,
}

impl Inner {
    /// Queue one statement for the pool — waiting for room when `wait`,
    /// else refusing with `Overloaded` when the queue is full, so the
    /// event-driven front end can stop reading the socket and let
    /// back-pressure reach TCP.
    fn enqueue(
        &self,
        sql: String,
        session: Option<u64>,
        wait: bool,
    ) -> Result<Receiver<Response>, ServerError> {
        let (reply, rx) = bounded(1);
        let job = Job { sql, session, reply };
        queued(if wait { self.queue.enqueue(job) } else { self.queue.try_enqueue(job) }, rx)
    }

    fn submit(&self, sql: String, session: Option<u64>) -> Receiver<Response> {
        self.enqueue(sql, session, true).unwrap_or_else(|e| answered(Err(e)))
    }
}

/// The thread-pool server.
pub struct ThreadedServer {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    pump: Mutex<Option<JoinHandle<()>>>,
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
        let inner = Arc::new(Inner {
            core: ServerCore::open(catalog, &config, None, segments, snapshots)?,
            queue: StageQueue::new(1024),
            pool_size: pool_size.max(1),
            stop: AtomicBool::new(false),
        });
        let workers = (0..inner.pool_size)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || worker_loop(inner))
                    .expect("spawn pool worker")
            })
            .collect();
        // The feed pump: in the monolithic server there is no stage to
        // hang an idle hook on, so a dedicated thread pumps the feeds. The
        // network loop still pumps when a feed is caught up; this thread
        // mainly bounds stalled-peer eviction latency.
        let pump = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("repl-pump".into())
                .spawn(move || {
                    while !inner.stop.load(Ordering::Acquire) {
                        inner.core.pump_feeds();
                        std::thread::sleep(Duration::from_millis(5));
                    }
                })
                .expect("spawn replication pump")
        };
        Ok(Self { inner, workers: Mutex::new(workers), pump: Mutex::new(Some(pump)) })
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
        self.inner.submit(sql.into(), None)
    }

    /// Run one statement to completion.
    pub fn execute_sql(&self, sql: &str) -> Response {
        self.submit(sql).recv().unwrap_or(Err(ServerError::ShuttingDown))
    }

    /// Open a client session. Statements run through the handle share the
    /// session's transaction state (`BEGIN` … `COMMIT`/`ROLLBACK`);
    /// dropping the handle aborts any transaction still open.
    pub fn session(&self) -> ThreadedSession {
        let sid = self.inner.core.pipe.txn.open_session();
        ThreadedSession { inner: Arc::clone(&self.inner), sid }
    }

    /// Live transactions (diagnostics).
    pub fn active_txns(&self) -> usize {
        self.inner.core.pipe.txn.mgr().active_count()
    }

    /// Queries completed so far.
    pub fn served(&self) -> u64 {
        self.inner.core.served.load(Ordering::Relaxed)
    }

    /// Current input-queue depth.
    pub fn backlog(&self) -> usize {
        self.inner.queue.len()
    }

    /// Size of the worker pool, as configured at construction.
    pub fn pool_size(&self) -> usize {
        self.inner.pool_size
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

    /// The `STATS` result. The monolithic baseline has no per-stage
    /// monitors — one coarse row for the whole pool, same schema — and no
    /// cohorts: a thread runs one query start to finish (batch reads as
    /// 1). The core's synthetic rows follow.
    pub(crate) fn stats_output(&self) -> QueryOutput {
        let (backlog, pool) = (self.backlog() as u64, self.pool_size() as u64);
        let row = stats_row("pool", [self.served(), 0, 0, 0, 0, 0, 0, 1, backlog, pool]);
        self.inner.core.stats_output(vec![row])
    }

    /// Stop the pool, draining queued requests first. Takes `&self` —
    /// the same shutdown contract as `StagedServer::shutdown` — and is
    /// idempotent: every request admitted before the call is answered
    /// (closing the queue lets workers drain pending packets and then
    /// observe `Closed`), later submissions get `ShuttingDown`.
    pub fn shutdown(&self) {
        self.inner.queue.close();
        self.inner.stop.store(true, Ordering::Release);
        for w in self.workers.lock().drain(..) {
            let _ = w.join();
        }
        if let Some(p) = self.pump.lock().take() {
            let _ = p.join();
        }
    }
}

fn worker_loop(inner: Arc<Inner>) {
    loop {
        match inner.queue.dequeue_timeout(Duration::from_millis(20)) {
            Dequeued::Packet(job) => {
                let res = process(&inner.core, &job.sql, job.session);
                inner.core.served.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(res);
            }
            Dequeued::TimedOut => continue,
            Dequeued::Closed => return,
        }
    }
}

/// A client session on the thread-pool server. Statements submitted here
/// run sequentially under the session's transaction state. Dropping the
/// handle aborts an in-flight transaction (abort-on-drop), releasing its
/// locks and undoing its writes.
pub struct ThreadedSession {
    inner: Arc<Inner>,
    sid: u64,
}

impl ThreadedSession {
    /// Session id.
    pub fn id(&self) -> u64 {
        self.sid
    }

    /// Submit SQL under this session.
    pub fn submit(&self, sql: impl Into<String>) -> Receiver<Response> {
        self.inner.submit(sql.into(), Some(self.sid))
    }

    /// Non-blocking submit under this session: `Err(Overloaded)` when the
    /// pool queue is full. This is the event-driven front end's admission
    /// path — the refusal lets the network loop stop reading the socket
    /// instead of blocking a thread on the queue.
    pub fn try_submit(&self, sql: impl Into<String>) -> Result<Receiver<Response>, ServerError> {
        self.inner.enqueue(sql.into(), Some(self.sid), false)
    }

    /// Run one statement to completion under this session.
    pub fn execute_sql(&self, sql: &str) -> Response {
        self.submit(sql).recv().unwrap_or(Err(ServerError::ShuttingDown))
    }
}

impl Drop for ThreadedSession {
    fn drop(&mut self) {
        self.inner.core.pipe.close_session(self.sid);
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
    let mut slot = TxnSlot::default();
    let mut res = Ok(());
    if action.is_dml() {
        slot = pipe.join_txn(session, &action)?;
        let locks = pipe.txn.mgr().locks();
        res = locks
            .lock_all(slot.xid, &mut slot.keys, LockMode::Exclusive, core.lock_timeout)
            .map_err(|_| pipeline::lock_timeout_error());
    }
    let res = res.and_then(|()| match action {
        PlannedAction::Checkpoint => core.checkpoint_quiesced(),
        action => pipe.run(action, session, slot.xid, Exec::Volcano),
    });
    pipe.settle(session, &slot, res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_storage::{BufferPool, MemDisk};

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
