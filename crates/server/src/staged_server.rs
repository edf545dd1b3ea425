//! The staged DBMS server (paper Figure 3, top row).
//!
//! Everything here is scheduling: nine stages, each a queue plus a worker
//! pool, and the packets that hop between them. What a stage *does* to a
//! statement is one `Pipeline` step, and what the server *is* underneath —
//! recovery, log, feeds, checkpoint body — is the `ServerCore` it shares
//! with the threaded baseline.

use crate::pipeline::{self, Exec, Parsed, PlannedAction, TxnSlot};
use crate::reactivity::ReactivityHub;
use crate::replication::ReplicationHub;
use crate::server_core::{answered, queued, stats_row, ServerCore};
use crate::types::{ExecutionMode, QueryOutput, Response, ServerConfig, ServerError};
use crossbeam::channel::{bounded, Receiver};
use parking_lot::Mutex;
use staged_cachesim::tracker::RefTracker;
use staged_core::monitor::StageStats;
use staged_core::prelude::*;
use staged_engine::checkpoint::{self, RecoveryReport, CHECKPOINT_XID};
use staged_engine::staged::StagedEngine;
use staged_engine::txn::{LockKey, LockMode, LockTable};
use staged_planner::PhysicalPlan;
use staged_sql::binder::BoundSelect;
use staged_storage::wal::Wal;
use staged_storage::{
    Catalog, MemSegmentStore, MemSnapshotStore, Schema, SegmentStore, SnapshotStore,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A packet travelling through the nine top-level stages (net → connect →
/// parse → optimize → lock → execute → disconnect for statements, plus the
/// checkpoint and replication maintenance stages). The enum body is the
/// query's *backpack* — its state at the current point of execution.
pub struct SPacket {
    /// Session the statement came from (None = one-shot autocommit).
    session: Option<u64>,
    /// The transaction the statement runs under and the partition locks it
    /// still needs (set by the lock stage; a checkpoint packet keeps its
    /// quiesce set here).
    slot: TxnSlot,
    /// Deadline for lock acquisition (timeout-abort deadlock resolution).
    lock_deadline: Option<Instant>,
    body: PacketBody,
    reply: crossbeam::channel::Sender<Response>,
}

impl SPacket {
    fn take_body(&mut self) -> PacketBody {
        std::mem::replace(&mut self.body, PacketBody::Raw(String::new()))
    }

    fn timed_out(&self, now: Instant) -> bool {
        self.lock_deadline.is_some_and(|d| now >= d)
    }
}

enum PacketBody {
    /// Fresh SQL text (entering connect).
    Raw(String),
    /// Prepared-statement invocation (connect routes it straight to
    /// execute).
    Prepared(String),
    /// Bound SELECT awaiting the optimizer.
    Bound(Box<BoundSelect>),
    /// Ready to execute.
    Action(Box<PlannedAction>),
    /// A checkpoint request heading for the checkpoint stage. `auto` marks
    /// requests the stage raised itself from its idle hook (their reply
    /// channel is a stub nobody reads).
    Checkpoint {
        /// Raised by the idle hook rather than a client.
        auto: bool,
    },
    /// Completed; heading to disconnect for commit + reply.
    Finished(Box<Response>),
}

struct ServerShared {
    core: ServerCore,
    engine: Arc<StagedEngine>,
    config: ServerConfig,
    prepared: Mutex<HashMap<String, Arc<(PhysicalPlan, Schema)>>>,
    /// True while an idle-raised checkpoint packet is queued or running;
    /// stops the idle hook from stacking duplicates.
    auto_pending: AtomicBool,
    /// The lock stage's parked list: packets that hit a lock conflict
    /// wait here, outside the stage's queue, until a release re-admits
    /// them or their deadline passes (docs/CONCURRENCY.md, "Lock waits").
    parked: Mutex<Vec<SPacket>>,
}

/// The staged server.
pub struct StagedServer {
    shared: Arc<ServerShared>,
    runtime: StagedRuntime<SPacket>,
}

// The nine stages in registration order, which is pipeline order, which is
// the order `shutdown` drains them in. A stage's `StageId` is its position
// in that order; `with_stores` asserts each as it registers the stage.
const NET: StageId = 0;
const CONNECT: StageId = 1;
const PARSE: StageId = 2;
const OPTIMIZE: StageId = 3;
const LOCK: StageId = 4;
const CHECKPOINT: StageId = 5;
const REPLICATION: StageId = 6;
const EXECUTE: StageId = 7;
const DISCONNECT: StageId = 8;

macro_rules! stage_logic {
    ($name:ident, $shared:ident, $pkt:ident, $ctx:ident, $body:block) => {
        struct $name {
            $shared: Arc<ServerShared>,
        }
        impl StageLogic<SPacket> for $name {
            fn process(
                &self,
                mut $pkt: SPacket,
                $ctx: &StageCtx<'_, SPacket>,
            ) -> Result<(), StageError> {
                let $shared = &self.$shared;
                $body
            }
        }
    };
}

fn forward(ctx: &StageCtx<'_, SPacket>, stage: StageId, pkt: SPacket) -> Result<(), StageError> {
    ctx.send(stage, pkt).map_err(|_| StageError::new("pipeline closed"))
}

fn finish(ctx: &StageCtx<'_, SPacket>, mut pkt: SPacket, res: Response) -> Result<(), StageError> {
    pkt.body = PacketBody::Finished(Box::new(res));
    forward(ctx, DISCONNECT, pkt)
}

/// A packet whose body is not what `stage` works on: answer with an error.
fn misrouted(ctx: &StageCtx<'_, SPacket>, pkt: SPacket, stage: &str) -> Result<(), StageError> {
    finish(ctx, pkt, Err(ServerError::Execution(format!("bad packet at {stage}"))))
}

/// Grant `xid` as many of `keys` as are free right now, in (sorted) order,
/// removing the granted ones. True once none are left.
fn try_acquire(locks: &LockTable, xid: u64, keys: &mut Vec<LockKey>) -> bool {
    let mut granted = 0;
    while granted < keys.len() && locks.try_lock(xid, keys[granted], LockMode::Exclusive) {
        granted += 1;
    }
    keys.drain(..granted);
    keys.is_empty()
}

/// Fail parked packets whose lock deadline has passed: the statement
/// answers `lock timeout` and the disconnect stage aborts its transaction
/// (timeout-abort deadlock resolution).
///
/// Sweeps are coarse (an idle tick can be hundreds of milliseconds), so
/// both sides of a deadlock are usually overdue by the time one runs;
/// failing both would resolve the deadlock with no survivor. A waiter
/// whose transaction holds no lock is in no cycle and always fails. Of the
/// overdue waiters that do hold locks, a sweep fails only the one with
/// the earliest deadline: its abort releases its locks, the release hook
/// re-admits the rest, and each of those either gets its lock or — still
/// conflicted and overdue — fails on that retry.
fn expire_parked(shared: &ServerShared, ctx: &StageCtx<'_, SPacket>) -> Result<(), StageError> {
    let now = Instant::now();
    let locks = shared.core.pipe.txn.mgr().locks();
    let mut expired = Vec::new();
    {
        let mut parked = shared.parked.lock();
        let mut victim: Option<usize> = None;
        let mut i = 0;
        while i < parked.len() {
            let pkt = &parked[i];
            if pkt.timed_out(now) {
                if locks.held_by(pkt.slot.xid) == 0 {
                    expired.push(parked.remove(i));
                    continue;
                }
                if victim.is_none_or(|v| pkt.lock_deadline < parked[v].lock_deadline) {
                    victim = Some(i);
                }
            }
            i += 1;
        }
        // Still the right index: every removal above was at a later one.
        if let Some(v) = victim {
            expired.push(parked.remove(v));
        }
    }
    expired.into_iter().try_for_each(|pkt| finish(ctx, pkt, Err(pipeline::lock_timeout_error())))
}

/// The network admission stage. Statements arriving over TCP enter the
/// pipeline here: the event loop enqueues one packet per decoded statement,
/// and this stage's bounded queue is the server's admission buffer — when
/// downstream stages fall behind, back-pressure propagates through this
/// queue to the event loop and from there, via unread socket bytes, to the
/// clients themselves. Its StageStats therefore meter exactly the
/// network-admitted load (in-process submissions enter at `connect` and
/// are not counted here).
struct NetStage;

impl StageLogic<SPacket> for NetStage {
    fn process(&self, pkt: SPacket, ctx: &StageCtx<'_, SPacket>) -> Result<(), StageError> {
        forward(ctx, CONNECT, pkt)
    }
}

stage_logic!(ConnectStage, shared, pkt, ctx, {
    match pkt.take_body() {
        PacketBody::Raw(sql) => {
            pkt.body = PacketBody::Raw(sql);
            forward(ctx, PARSE, pkt)
        }
        PacketBody::Prepared(name) => {
            // Precompiled queries bypass parser and optimizer (§4.1).
            let found = shared.prepared.lock().get(&name).cloned();
            match found {
                Some(entry) => {
                    pkt.body = PacketBody::Action(Box::new(PlannedAction::Select {
                        plan: entry.0.clone(),
                        schema: entry.1.clone(),
                    }));
                    forward(ctx, EXECUTE, pkt)
                }
                None => finish(ctx, pkt, Err(ServerError::UnknownPrepared(name))),
            }
        }
        _ => misrouted(ctx, pkt, "connect"),
    }
});

stage_logic!(ParseStage, shared, pkt, ctx, {
    let PacketBody::Raw(sql) = pkt.take_body() else {
        return misrouted(ctx, pkt, "parse");
    };
    let pipe = &shared.core.pipe;
    match pipeline::parse_stage(&sql, &pipe.ctx.catalog, pipe.ctx.tracker.as_deref()) {
        Ok(Parsed::NeedsPlan(bound)) => match pipe.txn.statement_ctx(pkt.session) {
            Ok(_) => {
                pkt.body = PacketBody::Bound(bound);
                forward(ctx, OPTIMIZE, pkt)
            }
            Err(e) => finish(ctx, pkt, Err(e)),
        },
        Ok(Parsed::Action(action)) => {
            // DDL / DML bypass the optimizer (§4.1: "the query can route
            // itself from the connect stage directly to the execute stage").
            // DML makes one extra hop through the lock-manager stage first.
            // Statements the session's transaction state refuses are turned
            // around here, before they cost a lock-stage visit — the
            // per-statement policy decision of the read-only fast path.
            if !matches!(*action, PlannedAction::TxnControl(_)) {
                if let Err(e) = pipe.admit(pkt.session, &action) {
                    return finish(ctx, pkt, Err(e));
                }
            }
            let dest = if action.is_dml() { LOCK } else { EXECUTE };
            pkt.body = PacketBody::Action(action);
            forward(ctx, dest, pkt)
        }
        Err(e) => finish(ctx, pkt, Err(e)),
    }
});

/// The lock-manager stage (paper Figure 3 names it as a first-class OLTP
/// stage). On first visit the packet joins its session's open transaction
/// — or starts a statement-scoped implicit one — and computes its lock
/// set; then it acquires locks incrementally in sorted key order. A packet
/// that hits a conflict *parks*: it leaves the queue for the stage's
/// parked list and the worker moves on. `LockTable::release_all` re-admits
/// every parked packet when it frees something (the hook `with_stores`
/// installs), and a packet still parked at its deadline fails with `lock
/// timeout` — swept from the idle hook, and on every visit so a busy stage
/// sweeps too. Nothing here sleeps or blocks, so the stage serves cohorts
/// and can be followed into like any other.
struct LockStage {
    shared: Arc<ServerShared>,
}

impl StageLogic<SPacket> for LockStage {
    fn process(&self, mut pkt: SPacket, ctx: &StageCtx<'_, SPacket>) -> Result<(), StageError> {
        let shared = &*self.shared;
        let core = &shared.core;
        expire_parked(shared, ctx)?;
        if pkt.lock_deadline.is_none() {
            let PacketBody::Action(action) = &pkt.body else {
                return misrouted(ctx, pkt, "lock");
            };
            match core.pipe.join_txn(pkt.session, action) {
                Ok(slot) => pkt.slot = slot,
                Err(e) => return finish(ctx, pkt, Err(e)),
            }
            pkt.lock_deadline = Some(Instant::now() + core.lock_timeout);
        }
        // Try and park are one critical section of the parked list, and
        // the release hook drains the list under the same mutex *after*
        // the table was updated: a release either happens before the try
        // (which then sees the freed lock) or finds the packet parked.
        let mut parked = shared.parked.lock();
        if try_acquire(core.pipe.txn.mgr().locks(), pkt.slot.xid, &mut pkt.slot.keys) {
            drop(parked);
            forward(ctx, EXECUTE, pkt)
        } else if pkt.timed_out(Instant::now()) {
            drop(parked);
            finish(ctx, pkt, Err(pipeline::lock_timeout_error()))
        } else {
            ctx.record_retry();
            parked.push(pkt);
            Ok(())
        }
    }

    fn on_idle(&self, ctx: &StageCtx<'_, SPacket>) {
        // `finish` only buffers into the worker's outbox; it cannot fail.
        let _ = expire_parked(&self.shared, ctx);
    }
}

/// The checkpoint stage: the maintenance counterpart of the lock-manager
/// stage. A checkpoint packet claims the core's checkpoint turn, quiesces
/// the writers by acquiring every partition lock incrementally under
/// [`CHECKPOINT_XID`], and once the database is still, runs the core's
/// checkpoint body and releases the world (which re-admits the writers
/// that parked behind it at the lock stage). While the turn or a lock is
/// not to be had it *polls* ([`CheckpointStage::poll_again`]): the stage
/// has its own single worker and nobody queues behind a checkpoint, so a
/// sleeping worker stalls no one. Its idle hook raises a checkpoint on its
/// own when the live log grows past `config.checkpoint_segments`.
struct CheckpointStage {
    shared: Arc<ServerShared>,
}

impl CheckpointStage {
    /// Wait-and-retry (case iii of §4.1.1): yield the worker briefly, then
    /// put the packet back on the stage's own queue (capacity-exempt: it
    /// was admitted once). The retry counter makes the waiting visible.
    fn poll_again(ctx: &StageCtx<'_, SPacket>, pkt: SPacket) -> Result<(), StageError> {
        ctx.record_retry();
        std::thread::sleep(Duration::from_micros(100));
        ctx.requeue_back(pkt).map_err(|_| StageError::new("pipeline closed"))
    }
}

impl StageLogic<SPacket> for CheckpointStage {
    fn process(&self, mut pkt: SPacket, ctx: &StageCtx<'_, SPacket>) -> Result<(), StageError> {
        let core = &self.shared.core;
        let PacketBody::Checkpoint { auto } = pkt.body else {
            return misrouted(ctx, pkt, "checkpoint");
        };
        if pkt.lock_deadline.is_none() {
            if !core.try_claim_checkpoint() {
                return Self::poll_again(ctx, pkt);
            }
            pkt.slot.keys = checkpoint::quiesce_keys(&core.pipe.ctx.catalog);
            pkt.lock_deadline = Some(Instant::now() + core.lock_timeout);
        }
        let locks = core.pipe.txn.mgr().locks();
        let res = if try_acquire(locks, CHECKPOINT_XID, &mut pkt.slot.keys) {
            core.checkpoint_quiesced()
        } else if pkt.timed_out(Instant::now()) {
            // Writers would not drain in time: give the locks back and
            // report, leaving the log untouched.
            Err(ServerError::Execution("checkpoint lock timeout: writers would not quiesce".into()))
        } else {
            return Self::poll_again(ctx, pkt);
        };
        locks.release_all(CHECKPOINT_XID);
        core.release_checkpoint();
        if auto {
            self.shared.auto_pending.store(false, Ordering::Release);
        }
        finish(ctx, pkt, res)
    }

    fn on_idle(&self, ctx: &StageCtx<'_, SPacket>) {
        let shared = &self.shared;
        let Some(limit) = shared.config.checkpoint_segments else { return };
        let live = shared.core.pipe.wal.segments().map(|s| s.len() as u64).unwrap_or(0);
        if live <= limit {
            return;
        }
        if shared
            .auto_pending
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        // The reply channel is a stub: nobody waits on an auto checkpoint.
        let (pkt, _rx) = packet(PacketBody::Checkpoint { auto: true }, None);
        if ctx.try_send(ctx.stage_id, pkt).is_err() {
            shared.auto_pending.store(false, Ordering::Release);
        }
    }
}

/// The replication stage: the feed pump, run as its own bounded stage like
/// everything else in the server. It receives no client packets — its work
/// hook is `on_idle`, which pumps committed WAL into every replica's and
/// subscriber's bounded outbox (evicting those that stopped draining). The
/// network loop also pumps on its own when a feed is caught up, so this
/// stage's idle cadence only bounds the *eviction* latency of a stalled
/// peer, not the delivery latency of a healthy one.
struct ReplicationStage {
    shared: Arc<ServerShared>,
}

impl StageLogic<SPacket> for ReplicationStage {
    fn process(&self, pkt: SPacket, ctx: &StageCtx<'_, SPacket>) -> Result<(), StageError> {
        // Nothing routes packets here; anything that arrives is a bug.
        misrouted(ctx, pkt, "replication")
    }

    fn on_idle(&self, _ctx: &StageCtx<'_, SPacket>) {
        self.shared.core.pump_feeds();
    }
}

stage_logic!(OptimizeStage, shared, pkt, ctx, {
    let PacketBody::Bound(bound) = pkt.take_body() else {
        return misrouted(ctx, pkt, "optimize");
    };
    let pipe = &shared.core.pipe;
    match pipeline::optimize_stage(&bound, &pipe.ctx.catalog, &pipe.planner) {
        Ok(action) => {
            pkt.body = PacketBody::Action(Box::new(action));
            forward(ctx, EXECUTE, pkt)
        }
        Err(e) => finish(ctx, pkt, Err(e)),
    }
});

stage_logic!(ExecuteStage, shared, pkt, ctx, {
    let PacketBody::Action(action) = pkt.take_body() else {
        return misrouted(ctx, pkt, "execute");
    };
    let exec = match shared.config.mode {
        ExecutionMode::Volcano => Exec::Volcano,
        ExecutionMode::Staged => Exec::Staged(&shared.engine),
    };
    let res = shared.core.pipe.run(*action, pkt.session, pkt.slot.xid, exec);
    finish(ctx, pkt, res)
});

stage_logic!(DisconnectStage, shared, pkt, _ctx, {
    // "end Xaction, delete state, disconnect": settle the statement's
    // transaction (commit an implicit one, abort on failure), then reply.
    let res = match pkt.take_body() {
        PacketBody::Finished(r) => *r,
        _ => Err(ServerError::Execution("bad packet at disconnect".into())),
    };
    let res = shared.core.pipe.settle(pkt.session, &pkt.slot, res);
    shared.core.served.fetch_add(1, Ordering::Relaxed);
    let _ = pkt.reply.send(res);
    Ok(())
});

/// A fresh packet and the channel its response arrives on.
fn packet(body: PacketBody, session: Option<u64>) -> (SPacket, Receiver<Response>) {
    let (reply, rx) = bounded(1);
    (SPacket { session, slot: TxnSlot::default(), lock_deadline: None, body, reply }, rx)
}

/// One stage's spec. `cohorts` stages serve gated cohorts of at most
/// `config.max_cohort` packets (and a lone packet may be followed into
/// them); the others are [`BatchPolicy::Single`].
fn spec(
    name: &str,
    logic: impl StageLogic<SPacket>,
    workers: usize,
    cohorts: bool,
    config: &ServerConfig,
) -> StageSpec<SPacket> {
    let spec = StageSpec::new(name, logic)
        .with_queue_capacity(config.queue_capacity)
        .with_workers(workers);
    if cohorts {
        spec.with_batch(BatchPolicy::DGated).with_max_cohort(config.max_cohort)
    } else {
        spec.with_batch(BatchPolicy::Single)
    }
}

impl StagedServer {
    /// Build and start the staged server over an existing catalog.
    pub fn new(catalog: Arc<Catalog>, config: ServerConfig) -> Arc<Self> {
        Self::with_tracker(catalog, config, None)
    }

    /// Like [`new`](Self::new), with Table-1 reference instrumentation.
    /// Backed by fresh in-memory WAL-segment and snapshot stores.
    pub fn with_tracker(
        catalog: Arc<Catalog>,
        config: ServerConfig,
        tracker: Option<Arc<RefTracker>>,
    ) -> Arc<Self> {
        Self::with_stores(
            catalog,
            config,
            tracker,
            Arc::new(MemSegmentStore::new()),
            Arc::new(MemSnapshotStore::new()),
        )
        .expect("recovery from fresh in-memory stores cannot fail")
    }

    /// Build the server over existing WAL-segment and snapshot stores,
    /// running checkpointed recovery first (see `ServerCore::open`), then
    /// start the stages. The catalog must be empty when a snapshot exists
    /// (recovery rebuilds the tables it describes).
    pub fn with_stores(
        catalog: Arc<Catalog>,
        config: ServerConfig,
        tracker: Option<Arc<RefTracker>>,
        segments: Arc<dyn SegmentStore>,
        snapshots: Arc<dyn SnapshotStore>,
    ) -> Result<Arc<Self>, ServerError> {
        let core = ServerCore::open(catalog, &config, tracker, segments, snapshots)?;
        let engine = StagedEngine::new(core.pipe.ctx.clone(), config.engine.clone());
        let shared = Arc::new(ServerShared {
            core,
            engine,
            config: config.clone(),
            prepared: Mutex::new(HashMap::new()),
            auto_pending: AtomicBool::new(false),
            parked: Mutex::new(Vec::new()),
        });
        let logic = || Arc::clone(&shared);
        let control = config.control_workers;
        let mut b = StagedRuntime::<SPacket>::builder();
        let mut add = |id: StageId, spec: StageSpec<SPacket>| assert_eq!(b.add_stage(spec), id);
        // Network admissions must drain before the stages they feed close.
        //
        // The `net` stage serves one packet per visit and is never followed
        // into: its bounded queue *is* the server's network admission
        // limit, and a cohort held in a worker's hands would be load
        // admitted past that bound.
        add(NET, spec("net", NetStage, control, false, &config));
        add(CONNECT, spec("connect", ConnectStage { shared: logic() }, control, true, &config));
        add(PARSE, spec("parse", ParseStage { shared: logic() }, control, true, &config));
        add(OPTIMIZE, spec("optimize", OptimizeStage { shared: logic() }, control, true, &config));
        add(LOCK, spec("lock", LockStage { shared: logic() }, control, true, &config));
        // One worker, one packet at a time, never followed into:
        // checkpoints serialize anyway (on the core's claim), and a waiting
        // checkpoint sleeps inside `process`.
        add(CHECKPOINT, spec("checkpoint", CheckpointStage { shared: logic() }, 1, false, &config));
        // One worker: the replication stage does all of its work from the
        // idle hook (no packets are ever routed here), pumping the feeds
        // on the runtime's idle cadence.
        add(
            REPLICATION,
            spec("replication", ReplicationStage { shared: logic() }, 1, false, &config),
        );
        let workers = config.execute_workers;
        add(EXECUTE, spec("execute", ExecuteStage { shared: logic() }, workers, true, &config));
        add(
            DISCONNECT,
            spec("disconnect", DisconnectStage { shared: logic() }, control, true, &config),
        );
        let server = Arc::new(Self { shared, runtime: b.build() });
        // The release hook: whichever thread frees a lock puts the parked
        // packets back on the lock stage's queue. Weak, because the lock
        // table lives inside the server the hook would otherwise own.
        let weak = Arc::downgrade(&server);
        server.shared.core.pipe.txn.mgr().locks().set_release_hook(move || {
            let Some(server) = weak.upgrade() else { return };
            let woken = std::mem::take(&mut *server.shared.parked.lock());
            if !woken.is_empty() {
                server.runtime.readmit(LOCK, woken);
            }
        });
        Ok(server)
    }

    /// Put one packet on `stage`'s queue — waiting for room when `wait`,
    /// else refusing with `Overloaded` when the queue is full — and return
    /// the channel its response arrives on.
    fn enqueue(
        &self,
        stage: StageId,
        body: PacketBody,
        session: Option<u64>,
        wait: bool,
    ) -> Result<Receiver<Response>, ServerError> {
        let (pkt, rx) = packet(body, session);
        let enqueued = if wait {
            self.runtime.enqueue(stage, pkt)
        } else {
            self.runtime.try_enqueue(stage, pkt)
        };
        queued(enqueued, rx)
    }

    /// [`enqueue`](Self::enqueue) and wait for room; a refusal (shutdown)
    /// is delivered on the returned channel.
    fn enqueue_wait(
        &self,
        stage: StageId,
        body: PacketBody,
        session: Option<u64>,
    ) -> Receiver<Response> {
        self.enqueue(stage, body, session, true).unwrap_or_else(|e| answered(Err(e)))
    }

    /// Submit SQL; returns the response channel (blocking admission under
    /// back-pressure). One-shot autocommit; use [`session`](Self::session)
    /// for multi-statement transactions.
    pub fn submit(&self, sql: impl Into<String>) -> Receiver<Response> {
        self.enqueue_wait(CONNECT, PacketBody::Raw(sql.into()), None)
    }

    /// Non-blocking admission: `Err(Overloaded)` when the connect queue is
    /// full (paper §5.2 overload conditioning).
    pub fn try_submit(&self, sql: impl Into<String>) -> Result<Receiver<Response>, ServerError> {
        self.enqueue(CONNECT, PacketBody::Raw(sql.into()), None, false)
    }

    /// Non-blocking network admission: enter at the `net` stage, so
    /// network traffic is metered (and back-pressured) by the admission
    /// stage's own queue before it reaches `connect`. `Err(Overloaded)`
    /// when that bounded queue is full — the event-driven front end
    /// translates that into *not reading the socket*, so the overload
    /// propagates to TCP flow control instead of parking a thread
    /// (DESIGN.md §16).
    pub fn try_submit_admitted(
        &self,
        sql: impl Into<String>,
        session: Option<u64>,
    ) -> Result<Receiver<Response>, ServerError> {
        self.enqueue(NET, PacketBody::Raw(sql.into()), session, false)
    }

    /// Open a client session: statements run through the handle share the
    /// session's transaction state (`BEGIN` … `COMMIT`/`ROLLBACK`), and
    /// dropping the handle aborts any transaction still open, releasing
    /// its locks (abort-on-drop).
    pub fn session(self: &Arc<Self>) -> StagedSession {
        StagedSession { server: Arc::clone(self), sid: self.shared.core.pipe.txn.open_session() }
    }

    /// Live transactions (diagnostics).
    pub fn active_txns(&self) -> usize {
        self.shared.core.pipe.txn.mgr().active_count()
    }

    /// Run one statement to completion.
    pub fn execute_sql(&self, sql: &str) -> Response {
        self.submit(sql).recv().unwrap_or(Err(ServerError::ShuttingDown))
    }

    /// Parse + plan a SELECT once, store it under `name`. Later
    /// [`execute_prepared`](Self::execute_prepared) calls route connect →
    /// execute directly.
    pub fn prepare(&self, name: &str, sql: &str) -> Result<(), ServerError> {
        let PlannedAction::Select { plan, schema } = self.shared.core.pipe.plan(sql)? else {
            return Err(ServerError::Sql("only plain SELECT can be prepared".into()));
        };
        self.shared.prepared.lock().insert(name.to_string(), Arc::new((plan, schema)));
        Ok(())
    }

    /// Invoke a prepared statement (the fast path).
    pub fn execute_prepared(&self, name: &str) -> Receiver<Response> {
        self.enqueue_wait(CONNECT, PacketBody::Prepared(name.to_string()), None)
    }

    /// Run a checkpoint through the checkpoint stage and wait for it:
    /// quiesce the writers, snapshot every table and index, truncate the
    /// WAL below the snapshot's LSN. The response message starts with
    /// `CHECKPOINT` on success.
    pub fn checkpoint(&self) -> Response {
        self.submit_checkpoint().recv().unwrap_or(Err(ServerError::ShuttingDown))
    }

    /// Start a checkpoint through the checkpoint stage without waiting:
    /// the receiver completes when the checkpoint does. This is the
    /// network front end's path — the event loop must never block behind
    /// a quiesce.
    pub fn submit_checkpoint(&self) -> Receiver<Response> {
        self.enqueue_wait(CHECKPOINT, PacketBody::Checkpoint { auto: false }, None)
    }

    /// What recovery found and did when this server was built (how many
    /// rows came from the snapshot, how many log records replayed, and
    /// whether the log tail was damaged).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.shared.core.recovery
    }

    /// The write-ahead log (for monitoring: live segments, I/O counters).
    pub fn wal(&self) -> &Wal {
        &self.shared.core.pipe.wal
    }

    /// The WAL-shipping hub (primary side of replication): replica
    /// subscriptions, the shipping pump, and the acked-LSN floor that
    /// clamps checkpoint truncation.
    pub fn replication_hub(&self) -> &Arc<ReplicationHub> {
        &self.shared.core.replication
    }

    /// The subscription hub (`SUBSCRIBE` change feeds): registrations,
    /// bounded per-subscriber outboxes, and the change pump.
    pub fn reactivity_hub(&self) -> &Arc<ReactivityHub> {
        &self.shared.core.reactivity
    }

    /// Per-stage monitoring (the §5.2 "easy to tune" observability).
    pub fn stage_stats(&self) -> Vec<StageStats> {
        self.runtime.stats()
    }

    /// The `STATS` result: one row per stage, one for the engine's
    /// exchange layer — its `batch` column carries the exchange page size
    /// (§4.4 knob (c)), the same way stage rows carry their cohort bound
    /// (knob (b)) — then the core's synthetic rows. Stage rows read 0 in
    /// `preempts`: gated visits are never cut off.
    pub(crate) fn stats_output(&self) -> QueryOutput {
        let mut rows: Vec<_> = self
            .stage_stats()
            .into_iter()
            // The replication stage's only work is its idle-hook pump; its
            // queue row would shadow the core's shipping summary row of
            // the same name, which carries the useful counters.
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
            .collect();
        let page_size = self.engine().page_size() as u64;
        rows.push(stats_row("exchange", [0, 0, 0, 0, 0, 0, 0, page_size, 0, 0]));
        self.shared.core.stats_output(rows)
    }

    /// Execution-engine stage monitoring.
    pub fn engine_stats(&self) -> Vec<StageStats> {
        self.shared.engine.runtime().stats()
    }

    /// The inner staged execution engine.
    pub fn engine(&self) -> &Arc<StagedEngine> {
        &self.shared.engine
    }

    /// Queries completed.
    pub fn served(&self) -> u64 {
        self.shared.core.served.load(Ordering::Relaxed)
    }

    /// Stop all stage workers (drains in-flight requests first). Packets
    /// still parked behind a lock when the stages have drained — their
    /// holders never finished — are refused rather than left unanswered.
    pub fn shutdown(&self) {
        self.runtime.shutdown();
        for pkt in std::mem::take(&mut *self.shared.parked.lock()) {
            let _ = pkt.reply.send(Err(ServerError::ShuttingDown));
        }
        self.shared.engine.shutdown();
    }
}

/// A client session on the staged server. Statements submitted here flow
/// through the normal stage pipeline but share the session's transaction
/// state. Dropping the handle aborts an in-flight transaction
/// (abort-on-drop), releasing its locks and undoing its writes.
pub struct StagedSession {
    server: Arc<StagedServer>,
    sid: u64,
}

impl StagedSession {
    /// Session id.
    pub fn id(&self) -> u64 {
        self.sid
    }

    /// Submit SQL under this session.
    pub fn submit(&self, sql: impl Into<String>) -> Receiver<Response> {
        let server = &self.server;
        server.enqueue_wait(CONNECT, PacketBody::Raw(sql.into()), Some(self.sid))
    }

    /// Run one statement to completion under this session.
    pub fn execute_sql(&self, sql: &str) -> Response {
        self.submit(sql).recv().unwrap_or(Err(ServerError::ShuttingDown))
    }

    /// Non-blocking admission at the `net` stage: `Err(Overloaded)` when
    /// the admission queue is full (the network front end's path; see
    /// [`StagedServer::try_submit_admitted`]).
    pub fn try_submit_admitted(
        &self,
        sql: impl Into<String>,
    ) -> Result<Receiver<Response>, ServerError> {
        self.server.try_submit_admitted(sql, Some(self.sid))
    }
}

impl Drop for StagedSession {
    fn drop(&mut self) {
        self.server.shared.core.pipe.close_session(self.sid);
    }
}
