//! The staged DBMS server (paper Figure 3, top row).
//!
//! Everything here is scheduling: nine stages, each a queue plus one
//! worker, and the packets that hop between them. No stage waits on
//! another: a lock conflict parks its packet at the lock stage, and a
//! staged `SELECT` leaves `execute` once its engine query is launched,
//! coming back at `disconnect` when the query ends. What a stage *does* to a
//! statement is one `Pipeline` step, and what the server *is* underneath —
//! recovery, log, feeds, checkpoint body — is the `ServerCore` it shares
//! with the threaded baseline. Maintenance rides the same stages: a
//! `CHECKPOINT` is a statement that waits for its locks at the lock stage
//! like any writer, then runs on the `checkpoint` stage.

use crate::pipeline::{self, Parsed, Pipeline, PlannedAction, TxnSlot};
use crate::reactivity::ReactivityHub;
use crate::replication::ReplicationHub;
use crate::server_core::{answered, queued, stats_row, stats_rows, ServerCore};
use crate::session::{Host, Session};
use crate::types::{ExecutionMode, QueryOutput, Response, ServerConfig, ServerError};
use crossbeam::channel::{bounded, Receiver};
use parking_lot::Mutex;
use staged_cachesim::tracker::RefTracker;
use staged_core::monitor::StageStats;
use staged_core::prelude::*;
use staged_engine::checkpoint::RecoveryReport;
use staged_engine::staged::{EngineConfig, QueryResult, StagedEngine};
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
use std::time::Instant;

/// A packet travelling through the nine top-level stages (net → connect →
/// parse → optimize → lock → execute → disconnect for statements, plus the
/// checkpoint and replication maintenance stages). The enum body is the
/// query's *backpack* — its state at the current point of execution.
pub struct SPacket {
    /// Session the statement came from (None = one-shot autocommit).
    session: Option<u64>,
    /// The statement's admission: the session's transaction state, the
    /// transaction the statement runs under and the partition locks it
    /// still needs (set by the parse stage).
    slot: TxnSlot,
    /// Deadline for lock acquisition (timeout-abort deadlock resolution).
    lock_deadline: Option<Instant>,
    /// A checkpoint the checkpoint stage's idle hook raised itself (its
    /// reply channel is a stub nobody reads).
    auto: bool,
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
    /// Completed; heading to disconnect for commit + reply.
    Finished(Box<Response>),
}

struct ServerShared {
    core: ServerCore,
    engine: Arc<StagedEngine>,
    config: ServerConfig,
    prepared: Mutex<HashMap<String, Arc<(PhysicalPlan, Schema)>>>,
    /// True from the moment the idle hook raises a checkpoint until the
    /// disconnect stage settles it; stops the hook stacking duplicates.
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
            Ok(stmt) => {
                pkt.slot.ctx = stmt;
                pkt.body = PacketBody::Bound(bound);
                forward(ctx, OPTIMIZE, pkt)
            }
            Err(e) => finish(ctx, pkt, Err(e)),
        },
        Ok(Parsed::Action(action)) => {
            // DDL / DML bypass the optimizer (§4.1: "the query can route
            // itself from the connect stage directly to the execute stage").
            // DML and CHECKPOINT make one extra hop through the lock-manager
            // stage first. Admission happens here, once: statements the
            // session's transaction state refuses are turned around before
            // they cost a lock-stage visit, and the rest carry the decision
            // — their transaction and lock set — in the packet.
            match pipe.admit(pkt.session, &action) {
                Ok(slot) => pkt.slot = slot,
                Err(e) => return finish(ctx, pkt, Err(e)),
            }
            let dest = if action.is_dml() { LOCK } else { EXECUTE };
            pkt.body = PacketBody::Action(action);
            forward(ctx, dest, pkt)
        }
        Err(e) => finish(ctx, pkt, Err(e)),
    }
});

/// The lock-manager stage (paper Figure 3 names it as a first-class OLTP
/// stage). A packet arrives with its transaction and lock set already in
/// its slot (the parse stage admitted it); its first visit stamps its lock
/// deadline. It acquires locks incrementally in sorted key order, and once
/// it holds them all goes on to execute (a `CHECKPOINT`, to the checkpoint
/// stage). A packet that hits a conflict *parks*: it leaves the queue for
/// the stage's parked list and the worker moves on.
/// `LockTable::release_all` re-admits every parked packet when it frees
/// something (the hook `with_stores` installs), and a packet still parked
/// at its deadline fails with `lock timeout` — swept from the idle hook,
/// and on every visit so a busy stage sweeps too. Nothing here sleeps or
/// blocks, so the stage serves cohorts and can be followed into like any
/// other.
struct LockStage {
    shared: Arc<ServerShared>,
}

impl StageLogic<SPacket> for LockStage {
    fn process(&self, mut pkt: SPacket, ctx: &StageCtx<'_, SPacket>) -> Result<(), StageError> {
        let shared = &*self.shared;
        let core = &shared.core;
        expire_parked(shared, ctx)?;
        pkt.lock_deadline.get_or_insert_with(|| Instant::now() + core.lock_timeout);
        // Try and park are one critical section of the parked list, and
        // the release hook drains the list under the same mutex *after*
        // the table was updated: a release either happens before the try
        // (which then sees the freed lock) or finds the packet parked.
        let mut parked = shared.parked.lock();
        if try_acquire(core.pipe.txn.mgr().locks(), pkt.slot.xid, &mut pkt.slot.keys) {
            drop(parked);
            let dest = match &pkt.body {
                PacketBody::Action(a) if matches!(**a, PlannedAction::Checkpoint) => CHECKPOINT,
                _ => EXECUTE,
            };
            forward(ctx, dest, pkt)
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

/// The checkpoint stage: the maintenance counterpart of the execute
/// stage. A `CHECKPOINT` statement reaches it from the lock stage once its
/// transaction holds every partition lock — it waited there like any
/// writer, parked until a release re-admitted it — so the stage only runs
/// the core's checkpoint body; the disconnect stage's commit then releases
/// the locks, re-admitting the writers parked behind it. Its idle hook
/// raises a checkpoint on its own when the live log grows past
/// `config.checkpoint_segments`.
struct CheckpointStage {
    shared: Arc<ServerShared>,
}

impl StageLogic<SPacket> for CheckpointStage {
    fn process(&self, pkt: SPacket, ctx: &StageCtx<'_, SPacket>) -> Result<(), StageError> {
        let res = self.shared.core.checkpoint_quiesced();
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
        // The statement enters at `parse`, where it is admitted like any
        // other. The reply channel is a stub: nobody waits on an auto
        // checkpoint.
        let (mut pkt, _rx) = packet(PacketBody::Raw("CHECKPOINT".into()), None);
        pkt.auto = true;
        if ctx.try_send(PARSE, pkt).is_err() {
            shared.auto_pending.store(false, Ordering::Release);
        }
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
    if shared.config.mode == ExecutionMode::Staged
        && matches!(*action, PlannedAction::Select { .. })
    {
        return launch_select(shared, ctx, pkt, *action);
    }
    let res = shared.core.pipe.run(*action, pkt.session, &pkt.slot);
    finish(ctx, pkt, res)
});

fn select_answer(res: QueryResult, schema: Schema) -> Response {
    Ok(pipeline::select_output(res?, schema))
}

/// Run a `SELECT` on the staged engine without waiting for it (§4.1.1
/// case iii). The packet first holds a slot in `disconnect`'s queue —
/// blocking, like any forward, while that queue is full, so at most
/// `queue_capacity` launched queries run at once, and `shutdown` cannot
/// close `disconnect` under one. The query's end fills the slot with the
/// packet and its answer, from whichever engine worker lets the query go.
/// The snapshot pin rides along, so vacuum cannot pass the view while the
/// scan runs. A lone index probe is answered before `launch` returns and
/// is forwarded like any other statement.
fn launch_select(
    shared: &ServerShared,
    ctx: &StageCtx<'_, SPacket>,
    pkt: SPacket,
    mut action: PlannedAction,
) -> Result<(), StageError> {
    let slot = ctx.reserve(DISCONNECT).ok_or_else(|| StageError::new("pipeline closed"))?;
    let pin = pipeline::snapshot_select(&mut action, &shared.core.pipe.txn, &pkt.slot.ctx);
    let PlannedAction::Select { plan, schema } = action else { unreachable!("a SELECT") };
    let done = |(mut pkt, slot, _pin, schema): (SPacket, Reservation<_>, _, _), res| {
        pkt.body = PacketBody::Finished(Box::new(select_answer(res, schema)));
        slot.fill(pkt);
    };
    match shared.engine.launch(&plan, (pkt, slot, pin, schema), done) {
        None => Ok(()),
        Some(((pkt, _, _, schema), res)) => finish(ctx, pkt, select_answer(res, schema)),
    }
}

stage_logic!(DisconnectStage, shared, pkt, _ctx, {
    // "end Xaction, delete state, disconnect": settle the statement's
    // transaction (commit an implicit one, abort on failure), then reply.
    let res = match pkt.take_body() {
        PacketBody::Finished(r) => *r,
        _ => Err(ServerError::Execution("bad packet at disconnect".into())),
    };
    let res = shared.core.pipe.settle(pkt.session, &pkt.slot, res);
    if pkt.auto {
        shared.auto_pending.store(false, Ordering::Release);
    }
    shared.core.served.fetch_add(1, Ordering::Relaxed);
    let _ = pkt.reply.send(res);
    Ok(())
});

/// A fresh packet and the channel its response arrives on.
fn packet(body: PacketBody, session: Option<u64>) -> (SPacket, Receiver<Response>) {
    let (reply, rx) = bounded(1);
    let slot = TxnSlot::default();
    (SPacket { session, slot, lock_deadline: None, auto: false, body, reply }, rx)
}

/// One stage's spec: one worker. `cohorts` stages serve gated cohorts of
/// at most `config.max_cohort` packets (and a lone packet may be followed
/// into them); the others are [`BatchPolicy::Single`].
fn spec(
    name: &str,
    logic: impl StageLogic<SPacket>,
    cohorts: bool,
    config: &ServerConfig,
) -> StageSpec<SPacket> {
    let spec = StageSpec::new(name, logic).with_queue_capacity(config.queue_capacity);
    if cohorts {
        spec.with_batch(BatchPolicy::DGated).with_max_cohort(config.max_cohort)
    } else {
        spec.with_batch(BatchPolicy::Single)
    }
}

impl StagedServer {
    /// Build and start the staged server over an existing catalog, backed
    /// by fresh in-memory WAL-segment and snapshot stores.
    pub fn new(catalog: Arc<Catalog>, config: ServerConfig) -> Arc<Self> {
        Self::with_stores(
            catalog,
            config,
            None,
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
        let engine = StagedEngine::new(core.pipe.ctx.clone(), EngineConfig::default());
        let shared = Arc::new(ServerShared {
            core,
            engine,
            config: config.clone(),
            prepared: Mutex::new(HashMap::new()),
            auto_pending: AtomicBool::new(false),
            parked: Mutex::new(Vec::new()),
        });
        let logic = || Arc::clone(&shared);
        let mut b = StagedRuntime::<SPacket>::builder();
        let mut add = |id: StageId, spec: StageSpec<SPacket>| assert_eq!(b.add_stage(spec), id);
        // Network admissions must drain before the stages they feed close.
        //
        // The `net` stage serves one packet per visit and is never followed
        // into: its bounded queue *is* the server's network admission
        // limit, and a cohort held in a worker's hands would be load
        // admitted past that bound.
        add(NET, spec("net", NetStage, false, &config));
        add(CONNECT, spec("connect", ConnectStage { shared: logic() }, true, &config));
        add(PARSE, spec("parse", ParseStage { shared: logic() }, true, &config));
        add(OPTIMIZE, spec("optimize", OptimizeStage { shared: logic() }, true, &config));
        add(LOCK, spec("lock", LockStage { shared: logic() }, true, &config));
        // One packet at a time, never followed into: checkpoints
        // serialize anyway (on their locks).
        add(CHECKPOINT, spec("checkpoint", CheckpointStage { shared: logic() }, false, &config));
        // The replication stage does all of its work from the idle hook
        // (no packets are ever routed here), pumping the feeds on the
        // runtime's idle cadence.
        let pump = shared.core.feed_pump();
        add(REPLICATION, spec("replication", pump, false, &config));
        add(EXECUTE, spec("execute", ExecuteStage { shared: logic() }, true, &config));
        add(DISCONNECT, spec("disconnect", DisconnectStage { shared: logic() }, true, &config));
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
    fn enter(
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

    /// [`enter`](Self::enter) and wait for room; a refusal (shutdown) is
    /// delivered on the returned channel.
    fn enter_wait(&self, stage: StageId, body: PacketBody) -> Receiver<Response> {
        self.enter(stage, body, None, true).unwrap_or_else(|e| answered(Err(e)))
    }

    /// Submit SQL; returns the response channel (blocking admission under
    /// back-pressure). One-shot autocommit; use [`session`](Self::session)
    /// for multi-statement transactions.
    pub fn submit(&self, sql: impl Into<String>) -> Receiver<Response> {
        self.enter_wait(CONNECT, PacketBody::Raw(sql.into()))
    }

    /// Non-blocking admission: `Err(Overloaded)` when the connect queue is
    /// full (paper §5.2 overload conditioning).
    pub fn try_submit(&self, sql: impl Into<String>) -> Result<Receiver<Response>, ServerError> {
        self.enter(CONNECT, PacketBody::Raw(sql.into()), None, false)
    }

    /// Open a client session: statements run through the handle share the
    /// session's transaction state (`BEGIN` … `COMMIT`/`ROLLBACK`), and
    /// dropping the handle aborts any transaction still open, releasing
    /// its locks (abort-on-drop).
    pub fn session(self: &Arc<Self>) -> Session {
        Session::open(Arc::clone(self) as Arc<dyn Host>)
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
        self.enter_wait(CONNECT, PacketBody::Prepared(name.to_string()))
    }

    /// Run the `CHECKPOINT` statement and wait for it: lock every
    /// partition, snapshot every table and index, truncate the WAL below
    /// the snapshot's LSN. The response message starts with `CHECKPOINT`
    /// on success.
    pub fn checkpoint(&self) -> Response {
        self.execute_sql("CHECKPOINT")
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
    /// (knob (b)) — then the core's synthetic rows.
    pub(crate) fn stats_output(&self) -> QueryOutput {
        let mut rows = stats_rows(self.stage_stats());
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

    /// Stop all stage workers (drains in-flight requests first: a launched
    /// `SELECT` holds its `disconnect` slot until its query ends, so it
    /// still answers with its rows). Packets still parked behind a lock
    /// when the stages have drained — their holders never finished — are
    /// refused rather than left unanswered. The engine stops last, with
    /// no query left.
    pub fn shutdown(&self) {
        self.runtime.shutdown();
        for pkt in std::mem::take(&mut *self.shared.parked.lock()) {
            let _ = pkt.reply.send(Err(ServerError::ShuttingDown));
        }
        self.shared.engine.shutdown();
    }
}

/// Sessions enter where in-process statements do, at `connect`, when they
/// wait for room; the network front end's non-blocking admissions enter
/// at the `net` stage, so network traffic is metered (and back-pressured)
/// by the admission stage's own queue before it reaches `connect`
/// (DESIGN.md §16).
impl Host for StagedServer {
    fn enqueue(
        &self,
        sql: String,
        sid: u64,
        wait: bool,
    ) -> Result<Receiver<Response>, ServerError> {
        let stage = if wait { CONNECT } else { NET };
        self.enter(stage, PacketBody::Raw(sql), Some(sid), wait)
    }

    fn pipeline(&self) -> &Pipeline {
        &self.shared.core.pipe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_storage::{BufferPool, MemDisk};
    use std::time::Duration;

    #[test]
    fn a_checkpoint_that_times_out_leaves_nothing_held() {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 256)));
        let lock_timeout = Duration::from_millis(100);
        let s = StagedServer::new(
            cat,
            ServerConfig { partitions: 2, lock_timeout, ..Default::default() },
        );
        let writer = s.session();
        crate::server_core::tests::checkpoint_timeout_leaves_nothing_held(
            &s.shared.core,
            &|sql| s.execute_sql(sql),
            &|sql| writer.execute_sql(sql),
        );
        drop(writer);
        s.shutdown();
    }
}
