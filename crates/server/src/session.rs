//! Client sessions and the session-scoped transaction state every server
//! shares.
//!
//! A *session* is one client's sequential statement stream. Sessions are
//! what `BEGIN` attaches a transaction to: every later statement from the
//! same session runs under that xid until `COMMIT`/`ROLLBACK`. Statements
//! submitted without a session (the plain `execute_sql` path) run in
//! autocommit mode — each DML statement is its own implicit transaction.
//!
//! [`Session`] is the one handle all three servers hand out — staged,
//! threaded and replica — and the one the network front end holds per
//! connection. What differs is only where a statement enters the server,
//! which each server says through the crate-private `Host` trait.
//!
//! Dropping a session handle with a transaction still open **aborts** it
//! (abort-on-drop): the undo log restores the heap and the lock manager
//! releases everything the transaction held, so a disconnected client can
//! never wedge the server.

use crate::pipeline::Pipeline;
use crate::server_core::answered;
use crate::types::{QueryOutput, Response, ServerError};
use crossbeam::channel::Receiver;
use parking_lot::Mutex;
use staged_engine::context::ExecContext;
use staged_engine::txn::TxnManager;
use staged_storage::wal::Wal;
use staged_storage::SnapshotGuard;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A server a [`Session`] submits to.
pub(crate) trait Host: Send + Sync {
    /// Put `sql` from session `sid` where the server admits statements and
    /// return the channel its response arrives on. With `wait` the call
    /// waits for room in a full queue; without it a full queue refuses
    /// with `Overloaded` — the network front end's admission path, which
    /// then stops reading the socket so back-pressure reaches TCP.
    fn enqueue(&self, sql: String, sid: u64, wait: bool)
        -> Result<Receiver<Response>, ServerError>;

    /// The pipeline whose session table `sid` lives in.
    fn pipeline(&self) -> &Pipeline;
}

/// A client session. Statements submitted here run in order under the
/// session's transaction state (`BEGIN` … `COMMIT`/`ROLLBACK`). Dropping
/// the handle aborts a transaction still open (abort-on-drop), releasing
/// its locks and undoing its writes.
pub struct Session {
    host: Arc<dyn Host>,
    sid: u64,
}

impl Session {
    pub(crate) fn open(host: Arc<dyn Host>) -> Self {
        let sid = host.pipeline().txn.open_session();
        Self { host, sid }
    }

    /// Session id.
    pub fn id(&self) -> u64 {
        self.sid
    }

    /// Submit SQL under this session (blocking admission under
    /// back-pressure; a refusal arrives on the returned channel).
    pub fn submit(&self, sql: impl Into<String>) -> Receiver<Response> {
        self.host.enqueue(sql.into(), self.sid, true).unwrap_or_else(|e| answered(Err(e)))
    }

    /// Non-blocking submit under this session: `Err(Overloaded)` when the
    /// server's admission queue is full.
    pub fn try_submit(&self, sql: impl Into<String>) -> Result<Receiver<Response>, ServerError> {
        self.host.enqueue(sql.into(), self.sid, false)
    }

    /// Run one statement to completion under this session.
    pub fn execute_sql(&self, sql: &str) -> Response {
        self.submit(sql).recv().unwrap_or(Err(ServerError::ShuttingDown))
    }

    /// True while the session table holds a transaction binding for this
    /// session — open, `READ ONLY`, or failed and awaiting
    /// `COMMIT`/`ROLLBACK` — whatever the statements that made it so were
    /// spelled.
    pub(crate) fn in_txn(&self) -> bool {
        let ctx = self.host.pipeline().txn.statement_ctx(Some(self.sid));
        !matches!(ctx, Ok(StatementCtx::Autocommit))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.host.pipeline().close_session(self.sid);
    }
}

/// A session's transaction binding. `Aborted` is the Postgres-style
/// failed-transaction state: the transaction was already rolled back
/// server-side (statement failure or lock timeout), and every further
/// statement fails until the client issues `COMMIT`/`ROLLBACK` — without
/// this, a client script that keeps sending the rest of its transaction
/// would silently run those statements as autocommit singletons.
/// `ReadOnly` is a `BEGIN READ ONLY` transaction: no xid, no locks, no
/// undo — just a pinned snapshot timestamp every statement reads at. The
/// held [`SnapshotGuard`] keeps the vacuum horizon at or below that
/// timestamp for as long as the transaction stays open.
#[derive(Debug)]
enum TxnBinding {
    Open(u64),
    ReadOnly(SnapshotGuard),
    Aborted,
}

/// How a new statement from a session must run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StatementCtx {
    /// No open transaction: the statement is its own implicit transaction.
    #[default]
    Autocommit,
    /// An open read-write transaction under this xid.
    Write(u64),
    /// An open `READ ONLY` transaction pinned at this commit timestamp.
    /// Only reads may run; DML and DDL must be refused.
    ReadOnly(u64),
}

/// Session/transaction bookkeeping: the [`TxnManager`] plus the
/// session → transaction-binding map. One instance per server.
pub struct TxnRuntime {
    mgr: TxnManager,
    active: Mutex<HashMap<u64, TxnBinding>>,
    next_session: AtomicU64,
}

impl TxnRuntime {
    /// A runtime whose transactions commit against `catalog`'s shared
    /// timestamp oracle. Every server over a catalog must use this form:
    /// snapshot visibility only works when all writers stamp versions
    /// from the same clock readers pin against.
    pub fn for_catalog(catalog: &staged_storage::Catalog) -> Self {
        Self {
            mgr: TxnManager::with_oracle(std::sync::Arc::clone(catalog.oracle())),
            active: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
        }
    }

    /// The transaction manager (xids, undo, the lock table).
    pub fn mgr(&self) -> &TxnManager {
        &self.mgr
    }

    /// Allocate a session id.
    pub fn open_session(&self) -> u64 {
        self.next_session.fetch_add(1, Ordering::Relaxed)
    }

    /// Close a session, aborting its in-flight transaction if one exists
    /// (abort-on-drop). Returns `true` when a transaction was rolled back.
    pub fn close_session(&self, session: u64, ctx: &ExecContext, wal: &Wal) -> bool {
        let binding = self.active.lock().remove(&session);
        match binding {
            Some(TxnBinding::Open(xid)) => {
                let _ = self.mgr.rollback(xid, ctx, wal);
                true
            }
            // Dropping the binding releases the snapshot pin; a read-only
            // transaction has nothing to undo.
            Some(TxnBinding::ReadOnly(_)) | Some(TxnBinding::Aborted) | None => false,
        }
    }

    /// How a new statement from `session` must run, or `Err` in the
    /// failed-transaction state (the statement must not run).
    pub fn statement_ctx(&self, session: Option<u64>) -> Result<StatementCtx, ServerError> {
        let Some(sid) = session else { return Ok(StatementCtx::Autocommit) };
        match self.active.lock().get(&sid) {
            Some(TxnBinding::Open(xid)) => Ok(StatementCtx::Write(*xid)),
            Some(TxnBinding::ReadOnly(pin)) => Ok(StatementCtx::ReadOnly(pin.ts())),
            Some(TxnBinding::Aborted) => Err(ServerError::TxnAborted),
            None => Ok(StatementCtx::Autocommit),
        }
    }

    /// `BEGIN` / `BEGIN READ ONLY`: open a transaction on the session.
    ///
    /// A read-write transaction allocates an xid (locks, undo, WAL); a
    /// read-only one allocates nothing — it pins the commit-timestamp
    /// oracle at the current timestamp and every statement until
    /// `COMMIT`/`ROLLBACK` reads that snapshot, lock-free.
    pub fn begin(
        &self,
        session: Option<u64>,
        wal: &Wal,
        read_only: bool,
    ) -> Result<QueryOutput, ServerError> {
        let Some(sid) = session else {
            return Err(ServerError::Sql("BEGIN requires a client session".into()));
        };
        let mut active = self.active.lock();
        if active.contains_key(&sid) {
            return Err(ServerError::Sql("already in a transaction".into()));
        }
        if read_only {
            active.insert(sid, TxnBinding::ReadOnly(self.mgr.oracle().pin()));
            return Ok(QueryOutput::message("BEGIN"));
        }
        let xid = self.mgr.begin(wal).map_err(|e| ServerError::Execution(e.to_string()))?;
        active.insert(sid, TxnBinding::Open(xid));
        Ok(QueryOutput::message("BEGIN"))
    }

    /// `COMMIT`: make the session's transaction durable and release its
    /// locks. A transaction already aborted server-side commits as a
    /// rollback (the Postgres convention), so clients always have a way
    /// out of the failed state.
    pub fn commit(
        &self,
        session: Option<u64>,
        ctx: &ExecContext,
        wal: &Wal,
    ) -> Result<QueryOutput, ServerError> {
        match self.take_active(session) {
            Some(TxnBinding::Open(xid)) => {
                self.mgr
                    .commit(xid, ctx, wal)
                    .map_err(|e| ServerError::Execution(e.to_string()))?;
                Ok(QueryOutput::message("COMMIT"))
            }
            // Nothing to make durable: dropping the binding unpins the
            // snapshot and the vacuum horizon may advance past it.
            Some(TxnBinding::ReadOnly(_)) => Ok(QueryOutput::message("COMMIT")),
            Some(TxnBinding::Aborted) => Ok(QueryOutput::message("ROLLBACK")),
            None => Err(ServerError::Sql("COMMIT outside a transaction".into())),
        }
    }

    /// `ROLLBACK`: undo the session's transaction (a no-op for a
    /// transaction already aborted server-side).
    pub fn rollback(
        &self,
        session: Option<u64>,
        ctx: &ExecContext,
        wal: &Wal,
    ) -> Result<QueryOutput, ServerError> {
        match self.take_active(session) {
            Some(TxnBinding::Open(xid)) => {
                self.mgr
                    .rollback(xid, ctx, wal)
                    .map_err(|e| ServerError::Execution(e.to_string()))?;
                Ok(QueryOutput::message("ROLLBACK"))
            }
            Some(TxnBinding::ReadOnly(_)) | Some(TxnBinding::Aborted) => {
                Ok(QueryOutput::message("ROLLBACK"))
            }
            None => Err(ServerError::Sql("ROLLBACK outside a transaction".into())),
        }
    }

    /// Abort `xid` after a failed statement or lock timeout. The
    /// transaction rolls back immediately; an explicit (session-bound)
    /// transaction leaves the session in the failed state until the client
    /// acknowledges with `COMMIT`/`ROLLBACK`. Safe for implicit
    /// transactions (`session` = None or unbound).
    pub fn fail_txn(&self, session: Option<u64>, xid: u64, ctx: &ExecContext, wal: &Wal) {
        if let Some(sid) = session {
            let mut active = self.active.lock();
            if matches!(active.get(&sid), Some(TxnBinding::Open(x)) if *x == xid) {
                active.insert(sid, TxnBinding::Aborted);
            }
        }
        let _ = self.mgr.rollback(xid, ctx, wal);
    }

    fn take_active(&self, session: Option<u64>) -> Option<TxnBinding> {
        self.active.lock().remove(&session?)
    }
}
