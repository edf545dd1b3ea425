//! Server-facing request/response types and configuration.

use staged_planner::PlannerConfig;
use staged_storage::{Schema, Tuple};
use std::fmt;
use std::time::Duration;

/// Result rows (or an affected-row message) returned to a client.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Result rows (empty for DML/DDL).
    pub rows: Vec<Tuple>,
    /// Schema of the rows, when the statement produces any.
    pub schema: Option<Schema>,
    /// Human-readable completion tag (`INSERT 3`, `CREATE TABLE`, …).
    pub message: String,
}

impl QueryOutput {
    /// Message-only output.
    pub fn message(m: impl Into<String>) -> Self {
        Self { rows: Vec::new(), schema: None, message: m.into() }
    }
}

/// Errors surfaced to clients.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// SQL could not be parsed/bound/planned.
    Sql(String),
    /// Execution failed.
    Execution(String),
    /// The session's transaction was aborted server-side (statement
    /// failure or lock timeout); statements are refused until the client
    /// acknowledges with `COMMIT`/`ROLLBACK` (the Postgres convention).
    TxnAborted,
    /// The statement writes (DML/DDL) inside a `BEGIN READ ONLY`
    /// transaction; only reads may run until `COMMIT`/`ROLLBACK`.
    ReadOnly,
    /// The statement writes on a read-only replica (or opens a read-write
    /// transaction there). Replicas apply shipped WAL only; retry against
    /// the primary.
    ReadOnlyReplica,
    /// The server is overloaded (connect queue full, §5.2).
    Overloaded,
    /// The server is shutting down.
    ShuttingDown,
    /// Unknown prepared statement.
    UnknownPrepared(String),
    /// The request violated the wire protocol (network front end only).
    Protocol(String),
}

impl ServerError {
    /// The stable wire error code for this error (`ERR <code> <message>`
    /// lines; see `PROTOCOL.md`). Clients branch on the code, never on the
    /// message text.
    pub fn code(&self) -> staged_wire::ErrorCode {
        use staged_wire::ErrorCode;
        match self {
            ServerError::Sql(_) => ErrorCode::Sql,
            ServerError::Execution(_) => ErrorCode::Exec,
            ServerError::TxnAborted => ErrorCode::TxnAborted,
            ServerError::ReadOnly => ErrorCode::ReadOnly,
            ServerError::ReadOnlyReplica => ErrorCode::ReadOnlyReplica,
            ServerError::Overloaded => ErrorCode::Overloaded,
            ServerError::ShuttingDown => ErrorCode::Shutdown,
            ServerError::UnknownPrepared(_) => ErrorCode::UnknownPrepared,
            ServerError::Protocol(_) => ErrorCode::Proto,
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Sql(m) => write!(f, "sql error: {m}"),
            ServerError::Execution(m) => write!(f, "execution error: {m}"),
            ServerError::TxnAborted => {
                write!(f, "current transaction is aborted; issue ROLLBACK before new statements")
            }
            ServerError::ReadOnly => {
                write!(f, "cannot execute a write statement in a read-only transaction")
            }
            ServerError::ReadOnlyReplica => {
                write!(
                    f,
                    "this server is a read-only replica; \
                     writes (and BEGIN without READ ONLY) must go to the primary"
                )
            }
            ServerError::Overloaded => write!(f, "server overloaded"),
            ServerError::ShuttingDown => write!(f, "server shutting down"),
            ServerError::UnknownPrepared(n) => write!(f, "unknown prepared statement {n}"),
            ServerError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<staged_engine::EngineError> for ServerError {
    /// Engine → client error mapping: front-end errors that surfaced at
    /// run time keep the `SQL` wire code, everything else is an execution
    /// error (wire code `EXEC`). The engine's finer-grained class
    /// ([`staged_engine::EngineError::code`]) stays visible through the
    /// message's class prefix (`storage:`, `evaluation error:`, …).
    fn from(e: staged_engine::EngineError) -> Self {
        match &e {
            staged_engine::EngineError::Sql(inner) => ServerError::Sql(inner.to_string()),
            _ => ServerError::Execution(e.to_string()),
        }
    }
}

/// A client response.
pub type Response = Result<QueryOutput, ServerError>;

/// Which engine executes SELECT plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Pull-based iterators on the calling worker.
    Volcano,
    /// The staged page-push engine.
    Staged,
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// SELECT execution engine.
    pub mode: ExecutionMode,
    /// Capacity of each top-level stage queue (connect-queue capacity is
    /// the admission limit under overload; `disconnect`'s also bounds the
    /// staged `SELECT`s running in the engine at once).
    pub queue_capacity: usize,
    /// Packets a pipeline-stage worker may serve per queue visit (cohort
    /// scheduling, paper §4.2): the connect/parse/optimize/lock/execute/
    /// disconnect stages serve gated cohorts of at most this many packets,
    /// amortizing each stage's cache warm-up and queue synchronization
    /// over the visit. The `net` and `checkpoint` stages always serve
    /// one-at-a-time (see DESIGN.md §11).
    pub max_cohort: usize,
    /// Hash partitions for tables created through this server's DDL path
    /// (1 = unpartitioned). Partitioned tables are scanned and aggregated
    /// partition-parallel by the staged engine (paper §6), and DML routes
    /// rows by hash key through the normal WAL-logged path.
    pub partitions: usize,
    /// Planner switches.
    pub planner: PlannerConfig,
    /// How long a DML or `CHECKPOINT` statement may wait for its
    /// partition locks before its transaction is aborted (timeout-abort
    /// deadlock resolution at the lock-manager stage, or in the baseline's
    /// blocking lock wait).
    pub lock_timeout: Duration,
    /// Pages per WAL segment (the log rotates to a new segment file once
    /// the current one reaches this size; checkpoints truncate whole
    /// segments below the checkpoint LSN).
    pub wal_segment_pages: u64,
    /// Auto-checkpoint threshold: when the live log holds more than this
    /// many segments, the checkpoint stage starts a checkpoint on its own
    /// during an idle moment. `None` disables automatic checkpoints
    /// (the `CHECKPOINT` command still works).
    pub checkpoint_segments: Option<u64>,
    /// Per-feed outbox capacity in framed lines, for `REPLICATE` and
    /// `SUBSCRIBE` feeds alike: how far a feed may fall behind the pump
    /// before its subscriber is evicted rather than buffered further
    /// (bounded-queue policy, like every other stage).
    pub feed_outbox: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            mode: ExecutionMode::Staged,
            queue_capacity: 128,
            max_cohort: 16,
            partitions: 1,
            planner: PlannerConfig::default(),
            lock_timeout: Duration::from_secs(2),
            wal_segment_pages: staged_storage::DEFAULT_SEGMENT_PAGES,
            checkpoint_segments: None,
            feed_outbox: crate::feed::DEFAULT_OUTBOX_CAPACITY,
        }
    }
}
