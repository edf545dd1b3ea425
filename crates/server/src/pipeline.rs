//! The query pipeline, factored into the stage bodies of Figure 3 so the
//! staged server and the threaded baseline run byte-identical logic.
//!
//! The free functions are the stage bodies proper (parse, optimize,
//! execute). `Pipeline` bundles them with the per-statement *policy* —
//! may it run, which transaction does it join, what happens to that
//! transaction afterwards — as four steps, `plan` → `admit` → `run` →
//! `settle`. `admit` is the only step that reads the session's
//! transaction state; it returns its decision as a `TxnSlot`, and the
//! later steps take that slot instead of asking again. The servers differ
//! only in how they schedule those steps: the threaded baseline calls them
//! in sequence on one worker, the staged server spreads them over its
//! stages, the replica composes the read-only subset.

use crate::session::{StatementCtx, TxnRuntime};
use crate::types::{QueryOutput, Response, ServerError};
use staged_cachesim::tracker::RefTracker;
use staged_engine::context::ExecContext;
use staged_engine::dml::{self, DmlLog};
use staged_engine::staged::StagedEngine;
use staged_engine::txn::{LockKey, TxnManager};
use staged_engine::volcano;
use staged_planner::{plan_select, plan_table_filter, PhysicalPlan, PlannerConfig};
use staged_sql::ast::{Expr, Statement};
use staged_sql::binder::{BindContext, Binder, BoundSelect};
use staged_sql::parser::parse_statement;
use staged_sql::rewrite::fold;
use staged_storage::catalog::TableInfo;
use staged_storage::wal::Wal;
use staged_storage::{Catalog, DataType, ReadView, Schema, SnapshotGuard, Tuple, Value};
use std::sync::Arc;

/// Output of the parse stage: either a bound SELECT still needing the
/// optimizer, or a fully-determined action that bypasses it (§4.1).
pub enum Parsed {
    /// Needs the optimize stage.
    NeedsPlan(Box<BoundSelect>),
    /// Ready for the execute stage.
    Action(Box<PlannedAction>),
}

/// An executable statement.
pub enum PlannedAction {
    /// Run a SELECT plan.
    Select {
        /// The physical plan.
        plan: PhysicalPlan,
        /// Result schema.
        schema: Schema,
    },
    /// Return a plan as text.
    Explain {
        /// Rendered plan.
        text: String,
    },
    /// Insert pre-evaluated rows.
    Insert {
        /// Target table.
        table: Arc<TableInfo>,
        /// Rows to insert.
        rows: Vec<Tuple>,
    },
    /// Update rows in place.
    Update {
        /// Target table.
        table: Arc<TableInfo>,
        /// `(column index, bound expression)` assignments.
        sets: Vec<(usize, Expr)>,
        /// Bound row filter.
        predicate: Option<Expr>,
    },
    /// Delete rows.
    Delete {
        /// Target table.
        table: Arc<TableInfo>,
        /// Bound row filter.
        predicate: Option<Expr>,
    },
    /// `BEGIN` / `COMMIT` / `ROLLBACK`, executed against the server's
    /// [`TxnRuntime`] (never reaches the execute engine proper).
    TxnControl(Statement),
    /// DDL, executed directly.
    Ddl(Statement),
    /// `CHECKPOINT`: run by the server's checkpoint body once its
    /// transaction holds every partition lock (never reaches the execute
    /// engine proper).
    Checkpoint,
}

impl PlannedAction {
    /// True for actions that need partition locks before they run — the
    /// ones the lock-manager stage must grant first.
    pub fn is_dml(&self) -> bool {
        matches!(
            self,
            PlannedAction::Insert { .. }
                | PlannedAction::Update { .. }
                | PlannedAction::Delete { .. }
                | PlannedAction::Checkpoint
        )
    }
}

/// Parse + bind one statement (the parse stage of Figure 3).
pub fn parse_stage(
    sql: &str,
    catalog: &Catalog,
    tracker: Option<&RefTracker>,
) -> Result<Parsed, ServerError> {
    let stmt = parse_statement(sql).map_err(|e| ServerError::Sql(e.to_string()))?;
    bind_statement(stmt, catalog, tracker)
}

/// Bind an already-parsed statement.
pub fn bind_statement(
    stmt: Statement,
    catalog: &Catalog,
    tracker: Option<&RefTracker>,
) -> Result<Parsed, ServerError> {
    let mut ctx = BindContext::new(catalog);
    if let Some(t) = tracker {
        ctx = ctx.with_tracker(t);
    }
    let binder = Binder::new(ctx);
    let sql_err = |e: staged_sql::SqlError| ServerError::Sql(e.to_string());
    match stmt {
        Statement::Select(sel) => {
            let bound = binder.bind_select(sel).map_err(sql_err)?;
            Ok(Parsed::NeedsPlan(Box::new(bound)))
        }
        Statement::Explain(inner) => match bind_statement(*inner, catalog, tracker)? {
            Parsed::NeedsPlan(mut bound) => {
                bound.explain = true;
                Ok(Parsed::NeedsPlan(bound))
            }
            Parsed::Action(_) => Ok(Parsed::Action(Box::new(PlannedAction::Explain {
                text: "non-SELECT statements execute directly".into(),
            }))),
        },
        Statement::Insert { table, columns, rows } => {
            let info = catalog.table(&table).map_err(|e| ServerError::Sql(e.to_string()))?;
            let mut out_rows = Vec::with_capacity(rows.len());
            for row in rows {
                let mut vals = vec![Value::Null; info.schema.len()];
                let targets: Vec<usize> = match &columns {
                    Some(cols) => cols
                        .iter()
                        .map(|c| {
                            info.schema
                                .index_of(c)
                                .ok_or_else(|| ServerError::Sql(format!("unknown column {c}")))
                        })
                        .collect::<Result<_, _>>()?,
                    None => (0..info.schema.len()).collect(),
                };
                if targets.len() != row.len() {
                    return Err(ServerError::Sql(format!(
                        "INSERT expects {} values, got {}",
                        targets.len(),
                        row.len()
                    )));
                }
                for (slot, expr) in targets.into_iter().zip(row) {
                    let v = match fold(expr) {
                        Expr::Literal(v) => v,
                        other => {
                            return Err(ServerError::Sql(format!(
                                "INSERT values must be constants, got {other}"
                            )))
                        }
                    };
                    // Coerce ints into float columns at the boundary.
                    vals[slot] = match (info.schema.column(slot).ty, v) {
                        (DataType::Float, Value::Int(i)) => Value::Float(i as f64),
                        (_, v) => v,
                    };
                }
                out_rows.push(Tuple::new(vals));
            }
            Ok(Parsed::Action(Box::new(PlannedAction::Insert { table: info, rows: out_rows })))
        }
        Statement::Update { table, sets, filter } => {
            let info = catalog.table(&table).map_err(|e| ServerError::Sql(e.to_string()))?;
            let mut bound_sets = Vec::with_capacity(sets.len());
            for (col, mut expr) in sets {
                let idx = info
                    .schema
                    .index_of(&col)
                    .ok_or_else(|| ServerError::Sql(format!("unknown column {col}")))?;
                binder.bind_table_predicate(&mut expr, &info).map_err(sql_err)?;
                bound_sets.push((idx, expr));
            }
            let predicate = bind_filter(filter, &binder, &info)?;
            Ok(Parsed::Action(Box::new(PlannedAction::Update {
                table: info,
                sets: bound_sets,
                predicate,
            })))
        }
        Statement::Delete { table, filter } => {
            let info = catalog.table(&table).map_err(|e| ServerError::Sql(e.to_string()))?;
            let predicate = bind_filter(filter, &binder, &info)?;
            Ok(Parsed::Action(Box::new(PlannedAction::Delete { table: info, predicate })))
        }
        txn if txn.is_txn_control() => Ok(Parsed::Action(Box::new(PlannedAction::TxnControl(txn)))),
        Statement::Checkpoint => Ok(Parsed::Action(Box::new(PlannedAction::Checkpoint))),
        ddl => Ok(Parsed::Action(Box::new(PlannedAction::Ddl(ddl)))),
    }
}

/// The lock-manager stage's policy: which partition locks a DML action
/// needs, at the finest granularity that is provably safe.
///
/// - INSERT locks exactly the partitions its rows hash to.
/// - DELETE locks the single partition the planner prunes the predicate to,
///   or every partition of the table when the predicate doesn't pin the
///   hash key.
/// - UPDATE is like DELETE, except that an assignment to the partition-key
///   column can move rows anywhere, so it locks the whole table.
/// - CHECKPOINT locks every partition of every table: with all writers
///   parked behind it (strict 2PL), the heap and indexes hold still while
///   it snapshots them.
///
/// Other actions need no locks (reads are not locked; see DESIGN.md §9).
/// Both engines acquire exactly this key set — the staged server in its
/// lock stage, the Volcano baseline sequentially — so the two remain
/// diffable under concurrency.
pub fn dml_lock_keys(
    action: &PlannedAction,
    catalog: &Catalog,
    planner: &PlannerConfig,
) -> Vec<LockKey> {
    let all = |table: &Arc<TableInfo>| -> Vec<LockKey> {
        (0..table.partitions()).map(|p| LockKey::new(table.id.0, p as u32)).collect()
    };
    let pruned_to = |table: &Arc<TableInfo>, predicate: &Option<Expr>| -> Vec<LockKey> {
        match plan_table_filter(table, predicate.clone(), catalog, planner) {
            PhysicalPlan::PartitionScan { partition, .. } => {
                vec![LockKey::new(table.id.0, partition as u32)]
            }
            PhysicalPlan::IndexScan { index, lo, hi, .. } => {
                match table.pruned_partition(index.column, lo, hi) {
                    Some(p) => vec![LockKey::new(table.id.0, p as u32)],
                    None => all(table),
                }
            }
            _ => all(table),
        }
    };
    let mut keys = match action {
        PlannedAction::Insert { table, rows } => rows
            .iter()
            .map(|r| LockKey::new(table.id.0, table.heap.partition_of(r) as u32))
            .collect(),
        PlannedAction::Delete { table, predicate } => pruned_to(table, predicate),
        PlannedAction::Update { table, sets, predicate } => {
            if sets.iter().any(|(col, _)| *col == table.partition_key()) {
                all(table)
            } else {
                pruned_to(table, predicate)
            }
        }
        PlannedAction::Checkpoint => catalog.list_tables().iter().flat_map(all).collect(),
        _ => Vec::new(),
    };
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Execute `BEGIN`/`COMMIT`/`ROLLBACK` against the server's transaction
/// runtime. Shared verbatim by both servers.
pub fn execute_txn_control(
    stmt: &Statement,
    session: Option<u64>,
    txn: &TxnRuntime,
    ctx: &ExecContext,
    wal: &Wal,
) -> Result<QueryOutput, ServerError> {
    match stmt {
        Statement::Begin { read_only } => txn.begin(session, wal, *read_only),
        Statement::Commit => txn.commit(session, ctx, wal),
        Statement::Rollback => txn.rollback(session, ctx, wal),
        other => Err(ServerError::Sql(format!("not transaction control: {other}"))),
    }
}

/// Give a SELECT action an MVCC read view, making its scans snapshot
/// reads (lock-free, visibility-filtered): the core of the read-only fast
/// path. The view's timestamp comes from the session's transaction state:
///
/// - `ReadOnly` — the timestamp pinned at `BEGIN READ ONLY`, so every
///   statement in the transaction reads the same snapshot;
/// - `Write` — a fresh pin at the current timestamp, with the reader's
///   xid in the view so the transaction sees its own uncommitted writes;
/// - `Autocommit` — a fresh pin at the current timestamp.
///
/// Returns the pin guard for fresh pins; the caller must hold it across
/// execution so the vacuum horizon cannot pass the view (a `ReadOnly`
/// binding already holds its own pin, so none is returned). Non-SELECT
/// actions are untouched.
pub fn snapshot_select(
    action: &mut PlannedAction,
    txn: &TxnRuntime,
    stmt: &StatementCtx,
) -> Option<SnapshotGuard> {
    let PlannedAction::Select { plan, .. } = action else { return None };
    match stmt {
        StatementCtx::ReadOnly(ts) => {
            plan.attach_snapshot(ReadView { ts: *ts, xid: 0 });
            None
        }
        StatementCtx::Write(xid) => {
            let pin = txn.mgr().oracle().pin();
            plan.attach_snapshot(ReadView { ts: pin.ts(), xid: *xid });
            Some(pin)
        }
        StatementCtx::Autocommit => {
            let pin = txn.mgr().oracle().pin();
            plan.attach_snapshot(ReadView { ts: pin.ts(), xid: 0 });
            Some(pin)
        }
    }
}

fn bind_filter(
    filter: Option<Expr>,
    binder: &Binder<'_>,
    info: &Arc<TableInfo>,
) -> Result<Option<Expr>, ServerError> {
    match filter {
        Some(mut f) => {
            binder
                .bind_table_predicate(&mut f, info)
                .map_err(|e| ServerError::Sql(e.to_string()))?;
            Ok(Some(fold(f)))
        }
        None => Ok(None),
    }
}

/// The optimize stage of Figure 3.
pub fn optimize_stage(
    bound: &BoundSelect,
    catalog: &Catalog,
    config: &PlannerConfig,
) -> Result<PlannedAction, ServerError> {
    let plan = plan_select(bound, catalog, config).map_err(|e| ServerError::Sql(e.to_string()))?;
    if bound.explain {
        Ok(PlannedAction::Explain { text: plan.to_string() })
    } else {
        Ok(PlannedAction::Select { plan, schema: bound.output.clone() })
    }
}

/// How the execute stage runs SELECT plans.
pub enum Exec<'a> {
    /// Volcano iterators on this thread.
    Volcano,
    /// The staged page-push engine.
    Staged(&'a Arc<StagedEngine>),
}

/// The execute stage of Figure 3: run the action, produce client output.
/// DML records redo into `wal` under `xid` and, when `txn` is given, undo
/// into that transaction's in-memory undo log (rollback support). The
/// caller is responsible for having acquired the action's locks
/// ([`dml_lock_keys`]) beforehand.
pub fn execute_stage(
    action: PlannedAction,
    ctx: &ExecContext,
    wal: &Wal,
    xid: u64,
    exec: Exec<'_>,
    txn: Option<&TxnManager>,
) -> Result<QueryOutput, ServerError> {
    let log = DmlLog { wal, xid, txn };
    let exec_err = ServerError::from;
    match action {
        PlannedAction::Select { plan, schema } => {
            let rows = match exec {
                Exec::Volcano => volcano::run(&plan, ctx).map_err(exec_err)?,
                Exec::Staged(engine) => engine.execute(&plan).collect().map_err(exec_err)?,
            };
            Ok(select_output(rows, schema))
        }
        PlannedAction::Explain { text } => Ok(QueryOutput {
            rows: text.lines().map(|l| Tuple::new(vec![Value::Str(l.to_string())])).collect(),
            schema: Some(Schema::new(vec![staged_storage::Column::new("plan", DataType::Str)])),
            message: "EXPLAIN".into(),
        }),
        PlannedAction::Insert { table, rows } => {
            let n = dml::insert_rows(ctx, &table, rows, Some(&log)).map_err(exec_err)?;
            Ok(QueryOutput::message(format!("INSERT {n}")))
        }
        PlannedAction::Update { table, sets, predicate } => {
            let n =
                dml::update_rows(ctx, &table, &sets, &predicate, Some(&log)).map_err(exec_err)?;
            Ok(QueryOutput::message(format!("UPDATE {n}")))
        }
        PlannedAction::Delete { table, predicate } => {
            let n = dml::delete_rows(ctx, &table, &predicate, Some(&log)).map_err(exec_err)?;
            Ok(QueryOutput::message(format!("DELETE {n}")))
        }
        PlannedAction::TxnControl(stmt) => Err(ServerError::Execution(format!(
            "{stmt} must be dispatched through the transaction runtime"
        ))),
        PlannedAction::Checkpoint => Err(ServerError::Execution(
            "CHECKPOINT must be dispatched through the server's checkpoint body".into(),
        )),
        PlannedAction::Ddl(stmt) => execute_ddl(stmt, ctx),
    }
}

/// A `SELECT`'s client output: its rows under their schema.
pub fn select_output(rows: Vec<Tuple>, schema: Schema) -> QueryOutput {
    let n = rows.len();
    QueryOutput { rows, schema: Some(schema), message: format!("SELECT {n}") }
}

fn execute_ddl(stmt: Statement, ctx: &ExecContext) -> Result<QueryOutput, ServerError> {
    let cat_err = |e: staged_storage::StorageError| ServerError::Execution(e.to_string());
    match stmt {
        Statement::CreateTable { name, columns } => {
            let schema = Schema::new(
                columns
                    .into_iter()
                    .map(|c| {
                        let mut col = staged_storage::Column::new(c.name, c.ty);
                        if c.nullable {
                            col = col.nullable();
                        }
                        col
                    })
                    .collect(),
            );
            // Partitioning (hashed on column 0) comes from the server's
            // context, so servers sharing one catalog stay independent.
            ctx.catalog
                .create_table_partitioned(&name, schema, ctx.ddl_partitions, 0)
                .map_err(cat_err)?;
            Ok(QueryOutput::message("CREATE TABLE"))
        }
        Statement::CreateIndex { name, table, column } => {
            ctx.catalog.create_index(&name, &table, &column).map_err(cat_err)?;
            Ok(QueryOutput::message("CREATE INDEX"))
        }
        Statement::DropTable { name } => {
            ctx.catalog.drop_table(&name).map_err(cat_err)?;
            Ok(QueryOutput::message("DROP TABLE"))
        }
        Statement::Analyze { table } => {
            ctx.catalog.analyze_table(&table).map_err(cat_err)?;
            Ok(QueryOutput::message("ANALYZE"))
        }
        other => Err(ServerError::Sql(format!("unsupported statement {other}"))),
    }
}

/// The error a statement gets when its partition locks were not granted
/// within the lock timeout; its transaction is aborted (timeout-abort
/// deadlock resolution).
pub(crate) fn lock_timeout_error() -> ServerError {
    ServerError::Execution("lock timeout: transaction aborted (presumed deadlock)".into())
}

/// A statement's place in its session's transaction state, decided once
/// by [`Pipeline::admit`]. The default is autocommit with no transaction
/// (transaction control, prepared statements).
#[derive(Default)]
pub(crate) struct TxnSlot {
    /// The session's transaction state, as read at admission.
    pub ctx: StatementCtx,
    /// Transaction the statement runs under (0 = none).
    pub xid: u64,
    /// True when `xid` is a statement-scoped implicit transaction that
    /// [`Pipeline::settle`] must commit.
    pub implicit: bool,
    /// Partition locks the statement needs, still to be granted.
    pub keys: Vec<LockKey>,
}

/// The DBMS under a server — catalog, log, transactions, planner — and the
/// statement policy over it, one step per method.
pub(crate) struct Pipeline {
    /// Execution context (catalog, DDL partitioning, instrumentation).
    pub ctx: ExecContext,
    /// The write-ahead log.
    pub wal: Arc<Wal>,
    /// Sessions and transactions.
    pub txn: TxnRuntime,
    /// Planner switches.
    pub planner: PlannerConfig,
}

impl Pipeline {
    /// A pipeline over `ctx`'s catalog, logging to `wal`.
    pub fn new(ctx: ExecContext, wal: Arc<Wal>, planner: PlannerConfig) -> Self {
        let txn = TxnRuntime::for_catalog(&ctx.catalog);
        Self { ctx, wal, txn, planner }
    }

    /// Parse, bind and (for SELECTs) optimize one statement.
    pub fn plan(&self, sql: &str) -> Result<PlannedAction, ServerError> {
        match parse_stage(sql, &self.ctx.catalog, self.ctx.tracker.as_deref())? {
            Parsed::NeedsPlan(bound) => optimize_stage(&bound, &self.ctx.catalog, &self.planner),
            Parsed::Action(action) => Ok(*action),
        }
    }

    /// Admit `action` from `session`: the one place that reads the
    /// session's transaction state and decides how the statement runs.
    /// Transaction control is never put to the test — `COMMIT`/`ROLLBACK`
    /// are the way out of the failed state — and gets the default slot.
    /// Everything else is refused in the failed-transaction state, writes
    /// (DML and DDL) are refused in a `READ ONLY` transaction, and
    /// `CHECKPOINT` is refused in any open transaction, since it would
    /// wait on the locks its own transaction holds. A DML or `CHECKPOINT`
    /// action then joins the session's open transaction or begins a
    /// statement-scoped implicit one (always the latter for a checkpoint,
    /// which writes no rows: its log shows `Begin` and then `Commit`, or
    /// `Abort` on a lock timeout), and gets the lock set the caller must
    /// acquire before [`run`](Self::run).
    pub fn admit(
        &self,
        session: Option<u64>,
        action: &PlannedAction,
    ) -> Result<TxnSlot, ServerError> {
        if matches!(action, PlannedAction::TxnControl(_)) {
            return Ok(TxnSlot::default());
        }
        let ctx = self.txn.statement_ctx(session)?;
        let writes = action.is_dml() || matches!(action, PlannedAction::Ddl(_));
        if ctx != StatementCtx::Autocommit && matches!(action, PlannedAction::Checkpoint) {
            return Err(ServerError::Execution(
                "CHECKPOINT cannot run inside a transaction".into(),
            ));
        }
        if matches!(ctx, StatementCtx::ReadOnly(_)) && writes {
            return Err(ServerError::ReadOnly);
        }
        let mut slot = TxnSlot { ctx, ..TxnSlot::default() };
        if action.is_dml() {
            (slot.xid, slot.implicit) = match ctx {
                StatementCtx::Write(xid) => (xid, false),
                _ => {
                    let begun = self.txn.mgr().begin(&self.wal);
                    (begun.map_err(|e| ServerError::Execution(e.to_string()))?, true)
                }
            };
            slot.keys = dml_lock_keys(action, &self.ctx.catalog, &self.planner);
        }
        Ok(slot)
    }

    /// Execute an admitted `action` on this thread: transaction control
    /// goes to the transaction runtime, anything else to the execute stage
    /// under `slot.xid` (0 = no transaction). A SELECT runs on Volcano
    /// iterators under a snapshot view from `slot.ctx`, pinned as of now
    /// (the pin outlives the execution). The staged server launches a
    /// staged SELECT on its engine instead.
    pub fn run(&self, mut action: PlannedAction, session: Option<u64>, slot: &TxnSlot) -> Response {
        if let PlannedAction::TxnControl(stmt) = &action {
            return execute_txn_control(stmt, session, &self.txn, &self.ctx, &self.wal);
        }
        let _pin = snapshot_select(&mut action, &self.txn, &slot.ctx);
        let txn = (slot.xid != 0).then(|| self.txn.mgr());
        execute_stage(action, &self.ctx, &self.wal, slot.xid, Exec::Volcano, txn)
    }

    /// End of statement: an implicit transaction commits on success (the
    /// Commit record's forced flush is the durability point), any
    /// transaction aborts on failure — leaving an explicit one's session in
    /// the failed state — and an explicit transaction otherwise continues.
    pub fn settle(&self, session: Option<u64>, slot: &TxnSlot, res: Response) -> Response {
        if slot.xid == 0 {
            return res;
        }
        match res {
            Ok(out) if slot.implicit => {
                let committed = self.txn.mgr().commit(slot.xid, &self.ctx, &self.wal);
                committed.map(|()| out).map_err(|e| ServerError::Execution(e.to_string()))
            }
            Err(e) => {
                self.txn.fail_txn(session, slot.xid, &self.ctx, &self.wal);
                Err(e)
            }
            continues => continues,
        }
    }

    /// Close a session, aborting its open transaction if it has one.
    pub fn close_session(&self, sid: u64) {
        self.txn.close_session(sid, &self.ctx, &self.wal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_storage::{BufferPool, Column, MemDisk};

    #[test]
    fn checkpoint_locks_every_partition_of_every_table_sorted() {
        for partitions in [1, 2, 4] {
            let catalog = Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
            let schema = || Schema::new(vec![Column::new("id", DataType::Int)]);
            // Created in reverse name order, so the ids, not the names,
            // decide the key order.
            for name in ["b", "a"] {
                catalog.create_table_partitioned(name, schema(), partitions, 0).unwrap();
            }
            let keys =
                dml_lock_keys(&PlannedAction::Checkpoint, &catalog, &PlannerConfig::default());
            let want: Vec<LockKey> = (0..2)
                .flat_map(|t| (0..partitions as u32).map(move |p| LockKey::new(t, p)))
                .collect();
            assert_eq!(keys, want, "{partitions} partitions");
        }
    }
}
