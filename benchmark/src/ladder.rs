//! The layer ladder and the hand-driven request spans of the traced run.
//!
//! One operation of the workload (its *probe*) is driven on one thread at
//! five depths — raw storage calls, the engine on a pre-planned action, a
//! server session, the monolithic threaded session, a client over loopback
//! — so that each layer's cost is the difference between adjacent rungs.
//! Beside the ladder, the harness walks each statement of the probe through
//! the same public functions the servers call (`wire::parse_command`,
//! `pipeline::parse_stage`'s two halves, `optimize_stage`, `execute_stage`,
//! `net::encode_response`), one span per call.

use crate::gen::{Keys, Op, OpGen, OpKind, ACCOUNTS, BALANCE};
use crate::span::Recorder;
use crate::stats::{percentile, us};
use crate::world::{build_catalog, Dataset, World, WAL_SEGMENT_PAGES};
use staged_dbclient::Client;
use staged_engine::context::ExecContext;
use staged_engine::dml::{self, DmlLog};
use staged_engine::staged::{EngineConfig, StagedEngine};
use staged_engine::txn::LockMode;
use staged_engine::volcano;
use staged_planner::{PhysicalPlan, PlannerConfig};
use staged_server::pipeline::{self, Exec, Parsed, PlannedAction};
use staged_server::session::StatementCtx;
use staged_server::{net, ThreadedServer, TxnRuntime};
use staged_sql::parser::parse_statement;
use staged_storage::catalog::TableInfo;
use staged_storage::{Catalog, LogRecord, MemSegmentStore, ReadView, Tuple, Value, Wal};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operations per rung: at most this many …
const MAX_OPS: usize = 2_000;
/// … at least this many, and otherwise as many as the rung's time share
/// allows (a 100,000-row scan cannot run 2,000 times in a traced run).
const MIN_OPS: usize = 20;

/// The program's layers with no server around them: what the storage and
/// engine rungs and the hand-driven spans call into.
struct Bare {
    catalog: Arc<Catalog>,
    ctx: ExecContext,
    wal: Wal,
    txn: TxnRuntime,
    engine: Arc<StagedEngine>,
    planner: PlannerConfig,
    table: Arc<TableInfo>,
    /// The session the hand-driven statements run under.
    sid: u64,
}

impl Bare {
    fn new(dataset: Dataset, seed: u64) -> Bare {
        let catalog = build_catalog(dataset, seed);
        let ctx = ExecContext::new(Arc::clone(&catalog)).with_partitions(crate::gen::PARTITIONS);
        let wal = Wal::open_with_segment_pages(Arc::new(MemSegmentStore::new()), WAL_SEGMENT_PAGES)
            .expect("open in-memory wal");
        let txn = TxnRuntime::for_catalog(&catalog);
        let sid = txn.open_session();
        Bare {
            table: catalog.table(dataset.table()).expect("probe table"),
            engine: StagedEngine::new(ctx.clone(), EngineConfig::default()),
            planner: PlannerConfig::default(),
            catalog,
            ctx,
            wal,
            txn,
            sid,
        }
    }

    /// Parse, bind and (for SELECTs) optimize one statement — the untimed
    /// preparation of the engine rungs.
    fn plan(&self, sql: &str) -> PlannedAction {
        match pipeline::parse_stage(sql, &self.catalog, None).expect("probe statement parses") {
            Parsed::Action(action) => *action,
            Parsed::NeedsPlan(bound) => {
                pipeline::optimize_stage(&bound, &self.catalog, &self.planner).expect("plans")
            }
        }
    }
}

/// Run up to [`MAX_OPS`] probe operations (fewer when `budget` runs out),
/// one span per operation, and return the median latency in microseconds.
/// `prep` is untimed; `run` is the rung.
fn measure<P>(
    rec: &mut Recorder,
    rung: (u64, &'static str),
    gen: &mut OpGen,
    budget: Duration,
    mut prep: impl FnMut(&Op) -> P,
    mut run: impl FnMut(&mut Recorder, P, u64),
) -> f64 {
    let deadline = Instant::now() + budget;
    let mut latencies = Vec::with_capacity(MAX_OPS);
    while latencies.len() < MAX_OPS && (latencies.len() < MIN_OPS || Instant::now() < deadline) {
        let prepared = prep(&gen.next_op());
        // Spans of one operation share a request id; rungs do not collide.
        let request = rung.0 << 32 | latencies.len() as u64;
        let open = rec.start(rung.1, request);
        run(rec, prepared, request);
        latencies.push(rec.end(open));
    }
    latencies.sort_unstable();
    us(percentile(&latencies, 50.0))
}

/// Storage rung: the raw `BTree` / `HeapFile` / `Wal` calls the operation
/// needs — no SQL, no plan, no locks, no versions, no undo.
fn storage_op(bare: &Bare, kind: OpKind, op: &Op, xid: u64) {
    let table = &bare.table;
    let index = bare.catalog.index_on(table.id, 0).expect("index on the key column");
    match (&op.keys, kind) {
        (Keys::Transfer { legs, commit }, _) => {
            let log = |rec: LogRecord| bare.wal.append(&rec).expect("wal append");
            let apply = |id: i64, delta: i64| {
                let rid = index.search(id).expect("index search")[0];
                let old = table.heap.get(rid).expect("heap get");
                let bal = old.get(1).as_int().expect("bal") + delta;
                let new = Tuple::new(vec![Value::Int(id), Value::Int(bal)]);
                let part = table.heap.partition_of(&old);
                table.heap.delete(rid).expect("heap delete");
                let new_rid = table.heap.insert(&new).expect("heap insert");
                index.delete(part, id, rid).expect("index delete");
                index.insert(part, id, new_rid).expect("index insert");
                log(LogRecord::Delete { xid, table: table.id.0, rid, before: old.encode() });
                log(LogRecord::Insert {
                    xid,
                    table: table.id.0,
                    rid: new_rid,
                    bytes: new.encode(),
                });
            };
            log(LogRecord::Begin { xid });
            for (id, delta) in legs {
                apply(*id, *delta);
            }
            if *commit {
                log(LogRecord::Commit { xid }); // flushes
            } else {
                for (id, delta) in legs.iter().rev() {
                    apply(*id, -delta);
                }
                log(LogRecord::Abort { xid });
                bare.wal.flush().expect("wal flush");
            }
        }
        (Keys::Lookup(k), _) => {
            let rids = index.search(*k).expect("index search");
            assert_eq!(rids.len(), 1, "unique1 is unique");
            black_box(table.heap.get(rids[0]).expect("heap get"));
        }
        (Keys::None, OpKind::ScanAgg) => {
            // unique1, unique2, two, ten — the columns the query reads.
            let mut groups = [(0i64, 0i64, i64::MAX, i64::MIN); 10];
            for page in table.heap.scan_pages().with_columns(vec![0, 1, 2, 4]) {
                for (_, row) in page.expect("page scan") {
                    let int = |c: usize| row.get(c).as_int().expect("int column");
                    if int(2) == 0 {
                        let g = &mut groups[int(3) as usize];
                        *g = (g.0 + 1, g.1 + int(1), g.2.min(int(0)), g.3.max(int(0)));
                    }
                }
            }
            black_box(groups);
        }
        (Keys::None, _) => {
            let (mut sum, mut n) = (0i64, 0i64);
            for page in table.heap.scan_pages().with_columns(vec![1]) {
                for (_, row) in page.expect("page scan") {
                    sum += row.get(0).as_int().expect("bal");
                    n += 1;
                }
            }
            assert_eq!((sum, n), (ACCOUNTS * BALANCE, ACCOUNTS));
        }
    }
}

/// Engine rung, SELECT probes: a pre-planned plan under a fresh snapshot,
/// on the staged engine or (`volcano`) on pull iterators on this thread.
fn engine_select(bare: &Bare, mut plan: PhysicalPlan, use_volcano: bool) {
    let pin = bare.catalog.oracle().pin();
    plan.attach_snapshot(ReadView { ts: pin.ts(), xid: 0 });
    let rows = if use_volcano {
        volcano::run(&plan, &bare.ctx).expect("volcano run")
    } else {
        bare.engine.execute(&plan).collect().expect("staged run")
    };
    assert!(!rows.is_empty(), "probe plan returned nothing");
    black_box(rows);
}

/// Engine rung, transfer probe: `TxnManager` begin, partition locks,
/// `dml::update_rows` on pre-bound actions, commit or rollback.
fn engine_transfer(bare: &Bare, actions: &[PlannedAction], commit: bool) {
    let mgr = bare.txn.mgr();
    let xid = mgr.begin(&bare.wal).expect("begin");
    for action in actions {
        let PlannedAction::Update { table, sets, predicate } = action else {
            panic!("transfer legs are UPDATEs");
        };
        for key in pipeline::dml_lock_keys(action, &bare.catalog, &bare.planner) {
            assert!(mgr.locks().try_lock(xid, key, LockMode::Exclusive), "uncontended lock");
        }
        let log = DmlLog::txn(&bare.wal, xid, mgr);
        let n = dml::update_rows(&bare.ctx, table, sets, predicate, Some(&log)).expect("update");
        assert_eq!(n, 1);
    }
    if commit {
        mgr.commit(xid, &bare.ctx, &bare.wal).expect("commit");
    } else {
        mgr.rollback(xid, &bare.ctx, &bare.wal).expect("rollback");
    }
}

/// Walk one statement through the layers by hand, a span per call, under
/// the hand-driven session — the same functions, in the same order, the
/// staged server's stages call.
fn hand_drive(bare: &Bare, rec: &mut Recorder, sql: &str, request: u64) {
    let line = format!("QUERY {sql}");
    let open = rec.start("wire_decode", request);
    let command = staged_wire::parse_command(&line).expect("probe line decodes");
    rec.end(open);
    let staged_wire::Command::Query(sql) = command else { panic!("probe lines are QUERYs") };

    // `pipeline::parse_stage` is these two calls; `bind` nests in `parse`
    // so that parse's self time is the parser alone.
    let parse = rec.start("parse", request);
    let stmt = parse_statement(&sql).expect("probe statement parses");
    let bind = rec.start("bind", request);
    let parsed = pipeline::bind_statement(stmt, &bare.catalog, None).expect("binds");
    rec.end(bind);
    rec.end(parse);

    let mut action = match parsed {
        Parsed::Action(action) => *action,
        Parsed::NeedsPlan(bound) => {
            let open = rec.start("optimize", request);
            let action =
                pipeline::optimize_stage(&bound, &bare.catalog, &bare.planner).expect("plans");
            rec.end(open);
            action
        }
    };

    let open = rec.start("execute", request);
    let session = Some(bare.sid);
    let response = if let PlannedAction::TxnControl(stmt) = &action {
        pipeline::execute_txn_control(stmt, session, &bare.txn, &bare.ctx, &bare.wal)
    } else {
        let stmt_ctx = bare.txn.statement_ctx(session).expect("session state");
        let xid = match stmt_ctx {
            StatementCtx::Write(xid) => xid,
            _ => 0,
        };
        if action.is_dml() {
            // The lock stage's work: the probe's DML always runs in an
            // explicit transaction, and nothing here contends.
            for key in pipeline::dml_lock_keys(&action, &bare.catalog, &bare.planner) {
                assert!(bare.txn.mgr().locks().try_lock(xid, key, LockMode::Exclusive));
            }
        }
        let _pin = pipeline::snapshot_select(&mut action, &bare.txn, &stmt_ctx);
        let mgr = (xid != 0).then(|| bare.txn.mgr());
        let exec = Exec::Staged(&bare.engine);
        pipeline::execute_stage(action, &bare.ctx, &bare.wal, xid, exec, mgr)
    };
    rec.end(open);
    assert!(response.is_ok(), "hand-driven {sql:?} failed: {response:?}");

    let open = rec.start("wire_encode", request);
    black_box(net::encode_response(&response));
    rec.end(open);
}

/// The probe of `kind`, driven at every depth. `world` is the staged
/// server the session and wire rungs run against; `budget` is the time the
/// whole ladder may take. Returns the ladder, span and derived metrics.
pub fn run(
    kind: OpKind,
    dataset: Dataset,
    world: &World,
    seed: u64,
    budget: Duration,
    rec: &mut Recorder,
) -> Vec<(String, f64)> {
    let share = budget / 8;
    // Every rung replays the same operation stream.
    let ops = || OpGen::new(kind, seed, 0);
    let keep = |op: &Op| op.clone();
    let mut m: Vec<(String, f64)> = Vec::new();

    let bare = &Bare::new(dataset, seed);
    let mut xid = 1u64 << 40; // clear of the transaction manager's xids
    let storage = measure(rec, (1, "rung.storage"), &mut ops(), share, keep, |_, op, _| {
        xid += 1;
        storage_op(bare, kind, &op, xid);
    });

    enum Prepared {
        Transfer(Vec<PlannedAction>, bool),
        Select(PhysicalPlan),
    }
    let prepare = |op: &Op| match &op.keys {
        Keys::Transfer { commit, .. } => {
            Prepared::Transfer(op.stmts[1..3].iter().map(|s| bare.plan(s)).collect(), *commit)
        }
        _ => {
            // The SELECT is the statement that is neither BEGIN nor COMMIT.
            let sql = &op.stmts[op.stmts.len() / 2];
            match bare.plan(sql) {
                PlannedAction::Select { plan, .. } => Prepared::Select(plan),
                _ => panic!("{sql:?} is not a SELECT"),
            }
        }
    };
    let engine_rung = |use_volcano: bool| {
        move |_: &mut Recorder, prepared: Prepared, _: u64| match prepared {
            // The server runs DML inline in its execute stage, so for the
            // transfer probe both engine rungs are the same calls.
            Prepared::Transfer(actions, commit) => engine_transfer(bare, &actions, commit),
            Prepared::Select(plan) => engine_select(bare, plan, use_volcano),
        }
    };
    let engine = measure(rec, (2, "rung.engine"), &mut ops(), share, prepare, engine_rung(false));
    let volcano =
        measure(rec, (3, "rung.engine_volcano"), &mut ops(), share, prepare, engine_rung(true));

    measure(rec, (4, "hand"), &mut ops(), share, keep, |rec, op, request| {
        for sql in &op.stmts {
            hand_drive(bare, rec, sql, request);
        }
    });
    bare.engine.shutdown();

    let session = world.server.session();
    let session_us = measure(rec, (5, "rung.session"), &mut ops(), share, keep, |_, op, _| {
        for sql in &op.stmts {
            black_box(session.execute_sql(sql).expect("session statement"));
        }
    });
    drop(session);

    let threaded = ThreadedServer::new(build_catalog(dataset, seed), 2, PlannerConfig::default());
    let tsession = threaded.session();
    let threaded_us =
        measure(rec, (6, "rung.session_threaded"), &mut ops(), share, keep, |_, op, _| {
            for sql in &op.stmts {
                black_box(tsession.execute_sql(sql).expect("threaded statement"));
            }
        });
    drop(tsession);
    threaded.shutdown();

    // The wire rung keeps spans on every other operation only: the two
    // halves see the same server state, so their difference is what
    // tracing itself costs, free of drift between passes.
    let mut client =
        Client::connect_timeout(world.addr(), Duration::from_secs(10)).expect("connect");
    let mut traced_turn = true;
    let mut halves = [Vec::new(), Vec::new()];
    measure(rec, (7, "rung.wire"), &mut ops(), 2 * share, keep, |rec, op, request| {
        let t0 = Instant::now();
        for sql in &op.stmts {
            let open = rec.start("client_call", request);
            black_box(client.query(sql).expect("wire statement"));
            rec.end(open);
        }
        halves[usize::from(traced_turn)].push(t0.elapsed().as_nanos() as u64);
        // Takes effect from the next operation's rung span on.
        traced_turn = !traced_turn;
        rec.set_enabled(traced_turn);
    });
    rec.set_enabled(true);
    let _ = client.quit();
    let [wire_untraced, wire] = halves.map(|mut h| {
        h.sort_unstable();
        us(percentile(&h, 50.0))
    });

    for (name, value) in [
        ("storage", storage),
        ("engine", engine),
        ("engine_volcano", volcano),
        ("session", session_us),
        ("session_threaded", threaded_us),
        ("wire", wire),
    ] {
        m.push((format!("ladder.{name}_us"), value));
    }
    let span_us = |name: &str| rec.median_self_ns(name) / 1e3;
    let front_end = span_us("parse") + span_us("bind") + span_us("optimize");
    m.push(("self.staging_us".into(), session_us - (front_end + engine)));
    m.push(("self.socket_us".into(), wire - session_us));
    // The share of the 1-connection wire latency that a measured call
    // accounts for; the rest is hand-offs, wake-ups and socket syscalls.
    let codec = span_us("wire_decode") + span_us("wire_encode");
    m.push(("ladder.explained_share".into(), (engine + front_end + codec) / wire));
    for s in crate::metrics::SPANS {
        m.push((format!("span.{s}_us"), span_us(s)));
    }
    m.push(("trace.overhead_share".into(), wire / wire_untraced - 1.0));
    m
}
