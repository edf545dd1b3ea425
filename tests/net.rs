//! Network front-end tests: the staged-vs-threaded differential over real
//! TCP sockets (same SQL script, identical responses — including the
//! aborted-transaction error path), connection lifecycle (abort-on-
//! disconnect, max_connections admission), and the `net` stage's stats.

use staged_db::dbclient::{Client, ClientError, QueryResult};
use staged_db::planner::PlannerConfig;
use staged_db::server::net::{self, NetConfig, NetHandle};
use staged_db::server::{ServerConfig, StagedServer, ThreadedServer};
use staged_db::storage::{BufferPool, Catalog, MemDisk};
use staged_db::wire::ErrorCode;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn fresh_catalog() -> Arc<Catalog> {
    Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 1024)))
}

fn listener() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port")
}

/// Start a staged server behind a TCP front end on an ephemeral port.
fn staged_net(partitions: usize) -> (Arc<StagedServer>, NetHandle) {
    let server =
        StagedServer::new(fresh_catalog(), ServerConfig { partitions, ..Default::default() });
    let handle =
        net::serve(listener(), Arc::clone(&server), NetConfig::default()).expect("serve staged");
    (server, handle)
}

/// Start a threaded server behind a TCP front end on an ephemeral port.
fn threaded_net(pool: usize) -> (Arc<ThreadedServer>, NetHandle) {
    let server = Arc::new(ThreadedServer::new(fresh_catalog(), pool, PlannerConfig::default()));
    let handle =
        net::serve(listener(), Arc::clone(&server), NetConfig::default()).expect("serve threaded");
    (server, handle)
}

fn connect(handle: &NetHandle) -> Client {
    Client::connect_timeout(handle.local_addr(), Duration::from_secs(5)).expect("connect")
}

/// Normalised per-statement outcome for the differential: either the sorted
/// result set + tag, or the stable error code.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Ok { columns: Vec<(String, String)>, rows: Vec<Vec<Option<String>>>, tag: String },
    Err(ErrorCode),
}

fn outcome(res: Result<QueryResult, ClientError>) -> Outcome {
    match res {
        Ok(mut out) => {
            // Row order is an engine scheduling artifact (pages are pushed
            // partition-parallel), not a protocol guarantee; sort before
            // diffing, as the in-process equivalence suite does.
            out.rows.sort();
            Outcome::Ok { columns: out.columns, rows: out.rows, tag: out.tag }
        }
        Err(ClientError::Server { code, .. }) => Outcome::Err(code),
        Err(other) => panic!("transport/protocol failure: {other}"),
    }
}

/// The differential script. Covers DDL, multi-row DML, SELECT with rows,
/// EXPLAIN-free reads, a committed transaction, a rolled-back transaction,
/// and the aborted-transaction error path (failed statement inside BEGIN →
/// TXN_ABORTED until ROLLBACK).
const SCRIPT: &[&str] = &[
    "CREATE TABLE kv (k INT, v VARCHAR(16))",
    "INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')",
    "SELECT k, v FROM kv ORDER BY k",
    "SELEC syntax error",
    "SELECT * FROM missing",
    "BEGIN",
    "UPDATE kv SET v = 'TWO' WHERE k = 2",
    "COMMIT",
    "SELECT v FROM kv WHERE k = 2",
    "BEGIN",
    "DELETE FROM kv WHERE k = 1",
    "ROLLBACK",
    "SELECT COUNT(*) FROM kv",
    // The aborted-transaction path: division by zero fails the UPDATE,
    // which aborts the transaction server-side; the session then refuses
    // everything until the client acknowledges with ROLLBACK.
    "BEGIN",
    "UPDATE kv SET k = k / 0",
    "INSERT INTO kv VALUES (9, 'nine')",
    "SELECT COUNT(*) FROM kv",
    "ROLLBACK",
    "SELECT COUNT(*) FROM kv",
    "COMMIT",
];

#[test]
fn staged_and_threaded_answer_identically_over_tcp() {
    let (staged, staged_handle) = staged_net(2);
    let (threaded, threaded_handle) = threaded_net(4);
    let mut a = connect(&staged_handle);
    let mut b = connect(&threaded_handle);
    for stmt in SCRIPT {
        let oa = outcome(a.query(stmt));
        let ob = outcome(b.query(stmt));
        assert_eq!(oa, ob, "divergence at statement {stmt:?}");
    }
    // The failed-transaction statements must have produced the stable
    // wire codes, not just *matching* ones.
    let mut c = connect(&staged_handle);
    c.query("BEGIN").unwrap();
    match c.query("UPDATE kv SET k = k / 0") {
        Err(ClientError::Server { code: ErrorCode::Exec, .. }) => {}
        other => panic!("want EXEC, got {other:?}"),
    }
    match c.query("SELECT COUNT(*) FROM kv") {
        Err(ClientError::Server { code: ErrorCode::TxnAborted, .. }) => {}
        other => panic!("want TXN_ABORTED, got {other:?}"),
    }
    c.rollback().unwrap();
    a.quit().unwrap();
    b.quit().unwrap();
    drop(c);
    staged_handle.shutdown();
    threaded_handle.shutdown();
    staged.shutdown();
    threaded.shutdown();
}

#[test]
fn ping_stats_and_values_round_trip() {
    let (server, handle) = staged_net(1);
    let mut c = connect(&handle);
    c.ping().unwrap();
    c.query("CREATE TABLE odd (s VARCHAR(64))").unwrap();
    // Tabs, newlines and backslashes survive the line-framed wire.
    // (Sent as a single line: the SQL string uses no literal newline.)
    c.query("INSERT INTO odd VALUES ('a\tb')").unwrap();
    c.query("INSERT INTO odd VALUES ('back\\slash')").unwrap();
    let out = c.query("SELECT s FROM odd ORDER BY s").unwrap();
    let got: Vec<String> = out.rows.iter().map(|r| r[0].clone().unwrap()).collect();
    assert!(got.contains(&"a\tb".to_string()));
    assert!(got.contains(&"back\\slash".to_string()));

    // STATS exposes the admission stage, its idle_polls column and the
    // cohort-scheduling columns (PROTOCOL.md §6).
    let stats = c.stats().unwrap();
    let names: Vec<String> = stats.columns.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(
        names,
        [
            "stage",
            "processed",
            "errors",
            "retries",
            "idle_polls",
            "cohorts",
            "max_cohort",
            "preempts",
            "batch",
            "queued",
            "workers"
        ]
    );
    let net_row =
        stats.rows.iter().find(|r| r[0].as_deref() == Some("net")).expect("net stage row in STATS");
    let processed: i64 = net_row[1].as_ref().unwrap().parse().unwrap();
    assert!(processed >= 4, "net stage admitted the TCP statements, got {processed}");
    let batch: i64 = net_row[8].as_ref().unwrap().parse().unwrap();
    assert_eq!(batch, 1, "the net admission stage serves one packet per visit");
    let parse_row = stats
        .rows
        .iter()
        .find(|r| r[0].as_deref() == Some("parse"))
        .expect("parse stage row in STATS");
    let cohorts: i64 = parse_row[5].as_ref().unwrap().parse().unwrap();
    assert!(cohorts >= 1, "pipeline stages meter their queue visits");
    let parse_batch: i64 = parse_row[8].as_ref().unwrap().parse().unwrap();
    assert!(parse_batch > 1, "pipeline stages default to batched visits");
    // The synthetic exchange row surfaces knob (c): its batch column is
    // the engine's live exchange page size.
    let exch_row = stats
        .rows
        .iter()
        .find(|r| r[0].as_deref() == Some("exchange"))
        .expect("exchange row in STATS");
    let page: i64 = exch_row[8].as_ref().unwrap().parse().unwrap();
    assert!(page >= 1, "exchange row carries the live page size, got {page}");
    c.quit().unwrap();
    handle.shutdown();
    server.shutdown();
}

#[test]
fn disconnect_mid_transaction_aborts_and_releases_locks() {
    let (server, handle) = staged_net(1);
    let mut setup = connect(&handle);
    setup.query("CREATE TABLE t (x INT)").unwrap();
    setup.query("INSERT INTO t VALUES (1)").unwrap();

    let mut locker = connect(&handle);
    locker.begin().unwrap();
    locker.query("UPDATE t SET x = 2 WHERE x = 1").unwrap();
    assert_eq!(server.active_txns(), 1);
    // Hard disconnect (no QUIT, no COMMIT): drop the socket.
    drop(locker);

    // The server must notice, abort, and release the partition lock so
    // another client's write can proceed; the update must be undone.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.active_txns() != 0 {
        assert!(std::time::Instant::now() < deadline, "abort-on-disconnect never fired");
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = setup.query("SELECT x FROM t").unwrap();
    assert_eq!(out.rows, vec![vec![Some("1".to_string())]]);
    setup.query("UPDATE t SET x = 5 WHERE x = 1").unwrap();
    setup.quit().unwrap();
    handle.shutdown();
    server.shutdown();
}

#[test]
fn connection_limit_refuses_with_overloaded() {
    let server = StagedServer::new(fresh_catalog(), ServerConfig::default());
    let handle = net::serve(
        listener(),
        Arc::clone(&server),
        NetConfig { max_connections: 1, ..Default::default() },
    )
    .unwrap();
    let mut first = connect(&handle);
    first.ping().unwrap();
    // Second connection is greeted then refused with the stable code.
    let mut second = connect(&handle);
    match second.ping() {
        Err(ClientError::Server { code: ErrorCode::Overloaded, .. }) | Err(ClientError::Io(_)) => {}
        other => panic!("want OVERLOADED refusal, got {other:?}"),
    }
    assert!(handle.stats().rejected >= 1);
    first.quit().unwrap();
    handle.shutdown();
    server.shutdown();
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let (server, handle) = staged_net(1);
    let mut c = connect(&handle);
    match c.query("") {
        Err(ClientError::Server { code: ErrorCode::Proto, .. }) => {}
        other => panic!("empty QUERY should be a protocol error, got {other:?}"),
    }
    // The connection survives a protocol error and keeps serving.
    c.ping().unwrap();
    c.query("CREATE TABLE p (x INT)").unwrap();
    c.query("INSERT INTO p VALUES (2)").unwrap();
    assert_eq!(c.query("SELECT x FROM p").unwrap().rows, vec![vec![Some("2".to_string())]]);
    c.quit().unwrap();
    handle.shutdown();
    server.shutdown();
}

/// The synthetic `wal` STATS row (processed = pages written, queued = live
/// segments), which both servers emit.
fn assert_wal_row(stats: &QueryResult) {
    let wal_row =
        stats.rows.iter().find(|r| r[0].as_deref() == Some("wal")).expect("wal row in STATS");
    let pages_written: i64 = wal_row[1].as_ref().unwrap().parse().unwrap();
    assert!(pages_written >= 1, "wal row counts written pages");
    let live_segments: i64 = wal_row[9].as_ref().unwrap().parse().unwrap();
    assert!(live_segments >= 1, "wal row reports live segments");
}

/// `CHECKPOINT` over the wire: both backends run it, answer `OK` with a
/// `CHECKPOINT …` message, and the staged server's STATS afterwards shows
/// the checkpoint stage plus the synthetic `wal` row with a truncated
/// segment count.
#[test]
fn checkpoint_command_works_on_both_backends() {
    let (server, handle) = staged_net(2);
    let mut c = connect(&handle);
    c.query("CREATE TABLE ck (k INT, v INT)").unwrap();
    for i in 0..20 {
        c.query(&format!("INSERT INTO ck VALUES ({i}, {})", i * 2)).unwrap();
    }
    let out = c.checkpoint().unwrap();
    assert!(
        out.tag.starts_with("CHECKPOINT"),
        "checkpoint reply should start with CHECKPOINT, got {:?}",
        out.tag
    );
    // Data still queryable after the quiesce/snapshot/truncate cycle.
    let count = c.query("SELECT COUNT(*) FROM ck").unwrap();
    assert_eq!(count.rows[0][0].as_deref(), Some("20"));
    // STATS now carries the checkpoint stage (it processed our packet)
    // and the wal row (processed = pages written, queued = live segments,
    // batch = pages per segment).
    let stats = c.stats().unwrap();
    let ck_row = stats
        .rows
        .iter()
        .find(|r| r[0].as_deref() == Some("checkpoint"))
        .expect("checkpoint stage row in STATS");
    let processed: i64 = ck_row[1].as_ref().unwrap().parse().unwrap();
    assert!(processed >= 1, "the checkpoint stage served our packet");
    assert_wal_row(&stats);
    c.quit().unwrap();
    handle.shutdown();
    server.shutdown();

    // The monolithic baseline answers the same command.
    let (threaded, handle) = threaded_net(2);
    let mut c = connect(&handle);
    c.query("CREATE TABLE ck (k INT)").unwrap();
    c.query("INSERT INTO ck VALUES (1), (2)").unwrap();
    let out = c.checkpoint().unwrap();
    assert!(out.tag.starts_with("CHECKPOINT"), "threaded: got {:?}", out.tag);
    let count = c.query("SELECT COUNT(*) FROM ck").unwrap();
    assert_eq!(count.rows[0][0].as_deref(), Some("2"));
    // Same core, same synthetic rows: the pool's STATS carries `wal` too.
    assert_wal_row(&c.stats().unwrap());
    c.quit().unwrap();
    handle.shutdown();
    threaded.shutdown();
}

/// Run `sql` on `c` from a helper thread and hand the client back with its
/// answer, failing the test if no answer arrives within two seconds.
fn answered_within_2s(c: Client, sql: &'static str) -> (Client, Result<QueryResult, ClientError>) {
    pending(c, sql).recv_timeout(Duration::from_secs(2)).unwrap_or_else(|_| {
        panic!("{sql:?} got no answer within 2 s");
    })
}

/// Send `sql` on `c` from a helper thread; the client and its answer
/// arrive on the returned channel.
fn pending(
    mut c: Client,
    sql: &'static str,
) -> std::sync::mpsc::Receiver<(Client, Result<QueryResult, ClientError>)> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let res = c.query(sql);
        let _ = tx.send((c, res));
    });
    rx
}

/// The two slot cases on one backend served with a single admission slot.
fn slot_follows_the_session<B: net::WireBackend>(backend: B) {
    let handle =
        net::serve(listener(), backend, NetConfig { max_inflight: 1, ..Default::default() })
            .expect("serve");
    let (mut a, mut b) = (connect(&handle), connect(&handle));
    a.query("CREATE TABLE slot (k INT)").unwrap();
    // (a) However the transaction is closed, closing it frees A's slot.
    for close in ["ABORT", "COMMIT;", "ROLLBACK;", "rollback"] {
        a.query("BEGIN").unwrap();
        a.query(close).unwrap_or_else(|e| panic!("{close:?}: {e}"));
        let (back, res) = answered_within_2s(b, "SELECT COUNT(*) FROM slot");
        res.unwrap_or_else(|e| panic!("after {close:?}: {e}"));
        b = back;
    }
    // (b) However it was opened, an open transaction holds A's slot: B's
    // BEGIN waits for it, and A's COMMIT is never parked behind B.
    a.query("BEGIN;").unwrap();
    a.query("INSERT INTO slot VALUES (1)").unwrap();
    let b_begin = pending(b, "BEGIN");
    std::thread::sleep(Duration::from_millis(100));
    assert!(b_begin.try_recv().is_err(), "B was admitted while A's transaction held the slot");
    let (a, res) = answered_within_2s(a, "COMMIT");
    assert_eq!(res.unwrap().tag, "COMMIT");
    let (mut b, res) = b_begin.recv_timeout(Duration::from_secs(2)).expect("B's BEGIN answered");
    assert_eq!(res.unwrap().tag, "BEGIN");
    b.rollback().unwrap();
    a.quit().unwrap();
    b.quit().unwrap();
    handle.shutdown();
}

#[test]
fn the_admission_slot_follows_the_session_whatever_the_spelling() {
    let staged = StagedServer::new(fresh_catalog(), ServerConfig::default());
    slot_follows_the_session(Arc::clone(&staged));
    staged.shutdown();
    let threaded = Arc::new(ThreadedServer::new(fresh_catalog(), 4, PlannerConfig::default()));
    slot_follows_the_session(Arc::clone(&threaded));
    threaded.shutdown();
}
