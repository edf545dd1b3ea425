//! A staged `SELECT` leaves the server's `execute` stage once its engine
//! query is launched, and comes back at `disconnect` when the query ends:
//! no server worker waits on a scan, the scans in the engine stay bounded
//! by the `disconnect` queue, and `shutdown` lets them finish.

use staged_db::server::{ServerConfig, ServerError, StagedServer};
use staged_db::storage::{BufferPool, Catalog, Column, DataType, MemDisk, Schema, Tuple, Value};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The tests here run one at a time: each starts scans that take both
/// cores, and the timed one must not share them with another's.
fn alone() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `t(id, v)` with `rows` rows, `v = id % 10`, and a 100-row `u(id, bal)`.
fn catalog(rows: i64) -> Arc<Catalog> {
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 4096)));
    let schema =
        |a, b| Schema::new(vec![Column::new(a, DataType::Int), Column::new(b, DataType::Int)]);
    let t = cat.create_table("t", schema("id", "v")).unwrap();
    for i in 0..rows {
        t.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Int(i % 10)])).unwrap();
    }
    let u = cat.create_table("u", schema("id", "bal")).unwrap();
    for i in 0..100 {
        u.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Int(100)])).unwrap();
    }
    for name in ["t", "u"] {
        cat.analyze_table(name).unwrap();
    }
    cat
}

const SCAN: &str = "SELECT v, COUNT(*), SUM(id) FROM t GROUP BY v";

/// The answer to [`SCAN`] over `rows` rows, sorted by group.
fn scan_answer(rows: i64) -> Vec<(i64, i64, i64)> {
    (0..10)
        .map(|v| {
            let ids = (v..rows).step_by(10);
            (v, ids.clone().count() as i64, ids.sum())
        })
        .collect()
}

fn check_scan(res: Result<staged_db::server::QueryOutput, ServerError>, rows: i64) {
    let out = res.expect("the scan answers");
    let int = |v: &Value| v.as_int().expect("an INT column");
    let mut got: Vec<_> =
        out.rows.iter().map(|r| (int(r.get(0)), int(r.get(1)), int(r.get(2)))).collect();
    got.sort_unstable();
    assert_eq!(got, scan_answer(rows));
}

/// Wait until `cond` holds, for at most a minute. The poll sleeps rather
/// than spins: a thread that spins beside busy scan workers spends its
/// share of the CPU and then waits out a scheduler slice when it next
/// wakes, which would be timed as the statement's latency.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "never: {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn execute_busy(server: &StagedServer) -> Duration {
    let stats = server.stage_stats();
    let execute = stats.iter().find(|s| s.name == "execute").expect("an execute stage");
    Duration::from_nanos(execute.busy_nanos)
}

/// Eight long scans are launched at once, then a one-row `UPDATE` of
/// another table runs beside them, five times at each end of the cohort
/// bound. While `execute` held a worker per scan, the `UPDATE` waited
/// behind them at cohort bound 1 (43–168 ms on a 2-core box, several
/// times a lone scan); now no server stage waits on the engine, so:
///
/// - launching the eight scans costs `execute` under half a lone scan
///   each time, and under 8 ms at the median;
/// - the `UPDATE` commits while the scans still run, each time in less
///   than a lone scan takes, and in under 10 ms at the median.
///
/// Both bounds are loose by a scheduler tick or two: the scan workers
/// hold every core of a 2-core box, and a server thread that wakes beside
/// them may wait a tick (4 ms on a 250 Hz kernel) for one. That wait is
/// the scans', not a stage's, and it does not reach the length of a
/// scan.
#[test]
fn a_point_update_commits_beside_eight_running_scans() {
    let _alone = alone();
    const ROWS: i64 = 300_000;
    let cat = catalog(ROWS);
    for max_cohort in [16, 1] {
        let server =
            StagedServer::new(Arc::clone(&cat), ServerConfig { max_cohort, ..Default::default() });
        let lone = (0..3)
            .map(|_| {
                let start = Instant::now();
                check_scan(server.execute_sql(SCAN), ROWS);
                start.elapsed()
            })
            .min()
            .expect("three scans");
        let (mut launches, mut updates) = (Vec::new(), Vec::new());
        for run in 0..5 {
            let busy = execute_busy(&server);
            let scans: Vec<_> = (0..8).map(|_| server.submit(SCAN)).collect();
            wait_for("eight scans in the engine", || server.engine().live_queries() == 8);
            let launching = execute_busy(&server) - busy;
            assert!(
                launching < lone / 2,
                "cohort {max_cohort}, run {run}: `execute` spent {launching:?} on 8 scans, \
                 a lone scan takes {lone:?}"
            );
            launches.push(launching);
            let start = Instant::now();
            let res = server.execute_sql(&format!("UPDATE u SET bal = bal + 1 WHERE id = {run}"));
            let took = start.elapsed();
            assert_eq!(res.expect("the update commits").message, "UPDATE 1");
            assert!(server.engine().live_queries() > 0, "the scans outlasted the update");
            assert!(
                took < lone,
                "cohort {max_cohort}, run {run}: the update took {took:?}, a lone scan {lone:?}"
            );
            updates.push(took);
            for rx in scans {
                check_scan(rx.recv().expect("an answer"), ROWS);
            }
        }
        launches.sort_unstable();
        updates.sort_unstable();
        assert!(
            launches[2] < Duration::from_millis(8),
            "cohort {max_cohort}: `execute` spent {launches:?} launching"
        );
        assert!(
            updates[2] < Duration::from_millis(10),
            "cohort {max_cohort}: updates took {updates:?} beside the scans"
        );
        server.shutdown();
    }
}

/// The `disconnect` slot a launched `SELECT` holds bounds how many run in
/// the engine at once: at most `queue_capacity`, however many are
/// submitted, and every one of them still answers in full.
#[test]
fn launched_selects_stay_within_the_queue_capacity() {
    let _alone = alone();
    const ROWS: i64 = 20_000;
    let server =
        StagedServer::new(catalog(ROWS), ServerConfig { queue_capacity: 4, ..Default::default() });
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let watcher = {
        let (server, stop, peak) = (Arc::clone(&server), Arc::clone(&stop), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                peak.fetch_max(server.engine().live_queries(), Ordering::SeqCst);
                std::thread::yield_now();
            }
        })
    };
    let scans: Vec<_> = (0..64).map(|_| server.submit(SCAN)).collect();
    for rx in scans {
        check_scan(rx.recv().expect("an answer"), ROWS);
    }
    stop.store(true, Ordering::SeqCst);
    watcher.join().unwrap();
    let peak = peak.load(Ordering::SeqCst);
    assert!(peak <= 4, "{peak} engine queries live at once, over the capacity of 4");
    assert!(peak >= 2, "the scans never overlapped (peak {peak})");
    server.shutdown();
}

/// A scan running when `shutdown` starts keeps its `disconnect` slot until
/// it ends: it answers with its rows, not `ShuttingDown`, and `shutdown`
/// returns after it.
#[test]
fn a_scan_in_flight_at_shutdown_answers_with_its_rows() {
    let _alone = alone();
    const ROWS: i64 = 300_000;
    let server = StagedServer::new(catalog(ROWS), ServerConfig::default());
    let rx = server.submit(SCAN);
    wait_for("the scan in the engine", || server.engine().live_queries() == 1);
    server.shutdown();
    check_scan(rx.recv().expect("an answer"), ROWS);
    assert_eq!(server.engine().live_queries(), 0);
    assert_eq!(server.execute_sql(SCAN).unwrap_err(), ServerError::ShuttingDown);
}

/// An error inside the engine still reaches the client through
/// `disconnect`, and the server goes on serving.
#[test]
fn an_engine_error_reaches_the_client() {
    let _alone = alone();
    let server = StagedServer::new(catalog(1_000), ServerConfig::default());
    let err = server.execute_sql("SELECT SUM(id / (v - 3)) FROM t").unwrap_err();
    assert!(matches!(&err, ServerError::Execution(m) if m.contains("division")), "{err:?}");
    assert_eq!(server.engine().live_queries(), 0);
    check_scan(server.execute_sql(SCAN), 1_000);
    server.shutdown();
}
