//! `shutdown` answers every statement admitted before it, on both servers
//! alike. A writer blocked behind another transaction's lock when
//! `shutdown` starts is granted once the holder ends, or fails with
//! `lock timeout` at its deadline; it is never dropped or refused. The
//! staged server's writer waits parked outside the lock stage's queue
//! with a slot held in it, so the stage stays open until it is answered.

use staged_db::core::monitor::StageStats;
use staged_db::planner::PlannerConfig;
use staged_db::server::{Response, ServerConfig, Session, StagedServer, ThreadedServer};
use staged_db::storage::{BufferPool, Catalog, Column, DataType, MemDisk, Schema, Tuple, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows of each side of [`JOIN`].
const SIDE: i64 = 1_500;

/// A nested-loop join long enough to still run when the holder's session
/// drops: on the staged server it keeps a `disconnect` slot held.
const JOIN: &str = "SELECT COUNT(*) FROM l, r WHERE l.x < r.x";

/// The blocked writer's statement: another row of the partition the
/// holder's transaction has locked.
const WRITE: &str = "UPDATE u SET bal = bal + 1 WHERE id = 2";

/// `u(id, bal)` with 10 rows, and the two `SIDE`-row sides of [`JOIN`].
fn catalog() -> Arc<Catalog> {
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 1024)));
    let schema =
        |a, b| Schema::new(vec![Column::new(a, DataType::Int), Column::new(b, DataType::Int)]);
    let fill = |name, a, b, rows: i64| {
        let t = cat.create_table(name, schema(a, b)).unwrap();
        for i in 0..rows {
            t.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Int(100)])).unwrap();
        }
        cat.analyze_table(name).unwrap();
    };
    fill("u", "id", "bal", 10);
    fill("l", "x", "y", SIDE);
    fill("r", "x", "y", SIDE);
    cat
}

/// One server of either kind, driven the same way.
enum Server {
    Staged(Arc<StagedServer>),
    Threaded(ThreadedServer),
}

impl Server {
    fn new(staged: bool, lock_timeout: Duration) -> Self {
        if staged {
            let config = ServerConfig { lock_timeout, ..Default::default() };
            Self::Staged(StagedServer::new(catalog(), config))
        } else {
            let planner = PlannerConfig::default();
            Self::Threaded(ThreadedServer::with_lock_timeout(catalog(), 4, planner, lock_timeout))
        }
    }

    fn session(&self) -> Session {
        match self {
            Self::Staged(s) => s.session(),
            Self::Threaded(s) => s.session(),
        }
    }

    fn shutdown(&self) {
        match self {
            Self::Staged(s) => s.shutdown(),
            Self::Threaded(s) => s.shutdown(),
        }
    }

    /// Wait until the writer waits for its lock: parked at the staged
    /// lock stage, or admitted to a threaded worker that then blocks.
    fn writer_waits(&self) {
        match self {
            Self::Staged(s) => {
                wait_for("the writer parked", || held(&s.stage_stats(), "lock") == 1)
            }
            Self::Threaded(s) => {
                wait_for("the writer admitted", || s.active_txns() == 2);
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Slots held in `stage`'s queue by packets waiting outside it.
fn held(stats: &[StageStats], stage: &str) -> usize {
    stats.iter().find(|s| s.name == stage).expect("a stage of that name").queue.held
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "never: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A statement's answer as the client sees it: the completion tag or the
/// error.
fn answer(res: Response) -> String {
    match res {
        Ok(out) => out.message,
        Err(e) => format!("error: {e}"),
    }
}

/// The scenario: a holder's open transaction locks `u`, a writer blocks
/// behind it, a long join runs, and `shutdown` starts. With `holder_drops`
/// the holder's session drops 100 ms into the shutdown (its abort
/// releases the lock); otherwise it outlives the shutdown. Returns the
/// writer's answer, after checking that `shutdown` returned and the join
/// answered with its count.
fn blocked_writer_at_shutdown(staged: bool, holder_drops: bool, lock_timeout: Duration) -> String {
    let server = Arc::new(Server::new(staged, lock_timeout));
    let holder = server.session();
    holder.execute_sql("BEGIN").unwrap();
    holder.execute_sql("UPDATE u SET bal = 0 WHERE id = 1").unwrap();
    let writer = server.session();
    let write = writer.submit(WRITE);
    server.writer_waits();
    let reader = server.session();
    let join = reader.submit(JOIN);
    if let Server::Staged(s) = &*server {
        wait_for("the join in the engine", || s.engine().live_queries() == 1);
    }
    let stopper = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.shutdown())
    };
    std::thread::sleep(Duration::from_millis(100));
    let holder = if holder_drops {
        drop(holder);
        None
    } else {
        Some(holder)
    };
    let wrote = write.recv_timeout(Duration::from_secs(60)).expect("the writer is answered");
    stopper.join().expect("shutdown returns");
    let count = join.recv().expect("the join is answered").expect("the join succeeds");
    assert_eq!(count.rows[0].get(0), &Value::Int(SIDE * (SIDE - 1) / 2));
    drop(holder);
    answer(wrote)
}

#[test]
fn a_writer_whose_holder_ends_during_shutdown_is_granted() {
    for staged in [true, false] {
        let got = blocked_writer_at_shutdown(staged, true, Duration::from_secs(30));
        assert_eq!(got, "UPDATE 1", "staged: {staged}");
    }
}

#[test]
fn a_writer_whose_holder_outlives_shutdown_times_out() {
    let got =
        [true, false].map(|s| blocked_writer_at_shutdown(s, false, Duration::from_millis(200)));
    assert_eq!(got[0], got[1], "staged and threaded answers differ");
    assert!(got[0].starts_with("error: ") && got[0].contains("lock timeout"), "{}", got[0]);
}

/// `QueueStats::held` counts the packets waiting outside a stage: a
/// parked writer at `lock`, a launched `SELECT` at `disconnect`, a parked
/// operator task at its engine stage.
#[test]
fn held_slots_show_in_stage_stats() {
    let server = StagedServer::new(catalog(), ServerConfig::default());
    let holder = server.session();
    holder.execute_sql("BEGIN").unwrap();
    holder.execute_sql("UPDATE u SET bal = 0 WHERE id = 1").unwrap();
    let write = server.submit(WRITE);
    wait_for("the writer parked", || held(&server.stage_stats(), "lock") == 1);
    let join = server.submit(JOIN);
    wait_for("the join launched", || held(&server.stage_stats(), "disconnect") == 1);
    let parked_in_engine = || server.engine_stats().iter().any(|s| s.queue.held > 0);
    wait_for("a join task parked in the engine", parked_in_engine);
    assert_eq!(held(&server.stage_stats(), "lock"), 1);
    holder.execute_sql("COMMIT").unwrap();
    assert_eq!(answer(write.recv().unwrap()), "UPDATE 1");
    join.recv().unwrap().unwrap();
    wait_for("both slots given back", || {
        let stats = server.stage_stats();
        held(&stats, "lock") == 0 && held(&stats, "disconnect") == 0
    });
    server.shutdown();
    assert!(server.engine_stats().iter().all(|s| s.queue.held == 0));
}
