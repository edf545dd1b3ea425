//! Full-stack transaction tests: session-scoped BEGIN/COMMIT/ROLLBACK
//! through both servers, rollback byte-identity, abort-on-drop, lock
//! timeouts, and the staged-vs-volcano differential transfer workload.

use staged_db::planner::PlannerConfig;
use staged_db::server::types::ExecutionMode;
use staged_db::server::{ServerConfig, ServerError, StagedServer, ThreadedServer};
use staged_db::storage::{BufferPool, Catalog, Column, DataType, MemDisk, Schema};
use std::sync::Arc;
use std::time::Duration;

fn catalog_with_accounts(parts: usize, accounts: i64, balance: i64) -> Arc<Catalog> {
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
    cat.create_table_partitioned(
        "accounts",
        Schema::new(vec![Column::new("id", DataType::Int), Column::new("bal", DataType::Int)]),
        parts,
        0,
    )
    .unwrap();
    let t = cat.table("accounts").unwrap();
    for i in 0..accounts {
        t.heap
            .insert(&staged_db::storage::Tuple::new(vec![
                staged_db::storage::Value::Int(i),
                staged_db::storage::Value::Int(balance),
            ]))
            .unwrap();
    }
    // Bulk-loads the preloaded rows into per-partition B+trees.
    cat.create_index("accounts_id", "accounts", "id").unwrap();
    cat.analyze_table("accounts").unwrap();
    cat
}

/// Per-partition sorted tuple encodings plus index probe results: the
/// "byte-identical" observable state of a table. The probe range covers
/// every key the test scripts touch, including rolled-back inserts.
fn table_fingerprint(cat: &Catalog, _accounts: i64) -> (Vec<Vec<Vec<u8>>>, Vec<usize>) {
    let t = cat.table("accounts").unwrap();
    let heap: Vec<Vec<Vec<u8>>> = (0..t.heap.partitions())
        .map(|p| {
            let mut v: Vec<Vec<u8>> =
                t.heap.scan_partition(p).map(|r| r.unwrap().1.encode()).collect();
            v.sort();
            v
        })
        .collect();
    let ix = cat.index_on(t.id, 0).unwrap();
    let probes: Vec<usize> = (0..1000).map(|k| ix.search(k).unwrap().len()).collect();
    (heap, probes)
}

fn staged(cat: &Arc<Catalog>, parts: usize, mode: ExecutionMode) -> Arc<StagedServer> {
    StagedServer::new(
        Arc::clone(cat),
        ServerConfig {
            mode,
            partitions: parts,
            lock_timeout: Duration::from_millis(400),
            ..Default::default()
        },
    )
}

fn threaded(cat: &Arc<Catalog>, workers: usize) -> ThreadedServer {
    ThreadedServer::with_lock_timeout(
        Arc::clone(cat),
        workers,
        PlannerConfig::default(),
        Duration::from_millis(400),
    )
}

/// BEGIN; mutate; ROLLBACK leaves heap and indexes byte-identical, at
/// 1/2/4 partitions, on both servers.
#[test]
fn rollback_is_byte_identical_across_partition_counts() {
    for parts in [1usize, 2, 4] {
        for server_kind in ["staged", "threaded"] {
            let cat = catalog_with_accounts(parts, 32, 100);
            let before = table_fingerprint(&cat, 32);
            let script = [
                "BEGIN",
                "INSERT INTO accounts VALUES (500, 1), (501, 2), (502, 3)",
                "UPDATE accounts SET bal = bal + 7 WHERE id = 3",
                "DELETE FROM accounts WHERE id < 5",
                "UPDATE accounts SET id = 900 WHERE id = 10",
                "ROLLBACK",
            ];
            match server_kind {
                "staged" => {
                    let s = staged(&cat, parts, ExecutionMode::Staged);
                    let sess = s.session();
                    for sql in script {
                        sess.execute_sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                    }
                    assert_eq!(s.active_txns(), 0);
                    drop(sess);
                    s.shutdown();
                }
                _ => {
                    let s = threaded(&cat, 2);
                    let sess = s.session();
                    for sql in script {
                        sess.execute_sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                    }
                    assert_eq!(s.active_txns(), 0);
                    drop(sess);
                    s.shutdown();
                }
            }
            assert_eq!(
                table_fingerprint(&cat, 32),
                before,
                "{server_kind} rollback not byte-identical at {parts} partitions"
            );
        }
    }
}

#[test]
fn commit_makes_changes_visible_and_durable_in_wal_order() {
    let cat = catalog_with_accounts(2, 8, 100);
    let s = staged(&cat, 2, ExecutionMode::Staged);
    let sess = s.session();
    sess.execute_sql("BEGIN").unwrap();
    sess.execute_sql("UPDATE accounts SET bal = 250 WHERE id = 1").unwrap();
    sess.execute_sql("COMMIT").unwrap();
    let out = s.execute_sql("SELECT bal FROM accounts WHERE id = 1").unwrap();
    assert_eq!(out.rows[0].to_string(), "[250]");
    assert_eq!(s.active_txns(), 0);
    drop(sess);
    s.shutdown();
}

#[test]
fn failed_statement_aborts_the_whole_transaction() {
    let cat = catalog_with_accounts(1, 8, 100);
    let s = threaded(&cat, 2);
    let sess = s.session();
    sess.execute_sql("BEGIN").unwrap();
    sess.execute_sql("UPDATE accounts SET bal = 1 WHERE id = 2").unwrap();
    // Schema violation: the statement fails, and with it the transaction.
    assert!(sess.execute_sql("INSERT INTO accounts VALUES ('oops', 3)").is_err());
    // The session is now in the failed-transaction state: further
    // statements refuse until the client acknowledges — critically, they
    // must NOT silently run as autocommit singletons.
    let err = sess.execute_sql("UPDATE accounts SET bal = 5 WHERE id = 3").unwrap_err();
    assert!(err.to_string().contains("aborted"), "got: {err}");
    // COMMIT acknowledges the failure; the server reports the rollback.
    assert_eq!(sess.execute_sql("COMMIT").unwrap().message, "ROLLBACK");
    // And the session is usable again.
    sess.execute_sql("BEGIN").unwrap();
    sess.execute_sql("COMMIT").unwrap();
    // The earlier in-transaction update was rolled back with it.
    let out = s.execute_sql("SELECT bal FROM accounts WHERE id = 2").unwrap();
    assert_eq!(out.rows[0].to_string(), "[100]");
    assert_eq!(s.active_txns(), 0);
    drop(sess);
    s.shutdown();
}

#[test]
fn txn_control_requires_a_session() {
    let cat = catalog_with_accounts(1, 4, 100);
    let s = staged(&cat, 1, ExecutionMode::Staged);
    assert!(matches!(s.execute_sql("BEGIN"), Err(ServerError::Sql(_))));
    assert!(matches!(s.execute_sql("COMMIT"), Err(ServerError::Sql(_))));
    assert!(matches!(s.execute_sql("ROLLBACK"), Err(ServerError::Sql(_))));
    s.shutdown();
}

/// Client disconnect with a transaction open aborts it: locks release,
/// writes undo. Regression test for abort-on-drop on both servers.
#[test]
fn dropping_a_session_aborts_its_transaction_and_releases_locks() {
    // Staged server.
    let cat = catalog_with_accounts(1, 4, 100);
    let s = staged(&cat, 1, ExecutionMode::Staged);
    let sess = s.session();
    sess.execute_sql("BEGIN").unwrap();
    sess.execute_sql("UPDATE accounts SET bal = 999 WHERE id = 1").unwrap();
    assert_eq!(s.active_txns(), 1);
    drop(sess); // disconnect mid-transaction
    assert_eq!(s.active_txns(), 0, "abort-on-drop must end the transaction");
    // The lock is free: a new writer succeeds well inside the lock timeout,
    // and sees the rolled-back value.
    let sess2 = s.session();
    sess2.execute_sql("BEGIN").unwrap();
    sess2.execute_sql("UPDATE accounts SET bal = bal + 1 WHERE id = 1").unwrap();
    sess2.execute_sql("COMMIT").unwrap();
    let out = s.execute_sql("SELECT bal FROM accounts WHERE id = 1").unwrap();
    assert_eq!(out.rows[0].to_string(), "[101]", "update applied over the rolled-back 100");
    drop(sess2);
    s.shutdown();

    // Threaded server.
    let cat = catalog_with_accounts(1, 4, 100);
    let s = threaded(&cat, 2);
    let sess = s.session();
    sess.execute_sql("BEGIN").unwrap();
    sess.execute_sql("UPDATE accounts SET bal = 999 WHERE id = 1").unwrap();
    assert_eq!(s.active_txns(), 1);
    drop(sess);
    assert_eq!(s.active_txns(), 0);
    let out = s.execute_sql("SELECT bal FROM accounts WHERE id = 1").unwrap();
    assert_eq!(out.rows[0].to_string(), "[100]");
    s.shutdown();
}

#[test]
fn conflicting_writer_times_out_and_aborts_without_wedging_the_holder() {
    let cat = catalog_with_accounts(1, 4, 100);
    let s = staged(&cat, 1, ExecutionMode::Staged);
    let sess = s.session();
    sess.execute_sql("BEGIN").unwrap();
    sess.execute_sql("UPDATE accounts SET bal = 7 WHERE id = 0").unwrap();
    // One-shot autocommit writer on the same partition: parked at the lock
    // stage until its deadline, then aborted.
    let err = s.execute_sql("UPDATE accounts SET bal = 8 WHERE id = 0").unwrap_err();
    assert!(err.to_string().contains("lock timeout"), "got: {err}");
    // The holder is unaffected and commits.
    sess.execute_sql("COMMIT").unwrap();
    let out = s.execute_sql("SELECT bal FROM accounts WHERE id = 0").unwrap();
    assert_eq!(out.rows[0].to_string(), "[7]");
    // And the aborted writer's retry now succeeds.
    s.execute_sql("UPDATE accounts SET bal = 8 WHERE id = 0").unwrap();
    let out = s.execute_sql("SELECT bal FROM accounts WHERE id = 0").unwrap();
    assert_eq!(out.rows[0].to_string(), "[8]");
    drop(sess);
    s.shutdown();
}

/// The differential OLTP workload: concurrent sessions transfer balance
/// between random accounts, committing or rolling back; money is neither
/// created nor destroyed. Run identically against the staged server (lock
/// stage + staged engine) and the threaded Volcano baseline.
#[test]
fn interleaved_transfers_preserve_the_sum_invariant_on_both_engines() {
    const ACCOUNTS: i64 = 16;
    const BALANCE: i64 = 100;
    const SESSIONS: usize = 4;
    const TRANSFERS: usize = 12;

    // Deterministic per-session statement streams (xorshift), shared by
    // both server runs so the workloads are identical.
    let plan_for = |session: usize| -> Vec<(i64, i64, bool)> {
        let mut state = 0x9e3779b97f4a7c15u64 ^ (session as u64 + 1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..TRANSFERS)
            .map(|_| {
                let from = (next() % ACCOUNTS as u64) as i64;
                let to = (next() % ACCOUNTS as u64) as i64;
                let commit = next() % 4 != 0; // 3 in 4 commit
                (from, to, commit)
            })
            .collect()
    };

    let run_session = |exec: &dyn Fn(&str) -> staged_db::server::Response,
                       plan: &[(i64, i64, bool)]| {
        for (from, to, commit) in plan {
            if exec("BEGIN").is_err() {
                continue;
            }
            let a = exec(&format!("UPDATE accounts SET bal = bal - 10 WHERE id = {from}"));
            let b = if a.is_ok() {
                exec(&format!("UPDATE accounts SET bal = bal + 10 WHERE id = {to}"))
            } else {
                a.clone()
            };
            if a.is_err() || b.is_err() {
                // A lock timeout aborted the transaction server-side; the
                // session is in the failed state until the client
                // acknowledges, so clear it before the next transfer.
                let _ = exec("ROLLBACK");
                continue;
            }
            let end = if *commit { "COMMIT" } else { "ROLLBACK" };
            let _ = exec(end);
        }
    };

    for parts in [1usize, 2] {
        // Staged server, staged engine, lock-manager stage.
        let cat = catalog_with_accounts(parts, ACCOUNTS, BALANCE);
        let server = staged(&cat, parts, ExecutionMode::Staged);
        std::thread::scope(|scope| {
            for sid in 0..SESSIONS {
                let server = &server;
                let plan = plan_for(sid);
                scope.spawn(move || {
                    let sess = server.session();
                    run_session(&|sql| sess.execute_sql(sql), &plan);
                });
            }
        });
        let out = server.execute_sql("SELECT SUM(bal), COUNT(*) FROM accounts").unwrap();
        assert_eq!(
            out.rows[0].to_string(),
            format!("[{}, {ACCOUNTS}]", ACCOUNTS * BALANCE),
            "staged engine leaked money at {parts} partitions"
        );
        assert_eq!(server.active_txns(), 0);
        server.shutdown();

        // Threaded Volcano baseline, sequential lock acquisition.
        let cat = catalog_with_accounts(parts, ACCOUNTS, BALANCE);
        let server = threaded(&cat, SESSIONS);
        std::thread::scope(|scope| {
            for sid in 0..SESSIONS {
                let server = &server;
                let plan = plan_for(sid);
                scope.spawn(move || {
                    let sess = server.session();
                    run_session(&|sql| sess.execute_sql(sql), &plan);
                });
            }
        });
        let out = server.execute_sql("SELECT SUM(bal), COUNT(*) FROM accounts").unwrap();
        assert_eq!(
            out.rows[0].to_string(),
            format!("[{}, {ACCOUNTS}]", ACCOUNTS * BALANCE),
            "volcano baseline leaked money at {parts} partitions"
        );
        assert_eq!(server.active_txns(), 0);
        server.shutdown();
    }
}

// ---- Lock waits are event-driven (PR 15) -------------------------------
//
// A conflicted packet parks outside the lock stage's queue and is
// re-admitted by the release that frees its lock; nothing polls. Each
// scenario runs against both servers: the threaded baseline blocks a
// pool thread on the lock table's condvar and must end in the same state.

use staged_db::server::Response;
use staged_db::storage::{partition_of_value, Value};
use std::time::Instant;

/// One statement on some session (dropping the closure drops the session,
/// which is a client disconnect).
type Exec<'a> = Box<dyn Fn(&str) -> Response + Send + Sync + 'a>;

/// Either server, as the scenarios see it.
struct Subject<'a> {
    /// An autocommit statement outside any session.
    one_shot: &'a (dyn Fn(&str) -> Response + Sync),
    /// Open a client session.
    session: &'a (dyn Fn() -> Exec<'a> + Sync),
    /// `retries` of the `lock` stage, for the server that has one.
    lock_retries: &'a (dyn Fn() -> Option<u64> + Sync),
}

fn with_both_servers(parts: usize, timeout: Duration, scenario: &dyn Fn(&Subject<'_>, &str)) {
    let cat = catalog_with_accounts(parts, 8, 100);
    let config = ServerConfig { partitions: parts, lock_timeout: timeout, ..Default::default() };
    let s = StagedServer::new(Arc::clone(&cat), config);
    let lock_retries = || s.stage_stats().iter().find(|st| st.name == "lock").map(|st| st.retries);
    scenario(
        &Subject {
            one_shot: &|sql| s.execute_sql(sql),
            session: &|| {
                let sess = s.session();
                Box::new(move |sql| sess.execute_sql(sql))
            },
            lock_retries: &lock_retries,
        },
        "staged",
    );
    assert_eq!(s.active_txns(), 0);
    s.shutdown();

    let cat = catalog_with_accounts(parts, 8, 100);
    let t = ThreadedServer::with_lock_timeout(cat, 4, PlannerConfig::default(), timeout);
    scenario(
        &Subject {
            one_shot: &|sql| t.execute_sql(sql),
            session: &|| {
                let sess = t.session();
                Box::new(move |sql| sess.execute_sql(sql))
            },
            lock_retries: &|| None,
        },
        "threaded",
    );
    assert_eq!(t.active_txns(), 0);
    t.shutdown();
}

fn balance(subject: &Subject<'_>, id: i64) -> String {
    let out = (subject.one_shot)(&format!("SELECT bal FROM accounts WHERE id = {id}")).unwrap();
    out.rows[0].to_string()
}

#[test]
fn lock_waiter_parks_once_and_is_granted_by_the_release() {
    for release in ["COMMIT", "ROLLBACK", "disconnect"] {
        with_both_servers(2, Duration::from_secs(10), &|subject, server| {
            let what = format!("{server}, holder ends with {release}");
            (subject.one_shot)("CREATE TABLE other (id INT, v INT)").unwrap();
            (subject.one_shot)("INSERT INTO other VALUES (1, 1)").unwrap();
            let holder = (subject.session)();
            holder("BEGIN").unwrap();
            holder("UPDATE accounts SET bal = 1 WHERE id = 0").unwrap();
            let retries_before = (subject.lock_retries)();
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| {
                    let res = (subject.one_shot)("UPDATE accounts SET bal = bal + 5 WHERE id = 0");
                    (res, Instant::now())
                });
                std::thread::sleep(Duration::from_millis(200));
                assert!(!waiter.is_finished(), "{what}: the waiter must be blocked");
                // The parked waiter is in nobody's way: the holder's next
                // statement (through the same lock stage) and a stranger's
                // write to another table go straight through.
                let start = Instant::now();
                holder("UPDATE accounts SET bal = 2 WHERE id = 0").unwrap();
                (subject.one_shot)("UPDATE other SET v = v + 1 WHERE id = 1").unwrap();
                assert!(start.elapsed() < Duration::from_millis(150), "{what}: held up");
                if let (Some(before), Some(now)) = (retries_before, (subject.lock_retries)()) {
                    // One park. The polling lock stage made ~1,500 retries
                    // in these 200 ms.
                    assert!(now - before <= 3, "{what}: {} lock retries", now - before);
                }
                let released = Instant::now();
                match release {
                    "disconnect" => drop(holder),
                    end => drop(holder(end).unwrap()),
                }
                let (res, granted) = waiter.join().unwrap();
                res.unwrap_or_else(|e| panic!("{what}: waiter failed: {e}"));
                let waited = granted.saturating_duration_since(released);
                assert!(waited < Duration::from_millis(150), "{what}: granted after {waited:?}");
            });
            let expect = if release == "COMMIT" { "[7]" } else { "[105]" };
            assert_eq!(balance(subject, 0), expect, "{what}");
        });
    }
}

#[test]
fn opposite_order_deadlock_fails_one_side_and_the_survivor_commits() {
    // Two ids in different partitions, so each session can hold one lock
    // and want the other.
    let a = 0i64;
    let b = (1..8)
        .find(|id| partition_of_value(&Value::Int(*id), 2) != partition_of_value(&Value::Int(a), 2))
        .expect("some id hashes to the other partition");
    let timeout = Duration::from_millis(400);
    // The staged lock stage enforces deadlines from its idle hook, whose
    // tick backs off to at most 640 ms (`staged_core`'s IDLE_POLL_MAX);
    // the rest is slack for a loaded test machine.
    let bound = timeout + Duration::from_millis(640) + Duration::from_millis(800);
    with_both_servers(2, timeout, &|subject, server| {
        let (first, second) = ((subject.session)(), (subject.session)());
        first("BEGIN").unwrap();
        second("BEGIN").unwrap();
        first(&format!("UPDATE accounts SET bal = bal - 10 WHERE id = {a}")).unwrap();
        second(&format!("UPDATE accounts SET bal = bal - 20 WHERE id = {b}")).unwrap();
        let start = Instant::now();
        let (r1, r2) = std::thread::scope(|scope| {
            let t1 = scope
                .spawn(|| first(&format!("UPDATE accounts SET bal = bal + 10 WHERE id = {b}")));
            // `first` waits first, so its deadline is the earlier one.
            std::thread::sleep(Duration::from_millis(50));
            let t2 = scope
                .spawn(|| second(&format!("UPDATE accounts SET bal = bal + 20 WHERE id = {a}")));
            (t1.join().unwrap(), t2.join().unwrap())
        });
        assert!(start.elapsed() < bound, "{server}: resolved after {:?}", start.elapsed());
        let err = r1.expect_err("the earlier waiter is the victim");
        assert!(err.to_string().contains("lock timeout"), "{server}: {err}");
        r2.unwrap_or_else(|e| panic!("{server}: the survivor failed too: {e}"));
        assert_eq!(first("ROLLBACK").unwrap().message, "ROLLBACK");
        second("COMMIT").unwrap();
        assert_eq!((balance(subject, a), balance(subject, b)), ("[120]".into(), "[80]".into()));
    });
}

#[test]
fn a_park_that_races_a_release_is_never_stranded() {
    // Two writers, two rows in two partitions, always locked in the same
    // order (no deadlock): nearly every transfer conflicts, so parks and
    // releases race constantly. A stranded packet would sit out its 5 s
    // deadline and fail.
    let per_writer = if cfg!(debug_assertions) { 2_000 } else { 10_000 };
    let a = 0i64;
    let b = (1..8)
        .find(|id| partition_of_value(&Value::Int(*id), 2) != partition_of_value(&Value::Int(a), 2))
        .expect("some id hashes to the other partition");
    with_both_servers(2, Duration::from_secs(5), &|subject, server| {
        std::thread::scope(|scope| {
            for w in 0..2 {
                scope.spawn(move || {
                    let sess = (subject.session)();
                    let amount = w + 1;
                    for i in 0..per_writer {
                        for sql in [
                            "BEGIN".to_string(),
                            format!("UPDATE accounts SET bal = bal - {amount} WHERE id = {a}"),
                            format!("UPDATE accounts SET bal = bal + {amount} WHERE id = {b}"),
                            "COMMIT".to_string(),
                        ] {
                            sess(&sql)
                                .unwrap_or_else(|e| panic!("{server}: writer {w} txn {i}: {e}"));
                        }
                    }
                });
            }
        });
        let moved = 3 * per_writer as i64;
        assert_eq!(balance(subject, a), format!("[{}]", 100 - moved), "{server}");
        assert_eq!(balance(subject, b), format!("[{}]", 100 + moved), "{server}");
    });
}

#[test]
fn cohorts_still_form_under_load() {
    // Following is for the idle case. 32 clients submitting without
    // waiting keep the queues non-empty, nothing is followed past them,
    // and the parse stage serves real cohorts.
    let cat = catalog_with_accounts(2, 8, 100);
    let s = staged(&cat, 2, ExecutionMode::Staged);
    std::thread::scope(|scope| {
        for c in 0..32 {
            let s = &s;
            scope.spawn(move || {
                let pending: Vec<_> = (0..40)
                    .map(|i| {
                        s.submit(format!("SELECT bal FROM accounts WHERE id = {}", (c + i) % 8))
                    })
                    .collect();
                for rx in pending {
                    rx.recv().unwrap().unwrap();
                }
            });
        }
    });
    let stats = s.stage_stats();
    let parse = stats.iter().find(|st| st.name == "parse").unwrap();
    assert_eq!(parse.processed, 32 * 40);
    assert!(parse.max_cohort > 1, "parse never served a cohort: {parse:?}");
    assert!(parse.cohorts < parse.processed);
    s.shutdown();
}
