//! MVCC snapshot-read tests: `BEGIN READ ONLY` sessions on both servers,
//! the snapshot-vs-quiesced differential at 1/2/4 partitions, the
//! readers-never-block-writers acceptance path, DML refusal, checkpoint
//! version GC, and a proptest that a reader opened mid-transfer always
//! sees a balanced sum. Index probes under a snapshot get the same
//! treatment: a differential against an index-less twin table, a
//! reader/writer race on the probed keys, and the balanced-sum proptest
//! read back key by key.

use proptest::prelude::*;
use staged_db::planner::PlannerConfig;
use staged_db::server::types::ExecutionMode;
use staged_db::server::{Response, ServerConfig, StagedServer, ThreadedServer};
use staged_db::storage::{BufferPool, Catalog, Column, DataType, MemDisk, Schema, Tuple, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const ACCOUNTS: i64 = 16;
const BALANCE: i64 = 100;

fn catalog_with_accounts(parts: usize) -> Arc<Catalog> {
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
    cat.create_table_partitioned(
        "accounts",
        Schema::new(vec![Column::new("id", DataType::Int), Column::new("bal", DataType::Int)]),
        parts,
        0,
    )
    .unwrap();
    let t = cat.table("accounts").unwrap();
    for i in 0..ACCOUNTS {
        t.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Int(BALANCE)])).unwrap();
    }
    cat.analyze_table("accounts").unwrap();
    cat
}

fn staged(cat: &Arc<Catalog>, parts: usize) -> Arc<StagedServer> {
    StagedServer::new(
        Arc::clone(cat),
        ServerConfig {
            mode: ExecutionMode::Staged,
            partitions: parts,
            lock_timeout: Duration::from_millis(400),
            ..Default::default()
        },
    )
}

fn threaded(cat: &Arc<Catalog>) -> ThreadedServer {
    ThreadedServer::with_lock_timeout(
        Arc::clone(cat),
        2,
        PlannerConfig::default(),
        Duration::from_millis(400),
    )
}

/// Deterministic transfer schedule (xorshift) shared across runs.
fn transfers(seed: u64, n: usize) -> Vec<(i64, i64)> {
    let mut state = 0x9e3779b97f4a7c15u64 ^ (seed + 1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n).map(|_| ((next() % ACCOUNTS as u64) as i64, (next() % ACCOUNTS as u64) as i64)).collect()
}

fn apply_transfer(exec: &dyn Fn(&str) -> staged_db::server::Response, from: i64, to: i64) {
    exec("BEGIN").unwrap();
    exec(&format!("UPDATE accounts SET bal = bal - 10 WHERE id = {from}")).unwrap();
    exec(&format!("UPDATE accounts SET bal = bal + 10 WHERE id = {to}")).unwrap();
    exec("COMMIT").unwrap();
}

/// Like [`apply_transfer`] but for *concurrent* writers, whose transfers
/// touch partitions in arbitrary order and can deadlock against each
/// other. A timed-out statement aborts the whole transaction (money
/// stays balanced), so the transfer is simply retried until it commits.
fn apply_transfer_retrying(exec: &dyn Fn(&str) -> staged_db::server::Response, from: i64, to: i64) {
    loop {
        if exec("BEGIN").is_err() {
            continue;
        }
        let ok = exec(&format!("UPDATE accounts SET bal = bal - 10 WHERE id = {from}")).is_ok()
            && exec(&format!("UPDATE accounts SET bal = bal + 10 WHERE id = {to}")).is_ok();
        if ok && exec("COMMIT").is_ok() {
            return;
        }
        let _ = exec("ROLLBACK");
    }
}

/// The differential: after a committed transfer workload, a `BEGIN READ
/// ONLY` snapshot scan must return exactly what a quiesced 2PL scan
/// returns — at 1, 2, and 4 partitions, on both servers.
#[test]
fn snapshot_scan_matches_quiesced_scan_across_partition_counts() {
    let queries = [
        "SELECT id, bal FROM accounts ORDER BY id",
        "SELECT SUM(bal), COUNT(*) FROM accounts",
        "SELECT bal, COUNT(*) FROM accounts GROUP BY bal ORDER BY bal",
    ];
    for parts in [1usize, 2, 4] {
        for kind in ["staged", "threaded"] {
            let cat = catalog_with_accounts(parts);
            let run = |exec: &dyn Fn(&str) -> staged_db::server::Response| {
                for (from, to) in transfers(7, 24) {
                    apply_transfer(exec, from, to);
                }
                // Quiesced: no writer is live, so the plain (2PL-path)
                // scan is the ground truth the snapshot must reproduce.
                for q in queries {
                    let truth = exec(q).unwrap();
                    exec("BEGIN READ ONLY").unwrap();
                    let snap = exec(q).unwrap();
                    exec("COMMIT").unwrap();
                    assert_eq!(
                        snap.rows.iter().map(|r| r.to_string()).collect::<Vec<_>>(),
                        truth.rows.iter().map(|r| r.to_string()).collect::<Vec<_>>(),
                        "{kind} snapshot diverged from quiesced scan at {parts} parts on {q}"
                    );
                }
            };
            match kind {
                "staged" => {
                    let s = staged(&cat, parts);
                    let sess = s.session();
                    run(&|sql| sess.execute_sql(sql));
                    drop(sess);
                    s.shutdown();
                }
                _ => {
                    let s = threaded(&cat);
                    let sess = s.session();
                    run(&|sql| sess.execute_sql(sql));
                    drop(sess);
                    s.shutdown();
                }
            }
        }
    }
}

/// The acceptance path: a long-running read-only transaction keeps
/// scanning — and keeps seeing its snapshot — while concurrent transfers
/// commit underneath it. The reader never visits the lock table, so it
/// neither waits for writers nor makes them wait.
#[test]
fn long_running_read_only_scan_survives_concurrent_commits() {
    let cat = catalog_with_accounts(2);
    let s = staged(&cat, 2);
    let reader = s.session();
    reader.execute_sql("BEGIN READ ONLY").unwrap();
    let before = reader.execute_sql("SELECT id, bal FROM accounts ORDER BY id").unwrap();

    // Writers commit transfers while the reader's transaction stays open.
    std::thread::scope(|scope| {
        for seed in 0..3u64 {
            let server = &s;
            scope.spawn(move || {
                let sess = server.session();
                for (from, to) in transfers(seed, 8) {
                    apply_transfer_retrying(&|sql| sess.execute_sql(sql), from, to);
                }
            });
        }
        // Interleave reads with the writers: every scan completes (no
        // lock waits) and reproduces the pinned snapshot exactly.
        for _ in 0..6 {
            let again = reader.execute_sql("SELECT id, bal FROM accounts ORDER BY id").unwrap();
            assert_eq!(
                again.rows.iter().map(|r| r.to_string()).collect::<Vec<_>>(),
                before.rows.iter().map(|r| r.to_string()).collect::<Vec<_>>(),
                "read-only snapshot drifted while writers committed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    reader.execute_sql("COMMIT").unwrap();
    // A fresh statement sees the post-transfer state, and no money leaked.
    let out = reader.execute_sql("SELECT SUM(bal), COUNT(*) FROM accounts").unwrap();
    assert_eq!(out.rows[0].to_string(), format!("[{}, {ACCOUNTS}]", ACCOUNTS * BALANCE));
    drop(reader);
    s.shutdown();
}

/// A snapshot reader ignores exclusive partition locks entirely: it
/// completes while an uncommitted writer holds the lock (a plain scan
/// would run, but a conflicting writer would time out), and it sees the
/// pre-update image rather than the writer's uncommitted bytes.
#[test]
fn read_only_reader_ignores_uncommitted_writer_locks() {
    let cat = catalog_with_accounts(1);
    let s = staged(&cat, 1);
    let writer = s.session();
    writer.execute_sql("BEGIN").unwrap();
    writer.execute_sql("UPDATE accounts SET bal = 999 WHERE id = 3").unwrap();

    let reader = s.session();
    reader.execute_sql("BEGIN READ ONLY").unwrap();
    let out = reader.execute_sql("SELECT bal FROM accounts WHERE id = 3").unwrap();
    assert_eq!(out.rows[0].to_string(), format!("[{BALANCE}]"), "reader saw uncommitted write");

    writer.execute_sql("COMMIT").unwrap();
    // Still the old image: the snapshot predates the commit.
    let out = reader.execute_sql("SELECT bal FROM accounts WHERE id = 3").unwrap();
    assert_eq!(out.rows[0].to_string(), format!("[{BALANCE}]"));
    reader.execute_sql("COMMIT").unwrap();
    // A new snapshot sees the committed update.
    reader.execute_sql("BEGIN READ ONLY").unwrap();
    let out = reader.execute_sql("SELECT bal FROM accounts WHERE id = 3").unwrap();
    assert_eq!(out.rows[0].to_string(), "[999]");
    reader.execute_sql("COMMIT").unwrap();
    drop(reader);
    drop(writer);
    s.shutdown();
}

/// DML and DDL are refused inside a read-only transaction with the
/// `READ_ONLY` error, on both servers, and the session stays usable.
#[test]
fn read_only_transactions_refuse_writes() {
    for kind in ["staged", "threaded"] {
        let cat = catalog_with_accounts(1);
        let check = |exec: &dyn Fn(&str) -> staged_db::server::Response| {
            exec("BEGIN READ ONLY").unwrap();
            for sql in [
                "INSERT INTO accounts VALUES (99, 1)",
                "UPDATE accounts SET bal = 0 WHERE id = 1",
                "DELETE FROM accounts WHERE id = 1",
                "CREATE TABLE t2 (x INT)",
            ] {
                let err = exec(sql).unwrap_err();
                assert!(err.to_string().contains("read-only"), "{kind} {sql}: {err}");
            }
            // Reads still work and the txn ends cleanly.
            exec("SELECT COUNT(*) FROM accounts").unwrap();
            assert_eq!(exec("COMMIT").unwrap().message, "COMMIT");
            // Nothing leaked through.
            let out = exec("SELECT SUM(bal), COUNT(*) FROM accounts").unwrap();
            assert_eq!(out.rows[0].to_string(), format!("[{}, {ACCOUNTS}]", ACCOUNTS * BALANCE));
        };
        match kind {
            "staged" => {
                let s = staged(&cat, 1);
                let sess = s.session();
                check(&|sql| sess.execute_sql(sql));
                drop(sess);
                s.shutdown();
            }
            _ => {
                let s = threaded(&cat);
                let sess = s.session();
                check(&|sql| sess.execute_sql(sql));
                drop(sess);
                s.shutdown();
            }
        }
    }
}

/// ROLLBACK of a read-only transaction is accepted (it has nothing to
/// undo) and releases the snapshot pin.
#[test]
fn read_only_rollback_is_accepted() {
    let cat = catalog_with_accounts(1);
    let s = staged(&cat, 1);
    let sess = s.session();
    sess.execute_sql("BEGIN READ ONLY").unwrap();
    sess.execute_sql("SELECT COUNT(*) FROM accounts").unwrap();
    assert_eq!(sess.execute_sql("ROLLBACK").unwrap().message, "ROLLBACK");
    // The pin is gone: a checkpoint may now vacuum everything dead.
    assert_eq!(cat.oracle().pins(), 0);
    drop(sess);
    s.shutdown();
}

/// Checkpoint vacuums dead versions: after committed updates, the
/// version overlay holds dead before-images; CHECKPOINT reclaims them
/// and reports the count in its message.
#[test]
fn checkpoint_reclaims_dead_versions() {
    for kind in ["staged", "threaded"] {
        let cat = catalog_with_accounts(1);
        let (msg, dead_before) = match kind {
            "staged" => {
                let s = staged(&cat, 1);
                let sess = s.session();
                for (from, to) in transfers(3, 8) {
                    apply_transfer(&|sql| sess.execute_sql(sql), from, to);
                }
                let dead = cat.table("accounts").unwrap().versions.stats().dead;
                let msg = s.checkpoint().unwrap().message;
                drop(sess);
                s.shutdown();
                (msg, dead)
            }
            _ => {
                let s = threaded(&cat);
                let sess = s.session();
                for (from, to) in transfers(3, 8) {
                    apply_transfer(&|sql| sess.execute_sql(sql), from, to);
                }
                let dead = cat.table("accounts").unwrap().versions.stats().dead;
                let msg = s.checkpoint().unwrap().message;
                drop(sess);
                s.shutdown();
                (msg, dead)
            }
        };
        assert!(dead_before > 0, "{kind}: transfers should leave dead versions");
        assert!(msg.contains("versions_gc="), "{kind}: {msg}");
        let gc: u64 = msg.split("versions_gc=").nth(1).unwrap().trim().parse().unwrap();
        assert!(gc > 0, "{kind}: checkpoint reclaimed nothing ({msg})");
        let after = cat.table("accounts").unwrap().versions.stats();
        assert_eq!(after.dead, 0, "{kind}: dead versions survived checkpoint");
    }
}

// ------------------------------------------------ index probes under a view --

/// One statement runner bound to one session.
type Exec<'a> = Box<dyn Fn(&str) -> Response + 'a>;

/// A server under test, reduced to what the probe tests need of it.
struct Sut<'a> {
    open: Box<dyn Fn() -> Exec<'a> + Sync + 'a>,
    checkpoint: Box<dyn Fn() + Sync + 'a>,
}

/// Run `body` once against a staged and once against a threaded server,
/// each over its own catalog from `make_catalog`.
fn on_both_servers(
    parts: usize,
    make_catalog: &dyn Fn() -> Arc<Catalog>,
    body: &dyn Fn(&str, &Sut<'_>),
) {
    let cat = make_catalog();
    let s = staged(&cat, parts);
    body(
        "staged",
        &Sut {
            open: Box::new(|| {
                let sess = s.session();
                Box::new(move |sql| sess.execute_sql(sql))
            }),
            checkpoint: Box::new(|| drop(s.checkpoint().unwrap())),
        },
    );
    s.shutdown();
    let cat = make_catalog();
    let t = threaded(&cat);
    body(
        "threaded",
        &Sut {
            open: Box::new(|| {
                let sess = t.session();
                Box::new(move |sql| sess.execute_sql(sql))
            }),
            checkpoint: Box::new(|| drop(t.checkpoint().unwrap())),
        },
    );
    t.shutdown();
}

fn rows_of(exec: &Exec<'_>, sql: &str) -> Vec<String> {
    let out = exec(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    out.rows.iter().map(|r| r.to_string()).collect()
}

fn plan_of(exec: &Exec<'_>, sql: &str) -> String {
    rows_of(exec, &format!("EXPLAIN {sql}")).concat()
}

const TWIN_ROWS: i64 = 1200;

/// Two tables with identical rows `(id, k = 10·id, bal = 100, pad)`: `ix`
/// carries B+trees on `id` (the partition key) and `k`, `seq` carries
/// none, so the same predicate probes on one and scans on the other. The
/// pad makes the heap ~90 pages, enough for the cost model to prefer the
/// tree for point and narrow-range predicates.
fn catalog_with_twins(parts: usize) -> Arc<Catalog> {
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
    let pad = "p".repeat(600);
    for name in ["ix", "seq"] {
        let t = cat
            .create_table_partitioned(
                name,
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::new("k", DataType::Int),
                    Column::new("bal", DataType::Int),
                    Column::new("pad", DataType::Str),
                ]),
                parts,
                0,
            )
            .unwrap();
        for i in 0..TWIN_ROWS {
            t.heap
                .insert(&Tuple::new(vec![
                    Value::Int(i),
                    Value::Int(i * 10),
                    Value::Int(BALANCE),
                    Value::Str(pad.clone()),
                ]))
                .unwrap();
        }
    }
    cat.create_index("ix_id", "ix", "id").unwrap();
    cat.create_index("ix_k", "ix", "k").unwrap();
    cat.analyze_table("ix").unwrap();
    cat.analyze_table("seq").unwrap();
    cat
}

/// The probe battery; `{t}` is the table. Every id and k the history below
/// touches is probed, plus untouched and absent keys.
fn twin_queries() -> Vec<String> {
    let mut q = Vec::new();
    for id in [9, 10, 11, 12, 5012, 13, 14, 15, 16, 17, 18, 21, 31, 1199, 9000, 9001, 77777] {
        q.push(format!("SELECT id, k, bal FROM {{t}} WHERE id = {id}"));
    }
    for k in [90, 110, 115, 120, 140, 1, 150, 180, 183, 170, 90000, 90010] {
        q.push(format!("SELECT id, k, bal FROM {{t}} WHERE k = {k}"));
    }
    q.extend(
        [
            "SELECT id, k, bal FROM {t} WHERE id BETWEEN 8 AND 22 ORDER BY id",
            "SELECT COUNT(*), SUM(bal) FROM {t} WHERE id >= 28 AND id <= 34",
            "SELECT id FROM {t} WHERE id BETWEEN 8 AND 26 AND bal > 100 ORDER BY id",
            "SELECT id, k FROM {t} WHERE k BETWEEN 100 AND 190 ORDER BY id",
            "SELECT id, bal FROM {t} WHERE id >= 1195 ORDER BY id",
        ]
        .map(String::from),
    );
    q
}

/// Every battery query answers byte-identically on `ix` and `seq`.
fn assert_twins_agree(who: &str, exec: &Exec<'_>) {
    for q in twin_queries() {
        let probe = rows_of(exec, &q.replace("{t}", "ix"));
        let scan = rows_of(exec, &q.replace("{t}", "seq"));
        assert_eq!(probe, scan, "{who}: index probe diverged from seq scan on {q}");
    }
}

/// Apply each statement to both twins.
fn twin_apply(exec: &Exec<'_>, stmts: &[&str]) {
    for stmt in stmts {
        for t in ["ix", "seq"] {
            let sql = stmt.replace("{t}", t);
            exec(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }
}

/// Apply the same statements to both twins inside one transaction.
fn twin_txn(exec: &Exec<'_>, stmts: &[&str], end: &str) {
    exec("BEGIN").unwrap();
    twin_apply(exec, stmts);
    exec(end).unwrap();
}

/// The differential: an index probe under a snapshot answers exactly as a
/// sequential scan of an index-less twin does — at 1, 2 and 4 partitions,
/// on both servers, for point and range predicates, from views opened
/// before, between and after committed updates (key-preserving,
/// key-changing, partition-moving), committed deletes, rolled-back writes
/// (restored in place), from inside a write transaction with pending writes
/// of its own, beside that pending writer, and after checkpoint vacuums
/// with and without pinned readers.
#[test]
fn index_probe_under_snapshot_matches_seq_scan_twin() {
    for parts in [1usize, 2, 4] {
        on_both_servers(parts, &|| catalog_with_twins(parts), &|kind, sut| {
            let who = |view: &str| format!("{kind}/{parts}p/{view}");
            let writer = (sut.open)();
            let fresh = (sut.open)();

            // The test only means something if the twins plan differently.
            for q in ["id = 10", "k = 110", "id BETWEEN 8 AND 22", "k BETWEEN 100 AND 190"] {
                let ix = plan_of(&fresh, &format!("SELECT id FROM ix WHERE {q}"));
                assert!(ix.contains("IndexScan"), "{kind}/{parts}p: ix {q} planned as {ix}");
                let seq = plan_of(&fresh, &format!("SELECT id FROM seq WHERE {q}"));
                assert!(!seq.contains("IndexScan"), "{kind}/{parts}p: seq {q} planned as {seq}");
            }

            let old = (sut.open)();
            old("BEGIN READ ONLY").unwrap();
            assert_twins_agree(&who("old, empty overlay"), &old);

            twin_txn(
                &writer,
                &[
                    "UPDATE {t} SET bal = bal + 7 WHERE id = 10",
                    "UPDATE {t} SET k = k + 5 WHERE id = 11",
                    "UPDATE {t} SET id = id + 5000 WHERE id = 12",
                    "UPDATE {t} SET bal = bal - 1 WHERE id BETWEEN 20 AND 25",
                ],
                "COMMIT",
            );
            twin_txn(
                &writer,
                &["DELETE FROM {t} WHERE id = 13", "DELETE FROM {t} WHERE id BETWEEN 30 AND 32"],
                "COMMIT",
            );
            twin_txn(
                &writer,
                &[
                    "UPDATE {t} SET bal = 0, k = 1 WHERE id = 14",
                    "DELETE FROM {t} WHERE id = 15",
                    "INSERT INTO {t} VALUES (9000, 90000, 1, 'p')",
                    "UPDATE {t} SET bal = 1 WHERE id BETWEEN 20 AND 22",
                ],
                "ROLLBACK",
            );
            // A committed update of a row a rollback restored.
            twin_txn(&writer, &["UPDATE {t} SET bal = bal + 1 WHERE id = 14"], "COMMIT");
            assert_twins_agree(&who("old"), &old);
            assert_twins_agree(&who("fresh"), &fresh);
            // Absolute anchors, so the twins cannot be wrong together.
            assert_eq!(rows_of(&old, "SELECT bal FROM ix WHERE id = 10"), ["[100]"]);
            assert_eq!(rows_of(&fresh, "SELECT bal FROM ix WHERE id = 10"), ["[107]"]);
            assert_eq!(rows_of(&old, "SELECT id FROM ix WHERE k = 110"), ["[11]"]);
            assert_eq!(rows_of(&fresh, "SELECT id FROM ix WHERE k = 115"), ["[11]"]);
            assert_eq!(rows_of(&old, "SELECT k FROM ix WHERE id = 13"), ["[130]"]);
            assert!(rows_of(&fresh, "SELECT k FROM ix WHERE id = 13").is_empty());
            assert_eq!(rows_of(&fresh, "SELECT bal FROM ix WHERE id = 14"), ["[101]"]);
            assert_eq!(rows_of(&fresh, "SELECT bal FROM ix WHERE id = 15"), ["[100]"]);

            let mid = (sut.open)();
            mid("BEGIN READ ONLY").unwrap();

            // A write transaction left open: its own view sees its pending
            // writes, everyone else's does not.
            writer("BEGIN").unwrap();
            twin_apply(
                &writer,
                &[
                    "UPDATE {t} SET bal = 555 WHERE id = 16",
                    "DELETE FROM {t} WHERE id = 17",
                    "INSERT INTO {t} VALUES (9001, 90010, 5, 'p')",
                    "UPDATE {t} SET k = k + 3 WHERE id = 18",
                ],
            );
            assert_twins_agree(&who("writer, own pending"), &writer);
            assert_eq!(rows_of(&writer, "SELECT bal FROM ix WHERE id = 16"), ["[555]"]);
            assert!(rows_of(&writer, "SELECT id FROM ix WHERE id = 17").is_empty());
            assert_eq!(rows_of(&writer, "SELECT id FROM ix WHERE k = 183"), ["[18]"]);
            for (view, exec) in [("old", &old), ("mid", &mid), ("fresh", &fresh)] {
                assert_twins_agree(&who(&format!("{view}, beside a pending writer")), exec);
                assert_eq!(rows_of(exec, "SELECT bal FROM ix WHERE id = 16"), ["[100]"]);
                assert_eq!(rows_of(exec, "SELECT id FROM ix WHERE k = 180"), ["[18]"]);
                assert!(rows_of(exec, "SELECT id FROM ix WHERE id = 9001").is_empty());
            }
            writer("COMMIT").unwrap();
            assert_eq!(rows_of(&mid, "SELECT bal FROM ix WHERE id = 16"), ["[100]"]);
            assert_eq!(rows_of(&fresh, "SELECT bal FROM ix WHERE id = 16"), ["[555]"]);

            // Vacuum with readers pinned (timestamp-based reclamation
            // only), then with none (pending reaps).
            (sut.checkpoint)();
            for (view, exec) in [("old", &old), ("mid", &mid), ("fresh", &fresh)] {
                assert_twins_agree(&who(&format!("{view}, after a pinned vacuum")), exec);
            }
            old("COMMIT").unwrap();
            mid("COMMIT").unwrap();
            (sut.checkpoint)();
            assert_twins_agree(&who("fresh, after a full vacuum"), &fresh);
            old("BEGIN READ ONLY").unwrap();
            assert_twins_agree(&who("read-only, after a full vacuum"), &old);
            old("COMMIT").unwrap();
        });
    }
}

const IX_ACCOUNTS: i64 = 48;

/// An `accounts` table with a B+tree on `id`, padded to two rows per page
/// so the planner probes the tree for `WHERE id = k` — for SELECTs and for
/// the transfers' UPDATEs alike.
fn catalog_with_indexed_accounts(parts: usize) -> Arc<Catalog> {
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
    let t = cat
        .create_table_partitioned(
            "accounts",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("bal", DataType::Int),
                Column::new("pad", DataType::Str),
            ]),
            parts,
            0,
        )
        .unwrap();
    let pad = "p".repeat(3000);
    for i in 0..IX_ACCOUNTS {
        t.heap
            .insert(&Tuple::new(vec![Value::Int(i), Value::Int(BALANCE), Value::Str(pad.clone())]))
            .unwrap();
    }
    cat.create_index("accounts_id", "accounts", "id").unwrap();
    cat.analyze_table("accounts").unwrap();
    cat
}

/// The reader/writer race the snapshot probe opened: a lock-free reader
/// resolves a rid through the tree, and the writer deletes that slot
/// before the reader fetches it. The reader must never get an error, and
/// every answer must be the value at its pin — through committed updates,
/// committed delete+insert pairs, and rolled-back updates and deletes of
/// exactly the keys it is reading. Beside it, autocommit `COUNT(*)` scans
/// (a fresh view each) race rollback restoring rows in place under them:
/// every count must be the table's size, never a row twice or not at all.
#[test]
fn point_reads_never_fail_while_a_writer_churns_the_same_keys() {
    const HOT: i64 = 6;
    on_both_servers(2, &|| catalog_with_indexed_accounts(2), &|kind, sut| {
        let reader = (sut.open)();
        let plan = plan_of(&reader, "SELECT bal FROM accounts WHERE id = 3");
        assert!(plan.contains("IndexScan"), "{kind}: point read planned as {plan}");
        reader("BEGIN READ ONLY").unwrap();
        let pinned = Barrier::new(3);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let counter = (sut.open)();
                pinned.wait();
                let mut passes = 0;
                while !done.load(Ordering::SeqCst) || passes < 3 {
                    let out = counter("SELECT COUNT(*) FROM accounts")
                        .unwrap_or_else(|e| panic!("{kind}: concurrent count: {e}"));
                    assert_eq!(
                        out.rows[0].to_string(),
                        format!("[{IX_ACCOUNTS}]"),
                        "{kind}: a scan beside the churn miscounted"
                    );
                    passes += 1;
                }
            });
            scope.spawn(|| {
                let writer = (sut.open)();
                pinned.wait();
                for round in 0..30 {
                    for k in 0..HOT {
                        let (write, end) = match round % 4 {
                            0 => (
                                format!("UPDATE accounts SET bal = bal + 1 WHERE id = {k}"),
                                "COMMIT",
                            ),
                            1 => (format!("DELETE FROM accounts WHERE id = {k}"), "ROLLBACK"),
                            2 => {
                                (format!("UPDATE accounts SET bal = 0 WHERE id = {k}"), "ROLLBACK")
                            }
                            _ => (format!("DELETE FROM accounts WHERE id = {k}"), "COMMIT"),
                        };
                        writer("BEGIN").unwrap();
                        writer(&write).unwrap();
                        if round % 4 == 3 {
                            writer(&format!("INSERT INTO accounts VALUES ({k}, {round}, 'p')"))
                                .unwrap();
                        }
                        writer(end).unwrap();
                    }
                }
                done.store(true, Ordering::SeqCst);
            });
            pinned.wait();
            let mut passes = 0;
            while !done.load(Ordering::SeqCst) || passes < 3 {
                for k in 0..HOT {
                    let out = reader(&format!("SELECT bal FROM accounts WHERE id = {k}"))
                        .unwrap_or_else(|e| panic!("{kind}: pinned point read of id {k}: {e}"));
                    let rows: Vec<String> = out.rows.iter().map(|r| r.to_string()).collect();
                    assert_eq!(
                        rows,
                        [format!("[{BALANCE}]")],
                        "{kind}: id {k} drifted from its pin"
                    );
                }
                passes += 1;
            }
        });
        reader("COMMIT").unwrap();
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A reader that opens its snapshot between any two committed
    /// transfers sees a balanced sum: transfers move money but never
    /// create or destroy it, and a snapshot never observes half of one.
    #[test]
    fn reader_opened_mid_transfer_sees_balanced_sum(
        moves in prop::collection::vec((0..ACCOUNTS, 0..ACCOUNTS), 1..12),
        open_at in 0usize..12,
    ) {
        let cat = catalog_with_accounts(2);
        let s = staged(&cat, 2);
        let writer = s.session();
        let reader = s.session();
        let open_at = open_at.min(moves.len());
        for (i, (from, to)) in moves.iter().enumerate() {
            if i == open_at {
                reader.execute_sql("BEGIN READ ONLY").unwrap();
            }
            apply_transfer(&|sql| writer.execute_sql(sql), *from, *to);
        }
        if open_at >= moves.len() {
            reader.execute_sql("BEGIN READ ONLY").unwrap();
        }
        let out = reader.execute_sql("SELECT SUM(bal), COUNT(*) FROM accounts").unwrap();
        prop_assert_eq!(
            out.rows[0].to_string(),
            format!("[{}, {ACCOUNTS}]", ACCOUNTS * BALANCE)
        );
        reader.execute_sql("COMMIT").unwrap();
        drop(reader);
        drop(writer);
        s.shutdown();
    }

    /// The same invariant read back through the B+tree: a reader pinned
    /// between any two transfers fetches every account by `WHERE id = k`,
    /// and the point-read balances sum to what the transfers conserve.
    #[test]
    fn reader_opened_mid_transfer_point_reads_sum_to_the_invariant(
        moves in prop::collection::vec((0..IX_ACCOUNTS, 0..IX_ACCOUNTS), 1..12),
        open_at in 0usize..12,
    ) {
        let cat = catalog_with_indexed_accounts(2);
        let s = staged(&cat, 2);
        let writer = s.session();
        let reader = s.session();
        let plan = reader.execute_sql("EXPLAIN SELECT bal FROM accounts WHERE id = 3").unwrap();
        prop_assert!(plan.rows.iter().any(|r| r.to_string().contains("IndexScan")));
        let open_at = open_at.min(moves.len());
        for (i, (from, to)) in moves.iter().enumerate() {
            if i == open_at {
                reader.execute_sql("BEGIN READ ONLY").unwrap();
            }
            apply_transfer(&|sql| writer.execute_sql(sql), *from, *to);
        }
        if open_at >= moves.len() {
            reader.execute_sql("BEGIN READ ONLY").unwrap();
        }
        let mut sum = 0;
        for k in 0..IX_ACCOUNTS {
            let out = reader.execute_sql(&format!("SELECT bal FROM accounts WHERE id = {k}")).unwrap();
            prop_assert_eq!(out.rows.len(), 1, "account {} read {} times", k, out.rows.len());
            sum += out.rows[0].get(0).as_int().unwrap();
        }
        prop_assert_eq!(sum, IX_ACCOUNTS * BALANCE);
        reader.execute_sql("COMMIT").unwrap();
        drop(reader);
        drop(writer);
        s.shutdown();
    }
}
