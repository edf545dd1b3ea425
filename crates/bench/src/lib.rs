//! Shared helpers for the reproduction binaries: output formatting,
//! catalogs, SELECT planning, and the one transfer workload — the
//! `accounts` table, the transfer transaction and its random streams —
//! that `perf_trajectory`, `net_throughput` and `ablation_mvcc` all drive.

use staged_dbclient::Client;
use staged_planner::{plan_select, PhysicalPlan, PlannerConfig};
use staged_sql::binder::{BindContext, Binder};
use staged_sql::parser::parse_statement;
use staged_sql::Statement;
use staged_storage::{
    partition_of_value, BufferPool, Catalog, Column, DataType, MemDisk, Schema, Tuple, Value,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Print a separator headline.
pub fn headline(title: &str) {
    println!("\n=== {title} ===");
}

/// Render one numeric table row.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:>14}");
    for c in cells {
        print!(" {c:>12}");
    }
    println!();
}

/// A fresh in-memory catalog with the given buffer-pool size (frames).
pub fn mem_catalog(frames: usize) -> Arc<Catalog> {
    Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), frames)))
}

/// Parse, bind and plan one SELECT under the default planner settings.
pub fn plan(catalog: &Arc<Catalog>, sql: &str) -> PhysicalPlan {
    let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!("not a select") };
    let bound = Binder::new(BindContext::new(catalog)).bind_select(sel).unwrap();
    plan_select(&bound, catalog, &PlannerConfig::default()).unwrap()
}

/// A catalog whose disk charges `latency_us` per page I/O (for I/O-bound
/// experiments).
pub fn slow_catalog(frames: usize, latency_us: u64) -> Arc<Catalog> {
    let disk = MemDisk::new().with_latency(std::time::Duration::from_micros(latency_us));
    Arc::new(Catalog::new(BufferPool::new(Arc::new(disk), frames)))
}

/// The PR 5 cohort-scheduling closed loop, shared by `ablation_batch` and
/// `perf_trajectory`'s `batch_p2` metric so the knob sweep and the CI
/// gate measure the *same* workload: `clients` threads each pipeline
/// `burst` small scan-aggregates into the staged server's admission
/// queue and collect the replies, `rounds` times. Returns statements per
/// second; asserts every reply carries the expected 5 groups.
pub fn drive_scan_bursts(
    server: &Arc<staged_server::StagedServer>,
    clients: usize,
    rounds: usize,
    burst: usize,
) -> f64 {
    let sql = "SELECT ten, COUNT(*), SUM(unique2) FROM big WHERE two = 0 GROUP BY ten";
    let total = (clients * rounds * burst) as f64;
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                for _ in 0..rounds {
                    let pending: Vec<_> = (0..burst).map(|_| server.submit(sql)).collect();
                    for rx in pending {
                        let out = rx.recv().expect("reply").expect("query");
                        assert_eq!(out.rows.len(), 5, "scan lost groups");
                    }
                }
            });
        }
    });
    total / start.elapsed().as_secs_f64()
}

/// Every account's opening balance: a transfer workload over `rows`
/// accounts must end with `SUM(bal) = rows * BALANCE`.
pub const BALANCE: i64 = 100;

/// A fresh in-memory catalog of `frames` buffer frames holding the
/// transfer workloads' `accounts (id INT, bal INT)` table: `rows` accounts
/// at [`BALANCE`], hash-partitioned `parts` ways on `id`, with an index on
/// `id` and fresh statistics.
pub fn accounts_catalog(rows: i64, parts: usize, frames: usize) -> Arc<Catalog> {
    let cat = mem_catalog(frames);
    let schema =
        Schema::new(vec![Column::new("id", DataType::Int), Column::new("bal", DataType::Int)]);
    cat.create_table_partitioned("accounts", schema, parts, 0).unwrap();
    let t = cat.table("accounts").unwrap();
    for i in 0..rows {
        t.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Int(BALANCE)])).unwrap();
    }
    cat.create_index("accounts_id", "accounts", "id").unwrap();
    cat.analyze_table("accounts").unwrap();
    cat
}

/// A xorshift64 stream starting from `state`.
pub fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Client number `client`'s stream: [`xorshift`] salted with the client
/// number, so concurrent clients draw different transfers.
pub fn client_rng(client: usize) -> impl FnMut() -> u64 {
    xorshift(0x9e3779b97f4a7c15 ^ (client as u64 + 1))
}

/// One transfer of 1 from account `from` to account `to`, each statement
/// run through `exec` (true = it succeeded): `BEGIN`, the two `UPDATE`s in
/// canonical partition order, then `COMMIT` — or `ROLLBACK` when `commit`
/// is false or an `UPDATE` failed. The canonical order is
/// application-level deadlock avoidance, so the workloads measure the lock
/// stage's fast path, not timeout-abort recovery (the tests exercise
/// that). Returns the statements run (none when `BEGIN` fails) and
/// whether the transfer committed.
pub fn transfer(
    mut exec: impl FnMut(&str) -> bool,
    parts: usize,
    from: i64,
    to: i64,
    commit: bool,
) -> (u64, bool) {
    if !exec("BEGIN") {
        return (0, false);
    }
    let part_of = |id: i64| partition_of_value(&Value::Int(id), parts);
    let mut updates = [(part_of(from), from, "-"), (part_of(to), to, "+")];
    updates.sort_unstable();
    let mut sent = 1;
    let mut failed = false;
    for (_, id, op) in updates {
        sent += 1;
        if !exec(&format!("UPDATE accounts SET bal = bal {op} 1 WHERE id = {id}")) {
            failed = true;
            break;
        }
    }
    let commit = commit && !failed;
    let ended = exec(if commit { "COMMIT" } else { "ROLLBACK" });
    (sent + 1, commit && ended)
}

/// Drive `clients` closed-loop TCP clients of the server at `addr`, each
/// running `transfers` transfers over `rows` accounts: client `c` draws
/// `from`, `to` and a 3-in-4 commit from [`client_rng`]`(c)`. Returns the
/// statements run.
pub fn drive_tcp_transfers(
    addr: SocketAddr,
    clients: usize,
    transfers: usize,
    parts: usize,
    rows: i64,
) -> u64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut db = connect(addr);
                    let mut next = client_rng(client);
                    let mut sent = 0;
                    for _ in 0..transfers {
                        let from = (next() % rows as u64) as i64;
                        let to = (next() % rows as u64) as i64;
                        let commit = !next().is_multiple_of(4);
                        sent += transfer(|sql| db.query(sql).is_ok(), parts, from, to, commit).0;
                    }
                    let _ = db.quit();
                    sent
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("bench client")).sum()
    })
}

/// Connect to `addr`, retrying: a connect storm can overflow even a
/// widened accept queue, and with the greeting covered by the timeout a
/// dropped connection errors instead of hanging, so a retry keeps the
/// fleet at full size.
fn connect(addr: SocketAddr) -> Client {
    let mut attempt = 0;
    loop {
        match Client::connect_timeout(addr, Duration::from_secs(10)) {
            Ok(c) => return c,
            Err(e) if attempt == 5 => panic!("bench client connect: {e:?}"),
            Err(_) => std::thread::sleep(Duration::from_millis(50 << attempt)),
        }
        attempt += 1;
    }
}
