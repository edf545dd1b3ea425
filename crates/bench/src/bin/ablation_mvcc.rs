//! Ablation A8: what snapshot reads buy (and cost) in an HTAP mix.
//!
//! The paper's staged pipeline keeps readers off the lock table; PR 8
//! adds the missing half — *consistency* — with MVCC snapshot scans.
//! This ablation prices that choice. One table of accounts, three reader
//! configurations at 1 and 2 partitions:
//!
//! - `quiesced plain`   — plain scans with no writers: the ceiling.
//! - `plain + writers`  — plain (non-snapshot) scans while transfer
//!   transactions commit. Lock-free but *inconsistent*: the scan may see
//!   half of a transfer, so the sum invariant cannot be asserted.
//! - `snapshot + writers` — `BEGIN READ ONLY` scans under the same write
//!   load. Consistent by construction; every scan asserts the balanced
//!   sum. The delta against row 2 is the version-overlay overhead; the
//!   delta against row 1 is the total cost of reading under write load.
//!
//! A final line reports writer throughput with a long-lived read-only
//! transaction pinned open the whole time: versions accumulate behind
//! the pin (GC cannot pass it) but writers must not slow down — readers
//! never block writers, and vice versa.
//!
//! Pass `quick` for the CI smoke run (smaller table, fewer scans).

use staged_bench::{accounts_catalog, client_rng, transfer, BALANCE};
use staged_server::{ServerConfig, Session, StagedServer};
use staged_storage::Catalog;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Knobs {
    rows: i64,
    scans: usize,
    writers: usize,
    writer_secs: f64,
}

fn build_server(rows: i64, parts: usize) -> (Arc<Catalog>, Arc<StagedServer>) {
    let cat = accounts_catalog(rows, parts, 4096);
    let config = ServerConfig { partitions: parts, ..Default::default() };
    (Arc::clone(&cat), StagedServer::new(cat, config))
}

/// One transfer between two random accounts, meant to commit. Returns
/// false when a statement failed and it rolled back.
fn random_transfer(
    sess: &Session,
    parts: usize,
    rows: i64,
    next: &mut impl FnMut() -> u64,
) -> bool {
    let from = (next() % rows as u64) as i64;
    let to = (next() % rows as u64) as i64;
    transfer(|sql| sess.execute_sql(sql).is_ok(), parts, from, to, true).1
}

/// Reader scans/second with `writers` transfer sessions running (0 for
/// the quiesced ceiling). `snapshot` selects the `BEGIN READ ONLY` path;
/// only then can the balanced sum be asserted.
fn reader_rate(k: &Knobs, parts: usize, writers: usize, snapshot: bool) -> f64 {
    let (_cat, server) = build_server(k.rows, parts);
    let stop = AtomicBool::new(false);
    let rate = std::thread::scope(|scope| {
        for sid in 0..writers {
            let server = &server;
            let stop = &stop;
            let rows = k.rows;
            scope.spawn(move || {
                let sess = server.session();
                let mut next = client_rng(sid);
                while !stop.load(Ordering::Relaxed) {
                    random_transfer(&sess, parts, rows, &mut next);
                }
            });
        }
        let sess = server.session();
        let start = Instant::now();
        for _ in 0..k.scans {
            if snapshot {
                sess.execute_sql("BEGIN READ ONLY").unwrap();
            }
            let out = sess.execute_sql("SELECT SUM(bal), COUNT(*) FROM accounts").unwrap();
            if snapshot {
                assert_eq!(
                    out.rows[0].to_string(),
                    format!("[{}, {}]", k.rows * BALANCE, k.rows),
                    "snapshot scan saw a torn transfer"
                );
                sess.execute_sql("COMMIT").unwrap();
            }
        }
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        k.scans as f64 / elapsed.as_secs_f64()
    });
    server.shutdown();
    rate
}

/// Writer transactions/second for `writer_secs` with one read-only
/// transaction held open the entire window (the worst case for GC: every
/// before-image the writers create stays reachable behind the pin).
fn writers_under_pin(k: &Knobs, parts: usize) -> (f64, u64) {
    let (cat, server) = build_server(k.rows, parts);
    let reader = server.session();
    reader.execute_sql("BEGIN READ ONLY").unwrap();
    let before = reader.execute_sql("SELECT SUM(bal) FROM accounts").unwrap();

    let committed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for sid in 0..k.writers {
            let server = &server;
            let (stop, committed) = (&stop, &committed);
            let rows = k.rows;
            scope.spawn(move || {
                let sess = server.session();
                let mut next = client_rng(100 + sid);
                while !stop.load(Ordering::Relaxed) {
                    if random_transfer(&sess, parts, rows, &mut next) {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_secs_f64(k.writer_secs));
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed();
    // The pinned snapshot is still exactly the pre-workload state.
    let after = reader.execute_sql("SELECT SUM(bal) FROM accounts").unwrap();
    assert_eq!(after.rows[0].to_string(), before.rows[0].to_string());
    reader.execute_sql("COMMIT").unwrap();
    let dead = cat.table("accounts").unwrap().versions.stats().dead;
    drop(reader);
    server.shutdown();
    (committed.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64(), dead)
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let k = if quick {
        Knobs { rows: 1024, scans: 8, writers: 2, writer_secs: 0.5 }
    } else {
        Knobs { rows: 8192, scans: 30, writers: 2, writer_secs: 2.0 }
    };

    println!("A8: MVCC snapshot reads under an HTAP mix ({} rows)", k.rows);
    println!("{:<24} {:>12} {:>12}", "reader configuration", "p1 scans/s", "p2 scans/s");
    for (label, writers, snapshot) in [
        ("quiesced plain", 0usize, false),
        ("plain + writers", k.writers, false),
        ("snapshot + writers", k.writers, true),
    ] {
        let p1 = reader_rate(&k, 1, writers, snapshot);
        let p2 = reader_rate(&k, 2, writers, snapshot);
        println!("{label:<24} {p1:>12.1} {p2:>12.1}");
    }
    let (txns, dead) = writers_under_pin(&k, 2);
    println!(
        "writers under a pinned read-only txn (p2): {txns:.1} txns/s, \
         {dead} dead versions retained behind the pin"
    );
}
