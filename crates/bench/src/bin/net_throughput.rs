//! Closed-loop multi-client **network** throughput bench.
//!
//! Spins up a server behind the TCP front end on an ephemeral loopback
//! port, then drives it with N closed-loop clients (each a real
//! `staged-dbclient` connection: send one statement, wait for the tagged
//! response, send the next). The workload is the PR-3 transfer mix —
//! `BEGIN; UPDATE -1; UPDATE +1; COMMIT/ROLLBACK` over a hash-partitioned
//! accounts table — so the numbers are directly comparable with the
//! in-process `oltp_transfers_*` metrics of `perf_trajectory`: the gap
//! between the two is the cost of the wire (framing, syscalls, the `net`
//! admission stage).
//!
//! Usage: `net_throughput [quick|scale] [--clients N] [--transfers N]
//!                        [--partitions N]`
//!
//! `quick` (CI smoke) runs 4 clients × 20 transfers on 2 partitions for
//! both servers and asserts the balance-sum invariant; the full run scales
//! the client count up. `scale` (PR 10) drives 1,000 closed-loop clients
//! through the event-driven front end and asserts that serving them
//! spawned no per-connection threads — the whole fleet reads and writes
//! through the single `net-loop` poll thread (DESIGN.md §16). Always
//! exits non-zero if any invariant breaks, so CI can use it as a
//! correctness smoke test too. EXPERIMENTS.md documents how to read the
//! output.

use staged_bench::{accounts_catalog, drive_tcp_transfers, BALANCE};
use staged_dbclient::Client;
use staged_planner::PlannerConfig;
use staged_server::net::{self, NetConfig, NetHandle, WireBackend};
use staged_server::{ServerConfig, StagedServer, ThreadedServer};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ACCOUNTS: i64 = 128;

/// Serve `backend` on an ephemeral loopback port with room for `clients`.
fn serve<B: WireBackend>(backend: B, clients: usize) -> NetHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let config = NetConfig { max_connections: clients + 4, ..Default::default() };
    net::serve(listener, backend, config).unwrap()
}

/// Drive `clients` closed-loop TCP clients for `transfers` transactions
/// each (canonical partition order avoids deadlocks, as in
/// `perf_trajectory::oltp_transfers` — this bench measures the wire +
/// pipeline, not timeout-abort); returns (txns/sec, statements/sec).
fn drive(addr: SocketAddr, clients: usize, transfers: usize, parts: usize) -> (f64, f64) {
    let start = Instant::now();
    let stmts = drive_tcp_transfers(addr, clients, transfers, parts, ACCOUNTS);
    let secs = start.elapsed().as_secs_f64();
    ((clients * transfers) as f64 / secs, stmts as f64 / secs)
}

fn check_invariant(addr: SocketAddr) {
    let mut db = Client::connect_timeout(addr, Duration::from_secs(10)).unwrap();
    let out = db.query("SELECT SUM(bal) FROM accounts").expect("sum query");
    let sum: i64 = out.rows[0][0].as_ref().unwrap().parse().unwrap();
    assert_eq!(sum, ACCOUNTS * BALANCE, "balance-sum invariant broken over TCP");
    let _ = db.quit();
}

fn staged(parts: usize) -> Arc<StagedServer> {
    let config = ServerConfig { partitions: parts, ..Default::default() };
    StagedServer::new(accounts_catalog(ACCOUNTS, parts, 2048), config)
}

fn bench_staged(clients: usize, transfers: usize, parts: usize) -> (f64, f64) {
    let server = staged(parts);
    let handle = serve(Arc::clone(&server), clients);
    let rates = drive(handle.local_addr(), clients, transfers, parts);
    check_invariant(handle.local_addr());
    handle.shutdown();
    server.shutdown();
    rates
}

fn bench_threaded(clients: usize, transfers: usize, parts: usize) -> (f64, f64) {
    let catalog = accounts_catalog(ACCOUNTS, parts, 2048);
    let server = Arc::new(ThreadedServer::new(catalog, clients.max(2), PlannerConfig::default()));
    let handle = serve(Arc::clone(&server), clients);
    let rates = drive(handle.local_addr(), clients, transfers, parts);
    check_invariant(handle.local_addr());
    handle.shutdown();
    server.shutdown();
    rates
}

/// Live thread count of this process (one /proc/self/task entry per
/// thread) — client threads included, which is why [`bench_scale`]
/// snapshots before spawning them and after joining them.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("read /proc/self/task").count()
}

/// The connection-scale run: ≥1,000 closed-loop clients against the
/// staged server, completing on one reader thread. The thread count is
/// asserted around the drive — the server and its front end are
/// in-process, so any thread-per-connection regression shows up as a
/// post-join thread surplus.
fn bench_scale(clients: usize, transfers: usize, parts: usize) {
    let _ = polling::raise_nofile_limit();
    let server = staged(parts);
    let handle = serve(Arc::clone(&server), clients);
    let before = thread_count();
    eprintln!("listening on {}", handle.local_addr());
    let (txns, stmts) = drive(handle.local_addr(), clients, transfers, parts);
    let after = thread_count();
    check_invariant(handle.local_addr());
    println!("{:>10} {txns:>14.0} {stmts:>16.0}", "staged");
    assert!(
        after <= before + 2,
        "serving {clients} connections grew the thread count {before} -> {after}: \
         the front end is no longer a single reader thread"
    );
    println!(
        "threads: {before} before / {after} after serving {clients} connections \
         (single poll loop, no per-connection threads)"
    );
    handle.shutdown();
    server.shutdown();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let scale = args.iter().any(|a| a == "scale");
    let flag = |name: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let clients = flag(
        "--clients",
        if scale {
            1000
        } else if quick {
            4
        } else {
            8
        },
    );
    let transfers = flag(
        "--transfers",
        if scale {
            2
        } else if quick {
            20
        } else {
            200
        },
    );
    let parts = flag("--partitions", 2);

    println!(
        "net_throughput: {clients} closed-loop TCP clients x {transfers} transfers, \
         {parts} partitions"
    );
    if scale {
        println!("{:>10} {:>14} {:>16}", "server", "txns/sec", "stmts/sec");
        bench_scale(clients, transfers, parts);
        println!("invariants held: SUM(bal) = {} at connection scale", ACCOUNTS * BALANCE);
        return;
    }
    println!("{:>10} {:>14} {:>16}", "server", "txns/sec", "stmts/sec");
    let (txns, stmts) = bench_staged(clients, transfers, parts);
    println!("{:>10} {txns:>14.0} {stmts:>16.0}", "staged");
    let (txns, stmts) = bench_threaded(clients, transfers, parts);
    println!("{:>10} {txns:>14.0} {stmts:>16.0}", "threaded");
    println!("invariants held: SUM(bal) = {} on both servers", ACCOUNTS * BALANCE);
}
