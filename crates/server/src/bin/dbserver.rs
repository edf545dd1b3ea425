//! `dbserver` — run a staged-db server on a TCP port.
//!
//! ```sh
//! dbserver --port 5433 --mode staged --partitions 4
//! ```
//!
//! Serves the wire protocol of `PROTOCOL.md` over an in-memory catalog
//! until killed (SIGINT/SIGTERM/kill); `--mode threaded` runs the
//! monolithic thread-pool baseline behind the same front end instead, for
//! apples-to-apples comparisons against the same client scripts.
//!
//! `--replica-of HOST:PORT` starts a read-only replica instead: it
//! subscribes to the primary's `REPLICATE` feed, applies shipped WAL, and
//! serves snapshot reads (writes get `ERR READ_ONLY_REPLICA`). Mirror the
//! primary's `CREATE TABLE`s on the replica first — DDL is the replica's
//! schema-bootstrap path and is not shipped through the WAL.

use staged_planner::PlannerConfig;
use staged_server::net::{self, NetConfig};
use staged_server::{ReplicaConfig, ReplicaServer, ServerConfig, StagedServer, ThreadedServer};
use staged_storage::{BufferPool, Catalog, MemDisk, MemSegmentStore};
use std::net::TcpListener;
use std::sync::Arc;

const USAGE: &str = "usage: dbserver [--port N] [--mode staged|threaded] [--partitions N]
                [--max-connections N] [--pool N]
                [--replica-of HOST:PORT]
  --port N             TCP port to listen on (default 5433; 0 = ephemeral)
  --mode M             staged (default) or threaded
  --partitions N       staged mode: hash partitions for tables created via DDL (default 1)
  --max-connections N  admission limit; extra clients get ERR OVERLOADED (default 64)
  --pool N             threaded mode: worker-pool size; every statement, from the
                       network or in-process, runs on a pool worker (default 4)
  --replica-of ADDR    run as a read-only replica of the primary at ADDR
                       (ignores --mode; DDL allowed for schema bootstrap)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut port = 5433u16;
    let mut mode = "staged".to_string();
    let mut partitions = 1usize;
    let mut max_connections = 64usize;
    let mut pool = 4usize;
    let mut replica_of: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| die(USAGE));
        match args[i].as_str() {
            "--port" => port = parse(&value(i)),
            "--mode" => mode = value(i),
            "--partitions" => partitions = parse(&value(i)),
            "--max-connections" => max_connections = parse(&value(i)),
            "--pool" => pool = parse(&value(i)),
            "--replica-of" => replica_of = Some(value(i)),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument {other}\n{USAGE}")),
        }
        i += 2;
    }

    let listener = TcpListener::bind(("127.0.0.1", port))
        .unwrap_or_else(|e| die(&format!("dbserver: cannot bind port {port}: {e}")));
    let catalog = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 4096)));
    let net_config = NetConfig { max_connections, ..Default::default() };

    if let Some(primary) = replica_of {
        let config = ReplicaConfig { partitions, ..Default::default() };
        let replica = ReplicaServer::open(catalog, Arc::new(MemSegmentStore::new()), config)
            .unwrap_or_else(|e| die(&format!("dbserver: cannot open replica: {e}")));
        replica.start(&primary);
        let handle = net::serve(listener, Arc::clone(&replica), net_config)
            .unwrap_or_else(|e| die(&format!("dbserver: cannot start front end: {e}")));
        println!("READY {} mode=replica primary={primary}", handle.local_addr());
        let _ = std::io::Write::flush(&mut std::io::stdout());
        loop {
            std::thread::park();
        }
    }

    let handle = match mode.as_str() {
        "staged" => {
            let server =
                StagedServer::new(catalog, ServerConfig { partitions, ..Default::default() });
            net::serve(listener, server, net_config)
        }
        "threaded" => {
            let server = Arc::new(ThreadedServer::new(catalog, pool, PlannerConfig::default()));
            net::serve(listener, server, net_config)
        }
        other => die(&format!("unknown mode {other} (want staged or threaded)\n{USAGE}")),
    }
    .unwrap_or_else(|e| die(&format!("dbserver: cannot start front end: {e}")));

    // The `READY` line is load-bearing: scripts (CI's net-smoke job, the
    // net_throughput bench docs) wait for it before connecting.
    println!("READY {} mode={mode} partitions={partitions}", handle.local_addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    loop {
        std::thread::park();
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| die(&format!("bad numeric argument {s}\n{USAGE}")))
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}
