//! CI perf-trajectory harness: runs a fixed-seed slice of the ablation
//! workloads, emits a machine-readable `BENCH_<pr>.json`, and optionally
//! gates against a committed baseline (EXPERIMENTS.md documents the
//! schema).
//!
//! Cross-machine comparability: every throughput is also reported
//! *normalized* by a fixed CPU calibration loop measured in the same
//! process (FNV-1a hashing): events per million calibration hash-ops.
//! The normalized value is dimensionless
//! "work per unit of this machine's compute", so a slower CI runner
//! shifts raw numbers but (to first order) not the normalized ones — the
//! regression gate compares normalized values only.
//!
//! Usage:
//!   perf_trajectory [--out FILE] [--baseline FILE] [--gate FRACTION]
//!
//! Since PR 4 the slice includes `net_transfers_p2`: the transfer
//! workload driven through the TCP front end by real client connections.
//! Since PR 5 it includes `batch_p2`: small scans pipelined through the
//! cohort-scheduled staged pipeline at the default batch knob. Since PR 7
//! it includes `wal_recovery_p2`: snapshot-load plus WAL-tail replay of a
//! fixed recovery image. Since PR 8 it includes `mixed_htap_p2`: full-table
//! `BEGIN READ ONLY` snapshot scans driven *while* concurrent transfer
//! transactions commit — the HTAP mix MVCC exists for; the reader never
//! touches the lock table, so its throughput must not collapse under
//! write load. Since PR 9 it includes `repl_catchup_p2`: WAL records per
//! second a replica applies while catching up from LSN zero over a real
//! socket, with result-set parity asserted before the number is accepted.
//! Since PR 10 it includes `net_scale_p2`: the transfer mix served while
//! the event-driven front end holds 1,000 idle connections open on its
//! single reader thread — the connection-scale workload the `poll(2)`
//! loop exists for (see EXPERIMENTS.md for the full metric table). Since
//! PR 13 `staged_point_lookup_p4` probes a B+tree under a pinned snapshot,
//! the way every wire SELECT does (it used to scan an index-less table).
//! Each of those lookups is a lone probe that
//! `StagedEngine::execute` runs on the submitting thread before it returns,
//! so submitting every lookup before collecting no longer overlaps them on
//! the `iscan` workers: the metric is the serial rate of one thread running
//! visibility-checked B+tree probes plus their result channels.
//!
//! Exit status 1 = at least one metric regressed more than the gate
//! fraction below its baseline.

use staged_bench::{
    accounts_catalog, client_rng, drive_tcp_transfers, mem_catalog, plan, transfer, xorshift,
    BALANCE,
};
use staged_engine::context::ExecContext;
use staged_engine::staged::{EngineConfig, StagedEngine};
use staged_engine::volcano;
use staged_planner::PhysicalPlan;
use staged_server::net::{self, NetConfig};
use staged_server::types::ExecutionMode;
use staged_server::{ServerConfig, StagedServer};
use staged_storage::{Catalog, Column, DataType, ReadView, Schema, Tuple, Value};
use staged_workload::load_wisconsin_table_partitioned;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCAN_ROWS: usize = 20_000;
const LOOKUPS: usize = 2_000;
const SESSIONS: usize = 4;
const TRANSFERS: usize = 25;
const ACCOUNTS: i64 = 64;
const REPS: usize = 3;

struct Metric {
    name: &'static str,
    unit: &'static str,
    raw: f64,
    normalized: f64,
}

/// Fixed CPU work whose throughput calibrates the machine: FNV-1a over a
/// pseudo-random buffer. Returns hashes/second.
fn calibrate() -> f64 {
    let buf: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)).collect();
    let mut best = f64::MIN;
    for _ in 0..REPS {
        let start = Instant::now();
        let mut acc = 0xcbf29ce484222325u64;
        let rounds = 2_000;
        for r in 0..rounds {
            for v in &buf {
                acc = (acc ^ (v.wrapping_add(r))).wrapping_mul(0x100000001b3);
            }
        }
        std::hint::black_box(acc);
        let per_sec = (rounds as f64 * buf.len() as f64) / start.elapsed().as_secs_f64();
        best = best.max(per_sec);
    }
    best
}

/// Best-of-REPS throughput of `work`, as events/second for `events` events.
fn best_rate(events: f64, mut work: impl FnMut()) -> f64 {
    let mut best = f64::MIN;
    for _ in 0..REPS {
        let start = Instant::now();
        work();
        best = best.max(events / start.elapsed().as_secs_f64());
    }
    best
}

fn scan_agg(parts: usize, staged_exec: bool) -> f64 {
    let catalog = mem_catalog(8192);
    load_wisconsin_table_partitioned(&catalog, "big", SCAN_ROWS, 5, parts).unwrap();
    let ctx = ExecContext::new(Arc::clone(&catalog));
    let agg = plan(
        &catalog,
        "SELECT ten, COUNT(*), SUM(unique2), MIN(unique1), MAX(unique1) \
         FROM big WHERE two = 0 GROUP BY ten",
    );
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get()).clamp(2, 8);
    if staged_exec {
        let engine = StagedEngine::new(
            ctx,
            EngineConfig { workers_per_stage: workers, ..Default::default() },
        );
        let rate = best_rate(SCAN_ROWS as f64, || {
            assert_eq!(engine.execute(&agg).collect().unwrap().len(), 5);
        });
        engine.shutdown();
        rate
    } else {
        best_rate(SCAN_ROWS as f64, || {
            assert_eq!(volcano::run(&agg, &ctx).unwrap().len(), 5);
        })
    }
}

/// Keyed lookups as the wire runs them: a B+tree on the probed column and
/// every plan stamped with a pinned snapshot, so the metric prices the
/// visibility-checked index probe (DESIGN.md §14).
fn point_lookups(parts: usize) -> f64 {
    let catalog = mem_catalog(8192);
    load_wisconsin_table_partitioned(&catalog, "big", SCAN_ROWS, 5, parts).unwrap();
    catalog.create_index("big_unique1", "big", "unique1").unwrap();
    let pin = catalog.oracle().pin();
    let ctx = ExecContext::new(Arc::clone(&catalog));
    let engine =
        StagedEngine::new(ctx, EngineConfig { workers_per_stage: 4, ..Default::default() });
    let lookups: Vec<PhysicalPlan> = (0..LOOKUPS)
        .map(|i| {
            let sql = format!("SELECT * FROM big WHERE unique1 = {}", i * 37 % SCAN_ROWS);
            let mut p = plan(&catalog, &sql);
            assert!(p.to_string().contains("IndexScan"), "{p}");
            p.attach_snapshot(ReadView::new(pin.ts(), 0));
            p
        })
        .collect();
    let rate = best_rate(LOOKUPS as f64, || {
        let handles: Vec<_> = lookups.iter().map(|p| engine.execute(p)).collect();
        let found: usize = handles.into_iter().map(|h| h.collect().unwrap().len()).sum();
        assert_eq!(found, LOOKUPS);
    });
    engine.shutdown();
    rate
}

/// The transfer workload's staged server over `accounts_catalog`.
fn transfer_server(rows: i64, parts: usize, frames: usize) -> Arc<StagedServer> {
    let config = ServerConfig { partitions: parts, ..Default::default() };
    StagedServer::new(accounts_catalog(rows, parts, frames), config)
}

/// Assert the transfer workload's invariant: no transfer created or
/// destroyed money.
fn assert_balanced(server: &StagedServer, rows: i64, what: &str) {
    let out = server.execute_sql("SELECT SUM(bal) FROM accounts").unwrap();
    assert_eq!(out.rows[0].to_string(), format!("[{}]", rows * BALANCE), "{what}");
}

/// The new OLTP workload class: concurrent transfer transactions through
/// the staged server's lock-manager stage. Reports committed+aborted
/// transactions per second (fixed-seed streams, sum invariant asserted).
fn oltp_transfers(parts: usize) -> f64 {
    best_rate((SESSIONS * TRANSFERS) as f64, || {
        let server = transfer_server(ACCOUNTS, parts, 2048);
        std::thread::scope(|scope| {
            for sid in 0..SESSIONS {
                let server = &server;
                scope.spawn(move || {
                    let sess = server.session();
                    let mut next = client_rng(sid);
                    for _ in 0..TRANSFERS {
                        let from = (next() % ACCOUNTS as u64) as i64;
                        let to = (next() % ACCOUNTS as u64) as i64;
                        let commit = !next().is_multiple_of(4);
                        transfer(|sql| sess.execute_sql(sql).is_ok(), parts, from, to, commit);
                    }
                });
            }
        });
        assert_balanced(&server, ACCOUNTS, "sum invariant broken");
        server.shutdown();
    })
}

/// Serve `server` on an ephemeral loopback port for up to `connections`.
fn serve(server: &Arc<StagedServer>, connections: usize) -> net::NetHandle {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let config = NetConfig { max_connections: connections, ..Default::default() };
    net::serve(listener, Arc::clone(server), config).unwrap()
}

/// The transfer workload again, but through the TCP front end with real
/// `staged-dbclient` connections: the delta against `oltp_transfers_*`
/// prices the wire (framing, syscalls, the `net` admission stage).
fn net_transfers(parts: usize) -> f64 {
    best_rate((SESSIONS * TRANSFERS) as f64, || {
        let server = transfer_server(ACCOUNTS, parts, 2048);
        let handle = serve(&server, SESSIONS + 2);
        drive_tcp_transfers(handle.local_addr(), SESSIONS, TRANSFERS, parts, ACCOUNTS);
        assert_balanced(&server, ACCOUNTS, "sum invariant broken over TCP");
        handle.shutdown();
        server.shutdown();
    })
}

/// PR 10: the transfer workload served through a crowd of idle sockets.
/// A four-digit fleet of connections is held open by the single `net-loop`
/// reader while the usual closed-loop subset runs transfers, so the number
/// prices the event loop's readiness pass at connection scale — before the
/// event-driven front end this workload needed a thread per socket.
fn net_scale(parts: usize, idle_conns: usize) -> f64 {
    use staged_dbclient::Client;

    let _ = polling::raise_nofile_limit();
    let server = transfer_server(ACCOUNTS, parts, 2048);
    let handle = serve(&server, idle_conns + SESSIONS + 2);
    let addr = handle.local_addr();
    let idle: Vec<Client> = (0..idle_conns)
        .map(|_| Client::connect_timeout(addr, Duration::from_secs(10)).expect("idle connect"))
        .collect();
    let rate = best_rate((SESSIONS * TRANSFERS) as f64, || {
        drive_tcp_transfers(addr, SESSIONS, TRANSFERS, parts, ACCOUNTS);
    });
    assert_balanced(&server, ACCOUNTS, "sum invariant broken through the idle fleet");
    drop(idle);
    handle.shutdown();
    server.shutdown();
    rate
}

/// The cohort-scheduling workload (PR 5): small scan-aggregates pipelined
/// into the staged server by concurrent clients, served by gated cohorts
/// at the default batch knob on a 2-partition table (Volcano SELECT
/// execution, so the metric tracks the *pipeline* cohorts). Reports
/// statements per second through the full connect→…→disconnect pipeline;
/// the `ablation_batch` bench sweeps the knob over the same closed loop
/// (`staged_bench::drive_scan_bursts`).
fn batch_queries(parts: usize) -> f64 {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 40;
    const BURST: usize = 8;
    let catalog = mem_catalog(4096);
    load_wisconsin_table_partitioned(&catalog, "big", 100, 5, parts).unwrap();
    let server = StagedServer::new(
        Arc::clone(&catalog),
        ServerConfig { mode: ExecutionMode::Volcano, partitions: parts, ..Default::default() },
    );
    let rate = best_rate((CLIENTS * ROUNDS * BURST) as f64, || {
        staged_bench::drive_scan_bursts(&server, CLIENTS, ROUNDS, BURST);
    });
    server.shutdown();
    rate
}

/// The recovery workload (PR 7): a fixed history — snapshot of 4096 rows
/// plus a 256-row WAL tail — restored into a fresh catalog, over and over.
/// Reports recoveries/second of the snapshot-load + tail-replay path; the
/// point of the checkpoint stage is that this number stays flat as total
/// history grows.
fn wal_recovery(parts: usize) -> f64 {
    use staged_engine::checkpoint;
    use staged_engine::dml;
    use staged_storage::{
        LogRecord, MemSegmentStore, MemSnapshotStore, SegmentStore, SnapshotStore, Wal,
    };

    const SNAPSHOT_ROWS: i64 = 4096;
    const TAIL_ROWS: i64 = 256;
    const RECOVERIES: usize = 20;

    let build_ctx = || {
        let cat = mem_catalog(2048);
        cat.create_table_partitioned(
            "r",
            Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)]),
            parts,
            0,
        )
        .unwrap();
        cat.create_index("r_id", "r", "id").unwrap();
        ExecContext::new(cat)
    };

    // Build the history once: committed snapshot rows, checkpoint, then a
    // committed tail that recovery must replay from the log.
    let segments: Arc<dyn SegmentStore> = Arc::new(MemSegmentStore::new());
    let snapshots: Arc<dyn SnapshotStore> = Arc::new(MemSnapshotStore::new());
    let ctx = build_ctx();
    let wal = Wal::open(Arc::clone(&segments)).unwrap();
    let table = ctx.catalog.table("r").unwrap();
    let commit = |xid: u64, ids: std::ops::Range<i64>| {
        wal.append(&LogRecord::Begin { xid }).unwrap();
        let rows: Vec<Tuple> =
            ids.map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 3)])).collect();
        dml::insert_rows(&ctx, &table, rows, Some(&dml::DmlLog::wal_only(&wal, xid))).unwrap();
        wal.append(&LogRecord::Commit { xid }).unwrap();
    };
    commit(1, 0..SNAPSHOT_ROWS);
    checkpoint::checkpoint(&ctx.catalog, &wal, snapshots.as_ref()).unwrap();
    commit(2, SNAPSHOT_ROWS..SNAPSHOT_ROWS + TAIL_ROWS);
    wal.flush().unwrap();

    best_rate(RECOVERIES as f64, || {
        for _ in 0..RECOVERIES {
            let fresh = ExecContext::new(mem_catalog(2048));
            let (_wal, report) = checkpoint::recover(
                &fresh,
                Arc::clone(&segments),
                snapshots.as_ref(),
                staged_storage::DEFAULT_SEGMENT_PAGES,
            )
            .unwrap();
            assert_eq!(report.snapshot_rows, SNAPSHOT_ROWS as u64);
            assert_eq!(
                fresh.catalog.table("r").unwrap().heap.scan().count() as i64,
                SNAPSHOT_ROWS + TAIL_ROWS
            );
        }
    })
}

/// The HTAP workload (PR 8): a snapshot reader runs full-table
/// `BEGIN READ ONLY` aggregates while writer sessions commit transfers
/// against the same table. Reports reader scans/second under write load;
/// every scan asserts the balanced-sum invariant, so the number is also a
/// continuous consistency check. Before MVCC this mix either returned
/// torn sums (plain scans) or serialized behind the writers (2PL reads);
/// the snapshot path does neither.
fn mixed_htap(parts: usize) -> f64 {
    use std::sync::atomic::{AtomicBool, Ordering};

    const ROWS: i64 = 8192;
    const SCANS: usize = 15;
    const WRITERS: usize = 2;

    let server = transfer_server(ROWS, parts, 4096);

    let mut best = f64::MIN;
    for _ in 0..REPS {
        let stop = AtomicBool::new(false);
        let rate = std::thread::scope(|scope| {
            for sid in 0..WRITERS {
                let server = &server;
                let stop = &stop;
                scope.spawn(move || {
                    let sess = server.session();
                    let mut next = client_rng(sid);
                    while !stop.load(Ordering::Relaxed) {
                        let from = (next() % ROWS as u64) as i64;
                        let to = (next() % ROWS as u64) as i64;
                        transfer(|sql| sess.execute_sql(sql).is_ok(), parts, from, to, true);
                    }
                });
            }
            let sess = server.session();
            let start = Instant::now();
            for _ in 0..SCANS {
                sess.execute_sql("BEGIN READ ONLY").unwrap();
                let out = sess.execute_sql("SELECT SUM(bal), COUNT(*) FROM accounts").unwrap();
                assert_eq!(
                    out.rows[0].to_string(),
                    format!("[{}, {ROWS}]", ROWS * BALANCE),
                    "snapshot saw a torn transfer"
                );
                sess.execute_sql("COMMIT").unwrap();
            }
            let elapsed = start.elapsed();
            stop.store(true, Ordering::Relaxed);
            SCANS as f64 / elapsed.as_secs_f64()
        });
        best = best.max(rate);
    }
    server.shutdown();
    best
}

/// The replication workload (PR 9): a primary commits a fixed transfer
/// history, then a fresh replica subscribes over a real socket from LSN
/// zero and the metric clocks WAL records applied from subscription to
/// zero lag — the full ship → mirror-append → atomic-apply path of
/// DESIGN.md §15. Result-set parity (balance sum + row count) is
/// asserted on the replica before the number is accepted.
fn repl_catchup(parts: usize) -> f64 {
    use staged_server::{ReplicaConfig, ReplicaServer};
    use staged_storage::MemSegmentStore;

    const ROWS: i64 = 64;
    const HISTORY: usize = 300;

    // The primary: seed in one transaction, then a committed transfer
    // history — all of it WAL-logged, all of it shipped on subscription.
    let cat = mem_catalog(2048);
    let schema =
        Schema::new(vec![Column::new("id", DataType::Int), Column::new("bal", DataType::Int)]);
    cat.create_table_partitioned("accounts", schema.clone(), parts, 0).unwrap();
    let config = ServerConfig { partitions: parts, ..Default::default() };
    let server = StagedServer::new(Arc::clone(&cat), config);
    let sess = server.session();
    sess.execute_sql("BEGIN").unwrap();
    for i in 0..ROWS {
        sess.execute_sql(&format!("INSERT INTO accounts VALUES ({i}, {BALANCE})")).unwrap();
    }
    sess.execute_sql("COMMIT").unwrap();
    let mut next = xorshift(0x9e3779b97f4a7c15);
    for _ in 0..HISTORY {
        let from = (next() % ROWS as u64) as i64;
        let to = (next() % ROWS as u64) as i64;
        let (_, committed) = transfer(|sql| sess.execute_sql(sql).is_ok(), parts, from, to, true);
        assert!(committed, "a history transfer failed");
    }
    let handle = serve(&server, NetConfig::default().max_connections);
    let addr = handle.local_addr().to_string();
    let expected = format!("[{}, {ROWS}]", ROWS * BALANCE);

    // Each rep is one cold catch-up: fresh replica, same DDL in the same
    // creation order (table ids must align), feed from LSN zero.
    let mut best = f64::MIN;
    for _ in 0..REPS {
        let rcat = mem_catalog(2048);
        rcat.create_table_partitioned("accounts", schema.clone(), parts, 0).unwrap();
        let replica = ReplicaServer::open(
            rcat,
            Arc::new(MemSegmentStore::new()),
            ReplicaConfig { partitions: parts, ..Default::default() },
        )
        .unwrap();
        let start = Instant::now();
        replica.start(addr.clone());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let done = replica.feed_stats().applied_records > 0
                && replica.status().lag_records == 0
                && replica
                    .execute_sql("SELECT SUM(bal), COUNT(*) FROM accounts")
                    .is_ok_and(|out| out.rows[0].to_string() == expected);
            if done {
                break;
            }
            assert!(Instant::now() < deadline, "replica never caught up");
            std::thread::sleep(Duration::from_millis(2));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let applied = replica.feed_stats().applied_records as f64;
        replica.shutdown();
        best = best.max(applied / elapsed);
    }
    handle.shutdown();
    server.shutdown();
    best
}

fn parse_bind(catalog: &Arc<Catalog>) -> f64 {
    let sqls: Vec<String> = (0..200)
        .map(|i| {
            format!(
                "SELECT ten, COUNT(*), SUM(unique2) FROM big \
                 WHERE unique1 BETWEEN {} AND {} GROUP BY ten",
                i,
                i + 100
            )
        })
        .collect();
    best_rate(sqls.len() as f64, || {
        for sql in &sqls {
            std::hint::black_box(plan(catalog, sql));
        }
    })
}

fn write_json(path: &str, calib: f64, metrics: &[Metric]) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 1,\n");
    s.push_str("  \"bench\": \"perf_trajectory\",\n");
    s.push_str(&format!("  \"calibration_ops_per_sec\": {calib:.1},\n"));
    s.push_str("  \"metrics\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"raw\": {:.2}, \"value\": {:.6}}}{}\n",
            m.name,
            m.unit,
            m.raw,
            m.normalized,
            if i + 1 < metrics.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Minimal parser for the JSON this binary writes: extracts
/// (name, value) pairs from the metrics array.
fn read_baseline(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(npos) = line.find("\"name\": \"") else { continue };
        let rest = &line[npos + 9..];
        let Some(nend) = rest.find('"') else { continue };
        let name = rest[..nend].to_string();
        let Some(vpos) = line.find("\"value\": ") else { continue };
        let vtext: String = line[vpos + 9..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        if let Ok(v) = vtext.parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_15.json".into());
    let baseline_path = flag("--baseline");
    let gate: f64 = flag("--gate").and_then(|g| g.parse().ok()).unwrap_or(0.25);

    println!("calibrating...");
    let calib = calibrate();
    println!("calibration: {calib:.0} hash-ops/s");

    let catalog = mem_catalog(8192);
    load_wisconsin_table_partitioned(&catalog, "big", SCAN_ROWS, 5, 1).unwrap();

    let mut metrics = Vec::new();
    let mut push = |name: &'static str, unit: &'static str, raw: f64| {
        let normalized = raw / calib * 1e6; // work per million calibration ops
        println!("{name:>24}: {raw:>12.0} {unit} ({normalized:.4} normalized)");
        metrics.push(Metric { name, unit, raw, normalized });
    };
    push("volcano_scan_agg", "rows_per_sec", scan_agg(1, false));
    push("staged_scan_agg_p1", "rows_per_sec", scan_agg(1, true));
    push("staged_scan_agg_p4", "rows_per_sec", scan_agg(4, true));
    push("staged_point_lookup_p4", "lookups_per_sec", point_lookups(4));
    push("oltp_transfers_p1", "txns_per_sec", oltp_transfers(1));
    push("oltp_transfers_p4", "txns_per_sec", oltp_transfers(4));
    push("net_transfers_p2", "txns_per_sec", net_transfers(2));
    push("net_scale_p2", "txns_per_sec", net_scale(2, 1000));
    push("batch_p2", "stmts_per_sec", batch_queries(2));
    push("wal_recovery_p2", "recoveries_per_sec", wal_recovery(2));
    push("mixed_htap_p2", "scans_per_sec", mixed_htap(2));
    push("repl_catchup_p2", "records_per_sec", repl_catchup(2));
    push("parse_bind_optimize", "stmts_per_sec", parse_bind(&catalog));

    write_json(&out_path, calib, &metrics);

    if let Some(bpath) = baseline_path {
        let baseline = read_baseline(&bpath);
        let mut regressions = Vec::new();
        for (name, base_value) in &baseline {
            let Some(m) = metrics.iter().find(|m| m.name == name) else {
                println!("note: baseline metric {name} no longer produced");
                continue;
            };
            let floor = base_value * (1.0 - gate);
            let status = if m.normalized < floor { "REGRESSED" } else { "ok" };
            println!(
                "gate {name:>24}: now {:.6} vs baseline {base_value:.6} (floor {floor:.6}) {status}",
                m.normalized
            );
            if m.normalized < floor {
                regressions.push(name.clone());
            }
        }
        if !regressions.is_empty() {
            eprintln!(
                "PERF GATE FAILED: {} metric(s) regressed >{:.0}% vs {bpath}: {}",
                regressions.len(),
                gate * 100.0,
                regressions.join(", ")
            );
            std::process::exit(1);
        }
        println!("perf gate passed ({} metrics within {:.0}%)", baseline.len(), gate * 100.0);
    }
}
