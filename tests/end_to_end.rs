//! Cross-crate integration: the staged server and the threaded baseline
//! must agree on every query, end to end through SQL.

use staged_db::planner::PlannerConfig;
use staged_db::server::types::ExecutionMode;
use staged_db::server::{QueryOutput, ServerConfig, StagedServer, ThreadedServer};
use staged_db::storage::{
    BufferPool, Catalog, MemDisk, MemSegmentStore, MemSnapshotStore, SegmentStore, SnapshotStore,
};
use staged_db::workload::load_wisconsin_table;
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
    load_wisconsin_table(&cat, "wisc1", 3000, 1).unwrap();
    load_wisconsin_table(&cat, "wisc2", 600, 2).unwrap();
    cat
}

fn canonical(out: &QueryOutput) -> Vec<String> {
    let mut rows: Vec<String> = out.rows.iter().map(|r| r.to_string()).collect();
    rows.sort();
    rows
}

#[test]
fn staged_and_threaded_servers_agree_on_a_query_battery() {
    let cat = catalog();
    let staged = StagedServer::new(Arc::clone(&cat), ServerConfig::default());
    let threaded = ThreadedServer::new(Arc::clone(&cat), 4, PlannerConfig::default());
    let battery = [
        "SELECT COUNT(*) FROM wisc1",
        "SELECT * FROM wisc1 WHERE unique1 = 77",
        "SELECT unique2 FROM wisc1 WHERE unique1 BETWEEN 100 AND 160",
        "SELECT ten, COUNT(*), SUM(unique1) FROM wisc1 GROUP BY ten HAVING COUNT(*) > 10",
        "SELECT DISTINCT four FROM wisc1",
        "SELECT wisc1.unique1 FROM wisc1, wisc2 \
         WHERE wisc1.unique1 = wisc2.unique1 AND wisc2.two = 0",
        "SELECT COUNT(*) FROM wisc1, wisc2 WHERE wisc1.unique1 < wisc2.unique1 \
         AND wisc2.unique1 < 20 AND wisc1.unique1 > 10",
        "SELECT unique1 FROM wisc1 WHERE stringu1 LIKE 'AAAA%' ORDER BY unique1 LIMIT 10",
        "SELECT twenty, AVG(unique2) FROM wisc1 WHERE two = 1 GROUP BY twenty",
    ];
    for sql in battery {
        let a = staged.execute_sql(sql).unwrap_or_else(|e| panic!("staged {sql}: {e}"));
        let b = threaded.execute_sql(sql).unwrap_or_else(|e| panic!("threaded {sql}: {e}"));
        assert_eq!(canonical(&a), canonical(&b), "divergence on {sql}");
    }
    staged.shutdown();
    threaded.shutdown();
}

#[test]
fn staged_server_matches_threaded_at_every_cohort_size() {
    // The production pipeline's cohort scheduling (paper §4.2) sweeps the
    // batch knob over 1 (pre-cohort semantics), 4 and 16: results must be
    // byte-identical to the thread-per-query baseline at every setting,
    // with enough concurrent submissions in flight that cohorts actually
    // form at the parse/optimize/execute stages.
    let cat = catalog();
    let threaded = ThreadedServer::new(Arc::clone(&cat), 4, PlannerConfig::default());
    let battery = [
        "SELECT COUNT(*) FROM wisc1",
        "SELECT * FROM wisc1 WHERE unique1 = 77",
        "SELECT ten, COUNT(*), SUM(unique1) FROM wisc1 GROUP BY ten",
        "SELECT DISTINCT four FROM wisc1",
        "SELECT unique2 FROM wisc1 WHERE unique1 BETWEEN 100 AND 160",
    ];
    let expected: Vec<Vec<String>> = battery
        .iter()
        .map(|sql| canonical(&threaded.execute_sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))))
        .collect();
    for max_cohort in [1usize, 4, 16] {
        let staged =
            StagedServer::new(Arc::clone(&cat), ServerConfig { max_cohort, ..Default::default() });
        // Concurrent round: pile every statement into the pipeline at
        // once so queue visits see real backlogs.
        let staged_ref = &staged;
        let pending: Vec<_> =
            battery.iter().flat_map(|sql| (0..4).map(move |_| staged_ref.submit(*sql))).collect();
        for (i, rx) in pending.into_iter().enumerate() {
            let sql = battery[i / 4];
            let out =
                rx.recv().unwrap().unwrap_or_else(|e| panic!("cohort {max_cohort} {sql}: {e}"));
            assert_eq!(
                canonical(&out),
                expected[i / 4],
                "divergence at cohort {max_cohort} on {sql}"
            );
        }
        staged.shutdown();
    }
    threaded.shutdown();
}

#[test]
fn partitioned_server_agrees_with_unpartitioned_baseline_through_sql() {
    // Two staged servers over separate catalogs: one creating 4-way
    // hash-partitioned tables through its DDL path, one unpartitioned.
    // DML routes by hash key through the WAL path; results must agree.
    let mk = |partitions| {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
        StagedServer::new(cat, ServerConfig { partitions, ..Default::default() })
    };
    let parted = mk(4);
    let flat = mk(1);
    for s in [&parted, &flat] {
        s.execute_sql("CREATE TABLE kv (k INT, grp INT, v VARCHAR(16))").unwrap();
        for i in 0..300i64 {
            s.execute_sql(&format!("INSERT INTO kv VALUES ({i}, {}, 'v{i}')", i % 7)).unwrap();
        }
        s.execute_sql("DELETE FROM kv WHERE k >= 280").unwrap();
        s.execute_sql("UPDATE kv SET v = 'seven' WHERE k = 7").unwrap();
        s.execute_sql("ANALYZE kv").unwrap();
    }
    for sql in [
        "SELECT COUNT(*) FROM kv",
        "SELECT * FROM kv WHERE k = 7",
        "SELECT grp, COUNT(*), SUM(k), MIN(k), MAX(k), AVG(k) FROM kv GROUP BY grp",
        "SELECT DISTINCT grp FROM kv ORDER BY grp",
        "SELECT COUNT(*), AVG(k) FROM kv WHERE grp = 3",
    ] {
        let a = parted.execute_sql(sql).unwrap_or_else(|e| panic!("partitioned {sql}: {e}"));
        let b = flat.execute_sql(sql).unwrap_or_else(|e| panic!("flat {sql}: {e}"));
        assert_eq!(canonical(&a), canonical(&b), "divergence on {sql}");
    }
    parted.shutdown();
    flat.shutdown();
}

#[test]
fn volcano_mode_server_matches_staged_mode_server() {
    let cat = catalog();
    let volcano_mode = StagedServer::new(
        Arc::clone(&cat),
        ServerConfig { mode: ExecutionMode::Volcano, ..Default::default() },
    );
    let staged_mode = StagedServer::new(Arc::clone(&cat), ServerConfig::default());
    for sql in [
        "SELECT four, COUNT(*) FROM wisc1 GROUP BY four",
        "SELECT wisc1.ten, COUNT(*) FROM wisc1, wisc2 \
         WHERE wisc1.unique1 = wisc2.unique1 GROUP BY wisc1.ten",
    ] {
        let a = volcano_mode.execute_sql(sql).unwrap();
        let b = staged_mode.execute_sql(sql).unwrap();
        assert_eq!(canonical(&a), canonical(&b), "divergence on {sql}");
    }
    volcano_mode.shutdown();
    staged_mode.shutdown();
}

#[test]
fn dml_visible_across_both_servers() {
    let cat = catalog();
    let staged = StagedServer::new(Arc::clone(&cat), ServerConfig::default());
    let threaded = ThreadedServer::new(Arc::clone(&cat), 2, PlannerConfig::default());
    staged.execute_sql("CREATE TABLE log (id INT, note VARCHAR(20))").unwrap();
    staged.execute_sql("INSERT INTO log VALUES (1, 'from staged')").unwrap();
    threaded.execute_sql("INSERT INTO log VALUES (2, 'from threaded')").unwrap();
    let out = staged.execute_sql("SELECT COUNT(*) FROM log").unwrap();
    assert_eq!(out.rows[0].to_string(), "[2]");
    threaded.execute_sql("UPDATE log SET note = 'edited' WHERE id = 1").unwrap();
    let out = staged.execute_sql("SELECT note FROM log WHERE id = 1").unwrap();
    assert_eq!(out.rows[0].to_string(), "['edited']");
    staged.execute_sql("DELETE FROM log WHERE id = 2").unwrap();
    let out = threaded.execute_sql("SELECT COUNT(*) FROM log").unwrap();
    assert_eq!(out.rows[0].to_string(), "[1]");
    staged.shutdown();
    threaded.shutdown();
}

#[test]
fn prepared_statements_bypass_parse_and_optimize() {
    let cat = catalog();
    let server = StagedServer::new(cat, ServerConfig::default());
    server.prepare("p42", "SELECT unique2 FROM wisc1 WHERE unique1 = 42").unwrap();
    let direct = server.execute_sql("SELECT unique2 FROM wisc1 WHERE unique1 = 42").unwrap();
    let stats_before = server.stage_stats();
    let prepared = server.execute_prepared("p42").recv().unwrap().unwrap();
    assert_eq!(canonical(&direct), canonical(&prepared));
    let stats_after = server.stage_stats();
    let parse = |s: &[staged_db::core::monitor::StageStats]| {
        s.iter().find(|x| x.name == "parse").unwrap().processed
    };
    assert_eq!(
        parse(&stats_before),
        parse(&stats_after),
        "prepared execution must not touch the parse stage"
    );
    assert!(matches!(
        server.execute_prepared("nope").recv().unwrap(),
        Err(staged_db::server::ServerError::UnknownPrepared(_))
    ));
    server.shutdown();
}

#[test]
fn explain_reports_physical_plan() {
    let cat = catalog();
    let staged = StagedServer::new(Arc::clone(&cat), ServerConfig::default());
    let threaded = ThreadedServer::new(cat, 2, PlannerConfig::default());
    let explain = |sql: &str| -> [String; 2] {
        [staged.execute_sql(sql), threaded.execute_sql(sql)].map(|out| {
            let rows: Vec<String> = out.unwrap().rows.iter().map(|r| r.to_string()).collect();
            rows.join("\n")
        })
    };
    for text in explain("EXPLAIN SELECT * FROM wisc1 WHERE unique1 = 5") {
        assert!(text.contains("IndexScan"), "expected index plan, got {text}");
        assert!(!text.contains("Limit"), "no LIMIT in the statement, got {text}");
    }
    // EXPLAIN must not eat the statement's own LIMIT.
    for text in explain("EXPLAIN SELECT unique2 FROM wisc1 WHERE two = 1 LIMIT 7") {
        assert!(text.contains("Limit 7"), "expected a Limit 7 node, got {text}");
    }
    staged.shutdown();
    threaded.shutdown();
}

/// The fold cannot silently come back: one keyed SELECT over the wire —
/// which always runs under a snapshot — costs a tree descent plus one heap
/// page, not a pass over the table's 100+ pages.
#[test]
fn wire_point_lookup_probes_the_index_instead_of_scanning() {
    use staged_db::dbclient::Client;
    use staged_db::server::net::{self, NetConfig};

    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
    load_wisconsin_table(&cat, "big", 10_000, 1).unwrap();
    let pages = cat.table("big").unwrap().heap.num_pages();
    assert!(pages >= 100, "table too small to tell a probe from a scan: {pages} pages");

    let server = StagedServer::new(Arc::clone(&cat), ServerConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = net::serve(listener, Arc::clone(&server), NetConfig::default()).unwrap();
    let mut client =
        Client::connect_timeout(handle.local_addr(), std::time::Duration::from_secs(5)).unwrap();
    let fetches = || {
        let s = cat.pool().stats();
        s.hits + s.misses
    };
    for key in [5, 4321] {
        let before = fetches();
        let out = client.query(&format!("SELECT * FROM big WHERE unique1 = {key}")).unwrap();
        let moved = fetches() - before;
        assert_eq!(out.rows.len(), 1, "key {key}");
        assert!(moved <= 8, "key {key}: {moved} buffer fetches for one point lookup");
    }
    drop(client);
    handle.shutdown();
    server.shutdown();
}

/// Every stage's pool is fixed when the server is built: the `STATS`
/// `workers` column is the configured size, and no gated visit is ever
/// cut off, so `preempts` reads 0 on every stage row.
#[test]
fn stats_report_each_stage_fixed_pool_and_no_preemptions() {
    use staged_db::dbclient::Client;
    use staged_db::server::net::{self, NetConfig};

    let config = ServerConfig { control_workers: 2, execute_workers: 3, ..Default::default() };
    let server = StagedServer::new(catalog(), config);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = net::serve(listener, Arc::clone(&server), NetConfig::default()).unwrap();
    let mut client =
        Client::connect_timeout(handle.local_addr(), std::time::Duration::from_secs(5)).unwrap();
    client.query("SELECT COUNT(*) FROM wisc1").unwrap();
    let stats = client.stats().unwrap();
    let pools = [
        ("net", 2),
        ("connect", 2),
        ("parse", 2),
        ("optimize", 2),
        ("lock", 2),
        ("checkpoint", 1),
        ("execute", 3),
        ("disconnect", 2),
    ];
    for (stage, workers) in pools {
        let row = stats.rows.iter().find(|r| r[0].as_deref() == Some(stage)).expect(stage);
        let col = |i: usize| -> i64 { row[i].as_ref().unwrap().parse().unwrap() };
        assert_eq!(col(10), workers, "{stage}: workers column");
        assert_eq!(col(7), 0, "{stage}: preempts column");
    }
    drop(client);
    handle.shutdown();
    server.shutdown();
}

#[test]
fn errors_propagate_with_messages() {
    let cat = catalog();
    let server = StagedServer::new(cat, ServerConfig::default());
    assert!(server.execute_sql("SELECT nope FROM wisc1").is_err());
    assert!(server.execute_sql("FROB THE KNOB").is_err());
    assert!(server.execute_sql("SELECT 1 / 0 FROM wisc1 LIMIT 1").is_err());
    // Server still serves after errors.
    assert!(server.execute_sql("SELECT COUNT(*) FROM wisc1").is_ok());
    server.shutdown();
}

/// The restart-persistence test, over whichever server `$boot` builds from
/// `(catalog, segments, snapshots)`; both servers spell the calls alike.
macro_rules! survives_a_restart_through_checkpoint_and_wal {
    ($name:ident, $boot:expr) => {
        #[test]
        fn $name() {
            let boot = $boot;
            let segments: Arc<dyn SegmentStore> = Arc::new(MemSegmentStore::new());
            let snapshots: Arc<dyn SnapshotStore> = Arc::new(MemSnapshotStore::new());
            let empty = || Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));

            // First server lifetime: create data, checkpoint, then write
            // more so that restart exercises both the snapshot and the
            // WAL tail.
            {
                let server = boot(empty(), Arc::clone(&segments), Arc::clone(&snapshots));
                server.execute_sql("CREATE TABLE survivors (id INT, name TEXT)").unwrap();
                let insert = |i: i32, tag: &str| {
                    let sql = format!("INSERT INTO survivors VALUES ({i}, '{tag}-{i}')");
                    server.execute_sql(&sql).unwrap();
                };
                (0..50).for_each(|i| insert(i, "pre"));
                let out = server.checkpoint().unwrap();
                assert!(out.message.starts_with("CHECKPOINT"), "got {:?}", out.message);
                (50..60).for_each(|i| insert(i, "post"));
                // Simulated crash: no orderly flush of the catalog, just
                // drop it.
                server.shutdown();
            }

            // Second lifetime: an empty catalog plus the same stores must
            // come back with all sixty rows — fifty from the snapshot, ten
            // replayed from the WAL tail.
            let server = boot(empty(), segments, snapshots);
            let report = server.recovery_report();
            assert_eq!(report.snapshot_rows, 50, "snapshot carried the pre-checkpoint rows");
            assert!(report.corruption.is_none(), "clean shutdown, clean log");
            let count = server.execute_sql("SELECT COUNT(*) FROM survivors").unwrap();
            assert_eq!(count.rows[0].to_string(), "[60]");
            let tail = server.execute_sql("SELECT name FROM survivors WHERE id = 55").unwrap();
            assert_eq!(tail.rows.len(), 1);
            assert!(tail.rows[0].to_string().contains("post-55"));
            server.shutdown();
        }
    };
}

survives_a_restart_through_checkpoint_and_wal!(
    staged_server_survives_a_restart_through_checkpoint_and_wal,
    |cat, segments, snapshots| {
        let config = ServerConfig { partitions: 2, ..Default::default() };
        StagedServer::with_stores(cat, config, None, segments, snapshots).unwrap()
    }
);

survives_a_restart_through_checkpoint_and_wal!(
    threaded_server_survives_a_restart_through_checkpoint_and_wal,
    |cat, segments, snapshots| {
        let (planner, timeout) = (PlannerConfig::default(), std::time::Duration::from_secs(2));
        ThreadedServer::with_stores(cat, 2, planner, timeout, segments, snapshots).unwrap()
    }
);

#[test]
fn idle_checkpoint_stage_trims_the_wal_automatically() {
    // One-page segments and a two-segment budget: a burst of inserts
    // leaves far more than two live segments, and the checkpoint stage's
    // idle hook must notice and trim without any client asking.
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
    let server = StagedServer::new(
        Arc::clone(&cat),
        ServerConfig {
            partitions: 1,
            wal_segment_pages: 1,
            checkpoint_segments: Some(2),
            ..Default::default()
        },
    );
    server.execute_sql("CREATE TABLE auto_ck (id INT, v INT)").unwrap();
    for i in 0..400 {
        server.execute_sql(&format!("INSERT INTO auto_ck VALUES ({i}, {i})")).unwrap();
    }
    // The idle hook may already have fired mid-burst; what must hold is
    // that the log converges to the budget and that old segments are
    // actually gone (the surviving ids start past segment 0).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut segments = server.wal().segments().unwrap();
    while std::time::Instant::now() < deadline {
        segments = server.wal().segments().unwrap();
        if segments.len() <= 3 && segments[0] > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(
        segments.len() <= 3,
        "idle checkpoints should trim live segments, still at {}",
        segments.len()
    );
    assert!(segments[0] > 0, "segment 0 should have been truncated away");
    // The trimmed log still supports queries and further writes.
    let count = server.execute_sql("SELECT COUNT(*) FROM auto_ck").unwrap();
    assert_eq!(count.rows[0].to_string(), "[400]");
    server.execute_sql("INSERT INTO auto_ck VALUES (400, 400)").unwrap();
    server.shutdown();
}
