//! WAL-shipping replication: the fault-injection differential suite.
//!
//! A primary (staged server) ships committed WAL over `REPLICATE`; a
//! [`ReplicaServer`] applies it and serves snapshot reads. The suite
//! proves, over real sockets: byte-identical answers after a randomized
//! workload at 1/2/4 partitions, catch-up from LSN zero when the replica
//! joins mid-workload, resume after a forced disconnect, crash-restart
//! from the replica's own durable WAL (nothing lost, nothing applied
//! twice), torn-tail repair of the replica's log, backpressure (a stalled
//! replica never blocks primary commits and is evicted when its bounded
//! outbox fills), and a proptest that replica snapshot reads never
//! observe a torn transaction.

use proptest::prelude::*;
use staged_db::dbclient::{Client, ClientError, QueryResult};
use staged_db::server::net::{self, NetConfig, NetHandle};
use staged_db::server::{ReplicaConfig, ReplicaServer, ServerConfig, StagedServer};
use staged_db::storage::wal::Lsn;
use staged_db::storage::{
    BufferPool, Catalog, Column, DataType, DiskManager, MemDisk, MemSegmentStore, PageId, Rid,
    Schema, SegmentStore, PAGE_SIZE,
};
use staged_db::wire::ErrorCode;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ACCOUNTS: i64 = 16;
const BALANCE: i64 = 100;

/// Both servers run the same DDL in the same order, so table ids line up
/// (the replica's schema-bootstrap contract).
const DDL: &[&str] =
    &["CREATE TABLE accounts (id INT, bal INT)", "CREATE TABLE items (k INT, v VARCHAR(32))"];

/// The differential queries: every table, as rows and as aggregates.
const CHECKS: &[&str] = &[
    "SELECT id, bal FROM accounts ORDER BY id",
    "SELECT SUM(bal), COUNT(*) FROM accounts",
    "SELECT k, v FROM items ORDER BY k",
    "SELECT COUNT(*) FROM items",
];

fn fresh_catalog() -> Arc<Catalog> {
    Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 1024)))
}

fn listener() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port")
}

/// A staged primary behind a TCP front end on an ephemeral port.
fn primary_net(config: ServerConfig) -> (Arc<StagedServer>, NetHandle) {
    let server = StagedServer::new(fresh_catalog(), config);
    let handle =
        net::serve(listener(), Arc::clone(&server), NetConfig::default()).expect("serve primary");
    (server, handle)
}

fn connect(handle: &NetHandle) -> Client {
    Client::connect_timeout(handle.local_addr(), Duration::from_secs(5)).expect("connect")
}

fn replica_config(parts: usize) -> ReplicaConfig {
    ReplicaConfig {
        partitions: parts,
        reconnect: Duration::from_millis(20),
        ..ReplicaConfig::default()
    }
}

/// The catalog a restarted replica boots with: the same DDL, in the same
/// creation order, as [`DDL`] runs on the primary (boot replay needs the
/// schema in place before [`ReplicaServer::open`]).
fn replica_catalog(parts: usize) -> Arc<Catalog> {
    let cat = fresh_catalog();
    cat.create_table_partitioned(
        "accounts",
        Schema::new(vec![
            Column::new("id", DataType::Int).nullable(),
            Column::new("bal", DataType::Int).nullable(),
        ]),
        parts,
        0,
    )
    .unwrap();
    cat.create_table_partitioned(
        "items",
        Schema::new(vec![
            Column::new("k", DataType::Int).nullable(),
            Column::new("v", DataType::Str).nullable(),
        ]),
        parts,
        0,
    )
    .unwrap();
    cat
}

/// Deterministic workload randomness (xorshift), like tests/mvcc.rs.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = 0x9e3779b97f4a7c15u64 ^ (seed + 1);
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Seed the accounts table in ONE transaction: a replica snapshot must see
/// all sixteen rows or none of them.
fn seed_accounts(exec: &mut dyn FnMut(&str)) {
    exec("BEGIN");
    for i in 0..ACCOUNTS {
        exec(&format!("INSERT INTO accounts VALUES ({i}, {BALANCE})"));
    }
    exec("COMMIT");
}

/// A randomized mix of autocommit inserts/updates/deletes on `items` and
/// multi-statement transfer transactions on `accounts`.
fn run_workload(
    exec: &mut dyn FnMut(&str),
    rng: &mut dyn FnMut() -> u64,
    steps: usize,
    keys: &mut Vec<i64>,
    next_key: &mut i64,
) {
    for _ in 0..steps {
        match rng() % 4 {
            0 => {
                let k = *next_key;
                *next_key += 1;
                exec(&format!("INSERT INTO items VALUES ({k}, 'v{k}')"));
                keys.push(k);
            }
            1 if !keys.is_empty() => {
                let k = keys[(rng() % keys.len() as u64) as usize];
                exec(&format!("UPDATE items SET v = 'u{}' WHERE k = {k}", rng() % 1000));
            }
            2 if keys.len() > 1 => {
                let k = keys.swap_remove((rng() % keys.len() as u64) as usize);
                exec(&format!("DELETE FROM items WHERE k = {k}"));
            }
            _ => {
                let from = (rng() % ACCOUNTS as u64) as i64;
                let to = (rng() % ACCOUNTS as u64) as i64;
                exec("BEGIN");
                exec(&format!("UPDATE accounts SET bal = bal - 10 WHERE id = {from}"));
                exec(&format!("UPDATE accounts SET bal = bal + 10 WHERE id = {to}"));
                // One transfer in three rolls back: the rows it touched must
                // keep their rids, or a later committed UPDATE names a rid
                // the replica never saw.
                exec(if rng().is_multiple_of(3) { "ROLLBACK" } else { "COMMIT" });
            }
        }
    }
}

/// Commit a sentinel row on the primary, then poll the replica until it
/// appears: replication applies commits in log order, so once the last
/// transaction is visible everything before it is too.
fn drain_over_sockets(primary: &mut Client, replica: &mut Client, sentinel: i64) {
    primary.query(&format!("INSERT INTO items VALUES ({sentinel}, 'sentinel')")).unwrap();
    let probe = format!("SELECT COUNT(*) FROM items WHERE k = {sentinel}");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let out = replica.query(&probe).unwrap();
        if out.rows[0][0].as_deref() == Some("1") {
            return;
        }
        assert!(Instant::now() < deadline, "replica never caught up to sentinel {sentinel}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// In-process flavour of [`drain_over_sockets`] for replicas without a
/// network front end.
fn drain_in_process(primary: &mut Client, replica: &Arc<ReplicaServer>, sentinel: i64) {
    primary.query(&format!("INSERT INTO items VALUES ({sentinel}, 'sentinel')")).unwrap();
    let probe = format!("SELECT COUNT(*) FROM items WHERE k = {sentinel}");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let out = replica.execute_sql(&probe).unwrap();
        if out.rows[0].to_string() == "[1]" {
            return;
        }
        assert!(Instant::now() < deadline, "replica never caught up to sentinel {sentinel}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Normalised outcome: sorted rows + headers + tag (row order is an engine
/// scheduling artifact, not a protocol guarantee — as in tests/net.rs).
#[derive(Debug, PartialEq, Eq)]
struct Answer {
    columns: Vec<(String, String)>,
    rows: Vec<Vec<Option<String>>>,
    tag: String,
}

fn answer(res: Result<QueryResult, ClientError>) -> Answer {
    let mut out = res.expect("differential query failed");
    out.rows.sort();
    Answer { columns: out.columns, rows: out.rows, tag: out.tag }
}

/// Every [`CHECKS`] query answers byte-identically on both connections.
fn assert_identical(primary: &mut Client, replica: &mut Client, ctx: &str) {
    for q in CHECKS {
        assert_eq!(
            answer(primary.query(q)),
            answer(replica.query(q)),
            "{ctx}: replica diverged from primary on {q}"
        );
    }
}

/// Every table's heap scan is the same `(rid, row bytes)` sequence on both
/// catalogs: replica apply puts each row at the primary's rid.
fn assert_same_heaps(primary: &Catalog, replica: &Catalog, parts: usize) {
    for t in primary.list_tables() {
        let scan = |c: &Catalog| -> Vec<(Rid, Vec<u8>)> {
            let heap = &c.table(&t.name).unwrap().heap;
            heap.scan().map(|r| r.map(|(rid, row)| (rid, row.encode())).unwrap()).collect()
        };
        let (p, r) = (scan(primary), scan(replica));
        if let Some(i) = (0..p.len().max(r.len())).find(|&i| p.get(i) != r.get(i)) {
            let rid = |v: &Vec<(Rid, Vec<u8>)>| v.get(i).map_or("none".into(), |x| x.0.to_string());
            panic!("{} {parts}: primary {} vs replica {}", t.name, rid(&p), rid(&r));
        }
    }
}

/// Sorted row images from an in-process response (for replicas served
/// without a socket).
fn sorted_rows(res: staged_db::server::Response) -> Vec<String> {
    let mut v: Vec<String> = res.unwrap().rows.iter().map(|r| r.to_string()).collect();
    v.sort();
    v
}

// ---------------------------------------------------------------------------
// The differential suite
// ---------------------------------------------------------------------------

/// After a randomized workload at 1, 2 and 4 partitions, every table on
/// the replica answers byte-identically to the primary over real sockets —
/// and the replica refuses writes with the stable `READ_ONLY_REPLICA` code
/// while both `replication` STATS rows meter the feed.
#[test]
fn replica_answers_identically_after_randomized_workload() {
    for parts in [1usize, 2, 4] {
        let pcat = fresh_catalog();
        let config = ServerConfig { partitions: parts, ..ServerConfig::default() };
        let primary = StagedServer::new(Arc::clone(&pcat), config);
        let ph = net::serve(listener(), Arc::clone(&primary), NetConfig::default()).unwrap();
        let mut pc = connect(&ph);
        for ddl in DDL {
            pc.query(ddl).unwrap();
        }
        let mut exec = |sql: &str| {
            pc.query(sql).unwrap();
        };
        seed_accounts(&mut exec);

        // The replica boots empty and bootstraps its schema over its own
        // socket; transactions shipped before the DDL landed sit in the
        // deferred queue until it does.
        let rcat = fresh_catalog();
        let replica = ReplicaServer::open(
            Arc::clone(&rcat),
            Arc::new(MemSegmentStore::new()),
            replica_config(parts),
        )
        .unwrap();
        replica.start(ph.local_addr().to_string());
        let rh = net::serve(listener(), Arc::clone(&replica), NetConfig::default()).unwrap();
        let mut rc = connect(&rh);
        for ddl in DDL {
            rc.query(ddl).unwrap();
        }

        let mut rng = xorshift(parts as u64);
        let mut keys = Vec::new();
        let mut next_key = 0i64;
        let mut exec = |sql: &str| {
            pc.query(sql).unwrap();
        };
        run_workload(&mut exec, &mut rng, 60, &mut keys, &mut next_key);
        drain_over_sockets(&mut pc, &mut rc, 1_000_000 + parts as i64);
        assert_identical(&mut pc, &mut rc, &format!("{parts} partitions"));
        assert_same_heaps(&pcat, &rcat, parts);

        // Writes (and a read-write BEGIN) are refused with the stable code;
        // snapshot reads keep working on the same connection.
        for sql in
            ["INSERT INTO items VALUES (7777, 'no')", "DELETE FROM items WHERE k = 0", "BEGIN"]
        {
            match rc.query(sql) {
                Err(ClientError::Server { code: ErrorCode::ReadOnlyReplica, .. }) => {}
                other => panic!("{parts} parts: want READ_ONLY_REPLICA for {sql}, got {other:?}"),
            }
        }
        rc.query("BEGIN READ ONLY").unwrap();
        let out = rc.query("SELECT COUNT(*) FROM accounts").unwrap();
        assert_eq!(out.rows[0][0].as_deref(), Some("16"));
        rc.query("COMMIT").unwrap();

        // Both sides meter the feed in their `replication` STATS row
        // (PROTOCOL.md §6): shipping counters on the primary, apply
        // counters on the replica.
        let repl_row = |stats: QueryResult| -> Vec<Option<String>> {
            stats
                .rows
                .into_iter()
                .find(|r| r[0].as_deref() == Some("replication"))
                .expect("replication row in STATS")
        };
        let prow = repl_row(pc.stats().unwrap());
        assert!(prow[1].as_ref().unwrap().parse::<i64>().unwrap() > 0, "primary shipped records");
        assert_eq!(prow[5].as_deref(), Some("1"), "one replica connected");
        let rrow = repl_row(rc.stats().unwrap());
        assert!(rrow[1].as_ref().unwrap().parse::<i64>().unwrap() > 0, "replica applied records");
        assert_eq!(rrow[5].as_deref(), Some("1"), "replica reports its subscription");

        pc.quit().unwrap();
        rc.quit().unwrap();
        rh.shutdown();
        replica.shutdown();
        ph.shutdown();
        primary.shutdown();
    }
}

/// A committed transaction that reaches the replica before one of its
/// tables does is deferred whole and retried at every later commit,
/// watermark and read. A retry must not half-apply it: the replica once
/// landed the insert into the table it had, then failed on the other and
/// kept the first insert, so each retry added another copy (table `a`
/// held id 1 four times).
#[test]
fn a_deferred_transaction_lands_once_after_its_table_is_created() {
    let (primary, ph) = primary_net(ServerConfig::default());
    let mut pc = connect(&ph);
    for ddl in ["CREATE TABLE a (id INT)", "CREATE TABLE b (id INT)"] {
        pc.query(ddl).unwrap();
    }
    let replica =
        ReplicaServer::open(fresh_catalog(), Arc::new(MemSegmentStore::new()), replica_config(1))
            .unwrap();
    replica.execute_sql("CREATE TABLE a (id INT)").unwrap();
    replica.start(ph.local_addr().to_string());
    for sql in ["BEGIN", "INSERT INTO a VALUES (1)", "INSERT INTO b VALUES (1)", "COMMIT"] {
        pc.query(sql).unwrap();
    }
    // Wait until the commit is in (the transaction's two inserts deferred),
    // then read a few times: each read retries the deferred queue.
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.status().lag_records < 2 || replica.status().applied_lsn == Lsn::ZERO {
        assert!(Instant::now() < deadline, "the commit never reached the replica");
        std::thread::sleep(Duration::from_millis(10));
    }
    for _ in 0..3 {
        replica.execute_sql("SELECT COUNT(*) FROM a").unwrap();
    }
    replica.execute_sql("CREATE TABLE b (id INT)").unwrap();
    pc.query("INSERT INTO a VALUES (2)").unwrap();
    let ids = |table: &str| sorted_rows(replica.execute_sql(&format!("SELECT id FROM {table}")));
    while ids("a").len() < 2 {
        assert!(Instant::now() < deadline, "replica never caught up: a = {:?}", ids("a"));
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(ids("a"), vec!["[1]", "[2]"], "each row of a once");
    assert_eq!(ids("b"), vec!["[1]"]);
    pc.quit().unwrap();
    replica.shutdown();
    ph.shutdown();
    primary.shutdown();
}

/// A replica that attaches mid-workload catches up from LSN zero — the
/// whole history ships, the deferred queue holds transactions that
/// arrived before the bootstrap DDL, and the end state is identical.
#[test]
fn replica_joining_mid_workload_catches_up_from_lsn_zero() {
    let (primary, ph) = primary_net(ServerConfig { partitions: 2, ..ServerConfig::default() });
    let mut pc = connect(&ph);
    for ddl in DDL {
        pc.query(ddl).unwrap();
    }
    let mut rng = xorshift(11);
    let mut keys = Vec::new();
    let mut next_key = 0i64;
    {
        let mut exec = |sql: &str| {
            pc.query(sql).unwrap();
        };
        seed_accounts(&mut exec);
        run_workload(&mut exec, &mut rng, 30, &mut keys, &mut next_key);
    }

    // Join now: half the history is already in the primary's log.
    let replica =
        ReplicaServer::open(fresh_catalog(), Arc::new(MemSegmentStore::new()), replica_config(2))
            .unwrap();
    replica.start(ph.local_addr().to_string());
    let rh = net::serve(listener(), Arc::clone(&replica), NetConfig::default()).unwrap();
    let mut rc = connect(&rh);
    for ddl in DDL {
        rc.query(ddl).unwrap();
    }

    // The second half commits while the replica is still catching up.
    let mut exec = |sql: &str| {
        pc.query(sql).unwrap();
    };
    run_workload(&mut exec, &mut rng, 30, &mut keys, &mut next_key);
    drain_over_sockets(&mut pc, &mut rc, 1_000_010);
    assert_identical(&mut pc, &mut rc, "mid-workload join");
    assert_eq!(replica.feed_stats().stream_errors, 0, "catch-up tore the feed down");

    pc.quit().unwrap();
    rc.quit().unwrap();
    rh.shutdown();
    replica.shutdown();
    ph.shutdown();
    primary.shutdown();
}

/// After a forced disconnect the replica re-subscribes from its own
/// durable position and converges again; the reconnect is visible in its
/// feed counters.
#[test]
fn replica_reattaches_after_forced_disconnect() {
    let (primary, ph) = primary_net(ServerConfig { partitions: 2, ..ServerConfig::default() });
    let mut pc = connect(&ph);
    for ddl in DDL {
        pc.query(ddl).unwrap();
    }
    let replica =
        ReplicaServer::open(fresh_catalog(), Arc::new(MemSegmentStore::new()), replica_config(2))
            .unwrap();
    replica.start(ph.local_addr().to_string());
    let rh = net::serve(listener(), Arc::clone(&replica), NetConfig::default()).unwrap();
    let mut rc = connect(&rh);
    for ddl in DDL {
        rc.query(ddl).unwrap();
    }

    let mut rng = xorshift(23);
    let mut keys = Vec::new();
    let mut next_key = 0i64;
    {
        let mut exec = |sql: &str| {
            pc.query(sql).unwrap();
        };
        seed_accounts(&mut exec);
        run_workload(&mut exec, &mut rng, 25, &mut keys, &mut next_key);
    }
    drain_over_sockets(&mut pc, &mut rc, 1_000_020);
    let connects_before = replica.feed_stats().connects;
    assert!(connects_before >= 1);

    // Forced disconnect: the feed thread stops; the primary keeps
    // committing while nobody subscribes.
    replica.shutdown();
    let mut exec = |sql: &str| {
        pc.query(sql).unwrap();
    };
    run_workload(&mut exec, &mut rng, 25, &mut keys, &mut next_key);

    // Re-attach: resume is from the replica's own durable WAL position.
    replica.start(ph.local_addr().to_string());
    drain_over_sockets(&mut pc, &mut rc, 1_000_021);
    assert_identical(&mut pc, &mut rc, "after re-attach");
    assert!(
        replica.feed_stats().connects > connects_before,
        "re-attach must be a fresh subscription"
    );

    pc.quit().unwrap();
    rc.quit().unwrap();
    rh.shutdown();
    replica.shutdown();
    ph.shutdown();
    primary.shutdown();
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Kill the replica mid-stream, restart it from its own durable WAL: the
/// boot state is whole committed transactions only, the applied LSN never
/// moves backwards across the restart, and after resuming the feed the
/// replica converges exactly — no record lost, none applied twice.
#[test]
fn replica_crash_restart_applies_every_record_exactly_once() {
    let (primary, ph) = primary_net(ServerConfig { partitions: 2, ..ServerConfig::default() });
    let mut pc = connect(&ph);
    for ddl in DDL {
        pc.query(ddl).unwrap();
    }
    {
        let mut exec = |sql: &str| {
            pc.query(sql).unwrap();
        };
        seed_accounts(&mut exec);
    }

    let store = Arc::new(MemSegmentStore::new());
    let r1 = ReplicaServer::open(
        replica_catalog(2),
        Arc::clone(&store) as Arc<dyn SegmentStore>,
        replica_config(2),
    )
    .unwrap();
    r1.start(ph.local_addr().to_string());

    for i in 0..20 {
        pc.query(&format!("INSERT INTO items VALUES ({i}, 'v{i}')")).unwrap();
    }
    drain_in_process(&mut pc, &r1, 1_000_030);
    // Everything the replica acknowledged is durable in its own store.
    let acked_floor = primary.replication_hub().min_acked().expect("replica is connected");

    // Crash mid-stream: more commits are in flight when the feed dies, and
    // the primary keeps committing while the replica is down.
    for i in 20..40 {
        pc.query(&format!("INSERT INTO items VALUES ({i}, 'v{i}')")).unwrap();
    }
    r1.shutdown();
    drop(r1);
    for i in 40..60 {
        pc.query(&format!("INSERT INTO items VALUES ({i}, 'v{i}')")).unwrap();
    }

    // Restart over the same store: boot replay applies the committed
    // prefix; the acked history must still be there.
    let r2 = ReplicaServer::open(
        replica_catalog(2),
        Arc::clone(&store) as Arc<dyn SegmentStore>,
        replica_config(2),
    )
    .unwrap();
    assert!(
        r2.wal().next_lsn() >= acked_floor,
        "acknowledged history lost across the crash: {:?} < {acked_floor:?}",
        r2.wal().next_lsn()
    );
    let boot = r2.status();
    // Whole transactions only: the seed txn is atomic and no item row can
    // exist twice.
    assert_eq!(
        sorted_rows(r2.execute_sql("SELECT SUM(bal), COUNT(*) FROM accounts")),
        vec![format!("[{}, {ACCOUNTS}]", ACCOUNTS * BALANCE)],
        "boot replay tore the seed transaction"
    );
    let items_at_boot = sorted_rows(r2.execute_sql("SELECT k FROM items"));
    let mut dedup = items_at_boot.clone();
    dedup.dedup();
    assert_eq!(items_at_boot, dedup, "boot replay applied a record twice");
    assert!(items_at_boot.len() >= 21, "the drained prefix (20 rows + sentinel) must survive");

    // Resume: the feed re-ships the suffix; convergence is exact.
    r2.start(ph.local_addr().to_string());
    drain_in_process(&mut pc, &r2, 1_000_031);
    let fin = r2.status();
    assert!(fin.applied_lsn >= boot.applied_lsn, "applied LSN moved backwards");
    assert_eq!(fin.lag_records, 0, "records left unapplied after drain");
    // Integer projections compare exactly across the wire and the
    // in-process API; duplicate keys or lost rows both fail the diff.
    for q in ["SELECT k FROM items ORDER BY k", "SELECT id, bal FROM accounts ORDER BY id"] {
        let mut want: Vec<String> = pc
            .query(q)
            .unwrap()
            .rows
            .iter()
            .map(|r| {
                let cells: Vec<&str> = r.iter().map(|c| c.as_deref().unwrap()).collect();
                format!("[{}]", cells.join(", "))
            })
            .collect();
        want.sort();
        let got = sorted_rows(r2.execute_sql(q));
        assert_eq!(got, want, "restarted replica diverged on {q}");
    }

    pc.quit().unwrap();
    r2.shutdown();
    ph.shutdown();
    primary.shutdown();
}

/// Corrupt the tail page of the replica's own WAL ("torn write at crash"):
/// reopening repairs the log to its committed prefix, and the resumed feed
/// re-ships the damaged suffix until the replica converges exactly.
#[test]
fn torn_replica_wal_tail_resumes_from_the_committed_prefix() {
    let (primary, ph) = primary_net(ServerConfig { partitions: 1, ..ServerConfig::default() });
    let mut pc = connect(&ph);
    for ddl in DDL {
        pc.query(ddl).unwrap();
    }
    {
        let mut exec = |sql: &str| {
            pc.query(sql).unwrap();
        };
        seed_accounts(&mut exec);
    }

    let store = Arc::new(MemSegmentStore::new());
    let r1 = ReplicaServer::open(
        replica_catalog(1),
        Arc::clone(&store) as Arc<dyn SegmentStore>,
        replica_config(1),
    )
    .unwrap();
    r1.start(ph.local_addr().to_string());
    // Enough padded rows that the replica's flushed log spans several
    // pages — the tear must have whole records to destroy.
    let pad = "x".repeat(80);
    for i in 0..120 {
        pc.query(&format!("INSERT INTO items VALUES ({i}, '{pad}')")).unwrap();
    }
    drain_in_process(&mut pc, &r1, 1_000_040);
    let total = sorted_rows(r1.execute_sql("SELECT COUNT(*) FROM items"));
    r1.shutdown();
    drop(r1);

    // Tear the last written page of the replica's newest segment, the way
    // a half-written sector looks after a power cut.
    let seg = *store.list().unwrap().last().unwrap();
    let disk = store.disk(seg).unwrap();
    let pages = disk.num_pages();
    assert!(pages >= 2, "need a multi-page replica log, got {pages}");
    let mut page = vec![0u8; PAGE_SIZE];
    disk.read_page(PageId(pages - 1), &mut page).unwrap();
    page[100] ^= 0xFF;
    disk.write_page(PageId(pages - 1), &page).unwrap();

    // Reopen: the torn tail is the end of the log, not an error. The boot
    // state is a whole-transaction prefix strictly short of the drained
    // total (the tear destroyed the newest records).
    let r2 = ReplicaServer::open(
        replica_catalog(1),
        Arc::clone(&store) as Arc<dyn SegmentStore>,
        replica_config(1),
    )
    .unwrap();
    assert_eq!(
        sorted_rows(r2.execute_sql("SELECT SUM(bal), COUNT(*) FROM accounts")),
        vec![format!("[{}, {ACCOUNTS}]", ACCOUNTS * BALANCE)],
        "torn-tail repair tore a transaction"
    );
    let at_boot = sorted_rows(r2.execute_sql("SELECT COUNT(*) FROM items"));
    assert_ne!(at_boot, total, "the tear destroyed nothing — the test lost its teeth");

    // Resume: the primary simply re-ships the damaged suffix.
    r2.start(ph.local_addr().to_string());
    drain_in_process(&mut pc, &r2, 1_000_041);
    let want = answer(pc.query("SELECT k, v FROM items ORDER BY k")).rows.len();
    let got = sorted_rows(r2.execute_sql("SELECT k, v FROM items")).len();
    assert_eq!(got, want, "row count diverged after torn-tail resync");
    let sums = sorted_rows(r2.execute_sql("SELECT SUM(bal), COUNT(*) FROM accounts"));
    assert_eq!(sums, vec![format!("[{}, {ACCOUNTS}]", ACCOUNTS * BALANCE)]);
    assert_eq!(r2.status().lag_records, 0);

    pc.quit().unwrap();
    r2.shutdown();
    ph.shutdown();
    primary.shutdown();
}

// ---------------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------------

/// A stalled replica never blocks primary commits: shipping is try_send
/// into a bounded outbox, so the primary's write path stays fast while a
/// subscriber reads nothing — and a subscriber that falls behind the
/// outbox capacity is evicted, metered in the `replication` STATS row.
#[test]
fn stalled_replica_never_blocks_primary_and_is_evicted() {
    let (primary, ph) =
        primary_net(ServerConfig { partitions: 1, feed_outbox: 4, ..ServerConfig::default() });
    let mut pc = connect(&ph);
    pc.query(DDL[0]).unwrap();
    pc.query(DDL[1]).unwrap();

    // A raw REPLICATE subscriber that never reads its socket...
    let mut stalled = TcpStream::connect(ph.local_addr()).unwrap();
    stalled
        .write_all(format!("REPLICATE {}\n", staged_db::wire::format_lsn(0, 0)).as_bytes())
        .unwrap();
    // ...and an in-process subscription whose outbox nobody ever drains.
    let (_id, rx) = primary.replication_hub().subscribe(Lsn::ZERO).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while primary.replication_hub().stats().connected < 2 {
        assert!(Instant::now() < deadline, "feeds never registered");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Commits stay fast while both laggards stall.
    let pad = "y".repeat(64);
    let start = Instant::now();
    for i in 0..40 {
        pc.query(&format!("INSERT INTO items VALUES ({i}, '{pad}')")).unwrap();
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "stalled replica blocked primary commits for {:?}",
        start.elapsed()
    );

    // The undrained outbox (capacity 4) fills and its subscriber is
    // evicted; the STATS row meters it in the errors column.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = pc.stats().unwrap();
        let row = stats
            .rows
            .iter()
            .find(|r| r[0].as_deref() == Some("replication"))
            .expect("replication row in STATS");
        let evicted: i64 = row[2].as_ref().unwrap().parse().unwrap();
        if evicted >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "slow replica was never evicted");
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(primary.replication_hub().stats().evicted >= 1);
    // The primary still answers reads; nothing was lost on its side.
    let out = pc.query("SELECT COUNT(*) FROM items").unwrap();
    assert_eq!(out.rows[0][0].as_deref(), Some("40"));

    drop(rx);
    drop(stalled);
    pc.quit().unwrap();
    ph.shutdown();
    primary.shutdown();
}

// ---------------------------------------------------------------------------
// Torn-transaction proptest
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// However commits, `WALEOF` watermarks and replica snapshot reads
    /// interleave, a snapshot on the replica sees whole transactions only:
    /// the single seed transaction is all-or-nothing, and transfers keep
    /// the sum balanced (mirroring tests/mvcc.rs on the primary).
    #[test]
    fn replica_snapshot_reads_never_observe_a_torn_transaction(
        moves in prop::collection::vec((0..ACCOUNTS, 0..ACCOUNTS), 1..10),
        reads in prop::collection::vec(0usize..10, 1..4),
    ) {
        let (primary, ph) =
            primary_net(ServerConfig { partitions: 2, ..ServerConfig::default() });
        let sess = primary.session();
        for ddl in DDL {
            sess.execute_sql(ddl).unwrap();
        }
        let mut exec = |sql: &str| { sess.execute_sql(sql).unwrap(); };
        seed_accounts(&mut exec);

        let replica = ReplicaServer::open(
            replica_catalog(2),
            Arc::new(MemSegmentStore::new()),
            replica_config(2),
        )
        .unwrap();
        replica.start(ph.local_addr().to_string());
        let reader = replica.session();
        let check_snapshot = || {
            reader.execute_sql("BEGIN READ ONLY").unwrap();
            let n = reader.execute_sql("SELECT COUNT(*) FROM accounts").unwrap().rows[0]
                .get(0)
                .as_int()
                .unwrap();
            let sum = reader.execute_sql("SELECT SUM(bal) FROM accounts").unwrap().rows[0]
                .get(0)
                .as_int();
            reader.execute_sql("COMMIT").unwrap();
            prop_assert!(n == 0 || n == ACCOUNTS, "torn seed transaction: {} rows", n);
            if n == ACCOUNTS {
                prop_assert_eq!(sum, Some(ACCOUNTS * BALANCE), "snapshot saw a torn transfer");
            }
        };

        for (i, (from, to)) in moves.iter().enumerate() {
            if reads.contains(&i) {
                check_snapshot();
            }
            sess.execute_sql("BEGIN").unwrap();
            sess.execute_sql(&format!("UPDATE accounts SET bal = bal - 10 WHERE id = {from}"))
                .unwrap();
            sess.execute_sql(&format!("UPDATE accounts SET bal = bal + 10 WHERE id = {to}"))
                .unwrap();
            sess.execute_sql("COMMIT").unwrap();
        }
        check_snapshot();

        // Convergence: the replica ends at exactly the primary's state.
        let want = sorted_rows(sess.execute_sql("SELECT id, bal FROM accounts"));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let got = sorted_rows(replica.execute_sql("SELECT id, bal FROM accounts"));
            if got == want {
                break;
            }
            prop_assert!(Instant::now() < deadline, "replica never converged");
            std::thread::sleep(Duration::from_millis(20));
        }

        drop(reader);
        replica.shutdown();
        drop(sess);
        ph.shutdown();
        primary.shutdown();
    }
}
