//! `SUBSCRIBE` change feeds over real sockets (PROTOCOL.md §8).
//!
//! The suite proves the feed contract end-to-end: committed transactions
//! stream whole and in commit order, aborted transactions are invisible,
//! `WHERE` predicates filter the feed to an exact subset, `UNSUBSCRIBE`
//! delivers everything committed before it and returns the connection to
//! request/response use, a subscriber that stops reading is struck out
//! and evicted without ever blocking commits (mirroring the replication
//! suite's stalled-replica test), and a mid-stream disconnect releases
//! the subscription server-side. A proptest drives randomized interleaved
//! writers against concurrent subscribers to check the ordering
//! guarantees under contention.

use proptest::prelude::*;
use staged_db::dbclient::Client;
use staged_db::planner::PlannerConfig;
use staged_db::server::net::{self, NetConfig, NetHandle};
use staged_db::server::{ServerConfig, StagedServer, ThreadedServer};
use staged_db::storage::{BufferPool, Catalog, MemDisk};
use staged_db::wire::{Change, ChangeOp};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fresh_catalog() -> Arc<Catalog> {
    Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 1024)))
}

fn listener() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port")
}

fn staged_net(config: ServerConfig) -> (Arc<StagedServer>, NetHandle) {
    let server = StagedServer::new(fresh_catalog(), config);
    let handle =
        net::serve(listener(), Arc::clone(&server), NetConfig::default()).expect("serve staged");
    (server, handle)
}

fn connect(handle: &NetHandle) -> Client {
    Client::connect_timeout(handle.local_addr(), Duration::from_secs(5)).expect("connect")
}

/// Shorthand for the expected decoded line: an INSERT/DELETE of `(k, v)`.
fn change(op: ChangeOp, k: i64, v: i64) -> Change {
    Change { table: "t".to_string(), op, fields: vec![Some(k.to_string()), Some(v.to_string())] }
}

/// Committed transactions stream whole, in commit order; aborts vanish;
/// `UNSUBSCRIBE` drains everything already committed and hands the
/// connection back to request/response use.
#[test]
fn committed_transactions_stream_in_order_and_unsubscribe_drains() {
    let (server, handle) = staged_net(ServerConfig { partitions: 1, ..ServerConfig::default() });
    let mut writer = connect(&handle);
    writer.query("CREATE TABLE t (k INT, v INT)").unwrap();

    let mut sub_conn = connect(&handle);
    let mut feed = sub_conn.subscribe("t", None).unwrap();

    // A single-statement transaction streams live (the pump runs off the
    // replication stage's idle visits — a blocking read sees it shortly).
    writer.query("INSERT INTO t VALUES (1, 5)").unwrap();
    assert_eq!(feed.next_change().unwrap(), change(ChangeOp::Insert, 1, 5));

    // A multi-statement transaction arrives whole and in statement order;
    // a rolled-back transaction and a failed one never surface at all.
    writer.begin().unwrap();
    writer.query("INSERT INTO t VALUES (2, 10)").unwrap();
    writer.query("INSERT INTO t VALUES (3, 15)").unwrap();
    writer.commit().unwrap();
    writer.begin().unwrap();
    writer.query("INSERT INTO t VALUES (99, 99)").unwrap();
    writer.rollback().unwrap();
    writer.query("DELETE FROM t WHERE k = 1").unwrap();

    let tail = feed.unsubscribe().unwrap();
    assert_eq!(
        tail,
        vec![
            change(ChangeOp::Insert, 2, 10),
            change(ChangeOp::Insert, 3, 15),
            change(ChangeOp::Delete, 1, 5),
        ]
    );

    // The connection is a plain request/response session again.
    let out = sub_conn.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(out.rows[0][0].as_deref(), Some("2"));
    sub_conn.quit().unwrap();
    writer.quit().unwrap();
    handle.shutdown();
    server.shutdown();
}

/// The same feed works on the thread-pool baseline: both backends source
/// changes from the shared WAL, so the wire contract is identical.
#[test]
fn subscribe_streams_on_the_threaded_baseline_too() {
    let server = Arc::new(ThreadedServer::new(fresh_catalog(), 2, PlannerConfig::default()));
    let handle =
        net::serve(listener(), Arc::clone(&server), NetConfig::default()).expect("serve threaded");
    let mut writer = connect(&handle);
    writer.query("CREATE TABLE t (k INT, v INT)").unwrap();
    let mut sub_conn = connect(&handle);
    let mut feed = sub_conn.subscribe("t", Some("v > 10")).unwrap();
    writer.query("INSERT INTO t VALUES (1, 5), (2, 20)").unwrap();
    assert_eq!(feed.next_change().unwrap(), change(ChangeOp::Insert, 2, 20));
    let tail = feed.unsubscribe().unwrap();
    assert!(tail.is_empty(), "nothing else was committed, got {tail:?}");
    sub_conn.quit().unwrap();
    writer.quit().unwrap();
    handle.shutdown();
    server.shutdown();
}

/// Wire-level feed discipline, over a raw socket: a bad subscription is
/// refused without harming the connection, queries are refused while a
/// feed is active, `UNSUBSCRIBE` without a feed is a protocol error.
#[test]
fn subscription_protocol_discipline() {
    let (server, handle) = staged_net(ServerConfig { partitions: 1, ..ServerConfig::default() });
    let mut setup = connect(&handle);
    setup.query("CREATE TABLE t (k INT, v INT)").unwrap();

    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // greeting
    let mut send = |cmd: &str| {
        (&stream).write_all(format!("{cmd}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };

    assert!(send("SUBSCRIBE missing").starts_with("ERR SQL"), "unknown table is refused");
    assert!(send("SUBSCRIBE t WHERE bogus !!").starts_with("ERR SQL"), "bad predicate refused");
    assert!(send("UNSUBSCRIBE").starts_with("ERR PROTO"), "no feed to unsubscribe");
    // The connection survived every refusal and can open a real feed.
    assert_eq!(send("SUBSCRIBE t"), "OK SUBSCRIBE t");
    assert!(send("QUERY SELECT 1").starts_with("ERR PROTO"), "queries refused while subscribed");
    assert_eq!(send("PING"), "PONG", "PING stays available inside a feed");
    assert_eq!(send("UNSUBSCRIBE"), "OK UNSUBSCRIBE");
    assert!(send("QUERY SELECT COUNT(*) FROM t").starts_with("META"), "request/response again");

    drop(stream);
    setup.quit().unwrap();
    handle.shutdown();
    server.shutdown();
}

/// A subscriber that stops reading never blocks commits: delivery is
/// try_send into a bounded outbox, so 40 writes stay fast while the
/// laggard stalls — then the strike rule evicts it, metered in the
/// `subscriptions` STATS row (the socket-level mirror of the replication
/// suite's stalled-replica test).
#[test]
fn stalled_subscriber_never_blocks_commits_and_is_evicted() {
    let (server, handle) =
        staged_net(ServerConfig { partitions: 1, feed_outbox: 4, ..ServerConfig::default() });
    let mut writer = connect(&handle);
    writer.query("CREATE TABLE t (k INT, v INT)").unwrap();

    // A socket subscriber that never reads (the front end buffers for it;
    // TCP back-pressure is the kernel's problem, not the commit path's)...
    let mut stalled = TcpStream::connect(handle.local_addr()).unwrap();
    stalled.write_all(b"SUBSCRIBE t\n").unwrap();
    // ...and an in-process subscription whose outbox nobody ever drains:
    // once it is full and nothing moves for EVICTION_FULL_STRIKES pump
    // visits, the hub strikes it out.
    let (_id, rx) = server.reactivity_hub().subscribe("t", None).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.reactivity_hub().stats().connected < 2 {
        assert!(Instant::now() < deadline, "feeds never registered");
        std::thread::sleep(Duration::from_millis(10));
    }

    let start = Instant::now();
    for i in 0..40 {
        writer.query(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "stalled subscriber blocked commits for {:?}",
        start.elapsed()
    );

    // The eviction lands in the STATS row's errors column.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = writer.stats().unwrap();
        let row = stats
            .rows
            .iter()
            .find(|r| r[0].as_deref() == Some("subscriptions"))
            .expect("subscriptions row in STATS");
        let evicted: i64 = row[2].as_ref().unwrap().parse().unwrap();
        if evicted >= 1 {
            // batch = the bounded outbox capacity the feed was evicted at.
            let capacity: i64 = row[8].as_ref().unwrap().parse().unwrap();
            assert_eq!(capacity, 4);
            break;
        }
        assert!(Instant::now() < deadline, "stalled subscriber was never evicted");
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(server.reactivity_hub().stats().evicted >= 1);
    // Nothing was lost on the commit path.
    let out = writer.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(out.rows[0][0].as_deref(), Some("40"));

    drop(rx);
    drop(stalled);
    writer.quit().unwrap();
    handle.shutdown();
    server.shutdown();
}

/// Dropping the socket mid-stream (no UNSUBSCRIBE, no QUIT) releases the
/// subscription server-side, and later feeds start clean.
#[test]
fn disconnect_mid_stream_releases_the_subscription() {
    let (server, handle) = staged_net(ServerConfig { partitions: 1, ..ServerConfig::default() });
    let mut writer = connect(&handle);
    writer.query("CREATE TABLE t (k INT, v INT)").unwrap();

    let mut sub_conn = connect(&handle);
    let mut feed = sub_conn.subscribe("t", None).unwrap();
    writer.query("INSERT INTO t VALUES (1, 1)").unwrap();
    // The feed is live (one change received), then the client vanishes.
    assert_eq!(feed.next_change().unwrap(), change(ChangeOp::Insert, 1, 1));
    drop(sub_conn);

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.reactivity_hub().stats().connected != 0 {
        assert!(Instant::now() < deadline, "disconnect never released the subscription");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The STATS gauge agrees, and a fresh feed sees only what commits
    // after it subscribes.
    let stats = writer.stats().unwrap();
    let row = stats
        .rows
        .iter()
        .find(|r| r[0].as_deref() == Some("subscriptions"))
        .expect("subscriptions row in STATS");
    assert_eq!(row[5].as_deref(), Some("0"), "connected gauge (cohorts column) back to zero");

    let mut again = connect(&handle);
    let feed = again.subscribe("t", None).unwrap();
    writer.query("INSERT INTO t VALUES (2, 2)").unwrap();
    let tail = feed.unsubscribe().unwrap();
    assert_eq!(tail, vec![change(ChangeOp::Insert, 2, 2)]);
    again.quit().unwrap();
    writer.quit().unwrap();
    handle.shutdown();
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Randomized interleaving proptest
// ---------------------------------------------------------------------------

/// One writer's script: a list of transactions, each `(commit, values)`.
/// Writer `w` inserts keys with parity `w` (globally unique), so every
/// received change maps back to exactly one (writer, transaction, op).
type Script = Vec<(bool, Vec<i64>)>;

/// The changes a script is expected to contribute, in that writer's
/// commit order, as `(k, v)` pairs.
fn expected(w: usize, script: &Script) -> Vec<(i64, i64)> {
    let mut key = w as i64;
    let mut out = Vec::new();
    for (commit, values) in script {
        for v in values {
            if *commit {
                out.push((key, *v));
            }
            key += 2;
        }
    }
    out
}

fn run_script(client: &mut Client, w: usize, script: &Script) {
    let mut key = w as i64;
    for (commit, values) in script {
        client.begin().unwrap();
        for v in values {
            client.query(&format!("INSERT INTO t VALUES ({key}, {v})")).unwrap();
            key += 2;
        }
        if *commit {
            client.commit().unwrap();
        } else {
            client.rollback().unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// However two concurrent writers interleave commits and aborts, each
    /// feed sees committed transactions only, whole (all-or-nothing, each
    /// transaction's changes contiguous), in a single global commit order
    /// consistent with every writer's issue order — and a `WHERE` feed
    /// sees exactly the passing subset of that same sequence, in the same
    /// order.
    #[test]
    fn feeds_see_committed_whole_transactions_in_commit_order(
        script_a in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(0i64..100, 1..4)), 1..5),
        script_b in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(0i64..100, 1..4)), 1..5),
        threshold in 0i64..100,
    ) {
        let (server, handle) =
            staged_net(ServerConfig { partitions: 2, ..ServerConfig::default() });
        let mut setup = connect(&handle);
        setup.query("CREATE TABLE t (k INT, v INT)").unwrap();

        let mut plain_conn = connect(&handle);
        let plain_feed = plain_conn.subscribe("t", None).unwrap();
        let mut where_conn = connect(&handle);
        let where_feed =
            where_conn.subscribe("t", Some(&format!("v >= {threshold}"))).unwrap();

        // Two writers race on their own connections.
        let scripts = [script_a, script_b];
        std::thread::scope(|scope| {
            for (w, script) in scripts.iter().enumerate() {
                let handle = &handle;
                scope.spawn(move || {
                    let mut c = connect(handle);
                    run_script(&mut c, w, script);
                    c.quit().unwrap();
                });
            }
        });

        // Both writers have committed (or aborted) everything: the
        // unsubscribe drains deliver each feed's complete history.
        let plain = plain_feed.unsubscribe().unwrap();
        let filtered = where_feed.unsubscribe().unwrap();

        let decoded: Vec<(i64, i64)> = plain
            .iter()
            .map(|c| {
                assert_eq!(c.table, "t");
                assert_eq!(c.op, ChangeOp::Insert);
                (
                    c.fields[0].as_ref().unwrap().parse::<i64>().unwrap(),
                    c.fields[1].as_ref().unwrap().parse::<i64>().unwrap(),
                )
            })
            .collect();

        // Committed-only and complete: per-writer projection preserves
        // that writer's issue order exactly; together the two projections
        // cover every received change, so nothing extra ever streams.
        for (w, script) in scripts.iter().enumerate() {
            let got: Vec<(i64, i64)> = decoded
                .iter()
                .copied()
                .filter(|(k, _)| (k % 2) as usize == w)
                .collect();
            prop_assert_eq!(got, expected(w, script), "writer {} projection", w);
        }

        // All-or-nothing and atomic: each transaction's changes form one
        // contiguous block of the global sequence.
        let mut txn_of = std::collections::HashMap::new();
        for (w, script) in scripts.iter().enumerate() {
            let mut key = w as i64;
            for (t, (_, values)) in script.iter().enumerate() {
                for _ in values {
                    txn_of.insert(key, (w, t));
                    key += 2;
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        let mut current = None;
        for (k, _) in &decoded {
            let txn = txn_of[k];
            if current != Some(txn) {
                prop_assert!(
                    seen.insert(txn),
                    "transaction {:?} split across the feed: {:?}", txn, decoded
                );
                current = Some(txn);
            }
        }

        // The WHERE feed is the exact passing subsequence of the same
        // global order.
        let want: Vec<Change> = plain
            .iter()
            .filter(|c| {
                c.fields[1].as_ref().unwrap().parse::<i64>().unwrap() >= threshold
            })
            .cloned()
            .collect();
        prop_assert_eq!(filtered, want);

        setup.quit().unwrap();
        plain_conn.quit().unwrap();
        where_conn.quit().unwrap();
        handle.shutdown();
        server.shutdown();
    }
}
