//! `CHECKPOINT` as a statement: it waits for every partition lock on the
//! same path as any writer, is refused inside a transaction, and reaches
//! the server by one path whether a client sends the `CHECKPOINT`
//! shorthand or `QUERY CHECKPOINT`.

use staged_db::dbclient::{Client, ClientError, QueryResult};
use staged_db::planner::PlannerConfig;
use staged_db::server::net::{self, NetConfig, NetHandle};
use staged_db::server::{ReplicaConfig, ReplicaServer, ServerConfig, StagedServer, ThreadedServer};
use staged_db::storage::{BufferPool, Catalog, MemDisk, MemSegmentStore};
use staged_db::wire::ErrorCode;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Long enough that a checkpoint waiting out its locks would be seen.
const LOCK_TIMEOUT: Duration = Duration::from_secs(5);

fn fresh_catalog() -> Arc<Catalog> {
    Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 1024)))
}

fn listener() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port")
}

fn staged() -> Arc<StagedServer> {
    let config = ServerConfig { partitions: 2, lock_timeout: LOCK_TIMEOUT, ..Default::default() };
    StagedServer::new(fresh_catalog(), config)
}

/// A primary's name, its TCP front end, and its shutdown hook.
type Primary = (&'static str, NetHandle, Box<dyn FnOnce()>);

/// Both primaries behind a TCP front end.
fn primaries() -> Vec<Primary> {
    let s = staged();
    let staged_handle = net::serve(listener(), Arc::clone(&s), NetConfig::default()).unwrap();
    let t = Arc::new(ThreadedServer::with_lock_timeout(
        fresh_catalog(),
        2,
        PlannerConfig::default(),
        LOCK_TIMEOUT,
    ));
    let threaded_handle = net::serve(listener(), Arc::clone(&t), NetConfig::default()).unwrap();
    vec![
        ("staged", staged_handle, Box::new(move || s.shutdown())),
        ("threaded", threaded_handle, Box::new(move || t.shutdown())),
    ]
}

fn connect(handle: &NetHandle) -> Client {
    Client::connect_timeout(handle.local_addr(), Duration::from_secs(5)).expect("connect")
}

fn assert_checkpointed(res: Result<QueryResult, ClientError>, what: &str) {
    let out = res.unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(out.tag.starts_with("CHECKPOINT "), "{what}: got {:?}", out.tag);
}

/// A `CHECKPOINT` sent inside the client's own transaction would wait on
/// the locks that transaction holds. It is refused at once instead, and
/// the transaction goes on to commit.
#[test]
fn checkpoint_inside_a_transaction_is_refused_at_once() {
    for (name, handle, shutdown) in primaries() {
        let mut c = connect(&handle);
        c.query("CREATE TABLE t (id INT, v INT)").unwrap();
        for read_only in [false, true] {
            let what = format!("{name}, read_only={read_only}");
            if read_only {
                c.begin_read_only().unwrap();
            } else {
                c.begin().unwrap();
                c.query("INSERT INTO t VALUES (1, 10)").unwrap();
            }
            let started = Instant::now();
            let refused = c.checkpoint();
            assert!(started.elapsed() < Duration::from_secs(1), "{what}: refusal took too long");
            match refused {
                Err(ClientError::Server { code: ErrorCode::Exec, message }) => {
                    assert!(
                        message.contains("cannot run inside a transaction"),
                        "{what}: {message}"
                    )
                }
                other => panic!("{what}: expected the refusal, got {other:?}"),
            }
            assert_eq!(c.commit().unwrap().tag, "COMMIT", "{what}");
        }
        let rows = c.query("SELECT id, v FROM t").unwrap().rows;
        assert_eq!(rows, vec![vec![Some("1".into()), Some("10".into())]], "{name}");
        assert_checkpointed(c.checkpoint(), name);
        c.quit().unwrap();
        handle.shutdown();
        shutdown();
    }
}

/// The `CHECKPOINT` shorthand and `QUERY CHECKPOINT` are one statement:
/// both checkpoint a primary, and a replica refuses both as a write.
#[test]
fn checkpoint_shorthand_and_query_take_one_path() {
    for (name, handle, shutdown) in primaries() {
        let mut c = connect(&handle);
        c.query("CREATE TABLE t (id INT)").unwrap();
        c.query("INSERT INTO t VALUES (1), (2)").unwrap();
        assert_checkpointed(c.checkpoint(), name);
        assert_checkpointed(c.query("CHECKPOINT"), name);
        assert_checkpointed(c.query("checkpoint;"), name);
        c.quit().unwrap();
        handle.shutdown();
        shutdown();
    }

    let segments = Arc::new(MemSegmentStore::new());
    let replica = ReplicaServer::open(fresh_catalog(), segments, ReplicaConfig::default()).unwrap();
    let handle = net::serve(listener(), Arc::clone(&replica), NetConfig::default()).unwrap();
    let mut c = connect(&handle);
    for res in [c.checkpoint(), c.query("CHECKPOINT")] {
        assert!(
            matches!(res, Err(ClientError::Server { code: ErrorCode::ReadOnlyReplica, .. })),
            "replica: got {res:?}"
        );
    }
    c.quit().unwrap();
    handle.shutdown();
    replica.shutdown();
}

/// A checkpoint parked behind a writer starts when that writer's `COMMIT`
/// releases its lock — the lock stage re-admits it — not by polling: the
/// `checkpoint` stage counts no retries, the `lock` stage counts the park.
#[test]
fn a_parked_checkpoint_starts_on_the_writers_release() {
    let server = staged();
    server.execute_sql("CREATE TABLE t (id INT, v INT)").unwrap();
    let retries = |stage: &str| {
        let stats = server.stage_stats();
        stats.iter().find(|s| s.name == stage).map(|s| s.retries).expect(stage)
    };
    let lock_retries = retries("lock");
    let writer = server.session();
    writer.execute_sql("BEGIN").unwrap();
    writer.execute_sql("INSERT INTO t VALUES (1, 1)").unwrap();

    let checkpoint = server.submit("CHECKPOINT");
    let parked_by = Instant::now() + LOCK_TIMEOUT / 2;
    while retries("lock") == lock_retries {
        assert!(Instant::now() < parked_by, "the checkpoint never parked at the lock stage");
        std::thread::yield_now();
    }
    assert!(checkpoint.try_recv().is_err(), "checkpoint ran beside an open writer");

    writer.execute_sql("COMMIT").unwrap();
    let committed = Instant::now();
    let out = checkpoint.recv_timeout(LOCK_TIMEOUT).unwrap().unwrap();
    assert!(committed.elapsed() < Duration::from_secs(1), "woken by the release, not a timeout");
    assert!(out.message.contains("rows=1"), "the committed row is in the snapshot: {out:?}");
    assert_eq!(retries("checkpoint"), 0, "the checkpoint stage never polled");
    drop(writer);
    server.shutdown();
}
