//! How many threads a default staged server starts. A binary of its own,
//! with one test, so no other test's threads are counted.

use staged_db::engine::staged::EngineConfig;
use staged_db::server::{ServerConfig, StagedServer};
use staged_db::storage::{BufferPool, Catalog, MemDisk};
use std::sync::Arc;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("a Linux /proc").count()
}

/// Nine server stages of one worker each, plus the engine's seven stages:
/// one worker each, but one per core (at most eight) on `fscan`.
#[test]
fn a_default_staged_server_starts_one_worker_per_stage() {
    let before = threads();
    let catalog = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 64)));
    let server = StagedServer::new(catalog, ServerConfig::default());
    let started = threads() - before;
    assert_eq!(started, 9 + 6 + EngineConfig::default().scan_workers());
    server.shutdown();
    // A joined thread leaves `/proc` a moment after its join returns.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while threads() > before {
        assert!(std::time::Instant::now() < deadline, "shutdown left workers running");
        std::thread::yield_now();
    }
}
