//! The program under test, as every workload sees it: a seeded data set
//! behind a `StagedServer` behind `net::serve` on a loopback port — the
//! same code path as the `dbserver` binary, started in-process so the
//! harness can read the public counter handles.

use crate::gen::{ACCOUNTS, BALANCE, LOOKUP_ROWS, PARTITIONS, SCAN_ROWS};
use staged_server::net::{self, NetConfig, NetHandle};
use staged_server::{ServerConfig, StagedServer};
use staged_storage::{
    BufferPool, Catalog, Column, DataType, MemDisk, MemSegmentStore, MemSnapshotStore, Schema,
    Tuple, Value,
};
use staged_workload::{wisconsin_rows, wisconsin_schema};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// Buffer-pool frames for the tables that fit (`accounts` loads onto 50
/// heap pages, the 20,000-row Wisconsin table onto 248).
pub const FIT_POOL_FRAMES: usize = 4096;
/// Buffer-pool frames for `scan_agg`: a quarter of the 1,236 heap pages
/// of the 100,000-row table, so every scan evicts its way through.
pub const SCAN_POOL_FRAMES: usize = 309;

/// Pages per WAL segment. Smaller than the server default (256) so that
/// the log rotates — and auto-checkpoints fire — several times inside one
/// short measured window; see the README for the measured cycle count.
pub const WAL_SEGMENT_PAGES: u64 = 16;
/// Live WAL segments above which the checkpoint stage starts on its own.
pub const CHECKPOINT_SEGMENTS: u64 = 2;

/// The server settings every workload and every ladder rung uses.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        partitions: PARTITIONS,
        wal_segment_pages: WAL_SEGMENT_PAGES,
        checkpoint_segments: Some(CHECKPOINT_SEGMENTS),
        ..Default::default()
    }
}

/// The three data sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// 16,384 indexed accounts of balance 100.
    Accounts,
    /// 20,000 Wisconsin rows, B+tree on `unique1`, fits the pool.
    Lookup,
    /// 100,000 Wisconsin rows, pool a quarter of the table.
    Scan,
}

impl Dataset {
    /// Rows of the Wisconsin table, when the set has one.
    pub fn wisconsin_len(self) -> Option<usize> {
        match self {
            Dataset::Accounts => None,
            Dataset::Lookup => Some(LOOKUP_ROWS),
            Dataset::Scan => Some(SCAN_ROWS),
        }
    }

    /// The table the set's operations touch.
    pub fn table(self) -> &'static str {
        match self {
            Dataset::Accounts => "accounts",
            _ => "big",
        }
    }
}

/// An empty catalog over a fresh in-memory disk and a pool of `frames`.
pub fn empty_catalog(frames: usize) -> Arc<Catalog> {
    Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), frames)))
}

/// Build and load `dataset` for run `seed`: 2-way hash-partitioned on the
/// first column, indexed on it, analyzed.
pub fn build_catalog(dataset: Dataset, seed: u64) -> Arc<Catalog> {
    let frames = if dataset == Dataset::Scan { SCAN_POOL_FRAMES } else { FIT_POOL_FRAMES };
    let catalog = empty_catalog(frames);
    let (schema, rows, key): (Schema, Vec<Tuple>, &str) = match dataset.wisconsin_len() {
        None => (
            Schema::new(vec![Column::new("id", DataType::Int), Column::new("bal", DataType::Int)]),
            (0..ACCOUNTS).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(BALANCE)])).collect(),
            "id",
        ),
        Some(n) => (wisconsin_schema(), wisconsin_rows(n, seed), "unique1"),
    };
    let name = dataset.table();
    let table =
        catalog.create_table_partitioned(name, schema, PARTITIONS, 0).expect("create table");
    for row in &rows {
        table.heap.insert(row).expect("load row");
    }
    catalog.create_index(&format!("{name}_{key}"), name, key).expect("create index");
    catalog.analyze_table(name).expect("analyze");
    if dataset == Dataset::Scan {
        // The workload's point is a table larger than the cache; fail
        // loudly if a storage-format change ever makes it fit.
        let pages = table.heap.num_pages();
        assert!(
            pages >= 3 * SCAN_POOL_FRAMES,
            "scan_agg table is {pages} pages, pool {SCAN_POOL_FRAMES}: no longer ~4x the cache"
        );
    }
    catalog
}

/// A running server with its front end and the stores behind its WAL.
pub struct World {
    /// The catalog the server runs over (shared handle).
    pub catalog: Arc<Catalog>,
    /// The staged server.
    pub server: Arc<StagedServer>,
    /// The TCP front end.
    pub net: NetHandle,
    /// WAL segments (kept so the recovery gate can replay them).
    pub segments: Arc<MemSegmentStore>,
    /// Checkpoint snapshots (same).
    pub snapshots: Arc<MemSnapshotStore>,
}

impl World {
    /// Load `dataset`, start the server over fresh in-memory stores and
    /// open the front end on an ephemeral loopback port. Write workloads
    /// (`Accounts`) start from a checkpoint, as a bulk load would be made
    /// durable — the load itself bypasses the WAL.
    pub fn start(dataset: Dataset, seed: u64) -> World {
        let catalog = build_catalog(dataset, seed);
        let segments = Arc::new(MemSegmentStore::new());
        let snapshots = Arc::new(MemSnapshotStore::new());
        let server = StagedServer::with_stores(
            Arc::clone(&catalog),
            server_config(),
            None,
            Arc::clone(&segments) as _,
            Arc::clone(&snapshots) as _,
        )
        .expect("fresh stores recover trivially");
        if dataset == Dataset::Accounts {
            server.checkpoint().expect("initial checkpoint");
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let net = net::serve(listener, Arc::clone(&server), NetConfig::default()).expect("serve");
        World { catalog, server, net, segments, snapshots }
    }

    /// `"<table>: N heap pages, pool M frames"`, for the run's report.
    pub fn sizes(&self, dataset: Dataset) -> String {
        let table = dataset.table();
        let pages = self.catalog.table(table).map_or(0, |t| t.heap.num_pages());
        format!("{table}: {pages} heap pages, pool {} frames", self.catalog.pool().capacity())
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// Stop the front end, then the server; both join their threads.
    pub fn shutdown(&self) {
        self.net.shutdown();
        self.server.shutdown();
    }
}
