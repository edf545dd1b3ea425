//! # staged-db — a Staged Database System
//!
//! A from-scratch Rust reproduction of *"A Case for Staged Database
//! Systems"* (Harizopoulos & Ailamaki, CIDR 2003): a relational DBMS whose
//! software is decomposed into self-contained **stages** connected by
//! queues, with packets carrying each query's state through
//! connect → parse → optimize → execute → disconnect, and a staged
//! page-push execution engine (fscan / iscan / sort / join / aggregate /
//! send) with shared scans.
//!
//! This umbrella crate re-exports the workspace members; see README.md for
//! the quickstart and DESIGN.md / EXPERIMENTS.md for the reproduction
//! details.
//!
//! ```
//! use staged_db::server::{StagedServer, ServerConfig};
//! use staged_db::storage::{BufferPool, Catalog, MemDisk};
//! use std::sync::Arc;
//!
//! let catalog = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 256)));
//! let server = StagedServer::new(catalog, ServerConfig::default());
//! server.execute_sql("CREATE TABLE kv (k INT, v VARCHAR(16))").unwrap();
//! server.execute_sql("INSERT INTO kv VALUES (1, 'one')").unwrap();
//! let out = server.execute_sql("SELECT v FROM kv WHERE k = 1").unwrap();
//! assert_eq!(out.rows.len(), 1);
//! server.shutdown();
//! ```

/// The staging runtime (stages, queues, packets, policies, monitors).
pub use staged_core as core;

/// Software cache models and Table-1 reference classification.
pub use staged_cachesim as cachesim;

/// Discrete-event simulators for the paper's experiments.
pub use staged_sim as sim;

/// Storage manager (pages, buffer pool, heap files, B+tree, WAL, catalog).
pub use staged_storage as storage;

/// SQL front end (lexer, parser, binder, rewriter).
pub use staged_sql as sql;

/// Query optimizer (cost model, join ordering, physical plans).
pub use staged_planner as planner;

/// Execution engines (Volcano baseline and staged page-push).
pub use staged_engine as engine;

/// The assembled servers (staged pipeline and thread-pool baseline).
pub use staged_server as server;

/// The text wire protocol (framing, commands, error codes) — PROTOCOL.md.
pub use staged_wire as wire;

/// TCP client library for the wire protocol (and the `dbsh` shell).
pub use staged_dbclient as dbclient;

/// Wisconsin-style workload generators.
pub use staged_workload as workload;
