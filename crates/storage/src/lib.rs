//! # staged-storage — the storage manager
//!
//! The paper built on the SHORE storage manager; this crate is our from-
//! scratch Rust equivalent (DESIGN.md §4, substitution 1): typed values and
//! schemas, 8 KiB slotted pages, pluggable disk managers (in-memory and
//! file-backed, both with I/O accounting and optional simulated latency so
//! Workload A can be made I/O-bound deterministically), a buffer pool with
//! clock replacement, heap files, a page-backed B+tree, a write-ahead log,
//! and an in-memory catalog with table/column statistics for the optimizer.
//!
//! Everything above the disk manager is thread-safe; stages in the staged
//! server share one [`buffer::BufferPool`] and one [`catalog::Catalog`],
//! which is exactly the "unified buffer manager" argument of paper §5.2.

#![deny(missing_docs)]

pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod disk;
pub mod error;
pub mod heap;
pub mod mvcc;
pub mod page;
pub mod partition;
pub mod schema;
pub mod segment;
pub mod snapshot;
pub mod stats;
pub mod tuple;
pub mod value;
pub mod wal;

pub use buffer::BufferPool;
pub use catalog::Catalog;
pub use disk::{DiskManager, FileDisk, MemDisk};
pub use error::{StorageError, StorageResult};
pub use mvcc::{CommitOracle, ReadView, SnapshotGuard, VacuumStats, VersionStats, VersionStore};
pub use page::{PageId, PAGE_SIZE};
pub use partition::{partition_of_value, PartitionedHeap};
pub use schema::{Column, Schema};
pub use segment::{FileSegmentStore, MemSegmentStore, SegmentStore};
pub use snapshot::{FileSnapshotStore, MemSnapshotStore, Snapshot, SnapshotStore};
pub use tuple::{Rid, Tuple};
pub use value::{DataType, Value};
pub use wal::{LogRecord, Lsn, Wal, DEFAULT_SEGMENT_PAGES};
