//! # staged-engine — the relational execution engine
//!
//! Two complete implementations of the same physical plans:
//!
//! * [`volcano`] — classic pull-based iterators (open/next/close). This is
//!   the *monolithic baseline*: the whole query executes as one call chain
//!   on the calling thread, exactly the work-centric model whose cache
//!   behaviour §3.1 of the paper criticizes.
//! * [`staged`] — the paper's staged execution engine (§4.1.2, §4.3):
//!   operators are packets queued at stages (fscan, iscan, sort, join,
//!   aggregate, send), activated bottom-up, exchanging **pages of tuples**
//!   through bounded producer/consumer buffers; a task that cannot proceed
//!   requeues itself ("a stage thread that cannot momentarily continue
//!   execution enqueues the current packet in the same stage's queue").
//!   Scans of the same table can be **shared** (§5.4 multi-query
//!   optimization): a circular scan multicasts pages to every concurrent
//!   reader.
//!
//! Both engines share [`expr`] (expression evaluation), [`agg`] (aggregate
//! accumulators), [`probe`] (the snapshot-aware index probe) and [`dml`]
//! (INSERT/UPDATE/DELETE with WAL logging), so differential tests can
//! compare them tuple-for-tuple.

#![deny(missing_docs)]

pub mod agg;
pub mod batch;
pub mod checkpoint;
pub mod context;
pub mod dml;
pub mod error;
pub mod expr;
pub mod probe;
pub mod staged;
pub mod txn;
pub mod volcano;

pub use batch::TupleBatch;
pub use context::ExecContext;
pub use error::{EngineError, EngineResult};
