//! # staged-engine — the relational execution engine
//!
//! Two engines run the same physical plans with the same operator code:
//!
//! * [`volcano`] — classic pull-based iterators (open/next/close). This is
//!   the *monolithic baseline*: the whole query executes as one call chain
//!   on the calling thread, exactly the work-centric model whose cache
//!   behaviour §3.1 of the paper criticizes.
//! * [`staged`] — the paper's staged execution engine (§4.1.2, §4.3):
//!   operators are packets queued at stages (fscan, iscan, sort, join,
//!   aggregate, merge, send), activated bottom-up, exchanging **pages of
//!   tuples** through bounded producer/consumer buffers; a task with more
//!   work yields by requeueing itself, and a task that cannot proceed parks,
//!   out of every queue, until a buffer it waits on moves (§4.1.1 case
//!   iii). Every scan is one query's own page scan; the §5.4 shared scans
//!   are not implemented (DESIGN.md §3).
//!
//! Staging changes when an operator's code runs, not what it is (§4.1), so
//! each operator has one kernel both engines call, and an engine keeps only
//! its control flow — pulling rows, or moving pages under a quota:
//!
//! * [`kernel`] — the hash join table, the join pair (concat, then the
//!   residual) of all three joins, the merge join, sort and distinct;
//! * [`transform`] — filters, projections and limits, compiled once and
//!   fused into whatever produces their input;
//! * [`agg`] — aggregate accumulators, the group table and the merge of
//!   partial aggregates;
//! * [`probe`] — the snapshot-aware index probe;
//! * [`expr`] — expression evaluation; [`dml`] — INSERT/UPDATE/DELETE with
//!   WAL logging.

#![deny(missing_docs)]

pub mod agg;
pub mod checkpoint;
pub mod context;
pub mod dml;
pub mod error;
pub mod expr;
pub mod kernel;
pub mod probe;
pub mod staged;
pub mod transform;
pub mod txn;
pub mod volcano;

pub use context::ExecContext;
pub use error::{EngineError, EngineResult};
