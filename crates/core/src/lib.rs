//! # staged-core — the staging runtime
//!
//! This crate implements the primary contribution of *"A Case for Staged
//! Database Systems"* (Harizopoulos & Ailamaki, CIDR 2003): a server design
//! in which the software is broken into self-contained **stages** connected
//! by **queues**. Work travels between stages as **packets** that carry a
//! query's state (its *backpack*). Each stage owns its data structures, has
//! its own worker-thread pool and makes local scheduling decisions; a global
//! scheduler arbitrates the CPU between stages.
//!
//! The crate provides two runtimes:
//!
//! * [`runtime::StagedRuntime`] — a production, OS-threaded runtime. Each
//!   stage gets a bounded [`queue::StageQueue`] and a worker pool fixed
//!   when the runtime is built. Full queues exert **back-pressure**:
//!   `enqueue` blocks the producer, so demand beyond capacity conditions
//!   the pipeline instead of collapsing it (paper §4.1.1). Workers serve
//!   the queue in **cohorts** — gated batches per queue visit
//!   ([`stage::BatchPolicy`], paper §4.2's cohort scheduling), bounded by
//!   the stage's build-time cohort bound. On an SMP this is the natural
//!   "stage per CPU" mapping of paper §5.3.
//! * [`coop::CoopExecutor`] — a deterministic, virtual-time, single-CPU
//!   cooperative executor used to study the scheduling trade-off of paper
//!   §4.2. It charges an explicit *module load time* `l_i` whenever the CPU
//!   switches to a stage whose common working set is not cached, and runs one
//!   of the [`policy::Policy`] disciplines (PS, FCFS, non-gated, D-gated,
//!   T-gated(k)).
//!
//! Per-stage monitoring ([`monitor`]) is the paper's §4.4 raw material;
//! the self-tuning loop §4.4 sketches on top of it is not implemented —
//! every stage's parameters are fixed when it is built (DESIGN.md §11).
//!
//! The crate is dependency-light and knows nothing about databases; the
//! `staged-server` crate assembles an actual DBMS from it.

#![deny(missing_docs)]

pub mod coop;
pub mod error;
pub mod monitor;
pub mod packet;
pub mod policy;
pub mod queue;
pub mod runtime;
pub mod stage;

pub use error::{EnqueueError, StageError};
pub use packet::{ClientInfo, Packet, QueryId, RouteInfo};
pub use policy::Policy;
pub use queue::StageQueue;
pub use runtime::{RuntimeBuilder, StagedRuntime};
pub use stage::{BatchPolicy, StageCtx, StageId, StageLogic, StageSpec};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::coop::{CoopConfig, CoopExecutor, Job, SegKind, Segment};
    pub use crate::error::{EnqueueError, StageError};
    pub use crate::monitor::StageStats;
    pub use crate::packet::{ClientInfo, Packet, QueryId, RouteInfo};
    pub use crate::policy::Policy;
    pub use crate::queue::StageQueue;
    pub use crate::runtime::{RuntimeBuilder, StagedRuntime};
    pub use crate::stage::{BatchPolicy, StageCtx, StageId, StageLogic, StageSpec};
}
