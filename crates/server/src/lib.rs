//! # staged-server — the assembled DBMS
//!
//! Two complete servers over the same storage / SQL / planner / engine
//! substrate, differing only in how they schedule a statement's steps:
//!
//! * [`StagedServer`] — the paper's design (Figure 3): client requests are
//!   encapsulated into packets that flow through nine registered stages,
//!   each an independent queue + worker pool on a
//!   [`staged_core::StagedRuntime`]: the statement path **net → connect →
//!   parse → optimize → lock → execute → disconnect**, plus the
//!   **checkpoint** and **replication** maintenance stages. DDL and
//!   transaction-control statements bypass the optimizer, DML detours
//!   through the lock-manager stage (and `CHECKPOINT` through it to the
//!   checkpoint stage), and prepared statements route straight
//!   from connect to execute, exactly the self-routing behaviours of §4.1.
//!   SELECT plans are executed on the staged page-push engine (or on the
//!   Volcano engine, configurable). Back-pressure on the connect queue
//!   gives the overload behaviour of §5.2 ([`StagedServer::try_submit`]).
//! * [`ThreadedServer`] — the work-centric baseline of §3.1: a pool of N
//!   threads, each picking a client from one input queue and running the
//!   entire pipeline as direct procedure calls. The pool is one stage of
//!   the same runtime, `pool`, beside the same `replication` stage.
//!
//! Everything that is not scheduling exists once. The statement steps
//! (`plan` → `admit` → `run` → `settle`) are the `Pipeline` of
//! [`pipeline`], and the session table its `admit` step reads — once per
//! statement — is the one owner of every session's transaction state;
//! recovery, the log, the checkpoint body, the feed pump
//! stage and the `STATS` rows are the `ServerCore` both servers are built
//! on; and every server, the [`ReplicaServer`] too, hands out the one
//! [`Session`] handle. Correctness is identical by construction and the
//! architectural comparison is apples-to-apples: the stage graph is the
//! only difference.
//!
//! The [`net`] module opens both servers to real TCP traffic with the text
//! wire protocol of `PROTOCOL.md`. The front end is **event-driven**: one
//! reader thread multiplexes every connection with a `poll(2)` readiness
//! loop, parses line frames incrementally from per-connection buffers, and
//! submits statements through each connection's [`Session`] without
//! blocking — the staged server admits through its bounded `net` stage,
//! the threaded baseline through its `pool` stage's queue, and when
//! either queue is full the loop simply stops reading that socket, so
//! back-pressure reaches TCP. The two servers still answer byte-identical
//! responses.
//!
//! The [`feed`] module is the one WAL feed both outbound streams are made
//! of — per-feed cursor over the log, bounded outbox, eviction of peers
//! that stop draining. [`replication`] instantiates it with raw-record
//! framing for STAR-style asymmetric roles: either server acts as a
//! **primary**, shipping committed WAL records to subscribed
//! [`ReplicaServer`]s over a `REPLICATE` feed, while replicas apply the
//! feed transactionally and serve snapshot reads only. [`reactivity`]
//! instantiates it with per-transaction `CHANGE` lines for `SUBSCRIBE`
//! change feeds: committed changes stream to clients whole transactions at
//! a time, in commit order.

#![deny(missing_docs)]

pub mod feed;
pub mod net;
pub mod pipeline;
pub mod reactivity;
pub mod replication;
mod server_core;
pub mod session;
pub mod staged_server;
pub mod threaded;
pub mod types;

pub use feed::{FeedStats, WalFeed};
pub use net::{serve, NetConfig, NetHandle, NetStats};
pub use reactivity::ReactivityHub;
pub use replication::{ReplicaConfig, ReplicaServer, ReplicaStatus, ReplicationHub};
pub use session::{Session, TxnRuntime};
pub use staged_server::StagedServer;
pub use threaded::ThreadedServer;
pub use types::{QueryOutput, Response, ServerConfig, ServerError};
