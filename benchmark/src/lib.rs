//! The repo benchmark: closed-loop wire workloads against an in-process
//! `StagedServer` behind `net::serve`, end-to-end metrics from an untraced
//! run, and per-layer metrics — counter deltas, a layer ladder and
//! hand-driven request spans — from a separate traced run. See README.md.

#![deny(missing_docs)]

pub mod gen;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod run;
pub mod span;
pub mod stats;
pub mod workloads;
pub mod world;
