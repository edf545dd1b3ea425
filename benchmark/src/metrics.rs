//! The metric catalogue (names, units, directions, bounds — mirrored by
//! `BENCHMARK.json`, which a test keeps in step) and the counter snapshots
//! the per-layer figures are computed from. Every counter is read through
//! a public handle of the program; nothing is instrumented from inside.

use crate::stats::per_op;
use crate::world::World;
use staged_core::monitor::StageStats;
use staged_server::NetStats;
use staged_storage::buffer::PoolStats;
use staged_storage::disk::IoStats;
use staged_storage::PAGE_SIZE;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as declared in the manifest.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name: name.into(), unit, better, bound: None }
}

/// The end-to-end metrics. `op` is the workload's operation type (README:
/// transaction, lookup or scan); a workload × metric pair is the op-typed
/// figure (`txn_per_s` = `op_per_s` on `oltp_transfer`, and so on).
pub fn end_to_end_defs() -> Vec<MetricDef> {
    let bounded = |name: &str, unit, better, bound| MetricDef {
        name: name.into(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        // Widened from ISSUE 12's 10%/15% to three times the run-to-run
        // spread measured on this box (README, "Run-to-run spread").
        bounded("op_per_s", "1/s", "higher", 0.20),
        bounded("op_p50_us", "us", "lower", 0.20),
        bounded("op_tail_us", "us", "lower", 0.25),
        bounded("setup_s", "s", "lower", 0.25),
        bounded("peak_rss_mb", "MB", "lower", 0.15),
    ]
}

/// Top-level pipeline stages a statement can visit.
pub const PIPELINE_STAGES: [&str; 7] =
    ["net", "connect", "parse", "optimize", "lock", "execute", "disconnect"];
/// Execution-engine stages the benchmark's plans use.
pub const ENGINE_STAGES: [&str; 5] = ["fscan", "iscan", "aggr", "merge", "send"];
/// Ladder rungs, outermost last.
pub const RUNGS: [&str; 6] =
    ["storage", "engine", "engine_volcano", "session", "session_threaded", "wire"];
/// Hand-driven request spans, in request order.
pub const SPANS: [&str; 6] = ["wire_decode", "parse", "bind", "optimize", "execute", "wire_encode"];

/// The per-layer metrics, in report order.
pub fn per_layer_defs() -> Vec<MetricDef> {
    let mut d = Vec::new();
    for s in PIPELINE_STAGES {
        d.push(def(format!("stage.{s}.busy_us_per_op"), "us", "lower"));
        d.push(def(format!("stage.{s}.packets_per_op"), "count", "lower"));
    }
    d.push(def("stage.lock.retries_per_op", "count", "lower"));
    d.push(def("stage.idle_polls_per_op", "count", "lower"));
    d.push(def("stage.mean_cohort", "count", "higher"));
    d.push(def("stage.blocked_enqueues", "count", "lower"));
    d.push(def("stage.max_depth", "count", "lower"));
    for k in ENGINE_STAGES {
        d.push(def(format!("engine.{k}.busy_us_per_op"), "us", "lower"));
    }
    d.push(def("engine.packets_per_op", "count", "lower"));
    d.push(def("engine.idle_polls_per_op", "count", "lower"));
    d.push(def("engine.recover_ms", "ms", "lower"));
    d.push(def("checkpoint.count", "count", "higher"));
    d.push(def("checkpoint.busy_ms", "ms", "lower"));
    d.push(def("buffer.hit_ratio", "ratio", "higher"));
    d.push(def("buffer.fetches_per_op", "count", "lower"));
    d.push(def("buffer.evictions_per_op", "count", "lower"));
    d.push(def("disk.reads_per_op", "count", "lower"));
    d.push(def("disk.writes_per_op", "count", "lower"));
    d.push(def("wal.bytes_per_txn", "B", "lower"));
    d.push(def("wal.page_writes_per_txn", "count", "lower"));
    d.push(def("wal.syncs_per_txn", "count", "lower"));
    d.push(def("wal.live_segments_end", "count", "lower"));
    d.push(def("mvcc.dead_versions_end", "count", "lower"));
    d.push(def("mvcc.created_end", "count", "lower"));
    d.push(def("net.rejected", "count", "lower"));
    d.push(def("drift.last_over_first", "ratio", "higher"));
    d.push(def("peer.op_per_s", "1/s", "higher"));
    d.push(def("peer.op_p50_us", "us", "lower"));
    d.push(def("peer.op_tail_us", "us", "lower"));
    for r in RUNGS {
        d.push(def(format!("ladder.{r}_us"), "us", "lower"));
    }
    d.push(def("self.staging_us", "us", "lower"));
    d.push(def("self.socket_us", "us", "lower"));
    d.push(def("ladder.explained_share", "ratio", "higher"));
    for s in SPANS {
        d.push(def(format!("span.{s}_us"), "us", "lower"));
    }
    d.push(def("trace.overhead_share", "ratio", "lower"));
    d
}

/// Every monotonic counter the harness can see, taken at one instant.
pub struct Counters {
    stages: Vec<StageStats>,
    engine: Vec<StageStats>,
    pool: PoolStats,
    disk: IoStats,
    wal: IoStats,
    net: NetStats,
}

impl Counters {
    /// Snapshot `world`'s counters.
    pub fn take(world: &World) -> Counters {
        Counters {
            stages: world.server.stage_stats(),
            engine: world.server.engine_stats(),
            pool: world.catalog.pool().stats(),
            disk: world.catalog.pool().disk().stats(),
            wal: world.server.wal().io_stats(),
            net: world.net.stats(),
        }
    }
}

fn stage<'a>(stats: &'a [StageStats], name: &str) -> Option<&'a StageStats> {
    stats.iter().find(|s| s.name == name)
}

/// `after − before` of one stage's counter (0 when the stage is absent).
fn delta(
    before: &[StageStats],
    after: &[StageStats],
    name: &str,
    field: fn(&StageStats) -> u64,
) -> u64 {
    match (stage(before, name), stage(after, name)) {
        (Some(b), Some(a)) => field(a).saturating_sub(field(b)),
        _ => 0,
    }
}

/// The counter-delta metrics of one measured window in which `ops`
/// operations (all connections) and `txns` write transactions completed. Gauges (`*_end`, `stage.max_depth`) are read from `after`
/// and from `world` as it stands.
pub fn window_metrics(
    world: &World,
    before: &Counters,
    after: &Counters,
    ops: u64,
    txns: u64,
) -> Vec<(String, f64)> {
    let mut m: Vec<(String, f64)> = Vec::new();
    let packets = |s: &StageStats| s.processed + s.errors;
    let (b, a) = (&before.stages, &after.stages);
    for s in PIPELINE_STAGES {
        let busy = delta(b, a, s, |s| s.busy_nanos);
        m.push((format!("stage.{s}.busy_us_per_op"), per_op(busy, ops) / 1e3));
        m.push((format!("stage.{s}.packets_per_op"), per_op(delta(b, a, s, packets), ops)));
    }
    m.push(("stage.lock.retries_per_op".into(), per_op(delta(b, a, "lock", |s| s.retries), ops)));
    let sum = |field: fn(&StageStats) -> u64| -> u64 {
        PIPELINE_STAGES.iter().map(|s| delta(b, a, s, field)).sum()
    };
    m.push(("stage.idle_polls_per_op".into(), per_op(sum(|s| s.idle_polls), ops)));
    m.push(("stage.mean_cohort".into(), per_op(sum(packets), sum(|s| s.cohorts))));
    m.push(("stage.blocked_enqueues".into(), sum(|s| s.queue.blocked_enqueues) as f64));
    let max_depth = a.iter().map(|s| s.queue.max_depth).max().unwrap_or(0);
    m.push(("stage.max_depth".into(), max_depth as f64));

    let (eb, ea) = (&before.engine, &after.engine);
    for k in ENGINE_STAGES {
        let busy = delta(eb, ea, k, |s| s.busy_nanos);
        m.push((format!("engine.{k}.busy_us_per_op"), per_op(busy, ops) / 1e3));
    }
    let engine_sum = |field: fn(&StageStats) -> u64| -> u64 {
        ea.iter().map(|s| delta(eb, ea, &s.name, field)).sum()
    };
    m.push(("engine.packets_per_op".into(), per_op(engine_sum(packets), ops)));
    m.push(("engine.idle_polls_per_op".into(), per_op(engine_sum(|s| s.idle_polls), ops)));

    m.push(("checkpoint.count".into(), delta(b, a, "checkpoint", |s| s.processed) as f64));
    m.push(("checkpoint.busy_ms".into(), delta(b, a, "checkpoint", |s| s.busy_nanos) as f64 / 1e6));

    let hits = after.pool.hits - before.pool.hits;
    let misses = after.pool.misses - before.pool.misses;
    m.push(("buffer.hit_ratio".into(), per_op(hits, hits + misses)));
    m.push(("buffer.fetches_per_op".into(), per_op(hits + misses, ops)));
    m.push((
        "buffer.evictions_per_op".into(),
        per_op(after.pool.evictions - before.pool.evictions, ops),
    ));
    m.push(("disk.reads_per_op".into(), per_op(after.disk.reads - before.disk.reads, ops)));
    m.push(("disk.writes_per_op".into(), per_op(after.disk.writes - before.disk.writes, ops)));

    // Log space is handed out in pages, so bytes are page-granular.
    let wal_pages = after.wal.allocations - before.wal.allocations;
    m.push(("wal.bytes_per_txn".into(), per_op(wal_pages * PAGE_SIZE as u64, txns)));
    m.push(("wal.page_writes_per_txn".into(), per_op(after.wal.writes - before.wal.writes, txns)));
    m.push(("wal.syncs_per_txn".into(), per_op(after.wal.syncs - before.wal.syncs, txns)));
    let live = world.server.wal().segments().map_or(0, |s| s.len());
    m.push(("wal.live_segments_end".into(), live as f64));

    let (mut dead, mut created) = (0, 0);
    for t in world.catalog.list_tables() {
        let v = t.versions.stats();
        dead += v.dead;
        created += v.created;
    }
    m.push(("mvcc.dead_versions_end".into(), dead as f64));
    m.push(("mvcc.created_end".into(), created as f64));
    m.push(("net.rejected".into(), (after.net.rejected - before.net.rejected) as f64));
    m
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        let e2e = end_to_end_defs();
        let layers = per_layer_defs();
        assert!(e2e.len() <= 16 && layers.len() <= 128);
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|d| d.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is declared twice");
        assert!(e2e.iter().any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        assert!(e2e.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }
}
