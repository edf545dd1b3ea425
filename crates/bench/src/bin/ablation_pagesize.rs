//! Ablation A2 (paper §4.4c): "the page size for exchanging intermediate
//! results among the execution engine stages … affects the time a stage
//! spends working on a query before it switches to a different one."
//!
//! The page size is fixed per engine (`EngineConfig::batch_capacity`),
//! so each cell of the sweep builds its own engine at that size. Two
//! query shapes are swept — the hash join whose probe stream dominates
//! exchange traffic, and a scan-heavy two-phase aggregate over 4
//! partitions (the `perf_trajectory` headline shape) — and each cell
//! reports wall-clock time and speedup over the one-tuple-per-page
//! degenerate cell, which reproduces the pre-batch per-tuple exchange
//! semantics.
//!
//! Pass `quick` for the CI smoke run (smaller tables, fewer reps).

use staged_bench::{mem_catalog, plan};
use staged_engine::context::ExecContext;
use staged_engine::staged::{EngineConfig, StagedEngine};
use staged_planner::PhysicalPlan;
use staged_workload::{load_wisconsin_table, load_wisconsin_table_partitioned};
use std::sync::Arc;
use std::time::Instant;

const PAGES: [usize; 7] = [1, 4, 16, 64, 256, 1024, 4096];

/// Sweep the page size, one engine per cell, best-of-`reps` per cell.
fn sweep(label: &str, ctx: &ExecContext, plan: &PhysicalPlan, expect: usize, reps: usize) {
    println!("\n{label}");
    println!("{:>12} {:>12} {:>10} {:>10}", "tuples/page", "time (ms)", "speedup", "rows");
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get()).clamp(2, 8);
    let mut base = f64::MIN;
    for page in PAGES {
        let cfg = EngineConfig { batch_capacity: page, workers_per_stage: workers };
        let engine = StagedEngine::new(ctx.clone(), cfg);
        // Warm once so every cell starts from hot caches.
        engine.execute(plan).collect().unwrap();
        let mut best = f64::MAX;
        let mut rows = 0;
        for _ in 0..reps {
            let start = Instant::now();
            rows = engine.execute(plan).collect().unwrap().len();
            best = best.min(start.elapsed().as_secs_f64() * 1000.0);
        }
        engine.shutdown();
        assert_eq!(rows, expect, "page {page} changed the result set");
        if page == 1 {
            base = best;
        }
        println!("{page:>12} {best:>12.2} {:>9.2}x {rows:>10}", base / best);
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let rows = if quick { 4_000 } else { 20_000 };
    let reps = if quick { 2 } else { 3 };

    let catalog = mem_catalog(8192);
    load_wisconsin_table(&catalog, "ta", rows, 1).unwrap();
    load_wisconsin_table(&catalog, "tb", rows, 2).unwrap();
    load_wisconsin_table_partitioned(&catalog, "big", rows, 5, 4).unwrap();
    let join = plan(
        &catalog,
        "SELECT ta.ten, COUNT(*) FROM ta, tb WHERE ta.unique1 = tb.unique1 GROUP BY ta.ten",
    );
    let agg = plan(
        &catalog,
        "SELECT ten, COUNT(*), SUM(unique2), MIN(unique1), MAX(unique1) \
         FROM big WHERE two = 0 GROUP BY ten",
    );

    let ctx = ExecContext::new(Arc::clone(&catalog));
    println!(
        "exchange page size sweep, one engine per cell \
         (knob c, {rows}-row tables, best of {reps})"
    );
    sweep(&format!("hash join {rows} ⋈ {rows} + group"), &ctx, &join, 10, reps);
    sweep(&format!("scan-aggregate, {rows} rows × 4 partitions"), &ctx, &agg, 5, reps);
    println!(
        "\nExpected: one-tuple pages drown in per-page hand-off overhead (the\n\
         pre-batch semantics); throughput climbs steeply through the tens and\n\
         hundreds, then flattens once per-page costs are fully amortized —\n\
         very large pages trade away pipelining (a stage must fill a whole\n\
         page before its consumer runs) and back-pressure granularity."
    );
}
