//! Ablation A5 (paper §6): partition-parallel staged execution. One
//! Wisconsin table loaded at 1/2/4/8 hash partitions; the staged engine
//! fans each scan/aggregate out into per-partition partial pipelines that
//! converge at the merge stage. Reports wall time, per-query throughput and
//! speedup over the single-partition layout, for a scan-heavy aggregate and
//! a partition-pruned point-lookup mix.
//!
//! Pass `quick` for the CI smoke run (small table, one repetition).
//! Speedup on the scan workload needs real cores: the `fscan` stage serves
//! one packet per visit, so its workers take one partition packet each.
//! On a single-core host every layout should land within noise of 1×,
//! while correctness (the printed result check) holds everywhere.

use staged_bench::{mem_catalog, plan};
use staged_engine::context::ExecContext;
use staged_engine::staged::{EngineConfig, StagedEngine};
use staged_planner::PhysicalPlan;
use staged_workload::load_wisconsin_table_partitioned;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let rows: usize = if quick { 20_000 } else { 200_000 };
    let reps: usize = if quick { 1 } else { 5 };
    let workers = std::thread::available_parallelism().map_or(8, |n| n.get()).clamp(2, 16);
    println!(
        "Wisconsin table, {rows} rows, partitions swept 1→8; staged engine with \
         {workers} workers/stage, {reps} rep(s) per cell"
    );
    println!(
        "{:>10} {:>14} {:>12} {:>10} {:>14} {:>12} {:>10}",
        "partitions", "scan-agg (ms)", "rows/s", "speedup", "lookups (ms)", "lookups/s", "speedup"
    );
    let mut base_scan = 0.0f64;
    let mut base_point = 0.0f64;
    for parts in [1usize, 2, 4, 8] {
        let catalog = mem_catalog(8192);
        load_wisconsin_table_partitioned(&catalog, "big", rows, 5, parts).unwrap();
        let ctx = ExecContext::new(Arc::clone(&catalog));
        let engine = StagedEngine::new(
            ctx,
            EngineConfig { workers_per_stage: workers, ..Default::default() },
        );

        // Scan-heavy grouped aggregate: N partial fscan→filter→agg
        // pipelines, one merge.
        let agg = plan(
            &catalog,
            "SELECT ten, COUNT(*), SUM(unique2), MIN(unique1), MAX(unique1), AVG(unique2) \
             FROM big WHERE two = 0 GROUP BY ten",
        );
        let start = Instant::now();
        let mut groups = 0;
        for _ in 0..reps {
            groups = engine.execute(&agg).collect().unwrap().len();
        }
        let scan_ms = start.elapsed().as_secs_f64() * 1000.0 / reps as f64;
        // `two = 0` keeps even unique1 values, so `ten` takes the 5 even
        // residues.
        assert_eq!(groups, 5, "grouped aggregate lost groups");

        // Point-lookup mix: pruned to one partition each — throughput here
        // measures per-query overhead, not parallelism.
        let n_lookups = if quick { 50 } else { 400 };
        let lookups: Vec<PhysicalPlan> = (0..n_lookups)
            .map(|i| {
                plan(&catalog, &format!("SELECT * FROM big WHERE unique1 = {}", i * 37 % rows))
            })
            .collect();
        let start = Instant::now();
        let handles: Vec<_> = lookups.iter().map(|p| engine.execute(p)).collect();
        let mut found = 0usize;
        for h in handles {
            found += h.collect().unwrap().len();
        }
        let point_ms = start.elapsed().as_secs_f64() * 1000.0;
        assert_eq!(found, n_lookups, "every pruned lookup must find its row");
        engine.shutdown();

        if parts == 1 {
            base_scan = scan_ms;
            base_point = point_ms;
        }
        println!(
            "{parts:>10} {scan_ms:>14.1} {:>12.0} {:>9.2}x {point_ms:>14.1} {:>12.0} {:>9.2}x",
            rows as f64 / (scan_ms / 1000.0),
            base_scan / scan_ms,
            n_lookups as f64 / (point_ms / 1000.0),
            base_point / point_ms,
        );
    }
    println!(
        "\nHow to read this: point lookups speed up ~Nx on any host — partition pruning\n\
         scans 1/N of the table per query. The scan/aggregate column needs real cores:\n\
         the N partial aggregates (one fscan packet each, which scans and folds its\n\
         partition) are served one packet per visit, so they spread across the fscan\n\
         workers and converge at the merge stage; on a single core the same plan\n\
         costs a few percent of exchange overhead instead. EXPERIMENTS.md, \"Partition\n\
         scans in parallel\", has this table before and after fscan stopped taking\n\
         all of a scan's partition packets to one worker in one visit."
    );
}
