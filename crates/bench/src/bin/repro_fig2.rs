//! Reproduce **Figure 2**: "% of max attainable throughput vs thread-pool
//! size" for Workload A (short I/O-bound selections) and Workload B (long
//! CPU-bound joins).
//!
//! Default mode runs the calibrated virtual-time simulator (deterministic;
//! see `staged_sim::threadpool`). Pass `--real` to also run a scaled-down
//! wall-clock version on the actual engine with a latency-simulating disk.

use staged_bench::{headline, slow_catalog};
use staged_planner::PlannerConfig;
use staged_server::ThreadedServer;
use staged_sim::threadpool::{figure2_sweep, Figure2Workload};
use staged_workload::{drive, load_wisconsin_table, WorkloadA};

fn main() {
    let sizes = [1usize, 2, 3, 5, 8, 10, 15, 20, 30, 50, 75, 100, 150, 200];
    headline("Figure 2 — simulated server (deterministic)");
    let a = figure2_sweep(Figure2Workload::A, &sizes, 7);
    let b = figure2_sweep(Figure2Workload::B, &sizes, 7);
    println!("{:>8} {:>14} {:>14}", "threads", "Workload A %", "Workload B %");
    for i in 0..sizes.len() {
        println!("{:>8} {:>14.1} {:>14.1}", sizes[i], a[i].1, b[i].1);
    }
    println!(
        "\nPaper shape: A rises until I/O fully overlaps then stays flat;\n\
         B is flat while the pool's working sets fit the cache (≤5 threads)\n\
         and degrades monotonically beyond."
    );

    if std::env::args().any(|a| a == "--real") {
        headline("Figure 2 — wall-clock, real engine (scaled down)");
        let real_sizes = [1usize, 2, 4, 8, 16, 32];
        let queries = 300;
        println!("{:>8} {:>14} {:>12}", "threads", "queries/s", "relative %");
        let mut results = Vec::new();
        for &m in &real_sizes {
            // Cold-ish cache: small pool, 200 µs per page I/O.
            let cat = slow_catalog(96, 200);
            load_wisconsin_table(&cat, "wisc", 20_000, 42).unwrap();
            let server = ThreadedServer::new(cat, m, PlannerConfig::default());
            let mut wa = WorkloadA::new("wisc", 20_000, 9);
            let secs = drive(|sql| server.submit(sql), || wa.next_query(), queries, m * 4);
            server.shutdown();
            results.push((m, queries as f64 / secs));
        }
        let max = results.iter().map(|r| r.1).fold(0.0_f64, f64::max);
        for (m, x) in results {
            println!("{m:>8} {x:>14.1} {:>12.1}", 100.0 * x / max);
        }
    }
}
