//! The paper's Workload A / Workload B scenario (§3.1.1) on the real
//! engine: the staged server and the thread-pool baseline run the same
//! Wisconsin-style query streams.
//!
//! ```sh
//! cargo run --release --example wisconsin_workloads
//! ```

use staged_db::planner::PlannerConfig;
use staged_db::server::{ServerConfig, StagedServer, ThreadedServer};
use staged_db::storage::{BufferPool, Catalog, MemDisk};
use staged_db::workload::{drive, load_wisconsin_table, WorkloadA, WorkloadB};
use std::sync::Arc;

fn fresh_catalog() -> Arc<Catalog> {
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 4096)));
    load_wisconsin_table(&cat, "wisc1", 10_000, 1).unwrap();
    load_wisconsin_table(&cat, "wisc2", 10_000, 2).unwrap();
    cat
}

fn main() {
    let queries = 200;
    let clients = 8;

    println!("Workload A: short selections/aggregations ({queries} queries, {clients} clients)");
    let threaded = ThreadedServer::new(fresh_catalog(), 8, PlannerConfig::default());
    let mut wa = WorkloadA::new("wisc1", 10_000, 7);
    let t = drive(|sql| threaded.submit(sql), || wa.next_query(), queries, clients);
    threaded.shutdown();
    println!("  thread-pool baseline: {:>7.1} q/s", queries as f64 / t);

    let staged = StagedServer::new(fresh_catalog(), ServerConfig::default());
    let mut wa = WorkloadA::new("wisc1", 10_000, 7);
    let t = drive(|sql| staged.submit(sql), || wa.next_query(), queries, clients);
    println!("  staged server:        {:>7.1} q/s", queries as f64 / t);
    staged.shutdown();

    let join_queries = 40;
    println!("\nWorkload B: join queries ({join_queries} queries, {clients} clients)");
    let threaded = ThreadedServer::new(fresh_catalog(), 8, PlannerConfig::default());
    let mut wb = WorkloadB::new("wisc1", "wisc2", 7);
    let t = drive(|sql| threaded.submit(sql), || wb.next_query(), join_queries, clients);
    threaded.shutdown();
    println!("  thread-pool baseline: {:>7.1} q/s", join_queries as f64 / t);

    let staged = StagedServer::new(fresh_catalog(), ServerConfig::default());
    let mut wb = WorkloadB::new("wisc1", "wisc2", 7);
    let t = drive(|sql| staged.submit(sql), || wb.next_query(), join_queries, clients);
    println!("  staged server:        {:>7.1} q/s", join_queries as f64 / t);

    println!("\nExecution-engine stage activity during workload B on the staged server:");
    for s in staged.engine_stats() {
        if s.processed > 0 {
            println!("  {:<7} task-quanta processed: {}", s.name, s.processed);
        }
    }
    staged.shutdown();
}
