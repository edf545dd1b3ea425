//! Ablation A6 (paper §4.2): cohort scheduling in the production runtime.
//!
//! The paper's batching argument is that serving a stage's queue in
//! *cohorts* amortizes the module load time — cache warm-up, queue
//! synchronization, scheduling — over a whole visit. PR 5 brought gated
//! cohort service to the OS-threaded runtime; this ablation measures it:
//! a scan-heavy query mix is driven through the staged server by
//! pipelined clients while the pipeline batch knob
//! (`ServerConfig::max_cohort`) sweeps 1 → 32. Cohort size 1 is the
//! pre-cohort one-packet-per-visit semantics; every other column is pure
//! batching, same threads, same queues, same queries. SELECTs run in
//! Volcano mode on the execute stage's worker, deliberately: the sweep
//! isolates the *pipeline* cohorts being ablated (the engine's stages
//! run the fixed `staged::COHORT`, covered by the differential suite in
//! `crates/engine/tests/equivalence.rs`).
//!
//! For each setting the table reports steady-state throughput, speedup
//! over cohort 1, and the *observed* mean cohort at the parse stage (the
//! knob is an upper bound; the workload decides how full visits run).
//! The runtime serves D-gated cohorts only; the rest of the §4.2 policy
//! space is swept in the simulator (`ablation_policies`, `repro_fig5`).
//!
//! Pass `quick` for the CI smoke run (small table, fewer rounds). The
//! batching win needs per-visit overhead to be a visible fraction of
//! per-packet work, so the queries are deliberately small scans; on a
//! loaded or single-core host the speedups flatten toward 1× while the
//! result check still holds everywhere.

use staged_bench::{drive_scan_bursts, mem_catalog};
use staged_server::types::ExecutionMode;
use staged_server::{ServerConfig, StagedServer};
use staged_workload::load_wisconsin_table_partitioned;
use std::sync::Arc;

struct Cell {
    qps: f64,
    mean_cohort: f64,
}

struct Knobs {
    rows: usize,
    reps: usize,
    clients: usize,
    rounds: usize,
    burst: usize,
}

fn run_cell(k: &Knobs, cohort: usize) -> Cell {
    let catalog = mem_catalog(4096);
    load_wisconsin_table_partitioned(&catalog, "big", k.rows, 5, 1).unwrap();
    let server = StagedServer::new(
        Arc::clone(&catalog),
        ServerConfig { mode: ExecutionMode::Volcano, max_cohort: cohort, ..Default::default() },
    );
    let mut qps = f64::MIN;
    for _ in 0..k.reps {
        qps = qps.max(drive_scan_bursts(&server, k.clients, k.rounds, k.burst));
    }
    let stats = server.stage_stats();
    let parse = stats.iter().find(|s| s.name == "parse").expect("parse stage");
    let cell = Cell { qps, mean_cohort: parse.mean_cohort() };
    server.shutdown();
    cell
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let k = Knobs {
        rows: 100,
        reps: if quick { 3 } else { 5 },
        clients: 8,
        rounds: if quick { 40 } else { 120 },
        burst: 8,
    };
    println!(
        "cohort scheduling ablation: {}-row Wisconsin scans, {} pipelined clients \
         × {}-deep bursts, best of {} rep(s) per cell",
        k.rows, k.clients, k.burst, k.reps
    );
    println!("{:>14} {:>12} {:>10} {:>12}", "policy", "queries/s", "speedup", "mean_cohort");
    // Warm-up cell (discarded): pays the process's cold caches, page
    // faults and allocator growth so the measured sweep starts hot.
    let _ = run_cell(&Knobs { reps: 1, ..k }, 8);
    let mut base = 0.0f64;
    for cohort in [1usize, 2, 4, 8, 16, 32] {
        let cell = run_cell(&k, cohort);
        if cohort == 1 {
            base = cell.qps;
        }
        println!(
            "{:>14} {:>12.0} {:>9.2}x {:>12.2}",
            format!("D-gated({cohort})"),
            cell.qps,
            cell.qps / base,
            cell.mean_cohort
        );
    }
}
