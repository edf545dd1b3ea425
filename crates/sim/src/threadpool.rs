//! The thread-pool experiment of paper §3.1.1 (Figure 2).
//!
//! "We modified the execution engine of PREDATOR and added a queue in front
//! of it. Then we converted the thread-per-client architecture into the
//! following: a pool of threads that picks a client from the queue, works on
//! the client until it exits the execution engine, puts it on an exit queue
//! and picks another client from the input queue."
//!
//! The simulator models one CPU time-shared round-robin with a quantum
//! (PREDATOR's alarm timer fired "roughly every 10 msec"), an array of disks
//! serving I/O FIFO, and a cache-interference model: every thread's query
//! has a working set; once the combined working sets of the pool exceed the
//! cache capacity, a context switch must re-fetch the evicted fraction
//! (charged as `lost_fraction × reload_full` on dispatch). This reproduces
//! the two regimes of Figure 2: an I/O-bound workload that *gains* from
//! threads until I/O is fully overlapped, and a CPU-bound workload that
//! *degrades* once working sets start evicting each other.

use crate::rng::{exp_sample, uniform_sample};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// One phase of a query's lifetime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// CPU burst of the given length (seconds).
    Cpu(f64),
    /// Blocking disk I/O of the given service time (seconds).
    Io(f64),
}

/// A query, as a sequence of CPU and I/O phases.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Phases in execution order.
    pub phases: Vec<Phase>,
}

impl QuerySpec {
    /// Total CPU demand of the query.
    pub fn cpu_demand(&self) -> f64 {
        self.phases.iter().map(|p| if let Phase::Cpu(c) = p { *c } else { 0.0 }).sum()
    }

    /// Total I/O demand of the query.
    pub fn io_demand(&self) -> f64 {
        self.phases.iter().map(|p| if let Phase::Io(d) = p { *d } else { 0.0 }).sum()
    }
}

/// Parameters of the simulated server.
#[derive(Debug, Clone)]
pub struct ThreadPoolConfig {
    /// Worker threads in the pool (the x-axis of Figure 2).
    pub threads: usize,
    /// Round-robin quantum, seconds (paper: ~10 ms).
    pub quantum: f64,
    /// Context-switch cost charged when the CPU changes threads, seconds.
    pub ctx_switch: f64,
    /// Number of disks serving I/O FIFO.
    pub disks: usize,
    /// Cache capacity, bytes (Pentium III L2: 256 KiB; we use 512 KiB to
    /// model L2 + L1 headroom).
    pub cache_capacity: f64,
    /// Per-query working set, bytes.
    pub working_set: f64,
    /// Time to re-fetch a fully evicted working set, seconds.
    pub reload_full: f64,
    /// Virtual time horizon, seconds.
    pub horizon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ThreadPoolConfig {
    /// Baseline configuration shared by both Figure 2 workloads.
    pub fn figure2(threads: usize, seed: u64) -> Self {
        Self {
            threads,
            quantum: 0.010,
            ctx_switch: 0.0001,
            disks: 2,
            cache_capacity: 512.0 * 1024.0,
            working_set: 96.0 * 1024.0,
            reload_full: 0.002,
            horizon: 300.0,
            seed,
        }
    }
}

/// Outcome of one simulation.
#[derive(Debug, Clone)]
pub struct ThreadPoolResult {
    /// Threads simulated.
    pub threads: usize,
    /// Queries completed within the horizon.
    pub completed: u64,
    /// Queries/second.
    pub throughput: f64,
    /// Fraction of the horizon the CPU did useful work.
    pub cpu_utilization: f64,
    /// Fraction of the horizon the CPU spent on switch+reload overhead.
    pub overhead_fraction: f64,
}

#[derive(Debug)]
enum ThreadState {
    /// Ready to run; current phase is a CPU burst with this much left.
    Ready { burst_left: f64 },
    /// Blocked on I/O until the given time.
    Blocked { until: f64 },
}

struct Worker {
    state: ThreadState,
    /// Remaining phases of the current query (current CPU burst excluded).
    phases: VecDeque<Phase>,
}

/// Simulate the pool; `make_query` is invoked whenever a worker picks a new
/// client from the (infinite) input queue.
pub fn run_threadpool(
    cfg: &ThreadPoolConfig,
    mut make_query: impl FnMut(&mut StdRng) -> QuerySpec,
) -> ThreadPoolResult {
    assert!(cfg.threads >= 1);
    assert!(cfg.disks >= 1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut clock = 0.0_f64;
    let mut completed = 0u64;
    let mut cpu_busy = 0.0_f64;
    let mut overhead = 0.0_f64;
    let mut disks_free_at = vec![0.0_f64; cfg.disks];

    // Lost-cache fraction charged on every cross-thread dispatch: the pool's
    // combined working sets compete for the cache; anything beyond capacity
    // is (pessimally, per the paper's total-eviction model) gone by the time
    // a thread runs again.
    let combined = cfg.threads as f64 * cfg.working_set;
    let lost_fraction = if combined > cfg.cache_capacity {
        (combined - cfg.cache_capacity) / combined
    } else {
        0.0
    };
    let reload_cost = lost_fraction * cfg.reload_full;

    let mut workers: Vec<Worker> = Vec::with_capacity(cfg.threads);
    let mut ready: VecDeque<usize> = VecDeque::new();
    for i in 0..cfg.threads {
        let mut w =
            Worker { state: ThreadState::Ready { burst_left: 0.0 }, phases: VecDeque::new() };
        start_query(&mut w, &mut make_query, &mut rng);
        dispatch_phase(&mut w, i, 0.0, &mut disks_free_at, &mut ready);
        workers.push(w);
    }

    let mut last_thread: Option<usize> = None;
    while clock < cfg.horizon {
        // Deliver due I/O completions.
        for (i, w) in workers.iter_mut().enumerate() {
            if let ThreadState::Blocked { until } = w.state {
                if until <= clock {
                    advance_after_io(
                        w,
                        i,
                        clock,
                        &mut disks_free_at,
                        &mut ready,
                        &mut completed,
                        &mut make_query,
                        &mut rng,
                    );
                }
            }
        }
        let Some(t) = ready.pop_front() else {
            // CPU idle: jump to the earliest I/O completion.
            let next = workers
                .iter()
                .filter_map(|w| match w.state {
                    ThreadState::Blocked { until } => Some(until),
                    _ => None,
                })
                .fold(f64::INFINITY, f64::min);
            if next.is_infinite() {
                break; // nothing runnable at all
            }
            clock = next.max(clock);
            continue;
        };
        // Dispatch overhead: context switch + working-set reload when the
        // CPU moves to a different thread.
        if last_thread != Some(t) {
            let cost = cfg.ctx_switch + reload_cost;
            clock += cost;
            overhead += cost;
        }
        last_thread = Some(t);
        let burst_left = match workers[t].state {
            ThreadState::Ready { burst_left } => burst_left,
            _ => unreachable!("dispatched thread must be ready"),
        };
        let slice = cfg.quantum.min(burst_left);
        clock += slice;
        cpu_busy += slice;
        let remaining = burst_left - slice;
        if remaining > 1e-12 {
            workers[t].state = ThreadState::Ready { burst_left: remaining };
            ready.push_back(t);
        } else {
            // Burst finished: move to the next phase (I/O, next burst, or a
            // fresh query).
            let w = &mut workers[t];
            match w.phases.pop_front() {
                Some(Phase::Io(d)) => {
                    let done = submit_io(clock, d, &mut disks_free_at);
                    w.state = ThreadState::Blocked { until: done };
                }
                Some(Phase::Cpu(c)) => {
                    w.state = ThreadState::Ready { burst_left: c };
                    ready.push_back(t);
                }
                None => {
                    completed += 1;
                    start_query(w, &mut make_query, &mut rng);
                    dispatch_phase(w, t, clock, &mut disks_free_at, &mut ready);
                }
            }
        }
    }

    let span = clock.max(1e-9);
    ThreadPoolResult {
        threads: cfg.threads,
        completed,
        throughput: completed as f64 / span,
        cpu_utilization: cpu_busy / span,
        overhead_fraction: overhead / span,
    }
}

fn start_query(
    w: &mut Worker,
    make_query: &mut impl FnMut(&mut StdRng) -> QuerySpec,
    rng: &mut StdRng,
) {
    w.phases = make_query(rng).phases.into();
}

/// Put the worker's first phase in motion at time `now`.
fn dispatch_phase(
    w: &mut Worker,
    idx: usize,
    now: f64,
    disks_free_at: &mut [f64],
    ready: &mut VecDeque<usize>,
) {
    match w.phases.pop_front() {
        Some(Phase::Cpu(c)) => {
            w.state = ThreadState::Ready { burst_left: c };
            ready.push_back(idx);
        }
        Some(Phase::Io(d)) => {
            let done = submit_io(now, d, disks_free_at);
            w.state = ThreadState::Blocked { until: done };
        }
        None => {
            // Empty query: complete immediately by giving it a zero burst.
            w.state = ThreadState::Ready { burst_left: 0.0 };
            ready.push_back(idx);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn advance_after_io(
    w: &mut Worker,
    idx: usize,
    now: f64,
    disks_free_at: &mut [f64],
    ready: &mut VecDeque<usize>,
    completed: &mut u64,
    make_query: &mut impl FnMut(&mut StdRng) -> QuerySpec,
    rng: &mut StdRng,
) {
    match w.phases.pop_front() {
        Some(Phase::Cpu(c)) => {
            w.state = ThreadState::Ready { burst_left: c };
            ready.push_back(idx);
        }
        Some(Phase::Io(d)) => {
            let done = submit_io(now, d, disks_free_at);
            w.state = ThreadState::Blocked { until: done };
        }
        None => {
            *completed += 1;
            start_query(w, make_query, rng);
            dispatch_phase(w, idx, now, disks_free_at, ready);
        }
    }
}

/// FIFO multi-disk service: the I/O goes to the disk that frees up first.
fn submit_io(now: f64, service: f64, disks_free_at: &mut [f64]) -> f64 {
    let (best, _) = disks_free_at
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .expect("at least one disk");
    let start = disks_free_at[best].max(now);
    let done = start + service;
    disks_free_at[best] = done;
    done
}

/// Workload A (paper §3.1.1): "short (40–80 ms) selection and aggregation
/// queries that almost always incur disk I/O". Modeled as 6 CPU bursts
/// summing to U(40, 80) ms interleaved with 5 exponential disk reads.
pub fn workload_a_query(rng: &mut StdRng) -> QuerySpec {
    let total_cpu = uniform_sample(rng, 0.040, 0.080);
    let bursts = 6usize;
    let mut phases = Vec::with_capacity(bursts * 2 - 1);
    for i in 0..bursts {
        phases.push(Phase::Cpu(total_cpu / bursts as f64));
        if i + 1 < bursts {
            phases.push(Phase::Io(exp_sample(rng, 0.009)));
        }
    }
    QuerySpec { phases }
}

/// Workload B (paper §3.1.1): "longer join queries (up to 2–3 secs) on
/// tables that fit entirely in main memory and the only I/O needed is for
/// logging purposes". Modeled as one long CPU demand U(2, 3) s plus a final
/// 5 ms log write.
pub fn workload_b_query(rng: &mut StdRng) -> QuerySpec {
    let total_cpu = uniform_sample(rng, 2.0, 3.0);
    QuerySpec { phases: vec![Phase::Cpu(total_cpu), Phase::Io(0.005)] }
}

/// Per-workload knobs for Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure2Workload {
    /// I/O-bound short queries.
    A,
    /// CPU-bound long joins.
    B,
}

/// Run one Figure 2 point.
pub fn run_figure2_point(workload: Figure2Workload, threads: usize, seed: u64) -> ThreadPoolResult {
    let mut cfg = ThreadPoolConfig::figure2(threads, seed);
    match workload {
        Figure2Workload::A => {
            // Short queries touch little data; their working sets are small.
            cfg.working_set = 16.0 * 1024.0;
            cfg.reload_full = 0.0004;
            cfg.horizon = 240.0;
            run_threadpool(&cfg, workload_a_query)
        }
        Figure2Workload::B => {
            // In-memory joins have large hot working sets (hash/sort areas).
            cfg.working_set = 96.0 * 1024.0;
            cfg.reload_full = 0.002;
            cfg.horizon = 1200.0;
            run_threadpool(&cfg, workload_b_query)
        }
    }
}

/// Sweep thread-pool sizes for one workload; returns
/// `(threads, % of max attainable throughput)` rows as in Figure 2.
///
/// Throughput is measured as *useful CPU work retired per second* (CPU
/// utilization net of switch/reload overhead), which for a CPU-bottlenecked
/// server is proportional to query throughput but free of the end-of-horizon
/// bias that in-flight multi-second queries (Workload B) would otherwise
/// introduce.
pub fn figure2_sweep(workload: Figure2Workload, sizes: &[usize], seed: u64) -> Vec<(usize, f64)> {
    let raw: Vec<(usize, f64)> =
        sizes.iter().map(|&m| (m, run_figure2_point(workload, m, seed).cpu_utilization)).collect();
    let max = raw.iter().map(|r| r.1).fold(0.0, f64::max).max(1e-12);
    raw.into_iter().map(|(m, x)| (m, 100.0 * x / max)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_specs_have_expected_demands() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let a = workload_a_query(&mut rng);
            assert!((0.040..=0.080).contains(&a.cpu_demand()));
            assert!(a.io_demand() > 0.0);
            let b = workload_b_query(&mut rng);
            assert!((2.0..=3.0).contains(&b.cpu_demand()));
            assert!((b.io_demand() - 0.005).abs() < 1e-12);
        }
    }

    #[test]
    fn single_thread_has_no_switch_overhead() {
        let cfg = ThreadPoolConfig { horizon: 50.0, ..ThreadPoolConfig::figure2(1, 3) };
        let r = run_threadpool(&cfg, workload_b_query);
        // Only the single cold-start dispatch is charged.
        assert!(r.overhead_fraction < 1e-5, "overhead {}", r.overhead_fraction);
        assert!(r.completed > 0);
    }

    #[test]
    fn workload_a_gains_from_more_threads() {
        let x1 = run_figure2_point(Figure2Workload::A, 1, 7).throughput;
        let x20 = run_figure2_point(Figure2Workload::A, 20, 7).throughput;
        assert!(
            x20 > x1 * 1.15,
            "I/O overlap should raise throughput: 1 thread {x1}, 20 threads {x20}"
        );
    }

    #[test]
    fn workload_b_degrades_with_many_threads() {
        let x2 = run_figure2_point(Figure2Workload::B, 2, 7).throughput;
        let x100 = run_figure2_point(Figure2Workload::B, 100, 7).throughput;
        assert!(
            x100 < x2 * 0.95,
            "cache interference should cut throughput: 2 threads {x2}, 100 threads {x100}"
        );
    }

    #[test]
    fn workload_b_flat_while_working_sets_fit() {
        // 512 KiB cache / 96 KiB working sets → 5 threads fit: no reloads.
        let x1 = run_figure2_point(Figure2Workload::B, 1, 9).throughput;
        let x5 = run_figure2_point(Figure2Workload::B, 5, 9).throughput;
        let rel = (x5 - x1).abs() / x1;
        assert!(rel < 0.05, "B should be flat through 5 threads: {x1} vs {x5}");
    }

    #[test]
    fn sweep_is_normalized_to_100() {
        let rows = figure2_sweep(Figure2Workload::A, &[1, 5, 20], 5);
        let max = rows.iter().map(|r| r.1).fold(0.0, f64::max);
        assert!((max - 100.0).abs() < 1e-9);
        assert!(rows.iter().all(|r| r.1 > 0.0 && r.1 <= 100.0));
    }

    #[test]
    fn disks_serialize_io_fifo() {
        let mut free = vec![0.0];
        let d1 = submit_io(0.0, 1.0, &mut free);
        let d2 = submit_io(0.0, 1.0, &mut free);
        assert!((d1 - 1.0).abs() < 1e-12);
        assert!((d2 - 2.0).abs() < 1e-12, "second I/O queues behind the first");
        let mut free2 = vec![0.0, 0.0];
        let e1 = submit_io(0.0, 1.0, &mut free2);
        let e2 = submit_io(0.0, 1.0, &mut free2);
        assert!((e1 - 1.0).abs() < 1e-12);
        assert!((e2 - 1.0).abs() < 1e-12, "two disks serve in parallel");
    }
}
