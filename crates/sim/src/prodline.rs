//! The production-line staged-server model of paper §4.2 (Figure 4).
//!
//! "Each submitted query passes through several stages of execution that
//! contain a server module. Once a module's data structures and
//! instructions, that are shared (on average) by all queries, are accessed
//! and loaded in the cache, subsequent executions of different requests
//! within the same module will significantly reduce memory delays. To model
//! this behavior, we charge the first query in a batch with an additional
//! CPU demand `l`."
//!
//! Parameterization follows the paper exactly: a server of `stages` modules
//! with an equal service-time breakdown; a query's total CPU demand is
//! exponential with mean `m`, split equally across modules; module load
//! times sum to `l`; `m + l = 100 ms` is held constant while `l` varies from
//! 0 % to 60 % of the total; Poisson arrivals at 95 % system load. (Total
//! demand exponential + equal split keeps the l = 0 corner an M/M/1, where
//! FCFS and PS both have a 2.0 s mean response — the natural common origin
//! for all five policies in Figure 5.)

use crate::rng::{exp_sample, PoissonArrivals};
use rand::rngs::StdRng;
use rand::SeedableRng;
use staged_core::coop::{CoopConfig, CoopExecutor, Job};
use staged_core::policy::Policy;

/// Configuration of one production-line simulation run.
#[derive(Debug, Clone)]
pub struct ProdlineConfig {
    /// Number of modules (the paper uses 5).
    pub stages: usize,
    /// Mean total CPU demand per query including load time, seconds
    /// (the paper uses 100 ms).
    pub total_demand_mean: f64,
    /// Fraction of the total demand that is module loading (`l / (m+l)`),
    /// 0.0–0.99. This is the x-axis of Figure 5.
    pub load_fraction: f64,
    /// Offered load ρ = λ (m+l). The paper's Figure 5 uses 0.95.
    pub utilization: f64,
    /// Virtual time horizon for arrivals, seconds.
    pub horizon: f64,
    /// Completions from queries arriving before this time are discarded.
    pub warmup: f64,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
    /// Scheduling policy.
    pub policy: Policy,
}

impl ProdlineConfig {
    /// The paper's Figure 5 setting for a given policy and load fraction.
    pub fn figure5(policy: Policy, load_fraction: f64) -> Self {
        Self {
            stages: 5,
            total_demand_mean: 0.100,
            load_fraction,
            utilization: 0.95,
            horizon: 400.0,
            warmup: 40.0,
            seed: 42,
            policy,
        }
    }

    /// Arrival rate λ implied by the target utilization.
    pub fn arrival_rate(&self) -> f64 {
        self.utilization / self.total_demand_mean
    }

    /// Per-module load time `l_i`.
    pub fn module_load(&self) -> f64 {
        self.total_demand_mean * self.load_fraction / self.stages as f64
    }

    /// Mean per-module work demand `m_i`.
    pub fn module_demand_mean(&self) -> f64 {
        self.total_demand_mean * (1.0 - self.load_fraction) / self.stages as f64
    }
}

/// Result of one production-line run.
#[derive(Debug, Clone)]
pub struct ProdlineResult {
    /// Policy label (e.g. `T-gated(2)`).
    pub policy: String,
    /// The configured load fraction (x-axis of Figure 5).
    pub load_fraction: f64,
    /// Mean response time (seconds) after warmup.
    pub mean_response: f64,
    /// 95th percentile response time after warmup.
    pub p95_response: f64,
    /// Completed queries counted.
    pub completed: usize,
    /// Fraction of busy CPU time that was loading/switching overhead.
    pub overhead_fraction: f64,
}

/// Run the production line once.
pub fn run_prodline(cfg: &ProdlineConfig) -> ProdlineResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let lambda = cfg.arrival_rate();
    let m_mean = cfg.total_demand_mean * (1.0 - cfg.load_fraction);
    let mut jobs = Vec::new();
    let arrivals = PoissonArrivals::new(StdRng::seed_from_u64(cfg.seed ^ 0x9e3779b9), lambda);
    for (id, arrival) in arrivals.take_while(|&t| t < cfg.horizon).enumerate() {
        // Total demand exponential, split equally across the modules
        // ("equal service time breakdown").
        let total = exp_sample(&mut rng, m_mean);
        let per_stage = total / cfg.stages as f64;
        jobs.push(Job { id: id as u64, arrival, demands: vec![per_stage; cfg.stages] });
    }
    let coop = CoopExecutor::new(CoopConfig {
        loads: vec![cfg.module_load(); cfg.stages],
        mean_demands: vec![cfg.module_demand_mean(); cfg.stages],
        policy: cfg.policy,
        ctx_switch: 0.0,
        record_timeline: false,
        timeline_cap: 0,
    });
    let report = coop.run(jobs);
    let completed = report.completions.iter().filter(|c| c.arrival >= cfg.warmup).count();
    ProdlineResult {
        policy: cfg.policy.label(),
        load_fraction: cfg.load_fraction,
        mean_response: report.mean_response_after(cfg.warmup),
        p95_response: report.quantile_response(0.95, cfg.warmup),
        completed,
        overhead_fraction: report.overhead_fraction(),
    }
}

/// One policy's series over the Figure 5 x-axis.
#[derive(Debug, Clone)]
pub struct PolicySeries {
    /// Policy label.
    pub policy: String,
    /// `(load_fraction, mean_response_secs)` points.
    pub points: Vec<(f64, f64)>,
}

/// Sweep load fractions × policies — the full Figure 5.
pub fn figure5_sweep(
    load_fractions: &[f64],
    policies: &[Policy],
    seed: u64,
    horizon: f64,
) -> Vec<PolicySeries> {
    policies
        .iter()
        .map(|&p| PolicySeries {
            policy: p.label(),
            points: load_fractions
                .iter()
                .map(|&lf| {
                    let mut cfg = ProdlineConfig::figure5(p, lf);
                    cfg.seed = seed;
                    cfg.horizon = horizon;
                    cfg.warmup = horizon * 0.1;
                    let r = run_prodline(&cfg);
                    (lf, r.mean_response)
                })
                .collect(),
        })
        .collect()
}

/// Sweep system load at a fixed load fraction (ablation A1 — the paper notes
/// "different scheduling policies prevail for different system loads",
/// §4.4d).
pub fn load_sweep(
    utilizations: &[f64],
    load_fraction: f64,
    policies: &[Policy],
    seed: u64,
    horizon: f64,
) -> Vec<(String, Vec<(f64, f64)>)> {
    policies
        .iter()
        .map(|&p| {
            let points = utilizations
                .iter()
                .map(|&u| {
                    let mut cfg = ProdlineConfig::figure5(p, load_fraction);
                    cfg.utilization = u;
                    cfg.seed = seed;
                    cfg.horizon = horizon;
                    cfg.warmup = horizon * 0.1;
                    (u, run_prodline(&cfg).mean_response)
                })
                .collect();
            (p.label(), points)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::mm1_mean_response;

    /// Average a policy's mean response over several independent seeds (the
    /// ρ = 0.95 M/M/1 estimator has a long correlation time, so single runs
    /// are noisy).
    fn mean_over_seeds(policy: Policy, seeds: &[u64]) -> f64 {
        let sum: f64 = seeds
            .iter()
            .map(|&s| {
                let mut cfg = ProdlineConfig::figure5(policy, 0.0);
                cfg.horizon = 4000.0;
                cfg.warmup = 400.0;
                cfg.seed = s;
                run_prodline(&cfg).mean_response
            })
            .sum();
        sum / seeds.len() as f64
    }

    /// At l = 0 the model collapses to M/M/1 and FCFS must match theory.
    #[test]
    fn fcfs_matches_mm1_at_zero_load_time() {
        let cfg = ProdlineConfig::figure5(Policy::Fcfs, 0.0);
        let sim = mean_over_seeds(Policy::Fcfs, &[1, 2, 3, 4, 5, 6]);
        let w = mm1_mean_response(cfg.arrival_rate(), 1.0 / cfg.total_demand_mean);
        let rel_err = (sim - w).abs() / w;
        assert!(rel_err < 0.20, "sim {sim} vs theory {w} (rel {rel_err})");
    }

    /// PS is insensitive to the service distribution; at l = 0 it matches
    /// M/M/1 too.
    #[test]
    fn ps_matches_mm1_at_zero_load_time() {
        let cfg = ProdlineConfig::figure5(Policy::Fcfs, 0.0);
        let sim = mean_over_seeds(Policy::ProcessorSharing { quantum: 0.010 }, &[1, 2, 3, 4, 5, 6]);
        let w = mm1_mean_response(cfg.arrival_rate(), 1.0 / cfg.total_demand_mean);
        let rel_err = (sim - w).abs() / w;
        assert!(rel_err < 0.20, "sim {sim} vs theory {w} (rel {rel_err})");
    }

    /// The paper's headline: at significant load fractions the staged
    /// policies beat PS by a factor approaching 2.
    #[test]
    fn staged_policies_beat_ps_at_high_load_fraction() {
        let lf = 0.4;
        let horizon = 600.0;
        let run = |p: Policy| {
            let mut cfg = ProdlineConfig::figure5(p, lf);
            cfg.horizon = horizon;
            cfg.warmup = 60.0;
            run_prodline(&cfg).mean_response
        };
        let ps = run(Policy::ProcessorSharing { quantum: 0.010 });
        let fcfs = run(Policy::Fcfs);
        for staged in [Policy::NonGated, Policy::DGated, Policy::TGated { cutoff_factor: 2.0 }] {
            let rt = run(staged);
            assert!(rt < ps, "{} ({rt}) should beat PS ({ps})", staged.label());
            assert!(rt < fcfs, "{} ({rt}) should beat FCFS ({fcfs})", staged.label());
        }
    }

    /// Staged response time improves as the load fraction grows (the batch
    /// amortization effect that motivates the whole design).
    #[test]
    fn staged_improves_with_load_fraction() {
        let run = |lf: f64| {
            let mut cfg = ProdlineConfig::figure5(Policy::DGated, lf);
            cfg.horizon = 400.0;
            cfg.warmup = 40.0;
            run_prodline(&cfg).mean_response
        };
        let low = run(0.05);
        let high = run(0.5);
        assert!(
            high < low,
            "D-gated should improve with load fraction: l=5% → {low}, l=50% → {high}"
        );
    }

    #[test]
    fn config_arithmetic() {
        let cfg = ProdlineConfig::figure5(Policy::Fcfs, 0.3);
        assert!((cfg.arrival_rate() - 9.5).abs() < 1e-12);
        // l = 30% of 100 ms over 5 modules → 6 ms each; m_i = 70 ms / 5.
        assert!((cfg.module_load() - 0.006).abs() < 1e-12);
        assert!((cfg.module_demand_mean() - 0.014).abs() < 1e-12);
    }

    #[test]
    fn sweep_produces_series_per_policy() {
        let series = figure5_sweep(&[0.0, 0.2], &[Policy::Fcfs, Policy::DGated], 1, 120.0);
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|s| s.points.len() == 2));
        assert!(series.iter().all(|s| s.points.iter().all(|p| p.1.is_finite())));
    }
}
