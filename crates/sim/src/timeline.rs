//! The Figure 1 scenario: four concurrent queries, two server modules
//! (PARSER and OPTIMIZER), one CPU, no I/O.
//!
//! Under the time-sharing thread-based model the CPU round-robins over the
//! four worker threads; every context switch into a thread whose module is
//! not cached re-loads that module's working set, so the timeline fills with
//! load segments. Under staged batching (non-gated), queries queued for the
//! same module run back-to-back and each module's working set is fetched
//! once per visit. This module regenerates the timeline and the CPU-time
//! breakdown the figure illustrates.

use staged_core::coop::{CoopConfig, CoopExecutor, CoopReport, Job, SegKind};
use staged_core::policy::Policy;

/// Stage index of the parser in the Figure 1 scenario.
pub const PARSE: usize = 0;
/// Stage index of the optimizer in the Figure 1 scenario.
pub const OPTIMIZE: usize = 1;

/// Configuration of the Figure 1 scenario.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Work each query needs in its module, seconds.
    pub module_demand: f64,
    /// Module load time `l`, seconds.
    pub load: f64,
    /// Round-robin quantum of the thread-based model, seconds.
    pub quantum: f64,
    /// Per-dispatch context-switch cost, seconds.
    pub ctx_switch: f64,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        // One "module's worth" of work per query, a quantum a third of it,
        // and a load time of 20% — proportions matching the figure's visual.
        Self { module_demand: 0.030, load: 0.006, quantum: 0.010, ctx_switch: 0.001 }
    }
}

/// The four queries of Figure 1: Q1 OPTIMIZE, Q2 PARSE, Q3 OPTIMIZE,
/// Q4 PARSE, all present at time zero.
pub fn figure1_jobs(cfg: &TimelineConfig) -> Vec<Job> {
    let d = cfg.module_demand;
    vec![
        Job { id: 1, arrival: 0.0, demands: vec![0.0, d] }, // Q1: OPTIMIZE
        Job { id: 2, arrival: 0.0, demands: vec![d, 0.0] }, // Q2: PARSE
        Job { id: 3, arrival: 0.0, demands: vec![0.0, d] }, // Q3: OPTIMIZE
        Job { id: 4, arrival: 0.0, demands: vec![d, 0.0] }, // Q4: PARSE
    ]
}

/// Run the scenario under the thread-based time-sharing model (PS).
pub fn run_threaded(cfg: &TimelineConfig) -> CoopReport {
    let coop = CoopExecutor::new(CoopConfig {
        loads: vec![cfg.load; 2],
        mean_demands: vec![cfg.module_demand; 2],
        policy: Policy::ProcessorSharing { quantum: cfg.quantum },
        ctx_switch: cfg.ctx_switch,
        record_timeline: true,
        timeline_cap: 10_000,
    });
    coop.run(figure1_jobs(cfg))
}

/// Run the scenario under staged batching (non-gated).
pub fn run_staged(cfg: &TimelineConfig) -> CoopReport {
    let coop = CoopExecutor::new(CoopConfig {
        loads: vec![cfg.load; 2],
        mean_demands: vec![cfg.module_demand; 2],
        policy: Policy::NonGated,
        ctx_switch: cfg.ctx_switch,
        record_timeline: true,
        timeline_cap: 10_000,
    });
    coop.run(figure1_jobs(cfg))
}

/// CPU-time breakdown of a run (the quantity Figure 1 visualizes).
#[derive(Debug, Clone, Copy)]
pub struct Breakdown {
    /// Fraction of busy time doing useful work.
    pub work: f64,
    /// Fraction spent loading module working sets.
    pub load: f64,
    /// Fraction spent context switching.
    pub switch: f64,
    /// Total busy time, seconds.
    pub busy: f64,
}

/// Compute the breakdown of a report.
pub fn breakdown(r: &CoopReport) -> Breakdown {
    let busy = r.total_work_time + r.total_load_time + r.total_switch_time;
    if busy <= 0.0 {
        return Breakdown { work: 0.0, load: 0.0, switch: 0.0, busy: 0.0 };
    }
    Breakdown {
        work: r.total_work_time / busy,
        load: r.total_load_time / busy,
        switch: r.total_switch_time / busy,
        busy,
    }
}

/// Render the CPU timeline as an ASCII Gantt chart, one row per query plus a
/// stage row, `width` characters across the makespan.
pub fn render_gantt(r: &CoopReport, width: usize) -> String {
    let width = width.max(10);
    let span = r.makespan.max(1e-9);
    let mut ids: Vec<u64> = r.timeline.iter().filter_map(|s| s.job).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut out = String::new();
    for &id in &ids {
        let mut row = vec![' '; width];
        for seg in &r.timeline {
            if seg.job != Some(id) {
                continue;
            }
            let a = ((seg.start / span) * width as f64).floor() as usize;
            let b = (((seg.end / span) * width as f64).ceil() as usize).min(width);
            let ch = match seg.kind {
                SegKind::Work => {
                    if seg.stage == PARSE {
                        'P'
                    } else {
                        'O'
                    }
                }
                SegKind::Load => 'l',
                SegKind::Switch => 'x',
            };
            for c in row.iter_mut().take(b).skip(a) {
                *c = ch;
            }
        }
        out.push_str(&format!("Q{id}: "));
        out.extend(row);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_run_is_shorter_than_threaded() {
        let cfg = TimelineConfig::default();
        let threaded = run_threaded(&cfg);
        let staged = run_staged(&cfg);
        assert_eq!(threaded.completions.len(), 4);
        assert_eq!(staged.completions.len(), 4);
        assert!(
            staged.makespan < threaded.makespan,
            "staged {} vs threaded {}",
            staged.makespan,
            threaded.makespan
        );
    }

    #[test]
    fn staged_pays_each_module_load_once() {
        let cfg = TimelineConfig::default();
        let staged = run_staged(&cfg);
        // Two modules, each loaded exactly once: 2 × load.
        assert!((staged.total_load_time - 2.0 * cfg.load).abs() < 1e-9);
        let threaded = run_threaded(&cfg);
        assert!(
            threaded.total_load_time > staged.total_load_time,
            "uncontrolled switching must reload more"
        );
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let cfg = TimelineConfig::default();
        let b = breakdown(&run_threaded(&cfg));
        assert!((b.work + b.load + b.switch - 1.0).abs() < 1e-9);
        assert!(b.switch > 0.0);
    }

    #[test]
    fn gantt_renders_all_queries() {
        let cfg = TimelineConfig::default();
        let g = render_gantt(&run_staged(&cfg), 60);
        for q in ["Q1:", "Q2:", "Q3:", "Q4:"] {
            assert!(g.contains(q), "missing {q} in:\n{g}");
        }
        assert!(g.contains('P') && g.contains('O'));
    }
}
