//! Deterministic, virtual-time, single-CPU cooperative executor.
//!
//! This is the "simulated execution environment that is also analytically
//! tractable" of paper §4.2 (Figure 4): a production-line staged server where
//! every query passes through `N` modules in order. Module `i` has a *load
//! time* `l_i` — the time to fetch its common data structures and code into
//! the cache — and each query has a per-module *demand* `m_i`. The executor
//! charges `l_i` whenever the CPU starts working on module `i` while its
//! cache holds a different module's working set, and charges nothing when
//! consecutive work hits the cached module: that difference is the entire
//! locality argument of the paper, reduced to two numbers.
//!
//! The executor runs any [`Policy`]: query-centric PS/FCFS baselines and the
//! module-centric non-gated / D-gated / T-gated staged disciplines. It is
//! used by `staged-sim` to regenerate Figures 1 and 5 and the scheduling
//! ablations.

use crate::policy::{BatchDiscipline, Policy};
use std::collections::VecDeque;

const EPS: f64 = 1e-12;

/// A query to execute: per-stage CPU demands, in seconds.
#[derive(Debug, Clone)]
pub struct Job {
    /// Caller-assigned identifier (reported back in completions).
    pub id: u64,
    /// Arrival time (seconds; jobs may be submitted in any order).
    pub arrival: f64,
    /// CPU demand at each stage, `demands.len() == num_stages`.
    pub demands: Vec<f64>,
}

/// What a timeline segment represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegKind {
    /// Loading a module's common working set into the cache (`l_i`).
    Load,
    /// Useful work on a query.
    Work,
    /// Context-switch overhead.
    Switch,
}

/// One contiguous span of CPU time (for Figure-1 style timelines).
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Start time (seconds).
    pub start: f64,
    /// End time (seconds).
    pub end: f64,
    /// Stage the CPU was in.
    pub stage: usize,
    /// Query being served (`None` for pure overhead spans).
    pub job: Option<u64>,
    /// Segment kind.
    pub kind: SegKind,
}

/// A finished query.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Job id.
    pub id: u64,
    /// Arrival time.
    pub arrival: f64,
    /// Completion time.
    pub finish: f64,
}

impl Completion {
    /// Response time (sojourn time) of the query.
    pub fn response(&self) -> f64 {
        self.finish - self.arrival
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct CoopReport {
    /// All completed queries, in completion order.
    pub completions: Vec<Completion>,
    /// CPU timeline (only populated when requested; capped).
    pub timeline: Vec<Segment>,
    /// Time of the last event.
    pub makespan: f64,
    /// Total CPU time spent loading module working sets.
    pub total_load_time: f64,
    /// Total CPU time spent on useful work.
    pub total_work_time: f64,
    /// Total CPU time spent context switching.
    pub total_switch_time: f64,
}

impl CoopReport {
    /// Mean response time over completions after `warmup` (by arrival time).
    pub fn mean_response_after(&self, warmup: f64) -> f64 {
        let (sum, n) = self
            .completions
            .iter()
            .filter(|c| c.arrival >= warmup)
            .fold((0.0, 0u64), |(s, n), c| (s + c.response(), n + 1));
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    /// Mean response time over all completions.
    pub fn mean_response(&self) -> f64 {
        self.mean_response_after(0.0)
    }

    /// The `q`-quantile (0..=1) of response times after `warmup`.
    pub fn quantile_response(&self, q: f64, warmup: f64) -> f64 {
        let mut r: Vec<f64> =
            self.completions.iter().filter(|c| c.arrival >= warmup).map(|c| c.response()).collect();
        if r.is_empty() {
            return f64::NAN;
        }
        r.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((r.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        r[idx]
    }

    /// Completed queries per second of makespan.
    pub fn throughput(&self) -> f64 {
        if self.makespan <= 0.0 {
            0.0
        } else {
            self.completions.len() as f64 / self.makespan
        }
    }

    /// Fraction of busy CPU time that was overhead (load + switch).
    pub fn overhead_fraction(&self) -> f64 {
        let busy = self.total_load_time + self.total_work_time + self.total_switch_time;
        if busy <= 0.0 {
            0.0
        } else {
            (self.total_load_time + self.total_switch_time) / busy
        }
    }
}

/// Configuration of the executor.
#[derive(Debug, Clone)]
pub struct CoopConfig {
    /// Module load times `l_i`, one per stage.
    pub loads: Vec<f64>,
    /// Mean per-stage demand (used to scale the T-gated cutoff). May be left
    /// empty, in which case it is computed from the submitted jobs.
    pub mean_demands: Vec<f64>,
    /// Scheduling policy.
    pub policy: Policy,
    /// Context-switch cost charged per dispatch (PS), per query (FCFS), or
    /// per served packet (staged policies).
    pub ctx_switch: f64,
    /// Record the CPU timeline (Figure-1 style).
    pub record_timeline: bool,
    /// Maximum number of timeline segments to keep.
    pub timeline_cap: usize,
}

impl CoopConfig {
    /// A config for `stages` identical modules under `policy`, with load
    /// time `load` each and no context-switch cost.
    pub fn uniform(stages: usize, load: f64, policy: Policy) -> Self {
        Self {
            loads: vec![load; stages],
            mean_demands: Vec::new(),
            policy,
            ctx_switch: 0.0,
            record_timeline: false,
            timeline_cap: 100_000,
        }
    }

    /// Enable timeline recording.
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }
}

/// The virtual-time cooperative executor.
pub struct CoopExecutor {
    cfg: CoopConfig,
}

struct Live {
    id: u64,
    arrival: f64,
    demands: Vec<f64>,
    stage: usize,
    remaining: f64,
}

struct Sim {
    clock: f64,
    cache: Option<usize>,
    report: CoopReport,
    record: bool,
    cap: usize,
    ctx_switch: f64,
}

impl Sim {
    fn seg(&mut self, len: f64, stage: usize, job: Option<u64>, kind: SegKind) {
        if len <= EPS {
            return;
        }
        match kind {
            SegKind::Load => self.report.total_load_time += len,
            SegKind::Work => self.report.total_work_time += len,
            SegKind::Switch => self.report.total_switch_time += len,
        }
        if self.record && self.report.timeline.len() < self.cap {
            self.report.timeline.push(Segment {
                start: self.clock,
                end: self.clock + len,
                stage,
                job,
                kind,
            });
        }
        self.clock += len;
    }

    /// Charge the module load for `stage` if the cache holds something else.
    fn touch_module(&mut self, stage: usize, load: f64, job: Option<u64>) {
        if self.cache != Some(stage) {
            self.seg(load, stage, job, SegKind::Load);
            self.cache = Some(stage);
        }
    }

    fn switch_cost(&mut self, stage: usize, job: Option<u64>) {
        if self.ctx_switch > 0.0 {
            self.seg(self.ctx_switch, stage, job, SegKind::Switch);
        }
    }

    fn complete(&mut self, j: &Live) {
        self.report.completions.push(Completion {
            id: j.id,
            arrival: j.arrival,
            finish: self.clock,
        });
    }
}

impl CoopExecutor {
    /// Create an executor; panics if `loads` is empty.
    pub fn new(cfg: CoopConfig) -> Self {
        assert!(!cfg.loads.is_empty(), "need at least one stage");
        Self { cfg }
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.cfg.loads.len()
    }

    /// Run the submitted jobs to completion and report.
    pub fn run(&self, mut jobs: Vec<Job>) -> CoopReport {
        let n = self.num_stages();
        for j in &jobs {
            assert_eq!(j.demands.len(), n, "job {} demand arity != stages", j.id);
        }
        jobs.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).unwrap());
        let mean_demands = if self.cfg.mean_demands.len() == n {
            self.cfg.mean_demands.clone()
        } else {
            compute_means(&jobs, n)
        };
        let mut sim = Sim {
            clock: 0.0,
            cache: None,
            report: CoopReport::default(),
            record: self.cfg.record_timeline,
            cap: self.cfg.timeline_cap,
            ctx_switch: self.cfg.ctx_switch,
        };
        match self.cfg.policy {
            Policy::ProcessorSharing { quantum } => self.run_ps(&mut sim, jobs, quantum),
            Policy::Fcfs => self.run_fcfs(&mut sim, jobs),
            _ => {
                let disc = self.cfg.policy.discipline().expect("staged policy");
                self.run_staged(&mut sim, jobs, disc, &mean_demands)
            }
        }
        sim.report.makespan = sim.clock;
        sim.report
    }

    fn run_ps(&self, sim: &mut Sim, jobs: Vec<Job>, quantum: f64) {
        assert!(quantum > 0.0, "PS quantum must be positive");
        let n = self.num_stages();
        let mut arrivals = Arrivals::new(jobs);
        let mut ready: VecDeque<Live> = VecDeque::new();
        loop {
            arrivals.admit(sim.clock, &mut ready);
            let Some(mut j) = ready.pop_front() else {
                match arrivals.next_time() {
                    Some(t) => {
                        sim.clock = t;
                        continue;
                    }
                    None => break,
                }
            };
            sim.switch_cost(j.stage, Some(j.id));
            let mut slice = quantum;
            let mut done = false;
            while slice > EPS {
                let s = j.stage;
                sim.touch_module(s, self.cfg.loads[s], Some(j.id));
                let run = slice.min(j.remaining);
                sim.seg(run, s, Some(j.id), SegKind::Work);
                j.remaining -= run;
                slice -= run;
                if j.remaining <= EPS {
                    j.stage += 1;
                    if j.stage == n {
                        sim.complete(&j);
                        done = true;
                        break;
                    }
                    j.remaining = j.demands[j.stage];
                }
            }
            arrivals.admit(sim.clock, &mut ready);
            if !done {
                ready.push_back(j);
            }
        }
    }

    fn run_fcfs(&self, sim: &mut Sim, jobs: Vec<Job>) {
        let n = self.num_stages();
        let mut arrivals = Arrivals::new(jobs);
        let mut fifo: VecDeque<Live> = VecDeque::new();
        loop {
            arrivals.admit(sim.clock, &mut fifo);
            let Some(mut j) = fifo.pop_front() else {
                match arrivals.next_time() {
                    Some(t) => {
                        sim.clock = t;
                        continue;
                    }
                    None => break,
                }
            };
            sim.switch_cost(j.stage, Some(j.id));
            while j.stage < n {
                let s = j.stage;
                sim.touch_module(s, self.cfg.loads[s], Some(j.id));
                sim.seg(j.remaining, s, Some(j.id), SegKind::Work);
                j.stage += 1;
                if j.stage < n {
                    j.remaining = j.demands[j.stage];
                }
            }
            sim.complete(&j);
        }
    }

    fn run_staged(
        &self,
        sim: &mut Sim,
        jobs: Vec<Job>,
        disc: BatchDiscipline,
        mean_demands: &[f64],
    ) {
        let n = self.num_stages();
        let mut arrivals = Arrivals::new(jobs);
        let mut queues: Vec<VecDeque<Live>> = (0..n).map(|_| VecDeque::new()).collect();
        let mut cursor = 0usize;
        loop {
            arrivals.admit(sim.clock, &mut queues[0]);
            let visit = (0..n).map(|k| (cursor + k) % n).find(|&i| !queues[i].is_empty());
            let Some(s) = visit else {
                match arrivals.next_time() {
                    Some(t) => {
                        sim.clock = t;
                        continue;
                    }
                    None => break,
                }
            };
            sim.touch_module(s, self.cfg.loads[s], None);
            match disc {
                BatchDiscipline::Exhaustive => {
                    while let Some(j) = queues[s].pop_front() {
                        self.serve_full(sim, j, s, &mut queues);
                        arrivals.admit(sim.clock, &mut queues[0]);
                    }
                }
                BatchDiscipline::Gated => {
                    let gate = queues[s].len();
                    for _ in 0..gate {
                        let j = queues[s].pop_front().expect("gated batch underflow");
                        self.serve_full(sim, j, s, &mut queues);
                    }
                    arrivals.admit(sim.clock, &mut queues[0]);
                }
                BatchDiscipline::GatedCutoff { cutoff_factor } => {
                    let cutoff = (cutoff_factor * mean_demands[s]).max(EPS);
                    let gate = queues[s].len();
                    for _ in 0..gate {
                        let mut j = queues[s].pop_front().expect("gated batch underflow");
                        if j.remaining <= cutoff + EPS {
                            self.serve_full(sim, j, s, &mut queues);
                        } else {
                            sim.switch_cost(s, Some(j.id));
                            sim.seg(cutoff, s, Some(j.id), SegKind::Work);
                            j.remaining -= cutoff;
                            queues[s].push_back(j);
                        }
                    }
                    arrivals.admit(sim.clock, &mut queues[0]);
                }
            }
            cursor = (s + 1) % n;
        }
    }

    /// Serve a packet's full remaining demand at stage `s`, then advance it.
    fn serve_full(&self, sim: &mut Sim, mut j: Live, s: usize, queues: &mut [VecDeque<Live>]) {
        sim.switch_cost(s, Some(j.id));
        sim.seg(j.remaining, s, Some(j.id), SegKind::Work);
        j.stage += 1;
        if j.stage == queues.len() {
            sim.complete(&j);
        } else {
            j.remaining = j.demands[j.stage];
            queues[j.stage].push_back(j);
        }
    }
}

struct Arrivals {
    jobs: std::vec::IntoIter<Job>,
    peeked: Option<Job>,
}

impl Arrivals {
    fn new(jobs: Vec<Job>) -> Self {
        Self { jobs: jobs.into_iter(), peeked: None }
    }

    fn next_time(&mut self) -> Option<f64> {
        if self.peeked.is_none() {
            self.peeked = self.jobs.next();
        }
        self.peeked.as_ref().map(|j| j.arrival)
    }

    fn admit(&mut self, now: f64, into: &mut VecDeque<Live>) {
        loop {
            if self.peeked.is_none() {
                self.peeked = self.jobs.next();
            }
            match &self.peeked {
                Some(j) if j.arrival <= now + EPS => {
                    let j = self.peeked.take().unwrap();
                    let remaining = j.demands[0];
                    into.push_back(Live {
                        id: j.id,
                        arrival: j.arrival,
                        demands: j.demands,
                        stage: 0,
                        remaining,
                    });
                }
                _ => return,
            }
        }
    }
}

fn compute_means(jobs: &[Job], n: usize) -> Vec<f64> {
    let mut means = vec![0.0; n];
    if jobs.is_empty() {
        return means;
    }
    for j in jobs {
        for (m, d) in means.iter_mut().zip(&j.demands) {
            *m += d;
        }
    }
    for m in &mut means {
        *m /= jobs.len() as f64;
    }
    means
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, arrival: f64, demands: &[f64]) -> Job {
        Job { id, arrival, demands: demands.to_vec() }
    }

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "expected {b}, got {a}");
    }

    #[test]
    fn fcfs_single_job_pays_all_loads() {
        let cfg = CoopConfig::uniform(3, 0.5, Policy::Fcfs);
        let r = CoopExecutor::new(cfg).run(vec![job(1, 0.0, &[1.0, 1.0, 1.0])]);
        // 3 loads of 0.5 + 3 units of work.
        approx(r.completions[0].finish, 4.5);
        approx(r.total_load_time, 1.5);
        approx(r.total_work_time, 3.0);
    }

    #[test]
    fn staged_batch_pays_load_once() {
        // Two queries arriving together: non-gated serves both per module, so
        // each module load is paid once, not twice.
        let cfg = CoopConfig::uniform(2, 1.0, Policy::NonGated);
        let r =
            CoopExecutor::new(cfg).run(vec![job(1, 0.0, &[1.0, 1.0]), job(2, 0.0, &[1.0, 1.0])]);
        approx(r.total_load_time, 2.0); // one load per module
        approx(r.total_work_time, 4.0);
        approx(r.makespan, 6.0);
        // Under FCFS the same jobs pay every load twice.
        let cfg = CoopConfig::uniform(2, 1.0, Policy::Fcfs);
        let r =
            CoopExecutor::new(cfg).run(vec![job(1, 0.0, &[1.0, 1.0]), job(2, 0.0, &[1.0, 1.0])]);
        approx(r.total_load_time, 4.0);
        approx(r.makespan, 8.0);
    }

    #[test]
    fn work_is_conserved_across_policies() {
        let jobs: Vec<Job> = (0..20).map(|i| job(i, i as f64 * 0.1, &[0.05, 0.1, 0.02])).collect();
        for p in Policy::figure5_set() {
            let cfg = CoopConfig {
                loads: vec![0.01; 3],
                mean_demands: Vec::new(),
                policy: p,
                ctx_switch: 0.0,
                record_timeline: false,
                timeline_cap: 0,
            };
            let r = CoopExecutor::new(cfg).run(jobs.clone());
            assert_eq!(r.completions.len(), 20, "{}", p.label());
            approx(r.total_work_time, 20.0 * 0.17);
        }
    }

    #[test]
    fn gated_excludes_late_arrivals_exhaustive_includes_them() {
        // Stage demands chosen so that a second query arrives while the first
        // batch is in service at module 0.
        let jobs = vec![job(1, 0.0, &[1.0, 1.0]), job(2, 0.5, &[1.0, 1.0])];
        let gated =
            CoopExecutor::new(CoopConfig::uniform(2, 0.0, Policy::DGated)).run(jobs.clone());
        let exhaustive =
            CoopExecutor::new(CoopConfig::uniform(2, 0.0, Policy::NonGated)).run(jobs.clone());
        // Exhaustive serves job 2 at module 0 right after job 1 (it arrived
        // during job 1's service), so job 1 finishes later than under gating.
        let finish =
            |r: &CoopReport, id: u64| r.completions.iter().find(|c| c.id == id).unwrap().finish;
        assert!(finish(&gated, 1) < finish(&exhaustive, 1));
        assert_eq!(gated.completions.len(), 2);
        assert_eq!(exhaustive.completions.len(), 2);
    }

    #[test]
    fn tgated_cutoff_preempts_long_jobs() {
        // One long and one short query in the same gate. With cutoff factor 1
        // (mean demand), the long query is preempted, the short one completes
        // in the first pass.
        let jobs = vec![job(1, 0.0, &[10.0]), job(2, 0.0, &[1.0])];
        let cfg = CoopConfig {
            loads: vec![0.0],
            mean_demands: vec![1.0],
            policy: Policy::TGated { cutoff_factor: 1.0 },
            ctx_switch: 0.0,
            record_timeline: false,
            timeline_cap: 0,
        };
        let r = CoopExecutor::new(cfg).run(jobs);
        let short = r.completions.iter().find(|c| c.id == 2).unwrap();
        let long = r.completions.iter().find(|c| c.id == 1).unwrap();
        assert!(short.finish < long.finish);
        approx(short.finish, 2.0); // 1s cutoff slice of job 1, then job 2
        approx(long.finish, 11.0);
    }

    #[test]
    fn ps_reloads_on_module_interleave() {
        // Two jobs at different modules interleaved by PS with a small
        // quantum: every dispatch reloads, so overhead dwarfs FCFS's.
        let jobs = vec![job(1, 0.0, &[1.0, 0.0]), job(2, 0.0, &[1.0, 0.0])];
        let ps = CoopExecutor::new(CoopConfig {
            loads: vec![0.1, 0.0],
            mean_demands: Vec::new(),
            policy: Policy::ProcessorSharing { quantum: 0.25 },
            ctx_switch: 0.0,
            record_timeline: false,
            timeline_cap: 0,
        })
        .run(jobs.clone());
        // Both jobs are at module 0; alternating between them does NOT change
        // the module, so the load is paid once: PS only hurts when queries sit
        // in different modules.
        approx(ps.total_load_time, 0.1);
        // Misaligned demands push the two jobs into *different* modules, and
        // every PS dispatch then reloads the cache.
        let jobs2 = vec![job(1, 0.0, &[0.3, 1.0]), job(2, 0.001, &[1.0, 0.3])];
        let ps2 = CoopExecutor::new(CoopConfig {
            loads: vec![0.1, 0.1],
            mean_demands: Vec::new(),
            policy: Policy::ProcessorSharing { quantum: 0.25 },
            ctx_switch: 0.0,
            record_timeline: false,
            timeline_cap: 0,
        })
        .run(jobs2);
        // Once job 1 crosses into module 1 while job 2 is still in module 0,
        // dispatches alternate modules and reload repeatedly.
        assert!(ps2.total_load_time > 0.5, "got {}", ps2.total_load_time);
    }

    #[test]
    fn timeline_records_load_then_work() {
        let cfg = CoopConfig::uniform(1, 0.5, Policy::Fcfs).with_timeline();
        let r = CoopExecutor::new(cfg).run(vec![job(1, 0.0, &[1.0])]);
        assert_eq!(r.timeline.len(), 2);
        assert_eq!(r.timeline[0].kind, SegKind::Load);
        assert_eq!(r.timeline[1].kind, SegKind::Work);
        approx(r.timeline[1].end, 1.5);
    }

    #[test]
    fn idle_period_jumps_to_next_arrival() {
        let cfg = CoopConfig::uniform(1, 0.0, Policy::Fcfs);
        let r = CoopExecutor::new(cfg).run(vec![job(1, 0.0, &[0.5]), job(2, 10.0, &[0.5])]);
        approx(r.completions[1].finish, 10.5);
        approx(r.completions[1].response(), 0.5);
    }

    #[test]
    fn quantile_and_mean_statistics() {
        let cfg = CoopConfig::uniform(1, 0.0, Policy::Fcfs);
        let jobs: Vec<Job> = (0..100).map(|i| job(i, 0.0, &[0.01])).collect();
        let r = CoopExecutor::new(cfg).run(jobs);
        assert_eq!(r.completions.len(), 100);
        // Jobs queue behind each other: responses 0.01, 0.02, ... 1.00.
        approx(r.mean_response(), 0.505);
        approx(r.quantile_response(1.0, 0.0), 1.0);
        assert!(r.quantile_response(0.5, 0.0) > 0.4);
    }
}
