//! One benchmark run: set-up, warm-up, measured window, correctness gates,
//! and the result line. An untraced run yields the end-to-end metrics; a
//! traced run yields the per-layer ones and never an end-to-end figure.

use crate::gen::OpKind;
use crate::metrics::{self, Counters, MetricDef};
use crate::span::Recorder;
use crate::stats::{highest_supported, median, percentile, samples_beyond, us, MIN_BEYOND};
use crate::workloads::{self, drive, Lane, Reference, Workload};
use crate::world::{Dataset, World};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Equal parts the window is cut into. Rate, median and tail are computed
/// per slice and reported as the median over slices, so one checkpoint
/// stall or scheduler hiccup moves one slice, not the run's figure.
pub const SLICES: usize = 5;

/// `(op/s, p50 us, tail us)` of one connection's (or several merged
/// connections') samples: the median over [`SLICES`] slices of the window.
fn summarize(samples: &[(u64, u64)], window: Duration, tail: f64) -> (f64, f64, f64) {
    let (mut rates, mut p50s, mut tails) = (Vec::new(), Vec::new(), Vec::new());
    for slice in workloads::slices(samples, window, SLICES) {
        let mut latencies: Vec<u64> = slice.iter().map(|s| s.1).collect();
        latencies.sort_unstable();
        rates.push(workloads::slice_rate(&slice));
        p50s.push(us(percentile(&latencies, 50.0)));
        tails.push(us(percentile(&latencies, tail)));
    }
    (median(&rates), median(&p50s), median(&tails))
}

/// What a run found.
#[derive(Default)]
pub struct Outcome {
    /// Operations counted (see [`Lane::attempted`]), over all connections.
    pub attempted: u64,
    /// Operations that were refused, errored or answered wrongly.
    pub failed: u64,
    /// Gate violations and first failures; empty = correct.
    pub errors: Vec<String>,
    /// `(name, value)` in report order.
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// No failed operation and every gate held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The contract's result line: one JSON object.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = defs
                    .iter()
                    .find(|d| d.name == *name)
                    .unwrap_or_else(|| panic!("metric {name} is not declared"))
                    .unit;
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The unmeasured lead-in: long enough for caches, the buffer pool and
/// lazily spawned workers to settle, short next to the window.
fn warmup_for(window: Duration) -> Duration {
    (window / 4).min(Duration::from_secs(3))
}

fn tally(lanes: &[Lane], outcome: &mut Outcome) {
    for lane in lanes {
        outcome.attempted += lane.attempted;
        outcome.failed += lane.failed;
        if let Some(e) = &lane.first_error {
            outcome.errors.push(format!("operation failed: {e}"));
        }
    }
}

/// After the window: the write gate over the wire, then — the server
/// stopped — recovery from the run's stores. Returns recovery time.
fn gates(
    world: &World,
    dataset: Dataset,
    seed: u64,
    reference: &Reference,
    outcome: &mut Outcome,
) -> f64 {
    let writes = dataset == Dataset::Accounts;
    if writes {
        if let Err(e) = workloads::gate_balanced(world.addr(), seed, reference) {
            outcome.errors.push(format!("balance gate: {e}"));
        }
    }
    world.shutdown();
    match workloads::gate_recovery(world, writes.then(|| dataset.table())) {
        Ok(ms) => ms,
        Err(e) => {
            outcome.errors.push(format!("recovery gate: {e}"));
            0.0
        }
    }
}

/// The untraced run: [`SETUPS`] timed set-ups (the last one is used), a
/// warm-up, the measured window with nothing recording, then the gates.
pub fn untraced(workload: &Workload, seed: u64, window: Duration) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut world: Option<World> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = world.take() {
            previous.shutdown();
        }
        let t0 = Instant::now();
        world = Some(World::start(workload.dataset, seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let world = world.expect("at least one set-up");
    eprintln!("# {}", world.sizes(workload.dataset));
    let reference = Reference::build(workload.dataset, seed);

    let warmup = warmup_for(window);
    let (lanes, (), ()) = drive(world.addr(), workload, seed, &reference, warmup, window, || ());
    let mut outcome = Outcome::default();
    tally(&lanes, &mut outcome);

    let reported = &lanes[workload.report_lane].samples;
    let n = reported.len();
    if samples_beyond(n / SLICES, workload.tail) < MIN_BEYOND {
        eprintln!(
            "note: {n} samples leave fewer than {MIN_BEYOND} beyond p{} in a slice; \
             a slice supports {:?}",
            workload.tail,
            highest_supported(n / SLICES)
        );
    }
    let (per_s, p50_us, tail_us) = summarize(reported, window, workload.tail);
    let peak_rss_mb = metrics::peak_rss_mb();
    gates(&world, workload.dataset, seed, &reference, &mut outcome);

    println!("# {} seed={seed} window={:.1}s samples={n}", workload.name, window.as_secs_f64());
    outcome.metrics = vec![
        ("op_per_s".into(), per_s),
        ("op_p50_us".into(), p50_us),
        ("op_tail_us".into(), tail_us),
        ("setup_s".into(), median(&setup_s)),
        ("peak_rss_mb".into(), peak_rss_mb),
    ];
    outcome
}

/// The traced run: one set-up, a shorter window bracketed by counter
/// snapshots (the harness records nothing while it runs), then the ladder
/// and the hand-driven spans with the recorder on. Spans are written to
/// `benchmark/out/trace-<workload>.jsonl` under the working directory.
pub fn traced(workload: &Workload, seed: u64, seconds: Duration) -> Outcome {
    let world = World::start(workload.dataset, seed);
    eprintln!("# {}", world.sizes(workload.dataset));
    let reference = Reference::build(workload.dataset, seed);
    let window = seconds / 2;
    let snap = || Counters::take(&world);
    let (lanes, before, after) =
        drive(world.addr(), workload, seed, &reference, warmup_for(window), window, snap);
    let mut outcome = Outcome::default();
    tally(&lanes, &mut outcome);

    let reported = &lanes[workload.report_lane].samples;
    let txns: usize = lanes
        .iter()
        .zip(workload.lanes)
        .filter(|(_, kind)| **kind == OpKind::Transfer)
        .map(|(lane, _)| lane.samples.len())
        .sum();
    // Counters cannot tell connections apart, so "per op" is per operation
    // completed on any connection.
    let ops: usize = lanes.iter().map(|lane| lane.samples.len()).sum();
    let mut m = metrics::window_metrics(&world, &before, &after, ops as u64, txns as u64);
    let rates: Vec<f64> = workloads::slices(reported, window, SLICES)
        .iter()
        .map(|s| workloads::slice_rate(s))
        .collect();
    eprintln!("# ops/s per slice of the window: {rates:.1?}");
    m.push(("drift.last_over_first".into(), rates[SLICES - 1] / rates[0].max(f64::MIN_POSITIVE)));
    // The connections beside the reported one (all zero when there is none).
    let peers: Vec<(u64, u64)> = lanes
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != workload.report_lane)
        .flat_map(|(_, lane)| lane.samples.iter().copied())
        .collect();
    let (per_s, p50_us, tail_us) = summarize(&peers, window, 99.0);
    m.push(("peer.op_per_s".into(), per_s));
    m.push(("peer.op_p50_us".into(), p50_us));
    m.push(("peer.op_tail_us".into(), tail_us));

    let mut rec = Recorder::new(true);
    let probe = workload.lanes[workload.report_lane];
    m.extend(crate::ladder::run(probe, workload.dataset, &world, seed, seconds / 2, &mut rec));

    let recover_ms = gates(&world, workload.dataset, seed, &reference, &mut outcome);
    m.push(("engine.recover_ms".into(), recover_ms));

    let path = format!("benchmark/out/trace-{}.jsonl", workload.name);
    match rec.write_jsonl(std::path::Path::new(&path)) {
        Ok(()) => eprintln!("# {} spans written to {path}", rec.spans().len()),
        Err(e) => outcome.errors.push(format!("writing {path}: {e}")),
    }

    // Report in catalogue order, and insist on every declared name.
    let defs = metrics::per_layer_defs();
    outcome.metrics = defs
        .iter()
        .map(|d| {
            let value = m
                .iter()
                .find(|(name, _)| *name == d.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", d.name))
                .1;
            (d.name.clone(), value)
        })
        .collect();
    println!(
        "# {} seed={seed} traced: window={:.1}s ops={ops} txns={txns}",
        workload.name,
        window.as_secs_f64()
    );
    outcome
}
