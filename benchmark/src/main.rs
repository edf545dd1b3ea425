//! `benchmark` — the command behind `BENCHMARK.json`.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --list            every metric by name, unit and direction
//! benchmark --agree [--quick] the whole set twice, pairs against bounds
//! ```
//! `--quick` is `--seconds 2`. Run from the repository root.

use staged_benchmark::json::Json;
use staged_benchmark::metrics::{end_to_end_defs, per_layer_defs};
use staged_benchmark::run;
use staged_benchmark::workloads::{workload, WORKLOADS};
use std::process::{Command, ExitCode};
use std::time::Duration;

const DEFAULT_SEED: u64 = 20_030_105; // CIDR 2003
const DEFAULT_SECONDS: f64 = 20.0; // the manifest's `run_seconds`
const QUICK_SECONDS: f64 = 2.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20      benchmark --list | --agree [--quick] [--seed N]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("end-to-end metrics (untraced run; worse by more than the bound = regression):");
    for d in end_to_end_defs() {
        let bound = d.bound.unwrap_or_default() * 100.0;
        println!("  {:<34} {:<6} {} is better, bound {bound:.0}%", d.name, d.unit, d.better);
    }
    println!("per-layer metrics (traced run; no bound):");
    for d in per_layer_defs() {
        println!("  {:<34} {:<6} {} is better", d.name, d.unit, d.better);
    }
}

/// Run the whole set twice in fresh processes and compare each workload ×
/// end-to-end metric pair against its bound.
fn agree(seed: u64, seconds: f64) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let run_set = || -> Vec<Json> {
        WORKLOADS
            .iter()
            .map(|w| {
                let out = Command::new(&exe)
                    .args(["--workload", w.name, "--trace", "0"])
                    .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                    .output()
                    .expect("spawn benchmark");
                let stdout = String::from_utf8_lossy(&out.stdout);
                let line = stdout.lines().last().unwrap_or_default();
                let result = Json::parse(line).unwrap_or(Json::Null);
                if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
                    eprintln!("{} did not finish correct: {line}", w.name);
                }
                result
            })
            .collect()
    };
    let (first, second) = (run_set(), run_set());
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut ok = true;
    for (i, w) in WORKLOADS.iter().enumerate() {
        ok &= [&first[i], &second[i]].iter().all(|r| r.get("correct") == Some(&Json::Bool(true)));
        for d in end_to_end_defs() {
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|m| m.get(&d.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            };
            let (a, b) = (value(&first[i]), value(&second[i]));
            let diff = (b - a).abs() / a;
            let bound = d.bound.unwrap_or_default();
            let verdict = if diff <= bound { "" } else { "  EXCEEDS" };
            ok &= diff <= bound;
            println!(
                "{:<18} {:<12} {a:>14.3} {b:>14.3} {:>7.1}% {:>6.0}%{verdict}",
                w.name,
                d.name,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let value = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    if has("--list") {
        list();
        return ExitCode::SUCCESS;
    }
    let Ok(seed) = value("--seed").map_or(Ok(DEFAULT_SEED), str::parse::<u64>) else {
        return usage();
    };
    let default_seconds = if has("--quick") { QUICK_SECONDS } else { DEFAULT_SECONDS };
    let seconds = match value("--seconds").map_or(Ok(default_seconds), str::parse::<f64>) {
        Ok(s) if s > 0.0 && s <= 600.0 => s,
        _ => return usage(),
    };
    if has("--agree") {
        return agree(seed, seconds);
    }
    let Some(w) = value("--workload").and_then(workload) else { return usage() };
    let traced = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage(),
    };

    let window = Duration::from_secs_f64(seconds);
    let (outcome, defs) = if traced {
        (run::traced(w, seed, window), per_layer_defs())
    } else {
        (run::untraced(w, seed, window), end_to_end_defs())
    };
    for (name, value) in &outcome.metrics {
        let d = defs.iter().find(|d| d.name == *name).expect("declared metric");
        println!("{name:<34} {value:>16.4} {:<6} ({} is better)", d.unit, d.better);
    }
    for e in &outcome.errors {
        eprintln!("INCORRECT: {e}");
    }
    println!("{}", outcome.result_line(&defs));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
