//! Manifest self-check: `BENCHMARK.json` satisfies the driver's schema,
//! mirrors the catalogue in the code, and names exactly the metrics the
//! binary prints. (A manifest the driver refuses costs the whole PR.)

use staged_benchmark::json::Json;
use staged_benchmark::metrics::{end_to_end_defs, per_layer_defs, MetricDef};
use staged_benchmark::workloads::WORKLOADS;
use std::process::Command;

fn manifest() -> (String, Json) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    (text, doc)
}

fn keys(v: &Json) -> Vec<&str> {
    v.members().iter().map(|(k, _)| k.as_str()).collect()
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} must be a string"))
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&s.len())
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&s.len()) && s.chars().all(ok)
}

#[test]
fn manifest_satisfies_the_driver_schema() {
    let (raw, doc) = manifest();
    assert!(raw.len() <= 64 * 1024, "manifest over 64 KiB");
    assert_eq!(
        keys(&doc),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
        "exactly the contract's keys"
    );

    let command = doc.get("command").unwrap().items();
    assert!((1..=32).contains(&command.len()));
    for part in command {
        let part = part.as_str().expect("command parts are strings");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let paths: Vec<&str> =
        doc.get("paths").unwrap().items().iter().filter_map(Json::as_str).collect();
    assert_eq!(paths, ["benchmark"]);

    let run_seconds = doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));

    let workloads = doc.get("workloads").unwrap().items();
    let end_to_end = doc.get("end_to_end").unwrap().items();
    let per_layer = doc.get("per_layer").unwrap().items();
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));

    let mut names = Vec::new();
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why is one line of at most 200");
        names.push(text(w, "name"));
    }
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound is a share of at most 0.25");
    }
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(is_unit(text(m, "unit")), "unit {:?}", text(m, "unit"));
        assert!(matches!(text(m, "better"), "higher" | "lower"));
        names.push(text(m, "name"));
    }
    for name in &names {
        assert!(is_name(name), "name {name:?} breaks [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");

    let setup = end_to_end.iter().find(|m| text(m, "name") == "setup_s").expect("setup_s");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let largest =
        end_to_end.iter().filter_map(|m| m.get("bound").and_then(Json::as_f64)).fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest), "setup_s: largest bound");

    // 4 + 22 × workloads runs plus two builds must end within 3420 s; a run
    // is the window plus warm-up, three set-ups and the gates (≤ 9 s here).
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(runs * (run_seconds + 9.0) + 2.0 * 120.0 <= 3420.0, "driver time cap");
}

#[test]
fn manifest_mirrors_the_catalogue_in_the_code() {
    let (_, doc) = manifest();
    let declared: Vec<(&str, &str)> = doc
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let coded: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, coded);

    let as_defs = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                (
                    text(m, "name").to_string(),
                    text(m, "unit").to_string(),
                    text(m, "better").to_string(),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    };
    let flat = |defs: Vec<MetricDef>| -> Vec<(String, String, String, Option<f64>)> {
        defs.into_iter().map(|d| (d.name, d.unit.into(), d.better.into(), d.bound)).collect()
    };
    assert_eq!(as_defs("end_to_end"), flat(end_to_end_defs()));
    assert_eq!(as_defs("per_layer"), flat(per_layer_defs()));
}

/// Run the binary on `workload` and return its result line's metrics as
/// `(name, unit)`, asserting the line's shape on the way.
fn printed(workload: &str, trace: &str) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
    let line = stdout.lines().last().expect("a result line");
    let result = Json::parse(line).expect("the last line is JSON");
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    result
        .get("metrics")
        .unwrap()
        .members()
        .iter()
        .map(|(name, m)| {
            assert_eq!(keys(m), ["value", "unit"]);
            assert!(m.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite));
            (name.clone(), text(m, "unit").to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let (_, doc) = manifest();
    let declared = |key: &str| -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = doc
            .get(key)
            .unwrap()
            .items()
            .iter()
            .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
            .collect();
        v.sort();
        v
    };
    for w in doc.get("workloads").unwrap().items() {
        let name = text(w, "name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut got = printed(name, trace);
            got.sort();
            assert_eq!(got, declared(key), "{name} --trace {trace}");
        }
        let spans = format!("{}/benchmark/out/trace-{name}.jsonl", env!("CARGO_TARGET_TMPDIR"));
        let first = std::fs::read_to_string(&spans).expect("the traced run wrote its spans");
        let first = Json::parse(first.lines().next().expect("at least one span")).unwrap();
        assert_eq!(
            keys(&first),
            ["name", "start_ns", "end_ns", "span_id", "parent_id", "request_id"]
        );
    }
}
