//! Runs every workload at toy size (N = 200 per cell, one repetition, one
//! batch replicate), untraced and traced, through the same code path as
//! a full run, and checks that every metric `BENCHMARK.json` names
//! comes back with its unit and that no cell fails the correctness gate.

use std::process::Command;

use coop_telemetry::json::{self, Json};

const WORKLOADS: [&str; 4] = [
    "sparse-recip-30k",
    "dense-bt-10k",
    "adversarial-5k",
    "batch-quick",
];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = doc.get(section) else {
        panic!("BENCHMARK.json has no '{section}' list");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one toy-size benchmark run and returns its parsed result line.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_coop-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--toy",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn check(workload: &str, trace: bool) {
    let result = run(workload, trace);
    assert!(
        matches!(result.get("correct"), Some(Json::Bool(true))),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let section = if trace { "per_layer" } else { "end_to_end" };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(
        got,
        declared(section),
        "{workload}: {section} metrics and units"
    );
    for (name, m) in metrics {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(
            value.is_finite() && value >= 0.0,
            "{workload}: {name} = {value}"
        );
        if !trace {
            assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
        }
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        check(workload, false);
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    for workload in WORKLOADS {
        check(workload, true);
    }
}
