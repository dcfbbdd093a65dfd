//! The fault subsystem's determinism guarantee: a churned run is
//! byte-identical across worker counts. Fault schedules are pre-drawn at
//! build time from the run's seed and per-transfer loss is decided by a
//! pure hash, so nothing about fault timing can depend on scheduling
//! order — this test pins that end to end, from raw results to the bytes
//! of the artifacts on disk.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use coop_experiments::runners::fig4_churn;
use coop_experiments::{Executor, OutputDir, Scale, SimJob, TelemetryOpts};
use coop_faults::FaultPlan;
use coop_incentives::MechanismKind;
use coop_telemetry::MANIFEST_FILE;

/// A churn + outage + loss plan exercising every fault path at once.
fn stress_plan() -> FaultPlan {
    FaultPlan::churn(0.008).with_outages(0.4, 5).with_loss(0.05)
}

#[test]
fn churned_results_are_identical_across_worker_counts() {
    let jobs: Vec<SimJob> = MechanismKind::ALL
        .iter()
        .map(|&kind| SimJob {
            kind,
            scale: Scale::Quick,
            seed: 91,
            plan: None,
            faults: Some(stress_plan()),
            workload: None,
        })
        .collect();
    let sequential = Executor::sequential().run_sims(&jobs);
    let parallel = Executor::new(8).run_sims(&jobs);
    // SimResult's PartialEq compares every recorded number bit-for-bit.
    assert_eq!(sequential, parallel, "worker count leaked into a churned run");
    assert!(
        sequential
            .iter()
            .any(|r| r.totals.fault_dropped_bytes > 0),
        "the stress plan actually dropped bytes"
    );
}

/// A fresh scratch directory under `target/` for this test run.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("churn_determinism")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every artifact in `dir` (file name → bytes), excluding telemetry-only
/// outputs that carry wall-clock readings.
fn artifact_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read artifact dir") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 file name")
            .to_string();
        if name == MANIFEST_FILE || name.ends_with(".jsonl") || name.ends_with("_telemetry.csv") {
            continue;
        }
        files.insert(name, std::fs::read(&path).expect("read artifact"));
    }
    files
}

#[test]
fn churn_sweep_artifacts_are_byte_identical_across_worker_counts() {
    let multipliers = [1.0];

    let dir_seq = scratch("jobs1");
    let (report_seq, _) = fig4_churn::try_run(
        Scale::Quick,
        93,
        Some(stress_plan()),
        &multipliers,
        &Executor::sequential(),
        &TelemetryOpts::disabled(),
        &OutputDir::new(&dir_seq),
    )
    .expect("fig4-churn batch");

    let dir_par = scratch("jobs4");
    let (report_par, _) = fig4_churn::try_run(
        Scale::Quick,
        93,
        Some(stress_plan()),
        &multipliers,
        &Executor::new(4),
        &TelemetryOpts::disabled(),
        &OutputDir::new(&dir_par),
    )
    .expect("fig4-churn batch");

    assert_eq!(report_seq.render(), report_par.render());
    let base = artifact_bytes(&dir_seq);
    let other = artifact_bytes(&dir_par);
    assert!(!base.is_empty(), "the sweep writes artifacts");
    assert_eq!(
        base.keys().collect::<Vec<_>>(),
        other.keys().collect::<Vec<_>>(),
        "worker count changed the artifact file set"
    );
    for (name, bytes) in &base {
        assert_eq!(bytes, &other[name], "worker count changed the bytes of {name}");
    }
}
