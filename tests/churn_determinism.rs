//! The fault subsystem's determinism guarantee: a churned run is
//! byte-identical across worker counts. Fault schedules are pre-drawn at
//! build time from the run's seed and per-transfer loss is decided by a
//! pure hash, so nothing about fault timing can depend on scheduling
//! order — this test pins that end to end, from raw results to the bytes
//! of the artifacts on disk.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use coop_experiments::runners::sweep;
use coop_experiments::{Executor, OutputDir, Scale, Scenario, ScenarioPack, SimJob, TelemetryOpts};
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

/// A one-scenario churn sweep: the six paper mechanisms under
/// [`stress_plan`], declared as a scenario spec.
fn stress_pack() -> ScenarioPack {
    let spec = r#"{
        "spec_version": 1,
        "name": "churn-stress",
        "artifacts": "sweep",
        "mechanisms": "all",
        "faults": {"churn_rate": 0.008, "outage_prob": 0.4, "outage_rounds": 5, "loss_prob": 0.05}
    }"#;
    let scenario = Scenario::parse(spec).expect("stress spec parses");
    assert_eq!(scenario.fault_plan(), stress_plan());
    ScenarioPack {
        source: "churn-stress".to_string(),
        scenarios: vec![scenario],
    }
}

#[test]
fn churn_sweep_artifacts_are_byte_identical_across_worker_counts() {
    let pack = stress_pack();
    let run = |dir: &Path, executor: &Executor| {
        let (report, errors) = sweep::try_run_pack(
            &pack,
            Scale::Quick,
            93,
            1,
            executor,
            &TelemetryOpts::disabled(),
            &OutputDir::new(dir),
        );
        assert!(errors.is_empty(), "{errors:?}");
        report
    };

    let dir_seq = scratch("jobs1");
    let report_seq = run(&dir_seq, &Executor::sequential());

    let dir_par = scratch("jobs4");
    let report_par = run(&dir_par, &Executor::new(4));

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
