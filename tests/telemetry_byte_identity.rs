//! The tentpole guarantee of the telemetry layer: observing a run never
//! changes it. A figure run with telemetry off, on at full rate, and on
//! with aggressive sampling must produce **byte-identical artifacts** —
//! every CSV, JSON and SVG — because the recorder draws no randomness and
//! no simulation branch consults it. Telemetry only *adds* outputs (the
//! JSONL trace and `manifest.json`), which carry wall-clock data and are
//! therefore kept out of the comparison.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use coop_experiments::{runners, Executor, OutputDir, Scale, TelemetryOpts};
use coop_incentives::MechanismKind;
use coop_telemetry::{json, RunManifest, MANIFEST_FILE};

/// A fresh scratch directory under `target/` for this test run.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("telemetry_byte_identity")
        .join(tag);
    // Stale files from a previous run would corrupt the comparison.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every artifact in `dir` (file name → bytes), excluding telemetry-only
/// outputs: `manifest.json` and `*.jsonl` hold wall-clock readings, and
/// `*_telemetry.csv` files exist only when telemetry is on (their probe
/// cadence follows `--probe-every`).
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
fn fig4_artifacts_are_byte_identical_across_telemetry_modes() {
    let seed = 61;
    let executor = Executor::new(2);

    // Baseline: telemetry off.
    let dir_off = scratch("off");
    let (report_off, trace_off) = runners::fig4::try_run(
        Scale::Quick,
        seed,
        &MechanismKind::EXTENDED,
        &executor,
        &TelemetryOpts::disabled(),
        &OutputDir::new(&dir_off),
    )
    .expect("fig4 batch");
    assert!(trace_off.is_none(), "disabled telemetry gathers nothing");

    // Full-rate telemetry with a JSONL trace.
    let dir_on = scratch("on");
    let trace_path = scratch("trace-on").join("fig4.jsonl");
    let opts_on = TelemetryOpts {
        enabled: true,
        trace_out: Some(trace_path.clone()),
        probe_every: 1,
        ..TelemetryOpts::disabled()
    };
    let (report_on, trace_on) = runners::fig4::try_run(
        Scale::Quick,
        seed,
        &MechanismKind::EXTENDED,
        &executor,
        &opts_on,
        &OutputDir::new(&dir_on),
    )
    .expect("fig4 batch");
    let trace_on = trace_on.expect("telemetry on gathers a trace");

    // Sparse sampling on a different worker count.
    let dir_sampled = scratch("sampled");
    let opts_sampled = TelemetryOpts {
        enabled: true,
        trace_out: None,
        probe_every: 7,
        ..TelemetryOpts::disabled()
    };
    let (report_sampled, _) = runners::fig4::try_run(
        Scale::Quick,
        seed,
        &MechanismKind::EXTENDED,
        &Executor::sequential(),
        &opts_sampled,
        &OutputDir::new(&dir_sampled),
    )
    .expect("fig4 batch");

    // The rendered reports agree exactly.
    assert_eq!(report_off.render(), report_on.render());
    assert_eq!(report_off.render(), report_sampled.render());

    // Every artifact file is byte-identical across the three runs.
    let base = artifact_bytes(&dir_off);
    assert!(
        base.len() >= 40,
        "fig4 writes CSV/JSON/SVG artifacts, found {}",
        base.len()
    );
    for (tag, dir) in [("on", &dir_on), ("sampled", &dir_sampled)] {
        let other = artifact_bytes(dir);
        assert_eq!(
            base.keys().collect::<Vec<_>>(),
            other.keys().collect::<Vec<_>>(),
            "telemetry={tag} changed the artifact file set"
        );
        for (name, bytes) in &base {
            assert_eq!(
                bytes, &other[name],
                "telemetry={tag} changed the bytes of {name}"
            );
        }
    }

    // Telemetry-only outputs exist exactly where requested and parse.
    assert!(
        !dir_off.join(MANIFEST_FILE).exists(),
        "telemetry off writes no manifest"
    );
    let probe_csv = "fig4_round_probes_telemetry.csv";
    assert!(
        !dir_off.join(probe_csv).exists(),
        "telemetry off writes no probe CSV"
    );
    let probe_text = std::fs::read_to_string(dir_on.join(probe_csv)).expect("probe CSV written");
    let mut probe_lines = probe_text.lines();
    assert_eq!(
        probe_lines.next(),
        Some("mechanism,seed,round,sim_s,active,bootstrapped,completed,inflight")
    );
    assert!(probe_lines.count() > 0, "probe rows recorded");
    let manifest_text =
        std::fs::read_to_string(dir_on.join(MANIFEST_FILE)).expect("manifest written");
    let manifest = RunManifest::parse(&manifest_text).expect("manifest parses");
    assert_eq!(manifest.artifact, "fig4");
    assert_eq!(manifest.seed, seed);
    assert_eq!(manifest.attack, "none");
    assert_eq!(manifest.mechanisms.len(), 8);
    assert!(manifest.events_kept > 0);
    assert!(
        manifest
            .counters
            .iter()
            .any(|(n, v)| n == "swarm.rounds" && *v > 0),
        "manifest carries merged counters"
    );
    assert!(
        manifest.phases.iter().any(|p| p.name == "simulate"),
        "manifest records wall-clock phases"
    );

    // Same config either way → same fingerprint in the sampled manifest.
    let sampled_manifest = RunManifest::parse(
        &std::fs::read_to_string(dir_sampled.join(MANIFEST_FILE)).expect("sampled manifest"),
    )
    .expect("sampled manifest parses");
    assert_eq!(
        manifest.config_fingerprint,
        sampled_manifest.config_fingerprint
    );

    // The JSONL trace parses line by line and matches the kept count.
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace written");
    let mut lines = 0u64;
    for line in trace_text.lines() {
        let doc = json::parse(line).expect("trace line parses");
        assert!(doc.get("type").and_then(json::Json::as_str).is_some());
        lines += 1;
    }
    assert_eq!(lines, trace_on.events_kept(), "trace line count matches");
    assert_eq!(lines, manifest.events_kept);
}

#[test]
fn replicated_fig4_is_unchanged_by_telemetry() {
    let seeds = [81, 82];
    let executor = Executor::new(2);

    let dir_off = scratch("rep-off");
    let (report_off, _) = runners::fig4::try_run_replicated(
        Scale::Quick,
        &seeds,
        &executor,
        &TelemetryOpts::disabled(),
        &OutputDir::new(&dir_off),
    )
    .expect("fig4 batch");

    let dir_on = scratch("rep-on");
    let opts = TelemetryOpts {
        enabled: true,
        trace_out: None,
        probe_every: 3,
        ..TelemetryOpts::disabled()
    };
    let (report_on, trace) = runners::fig4::try_run_replicated(
        Scale::Quick,
        &seeds,
        &executor,
        &opts,
        &OutputDir::new(&dir_on),
    )
    .expect("fig4 batch");
    assert_eq!(report_off.render(), report_on.render());

    let trace = trace.expect("trace gathered");
    assert_eq!(trace.jobs.len(), 16, "8 mechanisms × 2 seeds");

    let base = artifact_bytes(&dir_off);
    let other = artifact_bytes(&dir_on);
    assert_eq!(base, other, "telemetry changed replicated artifacts");

    let manifest =
        RunManifest::parse(&std::fs::read_to_string(dir_on.join(MANIFEST_FILE)).expect("manifest"))
            .expect("manifest parses");
    assert_eq!(manifest.replicates, 2);
    assert_eq!(manifest.mechanisms.len(), 8, "labels deduplicated");
}

/// A multi-scenario sweep writes one manifest and one trace for the whole
/// pack: the manifest's counters are the sum over every scenario's jobs
/// (not just the last scenario's), the trace holds every job's span, and
/// the run identity is the pack's source and fingerprint.
#[test]
fn pack_sweep_telemetry_covers_every_scenario() {
    use coop_experiments::{load_pack, ScenarioPack};

    let specs = scratch("pack-specs");
    std::fs::write(
        specs.join("a-churned.json"),
        r#"{"spec_version": 1, "name": "a-churned", "mechanisms": ["BitTorrent", "Altruism"],
            "peers": [24], "faults": {"churn_rate": 0.02, "loss_prob": 0.05}}"#,
    )
    .expect("write spec");
    std::fs::write(
        specs.join("b-clean.json"),
        r#"{"spec_version": 1, "name": "b-clean", "mechanisms": ["T-Chain"], "peers": [24, 32]}"#,
    )
    .expect("write spec");
    let pack = load_pack(specs.to_str().expect("utf-8 path")).expect("pack loads");
    assert_eq!(pack.scenarios.len(), 2);

    let run = |pack: &ScenarioPack, tag: &str| {
        let dir = scratch(tag);
        let opts = TelemetryOpts {
            trace_out: Some(dir.join("trace.jsonl")),
            ..TelemetryOpts::disabled()
        };
        let (_, errors) = runners::sweep::try_run_pack(
            pack,
            Scale::Quick,
            17,
            1,
            &Executor::new(2),
            &opts,
            &OutputDir::new(&dir),
        );
        assert!(errors.is_empty(), "{errors:?}");
        let manifest = RunManifest::parse(
            &std::fs::read_to_string(dir.join(MANIFEST_FILE)).expect("manifest written"),
        )
        .expect("manifest parses");
        let spans = std::fs::read_to_string(dir.join("trace.jsonl"))
            .expect("trace written")
            .lines()
            .filter(|line| line.contains("\"type\":\"job_span\""))
            .count();
        (manifest, spans, dir)
    };

    let (whole, spans, dir) = run(&pack, "pack-whole");
    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    let mut jobs = 0;
    for (i, scenario) in pack.scenarios.iter().enumerate() {
        let single = ScenarioPack {
            source: scenario.name.clone(),
            scenarios: vec![scenario.clone()],
        };
        let (manifest, single_spans, _) = run(&single, &format!("pack-part-{i}"));
        for (name, value) in manifest.counters {
            *expected.entry(name).or_insert(0) += value;
        }
        jobs += single_spans;
        assert!(
            dir.join(format!("{}_round_probes_telemetry.csv", scenario.figure))
                .is_file(),
            "{}: per-scenario probe CSV",
            scenario.name
        );
    }
    assert_eq!(jobs, 2 + 2);
    assert_eq!(spans, jobs, "the pack trace holds every job's span");
    assert_eq!(
        whole.counters,
        expected.into_iter().collect::<Vec<_>>(),
        "pack manifest counters are the sum over every scenario's jobs"
    );
    for fault in ["swarm.fault.departures", "swarm.fault.drops"] {
        assert!(
            whole.counters.iter().any(|(n, v)| n == fault && *v > 0),
            "{fault} from the first scenario survives the last one"
        );
    }
    assert_eq!(whole.artifact, "sweep");
    assert_eq!(whole.scenario, pack.source);
    assert_eq!(whole.spec_fingerprint, pack.fingerprint());
    assert_eq!(whole.mechanisms, ["BitTorrent", "Altruism", "T-Chain"]);
}
