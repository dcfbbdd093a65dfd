//! The profiler's determinism contract: phase timers and work counters
//! observe the round loop, they never steer it. A figure run with
//! profiling off, on at full rate, and sampled onto every other slot
//! must produce **byte-identical artifacts** — every CSV, JSON and SVG —
//! for any worker count. Profiling only *adds* `profile.json`, which
//! carries wall-clock data and is therefore kept out of the comparison
//! (as are the other telemetry-only outputs).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use coop_experiments::{load_pack, runners, Executor, OutputDir, Scale, TelemetryOpts};
use coop_incentives::MechanismKind;
use coop_telemetry::profile::{phase, work};
use coop_telemetry::{RunProfile, MANIFEST_FILE, PROFILE_FILE};

/// A fresh scratch directory under `target/` for this test run.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("profile_byte_identity")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every artifact in `dir` (file name → bytes), excluding telemetry-only
/// outputs: `manifest.json`, `profile.json`, `*.jsonl` and
/// `*_telemetry.csv` hold wall-clock readings or exist only when
/// telemetry is on.
fn artifact_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read artifact dir") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 file name")
            .to_string();
        if name == MANIFEST_FILE
            || name == PROFILE_FILE
            || name.ends_with(".jsonl")
            || name.ends_with("_telemetry.csv")
        {
            continue;
        }
        files.insert(name, std::fs::read(&path).expect("read artifact"));
    }
    files
}

fn assert_same_artifacts(base_dir: &Path, other_dir: &Path, tag: &str) {
    let base = artifact_bytes(base_dir);
    let other = artifact_bytes(other_dir);
    assert_eq!(
        base.keys().collect::<Vec<_>>(),
        other.keys().collect::<Vec<_>>(),
        "profile={tag} changed the artifact file set"
    );
    for (name, bytes) in &base {
        assert_eq!(
            bytes, &other[name],
            "profile={tag} changed the bytes of {name}"
        );
    }
}

fn profile_opts(every: u64) -> TelemetryOpts {
    TelemetryOpts {
        profile: true,
        profile_every: every,
        ..TelemetryOpts::disabled()
    }
}

fn read_profile(dir: &Path) -> RunProfile {
    let text = std::fs::read_to_string(dir.join(PROFILE_FILE)).expect("profile.json written");
    let profile = RunProfile::parse(&text).expect("profile.json parses");
    profile.validate().expect("profile.json validates");
    profile
}

#[test]
fn fig4_artifacts_are_byte_identical_across_profile_modes() {
    let seed = 63;

    // Baseline: profiling off, two workers.
    let dir_off = scratch("fig4-off");
    let (report_off, _) = runners::fig4::try_run(
        Scale::Quick,
        seed,
        &MechanismKind::EXTENDED,
        &Executor::new(2),
        &TelemetryOpts::disabled(),
        &OutputDir::new(&dir_off),
    )
    .expect("fig4 batch");
    assert!(
        !dir_off.join(PROFILE_FILE).exists(),
        "profiling off writes no profile.json"
    );

    // Full-rate profiling on four workers.
    let dir_on = scratch("fig4-on");
    let (report_on, _) = runners::fig4::try_run(
        Scale::Quick,
        seed,
        &MechanismKind::EXTENDED,
        &Executor::new(4),
        &profile_opts(1),
        &OutputDir::new(&dir_on),
    )
    .expect("fig4 batch");

    // Sampled profiling (every other slot), single worker.
    let dir_sampled = scratch("fig4-sampled");
    let (report_sampled, _) = runners::fig4::try_run(
        Scale::Quick,
        seed,
        &MechanismKind::EXTENDED,
        &Executor::sequential(),
        &profile_opts(2),
        &OutputDir::new(&dir_sampled),
    )
    .expect("fig4 batch");

    assert_eq!(report_off.render(), report_on.render());
    assert_eq!(report_off.render(), report_sampled.render());
    assert_same_artifacts(&dir_off, &dir_on, "on");
    assert_same_artifacts(&dir_off, &dir_sampled, "sampled");

    // The profile itself is structurally sound and attributes the run.
    let full = read_profile(&dir_on);
    assert_eq!(full.artifact, "fig4");
    assert_eq!((full.jobs, full.profiled_jobs), (8, 8));
    let attributed = full.attributed_fraction().expect("sim.run recorded");
    assert!(
        attributed >= 0.95,
        "phases attribute >= 95% of sim wall time, got {attributed}"
    );
    assert!(full.phase(phase::SIM_ALLOCATE).is_some());
    assert!(full.phase(phase::EXEC_BUILD).is_some());
    assert!(full.phase(phase::BATCH_SIMULATE).is_some());
    assert!(full.work_counter(work::PEERS_VISITED) > 0);
    assert!(
        full.work_counter(work::PEERS_PRODUCTIVE) <= full.work_counter(work::PEERS_VISITED)
    );
    let wasted = full.wasted_visit_ratio().expect("visits recorded");
    assert!((0.0..1.0).contains(&wasted), "{wasted}");
    assert_eq!(full.per_job.len(), 8, "one work row per mechanism");

    // Sampling halves the profiled slots (0,2,4,6 of 8) but the
    // deterministic work counters still cover every job.
    let sampled = read_profile(&dir_sampled);
    assert_eq!((sampled.jobs, sampled.profiled_jobs), (8, 4));
    assert_eq!(
        sampled.work_counter(work::PEERS_VISITED),
        full.work_counter(work::PEERS_VISITED),
        "work counters are exact regardless of timer sampling"
    );
}

#[test]
fn fig4_artifacts_are_byte_identical_across_shard_counts() {
    // `--shards` is a wall-clock lever like the profiler: it splits one
    // sim's round across scoped threads and must never show up in the
    // artifact bytes. The matrix crosses it with the other two levers —
    // worker count and profiling — against the unsharded sequential
    // baseline.
    let seed = 63;
    let run = |dir: &Path, jobs: usize, shards: usize, opts: &TelemetryOpts| {
        runners::fig4::try_run(
            Scale::Quick,
            seed,
            &MechanismKind::EXTENDED,
            &Executor::new(jobs).with_shards(shards),
            opts,
            &OutputDir::new(dir),
        )
        .expect("fig4 batch")
        .0
        .render()
    };

    let dir_base = scratch("shards-base");
    let base = run(&dir_base, 1, 1, &TelemetryOpts::disabled());

    let dir_s2 = scratch("shards-2-jobs-4");
    let s2 = run(&dir_s2, 4, 2, &TelemetryOpts::disabled());

    let dir_s4 = scratch("shards-4-profiled");
    let s4 = run(&dir_s4, 1, 4, &profile_opts(1));

    assert_eq!(base, s2, "shards=2 × jobs=4 changed the report");
    assert_eq!(base, s4, "shards=4 under profiling changed the report");
    assert_same_artifacts(&dir_base, &dir_s2, "shards=2,jobs=4");
    assert_same_artifacts(&dir_base, &dir_s4, "shards=4,profiled");

    // The sharded profiled run still attributes its phases sanely.
    let profile = read_profile(&dir_s4);
    assert_eq!(profile.jobs, profile.profiled_jobs);
    assert!(profile.work_counter(work::PEERS_VISITED) > 0);
}

#[test]
fn scenario_sweep_is_unchanged_by_profiling() {
    let pack = load_pack("flash-crowd-baseline").expect("built-in scenario loads");
    let seed = 91;
    let run = |dir: &Path, jobs: usize, shards: usize, opts: &TelemetryOpts| {
        let (report, errors) = runners::sweep::try_run_pack(
            &pack,
            Scale::Quick,
            seed,
            1,
            &Executor::new(jobs).with_shards(shards),
            opts,
            &OutputDir::new(dir),
        );
        assert!(errors.is_empty(), "{errors:?}");
        report.render()
    };

    let dir_off = scratch("sweep-off");
    let report_off = run(&dir_off, 1, 1, &TelemetryOpts::disabled());

    let dir_on = scratch("sweep-on");
    let report_on = run(&dir_on, 4, 1, &profile_opts(1));

    // Sharded + profiled sweep against the same baseline.
    let dir_sharded = scratch("sweep-sharded");
    let report_sharded = run(&dir_sharded, 4, 4, &profile_opts(1));

    assert_eq!(report_off, report_on);
    assert_eq!(report_off, report_sharded);
    assert_same_artifacts(&dir_off, &dir_on, "sweep-on");
    assert_same_artifacts(&dir_off, &dir_sharded, "sweep-shards=4");

    let profile = read_profile(&dir_on);
    assert_eq!(profile.jobs, profile.profiled_jobs);
    assert!(profile.attributed_fraction().expect("sim.run recorded") >= 0.95);
    assert!(profile.wasted_visit_ratio().is_some());
}
