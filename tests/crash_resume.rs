//! The crash-safety contract, end to end: a panicking job never aborts
//! its batch, retries recover injected flakes without changing a single
//! byte, the watchdog converts hangs into named failures, checkpointing
//! is observationally free, and a killed run resumed from its journal
//! produces artifacts byte-identical to an uninterrupted run — even when
//! the crash tore the journal's trailing line.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use coop_experiments::journal::RunHeader;
use coop_experiments::runners::{ablations, fig4_scale, fig_consensus, fig_epoch};
use coop_experiments::{
    runners, Executor, FailureKind, JournalReplay, OutputDir, PanicInject, RunJournal, Scale,
    SimJob, TelemetryOpts, Workload,
};
use coop_incentives::MechanismKind;
use coop_telemetry::json::{self, Json};

/// A fresh scratch directory under `target/` for this test run.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("crash_resume")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every artifact in `dir` (file name → bytes), excluding the ledger
/// itself and telemetry-only outputs.
fn artifact_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read artifact dir") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 file name")
            .to_string();
        if name == "journal.jsonl" || name == "failures.json" || name == "manifest.json" {
            continue;
        }
        files.insert(name, std::fs::read(&path).expect("read artifact"));
    }
    files
}

/// Parsed `type == "job"` journal lines.
fn journal_job_lines(dir: &Path) -> Vec<Json> {
    let text = std::fs::read_to_string(RunJournal::path_in(dir)).expect("read journal");
    text.lines()
        .filter_map(|line| json::parse(line).ok())
        .filter(|doc| doc.get("type").and_then(Json::as_str) == Some("job"))
        .collect()
}

fn inject(label: &str, seed: u64, fail_attempts: Option<u64>) -> Option<PanicInject> {
    Some(PanicInject {
        label: label.to_string(),
        seed: Some(seed),
        fail_attempts,
    })
}

#[test]
fn panicking_job_is_isolated_and_precisely_named() {
    let seed = 57;
    let jobs = SimJob::grid(Scale::Quick, &[seed], |_| None);
    let executor = Executor::new(2).with_panic_inject(inject("BitTorrent", seed, None));
    let run = executor.run_sims_robust(&jobs, &TelemetryOpts::disabled());

    // Exactly the injected cell failed; every other job still completed.
    assert_eq!(run.failures.len(), 1);
    let failure = &run.failures[0];
    assert_eq!(failure.mechanism, "BitTorrent");
    assert_eq!(failure.seed, seed);
    assert_eq!(failure.peers, Scale::Quick.peers());
    assert_eq!(failure.attempts, 1, "no retries configured");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.backoff_ms.is_empty(), "no retries, no backoff");
    assert!(failure.message.contains("injected panic"));
    assert_eq!(
        run.results.iter().filter(|r| r.is_some()).count(),
        jobs.len() - 1
    );
    assert!(
        run.results[failure.slot].is_none(),
        "failure names its slot"
    );

    // The batch error renders an operator-actionable summary.
    let err = run.into_complete("fig4").unwrap_err();
    assert_eq!(err.figure, "fig4");
    assert_eq!(err.total, jobs.len());
    let text = err.to_string();
    assert!(
        text.contains("BitTorrent") && text.contains("N=80"),
        "{text}"
    );
}

#[test]
fn retries_recover_flakes_without_changing_results() {
    let seed = 58;
    let jobs = SimJob::grid(Scale::Quick, &[seed], |_| None);
    let clean = Executor::new(2).run_sims(&jobs);

    // The T-Chain job panics on its first attempt only; one retry heals it.
    let flaky =
        Executor::new(2)
            .with_retries(2)
            .with_panic_inject(inject("T-Chain", seed, Some(1)));
    let opts = TelemetryOpts {
        enabled: true,
        trace_out: None,
        probe_every: 4,
        ..TelemetryOpts::disabled()
    };
    let run = flaky.run_sims_robust(&jobs, &opts);
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    let trace = run.trace.as_ref().expect("telemetry gathers a trace");
    for span in &trace.jobs {
        let expected = u64::from(span.label == "T-Chain");
        assert_eq!(span.retries, expected, "{}", span.label);
    }
    let (results, _) = run.into_complete("fig4").unwrap();
    assert_eq!(results, clean, "a retried job must reproduce bit-exactly");
}

#[test]
fn watchdog_converts_hangs_into_timeout_failures() {
    let seed = 59;
    let jobs = SimJob::grid(Scale::Quick, &[seed], |_| None);
    // 1 ms is far below any quick-scale run; the watchdog must fire. The
    // abandoned worker thread finishes (and is discarded) in the background.
    let executor = Executor::sequential().with_job_timeout(Duration::from_millis(1));
    let run = executor.run_sims_robust(&jobs[..1], &TelemetryOpts::disabled());
    assert_eq!(run.failures.len(), 1);
    assert_eq!(run.failures[0].kind, FailureKind::Timeout);
    assert!(run.failures[0].message.contains("watchdog"));
    assert!(run.results[0].is_none());
}

/// A kill between `write_atomic`'s create and rename leaves a
/// `.NAME.PID.tmp` staging file next to the artifacts. A resumed run must
/// delete it and must not record it as an artifact, or `diff -r` against
/// an uninterrupted run shows it.
/// The `"type":"artifact"` lines of `dir`'s journal.
fn artifact_records(dir: &Path) -> Vec<String> {
    std::fs::read_to_string(RunJournal::path_in(dir))
        .expect("read journal")
        .lines()
        .filter(|l| l.contains("\"type\":\"artifact\""))
        .map(str::to_string)
        .collect()
}

#[test]
fn resume_deletes_stale_staging_files() {
    let dir = scratch("staging");
    let cli = |mode: &str| {
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_coop-experiments"))
            .args([
                "fig4", "--scale", "quick", "--seed", "73", "--jobs", "2", mode,
            ])
            .arg(&dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("run the CLI");
        assert!(status.success(), "fig4 {mode} failed: {status}");
    };
    cli("--out-dir");
    let staging = dir.join(".fig4_quick.json.4242.tmp");
    std::fs::write(&staging, b"{\"torn\":").expect("plant staging file");
    cli("--resume");
    assert!(!staging.exists(), "resume left the staging file behind");
    let artifacts = artifact_records(&dir);
    assert!(!artifacts.is_empty(), "resume records the artifact hashes");
    assert!(
        artifacts.iter().all(|l| !l.contains(".tmp")),
        "staging file recorded as an artifact: {artifacts:?}"
    );
}

#[test]
fn profiled_runs_of_one_command_record_identical_artifacts() {
    // `manifest.json` and `profile.json` carry wall-clock readings, so
    // they are not artifacts: two runs of one command must agree on
    // every artifact record.
    let run = |tag: &str| {
        let dir = scratch(tag);
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_coop-experiments"))
            .args([
                "fig4",
                "--scale",
                "quick",
                "--seed",
                "75",
                "--jobs",
                "2",
                "--profile",
                "--out-dir",
            ])
            .arg(&dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("run the CLI");
        assert!(status.success(), "fig4 --profile failed: {status}");
        for observed in ["manifest.json", "profile.json"] {
            assert!(dir.join(observed).exists(), "{observed} not written");
        }
        artifact_records(&dir)
    };
    let (a, b) = (run("profiled-a"), run("profiled-b"));
    assert!(!a.is_empty(), "no artifact records");
    assert!(
        a.iter()
            .all(|l| !l.contains("manifest.json") && !l.contains("profile.json")),
        "observation output recorded as an artifact: {a:?}"
    );
    assert_eq!(a, b, "artifact records differ between identical runs");
}

#[test]
fn killed_run_resumes_to_byte_identical_artifacts() {
    let seed = 71;
    let header = RunHeader {
        artifact: "fig4".to_string(),
        scale: "quick".to_string(),
        seed,
        replicates: 1,
    };
    let jobs = SimJob::grid(Scale::Quick, &[seed], |_| None);
    let tchain_fp = jobs
        .iter()
        .find(|j| j.label() == "T-Chain")
        .expect("grid covers T-Chain")
        .fingerprint();

    // Reference: one uninterrupted, journal-free run.
    let dir_ref = scratch("reference");
    runners::fig4::try_run(
        Scale::Quick,
        seed,
        &MechanismKind::EXTENDED,
        &Executor::new(2),
        &TelemetryOpts::disabled(),
        &OutputDir::new(&dir_ref),
    )
    .expect("fig4 batch");
    let reference = artifact_bytes(&dir_ref);
    assert!(reference.len() >= 40, "fig4 writes CSV/JSON/SVG artifacts");

    // "Crash": the T-Chain job dies on every attempt, so the batch fails
    // after journaling the five healthy cells — and writes no artifacts.
    let dir = scratch("resumed");
    let journal = Arc::new(RunJournal::create(&dir, &header).expect("create journal"));
    let broken = Executor::new(2)
        .with_journal(Arc::clone(&journal))
        .with_panic_inject(inject("T-Chain", seed, None));
    let err = runners::fig4::try_run(
        Scale::Quick,
        seed,
        &MechanismKind::EXTENDED,
        &broken,
        &TelemetryOpts::disabled(),
        &OutputDir::new(&dir),
    )
    .unwrap_err();
    assert_eq!(err.figure, "fig4");
    assert_eq!(err.failures.len(), 1);
    assert!(
        artifact_bytes(&dir).is_empty(),
        "a failed batch must not write partial figure artifacts"
    );
    let lines = journal_job_lines(&dir);
    assert_eq!(
        lines.len(),
        jobs.len(),
        "every job journaled, even the failure"
    );
    drop(broken);
    drop(journal);

    // Resume: the five completed jobs replay from the ledger, only the
    // (now healthy) T-Chain cell re-runs.
    let replay = JournalReplay::load(&dir).expect("load journal");
    assert_eq!(replay.header, Some(header.clone()));
    assert_eq!(replay.completed_count(), jobs.len() - 1);
    assert_eq!(replay.prior_attempts(tchain_fp), 1);
    let journal = Arc::new(RunJournal::open_append(&dir).expect("append journal"));
    let resumed = Executor::new(2)
        .with_replay(Arc::new(replay))
        .with_journal(Arc::clone(&journal));
    let (report, _) = runners::fig4::try_run(
        Scale::Quick,
        seed,
        &MechanismKind::EXTENDED,
        &resumed,
        &TelemetryOpts::disabled(),
        &OutputDir::new(&dir),
    )
    .expect("resume completes");
    assert_eq!(report.rows.len(), jobs.len());
    drop(resumed);
    drop(journal);

    // The flagship guarantee: resumed artifacts are byte-identical.
    assert_eq!(artifact_bytes(&dir), reference, "resume must be byte-exact");
    // Only the failed cell re-ran: original 6 records + 1 new success.
    assert_eq!(journal_job_lines(&dir).len(), jobs.len() + 1);

    // A torn trailing line (the classic power-cut artifact) drops exactly
    // that record; the affected job re-runs and byte-identity still holds.
    let path = RunJournal::path_in(&dir);
    let text = std::fs::read_to_string(&path).expect("read journal");
    std::fs::write(&path, &text[..text.len() - 40]).expect("tear journal");
    let replay = JournalReplay::load(&dir).expect("torn journal still loads");
    assert_eq!(replay.dropped_lines, 1);
    assert_eq!(replay.completed_count(), jobs.len() - 1, "torn job re-runs");
    let journal = Arc::new(RunJournal::open_append(&dir).expect("append journal"));
    let healed = Executor::new(2)
        .with_replay(Arc::new(replay))
        .with_journal(journal);
    runners::fig4::try_run(
        Scale::Quick,
        seed,
        &MechanismKind::EXTENDED,
        &healed,
        &TelemetryOpts::disabled(),
        &OutputDir::new(&dir),
    )
    .expect("resume after torn line completes");
    assert_eq!(
        artifact_bytes(&dir),
        reference,
        "post-tear resume byte-exact"
    );
}

/// Journal replay serves a job the result stored under its fingerprint,
/// so no two cells of one sweep grid may share one. The check also runs
/// with every label stripped: the fig-epoch rungs share mechanism, seed
/// and scale, so their mechanism-parameter override itself must reach
/// the fingerprint, not just the label naming it.
#[test]
fn sweep_grid_jobs_have_distinct_fingerprints() {
    let grids = [
        (
            "fig-epoch",
            fig_epoch::jobs(Scale::Quick, 42, &fig_epoch::EPOCH_ROUNDS),
        ),
        (
            "fig-consensus",
            fig_consensus::jobs(Scale::Quick, 42, None, &fig_consensus::FRACTIONS),
        ),
        (
            "fig4-scale",
            fig4_scale::jobs(Scale::Quick, 42, &fig4_scale::POPULATIONS),
        ),
        ("ablations", ablations::jobs(Scale::Quick, 42)),
    ];
    let unlabeled = |job: &SimJob| SimJob {
        workload: job.workload.map(|w| Workload { label: None, ..w }),
        ..*job
    };
    for (grid, jobs) in grids {
        let fingerprints: HashSet<u64> = jobs.iter().map(SimJob::fingerprint).collect();
        assert_eq!(
            fingerprints.len(),
            jobs.len(),
            "{grid}: fingerprints collide"
        );
        let fingerprints: HashSet<u64> = jobs.iter().map(|j| unlabeled(j).fingerprint()).collect();
        assert_eq!(
            fingerprints.len(),
            jobs.len(),
            "{grid}: fingerprints collide once labels are stripped"
        );
    }
}

/// Panic injection reaches the sweep grids: a targeted cell fails every
/// attempt (the retry included), the batch names it by its label, and no
/// artifacts are written.
#[test]
fn injected_panics_fail_sweep_grids_and_name_the_cell() {
    let executor = |target: &str| {
        Executor::new(2)
            .with_retries(1)
            .with_panic_inject(Some(PanicInject::parse(target).expect("valid injection")))
    };
    let check = |err: coop_experiments::BatchError, figure: &str, label: &str, dir: &Path| {
        assert_eq!(err.figure, figure);
        assert_eq!(err.failures.len(), 1, "{figure}: {:?}", err.failures);
        assert_eq!(err.failures[0].mechanism, label);
        assert_eq!(err.failures[0].attempts, 2, "the retry ran too");
        assert_eq!(err.failures[0].kind, FailureKind::Panic);
        assert!(artifact_bytes(dir).is_empty(), "{figure} wrote artifacts");
    };

    let dir = scratch("panic-epoch");
    let err = fig_epoch::try_run(
        Scale::Quick,
        42,
        None,
        &executor("EpochSettlement@16:*:*"),
        &TelemetryOpts::disabled(),
        &OutputDir::new(&dir),
    )
    .unwrap_err();
    check(err, "fig-epoch", "EpochSettlement@16", &dir);

    let dir = scratch("panic-consensus");
    let err = fig_consensus::try_run(
        Scale::Quick,
        42,
        None,
        Some(&[0.0, 0.1]),
        &executor("consensus:defense@0.1:*:*"),
        &TelemetryOpts::disabled(),
        &OutputDir::new(&dir),
    )
    .unwrap_err();
    check(err, "fig-consensus", "consensus:defense@0.1", &dir);
}

/// fig-epoch cells are journaled `SimJob`s: a run killed mid-batch (its
/// journal cut after three cells, no artifacts written yet) resumes by
/// replaying those three and re-running only the missing cells, and the
/// artifacts come out byte-identical to an uninterrupted run.
#[test]
fn fig_epoch_resumes_from_a_truncated_journal() {
    let seed = 73;
    let epochs: &[u64] = &[4, 64];
    let header = RunHeader {
        artifact: "fig-epoch".to_string(),
        scale: "quick".to_string(),
        seed,
        replicates: 1,
    };
    let run = |executor: &Executor, dir: &Path| {
        fig_epoch::try_run(
            Scale::Quick,
            seed,
            Some(epochs),
            executor,
            &TelemetryOpts::disabled(),
            &OutputDir::new(dir),
        )
        .expect("fig-epoch batch")
    };
    let cells = fig_epoch::jobs(Scale::Quick, seed, epochs).len();

    let dir_ref = scratch("epoch-reference");
    run(&Executor::new(2), &dir_ref);
    let reference = artifact_bytes(&dir_ref);
    assert_eq!(reference.len(), 2, "sweep CSV and JSON");

    // A journaled run, then the "crash": keep the header and the first
    // three job records, and drop the artifacts the killed run would not
    // have reached.
    let dir = scratch("epoch-resumed");
    let journal = Arc::new(RunJournal::create(&dir, &header).expect("create journal"));
    run(&Executor::new(2).with_journal(journal), &dir);
    let path = RunJournal::path_in(&dir);
    let text = std::fs::read_to_string(&path).expect("read journal");
    let kept: Vec<&str> = text.lines().take(4).collect();
    std::fs::write(&path, kept.join("\n") + "\n").expect("truncate journal");
    for name in reference.keys() {
        std::fs::remove_file(dir.join(name)).expect("remove artifact");
    }
    let labels = |lines: &[Json]| -> BTreeSet<String> {
        lines
            .iter()
            .map(|l| {
                l.get("label")
                    .and_then(Json::as_str)
                    .expect("label")
                    .to_string()
            })
            .collect()
    };
    let replayed = labels(&journal_job_lines(&dir));
    assert_eq!(replayed.len(), 3);

    let replay = JournalReplay::load(&dir).expect("load journal");
    assert_eq!(replay.header, Some(header));
    assert_eq!(replay.completed_count(), 3);
    let journal = Arc::new(RunJournal::open_append(&dir).expect("append journal"));
    run(
        &Executor::new(2)
            .with_replay(Arc::new(replay))
            .with_journal(journal),
        &dir,
    );
    assert_eq!(artifact_bytes(&dir), reference, "resume must be byte-exact");

    // Only the missing cells re-ran: each cell has exactly one record,
    // and the records appended by the resume are the cells the
    // truncation dropped.
    let lines = journal_job_lines(&dir);
    assert_eq!(lines.len(), cells);
    let rerun = labels(&lines[3..]);
    assert_eq!(rerun.len(), cells - 3);
    assert!(rerun.is_disjoint(&replayed), "a replayed cell re-ran");
}
