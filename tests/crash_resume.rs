//! The crash-safety contract, end to end: a panicking job never aborts
//! its batch, retries recover injected flakes without changing a single
//! byte, the watchdog converts hangs into named failures, checkpointing
//! is observationally free, and a killed run resumed from its journal
//! produces artifacts byte-identical to an uninterrupted run — even when
//! the crash tore the journal's trailing line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use coop_experiments::journal::RunHeader;
use coop_experiments::{
    runners, Executor, FailureKind, JournalReplay, OutputDir, PanicInject, RunJournal, Scale,
    SimJob, TelemetryOpts,
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
    assert!(run.results[failure.slot].is_none(), "failure names its slot");

    // The batch error renders an operator-actionable summary.
    let err = run.into_complete("fig4").unwrap_err();
    assert_eq!(err.figure, "fig4");
    assert_eq!(err.total, jobs.len());
    let text = err.to_string();
    assert!(text.contains("BitTorrent") && text.contains("N=80"), "{text}");
}

#[test]
fn retries_recover_flakes_without_changing_results() {
    let seed = 58;
    let jobs = SimJob::grid(Scale::Quick, &[seed], |_| None);
    let clean = Executor::new(2).run_sims(&jobs);

    // The T-Chain job panics on its first attempt only; one retry heals it.
    let flaky = Executor::new(2)
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

#[test]
fn checkpointing_cadence_is_observationally_free() {
    let seed = 60;
    let jobs = SimJob::grid(Scale::Quick, &[seed], |_| None);
    let plain = Executor::new(2).run_sims(&jobs);
    let run = Executor::new(2)
        .with_checkpoint_every(7)
        .run_sims_robust(&jobs, &TelemetryOpts::disabled());
    let (checkpointed, _) = run.into_complete("fig4").unwrap();
    assert_eq!(plain, checkpointed);
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
    assert_eq!(lines.len(), jobs.len(), "every job journaled, even the failure");
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
    assert_eq!(artifact_bytes(&dir), reference, "post-tear resume byte-exact");
}
