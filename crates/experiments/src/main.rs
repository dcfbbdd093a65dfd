//! `coop-experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! coop-experiments <table1|table2|table3|fig1|fig2|fig3|fig4|fig4-scale|fig5|fig6|fig-epoch|fig-consensus|fluid|ablations|extensions|all>
//! coop-experiments sweep <scenario|spec.json|pack-dir>
//! coop-experiments perf-diff --baseline FILE --current FILE [--tolerance SHARE]
//!                  [--scale quick|default|paper] [--seed N] [--replicates N]
//!                  [--jobs N] [--out-dir DIR]
//!                  [--telemetry] [--trace-out FILE] [--probe-every N]
//!                  [--profile] [--profile-every K]
//!                  [--retries N] [--job-timeout SECS] [--resume DIR]
//!                  [--peers N[,N...]]
//! ```
//!
//! `sweep` runs a declarative scenario pack: a built-in scenario name (see
//! `--help`), one spec JSON file, or a directory of them. Each scenario
//! compiles onto the same journaled executor as the figure runners, so
//! `--resume`, `--retries`, `--telemetry` and byte-identical artifacts all
//! apply unchanged. Faults are declared in a spec's `faults` fragment: the
//! built-in `fig4-churn` pack re-runs the Fig. 4 comparison at churn rates
//! {0, 0.005, 0.01, 0.02}, and a copy of its spec files with other rates
//! or a `loss_prob` is a new churn sweep.
//!
//! Reports print to stdout; CSV/JSON series land in `target/experiments/`
//! (or `--out-dir`). `--replicates N` aggregates the simulation figures
//! over N consecutive seeds; `--jobs N` caps the worker threads that
//! independent simulations fan out across (results are byte-identical for
//! any job count).
//!
//! For the simulation figures (fig4/fig5/fig6), `--telemetry` records
//! counters/probes/spans and writes a `manifest.json` next to the
//! artifacts, `--trace-out FILE` additionally streams the kept trace
//! events to a JSONL file (implying `--telemetry`), and `--probe-every N`
//! sets the round-probe cadence. `--profile` (implying `--telemetry`)
//! additionally times the round loop's phases and writes a
//! `profile.json` next to the artifacts; `--profile-every K` samples the
//! phase timers onto every K-th batch slot. Telemetry and profiling are
//! purely observational: reports and figure artifacts are byte-identical
//! with them on or off. `perf-diff` compares two `profile.json`
//! snapshots (no simulations run) and exits 1 on structural regressions.
//!
//! # Crash safety
//!
//! Every simulation batch runs as `SimJob`s on one executor. The
//! journaled ones (fig4, fig5, fig6, fig-epoch, fig-consensus,
//! ablations, all, and scenario sweeps) append every
//! finished job to a fsynced `journal.jsonl` next to the artifacts. If a
//! run is killed, `--resume DIR` replays that ledger: completed jobs are
//! served from the journal, only the missing ones re-run, and the final
//! artifact set is byte-identical to an uninterrupted run. fig4-scale is
//! not journaled: its perf rows are live readings a replay cannot
//! reproduce. In every batch, a job that
//! panics or exceeds `--job-timeout` is retried `--retries` times with
//! deterministic backoff; if it still fails, the rest of the batch
//! completes, the failed cells are listed in `failures.json` (naming
//! mechanism, population and seed), and the process exits with code 1.

use std::process::ExitCode;
use std::sync::Arc;

use coop_experiments::exec::write_failures_json;
use coop_experiments::journal::{sweep_artifact_id, RunHeader};
use coop_experiments::{
    load_pack, runners, usage, Artifact, BatchError, Executor, JournalReplay, OutputDir,
    PanicInject, RunJournal, RunSpec, ScenarioPack, SpecError,
};
use coop_incentives::MechanismKind;

fn main() -> ExitCode {
    let spec = match RunSpec::parse(std::env::args().skip(1)) {
        Ok(spec) => spec,
        Err(SpecError::Help) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    // perf-diff compares two existing profile.json files; it runs no
    // simulations, so none of the pack/journal wiring below applies.
    if spec.artifact == Artifact::PerfDiff {
        return runners::perf_diff::run_cli(&spec);
    }
    // Scenario packs load before any journal wiring: the pack fingerprint
    // is part of the run identity `--resume` validates, and a bad spec
    // should fail fast with a field-level error, not after a journal
    // exists.
    let pack: Option<ScenarioPack> = if spec.artifact == Artifact::Sweep {
        let arg = spec
            .scenario
            .as_deref()
            .expect("parse requires a scenario for sweep");
        match load_pack(arg) {
            Ok(pack) => Some(pack),
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let inject = match PanicInject::from_env() {
        Ok(inject) => inject,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    let mut executor = spec.executor().with_panic_inject(inject);

    // Journal/replay wiring. The journal covers the batch-simulation
    // artifacts; analytic tables re-run in milliseconds and need none.
    let journaled = spec.artifact.supports_resume();
    let mut journal = None;
    if let Some(dir) = &spec.resume {
        OutputDir::set_default_root(dir.clone());
        let replay = match JournalReplay::load(dir) {
            Ok(replay) => replay,
            Err(err) => {
                eprintln!(
                    "error: --resume {}: cannot read {}: {err}",
                    dir.display(),
                    RunJournal::path_in(dir).display()
                );
                return ExitCode::from(2);
            }
        };
        let expected = run_header(&spec, pack.as_ref());
        match &replay.header {
            Some(header) if *header == expected => {}
            Some(header) => {
                eprintln!(
                    "error: --resume {}: journal belongs to a different run \
                     (journal: {} {} seed {} x{}; requested: {} {} seed {} x{})",
                    dir.display(),
                    header.artifact,
                    header.scale,
                    header.seed,
                    header.replicates,
                    expected.artifact,
                    expected.scale,
                    expected.seed,
                    expected.replicates,
                );
                return ExitCode::from(2);
            }
            None => {
                eprintln!(
                    "error: --resume {}: journal has no valid run header",
                    dir.display()
                );
                return ExitCode::from(2);
            }
        }
        if replay.dropped_lines > 0 {
            eprintln!(
                "[resume] {} corrupt journal line(s) dropped; affected jobs will re-run",
                replay.dropped_lines
            );
        }
        eprintln!(
            "[resume] replaying {} completed job(s) from {}",
            replay.completed_count(),
            RunJournal::path_in(dir).display()
        );
        // A run killed mid-write leaves its staging files behind; the
        // resumed run rewrites every artifact, so they are only litter.
        match coop_telemetry::remove_staging_files(dir) {
            Ok(names) if !names.is_empty() => eprintln!(
                "[resume] removed {} stale staging file(s) from {}",
                names.len(),
                dir.display()
            ),
            Ok(_) => {}
            Err(err) => eprintln!(
                "warning: --resume {}: could not remove staging files: {err}",
                dir.display()
            ),
        }
        match RunJournal::open_append(dir) {
            Ok(j) => {
                let j = Arc::new(j);
                journal = Some(Arc::clone(&j));
                executor = executor.with_replay(Arc::new(replay)).with_journal(j);
            }
            Err(err) => {
                eprintln!(
                    "error: --resume {}: cannot append to journal: {err}",
                    dir.display()
                );
                return ExitCode::from(2);
            }
        }
    } else {
        if let Some(dir) = &spec.out_dir {
            OutputDir::set_default_root(dir.clone());
        }
        if journaled {
            let out = OutputDir::default_dir();
            match RunJournal::create(out.path(), &run_header(&spec, pack.as_ref())) {
                Ok(j) => {
                    let j = Arc::new(j);
                    journal = Some(Arc::clone(&j));
                    executor = executor.with_journal(j);
                }
                // A journal is a safety net, never a reason not to run.
                Err(err) => eprintln!(
                    "warning: could not create journal in {}: {err}",
                    out.path().display()
                ),
            }
        }
    }

    let mut errors: Vec<BatchError> = Vec::new();
    match spec.artifact {
        Artifact::All => {
            for artifact in Artifact::ALL {
                run_one(artifact, &spec, &executor, &mut errors);
            }
            println!(
                "artifacts written to {}",
                OutputDir::default_dir().path().display()
            );
        }
        Artifact::Sweep => {
            let pack = pack.as_ref().expect("loaded above for sweep");
            let (report, sweep_errors) = runners::sweep::try_run_pack(
                pack,
                spec.scale,
                spec.seed,
                spec.replicates,
                &executor,
                &spec.telemetry_opts(),
                &OutputDir::default_dir(),
            );
            println!("{}", report.render());
            errors.extend(sweep_errors);
        }
        artifact => run_one(artifact, &spec, &executor, &mut errors),
    }

    let out = OutputDir::default_dir();
    if errors.is_empty() {
        if let Some(journal) = &journal {
            if let Err(err) = journal.record_artifact_dir(out.path()) {
                eprintln!("warning: could not record artifact hashes: {err}");
            }
        }
        return ExitCode::SUCCESS;
    }
    for err in &errors {
        eprintln!("error: {err}");
    }
    match write_failures_json(&out, &errors) {
        Ok(path) => eprintln!("failure report written to {}", path.display()),
        Err(err) => eprintln!("warning: could not write failures.json: {err}"),
    }
    ExitCode::FAILURE
}

/// The run identity `--resume` validates against the journal header. For
/// scenario sweeps the artifact id embeds the pack fingerprint, so a
/// resumed sweep refuses a journal written by a different (or edited)
/// pack.
fn run_header(spec: &RunSpec, pack: Option<&ScenarioPack>) -> RunHeader {
    let artifact = match pack {
        Some(pack) => sweep_artifact_id(pack.fingerprint()),
        None => spec.artifact.name().to_string(),
    };
    RunHeader {
        artifact,
        scale: spec.scale.name().to_string(),
        seed: spec.seed,
        replicates: spec.replicates,
    }
}

/// Runs one artifact, printing its report on success and collecting batch
/// failures (the run continues; the caller decides the exit code).
fn run_one(artifact: Artifact, spec: &RunSpec, executor: &Executor, errors: &mut Vec<BatchError>) {
    let (scale, seed) = (spec.scale, spec.seed);
    let replicated = spec.replicates > 1 && artifact.supports_replicates();
    let seeds = spec.seeds();
    let telemetry = spec.telemetry_opts();
    let out = OutputDir::default_dir();
    // Collects one batch runner's outcome: print the report or keep the
    // error for the final failures.json / exit code.
    macro_rules! batch {
        ($result:expr) => {
            match $result {
                Ok(report) => println!("{}", report.render()),
                Err(err) => errors.push(err),
            }
        };
    }
    match artifact {
        Artifact::Table1 => println!("{}", runners::table1::run(scale, seed).render()),
        Artifact::Table2 => println!("{}", runners::table2::run(scale, seed).render()),
        Artifact::Table3 => println!("{}", runners::table3::run(scale, seed).render()),
        Artifact::Fig1 => println!("{}", runners::fig1::run(scale, seed).render()),
        Artifact::Fig2 => println!("{}", runners::fig2::run(scale, seed).render()),
        Artifact::Fig3 => println!("{}", runners::fig3::run(scale, seed).render()),
        Artifact::Fig4 if replicated => batch!(runners::fig4::try_run_replicated(
            scale, &seeds, executor, &telemetry, &out
        )
        .map(|r| r.0)),
        Artifact::Fig5 if replicated => batch!(runners::fig5::try_run_replicated(
            scale, &seeds, executor, &telemetry, &out
        )
        .map(|r| r.0)),
        Artifact::Fig6 if replicated => batch!(runners::fig6::try_run_replicated(
            scale, &seeds, executor, &telemetry, &out
        )
        .map(|r| r.0)),
        Artifact::Fig4 => batch!(runners::fig4::try_run(
            scale,
            seed,
            &MechanismKind::EXTENDED,
            executor,
            &telemetry,
            &out
        )
        .map(|r| r.0)),
        Artifact::Fig4Scale => {
            match runners::fig4_scale::try_run(
                scale,
                seed,
                spec.peers.as_deref(),
                executor,
                &telemetry,
                &out,
            ) {
                Ok((report, perf, _)) => {
                    println!("{}", report.render());
                    println!("{}", perf.render());
                }
                Err(err) => errors.push(err),
            }
        }
        Artifact::FigEpoch => batch!(runners::fig_epoch::try_run(
            scale, seed, None, executor, &telemetry, &out
        )
        .map(|r| r.0)),
        // fig-consensus sweeps one population; `--peers` overrides it
        // (first entry wins — the flag's list form belongs to fig4-scale).
        Artifact::FigConsensus => batch!(runners::fig_consensus::try_run(
            scale,
            seed,
            spec.peers.as_ref().and_then(|p| p.first().copied()),
            None,
            executor,
            &telemetry,
            &out
        )
        .map(|r| r.0)),
        Artifact::Fig5 => {
            batch!(runners::fig5::try_run(scale, seed, executor, &telemetry, &out).map(|r| r.0))
        }
        Artifact::Fig6 => {
            batch!(runners::fig6::try_run(scale, seed, executor, &telemetry, &out).map(|r| r.0))
        }
        Artifact::Ablations => batch!(runners::ablations::try_run(scale, seed, executor)),
        Artifact::Extensions => println!("{}", runners::extensions::run(scale, seed).render()),
        Artifact::Fluid => println!("{}", runners::fluid::run(scale, seed).render()),
        Artifact::All => unreachable!("expanded by the caller"),
        Artifact::Sweep => unreachable!("dispatched by the caller"),
        Artifact::PerfDiff => unreachable!("dispatched before journal wiring"),
    }
}
