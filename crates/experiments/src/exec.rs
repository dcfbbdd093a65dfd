//! Parallel batch execution of independent simulation jobs.
//!
//! Every experiment in this crate decomposes into a grid of *independent*
//! simulation runs — mechanism × seed × attack scenario — whose results
//! are then aggregated and written sequentially. This module provides the
//! execution layer for that decomposition:
//!
//! - [`SimJob`] is one typed cell of the grid (built en masse with
//!   [`SimJob::grid`]). Per-cell overrides — mechanism parameters, piece
//!   strategy, arrival model, swarm profile, label — ride in its
//!   [`Workload`], so every simulation this crate runs as a batch, from
//!   the paper figures to the fig-epoch, fig-consensus, fig4-scale and
//!   ablation sweeps, is a `SimJob` built and run by
//!   [`SimJob::run_profiled`].
//! - [`Executor`] fans a slice of jobs out across a bounded pool of
//!   `std::thread::scope` workers and collects results **in slot order**,
//!   so output is byte-identical regardless of worker count.
//!
//! Determinism comes for free from the simulation itself: each job's
//! randomness derives entirely from its own seed through `coop-des`'s
//! [`SeedTree`](coop_des::rng::SeedTree) streams, so a job behaves
//! identically whether it runs first on one thread or last on sixteen.
//! The executor preserves that property end to end by never letting
//! scheduling order leak into result order.
//!
//! # Crash safety
//!
//! The executor also carries the run's *robustness policy*:
//!
//! - **Panic isolation** — every job attempt runs under
//!   [`std::panic::catch_unwind`]; a panicking job becomes a
//!   [`JobFailure`] instead of tearing down the batch, and the remaining
//!   jobs still complete ([`Executor::run_sims_robust`]).
//! - **Watchdog timeouts** — with [`Executor::with_job_timeout`] each
//!   attempt runs on its own watchdog-supervised thread; an attempt that
//!   outlives the budget is abandoned (the thread detaches) and counts as
//!   a [`FailureKind::Timeout`].
//! - **Deterministic retries** — failed attempts are retried up to
//!   [`Executor::with_retries`] times with an exponential backoff derived
//!   purely from the job's configuration fingerprint ([`backoff_ms`]), so
//!   retry timing never injects nondeterminism into results.
//! - **Journaling & resume** — with [`Executor::with_journal`] every
//!   finished job is appended (and fsynced) to the run's
//!   [`RunJournal`]; with [`Executor::with_replay`] jobs already
//!   completed in a previous interrupted run are satisfied from the
//!   ledger without re-simulating, which is what makes `--resume`
//!   byte-identical to an uninterrupted run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use coop_attacks::AttackPlan;
use coop_faults::FaultPlan;
use coop_incentives::analysis::capacity::CapacityClassMix;
use coop_incentives::MechanismKind;
use coop_swarm::{flash_crowd_with, staggered_arrivals, SimResult, Simulation};
use coop_telemetry::{
    fingerprint_debug, profile::phase, ProfileReport, Profiler, Recorder, Stopwatch,
    TelemetryConfig, TelemetryReport,
};
use serde::Serialize;

use crate::journal::{JobOutcome, JobRecord, JournalReplay, RunJournal};
use crate::scenario::{JobLabel, Workload};
use crate::telemetry::{BatchTrace, JobTrace, TelemetryOpts};
use crate::{OutputDir, Scale};

/// One independent simulation run: a cell of the mechanism × seed ×
/// attack-scenario grid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimJob {
    /// The incentive mechanism under test.
    pub kind: MechanismKind,
    /// Swarm scale (population, file size, horizon).
    pub scale: Scale,
    /// Seed for every random draw in the run.
    pub seed: u64,
    /// Attack scenario, or `None` for an all-compliant swarm.
    pub plan: Option<AttackPlan>,
    /// Fault/churn scenario, or `None` for a fault-free run.
    pub faults: Option<FaultPlan>,
    /// Per-job overrides (a scenario's population and bandwidth mix, a
    /// sweep cell's mechanism parameters, piece strategy, arrivals,
    /// swarm profile and label), or `None` for the scale's defaults.
    /// Part of the `Debug` rendering, so a changed override changes
    /// [`SimJob::fingerprint`] and invalidates journal replay for
    /// exactly the jobs it describes.
    pub workload: Option<Workload>,
}

impl SimJob {
    /// A compliant, fault-free run of `kind` at `scale`'s defaults.
    pub fn new(kind: MechanismKind, scale: Scale, seed: u64) -> SimJob {
        SimJob {
            kind,
            scale,
            seed,
            plan: None,
            faults: None,
            workload: None,
        }
    }

    /// Expands a run grid into jobs: for each seed (outer), all eight
    /// mechanisms in [`MechanismKind::EXTENDED`] order (inner) — the
    /// paper's six plus the epoch-settled and consensus-reputation
    /// variants — with the scenario chosen per mechanism by `plan_for`.
    ///
    /// The seed-major layout means `jobs[s * 8 .. (s + 1) * 8]` is exactly
    /// the figure row set for `seeds[s]`.
    pub fn grid(
        scale: Scale,
        seeds: &[u64],
        plan_for: impl Fn(MechanismKind) -> Option<AttackPlan>,
    ) -> Vec<SimJob> {
        SimJob::grid_of(scale, seeds, &MechanismKind::EXTENDED, plan_for)
    }

    /// [`SimJob::grid`] over an explicit mechanism list (scenario packs
    /// restrict figures to their declared mechanisms; the figure runners
    /// default to [`MechanismKind::EXTENDED`]).
    pub fn grid_of(
        scale: Scale,
        seeds: &[u64],
        kinds: &[MechanismKind],
        plan_for: impl Fn(MechanismKind) -> Option<AttackPlan>,
    ) -> Vec<SimJob> {
        seeds
            .iter()
            .flat_map(|&seed| kinds.iter().map(move |&kind| (seed, kind)))
            .map(|(seed, kind)| SimJob {
                plan: plan_for(kind),
                ..SimJob::new(kind, scale, seed)
            })
            .collect()
    }

    /// The effective population size: the workload override when the job
    /// came from a scenario, the scale default otherwise.
    pub fn peers(&self) -> usize {
        self.workload
            .and_then(|w| w.peers)
            .unwrap_or_else(|| self.scale.peers())
    }

    /// Runs this job to completion. The seed controls population,
    /// arrivals and every random draw; identical jobs give identical
    /// results.
    pub fn run(&self) -> SimResult {
        self.run_profiled(None, false, 1).0
    }

    /// Runs this job with observation attached: an enabled recorder built
    /// from `telemetry` (when given), a live wall-clock profiler when
    /// `profiled` (`--profile`; construction is timed under
    /// [`phase::EXEC_BUILD`]), and `shards` intra-sim worker threads
    /// (`--shards`; 1 = unsharded). All three only observe: the
    /// [`SimResult`] is identical to [`SimJob::run`]'s for any combination
    /// (pinned by the byte-identity tests).
    ///
    /// A job without a [`Workload`] (or with default overrides) runs the
    /// scale's swarm: its population, the paper's capacity mix and
    /// mechanism parameters, rarest-first, and a flash crowd.
    pub fn run_profiled(
        &self,
        telemetry: Option<&TelemetryConfig>,
        profiled: bool,
        shards: usize,
    ) -> (SimResult, TelemetryReport, ProfileReport) {
        let mut profiler = if profiled {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        };
        let build_t = profiler.start();
        let workload = self.workload.unwrap_or_default();
        let mut config = workload.profile.config(self.scale, self.seed);
        if let Some(params) = workload.params {
            config.mechanism_params = params;
        }
        if let Some(strategy) = workload.piece_strategy {
            config.piece_strategy = strategy;
        }
        let mix = match workload.mix {
            Some(mix) => mix.to_mix(),
            None => CapacityClassMix::paper_default(),
        };
        let (n, kind, seed) = (self.peers(), self.kind, self.seed);
        let population = match workload.arrival_gap {
            Some(gap) => staggered_arrivals(&config, n, kind, seed, &mix, gap),
            None => flash_crowd_with(&config, n, kind, seed, &mix, self.scale.arrival_window()),
        };
        let recorder = match telemetry {
            Some(telemetry) => Recorder::enabled(telemetry.clone()),
            None => Recorder::disabled(),
        };
        let mut builder = Simulation::builder(config)
            .population(population)
            .recorder(recorder);
        if let Some(plan) = self.plan {
            // The builder seeds patches with `config.seed`, which is the
            // job's seed.
            builder = builder.attack_plan(plan);
        }
        if let Some(faults) = self.faults {
            builder = builder.fault_plan(faults);
        }
        if shards > 1 {
            builder = builder.shards(shards);
        }
        let sim = builder.build().expect("scale configs validate");
        profiler.stop(phase::EXEC_BUILD, build_t);
        sim.with_profiler(profiler).run_profiled()
    }

    /// The fingerprint of this job's full configuration — the key the
    /// crash-safety journal files it under.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_debug(self)
    }

    /// The job's display label: its workload's label when it has one,
    /// its mechanism's canonical name otherwise. The journal, traces,
    /// `failures.json` and panic injection all name the job by it.
    pub fn label(&self) -> &str {
        self.workload
            .as_ref()
            .and_then(|w| w.label.as_ref())
            .map_or(self.kind.name(), JobLabel::as_str)
    }
}

/// The environment variable the CLI reads to inject deterministic job
/// panics (a test/CI hook): `LABEL:SEED:COUNT`, e.g.
/// `BitTorrent:42:1` to make the BitTorrent/seed-42 job panic on its
/// first attempt only, or `BitTorrent:*:*` to make every BitTorrent job
/// panic on every attempt.
pub const PANIC_INJECT_ENV: &str = "COOP_PANIC_INJECT";

/// Deterministic panic injection for exercising the failure path.
///
/// Matching jobs panic inside the normal isolation machinery (under
/// `catch_unwind`, on the watchdog thread when a timeout is set), so
/// tests and the CI panic-smoke job drive exactly the code paths a real
/// defect would.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanicInject {
    /// Job label the injection targets (mechanism name, exact match).
    pub label: String,
    /// Seed the injection targets, or `None` (`*`) for every seed.
    pub seed: Option<u64>,
    /// Fail the first N attempts, or `None` (`*`) to fail every attempt.
    pub fail_attempts: Option<u64>,
}

impl PanicInject {
    /// Parses the `LABEL:SEED:COUNT` form (see [`PANIC_INJECT_ENV`]).
    /// SEED and COUNT are the last two fields, so the label may itself
    /// contain `:` (fig-consensus cells are `consensus:{policy}@{fraction}`).
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn parse(s: &str) -> Result<PanicInject, String> {
        let mut fields = s.rsplitn(3, ':');
        let (Some(count), Some(seed), Some(label)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err(format!(
                "expected LABEL:SEED:COUNT (seed/count may be '*'), got '{s}'"
            ));
        };
        if label.is_empty() {
            return Err("label must not be empty".to_string());
        }
        let wildcard_or = |field: &str, name: &str| -> Result<Option<u64>, String> {
            if field == "*" {
                Ok(None)
            } else {
                field
                    .parse::<u64>()
                    .map(Some)
                    .map_err(|_| format!("{name} must be an integer or '*', got '{field}'"))
            }
        };
        Ok(PanicInject {
            label: label.to_string(),
            seed: wildcard_or(seed, "seed")?,
            fail_attempts: wildcard_or(count, "count")?,
        })
    }

    /// Reads [`PANIC_INJECT_ENV`], returning `Ok(None)` when unset.
    ///
    /// # Errors
    ///
    /// Returns the parse error for a malformed value.
    pub fn from_env() -> Result<Option<PanicInject>, String> {
        match std::env::var(PANIC_INJECT_ENV) {
            Ok(value) => Self::parse(&value)
                .map(Some)
                .map_err(|e| format!("{PANIC_INJECT_ENV}: {e}")),
            Err(_) => Ok(None),
        }
    }

    /// Whether the job identified by `(label, seed)` should panic on its
    /// `attempt`-th try (0-based).
    pub fn should_fail(&self, label: &str, seed: u64, attempt: u64) -> bool {
        self.label == label
            && self.seed.is_none_or(|s| s == seed)
            && self.fail_attempts.is_none_or(|n| attempt < n)
    }
}

/// How a job ultimately failed (after exhausting its retries).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum FailureKind {
    /// The job panicked.
    Panic,
    /// The job exceeded the watchdog timeout.
    Timeout,
}

impl FailureKind {
    /// Lower-case name (journal/report vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
        }
    }

    fn outcome(self) -> JobOutcome {
        match self {
            FailureKind::Panic => JobOutcome::Panic,
            FailureKind::Timeout => JobOutcome::Timeout,
        }
    }
}

/// One job that failed every attempt. Identifies the grid cell precisely
/// — mechanism, population size, and seed — so `failures.json` tells the
/// operator exactly what to re-run or investigate.
#[derive(Clone, Debug, Serialize)]
pub struct JobFailure {
    /// Batch slot the job occupied.
    pub slot: usize,
    /// Mechanism name (the job's label).
    pub mechanism: String,
    /// Swarm population (N) of the failed cell.
    pub peers: usize,
    /// The job's seed.
    pub seed: u64,
    /// Attempts consumed (1 = failed on the only try).
    pub attempts: u64,
    /// Panic or timeout.
    pub kind: FailureKind,
    /// The panic payload or timeout description.
    pub message: String,
    /// The deterministic backoffs slept between attempts (empty when
    /// `retries` was 0).
    pub backoff_ms: Vec<u64>,
}

/// A batch that finished with at least one failed job. The batch itself
/// ran to completion — every healthy job's result was computed (and
/// journaled) — but the artifact set for `figure` could not be fully
/// produced.
#[derive(Clone, Debug, Serialize)]
pub struct BatchError {
    /// The figure/artifact whose batch failed.
    pub figure: String,
    /// Total jobs in the batch.
    pub total: usize,
    /// The failed jobs, in slot order.
    pub failures: Vec<JobFailure>,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let first = &self.failures[0];
        write!(
            f,
            "{}: {} of {} jobs failed; first: {} (N={}, seed {}) {} after {} attempt(s): {}",
            self.figure,
            self.failures.len(),
            self.total,
            first.mechanism,
            first.peers,
            first.seed,
            first.kind.name(),
            first.attempts,
            first.message
        )
    }
}

impl std::error::Error for BatchError {}

/// The `failures.json` file name, next to the run's artifacts.
pub const FAILURES_FILE: &str = "failures.json";

/// Writes the structured `failures.json` report for every failed batch of
/// a run (atomically, like all artifacts).
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_failures_json(
    out: &OutputDir,
    errors: &[BatchError],
) -> std::io::Result<std::path::PathBuf> {
    // The vendored serde_derive shim does not support generic types, so
    // the report owns its data.
    #[derive(Serialize)]
    struct FailureReport {
        failed_jobs: usize,
        figures: Vec<String>,
        batches: Vec<BatchError>,
    }
    out.json(
        "failures",
        &FailureReport {
            failed_jobs: errors.iter().map(|e| e.failures.len()).sum(),
            figures: errors.iter().map(|e| e.figure.clone()).collect(),
            batches: errors.to_vec(),
        },
    )
}

/// The deterministic retry backoff (milliseconds) for a job's
/// `attempt`-th failure (0-based): exponential in the attempt with
/// fingerprint-derived jitter, capped at 2 s. Pure function of its inputs
/// — two runs of the same grid back off identically, so retries never
/// make results (or journals) diverge.
pub fn backoff_ms(fingerprint: u64, attempt: u64) -> u64 {
    let base = 25u64 << attempt.min(6);
    let mut h = fingerprint ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    (base + h % base).min(2_000)
}

/// The process's peak resident set (`VmHWM`) in kB, or 0 when
/// `/proc/self/status` is unavailable.
///
/// A peak never falls, but raw `VmHWM` reads can: the kernel batches
/// RSS counters per CPU, so in a multi-threaded process a later read may
/// come back a few hundred kB below an earlier one. The value returned is
/// therefore the running maximum of every read in this process.
pub(crate) fn peak_rss_kb() -> u64 {
    static PEAK_KB: AtomicU64 = AtomicU64::new(0);
    let read = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0);
    PEAK_KB.fetch_max(read, Ordering::Relaxed).max(read)
}

/// The executor's wall-clock and memory readings around one job's
/// successful attempt. All zero for a job replayed from the journal or
/// one that failed every attempt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotPerf {
    /// Wall-clock milliseconds of the attempt.
    pub wall_ms: u64,
    /// Process peak RSS (`VmHWM`, kB) just before the attempt.
    pub rss_before_kb: u64,
    /// Process peak RSS (`VmHWM`, kB) just after the attempt.
    pub rss_after_kb: u64,
}

/// Everything a robust batch produced: slot-aligned results (`None`
/// where the job failed every attempt) and perf readings, the failures
/// in slot order, and the batch trace when telemetry was on.
#[derive(Debug)]
pub struct BatchRun {
    /// `results[i]` is job `i`'s result, or `None` if it failed.
    pub results: Vec<Option<SimResult>>,
    /// `perf[i]` is the executor's reading around job `i`'s attempt.
    pub perf: Vec<SlotPerf>,
    /// Failed jobs in slot order (empty on a clean batch).
    pub failures: Vec<JobFailure>,
    /// The slot-ordered batch trace (telemetry runs only). Failed jobs
    /// contribute no span; journal-replayed jobs contribute a zero-cost
    /// span with an empty report.
    pub trace: Option<BatchTrace>,
}

impl BatchRun {
    /// Converts to a [`BatchError`] for `figure` when any job failed.
    ///
    /// # Errors
    ///
    /// Returns the error when `failures` is non-empty.
    pub fn into_complete(
        self,
        figure: &str,
    ) -> Result<(Vec<SimResult>, Option<BatchTrace>), BatchError> {
        if !self.failures.is_empty() {
            return Err(BatchError {
                figure: figure.to_string(),
                total: self.results.len(),
                failures: self.failures,
            });
        }
        let results = self
            .results
            .into_iter()
            .map(|r| r.expect("no failures, so every slot holds a result"))
            .collect();
        Ok((results, self.trace))
    }
}

/// How one attempt of one job ended (internal).
enum AttemptOutcome {
    Done(Box<(SimResult, TelemetryReport, ProfileReport)>),
    Failed(FailureKind, String),
}

/// A bounded pool of scoped worker threads for running independent jobs,
/// plus the batch's robustness policy (retries, watchdog timeout, panic
/// injection, journal/replay wiring — see the module docs).
///
/// Workers claim jobs from a shared atomic cursor (no per-job locking) and
/// stamp each result with its slot index; the caller receives results in
/// input order. With `jobs = 1` the executor degenerates to a plain
/// sequential loop on the calling thread — useful as the determinism
/// baseline.
#[derive(Clone, Debug)]
pub struct Executor {
    jobs: usize,
    shards: usize,
    retries: u64,
    job_timeout: Option<Duration>,
    panic_inject: Option<PanicInject>,
    journal: Option<Arc<RunJournal>>,
    replay: Option<Arc<JournalReplay>>,
    /// Journal append + fsync nanoseconds accumulated across the current
    /// batch (wall clock — surfaced only in `profile.json`, reset per
    /// batch). Shared so worker threads can add to it through `&self`.
    journal_fsync_ns: Arc<std::sync::atomic::AtomicU64>,
}

impl Executor {
    /// An executor with exactly `jobs` workers (clamped to at least 1)
    /// and the default (fail-fast, journal-less) robustness policy.
    pub fn new(jobs: usize) -> Self {
        Executor {
            jobs: jobs.max(1),
            shards: 1,
            retries: 0,
            job_timeout: None,
            panic_inject: None,
            journal: None,
            replay: None,
            journal_fsync_ns: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// A single-threaded executor (the sequential baseline).
    pub fn sequential() -> Self {
        Executor::new(1)
    }

    /// Shards each simulation's round across `k` scoped worker threads
    /// *inside* the sim (`--shards`; clamped to at least 1). Orthogonal to
    /// `jobs`, which fans out across independent sims. Observational for
    /// results: artifacts are byte-identical for any shard count (pinned
    /// by the shard byte-identity battery).
    #[must_use]
    pub fn with_shards(mut self, k: usize) -> Self {
        self.shards = k.max(1);
        self
    }

    /// Retries each failed job up to `retries` extra times (`--retries`).
    #[must_use]
    pub fn with_retries(mut self, retries: u64) -> Self {
        self.retries = retries;
        self
    }

    /// Aborts any single job attempt that outlives `timeout`
    /// (`--job-timeout`). Attempts then run on watchdog-supervised
    /// threads; a timed-out attempt's thread is abandoned.
    #[must_use]
    pub fn with_job_timeout(mut self, timeout: Duration) -> Self {
        self.job_timeout = Some(timeout);
        self
    }

    /// Installs deterministic panic injection (the
    /// [`PANIC_INJECT_ENV`] test hook).
    #[must_use]
    pub fn with_panic_inject(mut self, inject: Option<PanicInject>) -> Self {
        self.panic_inject = inject;
        self
    }

    /// Appends every finished job to `journal` (fsynced per record).
    #[must_use]
    pub fn with_journal(mut self, journal: Arc<RunJournal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Satisfies jobs already completed in `replay` from the ledger
    /// instead of re-running them (the `--resume` path).
    #[must_use]
    pub fn with_replay(mut self, replay: Arc<JournalReplay>) -> Self {
        self.replay = Some(replay);
        self
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The configured intra-sim shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The configured retry budget.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The configured per-attempt watchdog timeout.
    pub fn job_timeout(&self) -> Option<Duration> {
        self.job_timeout
    }

    /// Maps `run` over `items` using up to `self.jobs()` worker threads.
    ///
    /// `run` receives `(slot_index, &item)`; the returned vector is in
    /// slot order — position `i` holds the result for `items[i]` no
    /// matter which worker computed it or when it finished.
    pub fn map<I, T, F>(&self, items: &[I], run: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, it)| run(i, it)).collect();
        }
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(item) = items.get(i) else {
                                break;
                            };
                            mine.push((i, run(i, item)));
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("batch worker panicked"))
                .collect()
        });
        tagged.sort_by_key(|&(i, _)| i);
        debug_assert_eq!(tagged.len(), items.len());
        tagged.into_iter().map(|(_, t)| t).collect()
    }

    /// Runs a batch of simulation jobs, returning results in job order.
    pub fn run_sims(&self, jobs: &[SimJob]) -> Vec<SimResult> {
        self.map(jobs, |_, job| job.run())
    }

    /// Runs a batch under the executor's full robustness policy: journal
    /// replay, panic isolation, watchdog timeouts, deterministic retries,
    /// and per-job ledger appends. The batch always runs to the end —
    /// failed jobs surface as `None` results plus [`JobFailure`] entries
    /// rather than aborting the run.
    pub fn run_sims_robust(&self, jobs: &[SimJob], opts: &TelemetryOpts) -> BatchRun {
        let config = opts.is_enabled().then(|| opts.recorder_config());
        self.journal_fsync_ns.store(0, Ordering::Relaxed);
        let runs = self.map(jobs, |slot, job| {
            self.run_one(slot, job, config.as_ref(), opts.profile_due(slot))
        });
        let mut results = Vec::with_capacity(jobs.len());
        let mut perf = Vec::with_capacity(jobs.len());
        let mut failures = Vec::new();
        let mut traces = Vec::new();
        for run in runs {
            match run {
                Ok((result, trace, reading)) => {
                    results.push(Some(result));
                    perf.push(reading);
                    if let Some(trace) = trace {
                        traces.push(trace);
                    }
                }
                Err(failure) => {
                    results.push(None);
                    perf.push(SlotPerf::default());
                    failures.push(failure);
                }
            }
        }
        let trace = config.is_some().then(|| {
            let mut trace = BatchTrace::new(traces);
            trace.journal_fsync_ns = self.journal_fsync_ns.load(Ordering::Relaxed);
            trace
        });
        BatchRun {
            results,
            perf,
            failures,
            trace,
        }
    }

    /// Runs one job under the robustness policy (worker-thread context).
    fn run_one(
        &self,
        slot: usize,
        job: &SimJob,
        config: Option<&TelemetryConfig>,
        profiled: bool,
    ) -> Result<(SimResult, Option<JobTrace>, SlotPerf), JobFailure> {
        let fingerprint = job.fingerprint();
        // Resume: a job the ledger already holds is never re-simulated.
        if let Some(result) = self
            .replay
            .as_deref()
            .and_then(|replay| replay.completed(fingerprint))
        {
            let trace = config.map(|_| JobTrace {
                slot,
                label: job.label().to_string(),
                seed: job.seed,
                wall_ms: 0,
                slow: false,
                retries: 0,
                peers: job.peers() as u64,
                report: TelemetryReport::default(),
                profile: None,
            });
            return Ok((result.clone(), trace, SlotPerf::default()));
        }
        let mut backoffs = Vec::new();
        let mut last_failure = None;
        for attempt in 0..=self.retries {
            let rss_before_kb = peak_rss_kb();
            let attempt_clock = Stopwatch::start();
            match self.attempt(job, config, attempt, profiled) {
                AttemptOutcome::Done(triple) => {
                    let (result, report, profile) = *triple;
                    let wall_ms = attempt_clock.elapsed_ms();
                    let perf = SlotPerf {
                        wall_ms,
                        rss_before_kb,
                        rss_after_kb: peak_rss_kb(),
                    };
                    self.journal_record(&JobRecord {
                        fingerprint,
                        slot: slot as u64,
                        label: job.label().to_string(),
                        seed: job.seed,
                        outcome: JobOutcome::Ok,
                        attempts: attempt + 1,
                        result: Some(result.clone()),
                        error: None,
                    });
                    let trace = config.map(|_| JobTrace {
                        slot,
                        label: job.label().to_string(),
                        seed: job.seed,
                        wall_ms,
                        slow: false,
                        retries: attempt,
                        peers: job.peers() as u64,
                        report,
                        profile: profiled.then_some(profile),
                    });
                    return Ok((result, trace, perf));
                }
                AttemptOutcome::Failed(kind, message) => {
                    last_failure = Some((kind, message));
                    if attempt < self.retries {
                        let ms = backoff_ms(fingerprint, attempt);
                        backoffs.push(ms);
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
            }
        }
        let (kind, message) = last_failure.expect("loop ran at least once");
        let attempts = self.retries + 1;
        self.journal_record(&JobRecord {
            fingerprint,
            slot: slot as u64,
            label: job.label().to_string(),
            seed: job.seed,
            outcome: kind.outcome(),
            attempts,
            result: None,
            error: Some(message.clone()),
        });
        Err(JobFailure {
            slot,
            mechanism: job.label().to_string(),
            peers: job.peers(),
            seed: job.seed,
            attempts,
            kind,
            message,
            backoff_ms: backoffs,
        })
    }

    /// One isolated attempt: inline under `catch_unwind` without a
    /// watchdog, on a supervised thread with one. A timed-out attempt's
    /// thread is abandoned (it cannot be killed safely) — it finishes in
    /// the background and its result is discarded.
    fn attempt(
        &self,
        job: &SimJob,
        config: Option<&TelemetryConfig>,
        attempt: u64,
        profiled: bool,
    ) -> AttemptOutcome {
        let inject = self
            .panic_inject
            .as_ref()
            .is_some_and(|p| p.should_fail(job.label(), job.seed, attempt));
        let shards = self.shards;
        let job = *job;
        let config = config.cloned();
        let body = move || {
            assert!(!inject, "injected panic ({PANIC_INJECT_ENV})");
            job.run_profiled(config.as_ref(), profiled, shards)
        };
        match self.job_timeout {
            None => match catch_unwind(AssertUnwindSafe(body)) {
                Ok(triple) => AttemptOutcome::Done(Box::new(triple)),
                Err(payload) => {
                    AttemptOutcome::Failed(FailureKind::Panic, panic_message(payload.as_ref()))
                }
            },
            Some(timeout) => {
                let (tx, rx) = mpsc::channel();
                std::thread::spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(body));
                    let _ = tx.send(outcome);
                });
                match rx.recv_timeout(timeout) {
                    Ok(Ok(triple)) => AttemptOutcome::Done(Box::new(triple)),
                    Ok(Err(payload)) => {
                        AttemptOutcome::Failed(FailureKind::Panic, panic_message(payload.as_ref()))
                    }
                    Err(_) => AttemptOutcome::Failed(
                        FailureKind::Timeout,
                        format!(
                            "attempt exceeded the {:.3}s watchdog; worker thread abandoned",
                            timeout.as_secs_f64()
                        ),
                    ),
                }
            }
        }
    }

    /// Best-effort ledger append; an I/O failure is reported but never
    /// fails the job (the affected record simply re-runs on resume).
    fn journal_record(&self, record: &JobRecord) {
        if let Some(journal) = &self.journal {
            let fsync_clock = Stopwatch::start();
            if let Err(e) = journal.record_job(record) {
                eprintln!(
                    "warning: journal append for {} (seed {}) failed: {e}",
                    record.label, record.seed
                );
            }
            self.journal_fsync_ns.fetch_add(
                fsync_clock.elapsed_ns(),
                std::sync::atomic::Ordering::Relaxed,
            );
        }
    }
}

/// Renders a `catch_unwind` payload as text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

impl Default for Executor {
    /// An executor sized to the machine's available parallelism.
    fn default() -> Self {
        Executor::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_slot_order_regardless_of_workers() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = Executor::new(workers).map(&items, |_, &x| x * x);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn map_handles_empty_and_oversized_pools() {
        let empty: Vec<u32> = Vec::new();
        assert!(Executor::new(8).map(&empty, |_, &x| x).is_empty());
        let one = [7u32];
        assert_eq!(Executor::new(999).map(&one, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn grid_is_seed_major_in_mechanism_order() {
        let jobs = SimJob::grid(Scale::Quick, &[1, 2], |kind| {
            (kind == MechanismKind::Altruism).then(|| AttackPlan::simple(0.2))
        });
        assert_eq!(jobs.len(), 2 * MechanismKind::EXTENDED.len());
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.seed, [1u64, 2][i / MechanismKind::EXTENDED.len()]);
            assert_eq!(
                job.kind,
                MechanismKind::EXTENDED[i % MechanismKind::EXTENDED.len()]
            );
            assert_eq!(job.plan.is_some(), job.kind == MechanismKind::Altruism);
        }
    }

    #[test]
    fn grid_of_restricts_to_the_given_kinds() {
        let kinds = [MechanismKind::Altruism, MechanismKind::FairTorrent];
        let jobs = SimJob::grid_of(Scale::Quick, &[9], &kinds, |_| None);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].kind, MechanismKind::Altruism);
        assert_eq!(jobs[1].kind, MechanismKind::FairTorrent);
    }

    #[test]
    fn peak_rss_reads_proc() {
        // On Linux VmHWM is always present; elsewhere the probe degrades
        // to 0 rather than failing.
        let kb = peak_rss_kb();
        if cfg!(target_os = "linux") {
            assert!(kb > 0);
        }
    }

    #[test]
    fn panic_inject_parses_and_matches() {
        let p = PanicInject::parse("BitTorrent:42:1").unwrap();
        assert!(p.should_fail("BitTorrent", 42, 0));
        assert!(
            !p.should_fail("BitTorrent", 42, 1),
            "only the first attempt"
        );
        assert!(!p.should_fail("BitTorrent", 43, 0), "wrong seed");
        assert!(!p.should_fail("T-Chain", 42, 0), "wrong label");

        let p = PanicInject::parse("T-Chain:*:*").unwrap();
        assert!(p.should_fail("T-Chain", 1, 0));
        assert!(p.should_fail("T-Chain", 999, 7));

        // Labels may contain ':'; seed and count are the last two fields.
        let p = PanicInject::parse("consensus:defense@0.1:*:2").unwrap();
        assert_eq!(p.label, "consensus:defense@0.1");
        assert!(p.should_fail("consensus:defense@0.1", 5, 1));
        assert!(!p.should_fail("consensus:defense@0.1", 5, 2));

        for bad in ["", "x", "a:b", "a:b:c:d", "a:nan:1", "a:1:nan", ":1:1"] {
            assert!(PanicInject::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let fp = 0x1234_5678_9abc_def0u64;
        assert_eq!(backoff_ms(fp, 0), backoff_ms(fp, 0));
        for attempt in 0..10 {
            let ms = backoff_ms(fp, attempt);
            let base = 25u64 << attempt.min(6);
            assert!(ms >= base.min(2_000), "attempt {attempt}: {ms}");
            assert!(ms <= 2_000, "attempt {attempt}: {ms}");
        }
        // Different fingerprints jitter differently (with overwhelming
        // probability for these two).
        assert_ne!(backoff_ms(1, 0), backoff_ms(2, 0));
    }

    #[test]
    fn batch_error_display_names_the_cell() {
        let err = BatchError {
            figure: "fig4".to_string(),
            total: 6,
            failures: vec![JobFailure {
                slot: 3,
                mechanism: "BitTorrent".to_string(),
                peers: 80,
                seed: 42,
                attempts: 2,
                kind: FailureKind::Panic,
                message: "boom".to_string(),
                backoff_ms: vec![31],
            }],
        };
        let text = err.to_string();
        for needle in ["fig4", "BitTorrent", "N=80", "seed 42", "panic", "boom"] {
            assert!(text.contains(needle), "{text}");
        }
    }
}
