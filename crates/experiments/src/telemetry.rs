//! Run-level telemetry for the experiment harness.
//!
//! The swarm layer's [`coop_telemetry::Recorder`] observes one simulation;
//! this module scales that to a *batch*: [`TelemetryOpts`] carries the
//! CLI's `--telemetry` / `--trace-out` / `--probe-every` choices,
//! [`BatchTrace`] collects every job's report **in slot order** (so trace
//! files are byte-stable for any `--jobs` count), flags slow jobs, writes
//! the JSONL trace, and assembles the per-run
//! [`manifest.json`](coop_telemetry::RunManifest).
//!
//! Wall-clock readings live only here — in job spans, progress lines, and
//! the manifest — never in figure artifacts, which stay byte-deterministic
//! whether telemetry is on or off.

use std::path::{Path, PathBuf};

use coop_telemetry::profile::{phase, work};
use coop_telemetry::{
    fingerprint_debug, PhaseStat, PhaseTiming, ProfileReport, Recorder, RunManifest, RunProfile,
    TelemetryConfig, TelemetryReport, TraceEvent,
};

use crate::{OutputDir, Scale};

/// A job is flagged slow when its wall time exceeds this multiple of the
/// batch median.
pub const SLOW_JOB_FACTOR: u64 = 2;

/// Telemetry options for one experiment run, as selected on the CLI.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryOpts {
    /// `--telemetry`: record counters/probes/spans for this run.
    pub enabled: bool,
    /// `--trace-out FILE`: also stream kept events to a JSONL file
    /// (implies `enabled`).
    pub trace_out: Option<PathBuf>,
    /// `--probe-every N`: round-probe cadence (default 10).
    pub probe_every: u64,
    /// `--profile`: time the round loop's phases and write `profile.json`
    /// (implies `enabled` — work accounting rides the recorder).
    pub profile: bool,
    /// `--profile-every K`: profile every K-th batch slot (default 1 =
    /// every job). Sampling bounds timer overhead on huge grids while the
    /// deterministic work counters still cover every job.
    pub profile_every: u64,
}

impl Default for TelemetryOpts {
    fn default() -> Self {
        TelemetryOpts::disabled()
    }
}

impl TelemetryOpts {
    /// Telemetry off (the default; zero overhead beyond one branch per
    /// probe site).
    pub fn disabled() -> Self {
        TelemetryOpts {
            enabled: false,
            trace_out: None,
            probe_every: 10,
            profile: false,
            profile_every: 1,
        }
    }

    /// Whether any telemetry output was requested (`--trace-out` and
    /// `--profile` imply `--telemetry`).
    pub fn is_enabled(&self) -> bool {
        self.enabled || self.trace_out.is_some() || self.profile
    }

    /// Whether the job in batch `slot` carries a live profiler: profiling
    /// is on and the slot lands on the `--profile-every` cadence.
    pub fn profile_due(&self, slot: usize) -> bool {
        self.profile && (slot as u64).is_multiple_of(self.profile_every.max(1))
    }

    /// The per-simulation recorder configuration this run uses.
    pub fn recorder_config(&self) -> TelemetryConfig {
        TelemetryConfig {
            probe_every: self.probe_every.max(1),
            ..TelemetryConfig::default()
        }
    }

    /// A recorder honoring these options (disabled when telemetry is off).
    pub fn recorder(&self) -> Recorder {
        if self.is_enabled() {
            Recorder::enabled(self.recorder_config())
        } else {
            Recorder::disabled()
        }
    }
}

/// One traced simulation job's gathered data, tagged with its batch slot.
#[derive(Debug)]
pub struct JobTrace {
    /// Slot index in the batch (results order).
    pub slot: usize,
    /// Job label (mechanism name).
    pub label: String,
    /// The job's seed.
    pub seed: u64,
    /// Wall-clock milliseconds the job took.
    pub wall_ms: u64,
    /// Whether the job exceeded [`SLOW_JOB_FACTOR`]× the batch median.
    pub slow: bool,
    /// Retries (after a panic or watchdog timeout) before this job
    /// completed; zero for first-attempt successes and journal-cache hits.
    pub retries: u64,
    /// Population size of the job's swarm (for `profile.json` work rows).
    pub peers: u64,
    /// Everything the job's recorder gathered.
    pub report: TelemetryReport,
    /// Phase timings when this slot carried a live profiler
    /// (`--profile`, subject to `--profile-every` sampling); `None` for
    /// unprofiled, journal-replayed, and unsampled jobs.
    pub profile: Option<ProfileReport>,
}

/// Slot-ordered telemetry for one executed batch plus the run's
/// wall-clock phases.
#[derive(Debug, Default)]
pub struct BatchTrace {
    /// Per-job traces, in slot order.
    pub jobs: Vec<JobTrace>,
    /// Wall-clock phases of the surrounding run, in execution order.
    pub phases: Vec<PhaseTiming>,
    /// The owning pack's `(source, pack fingerprint)` when the batch came
    /// from a scenario-pack sweep; carried into the manifest.
    pub scenario: Option<(String, u64)>,
    /// Total journal append + fsync nanoseconds across the batch (set by
    /// the executor when a journal is wired; surfaced in `profile.json`
    /// as the `batch.journal_fsync` phase).
    pub journal_fsync_ns: u64,
}

impl BatchTrace {
    /// Wraps slot-ordered job traces, computing slow-job flags (wall time
    /// above [`SLOW_JOB_FACTOR`]× the batch median; needs ≥ 2 jobs).
    pub fn new(mut jobs: Vec<JobTrace>) -> Self {
        if jobs.len() >= 2 {
            let mut walls: Vec<u64> = jobs.iter().map(|j| j.wall_ms).collect();
            walls.sort_unstable();
            let median = walls[walls.len() / 2];
            for j in &mut jobs {
                j.slow = j.wall_ms > SLOW_JOB_FACTOR * median.max(1);
            }
        }
        BatchTrace {
            jobs,
            phases: Vec::new(),
            scenario: None,
            journal_fsync_ns: 0,
        }
    }

    /// Joins batches that ran one after another into one run-level
    /// trace, in batch order: slots are renumbered so they stay unique,
    /// slow-job flags are recomputed against the joined median, phases of
    /// the same name sum (first-seen order), and journal time sums.
    pub fn concat(batches: Vec<BatchTrace>) -> BatchTrace {
        let mut phases: Vec<PhaseTiming> = Vec::new();
        for timing in batches.iter().flat_map(|b| &b.phases) {
            match phases.iter_mut().find(|p| p.name == timing.name) {
                Some(p) => p.wall_ms += timing.wall_ms,
                None => phases.push(timing.clone()),
            }
        }
        let journal_fsync_ns = batches.iter().map(|b| b.journal_fsync_ns).sum();
        let jobs = batches
            .into_iter()
            .flat_map(|b| b.jobs)
            .enumerate()
            .map(|(slot, job)| JobTrace { slot, ..job })
            .collect();
        BatchTrace {
            phases,
            journal_fsync_ns,
            ..BatchTrace::new(jobs)
        }
    }

    /// Appends a named wall-clock phase.
    pub fn push_phase(&mut self, name: &str, wall_ms: u64) {
        self.phases.push(PhaseTiming {
            name: name.to_string(),
            wall_ms,
        });
    }

    /// Counter totals summed across all jobs, sorted by name.
    pub fn merged_counters(&self) -> Vec<(String, u64)> {
        let mut merged = std::collections::BTreeMap::new();
        for job in &self.jobs {
            for (name, value) in &job.report.counters {
                *merged.entry(name.clone()).or_insert(0) += value;
            }
        }
        merged.into_iter().collect()
    }

    /// Total kept events across all jobs (per-job streams plus one
    /// synthesized [`TraceEvent::JobSpan`] each).
    pub fn events_kept(&self) -> u64 {
        self.jobs
            .iter()
            .map(|j| j.report.events.len() as u64 + 1)
            .sum()
    }

    /// The trace as JSONL lines, in slot order: each job's
    /// [`TraceEvent::JobSpan`] followed by its event stream. Ordering
    /// depends only on slots, never on worker scheduling.
    pub fn jsonl_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for job in &self.jobs {
            lines.push(
                TraceEvent::JobSpan {
                    slot: job.slot as u64,
                    label: job.label.clone(),
                    seed: job.seed,
                    wall_ms: job.wall_ms,
                    slow: job.slow,
                    retries: job.retries,
                }
                .to_jsonl(),
            );
            lines.extend(job.report.events.iter().map(TraceEvent::to_jsonl));
        }
        lines
    }

    /// Writes the slot-ordered JSONL trace to `path`, returning the line
    /// count.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation or the write.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let lines = self.jsonl_lines();
        let mut text = lines.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        coop_telemetry::write_atomic_str(path, &text)?;
        Ok(lines.len())
    }

    /// Writes the kept round-probe time series as one CSV into `out`
    /// (slot order, so the file is byte-stable for any `--jobs` count).
    /// The `_telemetry` suffix marks it as a telemetry output rather than
    /// a figure artifact — it exists only when telemetry is on.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write.
    pub fn write_probe_csv(
        &self,
        out: &OutputDir,
        figure: &str,
    ) -> std::io::Result<std::path::PathBuf> {
        let mut rows = Vec::new();
        for job in &self.jobs {
            for event in &job.report.events {
                if let TraceEvent::RoundProbe {
                    round,
                    sim_s,
                    active,
                    bootstrapped,
                    completed,
                    inflight,
                    ..
                } = event
                {
                    rows.push(vec![
                        job.label.clone(),
                        job.seed.to_string(),
                        round.to_string(),
                        format!("{sim_s}"),
                        active.to_string(),
                        bootstrapped.to_string(),
                        completed.to_string(),
                        inflight.to_string(),
                    ]);
                }
            }
        }
        out.csv_rows(
            &format!("{figure}_round_probes_telemetry"),
            &[
                "mechanism",
                "seed",
                "round",
                "sim_s",
                "active",
                "bootstrapped",
                "completed",
                "inflight",
            ],
            &rows,
        )
    }

    /// Human progress lines, one per job in slot order (wall time and
    /// slow flags are wall-clock data; these go to stderr, never into
    /// artifacts).
    pub fn progress_lines(&self, figure: &str) -> Vec<String> {
        let total = self.jobs.len();
        self.jobs
            .iter()
            .map(|j| {
                format!(
                    "[{figure}] job {}/{total} {} seed={} {}ms{}",
                    j.slot + 1,
                    j.label,
                    j.seed,
                    j.wall_ms,
                    if j.slow { " SLOW" } else { "" }
                )
            })
            .collect()
    }

    /// Assembles the run's [`RunManifest`] from this batch.
    pub fn manifest(
        &self,
        artifact: &str,
        scale: Scale,
        seed: u64,
        replicates: u64,
        jobs: u64,
        attack: &str,
    ) -> RunManifest {
        let mut mechanisms: Vec<String> = Vec::new();
        for job in &self.jobs {
            if !mechanisms.contains(&job.label) {
                mechanisms.push(job.label.clone());
            }
        }
        let (scenario, spec_fingerprint) = match &self.scenario {
            Some((name, fp)) => (name.clone(), *fp),
            None => (String::new(), 0),
        };
        RunManifest {
            artifact: artifact.to_string(),
            scale: scale.name().to_string(),
            config_fingerprint: fingerprint_debug(&scale.config(seed)),
            seed,
            replicates,
            jobs,
            mechanisms,
            attack: attack.to_string(),
            scenario,
            spec_fingerprint,
            phases: self.phases.clone(),
            counters: self.merged_counters(),
            events_kept: self.events_kept(),
        }
    }

    /// Assembles the run's [`RunProfile`] (`profile.json`): per-job phase
    /// reports merged in slot order, the batch's own wall phases mapped
    /// onto the `batch.*` taxonomy, the deterministic `swarm.work.*` and
    /// `*.rebuilds` structural counters (the latter feed `perf-diff`'s
    /// availability-rebuild gate), and one work row per job.
    /// Journal-replayed jobs carry empty reports, so their rows show zero
    /// visits (ratio `null`).
    pub fn run_profile(&self, artifact: &str, scale: Scale) -> RunProfile {
        let mut merged = ProfileReport::default();
        let mut profiled_jobs = 0u64;
        for job in &self.jobs {
            if let Some(profile) = &job.profile {
                profiled_jobs += 1;
                merged.merge(profile);
            }
        }
        let mut phases = merged.phases;
        for timing in &self.phases {
            let name = match timing.name.as_str() {
                "simulate" => phase::BATCH_SIMULATE,
                "write_artifacts" => phase::BATCH_WRITE_ARTIFACTS,
                _ => continue,
            };
            push_phase_ns(&mut phases, name, timing.wall_ms.saturating_mul(1_000_000));
        }
        if self.journal_fsync_ns > 0 {
            push_phase_ns(&mut phases, phase::BATCH_JOURNAL_FSYNC, self.journal_fsync_ns);
        }
        RunProfile {
            artifact: artifact.to_string(),
            scale: scale.name().to_string(),
            jobs: self.jobs.len() as u64,
            profiled_jobs,
            phases,
            work: self
                .merged_counters()
                .into_iter()
                .filter(|(name, _)| {
                    name.starts_with("swarm.work.") || name.ends_with(".rebuilds")
                })
                .collect(),
            per_job: self
                .jobs
                .iter()
                .map(|j| coop_telemetry::JobWork {
                    label: j.label.clone(),
                    seed: j.seed,
                    peers: j.peers,
                    visited: j.report.counter(work::PEERS_VISITED),
                    productive: j.report.counter(work::PEERS_PRODUCTIVE),
                })
                .collect(),
        }
    }
}

/// Adds `ns` as one observation of `name`, keeping `phases` sorted.
fn push_phase_ns(phases: &mut Vec<(String, PhaseStat)>, name: &str, ns: u64) {
    let mut stat = PhaseStat::default();
    stat.observe_ns(ns);
    match phases.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
        Ok(i) => phases[i].1.merge(&stat),
        Err(i) => phases.insert(i, (name.to_string(), stat)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(slot: usize, wall_ms: u64, counters: Vec<(String, u64)>) -> JobTrace {
        JobTrace {
            slot,
            label: format!("m{slot}"),
            seed: 42,
            wall_ms,
            slow: false,
            retries: 0,
            peers: 80,
            report: TelemetryReport {
                counters,
                ..TelemetryReport::default()
            },
            profile: None,
        }
    }

    #[test]
    fn slow_jobs_exceed_twice_the_median() {
        let batch = BatchTrace::new(vec![
            job(0, 100, vec![]),
            job(1, 110, vec![]),
            job(2, 500, vec![]),
            job(3, 90, vec![]),
        ]);
        let slow: Vec<usize> = batch
            .jobs
            .iter()
            .filter(|j| j.slow)
            .map(|j| j.slot)
            .collect();
        assert_eq!(slow, vec![2]);
    }

    #[test]
    fn single_job_is_never_slow() {
        let batch = BatchTrace::new(vec![job(0, 10_000, vec![])]);
        assert!(!batch.jobs[0].slow);
    }

    #[test]
    fn counters_merge_across_jobs() {
        let batch = BatchTrace::new(vec![
            job(0, 1, vec![("swarm.rounds".into(), 10), ("swarm.grants".into(), 3)]),
            job(1, 1, vec![("swarm.rounds".into(), 5)]),
        ]);
        assert_eq!(
            batch.merged_counters(),
            vec![
                ("swarm.grants".to_string(), 3),
                ("swarm.rounds".to_string(), 15)
            ]
        );
    }

    #[test]
    fn concat_renumbers_slots_and_sums_phases() {
        let mut a = BatchTrace::new(vec![job(0, 1, vec![("swarm.rounds".into(), 4)])]);
        a.push_phase("simulate", 10);
        a.push_phase("write_artifacts", 1);
        a.journal_fsync_ns = 5;
        let mut b = BatchTrace::new(vec![
            job(0, 1, vec![("swarm.rounds".into(), 6)]),
            job(1, 1, vec![]),
        ]);
        b.push_phase("simulate", 20);
        b.push_phase("write_artifacts", 2);
        b.journal_fsync_ns = 7;
        let joined = BatchTrace::concat(vec![a, b]);
        let slots: Vec<usize> = joined.jobs.iter().map(|j| j.slot).collect();
        assert_eq!(slots, vec![0, 1, 2]);
        assert_eq!(
            joined.merged_counters(),
            vec![("swarm.rounds".to_string(), 10)]
        );
        let phases: Vec<(&str, u64)> = joined
            .phases
            .iter()
            .map(|p| (p.name.as_str(), p.wall_ms))
            .collect();
        assert_eq!(phases, vec![("simulate", 30), ("write_artifacts", 3)]);
        assert_eq!(joined.journal_fsync_ns, 12);
        assert_eq!(joined.events_kept(), 3);
        assert!(joined.scenario.is_none());
    }

    #[test]
    fn jsonl_leads_each_job_with_its_span() {
        let batch = BatchTrace::new(vec![job(0, 7, vec![])]);
        let lines = batch.jsonl_lines();
        assert_eq!(lines.len(), 1);
        let doc = coop_telemetry::json::parse(&lines[0]).unwrap();
        assert_eq!(
            doc.get("type").and_then(coop_telemetry::json::Json::as_str),
            Some("job_span")
        );
        assert_eq!(batch.events_kept(), 1);
    }

    #[test]
    fn opts_imply_and_configure() {
        assert!(!TelemetryOpts::disabled().is_enabled());
        assert!(!TelemetryOpts::disabled().recorder().is_enabled());
        let opts = TelemetryOpts {
            enabled: false,
            trace_out: Some(PathBuf::from("t.jsonl")),
            probe_every: 4,
            ..TelemetryOpts::disabled()
        };
        assert!(opts.is_enabled(), "--trace-out implies telemetry");
        assert_eq!(opts.recorder_config().probe_every, 4);
        assert!(opts.recorder().is_enabled());
    }

    #[test]
    fn profile_implies_telemetry_and_samples_slots() {
        let opts = TelemetryOpts {
            profile: true,
            ..TelemetryOpts::disabled()
        };
        assert!(opts.is_enabled(), "--profile implies telemetry");
        assert!(opts.profile_due(0) && opts.profile_due(1), "default cadence is 1");
        let sampled = TelemetryOpts {
            profile: true,
            profile_every: 3,
            ..TelemetryOpts::disabled()
        };
        let due: Vec<usize> = (0..7).filter(|&s| sampled.profile_due(s)).collect();
        assert_eq!(due, vec![0, 3, 6]);
        assert!(!TelemetryOpts::disabled().profile_due(0), "off means never due");
    }

    #[test]
    fn run_profile_merges_jobs_and_maps_batch_phases() {
        let mut profiled = coop_telemetry::Profiler::enabled();
        profiled.record_ns(phase::SIM_RUN, 1000);
        profiled.record_ns(phase::SIM_ALLOCATE, 600);
        let mut j0 = job(
            0,
            1,
            vec![
                (work::PEERS_VISITED.into(), 100),
                (work::PEERS_PRODUCTIVE.into(), 60),
                ("swarm.rounds".into(), 10),
            ],
        );
        j0.profile = Some(profiled.into_report());
        let j1 = job(1, 1, vec![(work::PEERS_VISITED.into(), 50)]);
        let mut batch = BatchTrace::new(vec![j0, j1]);
        batch.push_phase("simulate", 2);
        batch.push_phase("write_artifacts", 1);
        batch.journal_fsync_ns = 7;
        let profile = batch.run_profile("fig4", Scale::Quick);
        profile.validate().expect("assembled profile validates");
        assert_eq!((profile.jobs, profile.profiled_jobs), (2, 1));
        assert_eq!(profile.phase(phase::SIM_RUN).unwrap().total_ns, 1000);
        assert_eq!(
            profile.phase(phase::BATCH_SIMULATE).unwrap().total_ns,
            2_000_000
        );
        assert_eq!(
            profile.phase(phase::BATCH_JOURNAL_FSYNC).unwrap().total_ns,
            7
        );
        assert_eq!(profile.work_counter(work::PEERS_VISITED), 150);
        assert!(
            !profile.work.iter().any(|(n, _)| n == "swarm.rounds"),
            "only swarm.work.* counters belong in the work section"
        );
        assert_eq!(profile.per_job.len(), 2);
        assert_eq!(profile.per_job[0].visited, 100);
        assert_eq!(profile.per_job[1].productive, 0);
        let names: Vec<&str> = profile.phases.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "phases stay sorted after batch inserts");
    }

    #[test]
    fn manifest_round_trips() {
        let mut batch = BatchTrace::new(vec![job(0, 3, vec![("swarm.rounds".into(), 9)])]);
        batch.push_phase("simulate", 120);
        batch.scenario = Some(("mobile-churn-storm".into(), 0xfeed_beef));
        let m = batch.manifest("fig4", Scale::Quick, 42, 1, 2, "none");
        let parsed = RunManifest::parse(&m.to_json_pretty()).expect("valid manifest");
        assert_eq!(parsed, m);
        assert_eq!(parsed.artifact, "fig4");
        assert_eq!(parsed.scenario, "mobile-churn-storm");
        assert_eq!(parsed.spec_fingerprint, 0xfeed_beef);
        assert_eq!(parsed.counters, vec![("swarm.rounds".to_string(), 9)]);
        assert_eq!(parsed.phases.len(), 1);
        assert_ne!(parsed.config_fingerprint, 0);
    }
}
