//! Wall-clock profiling: scoped phase timers and the per-run
//! `profile.json`.
//!
//! The [`Profiler`] is the wall-clock sibling of the [`Recorder`]
//! (crate::Recorder): a handle that is a single branch when disabled (the
//! default) and accumulates monotonic phase durations when enabled. Each
//! worker thread owns its job's profiler (thread-local by construction —
//! profilers are never shared), and the executor merges the per-job
//! reports in slot order so the merged output is deterministic in
//! everything except the durations themselves.
//!
//! # Determinism contract
//!
//! Profiling observes, never decides: no simulation branch consults a
//! profiler and no phase timer feeds back into scheduling. Enabling
//! profiling — at any sampling cadence — must not change a single figure
//! artifact byte. Wall-clock readings appear only in `profile.json` and
//! the manifest, never in figure artifacts (pinned by the
//! `profile_byte_identity` tests in the workspace root).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::{self, write_escaped, write_f64, Json};

/// Schema version stamped into every `profile.json`.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// The profile file name, next to a run's `manifest.json`.
pub const PROFILE_FILE: &str = "profile.json";

/// The phase-name taxonomy.
///
/// `sim.*` phases are recorded inside one simulation run; the
/// [`ATTRIBUTED`](phase::ATTRIBUTED) subset is pairwise disjoint and
/// together covers (almost) all of [`SIM_RUN`](phase::SIM_RUN), so their
/// share of `sim.run` measures how completely the profiler attributes sim
/// wall time. `exec.*` and `batch.*` phases are recorded by the experiment
/// harness around the sims.
pub mod phase {
    /// One whole `Simulation::run` (engine loop + finalize); the
    /// denominator for attribution.
    pub const SIM_RUN: &str = "sim.run";
    /// Peer arrival events (spawn, neighbor wiring).
    pub const SIM_ARRIVALS: &str = "sim.arrivals";
    /// Fault-schedule cursor application (churn, outages, seeder exit).
    pub const SIM_FAULTS: &str = "sim.faults";
    /// Identity churn and reputation upkeep: whitewashing, collusion
    /// praise, trusted-score recomputation.
    pub const SIM_IDENTITY: &str = "sim.identity";
    /// Neighbor replenishment plus candidate-adjacency maintenance.
    pub const SIM_ADJACENCY: &str = "sim.adjacency";
    /// Choke/regrant allocation: seeder allocation plus the per-peer
    /// allocate-and-execute loop (piece selection happens inside).
    pub const SIM_ALLOCATE: &str = "sim.allocate";
    /// Draining an uploader's partial transfers before it allocates
    /// (peers and the seeder). Nested inside [`SIM_ALLOCATE`], so it is
    /// *not* part of [`ATTRIBUTED`].
    pub const SIM_DRAIN: &str = "sim.drain";
    /// A peer mechanism's own `allocate` call. Nested inside
    /// [`SIM_ALLOCATE`], so it is *not* part of [`ATTRIBUTED`].
    pub const SIM_MECHANISM: &str = "sim.mechanism";
    /// Executing the grants an allocation returned (peers and the
    /// seeder; piece selection happens inside). Nested inside
    /// [`SIM_ALLOCATE`], so it is *not* part of [`ATTRIBUTED`].
    pub const SIM_EXECUTE: &str = "sim.execute";
    /// Piece selection alone. Nested inside [`SIM_ALLOCATE`] and
    /// [`SIM_SETTLE`], so it is *not* part of [`ATTRIBUTED`].
    pub const SIM_PIECE_PICK: &str = "sim.piece_pick";
    /// Dirty-set drain plus CSR expansion into the round's visit bitmap.
    /// Nested inside [`SIM_ALLOCATE`], so it is *not* part of
    /// [`ATTRIBUTED`].
    pub const SIM_DIRTY_SCAN: &str = "sim.dirty_scan";
    /// Slot-ordered merge of intra-sim shard results (visit-bitmap ORs,
    /// mechanism-box restores). Nested inside [`SIM_ALLOCATE`] /
    /// [`SIM_END_ROUND`], so it is *not* part of [`ATTRIBUTED`].
    pub const SIM_SHARD_MERGE: &str = "sim.shard_merge";
    /// Transfer settlement: stalled-transfer, obligation, and completion
    /// passes.
    pub const SIM_SETTLE: &str = "sim.settle";
    /// End-of-round mechanism hooks.
    pub const SIM_END_ROUND: &str = "sim.end_round";
    /// Epoch-boundary settlement hooks (`Mechanism::on_epoch_close`).
    /// Nested inside [`SIM_END_ROUND`], so it is *not* part of
    /// [`ATTRIBUTED`].
    pub const SIM_EPOCH: &str = "sim.epoch";
    /// Consensus-reputation report aggregation and ban bookkeeping.
    /// Nested inside [`SIM_END_ROUND`], so it is *not* part of
    /// [`ATTRIBUTED`].
    pub const SIM_CONSENSUS: &str = "sim.consensus";
    /// Metric sampling and telemetry round probes.
    pub const SIM_SAMPLE: &str = "sim.sample";
    /// Round close-out: run-open check, stall detection, next-tick
    /// scheduling, checkpoint capture.
    pub const SIM_ROUND_CLOSE: &str = "sim.round_close";
    /// End-of-run result assembly.
    pub const SIM_FINALIZE: &str = "sim.finalize";
    /// Config/population/simulation construction, per job.
    pub const EXEC_BUILD: &str = "exec.build";
    /// The whole simulate phase of a batch (all jobs, wall time).
    pub const BATCH_SIMULATE: &str = "batch.simulate";
    /// Figure-artifact writing for a batch.
    pub const BATCH_WRITE_ARTIFACTS: &str = "batch.write_artifacts";
    /// Journal append + fsync time across a batch.
    pub const BATCH_JOURNAL_FSYNC: &str = "batch.journal_fsync";

    /// The pairwise-disjoint `sim.*` phases whose durations sum to
    /// (almost) all of [`SIM_RUN`] — everything but raw engine heap
    /// operations and event dispatch.
    pub const ATTRIBUTED: &[&str] = &[
        SIM_ARRIVALS,
        SIM_FAULTS,
        SIM_IDENTITY,
        SIM_ADJACENCY,
        SIM_ALLOCATE,
        SIM_SETTLE,
        SIM_END_ROUND,
        SIM_SAMPLE,
        SIM_ROUND_CLOSE,
        SIM_FINALIZE,
    ];

    /// Every valid phase name; `coop-trace-lint` rejects others.
    pub const TAXONOMY: &[&str] = &[
        SIM_RUN,
        SIM_ARRIVALS,
        SIM_FAULTS,
        SIM_IDENTITY,
        SIM_ADJACENCY,
        SIM_ALLOCATE,
        SIM_DRAIN,
        SIM_MECHANISM,
        SIM_EXECUTE,
        SIM_PIECE_PICK,
        SIM_DIRTY_SCAN,
        SIM_SHARD_MERGE,
        SIM_SETTLE,
        SIM_END_ROUND,
        SIM_EPOCH,
        SIM_CONSENSUS,
        SIM_SAMPLE,
        SIM_ROUND_CLOSE,
        SIM_FINALIZE,
        EXEC_BUILD,
        BATCH_SIMULATE,
        BATCH_WRITE_ARTIFACTS,
        BATCH_JOURNAL_FSYNC,
    ];
}

/// Names of the deterministic work-accounting counters the round loop
/// maintains (flushed through the telemetry recorder, surfaced in
/// `profile.json`'s `work` section). Unlike phase timings these are exact
/// and reproducible: they count *what* the round loop did, not how long
/// it took.
pub mod work {
    /// Peers visited by the per-round allocation loop (the O(N·degree)
    /// scan ROADMAP item 1 targets).
    pub const PEERS_VISITED: &str = "swarm.work.peers_visited";
    /// Visited peers that actually moved bytes (drained a partial or
    /// executed a grant). `visited - productive` is the wasted work a
    /// dirty-set round loop would skip.
    pub const PEERS_PRODUCTIVE: &str = "swarm.work.peers_productive";
    /// Total candidate-list length scanned across all allocation visits.
    pub const CANDIDATE_SCANS: &str = "swarm.work.candidate_scans";
    /// Per-peer `on_epoch_close` invocations across the run (zero for
    /// every per-transfer mechanism).
    pub const EPOCH_SETTLEMENTS: &str = "swarm.epoch.settlements";
    /// Rounds at which at least one mechanism settled an epoch.
    pub const EPOCH_BOUNDARIES: &str = "swarm.epoch.boundaries";
}

/// A started wall-clock stopwatch for coarse one-shot phases. The scoped
/// [`Profiler`] covers the round loop's hot phases; this covers the
/// single spans around a batch ("simulate", "write_artifacts") that the
/// runners used to time with hand-rolled `Instant::now()` pairs. Like
/// every wall-clock reading, its output belongs in telemetry files only,
/// never in figure artifacts.
#[derive(Clone, Copy, Debug)]
#[must_use = "a stopwatch only matters if its elapsed time is read"]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a stopwatch.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Whole milliseconds since start (saturating).
    #[must_use]
    pub fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds since start (saturating).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A started phase timer. `None` inside when the profiler is disabled, so
/// starting and stopping cost one branch each.
#[derive(Debug)]
#[must_use = "pass the token back to Profiler::stop"]
pub struct PhaseToken(Option<Instant>);

/// Accumulated timings for one phase: call count, total and max duration,
/// and a log2 duration histogram (bucket 0 holds zero-duration calls,
/// bucket `i > 0` holds durations in `[2^(i-1), 2^i)` nanoseconds —
/// the same bucketing as [`Histogram`](crate::Histogram)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations, nanoseconds.
    pub total_ns: u64,
    /// Largest recorded duration, nanoseconds.
    pub max_ns: u64,
    /// Log2 duration buckets (trailing empty buckets are not stored).
    pub buckets: Vec<u64>,
}

impl PhaseStat {
    /// Records one duration.
    pub fn observe_ns(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        let bucket = if ns == 0 { 0 } else { 1 + ns.ilog2() as usize };
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }

    /// Folds another phase's accumulations into this one.
    pub fn merge(&mut self, other: &PhaseStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Mean duration in nanoseconds (`None` when nothing was recorded).
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_ns as f64 / self.count as f64)
    }
}

/// Scoped monotonic phase timers, merged per phase name.
///
/// Disabled (the default) it is one `None` check per start/stop. Phase
/// names are `&'static str` constants from [`phase`] so accumulation is a
/// `BTreeMap` upsert with no allocation per sample.
#[derive(Debug, Default)]
pub struct Profiler {
    // Boxed so a disabled Profiler embedded in sim state is one pointer,
    // not an inline BTreeMap header.
    #[allow(clippy::box_collection)]
    inner: Option<Box<BTreeMap<&'static str, PhaseStat>>>,
}

impl Profiler {
    /// A disabled profiler: every call is a no-op branch.
    pub fn disabled() -> Self {
        Profiler { inner: None }
    }

    /// An enabled profiler with empty accumulators.
    pub fn enabled() -> Self {
        Profiler {
            inner: Some(Box::default()),
        }
    }

    /// Whether timers are live.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a phase timer (a no-op token when disabled).
    pub fn start(&self) -> PhaseToken {
        PhaseToken(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Stops a timer started by [`Profiler::start`], accumulating the
    /// elapsed wall time under `name`.
    pub fn stop(&mut self, name: &'static str, token: PhaseToken) {
        if let (Some(stats), Some(started)) = (self.inner.as_mut(), token.0) {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            stats.entry(name).or_default().observe_ns(ns);
        }
    }

    /// Records an externally measured duration under `name`.
    pub fn record_ns(&mut self, name: &'static str, ns: u64) {
        if let Some(stats) = self.inner.as_mut() {
            stats.entry(name).or_default().observe_ns(ns);
        }
    }

    /// Consumes the profiler into its report (empty when disabled).
    pub fn into_report(self) -> ProfileReport {
        ProfileReport {
            phases: self
                .inner
                .map(|stats| {
                    stats
                        .into_iter()
                        .map(|(name, stat)| (name.to_string(), stat))
                        .collect()
                })
                .unwrap_or_default(),
        }
    }
}

/// What one profiler gathered: per-phase stats, sorted by phase name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// `(phase name, stats)` pairs, sorted by name.
    pub phases: Vec<(String, PhaseStat)>,
}

impl ProfileReport {
    /// No phases recorded?
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// The stats for `name`, if recorded.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Total nanoseconds recorded under `name` (0 when absent).
    pub fn total_ns(&self, name: &str) -> u64 {
        self.phase(name).map_or(0, |s| s.total_ns)
    }

    /// Folds another report into this one, phase by phase. Merging in
    /// slot order keeps the merged report deterministic in everything
    /// but the durations themselves.
    pub fn merge(&mut self, other: &ProfileReport) {
        for (name, stat) in &other.phases {
            match self.phases.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.phases[i].1.merge(stat),
                Err(i) => self.phases.insert(i, (name.clone(), stat.clone())),
            }
        }
    }
}

/// One job's deterministic work-accounting row in `profile.json`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobWork {
    /// Job label (mechanism name, possibly suffixed with the cell size).
    pub label: String,
    /// The job's seed.
    pub seed: u64,
    /// Population size of the job's swarm.
    pub peers: u64,
    /// Allocation-loop peer visits across the run.
    pub visited: u64,
    /// Visits that moved at least one byte.
    pub productive: u64,
}

impl JobWork {
    /// Fraction of allocation visits that moved no bytes (`None` when no
    /// visits were recorded, e.g. a journal-replayed job).
    pub fn wasted_visit_ratio(&self) -> Option<f64> {
        (self.visited > 0).then(|| 1.0 - self.productive as f64 / self.visited as f64)
    }
}

/// Everything `profile.json` records about one profiled run: merged phase
/// timings (wall clock, machine-dependent) plus deterministic work
/// accounting (exact, reproducible).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunProfile {
    /// Which artifact ran (e.g. `"fig4"`).
    pub artifact: String,
    /// The scale preset (e.g. `"quick"`).
    pub scale: String,
    /// Jobs in the batch.
    pub jobs: u64,
    /// Jobs that carried a live profiler (smaller than `jobs` under
    /// `--profile-every` sampling or journal replay).
    pub profiled_jobs: u64,
    /// Merged per-phase stats, sorted by phase name.
    pub phases: Vec<(String, PhaseStat)>,
    /// Deterministic work counters, sorted by name.
    pub work: Vec<(String, u64)>,
    /// Per-job work rows, in slot order.
    pub per_job: Vec<JobWork>,
}

impl RunProfile {
    /// The value of work counter `name` (0 when absent).
    pub fn work_counter(&self, name: &str) -> u64 {
        self.work
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The stats for phase `name`, if recorded.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Fraction of [`phase::SIM_RUN`] wall time attributed to the
    /// disjoint [`phase::ATTRIBUTED`] phases (`None` when no `sim.run`
    /// time was recorded). The gap is engine heap operations and event
    /// dispatch.
    pub fn attributed_fraction(&self) -> Option<f64> {
        let run = self.phase(phase::SIM_RUN).map_or(0, |s| s.total_ns);
        if run == 0 {
            return None;
        }
        let covered: u64 = phase::ATTRIBUTED
            .iter()
            .filter_map(|name| self.phase(name))
            .map(|s| s.total_ns)
            .sum();
        Some(covered as f64 / run as f64)
    }

    /// Overall wasted-visit ratio from the merged work counters (`None`
    /// when no visits were recorded).
    pub fn wasted_visit_ratio(&self) -> Option<f64> {
        let visited = self.work_counter(work::PEERS_VISITED);
        let productive = self.work_counter(work::PEERS_PRODUCTIVE);
        (visited > 0).then(|| 1.0 - productive as f64 / visited as f64)
    }

    /// Structural validation shared by `coop-trace-lint` and tests:
    /// checks phase names against [`phase::TAXONOMY`], duration
    /// consistency (`max_ns <= total_ns`, zero-count phases carry no
    /// time), histogram consistency (bucket counts sum to the call
    /// count), and per-job work sanity (`productive <= visited`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (name, stat) in &self.phases {
            if !phase::TAXONOMY.contains(&name.as_str()) {
                return Err(format!("phase '{name}' is not in the taxonomy"));
            }
            if stat.max_ns > stat.total_ns {
                return Err(format!("phase '{name}': max_ns exceeds total_ns"));
            }
            if stat.count == 0 && (stat.total_ns > 0 || !stat.buckets.is_empty()) {
                return Err(format!("phase '{name}': durations recorded with count 0"));
            }
            let in_buckets: u64 = stat.buckets.iter().sum();
            if in_buckets != stat.count {
                return Err(format!(
                    "phase '{name}': histogram holds {in_buckets} samples, count says {}",
                    stat.count
                ));
            }
        }
        for row in &self.per_job {
            if row.productive > row.visited {
                return Err(format!(
                    "job '{}': productive visits ({}) exceed visits ({})",
                    row.label, row.productive, row.visited
                ));
            }
        }
        Ok(())
    }

    /// Renders the profile as pretty-printed JSON (two-space indent,
    /// matching `manifest.json`). Derived ratios are written alongside
    /// the raw data so shell-level CI checks can grep them.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::from("{\n");
        let field = |out: &mut String, key: &str, value: String, last: bool| {
            out.push_str("  ");
            write_escaped(out, key);
            out.push_str(": ");
            out.push_str(&value);
            out.push_str(if last { "\n" } else { ",\n" });
        };
        let ratio = |v: Option<f64>| {
            let mut s = String::new();
            match v {
                Some(v) => write_f64(&mut s, v),
                None => s.push_str("null"),
            }
            s
        };
        field(
            &mut out,
            "schema_version",
            PROFILE_SCHEMA_VERSION.to_string(),
            false,
        );
        field(&mut out, "artifact", quoted(&self.artifact), false);
        field(&mut out, "scale", quoted(&self.scale), false);
        field(&mut out, "jobs", self.jobs.to_string(), false);
        field(
            &mut out,
            "profiled_jobs",
            self.profiled_jobs.to_string(),
            false,
        );
        field(
            &mut out,
            "attributed_fraction",
            ratio(self.attributed_fraction()),
            false,
        );
        field(
            &mut out,
            "wasted_visit_ratio",
            ratio(self.wasted_visit_ratio()),
            false,
        );
        out.push_str("  \"phases\": {");
        for (i, (name, stat)) in self.phases.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            write_escaped(&mut out, name);
            let _ = write!(
                &mut out,
                ": {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}, \"buckets\": [",
                stat.count, stat.total_ns, stat.max_ns
            );
            for (j, b) in stat.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(&mut out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str(if self.phases.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        let work = {
            let mut a = String::from("{");
            for (i, (name, value)) in self.work.iter().enumerate() {
                if i > 0 {
                    a.push_str(", ");
                }
                a.push_str(&quoted(name));
                let _ = write!(a, ": {value}");
            }
            a.push('}');
            a
        };
        field(&mut out, "work", work, false);
        out.push_str("  \"per_job\": [");
        for (i, row) in self.per_job.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            let mut o = json::ObjWriter::new();
            o.str("label", &row.label)
                .uint("seed", row.seed)
                .uint("peers", row.peers)
                .uint("visited", row.visited)
                .uint("productive", row.productive);
            match row.wasted_visit_ratio() {
                Some(r) => o.f64("wasted_visit_ratio", r),
                None => o.raw("wasted_visit_ratio", "null"),
            };
            out.push_str(&o.finish());
        }
        out.push_str(if self.per_job.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push('}');
        out
    }

    /// Writes `profile.json` into `dir` via the crash-safe
    /// [`write_atomic`](crate::write_atomic) path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation or the write.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(PROFILE_FILE);
        let mut text = self.to_json_pretty();
        text.push('\n');
        crate::atomic::write_atomic_str(&path, &text)?;
        Ok(path)
    }

    /// Parses profile JSON. Derived ratio fields are recomputed from the
    /// raw data, not read back.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem (parse
    /// failure, missing field, or wrong type).
    pub fn parse(text: &str) -> Result<RunProfile, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let version = require_u64(&doc, "schema_version")?;
        if version != PROFILE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (expected {PROFILE_SCHEMA_VERSION})"
            ));
        }
        let phases = match doc.get("phases") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(name, v)| {
                    let buckets = match v.get("buckets") {
                        Some(Json::Arr(items)) => items
                            .iter()
                            .map(|b| {
                                b.as_f64()
                                    .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                                    .map(|v| v as u64)
                                    .ok_or_else(|| {
                                        format!("'phases.{name}.buckets' entries must be counts")
                                    })
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                        _ => return Err(format!("'phases.{name}' is missing buckets")),
                    };
                    Ok((
                        name.clone(),
                        PhaseStat {
                            count: require_u64(v, "count")
                                .map_err(|e| format!("phases.{name}: {e}"))?,
                            total_ns: require_u64(v, "total_ns")
                                .map_err(|e| format!("phases.{name}: {e}"))?,
                            max_ns: require_u64(v, "max_ns")
                                .map_err(|e| format!("phases.{name}: {e}"))?,
                            buckets,
                        },
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing or non-object field 'phases'".into()),
        };
        let work = obj_u64_entries(&doc, "work")?;
        let per_job = match doc.get("per_job") {
            Some(Json::Arr(rows)) => rows
                .iter()
                .map(|row| {
                    Ok(JobWork {
                        label: row
                            .get("label")
                            .and_then(Json::as_str)
                            .ok_or("per_job rows need a string 'label'")?
                            .to_string(),
                        seed: require_u64(row, "seed")?,
                        peers: require_u64(row, "peers")?,
                        visited: require_u64(row, "visited")?,
                        productive: require_u64(row, "productive")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing or non-array field 'per_job'".into()),
        };
        Ok(RunProfile {
            artifact: require_str(&doc, "artifact")?,
            scale: require_str(&doc, "scale")?,
            jobs: require_u64(&doc, "jobs")?,
            profiled_jobs: require_u64(&doc, "profiled_jobs")?,
            phases,
            work,
            per_job,
        })
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    write_escaped(&mut out, s);
    out
}

fn require_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .filter(|v| *v >= 0.0 && v.fract() == 0.0)
        .map(|v| v as u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn require_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn obj_u64_entries(doc: &Json, key: &str) -> Result<Vec<(String, u64)>, String> {
    match doc.get(key) {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, v)| {
                v.as_f64()
                    .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                    .map(|v| (name.clone(), v as u64))
                    .ok_or_else(|| format!("'{key}.{name}' must be a non-negative integer"))
            })
            .collect(),
        _ => Err(format!("missing or non-object field '{key}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        assert!(!p.is_enabled());
        let t = p.start();
        p.stop(phase::SIM_RUN, t);
        p.record_ns(phase::SIM_ALLOCATE, 123);
        assert!(p.into_report().is_empty());
    }

    #[test]
    fn enabled_profiler_accumulates_per_phase() {
        let mut p = Profiler::enabled();
        let t = p.start();
        std::thread::sleep(std::time::Duration::from_micros(10));
        p.stop(phase::SIM_ALLOCATE, t);
        p.record_ns(phase::SIM_ALLOCATE, 1000);
        p.record_ns(phase::SIM_SETTLE, 5);
        let report = p.into_report();
        let alloc = report.phase(phase::SIM_ALLOCATE).expect("recorded");
        assert_eq!(alloc.count, 2);
        assert!(alloc.total_ns >= 1000);
        assert_eq!(alloc.buckets.iter().sum::<u64>(), 2);
        assert_eq!(report.total_ns(phase::SIM_SETTLE), 5);
        assert_eq!(report.total_ns(phase::SIM_FAULTS), 0);
    }

    #[test]
    fn phase_stat_log2_buckets_match_histogram_convention() {
        let mut s = PhaseStat::default();
        s.observe_ns(0); // bucket 0
        s.observe_ns(1); // bucket 1
        s.observe_ns(2); // bucket 2
        s.observe_ns(3); // bucket 2
        s.observe_ns(4); // bucket 3
        assert_eq!(s.buckets, vec![1, 1, 2, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.max_ns, 4);
    }

    #[test]
    fn report_merge_is_per_phase() {
        let mut a = Profiler::enabled();
        a.record_ns(phase::SIM_ALLOCATE, 10);
        a.record_ns(phase::SIM_FAULTS, 1);
        let mut b = Profiler::enabled();
        b.record_ns(phase::SIM_ALLOCATE, 30);
        b.record_ns(phase::SIM_SAMPLE, 2);
        let mut merged = a.into_report();
        merged.merge(&b.into_report());
        assert_eq!(merged.total_ns(phase::SIM_ALLOCATE), 40);
        assert_eq!(merged.phase(phase::SIM_ALLOCATE).unwrap().count, 2);
        assert_eq!(merged.total_ns(phase::SIM_FAULTS), 1);
        assert_eq!(merged.total_ns(phase::SIM_SAMPLE), 2);
        let names: Vec<&str> = merged.phases.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "merged phases stay sorted");
    }

    fn sample() -> RunProfile {
        let mut run = PhaseStat::default();
        run.observe_ns(1_000_000);
        let mut alloc = PhaseStat::default();
        alloc.observe_ns(600_000);
        let mut settle = PhaseStat::default();
        settle.observe_ns(390_000);
        RunProfile {
            artifact: "fig4".into(),
            scale: "quick".into(),
            jobs: 6,
            profiled_jobs: 3,
            phases: vec![
                (phase::SIM_ALLOCATE.into(), alloc),
                (phase::SIM_RUN.into(), run),
                (phase::SIM_SETTLE.into(), settle),
            ],
            work: vec![
                (work::CANDIDATE_SCANS.into(), 4000),
                (work::PEERS_PRODUCTIVE.into(), 75),
                (work::PEERS_VISITED.into(), 100),
            ],
            per_job: vec![
                JobWork {
                    label: "BitTorrent".into(),
                    seed: 42,
                    peers: 80,
                    visited: 60,
                    productive: 45,
                },
                JobWork {
                    label: "T-Chain".into(),
                    seed: 42,
                    peers: 80,
                    visited: 40,
                    productive: 30,
                },
            ],
        }
    }

    #[test]
    fn profile_round_trips_through_parse() {
        let p = sample();
        let text = p.to_json_pretty();
        let back = RunProfile::parse(&text).expect("round trip");
        assert_eq!(back, p);
        back.validate().expect("sample validates");
    }

    #[test]
    fn derived_ratios_are_computed_and_written() {
        let p = sample();
        let frac = p.attributed_fraction().expect("sim.run recorded");
        assert!((frac - 0.99).abs() < 1e-9, "{frac}");
        let wasted = p.wasted_visit_ratio().expect("visits recorded");
        assert!((wasted - 0.25).abs() < 1e-9, "{wasted}");
        let text = p.to_json_pretty();
        assert!(text.contains("\"wasted_visit_ratio\": 0.25"), "{text}");
        assert!(text.contains("\"attributed_fraction\": 0.99"), "{text}");
    }

    #[test]
    fn validate_rejects_structural_problems() {
        let mut p = sample();
        p.phases
            .push(("swarm.not_a_phase".into(), PhaseStat::default()));
        assert!(p.validate().unwrap_err().contains("taxonomy"));

        let mut p = sample();
        p.phases[0].1.max_ns = p.phases[0].1.total_ns + 1;
        assert!(p.validate().unwrap_err().contains("max_ns"));

        let mut p = sample();
        p.phases[0].1.buckets.push(7);
        assert!(p.validate().unwrap_err().contains("histogram"));

        let mut p = sample();
        p.per_job[0].productive = p.per_job[0].visited + 1;
        assert!(p.validate().unwrap_err().contains("productive"));
    }

    #[test]
    fn parse_rejects_missing_and_malformed_fields() {
        assert!(RunProfile::parse("not json").is_err());
        assert!(RunProfile::parse("{}").is_err());
        let text = sample()
            .to_json_pretty()
            .replace("\"jobs\": 6", "\"jobs\": \"six\"");
        let err = RunProfile::parse(&text).unwrap_err();
        assert!(err.contains("jobs"), "{err}");
    }

    #[test]
    fn write_to_creates_the_file() {
        let dir = std::env::temp_dir().join(format!(
            "coop-telemetry-profile-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = sample().write_to(&dir).expect("write");
        assert!(path.ends_with(PROFILE_FILE));
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(RunProfile::parse(&text).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
