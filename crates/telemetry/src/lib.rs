//! Zero-dependency observability for the coop-incentives workspace.
//!
//! This crate provides the instrumentation substrate used by the DES
//! engine, the swarm simulator, and the experiment executor:
//!
//! - [`Recorder`] — counters, log2-bucket [`Histogram`]s, sim-time spans,
//!   and a sampled stream of structured [`TraceEvent`]s, all behind one
//!   handle that is free when disabled (the default).
//! - [`TraceEvent`] / [`Category`] — the event taxonomy. Each event
//!   renders to one JSONL line with a stable field order.
//! - [`Sink`] implementations — [`JsonlSink`] (trace files),
//!   [`StderrSink`] (the `COOP_SWARM_DEBUG` shorthand), and
//!   [`MemorySink`] (tests and the batch executor's ordered post-run
//!   writing).
//! - [`RunManifest`] — the per-run `manifest.json` written next to
//!   artifacts: config fingerprint, seed, mechanisms, attack scenario,
//!   wall-clock phase timings, and counter totals.
//! - [`Profiler`] / [`RunProfile`] — scoped monotonic phase timers over
//!   the [`profile::phase`] taxonomy and the per-run `profile.json` they
//!   feed: per-phase log2 duration histograms plus deterministic
//!   work-accounting counters.
//! - [`json`] — the in-house JSON writer/parser that keeps all of the
//!   above dependency-free (the vendored `serde_json` shim cannot parse).
//! - [`write_atomic`] — the crash-safe tmp-file + fsync + rename write
//!   path every artifact, manifest and trace file goes through.
//!
//! # Determinism contract
//!
//! The recorder observes, never decides: it holds no RNG, no simulation
//! branch consults it, and it records only values the caller already
//! computed. Enabling telemetry — at any sampling rate — must not change
//! a single artifact byte. Wall-clock readings appear only in the
//! manifest and in executor [`TraceEvent::JobSpan`] events, never in
//! figure artifacts. Integration tests in `coop-experiments` pin this by
//! byte-comparing fig4 outputs across telemetry modes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod event;
pub mod json;
pub mod manifest;
pub mod profile;
pub mod recorder;
pub mod sink;

pub use atomic::{is_staging_file, remove_staging_files, write_atomic, write_atomic_str};
pub use event::{Category, TraceEvent};
pub use manifest::{fingerprint_debug, Fnv, PhaseTiming, RunManifest, MANIFEST_FILE};
pub use profile::{
    JobWork, PhaseStat, PhaseToken, ProfileReport, Profiler, RunProfile, Stopwatch, PROFILE_FILE,
    PROFILE_SCHEMA_VERSION,
};
pub use recorder::{Histogram, Recorder, Sampling, SpanStats, TelemetryConfig, TelemetryReport};
pub use sink::{
    AtomicFile, CsvProbeSink, JsonlSink, MemorySink, Sink, StderrSink, PROBE_CSV_HEADER,
};
