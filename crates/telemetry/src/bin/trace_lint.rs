//! `coop-trace-lint` — validates telemetry artifacts.
//!
//! Usage:
//!
//! ```text
//! coop-trace-lint <trace.jsonl> [manifest.json ...] [profile.json ...]
//! ```
//!
//! Each `.jsonl` argument is checked line by line: every line must parse
//! as a JSON object carrying string `type` and `cat` fields, with `cat`
//! one of the known categories. An argument whose file name ends in
//! `profile.json` must decode as a [`coop_telemetry::RunProfile`] and
//! pass its structural validation (schema version, taxonomy phase names
//! including nested ones such as `sim.drain`, `sim.mechanism` and
//! `sim.execute`, histogram/duration consistency,
//! `productive <= visited`). Any other
//! argument must decode as a full [`coop_telemetry::RunManifest`]. Exit
//! status is 0 when every file is clean; any problem prints a diagnostic
//! to stderr and exits 1. CI runs this against the smoke runs' outputs.

use std::process::ExitCode;

use coop_telemetry::json::{self, Json};
use coop_telemetry::{Category, RunManifest, RunProfile};

fn lint_jsonl(path: &str, text: &str) -> Result<usize, String> {
    let known: Vec<&str> = Category::ALL.iter().map(|c| c.name()).collect();
    let mut events = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let ty = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: event has no string 'type' field", lineno + 1))?;
        let cat = doc.get("cat").and_then(Json::as_str).ok_or_else(|| {
            format!(
                "{path}:{}: event '{ty}' has no string 'cat' field",
                lineno + 1
            )
        })?;
        if !known.contains(&cat) {
            return Err(format!(
                "{path}:{}: unknown category '{cat}' (known: {})",
                lineno + 1,
                known.join(", ")
            ));
        }
        events += 1;
    }
    Ok(events)
}

fn lint_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    if path.ends_with(".jsonl") {
        let events = lint_jsonl(path, &text)?;
        Ok(format!("{path}: ok ({events} events)"))
    } else if path.ends_with("profile.json") {
        let profile = lint_profile(&text).map_err(|e| format!("{path}: {e}"))?;
        Ok(format!(
            "{path}: ok (artifact {}, {} phases, {}/{} jobs profiled)",
            profile.artifact,
            profile.phases.len(),
            profile.profiled_jobs,
            profile.jobs
        ))
    } else {
        let manifest = RunManifest::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        Ok(format!(
            "{path}: ok (artifact {}, {} phases, {} counters)",
            manifest.artifact,
            manifest.phases.len(),
            manifest.counters.len()
        ))
    }
}

/// Parses and structurally validates one `profile.json`.
fn lint_profile(text: &str) -> Result<RunProfile, String> {
    let profile = RunProfile::parse(text)?;
    profile.validate()?;
    Ok(profile)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: coop-trace-lint <trace.jsonl | manifest.json | profile.json> ...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &args {
        match lint_file(path) {
            Ok(summary) => println!("{summary}"),
            Err(problem) => {
                eprintln!("{problem}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coop_telemetry::TraceEvent;

    #[test]
    fn accepts_recorder_output_and_rejects_garbage() {
        let good = format!(
            "{}\n{}\n",
            TraceEvent::EngineStats {
                events_processed: 1,
                queue_depth_hwm: 1
            }
            .to_jsonl(),
            TraceEvent::PeerAtEnd {
                peer: 0,
                have: 1,
                locked: 0,
                obligations: 0,
                inflight: 0,
                interested_neighbors: 0,
                neighbors: 4
            }
            .to_jsonl()
        );
        assert_eq!(lint_jsonl("t.jsonl", &good), Ok(2));
        assert!(lint_jsonl("t.jsonl", "not json\n").is_err());
        assert!(lint_jsonl("t.jsonl", "{\"type\":\"x\"}\n").is_err());
        assert!(lint_jsonl("t.jsonl", "{\"type\":\"x\",\"cat\":\"nope\"}\n").is_err());
    }

    #[test]
    fn profile_lint_round_trips_and_rejects_bad_taxonomy() {
        use coop_telemetry::profile::phase;
        use coop_telemetry::{PhaseStat, RunProfile};
        let mut stat = PhaseStat::default();
        stat.observe_ns(1000);
        // The allocate sub-phases are taxonomy members too.
        let phases = [
            phase::SIM_RUN,
            phase::SIM_ALLOCATE,
            phase::SIM_DRAIN,
            phase::SIM_MECHANISM,
            phase::SIM_EXECUTE,
        ];
        let profile = RunProfile {
            artifact: "fig4".into(),
            scale: "quick".into(),
            jobs: 1,
            profiled_jobs: 1,
            phases: phases
                .iter()
                .map(|p| (p.to_string(), stat.clone()))
                .collect(),
            work: vec![],
            per_job: vec![],
        };
        let text = profile.to_json_pretty();
        assert!(lint_profile(&text).is_ok());
        let bad = text.replace(phase::SIM_RUN, "sim.not_a_phase");
        assert!(lint_profile(&bad).unwrap_err().contains("taxonomy"));
        assert!(lint_profile("{}").is_err());
    }
}
