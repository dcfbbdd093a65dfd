//! `perf-diff` — compare two `profile.json` snapshots and gate on
//! regressions.
//!
//! Raw wall-clock totals vary machine to machine, so the tolerance band
//! applies to *phase shares*: each round-loop phase's fraction of the
//! total attributed sim time, which is stable across hardware for the
//! same workload. Raw durations are reported for context only. On top of
//! the share bands, two structural gates check the deterministic
//! counters carried in `profile.json`:
//!
//! - the incremental availability index must never rebuild
//!   (`swarm.availability.rebuilds == 0` in the current snapshot), and
//! - the wasted-visit ratio must be present, below 1.0, and no higher
//!   than the baseline's (absent means the work counters stopped
//!   flowing; 1.0 means every allocation visit moved no bytes; climbing
//!   past the baseline means the dirty-set loop's visit skipping has
//!   regressed toward the indexed full-scan behaviour).
//!
//! This runner executes no simulations: it parses the two files, prints
//! a markdown summary, writes it atomically as [`PERF_DIFF_FILE`], and
//! exits 1 when any gate fails.

use std::path::Path;
use std::process::ExitCode;

use coop_telemetry::profile::phase;
use coop_telemetry::RunProfile;

use crate::{OutputDir, RunSpec};

/// File name of the markdown summary written next to the artifacts.
pub const PERF_DIFF_FILE: &str = "perf_diff.md";

/// The availability-index counter the structural gate watches.
pub const REBUILDS_COUNTER: &str = "swarm.availability.rebuilds";

/// One phase's comparison row.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Phase name from the taxonomy.
    pub name: String,
    /// Baseline total nanoseconds under this phase.
    pub base_ns: u64,
    /// Current total nanoseconds under this phase.
    pub cur_ns: u64,
    /// Baseline share of attributed sim time (`None` for phases outside
    /// [`phase::ATTRIBUTED`], whose shares are not comparable).
    pub base_share: Option<f64>,
    /// Current share of attributed sim time.
    pub cur_share: Option<f64>,
    /// Whether the share shifted beyond the tolerance band.
    pub drift: bool,
}

impl PhaseRow {
    /// Absolute share shift between the snapshots (`None` unless both
    /// sides have a comparable share).
    pub fn share_delta(&self) -> Option<f64> {
        match (self.base_share, self.cur_share) {
            (Some(b), Some(c)) => Some(c - b),
            _ => None,
        }
    }
}

/// The full comparison: per-phase rows, work-counter deltas, and the
/// pass/fail gates.
#[derive(Debug)]
pub struct DiffReport {
    /// Union of both snapshots' phases, sorted by name.
    pub rows: Vec<PhaseRow>,
    /// Work counters present in either snapshot: `(name, base, current)`.
    pub work: Vec<(String, u64, u64)>,
    /// Gates in evaluation order: `(passed, description)`.
    pub gates: Vec<(bool, String)>,
    /// The share tolerance the drift gate used.
    pub tolerance: f64,
    /// `artifact/scale (jobs, profiled)` labels for the two snapshots.
    pub labels: (String, String),
}

impl DiffReport {
    /// Whether every gate passed.
    pub fn is_ok(&self) -> bool {
        self.gates.iter().all(|(ok, _)| *ok)
    }

    /// The markdown summary (also what lands in [`PERF_DIFF_FILE`]).
    pub fn render(&self) -> String {
        let mut out = String::from("# perf-diff\n\n");
        out.push_str(&format!("- baseline: {}\n", self.labels.0));
        out.push_str(&format!("- current: {}\n", self.labels.1));
        out.push_str(&format!(
            "- tolerance: ±{:.3} absolute share of attributed sim time\n\n",
            self.tolerance
        ));
        out.push_str("## Phases\n\n");
        out.push_str("| phase | base ms | cur ms | base share | cur share | Δ share | |\n");
        out.push_str("|---|---:|---:|---:|---:|---:|---|\n");
        for row in &self.rows {
            out.push_str(&format!(
                "| {} | {:.3} | {:.3} | {} | {} | {} | {} |\n",
                row.name,
                row.base_ns as f64 / 1e6,
                row.cur_ns as f64 / 1e6,
                fmt_share(row.base_share),
                fmt_share(row.cur_share),
                match row.share_delta() {
                    Some(d) => format!("{d:+.3}"),
                    None => "-".to_string(),
                },
                if row.drift { "DRIFT" } else { "" }
            ));
        }
        out.push_str("\n## Work counters\n\n");
        out.push_str("| counter | base | current | Δ |\n|---|---:|---:|---:|\n");
        for (name, base, cur) in &self.work {
            out.push_str(&format!(
                "| {name} | {base} | {cur} | {:+} |\n",
                *cur as i128 - *base as i128
            ));
        }
        out.push_str("\n## Gates\n\n");
        for (ok, desc) in &self.gates {
            out.push_str(&format!(
                "- {} {desc}\n",
                if *ok { "[ok]" } else { "[FAIL]" }
            ));
        }
        out.push_str(&format!(
            "\nverdict: {}\n",
            if self.is_ok() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

fn fmt_share(share: Option<f64>) -> String {
    match share {
        Some(s) => format!("{s:.3}"),
        None => "-".to_string(),
    }
}

/// Total nanoseconds across the disjoint attributed sim phases — the
/// denominator shares are computed against.
fn attributed_total(profile: &RunProfile) -> u64 {
    phase::ATTRIBUTED
        .iter()
        .map(|name| profile.phase(name).map_or(0, |s| s.total_ns))
        .sum()
}

fn label(profile: &RunProfile, path: &Path) -> String {
    format!(
        "{} {} ({} jobs, {} profiled) — {}",
        profile.artifact,
        profile.scale,
        profile.jobs,
        profile.profiled_jobs,
        path.display()
    )
}

/// Compares two parsed profiles. Pure — no I/O, so tests can drive it
/// with synthetic snapshots.
pub fn diff(base: &RunProfile, cur: &RunProfile, tolerance: f64) -> DiffReport {
    let base_total = attributed_total(base);
    let cur_total = attributed_total(cur);
    let share = |total: u64, ns: u64| (total > 0).then(|| ns as f64 / total as f64);

    let mut names: Vec<&str> = base
        .phases
        .iter()
        .chain(cur.phases.iter())
        .map(|(n, _)| n.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();

    let mut rows = Vec::new();
    let mut drifted: Vec<String> = Vec::new();
    for name in names {
        let base_ns = base.phase(name).map_or(0, |s| s.total_ns);
        let cur_ns = cur.phase(name).map_or(0, |s| s.total_ns);
        let comparable = phase::ATTRIBUTED.contains(&name);
        let base_share = if comparable {
            share(base_total, base_ns)
        } else {
            None
        };
        let cur_share = if comparable {
            share(cur_total, cur_ns)
        } else {
            None
        };
        let drift = match (base_share, cur_share) {
            (Some(b), Some(c)) => (c - b).abs() > tolerance,
            _ => false,
        };
        if drift {
            drifted.push(name.to_string());
        }
        rows.push(PhaseRow {
            name: name.to_string(),
            base_ns,
            cur_ns,
            base_share,
            cur_share,
            drift,
        });
    }

    let mut work_names: Vec<&str> = base
        .work
        .iter()
        .chain(cur.work.iter())
        .map(|(n, _)| n.as_str())
        .collect();
    work_names.sort_unstable();
    work_names.dedup();
    let work = work_names
        .into_iter()
        .map(|n| (n.to_string(), base.work_counter(n), cur.work_counter(n)))
        .collect();

    let mut gates = Vec::new();
    let rebuilds = cur.work_counter(REBUILDS_COUNTER);
    gates.push((
        rebuilds == 0,
        format!("availability rebuilds: {rebuilds} (must be 0)"),
    ));
    // The ratio gate compares against the baseline when it carries one:
    // the dirty-set round loop earns its keep by skipping visits that
    // cannot move bytes, so a current snapshot whose ratio climbs past
    // the committed baseline has regressed toward full scanning even if
    // it still clears the absolute 1.0 sanity bound.
    gates.push(
        match (cur.wasted_visit_ratio(), base.wasted_visit_ratio()) {
            (Some(r), Some(b)) if r < 1.0 && r <= b => (
                true,
                format!("wasted-visit ratio: {r:.3} (<= baseline {b:.3})"),
            ),
            (Some(r), Some(b)) if r < 1.0 => (
                false,
                format!("wasted-visit ratio: {r:.3} (must be <= baseline {b:.3})"),
            ),
            (Some(r), None) if r < 1.0 => (true, format!("wasted-visit ratio: {r:.3} (< 1.0)")),
            (Some(r), _) => (false, format!("wasted-visit ratio: {r:.3} (must be < 1.0)")),
            (None, _) => (
                false,
                "wasted-visit ratio: absent (work counters missing)".to_string(),
            ),
        },
    );
    gates.push(if drifted.is_empty() {
        (true, format!("phase shares within ±{tolerance:.3}"))
    } else {
        (
            false,
            format!(
                "phase share drift beyond ±{tolerance:.3}: {}",
                drifted.join(", ")
            ),
        )
    });

    DiffReport {
        rows,
        work,
        gates,
        tolerance,
        labels: (String::new(), String::new()),
    }
}

fn load(path: &Path) -> Result<RunProfile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let profile = RunProfile::parse(&text)?;
    profile.validate()?;
    Ok(profile)
}

/// CLI entry point: loads `--baseline` and `--current`, prints the
/// markdown summary, writes it as [`PERF_DIFF_FILE`] in the output
/// directory, and returns exit code 1 when any gate fails (2 on
/// unreadable/invalid input).
pub fn run_cli(spec: &RunSpec) -> ExitCode {
    let baseline = spec.baseline.as_deref().expect("parse enforces --baseline");
    let current = spec.current.as_deref().expect("parse enforces --current");
    let base = match load(baseline) {
        Ok(p) => p,
        Err(err) => {
            eprintln!("error: --baseline {}: {err}", baseline.display());
            return ExitCode::from(2);
        }
    };
    let cur = match load(current) {
        Ok(p) => p,
        Err(err) => {
            eprintln!("error: --current {}: {err}", current.display());
            return ExitCode::from(2);
        }
    };
    let mut report = diff(&base, &cur, spec.tolerance);
    report.labels = (label(&base, baseline), label(&cur, current));
    let text = report.render();
    println!("{text}");
    if let Some(dir) = &spec.out_dir {
        OutputDir::set_default_root(dir.clone());
    }
    let path = OutputDir::default_dir().path().join(PERF_DIFF_FILE);
    match coop_telemetry::write_atomic_str(&path, &text) {
        Ok(()) => eprintln!("perf-diff summary written to {}", path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
    if report.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coop_telemetry::profile::work;
    use coop_telemetry::{JobWork, PhaseStat};

    fn stat(ns: u64) -> PhaseStat {
        let mut s = PhaseStat::default();
        s.observe_ns(ns);
        s
    }

    fn snapshot(allocate_ns: u64, settle_ns: u64, rebuilds: u64) -> RunProfile {
        RunProfile {
            artifact: "fig4-scale".into(),
            scale: "quick".into(),
            jobs: 1,
            profiled_jobs: 1,
            phases: vec![
                (phase::SIM_ALLOCATE.to_string(), stat(allocate_ns)),
                (phase::SIM_RUN.to_string(), stat(allocate_ns + settle_ns)),
                (phase::SIM_SETTLE.to_string(), stat(settle_ns)),
            ],
            work: vec![
                (REBUILDS_COUNTER.to_string(), rebuilds),
                (work::PEERS_PRODUCTIVE.to_string(), 60),
                (work::PEERS_VISITED.to_string(), 100),
            ],
            per_job: vec![JobWork {
                label: "psp".into(),
                seed: 42,
                peers: 80,
                visited: 100,
                productive: 60,
            }],
        }
    }

    #[test]
    fn identical_snapshots_pass_every_gate() {
        let base = snapshot(600, 400, 0);
        let report = diff(&base, &snapshot(600, 400, 0), 0.25);
        assert!(report.is_ok(), "{:?}", report.gates);
        let text = report.render();
        assert!(text.contains("verdict: PASS"), "{text}");
        assert!(text.contains("| sim.allocate | 0.001 | 0.001 | 0.600 | 0.600 | +0.000 |"));
    }

    #[test]
    fn rebuilds_in_current_fail_the_gate() {
        let base = snapshot(600, 400, 0);
        let report = diff(&base, &snapshot(600, 400, 3), 0.25);
        assert!(!report.is_ok());
        assert!(report.render().contains("[FAIL] availability rebuilds: 3"));
    }

    #[test]
    fn share_drift_beyond_tolerance_fails() {
        let base = snapshot(600, 400, 0);
        // allocate share moves 0.60 -> 0.90: a 0.30 shift.
        let report = diff(&base, &snapshot(900, 100, 0), 0.25);
        assert!(!report.is_ok());
        let text = report.render();
        assert!(text.contains("DRIFT"), "{text}");
        assert!(text.contains("[FAIL] phase share drift"), "{text}");
        // The same shift passes a wider band.
        assert!(diff(&base, &snapshot(900, 100, 0), 0.35).is_ok());
    }

    /// Rewrites the productive-visit count everywhere it appears, which
    /// moves the snapshot's wasted-visit ratio (visited stays at 100).
    fn set_productive(profile: &mut RunProfile, productive: u64) {
        for (name, value) in &mut profile.work {
            if name == work::PEERS_PRODUCTIVE {
                *value = productive;
            }
        }
        for row in &mut profile.per_job {
            row.productive = productive;
        }
    }

    #[test]
    fn wasted_ratio_climbing_past_baseline_fails() {
        let base = snapshot(600, 400, 0);
        // 60 -> 55 productive of 100 visits: ratio climbs 0.40 -> 0.45.
        let mut cur = snapshot(600, 400, 0);
        set_productive(&mut cur, 55);
        let report = diff(&base, &cur, 0.25);
        assert!(!report.is_ok());
        assert!(report
            .render()
            .contains("[FAIL] wasted-visit ratio: 0.450 (must be <= baseline 0.400)"));
        // A drop below the baseline passes.
        let mut better = snapshot(600, 400, 0);
        set_productive(&mut better, 90);
        let report = diff(&base, &better, 0.25);
        assert!(report.is_ok(), "{:?}", report.gates);
        assert!(report
            .render()
            .contains("[ok] wasted-visit ratio: 0.100 (<= baseline 0.400)"));
    }

    #[test]
    fn missing_work_counters_fail_the_wasted_ratio_gate() {
        let base = snapshot(600, 400, 0);
        let mut cur = snapshot(600, 400, 0);
        cur.work.clear();
        cur.per_job.clear();
        let report = diff(&base, &cur, 0.25);
        assert!(!report.is_ok());
        assert!(report
            .render()
            .contains("[FAIL] wasted-visit ratio: absent"));
    }

    #[test]
    fn unprofiled_snapshots_have_no_comparable_shares() {
        // Work counters flow even when no slot carried a profiler; the
        // share gate simply has nothing to compare.
        let mut base = snapshot(600, 400, 0);
        let mut cur = snapshot(600, 400, 0);
        base.phases.clear();
        cur.phases.clear();
        let report = diff(&base, &cur, 0.25);
        assert!(report.is_ok(), "{:?}", report.gates);
        assert!(report.rows.is_empty());
    }
}
