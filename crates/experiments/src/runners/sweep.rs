//! **sweep** — run a declarative scenario pack over the robust executor.
//!
//! `coop-experiments sweep <scenario|spec.json|pack-dir>` loads a
//! [`ScenarioPack`], compiles each scenario into the plain [`SimJob`]
//! grid ([`Scenario::jobs`]), and runs the batches through the same
//! journaled, panic-isolated executor the figure runners use. A
//! `figure`-style scenario writes the full fig4-style artifact set per
//! seed — the baseline pack's `figure: "fig4"` output is byte-identical
//! to the plain `fig4` runner's. A `sweep`-style scenario writes one
//! summary CSV row per job plus one report JSON (the built-in
//! `fig4-churn` pack is four of them: the Fig. 4 comparison at four churn
//! rates).
//!
//! With telemetry on, each scenario writes its own round-probe CSV, and
//! the pack writes one `manifest.json`, one `--trace-out` file and one
//! `profile.json` covering every scenario's jobs in pack order. Their
//! identity is the pack: its source and [`ScenarioPack::fingerprint`],
//! as in the journal header.

use coop_telemetry::Stopwatch;
use serde::Serialize;

use crate::exec::{BatchError, Executor};
use crate::runners::fig4::{emit_probe_csv, emit_run_outputs, write_figure_artifacts};
use crate::scenario::{ArtifactStyle, Scenario, ScenarioPack};
use crate::table::num;
use crate::telemetry::{BatchTrace, TelemetryOpts};
use crate::{OutputDir, Scale, Table};

/// One (seed, peer-count, mechanism) cell of a scenario.
#[derive(Clone, Debug, Serialize)]
pub struct SweepRow {
    /// Algorithm name.
    pub algorithm: String,
    /// The cell's seed.
    pub seed: u64,
    /// Swarm population of the cell.
    pub peers: usize,
    /// Fraction of compliant peers that completed the download.
    pub completed_fraction: f64,
    /// Mean completion time (seconds) over completed compliant peers.
    pub mean_completion_s: Option<f64>,
    /// Mean bootstrap time in seconds.
    pub mean_bootstrap_s: Option<f64>,
    /// Final average fairness `(Σ u_i/d_i)/N`.
    pub avg_fairness: Option<f64>,
    /// Final fairness statistic `F` (0 = perfectly fair).
    pub fairness_f: f64,
    /// Cumulative susceptibility (free-rider share of peer upload bytes).
    pub susceptibility: f64,
    /// Bytes of completed transfers lost to fault-injected link loss.
    pub fault_dropped_bytes: u64,
    /// Whether the run ended in an unsatisfiable (stalled) swarm.
    pub stalled: bool,
}

/// One scenario's results within a pack run.
#[derive(Clone, Debug, Serialize)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Free-text description from the spec.
    pub description: String,
    /// Artifact file-name stem.
    pub figure: String,
    /// Artifact style (`"figure"` / `"sweep"`).
    pub style: String,
    /// Fingerprint of the scenario's canonical spec, 16-digit hex.
    pub spec_fingerprint: String,
    /// Attack label (e.g. `"freeride(0.2)"`).
    pub attack: String,
    /// Jobs the scenario compiled to.
    pub jobs: usize,
    /// One row per job, in slot order (seed-major, then peer count, then
    /// mechanism).
    pub rows: Vec<SweepRow>,
}

/// The whole pack's report.
#[derive(Clone, Debug, Serialize)]
pub struct PackReport {
    /// Where the pack came from (built-in name, spec file, or directory).
    pub source: String,
    /// Scale used.
    pub scale: String,
    /// Base seed.
    pub seed: u64,
    /// Pack fingerprint (over every scenario fingerprint), 16-digit hex.
    pub pack_fingerprint: String,
    /// Per-scenario outcomes, in pack order (failed scenarios are
    /// absent — they are reported through the batch errors instead).
    pub scenarios: Vec<ScenarioOutcome>,
}

impl PackReport {
    /// The outcome for one scenario by name.
    pub fn get(&self, name: &str) -> &ScenarioOutcome {
        self.scenarios
            .iter()
            .find(|s| s.scenario == name)
            .expect("scenario present")
    }

    /// Renders the report: a pack summary table, then each scenario's
    /// per-cell rows.
    pub fn render(&self) -> String {
        let mut out = format!(
            "sweep — scenario pack '{}' ({} scale, seed {}, pack fingerprint {})\n",
            self.source, self.scale, self.seed, self.pack_fingerprint
        );
        let mut summary = Table::new(vec![
            "Scenario", "style", "figure", "jobs", "attack", "spec fp",
        ]);
        for s in &self.scenarios {
            summary.row(vec![
                s.scenario.clone(),
                s.style.clone(),
                s.figure.clone(),
                s.jobs.to_string(),
                s.attack.clone(),
                s.spec_fingerprint.clone(),
            ]);
        }
        out.push_str(&summary.render());
        for s in &self.scenarios {
            out.push_str(&format!("\n{} — {}\n", s.scenario, s.description));
            let mut t = Table::new(vec![
                "Algorithm",
                "seed",
                "peers",
                "completed",
                "mean ct (s)",
                "F",
                "susceptibility",
                "stalled",
            ]);
            for r in &s.rows {
                t.row(vec![
                    r.algorithm.clone(),
                    r.seed.to_string(),
                    r.peers.to_string(),
                    num(r.completed_fraction),
                    r.mean_completion_s.map_or("n/a".into(), num),
                    num(r.fairness_f),
                    num(r.susceptibility),
                    r.stalled.to_string(),
                ]);
            }
            out.push_str(&t.render());
        }
        out
    }
}

/// Runs every scenario of `pack` in order, collecting per-scenario batch
/// failures instead of aborting the pack: a scenario whose batch fails
/// writes no artifacts, but the remaining scenarios still run (and their
/// finished jobs are journaled either way). With telemetry on, the
/// scenarios' traces are joined in pack order and the run outputs are
/// written once, after the last scenario (a failed scenario contributes
/// no jobs to them).
pub fn try_run_pack(
    pack: &ScenarioPack,
    scale: Scale,
    seed: u64,
    cli_replicates: u64,
    executor: &Executor,
    opts: &TelemetryOpts,
    out: &OutputDir,
) -> (PackReport, Vec<BatchError>) {
    let mut scenarios = Vec::new();
    let mut errors = Vec::new();
    let mut traces = Vec::new();
    for scenario in &pack.scenarios {
        match try_run_scenario(scenario, scale, seed, cli_replicates, executor, opts, out) {
            Ok((outcome, trace)) => {
                scenarios.push(outcome);
                traces.extend(trace);
            }
            Err(err) => errors.push(err),
        }
    }
    if !traces.is_empty() {
        let mut trace = BatchTrace::concat(traces);
        trace.scenario = Some((pack.source.clone(), pack.fingerprint()));
        let replicates = pack
            .scenarios
            .iter()
            .map(|s| s.effective_replicates(cli_replicates))
            .max()
            .unwrap_or(1);
        let mut attacks: Vec<String> = Vec::new();
        for label in pack.scenarios.iter().map(|s| s.attack.label()) {
            if !attacks.contains(&label) {
                attacks.push(label);
            }
        }
        emit_run_outputs(
            "sweep",
            &trace,
            opts,
            out,
            scale,
            seed,
            replicates,
            executor.jobs() as u64,
            &attacks.join(","),
        );
    }
    (
        PackReport {
            source: pack.source.clone(),
            scale: scale.name().to_string(),
            seed,
            pack_fingerprint: format!("{:016x}", pack.fingerprint()),
            scenarios,
        },
        errors,
    )
}

/// Runs one scenario's batch and writes its artifacts (and, with
/// telemetry on, its round-probe CSV), returning the batch trace for the
/// pack's run outputs.
///
/// # Errors
///
/// Returns the batch's failures when any job fails every attempt; no
/// artifacts are written for the scenario in that case.
fn try_run_scenario(
    scenario: &Scenario,
    scale: Scale,
    base_seed: u64,
    cli_replicates: u64,
    executor: &Executor,
    opts: &TelemetryOpts,
    out: &OutputDir,
) -> Result<(ScenarioOutcome, Option<BatchTrace>), BatchError> {
    let jobs = scenario.jobs(scale, base_seed, cli_replicates);
    let replicates = scenario.effective_replicates(cli_replicates);
    let sim_clock = Stopwatch::start();
    let run = executor.run_sims_robust(&jobs, opts);
    let sim_ms = sim_clock.elapsed_ms();
    let (results, trace) = run.into_complete(&scenario.name)?;
    let write_clock = Stopwatch::start();

    let rows: Vec<SweepRow> = jobs
        .iter()
        .zip(&results)
        .map(|(job, result)| SweepRow {
            algorithm: job.kind.name().to_string(),
            seed: job.seed,
            peers: job.peers(),
            completed_fraction: result.completed_fraction(),
            mean_completion_s: result.mean_completion_time(),
            mean_bootstrap_s: result.mean_bootstrap_time(),
            avg_fairness: result.final_avg_fairness(),
            fairness_f: result.final_fairness_stat(),
            susceptibility: result.final_susceptibility(),
            fault_dropped_bytes: result.totals.fault_dropped_bytes,
            stalled: result.stalled,
        })
        .collect();
    let outcome = ScenarioOutcome {
        scenario: scenario.name.clone(),
        description: scenario.description.clone(),
        figure: scenario.figure.clone(),
        style: scenario.style.name().to_string(),
        spec_fingerprint: format!("{:016x}", scenario.fingerprint()),
        attack: scenario.attack.label(),
        jobs: jobs.len(),
        rows,
    };

    match scenario.style {
        ArtifactStyle::Figure => {
            // One full fig4-style artifact set per seed. The spec parser
            // pins figure style to the full mechanism grid and at most one
            // peer count, so each seed's slice is exactly one figure row
            // set.
            let per_seed = scenario.mechanisms.len();
            for i in 0..replicates as usize {
                write_figure_artifacts(
                    &scenario.figure,
                    scale,
                    base_seed + i as u64,
                    &scenario.mechanisms,
                    &results[i * per_seed..(i + 1) * per_seed],
                    out,
                );
            }
        }
        ArtifactStyle::Sweep => {
            let csv_rows: Vec<Vec<String>> = outcome
                .rows
                .iter()
                .map(|r| {
                    vec![
                        outcome.scenario.clone(),
                        r.algorithm.clone(),
                        r.seed.to_string(),
                        r.peers.to_string(),
                        format!("{}", r.completed_fraction),
                        r.mean_completion_s
                            .map_or(String::new(), |v| format!("{v}")),
                        r.mean_bootstrap_s.map_or(String::new(), |v| format!("{v}")),
                        r.avg_fairness.map_or(String::new(), |v| format!("{v}")),
                        format!("{}", r.fairness_f),
                        format!("{}", r.susceptibility),
                        r.fault_dropped_bytes.to_string(),
                        r.stalled.to_string(),
                    ]
                })
                .collect();
            let _ = out.csv_rows(
                &format!("{}_sweep_{}", scenario.figure, scale.name()),
                &[
                    "scenario",
                    "algorithm",
                    "seed",
                    "peers",
                    "completed_fraction",
                    "mean_completion_s",
                    "mean_bootstrap_s",
                    "avg_fairness",
                    "fairness_f",
                    "susceptibility",
                    "fault_dropped_bytes",
                    "stalled",
                ],
                &csv_rows,
            );
            let _ = out.json(&format!("{}_{}", scenario.figure, scale.name()), &outcome);
        }
    }

    let trace = trace.map(|mut trace| {
        trace.push_phase("simulate", sim_ms);
        trace.push_phase("write_artifacts", write_clock.elapsed_ms());
        emit_probe_csv(&scenario.figure, &trace, out);
        trace
    });
    Ok((outcome, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::load_pack;
    use coop_incentives::MechanismKind;

    fn tmp_out(tag: &str) -> OutputDir {
        let dir = std::env::temp_dir().join(format!(
            "coop-sweep-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        OutputDir::new(dir)
    }

    #[test]
    fn sweep_style_scenario_writes_summary_artifacts() {
        let dir = tmp_out("style");
        let spec = r#"{
            "spec_version": 1,
            "name": "tiny-sweep",
            "artifacts": "sweep",
            "mechanisms": ["BitTorrent", "Altruism"],
            "peers": [20, 30]
        }"#;
        let file = dir.path().join("tiny-sweep.json");
        std::fs::create_dir_all(dir.path()).unwrap();
        std::fs::write(&file, spec).unwrap();
        let pack = load_pack(file.to_str().unwrap()).unwrap();

        let (report, errors) = try_run_pack(
            &pack,
            Scale::Quick,
            5,
            1,
            &Executor::default(),
            &TelemetryOpts::disabled(),
            &dir,
        );
        assert!(errors.is_empty());
        let outcome = report.get("tiny-sweep");
        assert_eq!(outcome.jobs, 4, "2 peer counts x 2 mechanisms");
        assert_eq!(outcome.rows.len(), 4);
        assert_eq!(outcome.rows[0].peers, 20);
        assert_eq!(outcome.rows[2].peers, 30);
        assert_eq!(outcome.rows[0].algorithm, "BitTorrent");
        assert!(dir.path().join("tiny-sweep_sweep_quick.csv").is_file());
        assert!(dir.path().join("tiny-sweep_quick.json").is_file());
        assert!(report.render().contains("tiny-sweep"));
        let _ = std::fs::remove_dir_all(dir.path());
    }

    #[test]
    fn churn_pack_baseline_matches_fig4_and_churn_degrades_completion() {
        let dir = tmp_out("churn");
        let pack = load_pack("fig4-churn").unwrap();
        let rates: Vec<f64> = pack.scenarios.iter().map(|s| s.faults.churn_rate).collect();
        assert_eq!(rates, [0.0, 0.005, 0.01, 0.02]);
        let (report, errors) = try_run_pack(
            &pack,
            Scale::Quick,
            33,
            1,
            &Executor::default(),
            &TelemetryOpts::disabled(),
            &dir,
        );
        assert!(errors.is_empty());
        assert_eq!(report.scenarios.len(), 4);
        let row = |scenario: &ScenarioOutcome, kind: MechanismKind| {
            scenario
                .rows
                .iter()
                .find(|r| r.algorithm == kind.name())
                .cloned()
                .expect("all cells present")
        };

        // The rate-0 rows are exactly the fault-free Fig. 4 runs.
        let baseline = &report.scenarios[0];
        assert_eq!(baseline.rows.len(), MechanismKind::ALL.len());
        let fig4 = super::super::fig4::run(Scale::Quick, 33);
        for kind in MechanismKind::ALL {
            let base = row(baseline, kind);
            let reference = fig4.get(kind);
            assert_eq!(
                base.completed_fraction, reference.completed_fraction,
                "{kind}"
            );
            assert_eq!(
                base.mean_completion_s, reference.mean_completion_s,
                "{kind}"
            );
            assert!(!base.stalled);
        }

        // Churn strictly removes peers, so completion cannot improve for
        // the altruistic baseline at any rate of the ladder.
        let alt0 = row(baseline, MechanismKind::Altruism).completed_fraction;
        for churned in &report.scenarios[1..] {
            let alt = row(churned, MechanismKind::Altruism).completed_fraction;
            assert!(alt <= alt0 + 1e-12, "{}: {alt} > {alt0}", churned.scenario);
        }
        assert!(report.render().contains("fig4-churn-0-020"));
        let _ = std::fs::remove_dir_all(dir.path());
    }
}
