//! **fig4-churn** — the Fig. 4 comparison under deterministic churn: the
//! six mechanisms are re-run at several churn rates (a sweep over
//! multiples of a base per-round departure hazard), with optional link
//! loss and seeder exit riding along from the CLI's fault flags.
//!
//! Every cell of the churn-rate × mechanism grid is one independent
//! [`SimJob`] carrying a [`FaultPlan`]; the plan compiles to a pre-drawn
//! fault schedule inside the builder, so the whole sweep is
//! byte-deterministic for any `--jobs` count (pinned by the
//! `churn_determinism` integration test).

use coop_faults::FaultPlan;
use coop_incentives::MechanismKind;
use coop_swarm::SimResult;
use serde::Serialize;

use crate::exec::{BatchError, Executor, SimJob};
use crate::runners::fig4::run_grid;
use crate::table::num;
use crate::telemetry::{BatchTrace, TelemetryOpts};
use crate::{OutputDir, Scale, Table};

/// The default base churn hazard when no `--churn` flag is given: each
/// peer's lifetime is exponential with mean 100 rounds.
pub const DEFAULT_CHURN_RATE: f64 = 0.01;

/// Multiples of the base churn rate the sweep runs, from the fault-free
/// baseline up to twice the base hazard.
pub const MULTIPLIERS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

/// One (churn rate, mechanism) cell of the sweep.
#[derive(Clone, Debug, Serialize)]
pub struct ChurnRow {
    /// Per-round departure hazard applied to this run.
    pub churn_rate: f64,
    /// Algorithm name.
    pub algorithm: String,
    /// Fraction of compliant peers that completed the download.
    pub completed_fraction: f64,
    /// Mean completion time (seconds) over completed compliant peers.
    pub mean_completion_s: Option<f64>,
    /// Final average fairness `(Σ u_i/d_i)/N`.
    pub avg_fairness: Option<f64>,
    /// Final fairness statistic `F` (0 = perfectly fair).
    pub fairness_f: f64,
    /// Bytes of completed transfers lost to fault-injected link loss.
    pub fault_dropped_bytes: u64,
    /// Whether the run ended in an unsatisfiable (stalled) swarm.
    pub stalled: bool,
}

/// The full churn-sweep report.
#[derive(Clone, Debug, Serialize)]
pub struct ChurnReport {
    /// Artifact name ("fig4-churn").
    pub figure: String,
    /// Scale used.
    pub scale: String,
    /// Seed used.
    pub seed: u64,
    /// The base fault plan the sweep scaled (multiplier 1.0).
    pub base_churn_rate: f64,
    /// Link-loss probability applied at every multiplier.
    pub loss_prob: f64,
    /// Rows in (churn rate, [`MechanismKind::ALL`]) order.
    pub rows: Vec<ChurnRow>,
}

impl ChurnReport {
    /// The rows for one churn rate, in mechanism order.
    pub fn at_rate(&self, churn_rate: f64) -> Vec<&ChurnRow> {
        self.rows
            .iter()
            .filter(|r| r.churn_rate == churn_rate)
            .collect()
    }

    /// The row for one (churn rate, mechanism) cell.
    pub fn get(&self, churn_rate: f64, kind: MechanismKind) -> &ChurnRow {
        self.rows
            .iter()
            .find(|r| r.churn_rate == churn_rate && r.algorithm == kind.name())
            .expect("all cells present")
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "churn",
            "Algorithm",
            "completed",
            "mean ct (s)",
            "avg fairness",
            "F",
            "dropped (B)",
            "stalled",
        ]);
        for r in &self.rows {
            t.row(vec![
                format!("{:.4}", r.churn_rate),
                r.algorithm.clone(),
                num(r.completed_fraction),
                r.mean_completion_s.map_or("n/a".into(), num),
                r.avg_fairness.map_or("n/a".into(), num),
                num(r.fairness_f),
                r.fault_dropped_bytes.to_string(),
                r.stalled.to_string(),
            ]);
        }
        format!(
            "fig4-churn — churn sweep (base rate {}, loss {}, {} scale, seed {})\n{}",
            self.base_churn_rate,
            self.loss_prob,
            self.scale,
            self.seed,
            t.render()
        )
    }
}

/// Runs the default churn sweep with machine-sized parallelism and no
/// telemetry.
pub fn run(scale: Scale, seed: u64) -> ChurnReport {
    try_run(
        scale,
        seed,
        None,
        &MULTIPLIERS,
        &Executor::default(),
        &TelemetryOpts::disabled(),
        &OutputDir::default_dir(),
    )
    .expect("fig4-churn batch")
    .0
}

/// Runs the churn sweep: for each multiplier in `multipliers` (the CLI
/// passes [`MULTIPLIERS`]; tests use a shorter sweep), all six mechanisms
/// run under `base` with its churn rate scaled by the multiplier (loss
/// and seeder-exit settings apply at every multiplier, including the
/// churn-free baseline).
///
/// `base` is the CLI's fault flags ([`crate::RunSpec::fault_plan`]); with
/// no flags the sweep uses [`DEFAULT_CHURN_RATE`] and no loss. Artifacts:
/// one CSV with every cell of the grid and one JSON report, both written
/// sequentially from slot-ordered results (byte-identical for any worker
/// count). With telemetry on, the batch manifest carries the
/// `swarm.fault.*` counters summed over the whole sweep. A cell that
/// fails every attempt yields `Err` naming it, after every healthy cell
/// has still run (and been journaled). No sweep artifacts are written on
/// failure.
///
/// # Errors
///
/// Returns the batch's failures when any job fails every attempt.
pub fn try_run(
    scale: Scale,
    seed: u64,
    base: Option<FaultPlan>,
    multipliers: &[f64],
    executor: &Executor,
    opts: &TelemetryOpts,
    out: &OutputDir,
) -> Result<(ChurnReport, Option<BatchTrace>), BatchError> {
    let mut base = base.unwrap_or_else(|| FaultPlan::churn(DEFAULT_CHURN_RATE));
    if base.churn_rate <= 0.0 {
        base.churn_rate = DEFAULT_CHURN_RATE;
    }
    let jobs: Vec<SimJob> = multipliers
        .iter()
        .flat_map(|&m| {
            MechanismKind::ALL.iter().map(move |&kind| {
                let mut plan = base;
                plan.churn_rate = base.churn_rate * m;
                SimJob {
                    kind,
                    scale,
                    seed,
                    plan: None,
                    // An all-zero plan is omitted entirely so the baseline
                    // row takes the fault-free hot path byte-for-byte.
                    faults: (!plan.is_inert()).then_some(plan),
                    workload: None,
                }
            })
        })
        .collect();
    run_grid("fig4-churn", "none", &jobs, scale, seed, executor, opts, out, |results, _| {
        write_artifacts(scale, seed, base, multipliers, results, out)
    })
}

/// Builds the report from the slot-ordered results and writes the sweep
/// CSV and JSON.
fn write_artifacts(
    scale: Scale,
    seed: u64,
    base: FaultPlan,
    multipliers: &[f64],
    results: &[SimResult],
    out: &OutputDir,
) -> ChurnReport {
    let per_rate = MechanismKind::ALL.len();
    let rows: Vec<ChurnRow> = multipliers
        .iter()
        .enumerate()
        .flat_map(|(i, &m)| {
            MechanismKind::ALL
                .iter()
                .zip(&results[i * per_rate..(i + 1) * per_rate])
                .map(move |(&kind, result)| ChurnRow {
                    churn_rate: base.churn_rate * m,
                    algorithm: kind.name().to_string(),
                    completed_fraction: result.completed_fraction(),
                    mean_completion_s: result.mean_completion_time(),
                    avg_fairness: result.final_avg_fairness(),
                    fairness_f: result.final_fairness_stat(),
                    fault_dropped_bytes: result.totals.fault_dropped_bytes,
                    stalled: result.stalled,
                })
        })
        .collect();
    let report = ChurnReport {
        figure: "fig4-churn".to_string(),
        scale: scale.name().to_string(),
        seed,
        base_churn_rate: base.churn_rate,
        loss_prob: base.loss_prob,
        rows,
    };
    let csv_rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.churn_rate),
                r.algorithm.clone(),
                format!("{}", r.completed_fraction),
                r.mean_completion_s.map_or(String::new(), |v| format!("{v}")),
                r.avg_fairness.map_or(String::new(), |v| format!("{v}")),
                format!("{}", r.fairness_f),
                r.fault_dropped_bytes.to_string(),
                r.stalled.to_string(),
            ]
        })
        .collect();
    let _ = out.csv_rows(
        &format!("fig4churn_sweep_{}", scale.name()),
        &[
            "churn_rate",
            "algorithm",
            "completed_fraction",
            "mean_completion_s",
            "avg_fairness",
            "fairness_f",
            "fault_dropped_bytes",
            "stalled",
        ],
        &csv_rows,
    );
    let _ = out.json(&format!("fig4churn_{}", scale.name()), &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_sweep_baseline_matches_fig4_and_churn_degrades_completion() {
        let executor = Executor::default();
        let (report, trace) = try_run(
            Scale::Quick,
            33,
            Some(FaultPlan::churn(0.02)),
            &[0.0, 1.0],
            &executor,
            &TelemetryOpts::disabled(),
            &OutputDir::default_dir(),
        )
        .expect("fig4-churn batch");
        assert!(trace.is_none());
        assert_eq!(report.rows.len(), 2 * MechanismKind::ALL.len());

        // The multiplier-0 rows are exactly the fault-free Fig. 4 runs.
        let fig4 = super::super::fig4::run(Scale::Quick, 33);
        for kind in MechanismKind::ALL {
            let base = report.get(0.0, kind);
            let reference = fig4.get(kind);
            assert_eq!(base.completed_fraction, reference.completed_fraction, "{kind}");
            assert_eq!(base.mean_completion_s, reference.mean_completion_s, "{kind}");
            assert!(!base.stalled);
        }

        // Churn strictly removes peers, so completion cannot improve for
        // the altruistic baseline (and the report carries both rates).
        let alt0 = report.get(0.0, MechanismKind::Altruism);
        let alt1 = report.get(0.02, MechanismKind::Altruism);
        assert!(alt1.completed_fraction <= alt0.completed_fraction + 1e-12);
        assert!(report.render().contains("churn"));
    }
}
