//! **fig-epoch** — the settlement-cadence sweep: the epoch-settled
//! mechanism re-run over an epoch-length ladder, bracketed by the six
//! per-transfer baselines, all under the same free-ride attack.
//!
//! The axis interpolates between the two cadence limits the analysis
//! pins: `epoch_rounds → 0` settles every round (FairTorrent-shaped
//! fairness), `epoch_rounds → ∞` never settles within the run
//! (altruism-shaped susceptibility). Each epoch row carries the
//! closed-form open-epoch fraction `λ = e / (e + horizon)` from
//! [`EquilibriumParams::epoch_open_fraction`] next to the simulated
//! fairness and susceptibility, so the artifact is the sim-vs-theory
//! comparison in one table.
//!
//! Outputs follow the sweep convention: `figepoch_sweep_{scale}.csv` and
//! `figepoch_{scale}.json` hold only deterministic columns and are
//! byte-identical for any `--jobs`/`--shards` count.

use coop_attacks::AttackPlan;
use coop_incentives::analysis::equilibrium::EquilibriumParams;
use coop_incentives::{MechanismKind, MechanismParams};
use coop_swarm::SimResult;
use serde::Serialize;

use crate::exec::{BatchError, Executor, SimJob};
use crate::runners::fig4::run_grid;
use crate::scenario::{JobLabel, Workload};
use crate::table::num;
use crate::telemetry::{BatchTrace, TelemetryOpts};
use crate::{OutputDir, Scale, Table};

/// The default epoch-length ladder, log-spaced across the cadence range:
/// 1 round (every-round settlement, the FairTorrent-shaped limit) up to
/// 256 rounds (longer than a quick run, the altruism-shaped limit).
pub const EPOCH_ROUNDS: [u64; 5] = [1, 4, 16, 64, 256];

/// Free-riding attacker fraction every cell runs under — the sweep's
/// whole point is the susceptibility axis, so the attack is always on.
pub const ATTACK_FRACTION: f64 = 0.2;

/// One deterministic cell of the sweep.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct EpochRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Settlement epoch in rounds; `None` for the per-transfer baselines.
    pub epoch_rounds: Option<u64>,
    /// Closed-form open-epoch fraction `λ` for this epoch length (`None`
    /// for the baselines).
    pub predicted_open_fraction: Option<f64>,
    /// Fraction of compliant peers that completed the download.
    pub completed_fraction: f64,
    /// Mean completion time (seconds) over completed compliant peers.
    pub mean_completion_s: Option<f64>,
    /// Final fairness statistic `F` (0 = perfectly fair).
    pub fairness_f: f64,
    /// Cumulative susceptibility (free-rider share of peer upload bytes).
    pub susceptibility: f64,
    /// Whether the run ended in an unsatisfiable (stalled) swarm.
    pub stalled: bool,
}

/// The sweep report: baselines first (in [`MechanismKind::ALL`] order),
/// then one epoch row per ladder rung, ascending.
#[derive(Clone, Debug, Serialize)]
pub struct EpochReport {
    /// Artifact name ("fig-epoch").
    pub figure: String,
    /// Scale used.
    pub scale: String,
    /// Seed used.
    pub seed: u64,
    /// Free-riding attacker fraction every cell ran under.
    pub attack_fraction: f64,
    /// Rows: six baselines, then the epoch ladder.
    pub rows: Vec<EpochRow>,
}

impl EpochReport {
    /// The baseline row for `kind`.
    pub fn baseline(&self, kind: MechanismKind) -> &EpochRow {
        self.rows
            .iter()
            .find(|r| r.epoch_rounds.is_none() && r.algorithm == kind.name())
            .expect("all baselines present")
    }

    /// The epoch-settled row for one ladder rung.
    pub fn epoch(&self, rounds: u64) -> &EpochRow {
        self.rows
            .iter()
            .find(|r| r.epoch_rounds == Some(rounds))
            .expect("all ladder rungs present")
    }

    /// Renders the sweep table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Algorithm",
            "epoch",
            "λ (theory)",
            "completed",
            "mean ct (s)",
            "F",
            "susceptibility",
            "stalled",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.algorithm.clone(),
                r.epoch_rounds.map_or("-".into(), |e| e.to_string()),
                r.predicted_open_fraction.map_or("-".into(), num),
                num(r.completed_fraction),
                r.mean_completion_s.map_or("n/a".into(), num),
                num(r.fairness_f),
                num(r.susceptibility),
                r.stalled.to_string(),
            ]);
        }
        format!(
            "fig-epoch — settlement-cadence sweep ({} scale, seed {}, {:.0}% free-riders)\n{}",
            self.scale,
            self.seed,
            self.attack_fraction * 100.0,
            t.render()
        )
    }
}

/// Runs the default sweep with machine-sized parallelism and no telemetry.
pub fn run(scale: Scale, seed: u64) -> EpochReport {
    try_run(
        scale,
        seed,
        None,
        &Executor::default(),
        &TelemetryOpts::disabled(),
        &OutputDir::default_dir(),
    )
    .expect("fig-epoch batch")
    .0
}

/// The sweep's jobs, in report row order: the six baselines, then the
/// epoch-settled mechanism at every rung of `epochs`, labeled
/// `EpochSettlement@{epoch}`. Every cell runs under an
/// [`ATTACK_FRACTION`] free-ride attack.
pub fn jobs(scale: Scale, seed: u64, epochs: &[u64]) -> Vec<SimJob> {
    let plan = Some(AttackPlan::simple(ATTACK_FRACTION));
    let baselines = MechanismKind::ALL.iter().map(|&kind| SimJob {
        plan,
        ..SimJob::new(kind, scale, seed)
    });
    let kind = MechanismKind::EpochSettlement;
    let ladder = epochs.iter().map(|&epoch_rounds| SimJob {
        plan,
        workload: Some(Workload {
            params: Some(MechanismParams {
                epoch_rounds,
                ..MechanismParams::default()
            }),
            label: Some(JobLabel::new(&format!("{}@{epoch_rounds}", kind.name()))),
            ..Workload::default()
        }),
        ..SimJob::new(kind, scale, seed)
    });
    baselines.chain(ladder).collect()
}

/// Runs the cadence sweep over `epochs` (default [`EPOCH_ROUNDS`]); see
/// [`jobs`] for the cells. They run as one [`SimJob`] batch on
/// `executor`, and the artifacts are written from slot-ordered results,
/// so they are byte-identical for any worker count. A cell that fails
/// every attempt yields `Err` naming it, after every healthy cell has
/// still run. No artifacts are written on failure.
///
/// # Errors
///
/// Returns the batch's failures when any cell fails every attempt.
pub fn try_run(
    scale: Scale,
    seed: u64,
    epochs: Option<&[u64]>,
    executor: &Executor,
    opts: &TelemetryOpts,
    out: &OutputDir,
) -> Result<(EpochReport, Option<BatchTrace>), BatchError> {
    let jobs = jobs(scale, seed, epochs.unwrap_or(&EPOCH_ROUNDS));
    let attack = format!("freeride({ATTACK_FRACTION})");
    run_grid(
        "fig-epoch",
        &attack,
        &jobs,
        scale,
        seed,
        executor,
        opts,
        out,
        |results, _| write_artifacts(scale, seed, &jobs, results, out),
    )
}

/// Builds the report from the slot-ordered results and writes the sweep
/// CSV and JSON.
fn write_artifacts(
    scale: Scale,
    seed: u64,
    jobs: &[SimJob],
    results: &[SimResult],
    out: &OutputDir,
) -> EpochReport {
    let rows = jobs
        .iter()
        .zip(results)
        .map(|(job, result)| {
            let epoch_rounds = job.workload.and_then(|w| w.params).map(|p| p.epoch_rounds);
            EpochRow {
                algorithm: job.kind.name().to_string(),
                epoch_rounds,
                predicted_open_fraction: epoch_rounds.map(|e| {
                    EquilibriumParams {
                        epoch_rounds: e as f64,
                        ..EquilibriumParams::default()
                    }
                    .epoch_open_fraction()
                }),
                completed_fraction: result.completed_fraction(),
                mean_completion_s: result.mean_completion_time(),
                fairness_f: result.final_fairness_stat(),
                susceptibility: result.final_susceptibility(),
                stalled: result.stalled,
            }
        })
        .collect();
    let report = EpochReport {
        figure: "fig-epoch".to_string(),
        scale: scale.name().to_string(),
        seed,
        attack_fraction: ATTACK_FRACTION,
        rows,
    };

    let csv_rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.algorithm.clone(),
                r.epoch_rounds.map_or(String::new(), |e| e.to_string()),
                r.predicted_open_fraction
                    .map_or(String::new(), |v| format!("{v}")),
                format!("{}", r.completed_fraction),
                r.mean_completion_s.map_or(String::new(), |v| format!("{v}")),
                format!("{}", r.fairness_f),
                format!("{}", r.susceptibility),
                r.stalled.to_string(),
            ]
        })
        .collect();
    let _ = out.csv_rows(
        &format!("figepoch_sweep_{}", scale.name()),
        &[
            "algorithm",
            "epoch_rounds",
            "predicted_open_fraction",
            "completed_fraction",
            "mean_completion_s",
            "fairness_f",
            "susceptibility",
            "stalled",
        ],
        &csv_rows,
    );
    let _ = out.json(&format!("figepoch_{}", scale.name()), &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> OutputDir {
        OutputDir::new(std::env::temp_dir().join(format!(
            "coop-epoch-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        )))
    }

    #[test]
    fn sweep_covers_ladder_and_is_deterministic_across_worker_counts() {
        let out = tmp();
        let opts = TelemetryOpts::disabled();
        let run = |jobs: usize| {
            try_run(
                Scale::Quick,
                17,
                Some(&[1, 64]),
                &Executor::new(jobs),
                &opts,
                &out,
            )
            .expect("fig-epoch batch")
        };
        let (seq, trace) = run(1);
        assert!(trace.is_none());
        assert_eq!(seq.rows.len(), MechanismKind::ALL.len() + 2);
        for kind in MechanismKind::ALL {
            assert_eq!(seq.baseline(kind).epoch_rounds, None);
        }
        let short = seq.epoch(1);
        let long = seq.epoch(64);
        assert!(short.predicted_open_fraction.unwrap() < long.predicted_open_fraction.unwrap());
        // The epoch rows complete under attack (the open-epoch channel
        // keeps pieces moving even before the first settlement).
        assert!(short.completed_fraction > 0.5);
        assert!(long.completed_fraction > 0.5);

        // Deterministic artifacts: identical report for any worker count.
        let (par, _) = run(4);
        assert_eq!(seq.rows, par.rows);
        assert!(seq.render().contains("fig-epoch"));
        assert!(out
            .path()
            .join("figepoch_sweep_quick.csv")
            .is_file());
        let _ = std::fs::remove_dir_all(out.path());
    }
}
