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
use coop_incentives::analysis::capacity::CapacityClassMix;
use coop_incentives::analysis::equilibrium::EquilibriumParams;
use coop_incentives::MechanismKind;
use coop_swarm::flash_crowd_with;
use coop_telemetry::{profile::phase, Profiler, Recorder, Stopwatch};
use serde::Serialize;

use crate::exec::{backoff_ms, BatchError, Executor, FailureKind, JobFailure};
use crate::runners::fig4::emit_run_outputs;
use crate::table::num;
use crate::telemetry::{BatchTrace, JobTrace, TelemetryOpts};
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

/// One cell of the sweep: a baseline mechanism, or the epoch-settled
/// mechanism at one ladder rung.
#[derive(Clone, Copy, Debug)]
enum Cell {
    Baseline(MechanismKind),
    Epoch(u64),
}

impl Cell {
    fn kind(self) -> MechanismKind {
        match self {
            Cell::Baseline(kind) => kind,
            Cell::Epoch(_) => MechanismKind::EpochSettlement,
        }
    }

    fn label(self) -> String {
        match self {
            Cell::Baseline(kind) => kind.name().to_string(),
            Cell::Epoch(e) => format!("{}@{e}", MechanismKind::EpochSettlement.name()),
        }
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

/// Runs the cadence sweep: the six baselines plus the epoch-settled
/// mechanism at every rung of `epochs` (default [`EPOCH_ROUNDS`]), all
/// under a [`ATTACK_FRACTION`] free-ride attack. Cells fan out across
/// `executor`; artifacts are written sequentially from slot-ordered
/// results, so they are byte-identical for any worker count. A cell that
/// fails every attempt yields `Err` naming it, after every healthy cell
/// has still run. No artifacts are written on failure.
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
    let epochs: Vec<u64> = epochs.unwrap_or(&EPOCH_ROUNDS).to_vec();
    let mut cells: Vec<Cell> = MechanismKind::ALL.iter().map(|&k| Cell::Baseline(k)).collect();
    cells.extend(epochs.iter().map(|&e| Cell::Epoch(e)));
    let plan = AttackPlan::simple(ATTACK_FRACTION);
    let recorder_config = opts.is_enabled().then(|| opts.recorder_config());
    let shards = executor.shards();
    let sim_clock = Stopwatch::start();
    let runs = executor.try_map(&cells, |slot, &cell| {
        let cell_clock = Stopwatch::start();
        let recorder = match &recorder_config {
            Some(config) => Recorder::enabled(config.clone()),
            None => Recorder::disabled(),
        };
        let mut profiler = if opts.profile_due(slot) {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        };
        let build_t = profiler.start();
        let mut config = scale.config(seed);
        if let Cell::Epoch(e) = cell {
            config.mechanism_params.epoch_rounds = e;
        }
        let mix = CapacityClassMix::paper_default();
        let population = flash_crowd_with(
            &config,
            scale.peers(),
            cell.kind(),
            seed,
            &mix,
            scale.arrival_window(),
        );
        let sim = coop_swarm::Simulation::builder(config)
            .population(population)
            .recorder(recorder)
            .attack_plan(plan)
            .shards(shards)
            .build()
            .expect("scale configs validate");
        profiler.stop(phase::EXEC_BUILD, build_t);
        let (result, report, profile) = sim.with_profiler(profiler).run_profiled();
        let trace = JobTrace {
            slot,
            label: cell.label(),
            seed,
            wall_ms: cell_clock.elapsed_ms(),
            slow: false,
            // `try_map` retries opaquely; per-attempt counts are only
            // tracked for `SimJob` batches.
            retries: 0,
            peers: scale.peers() as u64,
            report,
            profile: opts.profile_due(slot).then_some(profile),
        };
        (result, trace)
    });
    let sim_ms = sim_clock.elapsed_ms();
    let write_clock = Stopwatch::start();

    let failures: Vec<JobFailure> = cells
        .iter()
        .zip(&runs)
        .enumerate()
        .filter_map(|(slot, (&cell, run))| {
            run.as_ref().err().map(|message| JobFailure {
                slot,
                mechanism: cell.label(),
                peers: scale.peers(),
                seed,
                attempts: executor.retries() + 1,
                kind: FailureKind::Panic,
                message: message.clone(),
                backoff_ms: (0..executor.retries())
                    .map(|a| backoff_ms(slot as u64, a))
                    .collect(),
            })
        })
        .collect();
    if !failures.is_empty() {
        return Err(BatchError {
            figure: "fig-epoch".to_string(),
            total: cells.len(),
            failures,
        });
    }

    let mut rows = Vec::with_capacity(cells.len());
    let mut traces = Vec::with_capacity(cells.len());
    for (&cell, run) in cells.iter().zip(runs) {
        let (result, trace) = run.expect("failures were returned above");
        let (epoch_rounds, lambda) = match cell {
            Cell::Baseline(_) => (None, None),
            Cell::Epoch(e) => {
                let params = EquilibriumParams {
                    epoch_rounds: e as f64,
                    ..EquilibriumParams::default()
                };
                (Some(e), Some(params.epoch_open_fraction()))
            }
        };
        rows.push(EpochRow {
            algorithm: cell.kind().name().to_string(),
            epoch_rounds,
            predicted_open_fraction: lambda,
            completed_fraction: result.completed_fraction(),
            mean_completion_s: result.mean_completion_time(),
            fairness_f: result.final_fairness_stat(),
            susceptibility: result.final_susceptibility(),
            stalled: result.stalled,
        });
        traces.push(trace);
    }
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

    let trace = recorder_config.is_some().then(|| {
        let mut trace = BatchTrace::new(traces);
        trace.push_phase("simulate", sim_ms);
        trace.push_phase("write_artifacts", write_clock.elapsed_ms());
        emit_run_outputs(
            "fig-epoch",
            &trace,
            opts,
            out,
            scale,
            seed,
            1,
            executor.jobs() as u64,
            &format!("freeride({ATTACK_FRACTION})"),
        );
        trace
    });
    Ok((report, trace))
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
