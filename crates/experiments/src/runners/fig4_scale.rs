//! **fig4-scale** — the hot-path scaling sweep: every mechanism re-run
//! over a population ladder (1k → 100k by default), reporting both the
//! deterministic simulation outcomes and the harness's own throughput
//! (rounds/sec, peak RSS) at each size.
//!
//! Unlike the paper figures this artifact benchmarks the *simulator*, not
//! the mechanisms: the per-cell swarm config is fixed per `--scale` (small
//! file, capped rounds) so per-peer work is constant and the population is
//! the only axis. The outputs are split by the repo's telemetry rule —
//! wall-clock readings never enter figure artifacts:
//!
//! * `fig4scale_sweep_{scale}.csv` / `fig4scale_{scale}.json` hold only
//!   deterministic columns (byte-identical for any `--jobs` count);
//! * `fig4scale_perf_{scale}.csv` / `fig4scale_perf_{scale}.json` hold the
//!   rounds/sec and RSS columns and vary run to run.
//!
//! Memory caveat: `peak_rss_kb` is the process-wide `VmHWM` high-water
//! mark, which only ever grows — across a sweep it is nondecreasing in
//! completion order and says nothing about an individual cell. The
//! `rss_delta_kb` column reports how much each cell raised that mark
//! instead; see [`PerfRow::rss_delta_kb`] for its own caveat under
//! parallel execution.

use coop_incentives::MechanismKind;
use coop_piece::FileSpec;
use coop_swarm::{SimResult, SwarmConfig};
use serde::Serialize;

use crate::exec::{BatchError, Executor, SimJob, SlotPerf};
use crate::runners::fig4::run_grid;
use crate::scenario::{JobLabel, SwarmProfile, Workload};
use crate::table::num;
use crate::telemetry::{BatchTrace, TelemetryOpts};
use crate::{OutputDir, Scale, Table};

/// The default population ladder. The 50k/100k rungs are what the
/// dirty-set round loop and `--shards` exist for; budget accordingly —
/// one 100k cell runs minutes, not seconds.
pub const POPULATIONS: [usize; 6] = [1000, 2000, 5000, 10000, 50_000, 100_000];

/// The swarm configuration for one sweep cell: per-peer work is pinned by
/// `scale` (file size and round cap) so population is the only axis.
/// `quick` is sized for the CI smoke job.
pub fn cell_config(scale: Scale, seed: u64) -> SwarmConfig {
    let mut c = SwarmConfig::scaled_default();
    let (bytes, rounds) = match scale {
        Scale::Quick => (2 * 1024 * 1024, 300),
        Scale::Default => (8 * 1024 * 1024, 600),
        Scale::Paper => (32 * 1024 * 1024, 1200),
    };
    c.file = FileSpec::new(bytes, 64 * 1024);
    c.neighbor_degree = 20;
    c.seeder_bps = 512_000.0;
    c.max_rounds = rounds;
    c.sample_every = 8;
    c.seed = seed;
    c
}

/// One deterministic (population, mechanism) cell of the sweep.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ScaleRow {
    /// Swarm population for this cell.
    pub peers: usize,
    /// Algorithm name.
    pub algorithm: String,
    /// Rounds the simulation actually executed.
    pub rounds_run: u64,
    /// Fraction of compliant peers that completed the download.
    pub completed_fraction: f64,
    /// Mean completion time (seconds) over completed compliant peers.
    pub mean_completion_s: Option<f64>,
    /// Final fairness statistic `F` (0 = perfectly fair).
    pub fairness_f: f64,
    /// Whether the run ended in an unsatisfiable (stalled) swarm.
    pub stalled: bool,
}

/// One wall-clock (population, mechanism) cell of the sweep.
#[derive(Clone, Debug, Serialize)]
pub struct PerfRow {
    /// Swarm population for this cell.
    pub peers: usize,
    /// Algorithm name.
    pub algorithm: String,
    /// Rounds the simulation actually executed.
    pub rounds_run: u64,
    /// Wall-clock milliseconds the cell took.
    pub wall_ms: u64,
    /// Simulation throughput: rounds executed per wall-clock second.
    pub rounds_per_sec: f64,
    /// Process peak RSS (`VmHWM`, kB) sampled after the cell finished.
    /// This is the process-wide high-water mark, so it is nondecreasing
    /// in completion order and does **not** measure the cell itself; 0
    /// when `/proc` is unavailable.
    pub peak_rss_kb: u64,
    /// How much this cell raised the process high-water mark (kB): the
    /// `VmHWM` delta across the cell. Only the cells that push the peak
    /// show a non-zero delta, and concurrent cells (`--jobs > 1`) can
    /// attribute a shared push to whichever cell sampled last — read it
    /// as "which cells grew the footprint", not as per-cell usage.
    pub rss_delta_kb: u64,
}

/// The deterministic half of the sweep report.
#[derive(Clone, Debug, Serialize)]
pub struct ScaleReport {
    /// Artifact name ("fig4-scale").
    pub figure: String,
    /// Scale used for the per-cell config.
    pub scale: String,
    /// Seed used.
    pub seed: u64,
    /// Rows in (population, [`MechanismKind::ALL`]) order.
    pub rows: Vec<ScaleRow>,
}

/// The wall-clock half of the sweep report (never byte-stable).
#[derive(Clone, Debug, Serialize)]
pub struct ScalePerfReport {
    /// Artifact name ("fig4-scale").
    pub figure: String,
    /// Scale used for the per-cell config.
    pub scale: String,
    /// Seed used.
    pub seed: u64,
    /// Worker threads the sweep fanned out across.
    pub jobs: u64,
    /// Intra-sim shard count each cell ran with (`--shards`).
    pub shards: u64,
    /// Rows in (population, [`MechanismKind::ALL`]) order.
    pub rows: Vec<PerfRow>,
}

impl ScaleReport {
    /// The row for one (population, mechanism) cell.
    pub fn get(&self, peers: usize, kind: MechanismKind) -> &ScaleRow {
        self.rows
            .iter()
            .find(|r| r.peers == peers && r.algorithm == kind.name())
            .expect("all cells present")
    }

    /// Renders the deterministic table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "peers",
            "Algorithm",
            "rounds",
            "completed",
            "mean ct (s)",
            "F",
            "stalled",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.peers.to_string(),
                r.algorithm.clone(),
                r.rounds_run.to_string(),
                num(r.completed_fraction),
                r.mean_completion_s.map_or("n/a".into(), num),
                num(r.fairness_f),
                r.stalled.to_string(),
            ]);
        }
        format!(
            "fig4-scale — population sweep ({} scale, seed {})\n{}",
            self.scale,
            self.seed,
            t.render()
        )
    }
}

impl ScalePerfReport {
    /// Renders the throughput table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "peers",
            "Algorithm",
            "rounds",
            "wall (ms)",
            "rounds/sec",
            "peak RSS (kB)",
            "ΔRSS (kB)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.peers.to_string(),
                r.algorithm.clone(),
                r.rounds_run.to_string(),
                r.wall_ms.to_string(),
                format!("{:.1}", r.rounds_per_sec),
                r.peak_rss_kb.to_string(),
                r.rss_delta_kb.to_string(),
            ]);
        }
        format!(
            "fig4-scale — throughput ({} jobs × {} shards; wall-clock data, not byte-stable)\n{}",
            self.jobs,
            self.shards,
            t.render()
        )
    }
}

/// Runs the default sweep with machine-sized parallelism and no telemetry.
pub fn run(scale: Scale, seed: u64) -> (ScaleReport, ScalePerfReport) {
    let (report, perf, _) = try_run(
        scale,
        seed,
        None,
        &Executor::default(),
        &TelemetryOpts::disabled(),
        &OutputDir::default_dir(),
    )
    .expect("fig4-scale batch");
    (report, perf)
}

/// The sweep's jobs, in report row order: for each population in
/// `peers`, all six mechanisms on the fixed per-cell config
/// ([`SwarmProfile::ScalingCell`]), labeled `{mechanism}@{peers}`.
pub fn jobs(scale: Scale, seed: u64, peers: &[usize]) -> Vec<SimJob> {
    peers
        .iter()
        .flat_map(|&n| {
            MechanismKind::ALL.iter().map(move |&kind| SimJob {
                workload: Some(Workload {
                    peers: Some(n),
                    profile: SwarmProfile::ScalingCell,
                    label: Some(JobLabel::new(&format!("{}@{n}", kind.name()))),
                    ..Workload::default()
                }),
                ..SimJob::new(kind, scale, seed)
            })
        })
        .collect()
}

/// Runs the scaling sweep over `peers` (default [`POPULATIONS`]); see
/// [`jobs`] for the cells. They run as one [`SimJob`] batch on
/// `executor`; the deterministic artifacts are written from slot-ordered
/// results (byte-identical for any worker count), and the perf artifacts
/// carry the executor's per-cell wall-clock and `VmHWM` readings. A cell
/// that fails every attempt yields `Err` naming the `{mechanism}@{N}`
/// cell, after every healthy cell has still run. No artifacts are
/// written on failure.
///
/// # Errors
///
/// Returns the batch's failures when any cell fails every attempt.
pub fn try_run(
    scale: Scale,
    seed: u64,
    peers: Option<&[usize]>,
    executor: &Executor,
    opts: &TelemetryOpts,
    out: &OutputDir,
) -> Result<(ScaleReport, ScalePerfReport, Option<BatchTrace>), BatchError> {
    let jobs = jobs(scale, seed, peers.unwrap_or(&POPULATIONS));
    run_grid(
        "fig4-scale",
        "none",
        &jobs,
        scale,
        seed,
        executor,
        opts,
        out,
        |results, perf| write_artifacts(scale, seed, executor, &jobs, results, perf, out),
    )
    .map(|((report, perf), trace)| (report, perf, trace))
}

/// Builds both reports from the slot-ordered results and perf readings
/// and writes the sweep and perf CSV/JSON.
fn write_artifacts(
    scale: Scale,
    seed: u64,
    executor: &Executor,
    jobs: &[SimJob],
    results: &[SimResult],
    readings: &[SlotPerf],
    out: &OutputDir,
) -> (ScaleReport, ScalePerfReport) {
    let mut rows = Vec::with_capacity(jobs.len());
    let mut perf_rows = Vec::with_capacity(jobs.len());
    for ((job, result), reading) in jobs.iter().zip(results).zip(readings) {
        let (peers, algorithm) = (job.peers(), job.kind.name().to_string());
        rows.push(ScaleRow {
            peers,
            algorithm: algorithm.clone(),
            rounds_run: result.rounds_run,
            completed_fraction: result.completed_fraction(),
            mean_completion_s: result.mean_completion_time(),
            fairness_f: result.final_fairness_stat(),
            stalled: result.stalled,
        });
        perf_rows.push(PerfRow {
            peers,
            algorithm,
            rounds_run: result.rounds_run,
            wall_ms: reading.wall_ms,
            rounds_per_sec: result.rounds_run as f64 * 1000.0 / reading.wall_ms.max(1) as f64,
            peak_rss_kb: reading.rss_after_kb,
            rss_delta_kb: reading.rss_after_kb.saturating_sub(reading.rss_before_kb),
        });
    }
    let report = ScaleReport {
        figure: "fig4-scale".to_string(),
        scale: scale.name().to_string(),
        seed,
        rows,
    };
    let perf = ScalePerfReport {
        figure: "fig4-scale".to_string(),
        scale: scale.name().to_string(),
        seed,
        jobs: executor.jobs() as u64,
        shards: executor.shards() as u64,
        rows: perf_rows,
    };

    let sweep_rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.peers.to_string(),
                r.algorithm.clone(),
                r.rounds_run.to_string(),
                format!("{}", r.completed_fraction),
                r.mean_completion_s.map_or(String::new(), |v| format!("{v}")),
                format!("{}", r.fairness_f),
                r.stalled.to_string(),
            ]
        })
        .collect();
    let _ = out.csv_rows(
        &format!("fig4scale_sweep_{}", scale.name()),
        &[
            "peers",
            "algorithm",
            "rounds_run",
            "completed_fraction",
            "mean_completion_s",
            "fairness_f",
            "stalled",
        ],
        &sweep_rows,
    );
    let _ = out.json(&format!("fig4scale_{}", scale.name()), &report);

    let perf_csv: Vec<Vec<String>> = perf
        .rows
        .iter()
        .map(|r| {
            vec![
                r.peers.to_string(),
                r.algorithm.clone(),
                r.rounds_run.to_string(),
                r.wall_ms.to_string(),
                format!("{}", r.rounds_per_sec),
                r.peak_rss_kb.to_string(),
                r.rss_delta_kb.to_string(),
            ]
        })
        .collect();
    let _ = out.csv_rows(
        &format!("fig4scale_perf_{}", scale.name()),
        &[
            "peers",
            "algorithm",
            "rounds_run",
            "wall_ms",
            "rounds_per_sec",
            "peak_rss_kb",
            "rss_delta_kb",
        ],
        &perf_csv,
    );
    let _ = out.json(&format!("fig4scale_perf_{}", scale.name()), &perf);

    (report, perf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> OutputDir {
        OutputDir::new(std::env::temp_dir().join(format!(
            "coop-scale-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        )))
    }

    #[test]
    fn sweep_covers_grid_and_is_deterministic_across_worker_counts() {
        let out = tmp();
        let opts = TelemetryOpts::disabled();
        let run = |jobs: usize| {
            try_run(
                Scale::Quick,
                11,
                Some(&[10, 14]),
                &Executor::new(jobs),
                &opts,
                &out,
            )
            .expect("fig4-scale batch")
        };
        let (seq, perf, trace) = run(1);
        assert!(trace.is_none());
        assert_eq!(seq.rows.len(), 2 * MechanismKind::ALL.len());
        assert_eq!(perf.rows.len(), seq.rows.len());
        for (row, perf_row) in seq.rows.iter().zip(&perf.rows) {
            assert_eq!(row.peers, perf_row.peers);
            assert_eq!(row.rounds_run, perf_row.rounds_run);
            assert!(perf_row.rounds_per_sec > 0.0);
        }
        let alt = seq.get(14, MechanismKind::Altruism);
        assert_eq!(alt.peers, 14);

        // The deterministic half is identical for any worker count.
        let (par, _, _) = run(4);
        assert_eq!(seq.rows, par.rows);
        assert!(seq.render().contains("fig4-scale"));
        assert!(ScalePerfReport::render(&perf).contains("rounds/sec"));
    }

    #[test]
    fn rss_delta_column_is_not_the_high_water_mark() {
        // `peak_rss_kb` is the process-wide VmHWM, nondecreasing in
        // completion order by construction. The `rss_delta_kb` column
        // must not inherit that shape: a cell that fails to push the
        // mark reports 0, however high the mark already sits. Running a
        // larger population first makes the later small cells provably
        // non-pushing, so the delta column cannot be a copy of the
        // cumulative peak column.
        let out = tmp();
        let (_, perf, _) = try_run(
            Scale::Quick,
            13,
            Some(&[120, 10]),
            &Executor::sequential(),
            &TelemetryOpts::disabled(),
            &out,
        )
        .expect("fig4-scale batch");
        if !cfg!(target_os = "linux") {
            return; // no /proc — both columns degrade to 0
        }
        assert!(
            perf.rows.windows(2).all(|w| w[0].peak_rss_kb <= w[1].peak_rss_kb),
            "VmHWM stays nondecreasing in completion order"
        );
        assert!(
            perf.rows
                .iter()
                .any(|r| r.rss_delta_kb == 0 && r.peak_rss_kb > 0),
            "some cell left the high-water mark untouched yet the mark is positive: \
             the delta column decouples from the cumulative peak"
        );
        let deltas: Vec<u64> = perf.rows.iter().map(|r| r.rss_delta_kb).collect();
        let peaks: Vec<u64> = perf.rows.iter().map(|r| r.peak_rss_kb).collect();
        assert_ne!(deltas, peaks, "delta column must not mirror the peak column");
    }
}
