//! **Fig. 4** — simulated performance with all users compliant:
//! (a) download completion times, (b) average fairness over time,
//! (c) fraction of users bootstrapped over time.

use coop_attacks::AttackPlan;
use coop_incentives::MechanismKind;
use coop_swarm::SimResult;
use coop_telemetry::Stopwatch;
use serde::Serialize;

use crate::exec::{BatchError, Executor, SimJob, SlotPerf};
use crate::table::num;
use crate::telemetry::{BatchTrace, TelemetryOpts};
use crate::{OutputDir, Scale, Table};

/// Summary of one algorithm's simulated run.
#[derive(Clone, Debug, Serialize)]
pub struct SimRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Fraction of compliant peers that completed the download.
    pub completed_fraction: f64,
    /// Mean completion time (seconds) over completed compliant peers.
    pub mean_completion_s: Option<f64>,
    /// Median completion time in seconds.
    pub median_completion_s: Option<f64>,
    /// Mean bootstrap time in seconds.
    pub mean_bootstrap_s: Option<f64>,
    /// Final average fairness `(Σ u_i/d_i)/N` (1 = perfectly fair).
    pub avg_fairness: Option<f64>,
    /// Final fairness statistic `F` (0 = perfectly fair).
    pub fairness_f: f64,
    /// Cumulative susceptibility (free-rider share of peer upload bytes).
    pub susceptibility: f64,
    /// Peak susceptibility over the run.
    pub peak_susceptibility: f64,
}

/// A full simulated-figure report (shared by Figs. 4, 5 and 6).
#[derive(Clone, Debug, Serialize)]
pub struct SimFigureReport {
    /// Which figure this is ("fig4" / "fig5" / "fig6").
    pub figure: String,
    /// Scale used.
    pub scale: String,
    /// Seed used.
    pub seed: u64,
    /// Rows in the paper's algorithm order.
    pub rows: Vec<SimRow>,
}

impl SimFigureReport {
    /// The row for `kind`.
    pub fn get(&self, kind: MechanismKind) -> &SimRow {
        self.rows
            .iter()
            .find(|r| r.algorithm == kind.name())
            .expect("all kinds present")
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Algorithm",
            "completed",
            "mean ct (s)",
            "median ct (s)",
            "mean bootstrap (s)",
            "avg fairness",
            "F",
            "susceptibility",
            "peak susc.",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.algorithm.clone(),
                num(r.completed_fraction),
                r.mean_completion_s.map_or("n/a".into(), num),
                r.median_completion_s.map_or("n/a".into(), num),
                r.mean_bootstrap_s.map_or("n/a".into(), num),
                r.avg_fairness.map_or("n/a".into(), num),
                num(r.fairness_f),
                num(r.susceptibility),
                num(r.peak_susceptibility),
            ]);
        }
        format!(
            "{} — simulated comparison ({} scale, seed {})\n{}",
            self.figure,
            self.scale,
            self.seed,
            t.render()
        )
    }
}

/// What sets Figs. 4, 5 and 6 apart: the figure's name, the attack each
/// mechanism faces, and the attack label the telemetry manifest carries.
/// The flash crowd, the mechanisms and the artifact set are shared, so
/// each of the three runners is one [`SimFigure`] driven through
/// [`SimFigure::single`] or [`SimFigure::replicated`].
pub(crate) struct SimFigure {
    /// Figure name and artifact prefix ("fig4" / "fig5" / "fig6").
    pub(crate) name: &'static str,
    /// The attack label recorded in the run's manifest.
    pub(crate) attack: &'static str,
    /// The attack plan each mechanism runs under (`None` = compliant).
    pub(crate) plan_for: fn(MechanismKind) -> Option<AttackPlan>,
}

/// Fig. 4: every peer compliant.
const FIGURE: SimFigure = SimFigure {
    name: "fig4",
    attack: "none",
    plan_for: |_| None,
};

impl SimFigure {
    /// Runs the figure for one seed over `kinds` — the runners pass
    /// [`MechanismKind::EXTENDED`], the paper's six plus the epoch-settled
    /// and consensus variants — and collects the figure series
    /// (completion CDF, fairness-vs-time, bootstrap-vs-time,
    /// susceptibility-vs-time) as CSV artifacts named
    /// `{figure}{panel}_{algorithm}_{scale}.csv`.
    ///
    /// Execution is two-phase: the independent simulations fan out across
    /// `executor`'s workers, then every artifact is written sequentially
    /// from the slot-ordered results — so the report and all files on
    /// disk are byte-identical for any worker count. When `opts` enables
    /// telemetry, each simulation runs with a recorder and the run's
    /// trace/progress/manifest outputs are emitted (see
    /// [`emit_run_outputs`]); artifacts are byte-identical whether
    /// telemetry is on, off, or sampled. Runs through [`run_grid`], so no
    /// artifacts are written when a job fails every attempt.
    ///
    /// # Errors
    ///
    /// Returns the batch's failures when any job fails every attempt.
    pub(crate) fn single(
        &self,
        scale: Scale,
        seed: u64,
        kinds: &[MechanismKind],
        executor: &Executor,
        opts: &TelemetryOpts,
        out: &OutputDir,
    ) -> Result<(SimFigureReport, Option<BatchTrace>), BatchError> {
        let jobs = SimJob::grid_of(scale, &[seed], kinds, self.plan_for);
        run_grid(
            self.name,
            self.attack,
            &jobs,
            scale,
            seed,
            executor,
            opts,
            out,
            |results, _| write_figure_artifacts(self.name, scale, seed, kinds, results, out),
        )
    }

    /// The quick path: [`SimFigure::single`] over every mechanism with
    /// machine-sized parallelism, no telemetry and the default artifact
    /// directory, panicking on a failed batch.
    pub(crate) fn quick(&self, scale: Scale, seed: u64) -> SimFigureReport {
        self.single(
            scale,
            seed,
            &MechanismKind::EXTENDED,
            &Executor::default(),
            &TelemetryOpts::disabled(),
            &OutputDir::default_dir(),
        )
        .unwrap_or_else(|e| panic!("{e}"))
        .0
    }

    /// Aggregates the figure over several seeds: the full mechanism ×
    /// seed grid fans out across `executor` in one batch (replicates are
    /// just more independent jobs), traced as one batch so the manifest
    /// and trace cover every replicate. Every seed's report feeds the
    /// aggregate, but artifact names carry no seed, so only the last
    /// seed's artifact set is written: the set a seed-by-seed write would
    /// have left on disk.
    ///
    /// On failure, the artifact set of the last seed whose jobs all
    /// succeeded is still written (the same files a seed-by-seed write
    /// would have left), but the aggregate report is withheld and `Err`
    /// names every failed cell.
    ///
    /// # Errors
    ///
    /// Returns the batch's failures when any job fails every attempt.
    pub(crate) fn replicated(
        &self,
        scale: Scale,
        seeds: &[u64],
        executor: &Executor,
        opts: &TelemetryOpts,
        out: &OutputDir,
    ) -> Result<(ReplicatedReport, Option<BatchTrace>), BatchError> {
        let figure = self.name;
        assert!(!seeds.is_empty(), "need at least one seed");
        let jobs = SimJob::grid(scale, seeds, self.plan_for);
        let sim_clock = Stopwatch::start();
        let run = executor.run_sims_robust(&jobs, opts);
        let sim_ms = sim_clock.elapsed_ms();
        let per_seed = MechanismKind::EXTENDED.len();
        if !run.failures.is_empty() {
            // Artifact names carry no seed, so the last complete seed's
            // set is what a seed-by-seed write would have left behind.
            if let Some((i, &s)) = seeds.iter().enumerate().rev().find(|&(i, _)| {
                run.results[i * per_seed..(i + 1) * per_seed]
                    .iter()
                    .all(Option::is_some)
            }) {
                let results: Vec<SimResult> = run.results[i * per_seed..(i + 1) * per_seed]
                    .iter()
                    .map(|r| r.clone().expect("checked"))
                    .collect();
                write_figure_artifacts(figure, scale, s, &MechanismKind::EXTENDED, &results, out);
            }
            return Err(BatchError {
                figure: figure.to_string(),
                total: jobs.len(),
                failures: run.failures,
            });
        }
        let results: Vec<SimResult> = run
            .results
            .into_iter()
            .map(|r| r.expect("no failures, so every slot holds a result"))
            .collect();
        let trace = run.trace;
        let write_clock = Stopwatch::start();
        let last = seeds.len() - 1;
        let reports: Vec<SimFigureReport> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let group = &results[i * per_seed..(i + 1) * per_seed];
                if i == last {
                    write_figure_artifacts(figure, scale, s, &MechanismKind::EXTENDED, group, out)
                } else {
                    figure_report(figure, scale, s, &MechanismKind::EXTENDED, group)
                }
            })
            .collect();
        let rows = MechanismKind::EXTENDED
            .iter()
            .map(|&kind| {
                let collect = |f: &dyn Fn(&SimRow) -> Option<f64>| -> Vec<f64> {
                    reports.iter().filter_map(|r| f(r.get(kind))).collect()
                };
                ReplicatedRow {
                    algorithm: kind.name().to_string(),
                    mean_completion_s: MeanStd::from_samples(&collect(&|r| r.mean_completion_s)),
                    mean_bootstrap_s: MeanStd::from_samples(&collect(&|r| r.mean_bootstrap_s)),
                    fairness_f: MeanStd::from_samples(&collect(&|r| {
                        r.fairness_f.is_finite().then_some(r.fairness_f)
                    })),
                    susceptibility: MeanStd::from_samples(&collect(&|r| Some(r.susceptibility))),
                }
            })
            .collect();
        let report = ReplicatedReport {
            figure: format!("{figure} (replicated)"),
            scale: scale.name().to_string(),
            seeds: seeds.to_vec(),
            rows,
        };
        let _ = out.json(&format!("{figure}_replicated_{}", scale.name()), &report);
        let trace = trace.map(|mut trace| {
            trace.push_phase("simulate", sim_ms);
            trace.push_phase("write_artifacts", write_clock.elapsed_ms());
            emit_probe_csv(figure, &trace, out);
            emit_run_outputs(
                figure,
                &trace,
                opts,
                out,
                scale,
                seeds[0],
                seeds.len() as u64,
                executor.jobs() as u64,
                self.attack,
            );
            trace
        });
        Ok((report, trace))
    }
}

/// The single-seed batch driver every grid runner shares: runs `jobs` as
/// one robust batch on `executor`, hands the slot-ordered results and
/// each slot's [`SlotPerf`] reading to `write` (which builds the report
/// and writes the artifacts), then closes the trace with the simulate
/// and write phases and emits the run outputs (see [`emit_run_outputs`]).
///
/// A job that fails every attempt yields `Err` after every healthy job
/// has still run (and been journaled), and `write` is never called: the
/// artifact set is all-or-nothing, so a resumed run can regenerate it
/// byte-identically.
///
/// # Errors
///
/// Returns the batch's failures when any job fails every attempt.
#[allow(clippy::too_many_arguments)] // the batch, its manifest fields and the writer
pub(crate) fn run_grid<R>(
    figure: &str,
    attack: &str,
    jobs: &[SimJob],
    scale: Scale,
    seed: u64,
    executor: &Executor,
    opts: &TelemetryOpts,
    out: &OutputDir,
    write: impl FnOnce(&[SimResult], &[SlotPerf]) -> R,
) -> Result<(R, Option<BatchTrace>), BatchError> {
    let sim_clock = Stopwatch::start();
    let mut run = executor.run_sims_robust(jobs, opts);
    let sim_ms = sim_clock.elapsed_ms();
    let perf = std::mem::take(&mut run.perf);
    let (results, trace) = run.into_complete(figure)?;
    let write_clock = Stopwatch::start();
    let report = write(&results, &perf);
    let trace = trace.map(|mut trace| {
        trace.push_phase("simulate", sim_ms);
        trace.push_phase("write_artifacts", write_clock.elapsed_ms());
        emit_probe_csv(figure, &trace, out);
        emit_run_outputs(
            figure,
            &trace,
            opts,
            out,
            scale,
            seed,
            1,
            executor.jobs() as u64,
            attack,
        );
        trace
    });
    Ok((report, trace))
}

/// The telemetry tail of a traced run: per-job progress lines on stderr,
/// the slot-ordered JSONL trace (when `--trace-out` named a file), the
/// run's `manifest.json`, and — when `--profile` is on — `profile.json`,
/// all next to the artifacts in `out`. A run writes these once, also
/// when it ran several batches (a scenario pack joins its batches with
/// [`BatchTrace::concat`]).
///
/// Everything here carries wall-clock data, which is why none of it goes
/// into figure artifacts — those must stay byte-deterministic.
#[allow(clippy::too_many_arguments)] // plumbing for the manifest fields
pub(crate) fn emit_run_outputs(
    figure: &str,
    trace: &BatchTrace,
    opts: &TelemetryOpts,
    out: &OutputDir,
    scale: Scale,
    seed: u64,
    replicates: u64,
    jobs: u64,
    attack: &str,
) {
    for line in trace.progress_lines(figure) {
        eprintln!("{line}");
    }
    if let Some(path) = &opts.trace_out {
        match trace.write_jsonl(path) {
            Ok(n) => eprintln!("[{figure}] trace: {n} events -> {}", path.display()),
            Err(e) => eprintln!("[{figure}] trace write to {} failed: {e}", path.display()),
        }
    }
    let manifest = trace.manifest(figure, scale, seed, replicates, jobs, attack);
    match manifest.write_to(out.path()) {
        Ok(path) => eprintln!("[{figure}] manifest -> {}", path.display()),
        Err(e) => eprintln!("[{figure}] manifest write failed: {e}"),
    }
    if opts.profile {
        match trace.run_profile(figure, scale).write_to(out.path()) {
            Ok(path) => eprintln!("[{figure}] profile -> {}", path.display()),
            Err(e) => eprintln!("[{figure}] profile write failed: {e}"),
        }
    }
}

/// Writes one batch's kept round probes to
/// `{figure}_round_probes_telemetry.csv` in `out`.
pub(crate) fn emit_probe_csv(figure: &str, trace: &BatchTrace, out: &OutputDir) {
    match trace.write_probe_csv(out, figure) {
        Ok(path) => eprintln!("[{figure}] round probes -> {}", path.display()),
        Err(e) => eprintln!("[{figure}] probe CSV write failed: {e}"),
    }
}

/// One figure's report from precomputed results (one per mechanism, in
/// `kinds` order), without writing anything.
pub(crate) fn figure_report(
    figure: &str,
    scale: Scale,
    seed: u64,
    kinds: &[MechanismKind],
    results: &[SimResult],
) -> SimFigureReport {
    assert_eq!(results.len(), kinds.len());
    let rows = kinds
        .iter()
        .zip(results)
        .map(|(&kind, result)| SimRow {
            algorithm: kind.name().to_string(),
            completed_fraction: result.completed_fraction(),
            mean_completion_s: result.mean_completion_time(),
            median_completion_s: result.completion_cdf().quantile(0.5),
            mean_bootstrap_s: result.mean_bootstrap_time(),
            avg_fairness: result.final_avg_fairness(),
            fairness_f: result.final_fairness_stat(),
            susceptibility: result.final_susceptibility(),
            peak_susceptibility: result.peak_susceptibility(),
        })
        .collect();
    SimFigureReport {
        figure: figure.to_string(),
        scale: scale.name().to_string(),
        seed,
        rows,
    }
}

/// The sequential artifact phase of [`SimFigure::single`]: builds one
/// figure's report ([`figure_report`]) and writes its CSV/JSON/SVG
/// artifacts from precomputed results (one per mechanism, in `kinds`
/// order — [`MechanismKind::EXTENDED`] for the figure runners, a
/// scenario's declared list for the sweep path).
pub(crate) fn write_figure_artifacts(
    figure: &str,
    scale: Scale,
    seed: u64,
    kinds: &[MechanismKind],
    results: &[SimResult],
    out: &OutputDir,
) -> SimFigureReport {
    assert_eq!(results.len(), kinds.len());
    // Panel charts collecting every algorithm's series (the shape of the
    // paper's figures).
    let mut panel_cdf = crate::plot::LineChart::new(
        format!("{figure}a — completion CDF ({} scale)", scale.name()),
        "completion time (s)",
        "fraction completed",
    );
    let mut panel_fair = crate::plot::LineChart::new(
        format!("{figure}b — average fairness over time"),
        "time (s)",
        "avg u/d",
    );
    let mut panel_boot = crate::plot::LineChart::new(
        format!("{figure}c — bootstrapped fraction over time"),
        "time (s)",
        "fraction bootstrapped",
    );
    let mut panel_susc = crate::plot::LineChart::new(
        format!("{figure}d — susceptibility over time"),
        "time (s)",
        "free-rider share",
    );
    for (&kind, result) in kinds.iter().zip(results) {
        let slug = kind.name().to_lowercase().replace('-', "");
        let tag = format!("{figure}_{slug}_{}", scale.name());
        let cdf_series = result.completion_cdf().series(50);
        let _ = out.csv(
            &format!("{tag}_completion_cdf"),
            &["completion_s", "fraction"],
            &cdf_series,
        );
        let _ = out.csv(
            &format!("{tag}_fairness_vs_time"),
            &["time_s", "avg_fairness"],
            result.fairness_avg.points(),
        );
        let _ = out.csv(
            &format!("{tag}_bootstrapped_vs_time"),
            &["time_s", "fraction_bootstrapped"],
            result.bootstrapped_frac.points(),
        );
        let _ = out.csv(
            &format!("{tag}_susceptibility_vs_time"),
            &["time_s", "susceptibility"],
            result.susceptibility.points(),
        );
        // Per-peer records (capacity vs completion scatter data).
        let peer_rows: Vec<Vec<String>> = result
            .peers
            .iter()
            .map(|p| {
                vec![
                    p.id.index().to_string(),
                    format!("{}", p.capacity_bps),
                    p.compliant.to_string(),
                    format!("{}", p.arrival_s),
                    p.bootstrap_s.map_or(String::new(), |v| format!("{v}")),
                    p.completion_s.map_or(String::new(), |v| format!("{v}")),
                    p.bytes_sent.to_string(),
                    p.bytes_received_usable.to_string(),
                    p.bytes_received_raw.to_string(),
                ]
            })
            .collect();
        let _ = out.csv_rows(
            &format!("{tag}_peers"),
            &[
                "peer_id",
                "capacity_bps",
                "compliant",
                "arrival_s",
                "bootstrap_s",
                "completion_s",
                "bytes_sent",
                "bytes_received_usable",
                "bytes_received_raw",
            ],
            &peer_rows,
        );
        // Bandwidth attribution per mechanism component.
        let reason_rows: Vec<Vec<String>> = coop_incentives::GrantReason::ALL
            .iter()
            .map(|&reason| {
                vec![
                    reason.name().to_string(),
                    result.totals.bytes_by_reason[reason.index()].to_string(),
                    format!("{:.6}", result.reason_fraction(reason)),
                ]
            })
            .collect();
        let _ = out.csv_rows(
            &format!("{tag}_bandwidth_by_reason"),
            &["reason", "bytes", "fraction_of_peer_bytes"],
            &reason_rows,
        );
        panel_cdf.push_series(crate::plot::Series::new(kind.name(), cdf_series));
        panel_fair.push_series(crate::plot::Series::new(
            kind.name(),
            result.fairness_avg.points().to_vec(),
        ));
        panel_boot.push_series(crate::plot::Series::new(
            kind.name(),
            result.bootstrapped_frac.points().to_vec(),
        ));
        panel_susc.push_series(crate::plot::Series::new(
            kind.name(),
            result.susceptibility.points().to_vec(),
        ));
    }
    let report = figure_report(figure, scale, seed, kinds, results);
    let _ = out.json(&format!("{figure}_{}", scale.name()), &report);
    for (suffix, chart) in [
        ("a_completion_cdf", &panel_cdf),
        ("b_fairness", &panel_fair),
        ("c_bootstrapped", &panel_boot),
        ("d_susceptibility", &panel_susc),
    ] {
        let _ = out.svg(&format!("{figure}{suffix}_{}", scale.name()), chart);
    }
    report
}

/// Runs Fig. 4 (no free-riders) with machine-sized parallelism,
/// panicking on a failed batch.
pub fn run(scale: Scale, seed: u64) -> SimFigureReport {
    FIGURE.quick(scale, seed)
}

/// Runs Fig. 4 for one seed over `kinds` (the CLI passes
/// [`MechanismKind::EXTENDED`]; a `figure`-style scenario pack must match
/// this runner's artifacts for its declared kinds). See
/// [`SimFigure::single`] for the guarantees.
///
/// # Errors
///
/// Returns the batch's failures when any job fails every attempt.
pub fn try_run(
    scale: Scale,
    seed: u64,
    kinds: &[MechanismKind],
    executor: &Executor,
    opts: &TelemetryOpts,
    out: &OutputDir,
) -> Result<(SimFigureReport, Option<BatchTrace>), BatchError> {
    FIGURE.single(scale, seed, kinds, executor, opts, out)
}

/// Runs Fig. 4 over several seeds and aggregates; see
/// [`SimFigure::replicated`].
///
/// # Errors
///
/// Returns the batch's failures when any job fails every attempt.
pub fn try_run_replicated(
    scale: Scale,
    seeds: &[u64],
    executor: &Executor,
    opts: &TelemetryOpts,
    out: &OutputDir,
) -> Result<(ReplicatedReport, Option<BatchTrace>), BatchError> {
    FIGURE.replicated(scale, seeds, executor, opts, out)
}

/// Mean and sample standard deviation of one metric across replicates.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MeanStd {
    /// Mean over replicates.
    pub mean: f64,
    /// Sample standard deviation (0 for a single replicate).
    pub std: f64,
}

impl MeanStd {
    fn from_samples(xs: &[f64]) -> Option<MeanStd> {
        if xs.is_empty() {
            return None;
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let std = if xs.len() < 2 {
            0.0
        } else {
            (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)).sqrt()
        };
        Some(MeanStd { mean, std })
    }
}

/// One algorithm's metrics aggregated over seeds.
#[derive(Clone, Debug, Serialize)]
pub struct ReplicatedRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Mean completion time (seconds), over replicates where peers
    /// completed.
    pub mean_completion_s: Option<MeanStd>,
    /// Mean bootstrap time (seconds).
    pub mean_bootstrap_s: Option<MeanStd>,
    /// Fairness `F`.
    pub fairness_f: Option<MeanStd>,
    /// Susceptibility.
    pub susceptibility: Option<MeanStd>,
}

/// A figure aggregated over several seeds — the error bars the paper's
/// plots imply but do not show.
#[derive(Clone, Debug, Serialize)]
pub struct ReplicatedReport {
    /// Which figure.
    pub figure: String,
    /// Scale used.
    pub scale: String,
    /// Seeds used.
    pub seeds: Vec<u64>,
    /// Aggregated rows.
    pub rows: Vec<ReplicatedRow>,
}

impl ReplicatedReport {
    /// The row for `kind`.
    pub fn get(&self, kind: MechanismKind) -> &ReplicatedRow {
        self.rows
            .iter()
            .find(|r| r.algorithm == kind.name())
            .expect("all kinds present")
    }

    /// Renders the report (mean ± std).
    pub fn render(&self) -> String {
        let fmt = |m: &Option<MeanStd>| match m {
            None => "n/a".to_string(),
            Some(ms) => format!("{:.2} ± {:.2}", ms.mean, ms.std),
        };
        let mut t = Table::new(vec![
            "Algorithm",
            "mean ct (s)",
            "mean bootstrap (s)",
            "F",
            "susceptibility",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.algorithm.clone(),
                fmt(&r.mean_completion_s),
                fmt(&r.mean_bootstrap_s),
                fmt(&r.fairness_f),
                fmt(&r.susceptibility),
            ]);
        }
        format!(
            "{} — {} replicates (seeds {:?}, {} scale)
{}",
            self.figure,
            self.seeds.len(),
            self.seeds,
            self.scale,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shapes_match_paper() {
        let _out = crate::ScopedOutputDir::temp("fig4-fig4_shapes_match_paper");
        let r = run(Scale::Quick, 21);
        // (a) Altruism is the most efficient; reciprocity never completes.
        let alt_ct = r.get(MechanismKind::Altruism).mean_completion_s.unwrap();
        assert_eq!(r.get(MechanismKind::Reciprocity).completed_fraction, 0.0);
        for kind in [
            MechanismKind::TChain,
            MechanismKind::BitTorrent,
            MechanismKind::FairTorrent,
        ] {
            let row = r.get(kind);
            assert!(row.completed_fraction > 0.9, "{kind} completes");
            let ct = row.mean_completion_s.unwrap();
            assert!(ct >= alt_ct * 0.8, "altruism at least ties {kind}");
            assert!(
                ct < alt_ct * 4.0,
                "{kind} stays comparable to altruism: {ct} vs {alt_ct}"
            );
        }
        // (b) T-Chain and FairTorrent are the most fair (lowest F).
        let f = |k: MechanismKind| r.get(k).fairness_f;
        assert!(f(MechanismKind::TChain) < f(MechanismKind::Altruism));
        assert!(f(MechanismKind::FairTorrent) < f(MechanismKind::Altruism));
        // (c) Altruism bootstraps fastest; reciprocity slowest.
        let b = |k: MechanismKind| r.get(k).mean_bootstrap_s.unwrap();
        assert!(b(MechanismKind::Altruism) < b(MechanismKind::Reputation));
        assert!(b(MechanismKind::Reputation) < b(MechanismKind::Reciprocity));
        // No free-riders: susceptibility identically zero.
        for row in &r.rows {
            assert_eq!(row.susceptibility, 0.0, "{}", row.algorithm);
        }
    }

    #[test]
    fn replicated_run_aggregates_and_orders() {
        let _out = crate::ScopedOutputDir::temp("fig4-replicated_run_aggregates_and_orders");
        let (r, _) = try_run_replicated(
            Scale::Quick,
            &[71, 72],
            &Executor::default(),
            &TelemetryOpts::disabled(),
            &OutputDir::default_dir(),
        )
        .expect("fig4 batch");
        assert_eq!(r.seeds.len(), 2);
        let alt = r.get(MechanismKind::Altruism);
        let rec = r.get(MechanismKind::Reciprocity);
        assert!(alt.mean_completion_s.is_some());
        assert!(
            rec.mean_completion_s.is_none(),
            "reciprocity never completes"
        );
        // Std is finite and nonnegative.
        let ms = alt.mean_completion_s.unwrap();
        assert!(ms.std >= 0.0 && ms.std.is_finite());
        assert!(r.render().contains("±"));
    }

    #[test]
    fn report_render_lists_all_algorithms() {
        let _out = crate::ScopedOutputDir::temp("fig4-report_render_lists_all_algorithms");
        let r = run(Scale::Quick, 22);
        let text = r.render();
        for kind in MechanismKind::ALL {
            assert!(text.contains(kind.name()));
        }
    }
}
