//! Fluid-model predictions (Qiu–Srikant \[27\], the model the paper's
//! footnote 3 borrows its effectiveness quantification from), with each
//! algorithm's `η` taken from Proposition 2's expected piece-exchange
//! probability — and a cross-validation against the event-driven
//! simulator.

use coop_incentives::analysis::exchange::PieceCountDistribution;
use coop_incentives::analysis::fluid::{effectiveness, flash_crowd_model};
use coop_incentives::MechanismKind;
use serde::Serialize;

use crate::exec::SimJob;
use crate::table::num;
use crate::{Scale, Table};

/// One algorithm's fluid prediction next to the simulator's measurement.
#[derive(Clone, Debug, Serialize)]
pub struct FluidRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Effectiveness `η` (expected exchange probability).
    pub eta: f64,
    /// Fluid-predicted time for the flash crowd to drain to 5 %.
    pub fluid_drain_s: Option<f64>,
    /// Simulated time by which 95 % of compliant peers completed.
    pub simulated_p95_s: Option<f64>,
}

/// The fluid report.
#[derive(Clone, Debug, Serialize)]
pub struct FluidReport {
    /// Scale used.
    pub scale: String,
    /// Rows in the paper's order.
    pub rows: Vec<FluidRow>,
}

impl FluidReport {
    /// The row for `kind`.
    pub fn get(&self, kind: MechanismKind) -> &FluidRow {
        self.rows
            .iter()
            .find(|r| r.algorithm == kind.name())
            .expect("all kinds present")
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Algorithm",
            "η (Prop. 2)",
            "fluid drain-to-5% (s)",
            "simulated p95 completion (s)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.algorithm.clone(),
                num(r.eta),
                r.fluid_drain_s.map_or("never".into(), num),
                r.simulated_p95_s.map_or("never".into(), num),
            ]);
        }
        format!(
            "Fluid model (Qiu–Srikant [27]) vs simulator ({} scale)\n{}",
            self.scale,
            t.render()
        )
    }
}

/// Runs the fluid experiment: analytic trajectories for every algorithm
/// plus the simulator's completion tail at the same scale.
pub fn run(scale: Scale, seed: u64) -> FluidReport {
    let config = scale.config(seed);
    let pieces = config.file.num_pieces();
    let dist = PieceCountDistribution::uniform(pieces);
    let n = scale.peers();
    // μ in files/second from the mean capacity.
    let mix = coop_incentives::analysis::capacity::CapacityClassMix::paper_default();
    let mu = mix.mean() / config.file.size_bytes() as f64;
    let seeder_equiv = config.seeder_bps / mix.mean();

    let out = crate::OutputDir::default_dir();
    let mut chart = crate::plot::LineChart::new(
        format!("fluid model — leecher population ({} scale)", scale.name()),
        "time (s)",
        "leechers x(t)",
    );
    let rows = MechanismKind::ALL
        .iter()
        .map(|&kind| {
            let model = flash_crowd_model(kind, n, &dist, mu, seeder_equiv);
            let horizon = 50_000.0;
            let fluid_drain_s = model.drain_time(0.05, horizon, 0.5);
            // Trajectory artifact for plotting.
            let traj: Vec<(f64, f64)> = model
                .integrate(horizon.min(10_000.0), 2.0)
                .iter()
                .map(|s| (s.t, s.x))
                .collect();
            let slug = kind.name().to_lowercase().replace('-', "");
            let _ = out.csv(
                &format!("fluid_leechers_{}_{}", slug, scale.name()),
                &["time_s", "leechers"],
                &traj,
            );
            chart.push_series(crate::plot::Series::new(kind.name(), traj.clone()));
            let sim = SimJob::new(kind, scale, seed).run();
            FluidRow {
                algorithm: kind.name().to_string(),
                eta: effectiveness(kind, &dist, n, 0.2),
                fluid_drain_s,
                simulated_p95_s: sim.completion_cdf().quantile(0.95),
            }
        })
        .collect();
    let report = FluidReport {
        scale: scale.name().to_string(),
        rows,
    };
    let _ = crate::write_json(&format!("fluid_{}", scale.name()), &report);
    let _ = out.svg(&format!("fluid_leechers_{}", scale.name()), &chart);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluid_and_simulator_agree_on_the_extremes() {
        let r = run(Scale::Quick, 81);
        // Reciprocity: η = 0, both sides say "never" within horizon.
        let rec = r.get(MechanismKind::Reciprocity);
        assert_eq!(rec.eta, 0.0);
        assert!(rec.simulated_p95_s.is_none());
        // Altruism: both sides finish, and altruism's η is maximal.
        let alt = r.get(MechanismKind::Altruism);
        assert!(alt.fluid_drain_s.is_some());
        assert!(alt.simulated_p95_s.is_some());
        for row in &r.rows {
            assert!(alt.eta >= row.eta - 1e-12, "{}", row.algorithm);
        }
    }

    #[test]
    fn fluid_drain_ordering_matches_eta_ordering() {
        let r = run(Scale::Quick, 82);
        let drain = |k: MechanismKind| r.get(k).fluid_drain_s.unwrap_or(f64::INFINITY);
        assert!(drain(MechanismKind::Altruism) <= drain(MechanismKind::TChain) + 1e-9);
        assert!(drain(MechanismKind::TChain) <= drain(MechanismKind::BitTorrent) + 1e-9);
        // Reciprocity drains only through the persistent seeder — an order
        // of magnitude slower than any peer-exchanging algorithm.
        assert!(
            drain(MechanismKind::Reciprocity) > 5.0 * drain(MechanismKind::BitTorrent),
            "seeder-only drain must be far slower: {} vs {}",
            drain(MechanismKind::Reciprocity),
            drain(MechanismKind::BitTorrent)
        );
    }

    #[test]
    fn render_contains_eta_column() {
        let text = run(Scale::Quick, 83).render();
        assert!(text.contains("η"));
        assert!(text.contains("Reciprocity"));
    }
}
