//! **Table II** — bootstrap probabilities when a flash crowd arrives,
//! including the paper's example column, plus Lemma 3 expected bootstrap
//! times and the mean-field `z(t)` trajectories behind Fig. 4c.

use coop_incentives::analysis::bootstrap::{
    bootstrap_probability, expected_bootstrap_time, mean_field_trajectory, BootstrapParams,
};
use coop_incentives::MechanismKind;
use serde::Serialize;

use crate::table::{num, pct};
use crate::{Scale, Table};

/// One algorithm's bootstrap analysis.
#[derive(Clone, Debug, Serialize)]
pub struct Table2Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Bootstrap probability at the paper's example parameters.
    pub example_probability: f64,
    /// Paper's stated value for the example column (for comparison).
    pub paper_example: f64,
    /// Bootstrap probability at this scale's parameters.
    pub scaled_probability: f64,
    /// Lemma 3 expected rounds until all newcomers are bootstrapped,
    /// under mean-field `z(t)` dynamics at this scale.
    pub expected_bootstrap_rounds: f64,
}

/// The Table II report.
#[derive(Clone, Debug, Serialize)]
pub struct Table2Report {
    /// Rows in the paper's order.
    pub rows: Vec<Table2Row>,
    /// Scale used for the scaled column.
    pub scale: String,
}

impl Table2Report {
    /// The row for `kind`.
    pub fn get(&self, kind: MechanismKind) -> &Table2Row {
        self.rows
            .iter()
            .find(|r| r.algorithm == kind.name())
            .expect("all kinds present")
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Algorithm",
            "P(bootstrap) @ paper example",
            "paper says",
            "P(bootstrap) @ scale",
            "E[T_B] rounds (Lemma 3)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.algorithm.clone(),
                pct(r.example_probability),
                pct(r.paper_example),
                pct(r.scaled_probability),
                num(r.expected_bootstrap_rounds),
            ]);
        }
        format!(
            "Table II — bootstrap probabilities ({} scale)\n{}",
            self.scale,
            t.render()
        )
    }
}

/// The paper's printed example column, for side-by-side comparison.
fn paper_example_value(kind: MechanismKind) -> f64 {
    match kind {
        MechanismKind::Reciprocity => 0.001,
        MechanismKind::TChain => 0.714,
        MechanismKind::BitTorrent => 0.396,
        MechanismKind::FairTorrent => 0.714,
        MechanismKind::Reputation => 0.222,
        MechanismKind::Altruism => 0.918,
        // Not in the paper; the epoch-settled and consensus extensions
        // share the reputation row's bootstrap form (see
        // `bootstrap_probability`).
        MechanismKind::EpochSettlement | MechanismKind::ConsensusReputation => 0.222,
    }
}

/// Bootstrap parameters matched to an experiment scale (half the crowd
/// already bootstrapped, as in the paper's example).
fn scaled_params(scale: Scale) -> BootstrapParams {
    let n = scale.peers() as u64;
    BootstrapParams {
        n,
        n_s: 1,
        k: 5,
        z: n / 2,
        pi_dr: 0.5,
        n_bt: 4,
        omega: 0.75,
        n_ft: n / 2,
    }
}

/// Runs the Table II computation.
pub fn run(scale: Scale, _seed: u64) -> Table2Report {
    let example = BootstrapParams::paper_example();
    let scaled = scaled_params(scale);
    let rows = MechanismKind::ALL
        .iter()
        .map(|&kind| {
            // Lemma 3 with mean-field dynamics: z grows as users
            // bootstrap; p_B(t) follows.
            let mut base = scaled;
            base.z = 1;
            let traj = mean_field_trajectory(kind, &base, 1, 400);
            let expected = expected_bootstrap_time(
                scaled.n - 1,
                |t| {
                    let z = traj
                        .get(t as usize)
                        .copied()
                        .unwrap_or(*traj.last().expect("nonempty"));
                    let mut p = scaled;
                    p.z = (z.round() as u64).max(1);
                    bootstrap_probability(kind, &p)
                },
                1e-9,
                100_000,
            );
            Table2Row {
                algorithm: kind.name().to_string(),
                example_probability: bootstrap_probability(kind, &example),
                paper_example: paper_example_value(kind),
                scaled_probability: bootstrap_probability(kind, &scaled),
                expected_bootstrap_rounds: expected,
            }
        })
        .collect();
    let report = Table2Report {
        rows,
        scale: scale.name().to_string(),
    };
    let _ = crate::write_json(&format!("table2_{}", scale.name()), &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_example_column() {
        let _out = crate::ScopedOutputDir::temp("table2-reproduces_paper_example_column");
        let r = run(Scale::Quick, 0);
        for row in &r.rows {
            assert!(
                (row.example_probability - row.paper_example).abs() < 0.001,
                "{}: got {:.4}, paper {:.4}",
                row.algorithm,
                row.example_probability,
                row.paper_example
            );
        }
    }

    #[test]
    fn expected_times_order_as_prop4() {
        let _out = crate::ScopedOutputDir::temp("table2-expected_times_order_as_prop4");
        let r = run(Scale::Default, 0);
        let e = |k| r.get(k).expected_bootstrap_rounds;
        assert!(e(MechanismKind::Altruism) <= e(MechanismKind::TChain));
        assert!(e(MechanismKind::TChain) < e(MechanismKind::BitTorrent));
        assert!(e(MechanismKind::BitTorrent) < e(MechanismKind::Reputation));
        assert!(e(MechanismKind::Reputation) < e(MechanismKind::Reciprocity));
    }

    #[test]
    fn scaled_probabilities_are_valid() {
        let _out = crate::ScopedOutputDir::temp("table2-scaled_probabilities_are_valid");
        for scale in [Scale::Quick, Scale::Default] {
            let r = run(scale, 0);
            for row in &r.rows {
                assert!((0.0..=1.0).contains(&row.scaled_probability), "{row:?}");
                assert!(row.expected_bootstrap_rounds >= 1.0);
            }
        }
    }

    #[test]
    fn render_includes_percentages() {
        let _out = crate::ScopedOutputDir::temp("table2-render_includes_percentages");
        let text = run(Scale::Quick, 0).render();
        assert!(text.contains('%'));
        assert!(text.contains("91.8%"), "altruism example column: {text}");
    }
}
