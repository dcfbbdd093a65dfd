//! **Fig. 3** — efficiency comparison with piece availability
//! (Proposition 2, Corollary 2), plus the Proposition 3 reputation panel.
//!
//! Panel A evaluates the expected piece-exchange probabilities
//! `π_A ≥ π_TC ≥ π_BT` (reciprocity = 0) for growing swarm sizes,
//! reproducing the figure's ranking: altruism ≥ T-Chain ≥ FairTorrent ≥
//! BitTorrent ≥ reciprocity, with T-Chain approaching altruism as `N`
//! grows.
//!
//! Panel B quantifies Proposition 3: how much a reputation/capacity
//! mismatch degrades the reputation algorithm's fairness and efficiency.

use coop_incentives::analysis::exchange::{expected_exchange_probability, PieceCountDistribution};
use coop_incentives::analysis::reputation::{prop3_efficiency, prop3_fairness};
use coop_incentives::MechanismKind;
use serde::Serialize;

use crate::table::num;
use crate::{Scale, Table};

/// Exchange probabilities at one swarm size.
#[derive(Clone, Debug, Serialize)]
pub struct ExchangePoint {
    /// Number of users `N`.
    pub n: usize,
    /// Expected exchange probability per algorithm, in
    /// `MechanismKind::ALL` order.
    pub probabilities: Vec<f64>,
}

/// One reputation-skew sample for the Prop. 3 panel.
#[derive(Clone, Debug, Serialize)]
pub struct ReputationSkewPoint {
    /// Fraction of users whose reputation is decoupled from capacity.
    pub skew: f64,
    /// Resulting fairness `F`.
    pub fairness_f: f64,
    /// Resulting efficiency `E`.
    pub efficiency_e: f64,
}

/// The Fig. 3 report.
#[derive(Clone, Debug, Serialize)]
pub struct Fig3Report {
    /// Piece count `M` used for the probability model.
    pub pieces: u32,
    /// Panel A: exchange probabilities over swarm sizes.
    pub exchange: Vec<ExchangePoint>,
    /// Panel B: Prop. 3 degradation under reputation skew.
    pub reputation_skew: Vec<ReputationSkewPoint>,
}

impl Fig3Report {
    /// The probability of `kind` at the largest swarm size.
    pub fn final_probability(&self, kind: MechanismKind) -> f64 {
        let idx = MechanismKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("known kind");
        self.exchange.last().expect("nonempty sweep").probabilities[idx]
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut headers = vec!["N".to_string()];
        headers.extend(MechanismKind::ALL.iter().map(|k| k.name().to_string()));
        let mut t = Table::new(headers);
        for p in &self.exchange {
            let mut row = vec![p.n.to_string()];
            row.extend(p.probabilities.iter().map(|&x| num(x)));
            t.row(row);
        }
        let mut t2 = Table::new(vec!["reputation skew", "F", "E"]);
        for p in &self.reputation_skew {
            t2.row(vec![num(p.skew), num(p.fairness_f), num(p.efficiency_e)]);
        }
        format!(
            "Fig. 3 (panel A) — expected piece-exchange probability vs N (M = {})\n{}\n\
             Fig. 3 (panel B) — Prop. 3: reputation skew vs fairness/efficiency\n{}",
            self.pieces,
            t.render(),
            t2.render()
        )
    }
}

/// Runs the Fig. 3 computation.
pub fn run(scale: Scale, _seed: u64) -> Fig3Report {
    let pieces = match scale {
        Scale::Quick => 32,
        Scale::Default => 128,
        Scale::Paper => 512,
    };
    let dist = PieceCountDistribution::uniform(pieces);
    let sizes: &[usize] = match scale {
        Scale::Quick => &[10, 40, 160],
        Scale::Default => &[10, 50, 200, 1000],
        Scale::Paper => &[10, 100, 1000, 10_000],
    };
    let exchange: Vec<ExchangePoint> = sizes
        .iter()
        .map(|&n| ExchangePoint {
            n,
            probabilities: MechanismKind::ALL
                .iter()
                .map(|&k| expected_exchange_probability(k, &dist, n, 0.2))
                .collect(),
        })
        .collect();

    // Panel B: start from reputation aligned with capacity, then decouple
    // a growing fraction of users (their reputation drops to 1% of their
    // capacity — the "low reputation but moderate upload bandwidth" case).
    let caps: Vec<f64> = (0..50).map(|i| 16_000.0 * (1.0 + (i % 5) as f64)).collect();
    let reputation_skew: Vec<ReputationSkewPoint> = [0.0, 0.1, 0.25, 0.5]
        .iter()
        .map(|&skew| {
            let mut reps = caps.clone();
            let skewed = (caps.len() as f64 * skew) as usize;
            for r in reps.iter_mut().take(skewed) {
                *r *= 0.01;
            }
            ReputationSkewPoint {
                skew,
                fairness_f: prop3_fairness(&reps, &caps),
                efficiency_e: prop3_efficiency(&reps, &caps),
            }
        })
        .collect();

    let report = Fig3Report {
        pieces,
        exchange,
        reputation_skew,
    };
    // CSV artifact: one series per algorithm.
    for (idx, kind) in MechanismKind::ALL.iter().enumerate() {
        let series: Vec<(f64, f64)> = report
            .exchange
            .iter()
            .map(|p| (p.n as f64, p.probabilities[idx]))
            .collect();
        let _ = crate::write_csv(
            &format!(
                "fig3_pi_{}_{}",
                kind.name().to_lowercase().replace('-', ""),
                pieces
            ),
            &["n", "pi"],
            &series,
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corollary2_ranking_at_every_size() {
        let _out = crate::ScopedOutputDir::temp("fig3-corollary2_ranking_at_every_size");
        let r = run(Scale::Quick, 0);
        for point in &r.exchange {
            let p = |k: MechanismKind| {
                point.probabilities[MechanismKind::ALL.iter().position(|&x| x == k).unwrap()]
            };
            assert!(p(MechanismKind::Altruism) >= p(MechanismKind::TChain) - 1e-12);
            assert!(p(MechanismKind::TChain) >= p(MechanismKind::BitTorrent) - 1e-12);
            assert_eq!(p(MechanismKind::Reciprocity), 0.0);
        }
    }

    #[test]
    fn tchain_approaches_altruism_as_n_grows() {
        let _out = crate::ScopedOutputDir::temp("fig3-tchain_approaches_altruism_as_n_grows");
        let r = run(Scale::Quick, 0);
        let gap_at = |i: usize| {
            let p = &r.exchange[i].probabilities;
            let alt = p[MechanismKind::ALL
                .iter()
                .position(|&k| k == MechanismKind::Altruism)
                .unwrap()];
            let tc = p[MechanismKind::ALL
                .iter()
                .position(|&k| k == MechanismKind::TChain)
                .unwrap()];
            alt - tc
        };
        assert!(gap_at(r.exchange.len() - 1) <= gap_at(0));
        assert!(gap_at(r.exchange.len() - 1) < 0.05);
    }

    #[test]
    fn prop3_degrades_with_skew() {
        let _out = crate::ScopedOutputDir::temp("fig3-prop3_degrades_with_skew");
        let r = run(Scale::Quick, 0);
        let first = &r.reputation_skew[0];
        let last = r.reputation_skew.last().unwrap();
        assert!(first.fairness_f < 1e-9, "aligned reputations are fair");
        assert!(last.fairness_f > first.fairness_f);
        assert!(last.efficiency_e > first.efficiency_e);
    }

    #[test]
    fn render_mentions_both_panels() {
        let _out = crate::ScopedOutputDir::temp("fig3-render_mentions_both_panels");
        let text = run(Scale::Quick, 0).render();
        assert!(text.contains("panel A"));
        assert!(text.contains("panel B"));
    }
}
