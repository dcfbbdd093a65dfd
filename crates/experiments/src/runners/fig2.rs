//! **Fig. 2** — fairness and efficiency ranking of the six algorithms in
//! the idealized scenario (Corollary 1).
//!
//! The figure orders the algorithms along two axes: fairness (T-Chain =
//! FairTorrent best; reciprocity's fairness undefined because nothing
//! transfers) and efficiency (altruism best, then BitTorrent and
//! reputation, then T-Chain/FairTorrent, reciprocity worst).

use coop_incentives::analysis::equilibrium::{equilibrium_summary, EquilibriumParams};
use coop_incentives::MechanismKind;
use serde::Serialize;

use crate::runners::analytic_capacities;
use crate::table::num;
use crate::{Scale, Table};

/// One algorithm's idealized (F, E) point.
#[derive(Clone, Debug, Serialize)]
pub struct Fig2Row {
    /// Algorithm name.
    pub algorithm: String,
    /// The paper's fairness statistic `F` (0 = perfectly fair).
    pub fairness_f: f64,
    /// The paper's efficiency `E` (average unit-file download time; lower
    /// is better).
    pub efficiency_e: f64,
    /// Rank by fairness (1 = most fair; ties share a rank).
    pub fairness_rank: usize,
    /// Rank by efficiency (1 = most efficient).
    pub efficiency_rank: usize,
}

/// The Fig. 2 report.
#[derive(Clone, Debug, Serialize)]
pub struct Fig2Report {
    /// Scale used for the capacity sample.
    pub scale: String,
    /// Rows in the paper's order.
    pub rows: Vec<Fig2Row>,
}

impl Fig2Report {
    /// The row for `kind`.
    pub fn get(&self, kind: MechanismKind) -> &Fig2Row {
        self.rows
            .iter()
            .find(|r| r.algorithm == kind.name())
            .expect("all kinds present")
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Algorithm",
            "F (fairness, 0=best)",
            "E (efficiency, lower=better)",
            "fair rank",
            "eff rank",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.algorithm.clone(),
                num(r.fairness_f),
                num(r.efficiency_e),
                r.fairness_rank.to_string(),
                r.efficiency_rank.to_string(),
            ]);
        }
        format!(
            "Fig. 2 — idealized fairness/efficiency ranking ({} scale)\n{}",
            self.scale,
            t.render()
        )
    }
}

fn ranks(values: &[f64]) -> Vec<usize> {
    // Rank 1 = smallest value; exact ties share a rank.
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN ranks"));
    sorted.dedup();
    values
        .iter()
        .map(|v| sorted.iter().position(|s| s == v).expect("present") + 1)
        .collect()
}

/// Runs the Fig. 2 computation.
pub fn run(scale: Scale, seed: u64) -> Fig2Report {
    let caps = analytic_capacities(scale, seed);
    let params = EquilibriumParams::default();
    let summaries: Vec<(MechanismKind, f64, f64)> = MechanismKind::ALL
        .iter()
        .map(|&k| {
            let s = equilibrium_summary(k, &caps, &params);
            (k, s.fairness, s.efficiency)
        })
        .collect();
    let f_ranks = ranks(&summaries.iter().map(|&(_, f, _)| f).collect::<Vec<_>>());
    let e_ranks = ranks(&summaries.iter().map(|&(_, _, e)| e).collect::<Vec<_>>());
    let rows = summaries
        .iter()
        .zip(f_ranks.iter().zip(&e_ranks))
        .map(|(&(k, f, e), (&fr, &er))| Fig2Row {
            algorithm: k.name().to_string(),
            fairness_f: f,
            efficiency_e: e,
            fairness_rank: fr,
            efficiency_rank: er,
        })
        .collect();
    let report = Fig2Report {
        scale: scale.name().to_string(),
        rows,
    };
    let _ = crate::write_json(&format!("fig2_{}", scale.name()), &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corollary1_ordering_holds() {
        let _out = crate::ScopedOutputDir::temp("fig2-corollary1_ordering_holds");
        let r = run(Scale::Quick, 11);
        // T-Chain and FairTorrent achieve optimal fairness.
        assert_eq!(r.get(MechanismKind::TChain).fairness_f, 0.0);
        assert_eq!(r.get(MechanismKind::FairTorrent).fairness_f, 0.0);
        // Altruism: most efficient, least fair among transferring
        // algorithms.
        let alt = r.get(MechanismKind::Altruism);
        for kind in [
            MechanismKind::TChain,
            MechanismKind::FairTorrent,
            MechanismKind::BitTorrent,
            MechanismKind::Reputation,
        ] {
            assert!(alt.efficiency_e < r.get(kind).efficiency_e, "{kind}");
            assert!(alt.fairness_f >= r.get(kind).fairness_f, "{kind}");
        }
        // BitTorrent and reputation beat T-Chain/FairTorrent on efficiency
        // in the ideal case (the surprising part of Corollary 1).
        assert!(
            r.get(MechanismKind::BitTorrent).efficiency_e
                < r.get(MechanismKind::TChain).efficiency_e
        );
        // Reciprocity transfers nothing.
        assert!(r.get(MechanismKind::Reciprocity).efficiency_e.is_infinite());
    }

    #[test]
    fn ranks_share_ties() {
        assert_eq!(ranks(&[1.0, 2.0, 1.0]), vec![1, 2, 1]);
        assert_eq!(ranks(&[3.0]), vec![1]);
    }

    #[test]
    fn render_is_complete() {
        let _out = crate::ScopedOutputDir::temp("fig2-render_is_complete");
        let text = run(Scale::Quick, 1).render();
        assert!(text.contains("T-Chain"));
        assert!(text.contains("eff rank"));
    }
}
