//! **Table III** — resources available for free-riding: directly
//! exploitable upload bandwidth and collusion success probabilities.

use coop_incentives::analysis::exchange::{pi_ir, PieceCountDistribution};
use coop_incentives::analysis::freeride::{
    collusion_probability, exploitable_resources, fairtorrent_deficit_bound, FreeRideParams,
};
use coop_incentives::MechanismKind;
use serde::Serialize;

use crate::runners::analytic_capacities;
use crate::table::num;
use crate::{Scale, Table};

/// One algorithm's Table III entry.
#[derive(Clone, Debug, Serialize)]
pub struct Table3Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Exploitable resources in bytes/second.
    pub exploitable_bps: f64,
    /// As a fraction of total capacity.
    pub exploitable_fraction: f64,
    /// Collusion success probability per interaction, if collusion helps.
    pub collusion_probability: Option<f64>,
}

/// The Table III report.
#[derive(Clone, Debug, Serialize)]
pub struct Table3Report {
    /// Total system capacity `Σ U_i` (bytes/second).
    pub total_capacity: f64,
    /// The `π_IR` used for T-Chain's collusion row.
    pub pi_ir: f64,
    /// FairTorrent's `O(log N)` per-peer deficit bound (pieces).
    pub fairtorrent_deficit_bound: f64,
    /// Rows in the paper's order.
    pub rows: Vec<Table3Row>,
}

impl Table3Report {
    /// The row for `kind`.
    pub fn get(&self, kind: MechanismKind) -> &Table3Row {
        self.rows
            .iter()
            .find(|r| r.algorithm == kind.name())
            .expect("all kinds present")
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Algorithm",
            "exploitable (B/s)",
            "fraction of ΣU",
            "collusion probability",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.algorithm.clone(),
                num(r.exploitable_bps),
                num(r.exploitable_fraction),
                match r.collusion_probability {
                    None => "none".to_string(),
                    Some(p) if p >= 1.0 => "1 (always succeeds)".to_string(),
                    Some(p) => num(p),
                },
            ]);
        }
        format!(
            "Table III — resources available for free-riding (ΣU = {:.0} B/s, π_IR = {:.3}, \
             FairTorrent deficit bound ≈ {:.1} pieces)\n{}",
            self.total_capacity,
            self.pi_ir,
            self.fairtorrent_deficit_bound,
            t.render()
        )
    }
}

/// Runs the Table III computation.
pub fn run(scale: Scale, seed: u64) -> Table3Report {
    let caps = analytic_capacities(scale, seed);
    let params = FreeRideParams {
        total_capacity: caps.total(),
        alpha_bt: 0.2,
        alpha_r: 0.1,
        omega: 0.75,
        ..FreeRideParams::default()
    };
    let n = scale.peers() as u64;
    let colluders = n / 5; // the paper's 20% free-riders
    let pieces = match scale {
        Scale::Quick => 32,
        Scale::Default => 128,
        Scale::Paper => 512,
    };
    let dist = PieceCountDistribution::uniform(pieces);
    // Representative mid-swarm piece counts for the π_IR estimate.
    let pi_ir_value = pi_ir(pieces / 2, pieces / 2, pieces, &dist, n as usize);
    let rows = MechanismKind::ALL
        .iter()
        .map(|&kind| {
            let exploitable = exploitable_resources(kind, &params);
            Table3Row {
                algorithm: kind.name().to_string(),
                exploitable_bps: exploitable,
                exploitable_fraction: exploitable / params.total_capacity,
                collusion_probability: collusion_probability(kind, pi_ir_value, colluders, n),
            }
        })
        .collect();
    let report = Table3Report {
        total_capacity: params.total_capacity,
        pi_ir: pi_ir_value,
        fairtorrent_deficit_bound: fairtorrent_deficit_bound(n),
        rows,
    };
    let _ = crate::write_json(&format!("table3_{}", scale.name()), &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_orderings() {
        let r = run(Scale::Quick, 5);
        assert_eq!(r.get(MechanismKind::Reciprocity).exploitable_bps, 0.0);
        assert_eq!(r.get(MechanismKind::TChain).exploitable_bps, 0.0);
        assert!(
            (r.get(MechanismKind::Altruism).exploitable_fraction - 1.0).abs() < 1e-12,
            "altruism exposes everything"
        );
        // BitTorrent exposes α_BT, reputation α_R, FairTorrent 1−ω.
        assert!((r.get(MechanismKind::BitTorrent).exploitable_fraction - 0.2).abs() < 1e-12);
        assert!((r.get(MechanismKind::Reputation).exploitable_fraction - 0.1).abs() < 1e-12);
        assert!((r.get(MechanismKind::FairTorrent).exploitable_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn collusion_column_matches_paper() {
        let r = run(Scale::Default, 5);
        assert_eq!(
            r.get(MechanismKind::Reciprocity).collusion_probability,
            None
        );
        assert_eq!(r.get(MechanismKind::BitTorrent).collusion_probability, None);
        assert_eq!(
            r.get(MechanismKind::Reputation).collusion_probability,
            Some(1.0)
        );
        let tc = r
            .get(MechanismKind::TChain)
            .collusion_probability
            .expect("T-Chain colludes via third parties");
        assert!(tc < 0.05, "π_IR·m(m−1)/(N(N−1)) ≪ 1, got {tc}");
    }

    #[test]
    fn render_contains_bound() {
        let text = run(Scale::Quick, 1).render();
        assert!(text.contains("deficit bound"));
        assert!(text.contains("always succeeds"));
    }
}
