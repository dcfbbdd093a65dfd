//! Extension experiments beyond the paper's six algorithms:
//!
//! * **BitTorrent variants** — PropShare \[5\] and BitTyrant \[6\], which the
//!   paper cites as attempts to reduce BitTorrent's free-riding, compared
//!   against stock BitTorrent with and without 20 % free-riders.
//! * **Trusted reputation** — the EigenTrust-weighted false-praise defense
//!   of the paper's footnote 6, compared against the basic reputation
//!   algorithm under the false-praise collusion attack.

use coop_attacks::AttackPlan;
use coop_incentives::mechanisms::extensions::{BitTyrant, PropShare};
use coop_incentives::{MechanismKind, MechanismParams};
use coop_swarm::{flash_crowd_with, PeerSpec, SimResult, Simulation};
use serde::Serialize;

use crate::table::num;
use crate::{Scale, Table};

/// Which BitTorrent-family client a run used.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum BtVariant {
    /// Stock BitTorrent (equal-split tit-for-tat + optimistic unchoke).
    Stock,
    /// PropShare (proportional-share auction).
    PropShare,
    /// BitTyrant (strategic ROI-greedy unchoking, no altruism).
    BitTyrant,
}

impl BtVariant {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BtVariant::Stock => "BitTorrent",
            BtVariant::PropShare => "PropShare",
            BtVariant::BitTyrant => "BitTyrant",
        }
    }
}

/// One run's summary.
#[derive(Clone, Debug, Serialize)]
pub struct VariantRow {
    /// Client name.
    pub client: String,
    /// With (true) or without free-riders.
    pub attacked: bool,
    /// Completion fraction of compliant peers.
    pub completed_fraction: f64,
    /// Mean completion seconds.
    pub mean_completion_s: Option<f64>,
    /// Mean bootstrap seconds.
    pub mean_bootstrap_s: Option<f64>,
    /// Fairness `F`.
    pub fairness_f: f64,
    /// Susceptibility.
    pub susceptibility: f64,
    /// Mean completion time of the *free-riders* (how fast attackers
    /// extract the file) — the sharp discriminator once cumulative
    /// susceptibility saturates.
    pub fr_mean_completion_s: Option<f64>,
}

/// Trusted-reputation comparison row.
#[derive(Clone, Debug, Serialize)]
pub struct TrustRow {
    /// "basic" or "eigentrust".
    pub scheme: String,
    /// Susceptibility under the false-praise attack.
    pub susceptibility: f64,
    /// Compliant mean completion seconds.
    pub mean_completion_s: Option<f64>,
    /// Mean completion time of the free-riders.
    pub fr_mean_completion_s: Option<f64>,
    /// Fairness `F`.
    pub fairness_f: f64,
}

/// The extensions report.
#[derive(Clone, Debug, Serialize)]
pub struct ExtensionsReport {
    /// Scale used.
    pub scale: String,
    /// BitTorrent-variant comparison (clean and attacked).
    pub variants: Vec<VariantRow>,
    /// Reputation false-praise defense comparison.
    pub trust: Vec<TrustRow>,
}

impl ExtensionsReport {
    /// The variant row for (client label, attacked).
    pub fn variant(&self, client: &str, attacked: bool) -> &VariantRow {
        self.variants
            .iter()
            .find(|r| r.client == client && r.attacked == attacked)
            .expect("all variants present")
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "client",
            "free-riders",
            "completed",
            "mean ct (s)",
            "mean boot (s)",
            "F",
            "susceptibility",
            "FR mean ct (s)",
        ]);
        for r in &self.variants {
            t.row(vec![
                r.client.clone(),
                if r.attacked {
                    "20%".into()
                } else {
                    "none".into()
                },
                num(r.completed_fraction),
                r.mean_completion_s.map_or("n/a".into(), num),
                r.mean_bootstrap_s.map_or("n/a".into(), num),
                num(r.fairness_f),
                num(r.susceptibility),
                r.fr_mean_completion_s.map_or("never".into(), num),
            ]);
        }
        let mut t2 = Table::new(vec![
            "reputation scheme",
            "susceptibility",
            "mean ct (s)",
            "FR mean ct (s)",
            "F",
        ]);
        for r in &self.trust {
            t2.row(vec![
                r.scheme.clone(),
                num(r.susceptibility),
                r.mean_completion_s.map_or("n/a".into(), num),
                r.fr_mean_completion_s.map_or("never".into(), num),
                num(r.fairness_f),
            ]);
        }
        format!(
            "Extension A — BitTorrent variants (PropShare, BitTyrant)\n{}\n\
             Extension B — reputation false praise: basic vs EigenTrust-weighted\n{}",
            t.render(),
            t2.render()
        )
    }
}

fn fr_mean_completion(r: &SimResult) -> Option<f64> {
    let times: Vec<f64> = r.freeriders().filter_map(|p| p.completion_s).collect();
    if times.is_empty() {
        None
    } else {
        Some(times.iter().sum::<f64>() / times.len() as f64)
    }
}

fn variant_population(
    variant: BtVariant,
    scale: Scale,
    seed: u64,
) -> (coop_swarm::SwarmConfig, Vec<PeerSpec>) {
    let config = scale.config(seed);
    let mix = coop_incentives::analysis::capacity::CapacityClassMix::paper_default();
    let mut population = flash_crowd_with(
        &config,
        scale.peers(),
        MechanismKind::BitTorrent,
        seed,
        &mix,
        scale.arrival_window(),
    );
    let params = config.mechanism_params;
    for spec in population.iter_mut() {
        spec.mechanism = match variant {
            BtVariant::Stock => Box::new(move || {
                coop_incentives::build_mechanism(MechanismKind::BitTorrent, params)
            }),
            BtVariant::PropShare => Box::new(move || Box::new(PropShare::new(params))),
            BtVariant::BitTyrant => Box::new(move || Box::new(BitTyrant::new(params))),
        };
    }
    (config, population)
}

fn run_variant(
    variant: BtVariant,
    scale: Scale,
    seed: u64,
    attacked: bool,
    alpha_bt: Option<f64>,
) -> SimResult {
    let (mut config, mut population) = variant_population(variant, scale, seed);
    if let Some(alpha) = alpha_bt {
        config.mechanism_params.alpha_bt = alpha;
        // Rebuild factories so the override reaches the clients.
        let params = config.mechanism_params;
        for spec in population.iter_mut() {
            spec.mechanism = match variant {
                BtVariant::Stock => Box::new(move || {
                    coop_incentives::build_mechanism(MechanismKind::BitTorrent, params)
                }),
                BtVariant::PropShare => Box::new(move || Box::new(PropShare::new(params))),
                BtVariant::BitTyrant => Box::new(move || Box::new(BitTyrant::new(params))),
            };
        }
    }
    let mut builder = Simulation::builder(config).population(population);
    if attacked {
        builder = builder.attack_plan(AttackPlan::simple(0.2));
    }
    builder.build().expect("valid config").run()
}

fn run_trust(scale: Scale, seed: u64, trusted: bool) -> SimResult {
    let mut config = scale.config(seed);
    config.trusted_reputation = trusted;
    let mix = coop_incentives::analysis::capacity::CapacityClassMix::paper_default();
    let population = flash_crowd_with(
        &config,
        scale.peers(),
        MechanismKind::Reputation,
        seed,
        &mix,
        scale.arrival_window(),
    );
    Simulation::builder(config)
        .population(population)
        .attack_plan(AttackPlan::false_praise(0.2))
        .build()
        .expect("valid config")
        .run()
}

/// Runs the extension experiments.
pub fn run(scale: Scale, seed: u64) -> ExtensionsReport {
    let _ = MechanismParams::default();
    let mut variants = Vec::new();
    for (variant, label, alpha) in [
        (BtVariant::Stock, "BitTorrent", None),
        (BtVariant::PropShare, "PropShare", None),
        (BtVariant::PropShare, "PropShare(a=0)", Some(0.0)),
        (BtVariant::BitTyrant, "BitTyrant", None),
    ] {
        for attacked in [false, true] {
            let r = run_variant(variant, scale, seed, attacked, alpha);
            variants.push(VariantRow {
                client: label.to_string(),
                attacked,
                completed_fraction: r.completed_fraction(),
                mean_completion_s: r.mean_completion_time(),
                mean_bootstrap_s: r.mean_bootstrap_time(),
                fairness_f: r.final_fairness_stat(),
                susceptibility: r.final_susceptibility(),
                fr_mean_completion_s: fr_mean_completion(&r),
            });
        }
    }
    let trust = [false, true]
        .iter()
        .map(|&trusted| {
            let r = run_trust(scale, seed, trusted);
            TrustRow {
                scheme: if trusted { "eigentrust" } else { "basic" }.to_string(),
                susceptibility: r.final_susceptibility(),
                mean_completion_s: r.mean_completion_time(),
                fr_mean_completion_s: fr_mean_completion(&r),
                fairness_f: r.final_fairness_stat(),
            }
        })
        .collect();
    let report = ExtensionsReport {
        scale: scale.name().to_string(),
        variants,
        trust,
    };
    let _ = crate::write_json(&format!("extensions_{}", scale.name()), &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propshare_without_optimism_degenerates_like_reciprocity() {
        // PropShare's auction admits only past contributors; remove the
        // optimistic share (α = 0) and nobody can ever make the first
        // move — the system collapses toward pure reciprocity, which is
        // exactly the paper's argument for why every practical mechanism
        // carries an altruistic bootstrap component. Free-riders get
        // (almost) nothing, but so does everyone else.
        let r = run(Scale::Quick, 61);
        let strict = r.variant("PropShare(a=0)", true);
        let stock = r.variant("BitTorrent", true);
        assert!(
            strict.completed_fraction < 0.1,
            "auction-only PropShare cannot bootstrap: {}",
            strict.completed_fraction
        );
        assert!(
            strict.susceptibility < stock.susceptibility * 0.5,
            "and leaks almost nothing: {} vs {}",
            strict.susceptibility,
            stock.susceptibility
        );
        // Regular PropShare (with its optimistic share) works fine.
        assert!(r.variant("PropShare", true).completed_fraction > 0.9);
    }

    #[test]
    fn bittyrant_leaks_less_peer_bandwidth_than_stock() {
        // No deliberate altruism: the strategic client stops funding
        // non-reciprocators, so free-riders capture a smaller share of
        // peer upload bandwidth than under the altruism-carrying stock
        // client.
        let r = run(Scale::Quick, 61);
        let tyrant = r.variant("BitTyrant", true);
        let stock = r.variant("BitTorrent", true);
        assert!(
            tyrant.susceptibility < stock.susceptibility,
            "{} vs {}",
            tyrant.susceptibility,
            stock.susceptibility
        );
    }

    #[test]
    fn all_variants_complete_without_attackers() {
        let r = run(Scale::Quick, 62);
        for variant in ["BitTorrent", "PropShare", "BitTyrant"] {
            assert!(
                r.variant(variant, false).completed_fraction > 0.9,
                "{}: {}",
                variant,
                r.variant(variant, false).completed_fraction
            );
        }
    }

    #[test]
    fn eigentrust_blunts_false_praise() {
        let r = run(Scale::Quick, 63);
        let basic = &r.trust[0];
        let trusted = &r.trust[1];
        assert_eq!(basic.scheme, "basic");
        // With inflated reputations, colluding free-riders capture the
        // reputation-weighted bandwidth share and finish fast; EigenTrust
        // zeroes their scores, so they crawl on the α_R trickle alone.
        match (trusted.fr_mean_completion_s, basic.fr_mean_completion_s) {
            (Some(t), Some(b)) => assert!(t > b, "EigenTrust should slow colluders: {t} vs {b}"),
            (None, Some(_)) => {}
            other => panic!("unexpected completion pattern {other:?}"),
        }
    }

    #[test]
    fn render_covers_both_sections() {
        let text = run(Scale::Quick, 64).render();
        assert!(text.contains("PropShare"));
        assert!(text.contains("eigentrust"));
    }
}
