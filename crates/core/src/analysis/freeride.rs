//! Free-riding susceptibility: Table III (Section IV-C).
//!
//! Two quantities bound what free-riders can obtain: the pool of
//! *exploitable resources* (upload bandwidth given without any reciprocity
//! requirement) and the probability that a *collusive* attack can trick a
//! legitimate user into releasing data.

use crate::MechanismKind;

/// Parameters of the Table III resource model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FreeRideParams {
    /// Total system upload capacity `Σ U_i`.
    pub total_capacity: f64,
    /// BitTorrent's optimistic-unchoke fraction `α_BT`.
    pub alpha_bt: f64,
    /// The reputation algorithm's altruistic fraction `α_R`.
    pub alpha_r: f64,
    /// FairTorrent's probability `ω` that a user owes data to at least one
    /// neighbor (only `1 − ω` of capacity can leak to strangers).
    pub omega: f64,
    /// The epoch-settled extension's open-epoch fraction `λ`: the share of
    /// time during which contributions have not yet settled into balances,
    /// so uploads fall back to the altruistic channel.
    pub epoch_open_fraction: f64,
}

impl Default for FreeRideParams {
    fn default() -> Self {
        FreeRideParams {
            total_capacity: 1.0,
            alpha_bt: 0.2,
            alpha_r: 0.1,
            omega: 0.75,
            epoch_open_fraction: 0.5,
        }
    }
}

/// Table III, column 1: upload bandwidth directly exploitable by
/// non-collusive free-riders.
///
/// * Reciprocity and T-Chain expose **zero** resources — every byte demands
///   reciprocation (T-Chain's encrypted pieces are useless without the
///   key).
/// * BitTorrent exposes its optimistic share `α_BT · ΣU`.
/// * FairTorrent exposes `(1 − ω) · ΣU` (zero-deficit strangers are served
///   only when no debts are outstanding).
/// * The reputation algorithm exposes its bootstrap share `α_R · ΣU`.
/// * Altruism exposes **everything**.
pub fn exploitable_resources(kind: MechanismKind, p: &FreeRideParams) -> f64 {
    match kind {
        MechanismKind::Reciprocity | MechanismKind::TChain => 0.0,
        MechanismKind::BitTorrent => p.alpha_bt * p.total_capacity,
        MechanismKind::FairTorrent => (1.0 - p.omega) * p.total_capacity,
        // ConsensusReputation exposes the same α_R bootstrap share while a
        // free-rider is unbanned; bans (a dynamic effect the simulator
        // measures) then cut even that off.
        MechanismKind::Reputation | MechanismKind::ConsensusReputation => {
            p.alpha_r * p.total_capacity
        }
        MechanismKind::Altruism => p.total_capacity,
        // Beyond the paper: while an epoch is open, earned balances have
        // not settled yet, so the whole open-epoch fraction of capacity
        // leaks through the altruistic fallback. λ → 0 recovers the
        // FairTorrent-style bound, λ → 1 the altruism row.
        MechanismKind::EpochSettlement => p.epoch_open_fraction * p.total_capacity,
    }
}

/// Table III, column 2: the probability that a collusive attack succeeds
/// in one interaction.
///
/// * `None` — collusion offers no advantage (reciprocity, BitTorrent,
///   FairTorrent: no third party is ever consulted; altruism needs no
///   collusion because everything is already free).
/// * T-Chain: collusion fires only when (a) indirect reciprocity occurs
///   (probability `π_IR`) *and* (b) both the receiver and the designated
///   confirmation target are among the `m` colluders:
///   `π_IR · m(m−1) / (N(N−1))` — "generally quite low".
/// * Reputation: `Some(1.0)` — colluders can always inflate each other's
///   scores with false praise.
pub fn collusion_probability(
    kind: MechanismKind,
    pi_ir: f64,
    colluders: u64,
    n: u64,
) -> Option<f64> {
    match kind {
        MechanismKind::TChain => {
            if n < 2 {
                return Some(0.0);
            }
            let m = colluders as f64;
            let n = n as f64;
            Some((pi_ir * m * (m - 1.0) / (n * (n - 1.0))).clamp(0.0, 1.0))
        }
        // A consensus ring's matched fabricated reports also credit on
        // every interaction; the defense punishes afterward (strikes and
        // bans), which the static table does not model.
        MechanismKind::Reputation | MechanismKind::ConsensusReputation => Some(1.0),
        MechanismKind::Reciprocity
        | MechanismKind::BitTorrent
        | MechanismKind::FairTorrent
        // Epoch balances derive from each uploader's local receipt ledger,
        // like FairTorrent deficits — no third party is ever consulted.
        | MechanismKind::EpochSettlement
        | MechanismKind::Altruism => None,
    }
}

/// The FairTorrent deficit bound from Sherman et al. \[7\], cited in Section
/// IV-C: over time an honest user's deficit with any peer is `O(log N)`
/// pieces, which bounds what a single (even whitewashing) free-rider can
/// extract per identity. We expose the bound with unit constant.
pub fn fairtorrent_deficit_bound(n: u64) -> f64 {
    (n.max(2) as f64).ln()
}

/// Convenience: ranks the six algorithms by exploitable resources,
/// ascending (most resistant first) — Fig. 5a's expected ordering.
pub fn susceptibility_ranking(p: &FreeRideParams) -> Vec<(MechanismKind, f64)> {
    let mut v: Vec<(MechanismKind, f64)> = MechanismKind::ALL
        .iter()
        .map(|&k| (k, exploitable_resources(k, p)))
        .collect();
    v.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_resource_column() {
        let p = FreeRideParams {
            total_capacity: 100.0,
            alpha_bt: 0.2,
            alpha_r: 0.1,
            omega: 0.75,
            epoch_open_fraction: 0.5,
        };
        assert_eq!(exploitable_resources(MechanismKind::Reciprocity, &p), 0.0);
        assert_eq!(exploitable_resources(MechanismKind::TChain, &p), 0.0);
        assert!((exploitable_resources(MechanismKind::BitTorrent, &p) - 20.0).abs() < 1e-12);
        assert!((exploitable_resources(MechanismKind::FairTorrent, &p) - 25.0).abs() < 1e-12);
        assert!((exploitable_resources(MechanismKind::Reputation, &p) - 10.0).abs() < 1e-12);
        assert_eq!(exploitable_resources(MechanismKind::Altruism, &p), 100.0);
        assert!((exploitable_resources(MechanismKind::EpochSettlement, &p) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn epoch_settlement_susceptibility_limits() {
        let mut p = FreeRideParams {
            epoch_open_fraction: 0.0,
            ..FreeRideParams::default()
        };
        assert_eq!(
            exploitable_resources(MechanismKind::EpochSettlement, &p),
            0.0
        );
        p.epoch_open_fraction = 1.0;
        assert_eq!(
            exploitable_resources(MechanismKind::EpochSettlement, &p),
            exploitable_resources(MechanismKind::Altruism, &p)
        );
        assert_eq!(
            collusion_probability(MechanismKind::EpochSettlement, 0.5, 100, 1000),
            None
        );
    }

    #[test]
    fn ranking_puts_reciprocity_class_first_and_altruism_last() {
        let ranking = susceptibility_ranking(&FreeRideParams::default());
        assert_eq!(ranking[0].1, 0.0);
        assert_eq!(ranking[1].1, 0.0);
        let first_two: Vec<MechanismKind> = ranking[..2].iter().map(|&(k, _)| k).collect();
        assert!(first_two.contains(&MechanismKind::Reciprocity));
        assert!(first_two.contains(&MechanismKind::TChain));
        assert_eq!(ranking[5].0, MechanismKind::Altruism);
    }

    #[test]
    fn tchain_collusion_is_rare() {
        // 200 colluders among 1000 users with π_IR = 0.3 still yields a
        // well-below-1 probability.
        let p = collusion_probability(MechanismKind::TChain, 0.3, 200, 1000).unwrap();
        let expected = 0.3 * 200.0 * 199.0 / (1000.0 * 999.0);
        assert!((p - expected).abs() < 1e-12);
        assert!(p < 0.02);
    }

    #[test]
    fn tchain_collusion_needs_two_colluders() {
        let p = collusion_probability(MechanismKind::TChain, 0.5, 1, 1000).unwrap();
        assert_eq!(p, 0.0);
    }

    #[test]
    fn reputation_collusion_always_succeeds() {
        assert_eq!(
            collusion_probability(MechanismKind::Reputation, 0.0, 2, 1000),
            Some(1.0)
        );
    }

    #[test]
    fn non_third_party_algorithms_have_no_collusion() {
        for kind in [
            MechanismKind::Reciprocity,
            MechanismKind::BitTorrent,
            MechanismKind::FairTorrent,
            MechanismKind::Altruism,
        ] {
            assert_eq!(collusion_probability(kind, 0.5, 100, 1000), None, "{kind}");
        }
    }

    #[test]
    fn deficit_bound_grows_logarithmically() {
        assert!(fairtorrent_deficit_bound(1000) > fairtorrent_deficit_bound(100));
        assert!(fairtorrent_deficit_bound(1_000_000) < 20.0);
    }
}
