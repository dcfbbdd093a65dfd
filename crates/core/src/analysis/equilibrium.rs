//! Idealized-equilibrium rates: Lemmas 1–2, Table I, Corollary 1.
//!
//! All quantities assume equilibrium with perfect piece availability and no
//! free-riders. Rates are in the same units as the capacity vector.

use crate::analysis::capacity::CapacityVector;
use crate::metrics::{efficiency_from_rates, fairness_stat};
use crate::MechanismKind;

/// Parameters of the equilibrium model (Table I's `α_BT`, `n_BT`, `α_R`
/// and the seeder rate `u_S`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EquilibriumParams {
    /// BitTorrent's optimistic-unchoke bandwidth fraction `α_BT`.
    pub alpha_bt: f64,
    /// BitTorrent's number of reciprocal unchoke slots `n_BT`.
    pub n_bt: usize,
    /// The reputation algorithm's altruistic fraction `α_R`.
    pub alpha_r: f64,
    /// Total seeder upload rate `u_S` (each user receives `u_S / N`).
    pub seeder_rate: f64,
    /// Epoch length in rounds for the epoch-settled extension.
    pub epoch_rounds: f64,
    /// The contribution horizon in rounds a user's equilibrium behavior
    /// averages over — the characteristic time its settled balances
    /// steer allocations before the next epoch reopens. The open-epoch
    /// fraction `λ = epoch_rounds / (epoch_rounds + epoch_horizon)` is
    /// served altruistically; the settled fraction `1 − λ`
    /// contribution-proportionally.
    pub epoch_horizon: f64,
}

impl Default for EquilibriumParams {
    fn default() -> Self {
        EquilibriumParams {
            alpha_bt: 0.2,
            n_bt: 4,
            alpha_r: 0.1,
            seeder_rate: 0.0,
            epoch_rounds: 16.0,
            epoch_horizon: 16.0,
        }
    }
}

impl EquilibriumParams {
    /// The open-epoch fraction `λ ∈ [0, 1)` of the epoch-settled row:
    /// the share of a user's received bandwidth arriving through the
    /// unsettled (altruistic) channel. `λ → 0` as the epoch shrinks
    /// (everything settles, FairTorrent-shaped) and `λ → 1` as it grows
    /// past the horizon (nothing settles, altruism-shaped).
    pub fn epoch_open_fraction(&self) -> f64 {
        self.epoch_rounds / (self.epoch_rounds + self.epoch_horizon)
    }
}

/// Lemma 2: equilibrium upload rates. Every algorithm saturates `u_i = U_i`
/// except pure reciprocity, whose users can never initiate an exchange and
/// therefore upload nothing.
pub fn upload_rates(kind: MechanismKind, caps: &CapacityVector) -> Vec<f64> {
    match kind {
        MechanismKind::Reciprocity => vec![0.0; caps.len()],
        _ => caps.as_slice().to_vec(),
    }
}

/// Table I: the download *utilization* `d_i − u_S/N` of user `i` (0-based
/// rank in the descending capacity order) in equilibrium with perfect piece
/// availability and no free-riders.
///
/// The BitTorrent row follows the tit-for-tat clustering model of Fan et
/// al. \[10\]: user `i` exchanges with the `n_BT` users in its own
/// capacity-rank window, so its reciprocal download rate is the window
/// average; the remaining `α_BT` share arrives through uniformly random
/// optimistic unchokes.
///
/// # Panics
///
/// Panics if `i` is out of range.
pub fn download_utilization(
    kind: MechanismKind,
    i: usize,
    caps: &CapacityVector,
    params: &EquilibriumParams,
) -> f64 {
    let u = caps.as_slice();
    let n = u.len();
    assert!(i < n, "user index {i} out of range 0..{n}");
    let altruistic_share = caps.total_excluding(i) / (n as f64 - 1.0);
    match kind {
        MechanismKind::Reciprocity => 0.0,
        MechanismKind::TChain | MechanismKind::FairTorrent => u[i],
        MechanismKind::Altruism => altruistic_share,
        MechanismKind::BitTorrent => {
            // Average capacity over user i's tit-for-tat window of n_BT
            // similarly-ranked users.
            let w = params.n_bt.min(n);
            let start = (i / w) * w;
            let end = (start + w).min(n);
            let window_avg: f64 = u[start..end].iter().sum::<f64>() / (end - start) as f64;
            (1.0 - params.alpha_bt) * window_avg + params.alpha_bt * altruistic_share
        }
        // ConsensusReputation shares the reputation row: in equilibrium
        // every transfer is confirmed by its counterpart, so consensus
        // scores equal claimed upload totals and the allocation law is
        // identical (score-proportional plus the α_R bootstrap share).
        MechanismKind::Reputation | MechanismKind::ConsensusReputation => {
            // d_i − u_S/N = U_i Σ_{j≠i} (1−α_R) U_j / Σ_{k≠j} U_k
            //             + α_R Σ_{k≠i} U_k / (N−1).
            let rep_term: f64 = (0..n)
                .filter(|&j| j != i)
                .map(|j| (1.0 - params.alpha_r) * u[j] / caps.total_excluding(j))
                .sum();
            u[i] * rep_term + params.alpha_r * altruistic_share
        }
        // Beyond the paper, in Table I's style: the settled share of a
        // user's bandwidth is paid back contribution-proportionally
        // (`u_i`, the T-Chain/FairTorrent row) and the open-epoch share
        // arrives altruistically (the Altruism row). Both rows conserve
        // bandwidth exactly, so any λ-blend does too.
        MechanismKind::EpochSettlement => {
            let lambda = params.epoch_open_fraction();
            (1.0 - lambda) * u[i] + lambda * altruistic_share
        }
    }
}

/// Table I applied to every user: full equilibrium download rates
/// `d_i = utilization + u_S/N`.
pub fn download_rates(
    kind: MechanismKind,
    caps: &CapacityVector,
    params: &EquilibriumParams,
) -> Vec<f64> {
    let seeder_each = params.seeder_rate / caps.len() as f64;
    (0..caps.len())
        .map(|i| download_utilization(kind, i, caps, params) + seeder_each)
        .collect()
}

/// Lemma 1: the efficiency-optimal download allocation — every user
/// downloads at the same rate `d* = (Σ U_i + u_S)/N`. No algorithm in
/// Table I achieves it (Corollary 1).
pub fn optimal_download_rates(caps: &CapacityVector, seeder_rate: f64) -> Vec<f64> {
    let d = (caps.total() + seeder_rate) / caps.len() as f64;
    vec![d; caps.len()]
}

/// A (fairness `F`, efficiency `E`) summary of one algorithm at
/// equilibrium, used to reproduce Fig. 2's ranking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EquilibriumSummary {
    /// The paper's `F` statistic (Eq. 3); 0 is perfectly fair,
    /// infinity when no user uploads (reciprocity).
    pub fairness: f64,
    /// The paper's `E` statistic (Eq. 2, average unit-file download time);
    /// lower is better, infinity when no user finishes.
    pub efficiency: f64,
}

/// Computes the Fig. 2 fairness/efficiency point for one algorithm.
pub fn equilibrium_summary(
    kind: MechanismKind,
    caps: &CapacityVector,
    params: &EquilibriumParams,
) -> EquilibriumSummary {
    let u = upload_rates(kind, caps);
    let d = download_rates(kind, caps, params);
    let pairs: Vec<(f64, f64)> = u.iter().copied().zip(d.iter().copied()).collect();
    let (fairness, skipped) = fairness_stat(&pairs);
    let fairness = if skipped == caps.len() {
        f64::INFINITY
    } else {
        fairness
    };
    EquilibriumSummary {
        fairness,
        efficiency: efficiency_from_rates(&d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> CapacityVector {
        // 12 users across three capacity levels, no dominant user.
        CapacityVector::new(vec![
            8.0, 8.0, 8.0, 8.0, 4.0, 4.0, 4.0, 4.0, 2.0, 2.0, 2.0, 2.0,
        ])
        .unwrap()
    }

    fn params() -> EquilibriumParams {
        EquilibriumParams {
            seeder_rate: 0.0,
            ..EquilibriumParams::default()
        }
    }

    #[test]
    fn lemma2_upload_rates() {
        let c = caps();
        assert!(upload_rates(MechanismKind::Reciprocity, &c)
            .iter()
            .all(|&u| u == 0.0));
        for kind in [
            MechanismKind::TChain,
            MechanismKind::BitTorrent,
            MechanismKind::FairTorrent,
            MechanismKind::Reputation,
            MechanismKind::Altruism,
        ] {
            assert_eq!(upload_rates(kind, &c), c.as_slice().to_vec(), "{kind}");
        }
    }

    #[test]
    fn tchain_fairtorrent_download_equals_capacity() {
        let c = caps();
        let p = params();
        for kind in [MechanismKind::TChain, MechanismKind::FairTorrent] {
            for i in 0..c.len() {
                assert_eq!(
                    download_utilization(kind, i, &c, &p),
                    c.as_slice()[i],
                    "{kind} user {i}"
                );
            }
        }
    }

    #[test]
    fn altruism_download_is_capacity_independent_mean() {
        let c = caps();
        let p = params();
        // Every altruism user gets ~ the mean of everyone else's capacity.
        let d0 = download_utilization(MechanismKind::Altruism, 0, &c, &p);
        let expected = c.total_excluding(0) / (c.len() as f64 - 1.0);
        assert!((d0 - expected).abs() < 1e-12);
    }

    #[test]
    fn conservation_of_bandwidth_per_algorithm() {
        // Σ d_i == Σ u_i (+ seeder) for every algorithm (Eq. 1): total
        // download equals total upload.
        let c = caps();
        let p = params();
        for kind in MechanismKind::ALL {
            let d: f64 = download_rates(kind, &c, &p).iter().sum();
            let u: f64 = upload_rates(kind, &c).iter().sum();
            // Altruism/T-Chain/FairTorrent conserve exactly; BitTorrent's
            // window model and reputation's Σ_{j≠i} approximation are
            // conservative to within a few percent (the paper itself uses
            // "≈" for the reputation row).
            if matches!(
                kind,
                MechanismKind::Reciprocity
                    | MechanismKind::TChain
                    | MechanismKind::FairTorrent
                    | MechanismKind::Altruism
                    | MechanismKind::BitTorrent
            ) {
                assert!((d - u).abs() < 1e-9, "{kind}: Σd = {d}, Σu = {u}");
            } else {
                assert!((d - u).abs() / u < 0.05, "{kind}: Σd = {d}, Σu = {u}");
            }
        }
    }

    #[test]
    fn corollary1_tchain_fairtorrent_perfectly_fair() {
        let c = caps();
        let p = params();
        for kind in [MechanismKind::TChain, MechanismKind::FairTorrent] {
            let s = equilibrium_summary(kind, &c, &p);
            assert_eq!(s.fairness, 0.0, "{kind}");
        }
        for kind in [
            MechanismKind::BitTorrent,
            MechanismKind::Reputation,
            MechanismKind::Altruism,
        ] {
            let s = equilibrium_summary(kind, &c, &p);
            assert!(s.fairness > 0.0, "{kind} should be imperfectly fair");
        }
    }

    #[test]
    fn corollary1_efficiency_ordering() {
        // Altruism most efficient; BitTorrent and reputation more efficient
        // than T-Chain/FairTorrent; nothing beats the Lemma 1 optimum.
        let c = caps();
        let p = params();
        let e = |kind| equilibrium_summary(kind, &c, &p).efficiency;
        let e_opt = efficiency_from_rates(&optimal_download_rates(&c, 0.0));
        let e_alt = e(MechanismKind::Altruism);
        let e_bt = e(MechanismKind::BitTorrent);
        let e_rep = e(MechanismKind::Reputation);
        let e_tc = e(MechanismKind::TChain);
        let e_ft = e(MechanismKind::FairTorrent);
        assert!(e_opt < e_alt, "optimum beats altruism: {e_opt} < {e_alt}");
        assert!(e_alt < e_bt, "altruism beats BitTorrent");
        assert!(e_alt < e_rep, "altruism beats reputation");
        assert!(e_bt < e_tc, "BitTorrent beats T-Chain in the ideal case");
        assert!(e_rep < e_tc, "reputation beats T-Chain in the ideal case");
        assert_eq!(e_tc, e_ft, "T-Chain and FairTorrent tie");
        assert!(e(MechanismKind::Reciprocity).is_infinite());
    }

    #[test]
    fn reciprocity_fairness_undefined() {
        let s = equilibrium_summary(MechanismKind::Reciprocity, &caps(), &params());
        assert!(s.fairness.is_infinite());
        assert!(s.efficiency.is_infinite());
    }

    #[test]
    fn seeder_rate_lifts_all_download_rates() {
        let c = caps();
        let mut p = params();
        let before = download_rates(MechanismKind::Altruism, &c, &p);
        p.seeder_rate = 12.0;
        let after = download_rates(MechanismKind::Altruism, &c, &p);
        for (b, a) in before.iter().zip(&after) {
            assert!((a - b - 1.0).abs() < 1e-12); // u_S/N = 12/12 = 1
        }
    }

    #[test]
    fn lemma1_optimum_is_equal_split() {
        let c = caps();
        let opt = optimal_download_rates(&c, 12.0);
        let expected = (c.total() + 12.0) / c.len() as f64;
        assert!(opt.iter().all(|&d| (d - expected).abs() < 1e-12));
        // And it is the unique minimizer of E over allocations with the
        // same total: any perturbation increases E.
        let e_opt = efficiency_from_rates(&opt);
        let mut perturbed = opt.clone();
        perturbed[0] += 0.5;
        perturbed[1] -= 0.5;
        assert!(efficiency_from_rates(&perturbed) > e_opt);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn download_utilization_bounds_checked() {
        download_utilization(MechanismKind::Altruism, 99, &caps(), &params());
    }

    #[test]
    fn epoch_settlement_conserves_bandwidth_exactly() {
        let c = caps();
        let p = params();
        let d: f64 = download_rates(MechanismKind::EpochSettlement, &c, &p)
            .iter()
            .sum();
        let u: f64 = upload_rates(MechanismKind::EpochSettlement, &c)
            .iter()
            .sum();
        assert!((d - u).abs() < 1e-9, "Σd = {d}, Σu = {u}");
    }

    #[test]
    fn epoch_settlement_limits_recover_fairtorrent_and_altruism() {
        let c = caps();
        let mut p = params();
        for i in 0..c.len() {
            // epoch → 0: every contribution settles immediately, the
            // FairTorrent/T-Chain row.
            p.epoch_rounds = 0.0;
            assert_eq!(
                download_utilization(MechanismKind::EpochSettlement, i, &c, &p),
                download_utilization(MechanismKind::FairTorrent, i, &c, &p),
                "user {i}"
            );
            // epoch → ∞: nothing ever settles, the Altruism row.
            p.epoch_rounds = 1e15;
            let d = download_utilization(MechanismKind::EpochSettlement, i, &c, &p);
            let alt = download_utilization(MechanismKind::Altruism, i, &c, &p);
            assert!(
                (d - alt).abs() < 1e-9 * alt.max(1.0),
                "user {i}: {d} vs {alt}"
            );
        }
    }

    #[test]
    fn epoch_settlement_interpolates_between_the_extremes() {
        let c = caps();
        let p = params(); // default λ = 0.5
                          // The strongest user downloads less than under FairTorrent (some
                          // of its earned bandwidth leaks altruistically), the weakest
                          // downloads more.
        let ft = |i| download_utilization(MechanismKind::FairTorrent, i, &c, &p);
        let alt = |i| download_utilization(MechanismKind::Altruism, i, &c, &p);
        let ep = |i| download_utilization(MechanismKind::EpochSettlement, i, &c, &p);
        assert!(ep(0) < ft(0) && ep(0) > alt(0));
        let last = c.len() - 1;
        assert!(ep(last) > ft(last) && ep(last) < alt(last));
    }
}
