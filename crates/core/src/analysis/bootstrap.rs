//! Bootstrapping analysis: Table II, Lemma 3, Proposition 4 (Section IV-B).
//!
//! `T_B(P)` is the time for `P` flash-crowd newcomers to each receive at
//! least one piece. Table II gives the per-timeslot probability `p_B` that
//! a single newcomer is bootstrapped, given `z(t)` already-bootstrapped
//! users; Lemma 3 converts `p_B(t)` into the expected bootstrap time.

use crate::MechanismKind;

/// The parameters of Table II.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BootstrapParams {
    /// Total number of users `N`.
    pub n: u64,
    /// Users bootstrapped by the seeder per timeslot, `n_S`.
    pub n_s: u64,
    /// Average pieces uploadable per user per timeslot, `K`.
    pub k: u64,
    /// Number of already-bootstrapped users, `z(t)`.
    pub z: u64,
    /// Probability of direct reciprocity in T-Chain, `π_DR`.
    pub pi_dr: f64,
    /// BitTorrent's reciprocal unchoke slots, `n_BT`.
    pub n_bt: u64,
    /// FairTorrent's probability of owing data to at least one peer, `ω`.
    pub omega: f64,
    /// Number of zero-deficit users in FairTorrent, `n_FT`.
    pub n_ft: u64,
}

impl BootstrapParams {
    /// The example column of Table II: `N = 1000, n_S = 1, K = 5, z = 500,
    /// π_DR = 0.5, n_BT = 4, ω = 0.75, n_FT = 500`.
    pub fn paper_example() -> Self {
        BootstrapParams {
            n: 1000,
            n_s: 1,
            k: 5,
            z: 500,
            pi_dr: 0.5,
            n_bt: 4,
            omega: 0.75,
            n_ft: 500,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency (e.g. `N < 3`,
    /// probabilities outside `[0, 1]`, `n_FT ≤ K + 1`).
    pub fn validate(&self) -> Result<(), String> {
        if self.n < 3 {
            return Err(format!("N must be at least 3, got {}", self.n));
        }
        if self.n_s > self.n {
            return Err("n_S cannot exceed N".to_string());
        }
        if !(0.0..=1.0).contains(&self.pi_dr) {
            return Err(format!("π_DR must be in [0,1], got {}", self.pi_dr));
        }
        if !(0.0..=1.0).contains(&self.omega) {
            return Err(format!("ω must be in [0,1], got {}", self.omega));
        }
        if self.n_bt + 2 >= self.n {
            return Err("N must exceed n_BT + 2".to_string());
        }
        if self.n_ft < self.k + 2 {
            return Err(format!(
                "n_FT must be at least K + 2 (got n_FT = {}, K = {})",
                self.n_ft, self.k
            ));
        }
        Ok(())
    }
}

/// Table II: the probability that a single newcomer is bootstrapped in one
/// timeslot under the given algorithm.
///
/// # Panics
///
/// Panics if the parameters fail [`BootstrapParams::validate`].
pub fn bootstrap_probability(kind: MechanismKind, p: &BootstrapParams) -> f64 {
    p.validate()
        .unwrap_or_else(|e| panic!("invalid bootstrap parameters: {e}"));
    let n = p.n as f64;
    let n_s = p.n_s as f64;
    let seeder_miss = (n - n_s) / n;
    let kz = (p.k * p.z) as f64;
    let z = p.z as f64;
    let x = match kind {
        // Peers never bootstrap each other; only the seeder does.
        MechanismKind::Reciprocity => 1.0,
        MechanismKind::TChain => (((n - 2.0) + p.pi_dr) / (n - 1.0)).powf(kz),
        MechanismKind::BitTorrent => {
            let nb = p.n_bt as f64;
            ((n - nb - 2.0) / (n - nb - 1.0)).powf(z)
        }
        MechanismKind::FairTorrent => {
            let nft = p.n_ft as f64;
            let kf = p.k as f64;
            (p.omega + (1.0 - p.omega) * (nft - kf - 1.0) / (nft - 1.0)).powf(z)
        }
        MechanismKind::Reputation => ((n - 2.0) / (n - 1.0)).powf(z / 2.0),
        MechanismKind::Altruism => ((n - 2.0) / (n - 1.0)).powf(kz),
        // Beyond the paper: newcomers have no settled balances, so during
        // an open epoch only the altruistic remainder reaches them. Each
        // bootstrapped user spends most of its K pieces repaying settled
        // creditors, leaving ~one altruistic piece per timeslot — the
        // reputation row's shape (z/2 effective altruistic uploads).
        MechanismKind::EpochSettlement => ((n - 2.0) / (n - 1.0)).powf(z / 2.0),
        // Beyond the paper: newcomers start with zero consensus score
        // (there is no pre-trusted root to inherit from), so exactly as in
        // the reputation row only the altruistic α_R share reaches them.
        MechanismKind::ConsensusReputation => ((n - 2.0) / (n - 1.0)).powf(z / 2.0),
    };
    1.0 - seeder_miss * x
}

/// Lemma 3: the expected time until all `P` newcomers are bootstrapped,
/// `E[T_B(P)] = Σ_{n≥1} (1 − (1 − Π_{t=1}^n (1 − p_B(t)))^P)`,
/// where `p_B(t)` is supplied per timeslot (1-based).
///
/// The sum is truncated once the tail term drops below `tol` or after
/// `max_terms` timeslots, whichever comes first.
pub fn expected_bootstrap_time<F>(p_newcomers: u64, mut p_b: F, tol: f64, max_terms: u64) -> f64
where
    F: FnMut(u64) -> f64,
{
    assert!(p_newcomers > 0, "need at least one newcomer");
    // E[T] = Σ_{n≥0} P(T > n); the n = 0 term is 1 (bootstrapping takes at
    // least one timeslot), and each later term is Eq. (10)'s summand.
    let mut expectation = 1.0;
    let mut survive = 1.0; // Π_{t≤n} (1 − p_B(t)) — P(one newcomer still not bootstrapped)
    for t in 1..=max_terms {
        let pb = p_b(t).clamp(0.0, 1.0);
        survive *= 1.0 - pb;
        // P(T_B > n) for all P newcomers = 1 − (1 − survive)^P.
        let term = 1.0 - (1.0 - survive).powf(p_newcomers as f64);
        expectation += term;
        if term < tol {
            break;
        }
    }
    expectation
}

/// One step of the mean-field bootstrapping dynamics: starting from `z`
/// bootstrapped users out of `n_total`, the expected number bootstrapped
/// after one timeslot of the given algorithm.
pub fn mean_field_step(kind: MechanismKind, params: &BootstrapParams, n_total: u64) -> f64 {
    let pb = bootstrap_probability(kind, params);
    let unboot = n_total.saturating_sub(params.z) as f64;
    params.z as f64 + unboot * pb
}

/// Simulates the mean-field evolution of `z(t)` for `rounds` timeslots and
/// returns the trajectory (starting value included). The trajectory is the
/// analytic counterpart of the paper's Fig. 4c bootstrap curves.
pub fn mean_field_trajectory(
    kind: MechanismKind,
    base: &BootstrapParams,
    z0: u64,
    rounds: u64,
) -> Vec<f64> {
    let mut z = z0 as f64;
    let mut out = vec![z];
    for _ in 0..rounds {
        let mut p = *base;
        p.z = z.round() as u64;
        let next = mean_field_step(kind, &p, base.n).min(base.n as f64);
        z = next;
        out.push(z);
    }
    out
}

/// Proposition 4's first condition, Eq. (14): altruism bootstraps fastest
/// when `K ≥ 2`, `N ≫ K`, and
/// `(1 − ω)(N − 1)/(n_FT − 1) ≤ (1 − 1/(N − 1))^{K−1}`.
pub fn prop4_altruism_fastest(p: &BootstrapParams) -> bool {
    if p.k < 2 {
        return false;
    }
    let n = p.n as f64;
    let lhs = (1.0 - p.omega) * (n - 1.0) / (p.n_ft as f64 - 1.0);
    let rhs = (1.0 - 1.0 / (n - 1.0)).powf(p.k as f64 - 1.0);
    lhs <= rhs
}

/// The pairwise comparisons proved in Proposition 4's appendix, evaluated
/// as predicates on concrete parameters. Each returns whether the
/// condition under which the paper proves the ordering holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prop4Conditions {
    /// Altruism ≥ T-Chain (always true; the proof is unconditional).
    pub altruism_beats_tchain: bool,
    /// Altruism ≥ FairTorrent (requires Eq. 14).
    pub altruism_beats_fairtorrent: bool,
    /// Altruism ≥ BitTorrent (requires `N ≫ K ≥ n_BT`-style size
    /// conditions; checked directly on the probabilities).
    pub altruism_beats_bittorrent: bool,
    /// T-Chain ≥ BitTorrent (the appendix proves it for
    /// `π_DR ≤ 1/2` and sufficiently large `N`).
    pub tchain_beats_bittorrent: bool,
    /// FairTorrent ≥ BitTorrent (requires `n_FT ≥ N − n_BT` and
    /// `ω ≤ 1 − 1/K`).
    pub fairtorrent_beats_bittorrent: bool,
    /// BitTorrent ≥ reputation (always true; cross-multiplication).
    pub bittorrent_beats_reputation: bool,
}

/// Evaluates every Proposition 4 pairwise claim at the given parameters by
/// comparing the Table II probabilities directly, alongside the sufficient
/// conditions the appendix derives.
pub fn prop4_pairwise(p: &BootstrapParams) -> Prop4Conditions {
    let prob = |k| bootstrap_probability(k, p);
    let tol = 1e-12;
    Prop4Conditions {
        altruism_beats_tchain: prob(MechanismKind::Altruism) >= prob(MechanismKind::TChain) - tol,
        altruism_beats_fairtorrent: prob(MechanismKind::Altruism)
            >= prob(MechanismKind::FairTorrent) - tol,
        altruism_beats_bittorrent: prob(MechanismKind::Altruism)
            >= prob(MechanismKind::BitTorrent) - tol,
        tchain_beats_bittorrent: prob(MechanismKind::TChain)
            >= prob(MechanismKind::BitTorrent) - tol,
        fairtorrent_beats_bittorrent: prob(MechanismKind::FairTorrent)
            >= prob(MechanismKind::BitTorrent) - tol,
        bittorrent_beats_reputation: prob(MechanismKind::BitTorrent)
            >= prob(MechanismKind::Reputation) - tol,
    }
}

/// The appendix's sufficient condition for T-Chain ≥ BitTorrent:
/// `π_DR ≤ 1/2` with `N` sufficiently large and `K ≥ 2` ("if K = 2, it is
/// sufficient for π_DR, ω ≤ 1/2").
pub fn prop4_tchain_condition(p: &BootstrapParams) -> bool {
    p.k >= 2 && p.pi_dr <= 0.5 && p.n >= 10 * p.n_bt
}

/// The appendix's sufficient condition for FairTorrent ≥ BitTorrent:
/// `n_FT ≥ N − n_BT` and `ω ≤ 1 − 1/K`.
pub fn prop4_fairtorrent_condition(p: &BootstrapParams) -> bool {
    p.k >= 1 && p.n_ft >= p.n.saturating_sub(p.n_bt) && p.omega <= 1.0 - 1.0 / p.k as f64
}

/// Proposition 4's qualitative ordering at the given parameters: returns
/// the six algorithms sorted by decreasing bootstrap probability.
pub fn bootstrap_ranking(p: &BootstrapParams) -> Vec<(MechanismKind, f64)> {
    let mut v: Vec<(MechanismKind, f64)> = MechanismKind::ALL
        .iter()
        .map(|&k| (k, bootstrap_probability(k, p)))
        .collect();
    v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("probabilities are finite"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_example_column() {
        // The paper's Table II sample probabilities: 0.1%, 71.4%, 39.6%,
        // 71.4%, 22.2%, 91.8%.
        let p = BootstrapParams::paper_example();
        let cases = [
            (MechanismKind::Reciprocity, 0.001),
            (MechanismKind::TChain, 0.714),
            (MechanismKind::BitTorrent, 0.396),
            (MechanismKind::FairTorrent, 0.714),
            (MechanismKind::Reputation, 0.222),
            (MechanismKind::Altruism, 0.918),
        ];
        for (kind, expected) in cases {
            let got = bootstrap_probability(kind, &p);
            assert!(
                (got - expected).abs() < 0.001,
                "{kind}: got {got:.4}, paper says {expected}"
            );
        }
    }

    #[test]
    fn prop4_ordering_at_paper_example() {
        // Altruism > {T-Chain, FairTorrent} > BitTorrent > Reputation >
        // Reciprocity.
        let p = BootstrapParams::paper_example();
        let ranking = bootstrap_ranking(&p);
        let names: Vec<MechanismKind> = ranking.iter().map(|&(k, _)| k).collect();
        assert_eq!(names[0], MechanismKind::Altruism);
        assert_eq!(names[5], MechanismKind::Reciprocity);
        assert_eq!(names[4], MechanismKind::Reputation);
        assert_eq!(names[3], MechanismKind::BitTorrent);
        assert!(prop4_altruism_fastest(&p));
    }

    #[test]
    fn tchain_equals_altruism_when_pi_dr_zero() {
        let mut p = BootstrapParams::paper_example();
        p.pi_dr = 0.0;
        let tc = bootstrap_probability(MechanismKind::TChain, &p);
        let alt = bootstrap_probability(MechanismKind::Altruism, &p);
        assert!((tc - alt).abs() < 1e-12);
    }

    #[test]
    fn fairtorrent_equals_altruism_when_omega_zero_and_nft_tracks() {
        // Prop. 4: with ω = 0 FairTorrent's miss factor becomes
        // (n_FT−K−1)/(n_FT−1) per bootstrapped user; as n_FT → N this
        // approaches altruism's (1 − 1/(N−1))^K per-user factor.
        let mut p = BootstrapParams::paper_example();
        p.omega = 0.0;
        p.n_ft = p.n;
        let ft = bootstrap_probability(MechanismKind::FairTorrent, &p);
        let alt = bootstrap_probability(MechanismKind::Altruism, &p);
        assert!(
            (ft - alt).abs() < 0.02,
            "ft = {ft}, alt = {alt} should nearly coincide"
        );
    }

    #[test]
    fn probabilities_increase_with_z() {
        for kind in [
            MechanismKind::TChain,
            MechanismKind::BitTorrent,
            MechanismKind::Reputation,
            MechanismKind::Altruism,
        ] {
            let mut p = BootstrapParams::paper_example();
            p.z = 100;
            let lo = bootstrap_probability(kind, &p);
            p.z = 800;
            let hi = bootstrap_probability(kind, &p);
            assert!(hi > lo, "{kind}: more seeds should bootstrap faster");
        }
    }

    #[test]
    fn reciprocity_is_seeder_only() {
        let mut p = BootstrapParams::paper_example();
        let base = bootstrap_probability(MechanismKind::Reciprocity, &p);
        assert!((base - 0.001).abs() < 1e-9);
        p.z = 999; // even with everyone bootstrapped, peers never help
        let still = bootstrap_probability(MechanismKind::Reciprocity, &p);
        assert!((still - 0.001).abs() < 1e-9);
    }

    #[test]
    fn lemma3_geometric_special_case() {
        // With constant p_B = p and a single newcomer, T_B is geometric
        // with mean 1/p.
        for p in [0.1, 0.25, 0.5] {
            let e = expected_bootstrap_time(1, |_| p, 1e-12, 100_000);
            assert!((e - 1.0 / p).abs() < 1e-6, "p = {p}: E = {e}");
        }
    }

    #[test]
    fn lemma3_maximum_of_many_newcomers_is_larger() {
        let single = expected_bootstrap_time(1, |_| 0.3, 1e-12, 100_000);
        let crowd = expected_bootstrap_time(1000, |_| 0.3, 1e-12, 100_000);
        assert!(crowd > single);
        // E[max of P geometrics] ≈ H_P / -ln(1-p) for large P; sanity bound.
        assert!(crowd < 50.0);
    }

    #[test]
    fn lemma3_monotone_in_probability() {
        let slow = expected_bootstrap_time(100, |_| 0.1, 1e-12, 100_000);
        let fast = expected_bootstrap_time(100, |_| 0.5, 1e-12, 100_000);
        assert!(fast < slow);
    }

    #[test]
    fn mean_field_trajectory_is_monotone_and_bounded() {
        let p = BootstrapParams {
            z: 1,
            ..BootstrapParams::paper_example()
        };
        let traj = mean_field_trajectory(MechanismKind::Altruism, &p, 1, 50);
        assert_eq!(traj.len(), 51);
        for w in traj.windows(2) {
            assert!(w[1] >= w[0], "z(t) must not decrease");
            assert!(w[1] <= p.n as f64);
        }
        // The flash crowd fully bootstraps quickly under altruism.
        assert!(*traj.last().unwrap() > 0.99 * p.n as f64);
    }

    #[test]
    fn mean_field_altruism_beats_bittorrent() {
        let p = BootstrapParams {
            z: 1,
            ..BootstrapParams::paper_example()
        };
        let alt = mean_field_trajectory(MechanismKind::Altruism, &p, 1, 30);
        let bt = mean_field_trajectory(MechanismKind::BitTorrent, &p, 1, 30);
        // At every time step altruism has bootstrapped at least as many.
        for (a, b) in alt.iter().zip(&bt) {
            assert!(a >= b);
        }
    }

    #[test]
    fn prop4_pairwise_holds_at_paper_example() {
        let p = BootstrapParams::paper_example();
        let c = prop4_pairwise(&p);
        assert!(c.altruism_beats_tchain);
        assert!(c.altruism_beats_fairtorrent);
        assert!(c.altruism_beats_bittorrent);
        assert!(c.tchain_beats_bittorrent);
        assert!(c.fairtorrent_beats_bittorrent);
        assert!(c.bittorrent_beats_reputation);
    }

    #[test]
    fn prop4_unconditional_claims_hold_broadly() {
        // Altruism ≥ T-Chain and BitTorrent ≥ reputation are proved
        // without side conditions; sweep a parameter grid.
        for n in [100u64, 500, 2000] {
            for z in [10u64, 100, n / 2] {
                for pi in [0.0, 0.3, 0.7, 1.0] {
                    let p = BootstrapParams {
                        n,
                        n_s: 1,
                        k: 3,
                        z,
                        pi_dr: pi,
                        n_bt: 4,
                        omega: 0.5,
                        n_ft: n / 2,
                    };
                    if p.validate().is_err() {
                        continue;
                    }
                    let c = prop4_pairwise(&p);
                    assert!(c.altruism_beats_tchain, "{p:?}");
                    assert!(c.bittorrent_beats_reputation, "{p:?}");
                }
            }
        }
    }

    #[test]
    fn prop4_sufficient_conditions_imply_orderings() {
        // Wherever the appendix's sufficient conditions hold, the direct
        // probability comparison must agree.
        for n in [200u64, 1000] {
            for pi in [0.1, 0.4, 0.5] {
                for omega in [0.0, 0.3, 0.6] {
                    let p = BootstrapParams {
                        n,
                        n_s: 1,
                        k: 4,
                        z: n / 3,
                        pi_dr: pi,
                        n_bt: 4,
                        omega,
                        n_ft: n,
                    };
                    let c = prop4_pairwise(&p);
                    if prop4_tchain_condition(&p) {
                        assert!(c.tchain_beats_bittorrent, "{p:?}");
                    }
                    if prop4_fairtorrent_condition(&p) {
                        assert!(c.fairtorrent_beats_bittorrent, "{p:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn prop4_ordering_can_invert_outside_conditions() {
        // With π_DR = 1 (perfect direct reciprocity everywhere), T-Chain's
        // bootstrap advantage over BitTorrent disappears — the condition
        // matters.
        let p = BootstrapParams {
            pi_dr: 1.0,
            ..BootstrapParams::paper_example()
        };
        assert!(!prop4_tchain_condition(&p));
        let c = prop4_pairwise(&p);
        assert!(
            !c.tchain_beats_bittorrent,
            "π_DR = 1 degenerates T-Chain's bootstrapping"
        );
    }

    #[test]
    fn validation_rejects_inconsistent_params() {
        let mut p = BootstrapParams::paper_example();
        p.n = 2;
        assert!(p.validate().is_err());
        p = BootstrapParams::paper_example();
        p.pi_dr = 1.5;
        assert!(p.validate().is_err());
        p = BootstrapParams::paper_example();
        p.n_ft = 3;
        assert!(p.validate().is_err());
        p = BootstrapParams::paper_example();
        p.n_s = 2000;
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid bootstrap parameters")]
    fn bootstrap_probability_panics_on_bad_params() {
        let mut p = BootstrapParams::paper_example();
        p.omega = -1.0;
        bootstrap_probability(MechanismKind::FairTorrent, &p);
    }
}
