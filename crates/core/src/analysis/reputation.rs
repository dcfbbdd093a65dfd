//! Proposition 3: fairness and efficiency of the reputation algorithm when
//! reputations decouple from capacities (Section IV-A2).
//!
//! With reputations `r_i` and every user allocating upload proportionally
//! to reputations, user `j`'s download rate is `d_j = r_j Σ_k U_k / Σ_k
//! r_k` — independent of `U_j`. A user with low reputation but moderate
//! capacity therefore drags both fairness and efficiency down, which is the
//! paper's explanation of the reputation algorithm's poor empirical
//! showing (Fig. 4b).

use crate::metrics::{efficiency_from_rates, fairness_stat};

/// Per-user download rates under reputation-proportional allocation:
/// `d_j = r_j · Σ U / Σ r` (the proof of Proposition 3).
///
/// # Panics
///
/// Panics if the slices have different lengths, are empty, or all
/// reputations are zero.
pub fn reputation_download_rates(reputations: &[f64], capacities: &[f64]) -> Vec<f64> {
    assert_eq!(
        reputations.len(),
        capacities.len(),
        "reputation and capacity vectors must have equal length"
    );
    assert!(!reputations.is_empty(), "need at least one user");
    let total_r: f64 = reputations.iter().sum();
    assert!(total_r > 0.0, "at least one user must have reputation");
    let total_u: f64 = capacities.iter().sum();
    reputations.iter().map(|&r| r * total_u / total_r).collect()
}

/// Proposition 3's fairness statistic: `F = (1/N) Σ |log(d_i/U_i)|` with
/// the reputation-driven download rates.
pub fn prop3_fairness(reputations: &[f64], capacities: &[f64]) -> f64 {
    let d = reputation_download_rates(reputations, capacities);
    let pairs: Vec<(f64, f64)> = capacities.iter().copied().zip(d).collect();
    fairness_stat(&pairs).0
}

/// Proposition 3's efficiency: `E = Σ_i 1/(N·d_i)` with the
/// reputation-driven download rates (for a unit-size file; equals
/// `Σ_i Σr/(N · r_i · ΣU)`).
pub fn prop3_efficiency(reputations: &[f64], capacities: &[f64]) -> f64 {
    efficiency_from_rates(&reputation_download_rates(reputations, capacities))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_proportional_to_reputation() {
        let d = reputation_download_rates(&[1.0, 3.0], &[10.0, 10.0]);
        assert!((d[0] - 5.0).abs() < 1e-12); // 1/4 of ΣU = 20
        assert!((d[1] - 15.0).abs() < 1e-12);
        // Conservation: Σd = ΣU.
        assert!((d.iter().sum::<f64>() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn aligned_reputations_are_fair() {
        // r_i ∝ U_i ⇒ d_i = U_i ⇒ F = 0.
        let caps = [8.0, 4.0, 2.0];
        let reps = [16.0, 8.0, 4.0];
        let f = prop3_fairness(&reps, &caps);
        assert!(f.abs() < 1e-12, "aligned reputations must be fair, F = {f}");
    }

    #[test]
    fn misaligned_reputations_hurt_fairness_and_efficiency() {
        let caps = [8.0, 4.0, 2.0];
        let aligned = [8.0, 4.0, 2.0];
        // One moderate-capacity user stuck with a tiny reputation (the
        // paper's motivating case).
        let skewed = [8.0, 0.1, 2.0];
        assert!(prop3_fairness(&skewed, &caps) > prop3_fairness(&aligned, &caps));
        assert!(prop3_efficiency(&skewed, &caps) > prop3_efficiency(&aligned, &caps));
    }

    #[test]
    fn efficiency_matches_paper_closed_form() {
        // E = Σ_i Σr / (N r_i ΣU) for a unit file.
        let caps = [5.0, 5.0];
        let reps = [2.0, 8.0];
        let e = prop3_efficiency(&reps, &caps);
        let total_r: f64 = reps.iter().sum();
        let total_u: f64 = caps.iter().sum();
        let expected: f64 = reps.iter().map(|&r| total_r / (2.0 * r * total_u)).sum();
        assert!((e - expected).abs() < 1e-12);
    }

    #[test]
    fn zero_reputation_user_never_finishes() {
        let e = prop3_efficiency(&[1.0, 0.0], &[5.0, 5.0]);
        assert!(e.is_infinite());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        reputation_download_rates(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "reputation")]
    fn all_zero_reputations_panic() {
        reputation_download_rates(&[0.0, 0.0], &[1.0, 1.0]);
    }
}
