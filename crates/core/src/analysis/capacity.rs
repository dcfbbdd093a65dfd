//! Upload-capacity vectors and the paper's capacity assumptions.
//!
//! Section IV assumes `N` users with upload capacities
//! `U_1 ≥ U_2 ≥ … ≥ U_N` and `U_i ≤ Σ_{j≠i} U_j` for every `i` (no single
//! user owns a disproportionate share of total capacity). [`CapacityVector`]
//! enforces the ordering on construction and can check the
//! no-dominant-user condition; [`CapacityClassMix`] samples heterogeneous
//! capacities from a BitTorrent-measurement-style class mix.

use rand::Rng;
use rand::RngCore;

/// A sorted (descending) vector of per-user upload capacities.
///
/// # Example
///
/// ```
/// use coop_incentives::analysis::capacity::CapacityVector;
/// let caps = CapacityVector::new(vec![1.0, 3.0, 2.0]).unwrap();
/// assert_eq!(caps.as_slice(), &[3.0, 2.0, 1.0]);
/// assert!(caps.no_dominant_user());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CapacityVector {
    caps: Vec<f64>,
    total: f64,
}

impl CapacityVector {
    /// Creates a capacity vector, sorting descending.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector is empty or any capacity is
    /// non-positive or non-finite.
    pub fn new(mut caps: Vec<f64>) -> Result<Self, String> {
        if caps.is_empty() {
            return Err("capacity vector must be nonempty".to_string());
        }
        for &c in &caps {
            if !c.is_finite() || c <= 0.0 {
                return Err(format!("capacities must be positive and finite, got {c}"));
            }
        }
        caps.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let total = caps.iter().sum();
        Ok(CapacityVector { caps, total })
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// Returns true if the vector is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// The capacities, sorted descending (`U_1` first).
    pub fn as_slice(&self) -> &[f64] {
        &self.caps
    }

    /// `Σ U_i`.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// `Σ_{j≠i} U_j`.
    pub fn total_excluding(&self, i: usize) -> f64 {
        self.total - self.caps[i]
    }

    /// The paper's no-dominant-user assumption:
    /// `U_i ≤ Σ_{j≠i} U_j` for all `i`. With a descending sort it suffices
    /// to check `i = 0`.
    pub fn no_dominant_user(&self) -> bool {
        self.caps.len() >= 2 && self.caps[0] <= self.total - self.caps[0]
    }

    /// Mean capacity `Σ U_i / N`.
    pub fn mean(&self) -> f64 {
        self.total / self.caps.len() as f64
    }
}

/// One class of users in a heterogeneous capacity mix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CapacityClass {
    /// Fraction of the population in this class (the fractions of all
    /// classes must sum to 1).
    pub fraction: f64,
    /// Upload capacity of this class in bytes per second.
    pub upload_bps: f64,
}

/// A heterogeneous capacity distribution described as a small set of
/// classes, in the style of BitTorrent measurement studies.
///
/// # Example
///
/// ```
/// use coop_incentives::analysis::capacity::CapacityClassMix;
/// use rand::SeedableRng;
///
/// let mix = CapacityClassMix::paper_default();
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let caps = mix.sample(1000, &mut rng);
/// assert_eq!(caps.len(), 1000);
/// assert!(caps.no_dominant_user());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CapacityClassMix {
    classes: Vec<CapacityClass>,
}

impl CapacityClassMix {
    /// Creates a mix from classes.
    ///
    /// # Errors
    ///
    /// Returns an error if the class fractions do not sum to 1 (±1e-9), any
    /// fraction is negative, or any capacity is non-positive.
    pub fn new(classes: Vec<CapacityClass>) -> Result<Self, String> {
        if classes.is_empty() {
            return Err("class mix must be nonempty".to_string());
        }
        let total: f64 = classes.iter().map(|c| c.fraction).sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(format!("class fractions must sum to 1, got {total}"));
        }
        for c in &classes {
            if c.fraction < 0.0 {
                return Err("class fractions must be nonnegative".to_string());
            }
            if c.upload_bps <= 0.0 {
                return Err("class capacities must be positive".to_string());
            }
        }
        Ok(CapacityClassMix { classes })
    }

    /// The five-class mix used by the experiment harness: a spread of
    /// residential-style upload capacities (in bytes/second) whose shape
    /// follows published BitTorrent leecher measurements. The paper does
    /// not publish its capacity distribution; DESIGN.md documents this
    /// substitution.
    pub fn paper_default() -> Self {
        CapacityClassMix::new(vec![
            CapacityClass {
                fraction: 0.1,
                upload_bps: 16_000.0,
            },
            CapacityClass {
                fraction: 0.3,
                upload_bps: 32_000.0,
            },
            CapacityClass {
                fraction: 0.3,
                upload_bps: 64_000.0,
            },
            CapacityClass {
                fraction: 0.2,
                upload_bps: 128_000.0,
            },
            CapacityClass {
                fraction: 0.1,
                upload_bps: 256_000.0,
            },
        ])
        .expect("default mix is valid")
    }

    /// The classes.
    pub fn classes(&self) -> &[CapacityClass] {
        &self.classes
    }

    /// Samples the capacity of a single user.
    pub fn sample_one(&self, rng: &mut dyn RngCore) -> f64 {
        let mut x: f64 = rng.gen_range(0.0..1.0);
        for c in &self.classes {
            if x < c.fraction {
                return c.upload_bps;
            }
            x -= c.fraction;
        }
        self.classes.last().expect("nonempty").upload_bps
    }

    /// Samples `n` users and returns their capacities as a sorted
    /// [`CapacityVector`].
    pub fn sample(&self, n: usize, rng: &mut dyn RngCore) -> CapacityVector {
        assert!(n > 0, "cannot sample an empty population");
        let caps = (0..n).map(|_| self.sample_one(rng)).collect();
        CapacityVector::new(caps).expect("sampled capacities are positive")
    }

    /// The population-mean upload capacity.
    pub fn mean(&self) -> f64 {
        self.classes.iter().map(|c| c.fraction * c.upload_bps).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn vector_sorts_descending() {
        let v = CapacityVector::new(vec![2.0, 5.0, 1.0]).unwrap();
        assert_eq!(v.as_slice(), &[5.0, 2.0, 1.0]);
        assert_eq!(v.total(), 8.0);
        assert_eq!(v.total_excluding(0), 3.0);
        assert!((v.mean() - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn vector_rejects_bad_input() {
        assert!(CapacityVector::new(vec![]).is_err());
        assert!(CapacityVector::new(vec![0.0]).is_err());
        assert!(CapacityVector::new(vec![-1.0]).is_err());
        assert!(CapacityVector::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn dominant_user_detection() {
        let ok = CapacityVector::new(vec![3.0, 2.0, 2.0]).unwrap();
        assert!(ok.no_dominant_user());
        let dominant = CapacityVector::new(vec![10.0, 1.0, 1.0]).unwrap();
        assert!(!dominant.no_dominant_user());
        let single = CapacityVector::new(vec![1.0]).unwrap();
        assert!(!single.no_dominant_user());
    }

    #[test]
    fn mix_validates_fractions() {
        assert!(CapacityClassMix::new(vec![CapacityClass {
            fraction: 0.5,
            upload_bps: 1.0
        }])
        .is_err());
        assert!(CapacityClassMix::new(vec![]).is_err());
    }

    #[test]
    fn default_mix_mean_matches_classes() {
        let mix = CapacityClassMix::paper_default();
        let expected =
            0.1 * 16_000.0 + 0.3 * 32_000.0 + 0.3 * 64_000.0 + 0.2 * 128_000.0 + 0.1 * 256_000.0;
        assert!((mix.mean() - expected).abs() < 1e-6);
    }

    #[test]
    fn sampling_matches_class_proportions() {
        let mix = CapacityClassMix::paper_default();
        let mut rng = SmallRng::seed_from_u64(123);
        let caps = mix.sample(20_000, &mut rng);
        let frac_top =
            caps.as_slice().iter().filter(|&&c| c == 256_000.0).count() as f64 / 20_000.0;
        assert!((frac_top - 0.1).abs() < 0.01, "frac_top = {frac_top}");
        let empirical_mean = caps.mean();
        assert!((empirical_mean - mix.mean()).abs() / mix.mean() < 0.02);
    }

    #[test]
    fn sampled_vector_satisfies_paper_assumption() {
        let mix = CapacityClassMix::paper_default();
        let mut rng = SmallRng::seed_from_u64(7);
        assert!(mix.sample(100, &mut rng).no_dominant_user());
    }
}
