//! Deterministic random-number streams.
//!
//! Simulations must be exactly reproducible from a single `u64` seed, yet
//! different components (arrival process, each peer's mechanism, piece
//! selection, …) should draw from *independent* streams so that adding a
//! random draw in one component does not perturb another. [`SeedTree`]
//! derives independent child seeds from a root seed via SplitMix64, the
//! standard seed-sequencing construction.
//!
//! [`shuffle`] and [`shuffle_prefix`] are the simulator's one Fisher–Yates
//! kernel: draw for draw the permutation `rand`'s `SliceRandom::shuffle`
//! makes, without its per-draw rejection branch.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::RngCore;
use rand::SeedableRng;

/// Advances a SplitMix64 state and returns the next output.
///
/// SplitMix64 is the recommended generator for deriving seed material; its
/// outputs are equidistributed over `u64` and decorrelated for distinct
/// inputs.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tree of deterministic seeds.
///
/// Children are addressed by an arbitrary `u64` label (e.g. a peer index or
/// a component tag), so the same label always yields the same child seed
/// regardless of the order in which children are requested.
///
/// # Example
///
/// ```
/// use coop_des::rng::SeedTree;
/// use rand::Rng;
///
/// let tree = SeedTree::new(42);
/// let mut arrivals = tree.rng(0);
/// let mut peer_7 = tree.rng(7);
/// // Streams are independent and reproducible:
/// let a: u64 = arrivals.gen();
/// let b: u64 = tree.rng(0).gen();
/// assert_eq!(a, b);
/// let _ = peer_7.gen::<u64>();
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedTree {
    root: u64,
}

impl SeedTree {
    /// Creates a seed tree from a root seed.
    pub fn new(root: u64) -> Self {
        SeedTree { root }
    }

    /// Returns the root seed.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derives the child seed for `label`.
    pub fn child_seed(&self, label: u64) -> u64 {
        // Mix the root and the label through two SplitMix64 steps so that
        // (root, label) pairs map to well-separated seeds.
        let mut s = self.root ^ label.wrapping_mul(0xA24B_AED4_963E_E407);
        let first = splitmix64(&mut s);
        splitmix64(&mut s) ^ first.rotate_left(17)
    }

    /// Returns a fresh RNG for the child stream `label`.
    pub fn rng(&self, label: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.child_seed(label))
    }

    /// Returns a sub-tree rooted at the child seed for `label`, for
    /// hierarchical components (e.g. per-peer trees with per-module leaves).
    pub fn subtree(&self, label: u64) -> SeedTree {
        SeedTree::new(self.child_seed(label))
    }

    /// Exports the tree's complete stream state for checkpointing.
    ///
    /// `SeedTree` streams are *positionless* by construction: consumers
    /// derive a fresh child RNG per use (per round, per peer, per
    /// component label) instead of advancing a shared generator, so the
    /// root seed plus each consumer's own cursor (e.g. the round index)
    /// pins the position of every stream. A checkpoint therefore stores
    /// this single word; [`SeedTree::import`] rebuilds a tree whose every
    /// stream continues exactly where the exported one would.
    pub fn export(&self) -> u64 {
        self.root
    }

    /// Rebuilds a tree from [`SeedTree::export`]ed state.
    pub fn import(state: u64) -> SeedTree {
        SeedTree::new(state)
    }
}

/// Samples an exponentially distributed value with the given mean, via
/// the inverse CDF. Used for Poisson inter-arrival times.
///
/// # Panics
///
/// Panics if `mean` is not positive and finite.
///
/// # Example
///
/// ```
/// use coop_des::rng::{exponential, SeedTree};
/// let mut rng = SeedTree::new(1).rng(0);
/// let x = exponential(&mut rng, 2.0);
/// assert!(x >= 0.0);
/// ```
pub fn exponential(rng: &mut dyn RngCore, mean: f64) -> f64 {
    assert!(
        mean.is_finite() && mean > 0.0,
        "exponential mean must be positive, got {mean}"
    );
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() * mean
}

/// Samples an index with probability proportional to `weights[i]`.
/// Returns `None` if the weights are empty or sum to zero.
///
/// # Example
///
/// ```
/// use coop_des::rng::{weighted_index, SeedTree};
/// let mut rng = SeedTree::new(1).rng(0);
/// let i = weighted_index(&mut rng, &[0.0, 3.0, 1.0]).unwrap();
/// assert!(i == 1 || i == 2);
/// ```
pub fn weighted_index(rng: &mut dyn RngCore, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if total <= 0.0 {
        return None;
    }
    let mut x = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if w.is_finite() && w > 0.0 {
            if x < w {
                return Some(i);
            }
            x -= w;
        }
    }
    weights.iter().rposition(|&w| w.is_finite() && w > 0.0)
}

/// Shuffles `slice` in place.
///
/// Makes exactly the draws of `rand`'s `SliceRandom::shuffle`, yields the
/// same permutation and leaves `rng` in the same state; see
/// [`shuffle_prefix`] for how.
///
/// # Example
///
/// ```
/// use coop_des::rng::{shuffle, SeedTree};
/// use rand::seq::SliceRandom;
///
/// let mut ours: Vec<u32> = (0..100).collect();
/// let mut theirs = ours.clone();
/// shuffle(&mut ours, &mut SeedTree::new(1).rng(0));
/// theirs.shuffle(&mut SeedTree::new(1).rng(0));
/// assert_eq!(ours, theirs);
/// ```
pub fn shuffle<T: Copy, R: RngCore + ?Sized>(slice: &mut [T], rng: &mut R) {
    shuffle_prefix(slice, rng, slice.len());
}

/// Shuffles `slice` for a caller that reads only `slice[..keep]`
/// afterwards: that prefix equals the prefix of [`shuffle`]'s result, and
/// `rng` makes the same draws. The elements past `keep` are unspecified.
///
/// `SliceRandom::shuffle` swaps position `i` (from the top down) with a
/// draw below `i + 1`, sampled by widening multiply with a rejection
/// zone: a draw whose low half exceeds the zone is redrawn. Here each
/// draw is one step of a branch-free loop instead. A rejected draw swaps
/// `i` with itself and does not advance `i`, so every draw, swap and
/// final state matches, but the unpredictable accept/reject branch is
/// gone. The range is walked in power-of-two bands, inside which the
/// zone's shift is fixed and the zone falls by one shift per accepted
/// step. Positions at or past `keep` are never read once placed, so there
/// the step writes `slice[j] = slice[i]` instead of swapping.
///
/// Slices longer than `u32::MAX` draw 64-bit indices in `rand`; they fall
/// back to `SliceRandom::shuffle`.
pub fn shuffle_prefix<T: Copy, R: RngCore + ?Sized>(slice: &mut [T], rng: &mut R, keep: usize) {
    if u32::try_from(slice.len()).is_err() {
        slice.shuffle(rng);
        return;
    }
    let mut i = slice.len().saturating_sub(1);
    while i >= 1 {
        let lz = (i as u32 + 1).leading_zeros();
        // Ranges 2^(31 - lz) ..= i + 1 share `lz`; the lowest position
        // drawing in this band is one below the band's power of two.
        let band_floor = (1usize << (31 - lz)) - 1;
        i = if i >= keep {
            shuffle_band::<T, R, false>(slice, rng, i, band_floor.max(keep), lz)
        } else {
            shuffle_band::<T, R, true>(slice, rng, i, band_floor, lz)
        };
    }
}

/// Fisher–Yates steps from position `i` down to `floor`, all of whose
/// ranges `i + 1` have `lz` leading zeros. Returns `floor - 1`. `SWAP`
/// false copies instead of swapping (positions the caller never reads).
fn shuffle_band<T: Copy, R: RngCore + ?Sized, const SWAP: bool>(
    s: &mut [T],
    rng: &mut R,
    mut i: usize,
    floor: usize,
    lz: u32,
) -> usize {
    // `rand`'s conservative zone for range `i + 1`.
    let mut zone = ((i as u32 + 1) << lz) - 1;
    let step = 1u32 << lz;
    while i >= floor {
        let m = u64::from(rng.next_u32()) * (i as u64 + 1);
        let acc = m as u32 <= zone;
        let j = if acc { (m >> 32) as usize } else { i };
        if SWAP {
            s.swap(i, j);
        } else {
            s[j] = s[i];
        }
        i -= usize::from(acc);
        // A mask, not a multiply: this update is on the loop-carried path.
        zone -= step & u32::from(acc).wrapping_neg();
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use std::collections::HashSet;

    #[test]
    fn same_label_same_stream() {
        let t = SeedTree::new(7);
        let xs: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(t.rng(3), |r, _| Some(r.gen()))
            .collect();
        let ys: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(t.rng(3), |r, _| Some(r.gen()))
            .collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_labels_different_streams() {
        let t = SeedTree::new(7);
        let a: u64 = t.rng(1).gen();
        let b: u64 = t.rng(2).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_roots_different_streams() {
        let a: u64 = SeedTree::new(1).rng(0).gen();
        let b: u64 = SeedTree::new(2).rng(0).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn child_seeds_have_no_obvious_collisions() {
        let t = SeedTree::new(0xDEADBEEF);
        let seeds: HashSet<u64> = (0..10_000).map(|i| t.child_seed(i)).collect();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn subtree_differs_from_parent_streams() {
        let t = SeedTree::new(99);
        let sub = t.subtree(5);
        assert_ne!(sub.root(), t.root());
        assert_ne!(sub.child_seed(0), t.child_seed(0));
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SeedTree::new(3).rng(0);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, 4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean = {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_bad_mean() {
        let mut rng = SeedTree::new(3).rng(0);
        exponential(&mut rng, 0.0);
    }

    #[test]
    fn weighted_index_is_proportional() {
        let mut rng = SeedTree::new(4).rng(0);
        let weights = [1.0, 0.0, 3.0];
        let mut hits = [0u32; 3];
        for _ in 0..20_000 {
            hits[weighted_index(&mut rng, &weights).unwrap()] += 1;
        }
        assert_eq!(hits[1], 0);
        let frac = hits[2] as f64 / 20_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn weighted_index_handles_degenerate_inputs() {
        let mut rng = SeedTree::new(5).rng(0);
        assert_eq!(weighted_index(&mut rng, &[]), None);
        assert_eq!(weighted_index(&mut rng, &[0.0, 0.0]), None);
        assert_eq!(weighted_index(&mut rng, &[f64::NAN, 2.0]), Some(1));
    }

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 0 from the canonical SplitMix64
        // implementation (Vigna).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    /// Runs both kernels and the `rand` oracle from one seed; asserts the
    /// permutation (or its kept prefix) and the generator state after.
    fn assert_matches_oracle(len: usize, seed: u64, keep: usize) {
        let mut oracle: Vec<u32> = (0..len as u32).collect();
        let mut oracle_rng = SeedTree::new(seed).rng(0);
        oracle.shuffle(&mut oracle_rng);
        let after = oracle_rng.next_u64();

        let mut full: Vec<u32> = (0..len as u32).collect();
        let mut rng = SeedTree::new(seed).rng(0);
        shuffle(&mut full, &mut rng);
        assert_eq!(full, oracle, "shuffle, len {len}, seed {seed}");
        assert_eq!(rng.next_u64(), after, "rng state, len {len}");

        let kept = keep.min(len);
        let mut prefix: Vec<u32> = (0..len as u32).collect();
        let mut rng = SeedTree::new(seed).rng(0);
        shuffle_prefix(&mut prefix, &mut rng, keep);
        assert_eq!(prefix[..kept], oracle[..kept], "prefix {keep} of {len}");
        assert_eq!(rng.next_u64(), after, "rng state, keep {keep} of {len}");

        // Through a trait object, as the mechanisms call it.
        let mut dynamic: Vec<u32> = (0..len as u32).collect();
        let mut rng = SeedTree::new(seed).rng(0);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        shuffle_prefix(&mut dynamic, dyn_rng, keep);
        assert_eq!(
            dynamic[..kept],
            oracle[..kept],
            "dyn prefix {keep} of {len}"
        );
        assert_eq!(dyn_rng.next_u64(), after, "dyn rng state, len {len}");
    }

    proptest! {
        #[test]
        fn shuffle_kernel_equals_slice_random(
            len in 0usize..=5000,
            seed in any::<u64>(),
            keep_pick in 0usize..4,
        ) {
            let keep = [0, 1, 20, len][keep_pick];
            assert_matches_oracle(len, seed, keep);
        }
    }

    #[test]
    fn shuffle_kernel_equals_slice_random_at_band_edges() {
        // Band edges are where the zone's shift changes: 2^k ± 1 elements.
        let mut lens: Vec<usize> = (0..=5).collect();
        for k in 1..=16 {
            lens.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        for (n, &len) in lens.iter().enumerate() {
            for keep in [0, 1, 20, len] {
                assert_matches_oracle(len, 0xB0A7 + n as u64, keep);
            }
        }
    }
}
