//! Swarm-wide piece-availability tracking.

use crate::{Bitfield, PieceId};

/// Counts, for every piece, how many peers currently hold it.
///
/// The rarest-first picker consults this map, and the experiment harness
/// uses [`AvailabilityMap::piece_count_histogram`] to estimate the paper's
/// `p_k` — the probability that a user holds exactly `k` pieces — which
/// parameterizes the piece-exchange probabilities of Proposition 2.
///
/// # Example
///
/// ```
/// use coop_piece::{AvailabilityMap, Bitfield};
///
/// let mut avail = AvailabilityMap::new(4);
/// let mut bf = Bitfield::new(4);
/// bf.set(2);
/// avail.add_peer(&bf);
/// assert_eq!(avail.count(2), 1);
/// assert_eq!(avail.count(0), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AvailabilityMap {
    counts: Vec<u32>,
}

impl AvailabilityMap {
    /// Creates a map over `num_pieces` pieces with all counts at zero.
    pub fn new(num_pieces: u32) -> Self {
        AvailabilityMap {
            counts: vec![0; num_pieces as usize],
        }
    }

    /// Number of pieces tracked.
    pub fn num_pieces(&self) -> u32 {
        self.counts.len() as u32
    }

    /// How many peers hold piece `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn count(&self, i: PieceId) -> u32 {
        self.counts[i as usize]
    }

    /// Registers a joining peer's bitfield.
    pub fn add_peer(&mut self, bf: &Bitfield) {
        self.check_len(bf);
        for i in bf.iter_ones() {
            self.counts[i as usize] += 1;
        }
    }

    /// Unregisters a departing peer's bitfield.
    ///
    /// # Panics
    ///
    /// Panics if any removed count would go negative, which indicates the
    /// peer was never added or pieces were double-removed.
    pub fn remove_peer(&mut self, bf: &Bitfield) {
        self.check_len(bf);
        for i in bf.iter_ones() {
            let c = &mut self.counts[i as usize];
            assert!(*c > 0, "availability underflow at piece {i}");
            *c -= 1;
        }
    }

    /// Records that one more peer now holds piece `i` (after a transfer).
    pub fn on_piece_acquired(&mut self, i: PieceId) {
        self.counts[i as usize] += 1;
    }

    /// Records that one fewer peer holds piece `i` (a loss or a partial
    /// departure). The per-piece inverse of [`AvailabilityMap::on_piece_acquired`].
    ///
    /// # Panics
    ///
    /// Panics if the count would go negative.
    pub fn on_piece_lost(&mut self, i: PieceId) {
        let c = &mut self.counts[i as usize];
        assert!(*c > 0, "availability underflow at piece {i}");
        *c -= 1;
    }

    /// Read-only view of the per-piece counts, indexed by [`PieceId`].
    /// Word-skipping hot paths (see [`crate::AvailabilityIndex`]) read
    /// this slice directly instead of calling [`AvailabilityMap::count`]
    /// per piece.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Histogram of how many peers hold `k` pieces, for `k = 0..=max`,
    /// computed from a slice of peer bitfields. Dividing by the number of
    /// peers yields the paper's `p_k` distribution.
    pub fn piece_count_histogram(peers: &[&Bitfield]) -> Vec<u32> {
        let max = peers.iter().map(|b| b.count_ones()).max().unwrap_or(0);
        let mut hist = vec![0u32; max as usize + 1];
        for b in peers {
            hist[b.count_ones() as usize] += 1;
        }
        hist
    }

    /// Returns the minimum availability over a set of pieces the caller
    /// still needs, or `None` if `needed` yields nothing. Used to detect
    /// starvation (a needed piece held by no connected peer).
    ///
    /// This walks `needed` one piece at a time; hot paths with a needed
    /// set already in [`Bitfield`] form should use
    /// [`crate::AvailabilityIndex::min_over`], which skips empty words
    /// and short-circuits on the first zero-availability piece.
    pub fn min_over(&self, needed: impl IntoIterator<Item = PieceId>) -> Option<u32> {
        needed.into_iter().map(|i| self.counts[i as usize]).min()
    }

    /// Normalized Shannon entropy of the availability distribution: 1 when
    /// every piece is equally replicated (the diversity rarest-first
    /// selection aims for), approaching 0 when replication concentrates on
    /// few pieces. Returns `None` when no piece has any copies.
    pub fn diversity(&self) -> Option<f64> {
        let total: u64 = self.counts.iter().map(|&c| u64::from(c)).sum();
        if total == 0 || self.counts.len() < 2 {
            return None;
        }
        let mut h = 0.0;
        for &c in &self.counts {
            if c > 0 {
                let p = c as f64 / total as f64;
                h -= p * p.ln();
            }
        }
        Some(h / (self.counts.len() as f64).ln())
    }

    fn check_len(&self, bf: &Bitfield) {
        assert_eq!(
            bf.len() as usize,
            self.counts.len(),
            "bitfield length {} does not match availability map {}",
            bf.len(),
            self.counts.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bf(len: u32, ones: &[u32]) -> Bitfield {
        let mut b = Bitfield::new(len);
        for &i in ones {
            b.set(i);
        }
        b
    }

    #[test]
    fn add_and_remove_are_inverse() {
        let mut m = AvailabilityMap::new(8);
        let a = bf(8, &[0, 1, 2]);
        let b = bf(8, &[2, 3]);
        m.add_peer(&a);
        m.add_peer(&b);
        assert_eq!(m.count(2), 2);
        m.remove_peer(&a);
        assert_eq!(m.count(2), 1);
        assert_eq!(m.count(0), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn removing_unknown_peer_panics() {
        let mut m = AvailabilityMap::new(4);
        m.remove_peer(&bf(4, &[1]));
    }

    #[test]
    fn acquisition_increments() {
        let mut m = AvailabilityMap::new(4);
        m.on_piece_acquired(3);
        m.on_piece_acquired(3);
        assert_eq!(m.count(3), 2);
    }

    #[test]
    fn histogram_counts_peers_by_piece_count() {
        let a = bf(8, &[0]);
        let b = bf(8, &[0, 1]);
        let c = bf(8, &[]);
        let hist = AvailabilityMap::piece_count_histogram(&[&a, &b, &c]);
        assert_eq!(hist, vec![1, 1, 1]);
    }

    #[test]
    fn diversity_is_one_when_uniform_and_lower_when_skewed() {
        let mut uniform = AvailabilityMap::new(4);
        for _ in 0..3 {
            uniform.add_peer(&bf(4, &[0, 1, 2, 3]));
        }
        assert!((uniform.diversity().unwrap() - 1.0).abs() < 1e-12);
        let mut skewed = AvailabilityMap::new(4);
        for _ in 0..9 {
            skewed.on_piece_acquired(0);
        }
        skewed.on_piece_acquired(1);
        assert!(skewed.diversity().unwrap() < 0.5);
        assert_eq!(AvailabilityMap::new(4).diversity(), None);
    }

    #[test]
    fn min_over_detects_rarest_needed() {
        let mut m = AvailabilityMap::new(4);
        m.add_peer(&bf(4, &[0, 1]));
        m.add_peer(&bf(4, &[0]));
        assert_eq!(m.min_over([0, 1]), Some(1));
        assert_eq!(m.min_over([2]), Some(0));
        assert_eq!(m.min_over(std::iter::empty()), None);
    }
}
