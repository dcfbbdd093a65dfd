//! Incremental swarm-availability index — the hot-path replacement for
//! rebuilding availability histograms and rarest-first scans per round.
//!
//! [`AvailabilityIndex`] wraps an [`AvailabilityMap`] and keeps two
//! derived structures current under O(1) per-piece updates:
//!
//! * a **log2-bucketed histogram** of the per-piece counts, matching the
//!   telemetry `Histogram` bucketing (`0 → bucket 0`, `v → 1 + ⌊log2 v⌋`),
//!   so round probes read [`AvailabilityIndex::bucket_counts`] instead of
//!   re-scanning every piece; and
//! * the plain counts themselves, exposed word-skipping through
//!   [`AvailabilityIndex::pick_rarest_into`] (the rarest-first query) and
//!   [`AvailabilityIndex::min_over`] (starvation detection).
//!
//! The index is *proven* equivalent to the from-scratch path: the
//! `availability_index` proptests pin count equality against a naive
//! recount and pick equality against [`crate::RarestFirstPicker`] on
//! identical tie-break RNG, and the swarm's `hotpath_equivalence` suite
//! pins whole-simulation byte identity.
//!
//! # Invariants
//!
//! * `buckets[b]` is exactly the number of pieces whose count falls in
//!   bucket `b` — every mutation moves one piece between two buckets.
//! * Counts never go negative: removals assert, exactly like
//!   [`AvailabilityMap::remove_peer`].
//! * [`AvailabilityIndex::rebuilds`] counts from-scratch rebuilds; the
//!   steady-state simulator hot path performs **zero** (asserted by the
//!   CI `scale-smoke` job via the `swarm.availability.rebuilds` counter).

use rand::seq::SliceRandom;
use rand::RngCore;

use crate::{AvailabilityMap, Bitfield, PieceId, PieceSelection};

/// Buckets needed to cover any `u32` count under log2 bucketing.
const NUM_BUCKETS: usize = 33;

/// An [`AvailabilityMap`] with incrementally-maintained derived state:
/// a bucketed count histogram and word-skipping rarest-first queries.
///
/// # Example
///
/// ```
/// use coop_piece::{AvailabilityIndex, Bitfield};
///
/// let mut index = AvailabilityIndex::new(4);
/// let mut bf = Bitfield::new(4);
/// bf.set(2);
/// index.add_peer(&bf);
/// assert_eq!(index.count(2), 1);
/// // 3 pieces at count 0 (bucket 0), 1 piece at count 1 (bucket 1):
/// assert_eq!(index.bucket_counts(), vec![3, 1]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AvailabilityIndex {
    map: AvailabilityMap,
    buckets: [u64; NUM_BUCKETS],
    rebuilds: u64,
}

impl AvailabilityIndex {
    /// Creates an index over `num_pieces` pieces with all counts at zero.
    pub fn new(num_pieces: u32) -> Self {
        let mut buckets = [0u64; NUM_BUCKETS];
        buckets[0] = u64::from(num_pieces);
        AvailabilityIndex {
            map: AvailabilityMap::new(num_pieces),
            buckets,
            rebuilds: 0,
        }
    }

    /// Number of pieces tracked.
    pub fn num_pieces(&self) -> u32 {
        self.map.num_pieces()
    }

    /// How many peers hold piece `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn count(&self, i: PieceId) -> u32 {
        self.map.count(i)
    }

    /// The underlying [`AvailabilityMap`] — for [`crate::PiecePicker`]
    /// implementations and the naive-oracle equivalence tests, which
    /// consume the map interface.
    pub fn map(&self) -> &AvailabilityMap {
        &self.map
    }

    /// The log2 bucket a count of `v` falls in: 0 for 0, `1 + ⌊log2 v⌋`
    /// otherwise. Mirrors the telemetry `Histogram` bucketing so probe
    /// output is byte-identical either way it is produced.
    pub fn bucket_of(v: u32) -> usize {
        if v == 0 {
            0
        } else {
            1 + v.ilog2() as usize
        }
    }

    /// Registers a joining peer's bitfield.
    ///
    /// # Panics
    ///
    /// Panics if the bitfield length does not match the index.
    pub fn add_peer(&mut self, bf: &Bitfield) {
        self.check_len(bf);
        for (w, bits0) in bf.word_iter().enumerate() {
            let mut bits = bits0;
            while bits != 0 {
                let tz = bits.trailing_zeros();
                bits &= bits - 1;
                self.on_piece_acquired((w * 64) as PieceId + tz);
            }
        }
    }

    /// Unregisters a departing peer's bitfield.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ, or if any removed count would go
    /// negative (the peer was never added or pieces were double-removed).
    pub fn remove_peer(&mut self, bf: &Bitfield) {
        self.check_len(bf);
        for (w, bits0) in bf.word_iter().enumerate() {
            let mut bits = bits0;
            while bits != 0 {
                let tz = bits.trailing_zeros();
                bits &= bits - 1;
                self.on_piece_lost((w * 64) as PieceId + tz);
            }
        }
    }

    /// Records that one more peer now holds piece `i` (after a transfer).
    pub fn on_piece_acquired(&mut self, i: PieceId) {
        let old = self.map.count(i);
        self.map.on_piece_acquired(i);
        self.buckets[Self::bucket_of(old)] -= 1;
        self.buckets[Self::bucket_of(old + 1)] += 1;
    }

    /// Records that one fewer peer holds piece `i` (loss or departure).
    ///
    /// # Panics
    ///
    /// Panics if the count would go negative.
    pub fn on_piece_lost(&mut self, i: PieceId) {
        let old = self.map.count(i);
        self.map.on_piece_lost(i);
        self.buckets[Self::bucket_of(old)] -= 1;
        self.buckets[Self::bucket_of(old - 1)] += 1;
    }

    /// The bucketed count histogram, truncated after its last non-empty
    /// bucket — byte-identical to observing every piece count into a
    /// freshly-built telemetry `Histogram` (which grows its bucket vector
    /// lazily to the highest observed bucket). Empty when the index
    /// tracks zero pieces.
    pub fn bucket_counts(&self) -> Vec<u64> {
        match self.buckets.iter().rposition(|&b| b != 0) {
            Some(last) => self.buckets[..=last].to_vec(),
            None => Vec::new(),
        }
    }

    /// Local-rarest-first query: among the pieces `downloader` lacks and
    /// `uploader` has, choose one with minimal swarm-wide availability,
    /// breaking ties uniformly at random.
    ///
    /// Behaviorally identical to [`crate::RarestFirstPicker`] — same
    /// ascending candidate order, same tie set, and exactly one RNG draw
    /// iff a candidate exists — but word-skipping, and reusing `ties` as
    /// scratch so the hot loop allocates nothing in steady state.
    ///
    /// # Panics
    ///
    /// Panics if the bitfield lengths differ from each other or from the
    /// index.
    pub fn pick_rarest_into(
        &self,
        downloader: &Bitfield,
        uploader: &Bitfield,
        ties: &mut Vec<PieceId>,
        rng: &mut dyn RngCore,
    ) -> PieceSelection {
        assert_eq!(
            downloader.len(),
            uploader.len(),
            "bitfield length mismatch: {} vs {}",
            downloader.len(),
            uploader.len()
        );
        self.check_len(uploader);
        ties.clear();
        let counts = self.map.counts();
        let mut best = u32::MAX;
        for (w, (mine, theirs)) in downloader.word_iter().zip(uploader.word_iter()).enumerate() {
            let mut bits = !mine & theirs;
            while bits != 0 {
                let tz = bits.trailing_zeros();
                bits &= bits - 1;
                let i = (w * 64) as PieceId + tz;
                let c = counts[i as usize];
                if c < best {
                    best = c;
                    ties.clear();
                    ties.push(i);
                } else if c == best {
                    ties.push(i);
                }
            }
        }
        match ties.choose(rng) {
            Some(&i) => PieceSelection::Piece(i),
            None => PieceSelection::NothingNeeded,
        }
    }

    /// Returns the minimum availability over the pieces set in `needed`,
    /// or `None` when `needed` has no set pieces. The word-skipping,
    /// zero-short-circuiting routing of [`AvailabilityMap::min_over`]
    /// for starvation checks on the hot path.
    ///
    /// # Panics
    ///
    /// Panics if `needed`'s length does not match the index.
    pub fn min_over(&self, needed: &Bitfield) -> Option<u32> {
        self.check_len(needed);
        let counts = self.map.counts();
        let mut min: Option<u32> = None;
        for (w, bits0) in needed.word_iter().enumerate() {
            let mut bits = bits0;
            while bits != 0 {
                let tz = bits.trailing_zeros();
                bits &= bits - 1;
                let c = counts[(w * 64) + tz as usize];
                if c == 0 {
                    return Some(0);
                }
                min = Some(min.map_or(c, |m| m.min(c)));
            }
        }
        min
    }

    /// Normalized Shannon entropy of the availability distribution; see
    /// [`AvailabilityMap::diversity`].
    pub fn diversity(&self) -> Option<f64> {
        self.map.diversity()
    }

    /// Discards all state and re-adds every bitfield from scratch,
    /// incrementing [`AvailabilityIndex::rebuilds`]. The steady-state
    /// simulator never calls this — it exists for recovery paths and so
    /// regressions that reintroduce per-round rebuilds show up in the
    /// `swarm.availability.rebuilds` telemetry counter.
    pub fn rebuild_from<'a>(&mut self, peers: impl IntoIterator<Item = &'a Bitfield>) {
        self.rebuilds += 1;
        let num_pieces = self.map.num_pieces();
        self.map = AvailabilityMap::new(num_pieces);
        self.buckets = [0; NUM_BUCKETS];
        self.buckets[0] = u64::from(num_pieces);
        for bf in peers {
            self.add_peer(bf);
        }
    }

    /// How many from-scratch rebuilds this index has performed.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    fn check_len(&self, bf: &Bitfield) {
        assert_eq!(
            bf.len(),
            self.map.num_pieces(),
            "bitfield length {} does not match availability map {}",
            bf.len(),
            self.map.num_pieces()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RarestFirstPicker;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn bf(len: u32, ones: &[u32]) -> Bitfield {
        let mut b = Bitfield::new(len);
        for &i in ones {
            b.set(i);
        }
        b
    }

    #[test]
    fn bucket_of_matches_log2_rule() {
        assert_eq!(AvailabilityIndex::bucket_of(0), 0);
        assert_eq!(AvailabilityIndex::bucket_of(1), 1);
        assert_eq!(AvailabilityIndex::bucket_of(2), 2);
        assert_eq!(AvailabilityIndex::bucket_of(3), 2);
        assert_eq!(AvailabilityIndex::bucket_of(4), 3);
        assert_eq!(AvailabilityIndex::bucket_of(u32::MAX), 32);
    }

    #[test]
    fn counts_track_map_semantics() {
        let mut idx = AvailabilityIndex::new(8);
        let a = bf(8, &[0, 1, 2]);
        let b = bf(8, &[2, 3]);
        idx.add_peer(&a);
        idx.add_peer(&b);
        assert_eq!(idx.count(2), 2);
        idx.remove_peer(&a);
        assert_eq!(idx.count(2), 1);
        assert_eq!(idx.count(0), 0);
        assert_eq!(idx.map().count(3), 1);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn removing_unknown_peer_panics() {
        let mut idx = AvailabilityIndex::new(4);
        idx.remove_peer(&bf(4, &[1]));
    }

    #[test]
    fn bucket_counts_follow_mutations() {
        let mut idx = AvailabilityIndex::new(4);
        assert_eq!(idx.bucket_counts(), vec![4]);
        idx.on_piece_acquired(0); // counts 1,0,0,0
        assert_eq!(idx.bucket_counts(), vec![3, 1]);
        idx.on_piece_acquired(0); // counts 2,0,0,0 → bucket 2
        assert_eq!(idx.bucket_counts(), vec![3, 0, 1]);
        idx.on_piece_lost(0);
        idx.on_piece_lost(0);
        assert_eq!(idx.bucket_counts(), vec![4]);
        assert_eq!(AvailabilityIndex::new(0).bucket_counts(), Vec::<u64>::new());
    }

    #[test]
    fn pick_rarest_matches_naive_picker_with_shared_rng() {
        let mut idx = AvailabilityIndex::new(130);
        idx.add_peer(&bf(130, &[0, 64, 65, 129]));
        idx.add_peer(&bf(130, &[0, 64]));
        let down = bf(130, &[0]);
        let up = bf(130, &[0, 1, 64, 65, 129]);
        let mut fast_rng = SmallRng::seed_from_u64(7);
        let mut naive_rng = SmallRng::seed_from_u64(7);
        let mut ties = Vec::new();
        for _ in 0..50 {
            let fast = idx.pick_rarest_into(&down, &up, &mut ties, &mut fast_rng);
            let naive =
                crate::PiecePicker::pick(&RarestFirstPicker, &down, &up, idx.map(), &mut naive_rng);
            assert_eq!(fast, naive);
        }
    }

    #[test]
    fn pick_rarest_nothing_needed_draws_no_rng() {
        let idx = AvailabilityIndex::new(8);
        let down = bf(8, &[0, 1]);
        let up = bf(8, &[0, 1]);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut ties = vec![5]; // stale scratch must be cleared
        assert_eq!(
            idx.pick_rarest_into(&down, &up, &mut ties, &mut rng),
            PieceSelection::NothingNeeded
        );
        assert!(ties.is_empty());
    }

    #[test]
    fn min_over_agrees_with_map_and_short_circuits() {
        let mut idx = AvailabilityIndex::new(70);
        idx.add_peer(&bf(70, &[0, 1, 69]));
        idx.add_peer(&bf(70, &[0]));
        let needed = bf(70, &[0, 1, 69]);
        assert_eq!(
            idx.min_over(&needed),
            idx.map().min_over(needed.iter_ones())
        );
        assert_eq!(idx.min_over(&bf(70, &[2])), Some(0));
        assert_eq!(idx.min_over(&bf(70, &[])), None);
        assert_eq!(idx.min_over(&bf(70, &[0])), Some(2));
    }

    #[test]
    fn rebuild_from_restores_state_and_counts_rebuilds() {
        let peers = [bf(8, &[0, 1]), bf(8, &[1, 2])];
        let mut idx = AvailabilityIndex::new(8);
        for p in &peers {
            idx.add_peer(p);
        }
        let before = idx.clone();
        idx.rebuild_from(peers.iter());
        assert_eq!(idx.map(), before.map());
        assert_eq!(idx.bucket_counts(), before.bucket_counts());
        assert_eq!(idx.rebuilds(), 1);
        assert_eq!(before.rebuilds(), 0);
    }

    #[test]
    fn diversity_delegates_to_map() {
        let mut idx = AvailabilityIndex::new(4);
        assert_eq!(idx.diversity(), None);
        idx.add_peer(&Bitfield::full(4));
        assert!((idx.diversity().unwrap() - 1.0).abs() < 1e-12);
    }
}
