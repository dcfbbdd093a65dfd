//! Incremental dirty-peer tracking for the event-driven round loop.
//!
//! The allocation loop's O(N·degree) scan visits every online peer every
//! round even when most of them provably have nothing to do. The round
//! loop instead records which peers' allocation-relevant state changed
//! since the current visit set was built, in two [`DirtySet`]s — one per
//! mark grade — and visits only those peers (plus, for one grade, the
//! members of their candidate rows).
//!
//! # Two mark grades
//!
//! * **Neighborhood mark** (`mark_dirty`): a candidate's interest
//!   *toward* the peer can have grown — its `absent ∖ inflight` grew, or
//!   its candidate edges reappeared. The peer is visited next round and
//!   the visit-set build expands it to its candidate row, which
//!   (edges being symmetric) is exactly the set of uploaders that may
//!   now serve it.
//! * **Revisit mark** (`mark_revisit`): only the peer's own allocation
//!   inputs changed — its ledger, its offer, its candidate row, its
//!   epoch balances. The peer alone is visited next round; no neighbor
//!   is expanded.
//!
//! Both grades also set the peer's live visit bit, so a change made
//! earlier in a round's shuffled order is seen by the peer's own visit
//! later in the same round.
//!
//! # The skip contract
//!
//! The dirty-set loop is the only production round loop. Each round it
//! visits a peer when the peer's live visit bit is set — the bit covers
//! neighborhood-marked peers and their candidate-row members,
//! revisit-marked peers, uploaders with outgoing partial transfers at
//! round start, and peers marked earlier in the same round — or when the
//! peer has outstanding obligations. Every other online peer is skipped,
//! and skipping it is provably a no-op: every built-in mechanism returns
//! no grants, draws no RNG, and mutates nothing when none of its
//! candidates is interested and no obligations are pending; a
//! memoryless mechanism (`Mechanism::allocate_is_memoryless`) also
//! repeats a grantless decision until one of its inputs changes.
//!
//! Why the revisit grade is sound: an uploader `u` gains an interested
//! candidate only when
//!
//! 1. its own offer grows — a delivery *to* `u`, which revisits `u`;
//! 2. a candidate's `absent ∖ inflight` grows — a stall, a dropped or
//!    lost delivery, a discarded obligation piece, or a departure or
//!    outage dropping transfers — each a neighborhood mark on the
//!    candidate, whose expansion reaches `u`;
//! 3. its candidate row gains a member — an arrival, a new edge, an
//!    outage end or an unban — where `u` itself is marked.
//!
//! A memoryless mechanism also reads its own ledger, which moves only
//! through its own visits and through transfers *to* it (revisit marks
//! on the receiver). A delivery removes the piece from the receiver's
//! `absent` and `inflight` together (and `lock_piece` clears `absent`
//! too), so it grows no one else's interest.
//!
//! | Grade | Site (`coop-swarm::sim`) | Why |
//! |---|---|---|
//! | revisit | `allocate_and_execute` own re-marks (budget drained, interested stateful peer, productive visit) | only the peer's own state changed |
//! | revisit | `account_bytes` (receiver) | only the receiver's ledger changed |
//! | revisit | `deliver` (receiver) | `absent` and `inflight` shrink together |
//! | revisit | `replenish_neighbors` (both endpoints) | each endpoint's row gains the other |
//! | revisit | consensus transition, each online neighbor | a neighbor gains or loses one row member; expanding it would visit two hops out |
//! | revisit | `epoch_close_pass` | settlement changes only the settled peer's own balances |
//! | neighborhood | `spawn_peer`, `spawn_successor` | a newcomer's edges appear and it wants pieces |
//! | neighborhood | `stalled_transfers_pass`, `obligations_pass` discards | the receiver's `absent ∖ inflight` grows |
//! | neighborhood | `depart`, `re_identity`, `seeder_fault_pass`, `start_outage` transfer drops | the dropped receivers' `absent ∖ inflight` grows |
//! | neighborhood | `end_outage`, `drop_delivery` | edges reappear; a lost piece stays absent |
//! | neighborhood | consensus transition, the banned or unbanned peer | its candidate edges vanish or reappear |
//!
//! The `hotpath-oracle` naive loop, which visits every online peer, is
//! the test oracle that pins this: both loops must produce identical
//! results. Debug builds also check the contract inside every run: the
//! round loop re-runs a fixed deterministic sample of its skips on a
//! clone of the skipped peer's mechanism with a draw-counting RNG
//! (`DrawCounter`) and asserts no grant and no draw.
//!
//! Determinism: marking is idempotent and order-insensitive (a bitmap
//! dedups), and consumers drain the set *sorted* — the visit set for a
//! round is a pure function of which peers were marked, never of the
//! order events happened to mark them in.

/// Deduplicated set of peer slots whose state changed since the last
/// visit-set build. `mark` is O(1); `drain_sorted` is O(k log k) in the
/// number of marked peers, independent of the population size.
#[derive(Clone, Debug, Default)]
pub struct DirtySet {
    /// One bit per peer slot; the dedup filter for `ids`.
    marked: Vec<u64>,
    /// The marked slots, insertion-ordered and duplicate-free.
    ids: Vec<u32>,
}

impl DirtySet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks one peer slot dirty (idempotent).
    pub fn mark(&mut self, id: u32) {
        let w = (id / 64) as usize;
        if w >= self.marked.len() {
            self.marked.resize(w + 1, 0);
        }
        let bit = 1u64 << (id % 64);
        if self.marked[w] & bit == 0 {
            self.marked[w] |= bit;
            self.ids.push(id);
        }
    }

    /// Marks every slot in `0..n` dirty.
    pub fn mark_all(&mut self, n: usize) {
        for id in 0..n as u32 {
            self.mark(id);
        }
    }

    /// Is the slot currently marked?
    pub fn contains(&self, id: u32) -> bool {
        self.marked
            .get((id / 64) as usize)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// Number of marked slots.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The marked slots in ascending order, without draining (checkpoint
    /// capture).
    pub fn snapshot_sorted(&self) -> Vec<u32> {
        let mut ids = self.ids.clone();
        ids.sort_unstable();
        ids
    }

    /// Removes and returns every marked slot in ascending order, leaving
    /// the set empty.
    pub fn drain_sorted(&mut self) -> Vec<u32> {
        self.ids.sort_unstable();
        let ids = std::mem::take(&mut self.ids);
        for &id in &ids {
            self.marked[(id / 64) as usize] &= !(1u64 << (id % 64));
        }
        ids
    }
}

/// A plain grow-on-demand bitmap over peer slots: the *live* visit set
/// for the round in progress. Rebuilt from the two [`DirtySet`]s (the
/// neighborhood set with candidate-row expansion, the revisit set without) plus
/// uploaders with outgoing partials at the top of each allocation phase,
/// and updated mid-round by both mark grades so a peer whose offer grows
/// during the loop is still visited later in the same round's shuffled
/// order.
#[derive(Clone, Debug, Default)]
pub struct VisitBits {
    bits: Vec<u64>,
}

impl VisitBits {
    /// Clears all bits and ensures capacity for `n` slots.
    pub fn clear(&mut self, n: usize) {
        self.bits.clear();
        self.bits.resize(n.div_ceil(64), 0);
    }

    /// Sets the bit for `id` (growing if a peer spawned mid-round).
    pub fn set(&mut self, id: u32) {
        let w = (id / 64) as usize;
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        self.bits[w] |= 1u64 << (id % 64);
    }

    /// Is the bit for `id` set?
    pub fn get(&self, id: u32) -> bool {
        self.bits
            .get((id / 64) as usize)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// OR-merges another bitmap (shard partials) into this one.
    pub fn merge(&mut self, other: &VisitBits) {
        if other.bits.len() > self.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        for (mine, theirs) in self.bits.iter_mut().zip(other.bits.iter()) {
            *mine |= theirs;
        }
    }
}

/// A deterministic RNG that counts its draws: the debug-build
/// skip-contract oracle hands it to a skipped peer's cloned mechanism,
/// which must never touch it.
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
pub(crate) struct DrawCounter {
    pub(crate) draws: u64,
}

#[cfg(debug_assertions)]
impl rand::RngCore for DrawCounter {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64 over the draw count: varied values, so a mechanism
        // that does draw cannot spin on a constant stream before the
        // oracle's assertion reports it.
        self.draws += 1;
        let mut z = self.draws.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn mark_dedups_and_drains_sorted() {
        let mut d = DirtySet::new();
        for &i in &[5u32, 1, 5, 900, 1, 64, 63] {
            d.mark(i);
        }
        assert_eq!(d.len(), 5);
        assert!(d.contains(900) && !d.contains(2));
        assert_eq!(d.snapshot_sorted(), vec![1, 5, 63, 64, 900]);
        assert_eq!(d.drain_sorted(), vec![1, 5, 63, 64, 900]);
        assert!(d.is_empty() && !d.contains(1));
        d.mark(1);
        assert_eq!(d.drain_sorted(), vec![1], "drain resets the dedup bitmap");
    }

    #[test]
    fn mark_all_covers_prefix() {
        let mut d = DirtySet::new();
        d.mark(70);
        d.mark_all(3);
        assert_eq!(d.drain_sorted(), vec![0, 1, 2, 70]);
    }

    #[test]
    fn visit_bits_set_get_merge() {
        let mut a = VisitBits::default();
        a.clear(10);
        a.set(3);
        a.set(200); // grows past the cleared capacity
        assert!(a.get(3) && a.get(200) && !a.get(4));
        let mut b = VisitBits::default();
        b.clear(300);
        b.set(64);
        b.merge(&a);
        assert!(b.get(3) && b.get(64) && b.get(200));
    }

    /// One random event in the incremental-vs-oracle battery.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Mark(u32),
        MarkAll(u8),
        Drain,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // The vendored prop_oneof is uniform; bias toward single marks
        // (the common event) by repeating the arm.
        prop_oneof![
            (0u32..500).prop_map(Op::Mark),
            (0u32..500).prop_map(Op::Mark),
            (0u32..500).prop_map(Op::Mark),
            (0u8..100).prop_map(Op::MarkAll),
            Just(Op::Drain),
        ]
    }

    proptest! {
        /// The incremental `DirtySet` is observationally identical to a
        /// brute-force `BTreeSet` recompute under arbitrary interleavings
        /// of marks (arrivals, departures, piece acquisitions, choke
        /// flips all reduce to marks), bulk marks, and drains.
        #[test]
        fn dirty_set_matches_brute_force_recompute(ops in proptest::collection::vec(op_strategy(), 0..120)) {
            let mut subject = DirtySet::new();
            let mut oracle: BTreeSet<u32> = BTreeSet::new();
            for op in ops {
                match op {
                    Op::Mark(id) => {
                        subject.mark(id);
                        oracle.insert(id);
                    }
                    Op::MarkAll(n) => {
                        subject.mark_all(n as usize);
                        oracle.extend(0..u32::from(n));
                    }
                    Op::Drain => {
                        let drained = subject.drain_sorted();
                        let expect: Vec<u32> = std::mem::take(&mut oracle).into_iter().collect();
                        prop_assert_eq!(drained, expect);
                    }
                }
                prop_assert_eq!(subject.len(), oracle.len());
                prop_assert_eq!(subject.snapshot_sorted(), oracle.iter().copied().collect::<Vec<u32>>());
                for probe in [0u32, 1, 63, 64, 499] {
                    prop_assert_eq!(subject.contains(probe), oracle.contains(&probe));
                }
            }
        }
    }
}
