//! Intra-simulation sharding: one swarm's round, split across scoped
//! worker threads.
//!
//! Three read-only phases of the round loop shard over contiguous
//! peer-ID ranges (the executor's slot-ordered merge pattern, applied
//! *inside* a sim):
//!
//! 1. dirty-set candidate-row expansion (per-thread visit bitmaps,
//!    OR-merged — order-independent by construction),
//! 2. the end-of-round mechanism hooks (each peer's `on_round_end`
//!    reads shared state and mutates only its own taken-out mechanism
//!    box, so any interleaving yields the same result),
//! 3. the seeder's candidate `needs()` scan (per-range vectors
//!    concatenated in range order, which *is* id order).
//!
//! Nothing here draws RNG, touches telemetry, or writes shared state, so
//! artifacts are byte-identical for any `--shards K` — pinned by the
//! sharded rows of the profile/byte-identity batteries.

use std::ops::Range;

use coop_incentives::hash::IdMap;
use coop_incentives::ledger::{ContributionLedger, ReputationTable};
use coop_incentives::{Obligation, PeerId, SwarmView};
use coop_piece::Bitfield;

use crate::peer::PeerState;
use crate::sim::SEEDER_ID;
use crate::soa::{Adjacency, HotPeers, InterestWords};
use crate::transfer::TransferTable;

/// Below this many items a phase runs sequentially: thread spawn costs
/// more than the scan. Purely a latency knob — results are identical
/// either way.
pub(crate) const SHARD_MIN_ITEMS: usize = 256;

/// Splits `len` items into at most `k` contiguous, disjoint ranges that
/// cover `0..len` in order. The first ranges carry the remainder, so no
/// range is more than one item longer than another.
pub(crate) fn shard_ranges(len: usize, k: usize) -> Vec<Range<usize>> {
    if len == 0 || k == 0 {
        return Vec::new();
    }
    let k = k.min(len);
    let base = len / k;
    let extra = len % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Can `id` currently exchange bytes? Free-function twin of
/// `Simulation::is_online`, read off the peer structs (the interest
/// test's debug oracle; the hot path reads the `HotPeers` flags).
fn is_online_in(peers: &[PeerState], id: PeerId) -> bool {
    if id == SEEDER_ID {
        return false;
    }
    peers
        .get(id.index() as usize)
        .is_some_and(|p| p.is_active() && !p.offline)
}

/// Everything the interest test reads, borrowed from the simulation.
#[derive(Clone, Copy)]
pub(crate) struct InterestCtx<'a> {
    /// Online flags by slot.
    pub hot: &'a HotPeers,
    /// Want/offer rows by slot, plus the seeder's offer row.
    pub words: &'a InterestWords,
    pub transfers: &'a TransferTable,
    pub seeder_online: bool,
    /// The authoritative peer structs and seeder field, read only by the
    /// debug-build oracle.
    pub peers: &'a [PeerState],
    pub seeder_bf: &'a Bitfield,
}

/// Does active peer `who` need at least one piece `from` can offer?
/// The single authority on interest: `Simulation::needs` delegates here,
/// and shard workers call it directly with borrowed arrays.
///
/// Online checks read the `HotPeers` flags and the bit test is
/// `any(want[who] ∧ offer[from])` over the arena rows. The transfer
/// table is probed only when the bit test fails: the answer is an OR of
/// side-effect-free terms, so the order cannot be observed. Debug builds
/// check every answer against the bitfield definition.
pub(crate) fn needs_with(ctx: &InterestCtx<'_>, who: PeerId, from: PeerId) -> bool {
    let answer = needs_from_words(ctx, who, from);
    debug_assert_eq!(
        answer,
        needs_from_bitfields(ctx, who, from),
        "interest arena diverged from the bitfields: {who} from {from}"
    );
    answer
}

/// The interest test over the arena rows and the `HotPeers` flags.
fn needs_from_words(ctx: &InterestCtx<'_>, who: PeerId, from: PeerId) -> bool {
    if who == from || !ctx.hot.id_online(who) {
        return false;
    }
    let bits = if from == SEEDER_ID {
        ctx.seeder_online && ctx.words.wants_from_seeder(who.index())
    } else {
        ctx.hot.id_online(from) && ctx.words.wants_from(who.index(), from.index())
    };
    // A partially transferred piece keeps the pair interested; without
    // this, the uploader would never re-select the target and the
    // transfer could stall one piece short of completion.
    bits || ctx.transfers.get(from, who).is_some()
}

/// The interest test over the authoritative `PeerState` bitfields: the
/// debug oracle [`needs_with`] is checked against.
fn needs_from_bitfields(ctx: &InterestCtx<'_>, who: PeerId, from: PeerId) -> bool {
    if who == from || !is_online_in(ctx.peers, who) {
        return false;
    }
    if ctx.transfers.get(from, who).is_some() {
        return true;
    }
    let w = &ctx.peers[who.index() as usize];
    let offer = if from == SEEDER_ID {
        if !ctx.seeder_online {
            return false;
        }
        ctx.seeder_bf
    } else if is_online_in(ctx.peers, from) {
        ctx.peers[from.index() as usize].offer()
    } else {
        return false;
    };
    w.absent().intersects_except(offer, w.inflight())
}

/// The plain-data slice of simulation state a shard worker needs to
/// serve [`SwarmView`] queries. Deliberately excludes the recorder, the
/// profiler, and the seed tree: workers observe, they never record or
/// draw.
pub(crate) struct ShardCtx<'a> {
    pub peers: &'a [PeerState],
    pub adjacency: &'a Adjacency,
    /// The interest test's inputs (the arena and the online flags).
    pub interest: InterestCtx<'a>,
    pub round_idx: u64,
    pub trusted_reputation: bool,
    pub trusted_cache: &'a IdMap<PeerId, f64>,
    pub reputation: &'a ReputationTable,
    /// Consensus-reputation scores by slot when the population runs the
    /// consensus mechanism; they then override both reputation sources,
    /// exactly like [`Simulation::reputation_of`](crate::Simulation).
    pub consensus_scores: Option<&'a [f64]>,
    pub piece_size: u64,
}

impl ShardCtx<'_> {
    fn needs(&self, who: PeerId, from: PeerId) -> bool {
        needs_with(&self.interest, who, from)
    }

    fn is_active(&self, id: PeerId) -> bool {
        id != SEEDER_ID
            && self
                .peers
                .get(id.index() as usize)
                .is_some_and(|p| p.is_active())
    }
}

/// A read-only window onto one allocating peer, served from borrowed
/// arrays instead of `&Simulation` — the thread-shareable twin of
/// `SimView`, answer-for-answer identical (pinned by the sharded
/// equivalence batteries).
pub(crate) struct ShardView<'a> {
    ctx: &'a ShardCtx<'a>,
    me: PeerId,
}

impl<'a> ShardView<'a> {
    pub(crate) fn new(ctx: &'a ShardCtx<'a>, me: PeerId) -> Self {
        ShardView { ctx, me }
    }

    fn my_state(&self) -> &PeerState {
        &self.ctx.peers[self.me.index() as usize]
    }
}

impl SwarmView for ShardView<'_> {
    fn me(&self) -> PeerId {
        self.me
    }

    fn round(&self) -> u64 {
        self.ctx.round_idx
    }

    fn neighbors(&self) -> &[PeerId] {
        self.ctx.adjacency.candidates(self.me.index())
    }

    fn peer_needs_from_me(&self, peer: PeerId) -> bool {
        self.ctx.needs(peer, self.me)
    }

    fn i_need_from(&self, peer: PeerId) -> bool {
        self.ctx.needs(self.me, peer)
    }

    fn peer_needs_from(&self, who: PeerId, from: PeerId) -> bool {
        self.ctx.needs(who, from)
    }

    fn piece_count(&self, peer: PeerId) -> u32 {
        if self.ctx.is_active(peer) {
            self.ctx.peers[peer.index() as usize].piece_count()
        } else {
            0
        }
    }

    fn reputation(&self, peer: PeerId) -> f64 {
        if let Some(scores) = self.ctx.consensus_scores {
            return scores.get(peer.index() as usize).copied().unwrap_or(0.0);
        }
        if self.ctx.trusted_reputation {
            self.ctx.trusted_cache.get(&peer).copied().unwrap_or(0.0)
        } else {
            self.ctx.reputation.reputation(peer)
        }
    }

    fn ledger(&self) -> &ContributionLedger {
        &self.my_state().ledger
    }

    fn obligations(&self) -> &[Obligation] {
        &self.my_state().obligations
    }

    fn uploading_to(&self, peer: PeerId) -> bool {
        self.ctx.interest.transfers.get(self.me, peer).is_some()
    }

    fn obligation_count(&self, peer: PeerId) -> usize {
        if self.ctx.is_active(peer) {
            // Conditional in-flight pieces count toward the backlog: they
            // become obligations on delivery, and uploaders that ignore
            // them overfill slow receivers faster than they can
            // reciprocate.
            let p = &self.ctx.peers[peer.index() as usize];
            p.obligations.len() + p.inflight_conditional
        } else {
            0
        }
    }

    fn piece_size(&self) -> u64 {
        self.ctx.piece_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ranges_are_balanced() {
        assert_eq!(shard_ranges(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(shard_ranges(4, 8), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(shard_ranges(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(shard_ranges(5, 1), vec![0..5]);
        assert_eq!(shard_ranges(7, 0), Vec::<Range<usize>>::new());
    }

    proptest! {
        /// For any dirty-set size and any shard count, the ranges cover
        /// `0..len` exactly once, in order, disjointly — so a partition
        /// of the *sorted* dirty ids into these ranges is a partition
        /// into contiguous peer-ID ranges, and concatenating per-range
        /// results in range order reproduces the sequential order.
        #[test]
        fn ranges_cover_disjointly_for_any_k(len in 0usize..10_000, k in 0usize..64) {
            let ranges = shard_ranges(len, k);
            if len == 0 || k == 0 {
                prop_assert!(ranges.is_empty());
                return Ok(());
            }
            prop_assert!(ranges.len() <= k);
            let mut expect_start = 0usize;
            let mut min_len = usize::MAX;
            let mut max_len = 0usize;
            for r in &ranges {
                prop_assert_eq!(r.start, expect_start, "gap or overlap at {}", r.start);
                prop_assert!(r.end > r.start, "empty range");
                min_len = min_len.min(r.len());
                max_len = max_len.max(r.len());
                expect_start = r.end;
            }
            prop_assert_eq!(expect_start, len, "ranges must cover to len");
            prop_assert!(max_len - min_len <= 1, "ranges must be balanced");
        }
    }
}
