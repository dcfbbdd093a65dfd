//! Struct-of-arrays mirrors of the hot per-round peer fields.
//!
//! The round loop's membership scans (allocation order, completion
//! detection, whitewash/collusion prefilters, arrival-time neighbor
//! pools) touch only a few bits of state per peer, but the naive scans
//! stride over the full
//! [`PeerState`](crate::peer::PeerState) structs — hundreds of bytes per
//! peer once bitfields, ledgers and neighbor sets are counted. At fig4
//! scale that turns every pass into a cache-miss walk. [`HotPeers`] packs
//! the scanned bits into contiguous arrays indexed by peer slot so the
//! per-round passes read cache-dense memory.
//!
//! The arrays are written in lockstep with the authoritative `PeerState`
//! mutations (spawn, depart, outage start/end, piece acquisition); debug
//! builds cross-check every consumer against a fresh scan of the peer
//! structs, and the `hotpath_equivalence` battery pins result equality
//! against the naive scans end to end.
//!
//! [`InterestWords`] does the same for the interest test `q(i, j)`: two
//! word rows per slot, `want = absent ∧ ¬inflight` and
//! `offer = have ∪ locked`, so "does `i` need a piece `j` holds" is an
//! AND over `num_pieces.div_ceil(64)` contiguous words instead of a
//! three-bitfield pass behind two `PeerState` pointers. The `PeerState`
//! bitfields stay authoritative (pickers, checkpoints and results read
//! them); the only writers of `absent`, `offer` and `inflight` are the
//! `PeerState` methods that take the arena, so a row cannot fall out of
//! step without a compile error, and debug builds check every answer
//! against the bitfields.

use coop_incentives::PeerId;
use coop_piece::Bitfield;

use crate::config::PeerTags;
use crate::peer::PeerState;

/// Peer slot is still participating (no departure recorded).
const ACTIVE: u8 = 1 << 0;
/// Peer slot is held dark by a fault-schedule outage.
const OFFLINE: u8 = 1 << 1;
/// Peer churns identities (`tags.whitewash_interval` set).
const WHITEWASH: u8 = 1 << 2;
/// Peer belongs to a collusion ring (`tags.collusion_ring` set).
const COLLUSION: u8 = 1 << 3;
/// Peer holds at least one outstanding T-Chain obligation. The dirty-set
/// round loop must visit obliged peers every round (an obligation can be
/// granted toward a non-neighbor, so candidate-side dirtiness alone would
/// miss them); this bit keeps that check off the full `PeerState` structs.
const OBLIGED: u8 = 1 << 4;
/// Peer connects to the whole swarm (`tags.large_view` set).
const LARGE_VIEW: u8 = 1 << 5;

/// Hot per-peer round state in struct-of-arrays layout, indexed by peer
/// slot (`PeerId::index()`).
#[derive(Clone, Debug, Default)]
pub(crate) struct HotPeers {
    /// Packed status bits; see the flag constants above.
    flags: Vec<u8>,
    /// Number of usable pieces (`have.count_ones()` kept incrementally;
    /// `have` bits are never cleared, so increments suffice).
    have_count: Vec<u32>,
}

impl HotPeers {
    /// Registers a freshly spawned peer slot. `have_count` is nonzero
    /// only for whitewash successors, which inherit pieces at birth.
    pub(crate) fn push(&mut self, tags: &PeerTags, have_count: u32) {
        let mut f = ACTIVE;
        if tags.whitewash_interval.is_some() {
            f |= WHITEWASH;
        }
        if tags.collusion_ring.is_some() {
            f |= COLLUSION;
        }
        if tags.large_view {
            f |= LARGE_VIEW;
        }
        self.flags.push(f);
        self.have_count.push(have_count);
    }

    /// Number of peer slots tracked (always `peers.len()`).
    pub(crate) fn len(&self) -> usize {
        self.flags.len()
    }

    /// Marks a slot departed (any departure kind).
    pub(crate) fn retire(&mut self, idx: usize) {
        self.flags[idx] &= !ACTIVE;
    }

    /// Sets or clears the outage bit.
    pub(crate) fn set_offline(&mut self, idx: usize, offline: bool) {
        if offline {
            self.flags[idx] |= OFFLINE;
        } else {
            self.flags[idx] &= !OFFLINE;
        }
    }

    /// Records one more usable piece for the slot.
    pub(crate) fn add_piece(&mut self, idx: usize) {
        self.have_count[idx] += 1;
    }

    /// Usable-piece count of the slot.
    pub(crate) fn have_count(&self, idx: usize) -> u32 {
        self.have_count[idx]
    }

    /// Mirror of `PeerState::is_active`.
    pub(crate) fn is_active(&self, idx: usize) -> bool {
        self.flags[idx] & ACTIVE != 0
    }

    /// Mirror of `is_active && !offline` (can exchange bytes this round).
    pub(crate) fn is_online(&self, idx: usize) -> bool {
        self.flags[idx] & (ACTIVE | OFFLINE) == ACTIVE
    }

    /// Sets or clears the outstanding-obligations bit (kept in lockstep
    /// with `PeerState::obligations` emptiness).
    pub(crate) fn set_obliged(&mut self, idx: usize, obliged: bool) {
        if obliged {
            self.flags[idx] |= OBLIGED;
        } else {
            self.flags[idx] &= !OBLIGED;
        }
    }

    /// Does the slot hold outstanding obligations?
    pub(crate) fn is_obliged(&self, idx: usize) -> bool {
        self.flags[idx] & OBLIGED != 0
    }

    /// Replaces the contents of `out` with the ids of every active slot in
    /// ascending id order — the candidate pool arrival-time neighbor
    /// selection shuffles — and returns the large-view slots among them
    /// (usually none, so no allocation). One pass over the packed flags
    /// instead of the peer structs; `out` is caller-owned so steady-state
    /// arrivals reuse one buffer.
    pub(crate) fn fill_active_ids(&self, out: &mut Vec<PeerId>) -> Vec<PeerId> {
        out.clear();
        let mut large_view = Vec::new();
        for (i, &f) in self.flags.iter().enumerate() {
            if f & ACTIVE != 0 {
                let id = PeerId::new(i as u32);
                out.push(id);
                if f & LARGE_VIEW != 0 {
                    large_view.push(id);
                }
            }
        }
        large_view
    }

    /// Online slot that whitewashes its identity.
    pub(crate) fn whitewash_online(&self, idx: usize) -> bool {
        self.is_online(idx) && self.flags[idx] & WHITEWASH != 0
    }

    /// Online slot that belongs to a collusion ring.
    pub(crate) fn colluder_online(&self, idx: usize) -> bool {
        self.is_online(idx) && self.flags[idx] & COLLUSION != 0
    }

    /// [`Self::is_online`] for any id: false for the seeder and for ids
    /// that were never spawned.
    pub(crate) fn id_online(&self, id: PeerId) -> bool {
        self.flags
            .get(id.index() as usize)
            .is_some_and(|&f| f & (ACTIVE | OFFLINE) == ACTIVE)
    }
}

/// The interest rows of every peer slot, `stride` words per row, indexed
/// by slot (`PeerId::index()`), plus the seeder's offer row.
#[derive(Clone, Debug, Default)]
pub(crate) struct InterestWords {
    /// Words per row: `num_pieces.div_ceil(64)`.
    stride: usize,
    /// `absent ∧ ¬inflight`: the pieces the slot would fetch.
    want: Vec<u64>,
    /// `have ∪ locked`: the pieces the slot can upload.
    offer: Vec<u64>,
    /// The seeder's offer row (its `seeder_bf` words).
    seeder: Vec<u64>,
}

impl InterestWords {
    /// An empty arena for a file whose seeder offers `seeder_bf`.
    pub(crate) fn new(seeder_bf: &Bitfield) -> Self {
        InterestWords {
            stride: (seeder_bf.len() as usize).div_ceil(64),
            want: Vec::new(),
            offer: Vec::new(),
            seeder: seeder_bf.word_iter().collect(),
        }
    }

    /// The arena for `peers` (slot `i` = `peers[i]`), rebuilt from their
    /// bitfields — how a restored checkpoint gets its rows back.
    pub(crate) fn rebuilt(seeder_bf: &Bitfield, peers: &[PeerState]) -> Self {
        let mut words = InterestWords::new(seeder_bf);
        for p in peers {
            words.push(p);
        }
        words
    }

    /// Appends `peer`'s rows. Slots are pushed in spawn order, so the new
    /// row's slot must be `peer.id`.
    pub(crate) fn push(&mut self, peer: &PeerState) {
        debug_assert_eq!(
            peer.id.index() as usize,
            self.len(),
            "interest rows are pushed in slot order"
        );
        self.want.extend(
            peer.absent()
                .word_iter()
                .zip(peer.inflight().word_iter())
                .map(|(a, x)| a & !x),
        );
        self.offer.extend(peer.offer().word_iter());
    }

    /// Number of slots with rows.
    pub(crate) fn len(&self) -> usize {
        self.want.len().checked_div(self.stride).unwrap_or(0)
    }

    /// The word range of `slot`'s row.
    fn row(&self, slot: u32) -> std::ops::Range<usize> {
        let start = slot as usize * self.stride;
        start..start + self.stride
    }

    /// The word index and mask of `piece` in `slot`'s row.
    fn bit(&self, slot: u32, piece: u32) -> (usize, u64) {
        let word = slot as usize * self.stride + piece as usize / 64;
        (word, 1u64 << (piece % 64))
    }

    /// Sets or clears `piece` in `slot`'s want row.
    pub(crate) fn set_want(&mut self, slot: u32, piece: u32, on: bool) {
        let (w, mask) = self.bit(slot, piece);
        set_bit(&mut self.want[w], mask, on);
    }

    /// Sets or clears `piece` in `slot`'s offer row.
    pub(crate) fn set_offer(&mut self, slot: u32, piece: u32, on: bool) {
        let (w, mask) = self.bit(slot, piece);
        set_bit(&mut self.offer[w], mask, on);
    }

    /// Overwrites `slot`'s want row with `absent`'s words (nothing in
    /// flight any more).
    pub(crate) fn reset_want(&mut self, slot: u32, absent: &Bitfield) {
        let row = self.row(slot);
        for (w, a) in self.want[row].iter_mut().zip(absent.word_iter()) {
            *w = a;
        }
    }

    /// `want[who] ∧ offer[from] ≠ ∅`: does slot `who` want a piece slot
    /// `from` offers?
    pub(crate) fn wants_from(&self, who: u32, from: u32) -> bool {
        any_common(&self.want[self.row(who)], &self.offer[self.row(from)])
    }

    /// Does slot `who` want a piece the seeder offers?
    pub(crate) fn wants_from_seeder(&self, who: u32) -> bool {
        any_common(&self.want[self.row(who)], &self.seeder)
    }

    /// `slot`'s (want, offer) rows — test access.
    #[cfg(test)]
    fn rows(&self, slot: u32) -> (&[u64], &[u64]) {
        (&self.want[self.row(slot)], &self.offer[self.row(slot)])
    }
}

fn set_bit(word: &mut u64, mask: u64, on: bool) {
    if on {
        *word |= mask;
    } else {
        *word &= !mask;
    }
}

fn any_common(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coop_des::SimTime;
    use coop_incentives::{build_mechanism, GrantReason, MechanismKind, MechanismParams};
    use proptest::prelude::*;

    use crate::shard::{needs_with, InterestCtx};
    use crate::sim::SEEDER_ID;
    use crate::transfer::{InFlight, TransferTable};

    fn peer(id: u32, num_pieces: u32) -> PeerState {
        PeerState::new(
            PeerId::new(id),
            1000.0,
            PeerTags::compliant(),
            SimTime::ZERO,
            0,
            num_pieces,
            build_mechanism(MechanismKind::Altruism, MechanismParams::default()),
        )
    }

    /// The rows a slot must hold, recomputed from its bitfields.
    fn expected_rows(p: &PeerState) -> (Vec<u64>, Vec<u64>) {
        let want = p
            .absent()
            .word_iter()
            .zip(p.inflight().word_iter())
            .map(|(a, x)| a & !x)
            .collect();
        (want, p.offer().word_iter().collect())
    }

    fn assert_rows(words: &InterestWords, p: &PeerState, step: &str) {
        let (want, offer) = expected_rows(p);
        assert_eq!(
            words.rows(p.id.index()),
            (&want[..], &offer[..]),
            "slot {} after {step}",
            p.id.index()
        );
    }

    #[test]
    fn interest_rows_track_the_peer_lifecycle() {
        // 70 pieces: two words per row, so the tail word is exercised.
        let np = 70;
        let seeder_bf = Bitfield::full(np);
        let mut words = InterestWords::new(&seeder_bf);
        let (mut a, mut b) = (peer(0, np), peer(1, np));
        words.push(&a);
        words.push(&b);
        assert_eq!(words.len(), 2);
        assert_rows(&words, &a, "spawn");
        assert!(words.wants_from_seeder(0) && !words.wants_from(0, 1));

        // Delivery: fetch, then acquire.
        a.start_fetch(3, false, &mut words);
        assert_rows(&words, &a, "fetch start");
        a.end_fetch(3, false, &mut words);
        a.acquire_usable(3, &mut words);
        assert_rows(&words, &a, "delivery");
        assert!(words.wants_from(1, 0) && !words.wants_from(0, 1));

        // Lock (a conditional T-Chain delivery), then discard on expiry.
        b.start_fetch(3, true, &mut words);
        assert!(!words.wants_from(1, 0), "in-flight piece is not wanted");
        b.end_fetch(3, true, &mut words);
        b.lock_piece(3, &mut words);
        assert_eq!(b.inflight_conditional, 0);
        assert_rows(&words, &b, "lock");
        assert!(!words.wants_from(1, 0));
        assert!(b.discard_locked(3, &mut words));
        assert_rows(&words, &b, "discard");
        assert!(words.wants_from(1, 0), "a discarded piece is wanted again");

        // Stall: the fetch ends without the piece.
        a.start_fetch(65, false, &mut words);
        a.end_fetch(65, false, &mut words);
        assert_rows(&words, &a, "stall");

        // Outage and departure forget every fetch.
        a.start_fetch(10, true, &mut words);
        a.start_fetch(66, false, &mut words);
        assert_rows(&words, &a, "fetch start");
        a.drop_fetches(&mut words);
        assert_eq!(a.inflight_conditional, 0);
        assert_rows(&words, &a, "outage");
        b.start_fetch(12, false, &mut words);
        b.drop_fetches(&mut words);
        assert_rows(&words, &b, "departure");

        // Whitewash: the successor's row exists before it inherits.
        let mut c = peer(2, np);
        words.push(&c);
        for piece in a.have().iter_ones().collect::<Vec<_>>() {
            c.acquire_usable(piece, &mut words);
        }
        assert_rows(&words, &c, "whitewash");
        assert!(words.wants_from(1, 2) && !words.wants_from(2, 0));

        // A rebuild from the bitfields reproduces every row.
        let rebuilt = InterestWords::rebuilt(&seeder_bf, &[a, b, c]);
        assert_eq!(rebuilt.want, words.want);
        assert_eq!(rebuilt.offer, words.offer);
    }

    /// The per-piece interest definition `needs_with` must reproduce.
    fn needs_per_piece(
        peers: &[PeerState],
        transfers: &TransferTable,
        seeder_bf: &Bitfield,
        who: PeerId,
        from: PeerId,
    ) -> bool {
        let online = |id: PeerId| {
            peers
                .get(id.index() as usize)
                .is_some_and(|p| p.is_active() && !p.offline)
        };
        if who == from || !online(who) {
            return false;
        }
        if transfers.get(from, who).is_some() {
            return true;
        }
        let offer = if from == SEEDER_ID {
            seeder_bf
        } else if online(from) {
            peers[from.index() as usize].offer()
        } else {
            return false;
        };
        let w = &peers[who.index() as usize];
        (0..seeder_bf.len()).any(|p| w.absent().get(p) && !w.inflight().get(p) && offer.get(p))
    }

    proptest! {
        /// On random piece, fetch, outage, departure and transfer states,
        /// the arena answer of `needs_with` equals the per-piece bitfield
        /// definition for every ordered pair, the seeder included as a
        /// source. (Debug builds also check it against the fused
        /// `intersects_except` pass inside every call.)
        #[test]
        fn arena_needs_equals_bitfield_needs(
            num_pieces in 1u32..140,
            ops in proptest::collection::vec((0u8..9, 0u32..4, 0u32..140), 0..160),
        ) {
            let seeder_bf = Bitfield::full(num_pieces);
            let mut words = InterestWords::new(&seeder_bf);
            let mut hot = HotPeers::default();
            let mut peers: Vec<PeerState> = (0..4).map(|i| peer(i, num_pieces)).collect();
            for p in &peers {
                words.push(p);
                hot.push(&p.tags, 0);
            }
            let mut transfers = TransferTable::new();
            for (op, slot, piece) in ops {
                let piece = piece % num_pieces;
                let conditional = slot % 2 == 0;
                let p = &mut peers[slot as usize];
                match op {
                    0 if p.needs_piece(piece) => p.start_fetch(piece, conditional, &mut words),
                    1 if p.inflight().get(piece) => p.end_fetch(piece, conditional, &mut words),
                    2 => p.acquire_usable(piece, &mut words),
                    3 if !p.have().get(piece) => p.lock_piece(piece, &mut words),
                    4 => {
                        p.discard_locked(piece, &mut words);
                    }
                    5 => {
                        p.unlock_piece(piece);
                    }
                    6 => {
                        p.offline = !p.offline;
                        hot.set_offline(slot as usize, p.offline);
                        p.drop_fetches(&mut words);
                    }
                    7 if piece % 7 == 0 => {
                        p.departure = Some(crate::peer::Departure::Churned(SimTime::ZERO));
                        hot.retire(slot as usize);
                        p.drop_fetches(&mut words);
                    }
                    8 => {
                        let to = PeerId::new(slot);
                        let from = match piece % 5 {
                            4 => SEEDER_ID,
                            f => PeerId::new(f),
                        };
                        if from != to && transfers.get(from, to).is_none() {
                            transfers.start(from, to, InFlight {
                                piece,
                                piece_len: 1,
                                bytes_done: 0,
                                condition: None,
                                reason: GrantReason::Altruism,
                                last_progress_round: 0,
                            });
                        }
                    }
                    _ => {}
                }
            }
            let ctx = InterestCtx {
                hot: &hot,
                words: &words,
                transfers: &transfers,
                seeder_online: true,
                peers: &peers,
                seeder_bf: &seeder_bf,
            };
            let ids: Vec<PeerId> = (0..4).map(PeerId::new).collect();
            for &who in &ids {
                for &from in ids.iter().chain([&SEEDER_ID]) {
                    prop_assert_eq!(
                        needs_with(&ctx, who, from),
                        needs_per_piece(&peers, &transfers, &seeder_bf, who, from),
                        "{} from {}", who, from
                    );
                }
            }
            let rebuilt = InterestWords::rebuilt(&seeder_bf, &peers);
            prop_assert_eq!(&rebuilt.want, &words.want);
            prop_assert_eq!(&rebuilt.offer, &words.offer);
        }
    }

    #[test]
    fn flags_track_lifecycle() {
        let mut hot = HotPeers::default();
        hot.push(&PeerTags::compliant(), 0);
        let ww = PeerTags {
            whitewash_interval: Some(4),
            ..PeerTags::compliant()
        };
        hot.push(&ww, 3);
        assert_eq!(hot.len(), 2);
        assert!(hot.is_active(0) && hot.is_online(0));
        assert!(!hot.whitewash_online(0) && !hot.colluder_online(0));
        assert!(hot.whitewash_online(1));
        assert_eq!(hot.have_count(1), 3);
        hot.add_piece(1);
        assert_eq!(hot.have_count(1), 4);
        hot.set_offline(1, true);
        assert!(hot.is_active(1) && !hot.is_online(1) && !hot.whitewash_online(1));
        hot.set_offline(1, false);
        assert!(hot.is_online(1));
        hot.retire(0);
        assert!(!hot.is_active(0) && !hot.is_online(0));
    }

    #[test]
    fn active_fill_and_large_view_track_lifecycle() {
        let mut hot = HotPeers::default();
        let lv = PeerTags {
            large_view: true,
            ..PeerTags::compliant()
        };
        for tags in [PeerTags::compliant(), lv, lv, PeerTags::compliant()] {
            hot.push(&tags, 0);
        }
        hot.retire(2);
        hot.set_offline(1, true);
        let mut ids = vec![PeerId::new(99)];
        let large_view = hot.fill_active_ids(&mut ids);
        assert_eq!(ids, [0, 1, 3].map(PeerId::new), "outages stay in the pool");
        assert_eq!(
            large_view,
            [PeerId::new(1)],
            "departed large viewers drop out"
        );
    }

    #[test]
    fn obliged_bit_toggles_independently() {
        let mut hot = HotPeers::default();
        hot.push(&PeerTags::compliant(), 0);
        assert!(!hot.is_obliged(0));
        hot.set_obliged(0, true);
        assert!(hot.is_obliged(0) && hot.is_online(0));
        hot.set_offline(0, true);
        assert!(hot.is_obliged(0), "outage must not clear obligations");
        hot.set_obliged(0, false);
        assert!(!hot.is_obliged(0));
    }
}
