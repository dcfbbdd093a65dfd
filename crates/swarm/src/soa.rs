//! Struct-of-arrays mirrors of the hot per-round peer fields.
//!
//! The round loop's membership scans (allocation order, completion
//! detection, whitewash/collusion prefilters, arrival-time neighbor
//! pools) touch only a few bits of state per peer, but the naive scans
//! stride over the full
//! [`PeerState`](crate::peer::PeerState) structs — hundreds of bytes per
//! peer once bitfields and ledgers are counted. At fig4
//! scale that turns every pass into a cache-miss walk. [`HotPeers`] packs
//! the scanned bits into contiguous arrays indexed by peer slot so the
//! per-round passes read cache-dense memory. It also keeps the active
//! slots as an ascending id list, so an arrival copies its candidate pool
//! instead of scanning every slot.
//!
//! The arrays are written in lockstep with the authoritative `PeerState`
//! mutations (spawn, depart, outage start/end, piece acquisition); debug
//! builds cross-check every consumer
//! against a fresh scan of the peer structs and the whole mirror against
//! [`HotPeers::rebuilt`] at every checkpoint capture, and the
//! `hotpath_equivalence` battery pins result equality against the naive
//! scans end to end.
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
//!
//! [`Adjacency`] holds the neighbor graph itself: each slot's sorted
//! neighbor row (primary state, checkpointed; its length is the degree)
//! and a derived candidate row, the neighbors the allocation views serve.
//! Every edge edit and status change names the slots whose candidate rows
//! it invalidates, and a refresh re-filters only those rows.

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

/// Hot per-peer round state in struct-of-arrays layout, indexed by peer
/// slot (`PeerId::index()`), plus the active slots as an ascending id
/// list.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct HotPeers {
    /// Packed status bits; see the flag constants above.
    flags: Vec<u8>,
    /// Number of usable pieces (`have.count_ones()` kept incrementally;
    /// `have` bits are never cleared, so increments suffice).
    have_count: Vec<u32>,
    /// Every active slot, ascending: the arrival-time candidate pool.
    /// Spawns append (a new slot is the largest id); a departure removes
    /// its slot by binary search.
    active: Vec<PeerId>,
    /// The active large-view slots, ascending (usually empty).
    large_view: Vec<PeerId>,
}

impl HotPeers {
    /// Registers a freshly spawned peer slot. `have_count` is nonzero
    /// only for whitewash successors, which inherit pieces at birth.
    pub(crate) fn push(&mut self, tags: &PeerTags, have_count: u32) {
        let id = PeerId::new(self.flags.len() as u32);
        let mut f = ACTIVE;
        if tags.whitewash_interval.is_some() {
            f |= WHITEWASH;
        }
        if tags.collusion_ring.is_some() {
            f |= COLLUSION;
        }
        if tags.large_view {
            self.large_view.push(id);
        }
        self.flags.push(f);
        self.have_count.push(have_count);
        self.active.push(id);
    }

    /// The mirror of `peers` (slot `i` = `peers[i]`), rebuilt from the
    /// peer structs — how a restored checkpoint gets it back.
    pub(crate) fn rebuilt(peers: &[PeerState]) -> Self {
        let mut hot = HotPeers::default();
        for (i, p) in peers.iter().enumerate() {
            hot.push(&p.tags, p.have().count_ones());
            hot.set_offline(i, p.offline);
            hot.set_obliged(i, !p.obligations.is_empty());
            if !p.is_active() {
                hot.retire(i);
            }
        }
        hot
    }

    /// Number of peer slots tracked (always `peers.len()`).
    pub(crate) fn len(&self) -> usize {
        self.flags.len()
    }

    /// Marks a slot departed (any departure kind) and drops it from the
    /// active lists.
    pub(crate) fn retire(&mut self, idx: usize) {
        self.flags[idx] &= !ACTIVE;
        let id = PeerId::new(idx as u32);
        for list in [&mut self.active, &mut self.large_view] {
            if let Ok(pos) = list.binary_search(&id) {
                list.remove(pos);
            }
        }
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

    /// Every active slot in ascending id order — the candidate pool
    /// arrival-time neighbor selection shuffles.
    pub(crate) fn active_ids(&self) -> &[PeerId] {
        &self.active
    }

    /// The active large-view slots in ascending id order.
    pub(crate) fn large_view_ids(&self) -> &[PeerId] {
        &self.large_view
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

/// The neighbor graph, indexed by peer slot: each slot's sorted neighbor
/// row and the candidate row derived from it.
///
/// A neighbor row is primary state (checkpoints carry it) and its length
/// is the slot's degree. Edges are symmetric and pruned eagerly when an
/// identity departs, whose own row is then emptied, so an active slot's
/// row holds live peer slots only (never the seeder).
///
/// A candidate row is what the allocation views serve as `neighbors()`:
/// the row's members that are online and not banned, ascending, or
/// nothing when the slot itself is offline, departed or banned. It is
/// derived. Every edge edit names its endpoint ([`Self::insert`],
/// [`Self::remove`]), every status change of a slot (spawn, departure,
/// outage start or end, ban transition) names the slot and its
/// neighbors ([`Self::touch_neighborhood`]), and [`Self::refresh`]
/// re-filters only the named rows. Until then every candidate row keeps
/// the value of the refresh that last filtered it, so the views between
/// two refreshes read one consistent snapshot.
///
/// A row named only by appends (a newcomer holds the largest slot, so
/// joining it to a row is an append) kept its filtered prefix and the
/// status of every member in it; its refresh filters just the appended
/// tail. Any other naming re-filters the whole row.
#[derive(Clone, Debug)]
pub(crate) struct Adjacency {
    /// Each slot's neighbors, ascending.
    rows: Vec<Vec<PeerId>>,
    /// Each slot's candidate row as of the refresh that last filtered it.
    candidates: Vec<Vec<PeerId>>,
    /// Each slot's neighbor-row length at that refresh.
    filtered_len: Vec<u32>,
    /// The slots named since the last refresh, each once.
    stale: Vec<u32>,
    /// How each slot was named since the last refresh.
    grade: Vec<Stale>,
    /// Some slot was named since the last refresh (true before the first
    /// one): the next refresh re-filters, and counts as a rebuild.
    pending: bool,
}

/// How far a candidate row is out of date.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Stale {
    /// Current.
    No,
    /// The neighbor row only gained members at its end.
    Appended,
    /// Anything else: the whole row is re-filtered.
    Full,
}

impl Default for Adjacency {
    fn default() -> Self {
        Adjacency {
            rows: Vec::new(),
            candidates: Vec::new(),
            filtered_len: Vec::new(),
            stale: Vec::new(),
            grade: Vec::new(),
            pending: true,
        }
    }
}

impl Adjacency {
    /// The store for the neighbor rows `rows` (slot `i` = `rows[i]`),
    /// every candidate row filtered afresh — how a restored checkpoint
    /// gets them back. `pending` is the captured run's flag, so the
    /// restored run counts the same rebuilds.
    pub(crate) fn restored(
        rows: Vec<Vec<PeerId>>,
        pending: bool,
        hot: &HotPeers,
        banned: impl Fn(u32) -> bool,
    ) -> Self {
        let mut adj = Adjacency {
            candidates: vec![Vec::new(); rows.len()],
            filtered_len: vec![0; rows.len()],
            grade: vec![Stale::No; rows.len()],
            rows,
            ..Adjacency::default()
        };
        adj.refresh_all(hot, banned);
        adj.pending = pending;
        adj
    }

    /// Adds the next slot with the neighbor row `row` (strictly
    /// ascending). Its candidate row is filtered at the next refresh.
    pub(crate) fn push(&mut self, row: Vec<PeerId>) {
        debug_assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "neighbor rows are strictly ascending"
        );
        let slot = self.rows.len() as u32;
        self.rows.push(row);
        self.candidates.push(Vec::new());
        self.filtered_len.push(0);
        self.grade.push(Stale::No);
        self.touch(slot);
    }

    /// Every slot's neighbor row (what a checkpoint carries).
    pub(crate) fn rows(&self) -> &[Vec<PeerId>] {
        &self.rows
    }

    /// Has some slot been named since the last refresh?
    pub(crate) fn pending(&self) -> bool {
        self.pending
    }

    /// `slot`'s neighbors, ascending.
    pub(crate) fn row(&self, slot: u32) -> &[PeerId] {
        &self.rows[slot as usize]
    }

    /// `slot`'s neighbor count.
    pub(crate) fn degree(&self, slot: u32) -> usize {
        self.rows[slot as usize].len()
    }

    /// `slot`'s candidate row as of the last refresh; empty for a slot
    /// that was never filtered.
    pub(crate) fn candidates(&self, slot: u32) -> &[PeerId] {
        self.candidates
            .get(slot as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Adds `id` to `at`'s row and names `at`; false if it was there
    /// already.
    pub(crate) fn insert(&mut self, at: u32, id: PeerId) -> bool {
        let row = &mut self.rows[at as usize];
        let grade = match row.last() {
            Some(&last) if last >= id => match row.binary_search(&id) {
                Ok(_) => return false,
                Err(pos) => {
                    row.insert(pos, id);
                    Stale::Full
                }
            },
            _ => {
                row.push(id);
                Stale::Appended
            }
        };
        self.name(at, grade);
        true
    }

    /// Removes `id` from `at`'s row, if `at` is a slot, and names `at`;
    /// false if it was not there.
    pub(crate) fn remove(&mut self, at: u32, id: PeerId) -> bool {
        let Some(row) = self.rows.get_mut(at as usize) else {
            return false;
        };
        let Ok(pos) = row.binary_search(&id) else {
            return false;
        };
        row.remove(pos);
        self.touch(at);
        true
    }

    /// Empties `slot`'s row (a departing identity) and returns it. The
    /// caller then removes the slot from each former neighbor's row,
    /// which names those slots.
    pub(crate) fn take_row(&mut self, slot: u32) -> Vec<PeerId> {
        self.touch(slot);
        std::mem::take(&mut self.rows[slot as usize])
    }

    /// Names `slot`: its whole candidate row is re-filtered at the next
    /// refresh.
    pub(crate) fn touch(&mut self, slot: u32) {
        self.name(slot, Stale::Full);
    }

    /// Names `slot` and every neighbor: `slot`'s liveness or ban state
    /// changed, which moves it in or out of each neighbor's candidate
    /// row.
    pub(crate) fn touch_neighborhood(&mut self, slot: u32) {
        self.touch(slot);
        for &n in &self.rows[slot as usize] {
            mark(&mut self.stale, &mut self.grade, n.index(), Stale::Full);
        }
    }

    fn name(&mut self, slot: u32, grade: Stale) {
        self.pending = true;
        mark(&mut self.stale, &mut self.grade, slot, grade);
    }

    /// Re-filters the candidate row of every slot named since the last
    /// refresh, against `hot`'s liveness flags and `banned` (the current
    /// round's ban state by slot). Returns whether any slot was named.
    pub(crate) fn refresh(&mut self, hot: &HotPeers, banned: impl Fn(u32) -> bool) -> bool {
        if !std::mem::take(&mut self.pending) {
            return false;
        }
        // Slot order keeps the walk over the rows monotone; the rows are
        // independent, so the order is free.
        self.stale.sort_unstable();
        for slot in self.stale.drain(..) {
            let i = slot as usize;
            let (out, row) = (&mut self.candidates[i], &self.rows[i]);
            match std::mem::replace(&mut self.grade[i], Stale::No) {
                Stale::Appended => {
                    // The slot's own status is unchanged, so its
                    // candidate row is empty exactly when it was.
                    if eligible(slot, hot, &banned) {
                        let tail = &row[self.filtered_len[i] as usize..];
                        out.extend(
                            tail.iter()
                                .copied()
                                .filter(|&n| eligible(n.index(), hot, &banned)),
                        );
                    }
                }
                _ => filter_row(out, row, slot, hot, &banned),
            }
            self.filtered_len[i] = row.len() as u32;
        }
        true
    }

    /// Re-filters every candidate row, named or not: the naive oracle's
    /// refresh and a restored run's first fill.
    pub(crate) fn refresh_all(&mut self, hot: &HotPeers, banned: impl Fn(u32) -> bool) {
        for (i, (out, row)) in self.candidates.iter_mut().zip(&self.rows).enumerate() {
            filter_row(out, row, i as u32, hot, &banned);
            self.filtered_len[i] = row.len() as u32;
        }
        self.stale.clear();
        self.grade.fill(Stale::No);
        self.pending = false;
    }

    /// Panics unless every candidate row that no slot named since the
    /// last refresh equals a fresh filter of its neighbor row (debug
    /// builds call it after each refresh that re-filtered and at every
    /// checkpoint capture).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn assert_consistent(&self, hot: &HotPeers, banned: impl Fn(u32) -> bool) {
        let mut fresh = Vec::new();
        for (i, row) in self.rows.iter().enumerate() {
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "neighbor row of slot {i} is not strictly ascending"
            );
            if self.grade[i] != Stale::No {
                continue;
            }
            filter_row(&mut fresh, row, i as u32, hot, &banned);
            assert_eq!(
                self.candidates[i], fresh,
                "patched candidate row of slot {i} diverged from a full recompute"
            );
        }
    }
}

/// Raises `slot`'s staleness to at least `grade`, listing it once.
fn mark(stale: &mut Vec<u32>, grades: &mut [Stale], slot: u32, grade: Stale) {
    let g = &mut grades[slot as usize];
    if *g == Stale::No {
        stale.push(slot);
    }
    *g = (*g).max(grade);
}

/// Can slot `slot` appear in (and own) a candidate row?
fn eligible(slot: u32, hot: &HotPeers, banned: &impl Fn(u32) -> bool) -> bool {
    hot.is_online(slot as usize) && !banned(slot)
}

/// Writes `slot`'s candidate row: the members of its neighbor row `row`
/// that are online and not banned, if `slot` itself is. A departed slot's
/// storage is released.
fn filter_row(
    out: &mut Vec<PeerId>,
    row: &[PeerId],
    slot: u32,
    hot: &HotPeers,
    banned: &impl Fn(u32) -> bool,
) {
    if !hot.is_active(slot as usize) {
        *out = Vec::new();
        return;
    }
    out.clear();
    if eligible(slot, hot, banned) {
        out.extend(
            row.iter()
                .copied()
                .filter(|&n| eligible(n.index(), hot, banned)),
        );
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
        assert_eq!(
            hot.active_ids(),
            [0, 1, 3].map(PeerId::new),
            "outages stay in the pool"
        );
        assert_eq!(
            hot.large_view_ids(),
            [PeerId::new(1)],
            "departed large viewers drop out"
        );
    }

    /// A miniature swarm for the adjacency tests: peer structs, their hot
    /// mirror and row store, an independent edge model (`BTreeSet` per
    /// slot), and the consensus ban table (`banned_until`, permanent
    /// bans) at the current round. Every mutation names rows exactly as
    /// the simulation's sites do.
    struct World {
        peers: Vec<PeerState>,
        hot: HotPeers,
        words: InterestWords,
        adj: Adjacency,
        model: Vec<std::collections::BTreeSet<PeerId>>,
        banned_until: Vec<u64>,
        perm_banned: Vec<bool>,
        round: u64,
    }

    impl World {
        fn new() -> Self {
            World {
                peers: Vec::new(),
                hot: HotPeers::default(),
                words: InterestWords::new(&Bitfield::full(8)),
                adj: Adjacency::default(),
                model: Vec::new(),
                banned_until: Vec::new(),
                perm_banned: Vec::new(),
                round: 0,
            }
        }

        fn banned(&self, slot: u32) -> bool {
            let i = slot as usize;
            self.perm_banned[i] || self.round < self.banned_until[i]
        }

        fn active(&self) -> Vec<u32> {
            self.hot.active_ids().iter().map(|id| id.index()).collect()
        }

        /// Spawns the next slot joined to `neighbors` (active slots),
        /// with `have_count` inherited pieces; returns its slot.
        fn spawn(&mut self, neighbors: &[u32], have_count: u32) -> u32 {
            let slot = self.peers.len() as u32;
            let id = PeerId::new(slot);
            let mut row: Vec<PeerId> = neighbors.iter().map(|&n| PeerId::new(n)).collect();
            row.sort_unstable();
            row.dedup();
            for &n in &row {
                assert!(self.adj.insert(n.index(), id), "a newcomer's id is new");
                self.model[n.index() as usize].insert(id);
            }
            let mut newcomer = peer(slot, 8);
            self.words.push(&newcomer);
            for piece in 0..have_count {
                newcomer.acquire_usable(piece, &mut self.words);
            }
            self.peers.push(newcomer);
            self.hot.push(&self.peers[slot as usize].tags, have_count);
            self.model.push(row.iter().copied().collect());
            self.adj.push(row);
            self.banned_until.push(0);
            self.perm_banned.push(false);
            slot
        }

        fn link(&mut self, a: u32, b: u32) {
            for (x, y) in [(a, b), (b, a)] {
                let inserted = self.adj.insert(x, PeerId::new(y));
                assert_eq!(inserted, self.model[x as usize].insert(PeerId::new(y)));
            }
        }

        fn unlink(&mut self, a: u32, b: u32) {
            for (x, y) in [(a, b), (b, a)] {
                let removed = self.adj.remove(x, PeerId::new(y));
                assert_eq!(removed, self.model[x as usize].remove(&PeerId::new(y)));
            }
        }

        fn depart(&mut self, d: u32) {
            let id = PeerId::new(d);
            for n in self.adj.take_row(d) {
                assert!(self.adj.remove(n.index(), id), "edges are symmetric");
            }
            for n in std::mem::take(&mut self.model[d as usize]) {
                self.model[n.index() as usize].remove(&id);
            }
            self.peers[d as usize].departure = Some(crate::peer::Departure::Churned(SimTime::ZERO));
            self.hot.retire(d as usize);
        }

        fn set_offline(&mut self, slot: u32, offline: bool) {
            self.peers[slot as usize].offline = offline;
            self.hot.set_offline(slot as usize, offline);
            self.adj.touch_neighborhood(slot);
        }

        /// A consensus threshold crossing at the current round: a
        /// temporary ban of `rounds` rounds, or a permanent one.
        fn ban(&mut self, slot: u32, rounds: Option<u64>) {
            match rounds {
                Some(k) => self.banned_until[slot as usize] = self.round + 1 + k,
                None => self.perm_banned[slot as usize] = true,
            }
            self.adj.touch_neighborhood(slot);
        }

        /// Closes the round: temporary bans that expire at the next
        /// round re-admit their (active) peers, as the consensus pass's
        /// unban transitions do.
        fn end_round(&mut self) {
            for slot in 0..self.peers.len() as u32 {
                let i = slot as usize;
                if !self.perm_banned[i]
                    && self.banned_until[i] == self.round + 1
                    && self.hot.is_active(i)
                {
                    self.adj.touch_neighborhood(slot);
                }
            }
            self.round += 1;
        }

        fn refresh(&mut self) -> bool {
            let (until, perm, round) = (&self.banned_until, &self.perm_banned, self.round);
            self.adj
                .refresh(&self.hot, |s| perm[s as usize] || round < until[s as usize])
        }

        /// The candidate row of `slot` recomputed from the edge model and
        /// the peer structs.
        fn expected_candidates(&self, slot: u32) -> Vec<PeerId> {
            let eligible = |s: u32| {
                let p = &self.peers[s as usize];
                p.is_active() && !p.offline && !self.banned(s)
            };
            if !eligible(slot) {
                return Vec::new();
            }
            self.model[slot as usize]
                .iter()
                .copied()
                .filter(|n| eligible(n.index()))
                .collect()
        }

        /// Refreshes, then checks every row against the model, every
        /// candidate row against a full recompute, and a restore from
        /// the neighbor rows against the patched store.
        fn check(&mut self, step: &str) {
            self.refresh();
            for slot in 0..self.peers.len() as u32 {
                let row: Vec<PeerId> = self.model[slot as usize].iter().copied().collect();
                assert_eq!(self.adj.row(slot), &row[..], "row of {slot} after {step}");
                assert_eq!(
                    self.adj.degree(slot),
                    row.len(),
                    "degree of {slot} after {step}"
                );
                assert_eq!(
                    self.adj.candidates(slot),
                    &self.expected_candidates(slot)[..],
                    "candidates of {slot} after {step}"
                );
            }
            let (until, perm, round) = (&self.banned_until, &self.perm_banned, self.round);
            let banned = |s: u32| perm[s as usize] || round < until[s as usize];
            self.adj.assert_consistent(&self.hot, banned);
            let restored = Adjacency::restored(self.adj.rows().to_vec(), false, &self.hot, banned);
            for slot in 0..self.peers.len() as u32 {
                assert_eq!(
                    restored.candidates(slot),
                    self.adj.candidates(slot),
                    "restored candidates of {slot} after {step}"
                );
            }
            let active: Vec<PeerId> = self
                .peers
                .iter()
                .filter(|p| p.is_active())
                .map(|p| p.id)
                .collect();
            assert_eq!(
                self.hot.active_ids(),
                &active[..],
                "active list after {step}"
            );
            assert_eq!(
                &HotPeers::rebuilt(&self.peers),
                &self.hot,
                "restore after {step}"
            );
        }
    }

    #[test]
    fn active_list_and_degrees_track_spawn_departure_successor_and_restore() {
        let mut w = World::new();
        // Spawn five peers in a ring.
        for i in 0..5 {
            let slot = w.spawn(&[], 0);
            if i > 0 {
                w.link(slot - 1, slot);
            }
        }
        w.link(4, 0);
        w.check("spawn");
        // A newcomer joins with degree 2: an append to both partners' rows.
        w.spawn(&[3, 1], 0);
        assert_eq!(w.adj.row(1), [0, 2, 5].map(PeerId::new));
        w.check("newcomer");
        // Departures from the middle and the ends of the list.
        w.depart(2);
        w.depart(0);
        assert!(w.adj.row(0).is_empty(), "a departed row is emptied");
        w.check("departure");
        // Whitewash: slot 3 retires and a successor with its pieces and a
        // fresh neighbor joins at the end.
        w.depart(3);
        let successor = w.spawn(&[], 1);
        w.link(successor, 1);
        w.check("whitewash successor");
        assert_eq!(w.hot.active_ids(), [1, 4, 5, 6].map(PeerId::new));
        // An outage empties the peer's own row and drops it from its
        // neighbors' rows; its edges stay.
        w.set_offline(1, true);
        w.check("outage");
        assert!(w.adj.candidates(1).is_empty() && w.adj.degree(1) == 2);
        assert_eq!(w.adj.candidates(6), &[] as &[PeerId]);
        w.set_offline(1, false);
        w.check("outage end");
        // A two-round temporary ban evicts the peer both ways until its
        // unban transition.
        w.ban(5, Some(2));
        w.check("ban");
        assert!(w.adj.candidates(5).is_empty());
        assert_eq!(w.adj.candidates(1), [PeerId::new(6)]);
        for r in 0..3 {
            w.end_round();
            w.check("ban round");
            assert_eq!(w.adj.candidates(5).is_empty(), r < 2, "round {r}");
        }
        // Edge removal names both endpoints.
        w.unlink(1, 6);
        w.check("unlink");
        assert!(w.adj.candidates(6).is_empty());
        w.ban(6, None);
        w.check("permanent ban");
        // A quiet refresh re-filters nothing.
        assert!(!w.refresh());
    }

    proptest! {
        /// Random sequences of spawns, departures, edge edits, outages,
        /// temporary and permanent bans, round ends and whitewash
        /// successors: after every refresh the patched candidate rows
        /// equal a full recompute, each row equals an independent edge
        /// model (so the degree is its length), and a restore from the
        /// rows reproduces the store.
        #[test]
        fn patched_rows_equal_a_full_recompute(
            ops in proptest::collection::vec((0u8..10, 0u32..64, 0u32..64), 1..120),
        ) {
            let mut w = World::new();
            for (step, (op, a, b)) in ops.into_iter().enumerate() {
                let active = w.active();
                let pick = |k: u32| (!active.is_empty()).then(|| active[k as usize % active.len()]);
                match (op, pick(a), pick(b)) {
                    (0 | 1, _, _) => {
                        // Join up to three distinct active peers.
                        let partners: Vec<u32> = (0..a % 4).filter_map(|k| pick(b + k * 5)).collect();
                        w.spawn(&partners, 0);
                    }
                    (2, Some(x), _) => w.depart(x),
                    (3, Some(x), Some(y)) if x != y => w.link(x, y),
                    (4, Some(x), Some(y)) => w.unlink(x, y),
                    (5, Some(x), _) => {
                        let offline = !w.peers[x as usize].offline;
                        w.set_offline(x, offline);
                    }
                    (6, Some(x), _) => w.ban(x, Some(u64::from(b % 3))),
                    (7, Some(x), _) if b % 4 == 0 => w.ban(x, None),
                    (8, _, _) => w.end_round(),
                    (9, Some(x), _) => {
                        // Whitewash: retire `x`, join a successor.
                        w.depart(x);
                        let partners: Vec<u32> = w.active().into_iter().take(2).collect();
                        w.spawn(&partners, 1);
                    }
                    _ => {}
                }
                if step % 3 == 0 {
                    w.check(&format!("step {step}"));
                }
            }
            w.check("the last step");
        }
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
