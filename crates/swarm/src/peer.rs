//! Per-peer simulator state.
//!
//! Piece possession is tracked in three synchronized bitfields:
//!
//! * `have` — usable pieces (count toward completion),
//! * `locked` — T-Chain encrypted pieces awaiting reciprocation
//!   (forwardable but not usable),
//! * derived caches `offer = have ∪ locked` and
//!   `absent = ¬(have ∪ locked)` kept incrementally so the simulator's
//!   interest tests are word-level bit operations.
//!
//! A fourth bitfield, `inflight`, marks the pieces already being fetched.
//!
//! All transitions go through the `acquire_usable` / `lock_piece` /
//! `unlock_piece` / `discard_locked` and `start_fetch` / `end_fetch` /
//! `drop_fetches` methods, which maintain the caches. Every method that
//! can change `absent`, `offer` or `inflight` also takes the simulation's
//! [`InterestWords`] arena and updates this peer's row in the same call,
//! so the interest test "does this peer need anything from that one"
//! (`want ∧ offer` over the arena's words) never sees a stale row.

use coop_des::SimTime;
use coop_incentives::ledger::ContributionLedger;
use coop_incentives::{Mechanism, Obligation, PeerId};
use coop_piece::Bitfield;

use crate::config::PeerTags;
use crate::soa::InterestWords;

/// Why a peer is no longer active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Departure {
    /// Finished the download and left.
    Completed(SimTime),
    /// Retired this identity via whitewashing (a successor id exists).
    Whitewashed(SimTime),
    /// Removed by the fault schedule (churn departure or seeder failure).
    Churned(SimTime),
}

/// Mutable state of one peer identity.
///
/// `Clone` deep-copies everything including the boxed mechanism (via
/// [`Mechanism::clone_box`]) — the substrate of mid-run checkpointing.
#[derive(Clone)]
pub struct PeerState {
    /// This peer's id.
    pub id: PeerId,
    /// Upload capacity in bytes/second.
    pub capacity_bps: f64,
    /// Behavior flags.
    pub tags: PeerTags,
    /// Arrival time of this identity.
    pub arrival: SimTime,
    /// The round in which this identity arrived.
    pub arrival_round: u64,
    have: Bitfield,
    locked: Bitfield,
    offer: Bitfield,
    absent: Bitfield,
    /// Pieces currently being downloaded (any source), to avoid duplicate
    /// fetches. At most one transfer per piece is in flight toward a
    /// peer, so a bit per piece suffices. Written only through the
    /// fetch methods, which keep the interest arena in step.
    inflight: Bitfield,
    /// How many of the in-flight transfers toward this peer are
    /// conditional (will become obligations on delivery).
    pub inflight_conditional: usize,
    /// Contribution accounting (FairTorrent's deficits are derived from
    /// it).
    pub ledger: ContributionLedger,
    /// Outstanding obligations (pieces this peer holds locked).
    pub obligations: Vec<Obligation>,
    /// The allocation policy. Taken out during allocation to satisfy the
    /// borrow checker; always restored before the round ends.
    pub mechanism: Option<Box<dyn Mechanism>>,
    /// When this peer got its first piece (locked or usable), if ever.
    pub bootstrap_time: Option<SimTime>,
    /// Set when the peer departs.
    pub departure: Option<Departure>,
    /// True while the fault schedule holds this peer in an outage: the
    /// peer keeps its bitfield and neighbors but neither uploads nor
    /// downloads until the matching outage-end round.
    pub offline: bool,
    /// Usable bytes received (plain deliveries plus unlocks).
    pub bytes_received_usable: u64,
    /// Raw bytes received (including still-locked and later-expired
    /// pieces).
    pub bytes_received_raw: u64,
    /// Bytes uploaded (completed transfers only).
    pub bytes_sent: u64,
    /// Bytes' worth of pieces this identity was born with (whitewash
    /// successors inherit their predecessor's pieces).
    pub bytes_inherited: u64,
}

impl PeerState {
    /// Creates a fresh peer with no pieces.
    pub fn new(
        id: PeerId,
        capacity_bps: f64,
        tags: PeerTags,
        arrival: SimTime,
        arrival_round: u64,
        num_pieces: u32,
        mechanism: Box<dyn Mechanism>,
    ) -> Self {
        PeerState {
            id,
            capacity_bps,
            tags,
            arrival,
            arrival_round,
            have: Bitfield::new(num_pieces),
            locked: Bitfield::new(num_pieces),
            offer: Bitfield::new(num_pieces),
            absent: Bitfield::full(num_pieces),
            inflight: Bitfield::new(num_pieces),
            inflight_conditional: 0,
            ledger: ContributionLedger::new(),
            obligations: Vec::new(),
            mechanism: Some(mechanism),
            bootstrap_time: None,
            departure: None,
            offline: false,
            bytes_received_usable: 0,
            bytes_received_raw: 0,
            bytes_sent: 0,
            bytes_inherited: 0,
        }
    }

    /// Is this identity still participating?
    pub fn is_active(&self) -> bool {
        self.departure.is_none()
    }

    /// Usable pieces.
    pub fn have(&self) -> &Bitfield {
        &self.have
    }

    /// Locked (encrypted) pieces.
    pub fn locked(&self) -> &Bitfield {
        &self.locked
    }

    /// Pieces this peer can offer for upload (`have ∪ locked`).
    pub fn offer(&self) -> &Bitfield {
        &self.offer
    }

    /// Pieces this peer neither holds nor holds locked.
    pub fn absent(&self) -> &Bitfield {
        &self.absent
    }

    /// Pieces currently being fetched toward this peer.
    pub fn inflight(&self) -> &Bitfield {
        &self.inflight
    }

    /// Does this peer need piece `p`? (Absent and not already being
    /// fetched.)
    pub fn needs_piece(&self, p: u32) -> bool {
        self.absent.get(p) && !self.inflight.get(p)
    }

    /// The bitfield of pieces this peer still wants (absent minus
    /// in-flight).
    pub fn wanted(&self) -> Bitfield {
        let mut bf = self.absent.clone();
        for p in self.inflight.iter_ones() {
            bf.unset(p);
        }
        bf
    }

    /// This peer's slot in the interest arena.
    fn slot(&self) -> u32 {
        self.id.index()
    }

    /// Marks piece `p` usable (plain delivery).
    pub(crate) fn acquire_usable(&mut self, p: u32, words: &mut InterestWords) {
        self.have.set(p);
        self.locked.unset(p);
        self.offer.set(p);
        self.absent.unset(p);
        words.set_offer(self.slot(), p, true);
        words.set_want(self.slot(), p, false);
    }

    /// Marks piece `p` locked (encrypted T-Chain delivery).
    pub(crate) fn lock_piece(&mut self, p: u32, words: &mut InterestWords) {
        debug_assert!(!self.have.get(p), "locking an already-usable piece");
        self.locked.set(p);
        self.offer.set(p);
        self.absent.unset(p);
        words.set_offer(self.slot(), p, true);
        words.set_want(self.slot(), p, false);
    }

    /// Promotes a locked piece to usable (key released). Returns false if
    /// the piece was not locked (e.g. already discarded).
    pub fn unlock_piece(&mut self, p: u32) -> bool {
        if !self.locked.get(p) {
            return false;
        }
        self.locked.unset(p);
        self.have.set(p);
        true
    }

    /// Discards an expired locked piece; it becomes absent (and thus
    /// re-downloadable). Returns false if the piece was not locked.
    pub(crate) fn discard_locked(&mut self, p: u32, words: &mut InterestWords) -> bool {
        if !self.locked.get(p) {
            return false;
        }
        self.locked.unset(p);
        if !self.have.get(p) {
            self.offer.unset(p);
            self.absent.set(p);
            words.set_offer(self.slot(), p, false);
            words.set_want(self.slot(), p, !self.inflight.get(p));
        }
        true
    }

    /// A transfer of piece `p` toward this peer started; `conditional`
    /// transfers become obligations on delivery.
    pub(crate) fn start_fetch(&mut self, p: u32, conditional: bool, words: &mut InterestWords) {
        self.inflight.set(p);
        if conditional {
            self.inflight_conditional += 1;
        }
        words.set_want(self.slot(), p, false);
    }

    /// The transfer of piece `p` toward this peer ended (delivered,
    /// stalled, lost or dropped with its uploader).
    pub(crate) fn end_fetch(&mut self, p: u32, conditional: bool, words: &mut InterestWords) {
        self.inflight.unset(p);
        if conditional {
            self.inflight_conditional = self.inflight_conditional.saturating_sub(1);
        }
        words.set_want(self.slot(), p, self.absent.get(p));
    }

    /// Forgets every fetch toward this peer (departure or outage).
    pub(crate) fn drop_fetches(&mut self, words: &mut InterestWords) {
        self.inflight.clear();
        self.inflight_conditional = 0;
        words.reset_want(self.slot(), &self.absent);
    }

    /// True once every piece is usable.
    pub fn is_complete(&self) -> bool {
        self.have.is_complete()
    }

    /// Number of usable pieces.
    pub fn piece_count(&self) -> u32 {
        self.have.count_ones()
    }

    /// Marks the first-piece bootstrap instant if not already recorded;
    /// returns true when this call recorded it.
    pub fn record_bootstrap(&mut self, now: SimTime) -> bool {
        let first = self.bootstrap_time.is_none();
        if first {
            self.bootstrap_time = Some(now);
        }
        first
    }

    /// Folds each possession bitfield into its interval-run representation
    /// where that is strictly smaller (departed identities are typically
    /// complete, so `have`/`offer` collapse to a single run and
    /// `locked`/`absent` to none). Observationally a no-op: every
    /// [`Bitfield`] query answers identically in either representation.
    pub(crate) fn compress_storage(&mut self) {
        self.have.compress();
        self.locked.compress();
        self.offer.compress();
        self.absent.compress();
        self.inflight.compress();
    }
}

impl std::fmt::Debug for PeerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerState")
            .field("id", &self.id)
            .field("capacity_bps", &self.capacity_bps)
            .field("pieces", &self.have.count_ones())
            .field("locked", &self.locked.count_ones())
            .field("active", &self.is_active())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coop_incentives::{build_mechanism, MechanismKind, MechanismParams};

    fn peer(num_pieces: u32) -> (PeerState, InterestWords) {
        let p = PeerState::new(
            PeerId::new(0),
            1000.0,
            PeerTags::compliant(),
            SimTime::ZERO,
            0,
            num_pieces,
            build_mechanism(MechanismKind::Altruism, MechanismParams::default()),
        );
        let mut words = InterestWords::new(&Bitfield::full(num_pieces));
        words.push(&p);
        (p, words)
    }

    fn invariants(p: &PeerState) {
        for i in 0..p.have().len() {
            let have = p.have().get(i);
            let locked = p.locked().get(i);
            assert!(!(have && locked), "piece {i} both usable and locked");
            assert_eq!(p.offer().get(i), have || locked, "offer cache at {i}");
            assert_eq!(p.absent().get(i), !(have || locked), "absent cache at {i}");
        }
    }

    #[test]
    fn fresh_peer_needs_everything() {
        let (p, _) = peer(8);
        assert!(p.is_active());
        assert!(!p.is_complete());
        assert_eq!(p.piece_count(), 0);
        for i in 0..8 {
            assert!(p.needs_piece(i));
        }
        assert_eq!(p.wanted().count_ones(), 8);
        invariants(&p);
    }

    #[test]
    fn lock_then_unlock_flow() {
        let (mut p, mut w) = peer(8);
        p.lock_piece(3, &mut w);
        invariants(&p);
        assert!(!p.needs_piece(3));
        assert!(p.offer().get(3));
        assert_eq!(p.piece_count(), 0);
        assert!(p.unlock_piece(3));
        invariants(&p);
        assert_eq!(p.piece_count(), 1);
        assert!(!p.unlock_piece(3), "double unlock is a no-op");
    }

    #[test]
    fn lock_then_discard_flow() {
        let (mut p, mut w) = peer(8);
        p.lock_piece(2, &mut w);
        assert!(p.discard_locked(2, &mut w));
        invariants(&p);
        assert!(p.needs_piece(2), "discarded piece becomes wanted again");
        assert!(!p.discard_locked(2, &mut w));
    }

    #[test]
    fn discard_after_unlock_keeps_piece() {
        let (mut p, mut w) = peer(8);
        p.lock_piece(1, &mut w);
        p.unlock_piece(1);
        assert!(!p.discard_locked(1, &mut w));
        assert!(p.have().get(1));
        invariants(&p);
    }

    #[test]
    fn inflight_pieces_not_requested_twice() {
        let (mut p, mut w) = peer(8);
        p.start_fetch(2, false, &mut w);
        assert!(!p.needs_piece(2));
        assert!(!p.wanted().get(2));
    }

    #[test]
    fn completion_requires_all_usable() {
        let (mut p, mut w) = peer(4);
        for i in 0..4 {
            p.lock_piece(i, &mut w);
        }
        assert!(!p.is_complete(), "locked pieces do not complete a file");
        for i in 0..4 {
            p.unlock_piece(i);
        }
        assert!(p.is_complete());
        invariants(&p);
    }

    #[test]
    fn bootstrap_recorded_once() {
        let (mut p, _) = peer(4);
        p.record_bootstrap(SimTime::from_secs(5));
        p.record_bootstrap(SimTime::from_secs(9));
        assert_eq!(p.bootstrap_time, Some(SimTime::from_secs(5)));
    }
}
