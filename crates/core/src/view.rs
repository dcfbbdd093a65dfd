//! The read-only view of the swarm a mechanism sees when allocating.

use crate::ledger::{ContributionLedger, DeficitLedger};
use crate::PeerId;
use coop_piece::PieceId;

/// A pending T-Chain reciprocation obligation held by a *receiver*.
///
/// The receiver obtained `piece` in encrypted form from `uploader` and must
/// upload one piece to `reciprocate_to` (which equals `uploader` for direct
/// reciprocity) before `uploader` releases the decryption key. Until then
/// the piece is *locked*: forwardable but not usable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Obligation {
    /// Who uploaded the encrypted piece and holds the key.
    pub uploader: PeerId,
    /// Whom the receiver must upload a piece to.
    pub reciprocate_to: PeerId,
    /// The locked piece.
    pub piece: PieceId,
    /// The round in which the obligation was created (for expiry).
    pub created_round: u64,
}

/// What a mechanism may observe about the swarm when deciding whom to
/// upload to.
///
/// The view is scoped to the querying peer: local ledgers plus the
/// neighbor/interest information any real client has, plus the *global*
/// quantities the paper's reputation-class algorithms assume (total bytes
/// uploaded per peer, pairwise interest for choosing indirect-reciprocity
/// targets).
///
/// The `coop-swarm` crate provides the production implementation; tests use
/// lightweight fakes.
pub trait SwarmView {
    /// The querying peer.
    fn me(&self) -> PeerId;

    /// The current timeslot index.
    fn round(&self) -> u64;

    /// Active, connected neighbors of the querying peer, strictly
    /// ascending by id.
    ///
    /// The order is part of the contract: a mechanism may walk the row
    /// beside other ascending lists, as EpochSettlement's share sync
    /// walks it beside the ledger's rows.
    ///
    /// Borrowed rather than owned: the production view hands out a slice
    /// of a candidate list precomputed once per round, so a mechanism can
    /// be called many times in a round without the view re-filtering (or
    /// re-allocating) the neighbor set each time.
    fn neighbors(&self) -> &[PeerId];

    /// Does `peer` need at least one piece I can offer? ("interest" in
    /// BitTorrent terms; the event with probability `q(peer, me)`.)
    fn peer_needs_from_me(&self, peer: PeerId) -> bool;

    /// The neighbors that need at least one piece I can offer, in
    /// [`neighbors`](Self::neighbors) order: the candidates of any upload.
    ///
    /// The provided method filters the neighbors through
    /// [`peer_needs_from_me`](Self::peer_needs_from_me) into `buf`
    /// ([`collect_interested`]). A view that already holds the list may
    /// return it instead and leave `buf` alone; the simulator builds it
    /// once per visit, for its skip test and the mechanism alike.
    fn interested_neighbors<'a>(&'a self, buf: &'a mut Vec<PeerId>) -> &'a [PeerId] {
        collect_interested(self, buf)
    }

    /// Do I need at least one piece `peer` holds?
    fn i_need_from(&self, peer: PeerId) -> bool;

    /// Does `who` need at least one piece `from` holds? (Global interest
    /// query used by T-Chain uploaders to pick indirect-reciprocity
    /// targets; the paper assumes such a target can be found whenever one
    /// exists.)
    fn peer_needs_from(&self, who: PeerId, from: PeerId) -> bool;

    /// Number of *usable* pieces `peer` currently holds (zero identifies a
    /// newcomer in need of bootstrapping).
    fn piece_count(&self, peer: PeerId) -> u32;

    /// Global reputation of `peer` (total bytes it has uploaded, per the
    /// reputation table — possibly inflated by colluders).
    fn reputation(&self, peer: PeerId) -> f64;

    /// My contribution ledger. FairTorrent's deficits are derived from
    /// it ([`ContributionLedger::deficit`]).
    fn ledger(&self) -> &ContributionLedger;

    /// A separately kept deficit ledger. No built-in mechanism reads it
    /// (FairTorrent reads [`ContributionLedger::deficit`]); the provided
    /// method returns an empty ledger, and views that keep their own may
    /// still return it.
    fn deficits(&self) -> &DeficitLedger {
        static EMPTY: DeficitLedger = DeficitLedger::EMPTY;
        &EMPTY
    }

    /// My outstanding T-Chain obligations (pieces I hold locked).
    fn obligations(&self) -> &[Obligation];

    /// Do I currently have a partially transferred piece in flight toward
    /// `peer`? Uploaders must be able to finish in-flight pieces even when
    /// the target's backlog is full.
    fn uploading_to(&self, peer: PeerId) -> bool;

    /// Number of outstanding obligations held by `peer`. T-Chain uploaders
    /// use this to avoid initiating chains toward peers whose
    /// reciprocation backlog already exceeds what they can serve (in the
    /// real protocol an uploader observes unresponsive chain partners and
    /// stops feeding them).
    fn obligation_count(&self, peer: PeerId) -> usize;

    /// The nominal piece size in bytes (allocation quantum).
    fn piece_size(&self) -> u64;
}

/// Clears `buf`, fills it with `view`'s neighbors that need a piece from
/// the querying peer, in neighbor order, and returns it: the provided
/// [`SwarmView::interested_neighbors`].
pub fn collect_interested<'a, V: SwarmView + ?Sized>(
    view: &V,
    buf: &'a mut Vec<PeerId>,
) -> &'a [PeerId] {
    buf.clear();
    buf.extend(
        view.neighbors()
            .iter()
            .copied()
            .filter(|&p| view.peer_needs_from_me(p)),
    );
    buf
}

#[cfg(test)]
pub(crate) mod fake {
    //! A configurable in-memory [`SwarmView`] for unit-testing mechanisms.

    use super::*;
    use std::collections::{HashMap, HashSet};

    /// A hand-built view of a tiny swarm, used by mechanism unit tests.
    #[derive(Debug, Default)]
    pub struct FakeView {
        pub me: PeerId,
        pub round: u64,
        pub neighbors: Vec<PeerId>,
        /// Pairs (who, from) such that `who` needs a piece `from` has.
        pub interest: HashSet<(PeerId, PeerId)>,
        pub piece_counts: HashMap<PeerId, u32>,
        pub reputations: HashMap<PeerId, f64>,
        pub ledger: ContributionLedger,
        pub obligations: Vec<Obligation>,
        pub piece_size: u64,
    }

    impl FakeView {
        /// A view for peer 0 with the given neighbors, everyone mutually
        /// interested, piece size 1000.
        pub fn mutual(neighbors: &[u32]) -> Self {
            let me = PeerId::new(0);
            let ids: Vec<PeerId> = neighbors.iter().map(|&i| PeerId::new(i)).collect();
            let mut interest = HashSet::new();
            let mut everyone = ids.clone();
            everyone.push(me);
            for &a in &everyone {
                for &b in &everyone {
                    if a != b {
                        interest.insert((a, b));
                    }
                }
            }
            FakeView {
                me,
                neighbors: ids,
                interest,
                piece_size: 1000,
                ..Default::default()
            }
        }
    }

    impl SwarmView for FakeView {
        fn me(&self) -> PeerId {
            self.me
        }
        fn round(&self) -> u64 {
            self.round
        }
        fn neighbors(&self) -> &[PeerId] {
            &self.neighbors
        }
        fn peer_needs_from_me(&self, peer: PeerId) -> bool {
            self.interest.contains(&(peer, self.me))
        }
        fn i_need_from(&self, peer: PeerId) -> bool {
            self.interest.contains(&(self.me, peer))
        }
        fn peer_needs_from(&self, who: PeerId, from: PeerId) -> bool {
            self.interest.contains(&(who, from))
        }
        fn piece_count(&self, peer: PeerId) -> u32 {
            self.piece_counts.get(&peer).copied().unwrap_or(0)
        }
        fn reputation(&self, peer: PeerId) -> f64 {
            self.reputations.get(&peer).copied().unwrap_or(0.0)
        }
        fn ledger(&self) -> &ContributionLedger {
            &self.ledger
        }
        fn obligations(&self) -> &[Obligation] {
            &self.obligations
        }
        fn uploading_to(&self, _peer: PeerId) -> bool {
            false
        }
        fn obligation_count(&self, peer: PeerId) -> usize {
            if peer == self.me {
                self.obligations.len()
            } else {
                0
            }
        }
        fn piece_size(&self) -> u64 {
            self.piece_size
        }
    }
}
