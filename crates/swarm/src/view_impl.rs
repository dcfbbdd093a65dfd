//! The production [`SwarmView`] handed to mechanisms during allocation.

use coop_incentives::ledger::ContributionLedger;
use coop_incentives::{Obligation, PeerId, SwarmView};

use crate::sim::Simulation;

/// A read-only window onto the simulation, scoped to one allocating peer.
pub struct SimView<'a> {
    sim: &'a Simulation,
    me: PeerId,
}

impl<'a> SimView<'a> {
    pub(crate) fn new(sim: &'a Simulation, me: PeerId) -> Self {
        SimView { sim, me }
    }

    fn my_state(&self) -> &crate::peer::PeerState {
        self.sim.peer(self.me)
    }
}

impl SwarmView for SimView<'_> {
    fn me(&self) -> PeerId {
        self.me
    }

    fn round(&self) -> u64 {
        self.sim.round()
    }

    fn neighbors(&self) -> &[PeerId] {
        // Precomputed once per phase (allocation / end-of-round); see
        // `Simulation::refresh_candidates`.
        self.sim.round_candidates(self.me)
    }

    fn peer_needs_from_me(&self, peer: PeerId) -> bool {
        self.sim.needs(peer, self.me)
    }

    fn i_need_from(&self, peer: PeerId) -> bool {
        self.sim.needs(self.me, peer)
    }

    fn peer_needs_from(&self, who: PeerId, from: PeerId) -> bool {
        self.sim.needs(who, from)
    }

    fn piece_count(&self, peer: PeerId) -> u32 {
        if self.sim.is_active(peer) {
            self.sim.peer(peer).piece_count()
        } else {
            0
        }
    }

    fn reputation(&self, peer: PeerId) -> f64 {
        self.sim.reputation_of(peer)
    }

    fn ledger(&self) -> &ContributionLedger {
        &self.my_state().ledger
    }

    fn obligations(&self) -> &[Obligation] {
        &self.my_state().obligations
    }

    fn uploading_to(&self, peer: PeerId) -> bool {
        self.sim.has_transfer(self.me, peer)
    }

    fn obligation_count(&self, peer: PeerId) -> usize {
        if self.sim.is_active(peer) {
            // Conditional in-flight pieces count toward the backlog: they
            // become obligations on delivery, and uploaders that ignore
            // them overfill slow receivers faster than they can
            // reciprocate.
            let p = self.sim.peer(peer);
            p.obligations.len() + p.inflight_conditional
        } else {
            0
        }
    }

    fn piece_size(&self) -> u64 {
        self.sim.config().file.piece_size()
    }
}
