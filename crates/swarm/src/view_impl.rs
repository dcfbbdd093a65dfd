//! The production [`SwarmView`] handed to mechanisms during allocation.

use coop_incentives::ledger::ContributionLedger;
use coop_incentives::{collect_interested, Obligation, PeerId, SwarmView};

use crate::sim::Simulation;

/// A read-only window onto the simulation, scoped to one allocating peer.
pub struct SimView<'a> {
    sim: &'a Simulation,
    me: PeerId,
    /// The interested neighbors the visit already collected, served by
    /// [`SwarmView::interested_neighbors`] instead of a second filter.
    interested: Option<&'a [PeerId]>,
}

impl<'a> SimView<'a> {
    pub(crate) fn new(sim: &'a Simulation, me: PeerId) -> Self {
        SimView {
            sim,
            me,
            interested: None,
        }
    }

    /// A view that serves `interested`, which must be `me`'s candidate
    /// row filtered by interest in row order (what
    /// `Simulation::collect_interested` builds).
    pub(crate) fn serving(sim: &'a Simulation, me: PeerId, interested: &'a [PeerId]) -> Self {
        SimView {
            sim,
            me,
            interested: Some(interested),
        }
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

    fn interested_neighbors<'s>(&'s self, buf: &'s mut Vec<PeerId>) -> &'s [PeerId] {
        match self.interested {
            Some(list) => {
                debug_assert_eq!(
                    list,
                    collect_interested(self, &mut Vec::new()),
                    "served interested list of peer {} diverged from its candidate row",
                    self.me.index()
                );
                list
            }
            None => collect_interested(self, buf),
        }
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
