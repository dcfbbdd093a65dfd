//! The free-riding client.

use coop_incentives::{Grant, Mechanism, MechanismKind, SwarmView};
use rand::RngCore;

/// A client that participates in the swarm protocol but never uploads.
///
/// Free-riders receive bandwidth passively: other peers' mechanisms decide
/// whom to serve, and a free-rider simply stays connected and interested.
/// Against T-Chain its received pieces remain encrypted forever (unless a
/// colluding accomplice falsely confirms reciprocation — configured
/// through [`PeerTags`](coop_swarm::PeerTags), not here).
///
/// # Example
///
/// ```
/// use coop_attacks::FreeRider;
/// use coop_incentives::{Mechanism, MechanismKind};
/// let m = FreeRider::new(MechanismKind::BitTorrent);
/// assert_eq!(m.kind(), MechanismKind::BitTorrent);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FreeRider {
    mimics: MechanismKind,
}

impl FreeRider {
    /// Creates a free-rider that presents itself as a client of the given
    /// protocol.
    pub fn new(mimics: MechanismKind) -> Self {
        FreeRider { mimics }
    }
}

impl Mechanism for FreeRider {
    fn clone_box(&self) -> Box<dyn Mechanism> {
        Box::new(*self)
    }

    fn kind(&self) -> MechanismKind {
        self.mimics
    }

    fn allocate(
        &mut self,
        _view: &dyn SwarmView,
        _budget: u64,
        _rng: &mut dyn RngCore,
    ) -> Vec<Grant> {
        Vec::new()
    }

    // Always returns nothing and touches nothing: the dirty-set round
    // loop can stop visiting a free-rider after its first grantless
    // round (it still receives — other peers' mechanisms decide that).
    fn allocate_is_memoryless(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_uploads() {
        // A minimal inline view double: the free-rider must return no
        // grants regardless of budget.
        struct NullView;
        impl SwarmView for NullView {
            fn me(&self) -> coop_incentives::PeerId {
                coop_incentives::PeerId::new(0)
            }
            fn round(&self) -> u64 {
                0
            }
            fn neighbors(&self) -> &[coop_incentives::PeerId] {
                const NEIGHBORS: [coop_incentives::PeerId; 1] = [coop_incentives::PeerId::new(1)];
                &NEIGHBORS
            }
            fn peer_needs_from_me(&self, _: coop_incentives::PeerId) -> bool {
                true
            }
            fn i_need_from(&self, _: coop_incentives::PeerId) -> bool {
                true
            }
            fn peer_needs_from(
                &self,
                _: coop_incentives::PeerId,
                _: coop_incentives::PeerId,
            ) -> bool {
                true
            }
            fn piece_count(&self, _: coop_incentives::PeerId) -> u32 {
                0
            }
            fn reputation(&self, _: coop_incentives::PeerId) -> f64 {
                0.0
            }
            fn ledger(&self) -> &coop_incentives::ledger::ContributionLedger {
                unreachable!("free-rider never consults the ledger")
            }
            fn obligations(&self) -> &[coop_incentives::Obligation] {
                &[]
            }
            fn uploading_to(&self, _: coop_incentives::PeerId) -> bool {
                false
            }
            fn obligation_count(&self, _: coop_incentives::PeerId) -> usize {
                0
            }
            fn piece_size(&self) -> u64 {
                1000
            }
        }
        let mut fr = FreeRider::new(MechanismKind::TChain);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        assert!(fr.allocate(&NullView, 1_000_000, &mut rng).is_empty());
    }

    #[test]
    fn mimics_reported_kind() {
        for kind in MechanismKind::ALL {
            assert_eq!(FreeRider::new(kind).kind(), kind);
        }
    }
}
