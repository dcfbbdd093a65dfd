//! The free-riding client.

use coop_incentives::{AllocScratch, Grant, Mechanism, MechanismKind, SwarmView};
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

    fn allocate_into(
        &mut self,
        _view: &dyn SwarmView,
        _budget: u64,
        _rng: &mut dyn RngCore,
        _scratch: &mut AllocScratch,
        _out: &mut Vec<Grant>,
    ) {
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
    use coop_incentives::ledger::ContributionLedger;
    use coop_incentives::{AllocScratch, Obligation, PeerId};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A minimal view double: every neighbor is interested in everything,
    /// and the ledger must never be consulted.
    struct NullView {
        neighbors: Vec<PeerId>,
    }

    impl SwarmView for NullView {
        fn me(&self) -> PeerId {
            PeerId::new(0)
        }
        fn round(&self) -> u64 {
            0
        }
        fn neighbors(&self) -> &[PeerId] {
            &self.neighbors
        }
        fn peer_needs_from_me(&self, _: PeerId) -> bool {
            true
        }
        fn i_need_from(&self, _: PeerId) -> bool {
            true
        }
        fn peer_needs_from(&self, _: PeerId, _: PeerId) -> bool {
            true
        }
        fn piece_count(&self, _: PeerId) -> u32 {
            0
        }
        fn reputation(&self, _: PeerId) -> f64 {
            0.0
        }
        fn ledger(&self) -> &ContributionLedger {
            unreachable!("free-rider never consults the ledger")
        }
        fn obligations(&self) -> &[Obligation] {
            &[]
        }
        fn uploading_to(&self, _: PeerId) -> bool {
            false
        }
        fn obligation_count(&self, _: PeerId) -> usize {
            0
        }
        fn piece_size(&self) -> u64 {
            1000
        }
    }

    #[test]
    fn never_uploads() {
        // The free-rider must return no grants regardless of budget.
        let view = NullView {
            neighbors: vec![PeerId::new(1)],
        };
        let mut fr = FreeRider::new(MechanismKind::TChain);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        assert!(fr.allocate(&view, 1_000_000, &mut rng).is_empty());
    }

    proptest! {
        /// Equivalence with the pre-`allocate_into` body, which returned
        /// `Vec::new()`: whatever the budget and neighborhood, the kernel
        /// appends nothing to the caller's buffer and draws nothing.
        #[test]
        fn allocate_into_matches_the_empty_oracle(
            budget in 0u64..10_000_000,
            degree in 0u32..40,
            seed in any::<u64>(),
            kind in 0usize..6,
        ) {
            let view = NullView {
                neighbors: (1..=degree).map(PeerId::new).collect(),
            };
            let mut fr = FreeRider::new(MechanismKind::ALL[kind]);
            let (mut rng, mut untouched) =
                (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            let sentinel = coop_incentives::Grant::new(
                PeerId::new(7),
                1,
                coop_incentives::GrantReason::Seeding,
            );
            let mut out = vec![sentinel];
            fr.allocate_into(&view, budget, &mut rng, &mut AllocScratch::default(), &mut out);
            prop_assert_eq!(out, vec![sentinel]);
            prop_assert_eq!(rng.next_u64(), untouched.next_u64());
        }
    }

    #[test]
    fn mimics_reported_kind() {
        for kind in MechanismKind::ALL {
            assert_eq!(FreeRider::new(kind).kind(), kind);
        }
    }
}
