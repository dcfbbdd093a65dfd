//! The T-Chain-style reciprocity/reputation hybrid.
//!
//! "Users in this hybrid algorithm can reciprocate uploads by uploading a
//! piece to any user. If the receiving user reciprocates to the uploading
//! user, we refer to the exchange as direct reciprocity; reciprocating to
//! another user is called indirect reciprocity. Through indirect
//! reciprocity, newcomers can receive a piece from one user and reciprocate
//! by uploading the received piece to another user. … T-Chain users upload
//! encrypted pieces to others to ensure that uploads are reciprocated, and
//! only release the decryption keys after confirming that the receiving
//! user has reciprocated." (Section III-A.)
//!
//! The allocation policy, per round:
//!
//! 1. **Fulfil obligations first.** Every locked piece this peer holds
//!    carries an obligation to upload one piece to a designated target;
//!    serving those targets unlocks our pieces (the simulator performs the
//!    unlock when the reciprocating transfer completes).
//! 2. **Opportunistic seeding.** Remaining budget initiates new encrypted
//!    uploads to random interested neighbors — "users can opportunistically
//!    initiate as many exchanges as possible until their upload capacity is
//!    saturated" (Lemma 2's proof) — because every initiated upload *must*
//!    be reciprocated, initiating is always in the uploader's interest.
//!
//! For each initiated upload to `j`, the reciprocation target is the
//! uploader itself when it still needs something from `j` (direct
//! reciprocity); otherwise a third peer `k` that needs a piece `j` holds
//! (indirect reciprocity), matching Eq. (6)'s two terms.

use std::collections::HashMap;

use rand::RngCore;

use crate::mechanism::{Grant, GrantReason, Mechanism, MechanismParams};
use crate::mechanisms::{interested_neighbors, pick_random, StickyTarget};
use crate::view::SwarmView;
use crate::{MechanismKind, PeerId};

/// The T-Chain mechanism (encrypted uploads, direct/indirect reciprocity).
///
/// # Example
///
/// ```
/// use coop_incentives::mechanisms::TChain;
/// use coop_incentives::{Mechanism, MechanismParams};
/// let m = TChain::new(MechanismParams::default());
/// assert_eq!(m.kind(), coop_incentives::MechanismKind::TChain);
/// ```
#[derive(Clone, Debug)]
pub struct TChain {
    params: MechanismParams,
    seeding: StickyTarget,
    /// Per-neighbor chain history: (honored, defaulted) counts. This is
    /// T-Chain's reputation component — uploaders stop initiating chains
    /// toward peers that repeatedly let obligations expire (free-riders),
    /// while honest-but-slow peers keep a positive record.
    history: HashMap<PeerId, (u32, u32)>,
}

impl TChain {
    /// Creates the mechanism.
    pub fn new(params: MechanismParams) -> Self {
        TChain {
            params,
            seeding: StickyTarget::new(),
            history: HashMap::new(),
        }
    }

    /// Is `peer` a known chain defector (defaults dominate honors)?
    fn is_defector(&self, peer: PeerId) -> bool {
        let (honored, defaulted) = self.history.get(&peer).copied().unwrap_or((0, 0));
        defaulted >= 2 && defaulted > 2 * honored
    }

    /// The number of rounds an obligation may stay unfulfilled before the
    /// uploader withholds the key for good.
    pub fn obligation_ttl(&self) -> u64 {
        self.params.tchain_obligation_ttl
    }

    /// Chooses the reciprocation target for an upload to `j`: the uploader
    /// itself if direct reciprocity is possible, otherwise a random third
    /// peer `k` that needs pieces from *the uploader* — `j` will hold the
    /// transferred piece (encrypted) after delivery and can forward exactly
    /// that piece onward, which is how T-Chain bootstraps newcomers that
    /// hold nothing else ("newcomers can receive a piece from one user and
    /// reciprocate by uploading the received piece to another user").
    fn reciprocation_target(
        view: &dyn SwarmView,
        j: PeerId,
        rng: &mut dyn RngCore,
    ) -> Option<PeerId> {
        if view.i_need_from(j) {
            return Some(view.me());
        }
        let mut third: Vec<PeerId> = view
            .neighbors()
            .iter()
            .copied()
            .filter(|&k| {
                k != j
                    && k != view.me()
                    && (view.peer_needs_from(k, view.me()) || view.peer_needs_from(k, j))
            })
            .collect();
        coop_des::rng::shuffle_prefix(&mut third, rng, 1);
        third.first().copied()
    }
}

impl Mechanism for TChain {
    fn clone_box(&self) -> Box<dyn Mechanism> {
        Box::new(self.clone())
    }

    fn kind(&self) -> MechanismKind {
        MechanismKind::TChain
    }

    fn on_chain_outcome(&mut self, receiver: PeerId, honored: bool) {
        let entry = self.history.entry(receiver).or_insert((0, 0));
        if honored {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }

    fn allocate(&mut self, view: &dyn SwarmView, budget: u64, rng: &mut dyn RngCore) -> Vec<Grant> {
        let piece = view.piece_size();
        let mut remaining = budget;
        let mut grants = Vec::new();

        // 1. Fulfil outstanding obligations, oldest first: upload one piece
        //    to each designated target that still wants something from us.
        //    These uploads are themselves conditional (the chain continues)
        //    unless they target the original uploader (direct reciprocity
        //    completes the pairwise exchange, no further condition needed).
        let mut obligations: Vec<_> = view.obligations().to_vec();
        obligations.sort_by_key(|o| o.created_round);
        for ob in obligations {
            if remaining == 0 {
                break;
            }
            let target = ob.reciprocate_to;
            if target == view.me() || !view.peer_needs_from_me(target) {
                continue;
            }
            // Partial grants are essential: a peer whose per-round budget
            // is below one piece must still make progress on its
            // reciprocations, or its locked pieces expire unfulfilled.
            let bytes = remaining.min(piece);
            if target == ob.uploader {
                grants.push(Grant::new(target, bytes, GrantReason::Obligation));
            } else {
                // The forwarded piece is itself encrypted; the third peer
                // must reciprocate onward. We (the forwarder) hold the key
                // obligation chain's next link, so reciprocation comes back
                // to us if we still need pieces, else to another peer.
                let next = Self::reciprocation_target(view, target, rng).unwrap_or(view.me());
                grants.push(Grant::conditional(
                    target,
                    bytes,
                    GrantReason::Obligation,
                    next,
                ));
            }
            remaining -= bytes;
        }

        // 2. Opportunistic seeding with the rest of the budget. Skip
        //    targets whose reciprocation backlog is already deep: feeding
        //    them further only produces expired (wasted) encrypted pieces.
        let candidates: Vec<PeerId> = interested_neighbors(view)
            .into_iter()
            .filter(|&p| {
                (view.obligation_count(p) < self.params.tchain_max_backlog || view.uploading_to(p))
                    && !self.is_defector(p)
            })
            .collect();
        if candidates.is_empty() {
            return grants;
        }
        for (to, bytes) in self
            .seeding
            .allocate(remaining, piece, &candidates, rng, |c, rng| {
                pick_random(c, rng)
            })
        {
            match Self::reciprocation_target(view, to, rng) {
                Some(target) => {
                    let reason = if target == view.me() {
                        GrantReason::Reciprocity
                    } else {
                        GrantReason::IndirectReciprocity
                    };
                    grants.push(Grant::conditional(to, bytes, reason, target));
                }
                // Nobody in the swarm needs anything `to` has (including
                // us): an exchange with `to` cannot be reciprocated, so we
                // skip it — this is the π_TC < 1 case of Proposition 2.
                None => continue,
            }
        }
        grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::fake::FakeView;
    use crate::Obligation;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(9)
    }

    fn tchain() -> TChain {
        TChain::new(MechanismParams::default())
    }

    #[test]
    fn initiates_conditional_uploads() {
        let view = FakeView::mutual(&[1, 2]);
        let mut m = tchain();
        let grants = m.allocate(&view, 3000, &mut rng());
        assert!(!grants.is_empty());
        for g in &grants {
            assert!(g.condition.is_some(), "T-Chain uploads are encrypted");
        }
        let total: u64 = grants.iter().map(|g| g.bytes).sum();
        assert_eq!(total, 3000);
    }

    #[test]
    fn direct_reciprocity_when_uploader_is_interested() {
        // Mutual interest: we need from everyone, so reciprocation target
        // is ourselves (direct reciprocity).
        let view = FakeView::mutual(&[1]);
        let mut m = tchain();
        let grants = m.allocate(&view, 1000, &mut rng());
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].reason, GrantReason::Reciprocity);
        assert_eq!(grants[0].condition.unwrap().reciprocate_to, PeerId::new(0));
    }

    #[test]
    fn indirect_reciprocity_when_uploader_not_interested() {
        let mut view = FakeView::mutual(&[1, 2]);
        // We don't need anything from peer 1, but peer 2 does.
        view.interest.remove(&(PeerId::new(0), PeerId::new(1)));
        let mut m = tchain();
        let grants = m.allocate(&view, 1000, &mut rng());
        assert_eq!(grants.len(), 1);
        if grants[0].to == PeerId::new(1) {
            assert_eq!(grants[0].reason, GrantReason::IndirectReciprocity);
            assert_eq!(
                grants[0].condition.unwrap().reciprocate_to,
                PeerId::new(2),
                "peer 2 needs pieces from peer 1, so it is the redirect target"
            );
        }
    }

    #[test]
    fn skips_unreciprocatable_exchanges() {
        let mut view = FakeView::mutual(&[1]);
        // Peer 1 needs from us, but nobody (including us) needs from peer 1.
        view.interest.remove(&(PeerId::new(0), PeerId::new(1)));
        let mut m = tchain();
        let grants = m.allocate(&view, 5000, &mut rng());
        assert!(
            grants.is_empty(),
            "an exchange that cannot be reciprocated must not be initiated"
        );
    }

    #[test]
    fn obligations_served_first() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.obligations.push(Obligation {
            uploader: PeerId::new(1),
            reciprocate_to: PeerId::new(2),
            piece: 0,
            created_round: 0,
        });
        let mut m = tchain();
        let grants = m.allocate(&view, 1000, &mut rng());
        assert_eq!(grants[0].to, PeerId::new(2));
        assert_eq!(grants[0].reason, GrantReason::Obligation);
    }

    #[test]
    fn direct_obligation_to_uploader_is_unconditional() {
        let mut view = FakeView::mutual(&[1]);
        view.obligations.push(Obligation {
            uploader: PeerId::new(1),
            reciprocate_to: PeerId::new(1),
            piece: 0,
            created_round: 0,
        });
        let mut m = tchain();
        let grants = m.allocate(&view, 1000, &mut rng());
        assert_eq!(grants[0].to, PeerId::new(1));
        assert!(grants[0].condition.is_none());
    }

    #[test]
    fn oldest_obligations_first_and_budget_respected() {
        let mut view = FakeView::mutual(&[1, 2, 3]);
        for (r, target) in [(5u64, 2u32), (1, 3)] {
            view.obligations.push(Obligation {
                uploader: PeerId::new(1),
                reciprocate_to: PeerId::new(target),
                piece: 0,
                created_round: r,
            });
        }
        let mut m = tchain();
        // Budget for exactly one piece: the round-1 obligation (→ peer 3)
        // must win over the round-5 one.
        let grants = m.allocate(&view, 1000, &mut rng());
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].to, PeerId::new(3));
    }
}
