//! The global-reputation mechanism.
//!
//! "Reputation algorithms indirectly enforce reciprocity by requiring users
//! to upload to those with the highest reputations … we interpret this
//! preference probabilistically: the probability of uploading to another
//! user is proportional to the total number of pieces uploaded by that user
//! to any other user. Bootstrapping … is accomplished by reserving a small
//! fraction of bandwidth for altruism." (Section III-A, following
//! EigenTrust.)
//!
//! A fraction `1 − α_R` of the budget is allocated by reputation-weighted
//! sampling among interested neighbors; the remaining `α_R` goes to
//! uniformly random interested neighbors (including zero-reputation
//! newcomers). Because reputation is a *global* table fed by claimed
//! uploads, collusive free-riders can inflate each other's scores — the
//! vulnerability quantified in Table III.

use rand::RngCore;

use crate::mechanism::{AllocScratch, Grant, Mechanism, MechanismParams};
use crate::mechanisms::ReputationShares;
use crate::view::SwarmView;
use crate::MechanismKind;

/// The reputation mechanism (EigenTrust-style, probabilistic).
///
/// # Example
///
/// ```
/// use coop_incentives::mechanisms::Reputation;
/// use coop_incentives::{Mechanism, MechanismParams};
/// let m = Reputation::new(MechanismParams::default());
/// assert_eq!(m.kind(), coop_incentives::MechanismKind::Reputation);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Reputation {
    params: MechanismParams,
    shares: ReputationShares,
}

impl Reputation {
    /// Creates the mechanism with the given `α_R`.
    pub fn new(params: MechanismParams) -> Self {
        Reputation {
            params,
            shares: ReputationShares::default(),
        }
    }
}

impl Mechanism for Reputation {
    fn clone_box(&self) -> Box<dyn Mechanism> {
        Box::new(*self)
    }

    fn kind(&self) -> MechanismKind {
        MechanismKind::Reputation
    }

    // The reputation-weighted share idles when nobody has any reputation
    // yet (system start), matching the bootstrapping weakness the paper
    // attributes to reputation systems; the altruistic share reaches
    // newcomers.
    fn allocate_into(
        &mut self,
        view: &dyn SwarmView,
        budget: u64,
        rng: &mut dyn RngCore,
        scratch: &mut AllocScratch,
        out: &mut Vec<Grant>,
    ) {
        self.shares
            .allocate(self.params.alpha_r, view, budget, rng, scratch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::fake::FakeView;
    use crate::{GrantReason, PeerId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    fn params(alpha_r: f64) -> MechanismParams {
        MechanismParams {
            alpha_r,
            ..MechanismParams::default()
        }
    }

    #[test]
    fn splits_budget_between_reputation_and_altruism() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.reputations.insert(PeerId::new(1), 100.0);
        view.reputations.insert(PeerId::new(2), 100.0);
        let mut m = Reputation::new(params(0.2));
        let grants = m.allocate(&view, 10_000, &mut rng());
        let rep_bytes: u64 = grants
            .iter()
            .filter(|g| g.reason == GrantReason::Reputation)
            .map(|g| g.bytes)
            .sum();
        let alt_bytes: u64 = grants
            .iter()
            .filter(|g| g.reason == GrantReason::Altruism)
            .map(|g| g.bytes)
            .sum();
        assert_eq!(rep_bytes, 8000);
        assert_eq!(alt_bytes, 2000);
    }

    #[test]
    fn reputation_share_idles_when_nobody_has_reputation() {
        let view = FakeView::mutual(&[1, 2]);
        let mut m = Reputation::new(params(0.1));
        let grants = m.allocate(&view, 10_000, &mut rng());
        // Only the altruistic 10% is granted.
        let total: u64 = grants.iter().map(|g| g.bytes).sum();
        assert_eq!(total, 1000);
        assert!(grants.iter().all(|g| g.reason == GrantReason::Altruism));
    }

    #[test]
    fn high_reputation_peers_receive_more() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.reputations.insert(PeerId::new(1), 900.0);
        view.reputations.insert(PeerId::new(2), 100.0);
        let mut m = Reputation::new(params(0.0));
        let mut r = rng();
        let mut received: HashMap<PeerId, u64> = HashMap::new();
        for _ in 0..200 {
            for g in m.allocate(&view, 1000, &mut r) {
                *received.entry(g.to).or_insert(0) += g.bytes;
            }
        }
        let hi = received.get(&PeerId::new(1)).copied().unwrap_or(0) as f64;
        let lo = received.get(&PeerId::new(2)).copied().unwrap_or(0) as f64;
        let share = hi / (hi + lo);
        assert!((share - 0.9).abs() < 0.08, "share = {share}");
    }

    #[test]
    fn altruism_share_reaches_zero_reputation_newcomers() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.reputations.insert(PeerId::new(1), 1000.0);
        // Peer 2 is a newcomer with zero reputation.
        let mut m = Reputation::new(params(0.5));
        let mut r = rng();
        let mut newcomer_bytes = 0u64;
        for _ in 0..100 {
            for g in m.allocate(&view, 1000, &mut r) {
                if g.to == PeerId::new(2) {
                    newcomer_bytes += g.bytes;
                }
            }
        }
        assert!(newcomer_bytes > 0, "newcomer must be bootstrappable");
    }

    #[test]
    fn empty_neighborhood_yields_nothing() {
        let mut view = FakeView::mutual(&[]);
        view.interest.clear();
        let mut m = Reputation::new(params(0.1));
        assert!(m.allocate(&view, 1000, &mut rng()).is_empty());
    }
}
