//! The FairTorrent-style reputation/altruism hybrid.
//!
//! "Each user maintains a deficit counter of the total number of pieces
//! uploaded to, less those received from, each other user. These counters
//! function as local reputation scores: users always upload to the client
//! with the smallest deficit counter, i.e., from whom they have received
//! the most pieces without reciprocation. However, if all deficit counters
//! are nonnegative, users upload to randomly chosen users with zero
//! reputations, including newcomers." (Section III-A.)
//!
//! Each piece-size quantum goes to the interested neighbor with the lowest
//! deficit; ties (typically many zero-deficit neighbors, e.g. right after a
//! flash crowd) are broken uniformly at random, which is what makes
//! FairTorrent bootstrap almost as fast as altruism (Table II) — and also
//! what free-riders with fresh identities exploit (whitewashing).

use std::collections::HashMap;

use rand::seq::SliceRandom;
use rand::RngCore;

use crate::mechanism::{Grant, GrantReason, Mechanism};
use crate::mechanisms::{interested_neighbors, StickyTarget};
use crate::view::SwarmView;
use crate::{MechanismKind, PeerId};

/// The FairTorrent mechanism (lowest-deficit-first uploads).
///
/// # Example
///
/// ```
/// use coop_incentives::mechanisms::FairTorrent;
/// use coop_incentives::Mechanism;
/// let m = FairTorrent::new();
/// assert_eq!(m.kind(), coop_incentives::MechanismKind::FairTorrent);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FairTorrent {
    sticky: StickyTarget,
}

impl FairTorrent {
    /// Creates the mechanism.
    pub fn new() -> Self {
        FairTorrent::default()
    }
}

impl Mechanism for FairTorrent {
    fn clone_box(&self) -> Box<dyn Mechanism> {
        Box::new(*self)
    }

    fn kind(&self) -> MechanismKind {
        MechanismKind::FairTorrent
    }

    // Settlement cadence: the default `SettleCadence::PerTransfer`. The
    // deficits this mechanism ranks by are derived from the contribution
    // ledger (`ContributionLedger::deficit`), which only the simulator's
    // single settlement entry point (`settle_transfer`) mutates, never
    // here; epoch-settled inputs go through the
    // `on_epoch_close` cadence hook instead.

    fn allocate(&mut self, view: &dyn SwarmView, budget: u64, rng: &mut dyn RngCore) -> Vec<Grant> {
        let candidates = interested_neighbors(view);
        if candidates.is_empty() {
            return Vec::new();
        }
        // Each piece goes to the interested neighbor with the lowest
        // deficit at the moment the piece is chosen; the target then stays
        // fixed until the full piece has been granted (deficits move
        // byte-by-byte, and re-deciding every round would scatter partial
        // transfers). A local shadow makes pieces granted earlier in the
        // same call shift later choices.
        let mut planned: HashMap<PeerId, i64> = HashMap::new();
        let ledger = view.ledger();
        let piece = view.piece_size();
        let chunks = self
            .sticky
            .allocate(budget, piece, &candidates, rng, |c, rng| {
                let min = c
                    .iter()
                    .map(|&p| ledger.deficit(p) + planned.get(&p).copied().unwrap_or(0))
                    .min()?;
                let lowest: Vec<PeerId> = c
                    .iter()
                    .copied()
                    .filter(|&p| ledger.deficit(p) + planned.get(&p).copied().unwrap_or(0) == min)
                    .collect();
                let to = *lowest.choose(rng)?;
                *planned.entry(to).or_insert(0) += piece as i64;
                Some(to)
            });
        chunks
            .into_iter()
            .map(|(to, bytes)| Grant::new(to, bytes, GrantReason::Deficit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::fake::FakeView;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(5)
    }

    #[test]
    fn repays_debts_first() {
        let mut view = FakeView::mutual(&[1, 2]);
        // We owe peer 2 (they sent us 3000 bytes unreciprocated).
        view.ledger.record_received(PeerId::new(2), 3000);
        let mut m = FairTorrent::new();
        let grants = m.allocate(&view, 2000, &mut rng());
        assert!(grants.iter().all(|g| g.to == PeerId::new(2)));
        let total: u64 = grants.iter().map(|g| g.bytes).sum();
        assert_eq!(total, 2000);
    }

    #[test]
    fn within_round_shadowing_rotates_targets() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.ledger.record_received(PeerId::new(1), 1000);
        view.ledger.record_received(PeerId::new(2), 1000);
        let mut m = FairTorrent::new();
        // Budget of two pieces: after repaying one peer, its shadowed
        // deficit reaches 0 while the other is still −1000, so the second
        // quantum must go to the other peer.
        let grants = m.allocate(&view, 2000, &mut rng());
        let targets: HashSet<PeerId> = grants.iter().map(|g| g.to).collect();
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn zero_deficit_newcomers_are_served() {
        let view = FakeView::mutual(&[1, 2, 3]);
        let mut m = FairTorrent::new();
        let grants = m.allocate(&view, 1000, &mut rng());
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].reason, GrantReason::Deficit);
    }

    #[test]
    fn positive_deficit_peers_served_last() {
        let mut view = FakeView::mutual(&[1, 2]);
        // We already over-served peer 1.
        view.ledger.record_sent(PeerId::new(1), 5000);
        let mut m = FairTorrent::new();
        let grants = m.allocate(&view, 1000, &mut rng());
        assert_eq!(grants[0].to, PeerId::new(2));
    }

    #[test]
    fn budget_spent_exactly() {
        let view = FakeView::mutual(&[1, 2, 3]);
        let mut m = FairTorrent::new();
        let grants = m.allocate(&view, 4_750, &mut rng());
        let total: u64 = grants.iter().map(|g| g.bytes).sum();
        assert_eq!(total, 4_750);
    }

    #[test]
    fn no_candidates_no_grants() {
        let mut view = FakeView::mutual(&[1]);
        view.interest.clear();
        let mut m = FairTorrent::new();
        assert!(m.allocate(&view, 1000, &mut rng()).is_empty());
    }
}
