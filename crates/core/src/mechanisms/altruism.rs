//! Pure altruism.
//!
//! "With altruism, users instead upload to random neighbors at their full
//! upload capacity" (Section V-A). No reciprocity is attempted; the entire
//! budget is handed out in piece-size quanta to uniformly random interested
//! neighbors. This makes altruism the most efficient and fastest-
//! bootstrapping algorithm, and also the one whose entire capacity is
//! exploitable by free-riders (Table III).

use rand::RngCore;

use crate::mechanism::{AllocScratch, Grant, GrantReason, Mechanism};
use crate::mechanisms::{pick_random, push_chunks, StickyTarget};
use crate::view::SwarmView;
use crate::MechanismKind;

/// The pure-altruism mechanism.
///
/// # Example
///
/// ```
/// use coop_incentives::mechanisms::Altruism;
/// use coop_incentives::Mechanism;
/// let m = Altruism::new();
/// assert_eq!(m.kind(), coop_incentives::MechanismKind::Altruism);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Altruism {
    sticky: StickyTarget,
}

impl Altruism {
    /// Creates the mechanism.
    pub fn new() -> Self {
        Altruism::default()
    }
}

impl Mechanism for Altruism {
    fn clone_box(&self) -> Box<dyn Mechanism> {
        Box::new(*self)
    }

    fn kind(&self) -> MechanismKind {
        MechanismKind::Altruism
    }

    fn allocate_into(
        &mut self,
        view: &dyn SwarmView,
        budget: u64,
        rng: &mut dyn RngCore,
        scratch: &mut AllocScratch,
        out: &mut Vec<Grant>,
    ) {
        let candidates = view.interested_neighbors(&mut scratch.interested);
        if candidates.is_empty() {
            return;
        }
        self.sticky.allocate(
            budget,
            view.piece_size(),
            candidates,
            rng,
            pick_random,
            &mut scratch.chunks,
        );
        push_chunks(&scratch.chunks, GrantReason::Altruism, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::fake::FakeView;
    use crate::PeerId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn spends_full_budget_in_piece_quanta() {
        let view = FakeView::mutual(&[1, 2, 3]);
        let mut m = Altruism::new();
        let grants = m.allocate(&view, 3500, &mut rng());
        let total: u64 = grants.iter().map(|g| g.bytes).sum();
        assert_eq!(total, 3500);
        assert!(grants.iter().all(|g| g.reason == GrantReason::Altruism));
        assert!(grants.iter().all(|g| g.condition.is_none()));
    }

    #[test]
    fn targets_only_interested_neighbors() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.interest.remove(&(PeerId::new(2), PeerId::new(0)));
        let mut m = Altruism::new();
        let grants = m.allocate(&view, 5000, &mut rng());
        assert!(grants.iter().all(|g| g.to == PeerId::new(1)));
    }

    #[test]
    fn no_interested_neighbors_means_no_grants() {
        let mut view = FakeView::mutual(&[1]);
        view.interest.clear();
        let mut m = Altruism::new();
        assert!(m.allocate(&view, 5000, &mut rng()).is_empty());
    }

    #[test]
    fn spreads_across_neighbors_over_time() {
        let view = FakeView::mutual(&[1, 2, 3, 4]);
        let mut m = Altruism::new();
        let mut r = rng();
        let mut seen = HashSet::new();
        for _ in 0..30 {
            for g in m.allocate(&view, 1000, &mut r) {
                seen.insert(g.to);
            }
        }
        assert_eq!(seen.len(), 4, "all neighbors should eventually receive");
    }

    #[test]
    fn zero_budget_yields_nothing() {
        let view = FakeView::mutual(&[1]);
        let mut m = Altruism::new();
        assert!(m.allocate(&view, 0, &mut rng()).is_empty());
    }
}
