//! Pure direct reciprocity.
//!
//! Users "upload only to the neighbor that has contributed the most to
//! them" (Section V-A) and never initiate exchanges: every upload must be
//! covered by outstanding credit (bytes received minus bytes returned).
//! Since no peer can make the first move, the analysis (Lemma 2) shows that
//! no peer-to-peer uploads ever occur — the algorithm is maximally fair and
//! maximally inefficient, and the simulator reproduces exactly that.

use rand::RngCore;

use crate::mechanism::{AllocScratch, Grant, GrantReason, Mechanism};
use crate::view::SwarmView;
use crate::MechanismKind;

/// The pure-reciprocity mechanism.
///
/// # Example
///
/// ```
/// use coop_incentives::mechanisms::Reciprocity;
/// use coop_incentives::Mechanism;
/// let m = Reciprocity::new();
/// assert_eq!(m.kind(), coop_incentives::MechanismKind::Reciprocity);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Reciprocity {
    _private: (),
}

impl Reciprocity {
    /// Creates the mechanism.
    pub fn new() -> Self {
        Reciprocity { _private: () }
    }
}

impl Mechanism for Reciprocity {
    fn clone_box(&self) -> Box<dyn Mechanism> {
        Box::new(*self)
    }

    fn kind(&self) -> MechanismKind {
        MechanismKind::Reciprocity
    }

    // Settlement cadence: the default `SettleCadence::PerTransfer`. The
    // credit ledger this mechanism reads is mutated only by the driver's
    // single settlement entry point (`settle_transfer` /
    // `settle_round_boundary` in the simulator) — mechanisms must not
    // mutate ledgers directly; epoch-settled inputs go through the
    // `on_epoch_close` cadence hook instead.

    // `allocate` reads only the ledger and interest bits and never draws
    // RNG or mutates `self` (the struct has no fields) — in the paper's
    // regime it returns nothing forever, so skipping grantless peers
    // until their credit or interest changes is what lets the dirty-set
    // round loop collapse pure-reciprocity cells.
    fn allocate_is_memoryless(&self) -> bool {
        true
    }

    fn allocate_into(
        &mut self,
        view: &dyn SwarmView,
        budget: u64,
        _rng: &mut dyn RngCore,
        scratch: &mut AllocScratch,
        out: &mut Vec<Grant>,
    ) {
        // Upload only against positive credit, preferring the neighbor with
        // the most unreturned contribution. With nobody willing to initiate,
        // credit stays zero forever and this returns nothing — the paper's
        // "no upload can be initiated because a reciprocal download is not
        // guaranteed".
        let ledger = view.ledger();
        let candidates = view.interested_neighbors(&mut scratch.interested);
        let creditors = &mut scratch.balances;
        creditors.clear();
        creditors.extend(
            candidates
                .iter()
                .map(|&p| (p, ledger.credit(p)))
                .filter(|&(_, c)| c > 0),
        );
        // Most generous creditor first; deterministic tie-break by id
        // (ids are distinct, so the order is total and an unstable sort
        // is exact).
        creditors.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        let mut remaining = budget;
        for &(peer, credit) in creditors.iter() {
            if remaining == 0 {
                break;
            }
            let bytes = credit.min(remaining);
            if bytes == 0 {
                continue;
            }
            remaining -= bytes;
            out.push(Grant::new(peer, bytes, GrantReason::Reciprocity));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::fake::FakeView;
    use crate::PeerId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0)
    }

    #[test]
    fn uploads_nothing_without_credit() {
        let view = FakeView::mutual(&[1, 2, 3]);
        let mut m = Reciprocity::new();
        assert!(m.allocate(&view, 10_000, &mut rng()).is_empty());
    }

    #[test]
    fn reciprocates_up_to_credit() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.ledger.record_received(PeerId::new(1), 1500);
        let mut m = Reciprocity::new();
        let grants = m.allocate(&view, 10_000, &mut rng());
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].to, PeerId::new(1));
        assert_eq!(grants[0].bytes, 1500);
        assert_eq!(grants[0].reason, GrantReason::Reciprocity);
    }

    #[test]
    fn budget_caps_reciprocation() {
        let mut view = FakeView::mutual(&[1]);
        view.ledger.record_received(PeerId::new(1), 5000);
        let mut m = Reciprocity::new();
        let grants = m.allocate(&view, 2000, &mut rng());
        assert_eq!(grants[0].bytes, 2000);
    }

    #[test]
    fn prefers_largest_creditor() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.ledger.record_received(PeerId::new(1), 100);
        view.ledger.record_received(PeerId::new(2), 900);
        let mut m = Reciprocity::new();
        let grants = m.allocate(&view, 500, &mut rng());
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].to, PeerId::new(2));
        assert_eq!(grants[0].bytes, 500);
    }

    #[test]
    fn skips_uninterested_creditors() {
        let mut view = FakeView::mutual(&[1]);
        view.ledger.record_received(PeerId::new(1), 100);
        // Peer 1 no longer needs anything from us.
        view.interest.remove(&(PeerId::new(1), PeerId::new(0)));
        let mut m = Reciprocity::new();
        assert!(m.allocate(&view, 1000, &mut rng()).is_empty());
    }

    #[test]
    fn total_never_exceeds_budget() {
        let mut view = FakeView::mutual(&[1, 2, 3]);
        for i in 1..=3 {
            view.ledger.record_received(PeerId::new(i), 700);
        }
        let mut m = Reciprocity::new();
        let grants = m.allocate(&view, 1000, &mut rng());
        let total: u64 = grants.iter().map(|g| g.bytes).sum();
        assert!(total <= 1000);
    }
}
