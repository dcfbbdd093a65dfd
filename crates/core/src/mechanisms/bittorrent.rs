//! The BitTorrent-style reciprocity/altruism hybrid.
//!
//! "A fixed amount (e.g., 80%) of users' upload bandwidth is reserved for
//! reciprocity, which is enforced in a series of discrete timeslots. In
//! each timeslot, this bandwidth is used to upload data to a given number
//! of users from which the user has received the most data in the previous
//! timeslot. The remaining bandwidth is used for altruism, allowing
//! existing users to bootstrap newcomers." (Section III-A.)
//!
//! Concretely: the `1 − α_BT` tit-for-tat share is divided evenly among up
//! to `n_BT` top last-round contributors that are still interested; the
//! `α_BT` share goes to one uniformly random interested neighbor per round
//! (the optimistic unchoke). Tit-for-tat bandwidth with no eligible
//! contributor idles — which is exactly why BitTorrent bootstraps a flash
//! crowd slowly (Table II).

use rand::RngCore;

use crate::hash::IdMap;
use crate::mechanism::{AllocScratch, Grant, GrantReason, Mechanism, MechanismParams};
use crate::mechanisms::{pick_random, push_chunks, StickyTarget};
use crate::view::SwarmView;
use crate::MechanismKind;

/// The BitTorrent mechanism (tit-for-tat + optimistic unchoking).
///
/// # Example
///
/// ```
/// use coop_incentives::mechanisms::BitTorrent;
/// use coop_incentives::{Mechanism, MechanismParams};
/// let m = BitTorrent::new(MechanismParams::default());
/// assert_eq!(m.kind(), coop_incentives::MechanismKind::BitTorrent);
/// ```
#[derive(Clone, Debug)]
pub struct BitTorrent {
    params: MechanismParams,
    optimistic: StickyTarget,
    /// Exponentially smoothed per-neighbor download rates (bytes/round),
    /// the quantity real tit-for-tat ranks by.
    rates: IdMap<crate::PeerId, f64>,
    /// The current unchoke set, re-evaluated every [`UNCHOKE_PERIOD`]
    /// rounds as in real clients (10-second unchoke intervals).
    unchoked: Vec<crate::PeerId>,
    last_eval: Option<u64>,
}

/// Rounds between unchoke-set re-evaluations.
const UNCHOKE_PERIOD: u64 = 5;

/// EWMA smoothing factor for per-neighbor rates.
const RATE_ALPHA: f64 = 0.3;

impl BitTorrent {
    /// Creates the mechanism with the given `α_BT` and `n_BT`.
    pub fn new(params: MechanismParams) -> Self {
        BitTorrent {
            params,
            optimistic: StickyTarget::new(),
            rates: IdMap::default(),
            unchoked: Vec::new(),
            last_eval: None,
        }
    }

    /// Re-ranks the unchoke set over `candidates`. `ranked` and `fill`
    /// are scratch.
    fn reevaluate(
        &mut self,
        view: &dyn SwarmView,
        candidates: &[crate::PeerId],
        rng: &mut dyn RngCore,
        ranked: &mut Vec<(crate::PeerId, f64)>,
        fill: &mut Vec<crate::PeerId>,
    ) {
        ranked.clear();
        ranked.extend(
            candidates
                .iter()
                .map(|&p| (p, self.rates.get(&p).copied().unwrap_or(0.0)))
                .filter(|&(_, r)| r > 0.0),
        );
        // Ids are distinct, so the order is total and an unstable sort is
        // exact.
        ranked.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("rates are finite")
                .then(a.0.cmp(&b.0))
        });
        self.unchoked.clear();
        self.unchoked
            .extend(ranked.iter().map(|&(p, _)| p).take(self.params.n_bt));
        // Free slots (ties all at zero — e.g. right after a flash crowd)
        // are filled with random interested neighbors, as a real client's
        // unchoke algorithm does when rates cannot break ties.
        if self.unchoked.len() < self.params.n_bt {
            fill.clear();
            fill.extend(
                candidates
                    .iter()
                    .copied()
                    .filter(|p| !self.unchoked.contains(p)),
            );
            let free = self.params.n_bt - self.unchoked.len();
            coop_des::rng::shuffle_prefix(fill, rng, free);
            fill.truncate(free);
            self.unchoked.extend_from_slice(fill);
        }
        self.last_eval = Some(view.round());
    }
}

impl Mechanism for BitTorrent {
    fn clone_box(&self) -> Box<dyn Mechanism> {
        Box::new(self.clone())
    }

    fn kind(&self) -> MechanismKind {
        MechanismKind::BitTorrent
    }

    fn has_round_end_hook(&self) -> bool {
        true
    }

    fn on_round_end(&mut self, view: &dyn SwarmView) {
        let ledger = view.ledger();
        for &p in view.neighbors() {
            let recv = ledger.received_this_round(p) as f64;
            let rate = self.rates.entry(p).or_insert(0.0);
            *rate = (1.0 - RATE_ALPHA) * *rate + RATE_ALPHA * recv;
        }
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
        let altruism_budget = (budget as f64 * self.params.alpha_bt).round() as u64;
        let tft_budget = budget - altruism_budget.min(budget);

        // Tit-for-tat: up to n_BT top contributors by smoothed download
        // rate that still need something from us, each receiving an equal
        // share. The set is re-evaluated every UNCHOKE_PERIOD rounds.
        let due = match self.last_eval {
            None => true,
            Some(t) => view.round() >= t + UNCHOKE_PERIOD,
        };
        if due {
            self.reevaluate(
                view,
                candidates,
                rng,
                &mut scratch.ranked,
                &mut scratch.peers,
            );
        }
        let unchoked = &mut scratch.peers;
        unchoked.clear();
        unchoked.extend(
            self.unchoked
                .iter()
                .copied()
                .filter(|p| candidates.contains(p)),
        );
        if !unchoked.is_empty() && tft_budget > 0 {
            let share = tft_budget / unchoked.len() as u64;
            let mut leftover = tft_budget - share * unchoked.len() as u64;
            for &p in unchoked.iter() {
                let extra = if leftover > 0 {
                    leftover -= 1;
                    1
                } else {
                    0
                };
                if share + extra > 0 {
                    out.push(Grant::new(p, share + extra, GrantReason::TitForTat));
                }
            }
        }

        // Optimistic unchoke: the altruistic share to a random interested
        // neighbor ("users upload to random neighbors with a 20%
        // probability"), sticking with the target until a full piece has
        // been granted so sub-piece budgets do not scatter.
        if altruism_budget > 0 {
            self.optimistic.allocate(
                altruism_budget,
                view.piece_size(),
                candidates,
                rng,
                pick_random,
                &mut scratch.chunks,
            );
            push_chunks(&scratch.chunks, GrantReason::OptimisticUnchoke, out);
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
        SmallRng::seed_from_u64(3)
    }

    fn bt(alpha: f64, n: usize) -> BitTorrent {
        BitTorrent::new(MechanismParams {
            alpha_bt: alpha,
            n_bt: n,
            ..MechanismParams::default()
        })
    }

    #[test]
    fn no_contributors_fills_slots_randomly() {
        // No last-round contributors: all ties at zero, so the tit-for-tat
        // slots are filled with random interested neighbors and the budget
        // is fully spent.
        let view = FakeView::mutual(&[1, 2, 3]);
        let mut m = bt(0.2, 4);
        let grants = m.allocate(&view, 10_000, &mut rng());
        let total: u64 = grants.iter().map(|g| g.bytes).sum();
        assert_eq!(total, 10_000);
        let opt: u64 = grants
            .iter()
            .filter(|g| g.reason == GrantReason::OptimisticUnchoke)
            .map(|g| g.bytes)
            .sum();
        assert_eq!(opt, 2000);
    }

    #[test]
    fn tft_splits_evenly_among_top_contributors() {
        let mut view = FakeView::mutual(&[1, 2, 3, 4, 5]);
        for (i, bytes) in [(1u32, 500u64), (2, 400), (3, 300), (4, 200), (5, 100)] {
            view.ledger.record_received(PeerId::new(i), bytes);
        }
        let mut m = bt(0.2, 4);
        m.on_round_end(&view); // feed the rate tracker
        let grants = m.allocate(&view, 10_000, &mut rng());
        let tft: Vec<&Grant> = grants
            .iter()
            .filter(|g| g.reason == GrantReason::TitForTat)
            .collect();
        assert_eq!(tft.len(), 4);
        // Top 4 contributors are peers 1–4; peer 5 is choked.
        let targets: Vec<PeerId> = tft.iter().map(|g| g.to).collect();
        assert!(targets.contains(&PeerId::new(1)));
        assert!(!targets.contains(&PeerId::new(5)));
        assert!(tft.iter().all(|g| g.bytes == 2000));
    }

    #[test]
    fn uninterested_contributors_are_skipped() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.ledger.record_received(PeerId::new(1), 500);
        view.ledger.record_received(PeerId::new(2), 400);
        let mut m = bt(0.0, 4);
        m.on_round_end(&view);
        // Peer 1 completed its download: no longer interested in us.
        view.interest.remove(&(PeerId::new(1), PeerId::new(0)));
        let grants = m.allocate(&view, 1000, &mut rng());
        assert!(grants.iter().all(|g| g.to == PeerId::new(2)));
    }

    #[test]
    fn budget_fully_accounted_when_contributors_exist() {
        let mut view = FakeView::mutual(&[1, 2, 3]);
        for i in 1..=3u32 {
            view.ledger.record_received(PeerId::new(i), 100 * i as u64);
        }
        let mut m = bt(0.2, 4);
        m.on_round_end(&view);
        let grants = m.allocate(&view, 9_999, &mut rng());
        let total: u64 = grants.iter().map(|g| g.bytes).sum();
        assert_eq!(total, 9_999);
    }

    #[test]
    fn zero_alpha_means_no_optimistic_unchoke() {
        let view = FakeView::mutual(&[1]);
        let mut m = bt(0.0, 4);
        let grants = m.allocate(&view, 1000, &mut rng());
        assert!(grants
            .iter()
            .all(|g| g.reason != GrantReason::OptimisticUnchoke));
    }

    #[test]
    fn all_grants_unconditional() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.ledger.record_received(PeerId::new(1), 10);
        let mut m = bt(0.5, 2);
        m.on_round_end(&view);
        for g in m.allocate(&view, 1000, &mut rng()) {
            assert!(g.condition.is_none());
        }
    }
}
