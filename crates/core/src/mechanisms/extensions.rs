//! BitTorrent variants from the paper's related work: **PropShare**
//! (Levin et al. \[5\] — "BitTorrent is an auction") and **BitTyrant**
//! (Piatek et al. \[6\] — "Do incentives build robustness in BitTorrent").
//!
//! The paper cites both as attempts to reduce BitTorrent's free-riding by
//! changing how the reciprocal bandwidth share is divided:
//!
//! * **PropShare** splits the reciprocal share *proportionally* to each
//!   neighbor's recent contribution instead of equally among the top
//!   `n_BT` — an auction where bids are last-period contributions. A
//!   free-rider's bid is zero, so it can win only the optimistic share.
//! * **BitTyrant** is the *strategic* client: it estimates, per neighbor,
//!   the expected return rate and the minimum upload needed to stay
//!   unchoked, then funds neighbors greedily by return-on-investment. It
//!   contributes no deliberate altruism at all — which is why a swarm of
//!   BitTyrants bootstraps poorly (the behavior the original paper
//!   reported as "BitTyrant improves individual download times but can
//!   degrade the swarm").
//!
//! Both report [`MechanismKind::BitTorrent`] (they speak the same
//! protocol); the experiment harness compares them against stock
//! BitTorrent in `ablations`.

use std::collections::HashMap;

use rand::RngCore;

use crate::mechanism::{Grant, GrantReason, Mechanism, MechanismParams};
use crate::mechanisms::{interested_neighbors, pick_random, StickyTarget};
use crate::view::SwarmView;
use crate::{MechanismKind, PeerId};

/// EWMA smoothing factor for contribution estimates.
const RATE_ALPHA: f64 = 0.3;

/// The PropShare client: reciprocal bandwidth divided proportionally to
/// smoothed contributions; the `α_BT` share stays optimistic.
///
/// # Example
///
/// ```
/// use coop_incentives::mechanisms::extensions::PropShare;
/// use coop_incentives::{Mechanism, MechanismParams};
/// let m = PropShare::new(MechanismParams::default());
/// assert_eq!(m.kind(), coop_incentives::MechanismKind::BitTorrent);
/// ```
#[derive(Clone, Debug)]
pub struct PropShare {
    params: MechanismParams,
    rates: HashMap<PeerId, f64>,
    optimistic: StickyTarget,
}

impl PropShare {
    /// Creates the mechanism.
    pub fn new(params: MechanismParams) -> Self {
        PropShare {
            params,
            rates: HashMap::new(),
            optimistic: StickyTarget::new(),
        }
    }
}

impl Mechanism for PropShare {
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
        for &p in view.neighbors() {
            let recv = view.ledger().received_this_round(p) as f64;
            let rate = self.rates.entry(p).or_insert(0.0);
            *rate = (1.0 - RATE_ALPHA) * *rate + RATE_ALPHA * recv;
        }
    }

    fn allocate(&mut self, view: &dyn SwarmView, budget: u64, rng: &mut dyn RngCore) -> Vec<Grant> {
        let candidates = interested_neighbors(view);
        if candidates.is_empty() {
            return Vec::new();
        }
        let altruism_budget = (budget as f64 * self.params.alpha_bt).round() as u64;
        let prop_budget = budget - altruism_budget.min(budget);

        let mut grants = Vec::new();
        // Proportional division among contributing, interested neighbors.
        let contributors: Vec<(PeerId, f64)> = candidates
            .iter()
            .filter_map(|&p| {
                let r = self.rates.get(&p).copied().unwrap_or(0.0);
                (r > 0.0).then_some((p, r))
            })
            .collect();
        let total_rate: f64 = contributors.iter().map(|&(_, r)| r).sum();
        if total_rate > 0.0 && prop_budget > 0 {
            let mut assigned = 0u64;
            for (i, &(p, r)) in contributors.iter().enumerate() {
                let bytes = if i + 1 == contributors.len() {
                    prop_budget - assigned
                } else {
                    (prop_budget as f64 * r / total_rate).floor() as u64
                };
                assigned += bytes;
                if bytes > 0 {
                    grants.push(Grant::new(p, bytes, GrantReason::TitForTat));
                }
            }
        }
        // The optimistic share discovers new contributors.
        if altruism_budget > 0 {
            grants.extend(
                self.optimistic
                    .allocate(
                        altruism_budget,
                        view.piece_size(),
                        &candidates,
                        rng,
                        |c, rng| pick_random(c, rng),
                    )
                    .into_iter()
                    .map(|(to, bytes)| Grant::new(to, bytes, GrantReason::OptimisticUnchoke)),
            );
        }
        grants
    }
}

/// Per-neighbor BitTyrant estimates.
#[derive(Clone, Copy, Debug)]
struct TyrantEstimate {
    /// Expected return rate (bytes/round, EWMA of what they send us).
    expected_return: f64,
    /// Our current estimate of the minimum upload (bytes/round) that keeps
    /// them reciprocating.
    required_upload: f64,
    /// Consecutive rounds they kept reciprocating while funded.
    streak: u32,
}

/// The BitTyrant strategic client: greedy return-on-investment unchoking
/// with adaptive per-neighbor funding levels and **no** altruistic share.
///
/// # Example
///
/// ```
/// use coop_incentives::mechanisms::extensions::BitTyrant;
/// use coop_incentives::{Mechanism, MechanismParams};
/// let m = BitTyrant::new(MechanismParams::default());
/// assert_eq!(m.kind(), coop_incentives::MechanismKind::BitTorrent);
/// ```
#[derive(Clone, Debug)]
pub struct BitTyrant {
    estimates: HashMap<PeerId, TyrantEstimate>,
    /// What we funded each neighbor last round (to judge reciprocation).
    funded_last_round: HashMap<PeerId, u64>,
    default_required: f64,
}

impl BitTyrant {
    /// Creates the mechanism. `params` is accepted for interface symmetry;
    /// BitTyrant ignores `α_BT` (it runs no optimistic unchoking).
    pub fn new(_params: MechanismParams) -> Self {
        BitTyrant {
            estimates: HashMap::new(),
            funded_last_round: HashMap::new(),
            default_required: 0.0,
        }
    }
}

impl Mechanism for BitTyrant {
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
        let piece = view.piece_size() as f64;
        if self.default_required == 0.0 {
            self.default_required = piece;
        }
        for &p in view.neighbors() {
            let recv = view.ledger().received_this_round(p) as f64;
            let funded = self.funded_last_round.get(&p).copied().unwrap_or(0);
            let e = self.estimates.entry(p).or_insert(TyrantEstimate {
                expected_return: 0.0,
                required_upload: piece,
                streak: 0,
            });
            e.expected_return = (1.0 - RATE_ALPHA) * e.expected_return + RATE_ALPHA * recv;
            if funded > 0 {
                if recv > 0.0 {
                    // They reciprocated: try paying less next time (the
                    // tyrant's signature move).
                    e.streak += 1;
                    if e.streak >= 3 {
                        e.required_upload = (e.required_upload * 0.9).max(piece * 0.1);
                        e.streak = 0;
                    }
                } else {
                    // Funded but no return: raise the estimate.
                    e.required_upload *= 1.2;
                    e.streak = 0;
                }
            }
        }
        self.funded_last_round.clear();
    }

    fn allocate(&mut self, view: &dyn SwarmView, budget: u64, rng: &mut dyn RngCore) -> Vec<Grant> {
        let candidates = interested_neighbors(view);
        if candidates.is_empty() {
            return Vec::new();
        }
        let piece = view.piece_size() as f64;
        // Rank by return-on-investment; unknown neighbors get an
        // exploratory default (otherwise nobody would ever be funded).
        let mut ranked: Vec<(PeerId, f64, f64)> = candidates
            .iter()
            .map(|&p| {
                let e = self.estimates.get(&p);
                let ret = e.map_or(piece * 0.5, |e| e.expected_return.max(piece * 0.05));
                let req = e.map_or(piece, |e| e.required_upload).max(1.0);
                (p, ret / req, req)
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite ROI")
                .then(a.0.cmp(&b.0))
        });
        // Fund proven reciprocators greedily; peers whose ROI has sunk
        // below the cutoff (serial non-reciprocators) get at most one
        // capped exploration grant per round — the tyrant does not keep
        // paying bad investments, and never pays them more than a piece.
        let _ = rng;
        const ROI_CUTOFF: f64 = 0.25;
        let mut grants = Vec::new();
        let mut remaining = budget;
        let mut explored = false;
        for (p, roi, req) in ranked {
            if remaining == 0 {
                break;
            }
            let bytes = if roi >= ROI_CUTOFF {
                (req.ceil() as u64).min(remaining)
            } else if !explored {
                explored = true;
                (piece.ceil() as u64).min(remaining)
            } else {
                continue;
            };
            if bytes == 0 {
                continue;
            }
            remaining -= bytes;
            self.funded_last_round.insert(p, bytes);
            grants.push(Grant::new(p, bytes, GrantReason::TitForTat));
        }
        grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::fake::FakeView;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(17)
    }

    #[test]
    fn propshare_divides_proportionally() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.ledger.record_received(PeerId::new(1), 300);
        view.ledger.record_received(PeerId::new(2), 100);
        let mut m = PropShare::new(MechanismParams {
            alpha_bt: 0.0,
            ..MechanismParams::default()
        });
        m.on_round_end(&view);
        let grants = m.allocate(&view, 4000, &mut rng());
        let to = |i: u32| -> u64 {
            grants
                .iter()
                .filter(|g| g.to == PeerId::new(i))
                .map(|g| g.bytes)
                .sum()
        };
        assert_eq!(to(1) + to(2), 4000);
        assert_eq!(to(1), 3000, "3:1 contribution ratio → 3:1 bandwidth");
        assert_eq!(to(2), 1000);
    }

    #[test]
    fn propshare_gives_freeriders_only_the_optimistic_share() {
        let mut view = FakeView::mutual(&[1, 2]);
        // Only peer 1 contributes; peer 2 is a free-rider.
        view.ledger.record_received(PeerId::new(1), 500);
        let mut m = PropShare::new(MechanismParams {
            alpha_bt: 0.2,
            ..MechanismParams::default()
        });
        m.on_round_end(&view);
        let mut freerider_tft = 0u64;
        let mut r = rng();
        for _ in 0..50 {
            for g in m.allocate(&view, 1000, &mut r) {
                if g.to == PeerId::new(2) && g.reason == GrantReason::TitForTat {
                    freerider_tft += g.bytes;
                }
            }
        }
        assert_eq!(freerider_tft, 0, "zero bid wins zero auction bandwidth");
    }

    #[test]
    fn propshare_idles_reciprocal_share_without_contributors() {
        let view = FakeView::mutual(&[1]);
        let mut m = PropShare::new(MechanismParams {
            alpha_bt: 0.2,
            ..MechanismParams::default()
        });
        let grants = m.allocate(&view, 1000, &mut rng());
        let total: u64 = grants.iter().map(|g| g.bytes).sum();
        assert_eq!(total, 200, "only the optimistic 20% moves");
    }

    #[test]
    fn bittyrant_funds_best_roi_first() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.piece_size = 1000;
        let mut m = BitTyrant::new(MechanismParams::default());
        // Peer 1 returns a lot; peer 2 returns nothing while funded.
        view.ledger.record_received(PeerId::new(1), 2000);
        m.allocate(&view, 2000, &mut rng()); // fund both once
        m.on_round_end(&view);
        let grants = m.allocate(&view, 1000, &mut rng());
        assert_eq!(grants[0].to, PeerId::new(1), "best ROI funded first");
    }

    #[test]
    fn bittyrant_lowers_payment_to_reliable_reciprocators() {
        let mut view = FakeView::mutual(&[1]);
        view.piece_size = 1000;
        let mut m = BitTyrant::new(MechanismParams::default());
        for _ in 0..12 {
            let grants = m.allocate(&view, 1000, &mut rng());
            assert!(!grants.is_empty());
            view.ledger.record_received(PeerId::new(1), 800);
            m.on_round_end(&view);
            // Roll the fake ledger window like the simulator does.
            view.ledger.end_round();
        }
        let e = m.estimates[&PeerId::new(1)];
        assert!(
            e.required_upload < 1000.0,
            "payment should have been squeezed below one piece: {}",
            e.required_upload
        );
    }

    #[test]
    fn bittyrant_raises_payment_when_snubbed() {
        let mut view = FakeView::mutual(&[1]);
        view.piece_size = 1000;
        let mut m = BitTyrant::new(MechanismParams::default());
        m.allocate(&view, 1000, &mut rng());
        m.on_round_end(&view); // funded, no return
        let e = m.estimates[&PeerId::new(1)];
        assert!(e.required_upload > 1000.0);
    }

    #[test]
    fn bittyrant_never_overspends() {
        let view = FakeView::mutual(&[1, 2, 3]);
        let mut m = BitTyrant::new(MechanismParams::default());
        let grants = m.allocate(&view, 1500, &mut rng());
        let total: u64 = grants.iter().map(|g| g.bytes).sum();
        assert!(total <= 1500);
    }
}
