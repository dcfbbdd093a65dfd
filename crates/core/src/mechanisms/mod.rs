//! The six incentive mechanisms compared by the paper (Section III-A),
//! plus the epoch-settled extension.
//!
//! | Algorithm       | Classes combined          | Module |
//! |-----------------|---------------------------|--------|
//! | Reciprocity     | reciprocity               | [`reciprocity`] |
//! | Altruism        | altruism                  | [`altruism`] |
//! | Reputation      | reputation (+ α_R altruism for bootstrap) | [`reputation`] |
//! | BitTorrent      | reciprocity / altruism    | [`bittorrent`] |
//! | FairTorrent     | reputation / altruism     | [`fairtorrent`] |
//! | T-Chain         | reciprocity / reputation  | [`tchain`] |
//! | EpochSettlement | reputation / altruism, settled per epoch | [`epoch`] |
//! | ConsensusReputation | reputation / altruism, quorum consensus + bans | [`consensus`] |

pub mod altruism;
pub mod bittorrent;
pub mod consensus;
pub mod epoch;
pub mod extensions;
pub mod fairtorrent;
#[cfg(test)]
mod oracle;
pub mod reciprocity;
pub mod reputation;
pub mod tchain;

pub use altruism::Altruism;
pub use bittorrent::BitTorrent;
pub use consensus::ConsensusReputation;
pub use epoch::EpochSettlement;
pub use fairtorrent::FairTorrent;
pub use reciprocity::Reciprocity;
pub use reputation::Reputation;
pub use tchain::TChain;

use crate::mechanism::{AllocScratch, Grant, GrantReason};
use crate::{PeerId, SwarmView};
use rand::seq::SliceRandom;
use rand::RngCore;

/// Picks a uniformly random element, or `None` on an empty slice.
pub(crate) fn pick_random(candidates: &[PeerId], rng: &mut dyn RngCore) -> Option<PeerId> {
    candidates.choose(rng).copied()
}

/// Appends one grant per `(target, bytes)` chunk.
pub(crate) fn push_chunks(chunks: &[(PeerId, u64)], reason: GrantReason, out: &mut Vec<Grant>) {
    out.extend(
        chunks
            .iter()
            .map(|&(to, bytes)| Grant::new(to, bytes, reason)),
    );
}

/// Samples a candidate with probability proportional to its weight
/// (`weights[i]` belongs to `candidates[i]`, `total` is their sum), or
/// `None` without drawing when no weight is positive.
fn sample_weighted(
    candidates: &[PeerId],
    weights: &[f64],
    total: f64,
    rng: &mut dyn RngCore,
) -> Option<PeerId> {
    if total <= 0.0 {
        return None;
    }
    let mut x = rand::Rng::gen_range(rng, 0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return Some(candidates[i]);
        }
        x -= w;
    }
    candidates
        .iter()
        .zip(weights)
        .rev()
        .find(|(_, &w)| w > 0.0)
        .map(|(&p, _)| p)
}

/// The reputation-class allocation shared by [`Reputation`] and
/// [`ConsensusReputation`]: `1 − alpha` of the budget goes by sampling
/// interested neighbors in proportion to [`SwarmView::reputation`], the
/// rest to uniformly random interested neighbors, each share sticky per
/// piece.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ReputationShares {
    weighted: StickyTarget,
    altruistic: StickyTarget,
}

impl ReputationShares {
    /// Appends this round's grants. The weights are read once per call,
    /// on the first weighted pick: reputations cannot change within a
    /// call, so every pick sees the weights and the sum it would have
    /// recomputed, and draws the same.
    pub(crate) fn allocate(
        &mut self,
        alpha: f64,
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
        let altruism_budget = (budget as f64 * alpha).round() as u64;
        let reputation_budget = budget - altruism_budget.min(budget);
        let weights = &mut scratch.weights;
        weights.clear();
        let mut total = 0.0;
        self.weighted.allocate(
            reputation_budget,
            view.piece_size(),
            candidates,
            rng,
            |c, rng| {
                if weights.is_empty() {
                    weights.extend(c.iter().map(|&p| view.reputation(p)));
                    total = weights.iter().sum();
                }
                sample_weighted(c, weights, total, rng)
            },
            &mut scratch.chunks,
        );
        push_chunks(&scratch.chunks, GrantReason::Reputation, out);
        self.altruistic.allocate(
            altruism_budget,
            view.piece_size(),
            candidates,
            rng,
            pick_random,
            &mut scratch.chunks,
        );
        push_chunks(&scratch.chunks, GrantReason::Altruism, out);
    }
}

/// Keeps uploading to one chosen target until a full piece worth of bytes
/// has been granted, then picks the next target.
///
/// Without this, a peer whose per-round budget is below the piece size
/// would scatter partial transfers across a new random target every round,
/// parking most of its bandwidth in never-completing transfers — real
/// clients pipeline one piece at a time per connection.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StickyTarget {
    target: Option<PeerId>,
    remaining: u64,
}

impl StickyTarget {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Splits `budget` into `(target, bytes)` chunks in `out` (cleared
    /// first), selecting a fresh target with `pick` whenever the current
    /// piece is fully granted or the current target left the candidate
    /// set.
    pub(crate) fn allocate(
        &mut self,
        mut budget: u64,
        piece_size: u64,
        candidates: &[PeerId],
        rng: &mut dyn RngCore,
        mut pick: impl FnMut(&[PeerId], &mut dyn RngCore) -> Option<PeerId>,
        out: &mut Vec<(PeerId, u64)>,
    ) {
        out.clear();
        while budget > 0 {
            let stale = match self.target {
                Some(t) => !candidates.contains(&t) || self.remaining == 0,
                None => true,
            };
            if stale {
                match pick(candidates, rng) {
                    Some(t) => {
                        self.target = Some(t);
                        self.remaining = piece_size;
                    }
                    None => break,
                }
            }
            let t = self.target.expect("just set");
            let bytes = budget.min(self.remaining);
            self.remaining -= bytes;
            budget -= bytes;
            match out.last_mut() {
                Some((last, acc)) if *last == t => *acc += bytes,
                _ => out.push((t, bytes)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The round loop skips the end-of-round hook pass when no mechanism
    /// declares a hook, so every mechanism whose hook changes its state
    /// must declare it.
    #[test]
    fn state_changing_round_end_hooks_are_declared() {
        use crate::view::fake::FakeView;
        use crate::{build_mechanism, Mechanism, MechanismKind, MechanismParams};
        let mut view = FakeView::mutual(&[1, 2, 3]);
        view.ledger.record_received(PeerId::new(1), 700);
        view.ledger.record_received(PeerId::new(2), 300);
        let params = MechanismParams::default();
        let mut mechs: Vec<Box<dyn Mechanism>> = MechanismKind::EXTENDED
            .iter()
            .map(|&k| build_mechanism(k, params))
            .collect();
        mechs.push(Box::new(extensions::PropShare::new(params)));
        mechs.push(Box::new(extensions::BitTyrant::new(params)));
        for mut m in mechs {
            let before = format!("{m:?}");
            m.on_round_end(&view);
            if format!("{m:?}") != before {
                assert!(m.has_round_end_hook(), "{before} hides its hook");
            }
        }
    }

    #[test]
    fn sticky_target_stays_until_piece_done() {
        let mut st = StickyTarget::new();
        let candidates = [PeerId::new(1), PeerId::new(2)];
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut chunks = Vec::new();
        // Budget of 300 against piece 1000: three rounds stay on one peer.
        let mut targets = Vec::new();
        for _ in 0..3 {
            st.allocate(
                300,
                1000,
                &candidates,
                &mut rng,
                |c, _| Some(c[0]),
                &mut chunks,
            );
            for &(t, b) in &chunks {
                assert_eq!(b, 300);
                targets.push(t);
            }
        }
        assert!(targets.iter().all(|&t| t == targets[0]));
        // 900 of 1000 granted; the next 300 splits 100 + 200 onto a fresh
        // piece for the (re-picked) target.
        st.allocate(
            300,
            1000,
            &candidates,
            &mut rng,
            |c, _| Some(c[0]),
            &mut chunks,
        );
        let total: u64 = chunks.iter().map(|&(_, b)| b).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn sticky_target_spans_multiple_pieces_in_one_round() {
        let mut st = StickyTarget::new();
        let candidates = [PeerId::new(5)];
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut chunks = Vec::new();
        st.allocate(
            2500,
            1000,
            &candidates,
            &mut rng,
            |c, _| Some(c[0]),
            &mut chunks,
        );
        let total: u64 = chunks.iter().map(|&(_, b)| b).sum();
        assert_eq!(total, 2500);
    }

    #[test]
    fn sticky_target_repicks_when_target_leaves() {
        let mut st = StickyTarget::new();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut chunks = Vec::new();
        st.allocate(
            100,
            1000,
            &[PeerId::new(1)],
            &mut rng,
            |c, _| Some(c[0]),
            &mut chunks,
        );
        assert_eq!(chunks[0].0, PeerId::new(1));
        // Peer 1 departs; only peer 2 remains.
        st.allocate(
            100,
            1000,
            &[PeerId::new(2)],
            &mut rng,
            |c, _| Some(c[0]),
            &mut chunks,
        );
        assert_eq!(chunks[0].0, PeerId::new(2));
    }

    #[test]
    fn sticky_target_empty_candidates_yields_nothing() {
        let mut st = StickyTarget::new();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        // A stale buffer is cleared, not appended to.
        let mut chunks = vec![(PeerId::new(9), 1)];
        st.allocate(
            100,
            1000,
            &[],
            &mut rng,
            |c, _| c.first().copied(),
            &mut chunks,
        );
        assert!(chunks.is_empty());
    }
}
