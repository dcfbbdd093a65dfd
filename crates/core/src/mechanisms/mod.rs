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

use crate::{PeerId, SwarmView};
use rand::seq::SliceRandom;
use rand::RngCore;

/// Returns the neighbors of `view.me()` that currently need at least one
/// piece the caller can offer, i.e. the candidates any upload could target.
pub(crate) fn interested_neighbors(view: &dyn SwarmView) -> Vec<PeerId> {
    view.neighbors()
        .iter()
        .copied()
        .filter(|&p| view.peer_needs_from_me(p))
        .collect()
}

/// Picks a uniformly random element, or `None` on an empty slice.
pub(crate) fn pick_random(candidates: &[PeerId], rng: &mut dyn RngCore) -> Option<PeerId> {
    candidates.choose(rng).copied()
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

    /// Splits `budget` into `(target, bytes)` chunks, selecting a fresh
    /// target with `pick` whenever the current piece is fully granted or
    /// the current target left the candidate set.
    pub(crate) fn allocate(
        &mut self,
        mut budget: u64,
        piece_size: u64,
        candidates: &[PeerId],
        rng: &mut dyn RngCore,
        mut pick: impl FnMut(&[PeerId], &mut dyn RngCore) -> Option<PeerId>,
    ) -> Vec<(PeerId, u64)> {
        let mut out: Vec<(PeerId, u64)> = Vec::new();
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
        out
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
        // Budget of 300 against piece 1000: three rounds stay on one peer.
        let mut targets = Vec::new();
        for _ in 0..3 {
            for (t, b) in st.allocate(300, 1000, &candidates, &mut rng, |c, _| Some(c[0])) {
                assert_eq!(b, 300);
                targets.push(t);
            }
        }
        assert!(targets.iter().all(|&t| t == targets[0]));
        // 900 of 1000 granted; the next 300 splits 100 + 200 onto a fresh
        // piece for the (re-picked) target.
        let chunks = st.allocate(300, 1000, &candidates, &mut rng, |c, _| Some(c[0]));
        let total: u64 = chunks.iter().map(|&(_, b)| b).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn sticky_target_spans_multiple_pieces_in_one_round() {
        let mut st = StickyTarget::new();
        let candidates = [PeerId::new(5)];
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let chunks = st.allocate(2500, 1000, &candidates, &mut rng, |c, _| Some(c[0]));
        let total: u64 = chunks.iter().map(|&(_, b)| b).sum();
        assert_eq!(total, 2500);
    }

    #[test]
    fn sticky_target_repicks_when_target_leaves() {
        let mut st = StickyTarget::new();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let first = st.allocate(100, 1000, &[PeerId::new(1)], &mut rng, |c, _| Some(c[0]));
        assert_eq!(first[0].0, PeerId::new(1));
        // Peer 1 departs; only peer 2 remains.
        let second = st.allocate(100, 1000, &[PeerId::new(2)], &mut rng, |c, _| Some(c[0]));
        assert_eq!(second[0].0, PeerId::new(2));
    }

    #[test]
    fn sticky_target_empty_candidates_yields_nothing() {
        let mut st = StickyTarget::new();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        assert!(st
            .allocate(100, 1000, &[], &mut rng, |c, _| c.first().copied())
            .is_empty());
    }
}
