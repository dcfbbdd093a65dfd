//! Quorum-consensus reputation with bans — beyond the paper.
//!
//! The paper's `Reputation` mechanism trusts a pre-seeded EigenTrust root
//! set: whoever the operator anoints stays load-bearing forever, and
//! "Building Better Incentives for Robustness in BitTorrent" (PAPERS.md)
//! shows such static defenses fall to strategic under-reporting and
//! collusion. `ConsensusReputation` removes the trusted root: every round
//! each peer submits transfer reports (upload claims and receipt
//! acknowledgments), and a deterministic quorum aggregation — run by the
//! swarm, sharded over peer ranges — cross-checks each claim against its
//! counterpart report. Matching pairs credit the uploader's consensus
//! score; mismatches are disputes whose strike lands on the uncorroborated
//! side (a claim backed by at least `quorum` matching counterpart reports
//! is believed). Strikes decay multiplicatively per round; crossing the
//! ban threshold triggers a temporary ban, and a second crossing a
//! permanent one. Banned peers are evicted from every candidate set.
//!
//! The mechanism object itself stays small: allocation is
//! reputation-weighted sampling over consensus scores with an `α_R`
//! altruistic bootstrap share (the same probabilistic interpretation as
//! [`Reputation`](crate::mechanisms::Reputation)), while the cross-peer
//! machinery — report collection, aggregation, strikes, bans — lives in
//! the swarm and is switched on by [`Mechanism::consensus_policy`].

use rand::RngCore;

use crate::mechanism::{AllocScratch, ConsensusPolicy, Grant, Mechanism, MechanismParams};
use crate::mechanisms::ReputationShares;
use crate::view::SwarmView;
use crate::MechanismKind;

/// The consensus-reputation mechanism.
///
/// # Example
///
/// ```
/// use coop_incentives::mechanisms::ConsensusReputation;
/// use coop_incentives::{Mechanism, MechanismParams};
/// let m = ConsensusReputation::new(MechanismParams::default());
/// assert_eq!(m.kind(), coop_incentives::MechanismKind::ConsensusReputation);
/// assert!(m.consensus_policy().is_some());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ConsensusReputation {
    params: MechanismParams,
    shares: ReputationShares,
}

impl ConsensusReputation {
    /// Creates the mechanism with the given parameters (`α_R` plus the
    /// `consensus_*` defense knobs).
    pub fn new(params: MechanismParams) -> Self {
        ConsensusReputation {
            params,
            shares: ReputationShares::default(),
        }
    }
}

impl Mechanism for ConsensusReputation {
    fn clone_box(&self) -> Box<dyn Mechanism> {
        Box::new(*self)
    }

    fn kind(&self) -> MechanismKind {
        MechanismKind::ConsensusReputation
    }

    fn consensus_policy(&self) -> Option<ConsensusPolicy> {
        Some(ConsensusPolicy::from_params(&self.params))
    }

    // Banned peers never appear among the candidates: the swarm evicts
    // them from the adjacency before allocation runs. The view's
    // reputation is the consensus score, which starts at zero for
    // everyone (no pre-trusted root), so the weighted share idles at
    // system start until confirmed transfers seed the table.
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

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(23)
    }

    #[test]
    fn splits_budget_between_score_and_altruism() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.reputations.insert(PeerId::new(1), 500.0);
        view.reputations.insert(PeerId::new(2), 500.0);
        let params = MechanismParams {
            alpha_r: 0.25,
            ..MechanismParams::default()
        };
        let mut m = ConsensusReputation::new(params);
        let grants = m.allocate(&view, 8_000, &mut rng());
        let score_bytes: u64 = grants
            .iter()
            .filter(|g| g.reason == GrantReason::Reputation)
            .map(|g| g.bytes)
            .sum();
        let alt_bytes: u64 = grants
            .iter()
            .filter(|g| g.reason == GrantReason::Altruism)
            .map(|g| g.bytes)
            .sum();
        assert_eq!(score_bytes, 6000);
        assert_eq!(alt_bytes, 2000);
    }

    #[test]
    fn score_share_idles_without_any_consensus_credit() {
        let view = FakeView::mutual(&[1, 2]);
        let params = MechanismParams {
            alpha_r: 0.1,
            ..MechanismParams::default()
        };
        let mut m = ConsensusReputation::new(params);
        let grants = m.allocate(&view, 10_000, &mut rng());
        let total: u64 = grants.iter().map(|g| g.bytes).sum();
        assert_eq!(total, 1000);
        assert!(grants.iter().all(|g| g.reason == GrantReason::Altruism));
    }

    #[test]
    fn policy_reflects_params() {
        let params = MechanismParams {
            consensus_quorum: 5,
            consensus_ban_threshold: 7,
            consensus_decay: 0.75,
            consensus_temp_ban_rounds: 32,
            ..MechanismParams::default()
        };
        let m = ConsensusReputation::new(params);
        let p = m.consensus_policy().unwrap();
        assert_eq!(p.quorum, 5);
        assert_eq!(p.ban_threshold, 7);
        assert_eq!(p.decay, 0.75);
        assert_eq!(p.temp_ban_rounds, 32);
    }

    #[test]
    fn empty_neighborhood_yields_nothing() {
        let mut view = FakeView::mutual(&[]);
        view.interest.clear();
        let mut m = ConsensusReputation::new(MechanismParams::default());
        assert!(m.allocate(&view, 1000, &mut rng()).is_empty());
    }
}
