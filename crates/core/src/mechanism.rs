//! The common allocation interface implemented by all six algorithms.

use rand::RngCore;

use crate::view::SwarmView;
use crate::{MechanismKind, PeerId};

/// Why an upload grant was made — used by the simulator's accounting and by
/// the experiments to attribute bandwidth to mechanism components.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GrantReason {
    /// Pure direct reciprocity against outstanding credit.
    Reciprocity,
    /// T-Chain indirect reciprocity (reciprocating a received piece to a
    /// third peer, or opportunistically initiating a chain).
    IndirectReciprocity,
    /// Fulfilling a T-Chain obligation (forwarding to unlock a piece).
    Obligation,
    /// BitTorrent tit-for-tat toward a top contributor.
    TitForTat,
    /// BitTorrent optimistic unchoke / altruistic share.
    OptimisticUnchoke,
    /// Pure altruism to a random interested peer.
    Altruism,
    /// Reputation-weighted upload.
    Reputation,
    /// FairTorrent lowest-deficit upload.
    Deficit,
    /// Seeder upload.
    Seeding,
}

impl GrantReason {
    /// All reasons, for iteration/accounting.
    pub const ALL: [GrantReason; 9] = [
        GrantReason::Reciprocity,
        GrantReason::IndirectReciprocity,
        GrantReason::Obligation,
        GrantReason::TitForTat,
        GrantReason::OptimisticUnchoke,
        GrantReason::Altruism,
        GrantReason::Reputation,
        GrantReason::Deficit,
        GrantReason::Seeding,
    ];

    /// Dense index of this reason within [`GrantReason::ALL`].
    pub fn index(self) -> usize {
        GrantReason::ALL
            .iter()
            .position(|&r| r == self)
            .expect("reason listed in ALL")
    }

    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            GrantReason::Reciprocity => "reciprocity",
            GrantReason::IndirectReciprocity => "indirect-reciprocity",
            GrantReason::Obligation => "obligation",
            GrantReason::TitForTat => "tit-for-tat",
            GrantReason::OptimisticUnchoke => "optimistic-unchoke",
            GrantReason::Altruism => "altruism",
            GrantReason::Reputation => "reputation",
            GrantReason::Deficit => "deficit",
            GrantReason::Seeding => "seeding",
        }
    }
}

/// Requires the receiver of a conditional (encrypted) upload to reciprocate
/// before the piece is usable — T-Chain's enforcement device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReciprocationCondition {
    /// The peer the receiver must upload a piece to. Equal to the uploader
    /// for direct reciprocity; a third peer for indirect reciprocity.
    pub reciprocate_to: PeerId,
}

/// One upload decision: send `bytes` toward `to`.
///
/// Grants are byte-granular; the simulator accumulates them into piece
/// transfers, so capacities below one piece per round still make progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// Receiving peer.
    pub to: PeerId,
    /// Bytes of upload bandwidth committed.
    pub bytes: u64,
    /// Mechanism component responsible for this grant.
    pub reason: GrantReason,
    /// If set, the transferred piece is delivered encrypted and locked
    /// until the receiver reciprocates (T-Chain).
    pub condition: Option<ReciprocationCondition>,
}

impl Grant {
    /// An unconditional grant.
    pub fn new(to: PeerId, bytes: u64, reason: GrantReason) -> Self {
        Grant {
            to,
            bytes,
            reason,
            condition: None,
        }
    }

    /// A conditional (encrypted) grant requiring reciprocation to
    /// `reciprocate_to`.
    pub fn conditional(
        to: PeerId,
        bytes: u64,
        reason: GrantReason,
        reciprocate_to: PeerId,
    ) -> Self {
        Grant {
            to,
            bytes,
            reason,
            condition: Some(ReciprocationCondition { reciprocate_to }),
        }
    }
}

/// Tunable parameters shared by the mechanism implementations, with the
/// defaults used by the paper's experiments (Section V-A).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MechanismParams {
    /// Fraction of BitTorrent bandwidth used for optimistic unchoking
    /// (the paper simulates 20%).
    pub alpha_bt: f64,
    /// Number of simultaneous tit-for-tat unchoke slots (`n_BT`, 4 in the
    /// paper's Table II example).
    pub n_bt: usize,
    /// Fraction of reputation-algorithm bandwidth reserved for altruistic
    /// bootstrapping (`α_R`).
    pub alpha_r: f64,
    /// Rounds before an unfulfilled T-Chain obligation expires and the
    /// locked piece is discarded.
    pub tchain_obligation_ttl: u64,
    /// Maximum pending reciprocation backlog (obligations plus conditional
    /// in-flight pieces) a T-Chain receiver may hold; uploaders do not
    /// initiate chains beyond it. Low enough that a slow peer can clear
    /// its backlog within the obligation TTL.
    pub tchain_max_backlog: usize,
    /// Rounds per settlement epoch for [`MechanismKind::EpochSettlement`]:
    /// accrued contributions pay out every this many rounds. Shorter
    /// epochs approach FairTorrent-like fairness; longer ones approach
    /// altruism-like exploitability.
    pub epoch_rounds: u64,
    /// Consensus quorum for [`MechanismKind::ConsensusReputation`]: the
    /// number of matching counterpart reports that corroborate an
    /// uploader's claims in a dispute. Small quorums attribute disputes to
    /// the deviating receiver; oversized quorums starve honest uploaders
    /// of corroboration and mis-strike them instead (friendly fire).
    pub consensus_quorum: usize,
    /// Strike count at which [`MechanismKind::ConsensusReputation`] bans a
    /// peer: the first crossing triggers a temporary ban, a repeat
    /// crossing after the temporary ban a permanent one.
    pub consensus_ban_threshold: u32,
    /// Per-round multiplicative decay applied to consensus strikes *and*
    /// scores before the round's reports are aggregated, in `[0, 1]`.
    /// Near 1 strikes stick and bans fire; low values let strikes
    /// evaporate faster than attackers accrue them.
    pub consensus_decay: f64,
    /// Length of a temporary consensus ban in rounds.
    pub consensus_temp_ban_rounds: u64,
}

impl Default for MechanismParams {
    fn default() -> Self {
        MechanismParams {
            alpha_bt: 0.2,
            n_bt: 4,
            alpha_r: 0.1,
            tchain_obligation_ttl: 16,
            tchain_max_backlog: 4,
            epoch_rounds: 16,
            consensus_quorum: 2,
            consensus_ban_threshold: 4,
            consensus_decay: 0.9,
            consensus_temp_ban_rounds: 16,
        }
    }
}

impl MechanismParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: fractions must be
    /// within `[0, 1]`, `n_bt` and the obligation TTL must be positive.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.alpha_bt) {
            return Err(format!("alpha_bt must be in [0,1], got {}", self.alpha_bt));
        }
        if !(0.0..=1.0).contains(&self.alpha_r) {
            return Err(format!("alpha_r must be in [0,1], got {}", self.alpha_r));
        }
        if self.n_bt == 0 {
            return Err("n_bt must be positive".to_string());
        }
        if self.tchain_obligation_ttl == 0 {
            return Err("tchain_obligation_ttl must be positive".to_string());
        }
        if self.tchain_max_backlog == 0 {
            return Err("tchain_max_backlog must be positive".to_string());
        }
        if self.epoch_rounds == 0 {
            return Err("epoch_rounds must be positive".to_string());
        }
        if self.consensus_quorum == 0 {
            return Err("consensus_quorum must be positive".to_string());
        }
        if self.consensus_ban_threshold == 0 {
            return Err("consensus_ban_threshold must be positive".to_string());
        }
        if !(0.0..=1.0).contains(&self.consensus_decay) {
            return Err(format!(
                "consensus_decay must be in [0,1], got {}",
                self.consensus_decay
            ));
        }
        if self.consensus_temp_ban_rounds == 0 {
            return Err("consensus_temp_ban_rounds must be positive".to_string());
        }
        Ok(())
    }
}

/// The defense parameters a [`MechanismKind::ConsensusReputation`] peer
/// declares to the swarm. The swarm — not the mechanism — runs the
/// per-round quorum aggregation, strike accounting and ban eviction,
/// because reports span peers; declaring the policy here (like
/// [`SettleCadence`]) lets the round loop drive the consensus pass only
/// when the population actually uses it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConsensusPolicy {
    /// Matching counterpart reports that corroborate an uploader.
    pub quorum: usize,
    /// Strikes that trigger a ban (temporary first, then permanent).
    pub ban_threshold: u32,
    /// Per-round multiplicative decay of strikes and scores, in `[0, 1]`.
    pub decay: f64,
    /// Temporary ban length in rounds.
    pub temp_ban_rounds: u64,
}

impl ConsensusPolicy {
    /// The policy encoded in `params`.
    pub fn from_params(params: &MechanismParams) -> Self {
        ConsensusPolicy {
            quorum: params.consensus_quorum,
            ban_threshold: params.consensus_ban_threshold,
            decay: params.consensus_decay,
            temp_ban_rounds: params.consensus_temp_ban_rounds,
        }
    }
}

/// When a mechanism settles the contributions it observes.
///
/// Settlement is the act of converting observed transfers into the state
/// that steers future allocations (credits, deficits, reward balances).
/// The paper's six mechanisms all settle per-transfer: every received
/// byte updates their ledgers immediately, inside the transfer
/// accounting, and the round loop never has to do anything extra.
/// Production incentive systems instead accrue contributions and settle
/// them in batches at epoch boundaries; declaring that cadence here lets
/// the round loop drive the [`Mechanism::on_epoch_close`] hook (and mark
/// the peer dirty at boundaries) without the mechanism poking at round
/// numbers itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SettleCadence {
    /// Every transfer settles immediately through the shared ledgers —
    /// the paper's model, and the default. The round loop drives no
    /// epoch hook.
    PerTransfer,
    /// Contributions accrue and settle every `.0` rounds; the round loop
    /// calls [`Mechanism::on_epoch_close`] at each boundary and re-marks
    /// the peer dirty there (its allocation inputs changed without any
    /// transfer touching it).
    Epoch(u64),
}

/// An incentive mechanism: the per-round upload-allocation policy of one
/// peer (Section III-A of the paper).
///
/// Each round the simulator calls [`Mechanism::allocate`] with the peer's
/// remaining upload budget in bytes; the mechanism returns grants whose
/// total must not exceed the budget (the simulator clamps regardless).
pub trait Mechanism: std::fmt::Debug + Send + Sync {
    /// Which of the six algorithms this is.
    fn kind(&self) -> MechanismKind;

    /// Decides this round's upload grants.
    fn allocate(&mut self, view: &dyn SwarmView, budget: u64, rng: &mut dyn RngCore) -> Vec<Grant>;

    /// True when [`allocate`](Self::allocate) is a pure function of the
    /// view and budget: no internal counters or sticky targets mutated
    /// across calls, no RNG draws, no dependence on the round number. For
    /// such mechanisms an unproductive call repeats verbatim until one of
    /// its inputs (ledgers, deficits, reputations, interest, neighbor
    /// set, budget) changes, so the dirty-set round loop may drop the
    /// peer from the visit set after a grantless round and rely on the
    /// simulator's mark sites to resurrect it on any input change.
    ///
    /// The default is `false` — the conservative answer that keeps a peer
    /// visited every round while it has an interested neighbor. Only
    /// override to `true` when every call site of mutable state in
    /// `allocate` has been audited away.
    fn allocate_is_memoryless(&self) -> bool {
        false
    }

    /// Hook called at the end of every round (after transfers execute),
    /// for mechanisms that declare one ([`Self::has_round_end_hook`]).
    fn on_round_end(&mut self, _view: &dyn SwarmView) {}

    /// True when [`on_round_end`](Self::on_round_end) does anything. A
    /// mechanism that overrides the hook must override this to return
    /// `true`: the round loop skips the end-of-round hook pass when no
    /// mechanism in the run declares a hook. The default is `false`,
    /// matching the empty default hook.
    fn has_round_end_hook(&self) -> bool {
        false
    }

    /// The mechanism's settlement cadence. [`SettleCadence::PerTransfer`]
    /// (the default) means every ledger update settles in place and the
    /// round loop never calls [`Mechanism::on_epoch_close`].
    fn settle_cadence(&self) -> SettleCadence {
        SettleCadence::PerTransfer
    }

    /// Hook called by the round loop at each epoch boundary for
    /// mechanisms declaring [`SettleCadence::Epoch`], after
    /// [`Mechanism::on_round_end`] of the boundary round. Must not draw
    /// randomness and may only mutate this mechanism's own state —
    /// the hook runs inside the (possibly sharded) end-of-round pass,
    /// and determinism across `--shards`/`--jobs` depends on it.
    fn on_epoch_close(&mut self, _view: &dyn SwarmView) {}

    /// The consensus-reputation defense policy this mechanism wants the
    /// swarm to enforce, or `None` (the default) for no consensus layer.
    /// Like [`Mechanism::settle_cadence`], this is a declaration: the
    /// swarm runs the report aggregation, strike accounting and bans.
    fn consensus_policy(&self) -> Option<ConsensusPolicy> {
        None
    }

    /// Hook called when a conditional (encrypted) upload this peer made is
    /// resolved: `honored = true` when the receiver reciprocated (key
    /// released), `false` when the obligation expired unfulfilled.
    /// T-Chain's local-reputation component feeds on this signal.
    fn on_chain_outcome(&mut self, _receiver: PeerId, _honored: bool) {}

    /// Deep-clones this mechanism behind a fresh box, preserving all
    /// accumulated per-peer state (credit ledgers, local reputations,
    /// unchoke targets). Mid-run checkpointing needs this to snapshot a
    /// peer's allocation policy; every implementation is
    /// `Box::new(self.clone())`.
    fn clone_box(&self) -> Box<dyn Mechanism>;
}

impl Clone for Box<dyn Mechanism> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Builds a boxed mechanism of the given kind with the given parameters.
///
/// # Panics
///
/// Panics if `params.validate()` fails.
///
/// # Example
///
/// ```
/// use coop_incentives::{build_mechanism, MechanismKind, MechanismParams};
/// let m = build_mechanism(MechanismKind::TChain, MechanismParams::default());
/// assert_eq!(m.kind(), MechanismKind::TChain);
/// ```
pub fn build_mechanism(kind: MechanismKind, params: MechanismParams) -> Box<dyn Mechanism> {
    params
        .validate()
        .unwrap_or_else(|e| panic!("invalid mechanism parameters: {e}"));
    use crate::mechanisms::*;
    match kind {
        MechanismKind::Reciprocity => Box::new(Reciprocity::new()),
        MechanismKind::Altruism => Box::new(Altruism::new()),
        MechanismKind::Reputation => Box::new(Reputation::new(params)),
        MechanismKind::BitTorrent => Box::new(BitTorrent::new(params)),
        MechanismKind::FairTorrent => Box::new(FairTorrent::new()),
        MechanismKind::TChain => Box::new(TChain::new(params)),
        MechanismKind::EpochSettlement => Box::new(EpochSettlement::new(params)),
        MechanismKind::ConsensusReputation => Box::new(ConsensusReputation::new(params)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_match_paper() {
        let p = MechanismParams::default();
        assert_eq!(p.alpha_bt, 0.2);
        assert_eq!(p.n_bt, 4);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_fractions() {
        let bad_alpha = MechanismParams {
            alpha_bt: 1.5,
            ..MechanismParams::default()
        };
        assert!(bad_alpha.validate().is_err());
        let bad_r = MechanismParams {
            alpha_r: -0.1,
            ..MechanismParams::default()
        };
        assert!(bad_r.validate().is_err());
        let bad_n = MechanismParams {
            n_bt: 0,
            ..MechanismParams::default()
        };
        assert!(bad_n.validate().is_err());
    }

    #[test]
    fn build_covers_all_kinds() {
        for kind in MechanismKind::EXTENDED {
            let m = build_mechanism(kind, MechanismParams::default());
            assert_eq!(m.kind(), kind);
        }
    }

    #[test]
    fn paper_mechanisms_settle_per_transfer() {
        for kind in MechanismKind::ALL {
            let m = build_mechanism(kind, MechanismParams::default());
            assert_eq!(m.settle_cadence(), SettleCadence::PerTransfer, "{kind}");
        }
        let epoch = build_mechanism(MechanismKind::EpochSettlement, MechanismParams::default());
        assert_eq!(
            epoch.settle_cadence(),
            SettleCadence::Epoch(MechanismParams::default().epoch_rounds)
        );
    }

    #[test]
    fn consensus_policy_declared_only_by_consensus_reputation() {
        for kind in MechanismKind::EXTENDED {
            let m = build_mechanism(kind, MechanismParams::default());
            if kind == MechanismKind::ConsensusReputation {
                let policy = m.consensus_policy().expect("declares a policy");
                assert_eq!(
                    policy,
                    ConsensusPolicy::from_params(&MechanismParams::default())
                );
            } else {
                assert!(m.consensus_policy().is_none(), "{kind}");
            }
        }
    }

    #[test]
    fn validation_rejects_bad_consensus_params() {
        for bad in [
            MechanismParams {
                consensus_quorum: 0,
                ..MechanismParams::default()
            },
            MechanismParams {
                consensus_ban_threshold: 0,
                ..MechanismParams::default()
            },
            MechanismParams {
                consensus_decay: 1.5,
                ..MechanismParams::default()
            },
            MechanismParams {
                consensus_temp_ban_rounds: 0,
                ..MechanismParams::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn validation_rejects_zero_epoch() {
        let bad = MechanismParams {
            epoch_rounds: 0,
            ..MechanismParams::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid mechanism parameters")]
    fn build_panics_on_invalid_params() {
        let p = MechanismParams {
            alpha_bt: 2.0,
            ..MechanismParams::default()
        };
        build_mechanism(MechanismKind::BitTorrent, p);
    }

    #[test]
    fn grant_reason_index_round_trips() {
        for (i, &r) in GrantReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert!(!r.name().is_empty());
        }
    }

    #[test]
    fn grant_constructors() {
        let a = Grant::new(PeerId::new(1), 100, GrantReason::Altruism);
        assert!(a.condition.is_none());
        let c = Grant::conditional(
            PeerId::new(1),
            100,
            GrantReason::IndirectReciprocity,
            PeerId::new(2),
        );
        assert_eq!(c.condition.unwrap().reciprocate_to, PeerId::new(2));
    }
}
