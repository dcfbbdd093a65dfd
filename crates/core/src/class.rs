//! The classification of incentive mechanisms (Fig. 1 of the paper).

use std::fmt;

/// The three fundamental classes of exchange algorithm (Section III-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MechanismClass {
    /// Users reciprocate whenever they receive data, uploading exactly as
    /// much as they download.
    Reciprocity,
    /// Users upload to randomly selected users with no attempt at
    /// reciprocity.
    Altruism,
    /// Users upload preferentially to peers with the highest (global)
    /// reputations, built from past behavior.
    Reputation,
}

impl fmt::Display for MechanismClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MechanismClass::Reciprocity => "reciprocity",
            MechanismClass::Altruism => "altruism",
            MechanismClass::Reputation => "reputation",
        })
    }
}

/// The six algorithms compared by the paper: the three basic classes and
/// the three pairwise hybrids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MechanismKind {
    /// Pure direct reciprocity: upload only to reciprocate received data.
    /// In equilibrium no exchange can even be initiated (Lemma 2).
    Reciprocity,
    /// Pure altruism: upload full capacity to random interested users.
    Altruism,
    /// Pure (global, probabilistic) reputation à la EigenTrust, with a
    /// small altruistic fraction `α_R` for bootstrapping.
    Reputation,
    /// The reciprocity/altruism hybrid: tit-for-tat toward the top `n_BT`
    /// contributors plus an `α_BT` fraction of optimistic unchoking.
    BitTorrent,
    /// The reputation/altruism hybrid: upload to the interested peer with
    /// the lowest piece deficit, falling back to zero-deficit users.
    FairTorrent,
    /// The reciprocity/reputation hybrid: every upload must be reciprocated
    /// directly or *indirectly* (forwarding to a third peer), enforced by
    /// encrypting pieces until reciprocation is confirmed.
    TChain,
    /// Beyond the paper: epoch-settled reward distribution. Contributions
    /// accrue during an epoch and are paid out proportionally at epoch
    /// close via O(1) scalable-reward-distribution accounting. The epoch
    /// length interpolates between FairTorrent-like fairness (epoch → 0)
    /// and altruism-like exploitability (epoch → ∞).
    EpochSettlement,
    /// Beyond the paper: quorum-consensus reputation with bans. Peers
    /// submit per-round transfer reports; a deterministic quorum
    /// aggregation cross-checks claims against counterpart acknowledgments,
    /// non-consensus submitters accrue decaying strikes, and strike
    /// thresholds trigger temporary then permanent bans. Replaces the
    /// trusted pre-seeded EigenTrust root with consensus across reporters.
    ConsensusReputation,
}

impl MechanismKind {
    /// All six mechanisms, in the paper's table order
    /// (reciprocity, T-Chain, BitTorrent, FairTorrent, reputation, altruism).
    pub const ALL: [MechanismKind; 6] = [
        MechanismKind::Reciprocity,
        MechanismKind::TChain,
        MechanismKind::BitTorrent,
        MechanismKind::FairTorrent,
        MechanismKind::Reputation,
        MechanismKind::Altruism,
    ];

    /// The paper's six mechanisms plus the extensions, in grid order.
    /// [`MechanismKind::ALL`] stays the paper grid (golden fingerprints
    /// and scenario specs key off it); figure runners that include the
    /// extensions iterate this instead.
    pub const EXTENDED: [MechanismKind; 8] = [
        MechanismKind::Reciprocity,
        MechanismKind::TChain,
        MechanismKind::BitTorrent,
        MechanismKind::FairTorrent,
        MechanismKind::Reputation,
        MechanismKind::Altruism,
        MechanismKind::EpochSettlement,
        MechanismKind::ConsensusReputation,
    ];

    /// Short human-readable name (as used in the paper's tables).
    pub fn name(self) -> &'static str {
        match self {
            MechanismKind::Reciprocity => "Reciprocity",
            MechanismKind::Altruism => "Altruism",
            MechanismKind::Reputation => "Reputation",
            MechanismKind::BitTorrent => "BitTorrent",
            MechanismKind::FairTorrent => "FairTorrent",
            MechanismKind::TChain => "T-Chain",
            MechanismKind::EpochSettlement => "EpochSettlement",
            MechanismKind::ConsensusReputation => "ConsensusReputation",
        }
    }

    /// The basic classes this algorithm combines (Fig. 1).
    pub fn classes(self) -> &'static [MechanismClass] {
        use MechanismClass::*;
        match self {
            MechanismKind::Reciprocity => &[Reciprocity],
            MechanismKind::Altruism => &[Altruism],
            MechanismKind::Reputation => &[Reputation],
            MechanismKind::BitTorrent => &[Reciprocity, Altruism],
            MechanismKind::FairTorrent => &[Reputation, Altruism],
            MechanismKind::TChain => &[Reciprocity, Reputation],
            // Accrued-contribution payouts are a reputation signal; the
            // open-epoch window (and bootstrap fallback) serves altruistically.
            MechanismKind::EpochSettlement => &[Reputation, Altruism],
            // Consensus scores are a reputation signal; the α_R bootstrap
            // share serves altruistically, exactly like `Reputation`.
            MechanismKind::ConsensusReputation => &[Reputation, Altruism],
        }
    }

    /// Returns true if the algorithm combines two basic classes.
    pub fn is_hybrid(self) -> bool {
        self.classes().len() > 1
    }

    /// The qualitative performance expectations of Fig. 1 / Section III-B.
    pub fn expected(self) -> ExpectedPerformance {
        use Rating::*;
        match self {
            MechanismKind::Reciprocity => ExpectedPerformance {
                fairness: High,
                efficiency: Low,
                bootstrapping: Low,
                freeride_resistance: High,
            },
            MechanismKind::Altruism => ExpectedPerformance {
                fairness: Low,
                efficiency: High,
                bootstrapping: High,
                freeride_resistance: Low,
            },
            MechanismKind::Reputation => ExpectedPerformance {
                fairness: Medium,
                efficiency: Medium,
                bootstrapping: Low,
                freeride_resistance: Low, // collusion inflates reputations
            },
            MechanismKind::BitTorrent => ExpectedPerformance {
                fairness: Medium,
                efficiency: Medium,
                bootstrapping: Medium,
                freeride_resistance: Medium,
            },
            MechanismKind::FairTorrent => ExpectedPerformance {
                fairness: High,
                efficiency: Medium,
                bootstrapping: High,
                freeride_resistance: Medium,
            },
            MechanismKind::TChain => ExpectedPerformance {
                fairness: High,
                efficiency: High,
                bootstrapping: High,
                freeride_resistance: High,
            },
            // Between FairTorrent and Altruism, by construction: fairness
            // and susceptibility depend on the epoch length.
            MechanismKind::EpochSettlement => ExpectedPerformance {
                fairness: Medium,
                efficiency: High,
                bootstrapping: High,
                freeride_resistance: Low, // an open epoch is exploitable
            },
            // Reputation's profile, but bans convert reputation from a
            // preference into an exclusion — free-ride resistance hinges
            // on the defense parameters, not on goodwill.
            MechanismKind::ConsensusReputation => ExpectedPerformance {
                fairness: Medium,
                efficiency: Medium,
                bootstrapping: Low,
                freeride_resistance: High,
            },
        }
    }
}

impl fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A coarse qualitative level used by the Fig. 1 expectations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rating {
    /// Poor on this metric.
    Low,
    /// Intermediate.
    Medium,
    /// Strong on this metric.
    High,
}

impl fmt::Display for Rating {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rating::Low => "low",
            Rating::Medium => "medium",
            Rating::High => "high",
        })
    }
}

/// Qualitative expected performance on the paper's four metrics (Fig. 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExpectedPerformance {
    /// How close `d_i/u_i` stays to 1 for every user.
    pub fairness: Rating,
    /// How quickly downloads complete on average.
    pub efficiency: Rating,
    /// How quickly newcomers obtain their first piece.
    pub bootstrapping: Rating,
    /// Resistance to free-riding (higher = fewer exploitable resources).
    pub freeride_resistance: Rating,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_each_kind_once() {
        let mut kinds = MechanismKind::ALL.to_vec();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), 6);
    }

    #[test]
    fn extended_is_all_plus_extensions() {
        assert_eq!(&MechanismKind::EXTENDED[..6], &MechanismKind::ALL[..]);
        assert_eq!(MechanismKind::EXTENDED[6], MechanismKind::EpochSettlement);
        assert_eq!(
            MechanismKind::EXTENDED[7],
            MechanismKind::ConsensusReputation
        );
        let mut kinds = MechanismKind::EXTENDED.to_vec();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), 8);
        assert_eq!(MechanismKind::EpochSettlement.name(), "EpochSettlement");
        assert!(MechanismKind::EpochSettlement.is_hybrid());
        assert_eq!(
            MechanismKind::ConsensusReputation.name(),
            "ConsensusReputation"
        );
        assert!(MechanismKind::ConsensusReputation.is_hybrid());
    }

    #[test]
    fn hybrids_have_two_classes_basics_one() {
        for k in MechanismKind::EXTENDED {
            let n = k.classes().len();
            assert_eq!(k.is_hybrid(), n == 2, "{k}");
            assert!(n == 1 || n == 2);
        }
    }

    #[test]
    fn hybrid_composition_matches_paper() {
        use MechanismClass::*;
        assert_eq!(
            MechanismKind::BitTorrent.classes(),
            &[Reciprocity, Altruism]
        );
        assert_eq!(
            MechanismKind::FairTorrent.classes(),
            &[Reputation, Altruism]
        );
        assert_eq!(MechanismKind::TChain.classes(), &[Reciprocity, Reputation]);
    }

    #[test]
    fn fig1_extremes() {
        // Altruism: most efficient, least fair; reciprocity: the reverse.
        let alt = MechanismKind::Altruism.expected();
        let rec = MechanismKind::Reciprocity.expected();
        assert!(alt.efficiency > rec.efficiency);
        assert!(rec.fairness > alt.fairness);
        assert!(rec.freeride_resistance > alt.freeride_resistance);
        // T-Chain is strong on all four axes (the paper's headline).
        let tc = MechanismKind::TChain.expected();
        assert_eq!(tc.fairness, Rating::High);
        assert_eq!(tc.efficiency, Rating::High);
        assert_eq!(tc.bootstrapping, Rating::High);
        assert_eq!(tc.freeride_resistance, Rating::High);
    }

    #[test]
    fn names_are_unique_and_displayed() {
        let names: Vec<&str> = MechanismKind::ALL.iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(MechanismKind::TChain.to_string(), "T-Chain");
        assert_eq!(MechanismClass::Altruism.to_string(), "altruism");
    }
}
