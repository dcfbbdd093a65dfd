//! Attack scenario composition.

use coop_incentives::MechanismKind;
use coop_swarm::{PeerSpec, PeerTags};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::FreeRider;

/// The collusion ring id used for all colluding free-riders in a scenario.
const RING: u16 = 0;

/// Default whitewash interval in rounds (FairTorrent attack): long enough
/// to first exhaust the zero-deficit goodwill of the neighbors, short
/// enough to escape accumulated deficits repeatedly.
const WHITEWASH_INTERVAL: u64 = 10;

/// Default fictitious upload credit per colluder pair per round for the
/// reputation false-praise attack (bytes).
const FAKE_PRAISE_BYTES: u64 = 262_144;

/// A free-riding attack scenario: which fraction of the population
/// free-rides and with which capabilities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttackPlan {
    /// Fraction of peers converted to free-riders (the paper uses 20%),
    /// expressed in percent to keep the type `Eq`/hashable.
    pub freerider_percent: u8,
    /// T-Chain collusion: free-riders falsely confirm each other's
    /// reciprocations.
    pub collusion: bool,
    /// FairTorrent whitewashing: rejoin under fresh identities every this
    /// many rounds.
    pub whitewash_interval: Option<u64>,
    /// Reputation false praise: fictitious upload credit per colluder pair
    /// per round.
    pub fake_praise_bytes: u64,
    /// Large-view exploit: free-riders connect to the entire swarm.
    pub large_view: bool,
    /// Adaptive consensus defection: deny counterpart transfer reports,
    /// but only while the attacker's strike level stays below the ban
    /// threshold (threshold-aware free-riding).
    pub underreport: bool,
    /// Sybil report stuffing: ring members fabricate matched transfer
    /// reports toward quorum and file phantom claims against honest
    /// bystanders.
    pub stuff_reports: bool,
    /// Ban evasion: rotate to a fresh identity just before a strike
    /// level would trigger a permanent ban.
    pub ban_evade: bool,
}

/// One adaptive consensus-attack role, used to split a mixed plan's
/// free-riders round-robin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AdaptiveRole {
    Underreport,
    StuffReports,
    BanEvade,
}

impl AttackPlan {
    /// A plan with the given free-rider fraction and no extra capabilities
    /// (simple free-riding).
    pub fn simple(fraction: f64) -> Self {
        AttackPlan {
            freerider_percent: (fraction * 100.0).round() as u8,
            collusion: false,
            whitewash_interval: None,
            fake_praise_bytes: 0,
            large_view: false,
            underreport: false,
            stuff_reports: false,
            ban_evade: false,
        }
    }

    /// The paper's Fig. 5 setup: "free-riders use the most effective attack
    /// for each algorithm, i.e., simple, non-collusive free-riding for most
    /// algorithms, with additional collusion for T-Chain and whitewashing
    /// for FairTorrent".
    pub fn most_effective(kind: MechanismKind, fraction: f64) -> Self {
        let mut plan = AttackPlan::simple(fraction);
        match kind {
            MechanismKind::TChain => plan.collusion = true,
            MechanismKind::FairTorrent => plan.whitewash_interval = Some(WHITEWASH_INTERVAL),
            MechanismKind::ConsensusReputation => plan = AttackPlan::adaptive_mix(fraction),
            _ => {}
        }
        plan
    }

    /// Threshold-aware adaptive defectors (the consensus-reputation
    /// counterpart of simple free-riding): deny counterpart reports but
    /// keep the strike level just below the ban threshold.
    pub fn adaptive_defectors(fraction: f64) -> Self {
        let mut plan = AttackPlan::simple(fraction);
        plan.underreport = true;
        plan
    }

    /// A Sybil report-stuffing ring: colluding free-riders coordinate
    /// fabricated transfer reports toward quorum.
    pub fn sybil_ring(fraction: f64) -> Self {
        let mut plan = AttackPlan::simple(fraction);
        plan.collusion = true;
        plan.stuff_reports = true;
        plan
    }

    /// A ban-evading whitewash ring: free-riders rotate to fresh
    /// identities just before a ban would become permanent.
    pub fn ban_evading_ring(fraction: f64) -> Self {
        let mut plan = AttackPlan::simple(fraction);
        plan.ban_evade = true;
        plan
    }

    /// The combined adaptive attack: converted peers split round-robin
    /// across the three roles (defector, stuffer, evader), all sharing
    /// one collusion ring.
    pub fn adaptive_mix(fraction: f64) -> Self {
        let mut plan = AttackPlan::simple(fraction);
        plan.collusion = true;
        plan.underreport = true;
        plan.stuff_reports = true;
        plan.ban_evade = true;
        plan
    }

    /// The Fig. 6 setup: the Fig. 5 attack plus the large-view exploit.
    pub fn with_large_view(kind: MechanismKind, fraction: f64) -> Self {
        let mut plan = AttackPlan::most_effective(kind, fraction);
        plan.large_view = true;
        plan
    }

    /// An ablation beyond the paper's Fig. 5: reputation false praise (the
    /// collusion Table III rates as probability 1).
    pub fn false_praise(fraction: f64) -> Self {
        let mut plan = AttackPlan::simple(fraction);
        plan.collusion = true;
        plan.fake_praise_bytes = FAKE_PRAISE_BYTES;
        plan
    }

    /// The free-rider fraction as a float.
    pub fn fraction(&self) -> f64 {
        self.freerider_percent as f64 / 100.0
    }

    /// The tags free-riders under this plan carry.
    fn tags(&self) -> PeerTags {
        PeerTags {
            compliant: false,
            large_view: self.large_view,
            collusion_ring: if self.collusion { Some(RING) } else { None },
            whitewash_interval: self.whitewash_interval,
            fake_praise_bytes: self.fake_praise_bytes,
            underreport: self.underreport,
            stuff_reports: self.stuff_reports,
            ban_evade: self.ban_evade,
        }
    }

    /// The adaptive roles this plan enables, in declaration order.
    fn adaptive_roles(&self) -> Vec<AdaptiveRole> {
        let mut roles = Vec::new();
        if self.underreport {
            roles.push(AdaptiveRole::Underreport);
        }
        if self.stuff_reports {
            roles.push(AdaptiveRole::StuffReports);
        }
        if self.ban_evade {
            roles.push(AdaptiveRole::BanEvade);
        }
        roles
    }
}

/// Converts a uniformly random `fraction` of `population` into free-riders
/// with the plan's capabilities. Selection is deterministic in `seed`.
/// Returns the number of peers converted.
pub fn apply_attack(population: &mut [PeerSpec], plan: &AttackPlan, seed: u64) -> usize {
    let n = population.len();
    let count = (n as f64 * plan.fraction()).round() as usize;
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA77AC4);
    coop_des::rng::shuffle_prefix(&mut order, &mut rng, count);
    let roles = plan.adaptive_roles();
    for (j, &i) in order.iter().take(count).enumerate() {
        let spec = &mut population[i];
        let mimic = MechanismKind::ALL[i % MechanismKind::ALL.len()];
        // The mimicked kind is cosmetic; reuse the population's kind where
        // derivable is unnecessary since free-riders never allocate.
        spec.mechanism = Box::new(move || Box::new(FreeRider::new(mimic)));
        let mut tags = plan.tags();
        if roles.len() > 1 {
            // Mixed plans split the attackers round-robin: each converted
            // peer plays exactly one adaptive role, in conversion order
            // (deterministic in seed).
            tags.underreport = false;
            tags.stuff_reports = false;
            tags.ban_evade = false;
            match roles[j % roles.len()] {
                AdaptiveRole::Underreport => tags.underreport = true,
                AdaptiveRole::StuffReports => tags.stuff_reports = true,
                AdaptiveRole::BanEvade => tags.ban_evade = true,
            }
        }
        // Report stuffers fabricate toward ring mates; ring membership is
        // what makes them Sybils rather than loners.
        if tags.stuff_reports && tags.collusion_ring.is_none() {
            tags.collusion_ring = Some(RING);
        }
        spec.tags = tags;
    }
    count
}

/// Plugs attack plans into `Simulation::builder(..).attack_plan(..)`.
impl coop_swarm::PopulationPatch for AttackPlan {
    fn apply_patch(&self, population: &mut [PeerSpec], seed: u64) -> usize {
        apply_attack(population, self, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coop_swarm::{flash_crowd, SwarmConfig};

    fn population(n: usize, kind: MechanismKind) -> Vec<PeerSpec> {
        flash_crowd(&SwarmConfig::tiny_test(), n, kind, 5)
    }

    #[test]
    fn converts_requested_fraction() {
        let mut pop = population(50, MechanismKind::Altruism);
        let plan = AttackPlan::simple(0.2);
        let converted = apply_attack(&mut pop, &plan, 1);
        assert_eq!(converted, 10);
        assert_eq!(pop.iter().filter(|p| !p.tags.compliant).count(), 10);
    }

    #[test]
    fn most_effective_matches_paper() {
        let tc = AttackPlan::most_effective(MechanismKind::TChain, 0.2);
        assert!(tc.collusion);
        assert!(tc.whitewash_interval.is_none());
        let ft = AttackPlan::most_effective(MechanismKind::FairTorrent, 0.2);
        assert!(!ft.collusion);
        assert!(ft.whitewash_interval.is_some());
        for kind in [
            MechanismKind::Altruism,
            MechanismKind::BitTorrent,
            MechanismKind::Reputation,
            MechanismKind::Reciprocity,
        ] {
            let plan = AttackPlan::most_effective(kind, 0.2);
            assert_eq!(plan, AttackPlan::simple(0.2), "{kind}");
        }
    }

    #[test]
    fn large_view_adds_to_base_plan() {
        let plan = AttackPlan::with_large_view(MechanismKind::TChain, 0.2);
        assert!(plan.collusion);
        assert!(plan.large_view);
    }

    #[test]
    fn colluders_share_a_ring() {
        let mut pop = population(20, MechanismKind::TChain);
        apply_attack(
            &mut pop,
            &AttackPlan::most_effective(MechanismKind::TChain, 0.25),
            2,
        );
        let rings: Vec<Option<u16>> = pop
            .iter()
            .filter(|p| !p.tags.compliant)
            .map(|p| p.tags.collusion_ring)
            .collect();
        assert_eq!(rings.len(), 5);
        assert!(rings.iter().all(|r| *r == Some(RING)));
    }

    #[test]
    fn selection_is_deterministic_in_seed() {
        let pick = |seed| {
            let mut pop = population(30, MechanismKind::BitTorrent);
            apply_attack(&mut pop, &AttackPlan::simple(0.3), seed);
            pop.iter()
                .enumerate()
                .filter(|(_, p)| !p.tags.compliant)
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(9), pick(9));
        assert_ne!(pick(9), pick(10));
    }

    #[test]
    fn zero_fraction_changes_nothing() {
        let mut pop = population(10, MechanismKind::Reputation);
        let converted = apply_attack(&mut pop, &AttackPlan::simple(0.0), 3);
        assert_eq!(converted, 0);
        assert!(pop.iter().all(|p| p.tags.compliant));
    }
}
