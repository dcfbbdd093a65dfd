//! Simulation configuration and population construction.

use std::fmt;

use coop_des::rng::SeedTree;
use coop_des::{Duration, SimTime};
use coop_incentives::analysis::capacity::CapacityClassMix;
use coop_incentives::{build_mechanism, Mechanism, MechanismKind, MechanismParams};
use coop_piece::FileSpec;

use rand::Rng;

/// Which piece-selection strategy peers (and the seeder) use when starting
/// a transfer. The paper's analysis assumes local-rarest-first ("as
/// achieved in local-rarest-first piece selection", Section IV-A2); the
/// alternatives exist for the sensitivity ablation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PieceStrategy {
    /// Local-rarest-first (the default and the paper's assumption).
    #[default]
    RarestFirst,
    /// Uniform random among needed pieces.
    Random,
    /// Lowest-index first (streaming-style; worst for piece diversity).
    Sequential,
}

/// Builds a fresh [`Mechanism`] for one peer. Factories are invoked once at
/// the peer's arrival (and again after a whitewash rejoin).
pub type MechanismFactory = Box<dyn Fn() -> Box<dyn Mechanism> + Send>;

/// Substrate-level behavior flags for one peer, composing the paper's
/// attack scenarios (Section V-B2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerTags {
    /// Compliant peers follow their mechanism; non-compliant peers are the
    /// free-riders whose received bytes define susceptibility.
    pub compliant: bool,
    /// Large-view exploit: connect to every peer in the swarm instead of a
    /// bounded random neighbor set.
    pub large_view: bool,
    /// Collusion ring id. Ring members auto-confirm each other's T-Chain
    /// reciprocations (false receipt reports) and inject false praise into
    /// the reputation table for each other.
    pub collusion_ring: Option<u16>,
    /// Whitewashing: retire this identity and rejoin under a fresh one
    /// every `interval` rounds, escaping accumulated deficits.
    pub whitewash_interval: Option<u64>,
    /// Bytes per round of fictitious upload credit each ring member
    /// reports for this peer (reputation false praise).
    pub fake_praise_bytes: u64,
    /// Threshold-aware defector against the consensus-reputation layer:
    /// denies received-byte acknowledgements, but only within the strike
    /// budget that keeps it strictly below the observed ban threshold.
    pub underreport: bool,
    /// Sybil report stuffer: fabricates matched consensus report pairs
    /// with its collusion-ring mates and phantom claims against honest
    /// bystanders. Requires `collusion_ring` to take effect.
    pub stuff_reports: bool,
    /// Ban-evading whitewasher: rotates to a fresh identity once
    /// permanently banned, or one strike short of a permanent repeat
    /// crossing after a served temporary ban.
    pub ban_evade: bool,
}

impl Default for PeerTags {
    fn default() -> Self {
        PeerTags {
            compliant: true,
            large_view: false,
            collusion_ring: None,
            whitewash_interval: None,
            fake_praise_bytes: 0,
            underreport: false,
            stuff_reports: false,
            ban_evade: false,
        }
    }
}

impl PeerTags {
    /// Tags for an honest peer.
    pub fn compliant() -> Self {
        Self::default()
    }
}

/// The specification of one arriving peer.
pub struct PeerSpec {
    /// Upload capacity in bytes per second.
    pub capacity_bps: f64,
    /// Arrival time.
    pub arrival: SimTime,
    /// Builds the peer's allocation mechanism.
    pub mechanism: MechanismFactory,
    /// Behavior flags.
    pub tags: PeerTags,
}

impl fmt::Debug for PeerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PeerSpec")
            .field("capacity_bps", &self.capacity_bps)
            .field("arrival", &self.arrival)
            .field("tags", &self.tags)
            .finish_non_exhaustive()
    }
}

impl PeerSpec {
    /// A compliant peer running the standard implementation of `kind`.
    pub fn standard(
        capacity_bps: f64,
        arrival: SimTime,
        kind: MechanismKind,
        params: MechanismParams,
    ) -> Self {
        PeerSpec {
            capacity_bps,
            arrival,
            mechanism: Box::new(move || build_mechanism(kind, params)),
            tags: PeerTags::compliant(),
        }
    }
}

/// Full simulator configuration (Section V-A's setup, parameterized).
#[derive(Clone, Debug, PartialEq)]
pub struct SwarmConfig {
    /// The file being distributed.
    pub file: FileSpec,
    /// Timeslot length.
    pub round: Duration,
    /// Root random seed; identical seeds yield identical runs.
    pub seed: u64,
    /// Seeder upload capacity in bytes per second.
    pub seeder_bps: f64,
    /// Target neighbor-set size for compliant peers.
    pub neighbor_degree: usize,
    /// Shared mechanism parameters (`α_BT`, `n_BT`, `α_R`, T-Chain TTL).
    pub mechanism_params: MechanismParams,
    /// Hard stop after this many rounds.
    pub max_rounds: u64,
    /// Metric sampling period in rounds.
    pub sample_every: u64,
    /// Abort a transfer after this many rounds without progress (the
    /// receiver re-requests the piece elsewhere, like a real client's
    /// request timeout).
    pub stall_timeout_rounds: u64,
    /// Piece-selection strategy (rarest-first unless overridden for the
    /// sensitivity ablation).
    pub piece_strategy: PieceStrategy,
    /// Use EigenTrust-weighted reputation scores instead of raw claimed
    /// upload totals (the false-praise defense of the paper's footnote 6).
    pub trusted_reputation: bool,
    /// Number of initially-arrived peers treated as EigenTrust's
    /// pre-trusted set when `trusted_reputation` is on (the operator's own
    /// seed nodes).
    pub pretrusted_count: usize,
}

impl SwarmConfig {
    /// The scaled default used by tests and quick experiment runs:
    /// 8 MiB file in 64 KiB pieces, 1-second rounds.
    pub fn scaled_default() -> Self {
        SwarmConfig {
            file: FileSpec::new(8 * 1024 * 1024, 64 * 1024),
            round: Duration::from_secs(1),
            seed: 42,
            seeder_bps: 256_000.0,
            neighbor_degree: 30,
            mechanism_params: MechanismParams::default(),
            max_rounds: 1200,
            sample_every: 5,
            stall_timeout_rounds: 8,
            piece_strategy: PieceStrategy::default(),
            trusted_reputation: false,
            pretrusted_count: 5,
        }
    }

    /// The paper-scale setup: 128 MB file in 256 KiB pieces, 1000-user
    /// flash crowd (population built separately), 1-second rounds.
    pub fn paper_scale() -> Self {
        SwarmConfig {
            file: FileSpec::new(128 * 1024 * 1024, 256 * 1024),
            round: Duration::from_secs(1),
            seed: 42,
            seeder_bps: 1_024_000.0,
            neighbor_degree: 50,
            mechanism_params: MechanismParams::default(),
            max_rounds: 12_000,
            sample_every: 10,
            stall_timeout_rounds: 8,
            piece_strategy: PieceStrategy::default(),
            trusted_reputation: false,
            pretrusted_count: 5,
        }
    }

    /// A miniature configuration for unit tests and doc examples:
    /// 32 pieces of 4 KiB, fast rounds, generous seeder.
    pub fn tiny_test() -> Self {
        SwarmConfig {
            file: FileSpec::new(128 * 1024, 4 * 1024),
            round: Duration::from_secs(1),
            seed: 1,
            seeder_bps: 16_000.0,
            neighbor_degree: 8,
            mechanism_params: MechanismParams::default(),
            max_rounds: 600,
            sample_every: 2,
            stall_timeout_rounds: 8,
            piece_strategy: PieceStrategy::default(),
            trusted_reputation: false,
            pretrusted_count: 5,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.seeder_bps < 0.0 || !self.seeder_bps.is_finite() {
            return Err(ConfigError::new(
                "seeder_bps must be finite and nonnegative",
            ));
        }
        if self.neighbor_degree == 0 {
            return Err(ConfigError::new("neighbor_degree must be positive"));
        }
        if self.max_rounds == 0 {
            return Err(ConfigError::new("max_rounds must be positive"));
        }
        if self.sample_every == 0 {
            return Err(ConfigError::new("sample_every must be positive"));
        }
        if self.stall_timeout_rounds == 0 {
            return Err(ConfigError::new("stall_timeout_rounds must be positive"));
        }
        self.mechanism_params
            .validate()
            .map_err(|e| ConfigError::new(format!("mechanism params: {e}")))?;
        Ok(())
    }

    /// Bytes of upload budget per round for a peer of the given capacity.
    pub fn bytes_per_round(&self, capacity_bps: f64) -> u64 {
        (capacity_bps * self.round.as_secs_f64()).round() as u64
    }
}

/// An invalid [`SwarmConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid swarm config: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Builds the paper's flash-crowd population: `n` compliant peers running
/// `kind`, arriving uniformly within the first 10 seconds, with capacities
/// drawn from the default class mix.
pub fn flash_crowd(
    config: &SwarmConfig,
    n: usize,
    kind: MechanismKind,
    seed: u64,
) -> Vec<PeerSpec> {
    flash_crowd_with(
        config,
        n,
        kind,
        seed,
        &CapacityClassMix::paper_default(),
        Duration::from_secs(10),
    )
}

/// Builds a population whose arrivals follow a Poisson process with the
/// given mean inter-arrival time — the gentler alternative to the paper's
/// flash crowd ("while flash crowds are an extreme scenario…",
/// Section IV-B footnote). Capacities come from `mix`; all peers run
/// `kind` compliantly.
pub fn staggered_arrivals(
    config: &SwarmConfig,
    n: usize,
    kind: MechanismKind,
    seed: u64,
    mix: &CapacityClassMix,
    mean_interarrival: Duration,
) -> Vec<PeerSpec> {
    let tree = SeedTree::new(seed);
    let mut rng = tree.rng(0x90155);
    let lambda_ms = mean_interarrival.as_millis().max(1) as f64;
    let mut t_ms = 0.0f64;
    (0..n)
        .map(|_| {
            t_ms += coop_des::rng::exponential(&mut rng, lambda_ms);
            let capacity = mix.sample_one(&mut rng);
            PeerSpec::standard(
                capacity,
                SimTime::from_millis(t_ms as u64),
                kind,
                config.mechanism_params,
            )
        })
        .collect()
}

/// [`flash_crowd`] with an explicit capacity mix and arrival window.
pub fn flash_crowd_with(
    config: &SwarmConfig,
    n: usize,
    kind: MechanismKind,
    seed: u64,
    mix: &CapacityClassMix,
    window: Duration,
) -> Vec<PeerSpec> {
    let tree = SeedTree::new(seed);
    let mut rng = tree.rng(0xF1A5);
    (0..n)
        .map(|_| {
            let capacity = mix.sample_one(&mut rng);
            let at = SimTime::from_millis(rng.gen_range(0..window.as_millis().max(1)));
            PeerSpec::standard(capacity, at, kind, config.mechanism_params)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configs_validate() {
        SwarmConfig::scaled_default().validate().unwrap();
        SwarmConfig::paper_scale().validate().unwrap();
        SwarmConfig::tiny_test().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut c = SwarmConfig::tiny_test();
        c.neighbor_degree = 0;
        assert!(c.validate().is_err());
        c = SwarmConfig::tiny_test();
        c.seeder_bps = f64::NAN;
        assert!(c.validate().is_err());
        c = SwarmConfig::tiny_test();
        c.mechanism_params.alpha_bt = 7.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn bytes_per_round_scales_with_round_length() {
        let mut c = SwarmConfig::tiny_test();
        c.round = Duration::from_secs(2);
        assert_eq!(c.bytes_per_round(1000.0), 2000);
        c.round = Duration::from_millis(500);
        assert_eq!(c.bytes_per_round(1000.0), 500);
    }

    #[test]
    fn flash_crowd_arrivals_within_window() {
        let c = SwarmConfig::tiny_test();
        let pop = flash_crowd(&c, 50, MechanismKind::Altruism, 3);
        assert_eq!(pop.len(), 50);
        for spec in &pop {
            assert!(spec.arrival < SimTime::from_secs(10));
            assert!(spec.capacity_bps > 0.0);
            assert!(spec.tags.compliant);
        }
    }

    #[test]
    fn flash_crowd_is_deterministic_in_seed() {
        let c = SwarmConfig::tiny_test();
        let a = flash_crowd(&c, 20, MechanismKind::TChain, 9);
        let b = flash_crowd(&c, 20, MechanismKind::TChain, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.capacity_bps, y.capacity_bps);
            assert_eq!(x.arrival, y.arrival);
        }
    }

    #[test]
    fn staggered_arrivals_are_increasing_and_poisson_ish() {
        let c = SwarmConfig::tiny_test();
        let mix = CapacityClassMix::paper_default();
        let pop = staggered_arrivals(
            &c,
            200,
            MechanismKind::TChain,
            5,
            &mix,
            Duration::from_secs(2),
        );
        assert_eq!(pop.len(), 200);
        for w in pop.windows(2) {
            assert!(w[1].arrival >= w[0].arrival, "arrivals nondecreasing");
        }
        // Mean inter-arrival ≈ 2 s (±40% at n = 200).
        let total = pop.last().unwrap().arrival.as_secs_f64();
        let mean = total / 200.0;
        assert!((1.2..=2.8).contains(&mean), "mean inter-arrival {mean}");
    }

    #[test]
    fn staggered_arrivals_deterministic() {
        let c = SwarmConfig::tiny_test();
        let mix = CapacityClassMix::paper_default();
        let a = staggered_arrivals(
            &c,
            20,
            MechanismKind::Altruism,
            9,
            &mix,
            Duration::from_secs(1),
        );
        let b = staggered_arrivals(
            &c,
            20,
            MechanismKind::Altruism,
            9,
            &mix,
            Duration::from_secs(1),
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.capacity_bps, y.capacity_bps);
        }
    }

    #[test]
    fn peer_spec_debug_is_nonempty() {
        let c = SwarmConfig::tiny_test();
        let pop = flash_crowd(&c, 1, MechanismKind::BitTorrent, 1);
        assert!(!format!("{:?}", pop[0]).is_empty());
    }
}
