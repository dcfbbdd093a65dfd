//! Eagerly-validated construction of [`Simulation`]s.
//!
//! [`Simulation::builder`] is the only way to construct a simulation: the
//! builder validates the configuration *and* every peer spec before any
//! simulator state is allocated, and returns typed [`BuildError`]s instead
//! of panicking mid-run on a bad spec.
//!
//! Attack wiring stays decoupled: the builder's
//! [`attack_plan`](SimulationBuilder::attack_plan) hook accepts any
//! [`PopulationPatch`], which `coop-attacks` implements for its
//! `AttackPlan` — so this crate never depends on the attack catalogue.

use coop_telemetry::{Profiler, Recorder};

use crate::config::{ConfigError, PeerSpec, SwarmConfig};
use crate::faults::{FaultPatch, FaultSchedule};
use crate::sim::Simulation;

/// A transformation applied to the population before the simulation is
/// assembled. `coop_attacks::AttackPlan` implements this so attack
/// scenarios plug into [`SimulationBuilder::attack_plan`] without a
/// dependency cycle between the crates.
pub trait PopulationPatch {
    /// Mutates `population` in place, seeded deterministically; returns
    /// the number of specs modified.
    fn apply_patch(&self, population: &mut [PeerSpec], seed: u64) -> usize;
}

/// Closures can serve as ad-hoc patches (tests use this).
impl<F: Fn(&mut [PeerSpec], u64) -> usize> PopulationPatch for F {
    fn apply_patch(&self, population: &mut [PeerSpec], seed: u64) -> usize {
        self(population, seed)
    }
}

/// Why a [`SimulationBuilder`] refused to build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The [`SwarmConfig`] failed [`SwarmConfig::validate`].
    Config(ConfigError),
    /// No peers were supplied — a swarm needs at least one arrival.
    EmptyPopulation,
    /// One peer spec is unusable.
    InvalidPeer {
        /// Index into the population vector.
        index: usize,
        /// What is wrong with the spec.
        reason: String,
    },
    /// The compiled fault schedule violates a structural invariant (see
    /// [`FaultSchedule::validate`]).
    InvalidFaults {
        /// The first violation found.
        reason: String,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Config(e) => write!(f, "{e}"),
            BuildError::EmptyPopulation => write!(f, "population must not be empty"),
            BuildError::InvalidPeer { index, reason } => {
                write!(f, "invalid peer spec at index {index}: {reason}")
            }
            BuildError::InvalidFaults { reason } => {
                write!(f, "invalid fault schedule: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

/// Staged inputs for one [`Simulation`], validated on
/// [`build`](SimulationBuilder::build).
///
/// # Example
///
/// ```
/// use coop_swarm::{flash_crowd, Simulation, SwarmConfig};
/// use coop_incentives::MechanismKind;
///
/// let config = SwarmConfig::tiny_test();
/// let population = flash_crowd(&config, 8, MechanismKind::TChain, 7);
/// let result = Simulation::builder(config)
///     .population(population)
///     .build()
///     .expect("valid config and population")
///     .run();
/// assert!(result.rounds_run > 0);
/// ```
#[must_use = "call .build() to obtain the simulation"]
pub struct SimulationBuilder {
    config: SwarmConfig,
    population: Vec<PeerSpec>,
    patches: Vec<Box<dyn PopulationPatch>>,
    fault_patch: Option<Box<dyn FaultPatch>>,
    fault_schedule: Option<FaultSchedule>,
    recorder: Recorder,
    profiler: Profiler,
    naive_hotpath: bool,
    shards: usize,
    checkpoint_every: Option<u64>,
}

impl std::fmt::Debug for SimulationBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("config", &self.config)
            .field("population", &self.population.len())
            .field("patches", &self.patches.len())
            .field("faults", &self.fault_patch.is_some())
            .finish()
    }
}

impl SimulationBuilder {
    pub(crate) fn new(config: SwarmConfig) -> Self {
        SimulationBuilder {
            config,
            population: Vec::new(),
            patches: Vec::new(),
            fault_patch: None,
            fault_schedule: None,
            recorder: Recorder::disabled(),
            profiler: Profiler::disabled(),
            naive_hotpath: false,
            shards: 1,
            checkpoint_every: None,
        }
    }

    /// Shards one simulation's round across `k` scoped worker threads
    /// (`1` — the default — runs everything on the caller's thread).
    /// Sharding is purely a wall-clock lever: results and artifacts are
    /// byte-identical for any `k` (pinned by the sharded rows of the
    /// byte-identity batteries). Values are clamped to at least 1.
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = k.max(1);
        self
    }

    /// Captures a [`SimCheckpoint`](crate::SimCheckpoint) after every
    /// `k`-th completed round (`k = 0` disables, the default). Collect
    /// them with [`Simulation::run_checkpointed`]. Checkpointing is
    /// observational: any cadence — including none — yields identical
    /// results.
    pub fn checkpoint_every(mut self, k: u64) -> Self {
        self.checkpoint_every = (k > 0).then_some(k);
        self
    }

    /// Routes the round loop through the pre-index hot path (per-probe
    /// availability recounts, per-round candidate rebuilds, per-bit
    /// rarest-first picks, full peer-struct membership scans). Results
    /// are identical to the default dirty-set loop — the
    /// `hotpath_equivalence` battery pins this — so this switch exists
    /// only as the oracle for equivalence tests and the baseline for the
    /// `scale` bench. Gated behind the `hotpath-oracle` feature.
    #[cfg(any(test, feature = "hotpath-oracle"))]
    pub fn naive_hotpath(mut self, naive: bool) -> Self {
        self.naive_hotpath = naive;
        self
    }

    /// Attaches a telemetry [`Recorder`] (disabled by default). The
    /// recorder is purely observational: attaching one — at any sampling
    /// rate — never changes the simulation's results. Collect what it
    /// gathered with [`Simulation::run_traced`].
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a wall-clock [`Profiler`] (disabled by default). Like the
    /// recorder, the profiler is purely observational: attaching one never
    /// changes the simulation's results — it only times the round-loop
    /// phases. Collect what it gathered with [`Simulation::run_profiled`].
    pub fn profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// Sets the arriving population (replacing any earlier call).
    pub fn population(mut self, population: Vec<PeerSpec>) -> Self {
        self.population = population;
        self
    }

    /// Queues a population patch — typically a `coop_attacks::AttackPlan`
    /// — applied at [`build`](SimulationBuilder::build) time, seeded with
    /// the config seed. Patches apply in the order queued.
    pub fn attack_plan(mut self, plan: impl PopulationPatch + 'static) -> Self {
        self.patches.push(Box::new(plan));
        self
    }

    /// Attaches a fault plan — typically a `coop_faults::FaultPlan` —
    /// compiled at [`build`](SimulationBuilder::build) time (after attack
    /// patches, so faults see the final population) into a pre-drawn
    /// [`FaultSchedule`]. Replaces any earlier `fault_plan` or
    /// [`fault_schedule`](SimulationBuilder::fault_schedule) call.
    pub fn fault_plan(mut self, plan: impl FaultPatch + 'static) -> Self {
        self.fault_patch = Some(Box::new(plan));
        self.fault_schedule = None;
        self
    }

    /// Attaches an already-compiled fault schedule directly (tests use
    /// this; `fault_plan` is the usual entry point). Replaces any earlier
    /// [`fault_plan`](SimulationBuilder::fault_plan) call.
    pub fn fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.fault_schedule = Some(schedule);
        self.fault_patch = None;
        self
    }

    /// Validates everything and assembles the simulation.
    ///
    /// # Errors
    ///
    /// - [`BuildError::Config`] if the configuration is invalid;
    /// - [`BuildError::EmptyPopulation`] if no peers were supplied;
    /// - [`BuildError::InvalidPeer`] if any (post-patch) spec has a
    ///   non-finite or negative capacity or a zero whitewash interval;
    /// - [`BuildError::InvalidFaults`] if the compiled fault schedule
    ///   fails [`FaultSchedule::validate`].
    pub fn build(mut self) -> Result<Simulation, BuildError> {
        self.config.validate()?;
        if self.population.is_empty() {
            return Err(BuildError::EmptyPopulation);
        }
        let seed = self.config.seed;
        for patch in &self.patches {
            patch.apply_patch(&mut self.population, seed);
        }
        // Faults compile after attack patches so the schedule is drawn
        // against the final population (and may stagger its arrivals).
        let faults = match (&self.fault_patch, self.fault_schedule.take()) {
            (Some(patch), _) => patch.compile_faults(&mut self.population, &self.config),
            (None, Some(schedule)) => schedule,
            (None, None) => FaultSchedule::empty(),
        };
        faults
            .validate(self.population.len())
            .map_err(|reason| BuildError::InvalidFaults { reason })?;
        // No fault may fire at or before its peer's arrival round — a
        // schedule naming a peer that has not spawned yet would be
        // silently unapplicable.
        let driver = coop_des::RoundDriver::new(self.config.round);
        for ev in faults.events() {
            let arrival_round = driver.round_of(self.population[ev.peer].arrival);
            if ev.round <= arrival_round {
                return Err(BuildError::InvalidFaults {
                    reason: format!(
                        "{ev:?} fires at or before the peer's arrival round {arrival_round}"
                    ),
                });
            }
        }
        for (index, spec) in self.population.iter().enumerate() {
            if !spec.capacity_bps.is_finite() || spec.capacity_bps < 0.0 {
                return Err(BuildError::InvalidPeer {
                    index,
                    reason: format!(
                        "capacity_bps must be finite and nonnegative, got {}",
                        spec.capacity_bps
                    ),
                });
            }
            if spec.tags.whitewash_interval == Some(0) {
                return Err(BuildError::InvalidPeer {
                    index,
                    reason: "whitewash_interval must be positive".to_string(),
                });
            }
        }
        let mut sim = Simulation::assemble(self.config, self.population, self.recorder, faults);
        sim.naive_hotpath = self.naive_hotpath;
        sim.set_shards(self.shards);
        sim.set_checkpoint_every(self.checkpoint_every);
        sim.set_profiler(self.profiler);
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{flash_crowd, PeerTags};
    use crate::faults::{FaultEvent, FaultKind};
    use coop_incentives::MechanismKind;

    fn base() -> (SwarmConfig, Vec<PeerSpec>) {
        let config = SwarmConfig::tiny_test();
        let population = flash_crowd(&config, 6, MechanismKind::Altruism, 5);
        (config, population)
    }

    #[test]
    fn builds_and_runs() {
        let (config, population) = base();
        let result = Simulation::builder(config)
            .population(population)
            .build()
            .unwrap()
            .run();
        assert!(result.rounds_run > 0);
    }

    #[test]
    fn rejects_invalid_config() {
        let (mut config, population) = base();
        config.neighbor_degree = 0;
        let err = Simulation::builder(config)
            .population(population)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("neighbor_degree"));
    }

    #[test]
    fn rejects_empty_population() {
        let (config, _) = base();
        let err = Simulation::builder(config).build().unwrap_err();
        assert_eq!(err, BuildError::EmptyPopulation);
    }

    #[test]
    fn rejects_bad_peer_specs() {
        let (config, mut population) = base();
        population[2].capacity_bps = f64::NAN;
        let err = Simulation::builder(config.clone())
            .population(population)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, BuildError::InvalidPeer { index: 2, .. }),
            "{err:?}"
        );

        let (_, mut population) = base();
        population[0].tags = PeerTags {
            whitewash_interval: Some(0),
            ..PeerTags::compliant()
        };
        let err = Simulation::builder(config)
            .population(population)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, BuildError::InvalidPeer { index: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn patches_apply_in_order_with_config_seed() {
        let (mut config, population) = base();
        config.seed = 99;
        let sim = Simulation::builder(config)
            .population(population)
            .attack_plan(|pop: &mut [PeerSpec], seed: u64| {
                assert_eq!(seed, 99, "patches see the config seed");
                pop[0].tags.compliant = false;
                1
            })
            .attack_plan(|pop: &mut [PeerSpec], _seed: u64| {
                // Runs second: sees the first patch's effect.
                assert!(!pop[0].tags.compliant);
                pop[0].tags.large_view = true;
                1
            })
            .build()
            .unwrap();
        let result = sim.run();
        assert!(result.peers.iter().any(|r| !r.compliant));
    }

    #[test]
    fn rejects_invalid_fault_schedule() {
        let (config, population) = base();
        let bad = FaultSchedule::from_events(
            vec![FaultEvent {
                round: 3,
                peer: 100, // out of range for 6 peers
                kind: FaultKind::Depart,
            }],
            0.0,
            0,
        );
        let err = Simulation::builder(config)
            .population(population)
            .fault_schedule(bad)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::InvalidFaults { .. }), "{err:?}");
    }

    #[test]
    fn fault_patch_sees_final_population_and_config() {
        let (mut config, population) = base();
        config.seed = 42;
        let sim = Simulation::builder(config)
            .population(population)
            .attack_plan(|pop: &mut [PeerSpec], _seed: u64| {
                pop[1].tags.compliant = false;
                1
            })
            .fault_plan(|pop: &mut [PeerSpec], config: &SwarmConfig| {
                assert_eq!(config.seed, 42, "fault patches see the config");
                assert!(!pop[1].tags.compliant, "faults compile after attacks");
                // Fault patches may restage arrivals (Poisson staggering
                // does); here it also pins the arrival round below the
                // departure round.
                pop[0].arrival = coop_des::SimTime::ZERO;
                FaultSchedule::from_events(
                    vec![FaultEvent {
                        round: 5,
                        peer: 0,
                        kind: FaultKind::Depart,
                    }],
                    0.0,
                    config.seed,
                )
            })
            .build()
            .unwrap();
        let result = sim.run();
        assert!(result.rounds_run > 0);
    }
}
