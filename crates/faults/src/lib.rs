//! Fault-injection *plans*: scenario descriptions that compile into the
//! pre-drawn [`FaultSchedule`]s the swarm simulator executes.
//!
//! A [`FaultPlan`] is the fault-side sibling of `coop_attacks::AttackPlan`:
//! a small `Copy` value describing a churn/fault scenario — staggered
//! Poisson arrivals, exponential or fixed peer lifetimes, transient
//! outages, per-link message loss, and seeder exit/failure. Attached to a
//! `SimulationBuilder` via the `FaultPatch` hook, it compiles once at
//! build time into a [`FaultSchedule`]: every departure round and outage
//! window is drawn up front from a dedicated [`SeedTree`] subtree of the
//! run's root seed, so the round hot path never touches fault randomness
//! and results are byte-reproducible for any worker count.
//!
//! Determinism contract:
//!
//! * All randomness comes from `SeedTree::new(config.seed)
//!   .subtree(FAULT_SUBTREE)` with one child stream per purpose and per
//!   peer — compiling the same plan against the same population and seed
//!   always yields the same schedule, and fault draws never perturb the
//!   simulator's own RNG streams.
//! * [`FaultPlan::none`] (and any plan whose every rate is zero) draws
//!   nothing and compiles to [`FaultSchedule::empty`], which the simulator
//!   treats as the exact identity: runs are byte-identical to runs with no
//!   plan attached.
//! * Per-transfer message loss is not pre-drawn (the set of transfers is
//!   not known at build time); the schedule carries a `loss_seed` and the
//!   simulator decides each potential drop by a pure hash of
//!   `(loss_seed, link, piece, round)`, independent of execution order.

use coop_des::rng::{exponential, SeedTree};
use coop_des::{RoundDriver, SimTime};
use coop_swarm::{FaultEvent, FaultKind, FaultPatch, FaultSchedule, PeerSpec, SwarmConfig};
use rand::RngCore;

/// Label of the fault subtree under the run's root seed. Every draw the
/// compiler makes lives under `SeedTree::new(seed).subtree(FAULT_SUBTREE)`,
/// keeping fault randomness disjoint from the simulator's per-round
/// streams (`0x520_0000 + round`) and the population builder's streams.
pub const FAULT_SUBTREE: u64 = 0xFA_017;

/// Child labels within the fault subtree, one per draw purpose.
const LABEL_ARRIVALS: u64 = 1;
const LABEL_LIFETIMES: u64 = 2;
const LABEL_OUTAGES: u64 = 3;
const LABEL_LOSS: u64 = 4;

/// A scenario description for deterministic churn and fault injection.
///
/// All rates at zero (see [`FaultPlan::none`]) means "no faults": the plan
/// compiles to [`FaultSchedule::empty`] without consuming any randomness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// When positive, replace the population's arrival times with a
    /// Poisson process: successive inter-arrival gaps are exponential with
    /// this mean (seconds), starting from time zero.
    pub arrival_spread_s: f64,
    /// When positive (with `arrival_spread_s > 0`), modulate the Poisson
    /// arrival intensity sinusoidally with this period (seconds): the
    /// instantaneous mean gap becomes `arrival_spread_s / (1 +
    /// diurnal_amplitude * sin(2π t / diurnal_period_s))`.
    pub diurnal_period_s: f64,
    /// Relative swing of the diurnal intensity, in `[0, 1)`. Zero keeps
    /// arrivals a plain (homogeneous) Poisson process.
    pub diurnal_amplitude: f64,
    /// Per-round departure hazard. Each peer's lifetime (rounds from
    /// arrival to churn departure) is exponential with mean `1 /
    /// churn_rate`; departures past the run's `max_rounds` are dropped.
    pub churn_rate: f64,
    /// When set, every peer departs exactly this many rounds after
    /// arrival (minimum 1), overriding the exponential draw.
    pub fixed_lifetime_rounds: Option<u64>,
    /// Probability that a peer suffers one transient outage during its
    /// life. Affected peers go dark (keeping their bitfield) for
    /// [`FaultPlan::outage_rounds`] rounds at a uniformly drawn start.
    pub outage_prob: f64,
    /// Length of each outage in rounds (0 disables outages).
    pub outage_rounds: u64,
    /// Probability that a completed piece transfer is lost in transit,
    /// decided per `(link, piece, round)` by the simulator's pure loss
    /// hash (0 disables).
    pub loss_prob: f64,
    /// "Selfish leech-off": the seeder exits once this fraction of the
    /// expected compliant population has completed. Must lie in `(0, 1]`.
    pub seeder_exit_fraction: Option<f64>,
    /// The seeder fails permanently at the start of this round.
    pub seeder_failure_round: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The no-fault plan: compiles to [`FaultSchedule::empty`] and leaves
    /// the population untouched.
    pub fn none() -> Self {
        FaultPlan {
            arrival_spread_s: 0.0,
            diurnal_period_s: 0.0,
            diurnal_amplitude: 0.0,
            churn_rate: 0.0,
            fixed_lifetime_rounds: None,
            outage_prob: 0.0,
            outage_rounds: 0,
            loss_prob: 0.0,
            seeder_exit_fraction: None,
            seeder_failure_round: None,
        }
    }

    /// Exponential churn with the given per-round departure hazard.
    pub fn churn(rate: f64) -> Self {
        FaultPlan {
            churn_rate: rate,
            ..Self::none()
        }
    }

    /// Sets Poisson arrival staggering with the given mean gap (seconds).
    pub fn with_arrival_spread(mut self, mean_gap_s: f64) -> Self {
        self.arrival_spread_s = mean_gap_s;
        self
    }

    /// Sets sinusoidal (diurnal) modulation of the Poisson arrival
    /// intensity. Takes effect only when `arrival_spread_s > 0`;
    /// `amplitude` must lie in `[0, 1)` so the intensity stays positive.
    pub fn with_diurnal(mut self, period_s: f64, amplitude: f64) -> Self {
        self.diurnal_period_s = period_s;
        self.diurnal_amplitude = amplitude;
        self
    }

    /// Sets a fixed lifetime in rounds for every peer.
    pub fn with_fixed_lifetime(mut self, rounds: u64) -> Self {
        self.fixed_lifetime_rounds = Some(rounds);
        self
    }

    /// Sets transient outages: each peer goes dark once with probability
    /// `prob` for `rounds` rounds.
    pub fn with_outages(mut self, prob: f64, rounds: u64) -> Self {
        self.outage_prob = prob;
        self.outage_rounds = rounds;
        self
    }

    /// Sets the per-transfer message-loss probability.
    pub fn with_loss(mut self, prob: f64) -> Self {
        self.loss_prob = prob;
        self
    }

    /// Sets the seeder's post-completion exit fraction.
    pub fn with_seeder_exit(mut self, fraction: f64) -> Self {
        self.seeder_exit_fraction = Some(fraction);
        self
    }

    /// Sets a permanent seeder failure at the given round.
    pub fn with_seeder_failure(mut self, round: u64) -> Self {
        self.seeder_failure_round = Some(round);
        self
    }

    /// True when the plan can produce no fault at all; such plans compile
    /// to the identity schedule without consuming randomness.
    pub fn is_inert(&self) -> bool {
        self.arrival_spread_s <= 0.0
            && self.churn_rate <= 0.0
            && self.fixed_lifetime_rounds.is_none()
            && (self.outage_prob <= 0.0 || self.outage_rounds == 0)
            && self.loss_prob <= 0.0
            && self.seeder_exit_fraction.is_none()
            && self.seeder_failure_round.is_none()
    }

    /// Compiles the plan against a population into a concrete schedule,
    /// pre-drawing every departure round and outage window from the fault
    /// subtree of `config.seed`. Mutates `population` only to re-stagger
    /// arrivals (and only when `arrival_spread_s > 0`).
    ///
    /// The construction keeps every schedule structurally valid for the
    /// builder's checks: faults fire strictly after the peer's arrival
    /// round, outages never overlap a departure, and windows are closed.
    pub fn compile(&self, population: &mut [PeerSpec], config: &SwarmConfig) -> FaultSchedule {
        if self.is_inert() {
            return FaultSchedule::empty();
        }
        let tree = SeedTree::new(config.seed).subtree(FAULT_SUBTREE);
        let driver = RoundDriver::new(config.round);

        if self.arrival_spread_s > 0.0 {
            let mut rng = tree.rng(LABEL_ARRIVALS);
            let diurnal = self.diurnal_period_s > 0.0 && self.diurnal_amplitude > 0.0;
            let mut t_ms = 0u64;
            for spec in population.iter_mut() {
                let mut gap_s = exponential(&mut rng, self.arrival_spread_s);
                if diurnal {
                    // Thinning-free modulation: stretch each exponential
                    // gap by the reciprocal of the instantaneous intensity
                    // at the previous arrival. Same RNG stream and draw
                    // count as the homogeneous process, so amplitude 0 is
                    // byte-identical to plain Poisson arrivals.
                    let t_s = t_ms as f64 / 1000.0;
                    let phase = std::f64::consts::TAU * t_s / self.diurnal_period_s;
                    gap_s /= 1.0 + self.diurnal_amplitude * phase.sin();
                }
                t_ms += (gap_s * 1000.0).round() as u64;
                spec.arrival = SimTime::from_millis(t_ms);
            }
        }

        // Departure round per spec index; None = stays for the whole run.
        // Per-peer child streams keep each peer's draw independent of how
        // many draws earlier peers consumed.
        let mut departs: Vec<Option<u64>> = vec![None; population.len()];
        if self.fixed_lifetime_rounds.is_some() || self.churn_rate > 0.0 {
            let lifetimes = tree.subtree(LABEL_LIFETIMES);
            for (i, spec) in population.iter().enumerate() {
                let lifetime = match self.fixed_lifetime_rounds {
                    Some(l) => l.max(1),
                    None => {
                        let mut rng = lifetimes.rng(i as u64);
                        exponential(&mut rng, 1.0 / self.churn_rate).ceil().max(1.0) as u64
                    }
                };
                let round = driver.round_of(spec.arrival) + lifetime;
                if round < config.max_rounds {
                    departs[i] = Some(round);
                }
            }
        }

        let mut events = Vec::new();
        if self.outage_prob > 0.0 && self.outage_rounds > 0 {
            let outages = tree.subtree(LABEL_OUTAGES);
            for (i, spec) in population.iter().enumerate() {
                let mut rng = outages.rng(i as u64);
                if uniform01(&mut rng) >= self.outage_prob {
                    continue;
                }
                let first = driver.round_of(spec.arrival) + 1;
                // The window must close strictly before the peer departs
                // (or before the hard stop); skip peers with no room.
                let horizon = departs[i].unwrap_or(config.max_rounds);
                let slack = horizon.saturating_sub(first + self.outage_rounds);
                if slack == 0 {
                    continue;
                }
                let start = first + rng.next_u64() % slack;
                events.push(FaultEvent {
                    round: start,
                    peer: i,
                    kind: FaultKind::OutageStart,
                });
                events.push(FaultEvent {
                    round: start + self.outage_rounds,
                    peer: i,
                    kind: FaultKind::OutageEnd,
                });
            }
        }

        for (i, depart) in departs.iter().enumerate() {
            if let Some(round) = *depart {
                events.push(FaultEvent {
                    round,
                    peer: i,
                    kind: FaultKind::Depart,
                });
            }
        }

        let mut schedule =
            FaultSchedule::from_events(events, self.loss_prob, tree.child_seed(LABEL_LOSS));
        schedule.seeder_exit_fraction = self.seeder_exit_fraction;
        schedule.seeder_failure_round = self.seeder_failure_round;
        schedule
    }
}

impl FaultPatch for FaultPlan {
    fn compile_faults(&self, population: &mut [PeerSpec], config: &SwarmConfig) -> FaultSchedule {
        self.compile(population, config)
    }
}

/// Uniform draw in `[0, 1)` from the top 53 bits of one `u64` — the same
/// technique the simulator's loss hash uses.
fn uniform01(rng: &mut impl RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64) -> SwarmConfig {
        let mut c = SwarmConfig::tiny_test();
        c.seed = seed;
        c
    }

    fn population(n: usize) -> Vec<PeerSpec> {
        (0..n)
            .map(|i| {
                PeerSpec::standard(
                    16_000.0,
                    SimTime::from_secs(i as u64),
                    coop_incentives::MechanismKind::BitTorrent,
                    coop_incentives::MechanismParams::default(),
                )
            })
            .collect()
    }

    #[test]
    fn none_is_inert_and_compiles_to_empty() {
        let plan = FaultPlan::none();
        assert!(plan.is_inert());
        let cfg = config(9);
        let mut pop = population(6);
        let before: Vec<SimTime> = pop.iter().map(|s| s.arrival).collect();
        let schedule = plan.compile(&mut pop, &cfg);
        assert_eq!(schedule, FaultSchedule::empty());
        let after: Vec<SimTime> = pop.iter().map(|s| s.arrival).collect();
        assert_eq!(before, after, "an inert plan must not touch arrivals");
    }

    #[test]
    fn churn_departures_fire_after_arrival() {
        let cfg = config(11);
        let mut pop = population(12);
        let schedule = FaultPlan::churn(0.05).compile(&mut pop, &cfg);
        let driver = RoundDriver::new(cfg.round);
        assert!(!schedule.events().is_empty());
        for ev in schedule.events() {
            assert_eq!(ev.kind, FaultKind::Depart);
            assert!(ev.round > driver.round_of(pop[ev.peer].arrival));
            assert!(ev.round < cfg.max_rounds);
        }
        schedule.validate(pop.len()).unwrap();
    }

    #[test]
    fn fixed_lifetime_departs_exactly_that_many_rounds_after_arrival() {
        let cfg = config(13);
        let mut pop = population(5);
        let schedule = FaultPlan::none()
            .with_fixed_lifetime(7)
            .compile(&mut pop, &cfg);
        let driver = RoundDriver::new(cfg.round);
        assert_eq!(schedule.events().len(), 5);
        for ev in schedule.events() {
            assert_eq!(ev.round, driver.round_of(pop[ev.peer].arrival) + 7);
        }
    }

    #[test]
    fn outages_close_before_departure() {
        let cfg = config(17);
        let mut pop = population(20);
        let schedule = FaultPlan::churn(0.02)
            .with_outages(1.0, 4)
            .compile(&mut pop, &cfg);
        schedule.validate(pop.len()).unwrap();
        for peer in 0..pop.len() {
            let evs: Vec<_> = schedule
                .events()
                .iter()
                .filter(|e| e.peer == peer)
                .collect();
            let depart = evs.iter().find(|e| e.kind == FaultKind::Depart);
            let end = evs.iter().find(|e| e.kind == FaultKind::OutageEnd);
            if let (Some(d), Some(e)) = (depart, end) {
                assert!(e.round < d.round, "outage must close before departure");
            }
        }
    }

    #[test]
    fn arrival_spread_restaggers_monotonically() {
        let cfg = config(19);
        let mut pop = population(8);
        FaultPlan::none()
            .with_arrival_spread(2.0)
            .compile(&mut pop, &cfg);
        for pair in pop.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        assert!(pop[0].arrival > SimTime::ZERO, "first gap is drawn too");
    }

    #[test]
    fn seeder_fields_pass_through() {
        let cfg = config(23);
        let mut pop = population(4);
        let schedule = FaultPlan::none()
            .with_seeder_exit(0.5)
            .with_seeder_failure(40)
            .compile(&mut pop, &cfg);
        assert_eq!(schedule.seeder_exit_fraction, Some(0.5));
        assert_eq!(schedule.seeder_failure_round, Some(40));
        assert!(schedule.events().is_empty());
        assert!(!schedule.is_inert());
    }

    #[test]
    fn diurnal_restagger_is_monotone_and_deterministic() {
        let cfg = config(31);
        let plan = FaultPlan::none()
            .with_arrival_spread(1.0)
            .with_diurnal(60.0, 0.8);
        let mut a = population(30);
        let mut b = population(30);
        plan.compile(&mut a, &cfg);
        plan.compile(&mut b, &cfg);
        for pair in a.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        let ta: Vec<SimTime> = a.iter().map(|s| s.arrival).collect();
        let tb: Vec<SimTime> = b.iter().map(|s| s.arrival).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn zero_amplitude_diurnal_matches_plain_poisson_arrivals() {
        let cfg = config(37);
        let mut plain = population(20);
        let mut modulated = population(20);
        FaultPlan::none()
            .with_arrival_spread(1.5)
            .compile(&mut plain, &cfg);
        FaultPlan::none()
            .with_arrival_spread(1.5)
            .with_diurnal(120.0, 0.0)
            .compile(&mut modulated, &cfg);
        let ta: Vec<SimTime> = plain.iter().map(|s| s.arrival).collect();
        let tb: Vec<SimTime> = modulated.iter().map(|s| s.arrival).collect();
        assert_eq!(ta, tb, "amplitude 0 must not perturb the draw stream");
    }

    #[test]
    fn compile_is_deterministic_for_a_seed() {
        let cfg = config(29);
        let plan = FaultPlan::churn(0.03)
            .with_outages(0.6, 3)
            .with_loss(0.1)
            .with_arrival_spread(1.5);
        let mut a = population(15);
        let mut b = population(15);
        let sa = plan.compile(&mut a, &cfg);
        let sb = plan.compile(&mut b, &cfg);
        assert_eq!(sa, sb);
        let ta: Vec<SimTime> = a.iter().map(|s| s.arrival).collect();
        let tb: Vec<SimTime> = b.iter().map(|s| s.arrival).collect();
        assert_eq!(ta, tb);
    }
}
