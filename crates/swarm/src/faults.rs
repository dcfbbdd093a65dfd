//! Pre-drawn, seed-stamped fault schedules (churn, outages, message loss,
//! seeder failure).
//!
//! The simulator never draws fault randomness in the round loop. Instead a
//! [`FaultPatch`] (implemented by `coop_faults::FaultPlan`) compiles a
//! scenario description into a [`FaultSchedule`] at build time: every
//! departure round, every outage window and the loss-stream seed are fixed
//! before the first round runs. The round hot path then only advances a
//! cursor over the sorted event list — branch-cheap, allocation-free, and
//! byte-reproducible for any worker count, because nothing about fault
//! timing depends on execution order.
//!
//! Per-transfer message loss is the one fault decided during the run, and
//! it is decided by a *pure hash* of `(loss_seed, from, to, piece, round)`
//! — not by a shared RNG stream — so the decision for one transfer is
//! independent of how many other transfers ran before it.

use coop_des::rng::SeedTree;

use crate::config::{PeerSpec, SwarmConfig};

/// What happens to one peer at one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The peer goes dark, keeping its bitfield (transient outage).
    OutageStart,
    /// The peer comes back online with the bitfield it went dark with.
    OutageEnd,
    /// The peer leaves the swarm for good (churn departure).
    Depart,
}

impl FaultKind {
    /// The name used in telemetry output.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::OutageStart => "outage_start",
            FaultKind::OutageEnd => "outage_end",
            FaultKind::Depart => "churn_depart",
        }
    }
}

/// One scheduled fault, keyed by the population *spec index* (stable
/// across runs; the simulator resolves it to the spawned peer id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// The round at which the fault applies (applied at the top of that
    /// round, before any allocation).
    pub round: u64,
    /// Index into the population vector handed to the builder.
    pub peer: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A compiled, fully pre-drawn fault scenario for one run.
///
/// [`FaultSchedule::empty`] is the identity: a simulation assembled with it
/// takes exactly the branches of one assembled with no schedule at all, so
/// zero-rate plans are byte-identical to the fault-free baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    /// Probability that a completed piece transfer is lost in transit
    /// (decided per `(link, piece, round)` by a pure hash; 0 disables).
    pub loss_prob: f64,
    /// Seed of the loss hash stream (only consulted when `loss_prob > 0`).
    pub loss_seed: u64,
    /// The seeder leaves once this fraction of the expected compliant
    /// population has completed ("selfish leech-off").
    pub seeder_exit_fraction: Option<f64>,
    /// The seeder fails permanently at the start of this round.
    pub seeder_failure_round: Option<u64>,
}

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule::empty()
    }
}

impl FaultSchedule {
    /// The fault-free schedule (the identity element).
    pub fn empty() -> Self {
        FaultSchedule {
            events: Vec::new(),
            loss_prob: 0.0,
            loss_seed: 0,
            seeder_exit_fraction: None,
            seeder_failure_round: None,
        }
    }

    /// Builds a schedule from events (sorted here; callers need not
    /// pre-sort) and link-loss parameters.
    pub fn from_events(mut events: Vec<FaultEvent>, loss_prob: f64, loss_seed: u64) -> Self {
        events.sort_unstable();
        FaultSchedule {
            events,
            loss_prob,
            loss_seed,
            seeder_exit_fraction: None,
            seeder_failure_round: None,
        }
    }

    /// The scheduled events, sorted by `(round, peer, kind)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the schedule can never change a run: no events, no loss,
    /// and no seeder fault.
    pub fn is_inert(&self) -> bool {
        self.events.is_empty()
            && self.loss_prob <= 0.0
            && self.seeder_exit_fraction.is_none()
            && self.seeder_failure_round.is_none()
    }

    /// Checks the schedule's structural invariants against a population of
    /// `population_len` specs:
    ///
    /// - every event's peer index is in range;
    /// - per peer: at most one departure, outages alternate
    ///   start → end with positive length, and no outage overlaps the
    ///   departure (the departure round is at or after every outage end);
    /// - `loss_prob` is a probability; `seeder_exit_fraction` is in
    ///   `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self, population_len: usize) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.loss_prob) || !self.loss_prob.is_finite() {
            return Err(format!(
                "loss_prob must be in [0, 1], got {}",
                self.loss_prob
            ));
        }
        if let Some(f) = self.seeder_exit_fraction {
            if !(f > 0.0 && f <= 1.0) {
                return Err(format!("seeder_exit_fraction must be in (0, 1], got {f}"));
            }
        }
        for w in self.events.windows(2) {
            if w[0] > w[1] {
                return Err(format!("events out of order: {:?} before {:?}", w[0], w[1]));
            }
        }
        // Per-peer structural walk. Events are globally sorted, so each
        // peer's subsequence is sorted too.
        let mut peers: Vec<usize> = self.events.iter().map(|e| e.peer).collect();
        peers.sort_unstable();
        peers.dedup();
        for peer in peers {
            if peer >= population_len {
                return Err(format!(
                    "fault event targets spec index {peer}, population has {population_len}"
                ));
            }
            let mut open_outage: Option<u64> = None;
            let mut departed: Option<u64> = None;
            for ev in self.events.iter().filter(|e| e.peer == peer) {
                if let Some(d) = departed {
                    return Err(format!(
                        "peer {peer}: event {ev:?} after departure at round {d}"
                    ));
                }
                match ev.kind {
                    FaultKind::OutageStart => {
                        if open_outage.is_some() {
                            return Err(format!(
                                "peer {peer}: nested outage at round {}",
                                ev.round
                            ));
                        }
                        open_outage = Some(ev.round);
                    }
                    FaultKind::OutageEnd => match open_outage.take() {
                        Some(start) if ev.round > start => {}
                        Some(start) => {
                            return Err(format!(
                                "peer {peer}: outage [{start}, {}] has no length",
                                ev.round
                            ));
                        }
                        None => {
                            return Err(format!(
                                "peer {peer}: outage end at round {} without a start",
                                ev.round
                            ));
                        }
                    },
                    FaultKind::Depart => {
                        if open_outage.is_some() {
                            return Err(format!(
                                "peer {peer}: departure at round {} inside an outage",
                                ev.round
                            ));
                        }
                        departed = Some(ev.round);
                    }
                }
            }
            if let Some(start) = open_outage {
                return Err(format!(
                    "peer {peer}: outage starting at round {start} never ends"
                ));
            }
        }
        Ok(())
    }

    /// The pure-hash loss decision for one completed piece transfer on the
    /// link `from → to` at `round`. Deterministic in the schedule's
    /// `loss_seed` and the arguments alone — independent of evaluation
    /// order, worker count, and every other transfer — and fresh per
    /// round, so a re-fetched piece on a lossy link is not doomed forever.
    pub fn drops_piece(&self, from: u32, to: u32, piece: u32, round: u64) -> bool {
        if self.loss_prob <= 0.0 {
            return false;
        }
        let link = (u64::from(from) << 32) | u64::from(to);
        let draw = SeedTree::new(self.loss_seed)
            .subtree(link)
            .child_seed((u64::from(piece) << 32) | round);
        // 53 mantissa bits of the hash as a uniform draw in [0, 1).
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.loss_prob
    }
}

/// Compiles a fault scenario into a [`FaultSchedule`] at build time.
///
/// The sibling of [`PopulationPatch`](crate::PopulationPatch):
/// `coop_faults::FaultPlan` implements this so fault scenarios plug into
/// [`SimulationBuilder::fault_plan`](crate::SimulationBuilder::fault_plan)
/// without a dependency cycle. The patch may also adjust the population's
/// arrival times (staggered Poisson arrivals) before drawing the schedule.
pub trait FaultPatch {
    /// Draws the complete fault schedule for this population, using only
    /// randomness derived from `config.seed`. May mutate arrival times.
    fn compile_faults(&self, population: &mut [PeerSpec], config: &SwarmConfig) -> FaultSchedule;
}

/// Closures can serve as ad-hoc fault patches (tests use this).
impl<F: Fn(&mut [PeerSpec], &SwarmConfig) -> FaultSchedule> FaultPatch for F {
    fn compile_faults(&self, population: &mut [PeerSpec], config: &SwarmConfig) -> FaultSchedule {
        self(population, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: u64, peer: usize, kind: FaultKind) -> FaultEvent {
        FaultEvent { round, peer, kind }
    }

    #[test]
    fn empty_schedule_is_inert_and_valid() {
        let s = FaultSchedule::empty();
        assert!(s.is_inert());
        assert!(s.validate(0).is_ok());
        assert!(!s.drops_piece(0, 1, 2, 3), "zero loss never drops");
    }

    #[test]
    fn from_events_sorts() {
        let s = FaultSchedule::from_events(
            vec![
                ev(9, 1, FaultKind::Depart),
                ev(2, 0, FaultKind::OutageStart),
                ev(4, 0, FaultKind::OutageEnd),
            ],
            0.0,
            7,
        );
        assert_eq!(s.events()[0].round, 2);
        assert_eq!(s.events()[2].round, 9);
        assert!(s.validate(2).is_ok());
        assert!(!s.is_inert());
    }

    #[test]
    fn validate_rejects_structural_violations() {
        // Out-of-range peer.
        let s = FaultSchedule::from_events(vec![ev(1, 5, FaultKind::Depart)], 0.0, 0);
        assert!(s.validate(3).is_err());
        // Event after departure.
        let s = FaultSchedule::from_events(
            vec![
                ev(1, 0, FaultKind::Depart),
                ev(2, 0, FaultKind::OutageStart),
            ],
            0.0,
            0,
        );
        assert!(s.validate(1).is_err());
        // Unclosed outage.
        let s = FaultSchedule::from_events(vec![ev(1, 0, FaultKind::OutageStart)], 0.0, 0);
        assert!(s.validate(1).is_err());
        // Zero-length outage.
        let s = FaultSchedule::from_events(
            vec![
                ev(1, 0, FaultKind::OutageStart),
                ev(1, 0, FaultKind::OutageEnd),
            ],
            0.0,
            0,
        );
        assert!(s.validate(1).is_err());
        // Bad probabilities.
        let mut s = FaultSchedule::empty();
        s.loss_prob = 1.5;
        assert!(s.validate(0).is_err());
        let mut s = FaultSchedule::empty();
        s.seeder_exit_fraction = Some(0.0);
        assert!(s.validate(0).is_err());
    }

    #[test]
    fn same_round_outage_end_sorts_before_departure() {
        let s = FaultSchedule::from_events(
            vec![
                ev(5, 0, FaultKind::Depart),
                ev(5, 0, FaultKind::OutageEnd),
                ev(3, 0, FaultKind::OutageStart),
            ],
            0.0,
            0,
        );
        assert_eq!(s.events()[1].kind, FaultKind::OutageEnd);
        assert_eq!(s.events()[2].kind, FaultKind::Depart);
        assert!(
            s.validate(1).is_ok(),
            "outage closed at the departure round"
        );
    }

    #[test]
    fn loss_hash_is_pure_and_rate_accurate() {
        let mut s = FaultSchedule::empty();
        s.loss_prob = 0.25;
        s.loss_seed = 99;
        // Pure: same inputs, same verdict.
        assert_eq!(s.drops_piece(1, 2, 3, 4), s.drops_piece(1, 2, 3, 4));
        // Round-fresh: the same (link, piece) redraws each round.
        let per_round: Vec<bool> = (0..64).map(|r| s.drops_piece(1, 2, 3, r)).collect();
        assert!(per_round.iter().any(|&d| d) && per_round.iter().any(|&d| !d));
        // Rate lands near the configured probability.
        let drops = (0..4000)
            .filter(|&i| s.drops_piece(i % 17, i % 13, i, u64::from(i / 31)))
            .count();
        let rate = drops as f64 / 4000.0;
        assert!((0.18..=0.32).contains(&rate), "loss rate {rate}");
    }
}
