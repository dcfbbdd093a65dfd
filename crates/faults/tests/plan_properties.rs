//! Property-based tests for fault-plan compilation: for any generated
//! plan, population size and seed, the compiled schedule must be sorted,
//! structurally valid, causally consistent with arrivals, and an exact
//! replay of itself when compiled again from the same seed.

use coop_des::{RoundDriver, SimTime};
use coop_faults::FaultPlan;
use coop_incentives::{MechanismKind, MechanismParams};
use coop_swarm::{FaultKind, PeerSpec, SwarmConfig};
use proptest::prelude::*;

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
                SimTime::from_secs(i as u64 % 20),
                MechanismKind::BitTorrent,
                MechanismParams::default(),
            )
        })
        .collect()
}

fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        0.0f64..3.0,                     // arrival_spread_s
        0.0f64..0.15,                    // churn_rate
        proptest::option::of(1u64..=60), // fixed_lifetime_rounds
        0.0f64..1.0,                     // outage_prob
        0u64..8,                         // outage_rounds
        0.0f64..0.5,                     // loss_prob
        1.0f64..600.0,                   // diurnal_period_s
        0.0f64..0.9,                     // diurnal_amplitude
    )
        .prop_map(
            |(spread, churn, fixed, op, or, loss, period, amp)| FaultPlan {
                arrival_spread_s: spread,
                churn_rate: churn,
                fixed_lifetime_rounds: fixed,
                outage_prob: op,
                outage_rounds: or,
                loss_prob: loss,
                seeder_exit_fraction: None,
                seeder_failure_round: None,
                diurnal_period_s: period,
                diurnal_amplitude: amp,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compilation always yields a sorted event list that passes the
    /// builder's structural validation.
    #[test]
    fn compiled_schedules_are_sorted_and_valid(
        plan in plan_strategy(),
        seed in 0u64..10_000,
        n in 1usize..40,
    ) {
        let cfg = config(seed);
        let mut pop = population(n);
        let schedule = plan.compile(&mut pop, &cfg);
        for pair in schedule.events().windows(2) {
            prop_assert!(pair[0] <= pair[1], "events must be sorted");
        }
        prop_assert!(schedule.validate(n).is_ok());
    }

    /// No fault ever fires at or before its peer's arrival round — the
    /// causal floor the builder enforces.
    #[test]
    fn no_fault_before_arrival(
        plan in plan_strategy(),
        seed in 0u64..10_000,
        n in 1usize..40,
    ) {
        let cfg = config(seed);
        let mut pop = population(n);
        let schedule = plan.compile(&mut pop, &cfg);
        let driver = RoundDriver::new(cfg.round);
        for ev in schedule.events() {
            let arrival_round = driver.round_of(pop[ev.peer].arrival);
            prop_assert!(
                ev.round > arrival_round,
                "{ev:?} fires at or before arrival round {arrival_round}"
            );
        }
    }

    /// Outage windows never overlap a departure: a peer's outage closes
    /// strictly before its churn departure, and every window is paired.
    #[test]
    fn outages_never_overlap_departures(
        plan in plan_strategy(),
        seed in 0u64..10_000,
        n in 1usize..40,
    ) {
        let cfg = config(seed);
        let mut pop = population(n);
        let schedule = plan.compile(&mut pop, &cfg);
        for peer in 0..n {
            let evs: Vec<_> = schedule
                .events()
                .iter()
                .filter(|e| e.peer == peer)
                .collect();
            let starts: Vec<u64> = evs
                .iter()
                .filter(|e| e.kind == FaultKind::OutageStart)
                .map(|e| e.round)
                .collect();
            let ends: Vec<u64> = evs
                .iter()
                .filter(|e| e.kind == FaultKind::OutageEnd)
                .map(|e| e.round)
                .collect();
            prop_assert_eq!(starts.len(), ends.len(), "unpaired outage window");
            for (s, e) in starts.iter().zip(&ends) {
                prop_assert!(e > s, "outage must have positive length");
            }
            if let Some(depart) = evs
                .iter()
                .find(|e| e.kind == FaultKind::Depart)
                .map(|e| e.round)
            {
                for e in &ends {
                    prop_assert!(*e < depart, "outage overlaps departure");
                }
            }
        }
    }

    /// Compiling the same plan twice from the same seed replays exactly:
    /// identical schedules and identical restaggered arrivals.
    #[test]
    fn compilation_replays_deterministically(
        plan in plan_strategy(),
        seed in 0u64..10_000,
        n in 1usize..40,
    ) {
        let cfg = config(seed);
        let mut a = population(n);
        let mut b = population(n);
        let sa = plan.compile(&mut a, &cfg);
        let sb = plan.compile(&mut b, &cfg);
        prop_assert_eq!(sa, sb);
        let ta: Vec<u64> = a.iter().map(|s| s.arrival.as_millis()).collect();
        let tb: Vec<u64> = b.iter().map(|s| s.arrival.as_millis()).collect();
        prop_assert_eq!(ta, tb);
    }

    /// A plan with every rate at zero is inert: it compiles to the empty
    /// (identity) schedule regardless of seed or population.
    #[test]
    fn zero_rate_plans_compile_to_identity(
        seed in 0u64..10_000,
        n in 1usize..40,
    ) {
        let cfg = config(seed);
        let mut pop = population(n);
        let before: Vec<u64> = pop.iter().map(|s| s.arrival.as_millis()).collect();
        let schedule = FaultPlan::none().compile(&mut pop, &cfg);
        prop_assert!(schedule.is_inert());
        prop_assert!(schedule.events().is_empty());
        let after: Vec<u64> = pop.iter().map(|s| s.arrival.as_millis()).collect();
        prop_assert_eq!(before, after);
    }
}
