//! Cross-mechanism invariants **at scale**: the conservation and
//! monotonicity laws from `tests/conservation.rs` re-asserted on the
//! populations the SoA hot path was built for (N ∈ {100, 1000, 5000}),
//! with and without churn fault plans.
//!
//! The laws themselves are population-independent:
//!
//! * byte conservation with the fault term — every byte a sender paid for
//!   was either received by exactly one peer or dropped by a fault:
//!   `uploaded == received_raw + fault_dropped_bytes`;
//! * the cumulative bootstrapped/completed fraction series are monotone
//!   nondecreasing and stay within [0, 1].
//!
//! The file is deliberately tiny (16 pieces) and the round count capped so
//! the 5000-peer cells stay affordable in debug builds; the point is the
//! population size, which is what exercises the SoA arrays, the patched
//! neighbor and candidate rows, the ledger-window list, and the
//! incremental index under churn-driven membership change.

use coop_des::Duration;
use coop_faults::FaultPlan;
use coop_incentives::analysis::capacity::CapacityClassMix;
use coop_incentives::MechanismKind;
use coop_piece::FileSpec;
use coop_swarm::{flash_crowd_with, SimResult, Simulation, SwarmConfig};

/// A debug-affordable scale config: tiny file, modest degree, capped
/// rounds. Population is supplied per cell.
fn scale_config(seed: u64) -> SwarmConfig {
    let mut c = SwarmConfig::scaled_default();
    c.file = FileSpec::new(1024 * 1024, 64 * 1024);
    c.neighbor_degree = 12;
    c.seeder_bps = 256_000.0;
    c.max_rounds = 150;
    c.sample_every = 4;
    c.seed = seed;
    c
}

fn run_at(
    n: usize,
    kind: MechanismKind,
    plan: Option<FaultPlan>,
    seed: u64,
) -> (SimResult, SwarmConfig) {
    let config = scale_config(seed);
    let population = flash_crowd_with(
        &config,
        n,
        kind,
        seed,
        &CapacityClassMix::paper_default(),
        Duration::from_secs(10),
    );
    let mut builder = Simulation::builder(config.clone()).population(population);
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    (builder.build().expect("config validates").run(), config)
}

/// Churn at the base hazard of the built-in `fig4-churn` pack (mean
/// lifetime 100 rounds) plus link loss.
fn churn_plan() -> FaultPlan {
    FaultPlan::churn(0.01).with_loss(0.05)
}

fn assert_invariants(r: &SimResult, label: &str) {
    // Eq. (1) with the fault term: every byte sent was either received by
    // exactly one peer or dropped in transit by an injected fault.
    let sent: u64 = r.peers.iter().map(|p| p.bytes_sent).sum::<u64>() + r.totals.uploaded_seeder;
    let received: u64 = r.peers.iter().map(|p| p.bytes_received_raw).sum();
    assert_eq!(
        sent,
        received + r.totals.fault_dropped_bytes,
        "{label}: byte conservation (uploaded == received_raw + fault_dropped)"
    );
    assert_eq!(r.totals.uploaded_total(), sent, "{label}: totals agree");

    for p in &r.peers {
        assert!(
            p.bytes_received_usable <= p.bytes_received_raw,
            "{label}: usable ≤ raw for {:?}",
            p.id
        );
    }

    // Cumulative fraction series are monotone nondecreasing in [0, 1].
    for (name, series) in [
        ("bootstrapped_frac", &r.bootstrapped_frac),
        ("completed_frac", &r.completed_frac),
    ] {
        let pts = series.points();
        for w in pts.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e-12,
                "{label}: {name} series must be monotone"
            );
        }
        for &(_, v) in pts {
            assert!(
                (0.0..=1.0 + 1e-12).contains(&v),
                "{label}: {name} value {v} out of range"
            );
        }
    }
}

#[test]
fn invariants_hold_at_100_for_all_mechanisms() {
    for kind in MechanismKind::ALL {
        let (r, _) = run_at(100, kind, None, 21);
        assert_invariants(&r, &format!("{}@100", kind.name()));
    }
}

#[test]
fn invariants_hold_at_100_under_churn_for_all_mechanisms() {
    for kind in MechanismKind::ALL {
        let (r, _) = run_at(100, kind, Some(churn_plan()), 22);
        let label = format!("{}@100+churn", kind.name());
        assert_invariants(&r, &label);
    }
}

#[test]
fn invariants_hold_at_1000() {
    for kind in [
        MechanismKind::BitTorrent,
        MechanismKind::TChain,
        MechanismKind::Altruism,
    ] {
        let (r, _) = run_at(1000, kind, None, 23);
        assert_invariants(&r, &format!("{}@1000", kind.name()));
    }
}

#[test]
fn invariants_hold_at_1000_under_churn() {
    for kind in [MechanismKind::BitTorrent, MechanismKind::FairTorrent] {
        let (r, _) = run_at(1000, kind, Some(churn_plan()), 24);
        let label = format!("{}@1000+churn", kind.name());
        assert_invariants(&r, &label);
        // The plan injects real loss at this scale; the fault term must be
        // live, not vacuously zero.
        assert!(
            r.totals.fault_dropped_bytes > 0,
            "{label}: expected injected loss to drop bytes"
        );
    }
}

#[test]
fn invariants_hold_at_5000() {
    let (r, _) = run_at(5000, MechanismKind::BitTorrent, None, 25);
    assert_invariants(&r, "bittorrent@5000");
    let (r, _) = run_at(5000, MechanismKind::TChain, Some(churn_plan()), 26);
    assert_invariants(&r, "tchain@5000+churn");
}
