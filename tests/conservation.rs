//! System-level invariants that must hold for every mechanism and attack:
//! byte conservation (Eq. 1), usable ≤ raw, susceptibility bounds, and
//! completion implying full receipt.

use coop_attacks::AttackPlan;
use coop_faults::FaultPlan;
use coop_incentives::MechanismKind;
use coop_swarm::{flash_crowd, SimResult, Simulation, SwarmConfig};
use coop_telemetry::{Recorder, TelemetryConfig};

fn run(kind: MechanismKind, plan: Option<AttackPlan>, seed: u64) -> (SimResult, SwarmConfig) {
    let mut config = SwarmConfig::tiny_test();
    config.seed = seed;
    let population = flash_crowd(&config, 16, kind, seed);
    let mut builder = Simulation::builder(config.clone()).population(population);
    if let Some(plan) = plan {
        builder = builder.attack_plan(plan);
    }
    (builder.build().unwrap().run(), config)
}

fn assert_invariants(r: &SimResult, config: &SwarmConfig, label: &str) {
    // Eq. (1): total upload equals total (raw) download — every byte sent
    // was received by exactly one peer; aborted partial bytes were
    // accounted on both sides when they moved. Under fault injection the
    // equation gains the in-transit drop term (see
    // [`bytes_conserved_under_faults_and_reconciled_with_telemetry`]);
    // `totals.fault_dropped_bytes` is zero in fault-free runs, so using
    // it here keeps one assertion serving both regimes.
    let sent: u64 = r.peers.iter().map(|p| p.bytes_sent).sum::<u64>() + r.totals.uploaded_seeder;
    let received: u64 = r.peers.iter().map(|p| p.bytes_received_raw).sum();
    assert_eq!(
        sent,
        received + r.totals.fault_dropped_bytes,
        "{label}: byte conservation"
    );
    assert_eq!(r.totals.uploaded_total(), sent, "{label}: totals agree");

    for p in &r.peers {
        assert!(
            p.bytes_received_usable <= p.bytes_received_raw,
            "{label}: usable ≤ raw for {:?}",
            p.id
        );
        if let Some(ct) = p.completion_s {
            assert!(ct >= 0.0);
            assert!(
                p.bytes_received_usable + p.bytes_inherited >= config.file.size_bytes(),
                "{label}: completed peer received (or inherited) a full file"
            );
            assert!(
                p.bootstrap_s.is_some(),
                "{label}: completion implies bootstrap"
            );
            assert!(
                p.bootstrap_s.unwrap() <= ct,
                "{label}: bootstrap before completion"
            );
        }
    }

    let susc = r.final_susceptibility();
    assert!(
        (0.0..=1.0).contains(&susc),
        "{label}: susceptibility {susc}"
    );
    assert!(
        r.totals.freerider_received_from_peers <= r.totals.freerider_received_usable,
        "{label}: peer-sourced ≤ total usable"
    );

    // Time series sanity: monotone nondecreasing cumulative fractions.
    for series in [&r.bootstrapped_frac, &r.completed_frac] {
        let pts = series.points();
        for w in pts.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e-12,
                "{label}: fraction series monotone"
            );
        }
        for &(_, v) in pts {
            assert!(
                (0.0..=1.0 + 1e-12).contains(&v),
                "{label}: fraction in range"
            );
        }
    }
}

#[test]
fn invariants_hold_without_attacks() {
    for kind in MechanismKind::EXTENDED {
        let (r, config) = run(kind, None, 3);
        assert_invariants(&r, &config, kind.name());
    }
}

#[test]
fn invariants_hold_under_worst_attacks() {
    for kind in MechanismKind::EXTENDED {
        let plan = AttackPlan::most_effective(kind, 0.25);
        let (r, config) = run(kind, Some(plan), 4);
        assert_invariants(&r, &config, kind.name());
    }
}

#[test]
fn invariants_hold_under_large_view_and_whitewash() {
    for kind in [MechanismKind::FairTorrent, MechanismKind::Altruism] {
        let mut plan = AttackPlan::with_large_view(kind, 0.25);
        plan.whitewash_interval = Some(7);
        let (r, config) = run(kind, Some(plan), 5);
        assert_invariants(&r, &config, kind.name());
        // Whitewashing spawned successor identities.
        assert!(r.peers.len() > 16, "{kind}: successors exist");
    }
}

#[test]
fn bytes_conserved_under_faults_and_reconciled_with_telemetry() {
    // Under fault injection, Eq. (1) gains one term: bytes the sender paid
    // for but a fault dropped in transit. Conservation then reads
    //   uploaded = received_raw + fault_dropped_bytes,
    // and the dropped total must agree exactly with the telemetry layer's
    // fault counters — two independent accountings of the same events.
    let plan = FaultPlan::churn(0.01).with_outages(0.5, 3).with_loss(0.2);
    for kind in [
        MechanismKind::Altruism,
        MechanismKind::BitTorrent,
        MechanismKind::TChain,
    ] {
        let mut config = SwarmConfig::tiny_test();
        config.seed = 12;
        let population = flash_crowd(&config, 16, kind, 12);
        let (r, report) = Simulation::builder(config)
            .population(population)
            .fault_plan(plan)
            .recorder(Recorder::enabled(TelemetryConfig::default()))
            .build()
            .unwrap()
            .run_traced();

        let sent: u64 =
            r.peers.iter().map(|p| p.bytes_sent).sum::<u64>() + r.totals.uploaded_seeder;
        let received: u64 = r.peers.iter().map(|p| p.bytes_received_raw).sum();
        assert_eq!(
            sent,
            received + r.totals.fault_dropped_bytes,
            "{kind}: conservation with the fault-drop term"
        );
        assert!(
            r.totals.fault_dropped_bytes > 0,
            "{kind}: a 20% loss rate drops something"
        );

        let counter = |name: &str| -> u64 {
            report
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };
        assert_eq!(
            counter("swarm.fault.dropped_bytes"),
            r.totals.fault_dropped_bytes,
            "{kind}: telemetry agrees with the totals ledger"
        );
        assert!(counter("swarm.fault.drops") > 0, "{kind}");
        assert!(
            counter("swarm.fault.departures") > 0,
            "{kind}: churn departed someone"
        );
        assert!(
            counter("swarm.fault.events") >= counter("swarm.fault.departures"),
            "{kind}: every departure is a fault event"
        );
    }
}

#[test]
fn epoch_boundaries_conserve_bytes_under_faults() {
    // Epoch settlement only moves *reward balances*; bytes still settle
    // through the per-transfer entry point. So Eq. (1) with the
    // fault-drop term must hold exactly across epoch boundaries even
    // when contributors churn out or fall into outages mid-epoch — a
    // departed peer's unspent balance is forfeited, never paid twice,
    // and never manifests as phantom bytes. The settlement counters
    // prove boundaries actually fired inside the faulted run.
    let plan = FaultPlan::churn(0.01).with_outages(0.5, 3).with_loss(0.2);
    let mut config = SwarmConfig::tiny_test();
    config.seed = 12;
    config.mechanism_params.epoch_rounds = 4;
    let population = flash_crowd(&config, 16, MechanismKind::EpochSettlement, 12);
    let (r, report) = Simulation::builder(config.clone())
        .population(population)
        .fault_plan(plan)
        .recorder(Recorder::enabled(TelemetryConfig::default()))
        .build()
        .unwrap()
        .run_traced();

    let sent: u64 = r.peers.iter().map(|p| p.bytes_sent).sum::<u64>() + r.totals.uploaded_seeder;
    let received: u64 = r.peers.iter().map(|p| p.bytes_received_raw).sum();
    assert_eq!(
        sent,
        received + r.totals.fault_dropped_bytes,
        "conservation with the fault-drop term across epoch boundaries"
    );
    assert!(
        r.totals.fault_dropped_bytes > 0,
        "a 20% loss rate drops something"
    );
    assert_invariants(&r, &config, "EpochSettlement+faults");

    let counter = |name: &str| -> u64 {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    let settlements = counter("swarm.epoch.settlements");
    let boundaries = counter("swarm.epoch.boundaries");
    assert!(
        boundaries > 1,
        "several epoch boundaries inside the faulted run"
    );
    assert!(
        settlements >= boundaries,
        "each boundary settles at least one peer ({settlements} < {boundaries})"
    );
    assert!(
        counter("swarm.fault.departures") > 0,
        "churn departed someone mid-epoch"
    );
}

#[test]
fn epoch_settlement_sharded_boundary_pass_is_byte_identical() {
    // The sharded epoch hook pass only engages above `SHARD_MIN_ITEMS`
    // (256) active peers, so this cell runs a 300-peer swarm with a
    // short cadence (boundaries fire while the population is still
    // full) and a fault plan (departures inside epochs). Results must
    // be bit-identical for any shard count — sharding, like `--jobs`,
    // is a wall-clock lever, never a semantics lever.
    let build = |shards: usize| {
        let mut config = SwarmConfig::tiny_test();
        config.seed = 9;
        config.mechanism_params.epoch_rounds = 4;
        let population = flash_crowd(&config, 300, MechanismKind::EpochSettlement, 9);
        let mut builder = Simulation::builder(config)
            .population(population)
            .fault_plan(FaultPlan::churn(0.005).with_loss(0.1));
        if shards > 1 {
            builder = builder.shards(shards);
        }
        builder.build().unwrap().run()
    };
    let unsharded = build(1);
    let sharded = build(4);
    assert_eq!(
        unsharded, sharded,
        "shards=4 changed an epoch-settled result"
    );
}

#[test]
fn freeriders_upload_nothing() {
    for kind in MechanismKind::EXTENDED {
        let (r, _) = run(kind, Some(AttackPlan::simple(0.25)), 6);
        for p in r.freeriders() {
            assert_eq!(p.bytes_sent, 0, "{kind}: free-riders never upload");
        }
        assert_eq!(r.totals.uploaded_freeriders, 0, "{kind}");
    }
}
