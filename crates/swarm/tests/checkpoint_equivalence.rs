//! Checkpoint/restore equivalence battery.
//!
//! Pins the crash-safety contract of [`SimCheckpoint`]: for every
//! mechanism, (a) running with any checkpoint cadence yields results
//! identical to the cadence-free run — including the pre-existing golden
//! fingerprints from `golden_equivalence.rs` — and (b) restoring a
//! mid-run checkpoint onto a freshly built simulation and finishing
//! yields a [`SimResult`] exactly equal to the straight-through run's.
//! The scenario deliberately reuses the golden battery's mixed
//! population (large-view, whitewashing, and colluding free-riders) so
//! the snapshot covers attack state, and one case checkpoints across a
//! fault-schedule boundary to cover the fault cursor. Two cases restore
//! where the derived adjacency state matters most: mid flash crowd, and
//! right after a consensus ban. A restore rebuilds the candidate rows
//! and the ledger-window list, so those runs must also reproduce the
//! straight run's visit work and adjacency rebuild count.

use coop_attacks::{apply_attack, AttackPlan, FreeRider};
use coop_des::Duration;
use coop_incentives::analysis::capacity::CapacityClassMix;
use coop_incentives::{MechanismKind, PeerId};
use coop_swarm::{
    flash_crowd_with, CheckpointError, FaultEvent, FaultKind, FaultSchedule, PeerSpec, PeerTags,
    SimResult, Simulation, SimulationBuilder, SwarmConfig,
};
use coop_telemetry::profile::work;
use coop_telemetry::{Category, Recorder, TelemetryConfig, TelemetryReport, TraceEvent};

/// FNV-1a accumulator, identical to `golden_equivalence.rs`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn f(&mut self, v: f64) {
        self.u(v.to_bits());
    }

    fn opt_f(&mut self, v: Option<f64>) {
        match v {
            Some(x) => self.f(x),
            None => self.u(u64::MAX),
        }
    }
}

fn fingerprint(r: &SimResult) -> u64 {
    let mut h = Fnv::new();
    h.u(r.rounds_run);
    h.f(r.sim_seconds);
    h.u(r.peers.len() as u64);
    for p in &r.peers {
        h.u(u64::from(p.id.index()));
        h.f(p.capacity_bps);
        h.u(u64::from(p.compliant));
        h.f(p.arrival_s);
        h.opt_f(p.bootstrap_s);
        h.opt_f(p.completion_s);
        h.u(p.bytes_sent);
        h.u(p.bytes_received_usable);
        h.u(p.bytes_received_raw);
        h.u(p.bytes_inherited);
    }
    let t = &r.totals;
    h.u(t.uploaded_compliant);
    h.u(t.uploaded_freeriders);
    h.u(t.uploaded_seeder);
    h.u(t.freerider_received_usable);
    h.u(t.freerider_received_raw);
    h.u(t.freerider_received_from_peers);
    h.u(t.aborted_bytes);
    for &b in &t.bytes_by_reason {
        h.u(b);
    }
    for series in [
        &r.fairness_avg,
        &r.fairness_stat,
        &r.bootstrapped_frac,
        &r.completed_frac,
        &r.susceptibility,
        &r.diversity,
    ] {
        for &(t, v) in series.points() {
            h.f(t);
            h.f(v);
        }
    }
    h.0
}

/// The pinned golden fingerprints from `golden_equivalence.rs` (seed 42,
/// [`MechanismKind::ALL`] order). Checkpointed runs must reproduce them
/// exactly — checkpointing may never perturb results.
const GOLDEN: [u64; 6] = [
    0xe647_d9a2_5942_dd97,
    0x4dc7_f772_bf4d_dc1e,
    0xaff1_6357_0ced_c84f,
    0x120e_7c42_7faf_ce09,
    0xd63b_074e_2427_a6d8,
    0x322b_a4a6_b3b0_7ed7,
];

/// The golden battery's mixed scenario, reconstructed identically on
/// every call (restore targets must be built from the same inputs).
fn scenario_builder(kind: MechanismKind, seed: u64) -> SimulationBuilder {
    let mut config = SwarmConfig::tiny_test();
    config.seed = seed;
    config.neighbor_degree = 4;
    config.max_rounds = 40;
    let mut pop: Vec<PeerSpec> = flash_crowd_with(
        &config,
        14,
        kind,
        seed,
        &CapacityClassMix::paper_default(),
        Duration::from_secs(3),
    );
    let freerider_tags = [
        PeerTags {
            compliant: false,
            large_view: true,
            ..PeerTags::compliant()
        },
        PeerTags {
            compliant: false,
            whitewash_interval: Some(5),
            ..PeerTags::compliant()
        },
        PeerTags {
            compliant: false,
            collusion_ring: Some(0),
            ..PeerTags::compliant()
        },
        PeerTags {
            compliant: false,
            collusion_ring: Some(0),
            ..PeerTags::compliant()
        },
    ];
    for (spec, tags) in pop.iter_mut().zip(freerider_tags) {
        spec.tags = tags;
        spec.mechanism = Box::new(move || Box::new(FreeRider::new(kind)));
    }
    Simulation::builder(config).population(pop)
}

#[test]
fn checkpointed_runs_reproduce_the_golden_fingerprints() {
    for (i, &kind) in MechanismKind::ALL.iter().enumerate() {
        let (result, _report, log) = scenario_builder(kind, 42)
            .checkpoint_every(3)
            .build()
            .unwrap()
            .run_checkpointed();
        assert!(log.taken() > 0, "{kind:?}: no checkpoints captured");
        assert_eq!(
            fingerprint(&result),
            GOLDEN[i],
            "{kind:?}: checkpointing perturbed the run"
        );
    }
}

/// Pieces currently in flight toward any peer of `sim`.
fn fetches_in_flight(sim: &Simulation) -> u32 {
    (0..sim.peer_slots() as u32)
        .map(|i| sim.peer(PeerId::new(i)).inflight().count_ones())
        .sum()
}

#[test]
fn restore_then_finish_equals_straight_run_for_every_mechanism() {
    // Work counters ride on the telemetry report, so the straight and
    // resumed runs carry recorders. Equal visit counts show the
    // checkpoint keeps both mark grades apart: a dropped revisit set
    // drifts results, one folded into the CSR-expanded dirty set
    // visits more peers.
    let work_of = |report: &TelemetryReport| {
        (
            report.counter(work::PEERS_VISITED),
            report.counter(work::CANDIDATE_SCANS),
        )
    };
    for &kind in &MechanismKind::ALL {
        let (straight, straight_report) = scenario_builder(kind, 42)
            .recorder(traced())
            .build()
            .unwrap()
            .run_traced();
        let (checkpointed, _report, log) = scenario_builder(kind, 42)
            .checkpoint_every(4)
            .build()
            .unwrap()
            .run_checkpointed();
        assert_eq!(straight, checkpointed, "{kind:?}: cadence changed results");
        for (i, ckpt) in [log.first().unwrap(), log.latest().unwrap()]
            .into_iter()
            .enumerate()
        {
            let restored = scenario_builder(kind, 42)
                .recorder(traced())
                .build()
                .unwrap()
                .restore(ckpt)
                .unwrap_or_else(|e| panic!("{kind:?}: restore failed: {e}"));
            // The first checkpoint lands mid-transfer: pieces are in
            // flight, so the restored interest rows must carry the
            // in-flight bits, not just the held pieces.
            if i == 0 {
                assert!(
                    fetches_in_flight(&restored) > 0,
                    "{kind:?}: the round-{} checkpoint holds no transfer in flight",
                    ckpt.round()
                );
            }
            let (resumed, resumed_report) = restored.run_traced();
            assert_eq!(
                straight,
                resumed,
                "{kind:?}: resume from round {} diverged",
                ckpt.round()
            );
            assert_eq!(
                work_of(&straight_report),
                work_of(&resumed_report),
                "{kind:?}: resume from round {} changed (peers_visited, candidate_scans)",
                ckpt.round()
            );
        }
    }
}

/// A recorder that keeps every counter and event.
fn traced() -> Recorder {
    Recorder::enabled(TelemetryConfig::default())
}

/// What a restored run must reproduce beyond its results: the visit
/// sets' work (built from the rebuilt candidate rows) and the number of
/// refreshes that re-filtered candidate rows.
fn adjacency_work(report: &TelemetryReport) -> [u64; 3] {
    [
        report.counter(work::PEERS_VISITED),
        report.counter(work::CANDIDATE_SCANS),
        report.counter("swarm.adjacency.rebuilds"),
    ]
}

#[test]
fn restore_during_the_flash_crowd_equals_straight_run() {
    // The first checkpoint lands while arrivals are still pending, so the
    // restored run draws the remaining newcomers' neighbors from a
    // rebuilt active list, replenishes from the checkpointed neighbor
    // rows, serves rebuilt candidate rows and rolls the ledgers on a
    // rebuilt window list. All must match what the straight run held at
    // that round.
    let population = 14;
    for &kind in &MechanismKind::ALL {
        let (straight, straight_report) = scenario_builder(kind, 42)
            .recorder(traced())
            .build()
            .unwrap()
            .run_traced();
        let (_, _, log) = scenario_builder(kind, 42)
            .checkpoint_every(1)
            .build()
            .unwrap()
            .run_checkpointed();
        let ckpt = log.first().unwrap();
        let restored = scenario_builder(kind, 42)
            .recorder(traced())
            .build()
            .unwrap()
            .restore(ckpt)
            .unwrap_or_else(|e| panic!("{kind:?}: restore failed: {e}"));
        let spawned = restored.peer_slots();
        assert!(
            spawned > 1 && spawned < population,
            "{kind:?}: round-{} checkpoint has {spawned} of {population} peers spawned",
            ckpt.round()
        );
        let (resumed, resumed_report) = restored.run_traced();
        assert_eq!(
            straight,
            resumed,
            "{kind:?}: resume from round {} diverged",
            ckpt.round()
        );
        assert_eq!(
            adjacency_work(&straight_report),
            adjacency_work(&resumed_report),
            "{kind:?}: resume from round {} changed (peers_visited, candidate_scans, rebuilds)",
            ckpt.round()
        );
    }
}

/// The golden battery's consensus cell: a consensus-reputation crowd
/// under the combined adaptive attack plus one large-view whitewashing
/// free-rider (see `golden_equivalence.rs`).
fn consensus_builder(seed: u64) -> SimulationBuilder {
    let kind = MechanismKind::ConsensusReputation;
    let mut config = SwarmConfig::tiny_test();
    config.seed = seed;
    config.neighbor_degree = 4;
    config.max_rounds = 60;
    let mut pop: Vec<PeerSpec> = flash_crowd_with(
        &config,
        30,
        kind,
        seed,
        &CapacityClassMix::paper_default(),
        Duration::from_secs(20),
    );
    apply_attack(&mut pop, &AttackPlan::adaptive_mix(0.2), seed);
    let spec = pop
        .iter_mut()
        .filter(|s| s.tags.compliant)
        .min_by_key(|s| s.arrival)
        .expect("the attack leaves compliant peers");
    spec.tags = PeerTags {
        compliant: false,
        large_view: true,
        whitewash_interval: Some(5),
        ..PeerTags::compliant()
    };
    spec.mechanism = Box::new(move || Box::new(FreeRider::new(kind)));
    Simulation::builder(config).population(pop)
}

#[test]
fn restore_right_after_a_consensus_ban_equals_straight_run() {
    // Checkpoint at the boundary that closes the round of the first ban:
    // the ban has named the banned peer's rows but no refresh has
    // re-filtered them yet. The restored run's rebuilt candidate rows
    // must evict the peer exactly as the straight run's next refresh
    // does.
    let (straight, straight_report) = consensus_builder(42)
        .recorder(traced())
        .build()
        .unwrap()
        .run_traced();
    let first_ban = straight_report
        .events_in(Category::Consensus)
        .find_map(|e| match e {
            TraceEvent::ConsensusBan { round, kind, .. } if *kind != "unban" => Some(*round),
            _ => None,
        })
        .expect("the cell must ban someone");
    let (checkpointed, _report, log) = consensus_builder(42)
        .checkpoint_every(first_ban + 1)
        .build()
        .unwrap()
        .run_checkpointed();
    assert_eq!(straight, checkpointed, "checkpoint cadence changed results");
    let ckpt = log.first().unwrap();
    assert_eq!(
        ckpt.round(),
        first_ban + 1,
        "checkpoint right after the ban"
    );
    let (resumed, resumed_report) = consensus_builder(42)
        .recorder(traced())
        .build()
        .unwrap()
        .restore(ckpt)
        .unwrap()
        .run_traced();
    assert_eq!(
        straight, resumed,
        "resume after the round-{first_ban} ban diverged"
    );
    assert_eq!(
        adjacency_work(&straight_report),
        adjacency_work(&resumed_report),
        "resume after the round-{first_ban} ban changed (peers_visited, candidate_scans, rebuilds)"
    );
}

#[test]
fn restore_across_a_fault_boundary() {
    let faults = FaultSchedule::from_events(
        vec![
            FaultEvent {
                round: 6,
                peer: 4,
                kind: FaultKind::Depart,
            },
            FaultEvent {
                round: 9,
                peer: 5,
                kind: FaultKind::OutageStart,
            },
            FaultEvent {
                round: 12,
                peer: 5,
                kind: FaultKind::OutageEnd,
            },
        ],
        0.0,
        42,
    );
    let kind = MechanismKind::TChain;
    let straight = scenario_builder(kind, 42)
        .fault_schedule(faults.clone())
        .build()
        .unwrap()
        .run();
    let (checkpointed, _report, log) = scenario_builder(kind, 42)
        .fault_schedule(faults.clone())
        .checkpoint_every(4)
        .build()
        .unwrap()
        .run_checkpointed();
    assert_eq!(straight, checkpointed);
    // The first checkpoint (round 4) precedes every fault; the latest
    // follows at least the departure — both must resume identically.
    for ckpt in [log.first().unwrap(), log.latest().unwrap()] {
        let resumed = scenario_builder(kind, 42)
            .fault_schedule(faults.clone())
            .build()
            .unwrap()
            .restore(ckpt)
            .unwrap()
            .run();
        assert_eq!(
            straight,
            resumed,
            "resume from round {} diverged across the fault schedule",
            ckpt.round()
        );
    }
}

#[test]
fn restore_validates_its_target() {
    let kind = MechanismKind::BitTorrent;
    let (_result, _report, log) = scenario_builder(kind, 42)
        .checkpoint_every(4)
        .build()
        .unwrap()
        .run_checkpointed();
    let ckpt = log.first().unwrap();

    // Different config (seed differs) is rejected.
    let err = scenario_builder(kind, 43)
        .build()
        .unwrap()
        .restore(ckpt)
        .unwrap_err();
    assert_eq!(err, CheckpointError::ConfigMismatch);

    // A restored simulation is no longer fresh.
    let restored = scenario_builder(kind, 42)
        .build()
        .unwrap()
        .restore(ckpt)
        .unwrap();
    let err = restored.restore(ckpt).unwrap_err();
    assert_eq!(err, CheckpointError::NotFresh);

    // Errors render a usable message.
    assert!(err.to_string().contains("freshly built"));

    // Same config but a different population shape is rejected.
    let mut config = SwarmConfig::tiny_test();
    config.seed = 42;
    config.neighbor_degree = 4;
    config.max_rounds = 40;
    let smaller = flash_crowd_with(
        &config,
        10,
        kind,
        42,
        &CapacityClassMix::paper_default(),
        Duration::from_secs(3),
    );
    let err = Simulation::builder(config)
        .population(smaller)
        .build()
        .unwrap()
        .restore(ckpt)
        .unwrap_err();
    assert_eq!(
        err,
        CheckpointError::PopulationMismatch {
            expected: 14,
            found: 10
        }
    );
}

#[test]
fn checkpoint_log_exposes_cadence_metadata() {
    let (result, _report, log) = scenario_builder(MechanismKind::Altruism, 42)
        .checkpoint_every(5)
        .build()
        .unwrap()
        .run_checkpointed();
    let first = log.first().unwrap();
    let latest = log.latest().unwrap();
    assert_eq!(first.round(), 5, "first capture lands on the cadence");
    assert_eq!(first.round() % 5, 0);
    assert!(latest.round() <= result.rounds_run);
    assert!(first.pending_events() > 0, "a next RoundTick is queued");
    // Taken count matches the rounds that both hit the cadence and
    // scheduled a successor round.
    assert!(log.taken() >= 1);
    let debug = format!("{first:?}");
    assert!(debug.contains("SimCheckpoint"), "{debug}");
}
