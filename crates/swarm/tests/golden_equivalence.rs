//! Golden-value regression tests for the round hot path.
//!
//! Each test pins a fingerprint of a fixed-seed run. The fingerprint folds
//! in every observable byte count, completion time, and totals field, so
//! any change to allocation order, RNG consumption, or piece selection
//! shows up as a mismatch. Hot-path optimizations (the `pick_piece`
//! scratch buffers, per-round candidate precomputation) are required to
//! keep these bit-identical: they may only change *how* the same numbers
//! are produced, never the numbers.
//!
//! If a fingerprint changes because simulation *semantics* intentionally
//! changed, re-pin the constants and say why in the commit message.

use coop_attacks::{apply_attack, AttackPlan, FreeRider};
use coop_des::Duration;
use coop_incentives::analysis::capacity::CapacityClassMix;
use coop_incentives::MechanismKind;
use coop_swarm::{
    flash_crowd_with, FaultSchedule, PeerSpec, PeerTags, SimResult, Simulation, SimulationBuilder,
    SwarmConfig,
};

/// FNV-1a accumulator: tiny, dependency-free, and stable across platforms.
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

/// Folds every externally observable number in a [`SimResult`] into one
/// value. Two results with equal fingerprints are byte-identical for the
/// purposes of every figure and table in the workspace.
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

/// A mixed scenario that walks every hot path: compliant peers, a
/// large-view free-rider, a whitewashing free-rider, and a two-member
/// collusion ring, under one mechanism.
fn scenario(kind: MechanismKind, seed: u64) -> SimResult {
    scenario_with_faults(kind, seed, None)
}

fn scenario_with_faults(
    kind: MechanismKind,
    seed: u64,
    faults: Option<FaultSchedule>,
) -> SimResult {
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
    let mut builder = Simulation::builder(config).population(pop);
    if let Some(faults) = faults {
        builder = builder.fault_schedule(faults);
    }
    builder.build().unwrap().run()
}

/// Pinned fingerprints for seed 42, one per mechanism, in
/// [`MechanismKind::ALL`] order. Regenerate by running this test and
/// copying the values from the failure message.
const GOLDEN: [u64; 6] = [
    0xe647_d9a2_5942_dd97,
    0x4dc7_f772_bf4d_dc1e,
    0xaff1_6357_0ced_c84f,
    0x120e_7c42_7faf_ce09,
    0xd63b_074e_2427_a6d8,
    0x322b_a4a6_b3b0_7ed7,
];

#[test]
fn fixed_seed_fingerprints_are_stable() {
    let actual: Vec<u64> = MechanismKind::ALL
        .iter()
        .map(|&kind| fingerprint(&scenario(kind, 42)))
        .collect();
    assert_eq!(
        actual,
        GOLDEN.to_vec(),
        "hot-path fingerprints changed; actual values (ALL order): {actual:#x?}"
    );
}

/// Running the same scenario twice must be deterministic — this guards the
/// fingerprint test itself against accidental nondeterminism (e.g. hash-map
/// iteration sneaking into the round loop).
#[test]
fn same_seed_same_fingerprint() {
    let a = fingerprint(&scenario(MechanismKind::FairTorrent, 7));
    let b = fingerprint(&scenario(MechanismKind::FairTorrent, 7));
    assert_eq!(a, b);
}

/// An empty fault schedule is the identity: attaching one must reproduce
/// the exact golden fingerprints of the schedule-free runs — the fault
/// layer may not perturb a single branch of the fault-free hot path.
#[test]
fn empty_fault_schedule_matches_goldens() {
    let actual: Vec<u64> = MechanismKind::ALL
        .iter()
        .map(|&kind| {
            fingerprint(&scenario_with_faults(
                kind,
                42,
                Some(FaultSchedule::empty()),
            ))
        })
        .collect();
    assert_eq!(
        actual,
        GOLDEN.to_vec(),
        "an empty fault schedule changed the hot path"
    );
}

/// A consensus-reputation crowd under the combined adaptive attack
/// ([`AttackPlan::adaptive_mix`]: defectors, report stuffers and ban
/// evaders) plus one large-view whitewashing free-rider. It walks the
/// three paths arrival-time neighbor pools must honour: banned peers are
/// kept out of a newcomer's pool, whitewash successors keep the
/// large-view tag (so later arrivals still connect to them), and a
/// checkpoint restore carries the peer flags the pools are read from.
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
    // The earliest compliant arrival turns large-view whitewasher, so its
    // successors overlap the rest of the arrival window.
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

/// Pinned fingerprint of [`consensus_builder`] at seed 42.
const CONSENSUS_GOLDEN: u64 = 0xe83c_ff85_0da0_38ed;

#[test]
fn consensus_large_view_whitewash_cell_is_stable() {
    let straight = consensus_builder(42).build().unwrap().run();
    let summary = straight.consensus.expect("consensus summary present");
    assert!(
        summary.bans_temp + summary.bans_perm > 0,
        "the cell must ban someone, or ban filtering goes unexercised"
    );
    assert!(straight.peers.len() > 30, "no whitewash successor spawned");
    assert_eq!(
        fingerprint(&straight),
        CONSENSUS_GOLDEN,
        "consensus cell fingerprint changed: {:#x}",
        fingerprint(&straight)
    );
    let (checkpointed, _report, log) = consensus_builder(42)
        .checkpoint_every(4)
        .build()
        .unwrap()
        .run_checkpointed();
    assert_eq!(straight, checkpointed, "checkpoint cadence changed results");
    for ckpt in [log.first().unwrap(), log.latest().unwrap()] {
        let resumed = consensus_builder(42)
            .build()
            .unwrap()
            .restore(ckpt)
            .unwrap()
            .run();
        assert_eq!(
            fingerprint(&resumed),
            CONSENSUS_GOLDEN,
            "resume from round {} diverged",
            ckpt.round()
        );
    }
}
