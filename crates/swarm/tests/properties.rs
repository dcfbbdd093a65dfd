//! Property-based tests for the swarm simulator: invariants that must hold
//! for random configurations, populations and seeds.

use coop_des::Duration;
use coop_incentives::analysis::capacity::CapacityClassMix;
use coop_incentives::{GrantReason, MechanismKind, PeerId};
use coop_piece::FileSpec;
use coop_swarm::{
    flash_crowd_with, FaultEvent, FaultKind, FaultSchedule, InFlight, PeerTags, SimResult,
    Simulation, SimulationBuilder, SwarmConfig, TransferTable, SEEDER_ID,
};
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = MechanismKind> {
    prop_oneof![
        Just(MechanismKind::Reciprocity),
        Just(MechanismKind::TChain),
        Just(MechanismKind::BitTorrent),
        Just(MechanismKind::FairTorrent),
        Just(MechanismKind::Reputation),
        Just(MechanismKind::Altruism),
    ]
}

fn small_config(seed: u64, pieces: u32, rounds: u64) -> SwarmConfig {
    let mut c = SwarmConfig::tiny_test();
    c.seed = seed;
    c.file = FileSpec::new(u64::from(pieces) * 4096, 4096);
    c.max_rounds = rounds;
    c
}

fn run(kind: MechanismKind, seed: u64, n: usize, pieces: u32, rounds: u64) -> SimResult {
    let config = small_config(seed, pieces, rounds);
    let population = flash_crowd_with(
        &config,
        n,
        kind,
        seed,
        &CapacityClassMix::paper_default(),
        Duration::from_secs(5),
    );
    Simulation::builder(config)
        .population(population)
        .build()
        .unwrap()
        .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Eq. (1) holds for any mechanism, population size, piece count and
    /// seed: bytes sent equal bytes received.
    #[test]
    fn bytes_conserved(
        kind in kind_strategy(),
        seed in 0u64..1000,
        n in 3usize..14,
        pieces in 4u32..24,
    ) {
        let r = run(kind, seed, n, pieces, 120);
        let sent: u64 = r.peers.iter().map(|p| p.bytes_sent).sum::<u64>()
            + r.totals.uploaded_seeder;
        let received: u64 = r.peers.iter().map(|p| p.bytes_received_raw).sum();
        prop_assert_eq!(sent, received);
        prop_assert_eq!(r.totals.uploaded_total(), sent);
    }

    /// Per-peer sanity for any run: usable ≤ raw, bootstrap ≤ completion,
    /// nonnegative times, completed peers hold a full file.
    #[test]
    fn peer_records_consistent(
        kind in kind_strategy(),
        seed in 0u64..1000,
        n in 3usize..14,
    ) {
        let config_size = small_config(seed, 12, 240).file.size_bytes();
        let r = run(kind, seed, n, 12, 240);
        for p in &r.peers {
            prop_assert!(p.bytes_received_usable <= p.bytes_received_raw);
            if let (Some(b), Some(c)) = (p.bootstrap_s, p.completion_s) {
                prop_assert!(b <= c);
                prop_assert!(b >= 0.0);
            }
            if p.completion_s.is_some() {
                prop_assert!(
                    p.bytes_received_usable + p.bytes_inherited >= config_size
                );
            }
        }
    }

    /// Reciprocity never moves a peer byte, regardless of configuration.
    #[test]
    fn reciprocity_total_silence(seed in 0u64..1000, n in 3usize..14) {
        let r = run(MechanismKind::Reciprocity, seed, n, 12, 120);
        for p in &r.peers {
            prop_assert_eq!(p.bytes_sent, 0);
        }
        prop_assert_eq!(r.totals.uploaded_compliant, 0);
    }

    /// Determinism across the whole random configuration space.
    #[test]
    fn runs_are_reproducible(
        kind in kind_strategy(),
        seed in 0u64..1000,
        n in 3usize..10,
    ) {
        let a = run(kind, seed, n, 8, 100);
        let b = run(kind, seed, n, 8, 100);
        let fp = |r: &SimResult| -> Vec<(u64, u64)> {
            r.peers.iter().map(|p| (p.bytes_sent, p.bytes_received_raw)).collect()
        };
        prop_assert_eq!(fp(&a), fp(&b));
        prop_assert_eq!(a.rounds_run, b.rounds_run);
    }

    /// Free-riders (with arbitrary capability tags) never upload and never
    /// receive more usable than raw bytes; susceptibility stays in [0, 1].
    #[test]
    fn freerider_accounting(
        kind in kind_strategy(),
        seed in 0u64..1000,
        large_view in any::<bool>(),
        collude in any::<bool>(),
        whitewash in proptest::option::of(3u64..20),
    ) {
        let config = small_config(seed, 10, 150);
        let mut population = flash_crowd_with(
            &config,
            10,
            kind,
            seed,
            &CapacityClassMix::paper_default(),
            Duration::from_secs(5),
        );
        for spec in population.iter_mut().take(3) {
            spec.tags = PeerTags {
                compliant: false,
                large_view,
                collusion_ring: if collude { Some(1) } else { None },
                whitewash_interval: whitewash,
                fake_praise_bytes: if collude { 8192 } else { 0 },
                ..PeerTags::compliant()
            };
            spec.mechanism = Box::new(move || Box::new(coop_attacks::FreeRider::new(kind)));
        }
        let r = Simulation::builder(config)
        .population(population)
        .build()
        .unwrap()
        .run();
        let susc = r.final_susceptibility();
        prop_assert!((0.0..=1.0).contains(&susc));
        prop_assert_eq!(r.totals.uploaded_freeriders, 0);
        prop_assert!(
            r.totals.freerider_received_from_peers <= r.totals.freerider_received_usable
        );
    }
}

/// A staggered population whose peers may be large-view, whitewashing
/// and/or free-riding (`tag_bits[i]` bits 0, 1, 2), with at most one fault
/// per peer (`faults[i]`: 2 = churn departure, 3 = a three-round outage,
/// anything else none) the given number of rounds after its arrival.
fn churning_builder(
    kind: MechanismKind,
    seed: u64,
    n: usize,
    window_s: u64,
    tag_bits: &[u8],
    faults: &[(u8, u64)],
) -> SimulationBuilder {
    let config = small_config(seed, 12, 60);
    let mut population = flash_crowd_with(
        &config,
        n,
        kind,
        seed,
        &CapacityClassMix::paper_default(),
        Duration::from_secs(window_s),
    );
    for (spec, &bits) in population.iter_mut().zip(tag_bits) {
        let whitewash = bits & 2 != 0;
        spec.tags.large_view = bits & 1 != 0;
        if whitewash || bits & 4 != 0 {
            spec.tags.compliant = false;
            spec.tags.whitewash_interval = whitewash.then_some(3);
            spec.mechanism = Box::new(move || Box::new(coop_attacks::FreeRider::new(kind)));
        }
    }
    let rounds = coop_des::RoundDriver::new(config.round);
    let mut events = Vec::new();
    for (peer, &(code, after)) in faults.iter().enumerate().take(n) {
        let round = rounds.round_of(population[peer].arrival) + after;
        match code {
            2 => events.push(FaultEvent {
                round,
                peer,
                kind: FaultKind::Depart,
            }),
            3 => {
                events.push(FaultEvent {
                    round,
                    peer,
                    kind: FaultKind::OutageStart,
                });
                events.push(FaultEvent {
                    round: round + 3,
                    peer,
                    kind: FaultKind::OutageEnd,
                });
            }
            _ => {}
        }
    }
    Simulation::builder(config)
        .population(population)
        .fault_schedule(FaultSchedule::from_events(events, 0.0, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arrival-time neighbor pools are read off the packed peer flags, not
    /// the peer structs. After any mix of staggered spawns, completions,
    /// churn departures, whitewash identity rotations and outages, the
    /// flag fill must list exactly the active peers a scan of the structs
    /// finds, in ascending id order, and its large-view subset must match
    /// the structs' `large_view` tags. Checked on mid-run checkpoints
    /// restored onto fresh simulations.
    #[test]
    fn soa_active_pool_matches_peer_scan(
        kind in kind_strategy(),
        seed in 0u64..1000,
        n in 6usize..24,
        window_s in 1u64..30,
        every in 2u64..9,
        tag_bits in proptest::collection::vec(0u8..8, 24),
        faults in proptest::collection::vec((0u8..4, 1u64..20), 24),
    ) {
        let build = || churning_builder(kind, seed, n, window_s, &tag_bits, &faults);
        let (_, _, log) = build().checkpoint_every(every).build().unwrap().run_checkpointed();
        for ckpt in log.first().into_iter().chain(log.latest()) {
            let sim = build().build().unwrap().restore(ckpt).unwrap();
            let scan: Vec<PeerId> = (0..sim.peer_slots())
                .map(|i| PeerId::new(i as u32))
                .filter(|&id| sim.is_active(id))
                .collect();
            let large_view: Vec<PeerId> = scan
                .iter()
                .copied()
                .filter(|&id| sim.peer(id).tags.large_view)
                .collect();
            let (pool, pool_large_view) = sim.active_pool();
            prop_assert_eq!(pool, scan, "round {}", ckpt.round());
            prop_assert_eq!(pool_large_view, large_view, "round {}", ckpt.round());
        }
    }
}

/// The per-piece interest definition the fused word pass must reproduce:
/// `who` needs something from `from` when a transfer between them is
/// already in flight, or when some piece is absent at `who`, offered by
/// `from` and not yet in flight toward `who`. The seeder offers every
/// piece (its field is the run-compressed `Bitfield::full`) and stays
/// online, since these schedules never fail it.
fn needs_per_piece(sim: &Simulation, who: PeerId, from: PeerId) -> bool {
    if who == from || !sim.is_online(who) {
        return false;
    }
    if sim.has_transfer(from, who) {
        return true;
    }
    if from != SEEDER_ID && !sim.is_online(from) {
        return false;
    }
    let w = sim.peer(who);
    (0..w.absent().len()).any(|p| {
        w.absent().get(p)
            && !w.inflight().get(p)
            && (from == SEEDER_ID || sim.peer(from).offer().get(p))
    })
}

/// One `TransferTable` operation: `(op, a, b, x)` with peers drawn from a
/// small id range so pairs collide often.
fn transfer_op() -> impl Strategy<Value = (u8, u32, u32, u64)> {
    (0u8..8, 0u32..6, 0u32..6, 1u64..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Simulation::needs` answers with one fused pass over the words of
    /// `absent`, `offer` and `inflight`. On mid-run checkpoints of churning,
    /// whitewashing populations it must agree with the per-piece
    /// definition for every ordered pair, the seeder included as a source,
    /// whose run-compressed `Bitfield::full` field is then an operand.
    #[test]
    fn fused_interest_matches_per_piece_definition(
        kind in kind_strategy(),
        seed in 0u64..1000,
        n in 6usize..24,
        window_s in 1u64..30,
        every in 2u64..9,
        tag_bits in proptest::collection::vec(0u8..8, 24),
        faults in proptest::collection::vec((0u8..4, 1u64..20), 24),
    ) {
        let build = || churning_builder(kind, seed, n, window_s, &tag_bits, &faults);
        let (_, _, log) = build().checkpoint_every(every).build().unwrap().run_checkpointed();
        for ckpt in log.first().into_iter().chain(log.latest()) {
            let sim = build().build().unwrap().restore(ckpt).unwrap();
            let ids: Vec<PeerId> = (0..sim.peer_slots() as u32).map(PeerId::new).collect();
            for &who in &ids {
                for &from in ids.iter().chain([&SEEDER_ID]) {
                    prop_assert_eq!(
                        sim.needs(who, from),
                        needs_per_piece(&sim, who, from),
                        "round {}: {} from {}", ckpt.round(), who, from
                    );
                }
            }
        }
    }

    /// `TransferTable` against a plain pair-list oracle under random
    /// start / progress / drain_stalled / drop_peer sequences. Lookups and
    /// lengths must match, `drop_peer` and `drain_stalled` must return
    /// exactly the oracle's pairs in pair order, and `targets_into` must be
    /// ascending and equal a model of the uploader index, which keeps a
    /// target after `drain_stalled` until that pair completes or drops.
    #[test]
    fn transfer_table_matches_pair_list_oracle(
        ops in proptest::collection::vec(transfer_op(), 1..120),
    ) {
        use std::collections::{BTreeMap, BTreeSet};
        let flight = |piece: u32, round: u64| InFlight {
            piece,
            piece_len: 100,
            bytes_done: 0,
            condition: None,
            reason: GrantReason::Altruism,
            last_progress_round: round,
        };
        let mut table = TransferTable::new();
        let mut oracle: Vec<((PeerId, PeerId), InFlight)> = Vec::new();
        let mut index: BTreeMap<PeerId, BTreeSet<PeerId>> = BTreeMap::new();
        let unindex = |index: &mut BTreeMap<PeerId, BTreeSet<PeerId>>, (f, t): (PeerId, PeerId)| {
            if let Some(set) = index.get_mut(&f) {
                set.remove(&t);
                if set.is_empty() {
                    index.remove(&f);
                }
            }
        };
        for (round, &(op, a, b, x)) in ops.iter().enumerate() {
            let round = round as u64;
            let (a, b) = (PeerId::new(a), PeerId::new(b));
            let pos = oracle.iter().position(|(k, _)| *k == (a, b));
            match op {
                0..=2 if a != b && pos.is_none() => {
                    table.start(a, b, flight(x as u32, round));
                    oracle.push(((a, b), flight(x as u32, round)));
                    index.entry(a).or_default().insert(b);
                }
                3..=4 if pos.is_some() => {
                    let i = pos.unwrap();
                    let bytes = x.min(oracle[i].1.remaining());
                    let done = table.progress(a, b, bytes, round);
                    oracle[i].1.bytes_done += bytes;
                    oracle[i].1.last_progress_round = round;
                    if oracle[i].1.remaining() == 0 {
                        let (k, fl) = oracle.remove(i);
                        prop_assert_eq!(done, Some(fl));
                        unindex(&mut index, k);
                    } else {
                        prop_assert_eq!(done, None);
                    }
                }
                5 => {
                    let before = round.saturating_sub(x % 8);
                    let mut want: Vec<_> = oracle
                        .iter()
                        .filter(|(_, fl)| fl.last_progress_round < before)
                        .copied()
                        .collect();
                    want.sort_by_key(|(k, _)| *k);
                    oracle.retain(|(_, fl)| fl.last_progress_round >= before);
                    prop_assert_eq!(table.drain_stalled(before), want);
                }
                6..=7 => {
                    let mut want: Vec<_> = oracle
                        .iter()
                        .filter(|((f, t), _)| *f == a || *t == a)
                        .copied()
                        .collect();
                    want.sort_by_key(|(k, _)| *k);
                    oracle.retain(|((f, t), _)| *f != a && *t != a);
                    for &(k, _) in &want {
                        unindex(&mut index, k);
                    }
                    prop_assert_eq!(table.drop_peer(a), want);
                }
                _ => {}
            }
            prop_assert_eq!(table.len(), oracle.len());
            for &((f, t), fl) in &oracle {
                prop_assert_eq!(table.get(f, t), Some(&fl));
            }
            for id in 0..6 {
                let up = PeerId::new(id);
                let mut targets = vec![PeerId::new(99)];
                table.targets_into(up, &mut targets);
                prop_assert!(targets.windows(2).all(|w| w[0] < w[1]), "{:?}", targets);
                let model: Vec<PeerId> =
                    index.get(&up).map(|s| s.iter().copied().collect()).unwrap_or_default();
                prop_assert_eq!(targets, model);
            }
            let mut uploaders: Vec<PeerId> = table.uploaders().collect();
            uploaders.sort();
            prop_assert_eq!(uploaders, index.keys().copied().collect::<Vec<_>>());
        }
    }
}
