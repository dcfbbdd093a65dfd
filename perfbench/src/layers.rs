//! Per-layer metrics: phase shares and work counters read from a traced
//! repetition, plus timed calls into each layer's public functions.
//!
//! Every name here is listed under `per_layer` in `BENCHMARK.json`; a
//! metric whose layer the traced workload never enters reads 0.

use std::hint::black_box;
use std::time::Instant;

use coop_des::{EventQueue, SimTime};
use coop_experiments::journal::{JobOutcome, JobRecord, RunHeader};
use coop_experiments::RunJournal;
use coop_incentives::ledger::{ContributionLedger, DeficitLedger};
use coop_incentives::{build_mechanism, MechanismKind, Obligation, PeerId, SwarmView};
use coop_piece::{AvailabilityIndex, Bitfield};
use coop_telemetry::profile::{phase, work};
use coop_telemetry::{PhaseStat, RunProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::percentile;
use crate::workload::{self, Size};

/// The swarm round-loop phases reported as a share of `sim.run` and as
/// nanoseconds per peer-round, keyed by their short metric names.
const PHASES: [(&str, &str); 11] = [
    ("arrivals", phase::SIM_ARRIVALS),
    ("identity", phase::SIM_IDENTITY),
    ("adjacency", phase::SIM_ADJACENCY),
    ("allocate", phase::SIM_ALLOCATE),
    ("dirty_scan", phase::SIM_DIRTY_SCAN),
    ("piece_pick", phase::SIM_PIECE_PICK),
    ("settle", phase::SIM_SETTLE),
    ("end_round", phase::SIM_END_ROUND),
    ("epoch", phase::SIM_EPOCH),
    ("consensus", phase::SIM_CONSENSUS),
    ("sample", phase::SIM_SAMPLE),
];

/// Mechanisms timed through `build_mechanism`, keyed by metric slug.
const MECHANISMS: [(&str, MechanismKind); 8] = [
    ("reciprocity", MechanismKind::Reciprocity),
    ("tchain", MechanismKind::TChain),
    ("bittorrent", MechanismKind::BitTorrent),
    ("fairtorrent", MechanismKind::FairTorrent),
    ("reputation", MechanismKind::Reputation),
    ("altruism", MechanismKind::Altruism),
    ("epoch", MechanismKind::EpochSettlement),
    ("consensus", MechanismKind::ConsensusReputation),
];

/// Bitfield lengths the piece-layer calls are timed at.
const PIECE_COUNTS: [u32; 2] = [32, 64];

/// Every per-layer metric with its unit, in report order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for (short, _) in PHASES {
        out.push((format!("swarm.{short}_share"), "share"));
        out.push((format!("swarm.{short}_ns_ppr"), "ns"));
    }
    for (name, unit) in [
        ("swarm.arrival_us", "us"),
        ("swarm.run_ns_ppr", "ns"),
        ("des.unattributed_share", "share"),
        ("swarm.peers_visited", "count"),
        ("swarm.peers_productive", "count"),
        ("swarm.candidate_scans", "count"),
        ("swarm.wasted_visit_ratio", "ratio"),
        ("swarm.adjacency_rebuilds", "count"),
        ("swarm.availability_rebuilds", "count"),
        ("consensus.reports", "count"),
        ("consensus.disputes", "count"),
        ("consensus.bans", "count"),
        ("epoch.settlements", "count"),
        ("batch.journal_fsync_share", "share"),
        ("batch.write_artifacts_share", "share"),
        ("exec.build_share", "share"),
        ("batch.parallel_efficiency", "ratio"),
        ("shard.speedup_2", "ratio"),
        ("trace.overhead", "ratio"),
        ("des.push_pop_ns", "ns"),
        ("des.push_pop_p99_ns", "ns"),
    ] {
        out.push((name.to_string(), unit));
    }
    for n in PIECE_COUNTS {
        for op in ["wants_from", "pick_rarest", "index_update"] {
            out.push((format!("piece.{op}_{n}_ns"), "ns"));
            out.push((format!("piece.{op}_{n}_p99_ns"), "ns"));
        }
    }
    for (slug, _) in MECHANISMS {
        out.push((format!("mech.{slug}.allocate_ns"), "ns"));
        out.push((format!("mech.{slug}.allocate_p99_ns"), "ns"));
    }
    out.push(("journal.record_job_us".to_string(), "us"));
    out.push(("journal.record_job_p99_us".to_string(), "us"));
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn total_ns(phases: &[(String, PhaseStat)], name: &str) -> f64 {
    phases
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, s)| s.total_ns as f64)
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Phase shares and work counters of traced simulations.
pub fn from_sim(
    phases: &[(String, PhaseStat)],
    counters: &[(String, u64)],
    peer_rounds: u64,
) -> Vec<(String, f64)> {
    let run = total_ns(phases, phase::SIM_RUN);
    let peer_rounds = peer_rounds as f64;
    let mut out = Vec::new();
    for (short, name) in PHASES {
        let t = total_ns(phases, name);
        out.push((format!("swarm.{short}_share"), ratio(t, run)));
        out.push((format!("swarm.{short}_ns_ppr"), ratio(t, peer_rounds)));
    }
    let arrivals = phases
        .iter()
        .find(|(n, _)| n == phase::SIM_ARRIVALS)
        .map_or(0, |(_, s)| s.count);
    out.push((
        "swarm.arrival_us".to_string(),
        ratio(total_ns(phases, phase::SIM_ARRIVALS) / 1e3, arrivals as f64),
    ));
    out.push(("swarm.run_ns_ppr".to_string(), ratio(run, peer_rounds)));
    let attributed: f64 = phase::ATTRIBUTED
        .iter()
        .map(|name| total_ns(phases, name))
        .sum();
    out.push((
        "des.unattributed_share".to_string(),
        ratio(run - attributed, run),
    ));

    let visited = counter(counters, work::PEERS_VISITED);
    let productive = counter(counters, work::PEERS_PRODUCTIVE);
    for (name, value) in [
        ("swarm.peers_visited", visited as f64),
        ("swarm.peers_productive", productive as f64),
        (
            "swarm.candidate_scans",
            counter(counters, work::CANDIDATE_SCANS) as f64,
        ),
        (
            "swarm.wasted_visit_ratio",
            ratio((visited - productive) as f64, visited as f64),
        ),
        (
            "swarm.adjacency_rebuilds",
            counter(counters, "swarm.adjacency.rebuilds") as f64,
        ),
        (
            "swarm.availability_rebuilds",
            counter(counters, "swarm.availability.rebuilds") as f64,
        ),
        (
            "consensus.reports",
            counter(counters, "swarm.consensus.reports") as f64,
        ),
        (
            "consensus.disputes",
            counter(counters, "swarm.consensus.disputes") as f64,
        ),
        (
            "consensus.bans",
            (counter(counters, "swarm.consensus.bans_temp")
                + counter(counters, "swarm.consensus.bans_perm")) as f64,
        ),
        (
            "epoch.settlements",
            counter(counters, work::EPOCH_SETTLEMENTS) as f64,
        ),
    ] {
        out.push((name.to_string(), value));
    }
    out
}

/// [`from_sim`] over a profiled CLI batch, plus the executor and journal
/// shares of the batch's wall time `wall_s` on `workers` threads.
pub fn from_batch(
    profile: &RunProfile,
    counters: &[(String, u64)],
    peer_rounds: u64,
    wall_s: f64,
    workers: u64,
) -> Vec<(String, f64)> {
    let mut out = from_sim(&profile.phases, counters, peer_rounds);
    let t = |name| total_ns(&profile.phases, name);
    let wall_ns = wall_s * 1e9;
    let job_ns = t(phase::EXEC_BUILD) + t(phase::SIM_RUN);
    for (name, value) in [
        (
            "batch.journal_fsync_share",
            ratio(t(phase::BATCH_JOURNAL_FSYNC), wall_ns),
        ),
        (
            "batch.write_artifacts_share",
            ratio(t(phase::BATCH_WRITE_ARTIFACTS), wall_ns),
        ),
        ("exec.build_share", ratio(t(phase::EXEC_BUILD), job_ns)),
        (
            "batch.parallel_efficiency",
            ratio(job_ns, workers as f64 * t(phase::BATCH_SIMULATE)),
        ),
    ] {
        out.push((name.to_string(), value));
    }
    out
}

/// Times `blocks` blocks of `per_block` calls and returns the median and
/// p99 over blocks of the time per call, in nanoseconds. Timing blocks
/// rather than single calls keeps the clock's own cost out of
/// nanosecond-scale operations.
fn time_calls(blocks: usize, per_block: usize, mut call: impl FnMut()) -> (f64, f64) {
    let mut samples = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        let started = Instant::now();
        for _ in 0..per_block {
            call();
        }
        samples.push(started.elapsed().as_nanos() as f64 / per_block as f64);
    }
    (percentile(&samples, 0.5), percentile(&samples, 0.99))
}

/// Timed calls into the public functions of each layer: the event queue,
/// bitfields and the availability index, every mechanism's `allocate`,
/// and the journal's fsynced append.
pub fn micro(size: Size) -> std::io::Result<Vec<(String, f64)>> {
    // 1,000 blocks leave ten samples beyond the p99.
    let blocks = if size == Size::Toy { 20 } else { 1000 };
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut push = |name: String, (median, p99): (f64, f64), scale: f64| {
        out.push((name.clone(), median / scale));
        let (stem, unit) = name.rsplit_once('_').expect("metric names end in a unit");
        out.push((format!("{stem}_p99_{unit}"), p99 / scale));
    };
    let mut rng = SmallRng::seed_from_u64(0xBE7C);

    // Event queue held at a constant depth: each call pops the earliest
    // event and schedules a successor.
    const DEPTH: u64 = 10_000;
    let mut queue = EventQueue::new();
    for i in 0..DEPTH {
        queue.push(SimTime::from_millis(rng.gen_range(0..DEPTH * 10)), i);
    }
    push(
        "des.push_pop_ns".to_string(),
        time_calls(blocks, 100, || {
            let ev = queue.pop().expect("queue held at constant depth");
            let later = ev.at.as_millis() + rng.gen_range(1..DEPTH * 10);
            queue.push(SimTime::from_millis(later), black_box(ev.event));
        }),
        1.0,
    );

    for n in PIECE_COUNTS {
        let fields: Vec<Bitfield> = (0..200)
            .map(|_| {
                let mut bf = Bitfield::new(n);
                for i in 0..n {
                    if rng.gen_range(0..2) == 1 {
                        bf.set(i);
                    }
                }
                bf
            })
            .collect();
        let mut index = AvailabilityIndex::new(n);
        for bf in &fields {
            index.add_peer(bf);
        }
        let pair = |k: usize| (&fields[k % 200], &fields[(k * 7 + 3) % 200]);
        let mut k = 0usize;
        push(
            format!("piece.wants_from_{n}_ns"),
            time_calls(blocks, 100, || {
                let (a, b) = pair(k);
                k += 1;
                black_box(a.wants_from(b));
            }),
            1.0,
        );
        let mut ties = Vec::new();
        push(
            format!("piece.pick_rarest_{n}_ns"),
            time_calls(blocks, 100, || {
                let (a, b) = pair(k);
                k += 1;
                black_box(index.pick_rarest_into(a, b, &mut ties, &mut rng));
            }),
            1.0,
        );
        let mut piece = 0u32;
        push(
            format!("piece.index_update_{n}_ns"),
            time_calls(blocks, 100, || {
                piece = (piece + 1) % n;
                index.on_piece_acquired(piece);
                index.on_piece_lost(black_box(piece));
            }),
            1.0,
        );
    }

    let view = MechView::new(20);
    let budget = 4 * view.piece_size();
    for (slug, kind) in MECHANISMS {
        let mut mechanism = build_mechanism(kind, workload::PARAMS);
        push(
            format!("mech.{slug}.allocate_ns"),
            time_calls(blocks, 10, || {
                black_box(mechanism.allocate(&view, budget, &mut rng));
            }),
            1.0,
        );
    }

    let dir = workload::scratch_root().join(format!("journal-{}", std::process::id()));
    let journal = RunJournal::create(
        &dir,
        &RunHeader {
            artifact: "fig4".to_string(),
            scale: "quick".to_string(),
            seed: 42,
            replicates: 1,
        },
    )?;
    let record = JobRecord {
        fingerprint: 0x5eed,
        slot: 0,
        label: "BitTorrent".to_string(),
        seed: 42,
        outcome: JobOutcome::Ok,
        attempts: 1,
        result: Some(workload::journal_sample_result()),
        error: None,
    };
    let mut failed = None;
    push(
        "journal.record_job_us".to_string(),
        time_calls(blocks, 1, || {
            if let Err(e) = journal.record_job(&record) {
                failed = Some(e);
            }
        }),
        1e3,
    );
    drop(journal);
    workload::remove_scratch(&dir)?;
    match failed {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// A benchmark-owned degree-`d` view: every neighbor is mutually
/// interested, has contributed to and received from the querying peer in
/// graded amounts, and carries a graded reputation.
struct MechView {
    neighbors: Vec<PeerId>,
    ledger: ContributionLedger,
    deficits: DeficitLedger,
}

impl MechView {
    fn new(degree: u32) -> Self {
        let neighbors: Vec<PeerId> = (1..=degree).map(PeerId::new).collect();
        let mut ledger = ContributionLedger::new();
        let mut deficits = DeficitLedger::new();
        let piece = 64 * 1024;
        for &peer in &neighbors {
            let i = u64::from(peer.index());
            ledger.record_received(peer, i * piece);
            ledger.record_sent(peer, (u64::from(degree) + 1 - i) * piece);
            deficits.on_received(peer, i * piece / 2);
            deficits.on_sent(peer, (u64::from(degree) + 1 - i) * piece / 2);
        }
        ledger.end_round();
        for &peer in neighbors.iter().step_by(2) {
            ledger.record_received(peer, piece);
        }
        MechView {
            neighbors,
            ledger,
            deficits,
        }
    }
}

impl SwarmView for MechView {
    fn me(&self) -> PeerId {
        PeerId::new(0)
    }
    fn round(&self) -> u64 {
        100
    }
    fn neighbors(&self) -> &[PeerId] {
        &self.neighbors
    }
    fn peer_needs_from_me(&self, _peer: PeerId) -> bool {
        true
    }
    fn i_need_from(&self, _peer: PeerId) -> bool {
        true
    }
    fn peer_needs_from(&self, _who: PeerId, _from: PeerId) -> bool {
        true
    }
    fn piece_count(&self, peer: PeerId) -> u32 {
        // Every fifth neighbor is a newcomer awaiting bootstrap.
        peer.index() % 5 * 8
    }
    fn reputation(&self, peer: PeerId) -> f64 {
        f64::from(peer.index()) * 65_536.0
    }
    fn ledger(&self) -> &ContributionLedger {
        &self.ledger
    }
    fn deficits(&self) -> &DeficitLedger {
        &self.deficits
    }
    fn obligations(&self) -> &[Obligation] {
        &[]
    }
    fn uploading_to(&self, _peer: PeerId) -> bool {
        false
    }
    fn obligation_count(&self, _peer: PeerId) -> usize {
        0
    }
    fn piece_size(&self) -> u64 {
        64 * 1024
    }
}
