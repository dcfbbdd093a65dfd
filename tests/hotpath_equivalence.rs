//! The hot-path equivalence battery: proves the production round loop —
//! the dirty-set loop, layered on the incremental availability index and
//! SoA peer state — is **observably identical** to the naive pre-index
//! path it replaced.
//!
//! Three layers of evidence, from strongest to broadest:
//!
//! 1. Per-mechanism oracle runs — a fig4-sized swarm executed twice from
//!    the same seed: once with `naive_hotpath(true)` (the pre-index round
//!    loop kept behind `coop-swarm`'s `hotpath-oracle` feature: every
//!    online peer visited every round, per-round candidate rebuilds,
//!    per-bit rarest-first picks, full peer-struct scans), and once on the
//!    default dirty-set loop. Both [`SimResult`]s must compare equal, and
//!    the dirty result's debug fingerprint must match a pinned golden
//!    constant so *both* paths drifting together is also caught. A second
//!    sweep repeats the comparison with a churn/fault plan active
//!    (outages, departures, link loss, whitewashing and free-riding tags)
//!    — the regime where a stale dirty set would actually skip work — and
//!    a multi-seed sweep repeats both for every extended mechanism. The
//!    `*_three_way_*` test names date from when a third, indexed
//!    full-scan loop sat between the two; its visit counts equalled the
//!    naive loop's, so the visit-count tests now compare against the
//!    oracle.
//! 2. Artifact byte-identity across worker counts — `fig4` rendered with
//!    `--jobs 1` and `--jobs 4` into separate directories must produce
//!    byte-identical files. Naive-path artifact identity follows from (1)
//!    plus the deterministic write path: artifacts are a pure function of
//!    the `SimResult`s.
//! 3. Component regression pins — `AvailabilityIndex::min_over` and
//!    `pick_rarest_into` against the full-scan `AvailabilityMap::min_over`
//!    and the trait-object `RarestFirstPicker` on fig4-shaped bitfields,
//!    including the pick RNG contract (exactly one draw iff a candidate
//!    exists).
//!
//! If a golden constant changes because simulation semantics intentionally
//! changed, re-pin it and say why in the commit message.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use coop_des::rng::SeedTree;
use coop_experiments::{runners, Executor, OutputDir, Scale, TelemetryOpts};
use coop_incentives::analysis::capacity::CapacityClassMix;
use coop_incentives::MechanismKind;
use coop_piece::{AvailabilityIndex, AvailabilityMap, Bitfield, PiecePicker, RarestFirstPicker};
use coop_swarm::{
    flash_crowd_with, FaultEvent, FaultKind, FaultSchedule, SimResult, Simulation,
    SimulationBuilder,
};
use coop_telemetry::fingerprint_debug;

const SEED: u64 = 42;

/// Which round-loop implementation a cell runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Pre-index oracle (`hotpath-oracle` feature): every online peer
    /// visited every round.
    Naive,
    /// The production dirty-set loop: only changed peers and their
    /// candidates visited.
    Dirty,
}

const MODES: [Mode; 2] = [Mode::Naive, Mode::Dirty];

/// One fig4-sized cell (quick scale: 80 peers, 64 pieces) on the given
/// round loop, optionally under a churn/fault plan. Returned as a
/// builder so tests can attach a recorder before running.
fn build_cell(
    kind: MechanismKind,
    mode: Mode,
    faults: Option<FaultSchedule>,
    seed: u64,
) -> SimulationBuilder {
    let config = Scale::Quick.config(seed);
    let mut population = flash_crowd_with(
        &config,
        Scale::Quick.peers(),
        kind,
        seed,
        &CapacityClassMix::paper_default(),
        Scale::Quick.arrival_window(),
    );
    if faults.is_some() {
        // Pin arrivals to t=0 so the fault rounds land after every peer
        // has spawned (the builder rejects faults that predate arrival).
        for spec in &mut population {
            spec.arrival = coop_des::SimTime::ZERO;
        }
        // Behavioral churn on top of the fault plan: a whitewasher cycles
        // identities, a free-rider never reciprocates. Both exercise the
        // spawn/depart mark paths of the dirty loop.
        population[3].tags.whitewash_interval = Some(8);
        population[5].tags.compliant = false;
    }
    let mut builder = Simulation::builder(config)
        .population(population)
        .naive_hotpath(mode == Mode::Naive);
    if let Some(schedule) = faults {
        builder = builder.fault_schedule(schedule);
    }
    builder
}

fn run_cell(kind: MechanismKind, mode: Mode, faults: Option<FaultSchedule>) -> SimResult {
    build_cell(kind, mode, faults, SEED)
        .build()
        .expect("quick config validates")
        .run()
}

/// The churn/fault plan for the faulted sweep: an outage spanning several
/// rounds, a mid-run departure, and 10% link loss throughout, with the
/// loss stream drawn from `seed`.
fn fault_plan(seed: u64) -> FaultSchedule {
    FaultSchedule::from_events(
        vec![
            FaultEvent {
                round: 2,
                peer: 1,
                kind: FaultKind::OutageStart,
            },
            FaultEvent {
                round: 3,
                peer: 0,
                kind: FaultKind::Depart,
            },
            FaultEvent {
                round: 6,
                peer: 1,
                kind: FaultKind::OutageEnd,
            },
        ],
        0.1,
        seed,
    )
}

/// Oracle equivalence plus the golden pin for one mechanism.
fn check(kind: MechanismKind, golden: u64) {
    let [naive, dirty] = MODES.map(|m| run_cell(kind, m, None));
    assert_eq!(
        naive,
        dirty,
        "{}: dirty-set and naive round loops must produce identical results",
        kind.name()
    );
    assert_eq!(
        fingerprint_debug(&dirty),
        golden,
        "{}: result fingerprint drifted from the pinned golden value",
        kind.name()
    );
}

#[test]
fn reciprocity_three_way_agree() {
    check(MechanismKind::Reciprocity, 0xf142_e8cd_df73_62f3);
}

#[test]
fn tchain_three_way_agree() {
    check(MechanismKind::TChain, 0xd770_50a3_a4b5_4488);
}

#[test]
fn bittorrent_three_way_agree() {
    check(MechanismKind::BitTorrent, 0x1747_b4f4_a04f_9a41);
}

#[test]
fn fairtorrent_three_way_agree() {
    check(MechanismKind::FairTorrent, 0xa9e1_af1e_5a0b_1e11);
}

#[test]
fn reputation_three_way_agree() {
    check(MechanismKind::Reputation, 0x7808_d994_c6ab_a357);
}

#[test]
fn altruism_three_way_agree() {
    check(MechanismKind::Altruism, 0x5d96_b918_3757_35a3);
}

/// An epoch-settled cell at an explicit settlement cadence. Unlike
/// [`build_cell`] the mechanism params are varied, because the epoch
/// length is the axis under test: boundary rounds run the extra
/// `on_epoch_close` pass and mark settled peers dirty, so the dirty-set
/// loop must stay equivalent at both a short cadence (boundaries almost
/// every round) and a long one (a handful of boundaries per run).
fn build_epoch_cell(epoch_rounds: u64, mode: Mode) -> SimulationBuilder {
    let mut config = Scale::Quick.config(SEED);
    config.mechanism_params.epoch_rounds = epoch_rounds;
    let population = flash_crowd_with(
        &config,
        Scale::Quick.peers(),
        MechanismKind::EpochSettlement,
        SEED,
        &CapacityClassMix::paper_default(),
        Scale::Quick.arrival_window(),
    );
    Simulation::builder(config)
        .population(population)
        .naive_hotpath(mode == Mode::Naive)
}

/// Oracle equivalence plus the golden pin for one epoch length.
fn check_epoch(epoch_rounds: u64, golden: u64) {
    let [naive, dirty] = MODES.map(|m| {
        build_epoch_cell(epoch_rounds, m)
            .build()
            .expect("quick config validates")
            .run()
    });
    assert_eq!(
        naive, dirty,
        "epoch={epoch_rounds}: dirty-set and naive round loops must produce identical results"
    );
    assert_eq!(
        fingerprint_debug(&dirty),
        golden,
        "epoch={epoch_rounds}: result fingerprint drifted from the pinned golden value"
    );
}

/// A consensus-reputation cell under the combined adaptive attack:
/// threshold-aware defectors, Sybil report stuffers and ban evaders
/// split round-robin across 20% of the crowd. The attack is driven by
/// observable mechanism state (strike levels, served bans), so it is the
/// sharpest stress for round-loop equivalence: a stale dirty set would
/// desync the ban transitions the attackers key off.
fn build_consensus_cell(mode: Mode) -> SimulationBuilder {
    let config = Scale::Quick.config(SEED);
    let mut population = flash_crowd_with(
        &config,
        Scale::Quick.peers(),
        MechanismKind::ConsensusReputation,
        SEED,
        &CapacityClassMix::paper_default(),
        Scale::Quick.arrival_window(),
    );
    coop_attacks::apply_attack(
        &mut population,
        &coop_attacks::AttackPlan::adaptive_mix(0.2),
        SEED,
    );
    Simulation::builder(config)
        .population(population)
        .naive_hotpath(mode == Mode::Naive)
}

#[test]
fn consensus_three_way_agree_under_adaptive_attack() {
    let [naive, dirty] = MODES.map(|m| {
        build_consensus_cell(m)
            .build()
            .expect("quick config validates")
            .run()
    });
    assert_eq!(
        naive, dirty,
        "consensus: dirty-set and naive round loops must produce identical results"
    );
    // The cell must actually exercise the consensus layer, or the
    // equivalence claim is vacuous.
    let summary = dirty.consensus.expect("consensus summary present");
    assert!(summary.reports > 0, "no reports were aggregated");
    assert!(
        summary.disputes > 0,
        "the adaptive attack raised no disputes"
    );
    assert_eq!(
        fingerprint_debug(&dirty),
        0x0bd0_dee6_271c_9f15,
        "consensus: result fingerprint drifted from the pinned golden value"
    );
}

#[test]
fn consensus_dirty_loop_does_strictly_less_visiting() {
    // Bans shrink the visit set: banned peers are skipped wholesale by
    // the allocation scan and evicted from every candidate row, so on the
    // same adaptive-attack workload the dirty loop must visit strictly
    // fewer peers than the naive full scan while producing the identical
    // result.
    use coop_telemetry::profile::work;
    use coop_telemetry::{Recorder, TelemetryConfig};
    let traced = |mode| {
        build_consensus_cell(mode)
            .recorder(Recorder::enabled(TelemetryConfig::default()))
            .build()
            .expect("quick config validates")
            .run_traced()
    };
    let (naive, naive_report) = traced(Mode::Naive);
    let (dirty, dirty_report) = traced(Mode::Dirty);
    assert_eq!(naive, dirty, "visit accounting must not change results");
    let naive_visits = naive_report.counter(work::PEERS_VISITED);
    let dirty_visits = dirty_report.counter(work::PEERS_VISITED);
    assert!(
        dirty_visits < naive_visits,
        "dirty loop visited {dirty_visits} peers, naive {naive_visits} — expected strictly fewer"
    );
    // Ban transitions revisit each neighbor alone instead of expanding
    // it to its own row; the exact count pins that grade.
    assert_eq!(
        dirty_visits, CONSENSUS_DIRTY_VISITS,
        "consensus cell: dirty-loop visit count drifted"
    );
}

/// Exact dirty-loop `swarm.work.peers_visited` of this file's seed-42
/// visit-count cells. A re-widened mark (a revisit site demoted back to a
/// CSR-expanded neighborhood mark) raises these; an unsound narrowing
/// breaks the naive equality first.
const RECIPROCITY_DIRTY_VISITS: u64 = 4_704;
const CONSENSUS_DIRTY_VISITS: u64 = 19_172;
const EPOCH_DIRTY_VISITS: u64 = 5_689;
const ALTRUISM_DIRTY_VISITS: u64 = 4_590;

#[test]
fn epoch_settlement_three_way_agree_short_epochs() {
    check_epoch(2, 0x8a51_97be_7d96_99a0);
}

#[test]
fn epoch_settlement_three_way_agree_long_epochs() {
    check_epoch(64, 0x1389_739d_a649_38c8);
}

#[test]
fn epoch_settlement_dirty_loop_never_does_more_work_and_settles() {
    // EpochSettlement is an always-granting mechanism: any spare budget
    // falls back to random altruism, so nearly every online peer
    // produces a grant every round and the dirty set nearly saturates —
    // like pure [`Altruism`], the dirty loop skips only the few visits
    // in which no candidate is interested (the strictly-fewer-visits
    // win belongs to choking mechanisms; see
    // `dirty_loop_does_strictly_less_visiting`). What the epoch cadence
    // must NOT do is make the dirty loop visit *more* than the scan: the
    // boundary pass revisits settled peers, and those marks must stay
    // inside the visit set. The settlement counters prove the cadence
    // actually fired while visits stayed pinned.
    use coop_telemetry::profile::work;
    use coop_telemetry::{Recorder, TelemetryConfig};
    let traced = |mode| {
        build_epoch_cell(16, mode)
            .recorder(Recorder::enabled(TelemetryConfig::default()))
            .build()
            .expect("quick config validates")
            .run_traced()
    };
    let (naive, naive_report) = traced(Mode::Naive);
    let (dirty, dirty_report) = traced(Mode::Dirty);
    assert_eq!(naive, dirty, "visit accounting must not change results");
    let naive_visits = naive_report.counter(work::PEERS_VISITED);
    let dirty_visits = dirty_report.counter(work::PEERS_VISITED);
    assert!(
        dirty_visits <= naive_visits,
        "the dirty loop visited {dirty_visits} peers, more than the full \
         scan's {naive_visits}"
    );
    assert_eq!(
        dirty_visits, EPOCH_DIRTY_VISITS,
        "epoch cell: dirty-loop visit count drifted"
    );
    // Near-saturation is the always-granting class property, not an
    // epoch-pass artifact: pure Altruism shows the same collapse to
    // within a few visits of the full scan.
    let altruism_traced = |mode| {
        build_cell(MechanismKind::Altruism, mode, None, SEED)
            .recorder(Recorder::enabled(TelemetryConfig::default()))
            .build()
            .expect("quick config validates")
            .run_traced()
    };
    let (alt_naive_result, alt_naive) = altruism_traced(Mode::Naive);
    let (alt_dirty_result, alt_dirty) = altruism_traced(Mode::Dirty);
    assert_eq!(
        alt_naive_result, alt_dirty_result,
        "altruism: visit accounting must not change results"
    );
    let alt_naive_visits = alt_naive.counter(work::PEERS_VISITED);
    let alt_dirty_visits = alt_dirty.counter(work::PEERS_VISITED);
    assert!(
        alt_dirty_visits <= alt_naive_visits && alt_naive_visits - alt_dirty_visits <= 10,
        "altruism no longer nearly saturates the dirty set ({alt_dirty_visits} dirty vs \
         {alt_naive_visits} naive visits) — re-examine the epoch saturation claim above"
    );
    assert_eq!(
        alt_dirty_visits, ALTRUISM_DIRTY_VISITS,
        "altruism cell: dirty-loop visit count drifted"
    );
    for report in [&naive_report, &dirty_report] {
        let settlements = report.counter(work::EPOCH_SETTLEMENTS);
        let boundaries = report.counter(work::EPOCH_BOUNDARIES);
        assert!(settlements > 0, "no epoch settlements fired");
        assert!(boundaries > 0, "no epoch boundaries recorded");
        assert!(
            settlements >= boundaries,
            "each boundary settles at least one peer ({settlements} < {boundaries})"
        );
    }
    // Per-transfer mechanisms must pay nothing for the epoch gate: their
    // reports carry no settlement counters at all.
    assert_eq!(alt_naive.counter(work::EPOCH_SETTLEMENTS), 0);
    assert_eq!(alt_naive.counter(work::EPOCH_BOUNDARIES), 0);
}

#[test]
fn three_way_agree_under_churn_and_faults() {
    // The dirty loop earns its keep exactly when peers flap: outages,
    // departures, lost deliveries and identity churn all mutate the set
    // of peers worth visiting. Every mechanism — including the
    // epoch-settled seventh, whose boundary pass must not drift under
    // churn — must stay identical to the oracle with the full fault
    // plan active.
    for kind in MechanismKind::EXTENDED {
        let [naive, dirty] = MODES.map(|m| run_cell(kind, m, Some(fault_plan(SEED))));
        assert_eq!(
            naive,
            dirty,
            "{}: dirty-set loop diverged from oracle under faults",
            kind.name()
        );
    }
}

#[test]
fn naive_oracle_survives_checkpoint_restore() {
    // The loop mode is a builder setting, not simulation state: a sim
    // built as the naive oracle must finish on the naive loop even when
    // it resumes from a checkpoint the dirty loop captured. Only the
    // naive loop's per-probe histogram recounts feed the
    // `swarm.availability.rebuilds` counter, so a positive count after
    // restore shows the oracle really ran.
    use coop_telemetry::{Recorder, TelemetryConfig};
    let kind = MechanismKind::BitTorrent;
    let straight = run_cell(kind, Mode::Dirty, None);
    let (_, _, log) = build_cell(kind, Mode::Dirty, None, SEED)
        .checkpoint_every(5)
        .build()
        .expect("quick config validates")
        .run_checkpointed();
    let checkpoint = log.first().expect("the run outlasts one cadence");
    let (restored, report) = build_cell(kind, Mode::Naive, None, SEED)
        .recorder(Recorder::enabled(TelemetryConfig {
            probe_every: 1,
            ..TelemetryConfig::default()
        }))
        .build()
        .expect("quick config validates")
        .restore(checkpoint)
        .expect("same config and population")
        .run_traced();
    assert_eq!(
        restored, straight,
        "naive finish of a dirty-loop checkpoint must match the straight-through run"
    );
    assert!(
        report.counter("swarm.availability.rebuilds") > 0,
        "the restored sim did not run the naive oracle"
    );
}

#[test]
fn dirty_loop_does_strictly_less_visiting() {
    // Not an equivalence claim but the reason the loop exists: on the
    // same workload the dirty loop must visit fewer peers than the naive
    // oracle's full scan while producing the identical result (checked
    // above). Reciprocity is the sharpest case — allocate is memoryless
    // and never grants (Lemma 2), so after one grantless round the dirty
    // loop drops a peer until an input changes; dense always-granting
    // mechanisms like BitTorrent legitimately re-mark everyone. Work
    // counters ride on the telemetry report, which needs an attached
    // recorder (run_traced alone returns an empty report).
    use coop_telemetry::profile::work;
    use coop_telemetry::{Recorder, TelemetryConfig};
    let traced = |mode| {
        build_cell(MechanismKind::Reciprocity, mode, None, SEED)
            .recorder(Recorder::enabled(TelemetryConfig::default()))
            .build()
            .expect("quick config validates")
            .run_traced()
    };
    let (naive, naive_report) = traced(Mode::Naive);
    let (dirty, dirty_report) = traced(Mode::Dirty);
    assert_eq!(naive, dirty, "visit accounting must not change results");
    let naive_visits = naive_report.counter(work::PEERS_VISITED);
    let dirty_visits = dirty_report.counter(work::PEERS_VISITED);
    // Nobody ever uploads, so only arrivals, the seeder's deliveries and
    // their ledger steps mark anyone; revisit marks keep those from
    // fanning out to whole adjacency rows.
    assert!(
        dirty_visits * 5 <= naive_visits,
        "dirty loop visited {dirty_visits} peers, naive {naive_visits} — expected at most a fifth"
    );
    assert_eq!(
        dirty_visits, RECIPROCITY_DIRTY_VISITS,
        "reciprocity cell: dirty-loop visit count drifted"
    );
}

/// Oracle equality for every extended mechanism at `seed`, fault-free
/// and under the churn/fault plan. The revisit grade narrows the visit
/// set, so each extra seed is another chance for an unsound mark to
/// skip a peer the oracle would have served.
fn agree_across_extended(seed: u64) {
    for kind in MechanismKind::EXTENDED {
        for faults in [None, Some(fault_plan(seed))] {
            let faulted = faults.is_some();
            let [naive, dirty] = MODES.map(|m| {
                build_cell(kind, m, faults.clone(), seed)
                    .build()
                    .expect("quick config validates")
                    .run()
            });
            assert_eq!(
                naive,
                dirty,
                "{} seed {seed} (faults: {faulted}): dirty-set loop diverged from the oracle",
                kind.name()
            );
        }
    }
}

#[test]
fn naive_and_dirty_agree_across_seeds_42_43() {
    agree_across_extended(42);
    agree_across_extended(43);
}

#[test]
fn naive_and_dirty_agree_across_seeds_44_45() {
    agree_across_extended(44);
    agree_across_extended(45);
}

/// A fresh scratch directory under `target/` for this test run.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("hotpath_equivalence")
        .join(tag);
    // Stale files from a previous run would corrupt the comparison.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every file in `dir`, name → bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read artifact dir") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 file name")
            .to_string();
        files.insert(name, std::fs::read(&path).expect("read artifact"));
    }
    files
}

#[test]
fn fig4_artifacts_are_byte_identical_across_worker_counts() {
    let dir_seq = scratch("jobs1");
    let (report_seq, _) = runners::fig4::try_run(
        Scale::Quick,
        SEED,
        &MechanismKind::EXTENDED,
        &Executor::new(1),
        &TelemetryOpts::disabled(),
        &OutputDir::new(&dir_seq),
    )
    .expect("fig4 batch");

    let dir_par = scratch("jobs4");
    let (report_par, _) = runners::fig4::try_run(
        Scale::Quick,
        SEED,
        &MechanismKind::EXTENDED,
        &Executor::new(4),
        &TelemetryOpts::disabled(),
        &OutputDir::new(&dir_par),
    )
    .expect("fig4 batch");

    assert_eq!(
        report_seq.render(),
        report_par.render(),
        "rendered fig4 report must not depend on worker count"
    );

    let seq = dir_bytes(&dir_seq);
    let par = dir_bytes(&dir_par);
    assert!(!seq.is_empty(), "fig4 wrote no artifacts");
    assert_eq!(
        seq.keys().collect::<Vec<_>>(),
        par.keys().collect::<Vec<_>>(),
        "artifact sets differ between --jobs 1 and --jobs 4"
    );
    for (name, bytes) in &seq {
        assert_eq!(
            bytes, &par[name],
            "artifact {name} differs between --jobs 1 and --jobs 4"
        );
    }
}

/// Fig4-shaped bitfields: the quick-scale piece count, 80 peers whose
/// holdings are drawn from a seeded RNG with uneven per-piece density.
fn fig4_shaped_fields() -> (u32, Vec<Bitfield>) {
    use rand::Rng as _;
    let pieces = Scale::Quick.config(SEED).file.num_pieces();
    let mut rng = SeedTree::new(SEED).rng(7);
    let fields = (0..Scale::Quick.peers())
        .map(|_| {
            let mut bf = Bitfield::new(pieces);
            for i in 0..pieces {
                if rng.gen_bool(f64::from(1 + i % 7) / 10.0) {
                    bf.set(i);
                }
            }
            bf
        })
        .collect();
    (pieces, fields)
}

#[test]
fn index_min_over_matches_full_scan_on_fig4_shapes() {
    let (pieces, fields) = fig4_shaped_fields();
    let mut map = AvailabilityMap::new(pieces);
    let mut index = AvailabilityIndex::new(pieces);
    for bf in &fields {
        map.add_peer(bf);
        index.add_peer(bf);
    }
    for (p, bf) in fields.iter().enumerate() {
        // The hot-path query shape: minimum availability over the pieces
        // this peer still needs.
        let mut needed = Bitfield::new(pieces);
        for i in 0..pieces {
            if !bf.get(i) {
                needed.set(i);
            }
        }
        assert_eq!(
            index.min_over(&needed),
            map.min_over(needed.iter_ones()),
            "peer {p}: indexed min_over diverged from the full scan"
        );
    }
    // Degenerate shapes: empty set and the full piece range.
    let empty = Bitfield::new(pieces);
    assert_eq!(index.min_over(&empty), None);
    let mut all = Bitfield::new(pieces);
    for i in 0..pieces {
        all.set(i);
    }
    assert_eq!(index.min_over(&all), map.min_over(all.iter_ones()));
}

#[test]
fn index_picks_match_rarest_first_picker_on_fig4_shapes() {
    use rand::Rng as _;
    let (pieces, fields) = fig4_shaped_fields();
    let mut index = AvailabilityIndex::new(pieces);
    for bf in &fields {
        index.add_peer(bf);
    }
    let mut ties = Vec::new();
    for (p, held) in fields.iter().enumerate() {
        let offer = &fields[(p + 1) % fields.len()];
        // Identical RNG streams: the indexed pick must consume exactly the
        // draws the naive picker does, or downstream decisions desync.
        let mut naive_rng = SeedTree::new(SEED).rng(p as u64);
        let mut fast_rng = SeedTree::new(SEED).rng(p as u64);
        let naive = RarestFirstPicker.pick(held, offer, index.map(), &mut naive_rng);
        let fast = index.pick_rarest_into(held, offer, &mut ties, &mut fast_rng);
        assert_eq!(naive, fast, "peer {p}: pick diverged");
        assert_eq!(
            naive_rng.gen_range(0..u64::MAX),
            fast_rng.gen_range(0..u64::MAX),
            "peer {p}: RNG streams desynced after the pick"
        );
    }
}
