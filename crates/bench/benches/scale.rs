//! Benchmarks the round-loop hot path at scale: the incremental
//! availability index + SoA peer state against the pre-index naive path
//! (per-bit rarest-first picks, per-round candidate rebuilds, full
//! peer-struct scans), which `coop-swarm`'s `hotpath-oracle` feature keeps
//! available as the baseline.
//!
//! Two groups:
//!
//! * `rarest_pick` — the piece-selection micro benchmark: the trait-object
//!   [`RarestFirstPicker`] walking `iter_missing_from` with a per-piece
//!   availability lookup, versus [`AvailabilityIndex::pick_rarest_into`]'s
//!   word-masked scan over the shared counts slice. Both draw identical
//!   picks (pinned by the swarm equivalence battery).
//! * `sim_n5000` — a full 5000-peer swarm, naive oracle vs the dirty-set
//!   round loop, same seed, byte-identical results. The median ratio is
//!   the hot-path speedup; `BENCH_2026-08-07_scale.json` and
//!   `BENCH_2026-08-09_scale.json` record it (the latter also measured
//!   the since-deleted indexed full-scan loop). A third `dirty_profiled`
//!   variant runs the default loop with the phase [`Profiler`] live, so its delta
//!   against `dirty` is the profiler's whole-run overhead; before the
//!   timing loop the per-phase breakdown of one profiled run is printed
//!   to stderr (the same attribution that `BENCH_2026-08-09_profile.json`
//!   snapshots via the CLI).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use coop_des::rng::SeedTree;
use coop_des::Duration;
use coop_incentives::analysis::capacity::CapacityClassMix;
use coop_incentives::MechanismKind;
use coop_piece::{
    AvailabilityIndex, Bitfield, FileSpec, PiecePicker, RarestFirstPicker,
};
use coop_swarm::{flash_crowd_with, SimResult, Simulation, SwarmConfig};
use coop_telemetry::{profile::phase, ProfileReport, Profiler};

const PIECES: u32 = 2048;

/// A populated index plus downloader/uploader bitfields shaped like a
/// mid-run swarm: availability is uneven, the downloader holds half the
/// file, the uploader offers an overlapping two-thirds.
fn pick_fixture() -> (AvailabilityIndex, Bitfield, Bitfield) {
    use rand::Rng as _;
    let mut index = AvailabilityIndex::new(PIECES);
    let mut rng = SeedTree::new(9).rng(0);
    for _ in 0..64 {
        let mut bf = Bitfield::new(PIECES);
        for i in 0..PIECES {
            if rng.gen_bool(f64::from(1 + i % 5) / 8.0) {
                bf.set(i);
            }
        }
        index.add_peer(&bf);
    }
    let mut held = Bitfield::new(PIECES);
    let mut offer = Bitfield::new(PIECES);
    for i in 0..PIECES {
        if i % 2 == 0 {
            held.set(i);
        }
        if i % 3 != 0 {
            offer.set(i);
        }
    }
    (index, held, offer)
}

fn bench_rarest_pick(c: &mut Criterion) {
    let (index, held, offer) = pick_fixture();
    let mut group = c.benchmark_group("rarest_pick");
    group.bench_function("naive_per_bit", |b| {
        let mut rng = SeedTree::new(3).rng(1);
        b.iter(|| {
            black_box(RarestFirstPicker.pick(
                black_box(&held),
                black_box(&offer),
                index.map(),
                &mut rng,
            ))
        })
    });
    group.bench_function("indexed_word_scan", |b| {
        let mut rng = SeedTree::new(3).rng(1);
        let mut ties = Vec::new();
        b.iter(|| {
            black_box(index.pick_rarest_into(
                black_box(&held),
                black_box(&offer),
                &mut ties,
                &mut rng,
            ))
        })
    });
    group.finish();
}

/// The 5000-peer scale cell: a larger piece space than the figure configs
/// (1024 pieces) so rarest-first selection carries realistic weight, with
/// the round count capped to bound bench time. Identical for both paths.
fn scale_config(seed: u64) -> SwarmConfig {
    let mut c = SwarmConfig::scaled_default();
    c.file = FileSpec::new(64 * 1024 * 1024, 16 * 1024);
    c.neighbor_degree = 40;
    c.seeder_bps = 2_048_000.0;
    c.max_rounds = 50;
    c.sample_every = 8;
    c.seed = seed;
    c
}

fn run_scale_sim(naive: bool) -> SimResult {
    // `naive` runs the oracle instead of the dirty-set loop; both produce
    // identical results.
    let config = scale_config(42);
    let population = flash_crowd_with(
        &config,
        5000,
        MechanismKind::BitTorrent,
        42,
        &CapacityClassMix::paper_default(),
        Duration::from_secs(10),
    );
    Simulation::builder(config)
        .population(population)
        .naive_hotpath(naive)
        .build()
        .expect("scale config validates")
        .run()
}

/// The default (dirty-set) scale cell with phase timers live, returning
/// the gathered per-phase breakdown (the result bytes are identical to
/// both [`run_scale_sim`] modes — profiling only observes).
fn run_scale_sim_profiled() -> (SimResult, ProfileReport) {
    let config = scale_config(42);
    let population = flash_crowd_with(
        &config,
        5000,
        MechanismKind::BitTorrent,
        42,
        &CapacityClassMix::paper_default(),
        Duration::from_secs(10),
    );
    let (result, _, profile) = Simulation::builder(config)
        .population(population)
        .profiler(Profiler::enabled())
        .build()
        .expect("scale config validates")
        .run_profiled();
    (result, profile)
}

/// Prints one profiled run's per-phase attribution to stderr, sorted by
/// total time descending.
fn print_phase_breakdown(profile: &ProfileReport) {
    let run_ns = profile.total_ns(phase::SIM_RUN).max(1);
    let mut phases: Vec<_> = profile
        .phases
        .iter()
        .filter(|(name, _)| name.as_str() != phase::SIM_RUN)
        .collect();
    phases.sort_by_key(|p| std::cmp::Reverse(p.1.total_ns));
    eprintln!("sim_n5000 per-phase breakdown (one dirty-set run):");
    for (name, stat) in phases {
        eprintln!(
            "  {name:<16} {:>9.3} ms  {:>5.1}%  ({} calls)",
            stat.total_ns as f64 / 1e6,
            stat.total_ns as f64 * 100.0 / run_ns as f64,
            stat.count
        );
    }
}

fn bench_sim_n5000(c: &mut Criterion) {
    let (_, profile) = run_scale_sim_profiled();
    print_phase_breakdown(&profile);
    let mut group = c.benchmark_group("sim_n5000");
    group.sample_size(2);
    for (label, naive) in [("naive", true), ("dirty", false)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &naive, |b, &naive| {
            b.iter(|| black_box(run_scale_sim(naive)))
        });
    }
    group.bench_function("dirty_profiled", |b| {
        b.iter(|| black_box(run_scale_sim_profiled()))
    });
    group.finish();
}

criterion_group!(scale, bench_rarest_pick, bench_sim_n5000);
criterion_main!(scale);
