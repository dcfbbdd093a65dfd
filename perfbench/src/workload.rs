//! The four workloads: their fixed inputs, one measured repetition of each
//! (run in a fresh child process), and the correctness gate every
//! repetition passes through.
//!
//! Every configuration here is spelled out field by field instead of being
//! taken from a library default or a figure runner, so a refactor of those
//! cannot silently change what the benchmark measures.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use coop_attacks::AttackPlan;
use coop_des::Duration;
use coop_experiments::journal::{result_from_json, JOURNAL_FILE};
use coop_incentives::analysis::capacity::CapacityClassMix;
use coop_incentives::{MechanismKind, MechanismParams};
use coop_piece::FileSpec;
use coop_swarm::{flash_crowd_with, PieceStrategy, SimResult, Simulation, SwarmConfig};
use coop_telemetry::json::{self, Json, ObjWriter};
use coop_telemetry::{
    Category, ProfileReport, Profiler, Recorder, RunManifest, RunProfile, Sampling,
    TelemetryConfig, TelemetryReport, MANIFEST_FILE, PROFILE_FILE,
};

use crate::layers;
use crate::stats::median;

/// The benchmark's workloads, in the order a suite interleaves them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Reciprocity at N = 30,000 on the fig4-scale quick cell.
    SparseRecip30k,
    /// BitTorrent at N = 10,000 on the same cell.
    DenseBt10k,
    /// Two attacked quick-scale cells at N = 5,000: consensus reputation
    /// under the adaptive mix, epoch settlement under simple free-riding.
    Adversarial5k,
    /// The release CLI's replicated quick fig4 batch on two worker threads.
    BatchQuick,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::SparseRecip30k,
        Workload::DenseBt10k,
        Workload::Adversarial5k,
        Workload::BatchQuick,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SparseRecip30k => "sparse-recip-30k",
            Workload::DenseBt10k => "dense-bt-10k",
            Workload::Adversarial5k => "adversarial-5k",
            Workload::BatchQuick => "batch-quick",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload is simulation cells run in-process (as opposed
    /// to a batch run through the CLI).
    pub fn is_cells(self) -> bool {
        self != Workload::BatchQuick
    }

    /// The seed-42 fingerprint every repetition must reproduce: the
    /// field-level FNV fold of each cell's [`SimResult`], or for the batch
    /// the fold of its journaled artifact hashes. A change that moves one
    /// of these changed simulation results, not just their speed.
    fn pinned_seed42(self) -> u64 {
        match self {
            Workload::SparseRecip30k => 0x6a2f_7015_1532_eaaa,
            Workload::DenseBt10k => 0x1281_4089_bac8_c296,
            Workload::Adversarial5k => 0xc466_5dbe_c0a9_ead2,
            Workload::BatchQuick => 0x724b_b800_2a89_2e70,
        }
    }

    /// The fingerprint a repetition at `seed` must match, when one is
    /// pinned.
    pub fn expected_fingerprint(self, seed: u64, size: Size) -> Option<u64> {
        (seed == 42 && size == Size::Full).then(|| self.pinned_seed42())
    }

    /// Cells one repetition simulates (the batch reports its own count).
    pub fn cells_per_rep(self) -> u64 {
        match self {
            Workload::Adversarial5k => 2,
            _ => 1,
        }
    }
}

/// Input size: the real workloads, or toy versions of them for the smoke
/// test (N = 200 per cell, one replicate per batch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// Tiny inputs that exercise the same code paths in well under a second.
    Toy,
}

/// Population of every cell in [`Size::Toy`].
const TOY_PEERS: usize = 200;

/// Replicates of the fig4 batch.
const BATCH_REPLICATES: u64 = 40;

/// Worker threads of the fig4 batch (the machine's two cores).
const BATCH_JOBS: u64 = 2;

/// How many times a repetition sets up; `setup_s` is the median, so a
/// millisecond-scale set-up is not at the mercy of one descheduling.
const SETUP_SAMPLES: usize = 9;

/// The mechanism parameters of every cell (the library defaults at the
/// time the benchmark was defined).
pub(crate) const PARAMS: MechanismParams = MechanismParams {
    alpha_bt: 0.2,
    n_bt: 4,
    alpha_r: 0.1,
    tchain_obligation_ttl: 16,
    tchain_max_backlog: 4,
    epoch_rounds: 16,
    consensus_quorum: 2,
    consensus_ban_threshold: 4,
    consensus_decay: 0.9,
    consensus_temp_ban_rounds: 16,
};

/// A swarm configuration with the fields every cell shares.
fn config(
    seed: u64,
    file_bytes: u64,
    seeder_bps: f64,
    max_rounds: u64,
    sample_every: u64,
) -> SwarmConfig {
    SwarmConfig {
        file: FileSpec::new(file_bytes, 64 * 1024),
        round: Duration::from_secs(1),
        seed,
        seeder_bps,
        neighbor_degree: 20,
        mechanism_params: PARAMS,
        max_rounds,
        sample_every,
        stall_timeout_rounds: 8,
        piece_strategy: PieceStrategy::RarestFirst,
        trusted_reputation: false,
        pretrusted_count: 5,
    }
}

/// One simulation cell: a flash crowd of `peers` running `kind` (10 s
/// arrival window, the paper's capacity mix), optionally attacked.
#[derive(Clone, Debug)]
struct Cell {
    kind: MechanismKind,
    peers: usize,
    config: SwarmConfig,
    attack: Option<AttackPlan>,
}

impl Cell {
    /// The fig4-scale quick cell: 2 MiB of 64 KiB pieces, degree 20,
    /// 512 kbps seeder, 300-round cap.
    fn scale_quick(kind: MechanismKind, peers: usize, seed: u64) -> Cell {
        Cell {
            kind,
            peers,
            config: config(seed, 2 * 1024 * 1024, 512_000.0, 300, 8),
            attack: None,
        }
    }

    /// The quick-scale attack cell: 4 MiB of 64 KiB pieces, degree 20,
    /// 128 kbps seeder, 900-round cap, 20% attackers.
    fn attacked_quick(
        kind: MechanismKind,
        peers: usize,
        seed: u64,
        params: MechanismParams,
        attack: AttackPlan,
    ) -> Cell {
        let mut config = config(seed, 4 * 1024 * 1024, 128_000.0, 900, 2);
        config.mechanism_params = params;
        Cell {
            kind,
            peers,
            config,
            attack: Some(attack),
        }
    }
}

/// The cells of a cell workload.
fn cells(workload: Workload, seed: u64, size: Size) -> Vec<Cell> {
    let n = |full: usize| if size == Size::Toy { TOY_PEERS } else { full };
    match workload {
        Workload::SparseRecip30k => {
            vec![Cell::scale_quick(
                MechanismKind::Reciprocity,
                n(30_000),
                seed,
            )]
        }
        Workload::DenseBt10k => vec![Cell::scale_quick(
            MechanismKind::BitTorrent,
            n(10_000),
            seed,
        )],
        Workload::Adversarial5k => {
            // fig-consensus's `defense` policy.
            let defense = MechanismParams {
                consensus_quorum: 1,
                consensus_ban_threshold: 4,
                consensus_decay: 0.9,
                consensus_temp_ban_rounds: 16,
                ..PARAMS
            };
            let epoch16 = MechanismParams {
                epoch_rounds: 16,
                ..PARAMS
            };
            vec![
                Cell::attacked_quick(
                    MechanismKind::ConsensusReputation,
                    n(5_000),
                    seed,
                    defense,
                    AttackPlan::adaptive_mix(0.2),
                ),
                Cell::attacked_quick(
                    MechanismKind::EpochSettlement,
                    n(5_000),
                    seed,
                    epoch16,
                    AttackPlan::simple(0.2),
                ),
            ]
        }
        Workload::BatchQuick => unreachable!("the batch workload has no in-process cells"),
    }
}

/// How one repetition runs.
#[derive(Clone, Copy, Debug)]
pub struct RepOptions {
    /// Workload seed.
    pub seed: u64,
    /// Input size.
    pub size: Size,
    /// Attach the profiler and recorder (cells) or pass `--profile` (batch).
    pub traced: bool,
    /// Intra-sim shard threads per cell.
    pub shards: usize,
}

/// What one repetition measured, sent from the child process to the
/// parent process as one JSON line.
#[derive(Clone, Debug, Default)]
pub struct RepOutcome {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Wall time of the measured work (simulation runs, or the CLI batch).
    pub wall_s: f64,
    /// Σ peers × rounds run over the repetition's cells.
    pub peer_rounds: u64,
    /// Cells simulated.
    pub cells: u64,
    /// Cells that failed the correctness gate inside the repetition
    /// (conservation, CLI exit status, failed journal records).
    pub failed: u64,
    /// Fold of every cell's result fingerprint (or the batch's artifacts).
    pub fingerprint: u64,
    /// Per-layer metrics gathered by a traced repetition.
    pub layers: Vec<(String, f64)>,
}

impl RepOutcome {
    /// Encodes the outcome as one JSON line.
    pub fn to_json(&self) -> String {
        let mut layers = ObjWriter::new();
        for (name, value) in &self.layers {
            layers.f64(name, *value);
        }
        let mut o = ObjWriter::new();
        o.f64("setup_s", self.setup_s)
            .f64("wall_s", self.wall_s)
            .uint("peer_rounds", self.peer_rounds)
            .uint("cells", self.cells)
            .uint("failed", self.failed)
            .str("fingerprint", &format!("{:016x}", self.fingerprint))
            .raw("layers", &layers.finish());
        o.finish()
    }

    /// Decodes [`RepOutcome::to_json`].
    pub fn parse(line: &str) -> Option<RepOutcome> {
        let doc = json::parse(line).ok()?;
        let num = |key: &str| doc.get(key).and_then(Json::as_f64);
        let layers = match doc.get("layers")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(name, v)| Some((name.clone(), v.as_f64()?)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(RepOutcome {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            peer_rounds: num("peer_rounds")? as u64,
            cells: num("cells")? as u64,
            failed: num("failed")? as u64,
            fingerprint: u64::from_str_radix(doc.get("fingerprint")?.as_str()?, 16).ok()?,
            layers,
        })
    }
}

/// Runs one repetition of `workload` in this process.
pub fn run_rep(workload: Workload, opts: RepOptions) -> std::io::Result<RepOutcome> {
    if workload.is_cells() {
        Ok(run_cells(workload, opts))
    } else {
        run_batch(opts)
    }
}

/// A recorder that keeps counters only: every event category is sampled
/// out and round probes are due once, so tracing costs counter upkeep and
/// phase timers, not event capture.
fn counters_only_recorder() -> Recorder {
    let sampling = Category::ALL
        .into_iter()
        .fold(Sampling::keep_all(), |s, c| s.every(c, 0));
    let mut recorder = Recorder::enabled(TelemetryConfig {
        probe_every: u64::MAX,
        ring_capacity: 0,
        sampling,
    });
    recorder.set_capture(false);
    recorder
}

fn run_cells(workload: Workload, opts: RepOptions) -> RepOutcome {
    let mut out = RepOutcome::default();
    let mut fold = Fnv::new();
    let mut profile = ProfileReport::default();
    let mut counters: Vec<(String, u64)> = Vec::new();
    for cell in cells(workload, opts.seed, opts.size) {
        let mut setups = Vec::with_capacity(SETUP_SAMPLES);
        let mut sim = None;
        for _ in 0..SETUP_SAMPLES {
            drop(sim.take());
            let started = Instant::now();
            let population = flash_crowd_with(
                &cell.config,
                cell.peers,
                cell.kind,
                opts.seed,
                &CapacityClassMix::paper_default(),
                Duration::from_secs(10),
            );
            let mut builder = Simulation::builder(cell.config.clone())
                .population(population)
                .shards(opts.shards);
            if let Some(plan) = cell.attack {
                builder = builder.attack_plan(plan);
            }
            if opts.traced {
                builder = builder
                    .recorder(counters_only_recorder())
                    .profiler(Profiler::enabled());
            }
            sim = Some(builder.build().expect("benchmark cell configs validate"));
            setups.push(started.elapsed().as_secs_f64());
        }
        let sim = sim.expect("at least one setup sample");
        out.setup_s += median(&setups);

        let started = Instant::now();
        let result = if opts.traced {
            let (result, report, phases) = sim.run_profiled();
            profile.merge(&phases);
            merge_counters(&mut counters, &report);
            result
        } else {
            sim.run()
        };
        out.wall_s += started.elapsed().as_secs_f64();
        out.peer_rounds += cell.peers as u64 * result.rounds_run;
        out.cells += 1;
        if !conserved(&result) {
            out.failed += 1;
        }
        fold.u(fingerprint(&result));
    }
    out.fingerprint = fold.0;
    if opts.traced {
        out.layers = layers::from_sim(&profile.phases, &counters, out.peer_rounds);
    }
    out
}

fn merge_counters(into: &mut Vec<(String, u64)>, report: &TelemetryReport) {
    for (name, value) in &report.counters {
        match into.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => into.push((name.clone(), *value)),
        }
    }
}

/// A result shaped like one batch-quick job's (80 peers on the quick
/// attack-cell config, no attack), the payload the journal benchmark
/// appends.
pub fn journal_sample_result() -> SimResult {
    let config = config(42, 4 * 1024 * 1024, 128_000.0, 900, 2);
    let population = flash_crowd_with(
        &config,
        80,
        MechanismKind::BitTorrent,
        42,
        &CapacityClassMix::paper_default(),
        Duration::from_secs(10),
    );
    Simulation::builder(config)
        .population(population)
        .build()
        .expect("benchmark cell configs validate")
        .run()
}

/// Where scratch output goes: inside the working directory, removed after
/// each repetition.
pub fn scratch_root() -> PathBuf {
    PathBuf::from(".bench_tmp")
}

/// Removes `dir`, then the scratch root if nothing else is left in it.
pub fn remove_scratch(dir: &Path) -> std::io::Result<()> {
    std::fs::remove_dir_all(dir)?;
    let _ = std::fs::remove_dir(scratch_root());
    Ok(())
}

/// The experiment CLI built next to this binary.
fn cli_path() -> std::io::Result<PathBuf> {
    Ok(std::env::current_exe()?.with_file_name("coop-experiments"))
}

fn run_batch(opts: RepOptions) -> std::io::Result<RepOutcome> {
    let out_dir = scratch_root().join(format!("batch-{}", std::process::id()));
    let outcome = batch_in(&out_dir, opts);
    if out_dir.exists() {
        remove_scratch(&out_dir)?;
    }
    outcome
}

/// One batch repetition writing into `out_dir`.
fn batch_in(out_dir: &Path, opts: RepOptions) -> std::io::Result<RepOutcome> {
    let cli = cli_path()?;
    let mut out = RepOutcome::default();

    // Set-up: a fresh output directory and one CLI process start, the
    // fixed cost every batch pays before its first job.
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let started = Instant::now();
        if out_dir.exists() {
            std::fs::remove_dir_all(out_dir)?;
        }
        std::fs::create_dir_all(out_dir)?;
        let status = Command::new(&cli)
            .arg("--help")
            .stdout(Stdio::null())
            .status()?;
        setups.push(started.elapsed().as_secs_f64());
        if !status.success() {
            out.failed += 1;
        }
    }
    out.setup_s = median(&setups);

    let replicates = if opts.size == Size::Toy {
        1
    } else {
        BATCH_REPLICATES
    };
    let mut cmd = Command::new(&cli);
    cmd.args(["fig4", "--scale", "quick", "--seed"])
        .arg(opts.seed.to_string())
        .args(["--replicates", &replicates.to_string()])
        .args(["--jobs", &BATCH_JOBS.to_string()])
        .arg("--out-dir")
        .arg(out_dir)
        .stdout(Stdio::null());
    if opts.traced {
        cmd.arg("--profile");
    }
    let started = Instant::now();
    let status = cmd.status()?;
    out.wall_s = started.elapsed().as_secs_f64();

    let journal = read_journal(out_dir)?;
    out.cells = journal.cells;
    out.failed += journal.failed;
    if !status.success() {
        out.failed = out.failed.max(1);
    }
    out.peer_rounds = journal.peer_rounds;
    out.fingerprint = journal.artifacts;
    if opts.traced {
        let profile = RunProfile::parse(&std::fs::read_to_string(out_dir.join(PROFILE_FILE))?)
            .map_err(std::io::Error::other)?;
        let manifest = RunManifest::parse(&std::fs::read_to_string(out_dir.join(MANIFEST_FILE))?)
            .map_err(std::io::Error::other)?;
        out.layers = layers::from_batch(
            &profile,
            &manifest.counters,
            out.peer_rounds,
            out.wall_s,
            BATCH_JOBS,
        );
    }
    Ok(out)
}

/// What a batch's `journal.jsonl` says about it.
struct JournalSummary {
    cells: u64,
    failed: u64,
    peer_rounds: u64,
    /// Fold of the recorded artifact hashes, excluding telemetry outputs.
    artifacts: u64,
}

fn read_journal(dir: &Path) -> std::io::Result<JournalSummary> {
    let text = std::fs::read_to_string(dir.join(JOURNAL_FILE))?;
    let mut summary = JournalSummary {
        cells: 0,
        failed: 0,
        peer_rounds: 0,
        artifacts: 0,
    };
    let mut artifacts = Fnv::new();
    for line in text.lines() {
        let doc = json::parse(line).map_err(|e| std::io::Error::other(e.to_string()))?;
        match doc.get("type").and_then(Json::as_str) {
            Some("job") => {
                summary.cells += 1;
                let result = (doc.get("outcome").and_then(Json::as_str) == Some("ok"))
                    .then(|| doc.get("result").and_then(result_from_json))
                    .flatten();
                match result {
                    Some(r) if conserved(&r) => {
                        summary.peer_rounds += r.peers.len() as u64 * r.rounds_run;
                    }
                    _ => summary.failed += 1,
                }
            }
            Some("artifact") => {
                let file = doc.get("file").and_then(Json::as_str).unwrap_or_default();
                if !is_telemetry_output(file) {
                    artifacts.bytes(file.as_bytes());
                    artifacts.bytes(
                        doc.get("hash")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .as_bytes(),
                    );
                }
            }
            _ => {}
        }
    }
    summary.artifacts = artifacts.0;
    Ok(summary)
}

/// Files only a `--telemetry`/`--profile` run writes: the wall-clock
/// manifest and profile, and the round-probe CSV.
fn is_telemetry_output(file: &str) -> bool {
    file == MANIFEST_FILE || file == PROFILE_FILE || file.ends_with("_telemetry.csv")
}

/// Byte conservation (Eq. 1 with the fault-drop term): everything sent
/// was received or dropped in transit.
fn conserved(r: &SimResult) -> bool {
    let sent: u64 = r.peers.iter().map(|p| p.bytes_sent).sum::<u64>() + r.totals.uploaded_seeder;
    let received: u64 = r.peers.iter().map(|p| p.bytes_received_raw).sum();
    sent == received + r.totals.fault_dropped_bytes
}

/// FNV-1a accumulator.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
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

/// Folds every externally observable number of a [`SimResult`] — the same
/// field-level recipe as the swarm crate's golden tests.
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
