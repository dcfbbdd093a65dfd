//! `coop-benchmark` — the repository benchmark: four workloads of the
//! swarm simulator and its experiment CLI, five end-to-end metrics a user
//! of them sees, and per-layer attribution from a separate traced run.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bash perfbench/run.sh --seed 42                    # every workload, one run each
//! bash perfbench/run.sh --runs 10 --seed 1 --out a.json   # a calibration set
//! bash perfbench/run.sh compare a.json b.json
//! ```
//!
//! `run.sh` builds this package (and the experiment CLI, from the
//! repository's own `main.rs`) in release mode and runs it from the
//! repository root. The last line of every run is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, where `metrics` holds
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`) as `{"value", "unit"}`. Rows above it give each
//! end-to-end metric's median, quartiles and sample count.
//!
//! # Workloads
//!
//! The configs are constants in `workload.rs`, not imports from the
//! figure runners, so a runner refactor cannot silently change a workload.
//! Cells are `flash_crowd_with` populations (paper capacity mix, 10 s
//! arrival window) built with `Simulation::builder(..).build()` and run on
//! one thread (`shards = 1`).
//!
//! - `sparse-recip-30k` — Reciprocity at N = 30,000 on the fig4-scale
//!   quick cell (2 MiB of 64 KiB pieces, degree 20, 512 kbps seeder,
//!   300-round cap). Reciprocity never grants (Lemma 2), so the dirty-set
//!   loop skips allocation and every rep runs all 300 rounds: the time is
//!   per-arrival and per-round O(N) work, where the 10k → 100k scale cliff
//!   lives.
//! - `dense-bt-10k` — BitTorrent at N = 10,000 on the same cell: the
//!   densest per-peer-round path, dominated by `sim.allocate`, settlement
//!   and adjacency upkeep. Mechanism, piece and allocate-loop
//!   optimisations show here and barely show in `sparse-recip-30k`.
//! - `adversarial-5k` — two quick-scale cells (4 MiB, 128 kbps seeder,
//!   900-round cap) at N = 5,000: ConsensusReputation under the `defense`
//!   policy (quorum 1, threshold 4, decay 0.9, temp ban 16) against
//!   `AttackPlan::adaptive_mix(0.2)`, and EpochSettlement (epoch 16)
//!   against `AttackPlan::simple(0.2)`. The only workload with consensus,
//!   identity churn, epoch settlement and ban-driven adjacency rebuilds
//!   (following Nielson et al.: ledger bookkeeping costs only show under
//!   attack); on the others those layers do no work.
//! - `batch-quick` — the release CLI, `coop-experiments fig4 --scale quick
//!   --seed S --replicates 40 --jobs 2 --out-dir <fresh dir>`: hundreds of
//!   80-peer sims over eight mechanisms. The only workload through the
//!   executor fan-out, per-job journal fsync, artifact writes and per-cell
//!   set-up, whose fixed costs vanish at large N.
//!
//! # Load model
//!
//! Closed loop, one repetition after another, each in a fresh child
//! process (`--one <workload>`), so peak RSS and CPU time describe one
//! repetition of one workload. A run starts repetitions until the next
//! would end past `--seconds` (always at least one) and reports the median
//! over them. The cell workloads use one thread and `batch-quick` two, the
//! machine's core count. Without `--workload`, runs of all four workloads
//! are interleaved round-robin, so drift on a shared machine spreads over
//! every workload instead of sinking one.
//!
//! # End-to-end metrics
//!
//! Per repetition, then the median over a run's repetitions:
//!
//! - `peer_rounds_per_s` — Σ peers × rounds run / simulation wall time
//!   (for the batch, from its journal records / CLI wall time). Higher is
//!   better.
//! - `cells_per_hour` — simulations completed per hour of wall time; the
//!   headline for `batch-quick`. Higher is better.
//! - `cpu_s` — user + system CPU of the repetition's process and its
//!   children, from `wait4(2)`. Catches wall-time gains bought by burning
//!   the second core.
//! - `peak_rss_mb` — peak resident set of the repetition (for the batch,
//!   the CLI's).
//! - `setup_s` — population generation plus `build()` for cells (summed
//!   over the cells); a fresh output directory plus one CLI process start
//!   for the batch. Each repetition sets up nine times and keeps the
//!   median. It exists so work moved from `run()` into `build()` shows up.
//!
//! Correctness is reported in the result line (`failed` of `attempted`
//! cells), not as a metric: every metric must be non-zero, and the failed
//! fraction must be exactly zero.
//!
//! # Correctness gate
//!
//! Every cell's `SimResult` is fingerprinted with the field-level FNV
//! recipe of the swarm crate's golden tests and checked for byte
//! conservation (Σ sent = Σ received raw + fault-dropped). All
//! repetitions of a run — traced and two-shard ones included — must give
//! one fingerprint, and at seed 42 it must equal the value pinned in
//! `workload.rs`. For `batch-quick` the CLI must exit 0, every journaled
//! job must be `ok` and conserve bytes, and the fold of the journal's
//! artifact hashes (telemetry outputs excluded) is the fingerprint. Any
//! miss counts in `failed` and makes the exit code non-zero.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A traced run measures one untraced repetition as its reference, one
//! with the profiler and a counters-only recorder attached (`--profile`
//! for the batch), one at `shards = 2` (cell workloads), and timed calls
//! into each layer. Traced numbers never mix into the end-to-end ones.
//! Each layer metric and the end-to-end metric and workload it should
//! move:
//!
//! | layer | metrics | should move |
//! |---|---|---|
//! | swarm arrivals | `swarm.arrivals_share`, `swarm.arrival_us` | `peer_rounds_per_s`, `sparse-recip-30k` |
//! | swarm allocate loop | `swarm.allocate_share`, `swarm.dirty_scan_share`, `swarm.piece_pick_share` | `peer_rounds_per_s`, `dense-bt-10k` |
//! | settlement, adjacency | `swarm.settle_share`, `swarm.adjacency_share` | `peer_rounds_per_s`, `dense-bt-10k` |
//! | end-of-round hooks | `swarm.end_round_share`, `swarm.consensus_share`, `swarm.identity_share`, `swarm.epoch_share` | `peer_rounds_per_s`, `adversarial-5k` |
//! | sampling | `swarm.sample_share` | every cell workload |
//! | des engine | `des.unattributed_share` (heap + dispatch), `des.push_pop_ns` | `peer_rounds_per_s`, `sparse-recip-30k` |
//! | work done | `swarm.peers_visited`, `swarm.peers_productive`, `swarm.candidate_scans`, `swarm.wasted_visit_ratio` | `dense-bt-10k`, `adversarial-5k` |
//! | structure | `swarm.adjacency_rebuilds`, `swarm.availability_rebuilds` (must stay 0) | `adversarial-5k` |
//! | consensus, epochs | `consensus.reports`, `consensus.disputes`, `consensus.bans`, `epoch.settlements` | `adversarial-5k` |
//! | coop-piece | `piece.{wants_from,pick_rarest,index_update}_{32,64}_ns` | `dense-bt-10k` |
//! | mechanisms | `mech.<kind>.allocate_ns` for all eight | `dense-bt-10k`, `adversarial-5k` |
//! | journal | `journal.record_job_us` (fsynced append) | `cells_per_hour`, `batch-quick` |
//! | executor | `batch.journal_fsync_share`, `batch.write_artifacts_share`, `exec.build_share`, `batch.parallel_efficiency` | `cells_per_hour`, `batch-quick` |
//! | sharding | `shard.speedup_2` (two-shard over one-shard wall) | `peer_rounds_per_s` of the workload's cells |
//! | tracing | `trace.overhead` (traced over untraced wall) | — |
//!
//! Every `swarm.<phase>_share` has a `swarm.<phase>_ns_ppr` twin (ns per
//! peer-round; `swarm.run_ns_ppr` is the whole `sim.run`), and every timed
//! call a `_p99_` twin; calls are timed in blocks (1,000 blocks per
//! metric, over ten thousand calls, except the journal's one fsync per
//! block). A metric whose layer the workload never enters reads 0;
//! `shard.speedup_2` reads 0 on `batch-quick`, whose two jobs already
//! occupy both cores. `shard.speedup_2` and `trace.overhead` each compare
//! single repetitions, so they carry the machine's run-to-run noise.
//!
//! # Baseline
//!
//! `perfbench/baseline/calibration-{1,2}.json` are two sets of ten runs
//! per workload of the same commit (seeds 1–10 and 11–20, 30 s runs),
//! with the command, core count and CPU model they ran on; `compare`
//! between them shows the agreement the bounds in `BENCHMARK.json` were
//! chosen for. On that 2-vCPU machine the speed of identical work drifted
//! by about ±13% over minutes, so time metrics carry bounds of 0.25.
//!
//! # How to read a claim
//!
//! A change that claims a gain names beforehand the layer metric it moves
//! and the end-to-end metric and workload that should follow (the table
//! above), and predicts no change on the workloads that bypass the layer.
//! Measure parent and change with this same benchmark, ten or more runs
//! each on fresh seeds, and compare the sets with `compare`: a metric
//! counts as improved only when the medians differ by more than the
//! parent's own spread, and every other metric must be `Within` its
//! `BENCHMARK.json` bound. The traced runs must show the saving in the
//! named phase. Counters repeat exactly, so they can back a claim as
//! counts, not as speed-ups.

mod child;
mod layers;
mod report;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use crate::report::{RunResult, END_TO_END};
use crate::stats::median;
use crate::workload::{RepOptions, RepOutcome, Size, Workload};

const USAGE: &str = "usage:
  coop-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--toy]
  coop-benchmark [--runs N] [--seed N] [--seconds S] [--out FILE] [--toy]
  coop-benchmark compare A.json B.json
workloads: sparse-recip-30k, dense-bt-10k, adversarial-5k, batch-quick";

/// Parsed command-line options.
struct Opts {
    workload: Option<Workload>,
    /// Child mode: run one repetition of this workload and print it.
    one: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    shards: usize,
    runs: u64,
    out: Option<PathBuf>,
    size: Size,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        one: None,
        seed: 42,
        seconds: 30.0,
        trace: false,
        shards: 1,
        runs: 1,
        out: None,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            opts.size = Size::Toy;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        let workload = || Workload::parse(value).ok_or_else(|| bad("a workload name"));
        match flag.as_str() {
            "--workload" => opts.workload = Some(workload()?),
            "--one" => opts.one = Some(workload()?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--shards" => {
                opts.shards = value
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or_else(|| bad("a positive integer"))?;
            }
            "--runs" => {
                opts.runs = value
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| bad("a positive integer"))?;
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.get(1..) {
            Some([a, b]) => match report::compare(a.as_ref(), b.as_ref()) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(w) = opts.one {
        let rep = RepOptions {
            seed: opts.seed,
            size: opts.size,
            traced: opts.trace,
            shards: opts.shards,
        };
        return match workload::run_rep(w, rep) {
            Ok(outcome) => {
                println!("{}", outcome.to_json());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {} repetition: {e}", w.name());
                ExitCode::FAILURE
            }
        };
    }
    match opts.workload {
        Some(w) => drive(w, &opts),
        None => suite(&opts),
    }
}

/// One repetition measured from outside its process.
struct Measured {
    outcome: RepOutcome,
    finished: child::Finished,
}

impl Measured {
    /// The end-to-end values of this repetition, in [`END_TO_END`] order.
    fn end_to_end(&self) -> [f64; 5] {
        let o = &self.outcome;
        [
            o.peer_rounds as f64 / o.wall_s,
            o.cells as f64 * 3600.0 / o.wall_s,
            self.finished.cpu_s,
            self.finished.max_rss_kb as f64 / 1024.0,
            o.setup_s,
        ]
    }
}

/// Runs one repetition in a fresh child process.
fn spawn_rep(w: Workload, rep: RepOptions) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--one", w.name(), "--seed", &rep.seed.to_string()])
        .args(["--trace", if rep.traced { "1" } else { "0" }])
        .args(["--shards", &rep.shards.to_string()]);
    if rep.size == Size::Toy {
        cmd.arg("--toy");
    }
    let finished = child::run(&mut cmd).map_err(|e| e.to_string())?;
    if !finished.success {
        return Err(format!("{} repetition exited unsuccessfully", w.name()));
    }
    let outcome = finished
        .stdout
        .lines()
        .last()
        .and_then(RepOutcome::parse)
        .ok_or_else(|| format!("{} repetition printed no outcome", w.name()))?;
    Ok(Measured { outcome, finished })
}

/// One run of one workload (`--workload`).
fn drive(w: Workload, opts: &Opts) -> ExitCode {
    let started = Instant::now();
    let plain = RepOptions {
        seed: opts.seed,
        size: opts.size,
        traced: false,
        shards: 1,
    };
    let mut reps: Vec<Measured> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    loop {
        match spawn_rep(w, plain) {
            Ok(m) => reps.push(m),
            Err(e) => {
                errors.push(e);
                break;
            }
        }
        // A traced run needs one untraced repetition as its reference.
        if opts.size == Size::Toy || opts.trace {
            break;
        }
        let lifetimes: Vec<f64> = reps.iter().map(|m| m.finished.wall_s).collect();
        if started.elapsed().as_secs_f64() + median(&lifetimes) > opts.seconds {
            break;
        }
    }

    // Traced and two-shard repetitions go through the correctness gate
    // but never into the end-to-end numbers.
    let mut extra: Vec<Measured> = Vec::new();
    let mut layer_values: Vec<(String, f64)> = Vec::new();
    if opts.trace && !reps.is_empty() {
        let untraced = median(&reps.iter().map(|m| m.outcome.wall_s).collect::<Vec<_>>());
        match spawn_rep(
            w,
            RepOptions {
                traced: true,
                ..plain
            },
        ) {
            Ok(m) => {
                layer_values.extend(m.outcome.layers.iter().cloned());
                layer_values.push(("trace.overhead".to_string(), m.outcome.wall_s / untraced));
                extra.push(m);
            }
            Err(e) => errors.push(e),
        }
        if w.is_cells() {
            match spawn_rep(w, RepOptions { shards: 2, ..plain }) {
                Ok(m) => {
                    layer_values.push(("shard.speedup_2".to_string(), untraced / m.outcome.wall_s));
                    extra.push(m);
                }
                Err(e) => errors.push(e),
            }
        }
        match layers::micro(opts.size) {
            Ok(values) => layer_values.extend(values),
            Err(e) => errors.push(format!("layer timings: {e}")),
        }
    }

    let expected = w
        .expected_fingerprint(opts.seed, opts.size)
        .or_else(|| reps.first().map(|m| m.outcome.fingerprint));
    let (mut attempted, mut failed) = (0u64, 0u64);
    for m in reps.iter().chain(&extra) {
        let o = &m.outcome;
        attempted += o.cells;
        failed += if Some(o.fingerprint) == expected {
            o.failed
        } else {
            o.cells.max(1)
        };
    }
    for e in &errors {
        eprintln!("error: {e}");
        attempted += w.cells_per_rep();
        failed += w.cells_per_rep();
    }
    if let (Some(want), Some(first)) = (expected, reps.first()) {
        if first.outcome.fingerprint != want {
            eprintln!(
                "error: {} seed {} fingerprint {:016x}, pinned {want:016x}",
                w.name(),
                opts.seed,
                first.outcome.fingerprint
            );
        }
    }
    let correct = failed == 0 && !reps.is_empty();

    let title = format!(
        "coop-benchmark {} — seed {}, {} repetition(s), one process each, nproc {}",
        w.name(),
        opts.seed,
        reps.len(),
        report::box_description().0
    );
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    if !reps.is_empty() {
        let rows: Vec<(String, &str, Vec<f64>)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (name, unit))| {
                let values = reps.iter().map(|m| m.end_to_end()[i]).collect();
                (name.to_string(), *unit, values)
            })
            .collect();
        report::print_table(&title, &rows);
        if opts.trace {
            for (name, unit) in layers::names() {
                let value = layer_values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                println!("  {name:<34} {value:>18.6} {unit}");
                metrics.push((name, unit, value));
            }
        } else {
            metrics = rows
                .into_iter()
                .map(|(name, unit, values)| (name, unit, median(&values)))
                .collect();
        }
    }
    println!(
        "{}",
        report::result_line(
            correct,
            attempted.max(1),
            failed.max(u64::from(!correct)),
            &metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload `--runs` times on consecutive seeds, interleaved
/// round-robin, and optionally writes the calibration set.
fn suite(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results: Vec<RunResult> = Vec::new();
    let mut all_correct = true;
    for i in 0..opts.runs {
        let seed = opts.seed + i;
        for w in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string(), "--trace", "0"]);
            if opts.size == Size::Toy {
                cmd.arg("--toy");
            }
            let parsed = child::run(&mut cmd).ok().and_then(|f| {
                print!("{}", f.stdout);
                RunResult::parse(w.name(), seed, f.stdout.lines().last()?)
            });
            match parsed {
                Some(r) => {
                    all_correct &= r.correct;
                    results.push(r);
                }
                None => {
                    eprintln!("error: {} seed {seed} printed no result", w.name());
                    all_correct = false;
                }
            }
        }
    }
    if opts.runs > 1 {
        for w in Workload::ALL {
            let rows: Vec<(String, &str, Vec<f64>)> = END_TO_END
                .iter()
                .map(|(name, unit)| {
                    let values: Vec<f64> = results
                        .iter()
                        .filter(|r| r.workload == w.name())
                        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name))
                        .map(|(_, v)| *v)
                        .collect();
                    (name.to_string(), *unit, values)
                })
                .filter(|(_, _, values)| !values.is_empty())
                .collect();
            let spreads: Vec<String> = rows
                .iter()
                .map(|(name, _, v)| format!("{name} {:.3}", stats::spread(v)))
                .collect();
            report::print_table(&format!("{} over {} runs", w.name(), opts.runs), &rows);
            println!("  spread (IQR / median): {}", spreads.join(", "));
        }
    }
    if let Some(path) = &opts.out {
        if let Err(e) = report::write_set(path, opts.seconds, &results) {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
