//! Typed run specifications for the experiment CLI.
//!
//! [`RunSpec::parse`] turns an argv slice into a validated spec up front,
//! so the dispatch code never sees raw strings: unknown artifacts, unknown
//! flags, and malformed values are all rejected here with errors that name
//! the offending flag.
//!
//! Flag handling is data-driven: [`FLAGS`] is the single table mapping
//! each flag to its value parser and the artifacts it is restricted to.
//! The usage text ([`usage`]), per-artifact gating, and gating error
//! messages are all generated from that one table, so they cannot drift
//! apart.

use std::path::PathBuf;
use std::time::Duration;

use crate::exec::Executor;
use crate::scenario;
use crate::telemetry::TelemetryOpts;
use crate::Scale;

/// Which paper artifact (or suite) a run regenerates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // the variants mirror the paper's artifact names
pub enum Artifact {
    Table1,
    Table2,
    Table3,
    Fig1,
    Fig2,
    Fig3,
    Fig4,
    /// The hot-path scaling sweep (population × mechanism, rounds/sec and
    /// peak-RSS columns). Not part of `all`: its perf artifacts carry
    /// wall-clock data and exist to benchmark the harness, not the paper.
    Fig4Scale,
    Fig5,
    Fig6,
    /// The settlement-cadence sweep (epoch ladder × free-ride attack,
    /// closed-form λ column). Not part of `all`: it studies the repo's
    /// epoch-settled extension, not a paper artifact.
    FigEpoch,
    /// The consensus-reputation defense sweep (adaptive-attacker ladder ×
    /// named ban policies). Not part of `all`: it studies the repo's
    /// consensus extension, not a paper artifact.
    FigConsensus,
    Fluid,
    Ablations,
    Extensions,
    /// Every artifact above except `fig4-scale`, in paper order.
    All,
    /// Declarative scenario packs: `sweep <scenario|spec.json|pack-dir>`
    /// compiles spec files into the simulation grid.
    Sweep,
    /// Compare two `profile.json` snapshots (`perf-diff --baseline A
    /// --current B`): per-phase deltas, tolerance bands, and structural
    /// regression gates. Runs no simulations.
    PerfDiff,
}

/// The artifacts whose simulation jobs are journaled for `--resume`.
/// `fig4-scale` runs the same `SimJob` batches but is left out: its perf
/// rows are live wall-clock and `VmHWM` readings, which a replay from the
/// journal cannot reproduce.
const JOURNALED: &[Artifact] = &[
    Artifact::Fig4,
    Artifact::Fig5,
    Artifact::Fig6,
    Artifact::FigEpoch,
    Artifact::FigConsensus,
    Artifact::Ablations,
    Artifact::All,
    Artifact::Sweep,
];

impl Artifact {
    /// The individual artifacts, in the order `all` runs them.
    pub const ALL: [Artifact; 12] = [
        Artifact::Table1,
        Artifact::Fig1,
        Artifact::Fig2,
        Artifact::Fig3,
        Artifact::Table2,
        Artifact::Table3,
        Artifact::Fig4,
        Artifact::Fig5,
        Artifact::Fig6,
        Artifact::Fluid,
        Artifact::Ablations,
        Artifact::Extensions,
    ];

    /// Parses a CLI artifact name.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnknownArtifact`] for unrecognized names.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        match s.to_ascii_lowercase().as_str() {
            "table1" => Ok(Artifact::Table1),
            "table2" => Ok(Artifact::Table2),
            "table3" => Ok(Artifact::Table3),
            "fig1" => Ok(Artifact::Fig1),
            "fig2" => Ok(Artifact::Fig2),
            "fig3" => Ok(Artifact::Fig3),
            "fig4" => Ok(Artifact::Fig4),
            "fig4-scale" | "fig4scale" => Ok(Artifact::Fig4Scale),
            "fig5" => Ok(Artifact::Fig5),
            "fig6" => Ok(Artifact::Fig6),
            "fig-epoch" | "figepoch" => Ok(Artifact::FigEpoch),
            "fig-consensus" | "figconsensus" => Ok(Artifact::FigConsensus),
            "fluid" => Ok(Artifact::Fluid),
            "ablations" => Ok(Artifact::Ablations),
            "extensions" => Ok(Artifact::Extensions),
            "all" => Ok(Artifact::All),
            "sweep" => Ok(Artifact::Sweep),
            "perf-diff" | "perfdiff" => Ok(Artifact::PerfDiff),
            other => Err(SpecError::UnknownArtifact(other.to_string())),
        }
    }

    /// The canonical CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Table1 => "table1",
            Artifact::Table2 => "table2",
            Artifact::Table3 => "table3",
            Artifact::Fig1 => "fig1",
            Artifact::Fig2 => "fig2",
            Artifact::Fig3 => "fig3",
            Artifact::Fig4 => "fig4",
            Artifact::Fig4Scale => "fig4-scale",
            Artifact::Fig5 => "fig5",
            Artifact::Fig6 => "fig6",
            Artifact::FigEpoch => "fig-epoch",
            Artifact::FigConsensus => "fig-consensus",
            Artifact::Fluid => "fluid",
            Artifact::Ablations => "ablations",
            Artifact::Extensions => "extensions",
            Artifact::All => "all",
            Artifact::Sweep => "sweep",
            Artifact::PerfDiff => "perf-diff",
        }
    }

    /// Whether `--replicates` changes what this artifact runs (the
    /// simulation figures and scenario sweeps aggregate over seeds).
    pub fn supports_replicates(self) -> bool {
        matches!(
            self,
            Artifact::Fig4 | Artifact::Fig5 | Artifact::Fig6 | Artifact::Sweep
        )
    }

    /// Whether this artifact's simulation jobs are journaled for
    /// `--resume` (the batch-simulation artifacts; the analytic tables
    /// and figures re-run in milliseconds and need no ledger).
    pub fn supports_resume(self) -> bool {
        JOURNALED.contains(&self)
    }
}

/// A fully validated experiment invocation.
///
/// # Example
///
/// ```
/// use coop_experiments::{RunSpec, Scale};
/// let args = ["fig4", "--scale", "quick", "--replicates", "8", "--jobs", "4"];
/// let spec = RunSpec::parse(args.iter().map(|s| s.to_string())).unwrap();
/// assert_eq!(spec.scale, Scale::Quick);
/// assert_eq!(spec.replicates, 8);
/// assert_eq!(spec.jobs, 4);
/// assert_eq!(spec.seeds(), (42..50).collect::<Vec<_>>());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// What to regenerate.
    pub artifact: Artifact,
    /// Simulation scale (`--scale`, default [`Scale::Default`]).
    pub scale: Scale,
    /// Base RNG seed (`--seed`, default 42).
    pub seed: u64,
    /// Number of seeds to aggregate over (`--replicates`, default 1).
    pub replicates: u64,
    /// Worker-thread budget for independent simulations (`--jobs`,
    /// default = available parallelism).
    pub jobs: usize,
    /// Worker threads *inside* each simulation's round (`--shards`,
    /// default 1 = unsharded). Orthogonal to `--jobs`; artifacts are
    /// byte-identical for any shard count.
    pub shards: usize,
    /// Artifact directory override (`--out-dir`, default
    /// `target/experiments`).
    pub out_dir: Option<PathBuf>,
    /// Record run telemetry — counters, probes, spans, and a
    /// `manifest.json` next to the artifacts (`--telemetry`).
    pub telemetry: bool,
    /// Stream kept trace events to this JSONL file (`--trace-out`,
    /// implies `--telemetry`).
    pub trace_out: Option<PathBuf>,
    /// Round-probe cadence for telemetry (`--probe-every`, default 10).
    pub probe_every: u64,
    /// Profile the round loop's phases and write `profile.json` next to
    /// the artifacts (`--profile`, implies `--telemetry`).
    pub profile: bool,
    /// Profile every K-th batch slot (`--profile-every`, default 1).
    pub profile_every: u64,
    /// Baseline `profile.json` for `perf-diff` (`--baseline FILE`).
    pub baseline: Option<PathBuf>,
    /// Current `profile.json` for `perf-diff` (`--current FILE`).
    pub current: Option<PathBuf>,
    /// Maximum tolerated absolute phase-share drift for `perf-diff`
    /// (`--tolerance`, default 0.25).
    pub tolerance: f64,
    /// Population sweep override (`--peers N[,N...]`, fig4-scale only);
    /// `None` means the runner's default sweep.
    pub peers: Option<Vec<usize>>,
    /// The scenario pack to sweep (`sweep <ARG>` positionally or
    /// `--scenario ARG`): a built-in scenario name, a spec file, or a
    /// pack directory.
    pub scenario: Option<String>,
    /// Resume an interrupted run from this artifact directory's journal
    /// (`--resume DIR`; journaled artifacts only, replaces `--out-dir`).
    pub resume: Option<PathBuf>,
    /// Extra attempts for a job that panics or times out (`--retries`,
    /// default 0 = fail after the first attempt).
    pub retries: u64,
    /// Per-attempt watchdog timeout in seconds (`--job-timeout`; `None`
    /// means no watchdog).
    pub job_timeout: Option<u64>,
}

/// Why an argv slice failed to parse into a [`RunSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// `--help` was requested; not a failure.
    Help,
    /// No artifact name was given.
    MissingArtifact,
    /// `sweep` was requested without naming a scenario pack.
    MissingScenario,
    /// The artifact name is not one the harness knows.
    UnknownArtifact(String),
    /// A flag the parser does not recognize.
    UnknownFlag(String),
    /// A flag that requires a value appeared last.
    MissingValue {
        /// The flag missing its value.
        flag: &'static str,
    },
    /// A flag the artifact requires was not given (`perf-diff` needs
    /// `--baseline` and `--current`).
    MissingFlag {
        /// The required flag that was absent.
        flag: &'static str,
    },
    /// A flag value that failed validation.
    InvalidValue {
        /// The flag whose value was rejected.
        flag: &'static str,
        /// The offending value, verbatim.
        value: String,
        /// What a valid value looks like.
        reason: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Help => write!(f, "help requested"),
            SpecError::MissingArtifact => write!(f, "no artifact named"),
            SpecError::MissingScenario => write!(
                f,
                "sweep requires a scenario: a built-in name ({}), a spec file, or a pack directory",
                scenario::builtin_names().join(", ")
            ),
            SpecError::UnknownArtifact(name) => {
                write!(f, "unknown artifact '{name}'")
            }
            SpecError::UnknownFlag(flag) => write!(f, "unknown flag '{flag}'"),
            SpecError::MissingValue { flag } => {
                write!(f, "flag '{flag}' requires a value")
            }
            SpecError::MissingFlag { flag } => {
                write!(f, "required flag '{flag}' was not provided")
            }
            SpecError::InvalidValue {
                flag,
                value,
                reason,
            } => {
                write!(f, "invalid value '{value}' for '{flag}': {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Parse-time accumulator: [`RunSpec`] fields with the artifact still
/// optional. The [`FLAGS`] setters mutate this.
struct Draft {
    artifact: Option<Artifact>,
    scale: Scale,
    seed: u64,
    replicates: u64,
    jobs: usize,
    shards: usize,
    out_dir: Option<PathBuf>,
    telemetry: bool,
    trace_out: Option<PathBuf>,
    probe_every: u64,
    profile: bool,
    profile_every: u64,
    baseline: Option<PathBuf>,
    current: Option<PathBuf>,
    tolerance: f64,
    peers: Option<Vec<usize>>,
    scenario: Option<String>,
    resume: Option<PathBuf>,
    retries: u64,
    job_timeout: Option<u64>,
}

impl Draft {
    fn new() -> Self {
        Draft {
            artifact: None,
            scale: Scale::Default,
            seed: 42,
            replicates: 1,
            jobs: Executor::default().jobs(),
            shards: 1,
            out_dir: None,
            telemetry: false,
            trace_out: None,
            probe_every: 10,
            profile: false,
            profile_every: 1,
            baseline: None,
            current: None,
            tolerance: 0.25,
            peers: None,
            scenario: None,
            resume: None,
            retries: 0,
            job_timeout: None,
        }
    }
}

/// Argument iterator type the flag setters consume values from.
type Args<'a> = &'a mut dyn Iterator<Item = String>;

/// One CLI flag: its name, value syntax, artifact gating, and value
/// parser. [`usage`], the parse loop, and the
/// per-artifact gating pass are all driven by this table alone.
struct FlagDef {
    /// The flag as typed (`"--scale"`).
    name: &'static str,
    /// Metavariable shown in usage, `None` for boolean flags.
    metavar: Option<&'static str>,
    /// Artifacts the flag is restricted to; `None` = available
    /// everywhere. Gating errors list these names.
    only: Option<&'static [Artifact]>,
    /// Parses the flag's value(s) into the draft.
    set: fn(&mut Draft, Args<'_>) -> Result<(), SpecError>,
    /// Whether the flag was used — consulted for gating.
    is_set: fn(&Draft) -> bool,
}

fn set_scale(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    let v = next_value(it, "--scale")?;
    d.scale = Scale::parse(&v).map_err(|_| SpecError::InvalidValue {
        flag: "--scale",
        value: v,
        reason: "expected quick, default, or paper".to_string(),
    })?;
    Ok(())
}

fn set_seed(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.seed = parse_number(it, "--seed", 0)?;
    Ok(())
}

fn set_replicates(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.replicates = parse_number(it, "--replicates", 1)?;
    Ok(())
}

fn set_jobs(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.jobs = usize::try_from(parse_number(it, "--jobs", 1)?).expect("validated above");
    Ok(())
}

fn set_shards(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.shards = usize::try_from(parse_number(it, "--shards", 1)?).expect("validated above");
    Ok(())
}

fn set_out_dir(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.out_dir = Some(PathBuf::from(next_value(it, "--out-dir")?));
    Ok(())
}

fn set_telemetry(d: &mut Draft, _it: Args<'_>) -> Result<(), SpecError> {
    d.telemetry = true;
    Ok(())
}

fn set_trace_out(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.trace_out = Some(PathBuf::from(next_value(it, "--trace-out")?));
    Ok(())
}

fn set_probe_every(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.probe_every = parse_number(it, "--probe-every", 1)?;
    Ok(())
}

fn set_profile(d: &mut Draft, _it: Args<'_>) -> Result<(), SpecError> {
    d.profile = true;
    Ok(())
}

fn set_profile_every(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.profile_every = parse_number(it, "--profile-every", 1)?;
    Ok(())
}

fn set_baseline(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.baseline = Some(PathBuf::from(next_value(it, "--baseline")?));
    Ok(())
}

fn set_current(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.current = Some(PathBuf::from(next_value(it, "--current")?));
    Ok(())
}

fn set_tolerance(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.tolerance = parse_float(it, "--tolerance", 1.0)?;
    Ok(())
}

fn set_retries(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.retries = parse_number(it, "--retries", 0)?;
    Ok(())
}

fn set_job_timeout(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.job_timeout = Some(parse_number(it, "--job-timeout", 1)?);
    Ok(())
}

fn set_resume(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.resume = Some(PathBuf::from(next_value(it, "--resume")?));
    Ok(())
}

fn set_scenario(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.scenario = Some(next_value(it, "--scenario")?);
    Ok(())
}

fn set_peers(d: &mut Draft, it: Args<'_>) -> Result<(), SpecError> {
    d.peers = Some(parse_peer_list(it)?);
    Ok(())
}

/// The one flag table: declaration order is usage order.
static FLAGS: &[FlagDef] = &[
    FlagDef {
        name: "--scale",
        metavar: Some("quick|default|paper"),
        only: None,
        set: set_scale,
        is_set: |_| false,
    },
    FlagDef {
        name: "--seed",
        metavar: Some("N"),
        only: None,
        set: set_seed,
        is_set: |_| false,
    },
    FlagDef {
        name: "--replicates",
        metavar: Some("N"),
        only: None,
        set: set_replicates,
        is_set: |_| false,
    },
    FlagDef {
        name: "--jobs",
        metavar: Some("N"),
        only: None,
        set: set_jobs,
        is_set: |_| false,
    },
    FlagDef {
        name: "--shards",
        metavar: Some("K"),
        only: None,
        set: set_shards,
        is_set: |_| false,
    },
    FlagDef {
        name: "--out-dir",
        metavar: Some("DIR"),
        only: None,
        set: set_out_dir,
        is_set: |_| false,
    },
    FlagDef {
        name: "--telemetry",
        metavar: None,
        only: None,
        set: set_telemetry,
        is_set: |_| false,
    },
    FlagDef {
        name: "--trace-out",
        metavar: Some("FILE"),
        only: None,
        set: set_trace_out,
        is_set: |_| false,
    },
    FlagDef {
        name: "--probe-every",
        metavar: Some("N"),
        only: None,
        set: set_probe_every,
        is_set: |_| false,
    },
    FlagDef {
        name: "--profile",
        metavar: None,
        only: None,
        set: set_profile,
        is_set: |_| false,
    },
    FlagDef {
        name: "--profile-every",
        metavar: Some("K"),
        only: None,
        set: set_profile_every,
        is_set: |_| false,
    },
    FlagDef {
        name: "--retries",
        metavar: Some("N"),
        only: None,
        set: set_retries,
        is_set: |_| false,
    },
    FlagDef {
        name: "--job-timeout",
        metavar: Some("SECS"),
        only: None,
        set: set_job_timeout,
        is_set: |_| false,
    },
    FlagDef {
        name: "--resume",
        metavar: Some("DIR"),
        only: Some(JOURNALED),
        set: set_resume,
        is_set: |d| d.resume.is_some(),
    },
    FlagDef {
        name: "--scenario",
        metavar: Some("NAME|FILE|DIR"),
        only: Some(&[Artifact::Sweep]),
        set: set_scenario,
        is_set: |d| d.scenario.is_some(),
    },
    FlagDef {
        name: "--peers",
        metavar: Some("N[,N...]"),
        only: Some(&[Artifact::Fig4Scale, Artifact::FigConsensus]),
        set: set_peers,
        is_set: |d| d.peers.is_some(),
    },
    FlagDef {
        name: "--baseline",
        metavar: Some("FILE"),
        only: Some(&[Artifact::PerfDiff]),
        set: set_baseline,
        is_set: |d| d.baseline.is_some(),
    },
    FlagDef {
        name: "--current",
        metavar: Some("FILE"),
        only: Some(&[Artifact::PerfDiff]),
        set: set_current,
        is_set: |d| d.current.is_some(),
    },
    FlagDef {
        name: "--tolerance",
        metavar: Some("SHARE"),
        only: Some(&[Artifact::PerfDiff]),
        set: set_tolerance,
        is_set: |d| d.tolerance != 0.25,
    },
];

/// The usage text, generated from [`FLAGS`] so it can never drift from
/// the parser: ungated flags first, then one line per gated group with
/// the allowed artifacts annotated.
pub fn usage() -> String {
    let artifacts: Vec<&str> = Artifact::ALL
        .iter()
        .map(|a| a.name())
        .chain(["fig4-scale", "fig-epoch", "fig-consensus", "all"])
        .collect();
    let mut out = format!(
        "usage: coop-experiments <{}>\n       coop-experiments sweep <scenario|spec.json|pack-dir>\n       coop-experiments perf-diff --baseline FILE --current FILE [--tolerance SHARE]",
        artifacts.join("|")
    );

    // Ungated flags, wrapped.
    let mut line = String::new();
    for flag in FLAGS.iter().filter(|f| f.only.is_none()) {
        let piece = match flag.metavar {
            Some(mv) => format!("[{} {mv}]", flag.name),
            None => format!("[{}]", flag.name),
        };
        if line.len() + piece.len() + 1 > 68 && !line.is_empty() {
            out.push_str("\n       ");
            out.push_str(&line);
            line.clear();
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(&piece);
    }
    if !line.is_empty() {
        out.push_str("\n       ");
        out.push_str(&line);
    }

    // Gated flags, one line per artifact-set group in first-seen order.
    let mut groups: Vec<(&[Artifact], Vec<String>)> = Vec::new();
    for flag in FLAGS.iter() {
        let Some(only) = flag.only else { continue };
        let piece = match flag.metavar {
            Some(mv) => format!("[{} {mv}]", flag.name),
            None => format!("[{}]", flag.name),
        };
        match groups.iter_mut().find(|(o, _)| std::ptr::eq(*o, only)) {
            Some((_, pieces)) => pieces.push(piece),
            None => groups.push((only, vec![piece])),
        }
    }
    for (only, pieces) in groups {
        let names: Vec<&str> = only.iter().map(|a| a.name()).collect();
        out.push_str(&format!(
            "\n       {}  ({})",
            pieces.join(" "),
            names.join("|")
        ));
    }
    out
}

impl RunSpec {
    /// Parses CLI arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending flag or artifact;
    /// [`SpecError::Help`] when `--help`/`-h` is present.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, SpecError> {
        let mut draft = Draft::new();
        let mut it = args.into_iter();
        'args: while let Some(arg) = it.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(SpecError::Help),
                other if other.starts_with('-') => {
                    for flag in FLAGS {
                        if flag.name == other {
                            (flag.set)(&mut draft, &mut it)?;
                            continue 'args;
                        }
                    }
                    return Err(SpecError::UnknownFlag(other.to_string()));
                }
                other if draft.artifact.is_none() => {
                    draft.artifact = Some(Artifact::parse(other)?);
                }
                other if draft.artifact == Some(Artifact::Sweep) && draft.scenario.is_none() => {
                    // `sweep`'s second positional names the scenario pack.
                    draft.scenario = Some(other.to_string());
                }
                other => {
                    // A second positional argument: almost always a typo'd
                    // flag value, so report it as an unknown flag.
                    return Err(SpecError::UnknownFlag(other.to_string()));
                }
            }
        }
        let artifact = draft.artifact.ok_or(SpecError::MissingArtifact)?;

        // Per-artifact gating, generated from the same table the parser
        // and usage text use.
        for flag in FLAGS {
            if let Some(only) = flag.only {
                if (flag.is_set)(&draft) && !only.contains(&artifact) {
                    let allowed: Vec<&str> = only.iter().map(|a| a.name()).collect();
                    return Err(SpecError::InvalidValue {
                        flag: flag.name,
                        value: artifact.name().to_string(),
                        reason: format!(
                            "{} is only supported by {}",
                            flag.name,
                            allowed.join(", ")
                        ),
                    });
                }
            }
        }
        if artifact == Artifact::Sweep && draft.scenario.is_none() {
            return Err(SpecError::MissingScenario);
        }
        if artifact == Artifact::PerfDiff {
            if draft.baseline.is_none() {
                return Err(SpecError::MissingFlag { flag: "--baseline" });
            }
            if draft.current.is_none() {
                return Err(SpecError::MissingFlag { flag: "--current" });
            }
        }
        if draft.resume.is_some() {
            if let Some(dir) = &draft.out_dir {
                return Err(SpecError::InvalidValue {
                    flag: "--resume",
                    value: dir.display().to_string(),
                    reason: "--resume already names the artifact directory; \
                             do not also pass --out-dir"
                        .to_string(),
                });
            }
        }
        Ok(RunSpec {
            artifact,
            scale: draft.scale,
            seed: draft.seed,
            replicates: draft.replicates,
            jobs: draft.jobs,
            shards: draft.shards,
            out_dir: draft.out_dir,
            telemetry: draft.telemetry,
            trace_out: draft.trace_out,
            probe_every: draft.probe_every,
            profile: draft.profile,
            profile_every: draft.profile_every,
            baseline: draft.baseline,
            current: draft.current,
            tolerance: draft.tolerance,
            peers: draft.peers,
            scenario: draft.scenario,
            resume: draft.resume,
            retries: draft.retries,
            job_timeout: draft.job_timeout,
        })
    }

    /// The seed list implied by `seed` and `replicates` (consecutive).
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.replicates).map(|i| self.seed + i).collect()
    }

    /// An [`Executor`] sized to this spec's `--jobs` and `--shards` and
    /// carrying its robustness policy (`--retries`, `--job-timeout`).
    /// Journal/replay wiring is the caller's job — it needs the artifact
    /// directory.
    pub fn executor(&self) -> Executor {
        let mut executor = Executor::new(self.jobs)
            .with_shards(self.shards)
            .with_retries(self.retries);
        if let Some(secs) = self.job_timeout {
            executor = executor.with_job_timeout(Duration::from_secs(secs));
        }
        executor
    }

    /// The telemetry options implied by `--telemetry`, `--trace-out`,
    /// `--probe-every`, `--profile`, and `--profile-every`.
    pub fn telemetry_opts(&self) -> TelemetryOpts {
        TelemetryOpts {
            enabled: self.telemetry,
            trace_out: self.trace_out.clone(),
            probe_every: self.probe_every,
            profile: self.profile,
            profile_every: self.profile_every,
        }
    }
}

/// Pulls the next argument as `flag`'s value.
fn next_value(it: Args<'_>, flag: &'static str) -> Result<String, SpecError> {
    it.next().ok_or(SpecError::MissingValue { flag })
}

/// Parses `flag`'s value as an integer no smaller than `min`.
fn parse_number(it: Args<'_>, flag: &'static str, min: u64) -> Result<u64, SpecError> {
    let v = next_value(it, flag)?;
    match v.parse::<u64>() {
        Ok(n) if n >= min => Ok(n),
        Ok(_) => Err(SpecError::InvalidValue {
            flag,
            value: v,
            reason: format!("must be at least {min}"),
        }),
        Err(_) => Err(SpecError::InvalidValue {
            flag,
            value: v,
            reason: "expected a non-negative integer".to_string(),
        }),
    }
}

/// Parses `--peers`' value as a comma-separated population list (each at
/// least 2 — a swarm needs a downloader besides the seeder).
fn parse_peer_list(it: Args<'_>) -> Result<Vec<usize>, SpecError> {
    let v = next_value(it, "--peers")?;
    let invalid = |v: &str| SpecError::InvalidValue {
        flag: "--peers",
        value: v.to_string(),
        reason: "expected a comma-separated list of populations, each at least 2".to_string(),
    };
    let mut list = Vec::new();
    for part in v.split(',') {
        match part.trim().parse::<usize>() {
            Ok(n) if n >= 2 => list.push(n),
            _ => return Err(invalid(&v)),
        }
    }
    if list.is_empty() {
        return Err(invalid(&v));
    }
    Ok(list)
}

/// Parses `flag`'s value as a finite float in `[0, max]`.
fn parse_float(it: Args<'_>, flag: &'static str, max: f64) -> Result<f64, SpecError> {
    let v = next_value(it, flag)?;
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && (0.0..=max).contains(&x) => Ok(x),
        Ok(_) => Err(SpecError::InvalidValue {
            flag,
            value: v,
            reason: format!("must be a finite number in [0, {max}]"),
        }),
        Err(_) => Err(SpecError::InvalidValue {
            flag,
            value: v,
            reason: "expected a number".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunSpec, SpecError> {
        RunSpec::parse(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_full_flag_set() {
        let spec = parse(&[
            "fig5",
            "--scale",
            "paper",
            "--seed",
            "7",
            "--replicates",
            "3",
            "--jobs",
            "2",
            "--out-dir",
            "out/x",
        ])
        .unwrap();
        assert_eq!(spec.artifact, Artifact::Fig5);
        assert_eq!(spec.scale, Scale::Paper);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.replicates, 3);
        assert_eq!(spec.jobs, 2);
        assert_eq!(spec.out_dir.as_deref(), Some(std::path::Path::new("out/x")));
        assert_eq!(spec.seeds(), vec![7, 8, 9]);
        assert_eq!(spec.executor().jobs(), 2);
    }

    #[test]
    fn shards_parses_and_sizes_the_executor() {
        let spec = parse(&["fig4", "--shards", "4"]).unwrap();
        assert_eq!(spec.shards, 4);
        assert_eq!(spec.executor().shards(), 4);
        let err = parse(&["fig4", "--shards", "0"]).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::InvalidValue {
                    flag: "--shards",
                    ..
                }
            ),
            "{err:?}"
        );
        let err = parse(&["fig4", "--shards"]).unwrap_err();
        assert_eq!(err, SpecError::MissingValue { flag: "--shards" });
    }

    #[test]
    fn defaults_are_sensible() {
        let spec = parse(&["table2"]).unwrap();
        assert_eq!(spec.artifact, Artifact::Table2);
        assert_eq!(spec.scale, Scale::Default);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.replicates, 1);
        assert!(spec.jobs >= 1, "jobs defaults to available parallelism");
        assert_eq!(spec.shards, 1, "rounds are unsharded by default");
        assert_eq!(spec.out_dir, None);
        assert!(!spec.telemetry);
        assert_eq!(spec.trace_out, None);
        assert_eq!(spec.probe_every, 10);
        assert!(!spec.telemetry_opts().is_enabled());
    }

    #[test]
    fn telemetry_flags_parse() {
        let spec = parse(&[
            "fig4",
            "--telemetry",
            "--trace-out",
            "out/trace.jsonl",
            "--probe-every",
            "5",
        ])
        .unwrap();
        assert!(spec.telemetry);
        assert_eq!(
            spec.trace_out.as_deref(),
            Some(std::path::Path::new("out/trace.jsonl"))
        );
        assert_eq!(spec.probe_every, 5);
        let opts = spec.telemetry_opts();
        assert!(opts.is_enabled());
        assert_eq!(opts.recorder_config().probe_every, 5);

        // --trace-out alone implies telemetry.
        let spec = parse(&["fig4", "--trace-out", "t.jsonl"]).unwrap();
        assert!(!spec.telemetry);
        assert!(spec.telemetry_opts().is_enabled());
    }

    #[test]
    fn telemetry_flag_errors_are_named() {
        let err = parse(&["fig4", "--trace-out"]).unwrap_err();
        assert_eq!(
            err,
            SpecError::MissingValue {
                flag: "--trace-out"
            }
        );

        let err = parse(&["fig4", "--probe-every"]).unwrap_err();
        assert_eq!(
            err,
            SpecError::MissingValue {
                flag: "--probe-every"
            }
        );

        let err = parse(&["fig4", "--probe-every", "0"]).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::InvalidValue {
                    flag: "--probe-every",
                    ..
                }
            ),
            "{err:?}"
        );

        let err = parse(&["fig4", "--probe-every", "often"]).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("--probe-every") && msg.contains("often"),
            "{msg}"
        );

        // A typo'd telemetry flag is still an unknown flag.
        let err = parse(&["fig4", "--telemetri"]).unwrap_err();
        assert_eq!(err, SpecError::UnknownFlag("--telemetri".to_string()));
    }

    #[test]
    fn tolerance_values_are_validated() {
        let perf_diff = |tail: &[&str]| {
            let mut args = vec!["perf-diff", "--baseline", "a.json", "--current", "b.json"];
            args.extend_from_slice(tail);
            parse(&args)
        };
        for bad in ["1.5", "NaN", "-0.1", "inf", "wide"] {
            let err = perf_diff(&["--tolerance", bad]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SpecError::InvalidValue {
                        flag: "--tolerance",
                        ..
                    }
                ),
                "{bad:?}: {err:?}"
            );
        }
        let err = perf_diff(&["--tolerance"]).unwrap_err();
        assert_eq!(
            err,
            SpecError::MissingValue {
                flag: "--tolerance"
            }
        );
    }

    #[test]
    fn tolerance_rejected_for_other_artifacts() {
        let err = parse(&["fig4", "--tolerance", "0.1"]).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::InvalidValue {
                    flag: "--tolerance",
                    ..
                }
            ),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("perf-diff"), "{msg}");
    }

    #[test]
    fn flags_may_precede_the_artifact() {
        let spec = parse(&["--seed", "9", "fig4"]).unwrap();
        assert_eq!(spec.artifact, Artifact::Fig4);
        assert_eq!(spec.seed, 9);
    }

    #[test]
    fn unknown_flag_is_named() {
        let err = parse(&["fig4", "--speed", "11"]).unwrap_err();
        assert_eq!(err, SpecError::UnknownFlag("--speed".to_string()));
        assert!(err.to_string().contains("--speed"));
    }

    #[test]
    fn invalid_values_name_the_flag() {
        let err = parse(&["fig4", "--seed", "banana"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--seed") && msg.contains("banana"), "{msg}");

        let err = parse(&["fig4", "--scale", "huge"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--scale") && msg.contains("huge"), "{msg}");

        let err = parse(&["fig4", "--replicates", "0"]).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::InvalidValue {
                    flag: "--replicates",
                    ..
                }
            ),
            "{err:?}"
        );

        let err = parse(&["fig4", "--jobs", "0"]).unwrap_err();
        assert!(
            matches!(err, SpecError::InvalidValue { flag: "--jobs", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn dangling_flag_reports_missing_value() {
        let err = parse(&["fig4", "--jobs"]).unwrap_err();
        assert_eq!(err, SpecError::MissingValue { flag: "--jobs" });
        assert!(err.to_string().contains("--jobs"));
    }

    #[test]
    fn missing_and_unknown_artifacts() {
        assert_eq!(parse(&[]).unwrap_err(), SpecError::MissingArtifact);
        assert_eq!(
            parse(&["fig9"]).unwrap_err(),
            SpecError::UnknownArtifact("fig9".to_string())
        );
        assert_eq!(
            parse(&["fig4", "stray"]).unwrap_err(),
            SpecError::UnknownFlag("stray".to_string())
        );
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&["fig4", "--help"]).unwrap_err(), SpecError::Help);
        assert_eq!(parse(&["-h"]).unwrap_err(), SpecError::Help);
    }

    #[test]
    fn artifact_names_round_trip() {
        // fig4-scale, fig-epoch and sweep are parseable but deliberately
        // not part of `all`.
        for artifact in Artifact::ALL.into_iter().chain([
            Artifact::Fig4Scale,
            Artifact::FigEpoch,
            Artifact::FigConsensus,
            Artifact::All,
            Artifact::Sweep,
            Artifact::PerfDiff,
        ]) {
            assert_eq!(Artifact::parse(artifact.name()).unwrap(), artifact);
        }
        assert!(!Artifact::ALL.contains(&Artifact::Fig4Scale));
        assert!(!Artifact::ALL.contains(&Artifact::FigEpoch));
        assert!(!Artifact::ALL.contains(&Artifact::FigConsensus));
        assert!(!Artifact::ALL.contains(&Artifact::Sweep));
        assert!(!Artifact::ALL.contains(&Artifact::PerfDiff));
        assert_eq!(Artifact::parse("figepoch").unwrap(), Artifact::FigEpoch);
        assert!(Artifact::Fig4.supports_replicates());
        assert!(Artifact::Sweep.supports_replicates());
        assert!(!Artifact::Table1.supports_replicates());
        assert!(!Artifact::Fig4Scale.supports_replicates());
        assert!(!Artifact::PerfDiff.supports_replicates());
    }

    #[test]
    fn profile_flags_parse_and_flow_into_telemetry_opts() {
        let spec = parse(&["fig4", "--profile", "--profile-every", "3"]).unwrap();
        assert!(spec.profile);
        assert_eq!(spec.profile_every, 3);
        let opts = spec.telemetry_opts();
        assert!(opts.is_enabled(), "--profile implies telemetry");
        assert!(opts.profile_due(0) && !opts.profile_due(1) && opts.profile_due(3));
        let plain = parse(&["fig4"]).unwrap();
        assert!(!plain.profile);
        assert_eq!(plain.profile_every, 1);
        assert!(!plain.telemetry_opts().is_enabled());
    }

    #[test]
    fn perf_diff_requires_both_snapshots() {
        let spec = parse(&[
            "perf-diff",
            "--baseline",
            "a/profile.json",
            "--current",
            "b/profile.json",
            "--tolerance",
            "0.1",
        ])
        .unwrap();
        assert_eq!(spec.artifact, Artifact::PerfDiff);
        assert_eq!(
            spec.baseline.as_deref(),
            Some(std::path::Path::new("a/profile.json"))
        );
        assert_eq!(
            spec.current.as_deref(),
            Some(std::path::Path::new("b/profile.json"))
        );
        assert!((spec.tolerance - 0.1).abs() < 1e-12);
        assert!(matches!(
            parse(&["perf-diff", "--current", "b/profile.json"]),
            Err(SpecError::MissingFlag { flag: "--baseline" })
        ));
        assert!(matches!(
            parse(&["perf-diff", "--baseline", "a/profile.json"]),
            Err(SpecError::MissingFlag { flag: "--current" })
        ));
        // The comparison flags are gated to perf-diff.
        assert!(parse(&["fig4", "--baseline", "a/profile.json"]).is_err());
    }

    #[test]
    fn sweep_takes_a_positional_or_flag_scenario() {
        let spec = parse(&["sweep", "flash-crowd-baseline"]).unwrap();
        assert_eq!(spec.artifact, Artifact::Sweep);
        assert_eq!(spec.scenario.as_deref(), Some("flash-crowd-baseline"));

        let spec = parse(&["sweep", "--scenario", "packs/night"]).unwrap();
        assert_eq!(spec.scenario.as_deref(), Some("packs/night"));

        // Flags mix freely with the positional form.
        let spec = parse(&["sweep", "pack.json", "--scale", "quick"]).unwrap();
        assert_eq!(spec.scenario.as_deref(), Some("pack.json"));
        assert_eq!(spec.scale, Scale::Quick);
    }

    #[test]
    fn sweep_without_a_scenario_is_an_error() {
        assert_eq!(parse(&["sweep"]).unwrap_err(), SpecError::MissingScenario);
        let msg = SpecError::MissingScenario.to_string();
        assert!(msg.contains("flash-crowd-baseline"), "{msg}");
    }

    #[test]
    fn scenario_flag_rejected_for_other_artifacts() {
        let err = parse(&["fig4", "--scenario", "x.json"]).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::InvalidValue {
                    flag: "--scenario",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("sweep"));
    }

    #[test]
    fn sweep_resumes_and_replicates() {
        let spec = parse(&["sweep", "p.json", "--resume", "out/run1"]).unwrap();
        assert!(spec.artifact.supports_resume());
        assert_eq!(
            spec.resume.as_deref(),
            Some(std::path::Path::new("out/run1"))
        );
    }

    #[test]
    fn peer_lists_parse_for_fig4_scale() {
        let spec = parse(&["fig4-scale", "--peers", "1000,2000,5000"]).unwrap();
        assert_eq!(spec.artifact, Artifact::Fig4Scale);
        assert_eq!(spec.peers, Some(vec![1000, 2000, 5000]));

        let spec = parse(&["fig4scale", "--peers", "64"]).unwrap();
        assert_eq!(spec.peers, Some(vec![64]));

        // Without the flag the runner picks its default sweep.
        let spec = parse(&["fig4-scale"]).unwrap();
        assert_eq!(spec.peers, None);
    }

    #[test]
    fn peer_list_values_are_validated() {
        for bad in ["", "0", "1", "abc", "100,", "100,,200", "100,x"] {
            let err = parse(&["fig4-scale", "--peers", bad]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SpecError::InvalidValue {
                        flag: "--peers",
                        ..
                    }
                ),
                "{bad:?}: {err:?}"
            );
        }
        let err = parse(&["fig4-scale", "--peers"]).unwrap_err();
        assert_eq!(err, SpecError::MissingValue { flag: "--peers" });
    }

    #[test]
    fn robustness_flags_parse_and_configure_the_executor() {
        let spec = parse(&["fig4", "--retries", "2", "--job-timeout", "90"]).unwrap();
        assert_eq!(spec.retries, 2);
        assert_eq!(spec.job_timeout, Some(90));
        let executor = spec.executor();
        assert_eq!(executor.retries(), 2);
        assert_eq!(executor.job_timeout(), Some(Duration::from_secs(90)));

        // Defaults: fail-fast, no watchdog.
        let spec = parse(&["fig4"]).unwrap();
        assert_eq!(spec.retries, 0);
        assert_eq!(spec.job_timeout, None);
        let executor = spec.executor();
        assert_eq!(executor.retries(), 0);
        assert_eq!(executor.job_timeout(), None);
    }

    #[test]
    fn robustness_flag_errors_are_named() {
        let err = parse(&["fig4", "--retries"]).unwrap_err();
        assert_eq!(err, SpecError::MissingValue { flag: "--retries" });
        assert!(err.to_string().contains("--retries"));

        let err = parse(&["fig4", "--retries", "many"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--retries") && msg.contains("many"), "{msg}");

        let err = parse(&["fig4", "--job-timeout"]).unwrap_err();
        assert_eq!(
            err,
            SpecError::MissingValue {
                flag: "--job-timeout"
            }
        );

        let err = parse(&["fig4", "--job-timeout", "0"]).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::InvalidValue {
                    flag: "--job-timeout",
                    ..
                }
            ),
            "{err:?}"
        );

        let err = parse(&["fig4", "--job-timeout", "soon"]).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("--job-timeout") && msg.contains("soon"),
            "{msg}"
        );
    }

    #[test]
    fn resume_parses_for_journaled_artifacts() {
        for artifact in [
            "fig4",
            "fig5",
            "fig6",
            "fig-epoch",
            "fig-consensus",
            "ablations",
            "all",
        ] {
            let spec = parse(&[artifact, "--resume", "out/run1"]).unwrap();
            assert_eq!(
                spec.resume.as_deref(),
                Some(std::path::Path::new("out/run1")),
                "{artifact}"
            );
            assert!(spec.artifact.supports_resume());
        }
        let spec = parse(&["fig4"]).unwrap();
        assert_eq!(spec.resume, None);
    }

    #[test]
    fn resume_errors_are_named() {
        let err = parse(&["fig4", "--resume"]).unwrap_err();
        assert_eq!(err, SpecError::MissingValue { flag: "--resume" });
        assert!(err.to_string().contains("--resume"));

        // Non-journaled artifacts reject it, naming both sides.
        let err = parse(&["table1", "--resume", "out/run1"]).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::InvalidValue {
                    flag: "--resume",
                    ..
                }
            ),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("--resume") && msg.contains("table1"), "{msg}");
        // fig4-scale's perf rows are live readings a replay cannot give.
        assert!(parse(&["fig4-scale", "--resume", "out/run1"]).is_err());

        // --resume and --out-dir are mutually exclusive.
        let err = parse(&["fig4", "--resume", "out/run1", "--out-dir", "out/x"]).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::InvalidValue {
                    flag: "--resume",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("--out-dir"));
    }

    #[test]
    fn peers_flag_rejected_for_other_artifacts() {
        let err = parse(&["fig4", "--peers", "1000"]).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::InvalidValue {
                    flag: "--peers",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("fig4-scale"));
    }

    #[test]
    fn usage_is_generated_from_the_flag_table() {
        let text = usage();
        // Every flag in the table appears exactly as typed.
        for flag in super::FLAGS {
            assert!(text.contains(flag.name), "usage is missing {}", flag.name);
        }
        // Gated groups name their artifacts.
        assert!(text.contains("fig4-scale"), "{text}");
        assert!(text.contains("(perf-diff)"), "{text}");
        assert!(
            text.contains("sweep <scenario|spec.json|pack-dir>"),
            "{text}"
        );
    }
}
