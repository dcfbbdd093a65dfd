//! Declarative workload scenarios: versioned spec files compiled into the
//! existing [`SimJob`](crate::exec::SimJob) stream.
//!
//! A scenario spec is a small JSON document (parsed with the in-house
//! `coop_telemetry::json` layer) describing a workload as *data*: the
//! arrival process (flash crowd, Poisson steady state, or diurnal), a
//! heterogeneous bandwidth-class mix, a fault plan, an attack mix, the
//! mechanism grid, and an optional peer-count sweep. Parsing validates
//! every field by name and produces a typed [`Scenario`]; compilation
//! ([`Scenario::jobs`]) lowers it onto the plain `SimJob` grid, so the
//! journal, `--resume`, panic isolation, and byte-identical artifacts all
//! work unchanged — a scenario is just a different way of *naming* jobs
//! the robust executor already knows how to run.
//!
//! Fingerprints: [`Scenario::fingerprint`] hashes the *canonical*
//! serialization ([`Scenario::to_json`]) of the parsed spec, so spec-file
//! key order and formatting never matter. The fingerprint rides into every
//! compiled job via [`Workload`], which makes journal replay keys
//! scenario-aware: editing a spec invalidates exactly the jobs it
//! describes.

use std::fmt;
use std::path::{Path, PathBuf};

use coop_attacks::AttackPlan;
use coop_des::Duration;
use coop_faults::FaultPlan;
use coop_incentives::analysis::capacity::{CapacityClass, CapacityClassMix};
use coop_incentives::{MechanismKind, MechanismParams};
use coop_swarm::{PieceStrategy, SwarmConfig};
use coop_telemetry::json::{self, write_escaped, write_f64, Json};
use coop_telemetry::Fnv;

use crate::exec::SimJob;
use crate::runners::fig4_scale::cell_config;
use crate::Scale;

/// The spec schema version this build understands.
pub const SCENARIO_SPEC_VERSION: u64 = 1;

/// Upper bound on bandwidth classes per scenario — keeps [`MixSpec`]
/// (and therefore `SimJob`) a small `Copy` value.
pub const MAX_CLASSES: usize = 8;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A scenario spec problem: parse failure, unknown field, or invalid
/// value. Always names the offending field when one exists, and the file
/// and line when the spec came from disk.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioError {
    /// Spec file the error came from, when loaded from disk.
    pub file: Option<PathBuf>,
    /// 1-based line of the offending field or parse failure, best effort.
    pub line: Option<usize>,
    /// Dotted path of the offending field (e.g. `"faults.churn_rate"`).
    pub field: Option<String>,
    /// What is wrong.
    pub message: String,
}

impl ScenarioError {
    fn new(message: impl Into<String>) -> Self {
        ScenarioError {
            file: None,
            line: None,
            field: None,
            message: message.into(),
        }
    }

    fn field(field: impl Into<String>, message: impl Into<String>) -> Self {
        ScenarioError {
            field: Some(field.into()),
            ..Self::new(message)
        }
    }

    /// Attaches the source file and locates the offending line: parse
    /// errors already carry one; field errors search the raw text for the
    /// quoted field name (best effort — `None` when ambiguous help is
    /// worse than no line).
    fn locate(mut self, file: Option<&Path>, text: &str) -> Self {
        self.file = file.map(Path::to_path_buf);
        if self.line.is_none() {
            if let Some(field) = &self.field {
                let leaf = field
                    .rsplit('.')
                    .next()
                    .unwrap_or(field)
                    .trim_end_matches(|c: char| c == ']' || c.is_ascii_digit() || c == '[');
                let needle = format!("\"{leaf}\"");
                self.line = text
                    .find(&needle)
                    .map(|at| line_of(text, at));
            }
        }
        self
    }
}

/// The 1-based line containing byte offset `at`.
fn line_of(text: &str, at: usize) -> usize {
    1 + text.as_bytes()[..at.min(text.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(file) = &self.file {
            write!(f, "{}", file.display())?;
            if let Some(line) = self.line {
                write!(f, ":{line}")?;
            }
            write!(f, ": ")?;
        }
        if let Some(field) = &self.field {
            write!(f, "field '{field}': ")?;
        }
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ScenarioError {}

// ---------------------------------------------------------------------------
// Workload overrides carried by SimJob
// ---------------------------------------------------------------------------

/// A fixed-capacity, `Copy` bandwidth-class mix. The spec-facing twin of
/// [`CapacityClassMix`], sized so it can ride inside [`SimJob`] without
/// costing `Copy`.
#[derive(Clone, Copy, PartialEq)]
pub struct MixSpec {
    len: u8,
    classes: [CapacityClass; MAX_CLASSES],
}

impl MixSpec {
    /// Validates the classes (via [`CapacityClassMix::new`]) and packs
    /// them.
    ///
    /// # Errors
    ///
    /// Returns the validation failure as text: too many classes, fractions
    /// not summing to 1, negative fractions, or non-positive capacities.
    pub fn new(classes: &[CapacityClass]) -> Result<MixSpec, String> {
        if classes.len() > MAX_CLASSES {
            return Err(format!(
                "at most {MAX_CLASSES} bandwidth classes are supported, got {}",
                classes.len()
            ));
        }
        CapacityClassMix::new(classes.to_vec())?;
        let mut packed = [CapacityClass {
            fraction: 0.0,
            upload_bps: 0.0,
        }; MAX_CLASSES];
        packed[..classes.len()].copy_from_slice(classes);
        Ok(MixSpec {
            len: classes.len() as u8,
            classes: packed,
        })
    }

    /// The classes actually present.
    pub fn classes(&self) -> &[CapacityClass] {
        &self.classes[..self.len as usize]
    }

    /// Expands back into the sampling-ready mix.
    pub fn to_mix(&self) -> CapacityClassMix {
        CapacityClassMix::new(self.classes().to_vec()).expect("validated at construction")
    }
}

/// Debug prints only the populated prefix so fingerprints of otherwise
/// identical jobs never depend on the unused padding slots.
impl fmt::Debug for MixSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.classes()).finish()
    }
}

/// Per-job overrides of the scale's defaults: the workload a scenario
/// spec compiles to, and the per-cell knobs the built-in sweep grids
/// (fig-epoch, fig-consensus, fig4-scale, ablations) vary. The default
/// everywhere (and `workload: None` on the paper-figure jobs) is the
/// scale's defaults, the exact code path the paper figures use. Every
/// field is part of the `Debug` rendering, so each override reaches
/// [`SimJob::fingerprint`] and keys journal replay.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Workload {
    /// Fingerprint of the owning scenario's canonical spec (0 for the
    /// built-in sweep grids).
    pub spec_fingerprint: u64,
    /// Population-size override (peer-count sweeps).
    pub peers: Option<usize>,
    /// Bandwidth-class mix override.
    pub mix: Option<MixSpec>,
    /// Mechanism parameters (epoch length, consensus policy, `α_BT`) in
    /// place of the defaults.
    pub params: Option<MechanismParams>,
    /// Piece-selection strategy in place of rarest-first.
    pub piece_strategy: Option<PieceStrategy>,
    /// Staggered Poisson arrivals with this mean gap in place of the
    /// scale's flash crowd.
    pub arrival_gap: Option<Duration>,
    /// The swarm configuration the job starts from.
    pub profile: SwarmProfile,
    /// The job's label in place of its mechanism name.
    pub label: Option<JobLabel>,
}

/// The swarm configuration a job starts from, before its overrides.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SwarmProfile {
    /// [`Scale::config`]: the paper-figure swarm.
    #[default]
    Figure,
    /// [`cell_config`]: a small file and capped rounds, so population is
    /// the only axis of the fig4-scale sweep.
    ScalingCell,
}

impl SwarmProfile {
    /// The profile's swarm configuration at `scale` for `seed`.
    pub fn config(self, scale: Scale, seed: u64) -> SwarmConfig {
        match self {
            SwarmProfile::Figure => scale.config(seed),
            SwarmProfile::ScalingCell => cell_config(scale, seed),
        }
    }
}

/// Capacity of a [`JobLabel`] in bytes.
const LABEL_CAP: usize = 47;

/// A job label stored inline, so it can ride inside [`SimJob`] without
/// costing `Copy`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct JobLabel {
    len: u8,
    bytes: [u8; LABEL_CAP],
}

impl JobLabel {
    /// Packs `text`.
    ///
    /// # Panics
    ///
    /// Panics when `text` is longer than 47 bytes. The grid builders'
    /// labels (a mechanism or sweep name plus at most one number) stay
    /// well under that.
    pub fn new(text: &str) -> JobLabel {
        assert!(text.len() <= LABEL_CAP, "job label too long: {text:?}");
        let mut bytes = [0; LABEL_CAP];
        bytes[..text.len()].copy_from_slice(text.as_bytes());
        JobLabel {
            len: text.len() as u8,
            bytes,
        }
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).expect("packed from a str")
    }
}

/// Debug prints the text only, like [`MixSpec`].
impl fmt::Debug for JobLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

// ---------------------------------------------------------------------------
// Typed scenario
// ---------------------------------------------------------------------------

/// How peers arrive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// The paper's default: everyone arrives within the scale's short
    /// arrival window.
    FlashCrowd,
    /// Steady-state Poisson arrivals with the given mean gap (seconds).
    Poisson {
        /// Mean inter-arrival gap in seconds.
        mean_gap_s: f64,
    },
    /// Poisson arrivals whose intensity swings sinusoidally.
    Diurnal {
        /// Mean inter-arrival gap in seconds (at the cycle's midpoint).
        mean_gap_s: f64,
        /// Period of one intensity cycle in seconds.
        period_s: f64,
        /// Relative intensity swing in `[0, 1)`.
        amplitude: f64,
    },
}

/// The attack mix applied to every mechanism of the scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttackMode {
    /// No attackers.
    None,
    /// Plain free-riders at the given population fraction.
    Freeride(f64),
    /// The most effective known attack per mechanism (collusion against
    /// T-Chain, whitewashing against FairTorrent, plain free-riding
    /// elsewhere).
    MostEffective(f64),
    /// The most effective attack with a large-view bias.
    LargeView(f64),
    /// False-praise (fake receipt) attackers.
    FalsePraise(f64),
}

impl AttackMode {
    /// The attack plan for one mechanism, `None` when unattacked.
    pub fn plan_for(&self, kind: MechanismKind) -> Option<AttackPlan> {
        match *self {
            AttackMode::None => None,
            AttackMode::Freeride(f) => Some(AttackPlan::simple(f)),
            AttackMode::MostEffective(f) => Some(AttackPlan::most_effective(kind, f)),
            AttackMode::LargeView(f) => Some(AttackPlan::with_large_view(kind, f)),
            AttackMode::FalsePraise(f) => Some(AttackPlan::false_praise(f)),
        }
    }

    /// The spec-facing mode keyword.
    pub fn mode_name(&self) -> &'static str {
        match self {
            AttackMode::None => "none",
            AttackMode::Freeride(_) => "freeride",
            AttackMode::MostEffective(_) => "most-effective",
            AttackMode::LargeView(_) => "large-view",
            AttackMode::FalsePraise(_) => "false-praise",
        }
    }

    /// Human label for manifests (e.g. `"freeride(0.3)"`).
    pub fn label(&self) -> String {
        match *self {
            AttackMode::None => "none".into(),
            AttackMode::Freeride(f)
            | AttackMode::MostEffective(f)
            | AttackMode::LargeView(f)
            | AttackMode::FalsePraise(f) => format!("{}({})", self.mode_name(), f),
        }
    }

    fn fraction(&self) -> Option<f64> {
        match *self {
            AttackMode::None => None,
            AttackMode::Freeride(f)
            | AttackMode::MostEffective(f)
            | AttackMode::LargeView(f)
            | AttackMode::FalsePraise(f) => Some(f),
        }
    }
}

/// What a scenario writes to disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactStyle {
    /// The full fig4-style per-mechanism artifact set (CSVs, report JSON,
    /// SVG panels) per seed. Requires the full mechanism grid and at most
    /// one peer-count entry.
    Figure,
    /// One summary CSV row per job plus one report JSON.
    Sweep,
}

impl ArtifactStyle {
    /// The spec keyword.
    pub fn name(&self) -> &'static str {
        match self {
            ArtifactStyle::Figure => "figure",
            ArtifactStyle::Sweep => "sweep",
        }
    }
}

/// A validated scenario: the typed form of one spec file.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Kebab-case scenario name (unique within a pack).
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Artifact file-name stem (defaults to the name). The baseline
    /// scenario sets `"fig4"` so its artifacts are byte-identical to the
    /// plain fig4 runner's.
    pub figure: String,
    /// Artifact style.
    pub style: ArtifactStyle,
    /// Arrival process.
    pub arrival: Arrival,
    /// Mechanisms simulated, in slot order.
    pub mechanisms: Vec<MechanismKind>,
    /// Attack mix.
    pub attack: AttackMode,
    /// Fault plan *without* the arrival process (folded in by
    /// [`Scenario::fault_plan`]).
    pub faults: FaultPlan,
    /// Peer-count sweep axis; empty = the scale's default population.
    pub peers: Vec<usize>,
    /// Bandwidth-class mix override.
    pub classes: Option<MixSpec>,
    /// Replicates baked into the spec (CLI `--replicates` takes the max).
    pub replicates: u64,
}

impl Scenario {
    /// Parses and validates one spec document.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] naming the offending field for every
    /// unknown key, missing required field, or out-of-range value.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        Self::parse_located(text, None)
    }

    /// [`Scenario::parse`] with file/line attribution for errors.
    pub fn parse_located(text: &str, file: Option<&Path>) -> Result<Scenario, ScenarioError> {
        Self::parse_inner(text).map_err(|e| e.locate(file, text))
    }

    fn parse_inner(text: &str) -> Result<Scenario, ScenarioError> {
        let doc = json::parse(text).map_err(|e| ScenarioError {
            file: None,
            line: Some(line_of(text, e.at)),
            field: None,
            message: e.to_string(),
        })?;
        let root = Obj::root(&doc)?;
        root.check_unknown(&[
            "spec_version",
            "name",
            "description",
            "figure",
            "artifacts",
            "arrival",
            "mechanisms",
            "attack",
            "faults",
            "peers",
            "bandwidth_classes",
            "replicates",
        ])?;

        let version = root.require_u64("spec_version")?;
        if version != SCENARIO_SPEC_VERSION {
            return Err(ScenarioError::field(
                "spec_version",
                format!("unsupported spec_version {version} (expected {SCENARIO_SPEC_VERSION})"),
            ));
        }

        let name = root.require_str("name")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            return Err(ScenarioError::field(
                "name",
                format!("'{name}' must be non-empty kebab-case ([a-z0-9-])"),
            ));
        }
        let description = root.str("description")?.unwrap_or_default().to_string();
        let figure = root.str("figure")?.unwrap_or(&name).to_string();
        if figure.is_empty()
            || !figure
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
        {
            return Err(ScenarioError::field(
                "figure",
                format!("'{figure}' must be a non-empty [a-z0-9_-] artifact stem"),
            ));
        }

        let style = match root.str("artifacts")?.unwrap_or("sweep") {
            "figure" => ArtifactStyle::Figure,
            "sweep" => ArtifactStyle::Sweep,
            other => {
                return Err(ScenarioError::field(
                    "artifacts",
                    format!("unknown artifact style '{other}' (expected 'figure' or 'sweep')"),
                ))
            }
        };

        let arrival = parse_arrival(&root)?;
        let mechanisms = parse_mechanisms(&root)?;
        let attack = parse_attack(&root)?;
        let faults = match root.child("faults")? {
            Some(obj) => parse_faults(&obj)?,
            None => FaultPlan::none(),
        };
        let peers = parse_peers(&root)?;
        let classes = parse_classes(&root)?;
        let replicates = match root.u64("replicates")? {
            Some(0) => {
                return Err(ScenarioError::field(
                    "replicates",
                    "must be at least 1".to_string(),
                ))
            }
            Some(r) => r,
            None => 1,
        };

        if style == ArtifactStyle::Figure {
            if mechanisms != MechanismKind::ALL && mechanisms != MechanismKind::EXTENDED {
                return Err(ScenarioError::field(
                    "artifacts",
                    "style 'figure' requires a full mechanism grid (mechanisms: \"all\" or \"extended\")",
                ));
            }
            if peers.len() > 1 {
                return Err(ScenarioError::field(
                    "peers",
                    "style 'figure' allows at most one peer-count entry",
                ));
            }
        }

        Ok(Scenario {
            name,
            description,
            figure,
            style,
            arrival,
            mechanisms,
            attack,
            faults,
            peers,
            classes,
            replicates,
        })
    }

    /// The canonical serialization: fixed key order, all semantic fields,
    /// no dependence on the source file's formatting. `parse(to_json(s))`
    /// round-trips exactly, and [`Scenario::fingerprint`] hashes this
    /// text.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        let mut key = |out: &mut String, k: &str| {
            if !std::mem::take(&mut first) {
                out.push_str(", ");
            }
            write_escaped(out, k);
            out.push_str(": ");
        };
        key(&mut out, "spec_version");
        out.push_str(&SCENARIO_SPEC_VERSION.to_string());
        key(&mut out, "name");
        write_escaped(&mut out, &self.name);
        key(&mut out, "description");
        write_escaped(&mut out, &self.description);
        key(&mut out, "figure");
        write_escaped(&mut out, &self.figure);
        key(&mut out, "artifacts");
        write_escaped(&mut out, self.style.name());
        key(&mut out, "arrival");
        out.push_str(&arrival_json(self.arrival));
        key(&mut out, "mechanisms");
        out.push('[');
        for (i, kind) in self.mechanisms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_escaped(&mut out, kind.name());
        }
        out.push(']');
        key(&mut out, "attack");
        out.push('{');
        write_escaped(&mut out, "mode");
        out.push_str(": ");
        write_escaped(&mut out, self.attack.mode_name());
        if let Some(f) = self.attack.fraction() {
            out.push_str(", ");
            write_escaped(&mut out, "fraction");
            out.push_str(": ");
            write_f64(&mut out, f);
        }
        out.push('}');
        key(&mut out, "faults");
        out.push_str(&faults_json(&self.faults));
        if !self.peers.is_empty() {
            key(&mut out, "peers");
            out.push('[');
            for (i, p) in self.peers.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&p.to_string());
            }
            out.push(']');
        }
        if let Some(mix) = &self.classes {
            key(&mut out, "bandwidth_classes");
            out.push('[');
            for (i, c) in mix.classes().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('{');
                write_escaped(&mut out, "fraction");
                out.push_str(": ");
                write_f64(&mut out, c.fraction);
                out.push_str(", ");
                write_escaped(&mut out, "upload_bps");
                out.push_str(": ");
                write_f64(&mut out, c.upload_bps);
                out.push('}');
            }
            out.push(']');
        }
        key(&mut out, "replicates");
        out.push_str(&self.replicates.to_string());
        out.push('}');
        out
    }

    /// FNV-1a over the canonical serialization — stable under spec-file
    /// key reordering and whitespace changes.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_str(&self.to_json());
        h.finish()
    }

    /// The complete fault plan: declared faults plus the arrival process
    /// folded into the plan's arrival fields.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = self.faults;
        match self.arrival {
            Arrival::FlashCrowd => {}
            Arrival::Poisson { mean_gap_s } => plan.arrival_spread_s = mean_gap_s,
            Arrival::Diurnal {
                mean_gap_s,
                period_s,
                amplitude,
            } => {
                plan.arrival_spread_s = mean_gap_s;
                plan.diurnal_period_s = period_s;
                plan.diurnal_amplitude = amplitude;
            }
        }
        plan
    }

    /// Replicates actually run: the larger of the spec's and the CLI's.
    pub fn effective_replicates(&self, cli_replicates: u64) -> u64 {
        self.replicates.max(cli_replicates).max(1)
    }

    /// Compiles the scenario into the `SimJob` grid: seed-major, then
    /// peer-count, then mechanisms in slot order. An inert fault plan is
    /// dropped entirely (`faults: None`), so a zero-fault scenario takes
    /// the exact byte-identical fault-free hot path.
    pub fn jobs(&self, scale: Scale, base_seed: u64, cli_replicates: u64) -> Vec<SimJob> {
        let plan = self.fault_plan();
        let faults = (!plan.is_inert()).then_some(plan);
        let fingerprint = self.fingerprint();
        let peer_axis: Vec<Option<usize>> = if self.peers.is_empty() {
            vec![None]
        } else {
            self.peers.iter().map(|&p| Some(p)).collect()
        };
        let mut jobs = Vec::new();
        for seed in base_seed..base_seed + self.effective_replicates(cli_replicates) {
            for &peers in &peer_axis {
                for &kind in &self.mechanisms {
                    jobs.push(SimJob {
                        kind,
                        scale,
                        seed,
                        plan: self.attack.plan_for(kind),
                        faults,
                        workload: Some(Workload {
                            spec_fingerprint: fingerprint,
                            peers,
                            mix: self.classes,
                            ..Workload::default()
                        }),
                    });
                }
            }
        }
        jobs
    }
}

fn arrival_json(arrival: Arrival) -> String {
    let mut out = String::from("{");
    write_escaped(&mut out, "process");
    out.push_str(": ");
    match arrival {
        Arrival::FlashCrowd => write_escaped(&mut out, "flash-crowd"),
        Arrival::Poisson { mean_gap_s } => {
            write_escaped(&mut out, "poisson");
            out.push_str(", ");
            write_escaped(&mut out, "mean_gap_s");
            out.push_str(": ");
            write_f64(&mut out, mean_gap_s);
        }
        Arrival::Diurnal {
            mean_gap_s,
            period_s,
            amplitude,
        } => {
            write_escaped(&mut out, "diurnal");
            for (k, v) in [
                ("mean_gap_s", mean_gap_s),
                ("period_s", period_s),
                ("amplitude", amplitude),
            ] {
                out.push_str(", ");
                write_escaped(&mut out, k);
                out.push_str(": ");
                write_f64(&mut out, v);
            }
        }
    }
    out.push('}');
    out
}

fn faults_json(plan: &FaultPlan) -> String {
    let mut out = String::from("{");
    let mut first = true;
    let mut num = |out: &mut String, k: &str, v: f64| {
        if !std::mem::take(&mut first) {
            out.push_str(", ");
        }
        write_escaped(out, k);
        out.push_str(": ");
        write_f64(out, v);
    };
    num(&mut out, "churn_rate", plan.churn_rate);
    num(&mut out, "loss_prob", plan.loss_prob);
    num(&mut out, "outage_prob", plan.outage_prob);
    num(&mut out, "outage_rounds", plan.outage_rounds as f64);
    if let Some(l) = plan.fixed_lifetime_rounds {
        num(&mut out, "fixed_lifetime_rounds", l as f64);
    }
    if let Some(f) = plan.seeder_exit_fraction {
        num(&mut out, "seeder_exit_fraction", f);
    }
    if let Some(r) = plan.seeder_failure_round {
        num(&mut out, "seeder_failure_round", r as f64);
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Field-level parsing helpers
// ---------------------------------------------------------------------------

/// A JSON object plus the dotted path that leads to it, for error
/// attribution.
struct Obj<'a> {
    fields: &'a [(String, Json)],
    path: String,
}

impl<'a> Obj<'a> {
    fn root(doc: &'a Json) -> Result<Obj<'a>, ScenarioError> {
        match doc {
            Json::Obj(fields) => Ok(Obj {
                fields,
                path: String::new(),
            }),
            _ => Err(ScenarioError::new("spec must be a JSON object")),
        }
    }

    fn path_of(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn check_unknown(&self, allowed: &[&str]) -> Result<(), ScenarioError> {
        for (key, _) in self.fields {
            if !allowed.contains(&key.as_str()) {
                return Err(ScenarioError::field(
                    self.path_of(key),
                    format!("unknown field (allowed: {})", allowed.join(", ")),
                ));
            }
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Option<&'a Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str(&self, key: &str) -> Result<Option<&'a str>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s)),
            Some(_) => Err(ScenarioError::field(self.path_of(key), "must be a string")),
        }
    }

    fn require_str(&self, key: &str) -> Result<String, ScenarioError> {
        self.str(key)?.map(str::to_string).ok_or_else(|| {
            ScenarioError::field(self.path_of(key), "required field is missing")
        })
    }

    fn f64(&self, key: &str) -> Result<Option<f64>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(Json::Num(n)) if n.is_finite() => Ok(Some(*n)),
            Some(_) => Err(ScenarioError::field(
                self.path_of(key),
                "must be a finite number",
            )),
        }
    }

    fn u64(&self, key: &str) -> Result<Option<u64>, ScenarioError> {
        match self.f64(key)? {
            None => Ok(None),
            Some(v) if v >= 0.0 && v.fract() == 0.0 && v <= (1u64 << 53) as f64 => {
                Ok(Some(v as u64))
            }
            Some(_) => Err(ScenarioError::field(
                self.path_of(key),
                "must be a non-negative integer",
            )),
        }
    }

    fn require_u64(&self, key: &str) -> Result<u64, ScenarioError> {
        self.u64(key)?.ok_or_else(|| {
            ScenarioError::field(self.path_of(key), "required field is missing")
        })
    }

    fn arr(&self, key: &str) -> Result<Option<&'a [Json]>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(Json::Arr(items)) => Ok(Some(items)),
            Some(_) => Err(ScenarioError::field(self.path_of(key), "must be an array")),
        }
    }

    fn child(&self, key: &str) -> Result<Option<Obj<'a>>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(Json::Obj(fields)) => Ok(Some(Obj {
                fields,
                path: self.path_of(key),
            })),
            Some(_) => Err(ScenarioError::field(self.path_of(key), "must be an object")),
        }
    }

    /// A number in `[lo, hi]`.
    fn f64_in(
        &self,
        key: &str,
        lo: f64,
        hi: f64,
    ) -> Result<Option<f64>, ScenarioError> {
        match self.f64(key)? {
            None => Ok(None),
            Some(v) if v >= lo && v <= hi => Ok(Some(v)),
            Some(v) => Err(ScenarioError::field(
                self.path_of(key),
                format!("{v} is out of range [{lo}, {hi}]"),
            )),
        }
    }
}

fn parse_arrival(root: &Obj<'_>) -> Result<Arrival, ScenarioError> {
    let Some(obj) = root.child("arrival")? else {
        return Ok(Arrival::FlashCrowd);
    };
    let process = obj.require_str("process")?;
    let require_gap = |obj: &Obj<'_>| -> Result<f64, ScenarioError> {
        match obj.f64("mean_gap_s")? {
            Some(v) if v > 0.0 => Ok(v),
            Some(v) => Err(ScenarioError::field(
                obj.path_of("mean_gap_s"),
                format!("{v} must be positive"),
            )),
            None => Err(ScenarioError::field(
                obj.path_of("mean_gap_s"),
                "required field is missing",
            )),
        }
    };
    match process.as_str() {
        "flash-crowd" => {
            obj.check_unknown(&["process"])?;
            Ok(Arrival::FlashCrowd)
        }
        "poisson" => {
            obj.check_unknown(&["process", "mean_gap_s"])?;
            Ok(Arrival::Poisson {
                mean_gap_s: require_gap(&obj)?,
            })
        }
        "diurnal" => {
            obj.check_unknown(&["process", "mean_gap_s", "period_s", "amplitude"])?;
            let mean_gap_s = require_gap(&obj)?;
            let period_s = match obj.f64("period_s")? {
                Some(v) if v > 0.0 => v,
                Some(v) => {
                    return Err(ScenarioError::field(
                        obj.path_of("period_s"),
                        format!("{v} must be positive"),
                    ))
                }
                None => {
                    return Err(ScenarioError::field(
                        obj.path_of("period_s"),
                        "required field is missing",
                    ))
                }
            };
            let amplitude = obj.f64_in("amplitude", 0.0, 1.0)?.unwrap_or(0.5);
            if amplitude >= 1.0 {
                return Err(ScenarioError::field(
                    obj.path_of("amplitude"),
                    "must be below 1 so the arrival intensity stays positive",
                ));
            }
            Ok(Arrival::Diurnal {
                mean_gap_s,
                period_s,
                amplitude,
            })
        }
        other => Err(ScenarioError::field(
            obj.path_of("process"),
            format!("unknown arrival process '{other}' (expected flash-crowd, poisson, or diurnal)"),
        )),
    }
}

fn parse_mechanisms(root: &Obj<'_>) -> Result<Vec<MechanismKind>, ScenarioError> {
    match root.get("mechanisms") {
        None => Ok(MechanismKind::ALL.to_vec()),
        Some(Json::Str(s)) if s == "all" => Ok(MechanismKind::ALL.to_vec()),
        Some(Json::Str(s)) if s == "extended" => Ok(MechanismKind::EXTENDED.to_vec()),
        Some(Json::Arr(items)) => {
            if items.is_empty() {
                return Err(ScenarioError::field("mechanisms", "must not be empty"));
            }
            let mut kinds = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let name = item.as_str().ok_or_else(|| {
                    ScenarioError::field(format!("mechanisms[{i}]"), "must be a string")
                })?;
                let kind = parse_mechanism(name).ok_or_else(|| {
                    let known: Vec<&str> =
                        MechanismKind::EXTENDED.iter().map(|k| k.name()).collect();
                    ScenarioError::field(
                        format!("mechanisms[{i}]"),
                        format!("unknown mechanism '{name}' (known: {})", known.join(", ")),
                    )
                })?;
                if kinds.contains(&kind) {
                    return Err(ScenarioError::field(
                        format!("mechanisms[{i}]"),
                        format!("duplicate mechanism '{name}'"),
                    ));
                }
                kinds.push(kind);
            }
            Ok(kinds)
        }
        Some(_) => Err(ScenarioError::field(
            "mechanisms",
            "must be \"all\", \"extended\", or an array of mechanism names",
        )),
    }
}

/// Case-insensitive mechanism lookup by display name (hyphens optional).
pub fn parse_mechanism(name: &str) -> Option<MechanismKind> {
    let normalized: String = name
        .chars()
        .filter(|c| *c != '-')
        .collect::<String>()
        .to_ascii_lowercase();
    MechanismKind::EXTENDED.iter().copied().find(|k| {
        k.name()
            .chars()
            .filter(|c| *c != '-')
            .collect::<String>()
            .to_ascii_lowercase()
            == normalized
    })
}

fn parse_attack(root: &Obj<'_>) -> Result<AttackMode, ScenarioError> {
    let Some(obj) = root.child("attack")? else {
        return Ok(AttackMode::None);
    };
    obj.check_unknown(&["mode", "fraction"])?;
    let mode = obj.require_str("mode")?;
    if mode == "none" {
        if obj.get("fraction").is_some() {
            return Err(ScenarioError::field(
                obj.path_of("fraction"),
                "mode 'none' takes no attacker fraction",
            ));
        }
        return Ok(AttackMode::None);
    }
    let fraction = match obj.f64_in("fraction", 0.0, 1.0)? {
        Some(f) if f > 0.0 => f,
        Some(f) => {
            return Err(ScenarioError::field(
                obj.path_of("fraction"),
                format!("{f} must lie in (0, 1]"),
            ))
        }
        None => {
            return Err(ScenarioError::field(
                obj.path_of("fraction"),
                "required field is missing",
            ))
        }
    };
    match mode.as_str() {
        "freeride" => Ok(AttackMode::Freeride(fraction)),
        "most-effective" => Ok(AttackMode::MostEffective(fraction)),
        "large-view" => Ok(AttackMode::LargeView(fraction)),
        "false-praise" => Ok(AttackMode::FalsePraise(fraction)),
        other => Err(ScenarioError::field(
            obj.path_of("mode"),
            format!(
                "unknown attack mode '{other}' (expected none, freeride, most-effective, large-view, or false-praise)"
            ),
        )),
    }
}

/// Parses a spec `faults` section into a [`FaultPlan`].
fn parse_faults(obj: &Obj<'_>) -> Result<FaultPlan, ScenarioError> {
    obj.check_unknown(&[
        "churn_rate",
        "loss_prob",
        "outage_prob",
        "outage_rounds",
        "fixed_lifetime_rounds",
        "seeder_exit_fraction",
        "seeder_failure_round",
    ])?;
    let mut plan = FaultPlan::none();
    if let Some(rate) = obj.f64("churn_rate")? {
        if rate < 0.0 {
            return Err(ScenarioError::field(
                obj.path_of("churn_rate"),
                format!("{rate} must be non-negative"),
            ));
        }
        plan.churn_rate = rate;
    }
    plan.loss_prob = obj.f64_in("loss_prob", 0.0, 1.0)?.unwrap_or(0.0);
    plan.outage_prob = obj.f64_in("outage_prob", 0.0, 1.0)?.unwrap_or(0.0);
    plan.outage_rounds = obj.u64("outage_rounds")?.unwrap_or(0);
    if plan.outage_prob > 0.0 && plan.outage_rounds == 0 {
        return Err(ScenarioError::field(
            obj.path_of("outage_rounds"),
            "must be positive when outage_prob is set",
        ));
    }
    if let Some(rounds) = obj.u64("fixed_lifetime_rounds")? {
        if rounds == 0 {
            return Err(ScenarioError::field(
                obj.path_of("fixed_lifetime_rounds"),
                "must be at least 1",
            ));
        }
        plan.fixed_lifetime_rounds = Some(rounds);
    }
    if let Some(fraction) = obj.f64_in("seeder_exit_fraction", 0.0, 1.0)? {
        if fraction <= 0.0 {
            return Err(ScenarioError::field(
                obj.path_of("seeder_exit_fraction"),
                format!("{fraction} must lie in (0, 1]"),
            ));
        }
        plan.seeder_exit_fraction = Some(fraction);
    }
    plan.seeder_failure_round = obj.u64("seeder_failure_round")?;
    Ok(plan)
}

fn parse_peers(root: &Obj<'_>) -> Result<Vec<usize>, ScenarioError> {
    let Some(items) = root.arr("peers")? else {
        return Ok(Vec::new());
    };
    if items.is_empty() {
        return Err(ScenarioError::field(
            "peers",
            "must not be empty (omit the field for the scale default)",
        ));
    }
    let mut peers = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let n = item
            .as_f64()
            .filter(|v| v.fract() == 0.0 && *v >= 2.0 && *v <= 1e9)
            .ok_or_else(|| {
                ScenarioError::field(
                    format!("peers[{i}]"),
                    "must be an integer of at least 2",
                )
            })? as usize;
        if peers.contains(&n) {
            return Err(ScenarioError::field(
                format!("peers[{i}]"),
                format!("duplicate peer count {n}"),
            ));
        }
        peers.push(n);
    }
    Ok(peers)
}

fn parse_classes(root: &Obj<'_>) -> Result<Option<MixSpec>, ScenarioError> {
    let Some(items) = root.arr("bandwidth_classes")? else {
        return Ok(None);
    };
    let mut classes = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let obj = match item {
            Json::Obj(fields) => Obj {
                fields,
                path: format!("bandwidth_classes[{i}]"),
            },
            _ => {
                return Err(ScenarioError::field(
                    format!("bandwidth_classes[{i}]"),
                    "must be an object with 'fraction' and 'upload_bps'",
                ))
            }
        };
        obj.check_unknown(&["fraction", "upload_bps"])?;
        let fraction = obj.f64("fraction")?.ok_or_else(|| {
            ScenarioError::field(obj.path_of("fraction"), "required field is missing")
        })?;
        let upload_bps = obj.f64("upload_bps")?.ok_or_else(|| {
            ScenarioError::field(obj.path_of("upload_bps"), "required field is missing")
        })?;
        classes.push(CapacityClass {
            fraction,
            upload_bps,
        });
    }
    MixSpec::new(&classes)
        .map(Some)
        .map_err(|msg| ScenarioError::field("bandwidth_classes", msg))
}

// ---------------------------------------------------------------------------
// Packs and the built-in scenario library
// ---------------------------------------------------------------------------

/// The built-in scenario library, embedded at compile time: each name
/// maps to the spec texts of its pack, in pack order. Most packs hold one
/// scenario named like the pack; `fig4-churn` holds the Fig. 4
/// comparison at churn rates 0, 0.005, 0.01 and 0.02 (0, 0.5, 1 and 2×
/// a base hazard of 0.01).
pub const BUILTIN_PACKS: &[(&str, &[&str])] = &[
    (
        "flash-crowd-baseline",
        &[include_str!("../scenarios/flash-crowd-baseline.json")],
    ),
    (
        "software-update-push",
        &[include_str!("../scenarios/software-update-push.json")],
    ),
    (
        "mobile-churn-storm",
        &[include_str!("../scenarios/mobile-churn-storm.json")],
    ),
    (
        "seeder-starved-archive",
        &[include_str!("../scenarios/seeder-starved-archive.json")],
    ),
    (
        "epoch-settlement",
        &[include_str!("../scenarios/epoch-settlement.json")],
    ),
    (
        "consensus-bans",
        &[include_str!("../scenarios/consensus-bans.json")],
    ),
    (
        "fig4-churn",
        &[
            include_str!("../scenarios/fig4-churn/fig4-churn-0-000.json"),
            include_str!("../scenarios/fig4-churn/fig4-churn-0-005.json"),
            include_str!("../scenarios/fig4-churn/fig4-churn-0-010.json"),
            include_str!("../scenarios/fig4-churn/fig4-churn-0-020.json"),
        ],
    ),
];

/// Names of the built-in scenarios, in library order.
pub fn builtin_names() -> Vec<&'static str> {
    BUILTIN_PACKS.iter().map(|(name, _)| *name).collect()
}

/// A loaded, validated set of scenarios to sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioPack {
    /// Where the pack came from (built-in name, file, or directory).
    pub source: String,
    /// The scenarios, in load order (directory packs: sorted by file
    /// name).
    pub scenarios: Vec<Scenario>,
}

impl ScenarioPack {
    /// FNV-1a over every scenario fingerprint, in order — the identity a
    /// sweep run records in its journal header so `--resume` can reject a
    /// changed pack.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for s in &self.scenarios {
            h.write_str(&format!("{:016x};", s.fingerprint()));
        }
        h.finish()
    }
}

/// Loads a pack from a built-in pack name, a single spec file, or a
/// directory of `*.json` spec files (sorted by file name).
///
/// # Errors
///
/// Returns a [`ScenarioError`] for unreadable paths, invalid specs (with
/// file and line), duplicate scenario names, or an unknown built-in name.
pub fn load_pack(arg: &str) -> Result<ScenarioPack, ScenarioError> {
    if let Some((_, texts)) = BUILTIN_PACKS.iter().find(|(name, _)| *name == arg) {
        let scenarios = texts
            .iter()
            .map(|text| Scenario::parse(text))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| ScenarioError::new(format!("built-in scenario '{arg}': {e}")))?;
        return Ok(ScenarioPack {
            source: arg.to_string(),
            scenarios,
        });
    }

    let path = Path::new(arg);
    let files: Vec<PathBuf> = if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| ScenarioError::new(format!("cannot read pack directory '{arg}': {e}")))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(ScenarioError::new(format!(
                "pack directory '{arg}' contains no .json spec files"
            )));
        }
        files
    } else if path.is_file() {
        vec![path.to_path_buf()]
    } else {
        return Err(ScenarioError::new(format!(
            "'{arg}' is not a built-in scenario ({}), a spec file, or a pack directory",
            builtin_names().join(", ")
        )));
    };

    let mut scenarios = Vec::with_capacity(files.len());
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| ScenarioError {
            file: Some(file.clone()),
            line: None,
            field: None,
            message: format!("cannot read spec file: {e}"),
        })?;
        let scenario = Scenario::parse_located(&text, Some(file))?;
        if scenarios
            .iter()
            .any(|s: &Scenario| s.name == scenario.name)
        {
            return Err(ScenarioError {
                file: Some(file.clone()),
                line: None,
                field: Some("name".into()),
                message: format!("duplicate scenario name '{}' in pack", scenario.name),
            });
        }
        scenarios.push(scenario);
    }
    Ok(ScenarioPack {
        source: arg.to_string(),
        scenarios,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(extra: &str) -> String {
        format!(r#"{{"spec_version": 1, "name": "test-scenario"{extra}}}"#)
    }

    #[test]
    fn minimal_spec_defaults() {
        let s = Scenario::parse(&minimal("")).unwrap();
        assert_eq!(s.name, "test-scenario");
        assert_eq!(s.figure, "test-scenario");
        assert_eq!(s.style, ArtifactStyle::Sweep);
        assert_eq!(s.arrival, Arrival::FlashCrowd);
        assert_eq!(s.mechanisms, MechanismKind::ALL);
        assert_eq!(s.attack, AttackMode::None);
        assert!(s.faults.is_inert());
        assert!(s.peers.is_empty());
        assert!(s.classes.is_none());
        assert_eq!(s.replicates, 1);
    }

    #[test]
    fn unknown_fields_are_named() {
        let err = Scenario::parse(&minimal(r#", "chrun_rate": 0.1"#)).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("chrun_rate"));
        assert!(err.message.contains("unknown field"), "{err}");

        let err =
            Scenario::parse(&minimal(r#", "faults": {"churnrate": 0.1}"#)).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("faults.churnrate"));
    }

    #[test]
    fn out_of_range_values_are_named() {
        let err = Scenario::parse(&minimal(r#", "faults": {"loss_prob": 1.5}"#)).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("faults.loss_prob"));
        assert!(err.message.contains("out of range"), "{err}");

        let err = Scenario::parse(&minimal(
            r#", "attack": {"mode": "freeride", "fraction": 0.0}"#,
        ))
        .unwrap_err();
        assert_eq!(err.field.as_deref(), Some("attack.fraction"));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "{\n  \"spec_version\": 1,\n  \"name\": oops\n}";
        let err = Scenario::parse_located(text, Some(Path::new("bad.json"))).unwrap_err();
        assert_eq!(err.line, Some(3));
        assert_eq!(err.file.as_deref(), Some(Path::new("bad.json")));
        let rendered = err.to_string();
        assert!(rendered.contains("bad.json:3"), "{rendered}");
    }

    #[test]
    fn field_errors_locate_the_offending_line() {
        let text = "{\n  \"spec_version\": 1,\n  \"name\": \"x-y\",\n  \"faults\": {\n    \"loss_prob\": 2.0\n  }\n}";
        let err = Scenario::parse_located(text, Some(Path::new("pack/x.json"))).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("faults.loss_prob"));
        assert_eq!(err.line, Some(5));
    }

    #[test]
    fn round_trips_through_canonical_json() {
        let text = minimal(
            r#", "description": "d", "artifacts": "sweep",
               "arrival": {"process": "diurnal", "mean_gap_s": 1.5, "period_s": 300, "amplitude": 0.4},
               "mechanisms": ["BitTorrent", "T-Chain"],
               "attack": {"mode": "most-effective", "fraction": 0.3},
               "faults": {"churn_rate": 0.02, "loss_prob": 0.05, "outage_prob": 0.3, "outage_rounds": 10},
               "peers": [40, 80],
               "bandwidth_classes": [{"fraction": 0.5, "upload_bps": 16000}, {"fraction": 0.5, "upload_bps": 64000}],
               "replicates": 3"#,
        );
        let s = Scenario::parse(&text).unwrap();
        let canonical = s.to_json();
        let back = Scenario::parse(&canonical).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.fingerprint(), s.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_key_order_and_formatting() {
        let a = r#"{"spec_version": 1, "name": "x", "faults": {"churn_rate": 0.01, "loss_prob": 0.1}, "peers": [40]}"#;
        let b = "{\n  \"peers\": [40],\n  \"faults\": {\"loss_prob\": 0.1, \"churn_rate\": 0.01},\n  \"name\": \"x\",\n  \"spec_version\": 1\n}";
        let sa = Scenario::parse(a).unwrap();
        let sb = Scenario::parse(b).unwrap();
        assert_eq!(sa.fingerprint(), sb.fingerprint());
    }

    #[test]
    fn fingerprint_is_input_sensitive() {
        let a = Scenario::parse(&minimal(r#", "faults": {"churn_rate": 0.01}"#)).unwrap();
        let b = Scenario::parse(&minimal(r#", "faults": {"churn_rate": 0.02}"#)).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn figure_style_requires_full_grid_and_single_peer_count() {
        let err = Scenario::parse(&minimal(
            r#", "artifacts": "figure", "mechanisms": ["BitTorrent"]"#,
        ))
        .unwrap_err();
        assert_eq!(err.field.as_deref(), Some("artifacts"));

        let err =
            Scenario::parse(&minimal(r#", "artifacts": "figure", "peers": [40, 80]"#))
                .unwrap_err();
        assert_eq!(err.field.as_deref(), Some("peers"));

        assert!(Scenario::parse(&minimal(r#", "artifacts": "figure""#)).is_ok());
    }

    #[test]
    fn jobs_compile_seed_major_then_peers_then_mechanisms() {
        let s = Scenario::parse(&minimal(
            r#", "mechanisms": ["BitTorrent", "T-Chain"], "peers": [40, 80], "replicates": 2"#,
        ))
        .unwrap();
        let jobs = s.jobs(Scale::Quick, 7, 1);
        assert_eq!(jobs.len(), 2 * 2 * 2);
        assert_eq!(jobs[0].seed, 7);
        assert_eq!(jobs[0].workload.unwrap().peers, Some(40));
        assert_eq!(jobs[0].kind, MechanismKind::BitTorrent);
        assert_eq!(jobs[1].kind, MechanismKind::TChain);
        assert_eq!(jobs[2].workload.unwrap().peers, Some(80));
        assert_eq!(jobs[4].seed, 8);
        let fp = s.fingerprint();
        assert!(jobs.iter().all(|j| j.workload.unwrap().spec_fingerprint == fp));
    }

    #[test]
    fn zero_fault_scenario_compiles_without_a_fault_plan() {
        let s = Scenario::parse(&minimal("")).unwrap();
        let jobs = s.jobs(Scale::Quick, 42, 1);
        assert!(jobs.iter().all(|j| j.faults.is_none()));
        assert!(jobs.iter().all(|j| j.plan.is_none()));
    }

    #[test]
    fn arrival_folds_into_the_fault_plan() {
        let s = Scenario::parse(&minimal(
            r#", "arrival": {"process": "diurnal", "mean_gap_s": 2.0, "period_s": 600, "amplitude": 0.25}"#,
        ))
        .unwrap();
        let plan = s.fault_plan();
        assert_eq!(plan.arrival_spread_s, 2.0);
        assert_eq!(plan.diurnal_period_s, 600.0);
        assert_eq!(plan.diurnal_amplitude, 0.25);
        assert!(!plan.is_inert());
        let jobs = s.jobs(Scale::Quick, 1, 1);
        assert_eq!(jobs[0].faults, Some(plan));
    }

    #[test]
    fn spec_fingerprint_changes_the_job_fingerprint() {
        let a = Scenario::parse(&minimal(r#", "replicates": 1"#)).unwrap();
        let b = Scenario::parse(&minimal(r#", "replicates": 2"#)).unwrap();
        let ja = a.jobs(Scale::Quick, 42, 1)[0];
        let jb = b.jobs(Scale::Quick, 42, 1)[0];
        assert_ne!(ja.fingerprint(), jb.fingerprint());
    }

    #[test]
    fn deeply_nested_specs_fail_with_a_named_error() {
        let text = minimal(&format!(r#", "peers": {}"#, "[".repeat(1_000_000)));
        let err = Scenario::parse(&text).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.line, Some(1));
    }

    #[test]
    fn mechanism_names_parse_case_insensitively() {
        assert_eq!(parse_mechanism("bittorrent"), Some(MechanismKind::BitTorrent));
        assert_eq!(parse_mechanism("T-Chain"), Some(MechanismKind::TChain));
        assert_eq!(parse_mechanism("tchain"), Some(MechanismKind::TChain));
        assert_eq!(parse_mechanism("FairTorrent"), Some(MechanismKind::FairTorrent));
        assert_eq!(parse_mechanism("nope"), None);
    }

    #[test]
    fn builtins_parse_and_match_their_names() {
        for (name, texts) in BUILTIN_PACKS {
            let names: Vec<String> = texts
                .iter()
                .map(|text| {
                    Scenario::parse(text)
                        .unwrap_or_else(|e| panic!("built-in '{name}' failed to parse: {e}"))
                        .name
                })
                .collect();
            if let [only] = names.as_slice() {
                assert_eq!(only, name, "built-in pack name and spec name differ");
            } else {
                // A multi-scenario pack's specs share its name as a prefix
                // and are in file-name order, so a copied directory pack
                // loads in the same order.
                assert!(names.iter().all(|n| n.starts_with(name)), "{names:?}");
                assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
            }
        }
    }

    #[test]
    fn pack_loading_rejects_unknown_sources() {
        let err = load_pack("no-such-scenario").unwrap_err();
        assert!(err.message.contains("flash-crowd-baseline"), "{err}");
    }

    #[test]
    fn mix_spec_validates_and_round_trips() {
        let classes = [
            CapacityClass {
                fraction: 0.25,
                upload_bps: 16_000.0,
            },
            CapacityClass {
                fraction: 0.75,
                upload_bps: 64_000.0,
            },
        ];
        let mix = MixSpec::new(&classes).unwrap();
        assert_eq!(mix.classes(), &classes);
        assert_eq!(mix.to_mix().classes(), &classes);
        assert!(MixSpec::new(&[CapacityClass {
            fraction: 0.5,
            upload_bps: 1.0
        }])
        .is_err());
        // Debug must only show the populated prefix (fingerprint hygiene).
        assert_eq!(format!("{mix:?}").matches("fraction").count(), 2);
    }
}
