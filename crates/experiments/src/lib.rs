//! # coop-experiments
//!
//! The experiment harness that regenerates **every table and figure** of
//! *“A Performance Analysis of Incentive Mechanisms for Cooperative
//! Computing”* (ICDCS 2016). Each runner prints the same rows/series the
//! paper reports and writes machine-readable CSV/JSON artifacts.
//!
//! | Runner | Paper artifact |
//! |--------|----------------|
//! | [`runners::fig1`]   | Fig. 1 — classification + expectation-vs-measurement cross-check |
//! | [`runners::table1`] | Table I — equilibrium download utilizations (analytic + measured) |
//! | [`runners::fig2`]   | Fig. 2 — idealized fairness/efficiency ranking |
//! | [`runners::fig3`]   | Fig. 3 — exchange probabilities under piece availability + Prop. 3 |
//! | [`runners::table2`] | Table II — bootstrap probabilities (incl. the example column) + Lemma 3 |
//! | [`runners::table3`] | Table III — exploitable resources and collusion probabilities |
//! | [`runners::fig4`]   | Fig. 4 — compliant-swarm simulation (efficiency, fairness, bootstrapping) |
//! | [`runners::fig5`]   | Fig. 5 — 20 % free-riders with per-algorithm worst attacks |
//! | [`runners::fig6`]   | Fig. 6 — Fig. 5 attacks plus the large-view exploit |
//! | [`runners::fluid`]  | Qiu–Srikant fluid dynamics per mechanism (footnote 3's \[27\]) vs the simulator |
//! | [`runners::ablations`] | Beyond the paper: parameter sweeps and extra attacks |
//! | [`runners::extensions`] | Beyond the paper: PropShare/BitTyrant clients, EigenTrust false-praise defense |
//!
//! Runners accept a [`Scale`]: `Quick` for CI, `Default` for laptop runs
//! with the paper's shape intact, `Paper` for the full 1000-peer, 128 MB
//! setup of Section V-A.
//!
//! # Example
//!
//! ```
//! use coop_experiments::{runners::table2, Scale};
//! # let _scratch = coop_experiments::ScopedOutputDir::temp("doc-table2");
//! let report = table2::run(Scale::Quick, 42);
//! assert!(report.render().contains("Altruism"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod journal;
mod output;
pub mod plot;
pub mod runners;
mod scale;
pub mod scenario;
mod spec;
mod table;
pub mod telemetry;

pub use exec::{BatchError, Executor, FailureKind, JobFailure, PanicInject, SimJob};
pub use journal::{JournalReplay, RunJournal};
pub use output::{write_csv, write_json, OutputDir, ScopedOutputDir};
pub use scale::Scale;
pub use scenario::{
    load_pack, Arrival, ArtifactStyle, AttackMode, JobLabel, MixSpec, Scenario, ScenarioError,
    ScenarioPack, SwarmProfile, Workload, SCENARIO_SPEC_VERSION,
};
pub use spec::{usage, Artifact, RunSpec, SpecError};
pub use table::Table;
pub use telemetry::{BatchTrace, JobTrace, TelemetryOpts};
