//! # coop-incentives
//!
//! A Rust implementation of the incentive-mechanism design space analyzed in
//! *“A Performance Analysis of Incentive Mechanisms for Cooperative
//! Computing”* (Joe-Wong, Im, Shin, Ha — IEEE ICDCS 2016).
//!
//! The paper classifies mechanisms that decide *to whom each user uploads
//! data* into three basic classes — **reciprocity**, **altruism**, and
//! **reputation** — plus three hybrids — **BitTorrent**
//! (reciprocity/altruism), **FairTorrent** (reputation/altruism) and
//! **T-Chain** (reciprocity/reputation) — and compares their fairness,
//! efficiency, bootstrapping speed and susceptibility to free-riding.
//!
//! This crate provides:
//!
//! * [`MechanismKind`] / [`MechanismClass`] — the classification of Fig. 1;
//! * [`Mechanism`] — a common allocation trait, plus faithful
//!   implementations of all six algorithms in [`mechanisms`];
//! * [`ledger`] — the state each mechanism consults (contribution ledgers,
//!   deficit counters, a global reputation table);
//! * [`hash`] — the deterministic id hasher those ledgers are keyed with;
//! * [`analysis`] — every closed form in Section IV of the paper:
//!   equilibrium download rates (Table I), efficiency/fairness statistics
//!   (Eqs. 2–3, Lemma 1), piece-exchange probabilities (Eqs. 4–8,
//!   Props. 2 & 3, Corollaries 1 & 2), bootstrapping probabilities and
//!   expected bootstrap times (Table II, Lemma 3, Prop. 4), and
//!   free-riding exploitability (Table III);
//! * [`metrics`] — the empirical statistics used by the paper's
//!   experiments (average fairness, completion-time efficiency,
//!   susceptibility, Jain index, CDFs and time series).
//!
//! The companion crate `coop-swarm` drives these mechanisms inside an
//! event-driven swarm simulator to reproduce the paper's Figs. 4–6.
//!
//! # Example
//!
//! ```
//! use coop_incentives::analysis::bootstrap::{bootstrap_probability, BootstrapParams};
//! use coop_incentives::MechanismKind;
//!
//! // Reproduce the "Example" column of the paper's Table II.
//! let params = BootstrapParams::paper_example();
//! let p = bootstrap_probability(MechanismKind::Altruism, &params);
//! assert!((p - 0.918).abs() < 0.001);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod class;
pub mod hash;
mod ids;
pub mod ledger;
mod mechanism;
pub mod mechanisms;
pub mod metrics;
mod view;

pub use class::{ExpectedPerformance, MechanismClass, MechanismKind, Rating};
pub use ids::PeerId;
pub use mechanism::{
    build_mechanism, AllocScratch, ConsensusPolicy, Grant, GrantReason, Mechanism, MechanismParams,
    ReciprocationCondition, SettleCadence,
};
pub use view::{collect_interested, Obligation, SwarmView};
