//! # coop-swarm
//!
//! The event-driven P2P swarm simulator substrate used to validate the
//! incentive-mechanism analysis (Section V of the paper). It reproduces the
//! paper's experimental setup: one seeder, a flash crowd of users arriving
//! within the first seconds, a file divided into pieces, per-round upload
//! budgets, and immediate departure on completion.
//!
//! The simulator is written from scratch (the paper adapted the
//! unpublished TBeT simulator; see DESIGN.md for the substitution
//! rationale) on top of:
//!
//! * `coop_des` — the deterministic discrete-event engine,
//! * `coop_piece` — bitfields, piece pickers, availability tracking,
//! * `coop_incentives` — the six mechanisms and their shared state.
//!
//! Attack support (large-view neighbor sets, collusion rings, whitewashing
//! identities) is implemented as generic substrate features driven by
//! [`PeerTags`]; the `coop-attacks` crate composes them into the paper's
//! attack scenarios.
//!
//! # Example
//!
//! ```
//! use coop_swarm::{flash_crowd, Simulation, SwarmConfig};
//! use coop_incentives::MechanismKind;
//!
//! let config = SwarmConfig::tiny_test();
//! let population = flash_crowd(&config, 12, MechanismKind::Altruism, 7);
//! let result = Simulation::builder(config)
//!     .population(population)
//!     .build()
//!     .unwrap()
//!     .run();
//! assert!(result.completed_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod checkpoint;
mod config;
mod consensus;
mod dirty;
mod faults;
mod peer;
mod result;
mod shard;
mod sim;
mod soa;
mod transfer;
mod view_impl;

pub use builder::{BuildError, PopulationPatch, SimulationBuilder};
pub use checkpoint::{CheckpointError, CheckpointLog, SimCheckpoint};
pub use config::{
    flash_crowd, flash_crowd_with, staggered_arrivals, ConfigError, MechanismFactory, PeerSpec,
    PeerTags, PieceStrategy, SwarmConfig,
};
pub use dirty::{DirtySet, VisitBits};
pub use faults::{FaultEvent, FaultKind, FaultPatch, FaultSchedule};
pub use result::{ConsensusSummary, PeerRecord, SimResult, Totals};
pub use sim::{Simulation, SEEDER_ID};
pub use transfer::{InFlight, TransferTable};
