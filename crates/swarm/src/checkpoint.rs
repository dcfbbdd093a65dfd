//! Mid-run simulation checkpoints.
//!
//! A [`SimCheckpoint`] is a complete snapshot of a running
//! [`Simulation`](crate::Simulation) taken at a round boundary: every
//! peer's deep-cloned state (bitfields, ledgers, obligations and the
//! boxed mechanism via `Mechanism::clone_box`), the transfer table, the
//! reputation state, the fault-schedule cursor, every slot's sorted
//! neighbor row, all result accumulators, the DES engine's pending event
//! queue *with its FIFO sequence counter*
//! ([`EngineSnapshot`](coop_des::EngineSnapshot)),
//! and the seed tree's stream state
//! ([`SeedTree::export`](coop_des::rng::SeedTree::export) — positionless,
//! so the root seed plus the restored round index pins every RNG stream).
//! The SoA mirrors (hot flags, active lists, interest rows), the
//! candidate rows, the ledger-window list and the compliant bootstrap
//! counters are derived from the peer structs and the neighbor rows, and
//! rebuilt on restore.
//!
//! The contract — pinned by `crates/swarm/tests/checkpoint_equivalence.rs`
//! for all six mechanisms — is exact: build a fresh simulation from the
//! same config and population, [`Simulation::restore`](crate::Simulation::restore)
//! a checkpoint onto it, finish the run, and the [`SimResult`](crate::SimResult)
//! equals the straight-through run byte for byte. Checkpoints capture
//! state; they do not capture the telemetry recorder (observation is not
//! simulation state), the builder's run settings (shard count, the
//! naive-oracle switch), or the unspawned arrival specs, whose mechanism
//! factories are closures — the fresh simulation re-supplies all three,
//! and restore validates that its config and population shape match.

use coop_des::EngineSnapshot;
use coop_incentives::hash::IdMap;
use coop_incentives::ledger::{ReportedReputation, ReputationTable};
use coop_incentives::metrics::TimeSeries;
use coop_incentives::{GrantReason, PeerId};
use coop_piece::{AvailabilityIndex, Bitfield};

use crate::peer::PeerState;
use crate::result::Totals;
use crate::sim::Event;
use crate::transfer::TransferTable;
use crate::SwarmConfig;

/// Why a checkpoint could not be restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The target simulation has already started running; restore needs a
    /// freshly built one.
    NotFresh,
    /// The target simulation was built from a different configuration.
    ConfigMismatch,
    /// The target population's shape (spec count) differs from the
    /// checkpointed run's.
    PopulationMismatch {
        /// Spec count in the checkpoint.
        expected: usize,
        /// Spec count in the target simulation.
        found: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::NotFresh => {
                write!(f, "checkpoints restore onto freshly built simulations only")
            }
            CheckpointError::ConfigMismatch => {
                write!(f, "checkpoint was taken under a different configuration")
            }
            CheckpointError::PopulationMismatch { expected, found } => write!(
                f,
                "checkpoint population has {expected} specs, target has {found}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The full captured state (crate-private; [`SimCheckpoint`] is the
/// opaque public handle).
#[derive(Clone)]
pub(crate) struct CheckpointState {
    pub(crate) config: SwarmConfig,
    pub(crate) engine: EngineSnapshot<Event>,
    /// The seed tree's exported stream state (see module docs).
    pub(crate) seed_state: u64,
    pub(crate) peers: Vec<PeerState>,
    pub(crate) availability: AvailabilityIndex,
    pub(crate) transfers: TransferTable,
    pub(crate) reputation: ReputationTable,
    pub(crate) seeder_bf: Bitfield,
    pub(crate) round_idx: u64,
    pub(crate) now: coop_des::SimTime,
    pub(crate) expected_compliant: usize,
    pub(crate) reports: ReportedReputation,
    pub(crate) pretrusted: Vec<PeerId>,
    pub(crate) trusted_cache: IdMap<PeerId, f64>,
    /// Every slot's sorted neighbor row (primary state; the candidate
    /// rows are derived from it and rebuilt on restore).
    pub(crate) neighbor_rows: Vec<Vec<PeerId>>,
    /// Whether a slot was named since the last candidate refresh, so the
    /// restored run's next refresh counts as a rebuild exactly when the
    /// straight-through run's does.
    pub(crate) adjacency_pending: bool,
    pub(crate) adjacency_rebuilds: u64,
    pub(crate) pending_arrivals: usize,
    pub(crate) open_active: usize,
    pub(crate) compliant_completed: usize,
    /// The dirty-set membership (sorted peer indices) at capture time, so
    /// a restored run rebuilds exactly the same visit sets — and hence
    /// the same work counters — as the straight-through run.
    pub(crate) dirty: Vec<u32>,
    /// The revisit-mark membership (sorted peer indices), restored as
    /// revisit marks: folding it into `dirty` would expand it and
    /// visit more peers than the straight-through run.
    pub(crate) revisit: Vec<u32>,
    pub(crate) naive_probe_rebuilds: u64,
    pub(crate) work_visited: u64,
    pub(crate) work_productive: u64,
    pub(crate) work_candidate_scans: u64,
    pub(crate) epoch_settlements: u64,
    pub(crate) epoch_boundaries: u64,
    pub(crate) consensus: Option<crate::consensus::ConsensusState>,
    pub(crate) probe_prev_bytes: [u64; GrantReason::ALL.len()],
    pub(crate) faults: crate::faults::FaultSchedule,
    pub(crate) fault_cursor: usize,
    pub(crate) spec_peer: Vec<Option<PeerId>>,
    pub(crate) seeder_online: bool,
    pub(crate) stalled: bool,
    pub(crate) prev_uploaded_total: u64,
    pub(crate) totals: Totals,
    pub(crate) fairness_avg: TimeSeries,
    pub(crate) diversity: TimeSeries,
    pub(crate) fairness_stat: TimeSeries,
    pub(crate) bootstrapped_frac: TimeSeries,
    pub(crate) completed_frac: TimeSeries,
    pub(crate) susceptibility: TimeSeries,
}

/// A point-in-time snapshot of a running simulation (see module docs).
#[derive(Clone)]
pub struct SimCheckpoint {
    pub(crate) state: Box<CheckpointState>,
}

impl SimCheckpoint {
    /// The round index the checkpoint was taken at (the next round to
    /// execute after restore).
    pub fn round(&self) -> u64 {
        self.state.round_idx
    }

    /// Events pending in the captured engine queue.
    pub fn pending_events(&self) -> usize {
        self.state.engine.pending()
    }

    /// The exported RNG stream state (the seed-tree root; streams are
    /// positionless — see the module docs).
    pub fn seed_state(&self) -> u64 {
        self.state.seed_state
    }
}

impl std::fmt::Debug for SimCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCheckpoint")
            .field("round", &self.state.round_idx)
            .field("peers", &self.state.peers.len())
            .field("pending_events", &self.state.engine.pending())
            .finish_non_exhaustive()
    }
}

/// The checkpoints a run captured
/// ([`SimulationBuilder::checkpoint_every`](crate::SimulationBuilder::checkpoint_every)),
/// bounded in memory: the first and the latest snapshot are kept, plus a
/// count.
#[derive(Clone, Debug, Default)]
pub struct CheckpointLog {
    taken: u64,
    first: Option<SimCheckpoint>,
    latest: Option<SimCheckpoint>,
}

impl CheckpointLog {
    /// Number of checkpoints captured during the run.
    pub fn taken(&self) -> u64 {
        self.taken
    }

    /// The earliest captured checkpoint, if any.
    pub fn first(&self) -> Option<&SimCheckpoint> {
        self.first.as_ref()
    }

    /// The most recent captured checkpoint, if any.
    pub fn latest(&self) -> Option<&SimCheckpoint> {
        self.latest.as_ref()
    }

    pub(crate) fn record(&mut self, checkpoint: SimCheckpoint) {
        self.taken += 1;
        if self.first.is_none() {
            self.first = Some(checkpoint.clone());
        }
        self.latest = Some(checkpoint);
    }
}
