//! The event-driven swarm simulation.
//!
//! The run loop follows the paper's experimental setup (Section V-A): a
//! seeder plus a flash crowd of peers; discrete one-second timeslots in
//! which every peer allocates its upload budget through its incentive
//! mechanism; transfers accumulate bytes into discrete pieces; peers
//! depart immediately on completing the file. Attack substrate features
//! (whitewashing, collusion rings, large-view neighbor sets) are driven by
//! [`PeerTags`](crate::PeerTags).

use coop_des::rng::{self, SeedTree};
use coop_des::{Engine, RoundDriver, SimTime};
use coop_incentives::hash::IdMap;
use coop_incentives::ledger::{ReportedReputation, ReputationTable};
use coop_incentives::metrics::TimeSeries;
use coop_incentives::{
    AllocScratch, Grant, GrantReason, Mechanism, Obligation, PeerId, ReciprocationCondition,
    SettleCadence,
};
use coop_piece::{
    AvailabilityIndex, Bitfield, PiecePicker, PieceSelection, RandomFirstPicker, RarestFirstPicker,
    SequentialPicker,
};
use coop_telemetry::profile::phase;
use coop_telemetry::{
    Category, Histogram, PhaseToken, ProfileReport, Profiler, Recorder, Sampling, TelemetryConfig,
    TelemetryReport, TraceEvent,
};
use rand::RngCore;

use crate::checkpoint::{CheckpointError, CheckpointLog, CheckpointState, SimCheckpoint};
use crate::config::{PeerSpec, PieceStrategy, SwarmConfig};
use crate::consensus::{self, ConsensusState, SlotBehavior};
use crate::dirty::{DirtySet, VisitBits};
use crate::faults::{FaultKind, FaultSchedule};
use crate::peer::{Departure, PeerState};
use crate::result::{ConsensusSummary, PeerRecord, SimResult, Totals};
use crate::shard::{self, shard_ranges, InterestCtx, ShardCtx, ShardView, SHARD_MIN_ITEMS};
use crate::soa::{Adjacency, HotPeers, InterestWords};
use crate::transfer::{Advance, InFlight, TransferTable};
use crate::view_impl::SimView;

/// The reserved id of the seeder (not a peer slot).
pub const SEEDER_ID: PeerId = PeerId::new(u32::MAX);

/// The ban test by slot during `round` that candidate rows are filtered
/// with (nobody is banned without a consensus population).
fn banned_at(consensus: Option<&ConsensusState>, round: u64) -> impl Fn(u32) -> bool + '_ {
    move |slot| consensus.is_some_and(|c| c.is_banned_slot(slot, round))
}

/// Does this mechanism settle at the end of the round after which
/// `finished_rounds` rounds have completed? Per-transfer mechanisms never
/// do; epoch mechanisms settle whenever their epoch length divides the
/// finished-round count.
fn at_epoch_boundary(mech: &dyn Mechanism, finished_rounds: u64) -> bool {
    match mech.settle_cadence() {
        SettleCadence::PerTransfer => false,
        SettleCadence::Epoch(n) => finished_rounds.is_multiple_of(n.max(1)),
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    Arrival(usize),
    RoundTick,
}

/// One simulation run.
pub struct Simulation {
    config: SwarmConfig,
    peers: Vec<PeerState>,
    specs: Vec<Option<PeerSpec>>,
    engine: Engine<Event>,
    rounds: RoundDriver,
    seeds: SeedTree,
    availability: AvailabilityIndex,
    transfers: TransferTable,
    reputation: ReputationTable,
    seeder_bf: Bitfield,
    round_idx: u64,
    now: SimTime,
    expected_compliant: usize,
    /// Reported receipts for the EigenTrust scores; written only when
    /// `trusted_reputation` is set, since those scores are its only reader.
    reports: ReportedReputation,
    pretrusted: Vec<PeerId>,
    trusted_cache: IdMap<PeerId, f64>,
    /// Every slot's sorted neighbor row and its candidate row (see
    /// [`Adjacency`]). Edge edits and status changes name the rows they
    /// invalidate; [`Self::refresh_candidates`] re-filters those, and
    /// every [`SimView`] borrows the candidate rows between refreshes.
    adjacency: Adjacency,
    /// How many refreshes re-filtered candidate rows (telemetry).
    adjacency_rebuilds: u64,
    /// The active slots whose contribution ledger holds receipts in this
    /// round's or last round's window: the only ledgers whose round roll
    /// does anything. A slot joins on its window's first receipt and
    /// leaves once a roll empties both windows. Derived from the ledgers,
    /// so [`Self::restore`] rebuilds it.
    ledger_windows: Vec<u32>,
    /// Struct-of-arrays mirror of the hot per-peer fields, kept in
    /// lockstep with [`Self::peers`] (see [`HotPeers`]).
    hot: HotPeers,
    /// Slot-indexed `want`/`offer` word rows the interest test reads,
    /// written by every `PeerState` method that changes `absent`,
    /// `offer` or `inflight` (see [`InterestWords`]). Not checkpointed:
    /// [`Self::restore`] rebuilds it from the restored peers.
    interest: InterestWords,
    /// Scratch "pieces already held or in flight" bitfield for
    /// [`Self::pick_piece`], reused across calls instead of cloning the
    /// downloader's bitfield per candidate piece selection.
    scratch_held: Bitfield,
    /// Scratch rarest-tie buffer for the indexed piece pick, reused so
    /// steady-state piece selection allocates nothing.
    scratch_ties: Vec<u32>,
    /// Scratch target list for [`Self::drain_partials`], reused so a
    /// drain allocates nothing.
    scratch_targets: Vec<PeerId>,
    /// The visiting peer's interested candidates, collected once per
    /// visit ([`Self::collect_interested`]) for the skip test and served
    /// to its mechanism through [`SimView::serving`].
    scratch_interested: Vec<PeerId>,
    /// The grant buffer every [`Mechanism::allocate_into`] call appends
    /// to, and the working memory lent to it. Neither is state: both are
    /// cleared before use and not checkpointed.
    scratch_grants: Vec<Grant>,
    scratch_alloc: AllocScratch,
    /// Scratch candidate pool for arrival-time neighbor selection and
    /// neighbor replenishment, filled from [`HotPeers`] flags and reused
    /// so steady-state arrivals allocate no pool.
    scratch_pool: Vec<PeerId>,
    /// Arrivals not yet spawned (`specs` entries still `Some`).
    pending_arrivals: usize,
    /// Active peers that hold the run open (compliant or whitewashing);
    /// with `pending_arrivals` this replaces the per-round all-done scan.
    open_active: usize,
    /// Compliant peers that departed via completion (replaces the
    /// seeder-exit pass's per-round population scan).
    compliant_completed: usize,
    /// Compliant identities spawned so far, and those of them that got a
    /// first piece: with `compliant_completed`, the sampled fractions'
    /// running counts. Derived from the peers, so [`Self::restore`]
    /// recounts them.
    compliant_slots: usize,
    compliant_bootstrapped: usize,
    /// Run every hot-path consumer through the pre-index scans (fresh
    /// per-probe availability histograms, per-round candidate rebuilds,
    /// per-bit rarest-first picks, full peer-struct membership scans).
    /// The `hotpath_equivalence` battery and the `scale` bench flip this
    /// on as the oracle/baseline; results must be identical either way.
    pub(crate) naive_hotpath: bool,
    /// Worker threads sharding one round's read-only scans (1 = all on
    /// the caller's thread). Observational for results: artifacts are
    /// byte-identical for any value.
    shards: usize,
    /// Neighborhood marks: peers toward which a candidate's interest can
    /// have grown since the current visit set was built (arrivals,
    /// stalls, discards, drops, outage ends, bans). Visited together with
    /// their candidate-row members.
    dirty: DirtySet,
    /// Revisit marks: peers whose own allocation inputs changed (ledger
    /// steps, deliveries, new edges, settlements) but toward which no
    /// candidate's interest grew. Visited alone, with no expansion.
    revisit: DirtySet,
    /// The live visit bitmap for the round in progress: dirty ∪
    /// candidates(dirty) ∪ revisit ∪ uploaders-with-partials at round
    /// start, plus mid-round marks.
    visit: VisitBits,
    /// Fresh availability histogram rebuilds performed by naive-mode
    /// probes (telemetry; always zero on the indexed path).
    naive_probe_rebuilds: u64,
    /// Observational telemetry. Never consulted by simulation logic and
    /// never draws from [`Self::seeds`]: enabling it cannot change a
    /// run's results (pinned by the `telemetry_determinism` test).
    recorder: Recorder,
    /// Observational wall-clock phase timers (disabled by default). Like
    /// the recorder, never consulted by simulation logic and deliberately
    /// not checkpointed — enabling profiling cannot change a run's
    /// results (pinned by the `profile_byte_identity` tests).
    profiler: Profiler,
    /// Peers visited by the per-round allocation loop (deterministic
    /// work accounting, flushed as `swarm.work.peers_visited`).
    work_visited: u64,
    /// Visited peers that moved at least one byte
    /// (`swarm.work.peers_productive`).
    work_productive: u64,
    /// Total candidate-list length scanned across allocation visits
    /// (`swarm.work.candidate_scans`).
    work_candidate_scans: u64,
    /// True once any spawned mechanism declared [`SettleCadence::Epoch`]
    /// — the one-branch per-round gate that keeps the epoch-settlement
    /// pass free for the six per-transfer mechanisms.
    has_epoch_cadence: bool,
    /// True once any spawned mechanism declared an end-of-round hook
    /// ([`Mechanism::has_round_end_hook`]); without one the indexed loop
    /// skips the hook pass.
    has_round_end_hooks: bool,
    /// Per-peer `on_epoch_close` invocations
    /// (`swarm.epoch.settlements`).
    epoch_settlements: u64,
    /// Rounds at which at least one mechanism settled
    /// (`swarm.epoch.boundaries`).
    epoch_boundaries: u64,
    /// Consensus-reputation bookkeeping, present once any spawned
    /// mechanism declared a [`coop_incentives::ConsensusPolicy`]. Drives
    /// the end-of-round report aggregation, strikes, and bans.
    consensus: Option<ConsensusState>,
    /// [`Totals::bytes_by_reason`] as of the previous round probe, for
    /// per-probe deltas.
    probe_prev_bytes: [u64; GrantReason::ALL.len()],
    /// The pre-drawn fault schedule ([`FaultSchedule::empty`] when no
    /// faults were configured — the round loop then takes exactly the
    /// fault-free branches).
    faults: FaultSchedule,
    /// Cursor into `faults.events()` (events are applied in order, once).
    fault_cursor: usize,
    /// Spec index → spawned peer id: fault events are keyed by spec index
    /// (stable across runs), resolved here at application time. Whitewash
    /// successor identities are not tracked — a fault targeting a retired
    /// identity is skipped.
    spec_peer: Vec<Option<PeerId>>,
    /// False once the fault schedule takes the seeder offline (failure
    /// round reached or the seeder-exit completion threshold crossed).
    seeder_online: bool,
    /// Set when the run terminated because the swarm became
    /// unsatisfiable (see [`SimResult::stalled`]).
    stalled: bool,
    /// [`Totals::uploaded_total`] at the end of the previous round, to
    /// detect quiescent rounds for stall detection.
    prev_uploaded_total: u64,
    totals: Totals,
    fairness_avg: TimeSeries,
    diversity: TimeSeries,
    fairness_stat: TimeSeries,
    bootstrapped_frac: TimeSeries,
    completed_frac: TimeSeries,
    susceptibility: TimeSeries,
    /// Capture a [`SimCheckpoint`] every K rounds (`None` = never).
    checkpoint_every: Option<u64>,
    /// The checkpoints captured so far this run.
    checkpoints: CheckpointLog,
}

impl Simulation {
    /// Starts a [`SimulationBuilder`](crate::SimulationBuilder) — the
    /// supported way to construct a simulation:
    ///
    /// ```ignore
    /// Simulation::builder(config).population(peers).build()?.run()
    /// ```
    pub fn builder(config: SwarmConfig) -> crate::SimulationBuilder {
        crate::SimulationBuilder::new(config)
    }

    /// Assembles the simulation from already-validated parts (the
    /// builder's final step).
    pub(crate) fn assemble(
        config: SwarmConfig,
        population: Vec<PeerSpec>,
        recorder: Recorder,
        faults: FaultSchedule,
    ) -> Self {
        // `COOP_SWARM_DEBUG` is shorthand for "stream end-of-run state
        // dumps to stderr": when set and no recorder was supplied, spin up
        // one that keeps only `final`-category events and writes them as
        // JSONL to stderr (the structured successor of the old ad-hoc
        // eprintln dumps).
        let recorder = if !recorder.is_enabled() && std::env::var_os("COOP_SWARM_DEBUG").is_some() {
            let sampling = Category::ALL
                .iter()
                .fold(Sampling::keep_all(), |s, &c| s.every(c, 0))
                .every(Category::Final, 1);
            let mut r = Recorder::enabled(TelemetryConfig {
                probe_every: u64::MAX,
                ring_capacity: 0,
                sampling,
            });
            r.set_capture(false);
            r.add_sink(Box::new(coop_telemetry::StderrSink));
            r
        } else {
            recorder
        };
        let num_pieces = config.file.num_pieces();
        let rounds = RoundDriver::new(config.round);
        let mut engine = Engine::new();
        let expected_compliant = population.iter().filter(|s| s.tags.compliant).count();
        let specs: Vec<Option<PeerSpec>> = population.into_iter().map(Some).collect();
        for (i, spec) in specs.iter().enumerate() {
            let at = spec.as_ref().expect("just wrapped").arrival;
            engine.schedule(at, Event::Arrival(i));
        }
        // The first round is processed at the end of its window, after the
        // arrivals within it.
        engine.schedule(rounds.start_of(1), Event::RoundTick);
        let spec_count = specs.len();
        let seeder_bf = Bitfield::full(num_pieces);
        Simulation {
            seeds: SeedTree::new(config.seed),
            availability: AvailabilityIndex::new(num_pieces),
            transfers: TransferTable::new(),
            reputation: ReputationTable::new(),
            interest: InterestWords::new(&seeder_bf),
            seeder_bf,
            rounds,
            engine,
            peers: Vec::new(),
            specs,
            round_idx: 0,
            now: SimTime::ZERO,
            expected_compliant,
            reports: ReportedReputation::new(),
            pretrusted: Vec::new(),
            trusted_cache: IdMap::default(),
            adjacency: Adjacency::default(),
            adjacency_rebuilds: 0,
            ledger_windows: Vec::new(),
            hot: HotPeers::default(),
            scratch_held: Bitfield::new(0),
            scratch_ties: Vec::new(),
            scratch_targets: Vec::new(),
            scratch_interested: Vec::new(),
            scratch_grants: Vec::new(),
            scratch_alloc: AllocScratch::default(),
            scratch_pool: Vec::new(),
            pending_arrivals: spec_count,
            open_active: 0,
            compliant_completed: 0,
            compliant_slots: 0,
            compliant_bootstrapped: 0,
            naive_hotpath: false,
            shards: 1,
            dirty: DirtySet::new(),
            revisit: DirtySet::new(),
            visit: VisitBits::default(),
            naive_probe_rebuilds: 0,
            recorder,
            profiler: Profiler::disabled(),
            work_visited: 0,
            work_productive: 0,
            work_candidate_scans: 0,
            has_epoch_cadence: false,
            has_round_end_hooks: false,
            epoch_settlements: 0,
            epoch_boundaries: 0,
            consensus: None,
            probe_prev_bytes: [0; GrantReason::ALL.len()],
            spec_peer: vec![None; spec_count],
            faults,
            fault_cursor: 0,
            seeder_online: true,
            stalled: false,
            prev_uploaded_total: 0,
            totals: Totals::default(),
            fairness_avg: TimeSeries::new(),
            diversity: TimeSeries::new(),
            fairness_stat: TimeSeries::new(),
            bootstrapped_frac: TimeSeries::new(),
            completed_frac: TimeSeries::new(),
            susceptibility: TimeSeries::new(),
            checkpoint_every: None,
            checkpoints: CheckpointLog::default(),
            config,
        }
    }

    /// Sets the checkpoint cadence (builder plumbing): capture a
    /// [`SimCheckpoint`] after every `k`-th completed round.
    pub(crate) fn set_checkpoint_every(&mut self, k: Option<u64>) {
        self.checkpoint_every = k.filter(|&k| k > 0);
    }

    /// Attaches the wall-clock profiler (builder plumbing).
    pub(crate) fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Sets the intra-sim shard count (builder plumbing).
    pub(crate) fn set_shards(&mut self, k: usize) {
        self.shards = k.max(1);
    }

    /// Is the dirty-set visit filter live? The naive oracle bypasses
    /// every index, including this one.
    fn dirty_active(&self) -> bool {
        !self.naive_hotpath
    }

    /// Neighborhood mark: a candidate's interest *toward* this peer can
    /// have grown (its `absent ∖ inflight` grew, or its candidate edges
    /// reappeared), so the peer and — via candidate-row expansion at the next
    /// visit-set build — every candidate that may now serve it are
    /// visited next round. Because a change during the allocation loop
    /// can matter to a later-in-order peer *this* round, the peer's live
    /// visit bit is set too. Never called with the seeder; see
    /// [`crate::dirty`] for which sites take which grade.
    fn mark_dirty(&mut self, id: PeerId) {
        debug_assert_ne!(id, SEEDER_ID, "the seeder is not a peer slot");
        self.dirty.mark(id.index());
        self.visit.set(id.index());
    }

    /// Revisit mark: only this peer's own allocation inputs changed (its
    /// ledger, offer, candidate row or balances), so it alone is visited
    /// next round — no expansion — and its live visit bit is set for
    /// the rest of this round. Never called with the seeder.
    fn mark_revisit(&mut self, id: PeerId) {
        debug_assert_ne!(id, SEEDER_ID, "the seeder is not a peer slot");
        self.revisit.mark(id.index());
        self.visit.set(id.index());
    }

    /// Attaches a wall-clock profiler to a built simulation. Unlike
    /// [`SimulationBuilder::profiler`](crate::SimulationBuilder::profiler)
    /// this lets the caller time construction itself (the `exec.build`
    /// phase) on the same profiler before handing it over. Purely
    /// observational: results are identical with any profiler attached.
    #[must_use]
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &SwarmConfig {
        &self.config
    }

    /// The current round index.
    pub fn round(&self) -> u64 {
        self.round_idx
    }

    /// The peer state for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never assigned.
    pub fn peer(&self, id: PeerId) -> &PeerState {
        &self.peers[id.index() as usize]
    }

    /// Whether `id` refers to an active (arrived, not departed) peer.
    pub fn is_active(&self, id: PeerId) -> bool {
        if id == SEEDER_ID {
            return false;
        }
        self.peers
            .get(id.index() as usize)
            .is_some_and(|p| p.is_active())
    }

    /// Whether `id` can currently exchange bytes: active *and* not held
    /// dark by a fault-schedule outage. Identical to [`Self::is_active`]
    /// when no fault schedule is attached (no peer is ever offline), so
    /// every interaction path below uses this without perturbing
    /// fault-free runs.
    pub fn is_online(&self, id: PeerId) -> bool {
        if id == SEEDER_ID {
            return false;
        }
        self.peers
            .get(id.index() as usize)
            .is_some_and(|p| p.is_active() && !p.offline)
    }

    /// Global reputation of `id` (0 for unknown/departed identities).
    /// With `trusted_reputation` enabled this is the EigenTrust score
    /// (recomputed once per round); otherwise the raw claimed-upload
    /// total, which false praise can inflate.
    pub fn reputation_of(&self, id: PeerId) -> f64 {
        if let Some(c) = &self.consensus {
            // Consensus populations score by corroborated uploads only;
            // unilateral claims (and false praise) never credit.
            return c.score_of(id.index());
        }
        if self.config.trusted_reputation {
            self.trusted_cache.get(&id).copied().unwrap_or(0.0)
        } else {
            self.reputation.reputation(id)
        }
    }

    /// Is `id` serving a consensus-reputation ban this round? Always
    /// false for populations without a consensus mechanism.
    pub fn is_banned(&self, id: PeerId) -> bool {
        id != SEEDER_ID
            && self
                .consensus
                .as_ref()
                .is_some_and(|c| c.is_banned_slot(id.index(), self.round_idx))
    }

    /// Number of peer identities spawned so far, departed ones included
    /// (valid ids are `0..peer_slots()`).
    pub fn peer_slots(&self) -> usize {
        self.peers.len()
    }

    /// The active peer ids in ascending order and the large-view ones
    /// among them, read off the [`HotPeers`] lists exactly as arrival-time
    /// neighbor selection reads them. Exposed so the property battery can
    /// check the lists against the peer structs at any restored state.
    #[doc(hidden)]
    pub fn active_pool(&self) -> (Vec<PeerId>, Vec<PeerId>) {
        (
            self.hot.active_ids().to_vec(),
            self.hot.large_view_ids().to_vec(),
        )
    }

    /// Is a transfer currently in flight from `from` to `to`?
    pub fn has_transfer(&self, from: PeerId, to: PeerId) -> bool {
        self.transfers.get(from, to).is_some()
    }

    /// Does active peer `who` need at least one piece `from` can offer?
    /// (Delegates to [`shard::needs_with`], the single authority shared
    /// with the shard workers.)
    pub fn needs(&self, who: PeerId, from: PeerId) -> bool {
        shard::needs_with(&self.interest_ctx(), who, from)
    }

    /// The interest test's borrowed inputs.
    fn interest_ctx(&self) -> InterestCtx<'_> {
        InterestCtx {
            hot: &self.hot,
            words: &self.interest,
            transfers: &self.transfers,
            seeder_online: self.seeder_online,
            peers: &self.peers,
            seeder_bf: &self.seeder_bf,
        }
    }

    /// Runs the simulation to completion (all compliant peers finished or
    /// `max_rounds` reached) and returns the results.
    pub fn run(self) -> SimResult {
        self.run_traced().0
    }

    /// Runs the simulation and also returns what the attached telemetry
    /// [`Recorder`] gathered (an empty report when none was attached —
    /// see [`SimulationBuilder::recorder`](crate::SimulationBuilder::recorder)).
    pub fn run_traced(self) -> (SimResult, TelemetryReport) {
        let (result, report, _, _) = self.run_core();
        (result, report)
    }

    /// Runs the simulation and also returns what the attached wall-clock
    /// [`Profiler`] gathered (an empty report when none was attached —
    /// see [`SimulationBuilder::profiler`](crate::SimulationBuilder::profiler)).
    ///
    /// Profiling is observational: results are byte-identical with the
    /// profiler enabled, disabled, or sampling at any cadence.
    pub fn run_profiled(self) -> (SimResult, TelemetryReport, ProfileReport) {
        let (result, report, profile, _) = self.run_core();
        (result, report, profile)
    }

    /// Runs the simulation and also returns the [`CheckpointLog`] of
    /// mid-run snapshots captured at the cadence set by
    /// [`SimulationBuilder::checkpoint_every`](crate::SimulationBuilder::checkpoint_every)
    /// (an empty log when no cadence was set).
    ///
    /// Checkpointing is observational: results are identical with any
    /// cadence, including none (pinned by the `checkpoint_equivalence`
    /// test battery).
    pub fn run_checkpointed(self) -> (SimResult, TelemetryReport, CheckpointLog) {
        let (result, report, _, checkpoints) = self.run_core();
        (result, report, checkpoints)
    }

    fn run_core(mut self) -> (SimResult, TelemetryReport, ProfileReport, CheckpointLog) {
        let run_t = self.profiler.start();
        let deadline = self.rounds.start_of(self.config.max_rounds + 1);
        let mut engine = std::mem::take(&mut self.engine);
        engine.run_until(deadline, |now, ev, eng| self.handle(now, ev, eng));
        self.engine = engine;
        let checkpoints = std::mem::take(&mut self.checkpoints);
        let (result, report, profile) = self.finalize(run_t);
        (result, report, profile, checkpoints)
    }

    /// Restores a mid-run checkpoint onto this freshly built simulation,
    /// returning it positioned to resume right after the checkpointed
    /// round. Finishing the restored run yields a [`SimResult`] exactly
    /// equal to the straight-through run's.
    ///
    /// The receiver must be freshly built (never run) from the same
    /// configuration and a population of the same shape; it re-supplies
    /// what a checkpoint deliberately does not carry — the unspawned
    /// arrival specs (mechanism factories are closures), the telemetry
    /// recorder, and the builder's run settings (shard count, the
    /// naive-oracle switch).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NotFresh`] if this simulation already ran,
    /// [`CheckpointError::ConfigMismatch`] /
    /// [`CheckpointError::PopulationMismatch`] if it was built from a
    /// different config or population shape.
    pub fn restore(mut self, checkpoint: &SimCheckpoint) -> Result<Simulation, CheckpointError> {
        if self.round_idx != 0 || !self.peers.is_empty() {
            return Err(CheckpointError::NotFresh);
        }
        let s = &*checkpoint.state;
        if self.config != s.config {
            return Err(CheckpointError::ConfigMismatch);
        }
        if self.specs.len() != s.spec_peer.len() {
            return Err(CheckpointError::PopulationMismatch {
                expected: s.spec_peer.len(),
                found: self.specs.len(),
            });
        }
        // Peers that had spawned by checkpoint time travel in `peers`;
        // their Arrival events are gone from the captured queue, so their
        // specs must not fire again.
        for (i, spawned) in s.spec_peer.iter().enumerate() {
            if spawned.is_some() {
                self.specs[i] = None;
            }
        }
        self.engine = s.engine.clone().restore();
        self.seeds = SeedTree::import(s.seed_state);
        self.peers = s.peers.clone();
        self.availability = s.availability.clone();
        self.transfers = s.transfers.clone();
        self.reputation = s.reputation.clone();
        self.seeder_bf = s.seeder_bf.clone();
        self.round_idx = s.round_idx;
        self.now = s.now;
        self.expected_compliant = s.expected_compliant;
        self.reports = s.reports.clone();
        self.pretrusted = s.pretrusted.clone();
        self.trusted_cache = s.trusted_cache.clone();
        self.adjacency_rebuilds = s.adjacency_rebuilds;
        // The hot mirror, the interest arena, the candidate rows and the
        // ledger-window list are derived from the peer structs and the
        // neighbor rows, so they are rebuilt rather than carried in the
        // checkpoint.
        self.hot = HotPeers::rebuilt(&self.peers);
        self.interest = InterestWords::rebuilt(&self.seeder_bf, &self.peers);
        self.adjacency = Adjacency::restored(
            s.neighbor_rows.clone(),
            s.adjacency_pending,
            &self.hot,
            banned_at(s.consensus.as_ref(), self.round_idx),
        );
        self.ledger_windows = self.scan_ledger_windows();
        self.pending_arrivals = s.pending_arrivals;
        self.open_active = s.open_active;
        self.compliant_completed = s.compliant_completed;
        for &d in &s.dirty {
            self.dirty.mark(d);
        }
        for &d in &s.revisit {
            self.revisit.mark(d);
        }
        self.naive_probe_rebuilds = s.naive_probe_rebuilds;
        self.work_visited = s.work_visited;
        self.work_productive = s.work_productive;
        self.work_candidate_scans = s.work_candidate_scans;
        self.epoch_settlements = s.epoch_settlements;
        self.epoch_boundaries = s.epoch_boundaries;
        self.consensus = s.consensus.clone();
        // Derived gates and counts: recomputed from the restored peers
        // (future arrivals update them through `spawn_peer` as usual).
        let declares = |f: fn(&dyn Mechanism) -> bool| {
            self.peers
                .iter()
                .any(|p| p.mechanism.as_deref().is_some_and(f))
        };
        self.has_epoch_cadence =
            declares(|m| matches!(m.settle_cadence(), SettleCadence::Epoch(_)));
        self.has_round_end_hooks = declares(|m| m.has_round_end_hook());
        (self.compliant_slots, self.compliant_bootstrapped, _) = self.scan_compliant_counts();
        self.probe_prev_bytes = s.probe_prev_bytes;
        self.faults = s.faults.clone();
        self.fault_cursor = s.fault_cursor;
        self.spec_peer = s.spec_peer.clone();
        self.seeder_online = s.seeder_online;
        self.stalled = s.stalled;
        self.prev_uploaded_total = s.prev_uploaded_total;
        self.totals = s.totals;
        self.fairness_avg = s.fairness_avg.clone();
        self.diversity = s.diversity.clone();
        self.fairness_stat = s.fairness_stat.clone();
        self.bootstrapped_frac = s.bootstrapped_frac.clone();
        self.completed_frac = s.completed_frac.clone();
        self.susceptibility = s.susceptibility.clone();
        // Scratch buffers, the round driver, the recorder, the profiler,
        // the checkpoint settings, the shard count and the naive-oracle
        // switch stay as built: the first two are config-derived or lazily
        // sized, the rest are deliberately not simulation state
        // (observation and loop mode travel with the run, not the
        // checkpoint).
        Ok(self)
    }

    /// Deep-copies the entire live state — including the in-flight engine
    /// queue `eng` (`self.engine` is empty while the run loop owns it) —
    /// into the checkpoint log.
    fn capture_checkpoint(&mut self, eng: &Engine<Event>) {
        let round = self.round_idx;
        self.recorder.incr("swarm.checkpoints", 1);
        self.recorder.emit_with(|| TraceEvent::Checkpoint { round });
        debug_assert_eq!(
            HotPeers::rebuilt(&self.peers),
            self.hot,
            "SoA mirror diverged from the peer structs it is rebuilt from"
        );
        #[cfg(debug_assertions)]
        {
            self.assert_adjacency_consistent();
            let mut windows = self.ledger_windows.clone();
            windows.sort_unstable();
            assert_eq!(
                windows,
                self.scan_ledger_windows(),
                "ledger-window list diverged from the ledgers it is rebuilt from"
            );
        }
        let state = CheckpointState {
            config: self.config.clone(),
            engine: eng.snapshot(),
            seed_state: self.seeds.export(),
            peers: self.peers.clone(),
            availability: self.availability.clone(),
            transfers: self.transfers.clone(),
            reputation: self.reputation.clone(),
            seeder_bf: self.seeder_bf.clone(),
            round_idx: self.round_idx,
            now: self.now,
            expected_compliant: self.expected_compliant,
            reports: self.reports.clone(),
            pretrusted: self.pretrusted.clone(),
            trusted_cache: self.trusted_cache.clone(),
            neighbor_rows: self.adjacency.rows().to_vec(),
            adjacency_pending: self.adjacency.pending(),
            adjacency_rebuilds: self.adjacency_rebuilds,
            pending_arrivals: self.pending_arrivals,
            open_active: self.open_active,
            compliant_completed: self.compliant_completed,
            dirty: self.dirty.snapshot_sorted(),
            revisit: self.revisit.snapshot_sorted(),
            naive_probe_rebuilds: self.naive_probe_rebuilds,
            work_visited: self.work_visited,
            work_productive: self.work_productive,
            work_candidate_scans: self.work_candidate_scans,
            epoch_settlements: self.epoch_settlements,
            epoch_boundaries: self.epoch_boundaries,
            consensus: self.consensus.clone(),
            probe_prev_bytes: self.probe_prev_bytes,
            faults: self.faults.clone(),
            fault_cursor: self.fault_cursor,
            spec_peer: self.spec_peer.clone(),
            seeder_online: self.seeder_online,
            stalled: self.stalled,
            prev_uploaded_total: self.prev_uploaded_total,
            totals: self.totals,
            fairness_avg: self.fairness_avg.clone(),
            diversity: self.diversity.clone(),
            fairness_stat: self.fairness_stat.clone(),
            bootstrapped_frac: self.bootstrapped_frac.clone(),
            completed_frac: self.completed_frac.clone(),
            susceptibility: self.susceptibility.clone(),
        };
        self.checkpoints.record(SimCheckpoint {
            state: Box::new(state),
        });
    }

    fn handle(&mut self, now: SimTime, ev: Event, eng: &mut Engine<Event>) {
        self.now = now;
        match ev {
            Event::Arrival(idx) => {
                let t = self.profiler.start();
                self.spawn_peer(idx, now);
                self.profiler.stop(phase::SIM_ARRIVALS, t);
            }
            Event::RoundTick => {
                self.round_idx = self.rounds.round_of(now).saturating_sub(1);
                self.step_round(now);
                self.round_idx += 1;
                let close_t = self.profiler.start();
                // Non-compliant peers may never finish (a strict mechanism
                // can starve them forever), so they don't hold the run open
                // — except whitewashers: their identity churn is the very
                // dynamic under measurement, and each chain is finite (an
                // identity either hits its interval or completes, and the
                // successor chain ends at the first identity that downloads
                // nothing itself).
                let all_done = if self.naive_hotpath {
                    self.specs.iter().all(|s| s.is_none())
                        && self.peers.iter().all(|p| {
                            !p.is_active()
                                || !(p.tags.compliant || p.tags.whitewash_interval.is_some())
                        })
                } else {
                    debug_assert_eq!(
                        self.pending_arrivals == 0 && self.open_active == 0,
                        self.specs.iter().all(|s| s.is_none())
                            && self.peers.iter().all(|p| {
                                !p.is_active()
                                    || !(p.tags.compliant || p.tags.whitewash_interval.is_some())
                            }),
                        "run-open counters diverged from the peer scan"
                    );
                    self.pending_arrivals == 0 && self.open_active == 0
                };
                // Stall detection (fault schedules only): when a round
                // moved no bytes and some run-holding peer wants a piece
                // no live source will ever offer again (its last copy
                // departed), the run can never reach `all_done` — stop
                // now with a `Stalled` outcome instead of spinning to
                // `max_rounds`.
                let moved = self.totals.uploaded_total() != self.prev_uploaded_total;
                self.prev_uploaded_total = self.totals.uploaded_total();
                if !all_done && !moved && !self.faults.is_inert() && self.swarm_unsatisfiable() {
                    self.stalled = true;
                    self.recorder.incr("swarm.fault.stalls", 1);
                    self.record_fault("stalled", u32::MAX, 0);
                } else if !all_done && self.round_idx < self.config.max_rounds {
                    eng.schedule(self.rounds.start_of(self.round_idx + 1), Event::RoundTick);
                    // Capture after the next tick is queued so the restored
                    // engine resumes at round `round_idx + 1` exactly.
                    if let Some(k) = self.checkpoint_every {
                        if self.round_idx.is_multiple_of(k) {
                            self.capture_checkpoint(eng);
                        }
                    }
                }
                self.profiler.stop(phase::SIM_ROUND_CLOSE, close_t);
            }
        }
    }

    fn spawn_peer(&mut self, idx: usize, now: SimTime) {
        let spec = self.specs[idx].take().expect("arrival fires once");
        let id = PeerId::new(self.peers.len() as u32);
        // Peer ids follow spawn order, not spec order (staggered arrivals
        // interleave); fault events are keyed by spec index and resolved
        // through this map.
        self.spec_peer[idx] = Some(id);
        let mechanism = (spec.mechanism)();
        if matches!(mechanism.settle_cadence(), SettleCadence::Epoch(_)) {
            self.has_epoch_cadence = true;
        }
        self.has_round_end_hooks |= mechanism.has_round_end_hook();
        if let Some(policy) = mechanism.consensus_policy() {
            if self.consensus.is_none() {
                self.consensus = Some(ConsensusState::new(policy));
            }
        }
        let peer = PeerState::new(
            id,
            spec.capacity_bps,
            spec.tags,
            now,
            self.rounds.round_of(now),
            self.config.file.num_pieces(),
            mechanism,
        );
        // EigenTrust's premise is that pre-trusted peers are operator-chosen
        // known-good nodes (the original moderators). Only compliant peers
        // qualify: letting early-arriving attackers into the root set would
        // make their mutual praise trusted by construction, defeating the
        // defense the paper's Table III evaluates.
        if spec.tags.compliant && self.pretrusted.len() < self.config.pretrusted_count {
            self.pretrusted.push(id);
        }
        let (mut row, large_viewers) = self.choose_neighbors(id, spec.tags.large_view);
        // Existing large-view peers connect to every newcomer.
        if !large_viewers.is_empty() {
            row.extend_from_slice(&large_viewers);
            row.sort_unstable();
            row.dedup();
        }
        for &n in &row {
            self.adjacency.insert(n.index(), id);
        }
        self.interest.push(&peer);
        self.peers.push(peer);
        self.hot.push(&spec.tags, 0);
        self.adjacency.push(row);
        self.pending_arrivals -= 1;
        self.compliant_slots += usize::from(spec.tags.compliant);
        if spec.tags.compliant || spec.tags.whitewash_interval.is_some() {
            self.open_active += 1;
        }
        // Expansion of this mark covers the newcomer's edge partners,
        // whose interest in (and from) it just appeared.
        self.mark_dirty(id);
    }

    /// Picks the initial neighbors of newcomer `me` (not yet in
    /// [`Self::peers`]), ascending: every active, unbanned peer for a
    /// large view, otherwise the first `neighbor_degree` of that pool
    /// after one shuffle on `me`'s own `0xA771` stream. The pool is a
    /// copy of the [`HotPeers`] active list, in ascending id order, so
    /// the shuffle consumes exactly the draws a scan of the peer structs
    /// would feed it. The active large-view peers are returned second;
    /// they are taken before the ban filter because they connect to every
    /// newcomer, banned or not.
    fn choose_neighbors(&mut self, me: PeerId, large_view: bool) -> (Vec<PeerId>, Vec<PeerId>) {
        debug_assert_eq!(
            me.index() as usize,
            self.peers.len(),
            "newcomer already spawned"
        );
        let mut pool = std::mem::take(&mut self.scratch_pool);
        pool.clear();
        pool.extend_from_slice(self.hot.active_ids());
        let large_viewers = self.hot.large_view_ids().to_vec();
        debug_assert_eq!(
            large_viewers,
            self.peers
                .iter()
                .filter(|p| p.is_active() && p.tags.large_view)
                .map(|p| p.id)
                .collect::<Vec<_>>(),
            "SoA large-viewer list diverged from the peer scan"
        );
        if self.consensus.is_some() {
            pool.retain(|&n| !self.is_banned(n));
        }
        debug_assert_eq!(
            pool,
            self.scan_pool(me, &[]),
            "SoA neighbor pool diverged from the peer scan"
        );
        let chosen = if large_view {
            pool.clone()
        } else {
            let degree = self.config.neighbor_degree;
            let mut rng = self.seeds.subtree(0xA771).rng(u64::from(me.index()));
            rng::shuffle_prefix(&mut pool, &mut rng, degree);
            let mut chosen = pool[..degree.min(pool.len())].to_vec();
            chosen.sort_unstable();
            chosen
        };
        self.scratch_pool = pool;
        (chosen, large_viewers)
    }

    /// The pre-SoA candidate pool: active, unbanned peers other than `me`
    /// and outside the ascending `exclude`, by a scan of the peer structs.
    /// Debug builds check every [`HotPeers`]-built pool against it.
    fn scan_pool(&self, me: PeerId, exclude: &[PeerId]) -> Vec<PeerId> {
        self.peers
            .iter()
            .filter(|p| {
                p.is_active()
                    && p.id != me
                    && !self.is_banned(p.id)
                    && exclude.binary_search(&p.id).is_err()
            })
            .map(|p| p.id)
            .collect()
    }

    fn round_rng(&self, label: u64) -> impl RngCore {
        self.seeds.subtree(0x520_0000 + self.round_idx).rng(label)
    }

    /// Ensures the per-peer active-neighbor candidate lists are current.
    ///
    /// Called once before the allocation loop and once before the
    /// end-of-round mechanism hooks: the active set and neighbor graph only
    /// change in the passes *bracketing* those phases (whitewashing,
    /// replenishment, departures), so within each phase every [`SimView`]
    /// can borrow the same precomputed slice instead of re-filtering the
    /// neighbor row on each query. Only the rows named since the last
    /// refresh are re-filtered, against the current round's ban state
    /// (see [`Adjacency`]); quiet rounds re-filter nothing. The naive
    /// oracle re-filters every row at every refresh.
    fn refresh_candidates(&mut self) {
        let banned = banned_at(self.consensus.as_ref(), self.round_idx);
        let refreshed = if self.naive_hotpath {
            self.adjacency.refresh_all(&self.hot, banned);
            true
        } else {
            self.adjacency.refresh(&self.hot, banned)
        };
        if refreshed {
            self.adjacency_rebuilds += 1;
            #[cfg(debug_assertions)]
            self.assert_adjacency_consistent();
        }
    }

    /// Debug oracle: every candidate row not awaiting a refresh equals a
    /// full recompute from the neighbor rows under the current round's
    /// ban state.
    #[cfg(debug_assertions)]
    fn assert_adjacency_consistent(&self) {
        self.adjacency.assert_consistent(
            &self.hot,
            banned_at(self.consensus.as_ref(), self.round_idx),
        );
    }

    /// This round's active neighbors of `id`, as maintained by
    /// [`Self::refresh_candidates`].
    pub(crate) fn round_candidates(&self, id: PeerId) -> &[PeerId] {
        self.adjacency.candidates(id.index())
    }

    /// Rebuilds the live visit bitmap for this round: the drained dirty
    /// (neighborhood) set, its candidate-row members (a neighborhood
    /// mark can re-interest exactly its adjacency row — edges are
    /// symmetric), the drained revisit set without expansion, and every
    /// uploader with an outgoing partial transfer (it must drain
    /// regardless of interest). With `--shards K` the expansion fans
    /// out over contiguous ranges of the *sorted* dirty ids onto scoped
    /// threads whose per-thread bitmaps are OR-merged — a commutative
    /// reduction, so the result is identical for any K.
    fn build_visit_set(&mut self) {
        let scan_t = self.profiler.start();
        self.visit.clear(self.peers.len());
        let dirty = self.dirty.drain_sorted();
        if self.shards > 1 && dirty.len() >= SHARD_MIN_ITEMS {
            let ranges = shard_ranges(dirty.len(), self.shards);
            let (adjacency, slots) = (&self.adjacency, self.peers.len());
            let partials: Vec<VisitBits> = std::thread::scope(|scope| {
                let handles: Vec<_> = ranges
                    .into_iter()
                    .map(|r| {
                        let chunk = &dirty[r];
                        scope.spawn(move || {
                            let mut bits = VisitBits::default();
                            bits.clear(slots);
                            for &d in chunk {
                                bits.set(d);
                                for &nb in adjacency.candidates(d) {
                                    if nb != SEEDER_ID {
                                        bits.set(nb.index());
                                    }
                                }
                            }
                            bits
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            });
            let merge_t = self.profiler.start();
            for part in &partials {
                self.visit.merge(part);
            }
            self.profiler.stop(phase::SIM_SHARD_MERGE, merge_t);
        } else {
            let (adjacency, visit) = (&self.adjacency, &mut self.visit);
            for &d in &dirty {
                visit.set(d);
                for &nb in adjacency.candidates(d) {
                    if nb != SEEDER_ID {
                        visit.set(nb.index());
                    }
                }
            }
        }
        for d in self.revisit.drain_sorted() {
            self.visit.set(d);
        }
        // An uploader's own visit is the only place its partials drain;
        // a peer can't gain outgoing partials without being visited, so
        // seeding them at build time is sufficient. `uploaders()` is
        // unordered — harmless, bitmap insertion commutes.
        for up in self.transfers.uploaders() {
            if up != SEEDER_ID {
                self.visit.set(up.index());
            }
        }
        self.profiler.stop(phase::SIM_DIRTY_SCAN, scan_t);
    }

    fn step_round(&mut self, now: SimTime) {
        let t = self.profiler.start();
        self.apply_faults_pass(now);
        self.profiler.stop(phase::SIM_FAULTS, t);

        let t = self.profiler.start();
        self.whitewash_pass(now);
        self.collusion_praise_pass();
        // Advance the report ledger's decay clock before any claim is
        // recorded or read this round.
        self.reports.advance_to(self.round_idx);
        if self.config.trusted_reputation {
            self.trusted_cache = self.reports.trusted_scores(&self.pretrusted);
        }
        self.profiler.stop(phase::SIM_IDENTITY, t);

        let t = self.profiler.start();
        self.replenish_neighbors();
        self.refresh_candidates();
        self.profiler.stop(phase::SIM_ADJACENCY, t);

        let t = self.profiler.start();
        if self.dirty_active() {
            self.build_visit_set();
        }
        self.seeder_allocate(now);

        // Peers allocate in a per-round shuffled order.
        let mut order: Vec<u32> = if self.naive_hotpath {
            self.peers
                .iter()
                .filter(|p| p.is_active() && !p.offline)
                .map(|p| p.id.index())
                .collect()
        } else {
            let order: Vec<u32> = (0..self.hot.len())
                .filter(|&i| self.hot.is_online(i))
                .map(|i| i as u32)
                .collect();
            debug_assert_eq!(
                order,
                self.peers
                    .iter()
                    .filter(|p| p.is_active() && !p.offline)
                    .map(|p| p.id.index())
                    .collect::<Vec<u32>>(),
                "SoA allocation order diverged from the peer scan"
            );
            order
        };
        rng::shuffle(&mut order, &mut self.round_rng(0));
        self.recorder
            .observe("swarm.round.active_set", order.len() as u64);
        // The dirty filter is evaluated per-visit against the *live* visit
        // bits and obligation flags — never pre-applied to `order` —
        // because a delivery earlier in the shuffled order can make a
        // later peer interested (or obliged) within the same round.
        // A peer is skipped only when its visit bit is clear and it has
        // no pending obligations; the skip contract in [`crate::dirty`]
        // says why such a peer's allocation is a no-op. So `work_visited`
        // counts only real visits here: the shrinking
        // `wasted_visit_ratio` is the dirty loop's own acceptance gate.
        let filter = self.dirty_active();
        for pid in order {
            if filter {
                debug_assert_eq!(
                    self.hot.is_obliged(pid as usize),
                    !self.peers[pid as usize].obligations.is_empty(),
                    "obliged flag diverged from the obligation list"
                );
                if !self.visit.get(pid) && !self.hot.is_obliged(pid as usize) {
                    #[cfg(debug_assertions)]
                    if (u64::from(pid) + self.round_idx).is_multiple_of(8) {
                        self.assert_skip_is_noop(PeerId::new(pid));
                    }
                    continue;
                }
            }
            self.work_visited += 1;
            if self.allocate_and_execute(PeerId::new(pid), now) > 0 {
                self.work_productive += 1;
            }
        }
        self.profiler.stop(phase::SIM_ALLOCATE, t);

        let t = self.profiler.start();
        self.stalled_transfers_pass();
        self.obligations_pass(now);
        self.completions_pass(now);
        self.profiler.stop(phase::SIM_SETTLE, t);

        let t = self.profiler.start();
        self.end_round_pass();
        self.profiler.stop(phase::SIM_END_ROUND, t);

        let t = self.profiler.start();
        if self.round_idx.is_multiple_of(self.config.sample_every) {
            self.sample_metrics(now);
        }
        self.recorder.incr("swarm.rounds", 1);
        if self.recorder.probe_due(self.round_idx) {
            self.round_probe(now);
        }
        self.profiler.stop(phase::SIM_SAMPLE, t);
    }

    /// Emits one [`TraceEvent::RoundProbe`] snapshot (only called on the
    /// recorder's probe cadence, so the gathering below is off the
    /// common path entirely).
    fn round_probe(&mut self, now: SimTime) {
        let round = self.round_idx;
        let sim_s = now.as_secs_f64();
        let active = self.hot.active_ids().len() as u64;
        let (_, bootstrapped, completed) = self.compliant_counts();
        let (bootstrapped, completed) = (bootstrapped as u64, completed as u64);
        let inflight = self.transfers.len() as u64;
        let bytes_by_reason_delta: Vec<u64> = self
            .totals
            .bytes_by_reason
            .iter()
            .zip(self.probe_prev_bytes.iter())
            .map(|(now, prev)| now - prev)
            .collect();
        self.probe_prev_bytes = self.totals.bytes_by_reason;
        let availability_buckets = if self.naive_hotpath {
            // The pre-index path: recount every piece into a fresh
            // histogram on each probe.
            self.naive_probe_rebuilds += 1;
            let mut availability = Histogram::new();
            for piece in 0..self.availability.map().num_pieces() {
                availability.observe(u64::from(self.availability.map().count(piece)));
            }
            availability.buckets().to_vec()
        } else {
            let buckets = self.availability.bucket_counts();
            #[cfg(debug_assertions)]
            {
                let mut check = Histogram::new();
                for piece in 0..self.availability.map().num_pieces() {
                    check.observe(u64::from(self.availability.map().count(piece)));
                }
                debug_assert_eq!(
                    buckets,
                    check.buckets().to_vec(),
                    "incremental availability buckets diverged from a fresh recount"
                );
            }
            buckets
        };
        self.recorder.observe("swarm.probe.active_peers", active);
        self.recorder
            .observe("swarm.probe.inflight_transfers", inflight);
        self.recorder.emit_with(|| TraceEvent::RoundProbe {
            round,
            sim_s,
            active,
            bootstrapped,
            completed,
            inflight,
            bytes_by_reason_delta,
            availability_buckets,
        });
    }

    /// The debug-build skip-contract oracle: runs a skipped peer's
    /// allocation on a clone of its mechanism, at the moment of the skip,
    /// through the visit's own path — [`Mechanism::allocate_into`] on a
    /// view serving [`Self::collect_interested`]'s list — with a
    /// draw-counting RNG, and asserts it would have granted nothing and
    /// drawn nothing. The round loop samples a fixed deterministic eighth
    /// of its skips; the clone keeps the real mechanism, the seed tree and
    /// every artifact untouched. Banned and zero-budget peers are skipped
    /// by `allocate_and_execute` itself, so they are not checked.
    #[cfg(debug_assertions)]
    fn assert_skip_is_noop(&self, id: PeerId) {
        let idx = id.index() as usize;
        let budget = self.config.bytes_per_round(self.peers[idx].capacity_bps);
        if budget == 0 || self.is_banned(id) {
            return;
        }
        let mut probe = self.peers[idx]
            .mechanism
            .as_ref()
            .expect("mechanism present outside allocation")
            .clone_box();
        let mut interested = Vec::new();
        self.collect_interested(id, &mut interested);
        let mut rng = crate::dirty::DrawCounter::default();
        let mut grants = Vec::new();
        probe.allocate_into(
            &SimView::serving(self, id, &interested),
            budget,
            &mut rng,
            &mut AllocScratch::default(),
            &mut grants,
        );
        debug_assert!(
            grants.is_empty() && rng.draws == 0,
            "skip contract violated at round {}: skipped peer {} would grant {} time(s) and draw {} value(s)",
            self.round_idx,
            id.index(),
            grants.len(),
            rng.draws
        );
    }

    /// Clears `out` and fills it with `id`'s candidates that need a piece
    /// from it, in candidate-row order: the list a visit's skip test reads
    /// and its mechanism is served.
    fn collect_interested(&self, id: PeerId, out: &mut Vec<PeerId>) {
        out.clear();
        out.extend(
            self.round_candidates(id)
                .iter()
                .copied()
                .filter(|&c| self.needs(c, id)),
        );
    }

    /// Returns the bytes this visit actually moved (drained plus newly
    /// granted) — the signal behind the `swarm.work.peers_productive`
    /// counter.
    fn allocate_and_execute(&mut self, id: PeerId, now: SimTime) -> u64 {
        let idx = id.index() as usize;
        if !self.peers[idx].is_active() || self.peers[idx].offline {
            return 0;
        }
        // A banned uploader is skipped wholesale, before the drain and
        // before any RNG could be touched, so every round-loop mode (and
        // any dirty/visit state) takes exactly the same branch. Its
        // outgoing partials stall out; in-flight transfers *to* banned
        // peers are allowed to finish.
        if self.is_banned(id) {
            return 0;
        }
        let budget = self.config.bytes_per_round(self.peers[idx].capacity_bps);
        if budget == 0 {
            return 0;
        }
        // Drain committed partial transfers before allocating new ones: a
        // real client finishes the requests it has already accepted, which
        // is what keeps partially transferred pieces from being abandoned
        // when the policy's targets rotate.
        let drained = self.drain_partials(id, now).min(budget);
        let budget = budget - drained;
        if budget == 0 {
            // Draining ate the whole budget, so the no-op pre-check below
            // never ran: conservatively re-mark so next round's visit set
            // still holds this peer (indexed mode would call its
            // mechanism then).
            if self.dirty_active() {
                self.mark_revisit(id);
            }
            return drained;
        }
        let mut interested = std::mem::take(&mut self.scratch_interested);
        self.collect_interested(id, &mut interested);
        if self.dirty_active() {
            // The skip test, evaluated at visit time: a peer with no
            // interested candidate and no pending obligations is exactly
            // the state in which every built-in mechanism early-returns
            // without drawing RNG or mutating anything — skipping it is
            // unobservable. Obliged-only peers are re-visited through the
            // live obliged flag instead (obligations can be granted
            // toward non-neighbors, so interest does not cover them).
            if !interested.is_empty() {
                // Stateful mechanisms may decide differently next round
                // on identical inputs (unchoke rotations, sticky
                // targets), so interest alone re-marks them. A
                // memoryless mechanism repeats a grantless decision
                // verbatim until an input changes: leave it unmarked and
                // let the productive re-mark below — or any mark site
                // firing on an input change — resurrect it.
                let memoryless = self.peers[idx]
                    .mechanism
                    .as_ref()
                    .expect("mechanism present outside allocation")
                    .allocate_is_memoryless();
                if !memoryless {
                    self.mark_revisit(id);
                }
            } else if self.peers[idx].obligations.is_empty() {
                self.scratch_interested = interested;
                return drained;
            }
        }
        self.work_candidate_scans += self.round_candidates(id).len() as u64;
        let mech_t = self.profiler.start();
        let mut mech = self.peers[idx]
            .mechanism
            .take()
            .expect("mechanism present outside allocation");
        let mut scratch = std::mem::take(&mut self.scratch_alloc);
        let mut grants = std::mem::take(&mut self.scratch_grants);
        grants.clear();
        {
            let view = SimView::serving(&*self, id, &interested);
            let mut rng = self
                .seeds
                .subtree(0x520_0000 + self.round_idx)
                .rng(2 + 2 * u64::from(id.index()));
            mech.allocate_into(&view, budget, &mut rng, &mut scratch, &mut grants);
        }
        self.peers[idx].mechanism = Some(mech);
        self.scratch_alloc = scratch;
        self.scratch_interested = interested;
        self.profiler.stop(phase::SIM_MECHANISM, mech_t);

        let exec_t = self.profiler.start();
        let mut exec_rng = self
            .seeds
            .subtree(0x520_0000 + self.round_idx)
            .rng(3 + 2 * u64::from(id.index()));
        let mut remaining = budget;
        for g in &grants {
            if remaining == 0 {
                break;
            }
            let bytes = g.bytes.min(remaining);
            let used =
                self.execute_grant(id, g.to, bytes, g.reason, g.condition, now, &mut exec_rng);
            remaining -= used;
        }
        self.scratch_grants = grants;
        self.profiler.stop(phase::SIM_EXECUTE, exec_t);
        let granted = budget - remaining;
        if granted > 0 && self.dirty_active() {
            // A productive visit changed this peer's own ledgers and may
            // leave credit or budget unspent — always worth revisiting
            // (idempotent for the stateful mechanisms marked above; the
            // path that keeps productive memoryless peers alive).
            self.mark_revisit(id);
        }
        drained + granted
    }

    /// Progresses this uploader's existing partial transfers (oldest-pair
    /// first in id order), spending up to one round's budget. Returns the
    /// bytes consumed.
    fn drain_partials(&mut self, from: PeerId, now: SimTime) -> u64 {
        let drain_t = self.profiler.start();
        let mut targets = std::mem::take(&mut self.scratch_targets);
        self.transfers.targets_into(from, &mut targets);
        if targets.is_empty() {
            // Nothing to drain. Skipping the stream setup below is
            // unobservable: continuations never draw from it.
            self.scratch_targets = targets;
            self.profiler.stop(phase::SIM_DRAIN, drain_t);
            return 0;
        }
        let budget = if from == SEEDER_ID {
            self.config.bytes_per_round(self.config.seeder_bps)
        } else {
            self.config
                .bytes_per_round(self.peers[from.index() as usize].capacity_bps)
        };
        let mut used = 0;
        let mut rng = self.seeds.subtree(0x520_0000 + self.round_idx).rng(
            0xD0A1
                ^ u64::from(if from == SEEDER_ID {
                    u32::MAX
                } else {
                    from.index()
                }),
        );
        for &to in &targets {
            if used >= budget {
                break;
            }
            used += self.execute_grant_inner(
                from,
                to,
                budget - used,
                GrantReason::Seeding, // unused on continuation
                None,
                now,
                &mut rng,
                false,
            );
        }
        self.scratch_targets = targets;
        self.profiler.stop(phase::SIM_DRAIN, drain_t);
        used
    }

    /// Applies up to `bytes` of upload from `from` toward `to`, continuing
    /// or starting piece transfers. Returns the bytes actually consumed.
    #[allow(clippy::too_many_arguments)]
    fn execute_grant(
        &mut self,
        from: PeerId,
        to: PeerId,
        bytes: u64,
        reason: GrantReason,
        condition: Option<ReciprocationCondition>,
        now: SimTime,
        rng: &mut dyn RngCore,
    ) -> u64 {
        self.execute_grant_inner(from, to, bytes, reason, condition, now, rng, true)
    }

    /// Core grant execution; with `start_new = false` only existing
    /// partials are progressed (the drain-first pass).
    #[allow(clippy::too_many_arguments)]
    fn execute_grant_inner(
        &mut self,
        from: PeerId,
        to: PeerId,
        bytes: u64,
        reason: GrantReason,
        condition: Option<ReciprocationCondition>,
        now: SimTime,
        rng: &mut dyn RngCore,
        start_new: bool,
    ) -> u64 {
        // `id_online` is `is_online` read off the packed flags.
        if to == from || !self.hot.id_online(to) {
            return 0;
        }
        let mut left = bytes;
        let mut used = 0;
        let mut started_new = false;
        let mut effective_reason = reason;
        while left > 0 {
            // One row lookup moves the bytes; the accounting reads no
            // transfer, so it may follow the step.
            if let Some(Advance { step, reason, done }) =
                self.transfers.advance(from, to, left, self.round_idx)
            {
                effective_reason = reason;
                self.account_bytes(from, to, step);
                self.totals.bytes_by_reason[reason.index()] += step;
                if let Some(done) = done {
                    // Per-link message loss: a pure hash of (loss_seed,
                    // link, piece, round) — a no-op single branch when the
                    // schedule carries no loss probability.
                    let from_raw = if from == SEEDER_ID {
                        u32::MAX
                    } else {
                        from.index()
                    };
                    if self
                        .faults
                        .drops_piece(from_raw, to.index(), done.piece, self.round_idx)
                    {
                        self.drop_delivery(to, done);
                    } else {
                        self.deliver(from, to, done, now);
                    }
                }
                left -= step;
                used += step;
                continue;
            }
            if !start_new {
                break;
            }
            // Start a new transfer if the target still needs something we
            // (or the seeder) can offer. Conditional (T-Chain) transfers
            // respect the receiver's reciprocation-backlog cap with
            // real-time counts — per-round candidate filtering alone races
            // when several uploaders pick the same target in one round.
            if condition.is_some() {
                let r = &self.peers[to.index() as usize];
                if r.obligations.len() + r.inflight_conditional
                    >= self.config.mechanism_params.tchain_max_backlog
                {
                    break;
                }
            }
            let pick_t = self.profiler.start();
            let picked = self.pick_piece(from, to, rng);
            self.profiler.stop(phase::SIM_PIECE_PICK, pick_t);
            let Some((piece, len)) = picked else {
                break;
            };
            self.peers[to.index() as usize].start_fetch(
                piece,
                condition.is_some(),
                &mut self.interest,
            );
            started_new = true;
            effective_reason = reason;
            self.transfers.start(
                from,
                to,
                InFlight {
                    piece,
                    piece_len: len,
                    bytes_done: 0,
                    condition,
                    reason,
                    last_progress_round: self.round_idx,
                },
            );
        }
        // Observational only — one branch when telemetry is disabled.
        if self.recorder.is_enabled() && (used > 0 || started_new) {
            self.record_grant(from, to, used, effective_reason, started_new);
        }
        used
    }

    /// Telemetry bookkeeping for one executed grant (recorder known to be
    /// enabled; kept out of line so the grant hot path stays compact).
    fn record_grant(
        &mut self,
        from: PeerId,
        to: PeerId,
        used: u64,
        reason: GrantReason,
        started_new: bool,
    ) {
        self.recorder.incr("swarm.grants", 1);
        self.recorder.incr("swarm.granted_bytes", used);
        if started_new {
            self.recorder.incr("swarm.transfers_started", 1);
        }
        let round = self.round_idx;
        self.recorder
            .emit_sampled(Category::Grant, || TraceEvent::Grant {
                round,
                from: from.index(),
                to: to.index(),
                bytes: used,
                reason: reason.name(),
                new_transfer: started_new,
            });
    }

    fn pick_piece(
        &mut self,
        from: PeerId,
        to: PeerId,
        rng: &mut dyn RngCore,
    ) -> Option<(u32, u64)> {
        // The picker treats the downloader bitfield as "pieces already
        // held"; in-flight pieces count as held so they are not fetched
        // twice. The scratch bitfield is moved out and refilled in place
        // (rather than cloning the downloader's bitfield) so repeated piece
        // selections within a round allocate nothing.
        let mut held = std::mem::replace(&mut self.scratch_held, Bitfield::new(0));
        held.copy_from(self.peer(to).offer());
        held.union_with(self.peer(to).inflight());
        let mut ties = std::mem::take(&mut self.scratch_ties);
        let offer = if from == SEEDER_ID {
            &self.seeder_bf
        } else {
            self.peer(from).offer()
        };
        let selection = match self.config.piece_strategy {
            PieceStrategy::RarestFirst => {
                if self.naive_hotpath {
                    // The pre-index path: per-bit missing-piece walk with a
                    // fresh tie vector per call.
                    RarestFirstPicker.pick(&held, offer, self.availability.map(), rng)
                } else {
                    // Word-skipping walk over the incremental index; draws
                    // from `rng` exactly as the naive picker does (pinned
                    // by the `availability_index` proptests).
                    self.availability
                        .pick_rarest_into(&held, offer, &mut ties, rng)
                }
            }
            PieceStrategy::Random => {
                RandomFirstPicker.pick(&held, offer, self.availability.map(), rng)
            }
            PieceStrategy::Sequential => {
                SequentialPicker.pick(&held, offer, self.availability.map(), rng)
            }
        };
        self.scratch_ties = ties;
        self.scratch_held = held;
        match selection {
            PieceSelection::Piece(p) => Some((p, self.config.file.piece_len(p))),
            PieceSelection::NothingNeeded => None,
        }
    }

    /// Byte-granular transfer accounting, applied as progress happens so
    /// rate-based policies (BitTorrent's tit-for-tat ranking, FairTorrent's
    /// deficits) observe smooth rates rather than lumpy piece-completion
    /// spikes.
    fn account_bytes(&mut self, from: PeerId, to: PeerId, bytes: u64) {
        if bytes == 0 {
            return;
        }
        // Ledger movement is an allocate input for the receiving end:
        // credit grows with every partial step, not just at delivery,
        // which can flip a memoryless mechanism's grantless decision.
        // Only the receiver's own inputs moved, so it is revisited alone.
        // (The sender re-marks itself through the productive-visit path,
        // and uploaders with open partials are seeded into every visit
        // set.)
        if self.dirty_active() {
            self.mark_revisit(to);
        }
        if from == SEEDER_ID {
            self.totals.uploaded_seeder += bytes;
        } else if self.peers[from.index() as usize].tags.compliant {
            self.totals.uploaded_compliant += bytes;
        } else {
            self.totals.uploaded_freeriders += bytes;
        }
        if !self.peers[to.index() as usize].tags.compliant {
            self.totals.freerider_received_raw += bytes;
        }
        self.settle_transfer(from, to, bytes);
    }

    /// The per-transfer settlement entry point: the *only* place moved
    /// bytes enter the mechanism-visible ledgers (contribution ledgers,
    /// which FairTorrent's deficits derive from, reputation tables,
    /// reported receipts).
    /// Mechanisms declaring [`SettleCadence::PerTransfer`] read these
    /// inputs directly; [`SettleCadence::Epoch`] mechanisms additionally
    /// fold them into balances at [`Self::epoch_close_pass`] boundaries.
    /// Keeping settlement out of the mechanisms themselves is what lets
    /// the cadence hook own it (and what pins artifacts byte-identical
    /// across the refactor).
    fn settle_transfer(&mut self, from: PeerId, to: PeerId, bytes: u64) {
        if from != SEEDER_ID {
            let s = &mut self.peers[from.index() as usize];
            s.bytes_sent += bytes;
            s.ledger.record_sent(to, bytes);
            self.reputation.credit_upload(from, bytes);
            if self.config.trusted_reputation {
                self.reports.record(to, from, bytes);
            }
            if let Some(c) = self.consensus.as_mut() {
                c.record_transfer(from.index(), to.index(), bytes);
            }
        }
        let r = &mut self.peers[to.index() as usize];
        r.bytes_received_raw += bytes;
        if !r.ledger.has_windowed_receipts() {
            self.ledger_windows.push(to.index());
        }
        r.ledger.record_received(from, bytes);
    }

    fn deliver(&mut self, from: PeerId, to: PeerId, done: InFlight, now: SimTime) {
        let len = done.piece_len;
        let piece = done.piece;
        let to_idx = to.index() as usize;
        // A delivery changes the receiver's piece/obligation state (and
        // removes the pair's inflight entry): revisit it so later visits
        // this round and next round's visit set observe its grown offer.
        // Neither the sender nor the receiver's other candidates need a
        // mark — delivery removes the piece from the receiver's absent
        // and inflight sets together, so no uploader's interest toward
        // the receiver grows.
        self.mark_revisit(to);
        self.end_fetch(to, &done);
        self.record_bootstrap(to_idx, now);

        match done.condition {
            Some(cond) => {
                let r = &mut self.peers[to_idx];
                if !r.have().get(piece) {
                    r.lock_piece(piece, &mut self.interest);
                    r.obligations.push(Obligation {
                        uploader: from,
                        reciprocate_to: cond.reciprocate_to,
                        piece,
                        created_round: self.round_idx,
                    });
                    self.hot.set_obliged(to_idx, true);
                }
            }
            None => {
                if !self.peers[to_idx].have().get(piece) {
                    self.deliver_usable(from, to, piece, len);
                }
            }
        }

        // The completed upload may fulfil one of the *sender's* pending
        // obligations toward `to` (T-Chain reciprocation — key release).
        if from != SEEDER_ID {
            self.fulfill_obligation(from, to);
        }
    }

    /// Records slot `idx`'s first piece, if this is it, and counts a
    /// compliant peer's bootstrap.
    fn record_bootstrap(&mut self, idx: usize, now: SimTime) {
        let p = &mut self.peers[idx];
        if p.record_bootstrap(now) && p.tags.compliant {
            self.compliant_bootstrapped += 1;
        }
    }

    fn deliver_usable(&mut self, from: PeerId, to: PeerId, piece: u32, len: u64) {
        let r = &mut self.peers[to.index() as usize];
        r.acquire_usable(piece, &mut self.interest);
        r.bytes_received_usable += len;
        let compliant = r.tags.compliant;
        self.availability.on_piece_acquired(piece);
        self.hot.add_piece(to.index() as usize);
        if !compliant {
            self.totals.freerider_received_usable += len;
            if from != SEEDER_ID {
                self.totals.freerider_received_from_peers += len;
            }
        }
    }

    /// The transfer `fl` toward `to` ended, delivered or not.
    fn end_fetch(&mut self, to: PeerId, fl: &InFlight) {
        self.peers[to.index() as usize].end_fetch(
            fl.piece,
            fl.condition.is_some(),
            &mut self.interest,
        );
    }

    /// The sender just completed an upload to `target`; release the key for
    /// the sender's oldest obligation pointing at `target`, if any.
    ///
    /// If none points at `target` but some obligation's designated target
    /// has departed or is already satisfied (needs nothing the sender can
    /// offer), that stale obligation is fulfilled instead: the
    /// reciprocation went to a useful peer, which is what a real T-Chain
    /// uploader accepts when re-designating an unresponsive chain partner.
    fn fulfill_obligation(&mut self, sender: PeerId, target: PeerId) {
        let s_idx = sender.index() as usize;
        let pos = self.peers[s_idx]
            .obligations
            .iter()
            .enumerate()
            .filter(|(_, o)| o.reciprocate_to == target)
            .min_by_key(|(_, o)| o.created_round)
            .map(|(i, _)| i)
            .or_else(|| {
                let stale: Vec<(usize, u64)> = self.peers[s_idx]
                    .obligations
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| {
                        o.reciprocate_to != sender
                            && (!self.is_active(o.reciprocate_to)
                                || !self.needs(o.reciprocate_to, sender))
                    })
                    .map(|(i, o)| (i, o.created_round))
                    .collect();
                stale.into_iter().min_by_key(|&(_, r)| r).map(|(i, _)| i)
            });
        let Some(pos) = pos else { return };
        let ob = self.peers[s_idx].obligations.remove(pos);
        let obliged = !self.peers[s_idx].obligations.is_empty();
        self.hot.set_obliged(s_idx, obliged);
        self.unlock_for(sender, ob.piece);
        self.notify_chain_outcome(ob.uploader, sender, true);
    }

    /// Tells the uploader of a resolved conditional piece whether the
    /// receiver reciprocated, feeding T-Chain's local reputation.
    fn notify_chain_outcome(&mut self, uploader: PeerId, receiver: PeerId, honored: bool) {
        if uploader == SEEDER_ID || !self.is_active(uploader) {
            return;
        }
        if let Some(mech) = self.peers[uploader.index() as usize].mechanism.as_mut() {
            mech.on_chain_outcome(receiver, honored);
        }
    }

    fn unlock_for(&mut self, peer: PeerId, piece: u32) {
        let idx = peer.index() as usize;
        if self.peers[idx].unlock_piece(piece) {
            let len = self.config.file.piece_len(piece);
            self.peers[idx].bytes_received_usable += len;
            let compliant = self.peers[idx].tags.compliant;
            self.availability.on_piece_acquired(piece);
            self.hot.add_piece(idx);
            if !compliant {
                // Locked pieces only ever come from peers (the seeder
                // uploads unconditionally), so an unlock is peer-sourced.
                self.totals.freerider_received_usable += len;
                self.totals.freerider_received_from_peers += len;
            }
        }
    }

    /// Aborts transfers that made no progress for `stall_timeout_rounds`;
    /// the receiver's piece becomes requestable from other sources again,
    /// exactly as a real client re-issues a timed-out request. Without
    /// this, a piece can sit parked at 95% in a pair the uploader's policy
    /// happens never to revisit, stalling completion indefinitely.
    fn stalled_transfers_pass(&mut self) {
        let timeout = self.config.stall_timeout_rounds;
        let before = self.round_idx.saturating_sub(timeout);
        if self.round_idx < timeout {
            return;
        }
        for ((from, to), fl) in self.transfers.drain_stalled(before) {
            self.totals.aborted_bytes += fl.bytes_done;
            if self.recorder.is_enabled() {
                self.recorder.incr("swarm.transfers_stalled", 1);
                let round = self.round_idx;
                self.recorder
                    .emit_sampled(Category::Transfer, || TraceEvent::TransferStalled {
                        round,
                        from: from.index(),
                        to: to.index(),
                        piece: fl.piece,
                        bytes_done: fl.bytes_done,
                    });
            }
            if to == SEEDER_ID {
                continue;
            }
            if let Some(p) = self.peers.get_mut(to.index() as usize) {
                p.end_fetch(fl.piece, fl.condition.is_some(), &mut self.interest);
                // The piece is requestable again: sources regain interest
                // in this receiver, so it must rejoin the visit set.
                self.mark_dirty(to);
            }
        }
    }

    fn obligations_pass(&mut self, _now: SimTime) {
        let ttl = self.config.mechanism_params.tchain_obligation_ttl;
        let round = self.round_idx;
        let ids: Vec<u32> = (0..self.hot.len())
            .filter(|&i| self.hot.is_active(i) && self.hot.is_obliged(i))
            .map(|i| i as u32)
            .collect();
        debug_assert_eq!(
            ids,
            self.peers
                .iter()
                .filter(|p| p.is_active() && !p.obligations.is_empty())
                .map(|p| p.id.index())
                .collect::<Vec<u32>>(),
            "SoA obligation scan diverged from the peer scan"
        );
        for pid in ids {
            let id = PeerId::new(pid);
            // Collusion: a ring member's obligations whose confirmation
            // target is a fellow ring member are "confirmed" without any
            // upload (false receipt report), releasing the key for free.
            let ring = self.peers[pid as usize].tags.collusion_ring;
            if let Some(ring) = ring {
                let colluding: Vec<Obligation> = self.peers[pid as usize]
                    .obligations
                    .iter()
                    .filter(|o| {
                        self.is_active(o.reciprocate_to)
                            && self.peer(o.reciprocate_to).tags.collusion_ring == Some(ring)
                    })
                    .copied()
                    .collect();
                for ob in colluding {
                    self.peers[pid as usize].obligations.retain(|o| o != &ob);
                    self.unlock_for(id, ob.piece);
                    // The accomplice's false receipt report convinces the
                    // uploader the chain was honored.
                    self.notify_chain_outcome(ob.uploader, id, true);
                }
            }
            // Expiry: the key window lapses and the receiver loses the
            // ciphertext (the piece becomes absent and re-downloadable,
            // possibly from the seeder or another chain). This is what
            // keeps free-riders' received bytes unusable.
            let expired: Vec<Obligation> = self.peers[pid as usize]
                .obligations
                .iter()
                .filter(|o| round.saturating_sub(o.created_round) >= ttl)
                .copied()
                .collect();
            let had_expired = !expired.is_empty();
            for ob in expired {
                self.peers[pid as usize].obligations.retain(|o| o != &ob);
                self.peers[pid as usize].discard_locked(ob.piece, &mut self.interest);
                self.notify_chain_outcome(ob.uploader, id, false);
            }
            if had_expired {
                // Discarded pieces are absent again: sources regain
                // interest in this receiver next round.
                self.mark_dirty(id);
            }
            let obliged = !self.peers[pid as usize].obligations.is_empty();
            self.hot.set_obliged(pid as usize, obliged);
        }
    }

    fn completions_pass(&mut self, now: SimTime) {
        let np = self.config.file.num_pieces();
        let done: Vec<u32> = if self.naive_hotpath {
            self.peers
                .iter()
                .filter(|p| p.is_active() && p.is_complete())
                .map(|p| p.id.index())
                .collect()
        } else {
            let done: Vec<u32> = (0..self.hot.len())
                .filter(|&i| self.hot.is_active(i) && self.hot.have_count(i) == np)
                .map(|i| i as u32)
                .collect();
            debug_assert_eq!(
                done,
                self.peers
                    .iter()
                    .filter(|p| p.is_active() && p.is_complete())
                    .map(|p| p.id.index())
                    .collect::<Vec<u32>>(),
                "SoA completion detection diverged from the bitfield scan"
            );
            done
        };
        for pid in done {
            self.depart(PeerId::new(pid), Departure::Completed(now));
            // A whitewashing attacker sheds its (now history-laden)
            // identity at the moment it finishes: the node rejoins under a
            // fresh name carrying the pieces. The `bytes_received_usable`
            // guard stops the chain — a successor that downloaded nothing
            // itself departs without spawning another identity.
            let p = &self.peers[pid as usize];
            if p.tags.whitewash_interval.is_some()
                && !p.tags.compliant
                && p.bytes_received_usable > 0
            {
                self.spawn_successor(PeerId::new(pid), now);
            }
        }
    }

    fn depart(&mut self, id: PeerId, why: Departure) {
        let idx = id.index() as usize;
        let dropped = self.transfers.drop_peer(id);
        for ((_, t), fl) in dropped {
            if t != id && t != SEEDER_ID {
                self.end_fetch(t, &fl);
                // The receiver lost an inflight entry without acquiring
                // the piece: it wants it (from other sources) again.
                self.mark_dirty(t);
            }
        }
        self.detach(id);
        self.availability.remove_peer(self.peers[idx].have());
        self.peers[idx].departure = Some(why);
        self.peers[idx].drop_fetches(&mut self.interest);
        self.hot.retire(idx);
        let p = &self.peers[idx];
        if p.tags.compliant || p.tags.whitewash_interval.is_some() {
            self.open_active -= 1;
        }
        if p.tags.compliant && matches!(why, Departure::Completed(_)) {
            self.compliant_completed += 1;
        }
        // Memory diet: a departed identity's bitfields are read-only from
        // here (finalize reads, whitewash successors copy) — fold the
        // dense words into interval runs where strictly smaller. Purely
        // representational, so it is identical across round-loop modes
        // and shard counts.
        self.peers[idx].compress_storage();
    }

    /// Applies every fault whose round has come, at the top of the round
    /// (before whitewashing and allocation). A no-op — one `is_inert`
    /// branch — when no fault schedule is attached, so fault-free runs
    /// are untouched.
    fn apply_faults_pass(&mut self, now: SimTime) {
        if self.faults.is_inert() {
            return;
        }
        self.seeder_fault_pass();
        while self.fault_cursor < self.faults.events().len() {
            let ev = self.faults.events()[self.fault_cursor];
            if ev.round > self.round_idx {
                break;
            }
            self.fault_cursor += 1;
            // Resolve the spec index to the spawned identity. Unspawned
            // (arrival still pending — hand-built schedules only) or
            // already-departed identities (completed, whitewashed, or
            // churned earlier) are skipped: the schedule describes what
            // the environment *would* do, not what must happen.
            let Some(id) = self.spec_peer.get(ev.peer).copied().flatten() else {
                continue;
            };
            let idx = id.index() as usize;
            if !self.peers[idx].is_active() {
                continue;
            }
            match ev.kind {
                FaultKind::Depart => {
                    if self.peers[idx].offline {
                        // A schedule never departs a peer mid-outage, but
                        // an end-at-departure-round event may still be
                        // pending; restore availability before `depart`
                        // removes it so the counts stay balanced.
                        self.end_outage(id);
                    }
                    self.depart(id, Departure::Churned(now));
                    self.recorder.incr("swarm.fault.departures", 1);
                    self.record_fault(FaultKind::Depart.name(), id.index(), 0);
                }
                FaultKind::OutageStart => {
                    self.start_outage(id);
                    self.recorder.incr("swarm.fault.outages", 1);
                    self.record_fault(FaultKind::OutageStart.name(), id.index(), 0);
                }
                FaultKind::OutageEnd => {
                    if self.peers[idx].offline {
                        self.end_outage(id);
                        self.record_fault(FaultKind::OutageEnd.name(), id.index(), 0);
                    }
                }
            }
        }
    }

    /// Takes the seeder permanently offline when the schedule says so:
    /// at a fixed failure round, or once the configured fraction of the
    /// expected compliant population has completed (the "selfish
    /// leech-off" where the original seeder stops seeding as soon as the
    /// content has spread).
    fn seeder_fault_pass(&mut self) {
        if !self.seeder_online {
            return;
        }
        let failed = self
            .faults
            .seeder_failure_round
            .is_some_and(|r| self.round_idx >= r);
        let exited = self.faults.seeder_exit_fraction.is_some_and(|f| {
            let (_, _, done) = self.compliant_counts();
            done > 0 && done as f64 >= f * self.expected_compliant as f64
        });
        if !(failed || exited) {
            return;
        }
        self.seeder_online = false;
        let dropped = self.transfers.drop_peer(SEEDER_ID);
        for ((_, t), fl) in dropped {
            if t != SEEDER_ID {
                self.end_fetch(t, &fl);
                self.mark_dirty(t);
            }
        }
        self.recorder.incr("swarm.fault.seeder_offline", 1);
        self.record_fault("seeder_offline", u32::MAX, 0);
    }

    /// Suspends a peer: its transfers (both directions) are dropped and
    /// its pieces leave the availability map, but it keeps its bitfield,
    /// ledgers, obligations and neighbor links for resumption.
    fn start_outage(&mut self, id: PeerId) {
        let dropped = self.transfers.drop_peer(id);
        for ((_, t), fl) in dropped {
            if t != id && t != SEEDER_ID {
                self.end_fetch(t, &fl);
                self.mark_dirty(t);
            }
        }
        let idx = id.index() as usize;
        self.availability.remove_peer(self.peers[idx].have());
        self.peers[idx].offline = true;
        self.peers[idx].drop_fetches(&mut self.interest);
        self.hot.set_offline(idx, true);
        self.adjacency.touch_neighborhood(id.index());
    }

    /// Brings a suspended peer back: its pieces re-enter the availability
    /// map and it resumes through the ordinary allocation paths next
    /// round (re-bootstrapping its transfers from its kept bitfield).
    fn end_outage(&mut self, id: PeerId) {
        let idx = id.index() as usize;
        self.peers[idx].offline = false;
        // Back online: both its own wants and its candidates' interest in
        // it resume — expansion of this mark covers the candidates.
        self.mark_dirty(id);
        let have: Vec<u32> = self.peers[idx].have().iter_ones().collect();
        for p in have {
            self.availability.on_piece_acquired(p);
        }
        self.hot.set_offline(idx, false);
        self.adjacency.touch_neighborhood(id.index());
    }

    /// Telemetry for one applied fault (no-op when the recorder is off).
    fn record_fault(&mut self, kind: &'static str, peer: u32, bytes: u64) {
        if !self.recorder.is_enabled() {
            return;
        }
        self.recorder.incr("swarm.fault.events", 1);
        let round = self.round_idx;
        self.recorder
            .emit_sampled(Category::Fault, || TraceEvent::Fault {
                round,
                peer,
                kind,
                bytes,
            });
    }

    /// A completed piece transfer lost in transit: the receiver never
    /// gets the piece (it stays absent and re-requestable), and the wire
    /// bytes move from its download tally into the dropped-bytes total —
    /// upload-side accounting stands, the sender did spend the bandwidth.
    fn drop_delivery(&mut self, to: PeerId, done: InFlight) {
        let to_idx = to.index() as usize;
        // The piece stays absent and leaves inflight: sources regain
        // interest in this receiver.
        self.mark_dirty(to);
        self.end_fetch(to, &done);
        let r = &mut self.peers[to_idx];
        r.bytes_received_raw = r.bytes_received_raw.saturating_sub(done.piece_len);
        if !r.tags.compliant {
            self.totals.freerider_received_raw = self
                .totals
                .freerider_received_raw
                .saturating_sub(done.piece_len);
        }
        self.totals.fault_dropped_bytes += done.piece_len;
        self.recorder.incr("swarm.fault.drops", 1);
        self.recorder
            .incr("swarm.fault.dropped_bytes", done.piece_len);
        self.record_fault("piece_drop", to.index(), done.piece_len);
    }

    /// Is the swarm unsatisfiable — does some peer that holds the run
    /// open want a piece that no surviving source will ever offer again?
    /// Offline peers count as sources (their outage ends before any
    /// departure, so their pieces return), as does the seeder while
    /// online; pending arrivals defer the verdict entirely.
    fn swarm_unsatisfiable(&self) -> bool {
        debug_assert_eq!(
            self.pending_arrivals,
            self.specs.iter().filter(|s| s.is_some()).count(),
            "pending-arrival counter diverged from the spec scan"
        );
        if self.seeder_online || self.pending_arrivals > 0 {
            return false;
        }
        let mut sources = Bitfield::new(self.config.file.num_pieces());
        for p in self.peers.iter().filter(|p| p.is_active()) {
            for piece in p.offer().iter_ones() {
                sources.set(piece);
            }
        }
        self.peers.iter().any(|p| {
            p.is_active()
                && (p.tags.compliant || p.tags.whitewash_interval.is_some())
                && !p.is_complete()
                && p.absent().iter_ones().any(|piece| !sources.get(piece))
        })
    }

    fn whitewash_pass(&mut self, now: SimTime) {
        let round = self.round_idx;
        let due = |p: &PeerState| {
            p.tags.whitewash_interval.is_some_and(|w| {
                round > p.arrival_round && (round - p.arrival_round).is_multiple_of(w)
            })
        };
        let targets: Vec<u32> = if self.naive_hotpath {
            self.peers
                .iter()
                .filter(|p| p.is_active() && !p.offline && due(p))
                .map(|p| p.id.index())
                .collect()
        } else {
            // The SoA flags pre-filter the (rare) whitewashers; only they
            // pay for the interval arithmetic on the full peer struct.
            let targets: Vec<u32> = (0..self.hot.len())
                .filter(|&i| self.hot.whitewash_online(i) && due(&self.peers[i]))
                .map(|i| i as u32)
                .collect();
            debug_assert_eq!(
                targets,
                self.peers
                    .iter()
                    .filter(|p| p.is_active() && !p.offline && due(p))
                    .map(|p| p.id.index())
                    .collect::<Vec<u32>>(),
                "SoA whitewash pre-filter diverged from the peer scan"
            );
            targets
        };
        for pid in targets {
            self.re_identity(PeerId::new(pid), now);
        }
        // Ban evaders rotate on the consensus layer's observable state
        // instead of a fixed interval: once permanently banned, or one
        // strike short of a permanent repeat crossing. The successor
        // inherits the tags, so each rotation retires exactly one
        // identity and spawns exactly one.
        if let Some(c) = &self.consensus {
            let evaders: Vec<u32> = self
                .peers
                .iter()
                .filter(|p| {
                    p.is_active() && !p.offline && p.tags.ban_evade && c.evade_due(p.id.index())
                })
                .map(|p| p.id.index())
                .collect();
            for pid in evaders {
                self.re_identity(PeerId::new(pid), now);
            }
        }
    }

    /// Whitewashing: retire `old` and rejoin as a fresh identity that keeps
    /// the downloaded pieces but sheds all ledgers, deficits, obligations
    /// and reputation.
    fn re_identity(&mut self, old: PeerId, now: SimTime) {
        let old_idx = old.index() as usize;
        // Drop transfers and detach the old identity.
        let dropped = self.transfers.drop_peer(old);
        for ((_, t), fl) in dropped {
            if t != SEEDER_ID {
                self.end_fetch(t, &fl);
                if t != old {
                    self.mark_dirty(t);
                }
            }
        }
        self.detach(old);
        self.peers[old_idx].drop_fetches(&mut self.interest);
        self.peers[old_idx].departure = Some(Departure::Whitewashed(now));
        self.availability.remove_peer(self.peers[old_idx].have());
        self.hot.retire(old_idx);
        {
            let p = &self.peers[old_idx];
            if p.tags.compliant || p.tags.whitewash_interval.is_some() {
                self.open_active -= 1;
            }
        }
        self.reputation.forget(old);
        self.reports.forget(old);
        self.spawn_successor(old, now);
    }

    /// Builds the fresh identity replacing a retired whitewasher: same
    /// capacity/tags/mechanism and the same usable pieces (re-counted into
    /// the availability map under the new identity). The caller must have
    /// already detached `old` (via [`Self::re_identity`] or
    /// [`Self::depart`]).
    fn spawn_successor(&mut self, old: PeerId, now: SimTime) {
        let old_idx = old.index() as usize;
        let mechanism = self.peers[old_idx]
            .mechanism
            .take()
            .expect("mechanism present");
        let tags = self.peers[old_idx].tags;
        let capacity = self.peers[old_idx].capacity_bps;
        let have: Vec<u32> = self.peers[old_idx].have().iter_ones().collect();
        let new_id = PeerId::new(self.peers.len() as u32);
        let mut peer = PeerState::new(
            new_id,
            capacity,
            tags,
            now,
            self.rounds.round_of(now),
            self.config.file.num_pieces(),
            mechanism,
        );
        // The successor's row exists before its inherited pieces land, so
        // each acquisition writes it like any other delivery.
        self.interest.push(&peer);
        for p in &have {
            peer.acquire_usable(*p, &mut self.interest);
            peer.bytes_inherited += self.config.file.piece_len(*p);
            self.availability.on_piece_acquired(*p);
        }
        let bootstrapped = !have.is_empty() && peer.record_bootstrap(now);
        // Unlike a fresh arrival, a successor is not joined by the
        // existing large viewers.
        let (row, _) = self.choose_neighbors(new_id, tags.large_view);
        for &n in &row {
            self.adjacency.insert(n.index(), new_id);
        }
        self.peers.push(peer);
        self.hot.push(&tags, have.len() as u32);
        self.adjacency.push(row);
        self.compliant_slots += usize::from(tags.compliant);
        self.compliant_bootstrapped += usize::from(tags.compliant && bootstrapped);
        if tags.compliant || tags.whitewash_interval.is_some() {
            self.open_active += 1;
        }
        self.mark_dirty(new_id);
    }

    fn collusion_praise_pass(&mut self) {
        // Ring members report fictitious uploads for each other, inflating
        // reputations (the reputation algorithm's collusion attack).
        let scan_members = |peers: &[PeerState]| -> Vec<(PeerId, u16, u64)> {
            peers
                .iter()
                .filter(|p| p.is_active() && !p.offline)
                .filter_map(|p| {
                    p.tags
                        .collusion_ring
                        .map(|r| (p.id, r, p.tags.fake_praise_bytes))
                })
                .collect()
        };
        let members: Vec<(PeerId, u16, u64)> = if self.naive_hotpath {
            scan_members(&self.peers)
        } else {
            let members: Vec<(PeerId, u16, u64)> = (0..self.hot.len())
                .filter(|&i| self.hot.colluder_online(i))
                .filter_map(|i| {
                    let p = &self.peers[i];
                    p.tags
                        .collusion_ring
                        .map(|r| (p.id, r, p.tags.fake_praise_bytes))
                })
                .collect();
            debug_assert_eq!(
                members,
                scan_members(&self.peers),
                "SoA collusion pre-filter diverged from the peer scan"
            );
            members
        };
        for &(id, ring, praise) in &members {
            if praise == 0 {
                continue;
            }
            let praisers: Vec<PeerId> = members
                .iter()
                .filter(|&&(other, r, _)| other != id && r == ring)
                .map(|&(other, _, _)| other)
                .collect();
            if !praisers.is_empty() {
                self.reputation
                    .credit_upload(id, praise * praisers.len() as u64);
                if self.config.trusted_reputation {
                    for reporter in praisers {
                        self.reports.record(reporter, id, praise);
                    }
                }
            }
        }
    }

    fn replenish_neighbors(&mut self) {
        let min_degree = (self.config.neighbor_degree / 2).max(1);
        // An active peer's neighbor row only ever holds live identities
        // (edges are symmetric and pruned eagerly on departure; outages
        // keep the identity alive), so the row length *is* the live
        // count — no per-neighbor liveness probe needed on the fast path.
        let needy: Vec<u32> = if self.naive_hotpath {
            self.peers
                .iter()
                .filter(|p| {
                    p.is_active()
                        && self
                            .adjacency
                            .row(p.id.index())
                            .iter()
                            .filter(|&&n| self.is_active(n))
                            .count()
                            < min_degree
                })
                .map(|p| p.id.index())
                .collect()
        } else {
            let needy: Vec<u32> = self
                .hot
                .active_ids()
                .iter()
                .map(|id| id.index())
                .filter(|&i| self.adjacency.degree(i) < min_degree)
                .collect();
            debug_assert_eq!(
                needy,
                self.peers
                    .iter()
                    .filter(|p| {
                        debug_assert!(
                            !p.is_active()
                                || self
                                    .adjacency
                                    .row(p.id.index())
                                    .iter()
                                    .all(|&n| self.is_active(n)),
                            "an active peer's neighbor row held a departed identity"
                        );
                        p.is_active() && self.adjacency.degree(p.id.index()) < min_degree
                    })
                    .map(|p| p.id.index())
                    .collect::<Vec<u32>>(),
                "SoA needy list diverged from the peer scan"
            );
            needy
        };
        if needy.is_empty() {
            return;
        }
        let mut rng = self.round_rng(0xEE);
        let mut pool = std::mem::take(&mut self.scratch_pool);
        for pid in needy {
            let id = PeerId::new(pid);
            let mine = self.adjacency.row(pid);
            pool.clear();
            pool.extend_from_slice(self.hot.active_ids());
            // Both lists ascend, so one merge walk drops the peer's own
            // neighbors.
            let mut next = 0;
            pool.retain(|&n| {
                while mine.get(next).is_some_and(|&m| m < n) {
                    next += 1;
                }
                n != id && !self.is_banned(n) && mine.get(next) != Some(&n)
            });
            debug_assert_eq!(
                pool,
                self.scan_pool(id, mine),
                "SoA replenish pool diverged from the peer scan"
            );
            let have = if self.naive_hotpath {
                mine.iter().filter(|&&n| self.is_active(n)).count()
            } else {
                mine.len()
            };
            let want = self.config.neighbor_degree.saturating_sub(have);
            rng::shuffle_prefix(&mut pool, &mut rng, want);
            for &n in pool.iter().take(want) {
                self.adjacency.insert(pid, n);
                self.adjacency.insert(n.index(), id);
                // A fresh edge adds a member to both endpoints' candidate
                // rows; revisit both — the edge is the only change, so
                // neither endpoint's other candidates need a visit.
                self.mark_revisit(id);
                self.mark_revisit(n);
            }
        }
        self.scratch_pool = pool;
    }

    /// Detaches departing identity `id` from the graph: empties its row
    /// and removes it from each former neighbor's row.
    fn detach(&mut self, id: PeerId) {
        for n in self.adjacency.take_row(id.index()) {
            self.adjacency.remove(n.index(), id);
        }
    }

    fn seeder_allocate(&mut self, now: SimTime) {
        if !self.seeder_online {
            return;
        }
        let budget = self.config.bytes_per_round(self.config.seeder_bps);
        if budget == 0 {
            return;
        }
        let budget = budget - self.drain_partials(SEEDER_ID, now).min(budget);
        if budget == 0 {
            return;
        }
        let mut rng = self.round_rng(1);
        // Who still needs seeder pieces: a pass over the slot-indexed
        // interest rows in id order. With `--shards K` the scan fans out
        // over contiguous slot ranges; concatenating the per-range hits in
        // range order *is* id order, so the vector fed to the shuffle
        // below is identical for any K.
        let ctx = self.interest_ctx();
        let consensus = self.consensus.as_ref();
        let round = self.round_idx;
        let scan = |slots: std::ops::Range<usize>| -> Vec<PeerId> {
            slots
                .map(|i| PeerId::new(i as u32))
                .filter(|&id| {
                    shard::needs_with(&ctx, id, SEEDER_ID)
                        && !consensus.is_some_and(|c| c.is_banned_slot(id.index(), round))
                })
                .collect()
        };
        let slots = self.peers.len();
        let mut candidates: Vec<PeerId> = if self.shards > 1 && slots >= SHARD_MIN_ITEMS {
            let parts: Vec<Vec<PeerId>> = std::thread::scope(|scope| {
                let scan = &scan;
                let handles: Vec<_> = shard_ranges(slots, self.shards)
                    .into_iter()
                    .map(|r| scope.spawn(move || scan(r)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            });
            parts.concat()
        } else {
            scan(0..slots)
        };
        rng::shuffle(&mut candidates, &mut rng);
        if candidates.is_empty() {
            return;
        }
        let exec_t = self.profiler.start();
        let piece_size = self.config.file.piece_size();
        let mut remaining = budget;
        let mut i = 0usize;
        let mut stalled = 0usize;
        while remaining > 0 && stalled < candidates.len() {
            let target = candidates[i % candidates.len()];
            i += 1;
            let chunk = remaining.min(piece_size);
            let used = self.execute_grant(
                SEEDER_ID,
                target,
                chunk,
                GrantReason::Seeding,
                None,
                now,
                &mut rng,
            );
            remaining -= used;
            if used == 0 {
                stalled += 1;
            } else {
                stalled = 0;
            }
        }
        self.profiler.stop(phase::SIM_EXECUTE, exec_t);
    }

    fn end_round_pass(&mut self) {
        // Departures since the allocation loop have shrunk the graph;
        // refresh the candidate lists the end-of-round views will serve.
        self.refresh_candidates();
        // Mechanism end-of-round hooks run first so they can observe this
        // round's receipts before the ledger window rolls. A mechanism
        // that declares no hook keeps the trait's empty one, so the
        // indexed loop skips the pass when no mechanism in the run
        // declares one; the naive oracle always runs it.
        let hooks = self.naive_hotpath || self.has_round_end_hooks;
        if hooks || self.has_epoch_cadence {
            let ids: Vec<u32> = if self.naive_hotpath {
                self.peers
                    .iter()
                    .filter(|p| p.is_active())
                    .map(|p| p.id.index())
                    .collect()
            } else {
                self.hot.active_ids().iter().map(|id| id.index()).collect()
            };
            if hooks {
                self.end_round_hooks(&ids);
            }
            // Epoch-cadence settlement runs after the round-end hooks
            // (same receipts visible) and before the ledger window rolls
            // below. The gate is one branch, so the six per-transfer
            // mechanisms pay nothing for the pass.
            if self.has_epoch_cadence {
                self.epoch_close_pass(&ids);
            }
        }
        // Consensus report aggregation closes the round for
        // consensus-reputation populations (one branch otherwise).
        if self.consensus.is_some() {
            self.consensus_pass();
        }
        self.settle_round_boundary();
    }

    /// Calls every listed peer's [`Mechanism::on_round_end`], in `ids`
    /// order or sharded (see [`Self::end_round_hooks_sharded`]).
    fn end_round_hooks(&mut self, ids: &[u32]) {
        if self.shards > 1 && ids.len() >= SHARD_MIN_ITEMS {
            self.end_round_hooks_sharded(ids);
            return;
        }
        for &pid in ids {
            let idx = pid as usize;
            let Some(mut mech) = self.peers[idx].mechanism.take() else {
                continue;
            };
            {
                let view = SimView::new(&*self, PeerId::new(pid));
                mech.on_round_end(&view);
            }
            self.peers[idx].mechanism = Some(mech);
        }
    }

    /// The end-of-round consensus pass (see [`crate::consensus`]): builds
    /// the round's report pairs from the settled transfers, distorts them
    /// through the attacker tags, cross-checks them — sharded over
    /// uploader groups when the round is large enough — and applies
    /// strikes, credits, and ban transitions. Draws no RNG; debug builds
    /// re-run the aggregation sequentially and assert the sharded result
    /// is identical.
    fn consensus_pass(&mut self) {
        let Some(mut c) = self.consensus.take() else {
            return;
        };
        let t = self.profiler.start();
        let round = self.round_idx;
        c.ensure_slots(self.peers.len());
        // Decay strikes and scores before this round's reports land.
        let decay = c.policy.decay;
        for s in &mut c.strikes {
            *s *= decay;
        }
        for s in &mut c.scores {
            *s *= decay;
        }
        let behaviors: Vec<SlotBehavior> = self
            .peers
            .iter()
            .enumerate()
            .map(|(i, p)| SlotBehavior {
                online: p.is_active() && !p.offline,
                banned: c.is_banned_slot(i as u32, round),
                underreport: p.tags.underreport,
                deny_all: p.tags.ban_evade,
                stuff_reports: p.tags.stuff_reports,
                ring: p.tags.collusion_ring,
            })
            .collect();
        let transfers = std::mem::take(&mut c.transfers);
        let pairs = consensus::build_reports(
            &c.policy,
            &transfers,
            &behaviors,
            &c.strikes,
            self.config.file.piece_size(),
            round,
        );
        let shards = if self.shards > 1 && pairs.len() >= SHARD_MIN_ITEMS {
            self.shards
        } else {
            1
        };
        #[cfg(debug_assertions)]
        let pairs_check = pairs.clone();
        let outcome = consensus::aggregate(&c.policy, pairs, &transfers, shards);
        #[cfg(debug_assertions)]
        if shards > 1 {
            let sequential = consensus::aggregate(&c.policy, pairs_check, &transfers, 1);
            debug_assert_eq!(
                outcome, sequential,
                "sharded consensus aggregation diverged from sequential"
            );
        }
        c.counters.reports += outcome.reports;
        c.counters.disputes += outcome.disputes;
        for &(slot, credit) in &outcome.credits {
            c.scores[slot as usize] += credit as f64;
        }
        for &(slot, amount) in &outcome.strikes {
            let s = &mut c.strikes[slot as usize];
            *s += amount;
            if *s > c.max_strikes {
                c.max_strikes = *s;
            }
        }
        // Threshold scan in slot order: a first crossing bans temporarily,
        // a repeat crossing after a served temporary ban bans permanently.
        let threshold = f64::from(c.policy.ban_threshold);
        let mut transitions: Vec<(u32, &'static str, f64)> = Vec::new();
        for i in 0..self.peers.len() {
            if c.perm_banned[i] || !self.peers[i].is_active() {
                continue;
            }
            if c.strikes[i] >= threshold {
                let strikes = c.strikes[i];
                if c.temp_bans_served[i] >= 1 {
                    c.perm_banned[i] = true;
                    c.scores[i] = 0.0;
                    c.counters.bans_perm += 1;
                    transitions.push((i as u32, "ban_perm", strikes));
                } else {
                    c.banned_until[i] = round + 1 + c.policy.temp_ban_rounds;
                    c.temp_bans_served[i] += 1;
                    c.counters.bans_temp += 1;
                    transitions.push((i as u32, "ban_temp", strikes));
                }
                if self.peers[i].tags.compliant {
                    c.counters.bans_compliant += 1;
                } else {
                    c.counters.bans_noncompliant += 1;
                }
                c.strikes[i] = 0.0;
            }
        }
        // Temporary bans expiring at the next round boundary re-admit the
        // peer; surface the transition so adjacency and dirty state
        // pick the edge back up.
        for i in 0..self.peers.len() {
            if !c.perm_banned[i] && c.banned_until[i] == round + 1 && self.peers[i].is_active() {
                transitions.push((i as u32, "unban", c.strikes[i]));
            }
        }
        self.consensus = Some(c);
        for &(peer, kind, strikes) in &transitions {
            // Every transition changes the candidate graph. The peer
            // takes a neighborhood mark (an unban makes its edges
            // reappear, so candidates may serve it again); each online
            // neighbor only gains or loses one row member, so it is
            // revisited alone — expanding it would visit two hops out
            // for nothing.
            self.adjacency.touch_neighborhood(peer);
            if self.dirty_active() {
                self.mark_dirty(PeerId::new(peer));
                let online: Vec<PeerId> = self
                    .adjacency
                    .row(peer)
                    .iter()
                    .copied()
                    .filter(|&n| self.is_online(n))
                    .collect();
                for n in online {
                    self.mark_revisit(n);
                }
            }
            if self.recorder.is_enabled() {
                self.recorder
                    .emit_sampled(Category::Consensus, || TraceEvent::ConsensusBan {
                        round,
                        peer,
                        kind,
                        strikes,
                    });
            }
        }
        self.profiler.stop(phase::SIM_CONSENSUS, t);
    }

    /// The per-round settlement boundary: rolls every active peer's
    /// ledger window. Together with [`Self::settle_transfer`] this is the
    /// only place per-transfer (`SettleCadence::PerTransfer`) mechanism
    /// inputs move — reciprocity credits, FairTorrent deficits, and
    /// BitTorrent rate windows all settle through these two entry points,
    /// never inside the mechanisms themselves. A roll of a ledger with
    /// both windows empty is a no-op, so only the slots on
    /// [`Self::ledger_windows`] are rolled; the naive oracle rolls every
    /// active ledger.
    fn settle_round_boundary(&mut self) {
        let (peers, hot) = (&mut self.peers, &self.hot);
        if self.naive_hotpath {
            for p in peers.iter_mut().filter(|p| p.is_active()) {
                p.ledger.end_round();
            }
            self.ledger_windows.retain(|&slot| {
                hot.is_active(slot as usize) && peers[slot as usize].ledger.has_windowed_receipts()
            });
        } else {
            self.ledger_windows.retain(|&slot| {
                if !hot.is_active(slot as usize) {
                    return false;
                }
                let ledger = &mut peers[slot as usize].ledger;
                ledger.end_round();
                ledger.has_windowed_receipts()
            });
        }
    }

    /// The active slots whose ledgers hold windowed receipts, ascending:
    /// what [`Self::ledger_windows`] is rebuilt from.
    fn scan_ledger_windows(&self) -> Vec<u32> {
        self.peers
            .iter()
            .filter(|p| p.is_active() && p.ledger.has_windowed_receipts())
            .map(|p| p.id.index())
            .collect()
    }

    /// The epoch-boundary settlement pass: invokes
    /// [`Mechanism::on_epoch_close`] on every active mechanism whose
    /// [`SettleCadence::Epoch`] length divides the just-finished round.
    /// The hook draws no RNG and writes only its own mechanism box, so
    /// the sharded pass equals the sequential one exactly; dirty marking
    /// happens afterwards on the caller's thread because the
    /// [`DirtySet`] is shared.
    fn epoch_close_pass(&mut self, ids: &[u32]) {
        let t = self.profiler.start();
        // `round_idx` is 0-based inside `step_round`: the first epoch of
        // length n closes at the end of round index n − 1.
        let finished_rounds = self.round_idx + 1;
        let settled: Vec<u32> = if self.shards > 1 && ids.len() >= SHARD_MIN_ITEMS {
            self.epoch_close_hooks_sharded(ids, finished_rounds)
        } else {
            let mut settled = Vec::new();
            for &pid in ids {
                let idx = pid as usize;
                let Some(mut mech) = self.peers[idx].mechanism.take() else {
                    continue;
                };
                if at_epoch_boundary(&*mech, finished_rounds) {
                    let view = SimView::new(&*self, PeerId::new(pid));
                    mech.on_epoch_close(&view);
                    settled.push(pid);
                }
                self.peers[idx].mechanism = Some(mech);
            }
            settled
        };
        if !settled.is_empty() {
            self.epoch_boundaries += 1;
            self.epoch_settlements += settled.len() as u64;
            // A settlement changes only the settled peer's own balances
            // (fresh balances reorder its creditor service), so it is
            // revisited alone; no candidate's interest toward it grows.
            if self.dirty_active() {
                for &pid in &settled {
                    self.mark_revisit(PeerId::new(pid));
                }
            }
        }
        self.profiler.stop(phase::SIM_EPOCH, t);
    }

    /// The epoch hooks, sharded exactly like
    /// [`Self::end_round_hooks_sharded`]: boxes out, contiguous ranges,
    /// slot-ordered restore. Returns the settled peer ids in `ids` order
    /// (shard ranges are contiguous, so concatenation preserves it).
    fn epoch_close_hooks_sharded(&mut self, ids: &[u32], finished_rounds: u64) -> Vec<u32> {
        let mut mechs: Vec<Option<Box<dyn Mechanism>>> = ids
            .iter()
            .map(|&pid| self.peers[pid as usize].mechanism.take())
            .collect();
        let ctx = ShardCtx {
            peers: &self.peers,
            adjacency: &self.adjacency,
            interest: self.interest_ctx(),
            round_idx: self.round_idx,
            trusted_reputation: self.config.trusted_reputation,
            trusted_cache: &self.trusted_cache,
            reputation: &self.reputation,
            consensus_scores: self.consensus.as_ref().map(|c| c.scores.as_slice()),
            piece_size: self.config.file.piece_size(),
        };
        let settled: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let ctx = &ctx;
            let mut handles = Vec::new();
            let mut rest: &mut [Option<Box<dyn Mechanism>>] = &mut mechs;
            let mut tail_ids = ids;
            for r in shard_ranges(ids.len(), self.shards) {
                let (head, rest_next) = rest.split_at_mut(r.len());
                rest = rest_next;
                let (chunk_ids, ids_next) = tail_ids.split_at(r.len());
                tail_ids = ids_next;
                handles.push(scope.spawn(move || {
                    let mut settled = Vec::new();
                    for (&pid, slot) in chunk_ids.iter().zip(head.iter_mut()) {
                        if let Some(mech) = slot.as_mut() {
                            if at_epoch_boundary(&**mech, finished_rounds) {
                                let view = ShardView::new(ctx, PeerId::new(pid));
                                mech.on_epoch_close(&view);
                                settled.push(pid);
                            }
                        }
                    }
                    settled
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        let merge_t = self.profiler.start();
        for (&pid, slot) in ids.iter().zip(mechs.iter_mut()) {
            if let Some(mech) = slot.take() {
                self.peers[pid as usize].mechanism = Some(mech);
            }
        }
        self.profiler.stop(phase::SIM_SHARD_MERGE, merge_t);
        settled.concat()
    }

    /// The end-of-round mechanism hooks, sharded over contiguous ranges
    /// of `ids`. Every mechanism box is taken out up front, so each
    /// worker mutates only its own slice of boxes while sharing a
    /// read-only [`ShardCtx`] of the rest of the state — `on_round_end`
    /// draws no RNG and writes nothing shared, so any interleaving equals
    /// the sequential loop exactly (pinned by the sharded rows of the
    /// byte-identity battery). Restoring the boxes afterwards is the
    /// slot-ordered merge.
    fn end_round_hooks_sharded(&mut self, ids: &[u32]) {
        let mut mechs: Vec<Option<Box<dyn Mechanism>>> = ids
            .iter()
            .map(|&pid| self.peers[pid as usize].mechanism.take())
            .collect();
        let ctx = ShardCtx {
            peers: &self.peers,
            adjacency: &self.adjacency,
            interest: self.interest_ctx(),
            round_idx: self.round_idx,
            trusted_reputation: self.config.trusted_reputation,
            trusted_cache: &self.trusted_cache,
            reputation: &self.reputation,
            consensus_scores: self.consensus.as_ref().map(|c| c.scores.as_slice()),
            piece_size: self.config.file.piece_size(),
        };
        std::thread::scope(|scope| {
            let ctx = &ctx;
            let mut rest: &mut [Option<Box<dyn Mechanism>>] = &mut mechs;
            let mut tail_ids = ids;
            for r in shard_ranges(ids.len(), self.shards) {
                let (head, rest_next) = rest.split_at_mut(r.len());
                rest = rest_next;
                let (chunk_ids, ids_next) = tail_ids.split_at(r.len());
                tail_ids = ids_next;
                scope.spawn(move || {
                    for (&pid, slot) in chunk_ids.iter().zip(head.iter_mut()) {
                        if let Some(mech) = slot.as_mut() {
                            let view = ShardView::new(ctx, PeerId::new(pid));
                            mech.on_round_end(&view);
                        }
                    }
                });
            }
        });
        let merge_t = self.profiler.start();
        for (&pid, slot) in ids.iter().zip(mechs.iter_mut()) {
            if let Some(mech) = slot.take() {
                self.peers[pid as usize].mechanism = Some(mech);
            }
        }
        self.profiler.stop(phase::SIM_SHARD_MERGE, merge_t);
    }

    /// The compliant identities spawned so far, those of them that got a
    /// first piece and those that completed: running counters on the
    /// indexed path (debug builds check them against
    /// [`Self::scan_compliant_counts`]), the scan itself for the naive
    /// oracle.
    fn compliant_counts(&self) -> (usize, usize, usize) {
        if self.naive_hotpath {
            return self.scan_compliant_counts();
        }
        let counts = (
            self.compliant_slots,
            self.compliant_bootstrapped,
            self.compliant_completed,
        );
        debug_assert_eq!(
            counts,
            self.scan_compliant_counts(),
            "compliant counters diverged from the peer scan"
        );
        counts
    }

    /// [`Self::compliant_counts`] by a walk over every peer struct.
    fn scan_compliant_counts(&self) -> (usize, usize, usize) {
        let compliant = self.peers.iter().filter(|p| p.tags.compliant);
        compliant.fold((0, 0, 0), |(n, boot, done), p| {
            (
                n + 1,
                boot + usize::from(p.bootstrap_time.is_some()),
                done + usize::from(matches!(p.departure, Some(Departure::Completed(_)))),
            )
        })
    }

    fn sample_metrics(&mut self, now: SimTime) {
        let t = now.as_secs_f64();
        // The active compliant peers in ascending id order, as a scan of
        // every peer struct would list them (so the float sums below are
        // the same).
        let active_pairs: Vec<(f64, f64)> = self
            .hot
            .active_ids()
            .iter()
            .map(|id| &self.peers[id.index() as usize])
            .filter(|p| p.tags.compliant)
            .map(|p| (p.bytes_sent as f64, p.bytes_received_usable as f64))
            .collect();
        if let Some(avg) = coop_incentives::metrics::avg_fairness_ratio(&active_pairs) {
            self.fairness_avg.push(t, avg);
        }
        let (f, _) = coop_incentives::metrics::fairness_stat(&active_pairs);
        if f.is_finite() {
            self.fairness_stat.push(t, f);
        }
        let (compliant, boot, done) = self.compliant_counts();
        // Denominator: the whole expected compliant population, so the
        // fraction is monotone even while arrivals are still trickling in
        // (the paper's Fig. 4c plots fractions of all 1000 users).
        let total = self.expected_compliant.max(compliant) as f64;
        if total > 0.0 {
            self.bootstrapped_frac.push(t, boot as f64 / total);
            self.completed_frac.push(t, done as f64 / total);
        }
        // Susceptibility samples below a small denominator floor are
        // noise (a handful of early pieces), not a bandwidth share.
        let peer_uploaded = self.totals.uploaded_compliant + self.totals.uploaded_freeriders;
        if let Some(d) = self.availability.diversity() {
            self.diversity.push(t, d);
        }
        if peer_uploaded >= 50 * self.config.file.piece_size() {
            self.susceptibility.push(
                t,
                coop_incentives::metrics::susceptibility(
                    self.totals.freerider_received_from_peers,
                    peer_uploaded,
                ),
            );
        }
    }

    fn finalize(mut self, run_t: PhaseToken) -> (SimResult, TelemetryReport, ProfileReport) {
        let mut profiler = std::mem::take(&mut self.profiler);
        let fin_t = profiler.start();
        let mut recorder = std::mem::take(&mut self.recorder);
        // Hot-path health counters: on the indexed path the availability
        // histogram is never rebuilt from scratch (the CI scale-smoke job
        // asserts this stays zero), and adjacency rebuilds only happen on
        // membership changes.
        recorder.incr(
            "swarm.availability.rebuilds",
            self.availability.rebuilds() + self.naive_probe_rebuilds,
        );
        recorder.incr("swarm.adjacency.rebuilds", self.adjacency_rebuilds);
        // Deterministic work accounting — how much of the O(N·degree)
        // round-loop scan did useful work (see `coop_telemetry::profile::work`).
        recorder.incr(
            coop_telemetry::profile::work::PEERS_VISITED,
            self.work_visited,
        );
        recorder.incr(
            coop_telemetry::profile::work::PEERS_PRODUCTIVE,
            self.work_productive,
        );
        recorder.incr(
            coop_telemetry::profile::work::CANDIDATE_SCANS,
            self.work_candidate_scans,
        );
        recorder.incr(
            coop_telemetry::profile::work::EPOCH_SETTLEMENTS,
            self.epoch_settlements,
        );
        recorder.incr(
            coop_telemetry::profile::work::EPOCH_BOUNDARIES,
            self.epoch_boundaries,
        );
        if let Some(c) = &self.consensus {
            recorder.incr("swarm.consensus.reports", c.counters.reports);
            recorder.incr("swarm.consensus.disputes", c.counters.disputes);
            recorder.incr("swarm.consensus.bans_temp", c.counters.bans_temp);
            recorder.incr("swarm.consensus.bans_perm", c.counters.bans_perm);
        }
        if recorder.is_enabled() {
            recorder.incr("engine.events_processed", self.engine.events_processed());
            recorder.record_max(
                "engine.queue_depth_hwm",
                self.engine.queue_depth_high_water_mark() as u64,
            );
            let events_processed = self.engine.events_processed();
            let queue_depth_hwm = self.engine.queue_depth_high_water_mark() as u64;
            recorder.emit_with(|| TraceEvent::EngineStats {
                events_processed,
                queue_depth_hwm,
            });
            // End-of-run state dumps (the structured successor of the old
            // COOP_SWARM_DEBUG eprintln blocks).
            for ((from, to), fl) in self.transfers.iter() {
                let from_active = from == SEEDER_ID || self.is_active(from);
                let (piece, bytes_done, piece_len) = (fl.piece, fl.bytes_done, fl.piece_len);
                let (reason, conditional) = (fl.reason.name(), fl.condition.is_some());
                recorder.emit_sampled(Category::Final, || TraceEvent::InflightAtEnd {
                    from: from.index(),
                    to: to.index(),
                    piece,
                    bytes_done,
                    piece_len,
                    reason,
                    conditional,
                    from_active,
                });
            }
            for p in self.peers.iter().filter(|p| p.is_active()) {
                let (peer, have, locked) = (
                    p.id.index(),
                    u64::from(p.have().count_ones()),
                    u64::from(p.locked().count_ones()),
                );
                let row = self.adjacency.row(p.id.index());
                let (obligations, inflight, neighbors) = (
                    p.obligations.len() as u64,
                    u64::from(p.inflight().count_ones()),
                    row.len() as u64,
                );
                // The interest census reads the neighbor row only: O(degree)
                // per peer. Built inside the closure so peers the Final
                // sampling rate drops never pay for it.
                recorder.emit_sampled(Category::Final, || TraceEvent::PeerAtEnd {
                    peer,
                    have,
                    locked,
                    obligations,
                    inflight,
                    interested_neighbors: row.iter().filter(|&&q| self.needs(q, p.id)).count()
                        as u64,
                    neighbors,
                });
            }
        }
        let peers = self
            .peers
            .iter()
            .map(|p| PeerRecord {
                id: p.id,
                capacity_bps: p.capacity_bps,
                compliant: p.tags.compliant,
                arrival_s: p.arrival.as_secs_f64(),
                bootstrap_s: p.bootstrap_time.map(|b| b.since(p.arrival).as_secs_f64()),
                completion_s: match p.departure {
                    Some(Departure::Completed(c)) => Some(c.since(p.arrival).as_secs_f64()),
                    _ => None,
                },
                bytes_sent: p.bytes_sent,
                bytes_received_usable: p.bytes_received_usable,
                bytes_received_raw: p.bytes_received_raw,
                bytes_inherited: p.bytes_inherited,
            })
            .collect();
        let result = SimResult {
            rounds_run: self.round_idx,
            sim_seconds: self.now.as_secs_f64(),
            peers,
            fairness_avg: self.fairness_avg,
            fairness_stat: self.fairness_stat,
            bootstrapped_frac: self.bootstrapped_frac,
            completed_frac: self.completed_frac,
            susceptibility: self.susceptibility,
            diversity: self.diversity,
            totals: self.totals,
            stalled: self.stalled,
            consensus: self.consensus.as_ref().map(|c| ConsensusSummary {
                reports: c.counters.reports,
                disputes: c.counters.disputes,
                bans_temp: c.counters.bans_temp,
                bans_perm: c.counters.bans_perm,
                bans_compliant: c.counters.bans_compliant,
                bans_noncompliant: c.counters.bans_noncompliant,
                max_strikes: c.max_strikes,
            }),
        };
        profiler.stop(phase::SIM_FINALIZE, fin_t);
        profiler.stop(phase::SIM_RUN, run_t);
        (result, recorder.into_report(), profiler.into_report())
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("round", &self.round_idx)
            .field("peers", &self.peers.len())
            .field(
                "active",
                &self.peers.iter().filter(|p| p.is_active()).count(),
            )
            .field("transfers_in_flight", &self.transfers.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{flash_crowd, PeerTags};
    use coop_incentives::MechanismKind;

    fn run_kind(kind: MechanismKind, n: usize, seed: u64) -> SimResult {
        let mut config = SwarmConfig::tiny_test();
        config.seed = seed;
        let population = flash_crowd(&config, n, kind, seed);
        Simulation::builder(config)
            .population(population)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn altruism_swarm_completes() {
        let r = run_kind(MechanismKind::Altruism, 12, 1);
        assert!(r.completed_fraction() > 0.9, "{:?}", r.completed_fraction());
        assert!(r.bootstrapped_fraction() > 0.99);
    }

    #[test]
    fn reciprocity_peers_never_upload_to_each_other() {
        let r = run_kind(MechanismKind::Reciprocity, 10, 2);
        for p in r.compliant() {
            assert_eq!(p.bytes_sent, 0, "reciprocity peer uploaded");
        }
        // The only inflow is the seeder.
        let received: u64 = r.peers.iter().map(|p| p.bytes_received_raw).sum();
        assert_eq!(received, r.totals.uploaded_seeder);
    }

    #[test]
    fn byte_conservation_all_mechanisms() {
        for kind in MechanismKind::ALL {
            let r = run_kind(kind, 10, 3);
            let sent: u64 =
                r.peers.iter().map(|p| p.bytes_sent).sum::<u64>() + r.totals.uploaded_seeder;
            let received: u64 = r.peers.iter().map(|p| p.bytes_received_raw).sum();
            assert_eq!(sent, received, "{kind}: sent {sent} != received {received}");
            assert_eq!(
                r.totals.uploaded_total(),
                sent,
                "{kind}: totals disagree with per-peer sums"
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_result() {
        for kind in [MechanismKind::TChain, MechanismKind::BitTorrent] {
            let a = run_kind(kind, 10, 7);
            let b = run_kind(kind, 10, 7);
            assert_eq!(a.rounds_run, b.rounds_run, "{kind}");
            let pa: Vec<_> = a
                .peers
                .iter()
                .map(|p| (p.bytes_sent, p.bytes_received_raw, p.completion_s))
                .collect();
            let pb: Vec<_> = b
                .peers
                .iter()
                .map(|p| (p.bytes_sent, p.bytes_received_raw, p.completion_s))
                .collect();
            assert_eq!(pa, pb, "{kind}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_kind(MechanismKind::Altruism, 10, 1);
        let b = run_kind(MechanismKind::Altruism, 10, 2);
        let ta: Vec<_> = a.peers.iter().map(|p| p.bytes_sent).collect();
        let tb: Vec<_> = b.peers.iter().map(|p| p.bytes_sent).collect();
        assert_ne!(ta, tb);
    }

    #[test]
    fn tchain_and_fairtorrent_complete_and_are_fair() {
        for kind in [MechanismKind::TChain, MechanismKind::FairTorrent] {
            let r = run_kind(kind, 12, 5);
            assert!(
                r.completed_fraction() > 0.9,
                "{kind}: completed {}",
                r.completed_fraction()
            );
            let f = r.final_avg_fairness().expect("peers downloaded");
            assert!(
                (f - 1.0).abs() < 0.35,
                "{kind}: avg fairness {f} should approach 1"
            );
        }
    }

    #[test]
    fn freeriders_receive_nothing_usable_under_tchain() {
        let mut config = SwarmConfig::tiny_test();
        config.seed = 11;
        let mut population = flash_crowd(&config, 10, MechanismKind::TChain, 11);
        // Two free-riders that never upload.
        #[derive(Clone, Debug)]
        struct Null;
        impl coop_incentives::Mechanism for Null {
            fn kind(&self) -> MechanismKind {
                MechanismKind::TChain
            }
            fn clone_box(&self) -> Box<dyn coop_incentives::Mechanism> {
                Box::new(self.clone())
            }
            fn allocate_into(
                &mut self,
                _view: &dyn coop_incentives::SwarmView,
                _budget: u64,
                _rng: &mut dyn rand::RngCore,
                _scratch: &mut coop_incentives::AllocScratch,
                _out: &mut Vec<coop_incentives::Grant>,
            ) {
            }
        }
        for spec in population.iter_mut().take(2) {
            spec.tags = PeerTags {
                compliant: false,
                ..PeerTags::compliant()
            };
            spec.mechanism = Box::new(|| Box::new(Null));
        }
        let r = Simulation::builder(config)
            .population(population)
            .build()
            .unwrap()
            .run();
        // Free-riders can receive seeder bytes, but nothing usable from
        // T-Chain peers beyond that.
        for p in r.freeriders() {
            assert!(
                p.bytes_received_usable <= r.totals.uploaded_seeder,
                "free-rider usable bytes bounded by seeder output"
            );
        }
    }

    #[test]
    fn whitewashing_creates_successor_identities() {
        let mut config = SwarmConfig::tiny_test();
        config.max_rounds = 30;
        let mut population = flash_crowd(&config, 6, MechanismKind::FairTorrent, 13);
        population[0].tags = PeerTags {
            compliant: false,
            whitewash_interval: Some(5),
            ..PeerTags::compliant()
        };
        let r = Simulation::builder(config)
            .population(population)
            .build()
            .unwrap()
            .run();
        assert!(
            r.peers.len() > 6,
            "whitewasher should have spawned successor identities"
        );
        assert!(r.freeriders().count() > 1);
    }

    #[test]
    fn seeder_bootstraps_a_lone_peer() {
        let config = SwarmConfig::tiny_test();
        let population = flash_crowd(&config, 1, MechanismKind::BitTorrent, 17);
        let r = Simulation::builder(config)
            .population(population)
            .build()
            .unwrap()
            .run();
        assert_eq!(
            r.completed_count(),
            1,
            "seeder alone must complete one peer"
        );
    }

    #[test]
    fn bandwidth_attribution_matches_mechanism_structure() {
        use coop_incentives::GrantReason;
        // Altruism moves peer bytes only under the Altruism reason.
        let r = run_kind(MechanismKind::Altruism, 12, 31);
        assert!(r.reason_fraction(GrantReason::Altruism) > 0.999);
        // BitTorrent's optimistic share sits near α_BT = 0.2 of its peer
        // bytes (tit-for-tat takes the rest).
        let r = run_kind(MechanismKind::BitTorrent, 12, 31);
        let opt = r.reason_fraction(GrantReason::OptimisticUnchoke);
        // At this tiny scale much of the tit-for-tat share idles early
        // (targets do not yet need the uploader's few pieces), so the
        // optimistic fraction lands well above α_BT; it must still be a
        // minority share with tit-for-tat carrying real weight.
        assert!(
            (0.05..=0.6).contains(&opt),
            "optimistic share {opt} out of range"
        );
        assert!(r.reason_fraction(GrantReason::TitForTat) > 0.3);
        // T-Chain's bytes are all reciprocity-flavored (direct, indirect,
        // or obligation service).
        let r = run_kind(MechanismKind::TChain, 12, 31);
        let tchain_total = r.reason_fraction(GrantReason::Reciprocity)
            + r.reason_fraction(GrantReason::IndirectReciprocity)
            + r.reason_fraction(GrantReason::Obligation);
        assert!(tchain_total > 0.999, "{tchain_total}");
    }

    #[test]
    fn rarest_first_keeps_higher_piece_diversity_than_sequential() {
        let run_with = |strategy| {
            let mut config = SwarmConfig::tiny_test();
            config.seed = 33;
            config.piece_strategy = strategy;
            // Sample diversity mid-download: stop early.
            config.max_rounds = 12;
            let population = flash_crowd(&config, 12, MechanismKind::Altruism, 33);
            Simulation::builder(config)
                .population(population)
                .build()
                .unwrap()
                .run()
        };
        let rarest = run_with(crate::config::PieceStrategy::RarestFirst);
        let sequential = run_with(crate::config::PieceStrategy::Sequential);
        let last = |r: &SimResult| r.diversity.last_value().unwrap_or(0.0);
        assert!(
            last(&rarest) >= last(&sequential),
            "rarest-first diversity {} ≥ sequential {}",
            last(&rarest),
            last(&sequential)
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = SwarmConfig::tiny_test();
        config.neighbor_degree = 0;
        assert!(Simulation::builder(config).build().is_err());
    }

    #[test]
    fn empty_fault_schedule_is_identity() {
        use crate::faults::FaultSchedule;
        let baseline = run_kind(MechanismKind::BitTorrent, 10, 7);
        let mut config = SwarmConfig::tiny_test();
        config.seed = 7;
        let population = flash_crowd(&config, 10, MechanismKind::BitTorrent, 7);
        let with_empty = Simulation::builder(config)
            .population(population)
            .fault_schedule(FaultSchedule::empty())
            .build()
            .unwrap()
            .run();
        assert_eq!(baseline, with_empty, "empty schedule must be the identity");
        assert!(!with_empty.stalled);
    }

    #[test]
    fn churned_peer_departs_without_completing() {
        use crate::faults::{FaultEvent, FaultKind, FaultSchedule};
        let mut config = SwarmConfig::tiny_test();
        config.seed = 21;
        let mut population = flash_crowd(&config, 10, MechanismKind::Altruism, 21);
        // Pin every arrival to t=0 so spec order is spawn order and the
        // departure round is unambiguously after arrival.
        for spec in &mut population {
            spec.arrival = SimTime::ZERO;
        }
        let schedule = FaultSchedule::from_events(
            vec![FaultEvent {
                round: 3,
                peer: 0,
                kind: FaultKind::Depart,
            }],
            0.0,
            0,
        );
        let r = Simulation::builder(config)
            .population(population)
            .fault_schedule(schedule)
            .build()
            .unwrap()
            .run();
        // All arrivals fire at t=0 in spec order, so spec 0 is peer 0.
        assert!(
            r.peers[0].completion_s.is_none(),
            "churned peer never completes"
        );
        assert!(!r.stalled, "live seeder keeps the swarm satisfiable");
        assert!(
            r.completed_count() >= 8,
            "the rest of the swarm completes: {}",
            r.completed_count()
        );
    }

    #[test]
    fn outage_peer_resumes_and_completes() {
        use crate::faults::{FaultEvent, FaultKind, FaultSchedule};
        let mut config = SwarmConfig::tiny_test();
        config.seed = 23;
        let mut population = flash_crowd(&config, 10, MechanismKind::Altruism, 23);
        for spec in &mut population {
            spec.arrival = SimTime::ZERO;
        }
        let schedule = FaultSchedule::from_events(
            vec![
                FaultEvent {
                    round: 2,
                    peer: 0,
                    kind: FaultKind::OutageStart,
                },
                FaultEvent {
                    round: 8,
                    peer: 0,
                    kind: FaultKind::OutageEnd,
                },
            ],
            0.0,
            0,
        );
        let r = Simulation::builder(config)
            .population(population)
            .fault_schedule(schedule)
            .build()
            .unwrap()
            .run();
        assert!(
            r.peers[0].completion_s.is_some(),
            "peer re-enters after the outage and finishes"
        );
        assert!(r.completed_fraction() > 0.9);
    }

    #[test]
    fn link_loss_conserves_bytes_and_is_survivable() {
        use crate::faults::FaultSchedule;
        let mut config = SwarmConfig::tiny_test();
        config.seed = 29;
        let population = flash_crowd(&config, 10, MechanismKind::Altruism, 29);
        let schedule = FaultSchedule::from_events(Vec::new(), 0.2, 29);
        let r = Simulation::builder(config)
            .population(population)
            .fault_schedule(schedule)
            .build()
            .unwrap()
            .run();
        assert!(r.totals.fault_dropped_bytes > 0, "20% loss drops something");
        let sent: u64 =
            r.peers.iter().map(|p| p.bytes_sent).sum::<u64>() + r.totals.uploaded_seeder;
        let received: u64 = r.peers.iter().map(|p| p.bytes_received_raw).sum();
        assert_eq!(
            sent,
            received + r.totals.fault_dropped_bytes,
            "uploaded = downloaded + dropped"
        );
        assert!(
            r.completed_fraction() > 0.9,
            "lost pieces are re-fetched: {}",
            r.completed_fraction()
        );
    }

    #[test]
    fn early_seeder_failure_stalls_the_swarm() {
        use crate::faults::FaultSchedule;
        let mut config = SwarmConfig::tiny_test();
        config.seed = 31;
        let population = flash_crowd(&config, 6, MechanismKind::Altruism, 31);
        let mut schedule = FaultSchedule::empty();
        schedule.seeder_failure_round = Some(1);
        let r = Simulation::builder(config.clone())
            .population(population)
            .fault_schedule(schedule)
            .build()
            .unwrap()
            .run();
        assert!(r.stalled, "missing pieces can never be recovered");
        assert!(
            r.rounds_run < config.max_rounds,
            "stall detection terminates early ({} rounds)",
            r.rounds_run
        );
        assert_eq!(r.completed_count(), 0, "nobody had the full file");
    }

    #[test]
    fn naive_hotpath_is_observationally_identical() {
        // The fast path (incremental availability index, SoA membership
        // scans, dirty-tracked adjacency) must be indistinguishable from
        // the pre-index scans, mechanism by mechanism.
        for kind in MechanismKind::ALL {
            let run = |naive: bool| {
                let mut config = SwarmConfig::tiny_test();
                config.seed = 47;
                let population = flash_crowd(&config, 14, kind, 47);
                Simulation::builder(config)
                    .population(population)
                    .naive_hotpath(naive)
                    .build()
                    .unwrap()
                    .run()
            };
            assert_eq!(
                run(false),
                run(true),
                "{kind}: hot path diverged from oracle"
            );
        }
    }

    #[test]
    fn naive_hotpath_identical_under_faults() {
        use crate::faults::{FaultEvent, FaultKind, FaultSchedule};
        let run = |naive: bool| {
            let mut config = SwarmConfig::tiny_test();
            config.seed = 53;
            let mut population = flash_crowd(&config, 12, MechanismKind::BitTorrent, 53);
            for spec in &mut population {
                spec.arrival = SimTime::ZERO;
            }
            let schedule = FaultSchedule::from_events(
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
                53,
            );
            Simulation::builder(config)
                .population(population)
                .fault_schedule(schedule)
                .naive_hotpath(naive)
                .build()
                .unwrap()
                .run()
        };
        assert_eq!(run(false), run(true), "fault paths diverged from oracle");
    }
}
