//! The structured trace-event taxonomy.
//!
//! Every instrumented layer emits [`TraceEvent`]s through a
//! [`Recorder`](crate::Recorder); each event renders to one JSONL line
//! with a stable field order, so identical runs produce byte-identical
//! trace streams (the wall-clock-bearing [`TraceEvent::JobSpan`] from the
//! experiment executor is the one documented exception).

use crate::json::ObjWriter;

/// Coarse event categories — the unit of sampling and of sink filtering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Per-round swarm probes (`RoundProbe`).
    Probe,
    /// Grant/choke decisions in the allocation loop (`Grant`).
    Grant,
    /// Transfer lifecycle anomalies (`TransferStalled`).
    Transfer,
    /// End-of-run state dumps (`InflightAtEnd`, `PeerAtEnd`).
    Final,
    /// DES engine statistics (`EngineStats`).
    Engine,
    /// Executor job spans (`JobSpan`).
    Exec,
    /// Fault-injection lifecycle (`Fault`): churn departures, outages,
    /// dropped piece transfers, seeder failure, stall detection.
    Fault,
    /// Consensus-reputation lifecycle (`ConsensusBan`): temporary and
    /// permanent bans issued by quorum aggregation, and unbans.
    Consensus,
}

impl Category {
    /// All categories, in declaration order.
    pub const ALL: [Category; 8] = [
        Category::Probe,
        Category::Grant,
        Category::Transfer,
        Category::Final,
        Category::Engine,
        Category::Exec,
        Category::Fault,
        Category::Consensus,
    ];

    /// Stable index for per-category bookkeeping.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The name used in JSONL output and sampling configuration.
    pub fn name(self) -> &'static str {
        match self {
            Category::Probe => "probe",
            Category::Grant => "grant",
            Category::Transfer => "transfer",
            Category::Final => "final",
            Category::Engine => "engine",
            Category::Exec => "exec",
            Category::Fault => "fault",
            Category::Consensus => "consensus",
        }
    }
}

/// One structured trace event.
///
/// Peer identities are raw `u32` indices (the swarm's seeder sentinel
/// `u32::MAX` included) so this crate stays dependency-free.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A per-round snapshot of swarm state, emitted on the probe cadence.
    RoundProbe {
        /// Round index.
        round: u64,
        /// Simulation time in seconds.
        sim_s: f64,
        /// Active (arrived, not departed) peers.
        active: u64,
        /// Compliant peers that have bootstrapped so far.
        bootstrapped: u64,
        /// Compliant peers that have completed so far.
        completed: u64,
        /// Transfers currently in flight.
        inflight: u64,
        /// Bytes moved per grant reason since the previous probe.
        bytes_by_reason_delta: Vec<u64>,
        /// Log2-bucketed histogram of per-piece replication counts.
        availability_buckets: Vec<u64>,
    },
    /// One executed upload grant (sampled; see
    /// [`Sampling`](crate::Sampling)).
    Grant {
        /// Round index.
        round: u64,
        /// Uploader (`u32::MAX` = seeder).
        from: u32,
        /// Receiver.
        to: u32,
        /// Bytes moved by this grant.
        bytes: u64,
        /// The mechanism component that granted the bandwidth.
        reason: &'static str,
        /// Whether the grant opened a new transfer (a "regrant"/unchoke of
        /// a fresh pair) rather than continuing an existing one.
        new_transfer: bool,
    },
    /// A transfer aborted by the stall timeout.
    TransferStalled {
        /// Round index of the abort.
        round: u64,
        /// Uploader.
        from: u32,
        /// Receiver.
        to: u32,
        /// The piece that was in flight.
        piece: u32,
        /// Bytes completed before the stall.
        bytes_done: u64,
    },
    /// A transfer still in flight when the run ended.
    InflightAtEnd {
        /// Uploader.
        from: u32,
        /// Receiver.
        to: u32,
        /// The piece in flight.
        piece: u32,
        /// Bytes transferred so far.
        bytes_done: u64,
        /// Full piece length.
        piece_len: u64,
        /// Granting reason.
        reason: &'static str,
        /// Whether the transfer was conditional (T-Chain).
        conditional: bool,
        /// Whether the uploader was still active.
        from_active: bool,
    },
    /// One active peer's state when the run ended.
    PeerAtEnd {
        /// The peer.
        peer: u32,
        /// Usable pieces held.
        have: u64,
        /// Locked (undelivered conditional) pieces held.
        locked: u64,
        /// Open reciprocation obligations.
        obligations: u64,
        /// Pieces currently in flight toward this peer.
        inflight: u64,
        /// Neighbors that need something this peer offers.
        interested_neighbors: u64,
        /// Neighbor-set size.
        neighbors: u64,
    },
    /// DES engine statistics at the end of a run.
    EngineStats {
        /// Events popped by the engine.
        events_processed: u64,
        /// Event-queue depth high-water mark.
        queue_depth_hwm: u64,
    },
    /// One applied fault-schedule action (churn departure, outage start or
    /// end, dropped piece delivery, seeder going offline, stall
    /// detection).
    Fault {
        /// Round index at which the fault applied.
        round: u64,
        /// The affected peer (`u32::MAX` for swarm-level faults: seeder
        /// failure and stall detection).
        peer: u32,
        /// The fault kind (`churn_depart`, `outage_start`, `outage_end`,
        /// `piece_drop`, `seeder_offline`, `stalled`).
        kind: &'static str,
        /// Bytes lost to the fault (nonzero only for `piece_drop`).
        bytes: u64,
    },
    /// A completed executor job (wall-clock bearing; experiments layer).
    JobSpan {
        /// Slot index in the batch.
        slot: u64,
        /// Job label (mechanism name).
        label: String,
        /// The job's seed.
        seed: u64,
        /// Wall-clock milliseconds the job took.
        wall_ms: u64,
        /// Whether the job was flagged slow relative to the batch median.
        slow: bool,
        /// How many times the job was retried after a panic or watchdog
        /// timeout before this (successful) completion. Zero for a
        /// first-attempt success or a journal-cache hit.
        retries: u64,
    },
    /// A consensus-reputation ban transition: a peer crossed the strike
    /// threshold (temporary or permanent ban) or served out a temporary
    /// ban (unban).
    ConsensusBan {
        /// Round index of the transition.
        round: u64,
        /// The affected peer.
        peer: u32,
        /// The transition kind (`ban_temp`, `ban_perm`, `unban`).
        kind: &'static str,
        /// The peer's strike level at the transition.
        strikes: f64,
    },
    /// A mid-run simulation checkpoint was captured (the swarm builder's
    /// `checkpoint_every` cadence). Shares the engine category: like
    /// `EngineStats` it describes run machinery, not swarm behavior, and
    /// adding a category would resize the sampling table.
    Checkpoint {
        /// Round index the checkpoint covers (the next tick to run).
        round: u64,
    },
}

impl TraceEvent {
    /// The event's category.
    pub fn category(&self) -> Category {
        match self {
            TraceEvent::RoundProbe { .. } => Category::Probe,
            TraceEvent::Grant { .. } => Category::Grant,
            TraceEvent::TransferStalled { .. } => Category::Transfer,
            TraceEvent::InflightAtEnd { .. } | TraceEvent::PeerAtEnd { .. } => Category::Final,
            TraceEvent::EngineStats { .. } | TraceEvent::Checkpoint { .. } => Category::Engine,
            TraceEvent::Fault { .. } => Category::Fault,
            TraceEvent::ConsensusBan { .. } => Category::Consensus,
            TraceEvent::JobSpan { .. } => Category::Exec,
        }
    }

    /// Renders the event as one JSONL line (no trailing newline). The
    /// first two fields are always `type` and `cat`.
    pub fn to_jsonl(&self) -> String {
        let mut o = ObjWriter::new();
        match self {
            TraceEvent::RoundProbe {
                round,
                sim_s,
                active,
                bootstrapped,
                completed,
                inflight,
                bytes_by_reason_delta,
                availability_buckets,
            } => {
                o.str("type", "round_probe")
                    .str("cat", Category::Probe.name())
                    .uint("round", *round)
                    .f64("sim_s", *sim_s)
                    .uint("active", *active)
                    .uint("bootstrapped", *bootstrapped)
                    .uint("completed", *completed)
                    .uint("inflight", *inflight)
                    .uints("bytes_by_reason_delta", bytes_by_reason_delta)
                    .uints("availability_buckets", availability_buckets);
            }
            TraceEvent::Grant {
                round,
                from,
                to,
                bytes,
                reason,
                new_transfer,
            } => {
                o.str("type", "grant")
                    .str("cat", Category::Grant.name())
                    .uint("round", *round)
                    .uint("from", u64::from(*from))
                    .uint("to", u64::from(*to))
                    .uint("bytes", *bytes)
                    .str("reason", reason)
                    .bool("new_transfer", *new_transfer);
            }
            TraceEvent::TransferStalled {
                round,
                from,
                to,
                piece,
                bytes_done,
            } => {
                o.str("type", "transfer_stalled")
                    .str("cat", Category::Transfer.name())
                    .uint("round", *round)
                    .uint("from", u64::from(*from))
                    .uint("to", u64::from(*to))
                    .uint("piece", u64::from(*piece))
                    .uint("bytes_done", *bytes_done);
            }
            TraceEvent::InflightAtEnd {
                from,
                to,
                piece,
                bytes_done,
                piece_len,
                reason,
                conditional,
                from_active,
            } => {
                o.str("type", "inflight_at_end")
                    .str("cat", Category::Final.name())
                    .uint("from", u64::from(*from))
                    .uint("to", u64::from(*to))
                    .uint("piece", u64::from(*piece))
                    .uint("bytes_done", *bytes_done)
                    .uint("piece_len", *piece_len)
                    .str("reason", reason)
                    .bool("conditional", *conditional)
                    .bool("from_active", *from_active);
            }
            TraceEvent::PeerAtEnd {
                peer,
                have,
                locked,
                obligations,
                inflight,
                interested_neighbors,
                neighbors,
            } => {
                o.str("type", "peer_at_end")
                    .str("cat", Category::Final.name())
                    .uint("peer", u64::from(*peer))
                    .uint("have", *have)
                    .uint("locked", *locked)
                    .uint("obligations", *obligations)
                    .uint("inflight", *inflight)
                    .uint("interested_neighbors", *interested_neighbors)
                    .uint("neighbors", *neighbors);
            }
            TraceEvent::EngineStats {
                events_processed,
                queue_depth_hwm,
            } => {
                o.str("type", "engine_stats")
                    .str("cat", Category::Engine.name())
                    .uint("events_processed", *events_processed)
                    .uint("queue_depth_hwm", *queue_depth_hwm);
            }
            TraceEvent::Fault {
                round,
                peer,
                kind,
                bytes,
            } => {
                o.str("type", "fault")
                    .str("cat", Category::Fault.name())
                    .uint("round", *round)
                    .uint("peer", u64::from(*peer))
                    .str("kind", kind)
                    .uint("bytes", *bytes);
            }
            TraceEvent::ConsensusBan {
                round,
                peer,
                kind,
                strikes,
            } => {
                o.str("type", "consensus_ban")
                    .str("cat", Category::Consensus.name())
                    .uint("round", *round)
                    .uint("peer", u64::from(*peer))
                    .str("kind", kind)
                    .f64("strikes", *strikes);
            }
            TraceEvent::JobSpan {
                slot,
                label,
                seed,
                wall_ms,
                slow,
                retries,
            } => {
                o.str("type", "job_span")
                    .str("cat", Category::Exec.name())
                    .uint("slot", *slot)
                    .str("label", label)
                    .uint("seed", *seed)
                    .uint("wall_ms", *wall_ms)
                    .bool("slow", *slow)
                    .uint("retries", *retries);
            }
            TraceEvent::Checkpoint { round } => {
                o.str("type", "checkpoint")
                    .str("cat", Category::Engine.name())
                    .uint("round", *round);
            }
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RoundProbe {
                round: 3,
                sim_s: 3.0,
                active: 10,
                bootstrapped: 4,
                completed: 0,
                inflight: 7,
                bytes_by_reason_delta: vec![0; 9],
                availability_buckets: vec![1, 2, 3],
            },
            TraceEvent::Grant {
                round: 3,
                from: u32::MAX,
                to: 2,
                bytes: 4096,
                reason: "seeding",
                new_transfer: true,
            },
            TraceEvent::TransferStalled {
                round: 9,
                from: 1,
                to: 2,
                piece: 5,
                bytes_done: 100,
            },
            TraceEvent::InflightAtEnd {
                from: 1,
                to: 2,
                piece: 5,
                bytes_done: 100,
                piece_len: 4096,
                reason: "tit_for_tat",
                conditional: false,
                from_active: true,
            },
            TraceEvent::PeerAtEnd {
                peer: 2,
                have: 30,
                locked: 1,
                obligations: 2,
                inflight: 0,
                interested_neighbors: 4,
                neighbors: 8,
            },
            TraceEvent::EngineStats {
                events_processed: 500,
                queue_depth_hwm: 12,
            },
            TraceEvent::Fault {
                round: 17,
                peer: 4,
                kind: "churn_depart",
                bytes: 0,
            },
            TraceEvent::ConsensusBan {
                round: 21,
                peer: 6,
                kind: "ban_temp",
                strikes: 4.0,
            },
            TraceEvent::JobSpan {
                slot: 0,
                label: "T-Chain".into(),
                seed: 42,
                wall_ms: 120,
                slow: false,
                retries: 1,
            },
            TraceEvent::Checkpoint { round: 64 },
        ]
    }

    #[test]
    fn every_event_renders_parseable_jsonl_with_type_and_cat() {
        for ev in samples() {
            let line = ev.to_jsonl();
            let doc = json::parse(&line).expect(&line);
            assert!(doc.get("type").and_then(json::Json::as_str).is_some());
            assert_eq!(
                doc.get("cat").and_then(json::Json::as_str),
                Some(ev.category().name()),
                "{line}"
            );
            assert!(!line.contains('\n'), "one line per event");
        }
    }

    #[test]
    fn categories_cover_every_event_and_index_is_stable() {
        for (i, cat) in Category::ALL.into_iter().enumerate() {
            assert_eq!(cat.index(), i);
        }
        let seen: std::collections::BTreeSet<_> = samples().iter().map(|e| e.category()).collect();
        assert_eq!(
            seen.len(),
            Category::ALL.len(),
            "samples cover all categories"
        );
    }
}
