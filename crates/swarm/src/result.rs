//! Simulation results and derived statistics.

use coop_incentives::metrics::{Cdf, TimeSeries};
use coop_incentives::PeerId;

/// The final record of one peer identity.
#[derive(Clone, Debug, PartialEq)]
pub struct PeerRecord {
    /// The identity.
    pub id: PeerId,
    /// Upload capacity in bytes/second.
    pub capacity_bps: f64,
    /// Whether the peer was compliant (free-riders are not).
    pub compliant: bool,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Seconds from arrival to first piece, if bootstrapped.
    pub bootstrap_s: Option<f64>,
    /// Seconds from arrival to download completion, if completed.
    pub completion_s: Option<f64>,
    /// Bytes uploaded (completed transfers).
    pub bytes_sent: u64,
    /// Usable bytes received.
    pub bytes_received_usable: u64,
    /// Raw bytes received (including locked/expired T-Chain pieces).
    pub bytes_received_raw: u64,
    /// Bytes' worth of pieces inherited at identity creation (nonzero only
    /// for whitewash successors).
    pub bytes_inherited: u64,
}

/// Swarm-wide byte totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Bytes uploaded by compliant peers.
    pub uploaded_compliant: u64,
    /// Bytes uploaded by free-riders (usually 0).
    pub uploaded_freeriders: u64,
    /// Bytes uploaded by the seeder.
    pub uploaded_seeder: u64,
    /// Usable bytes received by free-riders.
    pub freerider_received_usable: u64,
    /// Raw bytes received by free-riders.
    pub freerider_received_raw: u64,
    /// Usable bytes free-riders received from *peers* (seeder bytes
    /// excluded) — the numerator of the paper's susceptibility metric.
    pub freerider_received_from_peers: u64,
    /// Bytes lost in transfers aborted by the stall timeout or peer
    /// departures (bandwidth spent on pieces that never completed).
    pub aborted_bytes: u64,
    /// Bytes moved per mechanism component, indexed by
    /// `GrantReason::index()` — the empirical counterpart of Table III's
    /// bandwidth attribution.
    pub bytes_by_reason: [u64; 9],
    /// Bytes of completed piece transfers lost to fault-injected link
    /// loss (sender paid for them; the receiver never got the piece).
    pub fault_dropped_bytes: u64,
}

impl Totals {
    /// All upload bandwidth spent (peers + seeder).
    pub fn uploaded_total(&self) -> u64 {
        self.uploaded_compliant + self.uploaded_freeriders + self.uploaded_seeder
    }
}

/// Lifetime tallies of the consensus-reputation layer, present when the
/// population ran [`coop_incentives::MechanismKind::ConsensusReputation`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ConsensusSummary {
    /// Individual reports considered (two per transfer pair).
    pub reports: u64,
    /// Report pairs that disagreed (denied, voided, or phantom).
    pub disputes: u64,
    /// Temporary bans issued.
    pub bans_temp: u64,
    /// Permanent bans issued.
    pub bans_perm: u64,
    /// Bans (either kind) that hit a compliant peer — friendly fire.
    pub bans_compliant: u64,
    /// Bans (either kind) that hit a non-compliant peer.
    pub bans_noncompliant: u64,
    /// The highest strike level any peer ever reached.
    pub max_strikes: f64,
}

/// The outcome of one simulation run.
///
/// `PartialEq` compares every recorded number bit-for-bit; the batch
/// executor's determinism tests rely on this to prove that parallel and
/// sequential execution produce identical results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimResult {
    /// Rounds actually executed.
    pub rounds_run: u64,
    /// Seconds of simulated time.
    pub sim_seconds: f64,
    /// Per-identity records (departed identities included).
    pub peers: Vec<PeerRecord>,
    /// Average fairness `(Σ u_i/d_i)/N` over active compliant peers,
    /// sampled over time (Fig. 4b / 5c / 6c).
    pub fairness_avg: TimeSeries,
    /// The paper's `F` statistic over active compliant peers, sampled over
    /// time.
    pub fairness_stat: TimeSeries,
    /// Fraction of compliant peers bootstrapped, over time (Fig. 4c).
    pub bootstrapped_frac: TimeSeries,
    /// Fraction of compliant peers completed, over time (Fig. 4a's CDF
    /// read along time).
    pub completed_frac: TimeSeries,
    /// Cumulative susceptibility (free-rider share of uploaded bytes) over
    /// time (Fig. 5a / 6a).
    pub susceptibility: TimeSeries,
    /// Normalized piece-availability entropy over time (1 = perfectly
    /// even replication; the diversity rarest-first selection maintains).
    pub diversity: TimeSeries,
    /// Byte totals.
    pub totals: Totals,
    /// True when the run ended because the swarm became unsatisfiable —
    /// some active peer still wants a piece no online peer (or seeder)
    /// holds, and no bytes can ever move again. Only fault schedules can
    /// cause this (the fault-free seeder offers every piece forever).
    pub stalled: bool,
    /// Consensus-reputation tallies; `None` unless the population ran the
    /// consensus mechanism.
    pub consensus: Option<ConsensusSummary>,
}

impl SimResult {
    /// Records of compliant peers only.
    pub fn compliant(&self) -> impl Iterator<Item = &PeerRecord> {
        self.peers.iter().filter(|p| p.compliant)
    }

    /// Records of free-riders only.
    pub fn freeriders(&self) -> impl Iterator<Item = &PeerRecord> {
        self.peers.iter().filter(|p| !p.compliant)
    }

    /// Number of compliant peers that completed the download.
    pub fn completed_count(&self) -> usize {
        self.compliant()
            .filter(|p| p.completion_s.is_some())
            .count()
    }

    /// Fraction of compliant peers that completed.
    pub fn completed_fraction(&self) -> f64 {
        let total = self.compliant().count();
        if total == 0 {
            0.0
        } else {
            self.completed_count() as f64 / total as f64
        }
    }

    /// CDF of compliant completion times in seconds (Fig. 4a / 5b / 6b).
    pub fn completion_cdf(&self) -> Cdf {
        Cdf::from_samples(self.compliant().filter_map(|p| p.completion_s).collect())
    }

    /// Mean compliant completion time in seconds (completed peers only).
    pub fn mean_completion_time(&self) -> Option<f64> {
        self.completion_cdf().mean()
    }

    /// CDF of compliant bootstrap times in seconds (Fig. 4c).
    pub fn bootstrap_cdf(&self) -> Cdf {
        Cdf::from_samples(self.compliant().filter_map(|p| p.bootstrap_s).collect())
    }

    /// Mean compliant bootstrap time in seconds.
    pub fn mean_bootstrap_time(&self) -> Option<f64> {
        self.bootstrap_cdf().mean()
    }

    /// Fraction of compliant peers bootstrapped by the end of the run.
    pub fn bootstrapped_fraction(&self) -> f64 {
        let total = self.compliant().count();
        if total == 0 {
            0.0
        } else {
            self.compliant().filter(|p| p.bootstrap_s.is_some()).count() as f64 / total as f64
        }
    }

    /// Final susceptibility (Section V): the fraction of *peer* upload
    /// bandwidth usably received by free-riders. Seeder bytes are excluded
    /// on both sides — the seeder serves everyone unconditionally and says
    /// nothing about the incentive mechanism under attack.
    pub fn final_susceptibility(&self) -> f64 {
        coop_incentives::metrics::susceptibility(
            self.totals.freerider_received_from_peers,
            self.totals.uploaded_compliant + self.totals.uploaded_freeriders,
        )
    }

    /// Peak susceptibility over the run — the largest share of peer upload
    /// bandwidth free-riders held at any sample point. The cumulative
    /// [`SimResult::final_susceptibility`] saturates once free-riders
    /// finish the file and stop absorbing; the peak reflects the bandwidth
    /// share the paper's Figs. 5a/6a report.
    pub fn peak_susceptibility(&self) -> f64 {
        self.susceptibility
            .points()
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0, f64::max)
    }

    /// Final average fairness over compliant peers with nonzero downloads:
    /// `(Σ u_i/d_i)/N` computed from cumulative totals.
    pub fn final_avg_fairness(&self) -> Option<f64> {
        let pairs: Vec<(f64, f64)> = self
            .compliant()
            .map(|p| (p.bytes_sent as f64, p.bytes_received_usable as f64))
            .collect();
        coop_incentives::metrics::avg_fairness_ratio(&pairs)
    }

    /// Fraction of peer-moved bytes attributed to `reason` (seeder bytes
    /// excluded from the denominator when the reason is not `Seeding`).
    pub fn reason_fraction(&self, reason: coop_incentives::GrantReason) -> f64 {
        let total: u64 = self
            .totals
            .bytes_by_reason
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != coop_incentives::GrantReason::Seeding.index())
            .map(|(_, &b)| b)
            .sum();
        if total == 0 {
            0.0
        } else {
            self.totals.bytes_by_reason[reason.index()] as f64 / total as f64
        }
    }

    /// Final `F` statistic over compliant peers (skips zero-rate peers).
    pub fn final_fairness_stat(&self) -> f64 {
        let pairs: Vec<(f64, f64)> = self
            .compliant()
            .map(|p| (p.bytes_sent as f64, p.bytes_received_usable as f64))
            .collect();
        coop_incentives::metrics::fairness_stat(&pairs).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(compliant: bool, completion: Option<f64>, sent: u64, recv: u64) -> PeerRecord {
        PeerRecord {
            id: PeerId::new(0),
            capacity_bps: 1000.0,
            compliant,
            arrival_s: 0.0,
            bootstrap_s: completion.map(|_| 1.0),
            completion_s: completion,
            bytes_sent: sent,
            bytes_received_usable: recv,
            bytes_received_raw: recv,
            bytes_inherited: 0,
        }
    }

    #[test]
    fn completion_counts_exclude_freeriders() {
        let r = SimResult {
            peers: vec![
                record(true, Some(10.0), 100, 100),
                record(true, None, 50, 60),
                record(false, Some(5.0), 0, 40),
            ],
            ..SimResult::default()
        };
        assert_eq!(r.completed_count(), 1);
        assert!((r.completed_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(r.freeriders().count(), 1);
    }

    #[test]
    fn susceptibility_uses_totals() {
        let r = SimResult {
            totals: Totals {
                uploaded_compliant: 900,
                uploaded_freeriders: 0,
                uploaded_seeder: 100,
                freerider_received_usable: 250,
                freerider_received_raw: 400,
                freerider_received_from_peers: 225,
                aborted_bytes: 0,
                bytes_by_reason: [0; 9],
                fault_dropped_bytes: 0,
            },
            ..SimResult::default()
        };
        assert!((r.final_susceptibility() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fairness_from_cumulative_totals() {
        let r = SimResult {
            peers: vec![record(true, None, 100, 100), record(true, None, 300, 300)],
            ..SimResult::default()
        };
        assert!((r.final_avg_fairness().unwrap() - 1.0).abs() < 1e-12);
        assert!(r.final_fairness_stat().abs() < 1e-12);
    }

    #[test]
    fn empty_result_is_sane() {
        let r = SimResult::default();
        assert_eq!(r.completed_fraction(), 0.0);
        assert_eq!(r.bootstrapped_fraction(), 0.0);
        assert_eq!(r.final_susceptibility(), 0.0);
        assert_eq!(r.final_avg_fairness(), None);
        assert!(r.mean_completion_time().is_none());
    }
}
