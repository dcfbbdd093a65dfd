//! The bookkeeping state incentive mechanisms consult.
//!
//! * [`ContributionLedger`] — per-neighbor bytes sent/received, with a
//!   last-round window (BitTorrent's tit-for-tat ranks last-round
//!   contributors; pure reciprocity tracks outstanding credit).
//! * [`DeficitLedger`] — FairTorrent's signed per-neighbor deficit counters
//!   (bytes sent minus bytes received).
//! * [`ReputationTable`] — the global reputation store: total bytes each
//!   peer has uploaded to anyone, as assumed by the paper's reputation
//!   algorithm ("the probability of uploading to another user is
//!   proportional to the total number of pieces uploaded by that user").

use rand::Rng;
use rand::RngCore;

use crate::hash::IdMap;
use crate::PeerId;

/// Per-neighbor contribution accounting for one peer.
///
/// # Example
///
/// ```
/// use coop_incentives::ledger::ContributionLedger;
/// use coop_incentives::PeerId;
///
/// let mut l = ContributionLedger::new();
/// let p = PeerId::new(1);
/// l.record_received(p, 100);
/// l.record_sent(p, 40);
/// assert_eq!(l.credit(p), 60); // they gave us 60 bytes more than we returned
/// l.end_round();
/// assert_eq!(l.received_last_round(p), 100);
/// assert_eq!(l.received_this_round(p), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ContributionLedger {
    sent: IdMap<PeerId, u64>,
    received: IdMap<PeerId, u64>,
    received_this_round: IdMap<PeerId, u64>,
    received_last_round: IdMap<PeerId, u64>,
    total_sent: u64,
    total_received: u64,
}

impl ContributionLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records bytes we uploaded to `to`.
    pub fn record_sent(&mut self, to: PeerId, bytes: u64) {
        *self.sent.entry(to).or_insert(0) += bytes;
        self.total_sent += bytes;
    }

    /// Records bytes we received from `from`.
    pub fn record_received(&mut self, from: PeerId, bytes: u64) {
        *self.received.entry(from).or_insert(0) += bytes;
        *self.received_this_round.entry(from).or_insert(0) += bytes;
        self.total_received += bytes;
    }

    /// Rolls the per-round window: this round's receipts become "last
    /// round" and the current window resets.
    pub fn end_round(&mut self) {
        self.received_last_round = std::mem::take(&mut self.received_this_round);
    }

    /// Total bytes ever sent to `to`.
    pub fn sent_to(&self, to: PeerId) -> u64 {
        self.sent.get(&to).copied().unwrap_or(0)
    }

    /// Total bytes ever received from `from`.
    pub fn received_from(&self, from: PeerId) -> u64 {
        self.received.get(&from).copied().unwrap_or(0)
    }

    /// Bytes received from `from` in the previous round (tit-for-tat
    /// ranking input).
    pub fn received_last_round(&self, from: PeerId) -> u64 {
        self.received_last_round.get(&from).copied().unwrap_or(0)
    }

    /// Bytes received from `from` so far in the current round.
    pub fn received_this_round(&self, from: PeerId) -> u64 {
        self.received_this_round.get(&from).copied().unwrap_or(0)
    }

    /// Outstanding reciprocity credit toward `peer`: bytes they sent us
    /// that we have not yet returned (clamped at zero).
    ///
    /// Pure reciprocity uploads only against positive credit.
    pub fn credit(&self, peer: PeerId) -> u64 {
        self.received_from(peer).saturating_sub(self.sent_to(peer))
    }

    /// Total bytes ever sent to anyone.
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }

    /// Total bytes ever received from anyone.
    pub fn total_received(&self) -> u64 {
        self.total_received
    }

    /// Peers that contributed to us in the previous round, sorted by
    /// contribution descending (ties broken by peer id for determinism).
    pub fn top_contributors_last_round(&self) -> Vec<(PeerId, u64)> {
        let mut v: Vec<(PeerId, u64)> = self
            .received_last_round
            .iter()
            .filter(|(_, &b)| b > 0)
            .map(|(&p, &b)| (p, b))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Forgets all state about `peer` (used when a neighbor departs or
    /// whitewashes its identity).
    pub fn forget(&mut self, peer: PeerId) {
        self.sent.remove(&peer);
        self.received.remove(&peer);
        self.received_this_round.remove(&peer);
        self.received_last_round.remove(&peer);
    }
}

/// FairTorrent's per-neighbor deficit counters.
///
/// `deficit(p) = bytes sent to p − bytes received from p`. FairTorrent
/// always uploads to the interested neighbor with the *lowest* deficit;
/// a negative deficit means we owe that neighbor data.
///
/// # Example
///
/// ```
/// use coop_incentives::ledger::DeficitLedger;
/// use coop_incentives::PeerId;
///
/// let mut d = DeficitLedger::new();
/// let p = PeerId::new(3);
/// d.on_received(p, 10);
/// assert_eq!(d.deficit(p), -10); // we owe them
/// d.on_sent(p, 25);
/// assert_eq!(d.deficit(p), 15);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DeficitLedger {
    deficits: IdMap<PeerId, i64>,
}

impl DeficitLedger {
    /// Creates an empty ledger (all deficits implicitly zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records bytes sent to `to`.
    pub fn on_sent(&mut self, to: PeerId, bytes: u64) {
        *self.deficits.entry(to).or_insert(0) += bytes as i64;
    }

    /// Records bytes received from `from`.
    pub fn on_received(&mut self, from: PeerId, bytes: u64) {
        *self.deficits.entry(from).or_insert(0) -= bytes as i64;
    }

    /// The signed deficit toward `peer` (zero if never interacted).
    pub fn deficit(&self, peer: PeerId) -> i64 {
        self.deficits.get(&peer).copied().unwrap_or(0)
    }

    /// Returns true if some known neighbor has a negative deficit, i.e. we
    /// owe data to somebody. This is the event whose probability the paper
    /// calls `ω` in the FairTorrent analysis.
    pub fn owes_anyone(&self) -> bool {
        self.deficits.values().any(|&d| d < 0)
    }

    /// The most negative deficit (largest debt), if any.
    pub fn min_deficit(&self) -> Option<(PeerId, i64)> {
        self.deficits
            .iter()
            .min_by_key(|(p, &d)| (d, p.index()))
            .map(|(&p, &d)| (p, d))
    }

    /// Forgets all state about `peer`.
    pub fn forget(&mut self, peer: PeerId) {
        self.deficits.remove(&peer);
    }
}

/// The global reputation table: total bytes each peer has uploaded.
///
/// The paper's reputation algorithm assumes users know "the amount of data
/// that each user uploads to all other users" and pick upload targets with
/// probability proportional to it. Collusive free-riders attack this table
/// by reporting fictitious uploads (false praise).
///
/// # Example
///
/// ```
/// use coop_incentives::ledger::ReputationTable;
/// use coop_incentives::PeerId;
///
/// let mut r = ReputationTable::new();
/// r.credit_upload(PeerId::new(0), 500);
/// assert_eq!(r.reputation(PeerId::new(0)), 500.0);
/// assert_eq!(r.reputation(PeerId::new(1)), 0.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ReputationTable {
    uploaded: IdMap<PeerId, u64>,
    total: u64,
}

impl ReputationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Credits `peer` with `bytes` of (claimed) upload contribution.
    ///
    /// Legitimate credits come from real transfers; collusive free-riders
    /// inject fictitious credits through the same entry point.
    pub fn credit_upload(&mut self, peer: PeerId, bytes: u64) {
        *self.uploaded.entry(peer).or_insert(0) += bytes;
        self.total += bytes;
    }

    /// The reputation score of `peer` (total bytes uploaded; zero for
    /// newcomers).
    pub fn reputation(&self, peer: PeerId) -> f64 {
        self.uploaded.get(&peer).copied().unwrap_or(0) as f64
    }

    /// Sum of all reputations.
    pub fn total(&self) -> f64 {
        self.total as f64
    }

    /// Samples one peer from `candidates` with probability proportional to
    /// reputation. Returns `None` if the candidate list is empty or every
    /// candidate has zero reputation.
    pub fn sample_proportional(
        &self,
        candidates: &[PeerId],
        rng: &mut dyn RngCore,
    ) -> Option<PeerId> {
        let weights: Vec<f64> = candidates.iter().map(|&p| self.reputation(p)).collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let mut x = rng.gen_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return Some(candidates[i]);
            }
            x -= w;
        }
        // Floating-point edge: fall back to the last positive-weight candidate.
        candidates
            .iter()
            .zip(&weights)
            .rev()
            .find(|(_, &w)| w > 0.0)
            .map(|(&p, _)| p)
    }

    /// Removes `peer` from the table (identity retirement).
    pub fn forget(&mut self, peer: PeerId) {
        if let Some(b) = self.uploaded.remove(&peer) {
            self.total -= b;
        }
    }
}

/// A reporter-attributed reputation store: "peer S uploaded N bytes to me",
/// reported by the receiver.
///
/// The paper's basic reputation algorithm sums all reports, which makes it
/// trivially gameable by false praise (colluders reporting fictitious
/// receipts for each other — Table III rates this collusion's success
/// probability as 1). Footnote 6 notes that "more sophisticated reputation
/// schemes that consider users' trustworthiness can circumvent such false
/// praise to some extent": [`ReportedReputation::trusted_scores`]
/// implements EigenTrust — row-normalized report weights, trust propagated
/// through the report graph, damped toward a *pre-trusted set* (e.g. the
/// operator's own seed nodes). Trust then only originates from the
/// pre-trusted peers, so a collusion ring with no inbound trust edge
/// starves no matter how large its fictitious claims are.
///
/// # Example
///
/// ```
/// use coop_incentives::ledger::ReportedReputation;
/// use coop_incentives::PeerId;
///
/// let mut r = ReportedReputation::new();
/// // A pre-trusted peer 9 reports receiving from peer 0, and 0 from 1.
/// r.record(PeerId::new(9), PeerId::new(0), 1000);
/// r.record(PeerId::new(0), PeerId::new(1), 500);
/// // Free-riders 2 and 3 praise each other enormously.
/// r.record(PeerId::new(2), PeerId::new(3), 1_000_000);
/// r.record(PeerId::new(3), PeerId::new(2), 1_000_000);
/// let trusted = r.trusted_scores(&[PeerId::new(9)]);
/// assert!(trusted[&PeerId::new(1)] > trusted.get(&PeerId::new(3)).copied().unwrap_or(0.0));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ReportedReputation {
    /// subject → (reporter → claim with decay bookkeeping).
    reports: IdMap<PeerId, IdMap<PeerId, Claim>>,
    /// subject → total claimed bytes (the basic reputation, undecayed).
    basic: IdMap<PeerId, u64>,
    /// Current round, advanced by the caller; claim ages are measured
    /// against it. Stays 0 (no decay) unless [`Self::advance_to`] is used.
    round: u64,
}

/// One reporter→subject claim edge: exponentially decayed weight plus the
/// raw byte total (kept for [`ReportedReputation::forget`]'s basic-score
/// bookkeeping).
#[derive(Clone, Copy, Debug)]
struct Claim {
    /// Claimed bytes, decayed by [`REPORT_DECAY`] per round of age as of
    /// `last_round` (fold-in accumulation).
    decayed: f64,
    /// Undecayed claimed bytes.
    raw: u64,
    /// Round of the most recent fold-in.
    last_round: u64,
}

/// Per-round multiplicative decay of a report's trust weight (half-life
/// ≈ 69 rounds). Applied to each claim *before* row normalization in
/// [`ReportedReputation::trusted_scores`], so a reporter's trust flows
/// toward its recently-vouched subjects and long-idle peers cannot hold
/// stale top scores indefinitely.
const REPORT_DECAY: f64 = 0.99;

impl ReportedReputation {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the decay clock to `round` (monotonic; earlier rounds are
    /// ignored). The swarm calls this once per round so claim ages in
    /// [`Self::trusted_scores`] track simulation time.
    pub fn advance_to(&mut self, round: u64) {
        self.round = self.round.max(round);
    }

    /// Records `reporter`'s claim that `subject` uploaded `bytes` to it.
    pub fn record(&mut self, reporter: PeerId, subject: PeerId, bytes: u64) {
        let now = self.round;
        let claim = self
            .reports
            .entry(subject)
            .or_default()
            .entry(reporter)
            .or_insert(Claim {
                decayed: 0.0,
                raw: 0,
                last_round: now,
            });
        let age = (now - claim.last_round) as i32;
        claim.decayed = claim.decayed * REPORT_DECAY.powi(age) + bytes as f64;
        claim.raw += bytes;
        claim.last_round = now;
        *self.basic.entry(subject).or_insert(0) += bytes;
    }

    /// The basic (unweighted) reputation: total claimed uploads.
    pub fn basic(&self, subject: PeerId) -> f64 {
        self.basic.get(&subject).copied().unwrap_or(0) as f64
    }

    /// EigenTrust scores: each reporter's claims are row-normalized (so a
    /// colossal fictitious claim carries no more weight than an honest
    /// one), then trust is propagated through the report graph, damped
    /// toward the `pretrusted` distribution. Trust only *originates* at
    /// the pre-trusted peers: a collusion ring that no trusted peer has
    /// ever vouched for converges to zero, while peers on report chains
    /// rooted at pre-trusted reporters accumulate real standing.
    ///
    /// If `pretrusted` is empty, the pre-trust falls back to uniform over
    /// all participants — weaker, because closed rings then retain their
    /// own pre-trust share.
    ///
    /// Claims age: each edge's weight is decayed by [`REPORT_DECAY`] per
    /// round since its last report *before* the row is normalized, so a
    /// reporter's trust share shifts toward whoever it vouched for
    /// recently and a long-idle subject's stale claims fade instead of
    /// being re-inflated to a full row share.
    pub fn trusted_scores(&self, pretrusted: &[PeerId]) -> IdMap<PeerId, f64> {
        const DAMPING: f64 = 0.15;
        const ITERATIONS: usize = 15;
        let now = self.round;
        let effective = |c: &Claim| c.decayed * REPORT_DECAY.powi((now - c.last_round) as i32);
        // Collect every peer seen as reporter or subject.
        let mut members: Vec<PeerId> = self.reports.keys().copied().collect();
        for reporters in self.reports.values() {
            members.extend(reporters.keys().copied());
        }
        members.extend(pretrusted.iter().copied());
        members.sort();
        members.dedup();
        if members.is_empty() {
            return IdMap::default();
        }
        let n = members.len() as f64;
        let pre: IdMap<PeerId, f64> = if pretrusted.is_empty() {
            members.iter().map(|&m| (m, 1.0 / n)).collect()
        } else {
            let share = 1.0 / pretrusted.len() as f64;
            pretrusted.iter().map(|&m| (m, share)).collect()
        };
        let pre_of = |m: PeerId| pre.get(&m).copied().unwrap_or(0.0);
        // Row-normalized outgoing claims per reporter, decayed first.
        let mut outgoing_total: IdMap<PeerId, f64> = IdMap::default();
        for reporters in self.reports.values() {
            for (&r, claim) in reporters {
                *outgoing_total.entry(r).or_insert(0.0) += effective(claim);
            }
        }
        let mut trust: IdMap<PeerId, f64> = members.iter().map(|&m| (m, pre_of(m))).collect();
        for _ in 0..ITERATIONS {
            let mut next: IdMap<PeerId, f64> =
                members.iter().map(|&m| (m, DAMPING * pre_of(m))).collect();
            for (&subject, reporters) in &self.reports {
                let mut inflow = 0.0;
                for (&reporter, claim) in reporters {
                    let total = outgoing_total.get(&reporter).copied().unwrap_or(0.0);
                    if total > 0.0 {
                        let weight = effective(claim) / total;
                        inflow += weight * trust.get(&reporter).copied().unwrap_or(0.0);
                    }
                }
                *next.entry(subject).or_insert(0.0) += (1.0 - DAMPING) * inflow;
            }
            trust = next;
        }
        trust
    }

    /// Forgets everything reported about and by `peer` (identity
    /// retirement).
    pub fn forget(&mut self, peer: PeerId) {
        if let Some(reporters) = self.reports.remove(&peer) {
            let removed: u64 = reporters.values().map(|c| c.raw).sum();
            if let Some(b) = self.basic.get_mut(&peer) {
                *b = b.saturating_sub(removed);
            }
            self.basic.remove(&peer);
        }
        for (subject, reporters) in self.reports.iter_mut() {
            if let Some(claim) = reporters.remove(&peer) {
                if let Some(b) = self.basic.get_mut(subject) {
                    *b = b.saturating_sub(claim.raw);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    #[test]
    fn contribution_totals_accumulate() {
        let mut l = ContributionLedger::new();
        l.record_sent(p(1), 10);
        l.record_sent(p(2), 20);
        l.record_received(p(1), 5);
        assert_eq!(l.total_sent(), 30);
        assert_eq!(l.total_received(), 5);
        assert_eq!(l.sent_to(p(1)), 10);
        assert_eq!(l.received_from(p(1)), 5);
        assert_eq!(l.received_from(p(9)), 0);
    }

    #[test]
    fn credit_clamps_at_zero() {
        let mut l = ContributionLedger::new();
        l.record_sent(p(1), 100);
        assert_eq!(l.credit(p(1)), 0);
        l.record_received(p(1), 160);
        assert_eq!(l.credit(p(1)), 60);
    }

    #[test]
    fn round_window_rolls() {
        let mut l = ContributionLedger::new();
        l.record_received(p(1), 7);
        assert_eq!(l.received_this_round(p(1)), 7);
        assert_eq!(l.received_last_round(p(1)), 0);
        l.end_round();
        assert_eq!(l.received_this_round(p(1)), 0);
        assert_eq!(l.received_last_round(p(1)), 7);
        l.end_round();
        assert_eq!(l.received_last_round(p(1)), 0);
    }

    #[test]
    fn top_contributors_sorted_desc_with_deterministic_ties() {
        let mut l = ContributionLedger::new();
        l.record_received(p(3), 10);
        l.record_received(p(1), 30);
        l.record_received(p(2), 10);
        l.end_round();
        let top = l.top_contributors_last_round();
        assert_eq!(top, vec![(p(1), 30), (p(2), 10), (p(3), 10)]);
    }

    #[test]
    fn forget_erases_peer_state() {
        let mut l = ContributionLedger::new();
        l.record_received(p(1), 10);
        l.end_round();
        l.forget(p(1));
        assert_eq!(l.received_from(p(1)), 0);
        assert_eq!(l.received_last_round(p(1)), 0);
    }

    #[test]
    fn deficit_sign_convention() {
        let mut d = DeficitLedger::new();
        assert_eq!(d.deficit(p(1)), 0);
        assert!(!d.owes_anyone());
        d.on_received(p(1), 50);
        assert_eq!(d.deficit(p(1)), -50);
        assert!(d.owes_anyone());
        d.on_sent(p(1), 50);
        assert_eq!(d.deficit(p(1)), 0);
        assert!(!d.owes_anyone());
    }

    #[test]
    fn min_deficit_finds_largest_debt() {
        let mut d = DeficitLedger::new();
        d.on_received(p(1), 10);
        d.on_received(p(2), 30);
        d.on_sent(p(3), 5);
        assert_eq!(d.min_deficit(), Some((p(2), -30)));
    }

    #[test]
    fn reputation_sampling_is_proportional() {
        let mut r = ReputationTable::new();
        r.credit_upload(p(0), 900);
        r.credit_upload(p(1), 100);
        let candidates = [p(0), p(1)];
        let mut rng = SmallRng::seed_from_u64(7);
        let mut hits = [0u32; 2];
        for _ in 0..10_000 {
            match r.sample_proportional(&candidates, &mut rng) {
                Some(x) if x == p(0) => hits[0] += 1,
                Some(x) if x == p(1) => hits[1] += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        let frac = hits[0] as f64 / 10_000.0;
        assert!((frac - 0.9).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn reputation_sampling_none_when_all_zero() {
        let r = ReputationTable::new();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(r.sample_proportional(&[p(0), p(1)], &mut rng), None);
        assert_eq!(r.sample_proportional(&[], &mut rng), None);
    }

    #[test]
    fn reported_reputation_basic_sums_claims() {
        let mut r = ReportedReputation::new();
        r.record(p(0), p(1), 100);
        r.record(p(2), p(1), 50);
        r.record(p(0), p(3), 10);
        assert_eq!(r.basic(p(1)), 150.0);
        assert_eq!(r.basic(p(3)), 10.0);
        assert_eq!(r.basic(p(9)), 0.0);
    }

    #[test]
    fn trusted_scores_starve_unrooted_collusion_rings() {
        let mut r = ReportedReputation::new();
        // A pre-trusted reporter vouches for peer 0, and 0 for peer 1.
        r.record(p(9), p(0), 1000);
        r.record(p(0), p(1), 100);
        // Free-riders 2 and 3 praise each other enormously.
        r.record(p(2), p(3), 1_000_000);
        r.record(p(3), p(2), 1_000_000);
        let trusted = r.trusted_scores(&[p(9)]);
        let honest = trusted[&p(1)];
        let colluder = trusted.get(&p(3)).copied().unwrap_or(0.0);
        assert!(
            honest > 10.0 * colluder,
            "honest {honest} must dwarf unrooted praise {colluder}"
        );
        // But the basic scores are fooled completely.
        assert!(r.basic(p(3)) > r.basic(p(1)));
    }

    #[test]
    fn colluders_vouched_by_trusted_peers_still_game_scores() {
        // Footnote 6's caveat: "if legitimate users collude with many
        // free-riders, then users can still game the system" — a colluder
        // that a trusted peer vouches for passes its standing onward.
        let mut r = ReportedReputation::new();
        r.record(p(9), p(2), 500); // colluder 2 was vouched for
        r.record(p(2), p(3), 1_000_000);
        let trusted = r.trusted_scores(&[p(9)]);
        assert!(trusted[&p(3)] > 0.0);
    }

    #[test]
    fn uniform_fallback_when_no_pretrusted() {
        let mut r = ReportedReputation::new();
        r.record(p(0), p(1), 100);
        let trusted = r.trusted_scores(&[]);
        assert!(trusted[&p(1)] > 0.0);
    }

    #[test]
    fn reported_forget_removes_subject_and_reporter() {
        let mut r = ReportedReputation::new();
        r.record(p(0), p(1), 100);
        r.record(p(1), p(2), 40);
        r.forget(p(1));
        assert_eq!(r.basic(p(1)), 0.0);
        assert_eq!(r.basic(p(2)), 0.0, "claims by the retired id vanish");
        let trusted = r.trusted_scores(&[p(0)]);
        assert!(!trusted.contains_key(&p(1)));
    }

    #[test]
    fn trusted_scores_empty_when_no_reports() {
        assert!(ReportedReputation::new().trusted_scores(&[]).is_empty());
    }

    #[test]
    fn decay_before_normalization_fades_idle_top_scores() {
        // Regression: without per-claim decay ahead of row normalization,
        // a huge early claim held the top trusted score forever — a
        // long-idle peer outranked every active one indefinitely.
        let mut r = ReportedReputation::new();
        // Round 0: peer 1 uploads enormously to pre-trusted reporter 9.
        r.record(p(9), p(1), 1_000_000);
        // Peer 1 then idles for 600 rounds; peer 2 uploads modestly.
        r.advance_to(600);
        r.record(p(9), p(2), 10_000);
        let t = r.trusted_scores(&[p(9)]);
        assert!(
            t[&p(2)] > t[&p(1)],
            "recent modest claim {} must outrank stale huge claim {}",
            t[&p(2)],
            t[&p(1)]
        );
        // Same claims with no idle gap: magnitude wins as before.
        let mut fresh = ReportedReputation::new();
        fresh.record(p(9), p(1), 1_000_000);
        fresh.record(p(9), p(2), 10_000);
        let t = fresh.trusted_scores(&[p(9)]);
        assert!(t[&p(1)] > t[&p(2)]);
        // The basic (undecayed) score is untouched by the clock.
        assert_eq!(r.basic(p(1)), 1_000_000.0);
    }

    #[test]
    fn record_folds_decay_into_repeated_claims() {
        let mut r = ReportedReputation::new();
        r.record(p(0), p(1), 1000);
        r.advance_to(100);
        // A fresh claim after 100 idle rounds: the old 1000 has decayed to
        // ~366, so the fresh 1000 dominates the edge weight but the raw
        // basic total still sums both.
        r.record(p(0), p(1), 1000);
        assert_eq!(r.basic(p(1)), 2000.0);
        let t = r.trusted_scores(&[p(0)]);
        assert!(t[&p(1)] > 0.0);
    }

    #[test]
    fn reputation_forget_reduces_total() {
        let mut r = ReputationTable::new();
        r.credit_upload(p(0), 100);
        r.credit_upload(p(1), 50);
        r.forget(p(0));
        assert_eq!(r.total(), 50.0);
        assert_eq!(r.reputation(p(0)), 0.0);
    }
}
