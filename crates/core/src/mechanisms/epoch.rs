//! Epoch-settled reward distribution (beyond the paper).
//!
//! The paper's six mechanisms settle per-transfer: every received byte
//! immediately moves the ledger that steers the next allocation.
//! Production incentive systems settle per-epoch instead — contributions
//! accrue during an epoch, then a distributor pays recipients
//! proportionally at epoch close. This module implements that as a
//! seventh mechanism class: contributors to a peer earn *shares*
//! (cumulative bytes uploaded to it), and at every epoch boundary the
//! bytes the peer received during the epoch are distributed across the
//! share table as spendable reward balances. The peer's upload bandwidth
//! then services the highest outstanding balances first, falling back to
//! random altruism (the bootstrap channel) when no creditor is
//! interested.
//!
//! The epoch length interpolates between the paper's extremes: one-round
//! epochs make every contribution spendable almost immediately
//! (FairTorrent-shaped fairness), while an epoch longer than the run
//! never settles at all — no balances ever exist and the mechanism
//! degenerates into pure altruism (altruism-shaped exploitability, since
//! free-riders inside an open epoch are indistinguishable from peers
//! that have not settled yet).
//!
//! Settlement uses the O(1) *scalable reward distribution* scheme: a
//! single cumulative reward-per-share counter plus a per-participant
//! entry snapshot, so an epoch close is O(1) regardless of the number of
//! participants, and the per-participant cost is O(share changes), not
//! O(N · epochs). All arithmetic is u128 fixed-point with flooring only
//! at the balance boundary, which makes the fast accounting *exactly*
//! equal to a naive per-epoch reference ledger (pinned by a proptest).

use rand::RngCore;

use crate::mechanism::{
    AllocScratch, Grant, GrantReason, Mechanism, MechanismParams, SettleCadence,
};
use crate::mechanisms::{pick_random, push_chunks, StickyTarget};
use crate::view::SwarmView;
use crate::{MechanismKind, PeerId};

/// Fixed-point scale for the cumulative reward-per-share counter. Large
/// enough that a one-byte pool over the largest realistic share total
/// still moves the counter; small enough that `shares * acc` for a whole
/// run's bytes stays far below `u128::MAX`.
const SCALE: u128 = 1 << 32;

/// One participant's snapshot in the [`RewardPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct PoolEntry {
    /// Shares held (cumulative contributed bytes).
    shares: u64,
    /// `shares * acc` at the last share change — the standard
    /// reward-per-share debt snapshot. Rewards earned since are
    /// `shares * acc - debt`.
    debt: u128,
    /// Fixed-point rewards realized on earlier share changes.
    realized_fp: u128,
    /// Bytes already spent out of the floored balance.
    spent: u64,
}

impl PoolEntry {
    /// Total earned rewards in fixed point under the current counter.
    fn earned_fp(&self, acc: u128) -> u128 {
        self.realized_fp + self.shares as u128 * acc - self.debt
    }
}

/// O(1) scalable reward distribution: the cumulative-counter accounting
/// behind production reward distributors. `accrue` adjusts one
/// participant's shares, `close_epoch` distributes a reward pool across
/// *all* current shares in O(1), and `balance` floors a participant's
/// earned rewards to spendable bytes.
///
/// Every operation is exact in u128 fixed point; the only rounding is
/// the single floor division per epoch (`pool * SCALE / total_shares`)
/// and the final floor to bytes in [`RewardPool::balance`]. A naive
/// ledger that walks every participant at every epoch close with the
/// same per-epoch increment produces bit-identical balances — see the
/// proptest at the bottom of this module.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RewardPool {
    /// Cumulative fixed-point reward per share across all closed epochs.
    acc: u128,
    /// Sum of all live participants' shares.
    total_shares: u64,
    /// Participant snapshots as `(peer, entry)` rows, ascending by peer.
    rows: Vec<(PeerId, PoolEntry)>,
}

impl RewardPool {
    /// An empty pool.
    pub fn new() -> Self {
        RewardPool::default()
    }

    /// The entry of `peer`, if it participates.
    fn entry(&self, peer: PeerId) -> Option<&PoolEntry> {
        let i = self.rows.binary_search_by_key(&peer, |&(p, _)| p).ok()?;
        Some(&self.rows[i].1)
    }

    /// The entry of `peer`, inserted (all zero) on first contact.
    fn entry_mut(&mut self, peer: PeerId) -> &mut PoolEntry {
        let i = match self.rows.binary_search_by_key(&peer, |&(p, _)| p) {
            Ok(i) => i,
            Err(i) => {
                self.rows.insert(i, (peer, PoolEntry::default()));
                i
            }
        };
        &mut self.rows[i].1
    }

    /// Adds `bytes` shares for `peer` (a contribution accrual), first
    /// realizing any rewards the old share count earned.
    pub fn accrue(&mut self, peer: PeerId, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let acc = self.acc;
        Self::accrue_entry(self.entry_mut(peer), bytes, acc);
        self.total_shares += bytes;
    }

    /// Adds `bytes` shares to `entry` under the counter `acc`.
    fn accrue_entry(entry: &mut PoolEntry, bytes: u64, acc: u128) {
        entry.realized_fp = entry.earned_fp(acc);
        entry.shares += bytes;
        entry.debt = entry.shares as u128 * acc;
    }

    /// Raises the shares of each of `peers` to its cumulative
    /// contribution, the `(peer, bytes)` rows of `contributed` (a peer
    /// without a row contributed nothing), exactly as [`Self::accrue`] of
    /// each increase in `peers` order would. Both lists must ascend: the
    /// walk advances one cursor through `contributed` and one through the
    /// pool's rows instead of searching both for every peer.
    fn catch_up(&mut self, peers: &[PeerId], contributed: impl Iterator<Item = (PeerId, u64)>) {
        debug_assert!(
            peers.windows(2).all(|w| w[0] < w[1]),
            "neighbor rows must be strictly ascending"
        );
        let mut contributed = contributed.peekable();
        let mut at = 0usize;
        for &p in peers {
            while contributed.next_if(|&(q, _)| q < p).is_some() {}
            let Some(&(q, bytes)) = contributed.peek() else {
                break;
            };
            if q != p {
                continue;
            }
            while self.rows.get(at).is_some_and(|&(r, _)| r < p) {
                at += 1;
            }
            let present = self.rows.get(at).is_some_and(|&(r, _)| r == p);
            let held = if present { self.rows[at].1.shares } else { 0 };
            if bytes > held {
                if !present {
                    self.rows.insert(at, (p, PoolEntry::default()));
                }
                Self::accrue_entry(&mut self.rows[at].1, bytes - held, self.acc);
                self.total_shares += bytes - held;
            }
        }
    }

    /// Closes an epoch: distributes `pool_bytes` across all current
    /// shares by advancing the cumulative counter once. Returns `true`
    /// when a distribution happened (a pool and at least one share).
    pub fn close_epoch(&mut self, pool_bytes: u64) -> bool {
        if pool_bytes == 0 || self.total_shares == 0 {
            return false;
        }
        self.acc += pool_bytes as u128 * SCALE / self.total_shares as u128;
        true
    }

    /// The spendable byte balance of `peer`: floored earned rewards
    /// minus what has already been spent.
    pub fn balance(&self, peer: PeerId) -> u64 {
        self.entry(peer).map_or(0, |e| {
            ((e.earned_fp(self.acc) / SCALE) as u64).saturating_sub(e.spent)
        })
    }

    /// Records `bytes` spent out of `peer`'s balance.
    pub fn spend(&mut self, peer: PeerId, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let acc = self.acc;
        let entry = self.entry_mut(peer);
        debug_assert!(
            entry.spent + bytes <= (entry.earned_fp(acc) / SCALE) as u64,
            "spend exceeds balance"
        );
        entry.spent += bytes;
    }

    /// Removes `peer` from the pool (a departure), forfeiting its
    /// unspent balance and withdrawing its shares from future epochs.
    /// Returns the forfeited byte balance.
    pub fn remove(&mut self, peer: PeerId) -> u64 {
        let Ok(i) = self.rows.binary_search_by_key(&peer, |&(p, _)| p) else {
            return 0;
        };
        let (_, entry) = self.rows.remove(i);
        self.total_shares -= entry.shares;
        ((entry.earned_fp(self.acc) / SCALE) as u64).saturating_sub(entry.spent)
    }

    /// Current shares of `peer`.
    pub fn shares(&self, peer: PeerId) -> u64 {
        self.entry(peer).map_or(0, |e| e.shares)
    }

    /// Sum of all live shares.
    pub fn total_shares(&self) -> u64 {
        self.total_shares
    }

    /// Fills `out` (cleared first) with the peers of `among` holding a
    /// positive spendable balance, largest balance first (ties broken by
    /// peer id) — the service order for reward-backed uploads. `among`
    /// must not repeat a peer.
    pub fn creditors_into(&self, among: &[PeerId], out: &mut Vec<(PeerId, u64)>) {
        out.clear();
        out.extend(
            among
                .iter()
                .map(|&p| (p, self.balance(p)))
                .filter(|&(_, b)| b > 0),
        );
        // Distinct peers make the order total: an unstable sort is exact.
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    }
}

/// The epoch-settled reward-distribution mechanism.
///
/// # Example
///
/// ```
/// use coop_incentives::mechanisms::EpochSettlement;
/// use coop_incentives::{Mechanism, MechanismParams, SettleCadence};
/// let m = EpochSettlement::new(MechanismParams::default());
/// assert_eq!(m.kind(), coop_incentives::MechanismKind::EpochSettlement);
/// assert_eq!(m.settle_cadence(), SettleCadence::Epoch(16));
/// ```
#[derive(Clone, Debug)]
pub struct EpochSettlement {
    epoch_rounds: u64,
    pool: RewardPool,
    /// `ledger.total_received()` at the last epoch close; the next
    /// epoch's reward pool is the delta since.
    settled_through: u64,
    sticky: StickyTarget,
}

impl EpochSettlement {
    /// Creates the mechanism with `params.epoch_rounds` as the cadence.
    pub fn new(params: MechanismParams) -> Self {
        EpochSettlement {
            epoch_rounds: params.epoch_rounds.max(1),
            pool: RewardPool::new(),
            settled_through: 0,
            sticky: StickyTarget::new(),
        }
    }

    /// Read access to the reward pool, for tests and diagnostics.
    pub fn pool(&self) -> &RewardPool {
        &self.pool
    }

    /// Accrues shares for every neighbor whose cumulative contribution
    /// grew since the last sync. The ledger is the source of truth; the
    /// pool only ever catches up to it, so sync order is irrelevant and
    /// a departed contributor (whose ledger row was forgotten) simply
    /// stops accruing while keeping its earned shares. The neighbor row,
    /// the ledger's rows and the pool's rows all ascend, so one merge
    /// walk serves every neighbor.
    fn sync_shares(&mut self, view: &dyn SwarmView) {
        self.pool
            .catch_up(view.neighbors(), view.ledger().received_rows());
    }
}

impl Mechanism for EpochSettlement {
    fn clone_box(&self) -> Box<dyn Mechanism> {
        Box::new(self.clone())
    }

    fn kind(&self) -> MechanismKind {
        MechanismKind::EpochSettlement
    }

    fn settle_cadence(&self) -> SettleCadence {
        SettleCadence::Epoch(self.epoch_rounds)
    }

    fn allocate_into(
        &mut self,
        view: &dyn SwarmView,
        budget: u64,
        rng: &mut dyn RngCore,
        scratch: &mut AllocScratch,
        out: &mut Vec<Grant>,
    ) {
        self.sync_shares(view);
        let candidates = view.interested_neighbors(&mut scratch.interested);
        if candidates.is_empty() {
            return;
        }
        let mut remaining = budget;
        // Reward-backed uploads: service settled balances of interested
        // neighbors, largest first. Balances only move at epoch
        // boundaries (and by spending here), so the order is stable
        // within an epoch — effectively sticky.
        self.pool.creditors_into(candidates, &mut scratch.balances);
        for &(to, balance) in &scratch.balances {
            if remaining == 0 {
                break;
            }
            let bytes = remaining.min(balance);
            self.pool.spend(to, bytes);
            remaining -= bytes;
            out.push(Grant::new(to, bytes, GrantReason::Reputation));
        }
        // Altruistic fallback: inside an open epoch (or before anyone has
        // settled a balance) spare capacity serves random interested
        // neighbors — the bootstrap channel, and the exploitable surface.
        if remaining > 0 {
            self.sticky.allocate(
                remaining,
                view.piece_size(),
                candidates,
                rng,
                pick_random,
                &mut scratch.chunks,
            );
            push_chunks(&scratch.chunks, GrantReason::Altruism, out);
        }
    }

    fn has_round_end_hook(&self) -> bool {
        true
    }

    fn on_round_end(&mut self, view: &dyn SwarmView) {
        // Shares must accrue on the round cadence, not the visit cadence.
        // The dirty-set round loop legitimately skips quiet uploaders,
        // and a contributor can depart or whitewash while this peer is
        // skipped — its neighbor/ledger rows vanish, so any contribution
        // not yet synced would be lost on the skipping loop only,
        // breaking naive/indexed/dirty equivalence. This hook runs for
        // every active peer every round in all loop modes, which makes
        // the pool a function of the round, never of the visit schedule.
        self.sync_shares(view);
    }

    fn on_epoch_close(&mut self, view: &dyn SwarmView) {
        // Catch up shares for contributions that landed after this
        // round's allocate pass, then distribute the epoch's receipts.
        // No RNG and no shared state: safe inside the sharded hook pass.
        self.sync_shares(view);
        let received = view.ledger().total_received();
        let pool = received.saturating_sub(self.settled_through);
        if self.pool.close_epoch(pool) {
            self.settled_through = received;
        }
        // With no shareholders yet the pool carries into the next epoch
        // (settled_through stays put) instead of evaporating.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::fake::FakeView;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn pid(n: u32) -> PeerId {
        PeerId::new(n)
    }

    // -- RewardPool unit behavior ---------------------------------------

    #[test]
    fn single_contributor_gets_whole_pool() {
        let mut pool = RewardPool::new();
        pool.accrue(pid(1), 1024);
        assert!(pool.close_epoch(4096));
        assert_eq!(pool.balance(pid(1)), 4096);
        // When pool * SCALE does not divide evenly by the shares, the
        // floor division leaves sub-byte dust in the counter — strictly
        // less than one byte per participant per close.
        let mut dusty = RewardPool::new();
        dusty.accrue(pid(1), 1000);
        dusty.close_epoch(4096);
        assert_eq!(dusty.balance(pid(1)), 4095);
    }

    #[test]
    fn pool_splits_proportionally_to_shares() {
        let mut pool = RewardPool::new();
        pool.accrue(pid(1), 300);
        pool.accrue(pid(2), 100);
        pool.close_epoch(4000);
        assert_eq!(pool.balance(pid(1)), 3000);
        assert_eq!(pool.balance(pid(2)), 1000);
    }

    #[test]
    fn late_joiner_earns_only_later_epochs() {
        let mut pool = RewardPool::new();
        pool.accrue(pid(1), 100);
        pool.close_epoch(1000);
        pool.accrue(pid(2), 100);
        pool.close_epoch(1000);
        assert_eq!(pool.balance(pid(1)), 1500);
        assert_eq!(pool.balance(pid(2)), 500);
    }

    #[test]
    fn spending_reduces_balance_without_touching_shares() {
        let mut pool = RewardPool::new();
        pool.accrue(pid(1), 100);
        pool.close_epoch(1000);
        pool.spend(pid(1), 400);
        assert_eq!(pool.balance(pid(1)), 600);
        assert_eq!(pool.shares(pid(1)), 100);
        pool.close_epoch(500);
        assert_eq!(pool.balance(pid(1)), 1100);
    }

    #[test]
    fn removal_forfeits_balance_and_withdraws_shares() {
        let mut pool = RewardPool::new();
        pool.accrue(pid(1), 100);
        pool.accrue(pid(2), 100);
        pool.close_epoch(1000);
        let forfeited = pool.remove(pid(1));
        assert_eq!(forfeited, 500);
        assert_eq!(pool.total_shares(), 100);
        // The survivor now earns the whole next pool.
        pool.close_epoch(700);
        assert_eq!(pool.balance(pid(2)), 1200);
        assert_eq!(pool.balance(pid(1)), 0);
    }

    #[test]
    fn empty_pool_or_zero_rewards_do_not_settle() {
        let mut pool = RewardPool::new();
        assert!(!pool.close_epoch(1000), "no shares, nothing to settle");
        pool.accrue(pid(1), 10);
        assert!(!pool.close_epoch(0), "no pool, nothing to settle");
        assert_eq!(pool.balance(pid(1)), 0);
    }

    #[test]
    fn creditors_sorted_by_balance_then_id() {
        let mut pool = RewardPool::new();
        pool.accrue(pid(3), 100);
        pool.accrue(pid(1), 100);
        pool.accrue(pid(2), 200);
        pool.close_epoch(4000);
        let mut creditors = Vec::new();
        pool.creditors_into(&[pid(1), pid(2), pid(3), pid(4)], &mut creditors);
        assert_eq!(creditors, [(pid(2), 2000), (pid(1), 1000), (pid(3), 1000)]);
        // Peers outside `among` are not listed.
        pool.creditors_into(&[pid(3)], &mut creditors);
        assert_eq!(creditors, [(pid(3), 1000)]);
    }

    // -- The O(1) scheme versus a naive O(N·epochs) reference ledger ----

    /// The obvious per-epoch ledger: walk every participant at every
    /// close and hand each its floored proportional cut, using the same
    /// single rounding point (the per-epoch fixed-point increment) the
    /// pool uses. The scalable pool must match this bit for bit.
    #[derive(Default)]
    struct NaiveLedger {
        shares: BTreeMap<PeerId, u64>,
        earned_fp: BTreeMap<PeerId, u128>,
        spent: BTreeMap<PeerId, u64>,
    }

    impl NaiveLedger {
        fn accrue(&mut self, peer: PeerId, bytes: u64) {
            *self.shares.entry(peer).or_default() += bytes;
        }

        fn close_epoch(&mut self, pool_bytes: u64) {
            let total: u64 = self.shares.values().sum();
            if pool_bytes == 0 || total == 0 {
                return;
            }
            let delta_acc = pool_bytes as u128 * SCALE / total as u128;
            for (&peer, &shares) in &self.shares {
                *self.earned_fp.entry(peer).or_default() += shares as u128 * delta_acc;
            }
        }

        fn spend(&mut self, peer: PeerId, bytes: u64) {
            *self.spent.entry(peer).or_default() += bytes;
        }

        fn remove(&mut self, peer: PeerId) {
            self.shares.remove(&peer);
            self.earned_fp.remove(&peer);
            self.spent.remove(&peer);
        }

        fn balance(&self, peer: PeerId) -> u64 {
            let earned = self.earned_fp.get(&peer).copied().unwrap_or(0);
            let spent = self.spent.get(&peer).copied().unwrap_or(0);
            ((earned / SCALE) as u64).saturating_sub(spent)
        }
    }

    /// One step of an arbitrary pool history.
    #[derive(Clone, Debug)]
    enum Op {
        Accrue { peer: u32, bytes: u64 },
        Close { pool: u64 },
        Spend { peer: u32, fraction_pct: u8 },
        Leave { peer: u32 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // The vendored prop_oneof! is unweighted; bias toward accruals and
        // closes by listing them more than once.
        prop_oneof![
            (0u32..8, 1u64..1_000_000).prop_map(|(peer, bytes)| Op::Accrue { peer, bytes }),
            (0u32..8, 1u64..1_000_000).prop_map(|(peer, bytes)| Op::Accrue { peer, bytes }),
            (0u64..5_000_000u64).prop_map(|pool| Op::Close { pool }),
            (0u64..5_000_000u64).prop_map(|pool| Op::Close { pool }),
            (0u32..8, 0u8..100).prop_map(|(peer, fraction_pct)| Op::Spend { peer, fraction_pct }),
            (0u32..8).prop_map(|peer| Op::Leave { peer }),
        ]
    }

    proptest! {
        /// The tentpole accounting guarantee: for arbitrary
        /// accrual/settlement/spend/departure sequences, the O(1)
        /// cumulative-counter pool reports exactly the balances of the
        /// naive walk-everyone-every-epoch ledger.
        #[test]
        fn scalable_pool_equals_naive_reference(ops in proptest::collection::vec(op_strategy(), 0..120)) {
            let mut pool = RewardPool::new();
            let mut naive = NaiveLedger::default();
            let peers: Vec<PeerId> = (0..8).map(pid).collect();
            let mut creditors = Vec::new();
            for op in ops {
                match op {
                    Op::Accrue { peer, bytes } => {
                        pool.accrue(pid(peer), bytes);
                        naive.accrue(pid(peer), bytes);
                    }
                    Op::Close { pool: pool_bytes } => {
                        pool.close_epoch(pool_bytes);
                        naive.close_epoch(pool_bytes);
                    }
                    Op::Spend { peer, fraction_pct } => {
                        // Spend a balance-derived amount so both sides
                        // stay within budget by construction.
                        let bytes = pool.balance(pid(peer)) * fraction_pct as u64 / 100;
                        pool.spend(pid(peer), bytes);
                        naive.spend(pid(peer), bytes);
                    }
                    Op::Leave { peer } => {
                        pool.remove(pid(peer));
                        naive.remove(pid(peer));
                    }
                }
                for &p in &peers {
                    prop_assert_eq!(
                        pool.balance(p),
                        naive.balance(p),
                        "peer {:?} diverged", p
                    );
                }
                // The service order: positive balances, largest first,
                // ties by id.
                let mut expected: Vec<(PeerId, u64)> = peers
                    .iter()
                    .map(|&p| (p, naive.balance(p)))
                    .filter(|&(_, b)| b > 0)
                    .collect();
                expected.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                pool.creditors_into(&peers, &mut creditors);
                prop_assert_eq!(&creditors, &expected);
            }
        }
    }

    // -- Mechanism behavior ---------------------------------------------

    fn mechanism(epoch_rounds: u64) -> EpochSettlement {
        EpochSettlement::new(MechanismParams {
            epoch_rounds,
            ..MechanismParams::default()
        })
    }

    #[test]
    fn cadence_reflects_params() {
        assert_eq!(mechanism(4).settle_cadence(), SettleCadence::Epoch(4));
        assert!(!mechanism(4).allocate_is_memoryless());
    }

    #[test]
    fn before_any_settlement_all_grants_are_altruistic() {
        let view = FakeView::mutual(&[1, 2, 3]);
        let mut m = mechanism(8);
        let grants = m.allocate(&view, 3000, &mut rng());
        let total: u64 = grants.iter().map(|g| g.bytes).sum();
        assert_eq!(total, 3000);
        assert!(grants.iter().all(|g| g.reason == GrantReason::Altruism));
    }

    #[test]
    fn settled_contributors_are_paid_first() {
        let mut view = FakeView::mutual(&[1, 2]);
        // Peer 1 contributed 10 KiB; peer 2 nothing.
        view.ledger.record_received(pid(1), 10_240);
        let mut m = mechanism(1);
        m.on_epoch_close(&view);
        let grants = m.allocate(&view, 4_096, &mut rng());
        assert_eq!(grants[0].to, pid(1));
        assert_eq!(grants[0].reason, GrantReason::Reputation);
        // The whole epoch pool (10_240 received) belongs to peer 1; a
        // 4_096 budget is entirely reward-backed.
        assert_eq!(grants[0].bytes, 4_096);
        assert_eq!(m.pool().balance(pid(1)), 10_240 - 4_096);
    }

    #[test]
    fn balances_cap_reward_grants_and_surplus_is_altruistic() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.ledger.record_received(pid(1), 1_000);
        let mut m = mechanism(1);
        m.on_epoch_close(&view);
        let grants = m.allocate(&view, 5_000, &mut rng());
        let rewarded: u64 = grants
            .iter()
            .filter(|g| g.reason == GrantReason::Reputation)
            .map(|g| g.bytes)
            .sum();
        let altruistic: u64 = grants
            .iter()
            .filter(|g| g.reason == GrantReason::Altruism)
            .map(|g| g.bytes)
            .sum();
        assert_eq!(rewarded, 1_000, "reward grants stop at the balance");
        assert_eq!(altruistic, 4_000, "the surplus serves the open epoch");
        assert_eq!(m.pool().balance(pid(1)), 0);
    }

    #[test]
    fn unsettled_epoch_never_creates_balances() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.ledger.record_received(pid(1), 50_000);
        let mut m = mechanism(1_000_000);
        // The round loop would never call on_epoch_close within the run;
        // allocate alone must behave exactly like altruism.
        let grants = m.allocate(&view, 2_000, &mut rng());
        assert!(grants.iter().all(|g| g.reason == GrantReason::Altruism));
        assert_eq!(m.pool().balance(pid(1)), 0);
    }

    #[test]
    fn epoch_close_distributes_receipts_once() {
        let mut view = FakeView::mutual(&[1, 2]);
        view.ledger.record_received(pid(1), 3_000);
        view.ledger.record_received(pid(2), 1_000);
        let mut m = mechanism(2);
        m.on_epoch_close(&view);
        assert_eq!(m.pool().balance(pid(1)), 3_000);
        assert_eq!(m.pool().balance(pid(2)), 1_000);
        // A second close with no new receipts is a no-op, not a
        // double-pay.
        m.on_epoch_close(&view);
        assert_eq!(m.pool().balance(pid(1)), 3_000);
        assert_eq!(m.pool().balance(pid(2)), 1_000);
    }

    #[test]
    fn epoch_close_draws_no_rng_and_is_deterministic() {
        let mut view = FakeView::mutual(&[1, 2, 3]);
        view.ledger.record_received(pid(1), 2_048);
        view.ledger.record_received(pid(3), 6_144);
        let run = || {
            let mut m = mechanism(4);
            m.on_epoch_close(&view);
            (m.pool().balance(pid(1)), m.pool().balance(pid(3)))
        };
        assert_eq!(run(), run());
    }
}
