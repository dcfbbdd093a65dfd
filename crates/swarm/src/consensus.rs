//! Consensus reputation: per-round transfer reports, quorum
//! cross-checking, strikes, and bans.
//!
//! When any peer's mechanism declares a [`ConsensusPolicy`] (the
//! [`MechanismKind::ConsensusReputation`] class), the simulation keeps a
//! [`ConsensusState`] and runs a consensus pass at the end of every
//! round:
//!
//! 1. every settled peer-to-peer transfer of the round yields a *pair* of
//!    reports — the uploader's claim and the receiver's acknowledgement;
//! 2. attacker tags distort the reports deterministically (threshold-aware
//!    under-acking, Sybil report stuffing — see [`build_reports`]);
//! 3. a receiver-plausibility pass voids acknowledgements that exceed the
//!    bytes the receiver verifiably obtained this round;
//! 4. a quorum cross-check, sharded over uploader groups exactly like the
//!    epoch close pass, settles each mismatched pair: an uploader
//!    corroborated by at least `quorum` matched counterparts is believed
//!    (the deviating receiver is struck), an uncorroborated uploader eats
//!    the strike itself;
//! 5. strikes decay multiplicatively each round; crossing the ban
//!    threshold triggers a temporary ban first and a permanent ban on a
//!    repeat crossing. Banned peers are evicted from every candidate set.
//!
//! Everything in this module is pure slot-order arithmetic: no RNG is
//! drawn and no iteration order depends on hashing, so the pass is
//! byte-identical across round-loop modes, `--jobs`, and `--shards`.
//! [`aggregate`] takes an explicit shard count and the sharded result is
//! structurally equal to the sequential one (each uploader group is
//! independent); debug builds re-check that equality in the simulator.
//!
//! The reports live in sorted runs, so a round costs O(T log T) in its
//! T settled transfers plus one O(N) pass over the slots for their
//! behaviors and stuffer targets: pairs are merged by sorting on
//! `(from, to)`, and each distorting receiver's pairs, and each
//! receiver's plausibility budget, are walked once in `(to, from)` order.
//! The ban scans visit only the slots struck this round and the pending
//! temporary-ban expiries ([`ConsensusState::settle`]). `oracle.rs`
//! keeps the earlier per-attacker scans as a test oracle.

use std::collections::VecDeque;

use coop_incentives::ConsensusPolicy;

use crate::shard::shard_ranges;

#[cfg(test)]
mod oracle;

/// Lifetime counters surfaced as `swarm.consensus.*` and in
/// [`crate::ConsensusSummary`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ConsensusCounters {
    /// Individual reports considered (two per transfer pair).
    pub reports: u64,
    /// Pairs that disagreed (mismatched, voided, or phantom).
    pub disputes: u64,
    /// Temporary bans issued.
    pub bans_temp: u64,
    /// Permanent bans issued.
    pub bans_perm: u64,
    /// Bans (either kind) that hit a compliant peer — friendly fire.
    pub bans_compliant: u64,
    /// Bans (either kind) that hit a non-compliant peer.
    pub bans_noncompliant: u64,
}

/// A ban-state change of one slot, emitted by [`ConsensusState::settle`]:
/// `(slot, kind, strikes)` with kind `ban_temp`, `ban_perm` or `unban`.
pub(crate) type Transition = (u32, &'static str, f64);

/// Per-swarm consensus bookkeeping, indexed by peer slot.
#[derive(Clone, Debug)]
pub(crate) struct ConsensusState {
    pub policy: ConsensusPolicy,
    /// Accumulated (decaying) strikes per slot.
    pub strikes: Vec<f64>,
    /// Decaying corroborated-upload score per slot; this is the
    /// reputation the allocator sees.
    pub scores: Vec<f64>,
    /// First round in which a temporary ban no longer applies (0 = never
    /// temp-banned). A slot is banned while `round < banned_until`.
    pub banned_until: Vec<u64>,
    /// Temporary bans served (or started) per slot; a threshold crossing
    /// with a prior temp ban escalates to permanent.
    pub temp_bans_served: Vec<u32>,
    pub perm_banned: Vec<bool>,
    /// The temporary bans not yet expired, as `(banned_until, slot)` in
    /// issue order. Every temporary ban lasts `temp_ban_rounds`, and one
    /// round's bans are issued in slot order, so the queue is sorted and
    /// the unban scan pops its front.
    pub expiries: VecDeque<(u64, u32)>,
    /// High-water mark of any slot's strike level, for summaries.
    pub max_strikes: f64,
    /// Current round's settled peer-to-peer transfers
    /// `(from_slot, to_slot, bytes)`; cleared by the consensus pass.
    pub transfers: Vec<(u32, u32, u64)>,
    pub counters: ConsensusCounters,
}

impl ConsensusState {
    pub fn new(policy: ConsensusPolicy) -> Self {
        ConsensusState {
            policy,
            strikes: Vec::new(),
            scores: Vec::new(),
            banned_until: Vec::new(),
            temp_bans_served: Vec::new(),
            perm_banned: Vec::new(),
            expiries: VecDeque::new(),
            max_strikes: 0.0,
            transfers: Vec::new(),
            counters: ConsensusCounters::default(),
        }
    }

    /// Grows the per-slot vectors to cover `n` peers.
    pub fn ensure_slots(&mut self, n: usize) {
        if self.strikes.len() < n {
            self.strikes.resize(n, 0.0);
            self.scores.resize(n, 0.0);
            self.banned_until.resize(n, 0);
            self.temp_bans_served.resize(n, 0);
            self.perm_banned.resize(n, false);
        }
    }

    /// Records one settled peer-to-peer transfer (the caller excludes the
    /// seeder).
    pub fn record_transfer(&mut self, from: u32, to: u32, bytes: u64) {
        self.transfers.push((from, to, bytes));
    }

    /// Is `slot` banned during `round`? Safe on slots never seen by
    /// `ensure_slots` (new arrivals mid-round).
    pub fn is_banned_slot(&self, slot: u32, round: u64) -> bool {
        let i = slot as usize;
        self.perm_banned.get(i).copied().unwrap_or(false)
            || round < self.banned_until.get(i).copied().unwrap_or(0)
    }

    /// The allocator-facing reputation of `slot`.
    pub fn score_of(&self, slot: u32) -> f64 {
        self.scores.get(slot as usize).copied().unwrap_or(0.0)
    }

    /// Should a ban-evading peer rotate its identity now? True once the
    /// slot is permanently banned, or once a previously temp-banned slot
    /// is a single strike away from a (now permanent) repeat crossing.
    pub fn evade_due(&self, slot: u32) -> bool {
        let i = slot as usize;
        if self.perm_banned.get(i).copied().unwrap_or(false) {
            return true;
        }
        self.temp_bans_served.get(i).copied().unwrap_or(0) >= 1
            && self.strikes.get(i).copied().unwrap_or(0.0) + 1.0
                >= f64::from(self.policy.ban_threshold)
    }

    /// Applies one round's aggregation `outcome` (credits, then strikes)
    /// and returns the round's ban transitions: first
    /// the threshold crossings in slot order — a first crossing bans
    /// temporarily, a repeat crossing after a served temporary ban bans
    /// permanently, and either resets the slot's strikes — then, in slot
    /// order, the active slots whose temporary ban ends at the next round
    /// boundary. `active(slot)` and `compliant(slot)` read the peers.
    ///
    /// Only a slot struck this round can be at the threshold: the
    /// validated policy's threshold is at least one strike, every crossing
    /// resets strikes to zero, the decay in `[0, 1]` only lowers them, and
    /// a departed slot never becomes active again. So the threshold scan
    /// visits the struck slots, and the unban scan pops the due entries of
    /// [`Self::expiries`]. Debug builds assert that both equal the full
    /// slot scans.
    pub fn settle(
        &mut self,
        outcome: &AggregateOutcome,
        round: u64,
        active: impl Fn(usize) -> bool,
        compliant: impl Fn(usize) -> bool,
    ) -> Vec<Transition> {
        self.counters.reports += outcome.reports;
        self.counters.disputes += outcome.disputes;
        for &(slot, credit) in &outcome.credits {
            self.scores[slot as usize] += credit as f64;
        }
        for &(slot, amount) in &outcome.strikes {
            let s = &mut self.strikes[slot as usize];
            *s += amount;
            if *s > self.max_strikes {
                self.max_strikes = *s;
            }
        }
        let threshold = f64::from(self.policy.ban_threshold);
        let crosses = |c: &ConsensusState, i: usize| {
            !c.perm_banned[i] && active(i) && c.strikes[i] >= threshold
        };
        let mut struck: Vec<u32> = outcome.strikes.iter().map(|&(slot, _)| slot).collect();
        struck.sort_unstable();
        struck.dedup();
        struck.retain(|&slot| crosses(self, slot as usize));
        let mut transitions = Vec::new();
        debug_assert_eq!(
            struck,
            (0..self.strikes.len() as u32)
                .filter(|&slot| crosses(self, slot as usize))
                .collect::<Vec<u32>>(),
            "a slot not struck this round is at the ban threshold"
        );
        for slot in struck {
            let i = slot as usize;
            let strikes = self.strikes[i];
            if self.temp_bans_served[i] >= 1 {
                self.perm_banned[i] = true;
                self.scores[i] = 0.0;
                self.counters.bans_perm += 1;
                transitions.push((slot, "ban_perm", strikes));
            } else {
                self.banned_until[i] = round + 1 + self.policy.temp_ban_rounds;
                self.temp_bans_served[i] += 1;
                self.counters.bans_temp += 1;
                self.expiries.push_back((self.banned_until[i], slot));
                transitions.push((slot, "ban_temp", strikes));
            }
            if compliant(i) {
                self.counters.bans_compliant += 1;
            } else {
                self.counters.bans_noncompliant += 1;
            }
            self.strikes[i] = 0.0;
        }
        // Temporary bans expiring at the next round boundary re-admit the
        // peer; surface the transition so adjacency and dirty state pick
        // the edge back up.
        let first_unban = transitions.len();
        while let Some(&(until, slot)) = self.expiries.front() {
            if until > round + 1 {
                break;
            }
            self.expiries.pop_front();
            let i = slot as usize;
            if until == round + 1 && !self.perm_banned[i] && active(i) {
                transitions.push((slot, "unban", self.strikes[i]));
            }
        }
        debug_assert!(
            transitions[first_unban..]
                .iter()
                .map(|&(slot, _, _)| slot)
                .eq((0..self.strikes.len()).filter_map(|i| {
                    (!self.perm_banned[i] && self.banned_until[i] == round + 1 && active(i))
                        .then_some(i as u32)
                })),
            "the expiry queue missed an unban"
        );
        transitions
    }
}

/// One merged report pair: the uploader's byte claim and the receiver's
/// acknowledgement for a `(from, to)` edge this round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Pair {
    pub from: u32,
    pub to: u32,
    pub claim: u64,
    pub ack: u64,
}

/// What the report builder needs to know about a slot's behavior.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SlotBehavior {
    /// Active and not in an outage this round.
    pub online: bool,
    /// Banned this round (banned slots submit no distortions).
    pub banned: bool,
    /// Threshold-aware defector: under-acks received bytes, but only up
    /// to the strike budget that keeps it strictly below the ban
    /// threshold even if every denial is attributed to it.
    pub underreport: bool,
    /// Reckless denier (the ban-evading ring): denies every receipt with
    /// no strike budget — it plans to rotate identities ahead of the
    /// permanent ban instead of staying clean.
    pub deny_all: bool,
    /// Sybil report stuffer: denies its real receipts to free
    /// plausibility budget, then fabricates matched claim/ack pairs with
    /// ring mates and phantom claims against honest bystanders.
    pub stuff_reports: bool,
    /// Collusion-ring membership (stuffers coordinate within a ring).
    pub ring: Option<u16>,
}

/// How many honest bystanders each stuffer lodges phantom claims against
/// per round.
const PHANTOMS_PER_STUFFER: usize = 2;

/// Sorts `pairs` by `(from, to)` and folds each run of equal keys into
/// one pair carrying the summed claim and ack.
fn merge_pairs(pairs: &mut Vec<Pair>) {
    pairs.sort_unstable_by_key(|p| (p.from, p.to));
    pairs.dedup_by(|next, kept| {
        let same = (next.from, next.to) == (kept.from, kept.to);
        if same {
            kept.claim += next.claim;
            kept.ack += next.ack;
        }
        same
    });
}

/// Builds the round's merged, distorted report pairs from the settled
/// transfer list. Honest pairs carry `claim == ack == bytes`; attacker
/// tags then distort acknowledgements and append fabricated pairs. The
/// result is sorted by `(from, to)` with duplicates merged, and the whole
/// construction is deterministic in slot order (no RNG).
pub(crate) fn build_reports(
    policy: &ConsensusPolicy,
    transfers: &[(u32, u32, u64)],
    behaviors: &[SlotBehavior],
    strikes: &[f64],
    piece_size: u64,
    round: u64,
) -> Vec<Pair> {
    // 1. Merge the settled transfers into honest pairs.
    let mut pairs: Vec<Pair> = transfers
        .iter()
        .map(|&(from, to, bytes)| Pair {
            from,
            to,
            claim: bytes,
            ack: bytes,
        })
        .collect();
    merge_pairs(&mut pairs);

    let acting = |b: &SlotBehavior| b.online && !b.banned;
    let stuffs = |b: &SlotBehavior| b.stuff_reports && acting(b) && b.ring.is_some();
    let threshold = f64::from(policy.ban_threshold);

    // 2. Distorting receivers deny acknowledgements, lowest uploader
    // slots first. Threshold-aware defectors stay within the budget that
    // can never push their strikes to the threshold even if every denial
    // is charged to them. The budget reads the post-decay strike level —
    // observable mechanism state — so a defector automatically denies
    // more under lax policies (where denials are charged to the uploader
    // and its own strikes stay low). Reckless deniers have no budget, and
    // Sybil stuffers deny *all* their real receipts: the plausibility
    // pass caps a receiver's acknowledged bytes at what it verifiably
    // received, so the ring frees that budget for fabricated pairs.
    let denial_budget = |d: u32| -> usize {
        let Some(b) = behaviors.get(d as usize) else {
            return 0;
        };
        if !acting(b) {
            0
        } else if b.deny_all || stuffs(b) {
            usize::MAX
        } else if b.underreport {
            let budget =
                (threshold - 1.0 - strikes.get(d as usize).copied().unwrap_or(0.0)).floor();
            if budget > 0.0 {
                budget as usize
            } else {
                0
            }
        } else {
            0
        }
    };
    // The acknowledged pairs of distorting receivers, in `(to, from)`
    // order: `pairs` is sorted by `(from, to)`, so the index orders each
    // receiver's uploaders ascending.
    let mut denials: Vec<u64> = pairs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.ack > 0 && denial_budget(p.to) > 0)
        .map(|(i, p)| (u64::from(p.to) << 32) | i as u64)
        .collect();
    denials.sort_unstable();
    for group in denials.chunk_by(|a, b| a >> 32 == b >> 32) {
        let budget = denial_budget((group[0] >> 32) as u32);
        for &key in group.iter().take(budget) {
            pairs[(key & u64::from(u32::MAX)) as usize].ack = 0;
        }
    }

    // 3. Sybil stuffers fabricate. Fabrications are sized to fit the
    // receiver's real budget, which the colluders know.
    let stuffers: Vec<usize> = behaviors
        .iter()
        .enumerate()
        .filter(|(_, b)| stuffs(b))
        .map(|(i, _)| i)
        .collect();
    if !stuffers.is_empty() {
        let n = behaviors.len();
        let mut capacity = vec![0u64; n];
        for &(_, to, bytes) in transfers {
            if let Some(c) = capacity.get_mut(to as usize) {
                *c += bytes;
            }
        }
        let honest: Vec<u32> = behaviors
            .iter()
            .enumerate()
            .filter(|(_, b)| {
                acting(b) && b.ring.is_none() && !b.underreport && !b.stuff_reports && !b.deny_all
            })
            .map(|(i, _)| i as u32)
            .collect();
        let before = pairs.len();
        for &s in &stuffers {
            let ring = behaviors[s].ring;
            let mut targets = 0usize;
            for &r in &stuffers {
                if targets >= policy.quorum {
                    break;
                }
                if r == s || behaviors[r].ring != ring {
                    continue;
                }
                let amt = piece_size.min(capacity[r]);
                if amt == 0 {
                    continue;
                }
                capacity[r] -= amt;
                pairs.push(Pair {
                    from: s as u32,
                    to: r as u32,
                    claim: amt,
                    ack: amt,
                });
                targets += 1;
            }
            // Phantom claims against rotating honest bystanders; the
            // victim never acknowledges bytes it did not receive, so the
            // pair arrives mismatched and the quorum check attributes it.
            if !honest.is_empty() {
                let start = (round as usize + s) % honest.len();
                for k in 0..PHANTOMS_PER_STUFFER.min(honest.len()) {
                    let h = honest[(start + k) % honest.len()];
                    pairs.push(Pair {
                        from: s as u32,
                        to: h,
                        claim: piece_size,
                        ack: 0,
                    });
                }
            }
        }
        if pairs.len() > before {
            merge_pairs(&mut pairs);
        }
    }
    pairs
}

/// The outcome of one round's aggregation, in canonical order: void-pass
/// strikes in receiver slot order, then quorum results in uploader group
/// order. Strike amounts are all `1.0` and credits are additive, so the
/// application order cannot change the result — but keeping it canonical
/// makes the sharded/sequential equality structural.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct AggregateOutcome {
    /// `(slot, amount)` strike events.
    pub strikes: Vec<(u32, f64)>,
    /// `(uploader_slot, bytes)` corroborated-upload credits.
    pub credits: Vec<(u32, u64)>,
    /// Individual reports considered (two per pair).
    pub reports: u64,
    /// Disputed pairs (voided, denied, or phantom).
    pub disputes: u64,
}

/// Cross-checks the round's report pairs.
///
/// First the sequential receiver-plausibility pass: a receiver's
/// acknowledged bytes, scanned in uploader slot order, must fit within
/// the bytes it actually received this round (`transfers` is ground
/// truth); overflowing acks are voided and the receiver is struck once.
/// Then the quorum pass, sharded over uploader groups with
/// [`shard_ranges`]: per uploader, matched pairs (`claim == ack > 0`)
/// corroborate; each mismatched pair is a dispute resolved against the
/// receiver when corroboration reaches `policy.quorum` (the uploader is
/// additionally credited its claim) and against the uploader otherwise.
/// Uploader groups are independent, so any shard count yields the same
/// outcome; workers are merged in shard order == uploader order.
pub(crate) fn aggregate(
    policy: &ConsensusPolicy,
    mut pairs: Vec<Pair>,
    transfers: &[(u32, u32, u64)],
    shards: usize,
) -> AggregateOutcome {
    let mut out = AggregateOutcome {
        reports: 2 * pairs.len() as u64,
        ..AggregateOutcome::default()
    };

    // Receiver-plausibility void pass (sequential; receiver slot order).
    // Budgets are `(to, bytes)` runs sorted by receiver, read once per
    // receiver by a cursor that only moves forward.
    let mut budgets: Vec<(u32, u64)> = transfers.iter().map(|&(_, to, b)| (to, b)).collect();
    budgets.sort_unstable_by_key(|&(to, _)| to);
    budgets.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    // Zero acks are never voided, so only acknowledged pairs are walked.
    let mut by_receiver: Vec<(u32, u32, u32)> = pairs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.ack > 0)
        .map(|(i, p)| (p.to, p.from, i as u32))
        .collect();
    by_receiver.sort_unstable();
    let mut budget = budgets.iter().peekable();
    for group in by_receiver.chunk_by(|a, b| a.0 == b.0) {
        let to = group[0].0;
        while budget.next_if(|&&(r, _)| r < to).is_some() {}
        let cap = budget
            .peek()
            .filter(|&&&(r, _)| r == to)
            .map_or(0, |&&(_, b)| b);
        let (mut spent, mut struck) = (0u64, false);
        for &(_, _, i) in group {
            let p = &mut pairs[i as usize];
            if spent + p.ack <= cap {
                spent += p.ack;
            } else {
                p.ack = 0;
                out.disputes += 1;
                if !struck {
                    out.strikes.push((to, 1.0));
                    struck = true;
                }
            }
        }
    }

    // Quorum cross-check, sharded over uploader groups.
    let mut groups: Vec<std::ops::Range<usize>> = Vec::new();
    let mut start = 0usize;
    for i in 1..=pairs.len() {
        if i == pairs.len() || pairs[i].from != pairs[start].from {
            groups.push(start..i);
            start = i;
        }
    }
    let quorum_check = |range: &std::ops::Range<usize>, out: &mut AggregateOutcome| {
        for g in groups[range.clone()].iter() {
            let group = &pairs[g.clone()];
            let uploader = group[0].from;
            let matched = group
                .iter()
                .filter(|p| p.claim == p.ack && p.claim > 0)
                .count();
            let mut credit: u64 = group
                .iter()
                .filter(|p| p.claim == p.ack && p.claim > 0)
                .map(|p| p.ack)
                .sum();
            for p in group.iter().filter(|p| p.ack < p.claim) {
                out.disputes += 1;
                if matched >= policy.quorum {
                    out.strikes.push((p.to, 1.0));
                    credit += p.claim;
                } else {
                    out.strikes.push((uploader, 1.0));
                }
            }
            if credit > 0 {
                out.credits.push((uploader, credit));
            }
        }
    };
    if shards <= 1 || groups.len() < 2 {
        let whole = 0..groups.len();
        quorum_check(&whole, &mut out);
    } else {
        let ranges = shard_ranges(groups.len(), shards);
        let mut parts: Vec<AggregateOutcome> = Vec::with_capacity(ranges.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|range| {
                    let quorum_check = &quorum_check;
                    let range = range.clone();
                    scope.spawn(move || {
                        let mut part = AggregateOutcome::default();
                        quorum_check(&range, &mut part);
                        part
                    })
                })
                .collect();
            for h in handles {
                parts.push(h.join().expect("consensus shard worker panicked"));
            }
        });
        for part in parts {
            out.strikes.extend(part.strikes);
            out.credits.extend(part.credits);
            out.disputes += part.disputes;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(quorum: usize, threshold: u32) -> ConsensusPolicy {
        ConsensusPolicy {
            quorum,
            ban_threshold: threshold,
            decay: 0.9,
            temp_ban_rounds: 16,
        }
    }

    fn honest(n: usize) -> Vec<SlotBehavior> {
        vec![
            SlotBehavior {
                online: true,
                ..SlotBehavior::default()
            };
            n
        ]
    }

    #[test]
    fn honest_reports_match_and_credit_the_uploaders() {
        let p = policy(2, 4);
        let transfers = vec![(0, 1, 100), (0, 2, 50), (3, 1, 25), (0, 1, 10)];
        let pairs = build_reports(&p, &transfers, &honest(4), &[0.0; 4], 64, 0);
        // (0,1) merged to 110.
        assert_eq!(pairs.len(), 3);
        let out = aggregate(&p, pairs, &transfers, 1);
        assert_eq!(out.reports, 6);
        assert_eq!(out.disputes, 0);
        assert!(out.strikes.is_empty());
        assert_eq!(out.credits, vec![(0, 160), (3, 25)]);
    }

    #[test]
    fn corroborated_uploader_pins_the_denial_on_the_defector() {
        let p = policy(2, 4);
        // Uploader 0 serves three receivers; receiver 3 denies.
        let transfers = vec![(0, 1, 100), (0, 2, 100), (0, 3, 100)];
        let mut behaviors = honest(4);
        behaviors[3].underreport = true;
        let pairs = build_reports(&p, &transfers, &behaviors, &[0.0; 4], 64, 0);
        let out = aggregate(&p, pairs, &transfers, 1);
        assert_eq!(out.disputes, 1);
        assert_eq!(out.strikes, vec![(3, 1.0)]);
        // Uploader keeps the denied claim on top of the matched bytes.
        assert_eq!(out.credits, vec![(0, 300)]);
    }

    #[test]
    fn uncorroborated_uploader_eats_the_strike() {
        let p = policy(2, 4);
        // Uploader 0 only served the defector this round: no quorum.
        let transfers = vec![(0, 3, 100)];
        let mut behaviors = honest(4);
        behaviors[3].underreport = true;
        let pairs = build_reports(&p, &transfers, &behaviors, &[0.0; 4], 64, 0);
        let out = aggregate(&p, pairs, &transfers, 1);
        assert_eq!(out.disputes, 1);
        assert_eq!(out.strikes, vec![(0, 1.0)]);
        assert!(out.credits.is_empty());
    }

    #[test]
    fn defector_denial_budget_respects_the_threshold() {
        let p = policy(1, 4);
        // Slot 3 already carries 1.2 strikes: budget = floor(4-1-1.2) = 1,
        // so only the lowest uploader slot is denied.
        let transfers = vec![(0, 3, 10), (1, 3, 10), (2, 3, 10)];
        let mut behaviors = honest(4);
        behaviors[3].underreport = true;
        let strikes = [0.0, 0.0, 0.0, 1.2];
        let pairs = build_reports(&p, &transfers, &behaviors, &strikes, 64, 0);
        let denied: Vec<u32> = pairs
            .iter()
            .filter(|p| p.ack < p.claim)
            .map(|p| p.from)
            .collect();
        assert_eq!(denied, vec![0]);
        // At 3.1 strikes the budget is zero.
        let strikes = [0.0, 0.0, 0.0, 3.1];
        let pairs = build_reports(&p, &transfers, &behaviors, &strikes, 64, 0);
        assert!(pairs.iter().all(|p| p.ack == p.claim));
    }

    #[test]
    fn reckless_denier_ignores_the_strike_budget() {
        let p = policy(1, 4);
        // Slot 3 already sits at 3.5 strikes — a threshold-aware defector
        // would deny nothing, a ban evader denies everything.
        let transfers = vec![(0, 3, 10), (1, 3, 10), (2, 3, 10)];
        let mut behaviors = honest(4);
        behaviors[3].deny_all = true;
        let strikes = [0.0, 0.0, 0.0, 3.5];
        let pairs = build_reports(&p, &transfers, &behaviors, &strikes, 64, 0);
        assert!(pairs.iter().filter(|q| q.to == 3).all(|q| q.ack == 0));
    }

    #[test]
    fn implausible_acks_are_voided_and_strike_the_receiver() {
        let p = policy(2, 4);
        // Receiver 1 actually got 100 bytes but a fabricated pair acks 80
        // more than it could have received.
        let transfers = vec![(0, 1, 100)];
        let pairs = vec![
            Pair {
                from: 0,
                to: 1,
                claim: 100,
                ack: 100,
            },
            Pair {
                from: 2,
                to: 1,
                claim: 80,
                ack: 80,
            },
        ];
        let out = aggregate(&p, pairs, &transfers, 1);
        // The overflowing ack is voided (one dispute), the receiver is
        // struck once, and uploader 2 gains no quorum so the now-
        // mismatched pair strikes it too.
        assert!(out.disputes >= 2);
        assert!(out.strikes.contains(&(1, 1.0)));
        assert!(out.strikes.contains(&(2, 1.0)));
        assert_eq!(out.credits, vec![(0, 100)]);
    }

    #[test]
    fn stuffer_ring_frees_budget_and_frames_honest_bystanders() {
        let p = policy(1, 4);
        // Slots 3 and 4 are ring stuffers; each receives 64 real bytes
        // from uploader 0, which they deny to make room for fabrication.
        let transfers = vec![(0, 3, 64), (0, 4, 64), (0, 1, 64), (0, 2, 64)];
        let mut behaviors = honest(5);
        for s in [3, 4] {
            behaviors[s].stuff_reports = true;
            behaviors[s].ring = Some(0);
        }
        let pairs = build_reports(&p, &transfers, &behaviors, &[0.0; 5], 64, 7);
        // Fabricated matched pairs 3<->4 fit the 64-byte real budget.
        assert!(pairs
            .iter()
            .any(|q| q.from == 3 && q.to == 4 && q.claim == 64 && q.ack == 64));
        // Phantom claims against honest bystanders arrive unacked.
        assert!(pairs
            .iter()
            .any(|q| q.from == 3 && q.ack == 0 && q.claim == 64 && (q.to == 1 || q.to == 2)));
        let out = aggregate(&p, pairs, &transfers, 1);
        // With quorum 1 the fabricated corroboration makes the phantom
        // stick: some honest bystander is struck...
        assert!(out.strikes.iter().any(|&(s, _)| s == 1 || s == 2));
        // ...but the ring's denial of uploader 0's real (quorum-backed)
        // pairs strikes the stuffers as well.
        assert!(out.strikes.iter().any(|&(s, _)| s == 3 || s == 4));
    }

    #[test]
    fn sharded_aggregation_matches_sequential() {
        let p = policy(2, 4);
        // A synthetic workload with many uploaders, a defector, and a
        // stuffer ring, to exercise all branches.
        let mut transfers = Vec::new();
        for u in 0u32..40 {
            for r in 0u32..4 {
                let to = (u + r + 1) % 48;
                transfers.push((u, to, 64 + u as u64 * 7 + r as u64));
            }
        }
        let mut behaviors = honest(48);
        behaviors[41].underreport = true;
        behaviors[42].underreport = true;
        for s in [44, 45, 46] {
            behaviors[s].stuff_reports = true;
            behaviors[s].ring = Some(1);
        }
        let strikes = vec![0.4; 48];
        let pairs = build_reports(&p, &transfers, &behaviors, &strikes, 64, 3);
        let seq = aggregate(&p, pairs.clone(), &transfers, 1);
        for shards in [2, 3, 8] {
            let sharded = aggregate(&p, pairs.clone(), &transfers, shards);
            assert_eq!(seq, sharded, "shards={shards}");
        }
        assert!(seq.reports > 0);
    }

    #[test]
    fn state_bans_and_evasion_triggers() {
        let mut c = ConsensusState::new(policy(2, 4));
        c.ensure_slots(3);
        assert!(!c.is_banned_slot(1, 10));
        c.banned_until[1] = 12;
        assert!(c.is_banned_slot(1, 10));
        assert!(!c.is_banned_slot(1, 12));
        c.perm_banned[2] = true;
        assert!(c.is_banned_slot(2, 1_000_000));
        assert!(c.evade_due(2));
        // Slot 0: temp ban served and strikes one below the threshold.
        c.temp_bans_served[0] = 1;
        c.strikes[0] = 3.0;
        assert!(c.evade_due(0));
        c.strikes[0] = 2.9;
        assert!(!c.evade_due(0));
        // Unknown slots are never banned.
        assert!(!c.is_banned_slot(99, 5));
    }
}
