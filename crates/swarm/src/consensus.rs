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

use coop_incentives::ConsensusPolicy;

use crate::shard::shard_ranges;

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
    let mut merged: std::collections::BTreeMap<(u32, u32), u64> = std::collections::BTreeMap::new();
    for &(from, to, bytes) in transfers {
        *merged.entry((from, to)).or_insert(0) += bytes;
    }
    let mut pairs: Vec<Pair> = merged
        .iter()
        .map(|(&(from, to), &bytes)| Pair {
            from,
            to,
            claim: bytes,
            ack: bytes,
        })
        .collect();

    let acting = |b: &SlotBehavior| b.online && !b.banned;
    let threshold = f64::from(policy.ban_threshold);

    // 2. Threshold-aware defectors deny acknowledgements, lowest uploader
    // slots first, within the budget that can never push their strikes to
    // the threshold even if every denial is charged to them. The budget
    // reads the post-decay strike level — observable mechanism state —
    // so a defector automatically denies more under lax policies (where
    // denials are charged to the uploader and its own strikes stay low).
    for (d, b) in behaviors.iter().enumerate() {
        if !(b.underreport || b.deny_all) || !acting(b) {
            continue;
        }
        let mut budget = if b.deny_all {
            usize::MAX
        } else {
            let budget = (threshold - 1.0 - strikes.get(d).copied().unwrap_or(0.0)).floor();
            if budget > 0.0 {
                budget as usize
            } else {
                0
            }
        };
        if budget == 0 {
            continue;
        }
        // `pairs` is sorted by (from, to), so scanning in order visits
        // this receiver's uploaders in ascending slot order.
        for p in pairs.iter_mut() {
            if budget == 0 {
                break;
            }
            if p.to == d as u32 && p.ack > 0 {
                p.ack = 0;
                budget -= 1;
            }
        }
    }

    // 3. Sybil stuffers. Ring receivers deny *all* their real receipts:
    // the plausibility pass caps a receiver's acknowledged bytes at what
    // it verifiably received, so the ring frees that budget for
    // fabricated pairs instead. Fabrications are sized to fit the
    // receiver's real budget, which the colluders know.
    let stuffers: Vec<usize> = behaviors
        .iter()
        .enumerate()
        .filter(|(_, b)| b.stuff_reports && acting(b) && b.ring.is_some())
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
        for &s in &stuffers {
            for p in pairs.iter_mut() {
                if p.to == s as u32 {
                    p.ack = 0;
                }
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
        let mut fabricated: Vec<Pair> = Vec::new();
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
                fabricated.push(Pair {
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
                    fabricated.push(Pair {
                        from: s as u32,
                        to: h,
                        claim: piece_size,
                        ack: 0,
                    });
                }
            }
        }
        if !fabricated.is_empty() {
            let mut map: std::collections::BTreeMap<(u32, u32), (u64, u64)> = pairs
                .iter()
                .map(|p| ((p.from, p.to), (p.claim, p.ack)))
                .collect();
            for f in fabricated {
                let e = map.entry((f.from, f.to)).or_insert((0, 0));
                e.0 += f.claim;
                e.1 += f.ack;
            }
            pairs = map
                .iter()
                .map(|(&(from, to), &(claim, ack))| Pair {
                    from,
                    to,
                    claim,
                    ack,
                })
                .collect();
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
    let mut budget: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for &(_, to, bytes) in transfers {
        *budget.entry(to).or_insert(0) += bytes;
    }
    let mut by_receiver: Vec<u32> = (0..pairs.len() as u32).collect();
    by_receiver.sort_by_key(|&i| {
        let p = &pairs[i as usize];
        (p.to, p.from)
    });
    let mut cur: Option<(u32, u64, bool)> = None; // (receiver, spent, struck)
    for &i in &by_receiver {
        let p = &mut pairs[i as usize];
        match cur {
            Some((r, _, _)) if r == p.to => {}
            _ => cur = Some((p.to, 0, false)),
        }
        if p.ack == 0 {
            continue;
        }
        let cap = budget.get(&p.to).copied().unwrap_or(0);
        let (_, spent, struck) = cur.as_mut().expect("set above");
        if *spent + p.ack <= cap {
            *spent += p.ack;
        } else {
            p.ack = 0;
            out.disputes += 1;
            if !*struck {
                out.strikes.push((p.to, 1.0));
                *struck = true;
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
