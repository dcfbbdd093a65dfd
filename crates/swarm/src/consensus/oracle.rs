//! Equivalence oracle for the consensus pass.
//!
//! `old_build_reports` and `old_aggregate` are the report builder and the
//! aggregation as they were written before the sorted-run passes: one
//! scan of every pair per denying receiver and per stuffer, and
//! `BTreeMap` merges and budgets. `old_settle` is the ban step with its
//! two full slot scans. The bodies are verbatim apart from the names and,
//! in `old_settle`, the peer reads, which come from slices. The proptests
//! drive each new pass and its oracle through the same random inputs and
//! assert identical pairs, outcomes, transitions and state.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::*;

/// The report builder before the sorted-run passes.
fn old_build_reports(
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

/// The aggregation before the sorted-run passes.
fn old_aggregate(
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

/// The ban step as the consensus pass wrote it inline: credits, strikes,
/// then a threshold scan and an unban scan over every slot.
#[allow(clippy::needless_range_loop)] // kept as written: slot-indexed scans
fn old_settle(
    c: &mut ConsensusState,
    outcome: &AggregateOutcome,
    round: u64,
    active: &[bool],
    compliant: &[bool],
) -> Vec<Transition> {
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
    for i in 0..active.len() {
        if c.perm_banned[i] || !active[i] {
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
            if compliant[i] {
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
    for i in 0..active.len() {
        if !c.perm_banned[i] && c.banned_until[i] == round + 1 && active[i] {
            transitions.push((i as u32, "unban", c.strikes[i]));
        }
    }
    transitions
}

/// Random behaviors over `n` slots covering every tag combination, with
/// offline and banned slots; slot 0 is an acting ring stuffer that also
/// under-reports.
fn behaviors(g: &mut SmallRng, n: usize) -> Vec<SlotBehavior> {
    let mut behaviors: Vec<SlotBehavior> = (0..n)
        .map(|_| SlotBehavior {
            online: g.gen_bool(0.85),
            banned: g.gen_bool(0.1),
            underreport: g.gen_bool(0.25),
            deny_all: g.gen_bool(0.1),
            stuff_reports: g.gen_bool(0.25),
            ring: [None, None, Some(0), Some(1)][g.gen_range(0..4usize)],
        })
        .collect();
    behaviors[0] = SlotBehavior {
        online: true,
        banned: false,
        underreport: true,
        deny_all: false,
        stuff_reports: true,
        ring: Some(0),
    };
    behaviors
}

/// Random settled transfers among `n` slots, drawn from a small set of
/// edges and sizes so pairs repeat and acks are zero, below, at and above
/// a piece.
fn transfers(g: &mut SmallRng, n: usize) -> Vec<(u32, u32, u64)> {
    let edges: Vec<(u32, u32)> = (0..g.gen_range(1..3 * n))
        .map(|_| (g.gen_range(0..n as u32), g.gen_range(0..n as u32)))
        .filter(|&(from, to)| from != to)
        .collect();
    if edges.is_empty() {
        return Vec::new();
    }
    (0..g.gen_range(0..4 * n))
        .map(|_| {
            let (from, to) = edges[g.gen_range(0..edges.len())];
            (from, to, [0, 1, 40, 64, 100, 4096][g.gen_range(0..6usize)])
        })
        .collect()
}

/// Random merged report pairs, sorted by `(from, to)`, whose acks may
/// exceed any receiver's budget.
fn raw_pairs(g: &mut SmallRng, n: usize) -> Vec<Pair> {
    let mut pairs: Vec<Pair> = (0..g.gen_range(0..3 * n))
        .map(|_| {
            let claim = [0, 40, 64, 100][g.gen_range(0..4usize)];
            Pair {
                from: g.gen_range(0..n as u32),
                to: g.gen_range(0..n as u32),
                claim,
                ack: [0, claim, claim / 2, claim + 64][g.gen_range(0..4usize)],
            }
        })
        .collect();
    pairs.sort_by_key(|p| (p.from, p.to));
    pairs.dedup_by_key(|p| (p.from, p.to));
    pairs
}

fn policy(g: &mut SmallRng) -> ConsensusPolicy {
    ConsensusPolicy {
        quorum: g.gen_range(1..=3),
        ban_threshold: g.gen_range(1..=6),
        decay: [0.0, 0.5, 0.9, 1.0][g.gen_range(0..4usize)],
        temp_ban_rounds: g.gen_range(1..=4),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sorted-run report builder and aggregation equal the per-attacker
    /// scans: identical pairs, and identical outcomes on one and two
    /// shards, both on the built pairs and on arbitrary ones.
    #[test]
    fn consensus_reports_match_oracle(seed in any::<u64>()) {
        let mut g = SmallRng::seed_from_u64(seed);
        let n = g.gen_range(2..=24usize);
        let policy = policy(&mut g);
        let behaviors = behaviors(&mut g, n);
        let threshold = f64::from(policy.ban_threshold);
        let strikes: Vec<f64> = (0..n)
            .map(|_| {
                let below = [0.0, 0.01, 0.5, 1.0, 1.5, 2.5, 4.0][g.gen_range(0..7usize)];
                (threshold - below).max(0.0)
            })
            .collect();
        let transfers = transfers(&mut g, n);
        let piece_size = [16, 64, 4096][g.gen_range(0..3usize)];
        let round = g.gen_range(0..1000);
        let shards = g.gen_range(1..=2);

        let pairs = build_reports(&policy, &transfers, &behaviors, &strikes, piece_size, round);
        let expected = old_build_reports(&policy, &transfers, &behaviors, &strikes, piece_size, round);
        prop_assert_eq!(&pairs, &expected);
        prop_assert_eq!(
            aggregate(&policy, pairs, &transfers, shards),
            old_aggregate(&policy, expected, &transfers, shards)
        );
        let raw = raw_pairs(&mut g, n);
        prop_assert_eq!(
            aggregate(&policy, raw.clone(), &transfers, shards),
            old_aggregate(&policy, raw, &transfers, shards)
        );
    }

    /// Over a random run of rounds, with strikes landing near the
    /// threshold, departures and repeat crossings, the struck-slot and
    /// expiry-queue ban scans equal the full slot scans.
    #[test]
    fn consensus_bans_match_oracle(seed in any::<u64>(), rounds in 1u64..40) {
        let mut g = SmallRng::seed_from_u64(seed);
        let n = g.gen_range(1..=16usize);
        let mut new = ConsensusState::new(policy(&mut g));
        new.ensure_slots(n);
        let mut old = new.clone();
        let mut active = vec![true; n];
        let compliant: Vec<bool> = (0..n).map(|_| g.gen_bool(0.5)).collect();
        for round in 0..rounds {
            if g.gen_bool(0.1) {
                active[g.gen_range(0..n)] = false;
            }
            for c in [&mut new, &mut old] {
                let decay = c.policy.decay;
                c.strikes.iter_mut().for_each(|s| *s *= decay);
                c.scores.iter_mut().for_each(|s| *s *= decay);
            }
            let outcome = AggregateOutcome {
                strikes: (0..g.gen_range(0..2 * n))
                    .map(|_| (g.gen_range(0..n as u32), 1.0))
                    .collect(),
                credits: (0..g.gen_range(0..n))
                    .map(|_| (g.gen_range(0..n as u32), g.gen_range(0..100)))
                    .collect(),
                reports: g.gen_range(0..50),
                disputes: g.gen_range(0..10),
            };
            let transitions = new.settle(&outcome, round, |i| active[i], |i| compliant[i]);
            let expected = old_settle(&mut old, &outcome, round, &active, &compliant);
            prop_assert_eq!(transitions, expected, "round {}", round);
            prop_assert_eq!(&new.strikes, &old.strikes);
            prop_assert_eq!(&new.scores, &old.scores);
            prop_assert_eq!(&new.banned_until, &old.banned_until);
            prop_assert_eq!(&new.temp_bans_served, &old.temp_bans_served);
            prop_assert_eq!(&new.perm_banned, &old.perm_banned);
            prop_assert_eq!(new.max_strikes, old.max_strikes);
            prop_assert_eq!(new.counters, old.counters);
        }
    }
}
