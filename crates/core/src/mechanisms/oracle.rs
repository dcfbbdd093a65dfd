//! Equivalence oracle for the allocation kernels.
//!
//! The structs below keep every mechanism's allocation exactly as it was
//! written before [`Mechanism::allocate_into`] existed: a fresh candidate
//! `Vec` per call, a `Vec` of chunks per sticky target, a `HashMap`
//! shadow in FairTorrent, a `BTreeMap` reward pool, a fresh `Vec<Grant>`
//! per call. The bodies are verbatim apart from the renamed helpers
//! (`old_interested`, `OldSticky`, `OldPool`). The proptest drives each
//! production mechanism and its oracle through the same random sequence
//! of views, budgets and hooks, and asserts identical grants and an
//! identical RNG state after every call.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

use super::extensions::{BitTyrant, PropShare};
use super::pick_random;
use crate::hash::IdMap;
use crate::ledger::ContributionLedger;
use crate::mechanism::{AllocScratch, Grant, GrantReason, Mechanism, MechanismParams};
use crate::view::fake::FakeView;
use crate::view::{Obligation, SwarmView};
use crate::{build_mechanism, MechanismKind, PeerId};

/// The pre-`allocate_into` `interested_neighbors` helper.
fn old_interested(view: &dyn SwarmView) -> Vec<PeerId> {
    view.neighbors()
        .iter()
        .copied()
        .filter(|&p| view.peer_needs_from_me(p))
        .collect()
}

/// The pre-`allocate_into` `StickyTarget`.
#[derive(Clone, Copy, Debug, Default)]
struct OldSticky {
    target: Option<PeerId>,
    remaining: u64,
}

impl OldSticky {
    fn allocate(
        &mut self,
        mut budget: u64,
        piece_size: u64,
        candidates: &[PeerId],
        rng: &mut dyn RngCore,
        mut pick: impl FnMut(&[PeerId], &mut dyn RngCore) -> Option<PeerId>,
    ) -> Vec<(PeerId, u64)> {
        let mut out: Vec<(PeerId, u64)> = Vec::new();
        while budget > 0 {
            let stale = match self.target {
                Some(t) => !candidates.contains(&t) || self.remaining == 0,
                None => true,
            };
            if stale {
                match pick(candidates, rng) {
                    Some(t) => {
                        self.target = Some(t);
                        self.remaining = piece_size;
                    }
                    None => break,
                }
            }
            let t = self.target.expect("just set");
            let bytes = budget.min(self.remaining);
            self.remaining -= bytes;
            budget -= bytes;
            match out.last_mut() {
                Some((last, acc)) if *last == t => *acc += bytes,
                _ => out.push((t, bytes)),
            }
        }
        out
    }
}

/// The calls the round loop makes on a mechanism, in the oracle's shape.
trait Oracle {
    fn allocate(&mut self, view: &dyn SwarmView, budget: u64, rng: &mut dyn RngCore) -> Vec<Grant>;
    fn on_round_end(&mut self, _view: &dyn SwarmView) {}
    fn on_epoch_close(&mut self, _view: &dyn SwarmView) {}
    fn on_chain_outcome(&mut self, _receiver: PeerId, _honored: bool) {}
}

struct OldReciprocity;

impl Oracle for OldReciprocity {
    fn allocate(
        &mut self,
        view: &dyn SwarmView,
        budget: u64,
        _rng: &mut dyn RngCore,
    ) -> Vec<Grant> {
        let ledger = view.ledger();
        let mut creditors: Vec<(u64, crate::PeerId)> = view
            .neighbors()
            .iter()
            .copied()
            .filter(|&p| view.peer_needs_from_me(p))
            .map(|p| (ledger.credit(p), p))
            .filter(|&(c, _)| c > 0)
            .collect();
        // Most generous creditor first; deterministic tie-break by id.
        creditors.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut grants = Vec::new();
        let mut remaining = budget;
        for (credit, peer) in creditors {
            if remaining == 0 {
                break;
            }
            let bytes = credit.min(remaining);
            if bytes == 0 {
                continue;
            }
            remaining -= bytes;
            grants.push(Grant::new(peer, bytes, GrantReason::Reciprocity));
        }
        grants
    }
}

#[derive(Default)]
struct OldAltruism {
    sticky: OldSticky,
}

impl Oracle for OldAltruism {
    fn allocate(&mut self, view: &dyn SwarmView, budget: u64, rng: &mut dyn RngCore) -> Vec<Grant> {
        let candidates = old_interested(view);
        if candidates.is_empty() {
            return Vec::new();
        }
        self.sticky
            .allocate(budget, view.piece_size(), &candidates, rng, |c, rng| {
                pick_random(c, rng)
            })
            .into_iter()
            .map(|(to, bytes)| Grant::new(to, bytes, GrantReason::Altruism))
            .collect()
    }
}

#[derive(Default)]
struct OldFairTorrent {
    sticky: OldSticky,
}

impl Oracle for OldFairTorrent {
    fn allocate(&mut self, view: &dyn SwarmView, budget: u64, rng: &mut dyn RngCore) -> Vec<Grant> {
        let candidates = old_interested(view);
        if candidates.is_empty() {
            return Vec::new();
        }
        let mut planned: HashMap<PeerId, i64> = HashMap::new();
        let ledger = view.ledger();
        let piece = view.piece_size();
        let chunks = self
            .sticky
            .allocate(budget, piece, &candidates, rng, |c, rng| {
                let min = c
                    .iter()
                    .map(|&p| ledger.deficit(p) + planned.get(&p).copied().unwrap_or(0))
                    .min()?;
                let lowest: Vec<PeerId> = c
                    .iter()
                    .copied()
                    .filter(|&p| ledger.deficit(p) + planned.get(&p).copied().unwrap_or(0) == min)
                    .collect();
                let to = *lowest.choose(rng)?;
                *planned.entry(to).or_insert(0) += piece as i64;
                Some(to)
            });
        chunks
            .into_iter()
            .map(|(to, bytes)| Grant::new(to, bytes, GrantReason::Deficit))
            .collect()
    }
}

/// The pre-change reputation sampler (identical in `Reputation` and
/// `ConsensusReputation`).
fn old_sample_by_reputation(
    view: &dyn SwarmView,
    candidates: &[PeerId],
    rng: &mut dyn RngCore,
) -> Option<PeerId> {
    let weights: Vec<f64> = candidates.iter().map(|&p| view.reputation(p)).collect();
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let mut x = rand::Rng::gen_range(rng, 0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return Some(candidates[i]);
        }
        x -= w;
    }
    candidates
        .iter()
        .zip(&weights)
        .rev()
        .find(|(_, &w)| w > 0.0)
        .map(|(&p, _)| p)
}

/// `Reputation` and `ConsensusReputation` before the change: the same
/// body under two names.
struct OldReputation {
    params: MechanismParams,
    weighted: OldSticky,
    altruistic: OldSticky,
}

impl Oracle for OldReputation {
    fn allocate(&mut self, view: &dyn SwarmView, budget: u64, rng: &mut dyn RngCore) -> Vec<Grant> {
        let candidates = old_interested(view);
        if candidates.is_empty() {
            return Vec::new();
        }
        let altruism_budget = (budget as f64 * self.params.alpha_r).round() as u64;
        let reputation_budget = budget - altruism_budget.min(budget);

        let mut grants = Vec::new();
        grants.extend(
            self.weighted
                .allocate(
                    reputation_budget,
                    view.piece_size(),
                    &candidates,
                    rng,
                    |c, rng| old_sample_by_reputation(view, c, rng),
                )
                .into_iter()
                .map(|(to, bytes)| Grant::new(to, bytes, GrantReason::Reputation)),
        );
        grants.extend(
            self.altruistic
                .allocate(
                    altruism_budget,
                    view.piece_size(),
                    &candidates,
                    rng,
                    |c, rng| pick_random(c, rng),
                )
                .into_iter()
                .map(|(to, bytes)| Grant::new(to, bytes, GrantReason::Altruism)),
        );
        grants
    }
}

const UNCHOKE_PERIOD: u64 = 5;
const RATE_ALPHA: f64 = 0.3;

struct OldBitTorrent {
    params: MechanismParams,
    optimistic: OldSticky,
    rates: IdMap<crate::PeerId, f64>,
    unchoked: Vec<crate::PeerId>,
    last_eval: Option<u64>,
}

impl OldBitTorrent {
    fn reevaluate(
        &mut self,
        view: &dyn SwarmView,
        candidates: &[crate::PeerId],
        rng: &mut dyn RngCore,
    ) {
        let mut ranked: Vec<(crate::PeerId, f64)> = candidates
            .iter()
            .map(|&p| (p, self.rates.get(&p).copied().unwrap_or(0.0)))
            .filter(|&(_, r)| r > 0.0)
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("rates are finite")
                .then(a.0.cmp(&b.0))
        });
        self.unchoked = ranked
            .into_iter()
            .map(|(p, _)| p)
            .take(self.params.n_bt)
            .collect();
        if self.unchoked.len() < self.params.n_bt {
            let mut fill: Vec<crate::PeerId> = candidates
                .iter()
                .copied()
                .filter(|p| !self.unchoked.contains(p))
                .collect();
            let free = self.params.n_bt - self.unchoked.len();
            coop_des::rng::shuffle_prefix(&mut fill, rng, free);
            fill.truncate(free);
            self.unchoked.extend(fill);
        }
        self.last_eval = Some(view.round());
    }
}

impl Oracle for OldBitTorrent {
    fn on_round_end(&mut self, view: &dyn SwarmView) {
        let ledger = view.ledger();
        for &p in view.neighbors() {
            let recv = ledger.received_this_round(p) as f64;
            let rate = self.rates.entry(p).or_insert(0.0);
            *rate = (1.0 - RATE_ALPHA) * *rate + RATE_ALPHA * recv;
        }
    }

    fn allocate(&mut self, view: &dyn SwarmView, budget: u64, rng: &mut dyn RngCore) -> Vec<Grant> {
        let candidates = old_interested(view);
        if candidates.is_empty() {
            return Vec::new();
        }
        let altruism_budget = (budget as f64 * self.params.alpha_bt).round() as u64;
        let tft_budget = budget - altruism_budget.min(budget);

        let mut grants = Vec::new();

        let due = match self.last_eval {
            None => true,
            Some(t) => view.round() >= t + UNCHOKE_PERIOD,
        };
        if due {
            self.reevaluate(view, &candidates, rng);
        }
        let unchoked: Vec<crate::PeerId> = self
            .unchoked
            .iter()
            .copied()
            .filter(|p| candidates.contains(p))
            .collect();
        if !unchoked.is_empty() && tft_budget > 0 {
            let share = tft_budget / unchoked.len() as u64;
            let mut leftover = tft_budget - share * unchoked.len() as u64;
            for p in unchoked {
                let extra = if leftover > 0 {
                    leftover -= 1;
                    1
                } else {
                    0
                };
                if share + extra > 0 {
                    grants.push(Grant::new(p, share + extra, GrantReason::TitForTat));
                }
            }
        }

        if altruism_budget > 0 {
            grants.extend(
                self.optimistic
                    .allocate(
                        altruism_budget,
                        view.piece_size(),
                        &candidates,
                        rng,
                        |c, rng| pick_random(c, rng),
                    )
                    .into_iter()
                    .map(|(to, bytes)| Grant::new(to, bytes, GrantReason::OptimisticUnchoke)),
            );
        }
        grants
    }
}

struct OldTChain {
    params: MechanismParams,
    seeding: OldSticky,
    history: HashMap<PeerId, (u32, u32)>,
}

impl OldTChain {
    fn is_defector(&self, peer: PeerId) -> bool {
        let (honored, defaulted) = self.history.get(&peer).copied().unwrap_or((0, 0));
        defaulted >= 2 && defaulted > 2 * honored
    }

    fn reciprocation_target(
        view: &dyn SwarmView,
        j: PeerId,
        rng: &mut dyn RngCore,
    ) -> Option<PeerId> {
        if view.i_need_from(j) {
            return Some(view.me());
        }
        let mut third: Vec<PeerId> = view
            .neighbors()
            .iter()
            .copied()
            .filter(|&k| {
                k != j
                    && k != view.me()
                    && (view.peer_needs_from(k, view.me()) || view.peer_needs_from(k, j))
            })
            .collect();
        coop_des::rng::shuffle_prefix(&mut third, rng, 1);
        third.first().copied()
    }
}

impl Oracle for OldTChain {
    fn on_chain_outcome(&mut self, receiver: PeerId, honored: bool) {
        let entry = self.history.entry(receiver).or_insert((0, 0));
        if honored {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }

    fn allocate(&mut self, view: &dyn SwarmView, budget: u64, rng: &mut dyn RngCore) -> Vec<Grant> {
        let piece = view.piece_size();
        let mut remaining = budget;
        let mut grants = Vec::new();

        let mut obligations: Vec<_> = view.obligations().to_vec();
        obligations.sort_by_key(|o| o.created_round);
        for ob in obligations {
            if remaining == 0 {
                break;
            }
            let target = ob.reciprocate_to;
            if target == view.me() || !view.peer_needs_from_me(target) {
                continue;
            }
            let bytes = remaining.min(piece);
            if target == ob.uploader {
                grants.push(Grant::new(target, bytes, GrantReason::Obligation));
            } else {
                let next = Self::reciprocation_target(view, target, rng).unwrap_or(view.me());
                grants.push(Grant::conditional(
                    target,
                    bytes,
                    GrantReason::Obligation,
                    next,
                ));
            }
            remaining -= bytes;
        }

        let candidates: Vec<PeerId> = old_interested(view)
            .into_iter()
            .filter(|&p| {
                (view.obligation_count(p) < self.params.tchain_max_backlog || view.uploading_to(p))
                    && !self.is_defector(p)
            })
            .collect();
        if candidates.is_empty() {
            return grants;
        }
        for (to, bytes) in self
            .seeding
            .allocate(remaining, piece, &candidates, rng, |c, rng| {
                pick_random(c, rng)
            })
        {
            match Self::reciprocation_target(view, to, rng) {
                Some(target) => {
                    let reason = if target == view.me() {
                        GrantReason::Reciprocity
                    } else {
                        GrantReason::IndirectReciprocity
                    };
                    grants.push(Grant::conditional(to, bytes, reason, target));
                }
                None => continue,
            }
        }
        grants
    }
}

const SCALE: u128 = 1 << 32;

#[derive(Clone, Copy, Debug, Default)]
struct OldPoolEntry {
    shares: u64,
    debt: u128,
    realized_fp: u128,
    spent: u64,
}

impl OldPoolEntry {
    fn earned_fp(&self, acc: u128) -> u128 {
        self.realized_fp + self.shares as u128 * acc - self.debt
    }
}

/// The pre-change `RewardPool`, keyed by a `BTreeMap`.
#[derive(Default)]
struct OldPool {
    acc: u128,
    total_shares: u64,
    entries: BTreeMap<PeerId, OldPoolEntry>,
}

impl OldPool {
    fn accrue(&mut self, peer: PeerId, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let entry = self.entries.entry(peer).or_default();
        entry.realized_fp = entry.earned_fp(self.acc);
        entry.shares += bytes;
        entry.debt = entry.shares as u128 * self.acc;
        self.total_shares += bytes;
    }

    fn close_epoch(&mut self, pool_bytes: u64) -> bool {
        if pool_bytes == 0 || self.total_shares == 0 {
            return false;
        }
        self.acc += pool_bytes as u128 * SCALE / self.total_shares as u128;
        true
    }

    fn balance(&self, peer: PeerId) -> u64 {
        self.entries.get(&peer).map_or(0, |e| {
            ((e.earned_fp(self.acc) / SCALE) as u64).saturating_sub(e.spent)
        })
    }

    fn spend(&mut self, peer: PeerId, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let entry = self.entries.entry(peer).or_default();
        entry.spent += bytes;
    }

    fn shares(&self, peer: PeerId) -> u64 {
        self.entries.get(&peer).map_or(0, |e| e.shares)
    }

    fn creditors(&self) -> Vec<(PeerId, u64)> {
        let mut out: Vec<(PeerId, u64)> = self
            .entries
            .keys()
            .map(|&p| (p, self.balance(p)))
            .filter(|&(_, b)| b > 0)
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[derive(Default)]
struct OldEpoch {
    pool: OldPool,
    settled_through: u64,
    sticky: OldSticky,
}

impl OldEpoch {
    fn sync_shares(&mut self, view: &dyn SwarmView) {
        let ledger = view.ledger();
        for &p in view.neighbors() {
            let contributed = ledger.received_from(p);
            let held = self.pool.shares(p);
            if contributed > held {
                self.pool.accrue(p, contributed - held);
            }
        }
    }
}

impl Oracle for OldEpoch {
    fn allocate(&mut self, view: &dyn SwarmView, budget: u64, rng: &mut dyn RngCore) -> Vec<Grant> {
        self.sync_shares(view);
        let candidates = old_interested(view);
        if candidates.is_empty() {
            return Vec::new();
        }
        let mut grants: Vec<Grant> = Vec::new();
        let mut remaining = budget;
        for (to, balance) in self.pool.creditors() {
            if remaining == 0 {
                break;
            }
            if !candidates.contains(&to) {
                continue;
            }
            let bytes = remaining.min(balance);
            self.pool.spend(to, bytes);
            remaining -= bytes;
            grants.push(Grant::new(to, bytes, GrantReason::Reputation));
        }
        if remaining > 0 {
            grants.extend(
                self.sticky
                    .allocate(remaining, view.piece_size(), &candidates, rng, |c, rng| {
                        pick_random(c, rng)
                    })
                    .into_iter()
                    .map(|(to, bytes)| Grant::new(to, bytes, GrantReason::Altruism)),
            );
        }
        grants
    }

    fn on_round_end(&mut self, view: &dyn SwarmView) {
        self.sync_shares(view);
    }

    fn on_epoch_close(&mut self, view: &dyn SwarmView) {
        self.sync_shares(view);
        let received = view.ledger().total_received();
        let pool = received.saturating_sub(self.settled_through);
        if self.pool.close_epoch(pool) {
            self.settled_through = received;
        }
    }
}

struct OldPropShare {
    params: MechanismParams,
    rates: HashMap<PeerId, f64>,
    optimistic: OldSticky,
}

impl Oracle for OldPropShare {
    fn on_round_end(&mut self, view: &dyn SwarmView) {
        for &p in view.neighbors() {
            let recv = view.ledger().received_this_round(p) as f64;
            let rate = self.rates.entry(p).or_insert(0.0);
            *rate = (1.0 - RATE_ALPHA) * *rate + RATE_ALPHA * recv;
        }
    }

    fn allocate(&mut self, view: &dyn SwarmView, budget: u64, rng: &mut dyn RngCore) -> Vec<Grant> {
        let candidates = old_interested(view);
        if candidates.is_empty() {
            return Vec::new();
        }
        let altruism_budget = (budget as f64 * self.params.alpha_bt).round() as u64;
        let prop_budget = budget - altruism_budget.min(budget);

        let mut grants = Vec::new();
        let contributors: Vec<(PeerId, f64)> = candidates
            .iter()
            .filter_map(|&p| {
                let r = self.rates.get(&p).copied().unwrap_or(0.0);
                (r > 0.0).then_some((p, r))
            })
            .collect();
        let total_rate: f64 = contributors.iter().map(|&(_, r)| r).sum();
        if total_rate > 0.0 && prop_budget > 0 {
            let mut assigned = 0u64;
            for (i, &(p, r)) in contributors.iter().enumerate() {
                let bytes = if i + 1 == contributors.len() {
                    prop_budget - assigned
                } else {
                    (prop_budget as f64 * r / total_rate).floor() as u64
                };
                assigned += bytes;
                if bytes > 0 {
                    grants.push(Grant::new(p, bytes, GrantReason::TitForTat));
                }
            }
        }
        if altruism_budget > 0 {
            grants.extend(
                self.optimistic
                    .allocate(
                        altruism_budget,
                        view.piece_size(),
                        &candidates,
                        rng,
                        |c, rng| pick_random(c, rng),
                    )
                    .into_iter()
                    .map(|(to, bytes)| Grant::new(to, bytes, GrantReason::OptimisticUnchoke)),
            );
        }
        grants
    }
}

#[derive(Clone, Copy)]
struct OldTyrantEstimate {
    expected_return: f64,
    required_upload: f64,
    streak: u32,
}

#[derive(Default)]
struct OldBitTyrant {
    estimates: HashMap<PeerId, OldTyrantEstimate>,
    funded_last_round: HashMap<PeerId, u64>,
    default_required: f64,
}

impl Oracle for OldBitTyrant {
    fn on_round_end(&mut self, view: &dyn SwarmView) {
        let piece = view.piece_size() as f64;
        if self.default_required == 0.0 {
            self.default_required = piece;
        }
        for &p in view.neighbors() {
            let recv = view.ledger().received_this_round(p) as f64;
            let funded = self.funded_last_round.get(&p).copied().unwrap_or(0);
            let e = self.estimates.entry(p).or_insert(OldTyrantEstimate {
                expected_return: 0.0,
                required_upload: piece,
                streak: 0,
            });
            e.expected_return = (1.0 - RATE_ALPHA) * e.expected_return + RATE_ALPHA * recv;
            if funded > 0 {
                if recv > 0.0 {
                    e.streak += 1;
                    if e.streak >= 3 {
                        e.required_upload = (e.required_upload * 0.9).max(piece * 0.1);
                        e.streak = 0;
                    }
                } else {
                    e.required_upload *= 1.2;
                    e.streak = 0;
                }
            }
        }
        self.funded_last_round.clear();
    }

    fn allocate(&mut self, view: &dyn SwarmView, budget: u64, rng: &mut dyn RngCore) -> Vec<Grant> {
        let candidates = old_interested(view);
        if candidates.is_empty() {
            return Vec::new();
        }
        let piece = view.piece_size() as f64;
        let mut ranked: Vec<(PeerId, f64, f64)> = candidates
            .iter()
            .map(|&p| {
                let e = self.estimates.get(&p);
                let ret = e.map_or(piece * 0.5, |e| e.expected_return.max(piece * 0.05));
                let req = e.map_or(piece, |e| e.required_upload).max(1.0);
                (p, ret / req, req)
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite ROI")
                .then(a.0.cmp(&b.0))
        });
        let _ = rng;
        const ROI_CUTOFF: f64 = 0.25;
        let mut grants = Vec::new();
        let mut remaining = budget;
        let mut explored = false;
        for (p, roi, req) in ranked {
            if remaining == 0 {
                break;
            }
            let bytes = if roi >= ROI_CUTOFF {
                (req.ceil() as u64).min(remaining)
            } else if !explored {
                explored = true;
                (piece.ceil() as u64).min(remaining)
            } else {
                continue;
            };
            if bytes == 0 {
                continue;
            }
            remaining -= bytes;
            self.funded_last_round.insert(p, bytes);
            grants.push(Grant::new(p, bytes, GrantReason::TitForTat));
        }
        grants
    }
}

/// The production mechanism and its oracle for one of the ten kernels.
fn pair(name: &str, params: MechanismParams) -> (Box<dyn Mechanism>, Box<dyn Oracle>) {
    let reputation = || OldReputation {
        params,
        weighted: OldSticky::default(),
        altruistic: OldSticky::default(),
    };
    let kind = |k| build_mechanism(k, params);
    match name {
        "reciprocity" => (kind(MechanismKind::Reciprocity), Box::new(OldReciprocity)),
        "altruism" => (kind(MechanismKind::Altruism), Box::<OldAltruism>::default()),
        "reputation" => (kind(MechanismKind::Reputation), Box::new(reputation())),
        "consensus" => (
            kind(MechanismKind::ConsensusReputation),
            Box::new(reputation()),
        ),
        "bittorrent" => (
            kind(MechanismKind::BitTorrent),
            Box::new(OldBitTorrent {
                params,
                optimistic: OldSticky::default(),
                rates: IdMap::default(),
                unchoked: Vec::new(),
                last_eval: None,
            }),
        ),
        "fairtorrent" => (
            kind(MechanismKind::FairTorrent),
            Box::<OldFairTorrent>::default(),
        ),
        "tchain" => (
            kind(MechanismKind::TChain),
            Box::new(OldTChain {
                params,
                seeding: OldSticky::default(),
                history: HashMap::new(),
            }),
        ),
        "epoch" => (
            kind(MechanismKind::EpochSettlement),
            Box::<OldEpoch>::default(),
        ),
        "propshare" => (
            Box::new(PropShare::new(params)),
            Box::new(OldPropShare {
                params,
                rates: HashMap::new(),
                optimistic: OldSticky::default(),
            }),
        ),
        "bittyrant" => (
            Box::new(BitTyrant::new(params)),
            Box::<OldBitTyrant>::default(),
        ),
        other => panic!("no kernel named {other}"),
    }
}

/// A view that serves a prebuilt interested list the way the simulator's
/// does, delegating everything else to a [`FakeView`].
struct Served<'a> {
    inner: &'a FakeView,
    interested: Vec<PeerId>,
}

impl SwarmView for Served<'_> {
    fn me(&self) -> PeerId {
        self.inner.me()
    }
    fn round(&self) -> u64 {
        self.inner.round()
    }
    fn neighbors(&self) -> &[PeerId] {
        self.inner.neighbors()
    }
    fn peer_needs_from_me(&self, peer: PeerId) -> bool {
        self.inner.peer_needs_from_me(peer)
    }
    fn interested_neighbors<'s>(&'s self, _buf: &'s mut Vec<PeerId>) -> &'s [PeerId] {
        &self.interested
    }
    fn i_need_from(&self, peer: PeerId) -> bool {
        self.inner.i_need_from(peer)
    }
    fn peer_needs_from(&self, who: PeerId, from: PeerId) -> bool {
        self.inner.peer_needs_from(who, from)
    }
    fn piece_count(&self, peer: PeerId) -> u32 {
        self.inner.piece_count(peer)
    }
    fn reputation(&self, peer: PeerId) -> f64 {
        self.inner.reputation(peer)
    }
    fn ledger(&self) -> &ContributionLedger {
        self.inner.ledger()
    }
    fn obligations(&self) -> &[Obligation] {
        self.inner.obligations()
    }
    fn uploading_to(&self, peer: PeerId) -> bool {
        self.inner.uploading_to(peer)
    }
    fn obligation_count(&self, peer: PeerId) -> usize {
        self.inner.obligation_count(peer)
    }
    fn piece_size(&self) -> u64 {
        self.inner.piece_size()
    }
}

/// Ids of the little swarm around peer 0.
const SWARM: u32 = 12;

/// Random interest among peer 0 and the swarm, dense or sparse.
fn reroll_interest(view: &mut FakeView, g: &mut SmallRng) {
    let p = [0.2, 0.5, 0.9][g.gen_range(0..3usize)];
    view.interest.clear();
    for a in 0..=SWARM {
        for b in 0..=SWARM {
            if a != b && g.gen_bool(p) {
                view.interest.insert((PeerId::new(a), PeerId::new(b)));
            }
        }
    }
}

/// A random subset of the swarm, ascending like a simulator candidate
/// row or (unless `ascending`) shuffled. `SwarmView::neighbors` promises
/// ascending rows, and EpochSettlement's share sync relies on it; the
/// other kernels also see shuffled rows, which shows their grants do not
/// depend on the order.
fn reroll_neighbors(view: &mut FakeView, g: &mut SmallRng, ascending: bool) {
    let mut ids: Vec<PeerId> = (1..=SWARM).map(PeerId::new).collect();
    ids.shuffle(g);
    ids.truncate(g.gen_range(0..=SWARM as usize));
    if g.gen_bool(0.7) || ascending {
        ids.sort_unstable();
    }
    view.neighbors = ids;
}

/// Random receipts and sends from a small set of sizes, so deficits tie,
/// go negative and stay zero.
fn trade(view: &mut FakeView, g: &mut SmallRng) {
    for _ in 0..g.gen_range(0..6) {
        let p = PeerId::new(g.gen_range(1..=SWARM));
        let bytes: u64 = [0, 250, 500, 1000, 3000][g.gen_range(0..5usize)];
        if g.gen_bool(0.5) {
            view.ledger.record_received(p, bytes);
        } else {
            view.ledger.record_sent(p, bytes);
        }
    }
}

/// Zero and non-zero reputations, with ties.
fn reroll_reputations(view: &mut FakeView, g: &mut SmallRng) {
    view.reputations.clear();
    for i in 1..=SWARM {
        if g.gen_bool(0.5) {
            view.reputations
                .insert(PeerId::new(i), [100.0, 250.0, 1e6][g.gen_range(0..3usize)]);
        }
    }
}

/// Obligations with tied creation rounds and targets inside and outside
/// the neighborhood (and peer 0 itself).
fn reroll_obligations(view: &mut FakeView, g: &mut SmallRng) {
    view.obligations.clear();
    for _ in 0..g.gen_range(0..5) {
        view.obligations.push(Obligation {
            uploader: PeerId::new(g.gen_range(1..=SWARM)),
            reciprocate_to: PeerId::new(g.gen_range(0..=SWARM)),
            piece: g.gen_range(0..8),
            created_round: g.gen_range(0..3),
        });
    }
}

/// Runs `name`'s production kernel and its oracle through one random
/// history of `steps` rounds, checking every allocation.
fn run_history(name: &str, seed: u64, steps: usize, scratch: &mut AllocScratch) {
    let mut g = SmallRng::seed_from_u64(seed);
    let params = MechanismParams {
        alpha_bt: [0.0, 0.2, 0.5][g.gen_range(0..3usize)],
        alpha_r: [0.0, 0.1, 0.5][g.gen_range(0..3usize)],
        n_bt: g.gen_range(1..5),
        tchain_max_backlog: g.gen_range(1..4),
        ..MechanismParams::default()
    };
    let (mut new, mut old) = pair(name, params);
    let ascending = name == "epoch";
    let mut view = FakeView::mutual(&[]);
    view.piece_size = [1000, 1500, 4096][g.gen_range(0..3usize)];
    reroll_neighbors(&mut view, &mut g, ascending);
    reroll_interest(&mut view, &mut g);
    reroll_reputations(&mut view, &mut g);
    reroll_obligations(&mut view, &mut g);
    let sentinel = Grant::new(PeerId::new(999), 7, GrantReason::Seeding);
    let mut out = Vec::new();
    for step in 0..steps {
        view.round = step as u64;
        trade(&mut view, &mut g);
        match g.gen_range(0..8) {
            0 => reroll_neighbors(&mut view, &mut g, ascending),
            1 => reroll_interest(&mut view, &mut g),
            2 => reroll_reputations(&mut view, &mut g),
            3 => reroll_obligations(&mut view, &mut g),
            _ => {}
        }
        // Budgets below, at and above the piece size, and zero.
        let piece = view.piece_size;
        let budget = match g.gen_range(0..5) {
            0 => 0,
            1 => g.gen_range(1..piece),
            2 => piece,
            _ => g.gen_range(piece..6 * piece),
        };
        let rng_seed = g.gen();
        let (mut rng_new, mut rng_old) = (
            SmallRng::seed_from_u64(rng_seed),
            SmallRng::seed_from_u64(rng_seed),
        );
        out.clear();
        out.push(sentinel);
        if g.gen_bool(0.5) {
            let served = Served {
                inner: &view,
                interested: crate::view::collect_interested(&view, &mut Vec::new()).to_vec(),
            };
            new.allocate_into(&served, budget, &mut rng_new, scratch, &mut out);
        } else {
            new.allocate_into(&view, budget, &mut rng_new, scratch, &mut out);
        }
        let expected = old.allocate(&view, budget, &mut rng_old);
        assert_eq!(
            out[0], sentinel,
            "{name} step {step}: cleared the caller's buffer"
        );
        assert_eq!(
            out[1..],
            expected[..],
            "{name} step {step}: grants diverged"
        );
        assert_eq!(
            rng_new.next_u64(),
            rng_old.next_u64(),
            "{name} step {step}: RNG state diverged"
        );
        // Land part of the granted bytes, let a neighbor depart (its
        // ledger row is forgotten before the round ends), then run the
        // round-end, epoch and chain-outcome hooks the round loop would.
        for grant in &out[1..] {
            if g.gen_bool(0.5) {
                view.ledger.record_sent(grant.to, grant.bytes);
            }
        }
        if !view.neighbors.is_empty() && g.gen_bool(0.2) {
            let gone = view.neighbors.remove(g.gen_range(0..view.neighbors.len()));
            view.ledger.forget(gone);
        }
        if g.gen_bool(0.3) {
            let receiver = PeerId::new(g.gen_range(1..=SWARM));
            let honored = g.gen_bool(0.4);
            new.on_chain_outcome(receiver, honored);
            old.on_chain_outcome(receiver, honored);
        }
        new.on_round_end(&view);
        old.on_round_end(&view);
        if g.gen_bool(0.3) {
            new.on_epoch_close(&view);
            old.on_epoch_close(&view);
        }
        view.ledger.end_round();
    }
}

/// One equivalence proptest per kernel. Each feeds one scratch set to
/// every case of its test, so any state left in scratch between calls
/// shows as a divergence. The random histories cover deficit ties and
/// negative deficits, interest subsets, obligations, zero and non-zero
/// reputations, budgets around the piece size and sticky targets carried
/// across calls.
macro_rules! kernel_equivalence {
    ($($test:ident => $name:literal),+ $(,)?) => {$(
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn $test(seed in any::<u64>(), steps in 1usize..24) {
                thread_local! {
                    static SCRATCH: std::cell::RefCell<AllocScratch> = Default::default();
                }
                SCRATCH.with(|s| run_history($name, seed, steps, &mut s.borrow_mut()));
            }
        }
    )+};
}

kernel_equivalence! {
    reciprocity_matches_oracle => "reciprocity",
    altruism_matches_oracle => "altruism",
    reputation_matches_oracle => "reputation",
    consensus_reputation_matches_oracle => "consensus",
    bittorrent_matches_oracle => "bittorrent",
    fairtorrent_matches_oracle => "fairtorrent",
    tchain_matches_oracle => "tchain",
    epoch_settlement_matches_oracle => "epoch",
    propshare_matches_oracle => "propshare",
    bittyrant_matches_oracle => "bittyrant",
}
