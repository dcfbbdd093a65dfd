//! In-flight transfer bookkeeping.
//!
//! Grants are byte-granular while pieces are discrete, so a transfer
//! accumulates bytes across grants (and rounds) until the piece length is
//! reached. One transfer is in flight per (uploader, downloader) pair at a
//! time, mirroring a single pipelined request.

use std::collections::BTreeSet;

use coop_incentives::hash::IdMap;
use coop_incentives::{GrantReason, PeerId, ReciprocationCondition};

/// A partially transferred piece.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InFlight {
    /// The piece being moved.
    pub piece: u32,
    /// Full length of the piece in bytes.
    pub piece_len: u64,
    /// Bytes transferred so far.
    pub bytes_done: u64,
    /// Reciprocation condition attached when the transfer started (T-Chain
    /// encrypted delivery), if any.
    pub condition: Option<ReciprocationCondition>,
    /// Mechanism component that initiated the transfer.
    pub reason: GrantReason,
    /// Round of the most recent byte of progress (stall detection).
    pub last_progress_round: u64,
}

impl InFlight {
    /// Bytes still missing.
    pub fn remaining(&self) -> u64 {
        self.piece_len - self.bytes_done
    }
}

/// All in-flight transfers, keyed by (uploader, downloader), with a
/// per-uploader index so a peer can cheaply enumerate its outgoing
/// partials and a per-downloader index so a departure touches only the
/// transfers involving the departing peer.
///
/// The per-uploader index may keep targets whose transfer
/// [`Self::drain_stalled`] removed (a later completion or drop of the
/// same pair clears them); [`Self::targets_into`] callers find no transfer
/// for such a target. The per-downloader index is exact.
#[derive(Clone, Debug, Default)]
pub struct TransferTable {
    inner: IdMap<(PeerId, PeerId), InFlight>,
    by_uploader: IdMap<PeerId, BTreeSet<PeerId>>,
    by_downloader: IdMap<PeerId, Vec<PeerId>>,
}

impl TransferTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The transfer currently in flight from `from` to `to`, if any.
    pub fn get(&self, from: PeerId, to: PeerId) -> Option<&InFlight> {
        self.inner.get(&(from, to))
    }

    /// Starts a transfer; replaces any previous entry for the pair.
    ///
    /// # Panics
    ///
    /// Panics if a transfer is already in flight for the pair (callers
    /// must finish or abort it first).
    pub fn start(&mut self, from: PeerId, to: PeerId, inflight: InFlight) {
        let prev = self.inner.insert((from, to), inflight);
        assert!(
            prev.is_none(),
            "transfer already in flight from {from} to {to}"
        );
        self.by_uploader.entry(from).or_default().insert(to);
        self.by_downloader.entry(to).or_default().push(from);
    }

    /// Replaces the contents of `out` with the downloaders this uploader
    /// currently has partials toward, in id order (deterministic). `out`
    /// is caller-owned, so a steady-state drain allocates nothing.
    pub fn targets_into(&self, from: PeerId, out: &mut Vec<PeerId>) {
        out.clear();
        if let Some(set) = self.by_uploader.get(&from) {
            out.extend(set.iter().copied());
        }
    }

    /// All uploaders that currently have outgoing partials (unordered —
    /// callers wanting determinism must sort or treat the set as a set).
    pub fn uploaders(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.by_uploader.keys().copied()
    }

    /// Removes the pair from both indexes (its transfer left `inner`).
    fn unindex(&mut self, from: PeerId, to: PeerId) {
        if let Some(set) = self.by_uploader.get_mut(&from) {
            set.remove(&to);
            if set.is_empty() {
                self.by_uploader.remove(&from);
            }
        }
        self.unindex_downloader(from, to);
    }

    fn unindex_downloader(&mut self, from: PeerId, to: PeerId) {
        if let Some(sources) = self.by_downloader.get_mut(&to) {
            if let Some(i) = sources.iter().position(|&f| f == from) {
                sources.swap_remove(i);
            }
            if sources.is_empty() {
                self.by_downloader.remove(&to);
            }
        }
    }

    /// Adds `bytes` of progress; returns the completed transfer when the
    /// piece finishes (and removes it from the table).
    ///
    /// # Panics
    ///
    /// Panics if no transfer is in flight for the pair or if `bytes`
    /// exceeds the remaining length.
    pub fn progress(
        &mut self,
        from: PeerId,
        to: PeerId,
        bytes: u64,
        round: u64,
    ) -> Option<InFlight> {
        let entry = self
            .inner
            .get_mut(&(from, to))
            .unwrap_or_else(|| panic!("no transfer in flight from {from} to {to}"));
        assert!(
            bytes <= entry.remaining(),
            "progress {bytes} exceeds remaining {}",
            entry.remaining()
        );
        entry.bytes_done += bytes;
        entry.last_progress_round = round;
        if entry.bytes_done == entry.piece_len {
            let done = self.inner.remove(&(from, to));
            self.unindex(from, to);
            done
        } else {
            None
        }
    }

    /// Removes and returns every transfer whose last progress is older
    /// than `before` (stalled requests a real client would re-issue), in
    /// pair order. The uploader's index keeps the drained target (see the
    /// type docs).
    pub fn drain_stalled(&mut self, before: u64) -> Vec<((PeerId, PeerId), InFlight)> {
        let mut keys: Vec<(PeerId, PeerId)> = self
            .inner
            .iter()
            .filter(|(_, fl)| fl.last_progress_round < before)
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|(from, to)| {
                self.unindex_downloader(from, to);
                let fl = self.inner.remove(&(from, to)).expect("key just listed");
                ((from, to), fl)
            })
            .collect()
    }

    /// Drops every transfer involving `peer` (departure/whitewash),
    /// returning the dropped entries as `((from, to), transfer)` pairs in
    /// pair order. Only `peer`'s own index entries are visited.
    pub fn drop_peer(&mut self, peer: PeerId) -> Vec<((PeerId, PeerId), InFlight)> {
        let mut keys: Vec<(PeerId, PeerId)> = self
            .by_uploader
            .get(&peer)
            .into_iter()
            .flatten()
            .map(|&to| (peer, to))
            .chain(
                self.by_downloader
                    .get(&peer)
                    .into_iter()
                    .flatten()
                    .map(|&from| (from, peer)),
            )
            .filter(|k| self.inner.contains_key(k))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|k| {
                self.unindex(k.0, k.1);
                (k, self.inner.remove(&k).expect("key just listed"))
            })
            .collect()
    }

    /// Iterates over all in-flight transfers.
    pub fn iter(&self) -> impl Iterator<Item = (&(PeerId, PeerId), &InFlight)> {
        self.inner.iter()
    }

    /// Number of in-flight transfers.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Returns true when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    fn flight(piece: u32, len: u64) -> InFlight {
        InFlight {
            piece,
            piece_len: len,
            bytes_done: 0,
            condition: None,
            reason: GrantReason::Altruism,
            last_progress_round: 0,
        }
    }

    #[test]
    fn accumulates_until_complete() {
        let mut t = TransferTable::new();
        assert!(t.is_empty());
        t.start(p(0), p(1), flight(7, 1000));
        assert!(t.progress(p(0), p(1), 400, 1).is_none());
        assert_eq!(t.get(p(0), p(1)).unwrap().bytes_done, 400);
        let done = t.progress(p(0), p(1), 600, 2).expect("complete");
        assert_eq!(done.piece, 7);
        assert!(t.get(p(0), p(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds remaining")]
    fn overshoot_panics() {
        let mut t = TransferTable::new();
        t.start(p(0), p(1), flight(0, 100));
        t.progress(p(0), p(1), 101, 0);
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn double_start_panics() {
        let mut t = TransferTable::new();
        t.start(p(0), p(1), flight(0, 100));
        t.start(p(0), p(1), flight(1, 100));
    }

    #[test]
    fn pairs_are_directional() {
        let mut t = TransferTable::new();
        t.start(p(0), p(1), flight(0, 100));
        t.start(p(1), p(0), flight(1, 100));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn targets_index_tracks_lifecycle() {
        let mut t = TransferTable::new();
        t.start(p(0), p(2), flight(0, 100));
        t.start(p(0), p(1), flight(1, 100));
        let mut out = vec![p(9)];
        t.targets_into(p(0), &mut out);
        assert_eq!(out, vec![p(1), p(2)]);
        t.progress(p(0), p(1), 100, 0);
        t.targets_into(p(0), &mut out);
        assert_eq!(out, vec![p(2)]);
        t.drop_peer(p(2));
        t.targets_into(p(0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn drain_stalled_removes_old_transfers() {
        let mut t = TransferTable::new();
        t.start(p(0), p(1), flight(0, 100));
        t.start(p(2), p(3), flight(1, 100));
        t.progress(p(2), p(3), 10, 9); // fresh progress at round 9
        let stalled = t.drain_stalled(5);
        assert_eq!(stalled.len(), 1);
        assert_eq!(stalled[0].0, (p(0), p(1)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn drop_peer_removes_both_directions() {
        let mut t = TransferTable::new();
        t.start(p(0), p(1), flight(0, 100));
        t.start(p(2), p(0), flight(1, 100));
        t.start(p(2), p(3), flight(2, 100));
        let dropped = t.drop_peer(p(0));
        assert_eq!(dropped.len(), 2);
        assert_eq!(t.len(), 1);
        assert!(t.get(p(2), p(3)).is_some());
    }
}
