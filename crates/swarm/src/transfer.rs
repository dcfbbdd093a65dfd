//! In-flight transfer bookkeeping.
//!
//! Grants are byte-granular while pieces are discrete, so a transfer
//! accumulates bytes across grants (and rounds) until the piece length is
//! reached. One transfer is in flight per (uploader, downloader) pair at a
//! time, mirroring a single pipelined request.

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

/// One slot of an uploader's row: a target and the transfer in flight
/// toward it, or `None` for a stale target [`TransferTable::drain_stalled`]
/// left behind.
#[derive(Clone, Copy, Debug)]
struct Entry {
    to: PeerId,
    flight: Option<InFlight>,
}

/// One uploader's targets, ascending.
#[derive(Clone, Debug, Default)]
struct Row {
    entries: Vec<Entry>,
    /// Entries that hold a transfer.
    live: u32,
    /// On [`TransferTable::listed`].
    listed: bool,
    /// On [`TransferTable::busy`].
    busy: bool,
}

impl Row {
    fn find(&self, to: PeerId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&to, |e| e.to)
    }
}

/// The outcome of one [`TransferTable::advance`] step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Advance {
    /// Bytes moved: the requested maximum or the piece's remainder,
    /// whichever is smaller.
    pub step: u64,
    /// Mechanism component that started the transfer.
    pub reason: GrantReason,
    /// The transfer, when this step completed its piece (it has then left
    /// the table).
    pub done: Option<InFlight>,
}

/// The row index of a peer id: the seeder (`u32::MAX`) is lane 0 and peer
/// slot `i` is lane `i + 1`, so every uploader, the seeder included, has
/// a row of its own.
fn lane(id: PeerId) -> usize {
    id.index().wrapping_add(1) as usize
}

/// The peer id of a lane ([`lane`] inverted).
fn lane_id(lane: usize) -> PeerId {
    PeerId::new((lane as u32).wrapping_sub(1))
}

/// All in-flight transfers, in one row per uploader indexed by peer slot
/// (the seeder has its own row) and sorted by target, plus a source list
/// per downloader so a departure touches only the transfers involving the
/// departing peer. Both are sized lazily, to the largest slot that has
/// uploaded or downloaded.
///
/// A row may keep targets whose transfer [`Self::drain_stalled`] removed
/// (a later completion or drop of the same pair clears them);
/// [`Self::targets_into`] and [`Self::uploaders`] still report them, and
/// callers find no transfer for such a target. The source lists are
/// exact.
#[derive(Clone, Debug, Default)]
pub struct TransferTable {
    rows: Vec<Row>,
    /// By downloader lane: the uploaders with a transfer toward it.
    sources: Vec<Vec<PeerId>>,
    /// Every uploader whose row holds an entry, perhaps with uploaders
    /// whose row has since emptied (dropped by [`Self::drain_stalled`]).
    listed: Vec<PeerId>,
    /// Every uploader with a transfer in flight, perhaps with uploaders
    /// whose transfers have since ended (dropped by
    /// [`Self::drain_stalled`]).
    busy: Vec<PeerId>,
    len: usize,
}

impl TransferTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The transfer currently in flight from `from` to `to`, if any.
    pub fn get(&self, from: PeerId, to: PeerId) -> Option<&InFlight> {
        let row = self.rows.get(lane(from))?;
        row.entries[row.find(to).ok()?].flight.as_ref()
    }

    /// Starts a transfer.
    ///
    /// # Panics
    ///
    /// Panics if a transfer is already in flight for the pair (callers
    /// must finish or abort it first).
    pub fn start(&mut self, from: PeerId, to: PeerId, inflight: InFlight) {
        let l = lane(from);
        if self.rows.len() <= l {
            self.rows.resize_with(l + 1, Row::default);
        }
        let row = &mut self.rows[l];
        match row.find(to) {
            Ok(i) => {
                let slot = &mut row.entries[i].flight;
                assert!(
                    slot.is_none(),
                    "transfer already in flight from {from} to {to}"
                );
                *slot = Some(inflight);
            }
            Err(i) => row.entries.insert(
                i,
                Entry {
                    to,
                    flight: Some(inflight),
                },
            ),
        }
        row.live += 1;
        if !row.listed {
            row.listed = true;
            self.listed.push(from);
        }
        if !row.busy {
            row.busy = true;
            self.busy.push(from);
        }
        let d = lane(to);
        if self.sources.len() <= d {
            self.sources.resize_with(d + 1, Vec::new);
        }
        self.sources[d].push(from);
        self.len += 1;
    }

    /// Replaces the contents of `out` with the targets of this uploader's
    /// row, in id order (deterministic). `out` is caller-owned, so a
    /// steady-state drain allocates nothing.
    pub fn targets_into(&self, from: PeerId, out: &mut Vec<PeerId>) {
        out.clear();
        if let Some(row) = self.rows.get(lane(from)) {
            out.extend(row.entries.iter().map(|e| e.to));
        }
    }

    /// All uploaders whose row holds a target (unordered — callers wanting
    /// determinism must sort or treat the set as a set).
    pub fn uploaders(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.listed
            .iter()
            .copied()
            .filter(|&up| !self.rows[lane(up)].entries.is_empty())
    }

    /// Moves up to `max` bytes of the transfer from `from` to `to`,
    /// stamping `round` as its last progress, with one row lookup. Returns
    /// `None` when no transfer is in flight for the pair; otherwise the
    /// bytes moved, the transfer's reason and, when the piece finished,
    /// the transfer (removed from the table).
    pub fn advance(&mut self, from: PeerId, to: PeerId, max: u64, round: u64) -> Option<Advance> {
        let l = lane(from);
        let row = self.rows.get_mut(l)?;
        let i = row.find(to).ok()?;
        let fl = row.entries[i].flight.as_mut()?;
        let step = max.min(fl.remaining());
        fl.bytes_done += step;
        fl.last_progress_round = round;
        let reason = fl.reason;
        let done = (fl.bytes_done == fl.piece_len).then(|| self.complete(l, i));
        Some(Advance { step, reason, done })
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
        let remaining = self
            .get(from, to)
            .unwrap_or_else(|| panic!("no transfer in flight from {from} to {to}"))
            .remaining();
        assert!(
            bytes <= remaining,
            "progress {bytes} exceeds remaining {remaining}"
        );
        self.advance(from, to, bytes, round)
            .expect("transfer just found")
            .done
    }

    /// Removes entry `i` of lane `l`'s row (which holds a transfer) and
    /// its source-list entry, returning the transfer.
    fn complete(&mut self, l: usize, i: usize) -> InFlight {
        let row = &mut self.rows[l];
        let Entry { to, flight } = row.entries.remove(i);
        row.live -= 1;
        unlist_source(&mut self.sources[lane(to)], lane_id(l));
        self.len -= 1;
        flight.expect("completed entry holds a transfer")
    }

    /// Removes and returns every transfer whose last progress is older
    /// than `before` (stalled requests a real client would re-issue), in
    /// pair order. Each drained target stays in its uploader's row (see
    /// the type docs). Visits only the uploaders with a transfer in
    /// flight.
    pub fn drain_stalled(&mut self, before: u64) -> Vec<((PeerId, PeerId), InFlight)> {
        let mut out = Vec::new();
        let (rows, sources, len) = (&mut self.rows, &mut self.sources, &mut self.len);
        self.busy.retain(|&up| {
            let row = &mut rows[lane(up)];
            if row.live > 0 {
                for e in &mut row.entries {
                    if e.flight.is_some_and(|fl| fl.last_progress_round < before) {
                        let fl = e.flight.take().expect("just checked");
                        unlist_source(&mut sources[lane(e.to)], up);
                        row.live -= 1;
                        *len -= 1;
                        out.push(((up, e.to), fl));
                    }
                }
            }
            row.busy = row.live > 0;
            row.busy
        });
        self.listed.retain(|&up| {
            let row = &mut rows[lane(up)];
            row.listed = !row.entries.is_empty();
            row.listed
        });
        out.sort_unstable_by_key(|&(pair, _)| pair);
        out
    }

    /// Drops every transfer involving `peer` (departure/whitewash),
    /// returning the dropped entries as `((from, to), transfer)` pairs in
    /// pair order. Only `peer`'s own row and source list are visited;
    /// stale targets in `peer`'s row stay.
    pub fn drop_peer(&mut self, peer: PeerId) -> Vec<((PeerId, PeerId), InFlight)> {
        let mut out = Vec::new();
        if let Some(row) = self.rows.get_mut(lane(peer)) {
            let sources = &mut self.sources;
            row.entries.retain(|e| match e.flight {
                Some(fl) => {
                    unlist_source(&mut sources[lane(e.to)], peer);
                    out.push(((peer, e.to), fl));
                    false
                }
                None => true,
            });
            row.live = 0;
        }
        if let Some(from_list) = self.sources.get_mut(lane(peer)) {
            for from in std::mem::take(from_list) {
                let row = &mut self.rows[lane(from)];
                let i = row.find(peer).expect("source lists name live rows");
                let Entry { flight, .. } = row.entries.remove(i);
                row.live -= 1;
                out.push(((from, peer), flight.expect("source lists are exact")));
            }
        }
        self.len -= out.len();
        out.sort_unstable_by_key(|&(pair, _)| pair);
        out
    }

    /// Iterates over all in-flight transfers in pair order.
    pub fn iter(&self) -> impl Iterator<Item = ((PeerId, PeerId), &InFlight)> {
        let peers = self.rows.iter().enumerate().skip(1);
        let seeder = self.rows.iter().enumerate().take(1);
        peers.chain(seeder).flat_map(|(l, row)| {
            row.entries
                .iter()
                .filter_map(move |e| Some(((lane_id(l), e.to), e.flight.as_ref()?)))
        })
    }

    /// Number of in-flight transfers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Removes `from` from one downloader's source list.
fn unlist_source(list: &mut Vec<PeerId>, from: PeerId) {
    if let Some(i) = list.iter().position(|&f| f == from) {
        list.swap_remove(i);
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
    fn advance_moves_at_most_the_remainder() {
        let mut t = TransferTable::new();
        assert_eq!(t.advance(p(0), p(1), 50, 0), None, "no transfer yet");
        t.start(p(0), p(1), flight(3, 100));
        let a = t.advance(p(0), p(1), 60, 4).expect("in flight");
        assert_eq!(
            (a.step, a.reason, a.done),
            (60, GrantReason::Altruism, None)
        );
        let fl = t.get(p(0), p(1)).unwrap();
        assert_eq!((fl.bytes_done, fl.last_progress_round), (60, 4));
        let a = t.advance(p(0), p(1), 500, 5).expect("in flight");
        assert_eq!(a.step, 40, "clamped to the remainder");
        assert_eq!(a.done.map(|d| (d.piece, d.bytes_done)), Some((3, 100)));
        assert!(t.is_empty());
        assert_eq!(t.advance(p(0), p(1), 1, 6), None);
    }

    #[test]
    fn seeder_has_a_row_of_its_own() {
        let seeder = PeerId::new(u32::MAX);
        let mut t = TransferTable::new();
        t.start(seeder, p(2), flight(0, 100));
        t.start(p(2), p(0), flight(1, 100));
        t.start(seeder, p(0), flight(2, 100));
        let mut out = Vec::new();
        t.targets_into(seeder, &mut out);
        assert_eq!(out, vec![p(0), p(2)]);
        let mut ups: Vec<PeerId> = t.uploaders().collect();
        ups.sort();
        assert_eq!(ups, vec![p(2), seeder]);
        let pairs: Vec<(PeerId, PeerId)> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(
            pairs,
            vec![(p(2), p(0)), (seeder, p(0)), (seeder, p(2))],
            "pair order puts the seeder's row last"
        );
        let dropped: Vec<_> = t.drop_peer(p(0)).into_iter().map(|(k, _)| k).collect();
        assert_eq!(dropped, vec![(p(2), p(0)), (seeder, p(0))]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn stalled_targets_stay_listed_until_the_pair_ends() {
        let mut t = TransferTable::new();
        t.start(p(0), p(1), flight(0, 100));
        t.start(p(0), p(2), flight(1, 100));
        t.progress(p(0), p(2), 10, 9);
        assert_eq!(t.drain_stalled(5).len(), 1);
        let mut out = Vec::new();
        t.targets_into(p(0), &mut out);
        assert_eq!(out, vec![p(1), p(2)], "the stalled target stays");
        assert!(t.get(p(0), p(1)).is_none());
        // A departure of the stale target's uploader keeps the entry too.
        t.drain_stalled(10);
        assert!(t.is_empty());
        assert!(t.drop_peer(p(0)).is_empty());
        assert_eq!(t.uploaders().collect::<Vec<_>>(), vec![p(0)]);
        // Restarting the pair reuses the entry; completing it clears it.
        t.start(p(0), p(1), flight(2, 100));
        assert_eq!(t.len(), 1);
        t.progress(p(0), p(1), 100, 11);
        t.targets_into(p(0), &mut out);
        assert_eq!(out, vec![p(2)]);
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
