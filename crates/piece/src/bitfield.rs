//! A compact fixed-size bitset for tracking piece possession.
//!
//! Two storage representations hide behind one API:
//!
//! * **Dense** — one `u64` word per 64 pieces, the default, optimal for
//!   bitfields in the middle of a download; and
//! * **Runs** — sorted, disjoint, non-adjacent half-open intervals
//!   `[start, end)`, the memory diet for near-complete (or freshly
//!   seeded) bitfields, where the whole field collapses to a handful of
//!   runs regardless of the piece count.
//!
//! All set-algebra queries go through [`Bitfield::word_iter`], which
//! yields the logical 64-bit words of either representation, so the two
//! storages are observationally identical: equality, hashing, iteration
//! and the interest tests cannot tell them apart. [`Bitfield::compress`]
//! switches to runs when they are strictly smaller; mutations keep runs
//! exact ([`Bitfield::set`]/[`Bitfield::unset`] splice) and operations
//! that want word-level writes densify first.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::PieceId;

const WORD_BITS: usize = 64;

/// A fixed-length bitset over piece indices `0..len`.
///
/// `Bitfield` supports the set algebra the simulator and the analytical
/// model need: membership, counting, and the "does peer *i* need anything
/// from peer *j*" test (`wants_from`), which underlies the paper's
/// piece-exchange probabilities (Eq. 5).
///
/// # Example
///
/// ```
/// use coop_piece::Bitfield;
///
/// let mut a = Bitfield::new(10);
/// let mut b = Bitfield::new(10);
/// a.set(1);
/// b.set(1);
/// b.set(2);
/// // a needs piece 2, which b has:
/// assert!(a.wants_from(&b));
/// // b needs nothing a has:
/// assert!(!b.wants_from(&a));
/// ```
#[derive(Clone)]
pub struct Bitfield {
    repr: Repr,
    len: u32,
}

/// The backing storage. Run lists hold sorted, disjoint, *non-adjacent*
/// half-open `[start, end)` intervals with `start < end <= len`, plus the
/// cached popcount so `count_ones` stays O(1).
#[derive(Clone)]
enum Repr {
    Dense(Vec<u64>),
    Runs { runs: Vec<(u32, u32)>, ones: u32 },
}

impl Bitfield {
    /// Creates an all-zero bitfield over `len` pieces.
    pub fn new(len: u32) -> Self {
        let words = vec![0u64; (len as usize).div_ceil(WORD_BITS)];
        Bitfield {
            repr: Repr::Dense(words),
            len,
        }
    }

    /// Creates an all-one bitfield over `len` pieces (a seeder's
    /// bitfield). Stored as a single run — a seeder's bitfield costs the
    /// same 8 bytes whether it covers 100 pieces or 100 million.
    pub fn full(len: u32) -> Self {
        let runs = if len == 0 { Vec::new() } else { vec![(0, len)] };
        Bitfield {
            repr: Repr::Runs { runs, ones: len },
            len,
        }
    }

    /// The number of pieces this bitfield covers.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Returns true if the bitfield covers zero pieces.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns whether piece `i` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: PieceId) -> bool {
        self.check(i);
        match &self.repr {
            Repr::Dense(words) => {
                let (w, b) = Self::locate(i);
                words[w] >> b & 1 == 1
            }
            Repr::Runs { runs, .. } => {
                let idx = runs.partition_point(|&(s, _)| s <= i);
                idx > 0 && runs[idx - 1].1 > i
            }
        }
    }

    /// Sets piece `i`. Returns whether the bit was previously unset.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: PieceId) -> bool {
        self.check(i);
        match &mut self.repr {
            Repr::Dense(words) => {
                let (w, b) = Self::locate(i);
                let was_unset = words[w] >> b & 1 == 0;
                words[w] |= 1 << b;
                was_unset
            }
            Repr::Runs { runs, ones } => {
                let idx = runs.partition_point(|&(s, _)| s <= i);
                if idx > 0 && runs[idx - 1].1 > i {
                    return false;
                }
                *ones += 1;
                let merge_left = idx > 0 && runs[idx - 1].1 == i;
                let merge_right = idx < runs.len() && runs[idx].0 == i + 1;
                match (merge_left, merge_right) {
                    (true, true) => {
                        runs[idx - 1].1 = runs[idx].1;
                        runs.remove(idx);
                    }
                    (true, false) => runs[idx - 1].1 = i + 1,
                    (false, true) => runs[idx].0 = i,
                    (false, false) => runs.insert(idx, (i, i + 1)),
                }
                true
            }
        }
    }

    /// Clears piece `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn unset(&mut self, i: PieceId) {
        self.check(i);
        match &mut self.repr {
            Repr::Dense(words) => {
                let (w, b) = Self::locate(i);
                words[w] &= !(1 << b);
            }
            Repr::Runs { runs, ones } => {
                let idx = runs.partition_point(|&(s, _)| s <= i);
                if idx == 0 || runs[idx - 1].1 <= i {
                    return;
                }
                *ones -= 1;
                let (s, e) = runs[idx - 1];
                if s == i && e == i + 1 {
                    runs.remove(idx - 1);
                } else if s == i {
                    runs[idx - 1].0 = i + 1;
                } else if e == i + 1 {
                    runs[idx - 1].1 = i;
                } else {
                    runs[idx - 1].1 = i;
                    runs.insert(idx, (i + 1, e));
                }
            }
        }
    }

    /// Clears every piece, keeping the storage representation (a dense
    /// field keeps its word buffer for reuse).
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Dense(words) => words.fill(0),
            Repr::Runs { runs, ones } => {
                runs.clear();
                *ones = 0;
            }
        }
    }

    /// The number of set pieces.
    pub fn count_ones(&self) -> u32 {
        match &self.repr {
            Repr::Dense(words) => words.iter().map(|w| w.count_ones()).sum(),
            Repr::Runs { ones, .. } => *ones,
        }
    }

    /// The number of unset pieces.
    pub fn count_zeros(&self) -> u32 {
        self.len - self.count_ones()
    }

    /// Returns true if every piece is set (download complete).
    pub fn is_complete(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Iterates over the indices of set pieces in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = PieceId> + '_ {
        Self::bits_of(self.word_iter(), |w| w)
    }

    /// Iterates over the indices of unset pieces in increasing order.
    pub fn iter_zeros(&self) -> impl Iterator<Item = PieceId> + '_ {
        let len = self.len;
        Self::bits_of(self.word_iter(), |w| !w).take_while(move |&i| i < len)
    }

    /// Returns true if `other` has at least one piece this bitfield lacks —
    /// i.e. whether the owner of `self` *needs* something from the owner of
    /// `other`. This is the event whose probability is `q(i, j)` in Eq. (5)
    /// of the paper.
    ///
    /// # Panics
    ///
    /// Panics if the bitfields have different lengths.
    pub fn wants_from(&self, other: &Bitfield) -> bool {
        self.check_same_len(other);
        self.word_iter()
            .zip(other.word_iter())
            .any(|(mine, theirs)| !mine & theirs != 0)
    }

    /// The number of pieces `other` has that this bitfield lacks.
    ///
    /// # Panics
    ///
    /// Panics if the bitfields have different lengths.
    pub fn missing_from(&self, other: &Bitfield) -> u32 {
        self.check_same_len(other);
        self.word_iter()
            .zip(other.word_iter())
            .map(|(mine, theirs)| (!mine & theirs).count_ones())
            .sum()
    }

    /// Iterates over pieces that `other` has and this bitfield lacks.
    ///
    /// # Panics
    ///
    /// Panics if the bitfields have different lengths.
    pub fn iter_missing_from<'a>(&'a self, other: &'a Bitfield) -> impl Iterator<Item = PieceId> + 'a {
        self.check_same_len(other);
        Self::bits_of(
            self.word_iter().zip(other.word_iter()),
            |(mine, theirs)| !mine & theirs,
        )
    }

    /// Returns true if the two bitfields share at least one set piece —
    /// word-level, so this is the fast path for interest tests on hot
    /// simulator loops.
    ///
    /// # Panics
    ///
    /// Panics if the bitfields have different lengths.
    pub fn intersects(&self, other: &Bitfield) -> bool {
        self.check_same_len(other);
        self.word_iter()
            .zip(other.word_iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Returns true if some piece is set in both bitfields and not in
    /// `exclude` — the simulator's interest test `absent ∧ offer ∧
    /// ¬inflight` as one fused word pass with an early exit.
    ///
    /// # Panics
    ///
    /// Panics if the bitfields have different lengths.
    pub fn intersects_except(&self, other: &Bitfield, exclude: &Bitfield) -> bool {
        self.check_same_len(other);
        self.check_same_len(exclude);
        self.word_iter()
            .zip(other.word_iter())
            .zip(exclude.word_iter())
            .any(|((a, b), x)| a & b & !x != 0)
    }

    /// Iterates over pieces set in both bitfields, skipping all-zero words.
    ///
    /// # Panics
    ///
    /// Panics if the bitfields have different lengths.
    pub fn iter_common<'a>(&'a self, other: &'a Bitfield) -> impl Iterator<Item = PieceId> + 'a {
        self.check_same_len(other);
        Self::bits_of(self.word_iter().zip(other.word_iter()), |(a, b)| a & b)
    }

    /// In-place union: afterwards every piece set in `other` is set here.
    /// Densifies a run-compressed receiver (word-level writes want words).
    ///
    /// # Panics
    ///
    /// Panics if the bitfields have different lengths.
    pub fn union_with(&mut self, other: &Bitfield) {
        self.check_same_len(other);
        self.densify();
        let Repr::Dense(words) = &mut self.repr else {
            unreachable!("just densified");
        };
        for (mine, theirs) in words.iter_mut().zip(other.word_iter()) {
            *mine |= theirs;
        }
    }

    /// Iterates the logical 64-bit words of the bitfield, least-significant
    /// bit first. Bits at positions `>= len` are always zero, so word-level
    /// scans never see phantom pieces. This is the entry point hot loops
    /// (the availability index, pickers) use to skip all-zero regions a
    /// word at a time instead of testing every piece index — and it is the
    /// seam that makes the dense and run-compressed representations
    /// observationally identical.
    pub fn word_iter(&self) -> Words<'_> {
        let num_words = (self.len as usize).div_ceil(WORD_BITS);
        match &self.repr {
            Repr::Dense(words) => Words(WordsState::Dense(words.iter())),
            Repr::Runs { runs, .. } => Words(WordsState::Runs {
                runs,
                cursor: 0,
                word: 0,
                num_words,
            }),
        }
    }

    /// Overwrites this bitfield with the contents of `other`, reusing the
    /// existing word buffer when both sides are dense. This is the
    /// allocation-free alternative to `*self = other.clone()` for scratch
    /// bitfields that are refilled on a hot path.
    pub fn copy_from(&mut self, other: &Bitfield) {
        self.len = other.len;
        match (&mut self.repr, &other.repr) {
            (Repr::Dense(mine), Repr::Dense(theirs)) => {
                mine.clear();
                mine.extend_from_slice(theirs);
            }
            _ => self.repr = other.repr.clone(),
        }
    }

    /// Switches to the run-compressed representation when it is strictly
    /// smaller than the dense one; otherwise stays (or re-densifies to)
    /// dense. Returns whether the bitfield is run-compressed afterwards.
    ///
    /// Compression is purely a storage decision — every observation is
    /// identical before and after — but callers on deterministic paths
    /// should invoke it at deterministic points (completion, departure)
    /// so memory profiles are reproducible.
    pub fn compress(&mut self) -> bool {
        let num_words = (self.len as usize).div_ceil(WORD_BITS);
        // A run list of r intervals costs r * 8 bytes, same unit as words:
        // compress only when strictly smaller.
        let max_runs = num_words.saturating_sub(1).max(1);
        match &self.repr {
            Repr::Runs { runs, .. } => {
                if runs.len() <= max_runs || self.len == 0 {
                    return true;
                }
                self.densify();
                false
            }
            Repr::Dense(_) => {
                let mut runs: Vec<(u32, u32)> = Vec::new();
                let mut ones = 0u32;
                for i in self.iter_ones() {
                    ones += 1;
                    match runs.last_mut() {
                        Some(last) if last.1 == i => last.1 = i + 1,
                        _ => {
                            if runs.len() == max_runs {
                                return false; // denser than dense: keep words
                            }
                            runs.push((i, i + 1));
                        }
                    }
                }
                self.repr = Repr::Runs { runs, ones };
                true
            }
        }
    }

    /// Whether the bitfield currently uses the run-compressed storage.
    pub fn is_compressed(&self) -> bool {
        matches!(self.repr, Repr::Runs { .. })
    }

    /// Bytes of heap the backing storage occupies (capacity, not length) —
    /// the quantity the memory diet actually shrinks.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense(words) => words.capacity() * std::mem::size_of::<u64>(),
            Repr::Runs { runs, .. } => runs.capacity() * std::mem::size_of::<(u32, u32)>(),
        }
    }

    /// Converts run storage back to words (no-op when already dense).
    fn densify(&mut self) {
        if let Repr::Runs { runs, .. } = &self.repr {
            let mut words = vec![0u64; (self.len as usize).div_ceil(WORD_BITS)];
            for &(start, end) in runs {
                let (mut s, e) = (start as usize, end as usize);
                while s < e {
                    let (w, b) = (s / WORD_BITS, s % WORD_BITS);
                    let n = (e - s).min(WORD_BITS - b);
                    let mask = if n == WORD_BITS {
                        u64::MAX
                    } else {
                        ((1u64 << n) - 1) << b
                    };
                    words[w] |= mask;
                    s += n;
                }
            }
            self.repr = Repr::Dense(words);
        }
    }

    /// Expands a word stream into ascending bit indices, applying `f` to
    /// each word first (identity, complement, intersection, ...).
    fn bits_of<T, I, F>(words: I, f: F) -> impl Iterator<Item = PieceId>
    where
        I: Iterator<Item = T>,
        F: Fn(T) -> u64,
    {
        words.enumerate().flat_map(move |(w, item)| {
            let mut bits = f(item);
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some((w * WORD_BITS) as PieceId + tz)
                }
            })
        })
    }

    fn locate(i: PieceId) -> (usize, usize) {
        (i as usize / WORD_BITS, i as usize % WORD_BITS)
    }

    fn check(&self, i: PieceId) {
        assert!(i < self.len, "piece index {i} out of range 0..{}", self.len);
    }

    fn check_same_len(&self, other: &Bitfield) {
        assert_eq!(
            self.len, other.len,
            "bitfield length mismatch: {} vs {}",
            self.len, other.len
        );
    }
}

/// Iterator over the logical words of a [`Bitfield`], independent of its
/// storage representation. See [`Bitfield::word_iter`].
pub struct Words<'a>(WordsState<'a>);

enum WordsState<'a> {
    Dense(std::slice::Iter<'a, u64>),
    Runs {
        runs: &'a [(u32, u32)],
        cursor: usize,
        word: usize,
        num_words: usize,
    },
}

impl Iterator for Words<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        match &mut self.0 {
            WordsState::Dense(iter) => iter.next().copied(),
            WordsState::Runs {
                runs,
                cursor,
                word,
                num_words,
            } => {
                if *word == *num_words {
                    return None;
                }
                let lo = (*word * WORD_BITS) as u64;
                let hi = lo + WORD_BITS as u64;
                while *cursor < runs.len() && u64::from(runs[*cursor].1) <= lo {
                    *cursor += 1;
                }
                let mut bits = 0u64;
                let mut c = *cursor;
                while c < runs.len() && u64::from(runs[c].0) < hi {
                    let s = u64::from(runs[c].0).max(lo);
                    let e = u64::from(runs[c].1).min(hi);
                    let n = e - s;
                    let mask = if n == WORD_BITS as u64 {
                        u64::MAX
                    } else {
                        ((1u64 << n) - 1) << (s - lo)
                    };
                    bits |= mask;
                    if u64::from(runs[c].1) > hi {
                        break; // run continues into the next word
                    }
                    c += 1;
                }
                *word += 1;
                Some(bits)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = match &self.0 {
            WordsState::Dense(iter) => iter.len(),
            WordsState::Runs { word, num_words, .. } => num_words - word,
        };
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Words<'_> {}

impl PartialEq for Bitfield {
    /// Semantic equality: two bitfields are equal when they cover the same
    /// pieces, regardless of storage representation.
    fn eq(&self, other: &Bitfield) -> bool {
        self.len == other.len
            && self
                .word_iter()
                .zip(other.word_iter())
                .all(|(a, b)| a == b)
    }
}

impl Eq for Bitfield {}

impl Hash for Bitfield {
    /// Hashes the logical words, so a dense and a run-compressed view of
    /// the same set hash identically (required by `PartialEq`).
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        for w in self.word_iter() {
            w.hash(state);
        }
    }
}

impl fmt::Debug for Bitfield {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitfield({}/{} ", self.count_ones(), self.len)?;
        // Show at most the first 64 bits to keep output readable.
        for i in 0..self.len.min(64) {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        if self.len > 64 {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<PieceId> for Bitfield {
    /// Builds a bitfield sized to the maximum index plus one.
    fn from_iter<T: IntoIterator<Item = PieceId>>(iter: T) -> Self {
        let ids: Vec<PieceId> = iter.into_iter().collect();
        let len = ids.iter().copied().max().map_or(0, |m| m + 1);
        let mut bf = Bitfield::new(len);
        for i in ids {
            bf.set(i);
        }
        bf
    }
}

impl Extend<PieceId> for Bitfield {
    fn extend<T: IntoIterator<Item = PieceId>>(&mut self, iter: T) {
        for i in iter {
            self.set(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn new_is_empty_full_is_complete() {
        let empty = Bitfield::new(100);
        assert_eq!(empty.count_ones(), 0);
        assert!(!empty.is_complete());
        let full = Bitfield::full(100);
        assert_eq!(full.count_ones(), 100);
        assert!(full.is_complete());
    }

    #[test]
    fn full_clears_tail_bits() {
        // 70 pieces spans two words; the top 58 bits of word 1 must be zero.
        let full = Bitfield::full(70);
        assert_eq!(full.count_ones(), 70);
        let words: Vec<u64> = full.word_iter().collect();
        assert_eq!(words, vec![u64::MAX, (1u64 << 6) - 1]);
    }

    #[test]
    fn set_get_unset() {
        let mut bf = Bitfield::new(130);
        assert!(bf.set(129));
        assert!(!bf.set(129)); // already set
        assert!(bf.get(129));
        bf.unset(129);
        assert!(!bf.get(129));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitfield::new(10).get(10);
    }

    #[test]
    fn wants_from_detects_needed_pieces() {
        let mut a = Bitfield::new(200);
        let mut b = Bitfield::new(200);
        for i in 0..100 {
            a.set(i);
            b.set(i);
        }
        assert!(!a.wants_from(&b));
        b.set(150);
        assert!(a.wants_from(&b));
        assert!(!b.wants_from(&a));
        assert_eq!(a.missing_from(&b), 1);
        assert_eq!(a.iter_missing_from(&b).collect::<Vec<_>>(), vec![150]);
    }

    #[test]
    fn newcomer_wants_from_anyone_with_pieces() {
        let newcomer = Bitfield::new(64);
        let mut veteran = Bitfield::new(64);
        assert!(!newcomer.wants_from(&veteran)); // veteran has nothing yet
        veteran.set(0);
        assert!(newcomer.wants_from(&veteran));
    }

    #[test]
    fn union_accumulates() {
        let mut a = Bitfield::new(64);
        let b: Bitfield = [1u32, 2, 3].into_iter().collect::<Bitfield>();
        let mut b_resized = Bitfield::new(64);
        for i in b.iter_ones() {
            b_resized.set(i);
        }
        a.union_with(&b_resized);
        assert_eq!(a.count_ones(), 3);
    }

    #[test]
    fn iterators_agree_with_counts() {
        let mut bf = Bitfield::new(300);
        for i in (0..300).step_by(7) {
            bf.set(i);
        }
        assert_eq!(bf.iter_ones().count() as u32, bf.count_ones());
        assert_eq!(bf.iter_zeros().count() as u32, bf.count_zeros());
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut bf: Bitfield = [0u32, 5, 9].into_iter().collect();
        assert_eq!(bf.len(), 10);
        assert_eq!(bf.count_ones(), 3);
        bf.extend([1u32, 2]);
        assert_eq!(bf.count_ones(), 5);
    }

    #[test]
    fn intersects_and_iter_common_agree() {
        let mut a = Bitfield::new(200);
        let mut b = Bitfield::new(200);
        assert!(!a.intersects(&b));
        a.set(5);
        b.set(6);
        assert!(!a.intersects(&b));
        b.set(5);
        a.set(150);
        b.set(150);
        assert!(a.intersects(&b));
        assert_eq!(a.iter_common(&b).collect::<Vec<_>>(), vec![5, 150]);
    }

    #[test]
    fn clear_empties_either_representation() {
        let (mut dense, mut runs) = dense_and_runs(130, &[0, 1, 2, 64, 65]);
        dense.clear();
        runs.clear();
        assert_eq!(dense, Bitfield::new(130));
        assert_eq!(runs, Bitfield::new(130));
        assert!(runs.is_compressed());
        let mut full = Bitfield::full(70);
        full.clear();
        assert_eq!(full.count_ones(), 0);
    }

    #[test]
    fn debug_is_nonempty() {
        let bf = Bitfield::new(3);
        assert!(!format!("{bf:?}").is_empty());
    }

    // --- run-compressed representation ---

    /// A dense and a compressed copy of the same set, for paired checks.
    fn dense_and_runs(len: u32, ones: &[u32]) -> (Bitfield, Bitfield) {
        let mut dense = Bitfield::new(len);
        for &i in ones {
            dense.set(i);
        }
        let mut runs = dense.clone();
        runs.compress();
        (dense, runs)
    }

    fn hash_of(bf: &Bitfield) -> u64 {
        let mut h = DefaultHasher::new();
        bf.hash(&mut h);
        h.finish()
    }

    #[test]
    fn full_is_run_compressed_and_equal_to_dense_full() {
        let full = Bitfield::full(1000);
        assert!(full.is_compressed());
        let mut dense = Bitfield::new(1000);
        for i in 0..1000 {
            dense.set(i);
        }
        assert!(!dense.is_compressed());
        assert_eq!(full, dense);
        assert_eq!(hash_of(&full), hash_of(&dense));
        assert!(full.heap_bytes() < dense.heap_bytes());
    }

    #[test]
    fn compress_declines_when_runs_beat_nothing() {
        // Alternating bits: runs would cost far more than words.
        let mut bf = Bitfield::new(256);
        for i in (0..256).step_by(2) {
            bf.set(i);
        }
        assert!(!bf.compress());
        assert!(!bf.is_compressed());
    }

    #[test]
    fn set_splices_runs() {
        let mut bf = Bitfield::full(100);
        bf.unset(50); // split into two runs
        assert!(bf.is_compressed());
        assert_eq!(bf.count_ones(), 99);
        assert!(!bf.get(50));
        assert!(bf.set(50)); // merge the two runs back
        assert!(!bf.set(50));
        assert_eq!(bf.count_ones(), 100);
        assert!(bf.is_complete());
    }

    #[test]
    fn unset_edges_and_interior() {
        let mut bf = Bitfield::full(10);
        bf.unset(0); // shrink left edge
        bf.unset(9); // shrink right edge
        bf.unset(5); // split interior
        bf.unset(5); // idempotent
        assert_eq!(bf.count_ones(), 7);
        assert_eq!(
            bf.iter_ones().collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 6, 7, 8]
        );
        // Remove a singleton run entirely.
        let mut one = Bitfield::new(5);
        one.set(2);
        one.compress();
        one.unset(2);
        assert_eq!(one.count_ones(), 0);
        assert!(one.iter_ones().next().is_none());
    }

    #[test]
    fn word_iter_is_representation_independent() {
        // 3 runs over 4 words: [0,3) [63,66) [130,135). A 4th run would
        // not be strictly smaller than dense and compress() would decline.
        let ones = [0, 1, 2, 63, 64, 65, 130, 131, 132, 133, 134];
        let (dense, runs) = dense_and_runs(199, &ones);
        assert!(runs.is_compressed());
        let dw: Vec<u64> = dense.word_iter().collect();
        let rw: Vec<u64> = runs.word_iter().collect();
        assert_eq!(dw, rw);
        assert_eq!(dense.word_iter().len(), 4);
    }

    #[test]
    fn run_spanning_multiple_words_renders_correctly() {
        let (dense, runs) = dense_and_runs(300, &(10..200).collect::<Vec<_>>());
        assert!(runs.is_compressed());
        assert_eq!(
            dense.word_iter().collect::<Vec<_>>(),
            runs.word_iter().collect::<Vec<_>>()
        );
        assert_eq!(runs.count_ones(), 190);
    }

    #[test]
    fn mixed_representation_set_algebra() {
        let (a_dense, a_runs) = dense_and_runs(200, &(0..190).collect::<Vec<_>>());
        let mut b = Bitfield::new(200);
        b.set(195);
        // wants_from across representations
        assert!(a_dense.wants_from(&b));
        assert!(a_runs.wants_from(&b));
        assert!(!b.wants_from(&b));
        assert_eq!(a_runs.missing_from(&b), 1);
        assert_eq!(
            a_runs.iter_missing_from(&b).collect::<Vec<_>>(),
            vec![195]
        );
        assert!(!a_runs.intersects(&b));
        b.set(100);
        assert!(a_runs.intersects(&b));
        assert_eq!(a_runs.iter_common(&b).collect::<Vec<_>>(), vec![100]);
        // union densifies but stays equal
        let mut u = a_runs.clone();
        u.union_with(&b);
        assert!(!u.is_compressed());
        assert_eq!(u.count_ones(), 191);
    }

    #[test]
    fn copy_from_preserves_representation() {
        let (_, runs) = dense_and_runs(128, &(0..120).collect::<Vec<_>>());
        let mut scratch = Bitfield::new(5);
        scratch.copy_from(&runs);
        assert_eq!(scratch, runs);
        assert!(scratch.is_compressed());
        let dense = Bitfield::new(128);
        scratch.copy_from(&dense);
        assert!(!scratch.is_compressed());
        assert_eq!(scratch.count_ones(), 0);
    }

    #[test]
    fn compress_roundtrip_preserves_observations() {
        let ones = [3, 4, 5, 6, 7, 100, 101, 102, 511];
        let (dense, mut bf) = dense_and_runs(512, &ones);
        assert!(bf.is_compressed());
        assert_eq!(bf, dense);
        assert_eq!(bf.iter_ones().collect::<Vec<_>>(), ones.to_vec());
        assert_eq!(bf.iter_zeros().count(), 512 - ones.len());
        // Mutate while compressed, then compare against the dense oracle.
        let mut oracle = dense.clone();
        for i in [0u32, 5, 200, 201, 202, 511] {
            assert_eq!(bf.set(i), oracle.set(i));
        }
        for i in [4u32, 100, 200, 999 % 512] {
            bf.unset(i);
            oracle.unset(i);
        }
        assert_eq!(bf, oracle);
        assert_eq!(hash_of(&bf), hash_of(&oracle));
        assert_eq!(
            bf.iter_ones().collect::<Vec<_>>(),
            oracle.iter_ones().collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_length_bitfield_compresses() {
        let mut bf = Bitfield::new(0);
        assert!(bf.compress());
        assert!(bf.is_compressed());
        assert!(bf.word_iter().next().is_none());
        assert_eq!(bf, Bitfield::full(0));
    }
}
