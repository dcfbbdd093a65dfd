//! A small deterministic hasher for maps keyed by dense integer ids.
//!
//! The per-transfer ledgers and the swarm's transfer table are keyed by
//! [`PeerId`](crate::PeerId) (a `u32`) or pairs of them. The standard
//! library's SipHash protects against adversarial keys, which dense
//! simulator ids never are, and costs several times more than the lookup
//! it guards on these hot paths. [`IdHasher`] is a multiply-rotate hash
//! with no random state: every process hashes the same key to the same
//! value, so map layouts (and iteration orders) are reproducible too.
//!
//! # Example
//!
//! ```
//! use coop_incentives::hash::IdMap;
//! use coop_incentives::PeerId;
//!
//! let mut m: IdMap<PeerId, u64> = IdMap::default();
//! *m.entry(PeerId::new(3)).or_insert(0) += 5;
//! assert_eq!(m[&PeerId::new(3)], 5);
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (the golden-ratio constant): multiplication by
/// it is a bijection, so distinct ids never collide in the state.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A multiply-rotate [`Hasher`] for integer keys.
///
/// Each integer written is folded in as `(state.rotl(5) ^ x) * SEED`;
/// [`Hasher::finish`] folds the well-mixed high half into the low half,
/// because hash tables pick buckets from the low bits.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn fold(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }
}

/// Builds [`IdHasher`]s (stateless, so every map hashes alike).
pub type BuildIdHasher = BuildHasherDefault<IdHasher>;

/// A [`HashMap`] hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PeerId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        BuildIdHasher::default().hash_one(x)
    }

    #[test]
    fn hashing_is_deterministic_and_distinguishes_ids() {
        assert_eq!(hash_of(PeerId::new(7)), hash_of(PeerId::new(7)));
        let hashes: std::collections::HashSet<u64> =
            (0..10_000u32).map(|i| hash_of(PeerId::new(i))).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn pair_keys_are_directional() {
        let (a, b) = (PeerId::new(1), PeerId::new(2));
        assert_ne!(hash_of((a, b)), hash_of((b, a)));
    }

    #[test]
    fn dense_ids_spread_over_low_bits() {
        // Buckets come from the low bits: 4096 sequential ids must not
        // pile into a few of 256 buckets.
        let mut buckets = [0u32; 256];
        for i in 0..4096u32 {
            buckets[(hash_of(PeerId::new(i)) & 255) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n <= 48), "{buckets:?}");
    }

    #[test]
    fn byte_writes_match_across_chunking() {
        let mut h = IdHasher::default();
        h.write(&[1, 2, 3]);
        let mut g = IdHasher::default();
        g.write(&[1, 2, 3]);
        assert_eq!(h.finish(), g.finish());
        assert_ne!(h.finish(), IdHasher::default().finish());
    }
}
