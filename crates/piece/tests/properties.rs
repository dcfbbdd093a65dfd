//! Property-based tests for the piece substrate.

use coop_piece::{
    AvailabilityMap, Bitfield, FileSpec, PiecePicker, PieceSelection, RarestFirstPicker,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bitfield_strategy(len: u32) -> impl Strategy<Value = Bitfield> {
    proptest::collection::vec(any::<bool>(), len as usize).prop_map(move |bits| {
        let mut bf = Bitfield::new(len);
        for (i, b) in bits.into_iter().enumerate() {
            if b {
                bf.set(i as u32);
            }
        }
        bf
    })
}

proptest! {
    /// count_ones + count_zeros == len for arbitrary bitfields.
    #[test]
    fn counts_partition_len(bf in bitfield_strategy(97)) {
        prop_assert_eq!(bf.count_ones() + bf.count_zeros(), bf.len());
    }

    /// wants_from(a, b) holds iff the explicit missing set is nonempty, and
    /// missing_from agrees with the iterator.
    #[test]
    fn wants_from_agrees_with_missing_set(a in bitfield_strategy(80), b in bitfield_strategy(80)) {
        let missing: Vec<u32> = a.iter_missing_from(&b).collect();
        prop_assert_eq!(a.wants_from(&b), !missing.is_empty());
        prop_assert_eq!(a.missing_from(&b) as usize, missing.len());
        for i in missing {
            prop_assert!(!a.get(i));
            prop_assert!(b.get(i));
        }
    }

    /// Union is idempotent, commutative in its effect on count, and a
    /// superset of both operands.
    #[test]
    fn union_is_superset(a in bitfield_strategy(70), b in bitfield_strategy(70)) {
        let mut u = a.clone();
        u.union_with(&b);
        for i in a.iter_ones() {
            prop_assert!(u.get(i));
        }
        for i in b.iter_ones() {
            prop_assert!(u.get(i));
        }
        prop_assert!(!u.wants_from(&a));
        prop_assert!(!u.wants_from(&b));
        let mut again = u.clone();
        again.union_with(&b);
        prop_assert_eq!(again, u);
    }

    /// The rarest-first picker always returns a piece the downloader lacks
    /// and the uploader holds, with minimal availability over that set.
    #[test]
    fn rarest_first_is_valid_and_minimal(
        down in bitfield_strategy(40),
        up in bitfield_strategy(40),
        others in proptest::collection::vec(bitfield_strategy(40), 0..5),
        seed in any::<u64>(),
    ) {
        let mut avail = AvailabilityMap::new(40);
        for o in &others {
            avail.add_peer(o);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        match RarestFirstPicker.pick(&down, &up, &avail, &mut rng) {
            PieceSelection::Piece(i) => {
                prop_assert!(!down.get(i));
                prop_assert!(up.get(i));
                let min = down
                    .iter_missing_from(&up)
                    .map(|j| avail.count(j))
                    .min()
                    .unwrap();
                prop_assert_eq!(avail.count(i), min);
            }
            PieceSelection::NothingNeeded => {
                prop_assert!(!down.wants_from(&up));
            }
        }
    }

    /// The run-compressed representation is observationally identical to
    /// the dense one under an arbitrary interleaving of mutations and
    /// queries: compress at a random point, keep mutating, and every
    /// observable (equality, hash-relevant words, counts, iterators, set
    /// algebra) still matches the dense oracle.
    #[test]
    fn compressed_bitfield_matches_dense_oracle(
        init in bitfield_strategy(150),
        ops in proptest::collection::vec((any::<bool>(), 0u32..150), 0..40),
        compress_at in 0usize..40,
        probe in bitfield_strategy(150),
    ) {
        let mut subject = init.clone();
        let mut oracle = init;
        for (k, &(set, i)) in ops.iter().enumerate() {
            if k == compress_at {
                subject.compress();
            }
            if set {
                prop_assert_eq!(subject.set(i), oracle.set(i));
            } else {
                subject.unset(i);
                oracle.unset(i);
            }
        }
        prop_assert_eq!(&subject, &oracle);
        prop_assert_eq!(subject.count_ones(), oracle.count_ones());
        prop_assert_eq!(
            subject.word_iter().collect::<Vec<_>>(),
            oracle.word_iter().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            subject.iter_ones().collect::<Vec<_>>(),
            oracle.iter_ones().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            subject.iter_zeros().collect::<Vec<_>>(),
            oracle.iter_zeros().collect::<Vec<_>>()
        );
        prop_assert_eq!(subject.wants_from(&probe), oracle.wants_from(&probe));
        prop_assert_eq!(probe.wants_from(&subject), probe.wants_from(&oracle));
        prop_assert_eq!(subject.intersects(&probe), oracle.intersects(&probe));
        prop_assert_eq!(subject.missing_from(&probe), oracle.missing_from(&probe));
        prop_assert_eq!(
            subject.iter_common(&probe).collect::<Vec<_>>(),
            oracle.iter_common(&probe).collect::<Vec<_>>()
        );
    }

    /// The fused interest pass `intersects_except(a, b, x)` is the
    /// per-piece `∃p: a[p] ∧ b[p] ∧ ¬x[p]` for every mix of dense and
    /// run-compressed operands (`runs` bit k compresses operand k), with
    /// the all-ones run field standing in for any operand, and with `x`
    /// optionally covering every common piece (the answer is then false).
    #[test]
    fn fused_interest_matches_per_piece_definition(
        a in bitfield_strategy(130),
        b in bitfield_strategy(130),
        x in bitfield_strategy(130),
        runs in 0u8..8,
        full in 0u8..4,
        cover in any::<bool>(),
    ) {
        let mut ops = [a, b, x];
        if full < 3 {
            ops[full as usize] = Bitfield::full(130);
        }
        if cover {
            for p in 0..130 {
                if ops[0].get(p) && ops[1].get(p) {
                    ops[2].set(p);
                }
            }
        }
        for (k, op) in ops.iter_mut().enumerate() {
            if runs >> k & 1 == 1 {
                op.compress();
            }
        }
        let [a, b, x] = &ops;
        let want = (0..130).any(|p| a.get(p) && b.get(p) && !x.get(p));
        prop_assert!(!(cover && want));
        prop_assert_eq!(a.intersects_except(b, x), want);
    }

    /// Piece lengths always sum to the file size.
    #[test]
    fn file_piece_lengths_sum(size in 1u64..10_000_000, piece in 1u64..100_000) {
        let f = FileSpec::new(size, piece);
        let total: u64 = (0..f.num_pieces()).map(|i| f.piece_len(i)).sum();
        prop_assert_eq!(total, size);
    }

    /// Adding then removing a peer leaves the availability map unchanged.
    #[test]
    fn availability_add_remove_roundtrip(
        base in proptest::collection::vec(bitfield_strategy(30), 0..4),
        extra in bitfield_strategy(30),
    ) {
        let mut m = AvailabilityMap::new(30);
        for b in &base {
            m.add_peer(b);
        }
        let snapshot = m.clone();
        m.add_peer(&extra);
        m.remove_peer(&extra);
        prop_assert_eq!(m, snapshot);
    }
}
