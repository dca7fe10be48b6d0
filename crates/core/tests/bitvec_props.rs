//! Property tests pinning the word-parallel [`BitVec`] operations to
//! bit-by-bit scalar references built from the public single-bit API
//! (`push`/`get`), with lengths biased toward the ragged word-boundary
//! tails (63/64/65, 127/128/129) where masking bugs live.

use proptest::prelude::*;
use sa_core::BitVec;

/// Lengths concentrated on u64-block boundaries and their neighbours.
fn ragged_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        3 => 0usize..=10,
        3 => 60usize..=68,
        3 => 125usize..=131,
        2 => 0usize..=300,
    ]
}

/// A bit vector of length `len` seeded from `seed`, built bit by bit.
fn build(len: usize, seed: u64) -> BitVec {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            // SplitMix64-ish scramble; only parity matters.
            state = state
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0xbf58_476d_1ce4_e5b9);
            (state >> 32).count_ones() % 2 == 1
        })
        .collect()
}

/// Scalar reference: MSB-first octet packing, bit by bit.
fn scalar_to_bytes(bits: &BitVec) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, bit) in bits.iter().enumerate() {
        if bit {
            out[i / 8] |= 1 << (7 - (i % 8));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bulk_pushes_match_single_bit_pushes(
        prefix in ragged_len(),
        zeros in 0usize..200,
        ones in 0usize..200,
        seed in 0u64..u64::MAX,
    ) {
        let base = build(prefix, seed);
        let mut bulk = base.clone();
        bulk.push_zeros(zeros);
        bulk.push_ones(ones);
        let mut single = base;
        for _ in 0..zeros {
            single.push(false);
        }
        for _ in 0..ones {
            single.push(true);
        }
        prop_assert_eq!(bulk, single);
    }

    #[test]
    fn slice_and_extend_range_match_per_bit_copy(
        len in ragged_len(),
        cut in (0u64..u64::MAX, 0u64..u64::MAX),
        seed in 0u64..u64::MAX,
    ) {
        let src = build(len, seed);
        let start = if len == 0 { 0 } else { (cut.0 % (len as u64 + 1)) as usize };
        let max = len - start;
        let take = if max == 0 { 0 } else { (cut.1 % (max as u64 + 1)) as usize };
        let sliced = src.slice(start, take);
        let expected: BitVec = (start..start + take)
            .map(|i| src.get(i).unwrap())
            .collect();
        prop_assert_eq!(&sliced, &expected);
        // extend_range onto a ragged destination prefix.
        let mut dst = build(7, !seed);
        let prefix = dst.clone();
        dst.extend_range(&src, start, take);
        prop_assert_eq!(dst.len(), prefix.len() + take);
        for i in 0..prefix.len() {
            prop_assert_eq!(dst.get(i), prefix.get(i));
        }
        for i in 0..take {
            prop_assert_eq!(dst.get(prefix.len() + i), src.get(start + i));
        }
    }

    #[test]
    fn byte_serialization_matches_scalar_packing(len in ragged_len(), seed in 0u64..u64::MAX) {
        let bits = build(len, seed);
        let bytes = bits.to_bytes();
        prop_assert_eq!(bytes.as_ref(), scalar_to_bytes(&bits).as_slice());
        let back = BitVec::from_bytes(&bytes, len).unwrap();
        prop_assert_eq!(&back, &bits);
        // Rank and counts must survive the round trip (padding bits of a
        // ragged final octet must not leak into the word representation).
        prop_assert_eq!(back.count_ones(), bits.count_ones());
        for probe in [0, len / 2, len] {
            prop_assert_eq!(back.rank_zeros(probe), bits.rank_zeros(probe));
        }
    }

    #[test]
    fn rank_matches_linear_count(len in ragged_len(), seed in 0u64..u64::MAX) {
        let bits = build(len, seed);
        for probe in 0..=len {
            let expected = (0..probe).filter(|&i| !bits.get(i).unwrap()).count();
            prop_assert_eq!(bits.rank_zeros(probe), expected);
        }
    }
}
