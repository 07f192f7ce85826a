//! Property-based tests for the crypto substrate: XOR split/combine
//! and the wire codec.

use privapprox_crypto::xor::{
    combine, combine_into, decode_answer, decode_answer_into, encode_answer, SplitScratch,
    XorSplitter,
};
use privapprox_types::ids::AnalystId;
use privapprox_types::{BitVec, MessageId, QueryId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// XOR splitting recombines for any payload and any share count,
    /// in any order.
    #[test]
    fn xor_split_combine_round_trip(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        n in 2usize..6,
        seed in any::<u64>(),
        rotate in 0usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let splitter = XorSplitter::new(n);
        let mut shares = splitter.split(&payload, &mut rng);
        shares.rotate_left(rotate % n);
        prop_assert_eq!(combine(&shares).unwrap(), payload);
    }

    /// The answer wire codec round-trips any one-hot or multi-hot
    /// answer vector.
    #[test]
    fn answer_codec_round_trip(
        bits in proptest::collection::vec(any::<bool>(), 1..200),
        analyst in any::<u32>(),
        serial in any::<u32>(),
    ) {
        let qid = QueryId::new(AnalystId(analyst), serial);
        let answer = BitVec::from_bools(bits.iter().copied());
        let encoded = encode_answer(qid, &answer);
        let (qid2, decoded) = decode_answer(&encoded).expect("decodes");
        prop_assert_eq!(qid2, qid);
        prop_assert_eq!(decoded, answer);
    }

    /// Truncating an encoded answer always fails to decode (no silent
    /// partial reads).
    #[test]
    fn truncated_answers_never_decode(
        bits in proptest::collection::vec(any::<bool>(), 1..64),
        cut in 1usize..10,
    ) {
        let qid = QueryId::new(AnalystId(1), 1);
        let answer = BitVec::from_bools(bits.iter().copied());
        let encoded = encode_answer(qid, &answer);
        let cut = cut.min(encoded.len());
        prop_assert_eq!(decode_answer(&encoded[..encoded.len() - cut]), None);
    }
}

proptest! {
    /// The scratch-buffer split is byte-identical to the allocating
    /// split under the same RNG seed, and both round-trip through the
    /// scratch combine.
    #[test]
    fn split_into_matches_allocating_split(
        msg in proptest::collection::vec(any::<u8>(), 0..600),
        n in 2usize..6,
        seed in any::<u64>(),
        mid_raw in any::<u64>(),
    ) {
        let splitter = XorSplitter::new(n);
        let mid = MessageId(mid_raw as u128);
        let allocated =
            splitter.split_with_mid(&msg, mid, &mut StdRng::seed_from_u64(seed));
        let mut scratch = SplitScratch::new();
        let shares =
            splitter.split_into(&msg, mid, &mut StdRng::seed_from_u64(seed), &mut scratch);
        prop_assert_eq!(allocated.as_slice(), shares);

        let mut out = Vec::new();
        combine_into(shares, &mut out).expect("combines");
        prop_assert_eq!(&out, &msg);
        prop_assert_eq!(combine(&allocated).unwrap(), msg);
    }

    /// A reused scratch must not leak bytes across messages of
    /// different sizes (shrinking and growing payloads both).
    #[test]
    fn scratch_reuse_is_clean_across_sizes(
        sizes in proptest::collection::vec(0usize..400, 1..8),
        n in 2usize..4,
        seed in any::<u64>(),
    ) {
        let splitter = XorSplitter::new(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = SplitScratch::new();
        let mut out = Vec::new();
        for (k, &size) in sizes.iter().enumerate() {
            let msg: Vec<u8> = (0..size).map(|i| (i * 31 + k) as u8).collect();
            let mid = MessageId((seed as u128) << 8 | k as u128);
            splitter.split_into(&msg, mid, &mut rng, &mut scratch);
            combine_into(scratch.shares(), &mut out).expect("combines");
            prop_assert_eq!(&out, &msg, "message {} of size {}", k, size);
        }
    }

    /// `decode_answer_into` agrees with the allocating decoder on both
    /// valid and corrupted inputs.
    #[test]
    fn decode_into_matches_allocating_decode(
        bits in proptest::collection::vec(any::<bool>(), 1..200),
        corrupt_at in any::<u64>(),
        corrupt in any::<bool>(),
    ) {
        let qid = QueryId::new(AnalystId(7), 9);
        let answer = BitVec::from_bools(bits.iter().copied());
        let mut encoded = encode_answer(qid, &answer);
        if corrupt {
            let at = (corrupt_at as usize) % encoded.len();
            encoded[at] ^= 0x40;
        }
        let mut scratch = BitVec::zeros(0);
        let via_into = decode_answer_into(&encoded, &mut scratch)
            .map(|qid| (qid, scratch.clone()));
        prop_assert_eq!(via_into, decode_answer(&encoded));
    }
}
