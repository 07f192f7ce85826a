//! Property-based tests for the bignum arithmetic behind the
//! public-key baselines: algebra laws, division, shifts, modular
//! exponentiation and gcd.

use privapprox_bench::ubig::UBig;
use proptest::prelude::*;

fn ubig_from(bytes: &[u8]) -> UBig {
    UBig::from_bytes_be(bytes)
}

proptest! {
    /// Addition is commutative and associative; subtraction undoes it.
    #[test]
    fn ubig_add_sub_laws(
        a in proptest::collection::vec(any::<u8>(), 0..40),
        b in proptest::collection::vec(any::<u8>(), 0..40),
        c in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let (a, b, c) = (ubig_from(&a), ubig_from(&b), ubig_from(&c));
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    /// Multiplication distributes over addition and commutes.
    #[test]
    fn ubig_mul_laws(
        a in proptest::collection::vec(any::<u8>(), 0..24),
        b in proptest::collection::vec(any::<u8>(), 0..24),
        c in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let (a, b, c) = (ubig_from(&a), ubig_from(&b), ubig_from(&c));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    /// Division invariant: a = q·b + r with r < b.
    #[test]
    fn ubig_div_rem_invariant(
        a in proptest::collection::vec(any::<u8>(), 0..48),
        b in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        let a = ubig_from(&a);
        let b = ubig_from(&b);
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
        prop_assert!(r.cmp_val(&b) == core::cmp::Ordering::Less);
    }

    /// Byte serialization round-trips (canonicalizing leading zeros).
    #[test]
    fn ubig_bytes_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let v = ubig_from(&bytes);
        let back = UBig::from_bytes_be(&v.to_bytes_be());
        prop_assert_eq!(back, v);
    }

    /// Shifts match multiplication/division by powers of two.
    #[test]
    fn ubig_shift_laws(
        bytes in proptest::collection::vec(any::<u8>(), 0..32),
        shift in 0usize..130,
    ) {
        let v = ubig_from(&bytes);
        let two_k = UBig::one().shl(shift);
        prop_assert_eq!(v.shl(shift), v.mul(&two_k));
        prop_assert_eq!(v.shl(shift).shr(shift), v.clone());
        prop_assert_eq!(v.shr(shift), v.div_rem(&two_k).0);
    }

    /// Modular exponentiation agrees with iterated modular
    /// multiplication for small exponents.
    #[test]
    fn ubig_mod_pow_matches_naive(
        base in any::<u64>(),
        exp in 0u32..40,
        modulus in 2u64..1_000_000,
    ) {
        let m = UBig::from_u64(modulus);
        let b = UBig::from_u64(base);
        let fast = b.mod_pow(&UBig::from_u64(exp as u64), &m);
        let mut slow = UBig::one().rem(&m);
        for _ in 0..exp {
            slow = slow.mul(&b).rem(&m);
        }
        prop_assert_eq!(fast, slow);
    }

    /// gcd divides both operands and is maximal w.r.t. the invariant
    /// gcd(a, b) = gcd(b, a mod b).
    #[test]
    fn ubig_gcd_laws(a in any::<u64>(), b in 1u64..u64::MAX) {
        let (ua, ub) = (UBig::from_u64(a), UBig::from_u64(b));
        let g = ua.gcd(&ub);
        prop_assert!(!g.is_zero());
        prop_assert!(ua.rem(&g).is_zero());
        prop_assert!(ub.rem(&g).is_zero());
        prop_assert_eq!(ua.gcd(&ub), ub.gcd(&ua.rem(&ub)));
    }
}
