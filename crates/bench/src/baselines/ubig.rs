//! Arbitrary-precision unsigned integers.
//!
//! The Table 2 baselines (RSA, Goldwasser-Micali, Paillier) need
//! 1024–2048-bit modular arithmetic, and no big-integer crate is on
//! this workspace's allowed dependency list — so here is a compact,
//! well-tested implementation: little-endian `u64` limbs, schoolbook
//! and Karatsuba multiplication, Knuth Algorithm D division, modular
//! exponentiation, extended-Euclid inverses, GCD and Jacobi symbols.
//!
//! The representation is always *normalized*: no trailing zero limbs;
//! zero is the empty limb vector.

use rand::Rng;

/// An arbitrary-precision unsigned integer (little-endian u64 limbs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UBig {
    limbs: Vec<u64>,
}

/// Limbs at or above this count use Karatsuba multiplication.
const KARATSUBA_THRESHOLD: usize = 32;

impl UBig {
    /// Zero.
    pub fn zero() -> UBig {
        UBig { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> UBig {
        UBig { limbs: vec![1] }
    }

    /// From a primitive.
    pub fn from_u64(v: u64) -> UBig {
        if v == 0 {
            UBig::zero()
        } else {
            UBig { limbs: vec![v] }
        }
    }

    /// From big-endian bytes (leading zeros tolerated).
    pub fn from_bytes_be(bytes: &[u8]) -> UBig {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut out = UBig { limbs };
        out.normalize();
        out
    }

    /// To big-endian bytes (no leading zeros; zero encodes as empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip.min(7)..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Truncates to `u64` (low limb); zero if empty.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True if the low bit is set.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().map(|l| l & 1 == 1).unwrap_or(false)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Bit `i` (false beyond the bit length).
    pub fn bit(&self, i: usize) -> bool {
        self.limbs
            .get(i / 64)
            .map(|l| (l >> (i % 64)) & 1 == 1)
            .unwrap_or(false)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Comparison.
    pub fn cmp_val(&self, other: &UBig) -> core::cmp::Ordering {
        use core::cmp::Ordering;
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Addition.
    pub fn add(&self, other: &UBig) -> UBig {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    /// Subtraction; `None` if `other > self`.
    pub fn checked_sub(&self, other: &UBig) -> Option<UBig> {
        if self.cmp_val(other) == core::cmp::Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = UBig { limbs: out };
        r.normalize();
        Some(r)
    }

    /// Subtraction.
    ///
    /// # Panics
    ///
    /// Panics on underflow.
    pub fn sub(&self, other: &UBig) -> UBig {
        self.checked_sub(other).expect("UBig subtraction underflow")
    }

    /// Multiplication (Karatsuba above the threshold).
    pub fn mul(&self, other: &UBig) -> UBig {
        if self.is_zero() || other.is_zero() {
            return UBig::zero();
        }
        if self.limbs.len().min(other.limbs.len()) >= KARATSUBA_THRESHOLD {
            return self.mul_karatsuba(other);
        }
        self.mul_schoolbook(other)
    }

    fn mul_schoolbook(&self, other: &UBig) -> UBig {
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = a as u128 * b as u128 + out[i + j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    fn mul_karatsuba(&self, other: &UBig) -> UBig {
        let split = self.limbs.len().max(other.limbs.len()) / 2;
        let (a0, a1) = self.split_at(split);
        let (b0, b1) = other.split_at(split);
        let z0 = a0.mul(&b0);
        let z2 = a1.mul(&b1);
        let z1 = a0.add(&a1).mul(&b0.add(&b1)).sub(&z0).sub(&z2);
        // result = z2·B^{2·split} + z1·B^{split} + z0.
        z2.shl_limbs(2 * split).add(&z1.shl_limbs(split)).add(&z0)
    }

    fn split_at(&self, at: usize) -> (UBig, UBig) {
        if at >= self.limbs.len() {
            return (self.clone(), UBig::zero());
        }
        let mut lo = UBig {
            limbs: self.limbs[..at].to_vec(),
        };
        lo.normalize();
        let mut hi = UBig {
            limbs: self.limbs[at..].to_vec(),
        };
        hi.normalize();
        (lo, hi)
    }

    fn shl_limbs(&self, count: usize) -> UBig {
        if self.is_zero() {
            return UBig::zero();
        }
        let mut limbs = vec![0u64; count];
        limbs.extend_from_slice(&self.limbs);
        UBig { limbs }
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> UBig {
        if self.is_zero() {
            return UBig::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                limbs.push(carry);
            }
        }
        let mut r = UBig { limbs };
        r.normalize();
        r
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> UBig {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return UBig::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut limbs = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            limbs.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                limbs.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut r = UBig { limbs };
        r.normalize();
        r
    }

    /// Division with remainder.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: &UBig) -> (UBig, UBig) {
        assert!(!divisor.is_zero(), "UBig division by zero");
        if self.cmp_val(divisor) == core::cmp::Ordering::Less {
            return (UBig::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            return self.div_rem_small(divisor.limbs[0]);
        }
        self.div_rem_knuth(divisor)
    }

    fn div_rem_small(&self, d: u64) -> (UBig, UBig) {
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut quot = UBig { limbs: q };
        quot.normalize();
        (quot, UBig::from_u64(rem as u64))
    }

    /// Knuth TAOCP Vol. 2, Algorithm 4.3.1 D.
    fn div_rem_knuth(&self, divisor: &UBig) -> (UBig, UBig) {
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl(shift);
        let mut u = self.shl(shift).limbs;
        let n = v.limbs.len();
        let m = u.len() - n;
        u.push(0); // u has m + n + 1 limbs
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            // Estimate qhat from the top two limbs.
            let num = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = num / vn[n - 1] as u128;
            let mut rhat = num % vn[n - 1] as u128;
            loop {
                if qhat >= 1u128 << 64
                    || qhat * vn[n - 2] as u128 > ((rhat << 64) | u[j + n - 2] as u128)
                {
                    qhat -= 1;
                    rhat += vn[n - 1] as u128;
                    if rhat < 1u128 << 64 {
                        continue;
                    }
                }
                break;
            }
            // Multiply-subtract u[j..j+n+1] -= qhat · v.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for (i, &vl) in vn.iter().enumerate() {
                let prod = qhat * vl as u128 + carry;
                carry = prod >> 64;
                let sub = u[j + i] as i128 - (prod as u64) as i128 - borrow;
                u[j + i] = sub as u64; // wraps mod 2^64
                borrow = if sub < 0 { 1 } else { 0 };
            }
            let sub = u[j + n] as i128 - carry as i128 - borrow;
            u[j + n] = sub as u64;
            if sub < 0 {
                // qhat was one too large: add back.
                qhat -= 1;
                let mut carry = 0u128;
                for (i, &vl) in vn.iter().enumerate() {
                    let t = u[j + i] as u128 + vl as u128 + carry;
                    u[j + i] = t as u64;
                    carry = t >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }

        let mut quot = UBig { limbs: q };
        quot.normalize();
        let mut rem = UBig {
            limbs: u[..n].to_vec(),
        };
        rem.normalize();
        (quot, rem.shr(shift))
    }

    /// Remainder `self mod m`.
    pub fn rem(&self, m: &UBig) -> UBig {
        self.div_rem(m).1
    }

    /// Modular multiplication `(self · other) mod m`.
    pub fn mod_mul(&self, other: &UBig, m: &UBig) -> UBig {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^exp mod m` (left-to-right binary).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mod_pow(&self, exp: &UBig, m: &UBig) -> UBig {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if m.is_one() {
            return UBig::zero();
        }
        let mut result = UBig::one();
        let base = self.rem(m);
        let bits = exp.bit_len();
        for i in (0..bits).rev() {
            result = result.mod_mul(&result, m);
            if exp.bit(i) {
                result = result.mod_mul(&base, m);
            }
        }
        result
    }

    /// Greatest common divisor (binary-free Euclid — division is fast
    /// enough at our sizes).
    pub fn gcd(&self, other: &UBig) -> UBig {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse `self⁻¹ mod m`; `None` when `gcd(self, m) ≠ 1`.
    pub fn mod_inverse(&self, m: &UBig) -> Option<UBig> {
        // Extended Euclid with sign-tracked coefficients.
        let mut old_r = self.rem(m);
        let mut r = m.clone();
        // Coefficients of `self`: (magnitude, is_negative).
        let mut old_s = (UBig::one(), false);
        let mut s = (UBig::zero(), false);
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = core::mem::replace(&mut r, rem);
            // new_s = old_s − q·s  (signed).
            let qs = q.mul(&s.0);
            let new_s = signed_sub(&old_s, &(qs, s.1));
            old_s = core::mem::replace(&mut s, new_s);
        }
        if !old_r.is_one() {
            return None; // not coprime
        }
        // old_s is the inverse, possibly negative.
        let inv = if old_s.1 {
            m.sub(&old_s.0.rem(m))
        } else {
            old_s.0.rem(m)
        };
        Some(inv.rem(m))
    }

    /// Jacobi symbol `(a/n)` for odd positive `n`; returns −1, 0 or 1.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or zero.
    pub fn jacobi(a: &UBig, n: &UBig) -> i32 {
        assert!(n.is_odd() && !n.is_zero(), "Jacobi needs odd positive n");
        let mut a = a.rem(n);
        let mut n = n.clone();
        let mut result = 1i32;
        while !a.is_zero() {
            while !a.is_odd() {
                a = a.shr(1);
                let n_mod_8 = n.low_u64() & 7;
                if n_mod_8 == 3 || n_mod_8 == 5 {
                    result = -result;
                }
            }
            core::mem::swap(&mut a, &mut n);
            if a.low_u64() & 3 == 3 && n.low_u64() & 3 == 3 {
                result = -result;
            }
            a = a.rem(&n);
        }
        if n.is_one() {
            result
        } else {
            0
        }
    }

    /// Uniform random value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(bound: &UBig, rng: &mut R) -> UBig {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bit_len();
        let limbs = bits.div_ceil(64);
        let top_mask = if bits.is_multiple_of(64) {
            u64::MAX
        } else {
            (1u64 << (bits % 64)) - 1
        };
        // Rejection sampling: expected < 2 iterations.
        loop {
            let mut candidate: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
            if let Some(top) = candidate.last_mut() {
                *top &= top_mask;
            }
            let mut c = UBig { limbs: candidate };
            c.normalize();
            if c.cmp_val(bound) == core::cmp::Ordering::Less {
                return c;
            }
        }
    }

    /// Uniform random value with exactly `bits` bits (top bit set).
    pub fn random_bits<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> UBig {
        assert!(bits > 0);
        let limbs = bits.div_ceil(64);
        let mut candidate: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
        let top_bit = (bits - 1) % 64;
        let top = &mut candidate[limbs - 1];
        *top &= if top_bit == 63 {
            u64::MAX
        } else {
            (1u64 << (top_bit + 1)) - 1
        };
        *top |= 1u64 << top_bit;
        UBig { limbs: candidate }
    }
}

/// Signed subtraction over (magnitude, negative) pairs.
fn signed_sub(a: &(UBig, bool), b: &(UBig, bool)) -> (UBig, bool) {
    match (a.1, b.1) {
        // a − b with both non-negative.
        (false, false) => match a.0.checked_sub(&b.0) {
            Some(d) => (d, false),
            None => (b.0.sub(&a.0), true),
        },
        // a − (−b) = a + b.
        (false, true) => (a.0.add(&b.0), false),
        // (−a) − b = −(a + b).
        (true, false) => (a.0.add(&b.0), true),
        // (−a) − (−b) = b − a.
        (true, true) => match b.0.checked_sub(&a.0) {
            Some(d) => (d, false),
            None => (a.0.sub(&b.0), true),
        },
    }
}

impl core::fmt::Display for UBig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by 10^19 (largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut parts = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_small(CHUNK);
            parts.push(r.low_u64());
            cur = q;
        }
        write!(f, "{}", parts.pop().unwrap())?;
        for p in parts.iter().rev() {
            write!(f, "{p:019}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ub(v: u64) -> UBig {
        UBig::from_u64(v)
    }

    #[test]
    fn construction_and_display() {
        assert_eq!(ub(0).to_string(), "0");
        assert_eq!(ub(42).to_string(), "42");
        assert_eq!(ub(u64::MAX).add(&ub(1)).to_string(), "18446744073709551616");
    }

    #[test]
    fn byte_round_trip() {
        let cases = [
            vec![],
            vec![0x01],
            vec![0xFF, 0x00, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE],
        ];
        for bytes in cases {
            let v = UBig::from_bytes_be(&bytes);
            let back = v.to_bytes_be();
            // Leading zeros are canonicalized away.
            let trimmed: Vec<u8> = bytes.iter().copied().skip_while(|&b| b == 0).collect();
            assert_eq!(back, trimmed);
        }
        // Leading-zero tolerance.
        assert_eq!(UBig::from_bytes_be(&[0, 0, 5]), UBig::from_bytes_be(&[5]));
    }

    #[test]
    fn add_sub_round_trip() {
        let a = UBig::from_bytes_be(&[0xFF; 20]);
        let b = UBig::from_bytes_be(&[0xAB; 13]);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.add(&b).sub(&a), b);
        assert_eq!(a.checked_sub(&a.add(&b)), None);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = UBig {
            limbs: vec![u64::MAX, u64::MAX],
        };
        let s = a.add(&ub(1));
        assert_eq!(s.limbs, vec![0, 0, 1]);
    }

    #[test]
    fn mul_small_cases() {
        assert_eq!(ub(0).mul(&ub(5)), ub(0));
        assert_eq!(ub(7).mul(&ub(6)), ub(42));
        assert_eq!(
            ub(u64::MAX).mul(&ub(u64::MAX)).to_string(),
            "340282366920938463426481119284349108225"
        );
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let a = UBig::random_bits(64 * 40, &mut rng); // above threshold
            let b = UBig::random_bits(64 * 37, &mut rng);
            assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
        }
    }

    #[test]
    fn shifts_round_trip() {
        let mut rng = StdRng::seed_from_u64(10);
        for shift in [1usize, 7, 64, 65, 130] {
            let a = UBig::random_bits(200, &mut rng);
            assert_eq!(a.shl(shift).shr(shift), a, "shift {shift}");
        }
        assert_eq!(ub(1).shl(64).limbs, vec![0, 1]);
    }

    #[test]
    fn div_rem_invariant_random() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let a = UBig::random_bits(1 + (rng.gen::<usize>() % 512), &mut rng);
            let b = UBig::random_bits(1 + (rng.gen::<usize>() % 256), &mut rng);
            if b.is_zero() {
                continue;
            }
            let (q, r) = a.div_rem(&b);
            assert_eq!(q.mul(&b).add(&r), a, "a = q·b + r violated");
            assert!(r.cmp_val(&b) == core::cmp::Ordering::Less, "r < b violated");
        }
    }

    #[test]
    fn div_rem_knuth_add_back_case() {
        // A case engineered to trigger the rare "add back" branch:
        // u = B^4/2, v = B^2/2 + 1 style values.
        let u = UBig {
            limbs: vec![0, 0, 0, 0x8000_0000_0000_0000],
        };
        let v = UBig {
            limbs: vec![1, 0x8000_0000_0000_0000],
        };
        let (q, r) = u.div_rem(&v);
        assert_eq!(q.mul(&v).add(&r), u);
        assert!(r.cmp_val(&v) == core::cmp::Ordering::Less);
    }

    #[test]
    fn mod_pow_small_matches_naive() {
        let m = ub(1_000_003);
        for &(b, e) in &[(2u64, 10u64), (3, 0), (0, 5), (123, 456), (999_999, 2)] {
            let expect = {
                let mut acc = 1u128;
                for _ in 0..e {
                    acc = acc * b as u128 % 1_000_003;
                }
                acc as u64
            };
            assert_eq!(ub(b).mod_pow(&ub(e), &m), ub(expect), "{b}^{e} mod 1000003");
        }
    }

    #[test]
    fn mod_pow_fermat_little_theorem() {
        // p = 2^61 − 1 is prime: a^(p−1) ≡ 1 (mod p).
        let p = ub((1u64 << 61) - 1);
        let pm1 = p.sub(&ub(1));
        for a in [2u64, 3, 65_537, 1_234_567_891] {
            assert_eq!(ub(a).mod_pow(&pm1, &p), UBig::one(), "a = {a}");
        }
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(ub(12).gcd(&ub(18)), ub(6));
        assert_eq!(ub(17).gcd(&ub(31)), ub(1));
        assert_eq!(ub(0).gcd(&ub(5)), ub(5));
        assert_eq!(ub(5).gcd(&ub(0)), ub(5));
    }

    #[test]
    fn mod_inverse_round_trips() {
        let mut rng = StdRng::seed_from_u64(12);
        let m = ub(1_000_000_007); // prime
        for _ in 0..20 {
            let a = UBig::random_below(&m, &mut rng);
            if a.is_zero() {
                continue;
            }
            let inv = a.mod_inverse(&m).expect("prime modulus");
            assert_eq!(a.mod_mul(&inv, &m), UBig::one());
        }
        // Non-coprime case.
        assert_eq!(ub(6).mod_inverse(&ub(9)), None);
    }

    #[test]
    fn mod_inverse_large_modulus() {
        let mut rng = StdRng::seed_from_u64(13);
        // Odd 512-bit modulus; invert odd values (gcd may still fail —
        // skip those).
        let m = {
            let mut v = UBig::random_bits(512, &mut rng);
            if !v.is_odd() {
                v = v.add(&UBig::one());
            }
            v
        };
        let mut tested = 0;
        while tested < 5 {
            let a = UBig::random_below(&m, &mut rng);
            if let Some(inv) = a.mod_inverse(&m) {
                assert_eq!(a.mod_mul(&inv, &m), UBig::one());
                tested += 1;
            }
        }
    }

    #[test]
    fn jacobi_symbol_known_values() {
        // (a/7) for a = 1..6: 1, 1, −1, 1, −1, −1.
        let n = ub(7);
        let expect = [1, 1, -1, 1, -1, -1];
        for (a, &e) in (1u64..=6).zip(&expect) {
            assert_eq!(UBig::jacobi(&ub(a), &n), e, "({a}/7)");
        }
        // (0/n) = 0.
        assert_eq!(UBig::jacobi(&ub(0), &ub(9)), 0);
        // Quadratic residues have symbol 1 modulo a prime.
        let p = ub(1_000_003);
        for a in [5u64, 999, 123_456] {
            let sq = ub(a).mod_mul(&ub(a), &p);
            assert_eq!(UBig::jacobi(&sq, &p), 1);
        }
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = StdRng::seed_from_u64(14);
        let bound = ub(1000);
        for _ in 0..200 {
            let v = UBig::random_below(&bound, &mut rng);
            assert!(v.cmp_val(&bound) == core::cmp::Ordering::Less);
        }
    }

    #[test]
    fn random_bits_has_exact_width() {
        let mut rng = StdRng::seed_from_u64(15);
        for bits in [1usize, 63, 64, 65, 511, 512] {
            let v = UBig::random_bits(bits, &mut rng);
            assert_eq!(v.bit_len(), bits, "requested {bits} bits");
        }
    }

    #[test]
    fn bit_access() {
        let v = ub(0b1011);
        assert!(v.bit(0) && v.bit(1) && !v.bit(2) && v.bit(3));
        assert!(!v.bit(100));
        assert_eq!(v.bit_len(), 4);
        assert_eq!(UBig::zero().bit_len(), 0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = ub(5).div_rem(&UBig::zero());
    }
}
