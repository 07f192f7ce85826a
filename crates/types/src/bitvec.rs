//! A compact bit vector used for the `A[n]` answer representation.
//!
//! Each query answer is "an n-bit vector where each bit associates with
//! a possible answer value" (paper §3.1). Answers are XOR-combined for
//! the split-message encryption (§3.2.3), so the representation exposes
//! an efficient word-wise XOR. The paper evaluates bit-vector sizes up
//! to 10⁴ bits (Figure 5b), so the layout matters: bits are packed into
//! `u64` limbs, least-significant bit first.

/// A fixed-length, heap-allocated bit vector packed into `u64` limbs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    /// Number of addressable bits.
    len: usize,
    /// Packed limbs; bit `i` lives at `limbs[i / 64]` bit `i % 64`.
    /// Bits at positions `>= len` in the last limb are always zero.
    limbs: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            limbs: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates a bit vector from an iterator of booleans.
    ///
    /// Limbs are packed directly as the iterator is consumed — no
    /// intermediate buffer and no per-bit read-modify-write.
    pub fn from_bools<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let iter = bits.into_iter();
        let mut limbs = Vec::with_capacity(iter.size_hint().0.div_ceil(64));
        let mut current = 0u64;
        let mut len = 0usize;
        for b in iter {
            current |= (b as u64) << (len % 64);
            len += 1;
            if len.is_multiple_of(64) {
                limbs.push(current);
                current = 0;
            }
        }
        if !len.is_multiple_of(64) {
            limbs.push(current);
        }
        BitVec { len, limbs }
    }

    /// Creates a one-hot vector: `len` bits with only `index` set.
    ///
    /// This is the canonical answer encoding: a numeric answer falls in
    /// exactly one histogram bucket (paper §2.2).
    pub fn one_hot(len: usize, index: usize) -> Self {
        assert!(index < len, "one_hot index {index} out of range {len}");
        let mut v = BitVec::zeros(len);
        v.set(index, true);
        v
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.limbs[i / 64] |= mask;
        } else {
            self.limbs[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.limbs.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// In-place XOR with another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "BitVec length mismatch in xor");
        for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a ^= *b;
        }
    }

    /// Returns the XOR of two equal-length vectors.
    pub fn xor(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_with(other);
        out
    }

    /// Iterates over all bits, LSB-first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Iterates over the indices of set bits in increasing order.
    ///
    /// Word-wise: zero limbs are skipped in one comparison and set
    /// bits are located with `trailing_zeros`, so sparse vectors cost
    /// `O(limbs + ones)` rather than `O(len)`.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.limbs.iter().enumerate().flat_map(|(li, &limb)| {
            core::iter::successors(if limb == 0 { None } else { Some(limb) }, |&rest| {
                let next = rest & (rest - 1); // clear lowest set bit
                if next == 0 {
                    None
                } else {
                    Some(next)
                }
            })
            .map(move |rest| li * 64 + rest.trailing_zeros() as usize)
        })
    }

    /// Serializes to little-endian bytes, `ceil(len/8)` of them.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len.div_ceil(8));
        self.extend_bytes_into(&mut out);
        out
    }

    /// Appends the [`BitVec::to_bytes`] form to `out` without
    /// allocating (beyond any growth of `out` itself): one `resize`,
    /// then whole limbs copied as 8-byte little-endian chunks and the
    /// last limb's leading bytes as the tail.
    pub fn extend_bytes_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.len.div_ceil(8), 0);
        let mut chunks = out[start..].chunks_exact_mut(8);
        for (chunk, limb) in (&mut chunks).zip(&self.limbs) {
            chunk.copy_from_slice(&limb.to_le_bytes());
        }
        let tail = chunks.into_remainder();
        if let Some(&last) = self.limbs.last() {
            let n = tail.len();
            tail.copy_from_slice(&last.to_le_bytes()[..n]);
        }
    }

    /// Deserializes from the [`BitVec::to_bytes`] form.
    ///
    /// Returns `None` if `bytes` is shorter than `len` requires, or if
    /// trailing padding bits beyond `len` are set (which would indicate
    /// a corrupt or forged message).
    pub fn from_bytes(len: usize, bytes: &[u8]) -> Option<Self> {
        let mut v = BitVec::zeros(len);
        if v.assign_from_bytes(len, bytes) {
            Some(v)
        } else {
            None
        }
    }

    /// Reuses `self`'s limb storage to hold the vector encoded by
    /// `bytes` (the [`BitVec::to_bytes`] form, `len` bits). Returns
    /// `false` — leaving `self` in an unspecified but valid state — if
    /// `bytes` has the wrong length or set padding bits.
    ///
    /// Allocation-free once `self`'s capacity covers `len`; this is
    /// the decode path the aggregator drains windows through.
    pub fn assign_from_bytes(&mut self, len: usize, bytes: &[u8]) -> bool {
        if bytes.len() != len.div_ceil(8) {
            return false;
        }
        self.len = len;
        self.limbs.clear();
        self.limbs.resize(len.div_ceil(64), 0);
        let mut chunks = bytes.chunks_exact(8);
        for (limb, chunk) in self.limbs.iter_mut().zip(&mut chunks) {
            *limb = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        let rem = chunks.remainder();
        if let Some(last) = self.limbs.last_mut().filter(|_| !rem.is_empty()) {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            *last = u64::from_le_bytes(tail);
        }
        // Reject set bits in the padding region beyond `len` — but
        // first clear them, so even the rejection path leaves `self`
        // honoring the representation invariant (derived
        // `PartialEq`/`Hash` compare raw limbs).
        if !len.is_multiple_of(64) {
            let valid_mask = (1u64 << (len % 64)) - 1;
            if let Some(last) = self.limbs.last_mut() {
                if *last & !valid_mask != 0 {
                    *last &= valid_mask;
                    return false;
                }
            }
        }
        true
    }

    /// Access to the raw limb slice (used by the XOR codec fast path).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Mutable access to the raw limb slice (the word-level write path
    /// of the bit-sliced randomizer).
    ///
    /// Callers must keep the invariant that bits at positions
    /// `>= len()` in the last limb stay zero; [`BitVec::mask_padding`]
    /// restores it after bulk limb writes.
    pub fn limbs_mut(&mut self) -> &mut [u64] {
        &mut self.limbs
    }

    /// Zeroes any bits at positions `>= len()` in the last limb,
    /// restoring the representation invariant after raw limb writes.
    pub fn mask_padding(&mut self) {
        if !self.len.is_multiple_of(64) {
            if let Some(last) = self.limbs.last_mut() {
                *last &= (1u64 << (self.len % 64)) - 1;
            }
        }
    }

    /// Resets to an all-zero vector of `len` bits, reusing the limb
    /// allocation when capacity allows.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.limbs.clear();
        self.limbs.resize(len.div_ceil(64), 0);
    }
}

impl Default for BitVec {
    /// The empty (zero-bit) vector.
    fn default() -> Self {
        BitVec::zeros(0)
    }
}

impl core::fmt::Display for BitVec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_no_set_bits() {
        let v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 0);
        assert!(v.iter().all(|b| !b));
    }

    #[test]
    fn set_get_round_trip_across_limb_boundaries() {
        let mut v = BitVec::zeros(200);
        for i in [0, 1, 63, 64, 65, 127, 128, 199] {
            v.set(i, true);
            assert!(v.get(i), "bit {i} should be set");
        }
        assert_eq!(v.count_ones(), 8);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 7);
    }

    #[test]
    fn one_hot_encodes_a_single_bucket() {
        let v = BitVec::one_hot(11, 3);
        assert_eq!(v.count_ones(), 1);
        assert!(v.get(3));
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    #[should_panic(expected = "one_hot index")]
    fn one_hot_rejects_out_of_range() {
        let _ = BitVec::one_hot(4, 4);
    }

    #[test]
    fn xor_is_an_involution() {
        let a = BitVec::from_bools((0..100).map(|i| i % 3 == 0));
        let k = BitVec::from_bools((0..100).map(|i| i % 7 < 3));
        let enc = a.xor(&k);
        assert_ne!(enc, a);
        assert_eq!(enc.xor(&k), a);
    }

    #[test]
    fn xor_with_self_is_zero() {
        let a = BitVec::from_bools((0..77).map(|i| i % 2 == 0));
        let z = a.xor(&a);
        assert_eq!(z.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_rejects_length_mismatch() {
        let mut a = BitVec::zeros(8);
        a.xor_with(&BitVec::zeros(9));
    }

    #[test]
    fn byte_round_trip_preserves_contents() {
        for len in [1usize, 7, 8, 9, 63, 64, 65, 100, 1000] {
            let v = BitVec::from_bools((0..len).map(|i| (i * 31 + len) % 5 < 2));
            let bytes = v.to_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8));
            let back = BitVec::from_bytes(len, &bytes).expect("valid bytes");
            assert_eq!(back, v, "round-trip failed for len {len}");
        }
    }

    /// `extend_bytes_into` ↔ `assign_from_bytes` at every width a
    /// tail can take (1..=200) and at 10⁴: the bytes append after
    /// whatever `out` held, decode into a reused vector, and a set
    /// padding bit — any bit past `len` in the last byte — is refused.
    #[test]
    fn byte_copies_round_trip_at_every_width() {
        let mut back = BitVec::zeros(0);
        for len in (1usize..=200).chain([10_000]) {
            let v = BitVec::from_bools((0..len).map(|i| (i * 7 + len) % 3 == 0));
            let mut out = vec![0xAB];
            v.extend_bytes_into(&mut out);
            assert_eq!(out.len(), 1 + len.div_ceil(8), "len {len}");
            assert_eq!(out[0], 0xAB, "len {len}: prefix kept");
            assert!(back.assign_from_bytes(len, &out[1..]), "len {len}");
            assert_eq!(back, v, "len {len}");
            if !len.is_multiple_of(8) {
                let mut bad = out[1..].to_vec();
                *bad.last_mut().unwrap() |= 0x80;
                assert!(!back.assign_from_bytes(len, &bad), "len {len}: padding");
                assert_eq!(back, BitVec::from_bools(back.iter()), "len {len}");
            }
        }
    }

    #[test]
    fn from_bytes_rejects_wrong_length() {
        assert!(BitVec::from_bytes(16, &[0u8; 3]).is_none());
        assert!(BitVec::from_bytes(16, &[0u8; 1]).is_none());
    }

    #[test]
    fn from_bytes_rejects_padding_garbage() {
        // len = 4 needs 1 byte; bits 4..8 are padding and must be 0.
        assert!(BitVec::from_bytes(4, &[0b0001_0000]).is_none());
        assert!(BitVec::from_bytes(4, &[0b0000_1111]).is_some());
    }

    #[test]
    fn rejected_assign_still_upholds_the_representation_invariant() {
        let mut v = BitVec::zeros(4);
        assert!(!v.assign_from_bytes(4, &[0b1000_0011]));
        // Rejected — but `v` must stay a *valid* BitVec: padding bits
        // cleared, so derived equality over raw limbs agrees with
        // logical bit equality.
        let logical = BitVec::from_bools(v.iter());
        assert_eq!(v, logical, "padding bits leaked into limbs");
        assert_eq!(v.to_bytes(), logical.to_bytes());
    }

    #[test]
    fn display_renders_lsb_first() {
        let mut v = BitVec::zeros(5);
        v.set(0, true);
        v.set(3, true);
        assert_eq!(v.to_string(), "10010");
    }
}
