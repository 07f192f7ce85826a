//! A deterministic multiply-mix hasher for small fixed-width keys.
//!
//! The hot paths key their maps by ids that are one or two machine
//! words (`QueryId`, `MessageId`): a shard's per-query maps take a
//! lookup per decoded answer, and the aggregator's MID joiner takes
//! one per share. `std`'s default SipHash spends
//! more time absorbing a 16-byte key than those lookups spend on the
//! rest of the probe, and its per-process random seed makes map
//! behaviour vary run to run. This hasher folds each written word
//! into a single 64-bit state with a rotate + xor + odd-constant
//! multiply (the Fx / fxhash construction) — a handful of cycles per
//! key, deterministic across runs.
//!
//! Not DoS-resistant, and deliberately so: every keyed map using it
//! holds *internally generated* ids (random 128-bit MIDs, analyst
//! query ids), never attacker-chosen strings, so flooding a bucket
//! would require controlling the client RNG itself.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for [`FastHasher`], usable as the `S` parameter of
/// `HashMap`/`HashSet`. Deterministic: no per-process seed.
pub type FastState = BuildHasherDefault<FastHasher>;

/// Multiplicative word-folding hasher (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

/// 2⁶⁴ / φ, the usual odd multiplicative constant: consecutive ids
/// land maximally spread in the upper bits the map indexes by.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl FastHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            // Length tag so "ab" and "ab\0" fold differently.
            word[7] = rem.len() as u8;
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.fold(v as u64);
        self.fold((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::BuildHasher;

    fn hash_of(f: impl FnOnce(&mut FastHasher)) -> u64 {
        let mut h = FastHasher::default();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        let a = hash_of(|h| h.write_u128(0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233));
        let b = hash_of(|h| h.write_u128(0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233));
        assert_eq!(a, b);
    }

    #[test]
    fn different_keys_differ() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(hash_of(|h| h.write_u64(i))), "collision at {i}");
        }
    }

    #[test]
    fn byte_writes_are_length_tagged() {
        let a = hash_of(|h| h.write(b"ab"));
        let b = hash_of(|h| h.write(b"ab\0"));
        assert_ne!(a, b);
    }

    #[test]
    fn works_as_map_state() {
        let mut map: HashMap<u128, u32, FastState> = HashMap::default();
        for i in 0..1_000u128 {
            map.insert(i * 0x1_0000_0001, i as u32);
        }
        for i in 0..1_000u128 {
            assert_eq!(map.get(&(i * 0x1_0000_0001)), Some(&(i as u32)));
        }
        let state = FastState::default();
        assert_eq!(state.hash_one(7u64), state.hash_one(7u64));
    }

    /// Sequential ids (the common QueryId shape) must spread: a
    /// multiply-only hash with a bad constant can pile consecutive
    /// keys into the same buckets and degrade the map to a list.
    #[test]
    fn sequential_ids_spread_over_buckets() {
        let mut buckets = [0u32; 64];
        for i in 0..64_000u64 {
            let h = hash_of(|h| h.write_u64(i));
            buckets[(h >> 58) as usize] += 1;
        }
        let (min, max) = buckets
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &b| (lo.min(b), hi.max(b)));
        assert!(min > 500 && max < 1_500, "skewed spread: {min}..{max}");
    }
}
