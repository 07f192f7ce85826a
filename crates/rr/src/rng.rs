//! Bulk random-word generation for the randomized-response hot path.
//!
//! The bit-sliced sampler in [`crate::randomize`] consumes ~7 uniform
//! 64-bit words per 64 answer bits. Drawing them one scalar
//! `next_u64` at a time puts a serial ~4-cycle xoshiro dependency
//! chain in the middle of the comparison ripple; at 10⁴ buckets that
//! is roughly half the whole randomize stage. [`WideRng`] removes it:
//! eight independent xoshiro256++ generators run lane-parallel — as
//! two interleaved 256-bit AVX2 register sets when the CPU has them
//! (4 lanes per register, and the two sets' serial state chains
//! overlap in the pipeline), in a fixed 8-wide scalar loop otherwise
//! — and [`WideRng::fill_words`] writes whole word blocks at once,
//! so the sampler reads pre-filled buffers instead of calling into
//! the generator per word.
//!
//! # Stream layout and kernel equivalence
//!
//! One generator step advances all eight lanes and emits eight words,
//! interleaved `lane0, lane1, …, lane7`. Both kernels compute the
//! *same* function: the AVX2 path is just the 8-wide scalar loop in
//! two registers, so a given seed produces a byte-identical word
//! stream on every machine — property-tested in
//! `crates/rr/tests/properties.rs`, and the scalar kernel stays
//! directly reachable via [`WideRng::fill_words_portable`] so the
//! equivalence is testable on AVX2 hardware too.
//!
//! # Seeding and forking
//!
//! [`WideRng::seed_from_u64`] expands the seed through one SplitMix64
//! stream into all 32 state words (lane `l` takes words `4l..4l+4`),
//! the same recipe the `rand` shim's `StdRng` uses for its single
//! lane — so the eight lanes are decorrelated exactly as eight
//! consecutively-seeded scalar generators would be. A SplitMix64
//! stream's `i`-th word is a pure function of `(seed, i)`, so the 32
//! words are computed independently rather than by stepping the
//! stream. That matters because the client reseeds once per answer,
//! and independent words let the CPU overlap their multiplies instead
//! of waiting out a 32-step dependency chain.
//! [`WideRng::fork_from`] draws one word from a parent generator and
//! seeds a child from it: the child's stream is a deterministic
//! function of the parent's position, and the parent advances by
//! exactly one word, which is how each client's scratch derives its
//! private wide generator from the client RNG without coupling later
//! draws. This generator is **not** cryptographically secure — the
//! XOR-share key strings keep coming from `privapprox-crypto`'s
//! ChaCha20.

use rand::RngCore;

/// Lanes advanced per step (two AVX2 registers of 64-bit words).
pub const LANES: usize = 8;

/// Words buffered internally for the scalar [`RngCore::next_u64`]
/// drain path (bulk consumers should call [`WideRng::fill_words`]
/// and bypass this buffer entirely).
const DRAIN_BUF: usize = 32;

/// An 8-lane interleaved xoshiro256++ bulk generator.
///
/// See the [module docs](self) for stream layout, seeding/forking
/// semantics and the AVX2/scalar dispatch contract.
#[derive(Debug, Clone)]
pub struct WideRng {
    /// `s[j][l]` is state word `j` of lane `l` — word-major so each
    /// `s[j]` loads as two 4-lane SIMD registers.
    s: [[u64; LANES]; 4],
    /// Buffered words for the scalar drain path.
    buf: [u64; DRAIN_BUF],
    /// Next unread index in `buf` (`DRAIN_BUF` = empty).
    pos: usize,
}

impl WideRng {
    /// Seeds all eight lanes from one 64-bit seed via a single
    /// SplitMix64 stream (lane `l` gets stream words `4l..4l+4`).
    pub fn seed_from_u64(seed: u64) -> WideRng {
        WideRng {
            s: seed_state(seed),
            buf: [0; DRAIN_BUF],
            pos: DRAIN_BUF,
        }
    }

    /// Re-seeds in place, exactly as [`WideRng::seed_from_u64`] would
    /// (the drain buffer is emptied, not rewritten).
    pub(crate) fn reseed(&mut self, seed: u64) {
        self.s = seed_state(seed);
        self.pos = DRAIN_BUF;
    }

    /// Forks a child generator off any scalar RNG: draws exactly one
    /// word from `parent` and seeds the child from it.
    pub fn fork_from<R: RngCore + ?Sized>(parent: &mut R) -> WideRng {
        WideRng::seed_from_u64(parent.next_u64())
    }

    /// Fills `dest` with uniform words through the widest kernel the
    /// CPU offers (AVX2 when detected at runtime, the portable 8-wide
    /// scalar loop otherwise). Output is identical either way.
    ///
    /// Bypasses the internal drain buffer: a `fill_words` call after
    /// scalar `next_u64` draws does not replay buffered words, it
    /// continues the underlying lane streams.
    pub fn fill_words(&mut self, dest: &mut [u64]) {
        let split = dest.len() - dest.len() % LANES;
        let (blocks, tail) = dest.split_at_mut(split);
        self.fill_blocks(blocks);
        if !tail.is_empty() {
            let mut last = [0u64; LANES];
            self.fill_blocks(&mut last);
            tail.copy_from_slice(&last[..tail.len()]);
        }
    }

    /// [`WideRng::fill_words`] pinned to the portable scalar kernel,
    /// regardless of CPU features. Exists so the AVX2/scalar
    /// equivalence is testable on machines where the dispatcher would
    /// always pick AVX2; same seed ⇒ same words as `fill_words`.
    pub fn fill_words_portable(&mut self, dest: &mut [u64]) {
        let split = dest.len() - dest.len() % LANES;
        let (blocks, tail) = dest.split_at_mut(split);
        fill_blocks_scalar(&mut self.s, blocks);
        if !tail.is_empty() {
            let mut last = [0u64; LANES];
            fill_blocks_scalar(&mut self.s, &mut last);
            tail.copy_from_slice(&last[..tail.len()]);
        }
    }

    /// Kernel dispatch for a block-multiple destination.
    fn fill_blocks(&mut self, dest: &mut [u64]) {
        debug_assert_eq!(dest.len() % LANES, 0);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was just verified at runtime.
            unsafe { fill_blocks_avx512(&mut self.s, dest) };
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { fill_blocks_avx2(&mut self.s, dest) };
            return;
        }
        fill_blocks_scalar(&mut self.s, dest);
    }
}

impl RngCore for WideRng {
    /// Scalar drain: refills the internal buffer in bulk and hands
    /// out one word at a time. Interleaving `next_u64` with
    /// [`WideRng::fill_words`] is sound but discards whatever is left
    /// in the buffer at the next bulk call's block boundary — the two
    /// access styles share the lane streams, not the buffer.
    fn next_u64(&mut self) -> u64 {
        if self.pos == DRAIN_BUF {
            let mut buf = self.buf;
            self.fill_blocks(&mut buf);
            self.buf = buf;
            self.pos = 0;
        }
        let w = self.buf[self.pos];
        self.pos += 1;
        w
    }

    fn fill_words(&mut self, dest: &mut [u64]) {
        WideRng::fill_words(self, dest)
    }
}

/// SplitMix64's `i`-th output is the finalizer of `seed + (i + 1) · γ`,
/// so all 32 words are computed independently, with no serial chain
/// between them: lane `l`'s state word `j` is output `4l + j`.
fn seed_state(seed: u64) -> [[u64; LANES]; 4] {
    let mut s = [[0u64; LANES]; 4];
    for lane in 0..LANES {
        for (j, word) in s.iter_mut().enumerate() {
            let index = (4 * lane + j) as u64 + 1;
            let mut x = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            word[lane] = x ^ (x >> 31);
        }
    }
    // An all-zero lane is a fixed point of xoshiro. SplitMix64 is a
    // bijection of the counter so four consecutive zeros cannot happen
    // in practice, but the guard keeps the invariant local.
    for lane in 0..LANES {
        if s.iter().all(|w| w[lane] == 0) {
            s[0][lane] = 0x2545_F491_4F6C_DD1D ^ lane as u64;
        }
    }
    s
}

/// One xoshiro256++ step across all four lanes of `s`, returning the
/// four output words in lane order. The portable kernel: a fixed
/// 4-wide loop body LLVM can keep in vector registers on targets with
/// 128/256-bit integer SIMD, and plain fast scalar code elsewhere.
#[inline(always)]
fn step_scalar(s: &mut [[u64; LANES]; 4]) -> [u64; LANES] {
    let mut out = [0u64; LANES];
    for l in 0..LANES {
        out[l] = s[0][l]
            .wrapping_add(s[3][l])
            .rotate_left(23)
            .wrapping_add(s[0][l]);
        let t = s[1][l] << 17;
        s[2][l] ^= s[0][l];
        s[3][l] ^= s[1][l];
        s[1][l] ^= s[2][l];
        s[0][l] ^= s[3][l];
        s[2][l] ^= t;
        s[3][l] = s[3][l].rotate_left(45);
    }
    out
}

/// Portable kernel: `dest.len()` must be a multiple of [`LANES`].
fn fill_blocks_scalar(s: &mut [[u64; LANES]; 4], dest: &mut [u64]) {
    for chunk in dest.chunks_exact_mut(LANES) {
        chunk.copy_from_slice(&step_scalar(s));
    }
}

/// AVX2 kernel: the identical step with each state word's eight lanes
/// held in two 256-bit registers. The two register sets' serial
/// xoshiro chains are independent, so they overlap in the pipeline —
/// that, not just width, is what buys the ~2× over a single 4-lane
/// kernel.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
/// `dest.len()` must be a multiple of [`LANES`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_blocks_avx2(s: &mut [[u64; LANES]; 4], dest: &mut [u64]) {
    use core::arch::x86_64::*;

    #[inline(always)]
    unsafe fn rotl(v: __m256i, n: i32) -> __m256i {
        _mm256_or_si256(
            _mm256_sll_epi64(v, _mm_cvtsi32_si128(n)),
            _mm256_srl_epi64(v, _mm_cvtsi32_si128(64 - n)),
        )
    }

    let mut s0a = _mm256_loadu_si256(s[0].as_ptr() as *const __m256i);
    let mut s0b = _mm256_loadu_si256(s[0].as_ptr().add(4) as *const __m256i);
    let mut s1a = _mm256_loadu_si256(s[1].as_ptr() as *const __m256i);
    let mut s1b = _mm256_loadu_si256(s[1].as_ptr().add(4) as *const __m256i);
    let mut s2a = _mm256_loadu_si256(s[2].as_ptr() as *const __m256i);
    let mut s2b = _mm256_loadu_si256(s[2].as_ptr().add(4) as *const __m256i);
    let mut s3a = _mm256_loadu_si256(s[3].as_ptr() as *const __m256i);
    let mut s3b = _mm256_loadu_si256(s[3].as_ptr().add(4) as *const __m256i);

    let mut chunks = dest.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        // out = rotl(s0 + s3, 23) + s0, both halves interleaved.
        let out_a = _mm256_add_epi64(rotl(_mm256_add_epi64(s0a, s3a), 23), s0a);
        let out_b = _mm256_add_epi64(rotl(_mm256_add_epi64(s0b, s3b), 23), s0b);
        _mm256_storeu_si256(chunk.as_mut_ptr() as *mut __m256i, out_a);
        _mm256_storeu_si256(chunk.as_mut_ptr().add(4) as *mut __m256i, out_b);
        // State transition.
        let ta = _mm256_slli_epi64(s1a, 17);
        let tb = _mm256_slli_epi64(s1b, 17);
        s2a = _mm256_xor_si256(s2a, s0a);
        s2b = _mm256_xor_si256(s2b, s0b);
        s3a = _mm256_xor_si256(s3a, s1a);
        s3b = _mm256_xor_si256(s3b, s1b);
        s1a = _mm256_xor_si256(s1a, s2a);
        s1b = _mm256_xor_si256(s1b, s2b);
        s0a = _mm256_xor_si256(s0a, s3a);
        s0b = _mm256_xor_si256(s0b, s3b);
        s2a = _mm256_xor_si256(s2a, ta);
        s2b = _mm256_xor_si256(s2b, tb);
        s3a = rotl(s3a, 45);
        s3b = rotl(s3b, 45);
    }

    _mm256_storeu_si256(s[0].as_mut_ptr() as *mut __m256i, s0a);
    _mm256_storeu_si256(s[0].as_mut_ptr().add(4) as *mut __m256i, s0b);
    _mm256_storeu_si256(s[1].as_mut_ptr() as *mut __m256i, s1a);
    _mm256_storeu_si256(s[1].as_mut_ptr().add(4) as *mut __m256i, s1b);
    _mm256_storeu_si256(s[2].as_mut_ptr() as *mut __m256i, s2a);
    _mm256_storeu_si256(s[2].as_mut_ptr().add(4) as *mut __m256i, s2b);
    _mm256_storeu_si256(s[3].as_mut_ptr() as *mut __m256i, s3a);
    _mm256_storeu_si256(s[3].as_mut_ptr().add(4) as *mut __m256i, s3b);
}

/// AVX-512 kernel: each state word's eight lanes in ONE 512-bit
/// register, so the whole generator is four registers of live state.
/// Beyond the width, AVX-512F's native 64-bit rotate (`vprolq`)
/// collapses the three-instruction shift/shift/or rotate of the AVX2
/// form, cutting the serial xoshiro chain the step sits on. Stream
/// layout is the identical 8-lane interleave — same seed, same bytes.
///
/// # Safety
///
/// The caller must have verified AVX-512F support at runtime.
/// `dest.len()` must be a multiple of [`LANES`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fill_blocks_avx512(s: &mut [[u64; LANES]; 4], dest: &mut [u64]) {
    use core::arch::x86_64::*;

    let mut s0 = _mm512_loadu_si512(s[0].as_ptr() as *const __m512i);
    let mut s1 = _mm512_loadu_si512(s[1].as_ptr() as *const __m512i);
    let mut s2 = _mm512_loadu_si512(s[2].as_ptr() as *const __m512i);
    let mut s3 = _mm512_loadu_si512(s[3].as_ptr() as *const __m512i);

    for chunk in dest.chunks_exact_mut(LANES) {
        // out = rotl(s0 + s3, 23) + s0
        let out = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s0, s3)), s0);
        _mm512_storeu_si512(chunk.as_mut_ptr() as *mut __m512i, out);
        // State transition.
        let t = _mm512_slli_epi64::<17>(s1);
        s2 = _mm512_xor_si512(s2, s0);
        s3 = _mm512_xor_si512(s3, s1);
        s1 = _mm512_xor_si512(s1, s2);
        s0 = _mm512_xor_si512(s0, s3);
        s2 = _mm512_xor_si512(s2, t);
        s3 = _mm512_rol_epi64::<45>(s3);
    }

    _mm512_storeu_si512(s[0].as_mut_ptr() as *mut __m512i, s0);
    _mm512_storeu_si512(s[1].as_mut_ptr() as *mut __m512i, s1);
    _mm512_storeu_si512(s[2].as_mut_ptr() as *mut __m512i, s2);
    _mm512_storeu_si512(s[3].as_mut_ptr() as *mut __m512i, s3);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference single-lane xoshiro256++ for the interleaving proof.
    struct RefXoshiro {
        s: [u64; 4],
    }

    impl RefXoshiro {
        fn next(&mut self) -> u64 {
            let out = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }

    fn splitmix_words(seed: u64, n: usize) -> Vec<u64> {
        let mut z = seed;
        (0..n)
            .map(|_| {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            })
            .collect()
    }

    /// Lane `l` of the interleaved stream is exactly the scalar
    /// xoshiro256++ sequence seeded with SplitMix words `4l..4l+4` —
    /// the wide generator is eight honest scalar generators, not a new
    /// algorithm.
    #[test]
    fn lanes_match_scalar_xoshiro() {
        let seed = 0xD1CE;
        let material = splitmix_words(seed, 4 * LANES);
        let mut wide = WideRng::seed_from_u64(seed);
        let mut words = vec![0u64; 64 * LANES];
        wide.fill_words(&mut words);
        for lane in 0..LANES {
            let mut reference = RefXoshiro {
                s: material[lane * 4..lane * 4 + 4].try_into().unwrap(),
            };
            for step in 0..64 {
                assert_eq!(
                    words[step * LANES + lane],
                    reference.next(),
                    "lane {lane}, step {step}"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed_and_chunking_invariant() {
        let mut a = WideRng::seed_from_u64(7);
        let mut b = WideRng::seed_from_u64(7);
        let mut c = WideRng::seed_from_u64(8);
        let mut whole = vec![0u64; 96];
        a.fill_words(&mut whole);
        // Same seed, block-aligned chunking: identical stream (an
        // unaligned tail would draw a whole block and drop the rest,
        // desynchronizing later aligned fills by design).
        let mut parts = vec![0u64; 96];
        b.fill_words(&mut parts[..56]);
        b.fill_words(&mut parts[56..]);
        assert_eq!(whole, parts);
        let mut other = vec![0u64; 96];
        c.fill_words(&mut other);
        assert_ne!(whole, other);
    }

    #[test]
    fn next_u64_is_a_buffered_view_of_fill_words() {
        let mut bulk = WideRng::seed_from_u64(11);
        let mut scalar = WideRng::seed_from_u64(11);
        let mut words = vec![0u64; DRAIN_BUF * 2 + 3];
        bulk.fill_words(&mut words);
        for (i, &w) in words.iter().take(DRAIN_BUF * 2).enumerate() {
            assert_eq!(w, scalar.next_u64(), "word {i}");
        }
    }

    #[test]
    fn forked_children_differ_from_parent_and_each_other() {
        let mut parent = WideRng::seed_from_u64(3);
        let mut kid_a = WideRng::fork_from(&mut parent);
        let mut kid_b = WideRng::fork_from(&mut parent);
        let mut wa = vec![0u64; 32];
        let mut wb = vec![0u64; 32];
        let mut wp = vec![0u64; 32];
        kid_a.fill_words(&mut wa);
        kid_b.fill_words(&mut wb);
        parent.fill_words(&mut wp);
        assert_ne!(wa, wb);
        assert_ne!(wa, wp);
        assert_ne!(wb, wp);
    }

    #[test]
    fn word_bits_look_balanced() {
        let mut rng = WideRng::seed_from_u64(99);
        let mut words = vec![0u64; 20_000];
        rng.fill_words(&mut words);
        let ones: u64 = words.iter().map(|w| w.count_ones() as u64).sum();
        let rate = ones as f64 / (words.len() as f64 * 64.0);
        assert!((rate - 0.5).abs() < 0.005, "bit rate {rate}");
    }

    /// Every kernel the dispatcher can pick emits the same stream:
    /// `fill_words` (widest available) against the pinned portable
    /// form, across seeds and block counts.
    #[test]
    fn wide_kernels_share_one_stream() {
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let mut dispatched = WideRng::seed_from_u64(seed);
            let mut portable = WideRng::seed_from_u64(seed);
            let mut a = vec![0u64; 8 * 37];
            let mut b = vec![0u64; 8 * 37];
            dispatched.fill_words(&mut a);
            portable.fill_words_portable(&mut b);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn odd_lengths_fill_completely() {
        for len in [0usize, 1, 2, 3, 5, 63] {
            let mut rng = WideRng::seed_from_u64(1);
            let mut words = vec![0u64; len];
            rng.fill_words(&mut words);
            if len >= 4 {
                assert!(words.iter().any(|&w| w != 0), "len {len}");
            }
        }
    }
}
