//! ChaCha20 stream cipher (RFC 7539 / RFC 8439).
//!
//! PrivApprox's XOR-based encryption needs "a cryptographic
//! pseudo-random number generator (PRNG) seeded with a
//! cryptographically strong random number" to expand per-message seeds
//! into full-length key strings (paper §3.2.3). ChaCha20 is the
//! canonical choice; this is a from-scratch implementation validated
//! against the RFC test vectors.

/// ChaCha20 block function state.
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    counter: u32,
    /// Buffered keystream bytes not yet consumed.
    buffer: [u8; 64],
    buffered: usize,
}

/// The 16 summed state vectors of eight consecutive blocks from
/// `initial` (whose word 12 holds the first counter), interleaved in
/// AVX2 registers: vector `i` holds word `i` of blocks 0..8 across
/// its lanes. The 16/8-bit rotations use byte shuffles (one µop)
/// instead of shift+shift+or.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block8_avx2_core(initial: &[u32; 16]) -> [core::arch::x86_64::__m256i; 16] {
    use core::arch::x86_64::*;

    macro_rules! rotl {
        ($v:expr, 16) => {{
            let shuf = _mm256_set_epi8(
                13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2, //
                13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2,
            );
            _mm256_shuffle_epi8($v, shuf)
        }};
        ($v:expr, 8) => {{
            let shuf = _mm256_set_epi8(
                14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3, //
                14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3,
            );
            _mm256_shuffle_epi8($v, shuf)
        }};
        ($v:expr, $n:literal) => {{
            let v = $v;
            _mm256_or_si256(
                _mm256_slli_epi32::<$n>(v),
                _mm256_srli_epi32::<{ 32 - $n }>(v),
            )
        }};
    }
    macro_rules! qr {
        ($s:ident, $a:expr, $b:expr, $c:expr, $d:expr) => {
            $s[$a] = _mm256_add_epi32($s[$a], $s[$b]);
            $s[$d] = rotl!(_mm256_xor_si256($s[$d], $s[$a]), 16);
            $s[$c] = _mm256_add_epi32($s[$c], $s[$d]);
            $s[$b] = rotl!(_mm256_xor_si256($s[$b], $s[$c]), 12);
            $s[$a] = _mm256_add_epi32($s[$a], $s[$b]);
            $s[$d] = rotl!(_mm256_xor_si256($s[$d], $s[$a]), 8);
            $s[$c] = _mm256_add_epi32($s[$c], $s[$d]);
            $s[$b] = rotl!(_mm256_xor_si256($s[$b], $s[$c]), 7);
        };
    }

    let mut state = [_mm256_setzero_si256(); 16];
    for i in 0..16 {
        state[i] = _mm256_set1_epi32(initial[i] as i32);
    }
    let c = initial[12];
    state[12] = _mm256_setr_epi32(
        c as i32,
        c.wrapping_add(1) as i32,
        c.wrapping_add(2) as i32,
        c.wrapping_add(3) as i32,
        c.wrapping_add(4) as i32,
        c.wrapping_add(5) as i32,
        c.wrapping_add(6) as i32,
        c.wrapping_add(7) as i32,
    );
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        qr!(working, 0, 4, 8, 12);
        qr!(working, 1, 5, 9, 13);
        qr!(working, 2, 6, 10, 14);
        qr!(working, 3, 7, 11, 15);
        // Diagonal rounds.
        qr!(working, 0, 5, 10, 15);
        qr!(working, 1, 6, 11, 12);
        qr!(working, 2, 7, 8, 13);
        qr!(working, 3, 4, 9, 14);
    }
    let mut summed = [_mm256_setzero_si256(); 16];
    for i in 0..16 {
        summed[i] = _mm256_add_epi32(working[i], state[i]);
    }
    summed
}

/// [`block8_avx2_core`] with every rotation a single `vprold`:
/// AVX-512VL's native 32-bit rotate replaces both the byte-shuffle
/// (16/8) and shift+shift+or (12/7) forms, cutting roughly a third of
/// the round ops. Same function, same interleaved layout.
///
/// # Safety
///
/// The caller must have verified AVX-512F + AVX-512VL support at
/// runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl")]
unsafe fn block8_avx512_core(initial: &[u32; 16]) -> [core::arch::x86_64::__m256i; 16] {
    use core::arch::x86_64::*;

    macro_rules! qr {
        ($s:ident, $a:expr, $b:expr, $c:expr, $d:expr) => {
            $s[$a] = _mm256_add_epi32($s[$a], $s[$b]);
            $s[$d] = _mm256_rol_epi32::<16>(_mm256_xor_si256($s[$d], $s[$a]));
            $s[$c] = _mm256_add_epi32($s[$c], $s[$d]);
            $s[$b] = _mm256_rol_epi32::<12>(_mm256_xor_si256($s[$b], $s[$c]));
            $s[$a] = _mm256_add_epi32($s[$a], $s[$b]);
            $s[$d] = _mm256_rol_epi32::<8>(_mm256_xor_si256($s[$d], $s[$a]));
            $s[$c] = _mm256_add_epi32($s[$c], $s[$d]);
            $s[$b] = _mm256_rol_epi32::<7>(_mm256_xor_si256($s[$b], $s[$c]));
        };
    }

    let mut state = [_mm256_setzero_si256(); 16];
    for i in 0..16 {
        state[i] = _mm256_set1_epi32(initial[i] as i32);
    }
    let c = initial[12];
    state[12] = _mm256_setr_epi32(
        c as i32,
        c.wrapping_add(1) as i32,
        c.wrapping_add(2) as i32,
        c.wrapping_add(3) as i32,
        c.wrapping_add(4) as i32,
        c.wrapping_add(5) as i32,
        c.wrapping_add(6) as i32,
        c.wrapping_add(7) as i32,
    );
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        qr!(working, 0, 4, 8, 12);
        qr!(working, 1, 5, 9, 13);
        qr!(working, 2, 6, 10, 14);
        qr!(working, 3, 7, 11, 15);
        // Diagonal rounds.
        qr!(working, 0, 5, 10, 15);
        qr!(working, 1, 6, 11, 12);
        qr!(working, 2, 7, 8, 13);
        qr!(working, 3, 4, 9, 14);
    }
    let mut summed = [_mm256_setzero_si256(); 16];
    for i in 0..16 {
        summed[i] = _mm256_add_epi32(working[i], state[i]);
    }
    summed
}

/// 8×8 `u32` register transpose: row `L` of the result holds lane `L`
/// of each input vector, in input order. Used to de-interleave the
/// block function's word-major vectors into byte-order blocks without
/// a scalar pass.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose8x8_epi32(
    v: &[core::arch::x86_64::__m256i; 8],
) -> [core::arch::x86_64::__m256i; 8] {
    use core::arch::x86_64::*;
    let t0 = _mm256_unpacklo_epi32(v[0], v[1]);
    let t1 = _mm256_unpackhi_epi32(v[0], v[1]);
    let t2 = _mm256_unpacklo_epi32(v[2], v[3]);
    let t3 = _mm256_unpackhi_epi32(v[2], v[3]);
    let t4 = _mm256_unpacklo_epi32(v[4], v[5]);
    let t5 = _mm256_unpackhi_epi32(v[4], v[5]);
    let t6 = _mm256_unpacklo_epi32(v[6], v[7]);
    let t7 = _mm256_unpackhi_epi32(v[6], v[7]);
    let u0 = _mm256_unpacklo_epi64(t0, t2);
    let u1 = _mm256_unpackhi_epi64(t0, t2);
    let u2 = _mm256_unpacklo_epi64(t1, t3);
    let u3 = _mm256_unpackhi_epi64(t1, t3);
    let u4 = _mm256_unpacklo_epi64(t4, t6);
    let u5 = _mm256_unpackhi_epi64(t4, t6);
    let u6 = _mm256_unpacklo_epi64(t5, t7);
    let u7 = _mm256_unpackhi_epi64(t5, t7);
    [
        _mm256_permute2x128_si256::<0x20>(u0, u4),
        _mm256_permute2x128_si256::<0x20>(u1, u5),
        _mm256_permute2x128_si256::<0x20>(u2, u6),
        _mm256_permute2x128_si256::<0x20>(u3, u7),
        _mm256_permute2x128_si256::<0x31>(u0, u4),
        _mm256_permute2x128_si256::<0x31>(u1, u5),
        _mm256_permute2x128_si256::<0x31>(u2, u6),
        _mm256_permute2x128_si256::<0x31>(u3, u7),
    ]
}

/// Eight consecutive blocks from `initial`, de-interleaved to byte
/// order via two register transposes (no scalar pass).
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block8_avx2(initial: &[u32; 16]) -> [u8; 512] {
    let summed = block8_avx2_core(initial);
    let mut out = [0u8; 512];
    store_blocks8(&summed, &mut out);
    out
}

/// [`block8_avx2`] on the AVX-512 round core: same 512 bytes, fewer
/// round ops (see [`block8_avx512_core`]).
///
/// # Safety
///
/// The caller must have verified AVX-512F + AVX-512VL support at
/// runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl")]
unsafe fn block8_avx512(initial: &[u32; 16]) -> [u8; 512] {
    let summed = block8_avx512_core(initial);
    let mut out = [0u8; 512];
    store_blocks8(&summed, &mut out);
    out
}

/// Shared store epilogue of the plain block8 wrappers: de-interleave
/// the 16 summed word-major vectors via two register transposes and
/// write the 512 keystream bytes to `out`.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime; `out` must
/// hold at least 512 bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn store_blocks8(summed: &[core::arch::x86_64::__m256i; 16], out: &mut [u8]) {
    use core::arch::x86_64::*;
    debug_assert!(out.len() >= 512);
    let lo = transpose8x8_epi32(summed[..8].try_into().expect("8 vectors"));
    let hi = transpose8x8_epi32(summed[8..].try_into().expect("8 vectors"));
    for lane in 0..8 {
        let at = out.as_mut_ptr().add(lane * 64);
        _mm256_storeu_si256(at as *mut __m256i, lo[lane]);
        _mm256_storeu_si256(at.add(32) as *mut __m256i, hi[lane]);
    }
}

/// Eight consecutive blocks from `initial`, written straight into
/// `pad[..512]` while XOR-combining into `acc[..512]` — the split
/// stage's fused form, skipping the 512-byte materialize + copy of
/// [`block8_avx2`] entirely.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime, and `pad`
/// and `acc` must each hold at least 512 bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block8_avx2_fused(initial: &[u32; 16], pad: &mut [u8], acc: &mut [u8]) {
    let summed = block8_avx2_core(initial);
    store_xor_blocks8(&summed, pad, acc);
}

/// [`block8_avx2_fused`] on the AVX-512 round core: same bytes into
/// `pad` and `acc`, fewer round ops (see [`block8_avx512_core`]).
///
/// # Safety
///
/// The caller must have verified AVX-512F + AVX-512VL support at
/// runtime, and `pad` and `acc` must each hold at least 512 bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl")]
unsafe fn block8_avx512_fused(initial: &[u32; 16], pad: &mut [u8], acc: &mut [u8]) {
    let summed = block8_avx512_core(initial);
    store_xor_blocks8(&summed, pad, acc);
}

/// Shared store epilogue of the fused block8 wrappers: de-interleave
/// the 16 summed vectors, write the keystream into `pad[..512]` and
/// XOR it into `acc[..512]`.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime, and `pad`
/// and `acc` must each hold at least 512 bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn store_xor_blocks8(
    summed: &[core::arch::x86_64::__m256i; 16],
    pad: &mut [u8],
    acc: &mut [u8],
) {
    use core::arch::x86_64::*;
    debug_assert!(pad.len() >= 512 && acc.len() >= 512);
    let lo = transpose8x8_epi32(summed[..8].try_into().expect("8 vectors"));
    let hi = transpose8x8_epi32(summed[8..].try_into().expect("8 vectors"));
    for lane in 0..8 {
        let p = pad.as_mut_ptr().add(lane * 64);
        let a = acc.as_mut_ptr().add(lane * 64);
        _mm256_storeu_si256(p as *mut __m256i, lo[lane]);
        _mm256_storeu_si256(p.add(32) as *mut __m256i, hi[lane]);
        let a0 = _mm256_loadu_si256(a as *const __m256i);
        let a1 = _mm256_loadu_si256(a.add(32) as *const __m256i);
        _mm256_storeu_si256(a as *mut __m256i, _mm256_xor_si256(a0, lo[lane]));
        _mm256_storeu_si256(a.add(32) as *mut __m256i, _mm256_xor_si256(a1, hi[lane]));
    }
}

/// Four consecutive blocks from `initial` (whose word 12 holds the
/// first counter), interleaved in SSE2 registers. SSE2 is part of the
/// x86-64 baseline, so this needs no runtime feature detection.
#[cfg(target_arch = "x86_64")]
fn block4_sse2(initial: &[u32; 16]) -> [u8; 256] {
    use core::arch::x86_64::*;

    // SAFETY: all intrinsics used are SSE2, statically available on
    // every x86-64 target; loads/stores go through unaligned variants
    // on properly sized buffers.
    unsafe {
        macro_rules! rotl {
            ($v:expr, $n:literal) => {{
                let v = $v;
                _mm_or_si128(_mm_slli_epi32::<$n>(v), _mm_srli_epi32::<{ 32 - $n }>(v))
            }};
        }
        macro_rules! qr {
            ($s:ident, $a:expr, $b:expr, $c:expr, $d:expr) => {
                $s[$a] = _mm_add_epi32($s[$a], $s[$b]);
                $s[$d] = rotl!(_mm_xor_si128($s[$d], $s[$a]), 16);
                $s[$c] = _mm_add_epi32($s[$c], $s[$d]);
                $s[$b] = rotl!(_mm_xor_si128($s[$b], $s[$c]), 12);
                $s[$a] = _mm_add_epi32($s[$a], $s[$b]);
                $s[$d] = rotl!(_mm_xor_si128($s[$d], $s[$a]), 8);
                $s[$c] = _mm_add_epi32($s[$c], $s[$d]);
                $s[$b] = rotl!(_mm_xor_si128($s[$b], $s[$c]), 7);
            };
        }

        let mut state = [_mm_setzero_si128(); 16];
        for i in 0..16 {
            state[i] = _mm_set1_epi32(initial[i] as i32);
        }
        let c = initial[12];
        state[12] = _mm_setr_epi32(
            c as i32,
            c.wrapping_add(1) as i32,
            c.wrapping_add(2) as i32,
            c.wrapping_add(3) as i32,
        );
        let mut working = state;
        for _ in 0..10 {
            // Column rounds.
            qr!(working, 0, 4, 8, 12);
            qr!(working, 1, 5, 9, 13);
            qr!(working, 2, 6, 10, 14);
            qr!(working, 3, 7, 11, 15);
            // Diagonal rounds.
            qr!(working, 0, 5, 10, 15);
            qr!(working, 1, 6, 11, 12);
            qr!(working, 2, 7, 8, 13);
            qr!(working, 3, 4, 9, 14);
        }
        // De-interleave: block `lane` is the lane-th 32-bit element of
        // each of the 16 vectors, in word order.
        let mut lanes = [[0u32; 4]; 16];
        for i in 0..16 {
            let summed = _mm_add_epi32(working[i], state[i]);
            _mm_storeu_si128(lanes[i].as_mut_ptr() as *mut __m128i, summed);
        }
        let mut out = [0u8; 256];
        for lane in 0..4 {
            for i in 0..16 {
                let at = lane * 64 + i * 4;
                out[at..at + 4].copy_from_slice(&lanes[i][lane].to_le_bytes());
            }
        }
        out
    }
}

/// Portable 4-block kernel: fixed 4-lane loops that LLVM can
/// auto-vectorize on targets with 128-bit integer SIMD.
#[cfg(not(target_arch = "x86_64"))]
fn block4_portable(initial: &[u32; 16]) -> [u8; 256] {
    #[inline(always)]
    fn quarter_round4(s: &mut [[u32; 4]; 16], a: usize, b: usize, c: usize, d: usize) {
        for l in 0..4 {
            s[a][l] = s[a][l].wrapping_add(s[b][l]);
            s[d][l] = (s[d][l] ^ s[a][l]).rotate_left(16);
            s[c][l] = s[c][l].wrapping_add(s[d][l]);
            s[b][l] = (s[b][l] ^ s[c][l]).rotate_left(12);
            s[a][l] = s[a][l].wrapping_add(s[b][l]);
            s[d][l] = (s[d][l] ^ s[a][l]).rotate_left(8);
            s[c][l] = s[c][l].wrapping_add(s[d][l]);
            s[b][l] = (s[b][l] ^ s[c][l]).rotate_left(7);
        }
    }

    let mut state = [[0u32; 4]; 16];
    for i in 0..16 {
        state[i] = [initial[i]; 4];
    }
    for l in 0..4u32 {
        state[12][l as usize] = initial[12].wrapping_add(l);
    }
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round4(&mut working, 0, 4, 8, 12);
        quarter_round4(&mut working, 1, 5, 9, 13);
        quarter_round4(&mut working, 2, 6, 10, 14);
        quarter_round4(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round4(&mut working, 0, 5, 10, 15);
        quarter_round4(&mut working, 1, 6, 11, 12);
        quarter_round4(&mut working, 2, 7, 8, 13);
        quarter_round4(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 256];
    for lane in 0..4 {
        for i in 0..16 {
            let word = working[i][lane].wrapping_add(state[i][lane]);
            let at = lane * 64 + i * 4;
            out[at..at + 4].copy_from_slice(&word.to_le_bytes());
        }
    }
    out
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha20 {
    /// Creates a cipher from a 256-bit key and 96-bit nonce, with the
    /// block counter starting at `counter`.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> ChaCha20 {
        let mut k = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        let mut n = [0u32; 3];
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            n[i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        ChaCha20 {
            key: k,
            nonce: n,
            counter,
            buffer: [0; 64],
            buffered: 0,
        }
    }

    /// Convenience constructor from a 64-bit seed (hashed out to the
    /// full key): used when a client derives per-message keystreams
    /// from a compact seed.
    pub fn from_seed(seed: u64, stream: u64) -> ChaCha20 {
        let mut key = [0u8; 32];
        // SplitMix64 expansion of the seed into key material.
        let mut z = seed;
        for chunk in key.chunks_exact_mut(8) {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&stream.to_le_bytes());
        ChaCha20::new(&key, &nonce, 0)
    }

    /// The 16-word initial state for the current key/nonce and an
    /// arbitrary counter.
    fn initial_state(&self, counter: u32) -> [u32; 16] {
        let mut state = [0u32; 16];
        // "expand 32-byte k" constants.
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13..16].copy_from_slice(&self.nonce);
        state
    }

    /// Computes one 64-byte keystream block for the current counter.
    fn block(&self) -> [u8; 64] {
        let state = self.initial_state(self.counter);
        let mut working = state;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Computes four consecutive keystream blocks (counters
    /// `self.counter .. self.counter + 4`) in one interleaved pass.
    ///
    /// The state is held as 16 × 4 lanes, so every round operation is
    /// a 4-wide vector op: on x86-64 an explicit SSE2 kernel (always
    /// statically available there) runs it in 128-bit registers; other
    /// architectures get a portable lane-loop LLVM can auto-vectorize.
    /// Bulk keystream generation drops from ~6 to ~2 cycles/byte; the
    /// output is bit-identical to four sequential [`ChaCha20::block`]
    /// calls.
    fn block4(&self) -> [u8; 256] {
        #[cfg(target_arch = "x86_64")]
        {
            block4_sse2(&self.initial_state(self.counter))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            block4_portable(&self.initial_state(self.counter))
        }
    }

    /// Fills `out` with keystream bytes.
    ///
    /// Buffered bytes from a previous partial read are drained first;
    /// then whole blocks are written straight into `out` with no
    /// intermediate copy (8 at a time under AVX2, 4 under SSE2); a
    /// partial tail refills the buffer.
    pub fn keystream(&mut self, out: &mut [u8]) {
        self.produce(out, false)
    }

    /// Fills `out` with keystream bytes (alias of
    /// [`ChaCha20::keystream`], matching the `rand`-style name callers
    /// expect).
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        self.keystream(out)
    }

    /// Returns `len` fresh keystream bytes.
    pub fn next_bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.keystream(&mut v);
        v
    }

    /// XORs keystream into `data` in place, allocation-free: whole
    /// blocks are combined in `u64` words directly from the block
    /// function's output.
    pub fn xor_into(&mut self, data: &mut [u8]) {
        self.produce(data, true)
    }

    /// XORs `data` in place with keystream (encryption == decryption).
    pub fn apply(&mut self, data: &mut [u8]) {
        self.xor_into(data)
    }

    /// Writes keystream into `pad` **and** XORs the same keystream
    /// into `acc`, in one fused pass: each block is consumed for both
    /// targets while it is still in registers/L1, instead of
    /// materializing the whole pad and re-walking it with a second
    /// full-length XOR pass.
    ///
    /// This is the split-stage fusion primitive: `XorSplitter` emits
    /// every key string `MKᵢ` as a share payload (`pad`) while
    /// accumulating `M_E = M ⊕ MK₂ ⊕ … ⊕ MKₙ` (`acc`), so the
    /// previously separate `words::xor_into` accumulation rides the
    /// keystream write for free. Byte-identical to
    /// [`ChaCha20::keystream`] into `pad` followed by
    /// `words::xor_into(acc, pad)`.
    ///
    /// # Panics
    ///
    /// Panics if `pad` and `acc` differ in length.
    pub fn xor_keystream_into(&mut self, pad: &mut [u8], acc: &mut [u8]) {
        assert_eq!(
            pad.len(),
            acc.len(),
            "pad and accumulator must have equal lengths"
        );
        #[inline(always)]
        fn fuse(pad: &mut [u8], acc: &mut [u8], src: &[u8]) {
            for ((p, a), s) in pad.iter_mut().zip(acc.iter_mut()).zip(src) {
                *p = *s;
                *a ^= *s;
            }
        }
        // Buffered bytes from a previous partial read come first.
        let take = pad.len().min(self.buffered);
        if take > 0 {
            let start = 64 - self.buffered;
            fuse(
                &mut pad[..take],
                &mut acc[..take],
                &self.buffer[start..start + take],
            );
            self.buffered -= take;
        }
        let mut pad_rest = &mut pad[take..];
        let mut acc_rest = &mut acc[take..];
        #[cfg(target_arch = "x86_64")]
        if pad_rest.len() >= 512 && std::arch::is_x86_feature_detected!("avx2") {
            let rol = std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl");
            while pad_rest.len() >= 512 {
                let (pc, pt) = std::mem::take(&mut pad_rest).split_at_mut(512);
                let (ac, at) = std::mem::take(&mut acc_rest).split_at_mut(512);
                // SAFETY: the kernel's features were just verified at
                // runtime, and both chunks hold exactly 512 bytes.
                unsafe {
                    if rol {
                        block8_avx512_fused(&self.initial_state(self.counter), pc, ac);
                    } else {
                        block8_avx2_fused(&self.initial_state(self.counter), pc, ac);
                    }
                }
                self.counter = self.counter.wrapping_add(8);
                pad_rest = pt;
                acc_rest = at;
            }
        }
        while pad_rest.len() >= 256 {
            let blocks = self.block4();
            self.counter = self.counter.wrapping_add(4);
            let (pc, pt) = pad_rest.split_at_mut(256);
            let (ac, at) = acc_rest.split_at_mut(256);
            pc.copy_from_slice(&blocks);
            privapprox_types::words::xor_into(ac, &blocks);
            pad_rest = pt;
            acc_rest = at;
        }
        // Tail past the wide kernels (65..=255 bytes): one interleaved
        // 4-block call covers the remaining whole blocks AND the
        // buffered partial together — previously up to four sequential
        // scalar blocks (the common case for answer-sized payloads,
        // whose 2¹⁰-byte AVX2 runs leave a ~200-byte tail).
        if pad_rest.len() > 64 {
            let blocks = self.block4();
            let whole = pad_rest.len() / 64; // 1..=3
            let take = whole * 64;
            self.counter = self.counter.wrapping_add(whole as u32);
            let (pc, pt) = pad_rest.split_at_mut(take);
            let (ac, at) = acc_rest.split_at_mut(take);
            pc.copy_from_slice(&blocks[..take]);
            privapprox_types::words::xor_into(ac, &blocks[..take]);
            pad_rest = pt;
            acc_rest = at;
            if !pad_rest.is_empty() {
                // The next block is already computed: buffer it.
                self.buffer.copy_from_slice(&blocks[take..take + 64]);
                self.counter = self.counter.wrapping_add(1);
                self.buffered = 64;
                let len = pad_rest.len();
                fuse(pad_rest, acc_rest, &self.buffer[..len]);
                self.buffered -= len;
            }
        } else if pad_rest.len() == 64 {
            let block = self.block();
            self.counter = self.counter.wrapping_add(1);
            pad_rest.copy_from_slice(&block);
            privapprox_types::words::xor_into(acc_rest, &block);
        } else if !pad_rest.is_empty() {
            self.refill_buffer();
            let start = 64 - self.buffered;
            let len = pad_rest.len();
            fuse(pad_rest, acc_rest, &self.buffer[start..start + len]);
            self.buffered -= len;
        }
    }

    /// The shared bulk engine behind [`ChaCha20::keystream`]
    /// (`xor = false`: overwrite) and [`ChaCha20::xor_into`]
    /// (`xor = true`: combine). Widest available kernel first:
    /// 8 interleaved blocks under runtime-detected AVX2, 4 under
    /// baseline SSE2 (or the portable lane-loop elsewhere), scalar
    /// singles, then a buffered tail.
    fn produce(&mut self, out: &mut [u8], xor: bool) {
        let consume = |dst: &mut [u8], src: &[u8]| {
            if xor {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d ^= *s;
                }
            } else {
                dst.copy_from_slice(src);
            }
        };
        let drained = self.drain_buffer(out, consume);
        let mut rest = &mut out[drained..];
        #[cfg(target_arch = "x86_64")]
        if rest.len() >= 512 && std::arch::is_x86_feature_detected!("avx2") {
            let rol = std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl");
            while rest.len() >= 512 {
                let (chunk, tail) = rest.split_at_mut(512);
                // SAFETY: the kernel's features were just verified at
                // runtime.
                let blocks = unsafe {
                    if rol {
                        block8_avx512(&self.initial_state(self.counter))
                    } else {
                        block8_avx2(&self.initial_state(self.counter))
                    }
                };
                self.counter = self.counter.wrapping_add(8);
                if xor {
                    privapprox_types::words::xor_into(chunk, &blocks);
                } else {
                    chunk.copy_from_slice(&blocks);
                }
                rest = tail;
            }
        }
        while rest.len() >= 256 {
            let (chunk, tail) = rest.split_at_mut(256);
            let blocks = self.block4();
            self.counter = self.counter.wrapping_add(4);
            if xor {
                privapprox_types::words::xor_into(chunk, &blocks);
            } else {
                chunk.copy_from_slice(&blocks);
            }
            rest = tail;
        }
        // Tail (65..=255 bytes): one interleaved 4-block call covers
        // the remaining whole blocks and the buffered partial together
        // instead of up to four sequential scalar blocks.
        if rest.len() > 64 {
            let blocks = self.block4();
            let whole = rest.len() / 64; // 1..=3
            let take = whole * 64;
            self.counter = self.counter.wrapping_add(whole as u32);
            let (chunk, tail) = rest.split_at_mut(take);
            consume(chunk, &blocks[..take]);
            rest = tail;
            if !rest.is_empty() {
                self.buffer.copy_from_slice(&blocks[take..take + 64]);
                self.counter = self.counter.wrapping_add(1);
                self.buffered = 64;
                let len = rest.len();
                consume(rest, &self.buffer[..len]);
                self.buffered -= len;
            }
        } else if rest.len() == 64 {
            let block = self.block();
            self.counter = self.counter.wrapping_add(1);
            consume(rest, &block);
        } else if !rest.is_empty() {
            self.refill_buffer();
            let start = 64 - self.buffered;
            let len = rest.len();
            consume(rest, &self.buffer[start..start + len]);
            self.buffered -= len;
        }
    }

    /// Consumes up to `out.len()` bytes of previously buffered
    /// keystream through `consume(dst, keystream)`; returns how many
    /// bytes of `out` were covered.
    fn drain_buffer(&mut self, out: &mut [u8], consume: impl Fn(&mut [u8], &[u8])) -> usize {
        let take = out.len().min(self.buffered);
        if take > 0 {
            let start = 64 - self.buffered;
            consume(&mut out[..take], &self.buffer[start..start + take]);
            self.buffered -= take;
        }
        take
    }

    /// Generates the next block into the internal buffer.
    fn refill_buffer(&mut self) {
        debug_assert_eq!(self.buffered, 0);
        self.buffer = self.block();
        self.counter = self.counter.wrapping_add(1);
        self.buffered = 64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 7539 §2.3.2 block function test vector.
    #[test]
    fn rfc7539_block_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let cipher = ChaCha20::new(&key, &nonce, 1);
        let block = cipher.block();
        let expect: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(block, expect);
    }

    /// RFC 7539 §2.4.2 encryption test vector.
    #[test]
    fn rfc7539_encryption_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut cipher = ChaCha20::new(&key, &nonce, 1);
        let mut data = *b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        cipher.apply(&mut data);
        let expect_head: [u8; 16] = [
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81,
        ];
        assert_eq!(&data[..16], &expect_head);
        let expect_tail: [u8; 8] = [0x8e, 0xed, 0xf2, 0x78, 0x5e, 0x42, 0x87, 0x4d];
        assert_eq!(&data[data.len() - 8..], &expect_tail);
    }

    #[test]
    fn apply_twice_round_trips() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let mut original = vec![0u8; 1000];
        for (i, b) in original.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let mut data = original.clone();
        ChaCha20::new(&key, &nonce, 0).apply(&mut data);
        assert_ne!(data, original);
        ChaCha20::new(&key, &nonce, 0).apply(&mut data);
        assert_eq!(data, original);
    }

    /// The wide kernels (8-block AVX2, 4-block SSE2/portable) must be
    /// bit-identical to the scalar block path; byte-at-a-time reads
    /// can only ever use the scalar path, so comparing them against a
    /// bulk read exercises every kernel on this machine.
    #[test]
    fn wide_kernels_match_scalar_blocks() {
        for len in [256usize, 512, 1024, 1261, 4096 + 37] {
            let mut bulk = ChaCha20::from_seed(7, 3);
            let mut scalar = ChaCha20::from_seed(7, 3);
            let mut wide = vec![0u8; len];
            bulk.keystream(&mut wide);
            let narrow: Vec<u8> = (0..len).map(|_| scalar.next_bytes(1)[0]).collect();
            assert_eq!(wide, narrow, "len {len}");
        }
    }

    /// The AVX-512 round core must emit the exact bytes of the AVX2
    /// form, in both the plain and the fused wrapper.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_block8_matches_avx2() {
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl"))
        {
            return; // no AVX-512: nothing to cross-check
        }
        for seed in [0u64, 1, 0xFEED_FACE, u64::MAX] {
            let state = ChaCha20::from_seed(seed, 0).initial_state(seed as u32);
            let a = unsafe { block8_avx2(&state) };
            let b = unsafe { block8_avx512(&state) };
            assert_eq!(a[..], b[..], "seed {seed}");

            let mut pad_a = vec![0u8; 512];
            let mut pad_b = vec![0u8; 512];
            let mut acc_a: Vec<u8> = (0..512).map(|i| (i * 7) as u8).collect();
            let mut acc_b = acc_a.clone();
            unsafe {
                block8_avx2_fused(&state, &mut pad_a, &mut acc_a);
                block8_avx512_fused(&state, &mut pad_b, &mut acc_b);
            }
            assert_eq!(pad_a, pad_b, "fused pad, seed {seed}");
            assert_eq!(acc_a, acc_b, "fused acc, seed {seed}");
        }
    }

    /// `xor_into` must equal keystream-then-xor for every kernel size.
    #[test]
    fn xor_into_matches_keystream_xor() {
        for len in [0usize, 1, 63, 64, 255, 256, 511, 512, 1261] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
            let mut a = data.clone();
            ChaCha20::from_seed(9, 1).xor_into(&mut a);
            let ks = ChaCha20::from_seed(9, 1).next_bytes(len);
            let expect: Vec<u8> = data.iter().zip(&ks).map(|(d, k)| d ^ k).collect();
            assert_eq!(a, expect, "len {len}");
        }
    }

    /// The fused pad-write + accumulator-XOR must equal the two-pass
    /// form (keystream then xor) for every kernel size and for
    /// chunkings that leave partial blocks in the internal buffer.
    #[test]
    fn fused_xor_keystream_matches_two_pass() {
        for len in [0usize, 1, 11, 63, 64, 255, 256, 511, 512, 1261, 4096 + 37] {
            let mut pad_fused = vec![0u8; len];
            let mut acc_fused: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let mut fused = ChaCha20::from_seed(13, 2);
            fused.xor_keystream_into(&mut pad_fused, &mut acc_fused);

            let mut two_pass = ChaCha20::from_seed(13, 2);
            let mut pad_plain = vec![0u8; len];
            two_pass.keystream(&mut pad_plain);
            let mut acc_plain: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            for (a, p) in acc_plain.iter_mut().zip(&pad_plain) {
                *a ^= *p;
            }
            assert_eq!(pad_fused, pad_plain, "pad len {len}");
            assert_eq!(acc_fused, acc_plain, "acc len {len}");
        }
        // Interleaved chunked reads: fused calls must continue the
        // stream exactly where plain reads (and earlier fused calls)
        // left off, including mid-block.
        let mut stream = ChaCha20::from_seed(77, 5);
        let mut reference = ChaCha20::from_seed(77, 5);
        let mut consumed = Vec::new();
        for &len in &[7usize, 64, 13, 500, 129, 3] {
            let mut pad = vec![0u8; len];
            let mut acc = vec![0xA5u8; len];
            stream.xor_keystream_into(&mut pad, &mut acc);
            consumed.extend_from_slice(&pad);
            for (a, p) in acc.iter().zip(&pad) {
                assert_eq!(*a, 0xA5 ^ *p);
            }
        }
        assert_eq!(consumed, reference.next_bytes(consumed.len()));
    }

    #[test]
    fn keystream_is_deterministic_and_splittable() {
        let mut a = ChaCha20::from_seed(42, 0);
        let mut b = ChaCha20::from_seed(42, 0);
        let whole = a.next_bytes(130);
        let mut parts = b.next_bytes(7);
        parts.extend(b.next_bytes(64));
        parts.extend(b.next_bytes(59));
        assert_eq!(whole, parts, "chunked reads must match bulk reads");
    }

    #[test]
    fn different_seeds_and_streams_differ() {
        let a = ChaCha20::from_seed(1, 0).next_bytes(64);
        let b = ChaCha20::from_seed(2, 0).next_bytes(64);
        let c = ChaCha20::from_seed(1, 1).next_bytes(64);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn keystream_bits_look_balanced() {
        let bytes = ChaCha20::from_seed(99, 7).next_bytes(100_000);
        let ones: u64 = bytes.iter().map(|b| b.count_ones() as u64).sum();
        let total = bytes.len() as f64 * 8.0;
        let rate = ones as f64 / total;
        assert!((rate - 0.5).abs() < 0.01, "bit rate {rate}");
    }
}
