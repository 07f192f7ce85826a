//! The two-coin randomized response mechanism (paper §3.2.2).
//!
//! "The client flips a coin, if it comes up heads, then the client
//! responds its truthful answer; otherwise, the client flips a second
//! coin and responds 'Yes' if it comes up heads or 'No' if it comes up
//! tails." The first coin lands heads with probability `p`, the second
//! with probability `q`.
//!
//! # The composed channel in fixed point
//!
//! The vector path ([`Randomizer::randomize_vec_into`]) does not flip
//! the two coins separately: it samples the *composed* channel, whose
//! output bit is Bernoulli `p + (1−p)·q` when the truthful bit is 1 and
//! `(1−p)·q` when it is 0. Both biases are 16-bit fixed point
//! (`T = round(bias · 2¹⁶)`, clamped into `[1, 2¹⁶ − 1]`), and a lane
//! says "Yes" iff a uniform 16-bit `r` is below its threshold.
//!
//! The trade-off: per-bit marginals are quantized to multiples of
//! 2⁻¹⁶, i.e. the realized composed bias is within 2⁻¹⁷ ≈ 7.6·10⁻⁶
//! of the exact `p + (1−p)q` / `(1−p)q`. That error is far below both
//! the paper's reported accuracy-loss scales (Table 1: η ~ 10⁻²) and
//! anything a χ² test over 10⁵–10⁶ bits can resolve; the privacy
//! accounting (Equation 8) changes only in the sixth decimal place.
//! The scalar path ([`Randomizer::randomize_bit`]) still flips the
//! two coins literally with exact `f64` comparisons and remains the
//! reference the property tests compare against.
//!
//! # Survivor-compacted sampling
//!
//! An answer of four limbs or more is drawn as two masks in which
//! every bit is independently Bernoulli(`T / 2¹⁶`) for one constant
//! `T`: every limb gets the truth-0 mask `S₀` (threshold `T₀`), each
//! limb whose truth limb is non-zero also gets an independent truth-1
//! mask `S₁` (`T₁`), and the output limb is `(t & S₁) | (!t & S₀)`.
//! A one-hot answer therefore pays for one extra limb. One mask is two
//! stages:
//!
//! * If `T > 2¹⁵` the sampler draws the complement `2¹⁶ − T` and
//!   inverts the mask, so from here on `T ≤ 2¹⁵`. With `k` the leading
//!   zeros of `T` in 16 bits, `r < T` holds exactly when `r`'s top `k`
//!   bits are all zero and its low `16 − k` bits are below `T`.
//! * **Stage 1** draws the top bits, `k` words per limb: the survivors
//!   are `!(w₁ | … | w_k)`, a density of 2⁻ᵏ.
//! * **Stage 2** compares only the survivors' low bits against `T`. It
//!   is an MSB-first bit-sliced ripple against the constant `T` over
//!   64 compacted survivor lanes per word, from `T`'s top bit down to
//!   its lowest set bit; it runs every position, because a branch on
//!   "all 64 decided" costs more than the few words it saves. Its
//!   result bits are handed out in order, `popcount` of them per limb,
//!   and deposited on that limb's survivors with `pdep` (BMI2 when the
//!   CPU has it, a portable loop with identical bits otherwise). The
//!   portable loop branches once per survivor, and those branches do
//!   not predict: on a 10⁴-bucket answer it makes the whole sampler
//!   about three times slower than `pdep`.
//!
//! The result is exact, not approximate: a lane's `r` is built from
//! bits no other lane reads — its top bits are its own column of the
//! stage-1 words, its low bits its own column of one stage-2 word,
//! drawn after stage 1 fixed which lanes survive — so each lane says
//! "Yes" with probability `2⁻ᵏ · T / 2¹⁶⁻ᵏ = T / 2¹⁶`, independently of
//! every other lane. The channel is the same 16-bit fixed-point
//! channel as before, so Equations 5, 8 and 9 are unchanged.
//!
//! At the benchmark's `(p, q) = (0.9, 0.6)`, `T₀ = 3 932` (`k = 4`,
//! stage 2 over 10 bit positions) and `T₁`'s complement is 2 621
//! (`k = 4`): stage 1 costs 4 words per limb and stage 2 10 words per
//! 64 survivors, 4 survivors per limb. A one-hot 10⁴-bucket answer
//! reads ≈ 4.7 words per limb and draws 5.05, counting what the last
//! refill leaves unread (a unit test pins ≤ 5.5). Resolving every
//! lane in lock-step instead costs 10.8 words per limb with 512 lanes
//! abreast, since the ripple runs until the last lane decides, while
//! one lane needs about two random bits.
//!
//! # Narrow answers
//!
//! Below four limbs the fused single-limb ripple (`yes_block1`) is
//! cheaper: each lane draws one coin against a per-lane threshold
//! selected from its truth bit, ≈ 7 words per limb, with no second
//! mask to pay for. The selection reads only the answer width, which
//! is public (it is in the query and on the wire).
//!
//! # Bulk random words
//!
//! Neither sampler calls the generator per word: a cursor pre-fills a
//! word buffer in blocks ([`rand::RngCore::fill_words`]) and both read
//! slices of it, so the generator's serial dependency chain stays out
//! of the sampling loops. The compacted sampler works through an
//! answer in chunks of 32 limbs, so one fixed 4 KiB buffer serves any
//! width.
//! [`Randomizer::randomize_vec_buffered`] pairs this with a
//! [`crate::rng::WideRng`] — an 8-lane AVX2/AVX-512/scalar xoshiro256++
//! — held in a reusable [`RandomizeScratch`]; that is the client hot
//! path. [`Randomizer::randomize_vec_into`] keeps the generic-RNG
//! surface (any [`rand::Rng`]) over a stack buffer.

use crate::rng::WideRng;
use privapprox_types::BitVec;
use rand::Rng;

/// Fixed-point scale for the bit-sliced coin biases: probabilities are
/// quantized to multiples of 2⁻¹⁶ (see the module docs for the
/// precision trade-off).
pub const COIN_FRACTION_BITS: u32 = 16;

const COIN_ONE: u32 = 1 << COIN_FRACTION_BITS;

/// A configured randomized-response mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Randomizer {
    p: f64,
    q: f64,
    /// `round((p + (1−p)q) · 2¹⁶)`: the composed-channel fixed-point
    /// threshold for lanes whose truthful bit is 1.
    yes1_fx: u32,
    /// `round((1−p)q · 2¹⁶)`: the composed-channel threshold for
    /// lanes whose truthful bit is 0.
    yes0_fx: u32,
}

impl Randomizer {
    /// Creates a mechanism with first-coin bias `p` and second-coin
    /// bias `q`.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ (0, 1]` and `q ∈ (0, 1)`. `p = 1` is the
    /// degenerate truthful mechanism (used by the paper's error
    /// decomposition experiment, Fig 4b); `q ∈ {0, 1}` would make one
    /// response value impossible and Equation 8 vacuous.
    pub fn new(p: f64, q: f64) -> Randomizer {
        assert!(p > 0.0 && p <= 1.0, "p={p} outside (0,1]");
        assert!(q > 0.0 && q < 1.0, "q={q} outside (0,1)");
        Randomizer {
            p,
            q,
            yes1_fx: to_fixed(p + (1.0 - p) * q),
            yes0_fx: to_fixed((1.0 - p) * q),
        }
    }

    /// First-coin bias `p` (probability of truthful response).
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Second-coin bias `q` (probability of a "Yes" lie).
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Randomizes one truthful bit.
    pub fn randomize_bit<R: Rng + ?Sized>(&self, truth: bool, rng: &mut R) -> bool {
        if rng.gen::<f64>() < self.p {
            truth
        } else {
            rng.gen::<f64>() < self.q
        }
    }

    /// Randomizes every bit of an `A[n]` answer vector independently.
    ///
    /// Per-bit independence is what lets the aggregator invert each
    /// bucket count separately with Equation 5.
    ///
    /// Thin allocating wrapper over
    /// [`Randomizer::randomize_vec_into`].
    pub fn randomize_vec<R: Rng + ?Sized>(&self, truth: &BitVec, rng: &mut R) -> BitVec {
        let mut out = BitVec::zeros(truth.len());
        self.randomize_vec_into(truth, &mut out, rng);
        out
    }

    /// Randomizes `truth` into a caller-owned output vector through
    /// the sampler the module docs describe (survivor-compacted from
    /// four limbs up, the fused single-limb ripple below).
    ///
    /// Random words are pre-filled through [`rand::RngCore::fill_words`]
    /// into a 4 KiB stack buffer; `rng` is the generic surface, so any
    /// generator works (a bulk generator like [`WideRng`] makes the
    /// fills wide). For the reusable-buffer client hot path see
    /// [`Randomizer::randomize_vec_buffered`].
    ///
    /// `out` is resized to match `truth` if needed; at steady state
    /// (same answer width each epoch) the call is allocation-free.
    pub fn randomize_vec_into<R: Rng + ?Sized>(
        &self,
        truth: &BitVec,
        out: &mut BitVec,
        rng: &mut R,
    ) {
        let mut buf = [0u64; BUF_WORDS];
        self.randomize_vec_with_buf(truth, out, rng, &mut buf);
    }

    /// [`Randomizer::randomize_vec_into`] through a caller-owned
    /// [`RandomizeScratch`]: the word buffer lives on the heap and is
    /// reused across calls, and the generator is a private 8-lane
    /// [`WideRng`] forked lazily (one `next_u64`) from `seeder` on the
    /// scratch's first use. This is the client's steady-state path —
    /// after the first call the scratch never allocates again.
    pub fn randomize_vec_buffered<R: Rng + ?Sized>(
        &self,
        truth: &BitVec,
        out: &mut BitVec,
        scratch: &mut RandomizeScratch,
        seeder: &mut R,
    ) {
        scratch.ensure_ready(seeder);
        let rng = scratch.rng.as_mut().expect("seeded above");
        self.randomize_vec_with_buf(truth, out, rng, &mut scratch.words);
    }

    /// [`Randomizer::randomize_vec_buffered`] with **deterministic
    /// per-call forking**: the scratch's wide generator is re-forked
    /// from `seeder` on *every* call (one `next_u64`), so the output
    /// depends only on `truth` and the seeder's state at the call —
    /// never on how many randomizations the scratch served before or
    /// on whose behalf. That independence is what lets a deployment
    /// share one scratch across a whole client population (the
    /// epoch-at-a-time `System`) or give every shard worker its own
    /// (`ShardedSystem`) and still produce bit-identical answers
    /// client for client; the sharded-vs-single-threaded equivalence
    /// tests in `privapprox-core` pin exactly this.
    ///
    /// Costs one 8-lane reseed (32 independent SplitMix64 outputs, no
    /// heap) per call on top of the buffered path; the word buffer is
    /// still reused, so the steady state remains allocation-free. The
    /// degenerate `p = 1` channel consumes nothing from `seeder`,
    /// matching the identity short-circuit of the other entry points.
    pub fn randomize_vec_forked<R: Rng + ?Sized>(
        &self,
        truth: &BitVec,
        out: &mut BitVec,
        scratch: &mut RandomizeScratch,
        seeder: &mut R,
    ) {
        if self.p >= 1.0 {
            // Identity channel, exactly as the shared driver computes
            // it — inlined here so a cold scratch doesn't fork (and
            // consume a seeder word) for a path that never draws.
            if out.len() != truth.len() {
                out.reset(truth.len());
            }
            out.limbs_mut().copy_from_slice(truth.limbs());
            out.mask_padding();
            return;
        }
        scratch.refork(seeder);
        scratch.ensure_ready(seeder);
        let rng = scratch.rng.as_mut().expect("seeded above");
        self.randomize_vec_with_buf(truth, out, rng, &mut scratch.words);
    }

    /// Shared driver: picks the sampler by width and hands it a word
    /// cursor over `buf` (at least [`BUF_WORDS`] words).
    fn randomize_vec_with_buf<R: Rng + ?Sized>(
        &self,
        truth: &BitVec,
        out: &mut BitVec,
        rng: &mut R,
        buf: &mut [u64],
    ) {
        if out.len() != truth.len() {
            out.reset(truth.len());
        }
        if self.p >= 1.0 {
            // Degenerate truthful mechanism: the channel is the
            // identity, exactly (no quantization leak).
            out.limbs_mut().copy_from_slice(truth.limbs());
            out.mask_padding();
            return;
        }
        assert!(
            buf.len() >= BUF_WORDS,
            "word buffer too small: {} < {BUF_WORDS}",
            buf.len()
        );
        let mut cursor = WordCursor {
            rng,
            buf,
            pos: 0,
            filled: 0,
        };
        let truth_limbs = truth.limbs();
        let out_limbs = out.limbs_mut();
        if truth_limbs.len() < COMPACT_MIN_LIMBS {
            self.ripple(truth_limbs, out_limbs, &mut cursor);
        } else if has_bmi2() {
            // SAFETY: BMI2 and POPCNT were just detected at runtime.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                self.compacted_bmi2(truth_limbs, out_limbs, &mut cursor)
            };
        } else {
            self.compacted::<R, false>(truth_limbs, out_limbs, &mut cursor);
        }
        out.mask_padding();
    }

    /// The fused single-limb ripple over a narrow answer: see
    /// [`yes_block1`].
    fn ripple<R: Rng + ?Sized>(
        &self,
        truth: &[u64],
        out: &mut [u64],
        cursor: &mut WordCursor<'_, R>,
    ) {
        // Bits below both thresholds' lowest set bit cannot flip any
        // lane's comparison; skip them for every limb.
        let stop = self
            .yes1_fx
            .trailing_zeros()
            .min(self.yes0_fx.trailing_zeros());
        // Broadcast each threshold bit to a full word once per call.
        let mut bits = [(0u64, 0u64); COIN_FRACTION_BITS as usize];
        for j in stop..COIN_FRACTION_BITS {
            bits[j as usize] = (
                (((self.yes1_fx >> j) & 1) as u64).wrapping_neg(),
                (((self.yes0_fx >> j) & 1) as u64).wrapping_neg(),
            );
        }
        // Worst-case words one limb can consume; ≥ 1 because the
        // thresholds are clamped into [1, 2¹⁶ − 1].
        let per_limb = (COIN_FRACTION_BITS - stop) as usize;
        let mut limbs_left = truth.len();
        for (o, &t) in out.iter_mut().zip(truth) {
            cursor.ensure(per_limb, per_limb * limbs_left);
            let (word, used) = yes_block1(t, &bits, stop, &cursor.buf[cursor.pos..]);
            cursor.pos += used;
            *o = word;
            limbs_left -= 1;
        }
    }

    /// [`Randomizer::compacted`] with the hardware bit deposit and
    /// population count.
    ///
    /// # Safety
    ///
    /// The caller must have verified BMI2 and POPCNT support at
    /// runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "bmi2,popcnt")]
    unsafe fn compacted_bmi2<R: Rng + ?Sized>(
        &self,
        truth: &[u64],
        out: &mut [u64],
        cursor: &mut WordCursor<'_, R>,
    ) {
        self.compacted::<R, true>(truth, out, cursor);
    }

    /// The survivor-compacted sampler (see the module docs), one
    /// chunk of [`CHUNK_LIMBS`] limbs at a time: the chunk's `S₀`,
    /// then one `S₁` over the chunk's limbs with a truthful "Yes",
    /// gathered. Each mask carries its leftover stage-2 bits from
    /// chunk to chunk. `BMI2` selects the hardware deposit; only
    /// [`Randomizer::compacted_bmi2`] sets it.
    #[inline(always)]
    fn compacted<R: Rng + ?Sized, const BMI2: bool>(
        &self,
        truth: &[u64],
        out: &mut [u64],
        cursor: &mut WordCursor<'_, R>,
    ) {
        let mut yes0 = Coin::new(self.yes0_fx);
        let mut yes1 = Coin::new(self.yes1_fx);
        let mut yes_limbs = [0usize; CHUNK_LIMBS];
        let mut s1 = [0u64; CHUNK_LIMBS];
        for (out, truth) in out.chunks_mut(CHUNK_LIMBS).zip(truth.chunks(CHUNK_LIMBS)) {
            yes0.fill::<R, BMI2>(out, cursor);
            let mut m = 0;
            for (i, &t) in truth.iter().enumerate() {
                yes_limbs[m] = i;
                m += (t != 0) as usize;
            }
            if m == 0 {
                continue;
            }
            yes1.fill::<R, BMI2>(&mut s1[..m], cursor);
            for (&i, &s) in yes_limbs[..m].iter().zip(&s1[..m]) {
                out[i] = (truth[i] & s) | (!truth[i] & out[i]);
            }
        }
    }

    /// Probability that the randomized response is "Yes" given the
    /// truthful answer: `p + (1−p)·q` for a truthful Yes, `(1−p)·q`
    /// for a truthful No.
    pub fn yes_probability(&self, truth: bool) -> f64 {
        if truth {
            self.p + (1.0 - self.p) * self.q
        } else {
            (1.0 - self.p) * self.q
        }
    }
}

/// Quantizes a probability to 16-bit fixed point, clamping into
/// `[1, 2¹⁶ − 1]` so it never collapses to never/always-heads: a
/// composed yes-probability within 2⁻¹⁷ of 0 or 1 — including one
/// that *float-rounds to exactly 1.0* from a `p` just under 1 —
/// must still flip a real coin. Collapsing to 0 would deterministically
/// erase truthful "Yes" bits (the threshold `2¹⁶` has no bits in the
/// compared range, inverting the channel); collapsing to 1 would
/// silently void the privacy guarantee the ε accounting reports. The
/// only legitimately deterministic channel, `p = 1`, bypasses the
/// coins entirely in [`Randomizer::randomize_vec_into`].
fn to_fixed(bias: f64) -> u32 {
    ((bias * COIN_ONE as f64).round() as u32).clamp(1, COIN_ONE - 1)
}

/// Answers narrower than this many limbs take the fused single-limb
/// ripple; wider ones the survivor-compacted sampler (see the module
/// docs, "Narrow answers").
const COMPACT_MIN_LIMBS: usize = 4;

/// Limbs per chunk of the compacted sampler. A chunk's stage-1 words
/// (at most 15 per limb, at `T = 1`) must fit the word buffer at once.
const CHUNK_LIMBS: usize = 32;

/// Words in either path's buffer: one chunk's worst-case stage 1.
const BUF_WORDS: usize = 512;

const _: () = assert!(BUF_WORDS >= (COIN_FRACTION_BITS as usize - 1) * CHUNK_LIMBS);

/// Whether the CPU has BMI2's `pdep` (and POPCNT, which the
/// survivor counts want in hardware too).
#[cfg(target_arch = "x86_64")]
fn has_bmi2() -> bool {
    std::arch::is_x86_feature_detected!("bmi2") && std::arch::is_x86_feature_detected!("popcnt")
}

#[cfg(not(target_arch = "x86_64"))]
fn has_bmi2() -> bool {
    false
}

/// Reusable buffers for [`Randomizer::randomize_vec_buffered`]: a
/// private 8-lane [`WideRng`] plus the heap word buffer its bulk
/// fills land in.
///
/// Both pieces materialize on the scratch's **first** use — the
/// generator forks off the caller's seeder RNG (consuming exactly one
/// `next_u64`; see [`WideRng::fork_from`] for the semantics) and the
/// buffer allocates once — after which the warm path is
/// allocation-free, which is what lets the client answer pipeline's
/// zero-alloc steady-state proof cover the randomize stage.
#[derive(Debug, Clone, Default)]
pub struct RandomizeScratch {
    /// The scratch's private wide generator (`None` until first use).
    rng: Option<WideRng>,
    /// Pre-filled random words (empty until first use).
    words: Vec<u64>,
}

impl RandomizeScratch {
    /// Creates an empty scratch (generator forked and buffer allocated
    /// on first use).
    pub fn new() -> RandomizeScratch {
        RandomizeScratch::default()
    }

    /// Creates a scratch around an explicitly seeded generator
    /// (buffer still allocates on first use).
    pub fn with_rng(rng: WideRng) -> RandomizeScratch {
        RandomizeScratch {
            rng: Some(rng),
            words: Vec::new(),
        }
    }

    /// Replaces the scratch generator with a fresh fork of `seeder`
    /// (consuming exactly one `next_u64`). The per-call determinism
    /// anchor of [`Randomizer::randomize_vec_forked`]: after a refork
    /// the scratch's stream position is a pure function of the
    /// seeder's state, regardless of the scratch's history. No heap —
    /// the generator is inline state.
    pub fn refork<R: Rng + ?Sized>(&mut self, seeder: &mut R) {
        match &mut self.rng {
            Some(rng) => rng.reseed(seeder.next_u64()),
            None => self.rng = Some(WideRng::fork_from(seeder)),
        }
    }

    /// First-use initialization: fork the wide generator and size the
    /// word buffer. No-ops when already warm.
    fn ensure_ready<R: Rng + ?Sized>(&mut self, seeder: &mut R) {
        if self.rng.is_none() {
            self.rng = Some(WideRng::fork_from(seeder));
        }
        if self.words.is_empty() {
            self.words = vec![0u64; BUF_WORDS];
        }
    }
}

/// Words the cursor tops up per refill beyond what the next read
/// needs: large enough to amortize the bulk generator's call
/// overhead, small enough that generation tracks consumption.
const REFILL_CHUNK: usize = 256;

/// The most a refill of the compacted sampler generates beyond what
/// the read needs: whatever is left at the end of a call was drawn and
/// is never read.
const COMPACT_SLACK: usize = 64;

/// A consuming cursor over a pre-filled word buffer: samplers read
/// `buf[pos..]` and advance `pos` by what they used; refills slide
/// stranded words to the front and bulk-generate on top of them.
struct WordCursor<'a, R: Rng + ?Sized> {
    rng: &'a mut R,
    buf: &'a mut [u64],
    /// Next unread word.
    pos: usize,
    /// End of generated words.
    filled: usize,
}

impl<R: Rng + ?Sized> WordCursor<'_, R> {
    /// Guarantees at least `need` readable words at `pos`. `most`
    /// (`≥ need`) caps the readable words a refill generates, so a
    /// narrow answer draws only what its limbs could possibly use.
    #[inline]
    fn ensure(&mut self, need: usize, most: usize) {
        let have = self.filled - self.pos;
        if have >= need {
            return;
        }
        self.buf.copy_within(self.pos..self.filled, 0);
        let target = (have + REFILL_CHUNK)
            .max(need)
            .min(most)
            .min(self.buf.len());
        self.rng.fill_words(&mut self.buf[have..target]);
        self.pos = 0;
        self.filled = target;
    }

    /// The next `n` words, consumed.
    #[inline]
    fn take(&mut self, n: usize) -> &[u64] {
        self.ensure(n, n + COMPACT_SLACK);
        self.pos += n;
        &self.buf[self.pos - n..self.pos]
    }
}

/// One threshold's sampler state for the compacted path (see the
/// module docs): the stage plan plus the stage-2 result bits drawn
/// but not yet handed to a survivor.
struct Coin {
    /// `!0` when the sampler draws the complement `2¹⁶ − T` and
    /// inverts, else 0.
    invert: u64,
    /// Stage-1 words per limb: the leading zeros of `t` in 16 bits.
    k: usize,
    /// The threshold stage 2 compares against, `≤ 2¹⁵`.
    t: u32,
    /// Stage-2 result bits not yet handed out, lowest first.
    bits: u64,
    /// How many of `bits` are valid.
    avail: u32,
}

impl Coin {
    fn new(fx: u32) -> Coin {
        let (t, invert) = if fx > COIN_ONE / 2 {
            (COIN_ONE - fx, !0)
        } else {
            (fx, 0)
        };
        Coin {
            invert,
            k: (t.leading_zeros() - (u32::BITS - COIN_FRACTION_BITS)) as usize,
            t,
            bits: 0,
            avail: 0,
        }
    }

    /// Writes a fresh mask into every limb of `out` (at most
    /// [`CHUNK_LIMBS`]): stage 1 over the whole slice, then stage 2
    /// limb by limb.
    #[inline(always)]
    fn fill<R: Rng + ?Sized, const BMI2: bool>(
        &mut self,
        out: &mut [u64],
        cursor: &mut WordCursor<'_, R>,
    ) {
        let n = out.len();
        // `k` planes of `n` words, ORed limb by limb: the survivors
        // are the lanes left at zero.
        out.fill(0);
        for plane in cursor.take(self.k * n).chunks_exact(n) {
            for (o, &w) in out.iter_mut().zip(plane) {
                *o |= w;
            }
        }
        // Stage 2: each limb's survivors take the next `popcount`
        // result bits, held in locals so they stay in registers. The
        // deposit reads only the low `c` bits of what it is handed.
        let (mut bits, mut avail) = (self.bits, self.avail);
        for o in out.iter_mut() {
            let survivors = !*o;
            let c = survivors.count_ones();
            let taken = if c <= avail {
                let taken = bits;
                bits = bits.checked_shr(c).unwrap_or(0);
                avail -= c;
                taken
            } else {
                // `avail < c ≤ 64`: the rest comes from a fresh word.
                let word = stage2_word(self.t, self.k, cursor);
                let taken = bits | (word << avail);
                let used = c - avail;
                bits = word.checked_shr(used).unwrap_or(0);
                avail = u64::BITS - used;
                taken
            };
            *o = deposit::<BMI2>(taken, survivors) ^ self.invert;
        }
        (self.bits, self.avail) = (bits, avail);
    }
}

/// 64 independent bits, each set iff a fresh uniform `(16 − k)`-bit
/// value is below `t`: the MSB-first bit-sliced ripple from `t`'s top
/// bit down to its lowest set bit. It runs every position rather than
/// stopping once all 64 lanes are decided: the early exit's branch
/// costs more than the few words it saves.
fn stage2_word<R: Rng + ?Sized>(t: u32, k: usize, cursor: &mut WordCursor<'_, R>) -> u64 {
    let top = COIN_FRACTION_BITS - k as u32;
    let low = t.trailing_zeros();
    let mut less = 0u64;
    let mut eq = !0u64;
    for (j, &w) in (low..top).rev().zip(cursor.take((top - low) as usize)) {
        let bit = (((t >> j) & 1) as u64).wrapping_neg();
        less |= eq & bit & !w;
        eq &= !(bit ^ w);
    }
    less
}

/// Deposits the low `popcount(mask)` bits of `bits` on the set bits of
/// `mask`, lowest first (`pdep`); higher bits of `bits` are ignored.
/// `BMI2` is set only under [`Randomizer::compacted_bmi2`].
#[inline(always)]
fn deposit<const BMI2: bool>(bits: u64, mask: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if BMI2 {
        // SAFETY: `BMI2 = true` is instantiated only inside
        // `compacted_bmi2`, which runs only after BMI2 was detected.
        return unsafe { core::arch::x86_64::_pdep_u64(bits, mask) };
    }
    deposit_portable(bits, mask)
}

/// `pdep` one set mask bit at a time: a survivor mask holds a few
/// bits at the densities the benchmark runs.
#[inline(always)]
fn deposit_portable(mut bits: u64, mut mask: u64) -> u64 {
    let mut out = 0u64;
    while mask != 0 {
        let lowest = mask & mask.wrapping_neg();
        out |= lowest & (bits & 1).wrapping_neg();
        bits >>= 1;
        mask ^= lowest;
    }
    out
}

/// Draws 64 independent coins as a bitmask (bit i set ⇔ lane i says
/// "Yes"), where lane i's bias is `yes1_fx / 2¹⁶` when its truthful
/// bit in `t` is set and `yes0_fx / 2¹⁶` otherwise.
///
/// Bit-sliced comparison `r < T` with *per-lane* thresholds: `w_j`
/// holds bit `j` of 64 lanes' uniform 16-bit values `r`, and the
/// threshold word `tw` selects bit `j` of `yes1_fx` for truth-1 lanes
/// and of `yes0_fx` for truth-0 lanes (`bits[j]` holds both choices
/// pre-broadcast to full words). Walking MSB-first with the running
/// "still undecided" mask `eq`, a lane resolves less-than (heads) at
/// the first bit where its `r` bit is 0 and its threshold bit is 1,
/// and greater-than (tails) in the mirrored case. The loop exits as
/// soon as every lane is decided (≈ 7 words in expectation), and
/// returns how many pre-filled words it consumed. It never looks at
/// bits where both thresholds are trailing zeros (`stop`); `words`
/// must hold the worst case, `COIN_FRACTION_BITS − stop`.
#[inline]
fn yes_block1(
    t: u64,
    bits: &[(u64, u64); COIN_FRACTION_BITS as usize],
    stop: u32,
    words: &[u64],
) -> (u64, usize) {
    let mut less = 0u64;
    let mut eq = !0u64;
    let mut used = 0usize;
    for j in (stop..COIN_FRACTION_BITS).rev() {
        let (b1, b0) = bits[j as usize];
        let w = words[used];
        used += 1;
        let tw = (t & b1) | (!t & b0);
        less |= eq & tw & !w;
        eq &= !(tw ^ w);
        if eq == 0 {
            break;
        }
    }
    (less, used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn truthful_mechanism_is_identity() {
        let r = Randomizer::new(1.0, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(r.randomize_bit(true, &mut rng));
            assert!(!r.randomize_bit(false, &mut rng));
        }
    }

    #[test]
    fn empirical_yes_rates_match_theory() {
        let r = Randomizer::new(0.6, 0.3);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let yes_from_true =
            (0..n).filter(|_| r.randomize_bit(true, &mut rng)).count() as f64 / n as f64;
        let yes_from_false =
            (0..n).filter(|_| r.randomize_bit(false, &mut rng)).count() as f64 / n as f64;
        // Theory: 0.6 + 0.4·0.3 = 0.72 and 0.4·0.3 = 0.12.
        assert!((yes_from_true - r.yes_probability(true)).abs() < 0.006);
        assert!((yes_from_false - r.yes_probability(false)).abs() < 0.006);
        assert!((r.yes_probability(true) - 0.72).abs() < 1e-12);
        assert!((r.yes_probability(false) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn vector_randomization_preserves_length() {
        let r = Randomizer::new(0.5, 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let truth = BitVec::one_hot(11, 4);
        let noisy = r.randomize_vec(&truth, &mut rng);
        assert_eq!(noisy.len(), 11);
    }

    #[test]
    fn vector_bits_are_perturbed_independently() {
        // With p = 0.5, q = 0.5 each output bit is 1 w.p. between 0.25
        // (truth 0) and 0.75 (truth 1); measure both.
        let r = Randomizer::new(0.5, 0.5);
        let mut rng = StdRng::seed_from_u64(4);
        let truth = BitVec::one_hot(2, 0); // bit0 = 1, bit1 = 0
        let n = 100_000;
        let mut ones = [0u32; 2];
        for _ in 0..n {
            let v = r.randomize_vec(&truth, &mut rng);
            for (b, count) in ones.iter_mut().enumerate() {
                if v.get(b) {
                    *count += 1;
                }
            }
        }
        let r0 = ones[0] as f64 / n as f64;
        let r1 = ones[1] as f64 / n as f64;
        assert!((r0 - 0.75).abs() < 0.01, "truth-1 bit rate {r0}");
        assert!((r1 - 0.25).abs() < 0.01, "truth-0 bit rate {r1}");
    }

    /// A bias within 2⁻¹⁷ of 1 must still flip a real coin: if the
    /// fixed-point quantizer rounded it up to always-heads, the
    /// mechanism would silently become deterministic while the ε
    /// accounting still reported a finite (false) privacy level.
    #[test]
    fn near_one_bias_never_collapses_to_deterministic() {
        let r = Randomizer::new(0.999_995, 0.9);
        let mut rng = StdRng::seed_from_u64(99);
        let truth = BitVec::zeros(1 << 22); // 4M truthful "No" bits
        let mut out = BitVec::zeros(truth.len());
        r.randomize_vec_into(&truth, &mut out, &mut rng);
        // P(lie) is clamped to at least 2⁻¹⁶ per bit, so ≈ 64 lies
        // expected here; zero would mean the coin collapsed.
        assert!(
            out.count_ones() > 0,
            "p = 0.999995 must keep plausible deniability"
        );
    }

    /// A `p` so close to 1 that the *composed* yes-probability
    /// float-rounds to exactly 1.0 must not collapse the threshold to
    /// `2¹⁶`: that value has no bits in the compared range, which
    /// would invert the channel and deterministically erase truthful
    /// "Yes" bits.
    #[test]
    fn composed_bias_rounding_to_one_does_not_invert_the_channel() {
        let p = 0.999_999_999_999_999_9; // p + (1-p)·q == 1.0 in f64
        let r = Randomizer::new(p, 0.9);
        assert_eq!(r.yes_probability(true), 1.0, "premise: rounds to 1");
        let mut rng = StdRng::seed_from_u64(3);
        let truth = BitVec::from_bools((0..4096).map(|_| true));
        let mut out = BitVec::zeros(truth.len());
        r.randomize_vec_into(&truth, &mut out, &mut rng);
        // P(no) is clamped to 2⁻¹⁶ per bit: expect ~4096 ones, allow
        // a handful of clamp-induced lies, but an inverted channel
        // would produce exactly zero.
        assert!(
            out.count_ones() > 4_000,
            "truth-1 bits must stay ~always Yes, got {} of 4096",
            out.count_ones()
        );
    }

    /// The buffered scratch path and the generic stack-buffer path
    /// run the same channel: same marginals, and a warm scratch keeps
    /// producing valid randomizations across width changes.
    #[test]
    fn buffered_path_matches_channel_rates() {
        let r = Randomizer::new(0.5, 0.5);
        let mut seeder = StdRng::seed_from_u64(21);
        let mut scratch = RandomizeScratch::new();
        let truth = BitVec::one_hot(2, 0); // bit0 = 1, bit1 = 0
        let n = 100_000;
        let mut ones = [0u32; 2];
        let mut out = BitVec::zeros(2);
        for _ in 0..n {
            r.randomize_vec_buffered(&truth, &mut out, &mut scratch, &mut seeder);
            for (b, count) in ones.iter_mut().enumerate() {
                if out.get(b) {
                    *count += 1;
                }
            }
        }
        let r0 = ones[0] as f64 / n as f64;
        let r1 = ones[1] as f64 / n as f64;
        assert!((r0 - 0.75).abs() < 0.01, "truth-1 bit rate {r0}");
        assert!((r1 - 0.25).abs() < 0.01, "truth-0 bit rate {r1}");
    }

    /// A scratch survives answer-width changes (wide → narrow → wide):
    /// the word buffer is refill-sized per call, not per width.
    #[test]
    fn buffered_path_handles_width_changes() {
        let r = Randomizer::new(0.9, 0.6);
        let mut seeder = StdRng::seed_from_u64(22);
        let mut scratch = RandomizeScratch::new();
        let mut out = BitVec::zeros(0);
        for &len in &[10_000usize, 11, 257, 64, 10_000] {
            let truth = BitVec::one_hot(len, len / 2);
            r.randomize_vec_buffered(&truth, &mut out, &mut scratch, &mut seeder);
            assert_eq!(out.len(), len);
        }
    }

    /// The degenerate p = 1 mechanism stays the exact identity through
    /// the buffered path too (and must not fork the generator's words
    /// into the output).
    #[test]
    fn buffered_truthful_mechanism_is_identity() {
        let r = Randomizer::new(1.0, 0.5);
        let mut seeder = StdRng::seed_from_u64(23);
        let mut scratch = RandomizeScratch::new();
        let truth = BitVec::from_bools((0..300).map(|i| i % 7 < 3));
        let mut out = BitVec::zeros(300);
        r.randomize_vec_buffered(&truth, &mut out, &mut scratch, &mut seeder);
        assert_eq!(out, truth);
    }

    /// The forked path is a pure function of (truth, seeder state):
    /// two scratches with arbitrarily different histories produce the
    /// same output from the same seeder state. This is the property
    /// the sharded deployment's seed-for-seed equivalence rests on.
    #[test]
    fn forked_path_is_history_independent() {
        let r = Randomizer::new(0.9, 0.6);
        for &len in &[11usize, 257, 10_000] {
            let truth = BitVec::one_hot(len, len / 2);
            // Scratch A: fresh. Scratch B: polluted by serving many
            // unrelated randomizations from another seeder first.
            let mut scratch_a = RandomizeScratch::new();
            let mut scratch_b = RandomizeScratch::new();
            let mut other = StdRng::seed_from_u64(999);
            let junk = BitVec::one_hot(4096, 7);
            let mut sink = BitVec::zeros(4096);
            for _ in 0..17 {
                r.randomize_vec_buffered(&junk, &mut sink, &mut scratch_b, &mut other);
            }
            let mut seeder_a = StdRng::seed_from_u64(0xD00D ^ len as u64);
            let mut seeder_b = StdRng::seed_from_u64(0xD00D ^ len as u64);
            let mut out_a = BitVec::zeros(len);
            let mut out_b = BitVec::zeros(len);
            for _ in 0..5 {
                r.randomize_vec_forked(&truth, &mut out_a, &mut scratch_a, &mut seeder_a);
                r.randomize_vec_forked(&truth, &mut out_b, &mut scratch_b, &mut seeder_b);
                assert_eq!(out_a, out_b, "len {len}");
            }
        }
    }

    /// The degenerate p = 1 channel must not consume seeder words in
    /// the forked path either — otherwise exact-mode and private-mode
    /// clients would diverge in their downstream RNG draws (MIDs).
    #[test]
    fn forked_truthful_mechanism_consumes_no_seeder_words() {
        let r = Randomizer::new(1.0, 0.5);
        let mut seeder = StdRng::seed_from_u64(31);
        let mut reference = StdRng::seed_from_u64(31);
        let mut scratch = RandomizeScratch::new();
        let truth = BitVec::from_bools((0..100).map(|i| i % 3 == 0));
        let mut out = BitVec::zeros(100);
        r.randomize_vec_forked(&truth, &mut out, &mut scratch, &mut seeder);
        assert_eq!(out, truth);
        assert_eq!(seeder.next_u64(), reference.next_u64(), "no draw at p = 1");
    }

    /// A generator that counts the words drawn from it.
    struct Counting {
        inner: StdRng,
        words: usize,
    }

    impl RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }

        fn fill_words(&mut self, dest: &mut [u64]) {
            self.words += dest.len();
            self.inner.fill_words(dest);
        }
    }

    /// The mechanism's cost as a count that repeats exactly: a one-hot
    /// 10⁴-bucket answer at the benchmark's (p, q) draws at most 5.5
    /// random words per 64 buckets (the 8-limb ripple drew 10.8).
    #[test]
    fn one_hot_wide_answer_draws_at_most_five_and_a_half_words_per_limb() {
        let r = Randomizer::new(0.9, 0.6);
        let truth = BitVec::one_hot(10_000, 4_321);
        let mut out = BitVec::zeros(0);
        let mut rng = Counting {
            inner: StdRng::seed_from_u64(7),
            words: 0,
        };
        let answers = 50;
        for _ in 0..answers {
            r.randomize_vec_into(&truth, &mut out, &mut rng);
        }
        let per_limb = rng.words as f64 / (answers * truth.limbs().len()) as f64;
        eprintln!("words per limb: {per_limb:.3}");
        assert!(per_limb <= 5.5, "{per_limb:.2} words per limb");
    }

    /// The hardware (`pdep`) and portable bit deposits of the
    /// compacted sampler give identical bits from the same generator
    /// state, across widths, truth densities and thresholds.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn bmi2_and_portable_deposits_are_bit_identical() {
        if !has_bmi2() {
            return;
        }
        let mut truth_rng = StdRng::seed_from_u64(41);
        for (case, &(p, q)) in [
            (0.9, 0.6),
            (0.5, 0.5),
            (0.05, 0.9),
            (0.999, 0.01),
            (0.3, 0.2),
        ]
        .iter()
        .enumerate()
        {
            let r = Randomizer::new(p, q);
            for &limbs in &[4usize, 31, 32, 33, 157, 200] {
                for &density in &[0.0, 0.01, 0.5, 1.0] {
                    let truth: Vec<u64> = (0..limbs * 64)
                        .map(|_| truth_rng.gen::<f64>() < density)
                        .collect::<Vec<_>>()
                        .chunks(64)
                        .map(|c| c.iter().rev().fold(0, |w, &b| (w << 1) | b as u64))
                        .collect();
                    let draw = |bmi2: bool| {
                        let mut rng = StdRng::seed_from_u64(case as u64 * 1_000 + limbs as u64);
                        let mut buf = [0u64; BUF_WORDS];
                        let mut cursor = WordCursor {
                            rng: &mut rng,
                            buf: &mut buf,
                            pos: 0,
                            filled: 0,
                        };
                        let mut out = vec![0u64; limbs];
                        if bmi2 {
                            // SAFETY: BMI2 and POPCNT were detected above.
                            unsafe { r.compacted_bmi2(&truth, &mut out, &mut cursor) };
                        } else {
                            r.compacted::<_, false>(&truth, &mut out, &mut cursor);
                        }
                        out
                    };
                    assert_eq!(draw(true), draw(false), "p {p} q {q} limbs {limbs}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside (0,1]")]
    fn zero_p_rejected() {
        let _ = Randomizer::new(0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "outside (0,1)")]
    fn unit_q_rejected() {
        let _ = Randomizer::new(0.5, 1.0);
    }
}
