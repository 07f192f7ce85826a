//! Property-based tests for randomized response and its privacy
//! accounting.

use privapprox_rr::estimate::{accuracy_loss, estimate_true_yes};
use privapprox_rr::privacy::{
    epsilon_dp_sampled, epsilon_rr, epsilon_rr_strict, epsilon_zk, p_for_epsilon, s_for_epsilon_zk,
};
use privapprox_rr::randomize::{RandomizeScratch, Randomizer};
use privapprox_rr::rng::WideRng;
use privapprox_types::BitVec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Equation 5 exactly inverts the expected channel: feeding the
    /// expected randomized count recovers the true count (up to
    /// rounding).
    #[test]
    fn eq5_inverts_expected_channel(
        n in 100u64..50_000,
        yes_frac in 0.0f64..1.0,
        p in 0.05f64..0.99,
        q in 0.05f64..0.95,
    ) {
        let ay = (n as f64 * yes_frac).round();
        let expected_ry = ay * (p + (1.0 - p) * q) + (n as f64 - ay) * (1.0 - p) * q;
        let est = estimate_true_yes(expected_ry.round() as u64, n, p, q);
        // Rounding the expected count costs at most 1/p in the
        // estimate.
        prop_assert!((est - ay).abs() <= 1.0 / p + 1e-9, "est {est} vs ay {ay}");
    }

    /// The estimator is a linear function of R_y with slope 1/p —
    /// no surprises anywhere in the domain.
    #[test]
    fn eq5_linearity(
        n in 10u64..10_000,
        ry in 0u64..10_000,
        p in 0.05f64..1.0,
        q in 0.05f64..0.95,
    ) {
        let ry = ry.min(n);
        prop_assume!(ry + 1 <= n);
        let e1 = estimate_true_yes(ry, n, p, q);
        let e2 = estimate_true_yes(ry + 1, n, p, q);
        prop_assert!((e2 - e1 - 1.0 / p).abs() < 1e-9);
    }

    /// Empirical yes-rates stay within 5σ of the channel probability.
    #[test]
    fn randomizer_matches_channel(
        p in 0.05f64..0.95,
        q in 0.05f64..0.95,
        truth in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let r = Randomizer::new(p, q);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 20_000;
        let yes = (0..n).filter(|_| r.randomize_bit(truth, &mut rng)).count() as f64;
        let expect = r.yes_probability(truth);
        let sigma = (expect * (1.0 - expect) / n as f64).sqrt();
        prop_assert!(
            (yes / n as f64 - expect).abs() < 5.0 * sigma + 1e-9,
            "rate {} vs expected {expect}",
            yes / n as f64
        );
    }

    /// Equation 8 is monotone: increasing in p, decreasing in q.
    #[test]
    fn eq8_monotonicity(
        p1 in 0.05f64..0.9,
        dp in 0.01f64..0.09,
        q1 in 0.05f64..0.85,
        dq in 0.01f64..0.1,
    ) {
        prop_assert!(epsilon_rr(p1 + dp, q1) > epsilon_rr(p1, q1));
        prop_assert!(epsilon_rr(p1, q1 + dq) < epsilon_rr(p1, q1));
    }

    /// The strict (two-sided) ε dominates the Equation 8 ε.
    #[test]
    fn strict_epsilon_dominates(p in 0.05f64..0.95, q in 0.05f64..0.95) {
        prop_assert!(epsilon_rr_strict(p, q) >= epsilon_rr(p, q) - 1e-12);
    }

    /// Amplification: ε_dp(s) < ε_rr for s < 1, equals it at s = 1,
    /// and is monotone in s.
    #[test]
    fn amplification_laws(
        s1 in 0.05f64..0.9,
        ds in 0.01f64..0.09,
        p in 0.05f64..0.95,
        q in 0.05f64..0.95,
    ) {
        prop_assert!(epsilon_dp_sampled(s1, p, q) < epsilon_rr(p, q));
        prop_assert!(epsilon_dp_sampled(s1 + ds, p, q) > epsilon_dp_sampled(s1, p, q));
        prop_assert!((epsilon_dp_sampled(1.0, p, q) - epsilon_rr(p, q)).abs() < 1e-12);
    }

    /// The closed-form inverses round-trip.
    #[test]
    fn privacy_inverses_round_trip(
        eps in 0.05f64..5.0,
        q in 0.05f64..0.95,
        p in 0.3f64..0.95,
    ) {
        let pp = p_for_epsilon(eps, q);
        prop_assert!((epsilon_rr(pp, q) - eps).abs() < 1e-9);
        // s inverse (only reachable targets).
        let full = epsilon_rr(p, q);
        if eps < full {
            let s = s_for_epsilon_zk(eps, p, q).unwrap();
            prop_assert!(s > 0.0 && s <= 1.0);
            prop_assert!((epsilon_zk(s, p, q) - eps).abs() < 1e-9);
        }
    }

    /// Accuracy loss is scale-invariant and zero iff exact.
    #[test]
    fn accuracy_loss_properties(actual in 1.0f64..1e6, rel in -0.5f64..0.5) {
        let est = actual * (1.0 + rel);
        prop_assert!((accuracy_loss(actual, est) - rel.abs()).abs() < 1e-9);
        prop_assert_eq!(accuracy_loss(actual, actual), 0.0);
    }

    /// The bit-sliced vector path produces the same per-bit marginals
    /// as the scalar two-coin mechanism for random `(p, q)` and random
    /// truth patterns (5σ binomial tolerance per truth class).
    #[test]
    fn bit_sliced_marginals_match_scalar(
        p in 0.05f64..1.0,
        q in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let r = Randomizer::new(p, q);
        let n = 20_000usize;
        let truth = BitVec::from_bools((0..n).map(|i| i % 3 == 0));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = BitVec::zeros(n);
        r.randomize_vec_into(&truth, &mut out, &mut rng);
        for class in [true, false] {
            let total = (0..n).filter(|&i| truth.get(i) == class).count() as f64;
            let yes = (0..n)
                .filter(|&i| truth.get(i) == class && out.get(i))
                .count() as f64;
            let expect = r.yes_probability(class);
            let sigma = (expect * (1.0 - expect) / total).sqrt();
            prop_assert!(
                (yes / total - expect).abs() < 5.0 * sigma + 2e-5,
                "class {class}: rate {} vs {expect} (p={p}, q={q})",
                yes / total
            );
        }
    }

    /// The runtime-dispatched `fill_words` (AVX2 on machines that have
    /// it) and the pinned portable kernel produce byte-identical word
    /// streams from the same seed, for arbitrary seeds and arbitrary
    /// chunkings of the destination.
    #[test]
    fn wide_rng_kernels_are_seed_for_seed_identical(
        seed in any::<u64>(),
        cuts in proptest::collection::vec(1usize..97, 1..6),
    ) {
        let total: usize = cuts.iter().sum();
        let mut dispatched = WideRng::seed_from_u64(seed);
        let mut portable = WideRng::seed_from_u64(seed);
        let mut a = vec![0u64; total];
        let mut b = vec![0u64; total];
        let mut at = 0;
        for &len in &cuts {
            dispatched.fill_words(&mut a[at..at + len]);
            portable.fill_words_portable(&mut b[at..at + len]);
            at += len;
        }
        prop_assert_eq!(a, b);
    }

    /// The buffered bulk-fill sampler and the generic per-call path
    /// drive the same channel: matching marginals per truth class
    /// for random `(p, q)` (5σ binomial tolerance).
    #[test]
    fn buffered_marginals_match_scalar(
        p in 0.05f64..1.0,
        q in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let r = Randomizer::new(p, q);
        let n = 20_000usize;
        let truth = BitVec::from_bools((0..n).map(|i| i % 3 == 0));
        let mut seeder = StdRng::seed_from_u64(seed);
        let mut scratch = RandomizeScratch::new();
        let mut out = BitVec::zeros(n);
        r.randomize_vec_buffered(&truth, &mut out, &mut scratch, &mut seeder);
        for class in [true, false] {
            let total = (0..n).filter(|&i| truth.get(i) == class).count() as f64;
            let yes = (0..n)
                .filter(|&i| truth.get(i) == class && out.get(i))
                .count() as f64;
            let expect = r.yes_probability(class);
            let sigma = (expect * (1.0 - expect) / total).sqrt();
            prop_assert!(
                (yes / total - expect).abs() < 5.0 * sigma + 2e-5,
                "class {class}: rate {} vs {expect} (p={p}, q={q})",
                yes / total
            );
        }
    }
}

/// χ² goodness-of-fit of the bit-sliced randomizer against the exact
/// two-coin channel, over ≥10⁵ bits for several `(p, q)` pairs
/// (the paper's Table 1 settings plus boundary-ish cases) — run once
/// through the generic per-call sampler and once through the
/// bulk-fill `WideRng` scratch path, so both production samplers face
/// the same statistical gate.
///
/// For each truth class the responses are binomial; the statistic
/// sums `(obs − exp)²/exp` over the four (truth × response) cells.
/// With 2 effective degrees of freedom, 40 corresponds to a false
/// alarm rate far below 10⁻⁸ per pair — and the RNG is seeded, so the
/// test is deterministic anyway. The fixed-point quantization bias
/// (≤ 2⁻¹⁷ per marginal) shifts each expectation by at most ~2
/// counts at this sample size, well inside the tolerance.
#[test]
fn bit_sliced_randomizer_chi_squared() {
    let n = 200_000usize; // 2 × 10⁵ bits per (p, q) pair
    for (p, q) in [
        (0.9, 0.6),
        (0.6, 0.6),
        (0.3, 0.6),
        (0.5, 0.5),
        (0.85, 0.25),
        (0.05, 0.95),
    ] {
        let r = Randomizer::new(p, q);
        let truth = BitVec::from_bools((0..n).map(|i| i % 2 == 0));
        let seed = 0xC0FFEE ^ (p * 1e4) as u64 ^ (q * 1e7) as u64;
        for sampler in ["generic", "buffered"] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = BitVec::zeros(n);
            match sampler {
                "generic" => r.randomize_vec_into(&truth, &mut out, &mut rng),
                _ => {
                    let mut scratch = RandomizeScratch::new();
                    r.randomize_vec_buffered(&truth, &mut out, &mut scratch, &mut rng)
                }
            }
            let mut chi2 = 0.0;
            for class in [true, false] {
                let total = (n / 2) as f64;
                let yes = (0..n)
                    .filter(|&i| truth.get(i) == class && out.get(i))
                    .count() as f64;
                let expect_yes = r.yes_probability(class) * total;
                let expect_no = total - expect_yes;
                chi2 += (yes - expect_yes).powi(2) / expect_yes;
                chi2 += ((total - yes) - expect_no).powi(2) / expect_no;
            }
            assert!(
                chi2 < 40.0,
                "χ² = {chi2} for (p, q) = ({p}, {q}), {sampler} sampler"
            );
        }
    }
}

/// The degenerate `p = 1` mechanism is the identity on the vector
/// path, exactly (no quantization leak).
#[test]
fn bit_sliced_truthful_mechanism_is_identity() {
    let r = Randomizer::new(1.0, 0.5);
    let mut rng = StdRng::seed_from_u64(5);
    let truth = BitVec::from_bools((0..777).map(|i| i % 5 < 2));
    let mut out = BitVec::zeros(777);
    r.randomize_vec_into(&truth, &mut out, &mut rng);
    assert_eq!(out, truth);
}

/// A mechanism whose two fixed-point thresholds both equal `t`: with
/// `p` = 10⁻⁶ the truthful coin adds `≈ 0.07 / 2¹⁶` to the truth-1
/// bias, which rounds away.
fn randomizer_at_threshold(t: u32) -> Randomizer {
    let p = 1e-6;
    Randomizer::new(p, f64::from(t) / 65_536.0 / (1.0 - p))
}

/// Every bit of the compacted sampler's masks says "Yes" at exactly
/// its threshold's rate — at the edges of the complement split
/// (`2¹⁵ − 1`, `2¹⁵`, `2¹⁵ + 1`), at the deepest stage 1 (`T = 1` and
/// `2¹⁶ − 1`), and at one threshold for every stage-1 depth `k` in
/// 1..=15. Both masks run: an all-"No" truth draws `S₀`, an all-"Yes"
/// truth `S₁`. Tolerance 5σ of the binomial count.
#[test]
fn compacted_sampler_rates_match_every_threshold_depth() {
    let edges = [1u32, (1 << 15) - 1, 1 << 15, (1 << 15) + 1, (1 << 16) - 1];
    // T ∈ [2^(15−k), 2^(16−k)) has k leading zeros in 16 bits.
    let per_depth = (1..=15u32).map(|k| (1 << (15 - k)) + (1 << (15 - k)) / 2 + 1);
    for t in edges.into_iter().chain(per_depth) {
        let r = randomizer_at_threshold(t);
        let rate = f64::from(t) / 65_536.0;
        let rarer = rate.min(1.0 - rate);
        // Enough bits that the rarer outcome shows ≥ ~100 times.
        let n = ((200.0 / rarer) as usize).clamp(1 << 17, 1 << 23);
        for class in [false, true] {
            let truth = BitVec::from_bools((0..n).map(|_| class));
            let mut out = BitVec::zeros(0);
            r.randomize_vec_into(&truth, &mut out, &mut StdRng::seed_from_u64(u64::from(t)));
            let yes = out.count_ones() as f64;
            let expect = n as f64 * rate;
            let sigma = (n as f64 * rate * (1.0 - rate)).sqrt();
            assert!(
                (yes - expect).abs() <= 5.0 * sigma + 1.0,
                "T = {t}, truth {class}: {yes} yes of {n}, expected {expect:.1} ± {sigma:.1}"
            );
        }
    }
}

/// Per-bucket uniformity: a compaction bug can bias particular
/// positions (a limb's top lane, the lanes a stage-2 word boundary
/// lands on) while the aggregate rates stay right. 4 000 one-hot
/// 10⁴-bucket answers at (0.9, 0.6) through the client's forked path,
/// the hot bucket moving per answer; each bucket's "Yes" count is
/// checked against its expectation from yes₀/yes₁. The χ² over 10⁴
/// buckets has mean 10⁴ and standard deviation 141; the gate sits at
/// six deviations, and no single bucket may stray beyond 5.5σ.
#[test]
fn per_bucket_yes_counts_are_uniform() {
    let r = Randomizer::new(0.9, 0.6);
    let (width, answers) = (10_000usize, 4_000usize);
    let mut yes = vec![0u32; width];
    let mut hot = vec![0u32; width];
    let mut seeder = StdRng::seed_from_u64(0xB0C4E7);
    let mut scratch = RandomizeScratch::new();
    let mut out = BitVec::zeros(0);
    for i in 0..answers {
        let bucket = (i * 7_919) % width;
        hot[bucket] += 1;
        let truth = BitVec::one_hot(width, bucket);
        r.randomize_vec_forked(&truth, &mut out, &mut scratch, &mut seeder);
        for b in out.iter_ones() {
            yes[b] += 1;
        }
    }
    let (y1, y0) = (r.yes_probability(true), r.yes_probability(false));
    let mut chi2 = 0.0;
    for (b, (&observed, &ones)) in yes.iter().zip(&hot).enumerate() {
        let (ones, zeros) = (f64::from(ones), (answers as f64) - f64::from(ones));
        let expect = ones * y1 + zeros * y0;
        let var = ones * y1 * (1.0 - y1) + zeros * y0 * (1.0 - y0);
        let z2 = (f64::from(observed) - expect).powi(2) / var;
        assert!(
            z2 < 5.5 * 5.5,
            "bucket {b}: {observed} yes, expected {expect:.1}"
        );
        chi2 += z2;
    }
    let bound = width as f64 + 6.0 * (2.0 * width as f64).sqrt();
    assert!(
        chi2 < bound,
        "χ² = {chi2:.0} over {width} buckets (bound {bound:.0})"
    );
}

/// Neighbouring lanes are independent: the correlation of bit `i` with
/// bit `i + 1` is ≈ 0 over all pairs, and over the pairs that straddle
/// a limb boundary (bit 63 → bit 64) on their own. At (0.9, 0.6) each
/// limb holds ≈ 4 survivors, so stage-2 words span many limbs; at a
/// threshold with a one-word stage 1 (`k = 1`) half the lanes survive
/// and stage-2 word boundaries fall inside limbs, next to lanes whose
/// bits came from the previous word. Tolerance: 5 standard errors.
#[test]
fn adjacent_lanes_are_uncorrelated() {
    let width = 10_000usize;
    for (r, answers) in [
        (Randomizer::new(0.9, 0.6), 2_000usize),
        (randomizer_at_threshold(24_577), 500),
    ] {
        let rate = r.yes_probability(false);
        let truth = BitVec::zeros(width);
        let mut seeder = StdRng::seed_from_u64(0xAD1ACE);
        let mut scratch = RandomizeScratch::new();
        let mut out = BitVec::zeros(0);
        // (pairs, both set) over all neighbours and over limb edges.
        let mut all = (0u64, 0u64);
        let mut edges = (0u64, 0u64);
        for _ in 0..answers {
            r.randomize_vec_forked(&truth, &mut out, &mut scratch, &mut seeder);
            let limbs = out.limbs();
            for (l, &limb) in limbs.iter().enumerate() {
                all.1 += u64::from((limb & (limb >> 1)).count_ones());
                if let Some(&next) = limbs.get(l + 1) {
                    let both = (limb >> 63) & next & 1;
                    all.1 += both;
                    edges = (edges.0 + 1, edges.1 + both);
                }
            }
            all.0 += width as u64 - 1;
        }
        for (name, (pairs, both)) in [("all", all), ("limb edges", edges)] {
            let corr = (both as f64 / pairs as f64 - rate * rate) / (rate * (1.0 - rate));
            let bound = 5.0 / (pairs as f64).sqrt();
            assert!(
                corr.abs() < bound,
                "{name}: correlation {corr:.5} (bound {bound:.5}) at yes₀ = {rate}"
            );
        }
    }
}
