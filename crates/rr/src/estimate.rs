//! Inverting randomized response: Equations 5 and 6.
//!
//! From `N` randomized answers of which `R_y` were "Yes", the number of
//! *truthful* "Yes" answers is estimated as
//!
//! ```text
//! E_y = (R_y − (1−p)·q·N) / p                          (Eq. 5)
//! ```
//!
//! and the utility is measured by the accuracy loss
//!
//! ```text
//! η = |A_y − E_y| / A_y                                (Eq. 6)
//! ```
//!
//! [`BucketEstimator`] lifts Equation 5 to whole `A[n]` histograms and
//! attaches normal-approximation confidence bounds per bucket.

use privapprox_stats::estimate::ConfidenceInterval;
use privapprox_stats::normal::normal_quantile;
use privapprox_types::BitVec;

/// Equation 5: estimated truthful-"Yes" count from randomized counts.
///
/// `ry` is the observed "Yes" count among `n` randomized answers.
/// The estimate is unbiased but not range-restricted: sampling noise
/// can push it slightly below 0 or above `n`; callers that need a
/// physical count may clamp.
///
/// # Panics
///
/// Panics if `p` is zero/negative (division blows up) or `ry > n`.
pub fn estimate_true_yes(ry: u64, n: u64, p: f64, q: f64) -> f64 {
    assert!(p > 0.0, "p must be positive");
    assert!(ry <= n, "yes-count {ry} exceeds total {n}");
    (ry as f64 - (1.0 - p) * q * n as f64) / p
}

/// Equation 6: relative accuracy loss between the actual and estimated
/// truthful-Yes counts.
///
/// Returns `0.0` when both are zero, `f64::INFINITY` when only the
/// actual count is zero (the paper's definition divides by `A_y`).
pub fn accuracy_loss(actual: f64, estimated: f64) -> f64 {
    if actual == 0.0 {
        if estimated == 0.0 {
            return 0.0;
        }
        return f64::INFINITY;
    }
    ((actual - estimated) / actual).abs()
}

/// Variance of the Equation 5 estimator under the randomized-response
/// channel, using the plug-in yes-rate `r̂ = ry/n`:
/// `Var(E_y) = n·r̂(1−r̂) / p²`.
pub fn rr_estimator_variance(ry: u64, n: u64, p: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let r = ry as f64 / n as f64;
    n as f64 * r * (1.0 - r) / (p * p)
}

/// Per-bucket histogram estimator: accumulates randomized `A[n]`
/// vectors and inverts each bucket count with Equation 5.
///
/// # Bit-plane accumulation
///
/// [`BucketEstimator::push`] is the aggregator shard's per-message
/// hot path. Walking the answer's set bits and incrementing a `u64`
/// per bucket costs one data-dependent scattered store per set bit —
/// ~600 of them per 10⁴-bucket message at typical noise densities.
/// Instead, pushes land in `PLANES` (8) *bit planes*: plane `ℓ`, limb
/// `k` holds bit `ℓ` of a small per-bucket counter for buckets
/// `64k..64k+64`, and adding an answer is a ripple-carry add over
/// whole limbs (`carry = plane & v; plane ^= v`) — straight-line
/// word-parallel code the compiler vectorizes, touching ~1.5 KiB of
/// sequential memory per plane instead of a 78 KiB count array at
/// random. A bucket only spills to its wide counter when its plane
/// counter wraps (every `2^PLANES` observations), so the scattered
/// stores drop by ~256×. Reads fold the planes back into
/// `yes_counts` first — which is why every counts accessor takes
/// `&mut self`.
#[derive(Debug, Clone)]
pub struct BucketEstimator {
    p: f64,
    q: f64,
    /// Wide per-bucket counts: the settled base plus plane spills.
    /// Only current after a fold — read via [`BucketEstimator::raw_counts`].
    yes_counts: Vec<u64>,
    /// [`PLANES`] bit planes of `limbs` words each, level-major:
    /// `planes[ℓ·limbs + k]` is bit `ℓ` of buckets `64k..64k+64`.
    planes: Vec<u64>,
    /// Ripple-carry scratch (one limb row).
    carry: Vec<u64>,
    total: u64,
}

/// Bit planes per bucket: plane counters wrap (and spill to the wide
/// counts) every `2^PLANES = 256` observations of a bucket.
const PLANES: usize = 8;

impl BucketEstimator {
    /// Creates an estimator for `buckets`-wide answers randomized with
    /// `(p, q)`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or the parameters are out of range.
    pub fn new(buckets: usize, p: f64, q: f64) -> BucketEstimator {
        assert!(buckets > 0, "need at least one bucket");
        assert!(p > 0.0 && p <= 1.0, "p={p} outside (0,1]");
        assert!(q > 0.0 && q < 1.0, "q={q} outside (0,1)");
        let limbs = buckets.div_ceil(64);
        BucketEstimator {
            p,
            q,
            yes_counts: vec![0; buckets],
            planes: vec![0; PLANES * limbs],
            carry: vec![0; limbs],
            total: 0,
        }
    }

    /// Clears the accumulated counts and re-parameterizes the
    /// channel, keeping the bucket allocation: this is what lets an
    /// estimator pool recycle instances across window opens instead
    /// of re-allocating `vec![0; buckets]` per window.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are out of range (same domain as
    /// [`BucketEstimator::new`]).
    pub fn reset(&mut self, p: f64, q: f64) {
        assert!(p > 0.0 && p <= 1.0, "p={p} outside (0,1]");
        assert!(q > 0.0 && q < 1.0, "q={q} outside (0,1)");
        self.p = p;
        self.q = q;
        self.yes_counts.fill(0);
        self.planes.fill(0);
        self.total = 0;
    }

    /// Feeds one randomized answer vector: a ripple-carry add of the
    /// whole bit vector into the planes (see the type docs). The carry
    /// dies within a few planes for typical densities, and only
    /// plane-counter wraps touch the wide count array.
    ///
    /// # Panics
    ///
    /// Panics if the vector width does not match the bucket count — a
    /// malformed message should have been rejected upstream.
    pub fn push(&mut self, answer: &BitVec) {
        assert_eq!(answer.len(), self.yes_counts.len(), "answer width mismatch");
        self.total += 1;
        let limbs = answer.limbs();
        let n = limbs.len();
        self.carry[..n].copy_from_slice(limbs);
        for level in 0..PLANES {
            let plane = &mut self.planes[level * n..(level + 1) * n];
            let mut alive = 0u64;
            for (p, c) in plane.iter_mut().zip(self.carry[..n].iter_mut()) {
                let next = *p & *c;
                *p ^= *c;
                *c = next;
                alive |= next;
            }
            if alive == 0 {
                return;
            }
        }
        self.spill_carry(n);
    }

    /// Adds `2^PLANES` to every bucket whose bit is set in the carry
    /// row — the overflow out of the top plane — and clears the row.
    fn spill_carry(&mut self, n: usize) {
        for (k, c) in self.carry[..n].iter_mut().enumerate() {
            let mut bits = *c;
            *c = 0;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                self.yes_counts[k * 64 + b] += 1 << PLANES;
                bits &= bits - 1;
            }
        }
    }

    /// Folds the bit planes into `yes_counts` and clears them: after
    /// this, `yes_counts[i]` is the exact observation count of bucket
    /// `i`. Idempotent; every counts accessor runs it first.
    fn fold_planes(&mut self) {
        let n = self.carry.len();
        for level in 0..PLANES {
            let weight = 1u64 << level;
            for k in 0..n {
                let mut bits = self.planes[level * n + k];
                if bits == 0 {
                    continue;
                }
                self.planes[level * n + k] = 0;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    self.yes_counts[k * 64 + b] += weight;
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Merges another estimator over the same bucket space, without
    /// disturbing `other`: its wide counts add directly, and each of
    /// its planes ripple-adds into this estimator's planes at the
    /// matching level.
    pub fn merge(&mut self, other: &BucketEstimator) {
        assert_eq!(self.yes_counts.len(), other.yes_counts.len());
        for (a, b) in self.yes_counts.iter_mut().zip(&other.yes_counts) {
            *a += *b;
        }
        let n = self.carry.len();
        for level in 0..PLANES {
            let src = &other.planes[level * n..(level + 1) * n];
            if src.iter().all(|&w| w == 0) {
                continue;
            }
            self.carry[..n].copy_from_slice(src);
            let mut overflowed = true;
            for upper in level..PLANES {
                let plane = &mut self.planes[upper * n..(upper + 1) * n];
                let mut alive = 0u64;
                for (p, c) in plane.iter_mut().zip(self.carry[..n].iter_mut()) {
                    let next = *p & *c;
                    *p ^= *c;
                    *c = next;
                    alive |= next;
                }
                if alive == 0 {
                    overflowed = false;
                    break;
                }
            }
            if overflowed {
                self.spill_carry(n);
            }
        }
        self.total += other.total;
    }

    /// Number of answers accumulated.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bucket count (answer width) this estimator was built for.
    pub fn buckets(&self) -> usize {
        self.yes_counts.len()
    }

    /// Raw randomized "Yes" counts per bucket (folds pending planes).
    pub fn raw_counts(&mut self) -> &[u64] {
        self.fold_planes();
        &self.yes_counts
    }

    /// Decomposes the estimator into its wire-serializable parts:
    /// `(p, q, total, raw per-bucket counts)`. Folds pending bit
    /// planes first, so the returned counts are complete — together
    /// with [`BucketEstimator::from_raw_parts`] this round-trips the
    /// estimator **exactly** (counts are integers and `p`/`q` travel
    /// as IEEE bit patterns on the wire), which is what lets a remote
    /// aggregator ship windows across a socket and the parent merge
    /// them byte-identically to the in-process path.
    pub fn raw_parts(&mut self) -> (f64, f64, u64, &[u64]) {
        self.fold_planes();
        (self.p, self.q, self.total, &self.yes_counts)
    }

    /// Reassembles an estimator from [`BucketEstimator::raw_parts`]
    /// output. The planes start empty (all mass in the folded
    /// counts), so merges and estimates behave identically to the
    /// original instance.
    ///
    /// # Panics
    ///
    /// Panics on an empty `counts` slice or out-of-range channel
    /// parameters (same domain as [`BucketEstimator::new`]); the
    /// counts themselves are trusted (they are integer tallies, not
    /// parameters).
    pub fn from_raw_parts(p: f64, q: f64, total: u64, counts: &[u64]) -> BucketEstimator {
        let mut est = BucketEstimator::new(counts.len(), p, q);
        est.yes_counts.copy_from_slice(counts);
        est.total = total;
        est
    }

    /// Equation 5 estimates per bucket (not clamped).
    pub fn estimates(&mut self) -> Vec<f64> {
        self.fold_planes();
        self.yes_counts
            .iter()
            .map(|&ry| estimate_true_yes(ry, self.total, self.p, self.q))
            .collect()
    }

    /// Per-bucket confidence intervals from the normal approximation
    /// of the randomization channel.
    pub fn intervals(&mut self, confidence: f64) -> Vec<ConfidenceInterval> {
        self.fold_planes();
        let z = normal_quantile(1.0 - (1.0 - confidence) / 2.0);
        self.yes_counts
            .iter()
            .map(|&ry| {
                let est = estimate_true_yes(ry, self.total, self.p, self.q);
                let var = rr_estimator_variance(ry, self.total, self.p);
                ConfidenceInterval {
                    estimate: est,
                    bound: z * var.sqrt(),
                    confidence,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randomize::Randomizer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    #[test]
    fn eq5_inverts_the_expected_channel_exactly() {
        // If exactly the expected number of yeses arrives, Eq 5
        // recovers the truth exactly: E[R_y] = A_y(p+(1−p)q) +
        // (N−A_y)(1−p)q.
        let (p, q) = (0.6, 0.3);
        let n = 10_000u64;
        let ay = 6_000u64;
        let expected_ry = ay as f64 * (p + (1.0 - p) * q) + (n - ay) as f64 * (1.0 - p) * q;
        let est = estimate_true_yes(expected_ry.round() as u64, n, p, q);
        close(est, ay as f64, 1.0);
    }

    #[test]
    fn eq5_monte_carlo_is_unbiased() {
        let (p, q) = (0.3, 0.6);
        let r = Randomizer::new(p, q);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 10_000u64;
        let ay = 6_000u64;
        let trials = 60;
        let mut sum = 0.0;
        for _ in 0..trials {
            let ry = (0..n)
                .filter(|&i| r.randomize_bit(i < ay, &mut rng))
                .count() as u64;
            sum += estimate_true_yes(ry, n, p, q);
        }
        let mean = sum / trials as f64;
        // Var(E_y) ≈ n·r(1−r)/p² with r ≈ 0.57 → sd ≈ 165; the mean of
        // 60 trials has sd ≈ 21, so ±4σ ≈ 85.
        close(mean, ay as f64, 90.0);
    }

    #[test]
    fn accuracy_loss_definition() {
        close(accuracy_loss(100.0, 97.0), 0.03, 1e-12);
        close(accuracy_loss(100.0, 103.0), 0.03, 1e-12);
        assert_eq!(accuracy_loss(0.0, 0.0), 0.0);
        assert!(accuracy_loss(0.0, 5.0).is_infinite());
    }

    #[test]
    fn bucket_estimator_recovers_histogram() {
        // 3 buckets, known truth, deterministic channel expectation.
        let (p, q) = (0.9, 0.6);
        let r = Randomizer::new(p, q);
        let mut rng = StdRng::seed_from_u64(11);
        let truth_counts = [5_000u64, 3_000, 2_000];
        let n: u64 = truth_counts.iter().sum();
        let mut est = BucketEstimator::new(3, p, q);
        for (bucket, &count) in truth_counts.iter().enumerate() {
            for _ in 0..count {
                let truth = BitVec::one_hot(3, bucket);
                est.push(&r.randomize_vec(&truth, &mut rng));
            }
        }
        assert_eq!(est.total(), n);
        let estimates = est.estimates();
        for (bucket, &truth) in truth_counts.iter().enumerate() {
            let loss = accuracy_loss(truth as f64, estimates[bucket]);
            assert!(
                loss < 0.05,
                "bucket {bucket}: est {} vs truth {truth} (loss {loss})",
                estimates[bucket]
            );
        }
    }

    #[test]
    fn intervals_cover_truth_most_of_the_time() {
        let (p, q) = (0.6, 0.6);
        let r = Randomizer::new(p, q);
        let mut rng = StdRng::seed_from_u64(13);
        let ay = 4_000u64;
        let n = 10_000u64;
        let mut covered = 0;
        let trials = 40;
        for _ in 0..trials {
            let mut est = BucketEstimator::new(1, p, q);
            for i in 0..n {
                let truth = i < ay;
                let mut v = BitVec::zeros(1);
                v.set(0, r.randomize_bit(truth, &mut rng));
                est.push(&v);
            }
            if est.intervals(0.95)[0].contains(ay as f64) {
                covered += 1;
            }
        }
        // 95 % nominal coverage; demand at least 80 % over 40 trials
        // (binomial 5σ slack).
        assert!(covered >= 32, "only {covered}/{trials} intervals covered");
    }

    #[test]
    fn merge_is_equivalent_to_sequential_pushes() {
        let mut a = BucketEstimator::new(2, 0.5, 0.5);
        let mut b = BucketEstimator::new(2, 0.5, 0.5);
        let v0 = BitVec::one_hot(2, 0);
        let v1 = BitVec::one_hot(2, 1);
        a.push(&v0);
        a.push(&v1);
        b.push(&v1);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.raw_counts(), &[1, 2]);
    }

    /// The bit-plane accumulator must count exactly like the naive
    /// per-bit increment loop — across spills (a bucket observed more
    /// than 2^PLANES times), merges of unfolded estimators, resets,
    /// and pushes after a fold.
    #[test]
    fn bit_plane_counts_match_naive_reference() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for &buckets in &[1usize, 7, 64, 65, 300] {
            let mut est = BucketEstimator::new(buckets, 0.5, 0.5);
            let mut other = BucketEstimator::new(buckets, 0.5, 0.5);
            let mut reference = vec![0u64; buckets];
            // Enough pushes of a dense vector to wrap plane counters
            // (capacity 2^PLANES) several times over.
            for round in 0..700 {
                let mut v = BitVec::zeros(buckets);
                for i in 0..buckets {
                    // Bucket 0 set every round → guaranteed spills.
                    if i == 0 || rng.gen_bool(0.3) {
                        v.set(i, true);
                        reference[i] += 1;
                    }
                }
                if round % 3 == 0 {
                    other.push(&v);
                } else {
                    est.push(&v);
                }
                if round == 350 {
                    // Interleave a fold mid-stream: counts must keep
                    // accumulating correctly on top of settled state.
                    let _ = est.raw_counts();
                }
            }
            let expected_total = est.total() + other.total();
            est.merge(&other);
            assert_eq!(est.total(), expected_total);
            assert_eq!(est.raw_counts(), &reference[..], "{buckets} buckets");
            // Fold is idempotent.
            assert_eq!(est.raw_counts(), &reference[..]);
            est.reset(0.5, 0.5);
            assert_eq!(est.total(), 0);
            assert!(est.raw_counts().iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn raw_parts_roundtrip_is_exact() {
        let mut est = BucketEstimator::new(130, 0.9, 0.55);
        let mut answer = BitVec::zeros(130);
        for i in 0..300usize {
            answer.reset(130);
            answer.set(i % 130, true);
            answer.set((i * 7) % 130, true);
            est.push(&answer);
        }
        let (p, q, total, counts) = est.raw_parts();
        let counts = counts.to_vec();
        let mut rebuilt = BucketEstimator::from_raw_parts(p, q, total, &counts);
        assert_eq!(rebuilt.total(), est.total());
        assert_eq!(rebuilt.buckets(), est.buckets());
        assert_eq!(rebuilt.raw_counts(), est.raw_counts());
        // Estimates are bit-identical (same pure function of the same
        // integers and the same p/q bit patterns).
        let a = est.estimates();
        let b = rebuilt.estimates();
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        // Merging a reconstructed estimator behaves like the original.
        let mut into_a = BucketEstimator::new(130, 0.9, 0.55);
        let mut into_b = BucketEstimator::new(130, 0.9, 0.55);
        into_a.push(&answer);
        into_b.push(&answer);
        into_a.merge(&est);
        into_b.merge(&rebuilt);
        assert_eq!(into_a.raw_counts(), into_b.raw_counts());
        assert_eq!(into_a.total(), into_b.total());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut est = BucketEstimator::new(3, 0.5, 0.5);
        est.push(&BitVec::zeros(4));
    }

    #[test]
    #[should_panic(expected = "exceeds total")]
    fn eq5_rejects_impossible_counts() {
        let _ = estimate_true_yes(11, 10, 0.5, 0.5);
    }
}
