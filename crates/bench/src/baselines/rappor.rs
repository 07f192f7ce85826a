//! RAPPOR (Erlingsson, Pihur, Korolova — CCS '14): the randomized-
//! response baseline of the paper's Figure 5c.
//!
//! RAPPOR encodes a string value into a `k`-bit Bloom filter with `h`
//! hash functions, then applies two randomization layers:
//!
//! * **PRR** (permanent randomized response) with parameter `f`: each
//!   Bloom bit is kept with probability `1 − f`, else replaced by a
//!   fair coin. The PRR is memoized per value so repeated reports do
//!   not average the noise away.
//! * **IRR** (instantaneous randomized response) with parameters
//!   `(p_irr, q_irr)`: each report re-randomizes the memoized bits.
//!
//! One-time ε for the PRR with `h` hash functions:
//! `ε = 2h·ln((1 − f/2)/(f/2))`.
//!
//! The paper's comparison uses `h = 1` and maps PrivApprox's
//! `p = 1 − f, q = 0.5` onto the PRR, making the two randomizers
//! identical at `s = 1`; PrivApprox then wins by sampling
//! amplification.

use privapprox_types::BitVec;
use rand::Rng;
use std::collections::HashMap;

/// A RAPPOR encoder for one reporting client.
#[derive(Debug, Clone)]
pub struct Rappor {
    /// Bloom filter width in bits.
    k: usize,
    /// Number of hash functions.
    h: usize,
    /// PRR noise parameter `f ∈ (0, 1)`.
    f: f64,
    /// IRR one-bit report probability for memoized 1s.
    q_irr: f64,
    /// IRR one-bit report probability for memoized 0s.
    p_irr: f64,
    /// Memoized permanent randomized responses per reported value.
    memo: HashMap<String, BitVec>,
}

impl Rappor {
    /// Creates an encoder with the canonical RAPPOR parameters.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `h == 0`, `h > k`, or any probability is
    /// out of range.
    pub fn new(k: usize, h: usize, f: f64, q_irr: f64, p_irr: f64) -> Rappor {
        assert!(k > 0, "bloom width must be positive");
        assert!(h > 0 && h <= k, "hash count must be in 1..=k");
        assert!(f > 0.0 && f < 1.0, "f={f} outside (0,1)");
        assert!((0.0..=1.0).contains(&q_irr) && (0.0..=1.0).contains(&p_irr));
        Rappor {
            k,
            h,
            f,
            q_irr,
            p_irr,
            memo: HashMap::new(),
        }
    }

    /// The paper's Figure 5c configuration: `h = 1`, IRR disabled
    /// (reports are the PRR bits directly).
    pub fn paper_comparison(k: usize, f: f64) -> Rappor {
        Rappor::new(k, 1, f, 1.0, 0.0)
    }

    /// Bloom-filter encoding of `value` (no randomization).
    pub fn bloom(&self, value: &str) -> BitVec {
        let mut v = BitVec::zeros(self.k);
        for i in 0..self.h {
            v.set(self.hash(value, i as u64), true);
        }
        v
    }

    /// FNV-1a based double hashing into `[0, k)`.
    fn hash(&self, value: &str, salt: u64) -> usize {
        let mut h1 = 0xcbf2_9ce4_8422_2325u64;
        for &b in value.as_bytes() {
            h1 ^= b as u64;
            h1 = h1.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Second independent mix for double hashing.
        let mut h2 = h1 ^ 0x9E37_79B9_7F4A_7C15;
        h2 = (h2 ^ (h2 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h2 = (h2 ^ (h2 >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h2 ^= h2 >> 31;
        ((h1.wrapping_add(salt.wrapping_mul(h2 | 1))) % self.k as u64) as usize
    }

    /// The permanent randomized response for `value`, memoized.
    pub fn prr<R: Rng + ?Sized>(&mut self, value: &str, rng: &mut R) -> BitVec {
        if let Some(v) = self.memo.get(value) {
            return v.clone();
        }
        let bloom = self.bloom(value);
        let noisy = BitVec::from_bools((0..self.k).map(|i| {
            let roll: f64 = rng.gen();
            if roll < self.f / 2.0 {
                true
            } else if roll < self.f {
                false
            } else {
                bloom.get(i)
            }
        }));
        self.memo.insert(value.to_string(), noisy.clone());
        noisy
    }

    /// A full report: PRR then IRR.
    pub fn report<R: Rng + ?Sized>(&mut self, value: &str, rng: &mut R) -> BitVec {
        let prr = self.prr(value, rng);
        let (q_irr, p_irr, k) = (self.q_irr, self.p_irr, self.k);
        BitVec::from_bools((0..k).map(|i| {
            let bias = if prr.get(i) { q_irr } else { p_irr };
            rng.gen::<f64>() < bias
        }))
    }

    /// One-time differential privacy of the PRR:
    /// `ε = 2h·ln((1 − f/2)/(f/2))`.
    pub fn epsilon_one_time(&self) -> f64 {
        2.0 * self.h as f64 * ((1.0 - self.f / 2.0) / (self.f / 2.0)).ln()
    }

    /// The ε of a *single-bit* PRR report with `h = 1`, which equals
    /// PrivApprox's Equation 8 at `p = 1 − f, q = ½` — the mapping the
    /// paper uses for its Fig 5c "apples-to-apples" comparison.
    pub fn epsilon_single_bit(f: f64) -> f64 {
        ((1.0 - f / 2.0) / (f / 2.0)).ln()
    }

    /// Bloom width.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Hash count.
    pub fn h(&self) -> usize {
        self.h
    }

    /// PRR noise parameter.
    pub fn f(&self) -> f64 {
        self.f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privapprox_rr::privacy::epsilon_rr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bloom_sets_exactly_h_bits_or_fewer() {
        let r = Rappor::new(64, 2, 0.5, 0.75, 0.5);
        for value in ["chrome", "firefox", "safari", "edge"] {
            let b = r.bloom(value);
            let ones = b.count_ones();
            assert!((1..=2).contains(&ones), "{value}: {ones} bits");
        }
    }

    #[test]
    fn bloom_is_deterministic_per_value() {
        let r = Rappor::new(128, 2, 0.5, 0.75, 0.5);
        assert_eq!(r.bloom("hello"), r.bloom("hello"));
        assert_ne!(r.bloom("hello"), r.bloom("world"));
    }

    #[test]
    fn prr_is_memoized() {
        let mut r = Rappor::new(32, 1, 0.5, 0.75, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let a = r.prr("value", &mut rng);
        let b = r.prr("value", &mut rng);
        assert_eq!(a, b, "PRR must be permanent per value");
    }

    #[test]
    fn prr_bit_flip_rate_matches_f() {
        // With f = 0.5 each bloom bit is replaced by a fair coin half
        // the time → a 0-bit becomes 1 with probability f/2 = 0.25.
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let mut flipped = 0;
        for i in 0..n {
            let mut r = Rappor::new(16, 1, 0.5, 0.75, 0.5);
            let value = format!("v{i}");
            let bloom = r.bloom(&value);
            let prr = r.prr(&value, &mut rng);
            // Count zero-positions that turned on.
            for b in 0..16 {
                if !bloom.get(b) {
                    if prr.get(b) {
                        flipped += 1;
                    }
                    break; // one zero-position per trial keeps it iid
                }
            }
        }
        let rate = flipped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "flip rate {rate}");
    }

    #[test]
    fn epsilon_formula_matches_paper_mapping() {
        // ε_RAPPOR(single bit, f) == ε_rr(p = 1−f, q = ½): the paper's
        // apples-to-apples mapping.
        for f in [0.1, 0.25, 0.5, 0.75] {
            let lhs = Rappor::epsilon_single_bit(f);
            let rhs = epsilon_rr(1.0 - f, 0.5);
            assert!(
                (lhs - rhs).abs() < 1e-12,
                "f={f}: RAPPOR {lhs} vs Eq8 {rhs}"
            );
        }
    }

    #[test]
    fn one_time_epsilon_scales_with_h() {
        let r1 = Rappor::new(64, 1, 0.5, 0.75, 0.5);
        let r2 = Rappor::new(64, 2, 0.5, 0.75, 0.5);
        assert!((r2.epsilon_one_time() - 2.0 * r1.epsilon_one_time()).abs() < 1e-12);
        // f = 0.5, h = 1: ε = 2·ln(0.75/0.25) = 2·ln 3.
        assert!((r1.epsilon_one_time() - 2.0 * (3.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn irr_disabled_reports_prr_exactly() {
        let mut r = Rappor::paper_comparison(32, 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let prr = r.prr("x", &mut rng);
        let report = r.report("x", &mut rng);
        assert_eq!(report, prr, "q_irr=1, p_irr=0 must pass PRR through");
    }

    #[test]
    #[should_panic(expected = "hash count")]
    fn too_many_hashes_rejected() {
        let _ = Rappor::new(4, 5, 0.5, 0.75, 0.5);
    }
}
