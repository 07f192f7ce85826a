//! Privacy accounting: differential and zero-knowledge privacy levels.
//!
//! Equation 8 gives the differential-privacy level of the two-coin
//! mechanism alone. Client-side sampling tightens the bound via the
//! standard *amplification by sampling* lemma: a mechanism that is
//! `ε`-DP, applied after Bernoulli pre-sampling with rate `s`, is
//! `ln(1 + s·(e^ε − 1))`-DP. The paper's §4 further shows the
//! sampling+RR combination satisfies zero-knowledge privacy; its exact
//! ε_zk expression (Equation 19) lives in the unavailable technical
//! report, so this reproduction uses the amplification bound as the
//! ε_zk surrogate — every qualitative trend the paper reports is
//! preserved (`cargo run -p privapprox-bench --bin table1` tabulates
//! both, under the git-ignored `results/`).

/// Equation 8, verbatim: the differential-privacy level of randomized
/// response as the paper states it —
/// `ε_rr = ln( (p + (1−p)·q) / ((1−p)·q) )`,
/// the likelihood ratio of observing a "Yes" response.
///
/// This is monotone increasing in `p` and decreasing in `q`, matching
/// the trends of the paper's Table 1. For the worst case over *both*
/// response symbols use [`epsilon_rr_strict`].
///
/// `p = 1` (no randomization) yields `f64::INFINITY` — no privacy.
///
/// # Panics
///
/// Panics for `p ∉ [0, 1]` or `q ∉ (0, 1)`.
pub fn epsilon_rr(p: f64, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p={p} outside [0,1]");
    assert!(q > 0.0 && q < 1.0, "q={q} outside (0,1)");
    if p == 1.0 {
        return f64::INFINITY;
    }
    let yes_given_yes = p + (1.0 - p) * q;
    let yes_given_no = (1.0 - p) * q;
    (yes_given_yes / yes_given_no).ln()
}

/// The strict ε: the maximum likelihood ratio over both response
/// symbols ("Yes" and "No").
///
/// For `q = 0.5` both sides coincide with Equation 8; for skewed `q`
/// the rarer lie direction leaks more and dominates.
pub fn epsilon_rr_strict(p: f64, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p={p} outside [0,1]");
    assert!(q > 0.0 && q < 1.0, "q={q} outside (0,1)");
    if p == 1.0 {
        return f64::INFINITY;
    }
    let eps_yes = epsilon_rr(p, q);
    let no_given_no = p + (1.0 - p) * (1.0 - q);
    let no_given_yes = (1.0 - p) * (1.0 - q);
    let eps_no = (no_given_no / no_given_yes).ln();
    eps_yes.max(eps_no)
}

/// Amplification by sampling: the differential-privacy level of the
/// sampled mechanism, `ε_dp(s) = ln(1 + s·(e^{ε_rr} − 1))`.
///
/// At `s = 1` this equals [`epsilon_rr`]; smaller sampling fractions
/// yield strictly stronger (smaller) ε — the effect Figure 5c plots
/// against RAPPOR.
///
/// # Panics
///
/// Panics for `s ∉ (0, 1]` (and the [`epsilon_rr`] domains).
pub fn epsilon_dp_sampled(s: f64, p: f64, q: f64) -> f64 {
    assert!(s > 0.0 && s <= 1.0, "s={s} outside (0,1]");
    let eps = epsilon_rr(p, q);
    if eps.is_infinite() {
        return f64::INFINITY;
    }
    (1.0 + s * (eps.exp() - 1.0)).ln()
}

/// Zero-knowledge privacy level of the sampling+RR combination.
///
/// **Reconstruction note.** The paper's Equation 19 (technical report,
/// arXiv:1701.05403) is not in the conference text. This reproduction
/// uses the amplification-by-sampling bound as the ε_zk value, which
/// preserves the paper's reported trends: ε_zk grows with `p` and `s`,
/// shrinks with `q`, and coincides with ε_rr at `s = 1`. Absolute
/// values in Table 1's ε column differ; `cargo run -p
/// privapprox-bench --bin table1` tabulates both.
pub fn epsilon_zk(s: f64, p: f64, q: f64) -> f64 {
    epsilon_dp_sampled(s, p, q)
}

/// Inverse of Equation 8 in `p` for a fixed `q`: the first-coin bias
/// achieving a target ε_rr.
///
/// Equation 8 is strictly increasing in `p` from 0 (at `p → 0`) to ∞
/// (at `p → 1`), so every positive target is reachable; the result is
/// found by bisection to ~1e-12.
///
/// # Panics
///
/// Panics unless `target_eps > 0` and `q ∈ (0, 1)`.
pub fn p_for_epsilon(target_eps: f64, q: f64) -> f64 {
    assert!(q > 0.0 && q < 1.0, "q={q} outside (0,1)");
    assert!(target_eps > 0.0, "target ε must be positive");
    // ε = ln(1 + p/((1−p)q)) ⇒ p/(1−p) = q(e^ε − 1) ⇒ closed form.
    let k = q * (target_eps.exp() - 1.0);
    k / (1.0 + k)
}

/// Inverse of the amplified bound in `s` for fixed `(p, q)`: the
/// sampling fraction at which the combined mechanism hits a target
/// ε_zk. Returns `None` when even `s → 0⁺` cannot reach the target
/// (i.e. `target ≤ 0`) or when the target exceeds ε_rr (any `s ≤ 1`
/// already satisfies it — the caller should use `s = 1`).
pub fn s_for_epsilon_zk(target_eps: f64, p: f64, q: f64) -> Option<f64> {
    if target_eps <= 0.0 {
        return None;
    }
    let eps_rr_val = epsilon_rr(p, q);
    if eps_rr_val.is_infinite() {
        return None;
    }
    if target_eps >= eps_rr_val {
        return Some(1.0);
    }
    // ln(1 + s(e^ε_rr −1)) = target ⇒ s = (e^target − 1)/(e^ε_rr − 1).
    Some((target_eps.exp() - 1.0) / (eps_rr_val.exp() - 1.0))
}

/// A bundle of the three privacy levels for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyReport {
    /// Eq 8: randomized response alone.
    pub eps_rr: f64,
    /// Amplified by sampling at rate `s`.
    pub eps_dp: f64,
    /// Zero-knowledge level (reconstructed bound; see module docs).
    pub eps_zk: f64,
}

impl PrivacyReport {
    /// Computes all three levels for the given parameters.
    pub fn for_params(s: f64, p: f64, q: f64) -> PrivacyReport {
        PrivacyReport {
            eps_rr: epsilon_rr(p, q),
            eps_dp: epsilon_dp_sampled(s, p, q),
            eps_zk: epsilon_zk(s, p, q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    #[test]
    fn eq8_verbatim_values() {
        // p=0.9, q=0.3: ln(0.93/0.03) = ln 31.
        close(epsilon_rr(0.9, 0.3), (31.0f64).ln(), 1e-12);
        // p=0.6, q=0.3: ln(0.72/0.12) = ln 6.
        close(epsilon_rr(0.6, 0.3), (6.0f64).ln(), 1e-12);
        // p=0.6, q=0.9: ln(0.96/0.36) = ln(8/3).
        close(epsilon_rr(0.6, 0.9), (8.0f64 / 3.0).ln(), 1e-12);
    }

    #[test]
    fn strict_form_dominates_for_large_q() {
        // p=0.6, q=0.9: No side ln(0.64/0.04)=ln 16 > Yes side.
        close(epsilon_rr_strict(0.6, 0.9), (16.0f64).ln(), 1e-12);
        assert!(epsilon_rr_strict(0.6, 0.9) > epsilon_rr(0.6, 0.9));
        // Symmetric q: both coincide.
        close(epsilon_rr_strict(0.7, 0.5), epsilon_rr(0.7, 0.5), 1e-12);
    }

    #[test]
    fn eq8_symmetric_coin_is_classic_warner() {
        // p, q = (0.5, 0.5): ln(0.75/0.25) = ln 3 — Warner's classic.
        close(epsilon_rr(0.5, 0.5), (3.0f64).ln(), 1e-12);
    }

    #[test]
    fn epsilon_grows_with_p_and_falls_with_q() {
        let mut prev = 0.0;
        for i in 1..10 {
            let e = epsilon_rr(i as f64 / 10.0, 0.5);
            assert!(e > prev, "ε must increase with p");
            prev = e;
        }
        let mut prev = f64::INFINITY;
        for i in 1..10 {
            let e = epsilon_rr(0.5, i as f64 / 10.0);
            assert!(e < prev, "ε must decrease with q");
            prev = e;
        }
    }

    #[test]
    fn no_randomization_means_no_privacy() {
        assert!(epsilon_rr(1.0, 0.5).is_infinite());
        assert!(epsilon_dp_sampled(0.5, 1.0, 0.5).is_infinite());
    }

    #[test]
    fn amplification_tightens_with_smaller_s() {
        let eps_full = epsilon_dp_sampled(1.0, 0.6, 0.6);
        let eps_half = epsilon_dp_sampled(0.5, 0.6, 0.6);
        let eps_tenth = epsilon_dp_sampled(0.1, 0.6, 0.6);
        assert!(eps_tenth < eps_half && eps_half < eps_full);
        close(eps_full, epsilon_rr(0.6, 0.6), 1e-12);
    }

    #[test]
    fn amplification_formula_spot_check() {
        // ε_rr(0.5,0.5)=ln3 → e^ε−1 = 2; at s=0.5: ln(1+1)=ln2.
        close(epsilon_dp_sampled(0.5, 0.5, 0.5), (2.0f64).ln(), 1e-12);
    }

    #[test]
    fn zk_equals_amplified_bound() {
        for &(s, p, q) in &[(0.3, 0.6, 0.4), (0.9, 0.9, 0.6), (0.6, 0.3, 0.3)] {
            close(epsilon_zk(s, p, q), epsilon_dp_sampled(s, p, q), 1e-15);
        }
    }

    #[test]
    fn p_for_epsilon_round_trips() {
        for &(eps, q) in &[(1.0, 0.5), (2.0, 0.3), (0.5, 0.6), (4.0, 0.9)] {
            let p = p_for_epsilon(eps, q);
            assert!(p > 0.0 && p < 1.0);
            close(epsilon_rr(p, q), eps, 1e-9);
        }
    }

    #[test]
    fn s_for_epsilon_zk_round_trips() {
        let (p, q) = (0.9, 0.3); // ε_rr = ln 31 ≈ 3.43
        let s = s_for_epsilon_zk(2.0, p, q).expect("reachable");
        assert!(s > 0.0 && s < 1.0);
        close(epsilon_zk(s, p, q), 2.0, 1e-9);
        // A target looser than ε_rr: full sampling suffices.
        assert_eq!(s_for_epsilon_zk(10.0, p, q), Some(1.0));
        // p = 1 can never meet a finite target.
        assert_eq!(s_for_epsilon_zk(1.0, 1.0, 0.5), None);
    }

    #[test]
    fn report_bundles_consistently() {
        let r = PrivacyReport::for_params(0.6, 0.9, 0.3);
        close(r.eps_rr, (31.0f64).ln(), 1e-12);
        assert!(r.eps_dp < r.eps_rr);
        close(r.eps_zk, r.eps_dp, 1e-15);
    }

    #[test]
    fn table1_privacy_trends() {
        // The paper's Table 1 trends (s = 0.6): for fixed p, ε falls
        // as q rises; for fixed q, ε rises with p.
        for &p in &[0.3, 0.6, 0.9] {
            let e3 = epsilon_zk(0.6, p, 0.3);
            let e6 = epsilon_zk(0.6, p, 0.6);
            let e9 = epsilon_zk(0.6, p, 0.9);
            assert!(e3 > e6 && e6 > e9, "p={p}: ε must fall with q");
        }
        for &q in &[0.3, 0.6, 0.9] {
            let e3 = epsilon_zk(0.6, 0.3, q);
            let e6 = epsilon_zk(0.6, 0.6, q);
            let e9 = epsilon_zk(0.6, 0.9, q);
            assert!(e9 > e6 && e6 > e3, "q={q}: ε must grow with p");
        }
    }
}
