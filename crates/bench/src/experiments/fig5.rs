//! Figure 5: (a) native vs inverted query utility across truthful-yes
//! fractions; (b) proxy throughput vs answer bit-vector size; (c) the
//! differential-privacy comparison against RAPPOR.

use crate::experiments::RUNS;
use privapprox_core::proxy::Proxy;
use privapprox_rr::inversion::compare_native_vs_inverted;
use privapprox_rr::privacy::epsilon_dp_sampled;
use crate::rappor::Rappor;
use privapprox_stream::broker::Broker;
use privapprox_types::{ProxyId, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// One Figure 5a row.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5aRow {
    /// Truthful-yes fraction (%).
    pub yes_pct: u32,
    /// Native-query loss (%).
    pub native_pct: f64,
    /// Inverted-query loss (%).
    pub inverse_pct: f64,
}

/// Figure 5a: s = 0.9, p = 0.9, q = 0.6, N = 10,000 (paper §6 #IV).
///
/// The sampling stage is common to both phrasings, so (as in the
/// paper's microbenchmark) the comparison isolates the randomization
/// stage at full sampling.
pub fn run_5a(seed: u64) -> Vec<Fig5aRow> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF165A);
    (1..=9)
        .map(|tens| {
            let yes_rate = tens as f64 / 10.0;
            let (native, inverse) =
                compare_native_vs_inverted(0.9, 0.6, 10_000, yes_rate, RUNS, &mut rng);
            Fig5aRow {
                yes_pct: tens * 10,
                native_pct: 100.0 * native,
                inverse_pct: 100.0 * inverse,
            }
        })
        .collect()
}

/// One Figure 5b row.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5bRow {
    /// Answer bit-vector size (bits).
    pub bits: usize,
    /// Proxy throughput in thousands of responses per second.
    pub kresponses_per_sec: f64,
}

/// Figure 5b: proxy throughput vs answer size (10², 10³, 10⁴ bits).
///
/// Measures the real broker ingest + proxy forward path on this
/// host. Since the broker moved to shared immutable payloads, the
/// forward hop itself is a size-independent refcount bump, so the
/// timed region includes the ingest append — the one remaining copy,
/// standing in for the network receive a real proxy cannot avoid.
/// Each size is timed in three interleaved rounds and keeps its best:
/// the first round also warms the allocator, and a round that shared
/// its core with other work reads low.
pub fn run_5b(messages: u64) -> Vec<Fig5bRow> {
    let sizes = [100usize, 1_000, 10_000];
    let mut best = [0.0f64; 3];
    for _ in 0..3 {
        for (best, &bits) in best.iter_mut().zip(&sizes) {
            let broker = Broker::new(1);
            let writer = broker.writer("proxy-0-in");
            let payload = vec![0xA5u8; privapprox_crypto::answer_wire_size(bits)];
            let mut proxy = Proxy::new(ProxyId(0), &broker);
            let start = Instant::now();
            for i in 0..messages {
                (writer.try_append_quiet(0, None, &payload[..], Timestamp(i)))
                    .expect("an unbounded topic never applies backpressure");
            }
            let forwarded = proxy.pump();
            let secs = start.elapsed().as_secs_f64();
            *best = best.max(forwarded as f64 / secs / 1_000.0);
        }
    }
    sizes
        .iter()
        .zip(best)
        .map(|(&bits, kresponses_per_sec)| Fig5bRow {
            bits,
            kresponses_per_sec,
        })
        .collect()
}

/// One Figure 5c row.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5cRow {
    /// Sampling fraction (%) at clients.
    pub fraction_pct: u32,
    /// PrivApprox ε_dp at this fraction.
    pub privapprox_eps: f64,
    /// RAPPOR's (sampling-free) ε.
    pub rappor_eps: f64,
}

/// Figure 5c: the paper's apples-to-apples mapping `p = 1 − f,
/// q = 0.5, h = 1` with `f = 0.5`; RAPPOR is flat in `s`, PrivApprox
/// tightens via amplification.
pub fn run_5c() -> Vec<Fig5cRow> {
    let f = 0.5;
    let (p, q) = (1.0 - f, 0.5);
    let rappor_eps = Rappor::epsilon_single_bit(f);
    [10u32, 20, 40, 60, 80, 90, 100]
        .iter()
        .map(|&pct| Fig5cRow {
            fraction_pct: pct,
            privapprox_eps: epsilon_dp_sampled(pct as f64 / 100.0, p, q),
            rappor_eps,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5a_inversion_wins_for_rare_yes() {
        let rows = run_5a(1);
        assert_eq!(rows.len(), 9);
        // At 10 % yes: paper reports native ≈ 2.54 %, inverted ≈ 0.4 %.
        let r10 = &rows[0];
        assert!(
            r10.inverse_pct < r10.native_pct / 2.0,
            "at 10% yes: native {} vs inverse {}",
            r10.native_pct,
            r10.inverse_pct
        );
        // At 90 % yes the native phrasing wins (mirror image).
        let r90 = &rows[8];
        assert!(
            r90.native_pct < r90.inverse_pct,
            "at 90% yes: native {} vs inverse {}",
            r90.native_pct,
            r90.inverse_pct
        );
    }

    #[test]
    fn fig5b_throughput_falls_with_answer_size() {
        let rows = run_5b(20_000);
        assert_eq!(rows.len(), 3);
        assert!(
            rows[0].kresponses_per_sec > rows[2].kresponses_per_sec,
            "100-bit {} should beat 10k-bit {}",
            rows[0].kresponses_per_sec,
            rows[2].kresponses_per_sec
        );
        assert!(rows.iter().all(|r| r.kresponses_per_sec > 0.0));
    }

    #[test]
    fn fig5c_matches_the_paper_mapping() {
        let rows = run_5c();
        // RAPPOR flat at ln 3 ≈ 1.0986 for f = 0.5.
        for r in &rows {
            assert!((r.rappor_eps - 3.0f64.ln()).abs() < 1e-12);
        }
        // PrivApprox equals RAPPOR at s = 1 and is stronger below.
        let last = rows.last().unwrap();
        assert!((last.privapprox_eps - last.rappor_eps).abs() < 1e-12);
        assert!(rows[0].privapprox_eps < rows[0].rappor_eps);
        // ε(s=0.5… well, 0.4): ln(1+0.4·2) = ln 1.8.
        let r40 = rows.iter().find(|r| r.fraction_pct == 40).unwrap();
        assert!((r40.privapprox_eps - 1.8f64.ln()).abs() < 1e-12);
    }
}
