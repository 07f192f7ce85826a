//! Ablation studies for design choices beyond the paper's own
//! evaluation:
//!
//! 1. **Share count** — the XOR scheme's cost as the number of
//!    non-colluding proxies grows (the paper fixes n = 2).
//! 2. **Join timeout** — completeness vs memory when shares straggle.
//! 3. **Feedback gain** — convergence speed of the §5 adaptive loop.
//!
//! Run with: `cargo run --release -p privapprox-bench --bin ablations`

use privapprox_bench::{save_json, Table};
use privapprox_core::feedback::FeedbackController;
use privapprox_crypto::xor::{combine, encode_answer, XorSplitter};
use privapprox_stream::join::MidJoiner;
use privapprox_types::ids::AnalystId;
use privapprox_types::{BitVec, ExecutionParams, QueryId, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct ShareCountRow {
    proxies: usize,
    split_ns: f64,
    combine_ns: f64,
    bytes_per_answer: usize,
}

fn share_count_ablation() -> Vec<ShareCountRow> {
    let mut rng = StdRng::seed_from_u64(1);
    let message = encode_answer(QueryId::new(AnalystId(1), 1), &BitVec::one_hot(11, 3));
    let iters = 200_000u32;
    (2..=6)
        .map(|n| {
            let splitter = XorSplitter::new(n);
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(splitter.split(&message, &mut rng));
            }
            let split_ns = t.elapsed().as_secs_f64() * 1e9 / iters as f64;
            let shares = splitter.split(&message, &mut rng);
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(combine(&shares).unwrap());
            }
            let combine_ns = t.elapsed().as_secs_f64() * 1e9 / iters as f64;
            ShareCountRow {
                proxies: n,
                split_ns,
                combine_ns,
                bytes_per_answer: n * message.len(),
            }
        })
        .collect()
}

#[derive(Serialize)]
struct JoinTimeoutRow {
    timeout_ms: u64,
    completed: u64,
    expired: u64,
    peak_pending: usize,
}

/// Shares straggle with an exponential-ish delay; short timeouts shed
/// memory but lose stragglers.
fn join_timeout_ablation() -> Vec<JoinTimeoutRow> {
    let mut rng = StdRng::seed_from_u64(2);
    let splitter = XorSplitter::new(2);
    let message = encode_answer(QueryId::new(AnalystId(1), 1), &BitVec::one_hot(11, 3));
    let n = 20_000;
    // Pre-generate arrivals: first share at t, second at t + delay
    // where delay is 0–2,000 ms with a heavy tail to 30 s for 2 %.
    let mut arrivals: Vec<(u64, u64, Vec<privapprox_crypto::Share>)> = (0..n)
        .map(|i| {
            let t = i as u64; // 1 answer/ms
            let delay = if rng.gen::<f64>() < 0.02 {
                rng.gen_range(10_000..30_000)
            } else {
                rng.gen_range(0..2_000)
            };
            (t, t + delay, splitter.split(&message, &mut rng))
        })
        .collect();

    [500u64, 2_000, 5_000, 30_000]
        .iter()
        .map(|&timeout_ms| {
            // Flatten into a time-ordered event list.
            let mut events: Vec<(u64, usize, usize)> = Vec::with_capacity(2 * n);
            for (i, (t1, t2, _)) in arrivals.iter().enumerate() {
                events.push((*t1, i, 0));
                events.push((*t2, i, 1));
            }
            events.sort_unstable();
            let mut joiner = MidJoiner::new(2, timeout_ms);
            let mut peak = 0usize;
            for (t, idx, share_idx) in events {
                let share = &arrivals[idx].2[share_idx];
                let _ = joiner.offer(0, share.mid, share_idx, &share.payload, Timestamp(t));
                if t % 251 == 0 {
                    joiner.sweep(Timestamp(t));
                    peak = peak.max(joiner.pending_len());
                }
            }
            joiner.sweep(Timestamp(u64::MAX / 2));
            let row = JoinTimeoutRow {
                timeout_ms,
                completed: joiner.completed(),
                expired: joiner.expired(),
                peak_pending: peak,
            };
            // Keep arrivals reusable (shares are cloned on use).
            arrivals.iter_mut().for_each(|_| {});
            row
        })
        .collect()
}

#[derive(Serialize)]
struct FeedbackRow {
    gain: f64,
    epochs_to_converge: u32,
    overshoot: f64,
}

/// Convergence of the adaptive loop under the 1/√(s·N) error model.
fn feedback_gain_ablation() -> Vec<FeedbackRow> {
    [0.2f64, 0.5, 0.8, 1.0]
        .iter()
        .map(|&gain| {
            let controller = FeedbackController::new(0.05, gain, 0.95);
            let mut params = ExecutionParams::checked(0.02, 0.9, 0.6);
            let k = 0.035; // err(s) = k/√s → target met near s ≈ 0.49
            let mut epochs = 0;
            let mut max_s: f64 = params.s;
            for _ in 0..50 {
                let err = k / params.s.sqrt();
                // "Converged" = within 5 % of the target: a damped
                // controller approaches an exact boundary only
                // asymptotically.
                if err <= 0.05 * 1.05 {
                    break;
                }
                let (next, _) = controller.retune(params, err);
                params = next;
                max_s = max_s.max(params.s);
                epochs += 1;
            }
            FeedbackRow {
                gain,
                epochs_to_converge: epochs,
                overshoot: max_s / 0.49,
            }
        })
        .collect()
}

fn main() {
    println!("Ablation 1 — XOR share count (n proxies)\n");
    let rows = share_count_ablation();
    let mut table = Table::new(&["proxies", "split ns", "combine ns", "bytes/answer"]);
    for r in &rows {
        table.row(vec![
            r.proxies.to_string(),
            format!("{:.0}", r.split_ns),
            format!("{:.0}", r.combine_ns),
            r.bytes_per_answer.to_string(),
        ]);
    }
    println!("{}", table.render());
    save_json("ablation_shares", &rows).unwrap();

    println!("\nAblation 2 — join timeout vs straggler survival (2% heavy-tail delays)\n");
    let rows = join_timeout_ablation();
    let mut table = Table::new(&["timeout ms", "completed", "expired", "peak pending"]);
    for r in &rows {
        table.row(vec![
            r.timeout_ms.to_string(),
            r.completed.to_string(),
            r.expired.to_string(),
            r.peak_pending.to_string(),
        ]);
    }
    println!("{}", table.render());
    save_json("ablation_join_timeout", &rows).unwrap();

    println!("\nAblation 3 — feedback controller gain\n");
    let rows = feedback_gain_ablation();
    let mut table = Table::new(&["gain", "epochs to converge", "overshoot (s/s*)"]);
    for r in &rows {
        table.row(vec![
            format!("{:.1}", r.gain),
            r.epochs_to_converge.to_string(),
            format!("{:.2}", r.overshoot),
        ]);
    }
    println!("{}", table.render());
    save_json("ablation_feedback", &rows).unwrap();
}
