//! Measures real per-operation costs on this host.
//!
//! These measurements calibrate the cluster simulator (Figures 6 and
//! 8): the simulator supplies parallelism, the calibration supplies
//! honest service times. Everything here runs the *real*
//! implementation in a tight loop.

use crate::splitx::{run_privapprox_epoch, run_splitx_epoch, synthetic_batch};
use privapprox_crypto::xor::{encode_answer, XorSplitter};
use privapprox_rr::randomize::Randomizer;
use privapprox_stream::broker::Broker;
use privapprox_stream::join::MidJoiner;
use privapprox_types::ids::AnalystId;
use privapprox_types::{BitVec, QueryId, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// Measured single-core service costs, all in microseconds per
/// operation.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Calibration {
    /// Forward one share through the broker proxy path.
    pub proxy_forward_us: f64,
    /// Join two shares + XOR-decode one answer at the aggregator.
    pub aggregator_join_us: f64,
    /// Randomize one 11-bucket answer vector.
    pub rr_us: f64,
    /// Encode + XOR-split one answer (2 proxies).
    pub xor_split_us: f64,
    /// SplitX per-answer noise cost.
    pub splitx_noise_us: f64,
    /// SplitX per-answer transmission cost.
    pub splitx_transmission_us: f64,
    /// SplitX per-answer intersection cost.
    pub splitx_intersection_us: f64,
    /// SplitX per-answer shuffle cost.
    pub splitx_shuffle_us: f64,
    /// PrivApprox per-answer proxy cost measured on the same batch
    /// shape as the SplitX run.
    pub privapprox_forward_us: f64,
}

/// Runs the calibration suite (takes a couple of seconds in release).
pub fn calibrate() -> Calibration {
    let mut rng = StdRng::seed_from_u64(0xCA11B);
    let qid = QueryId::new(AnalystId(1), 1);
    let answer = BitVec::one_hot(11, 3);
    let message = encode_answer(qid, &answer);

    // RR cost.
    let randomizer = Randomizer::new(0.9, 0.6);
    let n = 200_000u32;
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(randomizer.randomize_vec(&answer, &mut rng));
    }
    let rr_us = t.elapsed().as_secs_f64() * 1e6 / n as f64;

    // XOR split cost.
    let splitter = XorSplitter::new(2);
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(splitter.split(&message, &mut rng));
    }
    let xor_split_us = t.elapsed().as_secs_f64() * 1e6 / n as f64;

    // Proxy cost through the real broker: ingest (the one payload
    // copy left now that forwarding shares the buffer by refcount —
    // the stand-in for the network receive) plus the forward pump.
    let broker = Broker::new(1);
    let producer = broker.producer();
    let m = 200_000u64;
    let mut proxy = privapprox_core::proxy::Proxy::new(privapprox_types::ProxyId(0), &broker);
    let t = Instant::now();
    for i in 0..m {
        producer.send("proxy-0-in", None, &message[..], Timestamp(i));
    }
    let forwarded = proxy.pump();
    let proxy_forward_us = t.elapsed().as_secs_f64() * 1e6 / forwarded.max(1) as f64;

    // Aggregator join + decode cost.
    let mut joiner = MidJoiner::new(2, 60_000);
    let shares: Vec<_> = (0..m / 2)
        .map(|_| splitter.split(&message, &mut rng))
        .collect();
    let t = Instant::now();
    for pair in &shares {
        for (source, share) in pair.iter().enumerate() {
            if let privapprox_stream::join::JoinOutcome::Complete(msg) =
                joiner.offer(0, share.mid, source, &share.payload, Timestamp(0))
            {
                std::hint::black_box(privapprox_crypto::xor::decode_answer(&msg));
            }
        }
    }
    let aggregator_join_us = t.elapsed().as_secs_f64() * 1e6 / (m / 2) as f64;

    // SplitX phase costs at a representative batch size.
    let batch_n = 200_000;
    let batch = synthetic_batch(batch_n, message.len(), 7);
    let timing = run_splitx_epoch(&batch, 42);
    let pa = run_privapprox_epoch(&batch);
    let per = |d: std::time::Duration| d.as_secs_f64() * 1e6 / batch_n as f64;

    Calibration {
        proxy_forward_us,
        aggregator_join_us,
        rr_us,
        xor_split_us,
        splitx_noise_us: per(timing.noise),
        splitx_transmission_us: per(timing.transmission),
        splitx_intersection_us: per(timing.intersection),
        splitx_shuffle_us: per(timing.shuffling),
        privapprox_forward_us: per(pa),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_yields_positive_costs() {
        let c = calibrate();
        for (name, v) in [
            ("proxy_forward", c.proxy_forward_us),
            ("aggregator_join", c.aggregator_join_us),
            ("rr", c.rr_us),
            ("xor_split", c.xor_split_us),
            ("splitx_noise", c.splitx_noise_us),
            ("splitx_transmission", c.splitx_transmission_us),
            ("splitx_intersection", c.splitx_intersection_us),
            ("splitx_shuffle", c.splitx_shuffle_us),
            ("privapprox_forward", c.privapprox_forward_us),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name} cost {v}");
            assert!(v < 10_000.0, "{name} cost {v} implausibly high");
        }
    }

    #[test]
    fn splitx_total_exceeds_forwarding() {
        let c = calibrate();
        let splitx_total = c.splitx_noise_us
            + c.splitx_transmission_us
            + c.splitx_intersection_us
            + c.splitx_shuffle_us;
        assert!(
            splitx_total > c.privapprox_forward_us,
            "SplitX per-answer {splitx_total} vs forward {}",
            c.privapprox_forward_us
        );
    }
}
