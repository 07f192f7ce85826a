//! Criterion bench behind Figures 5b and 8: the proxy forward path
//! and the aggregator join/decode path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use privapprox_core::proxy::Proxy;
use privapprox_crypto::xor::{encode_answer, XorSplitter};
use privapprox_stream::broker::Broker;
use privapprox_stream::join::MidJoiner;
use privapprox_types::ids::AnalystId;
use privapprox_types::{BitVec, ProxyId, QueryId, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_path");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    // Figure 5b: forwarding cost per answer width.
    for bits in [100usize, 1_000, 10_000] {
        let payload = vec![0xA5u8; privapprox_crypto::answer_wire_size(bits)];
        let batch = 10_000u64;
        group.throughput(Throughput::Elements(batch));
        group.bench_with_input(
            BenchmarkId::new("proxy_forward", bits),
            &payload,
            |b, payload| {
                b.iter_batched(
                    || {
                        let broker = Broker::new(1);
                        let writer = broker.writer("proxy-0-in");
                        for i in 0..batch {
                            let value = payload.clone();
                            (writer.try_append_quiet(0, None, value, Timestamp(i))).unwrap();
                        }
                        (Proxy::new(ProxyId(0), &broker), broker)
                    },
                    |(mut proxy, _broker)| proxy.pump(),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }

    // Aggregator join + decode per answer.
    let mut rng = StdRng::seed_from_u64(5);
    let splitter = XorSplitter::new(2);
    let message = encode_answer(QueryId::new(AnalystId(1), 1), &BitVec::one_hot(11, 3));
    let batch: Vec<_> = (0..10_000)
        .map(|_| splitter.split(&message, &mut rng))
        .collect();
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("aggregator_join_decode", |b| {
        b.iter(|| {
            let mut joiner = MidJoiner::new(2, 60_000);
            let mut decoded = 0u64;
            for shares in &batch {
                for (source, s) in shares.iter().enumerate() {
                    if let privapprox_stream::join::JoinOutcome::Complete(msg) =
                        joiner.offer(0, s.mid, source, &s.payload, Timestamp(0))
                    {
                        if privapprox_crypto::decode_answer(&msg).is_some() {
                            decoded += 1;
                        }
                    }
                }
            }
            decoded
        })
    });

    group.finish();
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
