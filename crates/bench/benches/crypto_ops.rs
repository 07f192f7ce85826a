//! Criterion bench behind Table 2: per-operation crypto costs.
//!
//! Keys are 512-bit here to keep `cargo bench` wall-time reasonable;
//! the `table2` binary measures the paper's 1024-bit configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use privapprox_bench::gm::GmKeyPair;
use privapprox_bench::paillier::PaillierKeyPair;
use privapprox_bench::rsa::RsaKeyPair;
use privapprox_bench::ubig::UBig;
use privapprox_crypto::xor::{combine, combine_into, encode_answer, SplitScratch, XorSplitter};
use privapprox_types::ids::AnalystId;
use privapprox_types::{BitVec, MessageId, QueryId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench_crypto(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let answer = BitVec::one_hot(11, 3);
    let message = encode_answer(QueryId::new(AnalystId(1), 1), &answer);

    let mut group = c.benchmark_group("table2_crypto");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    // XOR split/combine across answer widths (Figure 5b reaches 10^4
    // buckets); the scratch variants measure the allocation-free path.
    for buckets in [11usize, 10_000] {
        let msg = encode_answer(QueryId::new(AnalystId(1), 1), &BitVec::one_hot(buckets, 3));
        let splitter = XorSplitter::new(2);
        group.bench_function(BenchmarkId::new("xor_split", buckets), |b| {
            b.iter(|| splitter.split(&msg, &mut rng))
        });
        let mut scratch = SplitScratch::new();
        group.bench_function(BenchmarkId::new("xor_split_into", buckets), |b| {
            b.iter(|| {
                splitter.split_into(&msg, MessageId(7), &mut rng, &mut scratch);
            })
        });
        let shares = splitter.split(&msg, &mut rng);
        group.bench_function(BenchmarkId::new("xor_combine", buckets), |b| {
            b.iter(|| combine(&shares).unwrap())
        });
        let mut out = Vec::new();
        group.bench_function(BenchmarkId::new("xor_combine_into", buckets), |b| {
            b.iter(|| combine_into(&shares, &mut out).unwrap())
        });
    }

    let rsa = RsaKeyPair::generate(512, &mut rng);
    let m = UBig::from_bytes_be(&message);
    group.bench_function("rsa_encrypt", |b| b.iter(|| rsa.encrypt(&m)));
    let ct = rsa.encrypt(&m);
    group.bench_function("rsa_decrypt", |b| b.iter(|| rsa.decrypt(&ct)));

    let gm = GmKeyPair::generate(512, &mut rng);
    group.bench_function("gm_encrypt_bit", |b| {
        b.iter(|| gm.encrypt_bit(true, &mut rng))
    });
    let bit_ct = gm.encrypt_bit(true, &mut rng);
    group.bench_function("gm_decrypt_bit", |b| b.iter(|| gm.decrypt_bit(&bit_ct)));

    let paillier = PaillierKeyPair::generate(512, &mut rng);
    group.bench_function("paillier_encrypt", |b| {
        b.iter(|| paillier.encrypt(&m, &mut rng))
    });
    let pct = paillier.encrypt(&m, &mut rng);
    group.bench_function("paillier_decrypt", |b| b.iter(|| paillier.decrypt(&pct)));

    group.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
