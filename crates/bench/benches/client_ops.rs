//! Criterion bench behind Table 3: the client answering pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use privapprox_core::client::Client;
use privapprox_rr::randomize::Randomizer;
use privapprox_sql::{execute, parse_select, ColumnType, Database, Schema, Value};
use privapprox_types::ids::AnalystId;
use privapprox_types::{
    AnswerSpec, BitVec, ClientId, ExecutionParams, QueryBuilder, QueryId, Timestamp,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const KEY: u64 = 0xB0B;

fn bench_client(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("table3_client");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    // SQL read over a 256-row store.
    let mut db = Database::new();
    db.create_table(
        "rides",
        Schema::new(vec![("ts", ColumnType::Int), ("d", ColumnType::Float)]),
    );
    for i in 0..256 {
        db.insert("rides", vec![Value::Int(i), Value::Float(i as f64 % 11.0)])
            .unwrap();
    }
    let stmt = parse_select("SELECT d FROM rides WHERE ts >= 128").unwrap();
    group.bench_function("sql_read", |b| b.iter(|| execute(&stmt, &db).unwrap()));

    // Randomized response across the paper's answer widths
    // (Figure 5b evaluates up to 10^4 buckets).
    let randomizer = Randomizer::new(0.9, 0.6);
    for buckets in [11usize, 10_000] {
        let answer = BitVec::one_hot(buckets, 3);
        group.bench_function(BenchmarkId::new("randomized_response", buckets), |b| {
            b.iter(|| randomizer.randomize_vec(&answer, &mut rng))
        });
        let mut out = BitVec::zeros(buckets);
        group.bench_function(BenchmarkId::new("randomized_response_into", buckets), |b| {
            b.iter(|| randomizer.randomize_vec_into(&answer, &mut out, &mut rng))
        });
    }

    // The full client pipeline (sample + SQL + RR + XOR split).
    let mut client = Client::new(ClientId(1), 3, KEY);
    client.db_mut().create_table(
        "rides",
        Schema::new(vec![("ts", ColumnType::Int), ("d", ColumnType::Float)]),
    );
    for i in 0..256 {
        client
            .db_mut()
            .insert("rides", vec![Value::Int(i), Value::Float(3.0)])
            .unwrap();
    }
    let query = QueryBuilder::new(QueryId::new(AnalystId(1), 1), "SELECT d FROM rides")
        .answer(AnswerSpec::ranges_with_overflow(0.0, 10.0, 10))
        .sign_and_build(KEY);
    let params = ExecutionParams::checked(1.0, 0.9, 0.6);
    let mut epoch = 0;
    group.bench_function("full_answer_pipeline", |b| {
        b.iter(|| {
            epoch += 1;
            client
                .answer_query(&query, &params, Timestamp(epoch), 2)
                .unwrap()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_client);
criterion_main!(benches);
