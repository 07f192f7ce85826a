//! Sharded-vs-single-threaded equivalence: `ShardedSystem` must
//! produce **byte-identical** `QueryResult`s to `System` — same
//! estimates to the last bit, same intervals, same sample sizes —
//! across seeds, bucket widths (11 and 10⁴), proxy counts, shard
//! counts **and pipeline depths** (overlapped epochs). This is the
//! property that makes the threaded runtime a drop-in: parallelism
//! and pipelining change wall-clock shape, never answers.
//!
//! Why it holds (pinned here, argued in `deploy`'s module docs):
//! per-client answers are pure functions of each client's own RNG
//! stream, window accumulation is commutative counting, watermarks
//! advance in epoch order only after the epoch's in-flight
//! accounting settles, and estimation is a pure function of merged
//! counts.
//!
//! Pipelined cases (`depth > 1`) drive the sharded system through
//! `submit_epoch`/`flush_epochs` — epochs genuinely overlap — and
//! compare the **full drained result sequence** against the
//! single-threaded run's per-epoch emissions. The straggler cases
//! artificially delay one shard's closes while the workers run
//! epochs ahead (bounded by backpressured partitions), the worst
//! overlap skew the runtime allows.
//!
//! The quick matrix runs in the tier-1 suite; the exhaustive sweep
//! and the watermark-interleaving/straggler stresses are `#[ignore]`d
//! and run by the CI stress job (`cargo test --release sharded
//! threaded -- --include-ignored`, 10×).

use privapprox_core::aggregator::QueryResult;
use privapprox_core::{FaultInjector, ShardedSystem, System};
use privapprox_types::{AnswerSpec, ExecutionParams};
use std::time::Duration;

/// Exact (bit-level for floats) equality of two results.
fn assert_results_identical(a: &QueryResult, b: &QueryResult, context: &str) {
    assert_eq!(a.query, b.query, "{context}: query id");
    assert_eq!(a.window, b.window, "{context}: window");
    assert_eq!(a.sample_size, b.sample_size, "{context}: sample size");
    assert_eq!(a.population, b.population, "{context}: population");
    assert_eq!(a.buckets.len(), b.buckets.len(), "{context}: bucket count");
    let bits = f64::to_bits;
    for (i, (x, y)) in a.buckets.iter().zip(&b.buckets).enumerate() {
        let c = format!("{context}: bucket {i}");
        assert_eq!(x.raw_yes, y.raw_yes, "{c} raw_yes");
        assert_eq!(
            bits(x.estimate_sample),
            bits(y.estimate_sample),
            "{c} estimate_sample"
        );
        assert_eq!(bits(x.estimate), bits(y.estimate), "{c} estimate");
        assert_eq!(bits(x.ci.estimate), bits(y.ci.estimate), "{c} ci.estimate");
        assert_eq!(bits(x.ci.bound), bits(y.ci.bound), "{c} ci.bound");
        assert_eq!(
            bits(x.ci.confidence),
            bits(y.ci.confidence),
            "{c} ci.confidence"
        );
        assert_eq!(
            bits(x.sampling_error),
            bits(y.sampling_error),
            "{c} sampling_error"
        );
        assert_eq!(bits(x.rr_error), bits(y.rr_error), "{c} rr_error");
    }
    assert_eq!(
        bits(a.privacy.eps_rr),
        bits(b.privacy.eps_rr),
        "{context}: eps_rr"
    );
    assert_eq!(
        bits(a.privacy.eps_dp),
        bits(b.privacy.eps_dp),
        "{context}: eps_dp"
    );
    assert_eq!(
        bits(a.privacy.eps_zk),
        bits(b.privacy.eps_zk),
        "{context}: eps_zk"
    );
}

struct Case {
    seed: u64,
    buckets: usize,
    proxies: u16,
    shards: usize,
    workers: usize,
    params: ExecutionParams,
    epochs: usize,
    /// `(window, slide)` in ms.
    window: (u64, u64),
    /// Pipeline depth; `> 1` drives the sharded side through
    /// `submit_epoch`/`flush_epochs` with genuinely overlapped epochs.
    depth: usize,
    /// Per-partition broker backlog bound (`0` = the deployment's
    /// auto-sized default of depth + 1 epochs' worth per partition).
    capacity: usize,
    /// Artificial delay injected before every close on shard 0.
    straggle_ms: u64,
}

impl Case {
    /// A depth-1, default-capacity, non-straggling case (the
    /// pre-pipelining matrix shape).
    fn barrier(
        seed: u64,
        buckets: usize,
        proxies: u16,
        shards: usize,
        workers: usize,
        params: ExecutionParams,
        epochs: usize,
        window: (u64, u64),
    ) -> Case {
        Case {
            seed,
            buckets,
            proxies,
            shards,
            workers,
            params,
            epochs,
            window,
            depth: 1,
            capacity: 0,
            straggle_ms: 0,
        }
    }
}

/// Runs one configuration through both harnesses and compares every
/// emitted result, epoch for epoch (or sequence for sequence in the
/// pipelined mode).
fn run_case(case: &Case) {
    let population = 120u64;
    let spec = AnswerSpec::ranges_with_overflow(0.0, 110.0, case.buckets - 1);
    let context = format!(
        "seed {} buckets {} proxies {} shards {} workers {} depth {} capacity {} straggle {}ms",
        case.seed,
        case.buckets,
        case.proxies,
        case.shards,
        case.workers,
        case.depth,
        case.capacity,
        case.straggle_ms
    );

    let mut single = System::builder()
        .clients(population)
        .proxies(case.proxies)
        .seed(case.seed)
        .build();
    let mut builder = ShardedSystem::builder()
        .clients(population)
        .proxies(case.proxies)
        .shards(case.shards)
        .workers(case.workers)
        .pipeline_depth(case.depth)
        .partition_capacity(case.capacity)
        .seed(case.seed);
    if case.straggle_ms > 0 {
        let delay = Duration::from_millis(case.straggle_ms);
        builder = builder.fault_injector(FaultInjector::default().straggler(0, delay));
    }
    let mut sharded = builder.build();

    single.load_numeric_column("vehicle", "speed", |i| (i % 110) as f64);
    sharded.load_numeric_column("vehicle", "speed", |i| (i % 110) as f64).unwrap();

    let q_single = single
        .analyst()
        .query("SELECT speed FROM vehicle")
        .buckets(spec.clone())
        .window(case.window.0, case.window.1)
        .params(case.params)
        .submit()
        .unwrap();
    let q_sharded = sharded
        .analyst()
        .query("SELECT speed FROM vehicle")
        .buckets(spec)
        .window(case.window.0, case.window.1)
        .params(case.params)
        .submit()
        .unwrap();
    assert_eq!(q_single.id, q_sharded.id, "{context}: query ids line up");
    assert_eq!(q_single.signature, q_sharded.signature);

    if case.depth <= 1 {
        for epoch in 0..case.epochs {
            let a = single.run_epoch(&q_single).unwrap();
            let b = sharded.run_epoch(&q_sharded).unwrap();
            assert_results_identical(&a, &b, &format!("{context} epoch {epoch}"));
            // Sliding windows emit extra results; they must match too.
            let extra_a = single.drain_results();
            let extra_b = sharded.drain_results();
            assert_eq!(
                extra_a.len(),
                extra_b.len(),
                "{context} epoch {epoch}: drained count"
            );
            for (x, y) in extra_a.iter().zip(&extra_b) {
                assert_results_identical(x, y, &format!("{context} epoch {epoch} drained"));
            }
        }
    } else {
        // Pipelined mode: the single-threaded run's canonical
        // sequence is each epoch's full emission batch in
        // (window start, query id) order — exactly the order the
        // pipelined completions append to the drain buffer.
        let mut expected: Vec<QueryResult> = Vec::new();
        for _ in 0..case.epochs {
            let r = single.run_epoch(&q_single).unwrap();
            let mut batch = single.drain_results();
            batch.push(r);
            batch.sort_by_key(|r| (r.window.start, r.query.to_u64()));
            expected.extend(batch);
        }
        for _ in 0..case.epochs {
            sharded.submit_epoch(&q_sharded).unwrap();
        }
        sharded.flush_epochs().unwrap();
        let got = sharded.drain_results();
        assert_eq!(
            expected.len(),
            got.len(),
            "{context}: pipelined result sequence length"
        );
        for (i, (x, y)) in expected.iter().zip(&got).enumerate() {
            assert_results_identical(x, y, &format!("{context} sequence index {i}"));
        }
    }
    assert_eq!(sharded.aggregator_health(), (0, 0, 0, 0), "{context}");
}

/// The quick equivalence matrix: both bucket widths, private and
/// exact modes, 1/2/4 shards. Runs in the tier-1 suite.
#[test]
fn sharded_equals_single_threaded_quick_matrix() {
    for seed in [1u64, 2] {
        for &buckets in &[11usize, 10_000] {
            for &shards in &[1usize, 2, 4] {
                run_case(&Case::barrier(
                    seed,
                    buckets,
                    2,
                    shards,
                    shards,
                    ExecutionParams::checked(0.9, 0.8, 0.6),
                    2,
                    (1_000, 1_000),
                ));
            }
        }
    }
}

/// The multi-epoch overlap matrix: pipeline depths 2 and 3 over both
/// bucket widths and 2/4 shards, driven through
/// `submit_epoch`/`flush_epochs` so epochs genuinely overlap, with
/// enough epochs that the pipeline reaches steady state. Runs in the
/// tier-1 suite.
#[test]
fn sharded_overlapped_epochs_equal_single_threaded_matrix() {
    for &depth in &[2usize, 3] {
        for &buckets in &[11usize, 10_000] {
            for &shards in &[2usize, 4] {
                run_case(&Case {
                    seed: 5,
                    buckets,
                    proxies: 2,
                    shards,
                    workers: shards,
                    params: ExecutionParams::checked(0.9, 0.8, 0.6),
                    epochs: depth + 3,
                    window: (1_000, 1_000),
                    depth,
                    capacity: 0,
                    straggle_ms: 0,
                });
            }
        }
    }
}

/// Overlapped epochs over *sliding* windows: with `(w, δ) = (2s,
/// 0.5s)` every answer lives in 4 windows, so windows span several
/// in-flight epochs and close while later epochs stream through the
/// same shards — the merged emission sequence must still be
/// byte-identical. Bounded partitions keep the overlap honest (epoch
/// `k+1` really backpressures instead of parking in an unbounded
/// log).
#[test]
fn sharded_overlapped_sliding_windows_equal_single_threaded() {
    run_case(&Case {
        seed: 21,
        buckets: 11,
        proxies: 2,
        shards: 4,
        workers: 2,
        params: ExecutionParams::checked(0.9, 0.85, 0.5),
        epochs: 6,
        window: (2_000, 500),
        depth: 3,
        capacity: 48,
        straggle_ms: 0,
    });
}

/// One shard artificially delayed while the workers run epochs ahead
/// (straggler stress, quick variant): the pipeline fills to depth,
/// the bounded partitions hold back the flood, and the results stay
/// byte-identical. Runs in the tier-1 suite.
#[test]
fn sharded_straggler_shard_overlap_quick() {
    run_case(&Case {
        seed: 17,
        buckets: 11,
        proxies: 2,
        shards: 2,
        workers: 2,
        params: ExecutionParams::checked(1.0, 1.0, 0.5),
        epochs: 5,
        window: (1_000, 1_000),
        depth: 3,
        capacity: 64,
        straggle_ms: 15,
    });
}

/// Exact mode (s = 1, p = 1) must agree too — no randomness anywhere.
#[test]
fn sharded_equals_single_threaded_exact_mode() {
    run_case(&Case::barrier(
        7,
        11,
        2,
        2,
        2,
        ExecutionParams::checked(1.0, 1.0, 0.5),
        2,
        (1_000, 1_000),
    ));
}

/// The exhaustive sweep: seeds × widths × proxies × shards × worker
/// counts that don't divide the population evenly × pipeline depths.
/// Stress-job only.
#[test]
#[ignore = "exhaustive sweep; run by the CI stress job"]
fn sharded_equals_single_threaded_full_sweep() {
    for seed in [1u64, 2, 3, 42] {
        for &buckets in &[11usize, 10_000] {
            for &proxies in &[2u16, 3] {
                for &shards in &[1usize, 2, 4] {
                    for &workers in &[1usize, shards, shards + 1] {
                        for &depth in &[1usize, 3] {
                            run_case(&Case {
                                seed,
                                buckets,
                                proxies,
                                shards,
                                workers,
                                params: ExecutionParams::checked(0.8, 0.7, 0.55),
                                epochs: if depth > 1 { depth + 2 } else { 2 },
                                window: (1_000, 1_000),
                                depth,
                                capacity: 0,
                                straggle_ms: 0,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Sliding windows force every shard to hold several windows open and
/// close them at interleaved watermarks; the merged emission order
/// and contents must still match the single-threaded run exactly.
#[test]
fn sharded_sliding_windows_interleave_watermarks() {
    run_case(&Case::barrier(
        11,
        11,
        2,
        4,
        2,
        ExecutionParams::checked(0.9, 0.85, 0.5),
        5,
        (2_000, 500), // each event lives in 4 windows
    ));
}

/// Straggler stress, full variant: wide answers, deeper pipeline,
/// sliding windows, randomized params — one shard's closes delayed
/// 50 ms while everything else races ahead behind bounded
/// partitions. Stress-job only.
#[test]
#[ignore = "straggler/overlap stress; run by the CI stress job"]
fn sharded_straggler_overlap_stress() {
    for seed in [3u64, 13] {
        run_case(&Case {
            seed,
            buckets: 11,
            proxies: 2,
            shards: 4,
            workers: 4,
            params: ExecutionParams::checked(0.85, 0.75, 0.6),
            epochs: 8,
            window: (3_000, 750),
            depth: 3,
            capacity: 32,
            straggle_ms: 50,
        });
    }
    // One wide-answer tumbling case: the straggler holds 10⁴-bucket
    // windows open while two more epochs stream in.
    run_case(&Case {
        seed: 29,
        buckets: 10_000,
        proxies: 2,
        shards: 2,
        workers: 2,
        params: ExecutionParams::checked(0.9, 0.8, 0.6),
        epochs: 4,
        window: (1_000, 1_000),
        depth: 3,
        capacity: 128,
        straggle_ms: 40,
    });
}

/// Stress variant of the watermark interleave: more shards than
/// partitions would leave shards idle — partitions(8) over shards(4)
/// gives every shard two partitions — plus 10⁴-bucket answers and
/// more epochs. Stress-job only.
#[test]
#[ignore = "watermark interleave stress; run by the CI stress job"]
fn sharded_watermark_interleave_stress() {
    let population = 120u64;
    for seed in [3u64, 13] {
        let spec = AnswerSpec::ranges_with_overflow(0.0, 110.0, 9_999);
        let mut single = System::builder()
            .clients(population)
            .proxies(2)
            .seed(seed)
            .build();
        let mut sharded = ShardedSystem::builder()
            .clients(population)
            .proxies(2)
            .shards(4)
            .workers(4)
            .partitions(8)
            .seed(seed)
            .build();
        single.load_numeric_column("vehicle", "speed", |i| (i % 110) as f64);
        sharded.load_numeric_column("vehicle", "speed", |i| (i % 110) as f64).unwrap();
        let params = ExecutionParams::checked(0.85, 0.75, 0.6);
        let qa = single
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(spec.clone())
            .window(3_000, 750)
            .params(params)
            .submit()
            .unwrap();
        let qb = sharded
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(spec)
            .window(3_000, 750)
            .params(params)
            .submit()
            .unwrap();
        for epoch in 0..8 {
            let a = single.run_epoch(&qa).unwrap();
            let b = sharded.run_epoch(&qb).unwrap();
            assert_results_identical(&a, &b, &format!("stress seed {seed} epoch {epoch}"));
            let extra_a = single.drain_results();
            let extra_b = sharded.drain_results();
            assert_eq!(
                extra_a.len(),
                extra_b.len(),
                "stress seed {seed} epoch {epoch}: drained window count"
            );
            for (x, y) in extra_a.iter().zip(&extra_b) {
                assert_results_identical(x, y, &format!("stress seed {seed} epoch {epoch} drain"));
            }
        }
        assert_eq!(sharded.aggregator_health(), (0, 0, 0, 0));
    }
}
