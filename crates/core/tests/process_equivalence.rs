//! Cross-process equivalence: a `ShardedSystem` whose proxies and
//! aggregator shards run as spawned `privapprox-node` child processes
//! behind supervised loopback sockets must produce **byte-identical**
//! `QueryResult`s to the single-threaded `System` — same estimates to
//! the last bit, same intervals, same sample sizes. Combined with
//! `sharded_equivalence.rs` (threads vs single-threaded) this pins the
//! whole transport chain: in-process threads and real sockets are
//! interchangeable deployments of the same computation.
//!
//! Why it holds: proxy children route every share to shard
//! `partition % shards`, the stride an in-process shard owns
//! (`Broker::consumer_of`), the wire format round-trips counts as `u64`
//! and floats as IEEE bits, and a fault-free epoch closes only after
//! the global decode ledger reaches its expectation — by which point
//! every record has been decoded, so per-link FIFO delivery is all
//! the ordering the merge needs.
//!
//! Every case also asserts a *fault-free* supervision record: zero
//! reconnects, rejections, retries and panics. Robustness under
//! injected network faults lives in `net_chaos.rs`.

use privapprox_core::aggregator::QueryResult;
use privapprox_core::{ShardedSystem, ShardedSystemBuilder, System};
use privapprox_types::{AnswerSpec, ExecutionParams, Query};

fn node_binary() -> &'static str {
    env!("CARGO_BIN_EXE_privapprox-node")
}

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
}

struct Case {
    seed: u64,
    /// Clients (every one answers every epoch at `s = 1`).
    population: u64,
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
}

fn process_builder(case: &Case, population: u64) -> ShardedSystemBuilder {
    ShardedSystem::builder()
        .clients(population)
        .proxies(case.proxies)
        .shards(case.shards)
        .workers(case.workers)
        .pipeline_depth(case.depth)
        .seed(case.seed)
        .process_transport(node_binary())
}

/// Runs one configuration single-threaded and over sockets and
/// compares every emitted result.
fn run_case(case: &Case) {
    let population = case.population;
    let spec = AnswerSpec::ranges_with_overflow(0.0, 110.0, case.buckets - 1);
    let context = format!(
        "seed {} buckets {} proxies {} shards {} workers {} depth {}",
        case.seed, case.buckets, case.proxies, case.shards, case.workers, case.depth
    );

    let mut single = System::builder()
        .clients(population)
        .proxies(case.proxies)
        .seed(case.seed)
        .build();
    let mut remote = process_builder(case, population).build();

    single.load_numeric_column("vehicle", "speed", |i| (i % 110) as f64);
    remote
        .load_numeric_column("vehicle", "speed", |i| (i % 110) as f64)
        .unwrap();

    let q_single = single
        .analyst()
        .query("SELECT speed FROM vehicle")
        .buckets(spec.clone())
        .window(case.window.0, case.window.1)
        .params(case.params)
        .submit()
        .unwrap();
    let q_remote = remote
        .analyst()
        .query("SELECT speed FROM vehicle")
        .buckets(spec)
        .window(case.window.0, case.window.1)
        .params(case.params)
        .submit()
        .unwrap();
    assert_eq!(q_single.id, q_remote.id, "{context}: query ids line up");

    if case.depth <= 1 {
        for epoch in 0..case.epochs {
            let a = single.run_epoch(&q_single).unwrap();
            let b = remote.run_epoch(&q_remote).unwrap();
            assert_results_identical(&a, &b, &format!("{context} epoch {epoch}"));
            let extra_a = single.drain_results();
            let extra_b = remote.drain_results();
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
        let mut expected: Vec<QueryResult> = Vec::new();
        for _ in 0..case.epochs {
            let r = single.run_epoch(&q_single).unwrap();
            let mut batch = single.drain_results();
            batch.push(r);
            batch.sort_by_key(|r| (r.window.start, r.query.to_u64()));
            expected.extend(batch);
        }
        for _ in 0..case.epochs {
            remote.submit_epoch(&q_remote).unwrap();
        }
        remote.flush_epochs().unwrap();
        let got = remote.drain_results();
        assert_eq!(
            expected.len(),
            got.len(),
            "{context}: pipelined result sequence length"
        );
        for (i, (x, y)) in expected.iter().zip(&got).enumerate() {
            assert_results_identical(x, y, &format!("{context} sequence index {i}"));
        }
    }

    // Fault-free run: clean loopback links leave no supervision marks.
    let health = remote.deploy_health();
    assert_eq!(health.reconnects, 0, "{context}: reconnects");
    assert_eq!(health.rejections, 0, "{context}: rejections");
    assert_eq!(health.retries, 0, "{context}: retries");
    assert_eq!(health.proxy_panics, 0, "{context}: proxy panics");
    assert_eq!(health.shard_panics, 0, "{context}: shard panics");
    assert_eq!(health.partial_closes, 0, "{context}: partial closes");
    assert_eq!(health.lost_answers, 0, "{context}: lost answers");
    assert_eq!(
        (health.undecodable, health.unroutable, health.duplicates),
        (0, 0, 0),
        "{context}: aggregator quad"
    );
}

/// The quick cross-process matrix: both answer widths, 1/2/4 shards,
/// all over real sockets. Runs in the tier-1 suite.
#[test]
fn process_transport_equals_single_threaded_quick_matrix() {
    for seed in [1u64, 2] {
        for &buckets in &[11usize, 10_000] {
            for &shards in &[1usize, 2, 4] {
                run_case(&Case {
                    seed,
                    population: 120,
                    buckets,
                    proxies: 2,
                    shards,
                    workers: shards,
                    params: ExecutionParams::checked(0.9, 0.8, 0.6),
                    epochs: 2,
                    window: (1_000, 1_000),
                    depth: 1,
                });
            }
        }
    }
}

/// Overlapped epochs over sockets: depth-3 pipelining with sliding
/// windows, epochs genuinely in flight across process boundaries.
#[test]
fn process_transport_overlapped_sliding_windows() {
    run_case(&Case {
        seed: 21,
        population: 120,
        buckets: 11,
        proxies: 2,
        shards: 4,
        workers: 2,
        params: ExecutionParams::checked(0.9, 0.85, 0.5),
        epochs: 6,
        window: (2_000, 500),
        depth: 3,
    });
}

/// Three proxies (shares split three ways, three relay children) must
/// agree too.
#[test]
fn process_transport_three_proxies() {
    run_case(&Case {
        seed: 9,
        population: 120,
        buckets: 11,
        proxies: 3,
        shards: 2,
        workers: 2,
        params: ExecutionParams::checked(0.85, 0.75, 0.6),
        epochs: 3,
        window: (1_000, 1_000),
        depth: 1,
    });
}

/// Exact mode (s = 1, p = 1): no randomness anywhere, including on
/// the wire.
#[test]
fn process_transport_exact_mode() {
    run_case(&Case {
        seed: 7,
        population: 120,
        buckets: 11,
        proxies: 2,
        shards: 2,
        workers: 2,
        params: ExecutionParams::checked(1.0, 1.0, 0.5),
        epochs: 2,
        window: (1_000, 1_000),
        depth: 1,
    });
}

/// Flow control: one epoch pushes more through each proxy link, in
/// each direction, than the kernel's socket buffers can hold (≥ 48 MiB
/// against a few MiB of `tcp_wmem` + `tcp_rmem`), while parent and
/// child both keep writing. Ends that only wrote would deadlock —
/// each blocked in a send the other is not reading; the transport
/// keeps receiving while a write is blocked, so the epoch completes
/// and still matches the oracle. (Half a minute unoptimised, a second
/// in release: CI's multi-process job runs it; tier-1 has the
/// transport-level `two_ends_writing_at_each_other_do_not_deadlock`.)
#[test]
#[ignore = "48 MiB epoch, slow unoptimised; run (release) by the CI multi-process job"]
fn process_transport_survives_an_epoch_larger_than_the_socket_buffers() {
    let case = Case {
        seed: 5,
        population: 6_400,
        buckets: 65_000,
        proxies: 2,
        shards: 1,
        workers: 1,
        params: ExecutionParams::checked(1.0, 0.9, 0.6),
        epochs: 1,
        window: (1_000, 1_000),
        depth: 1,
    };
    let share = privapprox_crypto::xor::answer_wire_size(case.buckets) as u64;
    assert!(
        case.population * share >= 48 << 20,
        "{} clients x {share} B is not enough to overrun the socket buffers",
        case.population
    );
    run_case(&case);
}

/// A small fault-free process deployment with one query registered,
/// plus the query.
fn small_process_system(population: u64, buckets: usize) -> (ShardedSystem, Query) {
    let mut system = ShardedSystem::builder()
        .clients(population)
        .proxies(2)
        .shards(1)
        .workers(1)
        .seed(11)
        .process_transport(node_binary())
        .build();
    system
        .load_numeric_column("vehicle", "speed", |i| (i % 110) as f64)
        .unwrap();
    let query = system
        .analyst()
        .query("SELECT speed FROM vehicle")
        .buckets(AnswerSpec::ranges_with_overflow(0.0, 110.0, buckets - 1))
        .window(1_000, 1_000)
        .params(ExecutionParams::checked(1.0, 0.9, 0.6))
        .submit()
        .unwrap();
    (system, query)
}

fn assert_fault_free(system: &mut ShardedSystem) {
    let health = system.deploy_health();
    assert_eq!(
        (health.retries, health.reconnects, health.partial_closes),
        (0, 0, 0)
    );
}

/// Shares skip the parent. Its broker holds only what the workers
/// append — one record per proxy per answer, on the inbound topics —
/// because each proxy child sends what it relays straight to the
/// shard children instead of back through the parent (which appended
/// as many records again). Every share is shipped to a relay child
/// exactly once: the count `tests/threaded_pipeline.rs` pins for relay
/// threads.
#[test]
fn process_transport_shares_skip_the_parent() {
    let (population, epochs) = (120u64, 10u64);
    let mut system = ShardedSystem::builder()
        .clients(population)
        .proxies(2)
        .shards(2)
        .workers(2)
        .seed(13)
        .process_transport(node_binary())
        .build();
    system
        .load_numeric_column("vehicle", "speed", |i| (i % 110) as f64)
        .unwrap();
    // s = 1: every client answers every epoch.
    let query = system
        .analyst()
        .query("SELECT speed FROM vehicle")
        .buckets(AnswerSpec::ranges_with_overflow(0.0, 110.0, 10))
        .window(1_000, 1_000)
        .params(ExecutionParams::checked(1.0, 0.9, 0.6))
        .submit()
        .unwrap();
    for _ in 0..epochs {
        assert_eq!(system.run_epoch(&query).unwrap().sample_size, population);
    }
    let answers = population * epochs;
    assert_eq!(system.broker_stats().records_in, 2 * answers);
    assert_eq!(system.forwarded_shares(), 2 * answers);
    assert_fault_free(&mut system);
}

fn median(mut xs: Vec<std::time::Duration>) -> std::time::Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// The timer chain cannot silently return: when every hop delivered
/// by timeout an epoch of *any* size took four to five timer expiries
/// (≈ 55 ms, at any width); event-driven it takes the work plus a few
/// wakeups. The bound sits between the two with room on both sides,
/// and the best of three medians-of-30 is taken so a busy test host
/// cannot fail it — a timer on the path fails every attempt.
#[test]
fn process_transport_epoch_is_not_timer_bound() {
    let (mut system, query) = small_process_system(120, 11);
    for _ in 0..3 {
        system.run_epoch(&query).unwrap(); // warm-up
    }
    let bound = std::time::Duration::from_millis(25);
    let mut best = std::time::Duration::MAX;
    for _attempt in 0..3 {
        let epochs: Vec<_> = (0..30)
            .map(|_| {
                let t0 = std::time::Instant::now();
                system.run_epoch(&query).unwrap();
                t0.elapsed()
            })
            .collect();
        best = best.min(median(epochs));
        if best < bound {
            break;
        }
    }
    assert!(
        best < bound,
        "median epoch {best:?}: a timed wait is back on the path"
    );
    assert_fault_free(&mut system);
}

/// Resident set of process `pid` in KiB (`VmRSS`).
#[cfg(target_os = "linux")]
fn rss_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// Soak: 600 epochs on ONE process-transport system stay as fast as
/// the first hundred, and the children do not grow — their private
/// topics trim what their single consumer has consumed, and a closed
/// epoch leaves nothing behind in the parent.
#[cfg(target_os = "linux")]
#[test]
#[ignore = "600-epoch soak at the benchmark's socket shape; run (release) by the CI multi-process job"]
fn process_transport_soak_stays_flat() {
    let (mut system, query) = small_process_system(1_000, 10_000);
    let children_rss = |system: &ShardedSystem| -> u64 {
        system.children().iter().map(|(_, pid)| rss_kib(*pid)).sum()
    };
    let mut epochs = Vec::with_capacity(600);
    let mut rss_early = 0;
    for k in 0..600 {
        let t0 = std::time::Instant::now();
        system.run_epoch(&query).unwrap();
        epochs.push(t0.elapsed());
        if k == 99 {
            rss_early = children_rss(&system);
        }
    }
    let rss_late = children_rss(&system);
    let first = median(epochs[..100].to_vec());
    let last = median(epochs[500..].to_vec());
    println!(
        "soak: epoch median {first:?} -> {last:?}, children RSS {rss_early} -> {rss_late} KiB"
    );
    assert!(
        last <= first.mul_f64(1.5),
        "epochs slowed down on one system: first 100 median {first:?}, last 100 {last:?}"
    );
    assert!(
        rss_late <= rss_early + rss_early / 4 + (8 << 10),
        "children grew from {rss_early} KiB after 100 epochs to {rss_late} KiB after 600"
    );
    assert_fault_free(&mut system);
}

/// The exhaustive cross-process sweep. Stress-job only.
#[test]
#[ignore = "exhaustive process-transport sweep; run by the CI multi-process job"]
fn process_transport_full_sweep() {
    for seed in [1u64, 3, 42] {
        for &buckets in &[11usize, 10_000] {
            for &proxies in &[2u16, 3] {
                for &shards in &[1usize, 2, 4] {
                    for &depth in &[1usize, 3] {
                        run_case(&Case {
                            seed,
                            population: 120,
                            buckets,
                            proxies,
                            shards,
                            workers: shards,
                            params: ExecutionParams::checked(0.8, 0.7, 0.55),
                            epochs: if depth > 1 { depth + 2 } else { 2 },
                            window: (1_000, 1_000),
                            depth,
                        });
                    }
                }
            }
        }
    }
}
