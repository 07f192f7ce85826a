//! Failure-injection integration tests: the pipeline must degrade
//! gracefully, never corrupt results, and surface health counters.

use privapprox::core::aggregator::Aggregator;
use privapprox::core::client::Client;
use privapprox::core::proxy::{inbound_topic, Proxy};
use privapprox::crypto::xor::XorSplitter;
use privapprox::sql::{ColumnType, Schema, Value};
use privapprox::stream::broker::Broker;
use privapprox::types::ids::AnalystId;
use privapprox::types::{
    AnswerSpec, ClientId, ExecutionParams, ProxyId, Query, QueryBuilder, QueryId, Timestamp,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const KEY: u64 = 0xFA11;

fn test_query() -> Query {
    QueryBuilder::new(QueryId::new(AnalystId(1), 1), "SELECT v FROM t")
        .answer(AnswerSpec::ranges_with_overflow(0.0, 10.0, 10))
        .window(1_000, 1_000)
        .sign_and_build(KEY)
}

fn make_client(i: u64, value: f64) -> Client {
    let mut c = Client::new(ClientId(i), 50 + i, KEY);
    c.db_mut()
        .create_table("t", Schema::new(vec![("v", ColumnType::Float)]));
    c.db_mut().insert("t", vec![Value::Float(value)]).unwrap();
    c
}

struct Rig {
    broker: Broker,
    proxies: Vec<Proxy>,
    aggregator: Aggregator,
    query: Query,
    params: ExecutionParams,
}

fn rig(population: u64) -> Rig {
    let broker = Broker::new(1);
    let query = test_query();
    let proxies = (0..2).map(|i| Proxy::new(ProxyId(i), &broker)).collect();
    let mut aggregator = Aggregator::new(&broker, 2, 0.95);
    let params = ExecutionParams::checked(1.0, 1.0, 0.5);
    aggregator.register_query(&query, params, population);
    Rig {
        broker,
        proxies,
        aggregator,
        query,
        params,
    }
}

fn send_share(rig: &Rig, proxy: u16, share: &privapprox::crypto::Share, ts: u64) {
    let key = privapprox::crypto::xor::wire_key(rig.query.id, share.mid);
    put(rig, &inbound_topic(ProxyId(proxy)), Some(&key), &share.payload, ts);
}

/// Appends one record to `topic` as it is.
fn put(rig: &Rig, topic: &str, key: Option<&[u8]>, value: &[u8], ts: u64) {
    let w = rig.broker.writer(topic);
    (w.try_append_quiet(0, key.map(Arc::from), value, Timestamp(ts))).unwrap();
}

fn pump_all(rig: &mut Rig) {
    for p in &mut rig.proxies {
        p.pump();
    }
    rig.aggregator.pump();
}

/// A dropped share (proxy never receives its half) must not block the
/// rest of the stream: the incomplete join expires and every complete
/// answer still counts.
#[test]
fn dropped_shares_expire_without_blocking() {
    let mut r = rig(10);
    for i in 0..10 {
        let mut client = make_client(i, 5.0);
        let answer = client
            .answer_query(&r.query, &r.params, Timestamp(500), 2)
            .unwrap()
            .unwrap();
        send_share(&r, 0, &answer.shares[0], 500);
        // Client 3's second share is lost in transit.
        if i != 3 {
            send_share(&r, 1, &answer.shares[1], 500);
        }
    }
    pump_all(&mut r);
    // Advance far enough for the join timeout to expire the orphan.
    let results = r.aggregator.advance_watermark(Timestamp(60_000));
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].sample_size, 9, "nine complete answers");
    assert_eq!(results[0].buckets[5].estimate_sample, 9.0);
    assert_eq!(r.aggregator.expired_joins(), 1, "one orphaned join");
}

/// An adversarial client replaying its shares many times is caught by
/// the duplicate defence: the answer counts once. So is an epoch
/// answered twice — a driver that hands a client a wrong (already
/// used) epoch gets that epoch's shares again, MID included, which is
/// a counted loss, never a silent double count.
#[test]
fn replayed_shares_count_once() {
    let mut r = rig(2);
    let mut honest = make_client(0, 5.0);
    let answer = honest
        .answer_query(&r.query, &r.params, Timestamp(100), 2)
        .unwrap()
        .unwrap();
    // Send the same pair five times.
    for _ in 0..5 {
        send_share(&r, 0, &answer.shares[0], 100);
        send_share(&r, 1, &answer.shares[1], 100);
    }
    pump_all(&mut r);
    let replayed = r.aggregator.duplicates();
    assert!(replayed > 0);
    let again = honest
        .answer_query(&r.query, &r.params, Timestamp(100), 2)
        .unwrap()
        .unwrap();
    send_share(&r, 0, &again.shares[0], 100);
    send_share(&r, 1, &again.shares[1], 100);
    pump_all(&mut r);
    assert_eq!(r.aggregator.duplicates(), replayed + 2, "one per share");
    let results = r.aggregator.advance_watermark(Timestamp(60_000));
    assert_eq!(results[0].sample_size, 1, "replays deduplicated");
}

/// Garbage records (random bytes, wrong key sizes) are counted and
/// skipped; the valid stream is unaffected.
#[test]
fn garbage_records_are_quarantined() {
    let mut r = rig(2);
    // No key at all.
    put(&r, "proxy-0-out", None, &[1, 2, 3], 0);
    // Key of the wrong width.
    put(&r, "proxy-0-out", Some(&[9; 5]), &[1], 0);
    // A valid client answer alongside.
    let mut client = make_client(0, 5.0);
    let answer = client
        .answer_query(&r.query, &r.params, Timestamp(100), 2)
        .unwrap()
        .unwrap();
    send_share(&r, 0, &answer.shares[0], 100);
    send_share(&r, 1, &answer.shares[1], 100);
    pump_all(&mut r);
    let results = r.aggregator.advance_watermark(Timestamp(60_000));
    assert_eq!(results[0].sample_size, 1);
    assert_eq!(r.aggregator.undecodable(), 2);
}

/// Shares whose payloads were tampered in transit decode to garbage;
/// the decode layer rejects them (padding/length checks) rather than
/// producing phantom answers.
#[test]
fn tampered_payloads_do_not_become_answers() {
    let mut r = rig(4);
    let mut rng = StdRng::seed_from_u64(8);
    let splitter = XorSplitter::new(2);
    for _ in 0..20 {
        // Random 13-byte garbage "shares" under matching MIDs.
        let garbage: Vec<u8> = (0..13).map(|_| rand::Rng::gen(&mut rng)).collect();
        let shares = splitter.split(&garbage, &mut rng);
        send_share(&r, 0, &shares[0], 100);
        send_share(&r, 1, &shares[1], 100);
    }
    pump_all(&mut r);
    let results = r.aggregator.advance_watermark(Timestamp(60_000));
    // Either no window (nothing decoded) or zero-sample window.
    let decoded: u64 = results.iter().map(|w| w.sample_size).sum();
    assert_eq!(decoded, 0, "garbage must not decode into answers");
    assert_eq!(r.aggregator.undecodable(), 20);
}

/// A stalled proxy (its queue backs up, pumps later) delays but never
/// loses answers: once it recovers, the joins complete.
#[test]
fn stalled_proxy_recovers_without_loss() {
    let mut r = rig(10);
    for i in 0..10 {
        let mut client = make_client(i, 5.0);
        let answer = client
            .answer_query(&r.query, &r.params, Timestamp(500), 2)
            .unwrap()
            .unwrap();
        send_share(&r, 0, &answer.shares[0], 500);
        send_share(&r, 1, &answer.shares[1], 500);
    }
    // Only proxy 0 pumps at first.
    r.proxies[0].pump();
    r.aggregator.pump();
    // Nothing joins yet — watermark stays put, no results forced.
    assert_eq!(r.aggregator.advance_watermark(Timestamp(900)).len(), 0);
    // Proxy 1 recovers.
    r.proxies[1].pump();
    r.aggregator.pump();
    let results = r.aggregator.advance_watermark(Timestamp(60_000));
    assert_eq!(results[0].sample_size, 10, "all answers survived the stall");
}

/// Tampered queries (bad signature) are refused by every client, so
/// a forged query observes nothing at all.
#[test]
fn forged_query_harvests_nothing() {
    let mut tampered = test_query();
    tampered.sql = "SELECT v FROM t WHERE v > 0".into();
    let params = ExecutionParams::checked(1.0, 1.0, 0.5);
    for i in 0..5 {
        let mut client = make_client(i, 5.0);
        let result = client.answer_query(&tampered, &params, Timestamp(0), 2);
        assert!(result.is_err(), "client {i} must reject the forgery");
    }
}

// ---------------------------------------------------------------------------
// Supervised sharded runtime: thread deaths surface as typed errors,
// dead threads respawn, and deadline-fired partial closes degrade to
// sampling instead of biasing the estimate.

use privapprox::core::deploy::ShardedSystem;
use privapprox::core::{CoreError, DeployError, FaultInjector};
use rand::Rng;
use std::time::{Duration, Instant};

fn bucket_spec() -> AnswerSpec {
    AnswerSpec::ranges_with_overflow(0.0, 10.0, 10)
}

fn submit_query(system: &mut ShardedSystem) -> Query {
    system
        .analyst()
        .query("SELECT v FROM t")
        .buckets(bucket_spec())
        .window(1_000, 1_000)
        .params(ExecutionParams::checked(1.0, 1.0, 0.5))
        .submit()
        .unwrap()
}

/// A worker thread panicking mid-epoch surfaces as a typed
/// `DeployError` from the epoch API (not a hang or a panic on the
/// main thread); the supervisor respawns the worker — re-sending the
/// loads, not the dead worker's in-flight epoch — and the next epoch
/// is whole again.
#[test]
fn worker_panic_mid_epoch_surfaces_and_respawns() {
    let mut system = ShardedSystem::builder()
        .clients(40)
        .proxies(2)
        .shards(2)
        .workers(2)
        .seed(7)
        .epoch_deadline(Duration::from_millis(400))
        .fault_injector(FaultInjector::default().worker_panic_after(0, 5))
        .build();
    system.load_numeric_column("t", "v", |_| 2.5).unwrap();
    let query = submit_query(&mut system);
    let err = system.run_epoch(&query).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Deploy(DeployError::WorkerPanic { worker: 0, .. })
        ),
        "expected a typed worker fault, got {err}"
    );
    // The failure epoch still closed — partially — with the answers
    // the dead worker sent before the panic plus the healthy
    // worker's full slice.
    let partial = system.drain_results();
    assert_eq!(partial.len(), 1);
    assert!(partial[0].sample_size < 40, "worker 0's tail is missing");
    assert!(partial[0].sample_size >= 5, "pre-crash answers survived");
    let health = system.deploy_health();
    assert_eq!(health.worker_panics, 1);
    assert!(health.respawns >= 1);
    // The respawned worker got the loads again: the next epoch is
    // exact.
    let result = system.run_epoch(&query).unwrap();
    assert_eq!(result.sample_size, 40);
    assert_eq!(result.buckets[2].estimate, 40.0);
}

/// A shard thread panicking mid-epoch surfaces as a typed
/// `DeployError` from the epoch API within the deadline (no hang);
/// the decodes that died in its open windows are honestly accounted
/// as a partial close, and the respawned shard serves the next epoch
/// exactly.
#[test]
fn shard_panic_mid_epoch_surfaces_within_deadline() {
    let mut system = ShardedSystem::builder()
        .clients(40)
        .proxies(2)
        .shards(2)
        .workers(2)
        .seed(11)
        .epoch_deadline(Duration::from_millis(400))
        .fault_injector(FaultInjector::default().shard_panic_after(0, 5))
        .build();
    system.load_numeric_column("t", "v", |_| 2.5).unwrap();
    let query = submit_query(&mut system);
    let started = Instant::now();
    let err = system.run_epoch(&query).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Deploy(DeployError::ShardPanic { shard: 0, .. })
        ),
        "expected a typed shard fault, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "fault must surface within the deadline budget, took {:?}",
        started.elapsed()
    );
    let health = system.deploy_health();
    assert_eq!(health.shard_panics, 1);
    assert!(health.respawns >= 1);
    assert_eq!(
        health.partial_closes, 1,
        "the decodes in the dead shard's windows are a partial close"
    );
    assert!(health.lost_answers >= 1);
    let result = system.run_epoch(&query).unwrap();
    assert_eq!(result.sample_size, 40, "respawned shard serves exactly");
    assert_eq!(result.buckets[2].estimate, 40.0);
}

/// Respawn under load: a shard is killed while overlapped epochs are
/// genuinely in flight (pipeline depth 2, both slots full), the
/// stream keeps going, and afterwards the supervision books are
/// consistent with what happened — exactly one shard panic, at least
/// one respawn, every heartbeat (including the respawned shard's,
/// re-registered under the same name) beating again, any loss
/// accounted under a partial close, and the next epoch exact.
#[test]
fn shard_respawn_under_load_keeps_heartbeats_and_books_consistent() {
    let mut system = ShardedSystem::builder()
        .clients(40)
        .proxies(2)
        .shards(2)
        .workers(2)
        .pipeline_depth(2)
        .seed(17)
        .epoch_deadline(Duration::from_millis(400))
        .build();
    system.load_numeric_column("t", "v", |_| 2.5).unwrap();
    let query = submit_query(&mut system);

    // Fill the pipeline, then kill shard 1 with both slots in flight.
    system.submit_epoch(&query).unwrap();
    system.submit_epoch(&query).unwrap();
    system.inject_shard_panic(1);

    // Keep the load coming while the supervisor repairs: the fault
    // must surface as a typed error from the epoch API, nothing may
    // hang, and no submission may be silently swallowed.
    let mut shard_faults = 0;
    for _ in 0..4 {
        match system.submit_epoch(&query) {
            Ok(()) => {}
            Err(CoreError::Deploy(DeployError::ShardPanic { shard, .. })) => {
                assert_eq!(shard, 1, "the injected shard is the one that died");
                shard_faults += 1;
            }
            Err(e) => panic!("unexpected fault under shard respawn: {e}"),
        }
    }
    match system.flush_epochs() {
        Ok(()) => {}
        Err(CoreError::Deploy(DeployError::ShardPanic { shard, .. })) => {
            assert_eq!(shard, 1);
            shard_faults += 1;
        }
        Err(e) => panic!("unexpected fault on flush: {e}"),
    }
    assert_eq!(shard_faults, 1, "one injection, one typed fault");

    // The books balance: one panic, a respawn, loss (if any) rides a
    // partial close.
    let health = system.deploy_health();
    assert_eq!(health.shard_panics, 1);
    assert!(health.respawns >= 1);
    if health.lost_answers > 0 {
        assert!(
            health.partial_closes > 0,
            "lost answers must ride a partial close, health: {health:?}"
        );
    }

    // Every emitted window stayed unbiased through the churn.
    for r in system.drain_results() {
        assert!(r.sample_size <= 40);
        if r.sample_size > 0 {
            assert_eq!(r.buckets[2].estimate, 40.0, "U/n scaling holds");
        }
    }

    // The respawned shard re-registered its heartbeat under the same
    // name: the full roster is present and beating.
    let statuses = system.thread_health(Duration::from_secs(5));
    assert_eq!(statuses.len(), 6, "2 workers + 2 proxies + 2 shards");
    for (name, status) in &statuses {
        assert!(status.is_alive(), "{name} must beat after the repair");
    }

    // And the repaired deployment serves exactly again.
    let result = system.run_epoch(&query).unwrap();
    assert_eq!(result.sample_size, 40);
    assert_eq!(result.buckets[2].estimate, 40.0);
}

/// The degrade-to-sampling guarantee, deterministically: an epoch
/// that loses a fixed half of its answers (every share bound for
/// shard 0's partitions is dropped in transit) closes on its
/// deadline, and the partial estimate equals the full-population
/// estimate — scaled by `U/n`, it is unbiased — while the confidence
/// interval widens from zero to a real sampling error.
#[test]
fn partial_close_estimate_scales_like_sampling() {
    let value = |i: usize| if i % 4 < 2 { 1.5 } else { 2.5 };

    let mut full = ShardedSystem::builder()
        .clients(60)
        .proxies(2)
        .shards(2)
        .workers(2)
        .seed(21)
        .build();
    full.load_numeric_column("t", "v", value).unwrap();
    let query = submit_query(&mut full);
    let full_result = full.run_epoch(&query).unwrap();
    assert_eq!(full_result.sample_size, 60);

    let mut lossy = ShardedSystem::builder()
        .clients(60)
        .proxies(2)
        .shards(2)
        .workers(2)
        .seed(21)
        .epoch_deadline(Duration::from_millis(300))
        .fault_injector(FaultInjector::default().drop_shard_traffic(0))
        .build();
    lossy.load_numeric_column("t", "v", value).unwrap();
    let query = submit_query(&mut lossy);
    // No thread died: the loss is pure degradation, not an error.
    let partial = lossy.run_epoch(&query).unwrap();
    assert_eq!(
        partial.sample_size, 30,
        "exactly the non-dropped half observed"
    );

    // Unbiasedness: every bucket's population estimate matches the
    // full run exactly (counts halve, the U/n scale doubles).
    for (b, (pb, fb)) in partial.buckets.iter().zip(&full_result.buckets).enumerate() {
        assert_eq!(
            pb.estimate, fb.estimate,
            "bucket {b}: partial estimate must equal the full-population estimate"
        );
    }
    // Degraded precision: the full run samples the whole population
    // (zero sampling error); the partial close reports a real one.
    assert_eq!(full_result.buckets[1].sampling_error, 0.0);
    assert!(
        partial.buckets[1].sampling_error > 0.0,
        "partial close must widen the confidence interval"
    );
    let health = lossy.deploy_health();
    assert_eq!(health.partial_closes, 1);
    assert_eq!(health.lost_answers, 30);
}

/// Chaos: random worker/shard kills over 50 epochs. Every window the
/// runtime produces must still be unbiased (the estimate scales by
/// the observed sample, so any sample size reproduces the exact
/// population histogram), nothing hangs, and shutdown stays clean.
#[test]
#[ignore = "chaos sweep (~1 min); run with --include-ignored"]
fn chaos_random_kills_over_fifty_epochs() {
    let mut rng = StdRng::seed_from_u64(0xC4A05);
    let mut system = ShardedSystem::builder()
        .clients(60)
        .proxies(2)
        .shards(2)
        .workers(3)
        .pipeline_depth(2)
        .seed(13)
        .epoch_deadline(Duration::from_millis(500))
        .build();
    system.load_numeric_column("t", "v", |_| 2.5).unwrap();
    let query = submit_query(&mut system);
    for _ in 0..50 {
        match rng.gen_range(0..10u32) {
            0 => {
                let w = rng.gen_range(0..3);
                system.inject_worker_panic(w);
            }
            1 => {
                let s = rng.gen_range(0..2);
                system.inject_shard_panic(s);
            }
            _ => {}
        }
        // Faults are expected and typed; corruption is not.
        let _ = system.submit_epoch(&query);
    }
    let _ = system.flush_epochs();
    let results = system.drain_results();
    assert!(!results.is_empty());
    for r in &results {
        assert!(r.sample_size <= 60, "never more answers than clients");
        if r.sample_size > 0 {
            // U/n scaling: any observed sample estimates the same
            // exact histogram — all 60 clients in bucket 2.
            assert_eq!(
                r.buckets[2].estimate, 60.0,
                "estimate stays unbiased at sample {}",
                r.sample_size
            );
        }
    }
    let health = system.deploy_health();
    assert!(health.respawns > 0, "chaos must have killed something");
    assert_eq!(health.undecodable, 0, "kills must not corrupt payloads");
    assert_eq!(health.dead_lettered, 0);
    drop(system);
}

/// A consumer group that stops draining a bounded inbound topic must
/// surface as a typed `Backpressure` fault from the epoch API — not a
/// wedged worker thread, not a partially published share set. The
/// worker's batched flush parks on the full partition, gives up at
/// the epoch-deadline-derived broker deadline, and the stall is
/// counted in `DeployHealth::backpressure_stalls`; un-wedging the
/// topic restores exact epochs.
#[test]
fn worker_flush_backpressure_surfaces_and_counts() {
    let mut system = ShardedSystem::builder()
        .clients(48)
        .proxies(2)
        .shards(1)
        .workers(1)
        .seed(13)
        .partition_capacity(8)
        .epoch_deadline(Duration::from_millis(300))
        .build();
    system.load_numeric_column("t", "v", |_| 2.5).unwrap();
    let query = submit_query(&mut system);
    // A never-polling group pins proxy 0's committed floor at zero:
    // the worker's first flush run (8 records, == capacity) fits, the
    // second can never fit until someone drains.
    let wedge = system
        .broker()
        .consumer("wedge", &[&inbound_topic(ProxyId(0))]);
    let started = Instant::now();
    let err = system.run_epoch(&query).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Deploy(DeployError::Backpressure { .. })
        ),
        "expected a typed backpressure fault, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the parked flush must give up at the deadline, took {:?}",
        started.elapsed()
    );
    // The epoch still closed — partially — with the runs flushed
    // before the wedge bit; nothing beyond them was published to
    // either proxy (all-or-nothing per batch), so every counted
    // answer is a complete share pair.
    let partial = system.drain_results();
    assert_eq!(partial.len(), 1);
    assert!(
        partial[0].sample_size < 48,
        "the wedged partition's tail is missing"
    );
    if partial[0].sample_size > 0 {
        assert_eq!(
            partial[0].buckets[2].estimate, 48.0,
            "partial close scales like sampling"
        );
    }
    let health = system.deploy_health();
    assert!(
        health.backpressure_stalls >= 1,
        "the worker's abandoned flush must be counted, health: {health:?}"
    );
    // Withdraw the wedge: the departed group releases its floor, and
    // the next epoch is exact again.
    drop(wedge);
    let result = system.run_epoch(&query).unwrap();
    assert_eq!(result.sample_size, 48, "un-wedged epoch is whole");
    assert_eq!(result.buckets[2].estimate, 48.0);
}
