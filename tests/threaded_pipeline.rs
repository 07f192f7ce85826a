//! Concurrency integration test: the pipeline running as real threads
//! over the broker — clients, two proxy threads and an aggregator
//! thread, like the deployed topology (and unlike the deterministic
//! epoch harness used elsewhere).
//!
//! Synchronization is event-count based throughout: each proxy and the
//! aggregator loop on a token from their `wake()`, a `pump()`, and a
//! park on the token when the pump moved nothing — the loop the
//! deployment's relay threads run. They wake as soon as data lands and
//! stay robust under load because nothing depends on a sleep being
//! "long enough".

use privapprox::core::aggregator::Aggregator;
use privapprox::core::client::Client;
use privapprox::core::proxy::{inbound_topic, Proxy};
use privapprox::sql::{ColumnType, Schema, Value};
use privapprox::stream::broker::{Broker, TopicWriter};
use privapprox::types::ids::AnalystId;
use privapprox::types::{
    AnswerSpec, ClientId, ExecutionParams, ProxyId, QueryBuilder, QueryId, Timestamp,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const KEY: u64 = 0x7EA;

#[test]
fn threaded_proxies_and_aggregator_deliver_all_answers() {
    let population = 400u64;
    let broker = Broker::new(4);
    let query = QueryBuilder::new(QueryId::new(AnalystId(1), 1), "SELECT v FROM t")
        .answer(AnswerSpec::ranges_with_overflow(0.0, 10.0, 10))
        .window(1_000, 1_000)
        .sign_and_build(KEY);
    let params = ExecutionParams::checked(1.0, 1.0, 0.5);

    let stop = Arc::new(AtomicBool::new(false));

    // Two proxy threads, parked on their event counts between
    // batches, forwarding until told to stop (the stop flag rings
    // nobody, so a park is also bounded by a 50 ms tick).
    let mut proxy_handles = Vec::new();
    for i in 0..2u16 {
        let broker = broker.clone();
        let stop = Arc::clone(&stop);
        proxy_handles.push(std::thread::spawn(move || {
            let mut proxy = Proxy::new(ProxyId(i), &broker);
            let mut forwarded = 0u64;
            loop {
                let token = proxy.wake().token();
                let stopping = stop.load(Ordering::Relaxed);
                let moved = proxy.pump();
                forwarded += moved;
                if stopping {
                    break forwarded; // that pump was the final drain
                }
                if moved == 0 {
                    proxy.wake().park(token, Duration::from_millis(50));
                }
            }
        }));
    }

    // Aggregator thread: pumps and parks until it has decoded every
    // answer (the deadline is a liveness backstop, not a pacing
    // device — under correct operation the loop exits as soon as the
    // last share lands).
    let agg_handle = {
        let broker = broker.clone();
        let query = query.clone();
        std::thread::spawn(move || {
            let mut agg = Aggregator::new(&broker, 2, 0.95);
            agg.register_query(&query, params, population);
            let mut decoded = 0u64;
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while decoded < population && std::time::Instant::now() < deadline {
                let token = agg.wake().token();
                let n = agg.pump();
                decoded += n;
                if n == 0 {
                    agg.wake().park(token, Duration::from_millis(50));
                }
            }
            (decoded, agg.advance_watermark(Timestamp(10_000)))
        })
    };

    // Main thread: clients answer concurrently with the pipeline.
    let writers: Vec<TopicWriter> = (0..2)
        .map(|i| broker.writer(&inbound_topic(ProxyId(i))))
        .collect();
    for i in 0..population {
        let mut client = Client::new(ClientId(i), 900 + i, KEY);
        client
            .db_mut()
            .create_table("t", Schema::new(vec![("v", ColumnType::Float)]));
        client
            .db_mut()
            .insert("t", vec![Value::Float((i % 10) as f64 + 0.5)])
            .unwrap();
        let answer = client
            .answer_query(&query, &params, Timestamp(500), 2)
            .unwrap()
            .expect("s = 1 participates");
        let partition = (i % 4) as usize;
        for (writer, share) in writers.iter().zip(&answer.shares) {
            let key = privapprox::crypto::xor::wire_key(query.id, share.mid);
            let key = Some(Arc::from(&key[..]));
            (writer.try_append_quiet(partition, key, &share.payload[..], Timestamp(500))).unwrap();
            writer.notify();
        }
    }

    let (decoded, results) = agg_handle.join().expect("aggregator thread");
    stop.store(true, Ordering::Relaxed);
    let forwarded: u64 = proxy_handles
        .into_iter()
        .map(|h| h.join().expect("proxy thread"))
        .sum();

    assert_eq!(decoded, population, "every answer decoded");
    assert_eq!(forwarded, population * 2, "every share forwarded once");
    assert_eq!(results.len(), 1);
    let result = &results[0];
    assert_eq!(result.sample_size, population);
    // 400 clients over 10 value classes → 40 per bucket, exact.
    for b in 0..10 {
        assert_eq!(result.buckets[b].estimate, 40.0, "bucket {b}");
    }
}

/// The full threaded sharded runtime driven through the facade:
/// repeated epochs across 4 shards and 4 workers keep producing exact
/// results with clean health counters — the "does the concurrent
/// subsystem stay correct over time" smoke that the CI stress job
/// repeats in release mode.
#[test]
fn threaded_sharded_system_survives_repeated_epochs() {
    use privapprox::core::ShardedSystem;

    let mut system = ShardedSystem::builder()
        .clients(300)
        .proxies(2)
        .shards(4)
        .workers(4)
        .seed(0x5AD)
        .build();
    system.load_numeric_column("t", "v", |i| (i % 10) as f64 + 0.5).unwrap();
    let query = system
        .analyst()
        .query("SELECT v FROM t")
        .buckets(AnswerSpec::ranges_with_overflow(0.0, 10.0, 10))
        .window(1_000, 1_000)
        .params(ExecutionParams::checked(1.0, 1.0, 0.5))
        .submit()
        .unwrap();
    for epoch in 0..10 {
        let result = system.run_epoch(&query).unwrap();
        assert_eq!(result.sample_size, 300, "epoch {epoch}");
        for b in 0..10 {
            assert_eq!(result.buckets[b].estimate, 30.0, "epoch {epoch} bucket {b}");
        }
    }
    assert_eq!(system.aggregator_health(), (0, 0, 0, 0));
}

/// The overlapped runtime under sustained pipelined load: 10 epochs
/// submitted through a depth-3 pipeline over bounded partitions, all
/// exact, all in order, with clean health counters — the overlapped
/// counterpart of the epoch-at-a-time smoke above (both run 10× in
/// release by the CI stress job).
#[test]
fn threaded_sharded_pipelined_epochs_stay_exact_under_load() {
    use privapprox::core::ShardedSystem;

    let mut system = ShardedSystem::builder()
        .clients(300)
        .proxies(2)
        .shards(4)
        .workers(4)
        .pipeline_depth(3)
        .partition_capacity(128)
        .seed(0xF10)
        .build();
    system.load_numeric_column("t", "v", |i| (i % 10) as f64 + 0.5).unwrap();
    let query = system
        .analyst()
        .query("SELECT v FROM t")
        .buckets(AnswerSpec::ranges_with_overflow(0.0, 10.0, 10))
        .window(1_000, 1_000)
        .params(ExecutionParams::checked(1.0, 1.0, 0.5))
        .submit()
        .unwrap();
    for _ in 0..10 {
        system.submit_epoch(&query).unwrap();
    }
    system.flush_epochs().unwrap();
    let results = system.drain_results();
    assert_eq!(results.len(), 10);
    for (epoch, result) in results.iter().enumerate() {
        assert_eq!(result.sample_size, 300, "epoch {epoch}");
        for b in 0..10 {
            assert_eq!(result.buckets[b].estimate, 30.0, "epoch {epoch} bucket {b}");
        }
        if epoch > 0 {
            assert!(result.window.start > results[epoch - 1].window.start);
        }
    }
    assert_eq!(system.aggregator_health(), (0, 0, 0, 0));
    // Every share of every epoch was really relayed by the free-running
    // proxy threads (2 proxies × 300 clients × 11 epochs incl. warm
    // submit... none here — exactly 10 epochs).
    assert_eq!(system.forwarded_shares(), 2 * 300 * 10);
}

/// Control-plane traffic around an active overlapped pipeline: a
/// data reload and a second query registration both land between
/// in-flight epochs (they flush the pipeline first), so the
/// epoch-tagged control messages of the aborted overlap drain instead
/// of interleaving with loads/registrations — yesterday's cleanup
/// assumed quiescent topics between epochs.
#[test]
fn threaded_sharded_control_plane_flushes_in_flight_epochs() {
    use privapprox::core::ShardedSystem;

    let mut system = ShardedSystem::builder()
        .clients(80)
        .proxies(2)
        .shards(2)
        .workers(2)
        .pipeline_depth(3)
        .seed(0xCAB)
        .build();
    system.load_numeric_column("t", "v", |_| 2.5).unwrap();
    let query = system
        .analyst()
        .query("SELECT v FROM t")
        .buckets(AnswerSpec::ranges_with_overflow(0.0, 10.0, 10))
        .window(1_000, 1_000)
        .params(ExecutionParams::checked(1.0, 1.0, 0.5))
        .submit()
        .unwrap();
    // Two epochs left hanging in the pipeline...
    system.submit_epoch(&query).unwrap();
    system.submit_epoch(&query).unwrap();
    // ...then a reload: must flush both epochs first (their results
    // land in the drain buffer), then load.
    system.load_numeric_column("t", "v", |_| 7.5).unwrap();
    let drained = system.drain_results();
    assert_eq!(drained.len(), 2, "in-flight epochs completed by the load");
    for r in &drained {
        assert_eq!(r.sample_size, 80);
        assert_eq!(r.buckets[2].estimate, 80.0, "old data (2.5 → bucket 2)");
    }
    // A new query registration mid-pipeline flushes too.
    system.submit_epoch(&query).unwrap();
    let second = system
        .analyst()
        .query("SELECT v FROM t")
        .buckets(AnswerSpec::ranges_with_overflow(0.0, 10.0, 10))
        .window(1_000, 1_000)
        .params(ExecutionParams::checked(1.0, 1.0, 0.5))
        .submit()
        .unwrap();
    let drained = system.drain_results();
    assert_eq!(drained.len(), 1, "in-flight epoch completed by register");
    assert_eq!(drained[0].buckets[7].estimate, 80.0, "new data (7.5 → bucket 7)");
    // Both queries keep answering cleanly afterwards.
    let r1 = system.run_epoch(&query).unwrap();
    let r2 = system.run_epoch(&second).unwrap();
    assert_eq!(r1.buckets[7].estimate, 80.0);
    assert_eq!(r2.buckets[7].estimate, 80.0);
    assert_eq!(system.aggregator_health(), (0, 0, 0, 0));
}

#[test]
fn blocking_consumers_wake_across_threads() {
    // A slow producer feeding a blocked consumer through the broker —
    // the wakeup path the threaded topology relies on.
    let broker = Broker::new(1);
    let consumer = broker.consumer("g", &["wake"]);
    let writer = broker.writer("wake");
    let t = std::thread::spawn(move || {
        for i in 0..5u8 {
            std::thread::sleep(Duration::from_millis(5));
            (writer.try_append_quiet(0, None, vec![i], Timestamp(i as u64))).unwrap();
            writer.notify();
        }
    });
    let mut got = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while got.len() < 5 && std::time::Instant::now() < deadline {
        consumer.poll_blocking_into(10, Duration::from_secs(1), &mut got);
    }
    t.join().unwrap();
    assert_eq!(got.len(), 5);
}
