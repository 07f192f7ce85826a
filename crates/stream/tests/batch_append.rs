//! Property suite for the zero-copy batch append path: a batched
//! producer is **observably identical** to a per-record one — same
//! record sequence, offsets, timestamps and consumer-group handoff —
//! across arbitrary batch shapes × partition counts × bounded
//! capacities, and a mid-batch failure publishes nothing (so a retry
//! cannot double-publish and an abandonment cannot half-publish).

use privapprox_stream::broker::{BatchEntry, Broker, BrokerError};
use privapprox_types::Timestamp;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// What a consumer observes of one record, in delivery order.
type Observed = (u32, u64, Option<Vec<u8>>, Vec<u8>, u64);

/// Drains everything a consumer can see, as comparable tuples.
fn drain(consumer: &privapprox_stream::Consumer) -> Vec<Observed> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if consumer.poll_into(64, &mut buf) == 0 {
            break;
        }
        for (_, partition, rec) in &buf {
            out.push((
                *partition,
                rec.offset,
                rec.key.as_ref().map(|k| k.to_vec()),
                rec.value.to_vec(),
                rec.timestamp.0,
            ));
        }
    }
    out
}

fn entry(key: u8, value: &[u8], ts: u64) -> BatchEntry {
    (Some(Arc::from(&[key][..])), Arc::from(value), Timestamp(ts))
}

proptest! {
    /// The core equivalence: the same records, grouped into arbitrary
    /// per-partition runs and published with `try_append_batch`, are
    /// indistinguishable to a consumer from the same records appended
    /// one `try_append_quiet` at a time — identical partitions,
    /// offsets, keys, payloads and timestamps, on bounded and
    /// unbounded topics alike.
    #[test]
    fn batched_equals_per_record(
        // (partition selector, payload, run length) per step.
        steps in proptest::collection::vec(
            (0usize..8, proptest::collection::vec(any::<u8>(), 0..12), 1usize..8),
            1..24,
        ),
        partitions in 1usize..5,
        bounded in any::<bool>(),
    ) {
        // Capacity covers the widest generated run (8), so an append
        // never parks: draining happens between steps.
        let capacity = if bounded { 8 } else { 0 };
        let batched = Broker::new(partitions);
        batched.create_topic_with_capacity("t", partitions, capacity);
        let single = Broker::new(partitions);
        single.create_topic_with_capacity("t", partitions, capacity);
        let bw = batched.writer("t");
        let sw = single.writer("t");
        let bc = batched.consumer("g", &["t"]);
        let sc = single.consumer("g", &["t"]);

        let mut got_batched = Vec::new();
        let mut got_single = Vec::new();
        let mut ts = 0u64;
        for (psel, payload, run) in &steps {
            let partition = psel % partitions;
            let mut batch: Vec<BatchEntry> = Vec::new();
            for k in 0..*run {
                let e = entry(k as u8, payload, ts);
                prop_assert!(sw
                    .try_append_quiet(partition, e.0.clone(), Arc::clone(&e.1), e.2)
                    .is_ok());
                batch.push(e);
                ts += 1;
            }
            let before = batch.len();
            let first = bw.try_append_batch(partition, &mut batch);
            prop_assert!(first.is_ok(), "no backpressure with drain-per-step");
            prop_assert_eq!(batch.len(), 0, "success drains the caller's buffer");
            prop_assert!(batch.capacity() >= before, "buffer is reusable, not stolen");
            got_batched.extend(drain(&bc));
            got_single.extend(drain(&sc));
        }
        prop_assert_eq!(got_batched, got_single);
    }

    /// Offsets a batch assigns are the per-record ones: the returned
    /// offset is the first of a consecutive run, continuing exactly
    /// where the partition left off — interleaving batches and single
    /// appends on one partition yields one gapless sequence.
    #[test]
    fn batch_offsets_are_consecutive_and_gapless(
        runs in proptest::collection::vec((1usize..6, any::<bool>()), 1..16),
    ) {
        let broker = Broker::new(1);
        broker.create_topic("t", 1);
        let w = broker.writer("t");
        let mut expected_next = 0u64;
        for (run, use_batch) in &runs {
            if *use_batch {
                let mut batch: Vec<BatchEntry> =
                    (0..*run).map(|k| entry(k as u8, b"v", 0)).collect();
                let first = w.try_append_batch(0, &mut batch).unwrap();
                prop_assert_eq!(first, expected_next);
                expected_next += *run as u64;
            } else {
                for k in 0..*run {
                    let off = w
                        .try_append_quiet(0, None, &[k as u8][..], Timestamp(0))
                        .unwrap();
                    prop_assert_eq!(off, expected_next);
                    expected_next += 1;
                }
            }
        }
        let consumer = broker.consumer("g", &["t"]);
        let got = drain(&consumer);
        prop_assert_eq!(got.len() as u64, expected_next);
        for (i, (_, offset, ..)) in got.iter().enumerate() {
            prop_assert_eq!(*offset, i as u64, "gapless consecutive offsets");
        }
    }

    /// Consumer-group handoff over batched appends: a member leaving
    /// mid-drain hands its partitions to the survivor at the committed
    /// offset — every batched record is delivered exactly once, just
    /// as with per-record appends.
    #[test]
    fn group_handoff_is_exactly_once_over_batches(
        runs in proptest::collection::vec(1usize..6, 1..10),
        partitions in 2usize..5,
        predrain in 0usize..8,
    ) {
        let broker = Broker::new(partitions);
        broker.create_topic("t", partitions);
        let w = broker.writer("t");
        let mut total = 0u64;
        for (i, run) in runs.iter().enumerate() {
            let mut batch: Vec<BatchEntry> = (0..*run)
                .map(|k| entry(k as u8, &[total as u8], i as u64))
                .collect();
            total += *run as u64;
            w.try_append_batch(i % partitions, &mut batch).unwrap();
        }
        let c1 = broker.consumer("g", &["t"]);
        let c2 = broker.consumer("g", &["t"]);
        let mut buf = Vec::new();
        let mut delivered = 0u64;
        c1.poll_into(predrain, &mut buf);
        c2.poll_into(predrain, &mut buf);
        delivered += buf.len() as u64;
        drop(c2); // handoff: c1 inherits mid-stream
        delivered += drain(&c1).len() as u64;
        prop_assert_eq!(delivered, total, "exactly once across the rebalance");
    }
}

/// A batch that cannot fit in the remaining bounded capacity fails
/// all-or-nothing at the deadline: **nothing** is published, the
/// caller's records survive for an exactly-once retry, and the retry
/// after a drain publishes them exactly once.
#[test]
fn mid_batch_backpressure_publishes_nothing_and_retries_exactly_once() {
    let broker = Broker::new(1);
    broker.create_topic_with_capacity("t", 1, 4);
    broker.set_backpressure_deadline(Duration::from_millis(30));
    let consumer = broker.consumer("g", &["t"]);
    let w = broker.writer("t");
    // Two records in: room for 2 more, but the batch needs 3.
    let mut head: Vec<BatchEntry> = (0..2).map(|k| entry(k, b"head", 0)).collect();
    w.try_append_batch(0, &mut head).unwrap();
    let mut batch: Vec<BatchEntry> = (10..13).map(|k| entry(k, b"tail", 1)).collect();
    let err = w.try_append_batch(0, &mut batch).unwrap_err();
    assert!(matches!(err, BrokerError::Backpressure { .. }));
    assert_eq!(batch.len(), 3, "failed batch left intact for retry");
    assert_eq!(broker.topic_len("t"), 2, "no partial publish");
    // Drain, then retry the SAME batch: exactly once, in order.
    assert_eq!(consumer.poll(10).len(), 2);
    w.try_append_batch(0, &mut batch).unwrap();
    assert!(batch.is_empty());
    let got = drain(&consumer);
    let keys: Vec<u8> = got
        .iter()
        .map(|(_, _, k, _, _)| k.as_ref().unwrap()[0])
        .collect();
    assert_eq!(
        keys,
        vec![10, 11, 12],
        "retried batch published exactly once"
    );
}

/// A batch wider than the whole partition capacity can never fit; it
/// fails fast instead of parking to the deadline.
#[test]
fn oversized_batch_fails_fast() {
    let broker = Broker::new(1);
    broker.create_topic_with_capacity("t", 1, 2);
    // Deadline deliberately long: only fail-fast can return quickly.
    broker.set_backpressure_deadline(Duration::from_secs(30));
    let _consumer = broker.consumer("g", &["t"]);
    let w = broker.writer("t");
    assert_eq!(w.capacity(), 2, "chunking callers read the bound here");
    let mut batch: Vec<BatchEntry> = (0..3).map(|k| entry(k, b"v", 0)).collect();
    let started = std::time::Instant::now();
    let err = w.try_append_batch(0, &mut batch).unwrap_err();
    assert!(matches!(err, BrokerError::Backpressure { .. }));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "oversized batch must not park to the deadline"
    );
    assert_eq!(batch.len(), 3, "records intact");
    assert_eq!(broker.topic_len("t"), 0, "nothing published");
}

/// An empty batch is a no-op: no offsets consumed, no stats bumped.
#[test]
fn empty_batch_is_a_no_op() {
    let broker = Broker::new(1);
    let w = broker.writer("t");
    let mut batch: Vec<BatchEntry> = Vec::new();
    assert_eq!(w.try_append_batch(0, &mut batch), Ok(0));
    assert_eq!(broker.stats().records_in, 0);
    assert_eq!(broker.topic_len("t"), 0);
}

/// Batch appends share payload buffers by refcount, exactly like
/// per-record appends: the broker retains the producer's allocation,
/// no copy.
#[test]
fn batch_appends_are_zero_copy() {
    let broker = Broker::new(1);
    let w = broker.writer("t");
    let payload: Arc<[u8]> = Arc::from(&b"one allocation"[..]);
    let key: Arc<[u8]> = Arc::from(&b"k"[..]);
    let mut batch: Vec<BatchEntry> = vec![
        (Some(Arc::clone(&key)), Arc::clone(&payload), Timestamp(0)),
        (Some(Arc::clone(&key)), Arc::clone(&payload), Timestamp(1)),
    ];
    w.try_append_batch(0, &mut batch).unwrap();
    let consumer = broker.consumer("g", &["t"]);
    let mut buf = Vec::new();
    consumer.poll_into(16, &mut buf);
    assert_eq!(buf.len(), 2);
    for (_, _, rec) in &buf {
        assert!(
            Arc::ptr_eq(&payload, &rec.value),
            "payload shared, not copied"
        );
        assert!(
            Arc::ptr_eq(&key, rec.key.as_ref().unwrap()),
            "key shared too"
        );
    }
}

/// Batched stats accounting matches per-record accounting.
#[test]
fn batch_stats_match_per_record_stats() {
    let batched = Broker::new(1);
    let single = Broker::new(1);
    let bw = batched.writer("t");
    let sw = single.writer("t");
    let mut batch: Vec<BatchEntry> = (0..5).map(|k| entry(k, &[0u8; 100], 7)).collect();
    for e in &batch {
        sw.try_append_quiet(0, e.0.clone(), Arc::clone(&e.1), e.2)
            .unwrap();
    }
    bw.try_append_batch(0, &mut batch).unwrap();
    assert_eq!(batched.stats().records_in, single.stats().records_in);
    assert_eq!(batched.stats().bytes_in, single.stats().bytes_in);
}
