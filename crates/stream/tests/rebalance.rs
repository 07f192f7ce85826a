//! One consumer group under real concurrency: consumers that all own
//! every partition join and leave the group while producers keep
//! writing, and the group as a whole must deliver every record
//! **exactly once** — offsets are per group, so no record is dropped
//! when a consumer leaves mid-stream and none is delivered twice to
//! consumers polling the same partition.
//!
//! Payloads are sequence-numbered so the union of everything every
//! consumer ever saw can be checked against the produced set.

use privapprox_stream::broker::{Broker, Consumer};
use privapprox_types::Timestamp;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PARTITIONS: usize = 8;
const RECORDS: u64 = 4_000;

fn seq_payload(i: u64) -> Vec<u8> {
    i.to_le_bytes().to_vec()
}

fn seq_of(value: &[u8]) -> u64 {
    u64::from_le_bytes(value.try_into().expect("8-byte seq payload"))
}

/// Polls up to `max` records (waiting up to `wait` for the first),
/// returning their sequence numbers.
fn take(consumer: &Consumer, max: usize, wait: Duration) -> Vec<u64> {
    let mut batch = Vec::new();
    consumer.poll_blocking_into(max, wait, &mut batch);
    batch.iter().map(|(_, _, r)| seq_of(&r.value)).collect()
}

/// Drains a consumer until `stop` is set, collecting sequence numbers.
fn drain_until_stopped(broker: &Broker, group: &str, stop: &AtomicBool) -> Vec<u64> {
    let consumer = broker.consumer(group, &["records"]);
    let mut seen = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        seen.extend(take(&consumer, 64, Duration::from_millis(20)));
    }
    // Final sweep: anything this consumer's group has not yet read.
    seen.extend(take(&consumer, usize::MAX, Duration::ZERO));
    seen
}

/// Two long-lived consumers plus a churner that repeatedly joins,
/// consumes a little, and leaves, all in one group and concurrent
/// with production. Exactly-once per group: the union of all
/// deliveries is precisely the produced sequence set.
#[test]
fn threaded_rebalance_churn_delivers_exactly_once() {
    let broker = Broker::new(PARTITIONS);
    broker.create_topic("records", PARTITIONS);
    let stop = Arc::new(AtomicBool::new(false));

    let mut steady = Vec::new();
    for _ in 0..2 {
        let broker = broker.clone();
        let stop = Arc::clone(&stop);
        steady.push(std::thread::spawn(move || {
            drain_until_stopped(&broker, "g", &stop)
        }));
    }

    // The churner: join → consume a few batches → leave, repeatedly.
    let churner = {
        let broker = broker.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let consumer = broker.consumer("g", &["records"]);
                for _ in 0..3 {
                    seen.extend(take(&consumer, 16, Duration::from_millis(5)));
                }
                drop(consumer); // leave mid-stream
                std::thread::yield_now();
            }
            seen
        })
    };

    // Produce concurrently with the churn, spread over partitions.
    let writer = broker.writer("records");
    for i in 0..RECORDS {
        let partition = (i % PARTITIONS as u64) as usize;
        (writer.try_append_quiet(partition, None, seq_payload(i), Timestamp(i))).unwrap();
        writer.notify();
        if i % 128 == 0 {
            std::thread::yield_now();
        }
    }

    // Let the group catch up, then stop everyone.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while broker.stats().records_out < RECORDS && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);

    let mut all: Vec<u64> = Vec::new();
    for h in steady {
        all.extend(h.join().expect("steady consumer"));
    }
    all.extend(churner.join().expect("churner"));

    assert_eq!(all.len() as u64, RECORDS, "no drop, no double delivery");
    let distinct: HashSet<u64> = all.iter().copied().collect();
    assert_eq!(
        distinct.len() as u64,
        RECORDS,
        "every sequence exactly once"
    );
    assert_eq!(
        (
            distinct.iter().copied().min(),
            distinct.iter().copied().max()
        ),
        (Some(0), Some(RECORDS - 1))
    );
}

/// A consumer that joins *after* production started still sees only
/// records no one else consumed: committed offsets are per group, not
/// per consumer.
#[test]
fn threaded_late_joiner_continues_from_group_offsets() {
    let broker = Broker::new(4);
    broker.create_topic("records", 4);
    let writer = broker.writer("records");
    for i in 0..100u64 {
        let partition = (i % 4) as usize;
        (writer.try_append_quiet(partition, None, seq_payload(i), Timestamp(i))).unwrap();
    }
    let first = broker.consumer("g", &["records"]);
    let mut seen = take(&first, 60, Duration::ZERO);
    // A second consumer joins; between the two of them the remainder
    // arrives exactly once.
    let second = broker.consumer("g", &["records"]);
    loop {
        let batch1 = take(&first, 16, Duration::ZERO);
        let batch2 = take(&second, 16, Duration::ZERO);
        if batch1.is_empty() && batch2.is_empty() {
            break;
        }
        seen.extend(batch1.into_iter().chain(batch2));
    }
    seen.sort_unstable();
    assert_eq!(seen, (0..100u64).collect::<Vec<_>>());
}
