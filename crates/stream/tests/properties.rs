//! Property-based tests for the stream substrate: broker conservation,
//! join completeness, window-count conservation.

use privapprox_stream::broker::Broker;
use privapprox_stream::join::{JoinOutcome, MidJoiner};
use privapprox_stream::window::WindowedFold;
use privapprox_types::{MessageId, Timestamp, WindowSpec};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    /// Every record produced is consumed exactly once per group, in
    /// per-partition order, regardless of partitioning.
    #[test]
    fn broker_conserves_records(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..20), 1..100),
        partitions in 1usize..8,
        keyed in any::<bool>(),
    ) {
        let broker = Broker::new(partitions);
        let writer = broker.writer("t");
        for (i, p) in payloads.iter().enumerate() {
            let key = keyed.then(|| Arc::from(&[(i % 5) as u8][..]));
            let partition = i % partitions;
            writer.try_append_quiet(partition, key, &p[..], Timestamp(i as u64)).unwrap();
        }
        let consumer = broker.consumer("g", &["t"]);
        let mut got = Vec::new();
        let mut batch = Vec::new();
        while consumer.poll_into(7, &mut batch) > 0 {
            got.extend(batch.drain(..).map(|(_, _, r)| r.value.to_vec()));
        }
        prop_assert_eq!(got.len(), payloads.len());
        // Same multiset of payloads.
        let mut a = got;
        let mut b = payloads;
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// The joiner completes exactly when all n distinct sources have
    /// offered, for any arrival order.
    #[test]
    fn join_completes_iff_all_sources(
        n in 2usize..6,
        order in proptest::collection::vec(0usize..6, 1..12),
        payload_byte in any::<u8>(),
    ) {
        let mut joiner = MidJoiner::new(n, 1_000);
        let mid = MessageId(42);
        let mut seen = std::collections::HashSet::new();
        let mut completed = false;
        for &raw in &order {
            let source = raw % n;
            let outcome = joiner.offer(0, mid, source, &[payload_byte], Timestamp(0));
            match outcome {
                JoinOutcome::Complete(_) => {
                    seen.insert(source);
                    prop_assert_eq!(seen.len(), n, "complete only at n distinct sources");
                    completed = true;
                    break;
                }
                JoinOutcome::Pending => {
                    prop_assert!(seen.insert(source), "pending implies fresh source");
                }
                JoinOutcome::Duplicate => {
                    prop_assert!(seen.contains(&source), "duplicate implies repeat");
                }
                JoinOutcome::Malformed => prop_assert!(false, "no malformed input here"),
            }
        }
        let distinct: std::collections::HashSet<usize> =
            order.iter().map(|r| r % n).collect();
        prop_assert_eq!(completed, distinct.len() >= n);
    }

    /// Tumbling windows conserve the event count: every on-time event
    /// lands in exactly one emitted window.
    #[test]
    fn tumbling_windows_conserve_counts(
        times in proptest::collection::vec(0u64..10_000, 1..200),
        size in 10u64..500,
    ) {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let mut wf = WindowedFold::new(
            WindowSpec::tumbling(size),
            0,
            || 0u64,
            |acc: &mut u64, _v: &()| *acc += 1,
        );
        for &t in &sorted {
            prop_assert!(wf.push(Timestamp(t), &()), "sorted events are never late");
        }
        let emitted = wf.advance_watermark(Timestamp(10_000 + size * 2));
        let total: u64 = emitted.iter().map(|(_, c)| *c).sum();
        prop_assert_eq!(total, sorted.len() as u64);
        // Windows are disjoint and ordered.
        for pair in emitted.windows(2) {
            prop_assert!(pair[0].0.end <= pair[1].0.start);
        }
    }

    /// Sliding windows count each event exactly ⌈w/δ⌉ times (away
    /// from the origin).
    #[test]
    fn sliding_windows_multiply_counts(
        offsets in proptest::collection::vec(0u64..1_000, 1..100),
        slide in 5u64..50,
        mult in 1u64..5,
    ) {
        let size = slide * mult;
        let spec = WindowSpec::sliding(size, slide);
        let mut wf = WindowedFold::new(spec, 0, || 0u64, |acc: &mut u64, _v: &()| *acc += 1);
        // Shift all events past one full window so origin truncation
        // is out of the picture.
        let mut times: Vec<u64> = offsets.iter().map(|o| o + size).collect();
        times.sort_unstable();
        for &t in &times {
            wf.push(Timestamp(t), &());
        }
        let emitted = wf.advance_watermark(Timestamp(size + 1_000 + 2 * size));
        let total: u64 = emitted.iter().map(|(_, c)| *c).sum();
        prop_assert_eq!(total, times.len() as u64 * mult);
    }
}
