//! Verifies the headline property of the allocation-free hot path:
//! once scratch buffers, prepared plans and pools are warm, the
//! steady-state pipeline performs **zero** heap allocations
//!
//! * per message — the full client answer path (plan-cache hit →
//!   prepared SQL scan → bucketize → randomize → encode → split) and
//!   the aggregator's join → decode → fold path,
//! * per randomize call — the `RandomizeScratch`/`WideRng` bulk-RNG
//!   buffers materialize on first use only, and
//! * per window close — `advance_watermark_into` with the estimator
//!   pool and recycled result shells.
//!
//! This file deliberately contains a single test: the counting
//! allocator is process-global, and a sibling test allocating on
//! another thread would show up in the counters.

use privapprox_core::aggregator::{finalize_window_into, QueryResult, RawWindow};
use privapprox_core::client::{Client, ClientScratch};
use privapprox_core::proxy::{inbound_topic, Proxy};
use privapprox_core::Aggregator;
use privapprox_crypto::xor::{combine, decode_answer_into, encode_answer_into, wire_key, Share, SlotPool};
use privapprox_crypto::{SplitScratch, XorSplitter};
use privapprox_rr::estimate::BucketEstimator;
use privapprox_rr::randomize::{RandomizeScratch, Randomizer};
use privapprox_sql::{ColumnType, Schema, Value};
use privapprox_stream::broker::{BatchEntry, Broker, TopicWriter};
use privapprox_stream::join::{JoinOutcome, MidJoiner};
use privapprox_types::ids::AnalystId;
use privapprox_types::{
    AnswerSpec, BitVec, ClientId, ExecutionParams, MessageId, ProxyId, Query, QueryBuilder,
    QueryId, Timestamp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocator wrapper counting every allocation and reallocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const KEY: u64 = 0xA110C;

/// The raw share pipeline (no SQL): randomize → encode → split →
/// join → decode → fold, as proven since PR 1.
fn raw_pipeline_allocates_nothing() {
    for &(proxies, buckets) in &[(2usize, 11usize), (3, 10_000)] {
        let mut rng = StdRng::seed_from_u64(42 + buckets as u64);
        let qid = QueryId::new(AnalystId(1), 1);
        let randomizer = Randomizer::new(0.9, 0.6);
        let splitter = XorSplitter::new(proxies);
        let truth = BitVec::one_hot(buckets, buckets / 2);

        let mut randomized = BitVec::zeros(buckets);
        let mut message = Vec::new();
        let mut split = SplitScratch::new();
        // Short join timeout so quarantine entries age out during the
        // run instead of accumulating map growth.
        let mut joiner = MidJoiner::new(proxies, 10);
        let mut estimator = BucketEstimator::new(buckets, 0.9, 0.6);
        let mut decoded = BitVec::zeros(buckets);

        let mut epoch = |rng: &mut StdRng,
                         joiner: &mut MidJoiner,
                         estimator: &mut BucketEstimator,
                         now: u64| {
            randomizer.randomize_vec_into(&truth, &mut randomized, rng);
            encode_answer_into(qid, &randomized, &mut message);
            let mid = MessageId(rng.gen());
            let shares = splitter.split_into(&message, mid, rng, &mut split);
            for (source, share) in shares.iter().enumerate() {
                if let JoinOutcome::Complete(joined) =
                    joiner.offer(0, share.mid, source, &share.payload, Timestamp(now))
                {
                    decode_answer_into(&joined, &mut decoded).expect("decodes");
                    estimator.push(&decoded);
                    joiner.recycle(joined);
                }
            }
            joiner.sweep(Timestamp(now));
        };

        // Warm every scratch buffer, hash-map table, and buffer pool.
        for i in 0..2_000u64 {
            epoch(&mut rng, &mut joiner, &mut estimator, i * 100);
        }

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for i in 2_000..4_000u64 {
            epoch(&mut rng, &mut joiner, &mut estimator, i * 100);
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);

        assert_eq!(
            after - before,
            0,
            "steady-state raw pipeline allocated {} times over 2000 messages \
             (proxies = {proxies}, buckets = {buckets})",
            after - before
        );
        assert_eq!(estimator.total(), 4_000);
    }
}

/// The bulk-RNG randomize stage in isolation: a fresh
/// `RandomizeScratch` allocates exactly on its first use (the `WideRng`
/// fork is inline state — only the word buffer hits the heap) and
/// never again, across widths from one limb to 10⁴ buckets.
fn randomize_scratch_allocates_only_on_first_use() {
    for &buckets in &[11usize, 10_000] {
        let mut seeder = StdRng::seed_from_u64(7 + buckets as u64);
        let randomizer = Randomizer::new(0.9, 0.6);
        let truth = BitVec::one_hot(buckets, buckets / 2);
        let mut out = BitVec::zeros(buckets);
        let mut scratch = RandomizeScratch::new();

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        randomizer.randomize_vec_buffered(&truth, &mut out, &mut scratch, &mut seeder);
        let after_first = ALLOCATIONS.load(Ordering::Relaxed);
        assert!(
            after_first > before,
            "first use must materialize the word buffer (buckets = {buckets})"
        );

        for _ in 0..2_000 {
            randomizer.randomize_vec_buffered(&truth, &mut out, &mut scratch, &mut seeder);
        }
        let after_warm = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            after_warm - after_first,
            0,
            "warm RandomizeScratch allocated {} times over 2000 messages (buckets = {buckets})",
            after_warm - after_first
        );
    }
}

/// The full client answer path with the SQL stage included: plan
/// cache hit, prepared scan over a 256-row store, bucketize,
/// randomize, encode, split.
fn client_pipeline_allocates_nothing() {
    for &buckets in &[11usize, 10_000] {
        let query = QueryBuilder::new(
            QueryId::new(AnalystId(2), buckets as u32),
            "SELECT speed FROM vehicle WHERE location = 'SF'",
        )
        .answer(AnswerSpec::ranges_with_overflow(0.0, 110.0, buckets - 1))
        .frequency(1_000)
        .window(60_000, 60_000)
        .sign_and_build(KEY);
        let params = ExecutionParams::checked(1.0, 0.9, 0.6);

        let mut client = Client::new(ClientId(7), 99, KEY);
        client.db_mut().create_table(
            "vehicle",
            Schema::new(vec![
                ("ts", ColumnType::Int),
                ("speed", ColumnType::Float),
                ("location", ColumnType::Text),
            ]),
        );
        for i in 0..256i64 {
            client
                .db_mut()
                .insert(
                    "vehicle",
                    vec![
                        Value::Int(i),
                        Value::Float((i % 100) as f64),
                        if i % 3 == 0 { "SF" } else { "Oakland" }.into(),
                    ],
                )
                .unwrap();
        }

        let mut scratch = ClientScratch::new();
        // Warm the plan cache, bucket indexer and scratch buffers.
        for epoch in 0..200 {
            client
                .answer_query_into(&query, &params, Timestamp(epoch), 2, &mut scratch)
                .unwrap()
                .expect("s = 1 always participates");
        }

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for epoch in 200..2_200 {
            client
                .answer_query_into(&query, &params, Timestamp(epoch), 2, &mut scratch)
                .unwrap()
                .expect("s = 1 always participates");
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);

        assert_eq!(
            after - before,
            0,
            "steady-state client pipeline (prepared plan warm) allocated {} times \
             over 2000 epochs (buckets = {buckets})",
            after - before
        );
    }
}

/// Writers onto the two proxies' inbound topics.
fn inbound_writers(broker: &Broker) -> Vec<TopicWriter> {
    (0..2).map(|i| broker.writer(&inbound_topic(ProxyId(i)))).collect()
}

/// Appends one client's shares to its proxies' inbound topics on
/// `partition` (unmeasured: the transport copies into the log).
fn publish(writers: &[TopicWriter], partition: usize, query: QueryId, shares: &[Share], ts: Timestamp) {
    for (writer, share) in writers.iter().zip(shares) {
        let key = Arc::from(&wire_key(query, share.mid)[..]);
        (writer.try_append_quiet(partition, Some(key), &share.payload[..], ts)).unwrap();
    }
}

/// Window close through the pooled path: after one warm-up cycle,
/// `advance_watermark_into` + `recycle_results` allocate nothing per
/// cycle — the estimator returns to the pool and the result shells
/// (with their bucket vectors) are reused.
fn window_close_allocates_nothing() {
    let broker = Broker::new(2);
    let query: Query = QueryBuilder::new(QueryId::new(AnalystId(3), 1), "SELECT v FROM data")
        .answer(AnswerSpec::ranges_with_overflow(0.0, 10.0, 10))
        .window(1_000, 1_000)
        .sign_and_build(KEY);
    let params = ExecutionParams::checked(1.0, 0.9, 0.6);
    let writers = inbound_writers(&broker);
    let mut proxies: Vec<Proxy> = (0..2).map(|i| Proxy::new(ProxyId(i), &broker)).collect();
    let mut agg = Aggregator::new(&broker, 2, 0.95);
    agg.register_query(&query, params, 50);

    let mut client = Client::new(ClientId(9), 5, KEY);
    client
        .db_mut()
        .create_table("data", Schema::new(vec![("v", ColumnType::Float)]));
    client
        .db_mut()
        .insert("data", vec![Value::Float(2.5)])
        .unwrap();
    let mut scratch = ClientScratch::new();

    let mut results: Vec<QueryResult> = Vec::new();
    let mut close_allocs = 0u64;
    let mut closed = 0u64;
    let warm_cycles = 3u64;
    let cycles = warm_cycles + 5;
    for cycle in 0..cycles {
        // Feed the window (broker transport allocates; that is the
        // transport's business and stays outside the measured span).
        // One client stands in for twenty: a distinct timestamp per
        // answer gives each its own MID.
        for i in 0..20 {
            let ts = Timestamp(cycle * 1_000 + 500 + i);
            let shares = client
                .answer_query_into(&query, &params, ts, 2, &mut scratch)
                .unwrap()
                .expect("always participates");
            publish(&writers, 0, query.id, shares, ts);
        }
        for p in &mut proxies {
            p.pump();
        }
        agg.pump();

        // The measured span: close the cycle's window and recycle.
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        agg.advance_watermark_into(Timestamp((cycle + 1) * 1_000), &mut results);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].sample_size, 20);
        agg.recycle_results(&mut results);
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        if cycle >= warm_cycles {
            close_allocs += after - before;
            closed += 1;
        }
    }
    assert_eq!(
        close_allocs, 0,
        "steady-state window close (estimator pool warm) allocated {close_allocs} \
         times over {closed} cycles"
    );
}

/// The sharded deployment's **overlapped** per-shard cycle, run
/// single-threaded so the process-global allocation counter measures
/// only the shard path itself (the real `ShardedSystem` runs the same
/// code on shard threads; its per-epoch channel traffic is O(threads)
/// control overhead, deliberately outside this per-message/per-window
/// budget). Two shard aggregators split two partitions of the same
/// consumer group, and **two epochs are always in flight**: epoch
/// `k+1`'s messages are already in the broker when epoch `k` closes,
/// exactly like the pipelined runtime. The measured span covers the
/// whole overlapped shard steady state —
///
/// * the broker drain (`pump_with` over the allocation-free
///   `poll_into` path) with the per-epoch in-flight accounting the
///   shard threads keep (decode counts per epoch tag in a reused
///   scan list),
/// * the epoch-ordered raw close, cross-shard merge, finalize into a
///   recycled shell, and the estimators' trip home —
///
/// and performs **zero** heap allocations once warm. (Client sends
/// stay outside the span: producing a record copies bytes into the
/// shared log — that is the transport's business, as in the proofs
/// above.) As in the runtime, the shards read the proxy topics the
/// clients publish to, with no relay between. The query window is 60 s so
/// each close's joiner sweep retires the previous epoch's quarantined
/// MIDs, keeping the duplicate-defence map bounded.
fn sharded_overlapped_window_cycle_allocates_nothing() {
    const WINDOW_MS: u64 = 60_000;
    let broker = Broker::new(2); // two partitions per topic
    let query: Query = QueryBuilder::new(QueryId::new(AnalystId(4), 1), "SELECT v FROM data")
        .answer(AnswerSpec::ranges_with_overflow(0.0, 10.0, 10))
        .window(WINDOW_MS, WINDOW_MS)
        .sign_and_build(KEY);
    let params = ExecutionParams::checked(1.0, 0.9, 0.6);
    let writers = inbound_writers(&broker);
    let topics: Vec<String> = (0..2).map(|i| inbound_topic(ProxyId(i))).collect();
    // Two shards in one consumer group: shard 0 owns partition 0,
    // shard 1 owns partition 1, across both proxy topics.
    let mut shards: Vec<Aggregator> = (0..2)
        .map(|s| Aggregator::for_shard(&broker, &topics, 0.95, s, 2))
        .collect();
    for shard in &mut shards {
        shard.register_query(&query, params, 50);
    }

    let mut clients: Vec<Client> = (0..20u64)
        .map(|i| {
            let mut c = Client::new(ClientId(i), 50 + i, KEY);
            c.db_mut()
                .create_table("data", Schema::new(vec![("v", ColumnType::Float)]));
            c.db_mut().insert("data", vec![Value::Float(2.5)]).unwrap();
            c
        })
        .collect();
    let mut scratch = ClientScratch::new();
    let epoch_ts = |epoch: u64| Timestamp(epoch * WINDOW_MS + WINDOW_MS / 2);

    // Transport for one epoch: every client answers, shares land on
    // both partitions (unmeasured — production copies into the log).
    let feed_epoch = |epoch: u64, clients: &mut Vec<Client>, scratch: &mut ClientScratch| {
        for (i, client) in clients.iter_mut().enumerate() {
            let shares = client
                .answer_query_into(&query, &params, epoch_ts(epoch), 2, scratch)
                .unwrap()
                .expect("always participates");
            publish(&writers, i % 2, query.id, shares, epoch_ts(epoch));
        }
    };

    // Reused across cycles: raw windows per shard, per-shard decode
    // counts per epoch tag (the in-flight accounting), merged
    // scratch, shells, estimator returns.
    let mut raw: Vec<Vec<RawWindow>> = vec![Vec::new(), Vec::new()];
    let mut counts: Vec<Vec<(Timestamp, u64)>> = vec![Vec::new(), Vec::new()];
    let mut merged: Vec<(
        privapprox_types::QueryId,
        privapprox_types::Window,
        BucketEstimator,
        usize,
    )> = Vec::new();
    let mut shells: Vec<QueryResult> = Vec::new();
    let mut cycle_allocs = 0u64;
    let warm_cycles = 3u64;
    let cycles = warm_cycles + 5;
    // Epoch 0 is in the broker before the loop: every iteration then
    // feeds epoch `cycle + 1` and closes epoch `cycle`, so the closed
    // epoch always has a successor in flight behind it.
    feed_epoch(0, &mut clients, &mut scratch);
    for cycle in 0..cycles {
        feed_epoch(cycle + 1, &mut clients, &mut scratch);

        // The measured span: drain + per-epoch accounting + close +
        // merge + finalize, with epoch `cycle + 1` interleaved in the
        // same drains.
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for (s, shard) in shards.iter_mut().enumerate() {
            let tags = &mut counts[s];
            shard.pump_with(|_, ts, _, _| match tags.iter_mut().find(|(t, _)| *t == ts) {
                Some((_, n)) => *n += 1,
                None => tags.push((ts, 1)),
            });
            // The closing epoch's accounting must have settled (10
            // answers per shard per epoch: 20 clients split 2 ways).
            let tag = epoch_ts(cycle);
            let have = tags
                .iter()
                .find(|(t, _)| *t == tag)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            assert_eq!(have, 10, "cycle {cycle} shard {s}: epoch accounting");
            shard.advance_watermark_raw_into(Timestamp((cycle + 1) * WINDOW_MS), &mut raw[s]);
            tags.retain(|(t, _)| *t > tag);
        }
        for s in 0..2 {
            for rw in raw[s].drain(..) {
                match merged
                    .iter_mut()
                    .find(|(q, w, _, _)| *q == rw.query && *w == rw.window)
                {
                    Some((_, _, est, _)) => {
                        est.merge(&rw.estimator);
                        shards[s].release_estimator(rw.estimator);
                    }
                    None => merged.push((rw.query, rw.window, rw.estimator, s)),
                }
            }
        }
        for (qid, window, mut est, src) in merged.drain(..) {
            let mut shell = shells.pop().unwrap_or_else(QueryResult::shell);
            finalize_window_into(&mut shell, qid, window, &mut est, params, 50, 0.95);
            assert_eq!(shell.sample_size, 20, "cycle {cycle}");
            assert!(shell.buckets[2].raw_yes > 0);
            shells.push(shell);
            shards[src].release_estimator(est);
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        if cycle >= warm_cycles {
            cycle_allocs += after - before;
        }
    }
    assert_eq!(
        cycle_allocs, 0,
        "steady-state overlapped drain/close/merge/finalize allocated {cycle_allocs} times"
    );
}

/// The batched worker send path, single-threaded: split into pooled
/// `Arc` slots, stamp one pooled query-tagged key per message,
/// accumulate
/// `BatchEntry` runs per writer, flush with `try_append_batch`, and
/// drain on the consumer side so the bounded log trims and the slots
/// come home. Once the slot pools, batch vectors, broker ring and
/// poll buffer are warm, the whole send→publish→drain cycle performs
/// **zero** heap allocations — the property the real worker threads
/// rely on (`deploy.rs` runs this exact sequence per epoch).
fn batched_worker_send_allocates_nothing() {
    const PROXIES: usize = 2;
    const FLUSH_RUN: usize = 8;
    let broker = Broker::new(1);
    for pi in 0..PROXIES {
        broker.create_topic_with_capacity(&inbound_topic(ProxyId(pi as u16)), 1, 64);
    }
    let topics: Vec<String> = (0..PROXIES).map(|pi| inbound_topic(ProxyId(pi as u16))).collect();
    let writers: Vec<TopicWriter> = topics.iter().map(|t| broker.writer(t)).collect();
    let topic_refs: Vec<&str> = topics.iter().map(String::as_str).collect();
    let consumer = broker.consumer("drain", &topic_refs);

    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let splitter = XorSplitter::new(PROXIES);
    let message = vec![0xABu8; 64];
    let mut split = SplitScratch::new();
    let mut key_pool = SlotPool::new();
    let mut batches: Vec<Vec<BatchEntry>> = (0..PROXIES).map(|_| Vec::new()).collect();
    let mut buf = Vec::new();
    let mut drained = 0u64;

    let send = |rng: &mut StdRng,
                    split: &mut SplitScratch,
                    key_pool: &mut SlotPool,
                    batches: &mut Vec<Vec<BatchEntry>>,
                    buf: &mut Vec<(u32, u32, privapprox_stream::Record)>,
                    drained: &mut u64,
                    i: u64| {
        let mid = MessageId(rng.gen());
        let shares = splitter.split_into(&message, mid, rng, split);
        let mut key = key_pool.acquire(24);
        let slot = Arc::get_mut(&mut key).expect("acquired slots are uniquely owned");
        slot[..8].copy_from_slice(&1u64.to_be_bytes());
        slot[8..].copy_from_slice(&mid.to_bytes());
        for (pi, share) in shares.iter().enumerate() {
            batches[pi].push((Some(Arc::clone(&key)), Arc::clone(&share.payload), Timestamp(i)));
        }
        key_pool.release(key);
        if batches[0].len() >= FLUSH_RUN {
            for (pi, writer) in writers.iter().enumerate() {
                writer
                    .try_append_batch(0, &mut batches[pi])
                    .expect("drained log never backpressures");
            }
            // Drain what was just published: committing the offsets
            // trims the bounded log, dropping its payload refs so the
            // split scratch and key pool recycle their slots.
            loop {
                buf.clear();
                if consumer.poll_into(64, buf) == 0 {
                    break;
                }
                *drained += buf.len() as u64;
            }
            buf.clear();
        }
    };

    // Warm: grow the slot pools to the in-flight window, the batch
    // vectors to the flush run, the broker ring to capacity and the
    // poll buffer to the drain width.
    for i in 0..512u64 {
        send(&mut rng, &mut split, &mut key_pool, &mut batches, &mut buf, &mut drained, i);
    }
    let slots_warm = split.payload_slots();
    let keys_warm = key_pool.len();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 512..2_560u64 {
        send(&mut rng, &mut split, &mut key_pool, &mut batches, &mut buf, &mut drained, i);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state batched send path allocated {} times over 2048 messages",
        after - before
    );
    assert_eq!(split.payload_slots(), slots_warm, "payload pool plateaued");
    assert_eq!(key_pool.len(), keys_warm, "key pool plateaued");
    assert_eq!(drained, 2_560 / FLUSH_RUN as u64 * FLUSH_RUN as u64 * PROXIES as u64);
}

/// Invalidate-then-reuse safety: after a batch is published, the
/// broker retains the producer's payload buffers by refcount. An
/// `invalidate` + new split on the same scratch must hand out
/// **different** buffers — the retained records' bytes never change
/// and still recombine to the original message. (`Arc::strong_count`
/// is the evidence: a retained slot is not unique, so the pool may
/// not recycle it.)
fn invalidated_scratch_reuse_never_mutates_retained_payloads() {
    let broker = Broker::new(1);
    let topic = "retained";
    // Unbounded: the log keeps every record, as a slow consumer would.
    broker.create_topic(topic, 1);
    let writer = broker.writer(topic);
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let splitter = XorSplitter::new(3);
    let mut split = SplitScratch::new();

    // Message A: publish its shares, snapshot what the broker holds.
    let message_a = vec![0x11u8; 48];
    let mid_a = MessageId(rng.gen());
    let retained: Vec<Share> = splitter
        .split_into(&message_a, mid_a, &mut rng, &mut split)
        .to_vec();
    let mut batch: Vec<BatchEntry> = retained
        .iter()
        .map(|s| (None, Arc::clone(&s.payload), Timestamp(0)))
        .collect();
    writer.try_append_batch(0, &mut batch).unwrap();
    let snapshots: Vec<Vec<u8>> = retained.iter().map(|s| s.payload.to_vec()).collect();
    for share in &retained {
        assert!(
            Arc::strong_count(&share.payload) >= 3,
            "scratch + our clone + the log all hold the buffer"
        );
    }

    // Invalidate and reuse the scratch for fresh messages while the
    // log still holds message A's buffers.
    split.invalidate();
    assert!(split.shares().is_empty(), "stale reads see nothing");
    for round in 0..16u64 {
        let message_b = vec![round as u8 ^ 0xEE; 48];
        let shares_b = splitter.split_into(&message_b, MessageId(rng.gen()), &mut rng, &mut split);
        for (share_b, share_a) in shares_b.iter().zip(&retained) {
            assert!(
                !Arc::ptr_eq(&share_b.payload, &share_a.payload),
                "a broker-retained slot must never be handed out again"
            );
        }
        assert_eq!(combine(shares_b).unwrap(), message_b);
    }

    // The retained records are bit-for-bit what was published.
    for (share, snap) in retained.iter().zip(&snapshots) {
        assert_eq!(&share.payload[..], &snap[..], "retained payload mutated");
    }
    let consumer = broker.consumer("late", &[topic]);
    let mut polled = Vec::new();
    assert_eq!(consumer.poll_into(8, &mut polled), 3);
    let from_log: Vec<Share> = polled
        .iter()
        .map(|(_, _, rec)| Share {
            mid: mid_a,
            payload: Arc::clone(&rec.value),
        })
        .collect();
    assert_eq!(
        combine(&from_log).unwrap(),
        message_a,
        "the log's copies still recombine to the original message"
    );
}

#[test]
fn steady_state_pipeline_allocates_nothing() {
    raw_pipeline_allocates_nothing();
    randomize_scratch_allocates_only_on_first_use();
    client_pipeline_allocates_nothing();
    window_close_allocates_nothing();
    sharded_overlapped_window_cycle_allocates_nothing();
    batched_worker_send_allocates_nothing();
    invalidated_scratch_reuse_never_mutates_retained_payloads();
}
