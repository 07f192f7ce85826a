//! Full-pipeline throughput benchmark, two single-thread pipelines, a
//! stage breakdown, and the **sharded machine-level sweep** per point:
//!
//! * `round_trip` — client randomize → encode → split, then
//!   aggregator join → decode → window fold, all through the
//!   allocation-free scratch APIs (the BENCH_1 pipeline, kept for
//!   trajectory continuity; randomize uses the production
//!   `RandomizeScratch` bulk-RNG path since BENCH_3);
//! * `full_answer_pipeline` — the Table-3-style client answer path
//!   *including the SQL stage*: prepared-plan scan over a 256-row
//!   local store + bucketize + randomize + encode + split via
//!   `Client::answer_query_into`;
//! * `stage_breakdown` — the same client stages timed in isolation
//!   (SQL+bucketize / randomize / encode / split), so a PR that moves
//!   one stage can quote that stage's delta instead of inferring it
//!   from end-to-end differences;
//! * `sharded` (BENCH_4+) — the threaded sweep across 1/2/4 shards:
//!   the `full_answer` pipeline fanned over parallel worker threads,
//!   and the real `ShardedSystem` runtime end to end. `end_to_end`
//!   rows keep BENCH_4's critical-path methodology (stage maxima
//!   summed) for like-for-like deltas; **`end_to_end_overlapped`
//!   rows (BENCH_5+)** drive the pipelined runtime
//!   (`submit_epoch`/`flush_epochs`, depth 3, bounded partitions)
//!   and divide messages by the **bottleneck thread's CPU time** —
//!   the wall-clock of the pipelined run with one dedicated core per
//!   thread. Wall-clock rates are reported alongside and the
//!   convention is documented in `docs/benchmarks.md`.
//!
//! Sweeps proxies n ∈ {2, 3} × buckets ∈ {11, 10⁴} and writes
//! `BENCH_10.json` (machine-readable perf trajectory for later PRs;
//! schema documented in `docs/benchmarks.md`) next to the working
//! directory, plus the usual copy under `results/`. BENCH_10 adds the
//! **durability gate**: the 4-shard/10⁴-bucket overlapped row with
//! the durable store enabled must hold ≥ 0.95× of BENCH_9's committed
//! fault-free rate, and the crash-recovery time-to-first-window is
//! recorded alongside.
//!
//! `--quick` runs a shrunken sweep as a tier-1 CI smoke (the
//! pipelines and their integrity asserts execute; nothing is
//! written), so bench-harness rot is caught before a release run.

use privapprox_bench::report::{with_commas, Table};
use privapprox_core::client::{Client, ClientScratch};
use privapprox_core::deploy::thread_busy_time;
use privapprox_core::ShardedSystem;
use privapprox_crypto::xor::{answer_wire_size, decode_answer_into, encode_answer_into};
use privapprox_crypto::{SplitScratch, XorSplitter};
use privapprox_rr::estimate::BucketEstimator;
use privapprox_rr::randomize::{RandomizeScratch, Randomizer};
use privapprox_sql::{ColumnType, Schema, Value};
use privapprox_stream::join::{JoinOutcome, MidJoiner};
use privapprox_types::ids::AnalystId;
use privapprox_types::{
    AnswerSpec, BitVec, ClientId, ExecutionParams, MessageId, Query, QueryBuilder, QueryId,
    Timestamp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

const KEY: u64 = 0xB0B;

/// Rows in each client's local store (the paper's clients keep a
/// bounded recent history; matches `experiments::table3::CLIENT_ROWS`).
const CLIENT_ROWS: i64 = 256;

/// One (proxies, buckets) sweep point.
#[derive(Debug, Clone, Serialize)]
struct ThroughputRow {
    /// Number of XOR shares per message (= proxies).
    proxies: usize,
    /// Answer width in buckets.
    buckets: usize,
    /// Messages driven through the pipeline.
    messages: u64,
    /// End-to-end messages per second.
    msgs_per_sec: f64,
    /// Share bytes moved per second (all `n` shares per message).
    bytes_per_sec: f64,
    /// Nanoseconds per message.
    ns_per_msg: f64,
}

/// Per-stage timings of the client answer path at one sweep point,
/// each stage driven in its own steady-state loop.
#[derive(Debug, Clone, Serialize)]
struct StageRow {
    /// Number of XOR shares per message (affects only the split stage).
    proxies: usize,
    /// Answer width in buckets.
    buckets: usize,
    /// Iterations per stage loop.
    messages: u64,
    /// Prepared SQL scan + bucketize (`truthful_answer_into`), ns/msg.
    sql_bucketize_ns: f64,
    /// Randomized response over the `A[n]` vector
    /// (`randomize_vec_buffered`), ns/msg.
    randomize_ns: f64,
    /// Wire encoding (`encode_answer_into`), ns/msg.
    encode_ns: f64,
    /// XOR share splitting (`split_into`, ChaCha20 pads), ns/msg.
    split_ns: f64,
    /// Sum of the stage columns — close to, but not exactly, the
    /// `full_answer` ns/msg (separate loops expose each stage to
    /// better caches than the fused pipeline does).
    stage_sum_ns: f64,
}

/// One sharded (threaded) sweep point.
#[derive(Debug, Clone, Serialize)]
struct ShardedRow {
    /// Which pipeline: `full_answer` (client answer path fanned over
    /// worker threads, BENCH_3-`full_answer`-comparable per thread),
    /// `end_to_end` (the `ShardedSystem` runtime, epoch-at-a-time
    /// submission, BENCH_4-comparable critical-path machine rate) or
    /// `end_to_end_overlapped` (the pipelined runtime: overlapped
    /// epochs at `pipeline_depth`, machine rate = messages ÷ the
    /// bottleneck thread's CPU time).
    pipeline: String,
    /// Epochs concurrently in flight (1 for non-overlapped rows).
    pipeline_depth: usize,
    /// Aggregator shards (for `full_answer` this equals `threads`:
    /// the worker fan-out is the shard-affine parallel unit).
    shards: usize,
    /// Client worker threads.
    threads: usize,
    /// Number of XOR shares per message (= proxies).
    proxies: usize,
    /// Answer width in buckets.
    buckets: usize,
    /// Total messages across all threads.
    messages: u64,
    /// Machine-level throughput: `messages / max per-thread CPU time`
    /// (`full_answer`) or `messages / critical path` = max worker +
    /// max proxy + max shard CPU time (`end_to_end`) — the rate with
    /// one dedicated core per thread (see `docs/benchmarks.md`).
    machine_msgs_per_sec: f64,
    /// Mean single-thread rate (`messages / threads / max busy`) —
    /// flat across the sweep means no cross-thread contention.
    per_thread_msgs_per_sec: f64,
    /// Wall-clock rate of the same run (equals `machine_msgs_per_sec`
    /// only when every thread really has its own core).
    wall_msgs_per_sec: f64,
    /// The `max` term of the machine rate, for transparency.
    max_thread_busy_ns: f64,
    /// Max worker-thread CPU time over the measured span (ns; 0 for
    /// `full_answer` rows, whose only stage is the worker).
    workers_busy_ns: f64,
    /// Max proxy-thread CPU time over the measured span (ns).
    proxies_busy_ns: f64,
    /// Max shard-thread CPU time over the measured span (ns).
    shards_busy_ns: f64,
    /// Max single `privapprox-node` child-process CPU time over the
    /// measured span (ns; 0 for in-process rows). Children count as
    /// pipeline stages in the machine rate: under the dedicated-core
    /// convention a child process owns a core exactly like a thread.
    children_busy_ns: f64,
}

/// BENCH_6's supervision-overhead gate: the supervised runtime's
/// 4-shard / 10⁴-bucket `end_to_end` machine rate measured against
/// the same row in the committed `BENCH_5.json` (the last
/// pre-supervision trajectory point). The fault-tolerant runtime adds
/// only O(epochs) control work — ledger bumps, heartbeats, fuse
/// checks — so its per-message cost must stay within measurement
/// noise of BENCH_5.
#[derive(Debug, Clone, Serialize)]
struct SupervisionGate {
    /// Where the baseline rate came from.
    baseline: String,
    /// BENCH_5's 4-shard/10⁴-bucket `end_to_end` machine rate.
    baseline_machine_msgs_per_sec: f64,
    /// The supervised runtime's rate on the identical workload
    /// (best of up to three attempts, CPU-time-based so tolerant of
    /// background load).
    supervised_machine_msgs_per_sec: f64,
    /// `1 − supervised/baseline`; negative means the supervised
    /// runtime measured *faster*.
    overhead_frac: f64,
    /// The acceptance budget the gate asserts (`0.05`).
    budget_frac: f64,
}

/// BENCH_7's batched-send gate: the zero-copy batched worker→broker
/// send path (pooled `Arc` share slots, one MID key per message,
/// `try_append_batch` runs of up to 64 records per partition) must
/// make the overlapped pipeline measurably **faster**, not merely
/// equivalent. The gate re-measures the 4-shard / 10⁴-bucket
/// `end_to_end_overlapped` row and asserts it beats the committed
/// BENCH_5 row (the last per-record-send trajectory point) by at
/// least 15%.
#[derive(Debug, Clone, Serialize)]
struct BatchedSendGate {
    /// Where the baseline rate came from.
    baseline: String,
    /// BENCH_5's 4-shard/10⁴-bucket `end_to_end_overlapped` machine
    /// rate (per-record sends, payload copy per share per hop).
    baseline_machine_msgs_per_sec: f64,
    /// The batched zero-copy path's rate on the identical workload
    /// (best of up to three attempts, CPU-time basis).
    batched_machine_msgs_per_sec: f64,
    /// `batched / baseline`; the gate asserts this meets the floor.
    speedup: f64,
    /// The acceptance floor the gate asserts (`1.15`).
    required_speedup: f64,
}

/// BENCH_8's transport gate: the multi-process deployment — every
/// proxy and aggregator shard a spawned `privapprox-node` process
/// behind supervised loopback sockets — re-runs the 4-shard /
/// 10⁴-bucket `end_to_end_overlapped` row (depth 3: with epochs in
/// flight the per-hop socket latency overlaps with compute, so the
/// gate prices the transport's real cost, not a chain of poll
/// timeouts) against a **fresh in-process rate measured back to
/// back** (same machine, same build, same workload — not a committed
/// file, because the gate prices the transport, not the codebase's
/// drift). The basis is the BENCH_5 **machine rate** — messages ÷
/// the bottleneck *stage's* CPU time, one dedicated core per stage —
/// with the child processes counted as stages via their
/// `/proc/<pid>/schedstat` on-CPU time, so their work is priced
/// exactly like a parent thread's. Wall-clock is recorded for
/// transparency but not gated: the bench container has a single
/// core, where the wall-clock of a 6-process deployment measures the
/// *sum* of every process's work serialized onto one CPU rather than
/// the pipeline's bottleneck — the quantity the repo's rate
/// trajectory has never used.
///
/// The floor is **0.25×**, and why it is not higher deserves the
/// numbers. The in-process "transport" moves zero bytes — a share
/// travels the broker as an `Arc` refcount bump, so the in-process
/// bottleneck is the *worker* stage's real compute (~1 µs/msg). The
/// socket path must move every 10⁴-bucket share (~1.25 KB × 2 XOR
/// shares) through four mandatory passes per hop — frame encode,
/// kernel send, kernel receive, frame decode — and after stripping
/// every avoidable copy (shared-buffer `DataMsg`, exact-size frame
/// reservation, zero-temporary batch encode) the busiest stage (a
/// proxy bridge or proxy child, each carrying all 20 k records of
/// its run) still spends ~2.3 µs/record moving ~100 MB of traffic,
/// measured at 0.34–0.40× here. A floor of 0.25× therefore polices
/// regressions — reintroducing one full-payload copy on the hot
/// path drops the ratio below it — without demanding that a real
/// wire beat pointer passing. Both sides take the best of up to
/// three attempts, and the socket run must finish fault-free (no
/// reconnects, rejections, retries or partial closes — the gate
/// measures the happy path, `net_chaos.rs` measures repair).
#[derive(Debug, Clone, Serialize)]
struct TransportGate {
    /// Where the baseline rate came from.
    baseline: String,
    /// Fresh in-process 4-shard/10⁴-bucket `end_to_end_overlapped`
    /// machine rate (msgs ÷ bottleneck thread CPU).
    inprocess_machine_msgs_per_sec: f64,
    /// The socket deployment's machine rate on the identical workload
    /// (bottleneck over parent threads *and* child processes).
    socket_machine_msgs_per_sec: f64,
    /// In-process wall rate, recorded for transparency (not gated).
    inprocess_wall_msgs_per_sec: f64,
    /// Socket wall rate, recorded for transparency (not gated — on a
    /// single-core bench host this is total-work, not bottleneck).
    socket_wall_msgs_per_sec: f64,
    /// `socket / inprocess` machine rates; the gate asserts this
    /// meets the floor.
    ratio: f64,
    /// The acceptance floor the gate asserts (`0.25`; see the type
    /// docs for why).
    required_ratio: f64,
}

/// The BENCH_9 multi-tenant acceptance gate: **two concurrent
/// queries** scheduled through `submit_epoch_all` on the
/// 4-shard/10⁴-bucket overlapped row, against the committed BENCH_7
/// single-query row.
///
/// The 2-query run moves 2× the message volume of the baseline row
/// (every client answers every admitted query each epoch), so its
/// *aggregate* machine rate — total messages across both tenants ÷
/// the bottleneck thread's CPU time — is the per-core cost of the
/// doubled work. Perfect scheduling holds that rate equal to the
/// single-query baseline (2× messages over 2× bottleneck CPU); the
/// gate bounds the per-query overhead of multi-tenancy (shared-clock
/// scheduling, 24-byte query-tagged keys, per-(query, shard) routing,
/// budget ledger charges) by asserting the aggregate rate keeps
/// ≥ 0.85× of the committed BENCH_7 rate. The run must be fault-free
/// (`DeployHealth` all zeros) and retire nothing — both tenants ride
/// unbounded ledgers whose per-epoch `ε_zk` debits are reported for
/// the budget-accounting columns.
#[derive(Debug, Clone, Serialize)]
struct MultiQueryGate {
    /// Where the baseline rate came from.
    baseline: String,
    /// BENCH_7's committed single-query machine rate.
    baseline_machine_msgs_per_sec: f64,
    /// Concurrent queries in the gate run.
    queries: usize,
    /// Aggregate machine rate: `queries × population × epochs`
    /// messages ÷ bottleneck thread CPU.
    aggregate_machine_msgs_per_sec: f64,
    /// Per-query share of the aggregate rate (`aggregate / queries`).
    per_query_machine_msgs_per_sec: f64,
    /// Wall-clock rate of the same run (not gated).
    wall_msgs_per_sec: f64,
    /// `aggregate / baseline`; the gate asserts this meets the floor.
    ratio: f64,
    /// The acceptance floor (`0.85`).
    required_ratio: f64,
    /// Largest per-query `ε_zk` spend over the run (warm-up + timed
    /// epochs), from the per-query budget ledgers.
    max_eps_zk_spent_per_query: f64,
    /// Queries retired mid-run — must be 0 on unbounded ledgers.
    retirements: usize,
}

/// The BENCH_10 durability acceptance gate: the 4-shard/10⁴-bucket
/// overlapped row re-run with the durable store enabled (journaled
/// charges and submits fsynced before every send, close records and
/// periodic snapshots on the epoch path), against the committed
/// BENCH_9 fault-free `end_to_end_overlapped` rate.
///
/// The write-ahead work sits on the *supervisor* thread while workers,
/// proxies and shards run untouched, so the machine rate — messages ÷
/// bottleneck thread CPU — must hold ≥ 0.95× of the non-durable row.
/// Each attempt pairs the durable run with a **fresh fault-free run
/// measured back to back** and gates on that ratio (machine state —
/// frequency scaling, cache residency, background load — cancels out
/// of a paired measurement; the committed BENCH_9 rate, recorded
/// alongside, does not re-run on this machine and is reported for
/// trajectory continuity, exactly like the BENCH_8 transport gate's
/// fresh-baseline methodology).
/// The gate also times recovery: after the measured run one more epoch
/// is journaled and the system is crashed kill-9 style (unsynced tail
/// discarded); `recovery_ms_to_first_window` is the wall time from
/// starting the replacement system to draining its first closed
/// window (rebuild + open-epoch re-submission + close — closed epochs
/// are not revisited, so it does not grow with the run before it).
#[derive(Debug, Clone, Serialize)]
struct DurabilityGate {
    /// Where the gated baseline rate came from.
    baseline: String,
    /// The paired fresh fault-free overlapped machine rate, measured
    /// back to back with the durable run.
    baseline_machine_msgs_per_sec: f64,
    /// BENCH_9's committed fault-free overlapped machine rate, for
    /// trajectory continuity (not gated — it did not run on this
    /// machine state).
    committed_bench9_machine_msgs_per_sec: f64,
    /// The durable run's machine rate (msgs ÷ bottleneck thread CPU).
    durable_machine_msgs_per_sec: f64,
    /// Wall-clock rate of the durable run (not gated).
    wall_msgs_per_sec: f64,
    /// `durable / baseline` (paired); the gate asserts this meets the
    /// floor.
    ratio: f64,
    /// `durable / committed_bench9` (recorded, not gated).
    committed_ratio: f64,
    /// The acceptance floor (`0.95`).
    required_ratio: f64,
    /// Live journal bytes at the end of the measured run (pruned
    /// segments excluded — the bounded-disk contract).
    journal_bytes: u64,
    /// Snapshots retained on disk at the end of the measured run.
    snapshot_count: u64,
    /// Wall milliseconds from constructing the replacement system to
    /// draining its first recovered window.
    recovery_ms_to_first_window: f64,
}

/// The whole run, as persisted to `BENCH_10.json`.
#[derive(Debug, Clone, Serialize)]
struct ThroughputReport {
    /// Which PR's trajectory point this is.
    bench_revision: u32,
    /// What `round_trip` measures.
    round_trip_pipeline: String,
    /// What `full_answer_pipeline` measures.
    full_answer_pipeline: String,
    /// What `stage_breakdown` measures.
    stage_breakdown_pipeline: String,
    /// What the `sharded` sweep measures.
    sharded_pipeline: String,
    /// Round-trip rows (BENCH_1-comparable).
    round_trip: Vec<ThroughputRow>,
    /// Client answer-path rows (SQL stage included).
    full_answer: Vec<ThroughputRow>,
    /// Per-stage client answer-path rows.
    stage_breakdown: Vec<StageRow>,
    /// Threaded/sharded machine-level rows (BENCH_4+).
    sharded: Vec<ShardedRow>,
    /// The fault-free supervision-overhead gate vs BENCH_5 (absent
    /// only when `BENCH_5.json` is not readable next to the binary).
    supervision: Option<SupervisionGate>,
    /// The batched zero-copy send-path gate vs BENCH_5's overlapped
    /// row (absent only when `BENCH_5.json` is not readable).
    batched_send: Option<BatchedSendGate>,
    /// The multi-process transport gate vs a fresh in-process run
    /// (absent only when no `privapprox-node` binary sits next to
    /// this one).
    transport: Option<TransportGate>,
    /// The multi-tenant gate vs BENCH_7's committed overlapped row
    /// (absent only when `BENCH_7.json` is not readable).
    multi_query: Option<MultiQueryGate>,
    /// The durable-store gate vs BENCH_9's committed overlapped row
    /// (absent only when `BENCH_9.json` is not readable).
    durability: Option<DurabilityGate>,
}

/// Drives `messages` full client→aggregator round trips and returns
/// the measurement row.
fn run_round_trip(proxies: usize, buckets: usize, messages: u64) -> ThroughputRow {
    let mut rng = StdRng::seed_from_u64(0xBEEF ^ (proxies as u64) << 32 ^ buckets as u64);
    let qid = QueryId::new(AnalystId(1), 1);
    let randomizer = Randomizer::new(0.9, 0.6);
    let splitter = XorSplitter::new(proxies);
    let truth = BitVec::one_hot(buckets, buckets / 2);

    // Client-side scratch.
    let mut randomized = BitVec::zeros(buckets);
    let mut randomize_scratch = RandomizeScratch::new();
    let mut message = Vec::new();
    let mut split = SplitScratch::new();
    // Aggregator-side state.
    let mut joiner = MidJoiner::new(proxies, 60_000);
    let mut estimator = BucketEstimator::new(buckets, 0.9, 0.6);
    let mut decoded = BitVec::zeros(buckets);

    // Warm the scratch buffers so the timed loop is steady-state.
    let warmup = (messages / 10).clamp(10, 1_000);
    // The event clock advances per message and the joiner is swept
    // periodically, so its quarantine map stays bounded instead of
    // growing (and rehashing) inside the timed loop.
    let mut now = 0u64;
    let mut pump = |rng: &mut StdRng,
                    randomize_scratch: &mut RandomizeScratch,
                    joiner: &mut MidJoiner,
                    estimator: &mut BucketEstimator| {
        randomizer.randomize_vec_buffered(&truth, &mut randomized, randomize_scratch, rng);
        encode_answer_into(qid, &randomized, &mut message);
        let mid = MessageId(rng.gen());
        let shares = splitter.split_into(&message, mid, rng, &mut split);
        for (source, share) in shares.iter().enumerate() {
            if let JoinOutcome::Complete(joined) =
                joiner.offer(0, share.mid, source, &share.payload, Timestamp(now))
            {
                let qid = decode_answer_into(&joined, &mut decoded).expect("round trip decodes");
                assert_eq!(qid.serial, 1);
                estimator.push(&decoded);
                joiner.recycle(joined);
            }
        }
        now += 1_000;
        if now % 1_000_000 == 0 {
            joiner.sweep(Timestamp(now));
        }
    };
    for _ in 0..warmup {
        pump(
            &mut rng,
            &mut randomize_scratch,
            &mut joiner,
            &mut estimator,
        );
    }

    let start = Instant::now();
    for _ in 0..messages {
        pump(
            &mut rng,
            &mut randomize_scratch,
            &mut joiner,
            &mut estimator,
        );
    }
    let elapsed = start.elapsed();
    assert_eq!(
        estimator.total(),
        warmup + messages,
        "every message must survive the pipeline"
    );
    row(proxies, buckets, messages, elapsed)
}

/// The query + populated client used by the full-answer pipeline and
/// the stage breakdown (lane 0), and — with distinct `lane`s — by the
/// sharded fan-out, where every worker thread must run its own client
/// identity and RNG stream like the deployment it models.
fn answer_rig_lane(buckets: usize, lane: u64) -> (Query, Client) {
    let query = QueryBuilder::new(
        QueryId::new(AnalystId(1), 2),
        "SELECT d FROM rides WHERE ts >= 128",
    )
    .answer(AnswerSpec::ranges_with_overflow(0.0, 110.0, buckets - 1))
    .frequency(1_000)
    .window(60_000, 60_000)
    .sign_and_build(KEY);

    let mut client = Client::new(
        ClientId(1 + lane),
        0xC11E47 ^ buckets as u64 ^ (lane << 17),
        KEY,
    );
    client.db_mut().create_table(
        "rides",
        Schema::new(vec![("ts", ColumnType::Int), ("d", ColumnType::Float)]),
    );
    for i in 0..CLIENT_ROWS {
        client
            .db_mut()
            .insert("rides", vec![Value::Int(i), Value::Float((i % 100) as f64)])
            .unwrap();
    }
    (query, client)
}

/// [`answer_rig_lane`] at lane 0 — the single-thread pipelines'
/// rig, unchanged across BENCH revisions.
fn answer_rig(buckets: usize) -> (Query, Client) {
    answer_rig_lane(buckets, 0)
}

/// Drives `messages` client answer epochs — prepared SQL over a
/// 256-row store, bucketize, randomize, encode, split — and returns
/// the measurement row.
fn run_full_answer(proxies: usize, buckets: usize, messages: u64) -> ThroughputRow {
    let (query, mut client) = answer_rig(buckets);
    let params = ExecutionParams::checked(1.0, 0.9, 0.6);

    let mut scratch = ClientScratch::new();
    let warmup = (messages / 10).clamp(10, 1_000);
    for epoch in 0..warmup {
        client
            .answer_query_into(&query, &params, Timestamp(epoch), proxies, &mut scratch)
            .unwrap()
            .expect("s = 1 always participates");
    }

    let start = Instant::now();
    for epoch in warmup..warmup + messages {
        let shares = client
            .answer_query_into(&query, &params, Timestamp(epoch), proxies, &mut scratch)
            .unwrap()
            .expect("s = 1 always participates");
        std::hint::black_box(shares);
    }
    row(proxies, buckets, messages, start.elapsed())
}

/// Times each client answer stage in its own loop over the same data
/// the full pipeline uses.
fn run_stage_breakdown(proxies: usize, buckets: usize, messages: u64) -> StageRow {
    let (query, mut client) = answer_rig(buckets);
    let mut rng = StdRng::seed_from_u64(0x57A6E ^ (proxies as u64) << 32 ^ buckets as u64);
    let randomizer = Randomizer::new(0.9, 0.6);
    let splitter = XorSplitter::new(proxies);
    let warmup = (messages / 10).clamp(10, 1_000);

    // Stage: prepared SQL + bucketize.
    let mut truth = BitVec::zeros(buckets);
    let time_stage = |body: &mut dyn FnMut()| {
        for _ in 0..warmup {
            body();
        }
        let start = Instant::now();
        for _ in 0..messages {
            body();
        }
        start.elapsed().as_nanos() as f64 / messages as f64
    };

    let sql_bucketize_ns = time_stage(&mut || {
        client.truthful_answer_into(&query, &mut truth).unwrap();
        std::hint::black_box(&truth);
    });

    // Stage: randomized response (the production bulk-RNG path).
    let mut randomized = BitVec::zeros(buckets);
    let mut randomize_scratch = RandomizeScratch::new();
    let randomize_ns = time_stage(&mut || {
        randomizer.randomize_vec_buffered(
            &truth,
            &mut randomized,
            &mut randomize_scratch,
            &mut rng,
        );
        std::hint::black_box(&randomized);
    });

    // Stage: wire encoding.
    let mut message = Vec::new();
    let encode_ns = time_stage(&mut || {
        encode_answer_into(query.id, &randomized, &mut message);
        std::hint::black_box(&message);
    });

    // Stage: XOR share split.
    let mut split = SplitScratch::new();
    let split_ns = time_stage(&mut || {
        let mid = MessageId(rng.gen());
        let shares = splitter.split_into(&message, mid, &mut rng, &mut split);
        std::hint::black_box(shares);
    });

    StageRow {
        proxies,
        buckets,
        messages,
        sql_bucketize_ns,
        randomize_ns,
        encode_ns,
        split_ns,
        stage_sum_ns: sql_bucketize_ns + randomize_ns + encode_ns + split_ns,
    }
}

/// The `full_answer` pipeline fanned over `threads` parallel worker
/// threads, each owning its own `Client` (distinct id and seed, same
/// 256-row store shape) and `ClientScratch` — the client half of the
/// sharded deployment without the broker, so rows compare per-thread
/// against BENCH_3's single-thread `full_answer`.
fn run_sharded_full_answer(
    threads: usize,
    proxies: usize,
    buckets: usize,
    messages: u64,
) -> ShardedRow {
    let per_thread = messages / threads as u64;
    let wall_start = Instant::now();
    let busy: Vec<std::time::Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|lane| {
                scope.spawn(move || {
                    let (query, mut client) = answer_rig_lane(buckets, lane as u64);
                    let params = ExecutionParams::checked(1.0, 0.9, 0.6);
                    let mut scratch = ClientScratch::new();
                    let warmup = (per_thread / 10).clamp(10, 1_000);
                    for epoch in 0..warmup {
                        let epoch = Timestamp(epoch);
                        client
                            .answer_query_into(&query, &params, epoch, proxies, &mut scratch)
                            .unwrap()
                            .expect("s = 1 always participates");
                    }
                    let t0 = thread_busy_time();
                    for epoch in warmup..warmup + per_thread {
                        let epoch = Timestamp(epoch);
                        let shares = client
                            .answer_query_into(&query, &params, epoch, proxies, &mut scratch)
                            .unwrap()
                            .expect("s = 1 always participates");
                        std::hint::black_box(shares);
                    }
                    thread_busy_time().saturating_sub(t0)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = wall_start.elapsed().as_secs_f64();
    let max_busy = busy.iter().copied().max().unwrap_or_default().as_secs_f64();
    let total = per_thread * threads as u64;
    ShardedRow {
        pipeline: "full_answer".to_string(),
        pipeline_depth: 1,
        shards: threads,
        threads,
        proxies,
        buckets,
        messages: total,
        machine_msgs_per_sec: total as f64 / max_busy,
        per_thread_msgs_per_sec: per_thread as f64 / max_busy,
        wall_msgs_per_sec: total as f64 / wall,
        max_thread_busy_ns: max_busy * 1e9,
        workers_busy_ns: max_busy * 1e9,
        proxies_busy_ns: 0.0,
        shards_busy_ns: 0.0,
        children_busy_ns: 0.0,
    }
}

/// Max per-role child-process CPU deltas (busiest proxy child,
/// busiest shard child) between two `ShardedSystem::child_cpu`
/// snapshots, in seconds. Both zero for in-process runs.
fn child_deltas(
    now: &[(String, std::time::Duration)],
    base: &[(String, std::time::Duration)],
) -> (f64, f64) {
    let mut proxy = 0f64;
    let mut shard = 0f64;
    for (label, cpu) in now {
        let before = base
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, c)| *c)
            .unwrap_or_default();
        let delta = cpu.saturating_sub(before).as_secs_f64();
        if label.starts_with("proxy-") {
            proxy = proxy.max(delta);
        } else {
            shard = shard.max(delta);
        }
    }
    (proxy, shard)
}

/// Per-stage max CPU-time deltas between two busy-profile snapshots.
fn stage_deltas(
    now: &privapprox_core::deploy::BusyProfile,
    base: &privapprox_core::deploy::BusyProfile,
) -> (f64, f64, f64) {
    let delta_max = |now: &[std::time::Duration], then: &[std::time::Duration]| {
        now.iter()
            .zip(then)
            .map(|(a, b)| a.saturating_sub(*b))
            .max()
            .unwrap_or_default()
            .as_secs_f64()
    };
    (
        delta_max(&now.workers, &base.workers),
        delta_max(&now.proxies, &base.proxies),
        delta_max(&now.shards, &base.shards),
    )
}

/// Builds the `ShardedSystem` + query rig for the end-to-end rows.
/// `node: Some(path)` runs every proxy and shard as a spawned
/// `privapprox-node` process over loopback sockets (the BENCH_8
/// transport-gate deployment); `None` keeps them in-process threads.
fn sharded_rig_with(
    shards: usize,
    proxies: usize,
    buckets: usize,
    population: u64,
    depth: usize,
    capacity: usize,
    node: Option<&Path>,
) -> (ShardedSystem, privapprox_types::Query) {
    let mut builder = ShardedSystem::builder()
        .clients(population)
        .proxies(proxies as u16)
        .shards(shards)
        .workers(shards)
        .pipeline_depth(depth)
        .partition_capacity(capacity)
        .seed(0xBEAC4);
    if let Some(node) = node {
        // A fault-free gate run must not count scheduler-induced
        // ack-stall resends as repairs: on an oversubscribed bench
        // host (CI runners, the single-core trajectory machine) a
        // child's ack can lag the 250 ms loss-suspicion default
        // purely from CPU contention. Two seconds keeps the resend
        // path armed for genuine stalls without tripping on load.
        builder = builder
            .process_transport(node)
            .link_resend_after(std::time::Duration::from_secs(2));
    }
    let mut system = builder.build();
    system.load_numeric_column("rides", "d", |i| (i % 100) as f64).unwrap();
    let query = system
        .analyst()
        .query("SELECT d FROM rides")
        .buckets(AnswerSpec::ranges_with_overflow(0.0, 110.0, buckets - 1))
        .window(60_000, 60_000)
        .params(ExecutionParams::checked(1.0, 0.9, 0.6))
        .submit()
        .expect("query accepted");
    (system, query)
}

/// The real `ShardedSystem` runtime end to end, epoch at a time:
/// `shards` worker threads answer a partitioned population, proxy
/// threads forward partition-preserving, shard threads
/// join/decode/window, the main thread merges. Machine rate divides
/// messages by the epoch critical path (max worker + max proxy + max
/// shard CPU time) — BENCH_4's methodology, kept for like-for-like
/// deltas.
fn run_sharded_end_to_end(
    shards: usize,
    proxies: usize,
    buckets: usize,
    population: u64,
    epochs: u64,
) -> ShardedRow {
    run_sharded_end_to_end_with(shards, proxies, buckets, population, epochs, None)
}

/// [`run_sharded_end_to_end`] with an optional node binary (the
/// process-transport deployment for the BENCH_8 gate). The row's
/// `pipeline` label records which transport ran.
fn run_sharded_end_to_end_with(
    shards: usize,
    proxies: usize,
    buckets: usize,
    population: u64,
    epochs: u64,
    node: Option<&Path>,
) -> ShardedRow {
    let (mut system, query) =
        sharded_rig_with(shards, proxies, buckets, population, 1, 0, node);
    // One warm-up epoch: plans compiled, pools populated.
    system.run_epoch(&query).expect("warm-up epoch");
    let base = system.busy_profile();
    let child_base = system.child_cpu();
    let wall_start = Instant::now();
    for _ in 0..epochs {
        let result = system.run_epoch(&query).expect("epoch");
        assert_eq!(result.sample_size, population, "s = 1: everyone answers");
    }
    let wall = wall_start.elapsed().as_secs_f64();
    let (workers, proxies_busy, shards_busy) = stage_deltas(&system.busy_profile(), &base);
    // Process transport adds the child processes as epoch critical-path
    // stages: worker → proxy bridge → proxy child → shard bridge →
    // shard child, each on its own dedicated core.
    let (proxy_child, shard_child) = child_deltas(&system.child_cpu(), &child_base);
    let critical = workers + proxies_busy + shards_busy + proxy_child + shard_child;
    assert_fault_free(&mut system);
    let messages = population * epochs;
    ShardedRow {
        pipeline: if node.is_some() {
            "end_to_end_process".to_string()
        } else {
            "end_to_end".to_string()
        },
        pipeline_depth: 1,
        shards,
        threads: shards,
        proxies,
        buckets,
        messages,
        machine_msgs_per_sec: messages as f64 / critical,
        per_thread_msgs_per_sec: messages as f64 / shards as f64 / critical,
        wall_msgs_per_sec: messages as f64 / wall,
        max_thread_busy_ns: critical * 1e9,
        workers_busy_ns: workers * 1e9,
        proxies_busy_ns: proxies_busy * 1e9,
        shards_busy_ns: shards_busy * 1e9,
        children_busy_ns: proxy_child.max(shard_child) * 1e9,
    }
}

/// The **overlapped** `ShardedSystem` runtime: epochs submitted
/// through a depth-`depth` pipeline over bounded partitions, so
/// workers populate epoch `k+1` while proxies forward and shards
/// drain epoch `k`. Machine rate divides messages by the **bottleneck
/// thread's** CPU time — the wall-clock of the pipelined steady state
/// with one dedicated core per thread (`docs/benchmarks.md`,
/// BENCH_5 methodology).
fn run_sharded_end_to_end_overlapped(
    shards: usize,
    proxies: usize,
    buckets: usize,
    population: u64,
    epochs: u64,
    depth: usize,
) -> ShardedRow {
    run_sharded_end_to_end_overlapped_with(shards, proxies, buckets, population, epochs, depth, None)
}

/// [`run_sharded_end_to_end_overlapped`] with an optional node binary
/// (the process-transport deployment for the BENCH_8 gate).
fn run_sharded_end_to_end_overlapped_with(
    shards: usize,
    proxies: usize,
    buckets: usize,
    population: u64,
    epochs: u64,
    depth: usize,
    node: Option<&Path>,
) -> ShardedRow {
    // Partition capacity: depth + 1 epochs' worth of records per
    // partition — enough headroom that backpressure engages only
    // when a stage genuinely falls behind the whole pipeline window,
    // not as a steady-state throttle (a bound tighter than the
    // pipeline depth serializes the stages into lock-step hand-offs).
    let partitions = shards.max(1) as u64;
    let capacity = ((depth as u64 + 1) * population.div_ceil(partitions)).max(64) as usize;
    let (mut system, query) =
        sharded_rig_with(shards, proxies, buckets, population, depth, capacity, node);
    // Warm-up: one full pipeline fill + flush.
    for _ in 0..depth {
        system.submit_epoch(&query).expect("warm-up submit");
    }
    system.flush_epochs().expect("warm-up flush");
    system.drain_results();
    let base = system.busy_profile();
    let child_base = system.child_cpu();
    let wall_start = Instant::now();
    for _ in 0..epochs {
        system.submit_epoch(&query).expect("epoch submit");
    }
    system.flush_epochs().expect("epoch flush");
    let wall = wall_start.elapsed().as_secs_f64();
    let results = system.drain_results();
    assert_eq!(results.len(), epochs as usize, "every epoch closed");
    for r in &results {
        assert_eq!(r.sample_size, population, "s = 1: everyone answers");
    }
    let (workers, proxies_busy, shards_busy) = stage_deltas(&system.busy_profile(), &base);
    // A child process is a pipeline stage on its own dedicated core,
    // exactly like a parent thread — the busiest one can be the
    // machine-rate bottleneck (zeros for in-process runs).
    let (proxy_child, shard_child) = child_deltas(&system.child_cpu(), &child_base);
    let bottleneck = workers
        .max(proxies_busy)
        .max(shards_busy)
        .max(proxy_child)
        .max(shard_child);
    assert_fault_free(&mut system);
    let messages = population * epochs;
    ShardedRow {
        pipeline: if node.is_some() {
            "end_to_end_overlapped_process".to_string()
        } else {
            "end_to_end_overlapped".to_string()
        },
        pipeline_depth: depth,
        shards,
        threads: shards,
        proxies,
        buckets,
        messages,
        machine_msgs_per_sec: messages as f64 / bottleneck,
        per_thread_msgs_per_sec: messages as f64 / shards as f64 / bottleneck,
        wall_msgs_per_sec: messages as f64 / wall,
        max_thread_busy_ns: bottleneck * 1e9,
        workers_busy_ns: workers * 1e9,
        proxies_busy_ns: proxies_busy * 1e9,
        shards_busy_ns: shards_busy * 1e9,
        children_busy_ns: proxy_child.max(shard_child) * 1e9,
    }
}

/// Every benchmarked epoch must ride the fast path: a fault-free run
/// exercises zero supervision repairs, so the rates above measure the
/// supervised runtime's steady state, not its recovery machinery.
fn assert_fault_free(system: &mut ShardedSystem) {
    let health = system.deploy_health();
    assert_eq!(
        health.worker_panics
            + health.shard_panics
            + health.proxy_panics
            + health.respawns
            + health.partial_closes
            + health.lost_answers
            + health.dead_lettered
            + health.dead_letter_dropped
            + health.undecodable
            + health.unroutable
            + health.reconnects
            + health.rejections
            + health.retries,
        0,
        "fault-free bench run exercised supervision repairs: {health:?}"
    );
}

/// BENCH_5's 4-shard / 10⁴-bucket machine rate for `pipeline`, read
/// from the committed trajectory file (if present in the CWD).
fn bench5_baseline_rate_for(pipeline: &str) -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_5.json").ok()?;
    let v = serde_json::from_str(&text).ok()?;
    v.get("sharded")?
        .as_array()?
        .iter()
        .find(|r| {
            r.get("pipeline").and_then(|p| p.as_str()) == Some(pipeline)
                && r.get("shards").and_then(|s| s.as_u64()) == Some(4)
                && r.get("buckets").and_then(|b| b.as_u64()) == Some(10_000)
        })?
        .get("machine_msgs_per_sec")?
        .as_f64()
}

/// BENCH_5's 4-shard / 10⁴-bucket `end_to_end` machine rate.
fn bench5_baseline_rate() -> Option<f64> {
    bench5_baseline_rate_for("end_to_end")
}

/// Runs the BENCH_6 supervision-overhead gate: the 4-shard /
/// 10⁴-bucket `end_to_end` row at **full** scale (even under
/// `--quick` — it is the CI acceptance row and takes well under a
/// second), compared against the committed `BENCH_5.json`. Machine
/// rates are CPU-time based (`CLOCK_THREAD_CPUTIME_ID`), so the
/// comparison tolerates background load; the gate still takes the
/// best of up to three attempts before asserting the ≤5% budget.
fn run_supervision_gate() -> Option<SupervisionGate> {
    let Some(baseline) = bench5_baseline_rate() else {
        println!(
            "supervision gate: skipped (no readable BENCH_5.json with a \
             4-shard/10000-bucket end_to_end row in the CWD)\n"
        );
        return None;
    };
    let budget = 0.05;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let row = run_sharded_end_to_end(4, 2, 10_000, 2_000, 5);
        best = best.max(row.machine_msgs_per_sec);
        if 1.0 - best / baseline <= budget {
            break;
        }
    }
    let overhead = 1.0 - best / baseline;
    println!(
        "supervision gate (end_to_end, 4 shards, 10000 buckets): \
         BENCH_5 {} msgs/s → supervised {} msgs/s ({}{:.1}% {})\n",
        with_commas(baseline as u64),
        with_commas(best as u64),
        if overhead >= 0.0 { "+" } else { "-" },
        overhead.abs() * 100.0,
        if overhead >= 0.0 { "overhead" } else { "faster" },
    );
    assert!(
        overhead <= budget,
        "supervised runtime overhead {:.1}% exceeds the {:.0}% BENCH_6 budget \
         (BENCH_5 {:.0} msgs/s, supervised {:.0} msgs/s)",
        overhead * 100.0,
        budget * 100.0,
        baseline,
        best,
    );
    Some(SupervisionGate {
        baseline: "BENCH_5.json sharded[pipeline=end_to_end, shards=4, buckets=10000]"
            .to_string(),
        baseline_machine_msgs_per_sec: baseline,
        supervised_machine_msgs_per_sec: best,
        overhead_frac: overhead,
        budget_frac: budget,
    })
}

/// Runs the BENCH_7 batched-send gate: the 4-shard / 10⁴-bucket
/// `end_to_end_overlapped` row at full scale (even under `--quick` —
/// it is the CI acceptance row), compared against the committed
/// `BENCH_5.json` overlapped row. The batched zero-copy send path
/// must clear a ≥1.15× speedup over the per-record baseline; machine
/// rates are CPU-time based so the comparison tolerates background
/// load, and the gate takes the best of up to three attempts before
/// asserting.
fn run_batched_send_gate() -> Option<BatchedSendGate> {
    let Some(baseline) = bench5_baseline_rate_for("end_to_end_overlapped") else {
        println!(
            "batched-send gate: skipped (no readable BENCH_5.json with a \
             4-shard/10000-bucket end_to_end_overlapped row in the CWD)\n"
        );
        return None;
    };
    let required = 1.15;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let row = run_sharded_end_to_end_overlapped(4, 2, 10_000, 2_000, 10, 3);
        println!(
            "batched-send attempt: {} msgs/s (busy ms: workers {:.1}, proxies {:.1}, \
             shards {:.1})",
            with_commas(row.machine_msgs_per_sec as u64),
            row.workers_busy_ns / 1e6,
            row.proxies_busy_ns / 1e6,
            row.shards_busy_ns / 1e6,
        );
        best = best.max(row.machine_msgs_per_sec);
        if best / baseline >= required {
            break;
        }
    }
    let speedup = best / baseline;
    println!(
        "batched-send gate (end_to_end_overlapped, 4 shards, 10000 buckets): \
         BENCH_5 {} msgs/s → batched {} msgs/s ({:.2}x, floor {:.2}x)\n",
        with_commas(baseline as u64),
        with_commas(best as u64),
        speedup,
        required,
    );
    assert!(
        speedup >= required,
        "batched send path speedup {:.2}x is below the {:.2}x BENCH_7 floor \
         (BENCH_5 {:.0} msgs/s, batched {:.0} msgs/s)",
        speedup,
        required,
        baseline,
        best,
    );
    Some(BatchedSendGate {
        baseline: "BENCH_5.json sharded[pipeline=end_to_end_overlapped, shards=4, buckets=10000]"
            .to_string(),
        baseline_machine_msgs_per_sec: baseline,
        batched_machine_msgs_per_sec: best,
        speedup,
        required_speedup: required,
    })
}

/// The `privapprox-node` binary next to this one (both are cargo bin
/// targets, so a workspace build puts them in the same directory);
/// `None` — and a graceful gate skip — when it was not built.
fn node_binary_beside_exe() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let node = exe.parent()?.join("privapprox-node");
    node.exists().then_some(node)
}

/// Runs the BENCH_8 transport gate: the 4-shard / 10⁴-bucket
/// `end_to_end_overlapped` row over real loopback sockets (spawned
/// `privapprox-node` children) against a fresh in-process run of the
/// identical workload, measured back to back at gate time. The
/// overlapped pipeline is the right basis for a *throughput* gate:
/// with epochs in flight the per-hop socket latency overlaps with
/// compute, so the ratio prices the transport's real cost
/// (serialization + syscalls), not a chain of poll timeouts. Machine
/// rates (BENCH_5 methodology, children priced as stages from
/// `/proc` on-CPU time — see [`TransportGate`]), best of up to three
/// attempts per side; the socket run must be fault-free (its
/// `assert_fault_free` covers reconnects, rejections and retries)
/// and hold the 0.25× floor ([`TransportGate`] derives it from the
/// copy cost an honest wire cannot avoid).
fn run_transport_gate() -> Option<TransportGate> {
    let Some(node) = node_binary_beside_exe() else {
        println!(
            "transport gate: skipped (no privapprox-node binary beside this one; \
             `cargo build --release` builds it)\n"
        );
        return None;
    };
    let required = 0.25;
    let mut inprocess = 0.0f64;
    let mut socket = 0.0f64;
    let mut inprocess_wall = 0.0f64;
    let mut socket_wall = 0.0f64;
    for _ in 0..3 {
        let base = run_sharded_end_to_end_overlapped_with(4, 2, 10_000, 2_000, 10, 3, None);
        let over = run_sharded_end_to_end_overlapped_with(4, 2, 10_000, 2_000, 10, 3, Some(&node));
        println!(
            "transport attempt: in-process {} msgs/s, sockets {} msgs/s \
             (socket bottleneck ms: workers {:.1}, proxy bridges {:.1}, \
             shard bridges {:.1}, busiest child {:.1})",
            with_commas(base.machine_msgs_per_sec as u64),
            with_commas(over.machine_msgs_per_sec as u64),
            over.workers_busy_ns / 1e6,
            over.proxies_busy_ns / 1e6,
            over.shards_busy_ns / 1e6,
            over.children_busy_ns / 1e6,
        );
        inprocess = inprocess.max(base.machine_msgs_per_sec);
        socket = socket.max(over.machine_msgs_per_sec);
        inprocess_wall = inprocess_wall.max(base.wall_msgs_per_sec);
        socket_wall = socket_wall.max(over.wall_msgs_per_sec);
        if socket / inprocess >= required {
            break;
        }
    }
    let ratio = socket / inprocess;
    println!(
        "transport gate (end_to_end_overlapped, 4 shards, 10000 buckets): in-process {} msgs/s \
         → sockets {} msgs/s ({:.2}x, floor {:.2}x)\n",
        with_commas(inprocess as u64),
        with_commas(socket as u64),
        ratio,
        required,
    );
    assert!(
        ratio >= required,
        "socket transport holds only {:.2}x of the in-process machine rate, below the \
         {:.2}x BENCH_8 floor (in-process {:.0} msgs/s, sockets {:.0} msgs/s)",
        ratio,
        required,
        inprocess,
        socket,
    );
    Some(TransportGate {
        baseline: "fresh in-process end_to_end_overlapped run (depth 3), 4 shards, \
                   10000 buckets, measured at gate time"
            .to_string(),
        inprocess_machine_msgs_per_sec: inprocess,
        socket_machine_msgs_per_sec: socket,
        inprocess_wall_msgs_per_sec: inprocess_wall,
        socket_wall_msgs_per_sec: socket_wall,
        ratio,
        required_ratio: required,
    })
}

/// BENCH_7's committed 4-shard / 10⁴-bucket `end_to_end_overlapped`
/// machine rate, read from the trajectory file (if present in the
/// CWD) — the single-query baseline the multi-tenant gate holds
/// against.
fn bench7_baseline_overlapped_rate() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_7.json").ok()?;
    let v = serde_json::from_str(&text).ok()?;
    v.get("sharded")?
        .as_array()?
        .iter()
        .find(|r| {
            r.get("pipeline").and_then(|p| p.as_str()) == Some("end_to_end_overlapped")
                && r.get("shards").and_then(|s| s.as_u64()) == Some(4)
                && r.get("buckets").and_then(|b| b.as_u64()) == Some(10_000)
        })?
        .get("machine_msgs_per_sec")?
        .as_f64()
}

/// One multi-tenant overlapped run: `queries` concurrent tenants
/// admitted into the shared scheduler, each answered by the full
/// population every epoch through `submit_epoch_all`. Returns the
/// sweep row plus the budget-accounting columns (max per-query
/// `ε_zk` spend, retirements — the latter must be zero on the
/// unbounded ledgers the gate runs with).
fn run_sharded_multi_query_overlapped(
    shards: usize,
    proxies: usize,
    buckets: usize,
    population: u64,
    epochs: u64,
    depth: usize,
    queries: usize,
) -> (ShardedRow, f64, usize) {
    // Capacity: the single-query formula scaled by the tenant count —
    // every admitted query puts one record per client per epoch into
    // the shared partitions.
    let partitions = shards.max(1) as u64;
    let capacity = ((depth as u64 + 1) * queries as u64 * population.div_ceil(partitions))
        .max(64) as usize;
    let mut system = ShardedSystem::builder()
        .clients(population)
        .proxies(proxies as u16)
        .shards(shards)
        .workers(shards)
        .pipeline_depth(depth)
        .partition_capacity(capacity)
        .concurrent_queries(queries)
        .seed(0xBEAC4)
        .build();
    system
        .load_numeric_column("rides", "d", |i| (i % 100) as f64)
        .unwrap();
    let qs: Vec<privapprox_types::Query> = (0..queries)
        .map(|_| {
            system
                .analyst()
                .query("SELECT d FROM rides")
                .buckets(AnswerSpec::ranges_with_overflow(0.0, 110.0, buckets - 1))
                .window(60_000, 60_000)
                .params(ExecutionParams::checked(1.0, 0.9, 0.6))
                .submit()
                .expect("query accepted")
        })
        .collect();
    for q in &qs {
        system.admit(q.id).expect("query admitted");
    }
    // Warm-up: one full pipeline fill + flush.
    for _ in 0..depth {
        system.submit_epoch_all().expect("warm-up submit");
    }
    system.flush_epochs().expect("warm-up flush");
    system.drain_results();
    let base = system.busy_profile();
    let wall_start = Instant::now();
    for _ in 0..epochs {
        system.submit_epoch_all().expect("epoch submit");
    }
    system.flush_epochs().expect("epoch flush");
    let wall = wall_start.elapsed().as_secs_f64();
    let results = system.drain_results();
    assert_eq!(
        results.len(),
        queries * epochs as usize,
        "every (query, epoch) window closed"
    );
    for r in &results {
        assert_eq!(r.sample_size, population, "s = 1: everyone answers");
    }
    let (workers, proxies_busy, shards_busy) = stage_deltas(&system.busy_profile(), &base);
    let bottleneck = workers.max(proxies_busy).max(shards_busy);
    assert_fault_free(&mut system);
    let retirements = system.drain_retired().len();
    let max_eps = qs
        .iter()
        .filter_map(|q| system.budget_ledger(q.id).map(|l| l.spent()))
        .fold(0.0f64, f64::max);
    let messages = queries as u64 * population * epochs;
    let row = ShardedRow {
        pipeline: "multi_query_overlapped".to_string(),
        pipeline_depth: depth,
        shards,
        threads: shards,
        proxies,
        buckets,
        messages,
        machine_msgs_per_sec: messages as f64 / bottleneck,
        per_thread_msgs_per_sec: messages as f64 / shards as f64 / bottleneck,
        wall_msgs_per_sec: messages as f64 / wall,
        max_thread_busy_ns: bottleneck * 1e9,
        workers_busy_ns: workers * 1e9,
        proxies_busy_ns: proxies_busy * 1e9,
        shards_busy_ns: shards_busy * 1e9,
        children_busy_ns: 0.0,
    };
    (row, max_eps, retirements)
}

/// Runs the BENCH_9 multi-tenant gate: two concurrent queries on the
/// 4-shard / 10⁴-bucket overlapped row at full scale (even under
/// `--quick` — it is the CI acceptance row), compared against the
/// committed `BENCH_7.json` single-query row. The 2-query schedule
/// moves 2× the baseline's message volume; its aggregate machine
/// rate (total messages ÷ bottleneck thread CPU) must keep ≥ 0.85×
/// of the single-query rate — bounding what multi-tenancy costs per
/// message — with a fault-free `DeployHealth` and zero retirements.
/// Best of up to three attempts before asserting.
fn run_multi_query_gate() -> Option<MultiQueryGate> {
    let Some(baseline) = bench7_baseline_overlapped_rate() else {
        println!(
            "multi-query gate: skipped (no readable BENCH_7.json with a \
             4-shard/10000-bucket end_to_end_overlapped row in the CWD)\n"
        );
        return None;
    };
    let required = 0.85;
    let queries = 2usize;
    let mut best: Option<(ShardedRow, f64, usize)> = None;
    for _ in 0..3 {
        let (row, eps, retired) =
            run_sharded_multi_query_overlapped(4, 2, 10_000, 2_000, 10, 3, queries);
        println!(
            "multi-query attempt: {} msgs/s aggregate over {} tenants (busy ms: \
             workers {:.1}, proxies {:.1}, shards {:.1})",
            with_commas(row.machine_msgs_per_sec as u64),
            queries,
            row.workers_busy_ns / 1e6,
            row.proxies_busy_ns / 1e6,
            row.shards_busy_ns / 1e6,
        );
        let better = best
            .as_ref()
            .map_or(true, |(b, _, _)| row.machine_msgs_per_sec > b.machine_msgs_per_sec);
        if better {
            best = Some((row, eps, retired));
        }
        if best.as_ref().unwrap().0.machine_msgs_per_sec / baseline >= required {
            break;
        }
    }
    let (row, max_eps, retirements) = best.expect("at least one attempt");
    let ratio = row.machine_msgs_per_sec / baseline;
    println!(
        "multi-query gate (multi_query_overlapped, 4 shards, 10000 buckets, {} tenants): \
         BENCH_7 single-query {} msgs/s → aggregate {} msgs/s ({:.2}x, floor {:.2}x; \
         per-query {} msgs/s, max ε_zk spend {:.3}, retirements {})\n",
        queries,
        with_commas(baseline as u64),
        with_commas(row.machine_msgs_per_sec as u64),
        ratio,
        required,
        with_commas((row.machine_msgs_per_sec / queries as f64) as u64),
        max_eps,
        retirements,
    );
    assert_eq!(
        retirements, 0,
        "unbounded ledgers retired a query mid-gate"
    );
    assert!(
        ratio >= required,
        "2-tenant aggregate machine rate holds only {:.2}x of the single-query BENCH_7 \
         row, below the {:.2}x floor (BENCH_7 {:.0} msgs/s, aggregate {:.0} msgs/s)",
        ratio,
        required,
        baseline,
        row.machine_msgs_per_sec,
    );
    Some(MultiQueryGate {
        baseline: "BENCH_7.json sharded[pipeline=end_to_end_overlapped, shards=4, buckets=10000]"
            .to_string(),
        baseline_machine_msgs_per_sec: baseline,
        queries,
        aggregate_machine_msgs_per_sec: row.machine_msgs_per_sec,
        per_query_machine_msgs_per_sec: row.machine_msgs_per_sec / queries as f64,
        wall_msgs_per_sec: row.wall_msgs_per_sec,
        ratio,
        required_ratio: required,
        max_eps_zk_spent_per_query: max_eps,
        retirements,
    })
}

/// BENCH_9's committed 4-shard / 10⁴-bucket `end_to_end_overlapped`
/// machine rate — the fault-free, non-durable baseline the
/// durability gate holds against.
fn bench9_baseline_overlapped_rate() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_9.json").ok()?;
    let v = serde_json::from_str(&text).ok()?;
    v.get("sharded")?
        .as_array()?
        .iter()
        .find(|r| {
            r.get("pipeline").and_then(|p| p.as_str()) == Some("end_to_end_overlapped")
                && r.get("shards").and_then(|s| s.as_u64()) == Some(4)
                && r.get("buckets").and_then(|b| b.as_u64()) == Some(10_000)
        })?
        .get("machine_msgs_per_sec")?
        .as_f64()
}

/// One durable overlapped run plus a crash/recovery timing: returns
/// the sweep row, the end-of-run `(journal_bytes, snapshot_count)`,
/// and the wall milliseconds from constructing the replacement system
/// to draining its first recovered window.
fn run_sharded_durable_overlapped(
    shards: usize,
    proxies: usize,
    buckets: usize,
    population: u64,
    epochs: u64,
    depth: usize,
) -> (ShardedRow, u64, u64, f64) {
    let partitions = shards.max(1) as u64;
    let capacity = ((depth as u64 + 1) * population.div_ceil(partitions)).max(64) as usize;
    let dir = std::env::temp_dir().join(format!(
        "privapprox-bench-durable-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let build = || {
        ShardedSystem::builder()
            .clients(population)
            .proxies(proxies as u16)
            .shards(shards)
            .workers(shards)
            .pipeline_depth(depth)
            .partition_capacity(capacity)
            .durable(&dir)
            .snapshot_every(4)
            .seed(0xBEAC4)
            .build()
    };
    let load = |system: &mut ShardedSystem| {
        system
            .load_numeric_column("rides", "d", |i| (i % 100) as f64)
            .unwrap();
    };
    let mut system = build();
    load(&mut system);
    let query = system
        .analyst()
        .query("SELECT d FROM rides")
        .buckets(AnswerSpec::ranges_with_overflow(0.0, 110.0, buckets - 1))
        .window(60_000, 60_000)
        .params(ExecutionParams::checked(1.0, 0.9, 0.6))
        .submit()
        .expect("query accepted");
    // Warm-up: one full pipeline fill + flush.
    for _ in 0..depth {
        system.submit_epoch(&query).expect("warm-up submit");
    }
    system.flush_epochs().expect("warm-up flush");
    system.drain_results();
    let base = system.busy_profile();
    let wall_start = Instant::now();
    for _ in 0..epochs {
        system.submit_epoch(&query).expect("epoch submit");
    }
    system.flush_epochs().expect("epoch flush");
    let wall = wall_start.elapsed().as_secs_f64();
    let results = system.drain_results();
    assert_eq!(results.len(), epochs as usize, "every epoch closed");
    for r in &results {
        assert_eq!(r.sample_size, population, "s = 1: everyone answers");
    }
    let (workers, proxies_busy, shards_busy) = stage_deltas(&system.busy_profile(), &base);
    let bottleneck = workers.max(proxies_busy).max(shards_busy);
    assert_fault_free(&mut system);
    let health = system.deploy_health();
    let (journal_bytes, snapshot_count) = (health.journal_bytes, health.snapshot_count);

    // Recovery timing: journal one more epoch, crash before it
    // completes, and measure rebuild → first recovered window.
    system.submit_epoch(&query).expect("pre-crash submit");
    system.crash();
    let recovery_start = Instant::now();
    let mut recovered = build();
    load(&mut recovered);
    recovered.resume().expect("recovery from journal");
    recovered.flush_epochs().expect("recovered flush");
    let windows = recovered.drain_results();
    let recovery_ms = recovery_start.elapsed().as_secs_f64() * 1e3;
    assert!(
        !windows.is_empty(),
        "recovery produced no window for the journaled open epoch"
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    let messages = population * epochs;
    let row = ShardedRow {
        pipeline: "end_to_end_overlapped_durable".to_string(),
        pipeline_depth: depth,
        shards,
        threads: shards,
        proxies,
        buckets,
        messages,
        machine_msgs_per_sec: messages as f64 / bottleneck,
        per_thread_msgs_per_sec: messages as f64 / shards as f64 / bottleneck,
        wall_msgs_per_sec: messages as f64 / wall,
        max_thread_busy_ns: bottleneck * 1e9,
        workers_busy_ns: workers * 1e9,
        proxies_busy_ns: proxies_busy * 1e9,
        shards_busy_ns: shards_busy * 1e9,
        children_busy_ns: 0.0,
    };
    (row, journal_bytes, snapshot_count, recovery_ms)
}

/// Runs the BENCH_10 durability gate: the 4-shard / 10⁴-bucket
/// overlapped row at full scale with the durable store on (even under
/// `--quick` — it is the CI acceptance row). Checkpointing must cost
/// ≤ 5% of the machine rate (floor 0.95×) against a **paired fresh
/// fault-free run** measured back to back with each durable attempt;
/// the committed `BENCH_9.json` rate is recorded alongside for
/// trajectory continuity. The crash-recovery timing column rides the
/// durable run. Best paired ratio of up to three attempts before
/// asserting.
fn run_durability_gate() -> Option<DurabilityGate> {
    let Some(committed) = bench9_baseline_overlapped_rate() else {
        println!(
            "durability gate: skipped (no readable BENCH_9.json with a \
             4-shard/10000-bucket end_to_end_overlapped row in the CWD)\n"
        );
        return None;
    };
    let required = 0.95;
    let mut best: Option<(ShardedRow, u64, u64, f64, f64)> = None;
    for _ in 0..3 {
        let fresh = run_sharded_end_to_end_overlapped(4, 2, 10_000, 2_000, 10, 3);
        let (row, journal_bytes, snapshot_count, recovery_ms) =
            run_sharded_durable_overlapped(4, 2, 10_000, 2_000, 10, 3);
        println!(
            "durability attempt: fresh {} msgs/s → durable {} msgs/s ({:.2}x paired), \
             recovery to first window {:.1} ms (journal {} B, {} snapshots; durable \
             busy ms: workers {:.1}, proxies {:.1}, shards {:.1})",
            with_commas(fresh.machine_msgs_per_sec as u64),
            with_commas(row.machine_msgs_per_sec as u64),
            row.machine_msgs_per_sec / fresh.machine_msgs_per_sec,
            recovery_ms,
            journal_bytes,
            snapshot_count,
            row.workers_busy_ns / 1e6,
            row.proxies_busy_ns / 1e6,
            row.shards_busy_ns / 1e6,
        );
        let ratio = row.machine_msgs_per_sec / fresh.machine_msgs_per_sec;
        let better = best
            .as_ref()
            .map_or(true, |(r, .., f)| ratio > r.machine_msgs_per_sec / f);
        if better {
            best = Some((
                row,
                journal_bytes,
                snapshot_count,
                recovery_ms,
                fresh.machine_msgs_per_sec,
            ));
        }
        if best
            .as_ref()
            .map(|(r, .., f)| r.machine_msgs_per_sec / f >= required)
            .unwrap_or(false)
        {
            break;
        }
    }
    let (row, journal_bytes, snapshot_count, recovery_ms, fresh_rate) =
        best.expect("at least one attempt");
    let ratio = row.machine_msgs_per_sec / fresh_rate;
    let committed_ratio = row.machine_msgs_per_sec / committed;
    println!(
        "durability gate (end_to_end_overlapped_durable, 4 shards, 10000 buckets): \
         paired fresh {} msgs/s → durable {} msgs/s ({:.2}x, floor {:.2}x; committed \
         BENCH_9 {} msgs/s, {:.2}x; recovery to first window {:.1} ms)\n",
        with_commas(fresh_rate as u64),
        with_commas(row.machine_msgs_per_sec as u64),
        ratio,
        required,
        with_commas(committed as u64),
        committed_ratio,
        recovery_ms,
    );
    assert!(
        ratio >= required,
        "durable overlapped machine rate holds only {:.2}x of the paired fresh \
         fault-free run, below the {:.2}x floor (fresh {:.0} msgs/s, durable \
         {:.0} msgs/s, committed BENCH_9 {:.0} msgs/s)",
        ratio,
        required,
        fresh_rate,
        row.machine_msgs_per_sec,
        committed,
    );
    Some(DurabilityGate {
        baseline: "fresh fault-free end_to_end_overlapped run (depth 3), 4 shards, \
                   10000 buckets, measured back to back with the durable run"
            .to_string(),
        baseline_machine_msgs_per_sec: fresh_rate,
        committed_bench9_machine_msgs_per_sec: committed,
        durable_machine_msgs_per_sec: row.machine_msgs_per_sec,
        wall_msgs_per_sec: row.wall_msgs_per_sec,
        ratio,
        committed_ratio,
        required_ratio: required,
        journal_bytes,
        snapshot_count,
        recovery_ms_to_first_window: recovery_ms,
    })
}

fn row(
    proxies: usize,
    buckets: usize,
    messages: u64,
    elapsed: std::time::Duration,
) -> ThroughputRow {
    let secs = elapsed.as_secs_f64();
    let share_bytes = (proxies * answer_wire_size(buckets)) as f64;
    ThroughputRow {
        proxies,
        buckets,
        messages,
        msgs_per_sec: messages as f64 / secs,
        bytes_per_sec: messages as f64 * share_bytes / secs,
        ns_per_msg: elapsed.as_nanos() as f64 / messages as f64,
    }
}

fn main() {
    // `--quick`: a shrunken tier-1 CI smoke — every pipeline and its
    // integrity asserts run, nothing is written.
    // `--gate-only`: just the acceptance gates at full scale
    // (supervision + batched send + transport), for fast triage of a
    // gate failure without the whole sweep. Nothing is written.
    let quick = std::env::args().any(|a| a == "--quick");
    let gate_only = std::env::args().any(|a| a == "--gate-only");
    if gate_only {
        println!("Acceptance gates only (--gate-only)\n");
        run_supervision_gate();
        run_batched_send_gate();
        run_transport_gate();
        run_multi_query_gate();
        run_durability_gate();
        println!("--gate-only complete; no trajectory written");
        return;
    }
    let scale = if quick { 20 } else { 1 };
    println!(
        "Throughput sweep{} — round trip, full_answer_pipeline, stage breakdown, sharded\n",
        if quick { " (--quick smoke)" } else { "" }
    );
    let mut round_trip = Vec::new();
    let mut full_answer = Vec::new();
    let mut stage_breakdown = Vec::new();
    for &proxies in &[2usize, 3] {
        for &buckets in &[11usize, 10_000] {
            // Size message counts so each point runs a few hundred ms.
            let messages = (if buckets > 1_000 { 20_000 } else { 400_000 }) / scale;
            round_trip.push(run_round_trip(proxies, buckets, messages));
            full_answer.push(run_full_answer(proxies, buckets, messages));
            stage_breakdown.push(run_stage_breakdown(proxies, buckets, messages));
        }
    }

    // The threaded sweep: 1/2/4 shards at the paper's two answer
    // widths, 2 proxies (the minimum deployment). `end_to_end` rows
    // are epoch-at-a-time (BENCH_4-comparable); the
    // `end_to_end_overlapped` rows run the pipelined runtime at
    // depth 3.
    let mut sharded = Vec::new();
    for &shards in &[1usize, 2, 4] {
        for &buckets in &[11usize, 10_000] {
            let messages = (if buckets > 1_000 { 20_000 } else { 400_000 }) / scale;
            let population = (if buckets > 1_000 { 2_000u64 } else { 20_000 }) / scale as u64;
            let epochs = if quick { 3 } else { 5 };
            let overlapped_epochs = if quick { 4 } else { 10 };
            sharded.push(run_sharded_full_answer(shards, 2, buckets, messages));
            sharded.push(run_sharded_end_to_end(shards, 2, buckets, population, epochs));
            sharded.push(run_sharded_end_to_end_overlapped(
                shards,
                2,
                buckets,
                population,
                overlapped_epochs,
                3,
            ));
        }
    }

    for (name, rows) in [
        ("round_trip", &round_trip),
        ("full_answer_pipeline", &full_answer),
    ] {
        println!("{name}:");
        let mut table = Table::new(&["proxies", "buckets", "msgs/sec", "MB/sec", "ns/msg"]);
        for r in rows.iter() {
            table.row(vec![
                r.proxies.to_string(),
                r.buckets.to_string(),
                with_commas(r.msgs_per_sec as u64),
                format!("{:.1}", r.bytes_per_sec / 1e6),
                format!("{:.0}", r.ns_per_msg),
            ]);
        }
        println!("{}", table.render());
    }

    println!("stage_breakdown (ns/msg):");
    let mut table = Table::new(&[
        "proxies",
        "buckets",
        "sql+bucketize",
        "randomize",
        "encode",
        "split",
        "sum",
    ]);
    for r in stage_breakdown.iter() {
        table.row(vec![
            r.proxies.to_string(),
            r.buckets.to_string(),
            format!("{:.0}", r.sql_bucketize_ns),
            format!("{:.0}", r.randomize_ns),
            format!("{:.0}", r.encode_ns),
            format!("{:.0}", r.split_ns),
            format!("{:.0}", r.stage_sum_ns),
        ]);
    }
    println!("{}", table.render());

    println!("sharded (machine-level = msgs / critical CPU time; overlapped rows = msgs / bottleneck thread):");
    let mut table = Table::new(&[
        "pipeline",
        "depth",
        "shards",
        "buckets",
        "machine msgs/s",
        "per-thread msgs/s",
        "wall msgs/s",
    ]);
    for r in sharded.iter() {
        table.row(vec![
            r.pipeline.clone(),
            r.pipeline_depth.to_string(),
            r.shards.to_string(),
            r.buckets.to_string(),
            with_commas(r.machine_msgs_per_sec as u64),
            with_commas(r.per_thread_msgs_per_sec as u64),
            with_commas(r.wall_msgs_per_sec as u64),
        ]);
    }
    println!("{}", table.render());

    // The acceptance rows run in both modes: `--quick` CI re-asserts
    // the BENCH_6 supervision gate (fault-free supervised runtime
    // within 5% of BENCH_5's end_to_end rate), the BENCH_7
    // batched-send gate (the zero-copy batched send path ≥1.15×
    // BENCH_5's overlapped rate), the BENCH_8 transport gate (the
    // multi-process socket deployment holding ≥0.25× of a fresh
    // in-process run's machine rate) and the BENCH_9 multi-query
    // gate (two concurrent tenants holding ≥0.85× of BENCH_7's
    // single-query overlapped rate in aggregate) and the BENCH_10
    // durability gate (the durable-store overlapped row holding
    // ≥0.95× of BENCH_9's fault-free rate, with the crash-recovery
    // timing column), all on the 4-shard/10⁴-bucket row.
    let supervision = run_supervision_gate();
    let batched_send = run_batched_send_gate();
    let transport = run_transport_gate();
    let multi_query = run_multi_query_gate();
    let durability = run_durability_gate();

    if quick {
        println!("--quick smoke complete; no trajectory written");
        return;
    }
    let report = ThroughputReport {
        bench_revision: 10,
        round_trip_pipeline: "client randomize→encode→split + aggregator join→decode→fold"
            .to_string(),
        full_answer_pipeline:
            "client prepared-SQL (256-row store) + bucketize + randomize + encode + split"
                .to_string(),
        stage_breakdown_pipeline:
            "client answer stages timed in isolation: prepared-SQL+bucketize / randomize \
             (WideRng bulk path) / encode / split (fused keystream-XOR accumulation)"
                .to_string(),
        sharded_pipeline:
            "threaded sweep over the supervised fault-tolerant runtime: full_answer fanned over \
             worker threads, the ShardedSystem runtime epoch-at-a-time (end_to_end: machine = \
             messages / summed stage maxima of CPU time, BENCH_4-comparable), and the overlapped \
             pipelined runtime (end_to_end_overlapped: depth-3 submit/flush over bounded \
             partitions, machine = messages / bottleneck thread CPU time — the dedicated-core \
             wall-clock of the pipelined steady state; BENCH_7: workers publish shares as \
             zero-copy batched appends from pooled Arc slots); every row asserts a fault-free \
             run (zero panics, respawns, partial closes or dead letters); BENCH_9 adds the \
             multi_query gate (two tenants through submit_epoch_all, aggregate machine rate \
             vs the committed BENCH_7 single-query row, per-query rate and budget-retirement \
             accounting); BENCH_10 adds the durability gate (the overlapped row with the \
             durable store on — journaled charges/submits fsynced before sends, close records \
             and periodic snapshots — holding ≥0.95x of BENCH_9's fault-free rate, plus the \
             crash-recovery time-to-first-window column)"
                .to_string(),
        round_trip,
        full_answer,
        stage_breakdown,
        sharded,
        supervision,
        batched_send,
        transport,
        multi_query,
        durability,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    std::fs::write("BENCH_10.json", &json).expect("write BENCH_10.json");
    println!("trajectory written to BENCH_10.json");
    if let Ok(path) = privapprox_bench::save_json("throughput", &report) {
        println!("results copy at {}", path.display());
    }
}
