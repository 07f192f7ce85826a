//! The threaded, sharded deployment runtime — **overlapped epochs**.
//!
//! [`System`](crate::System) is the deterministic *epoch-at-a-time*
//! harness: one thread walks clients → proxies → aggregator in
//! sequence, so every BENCH number it produces is per-core.
//! [`ShardedSystem`] is the same deployment run the way the paper
//! runs it (§5): **N proxy topics** and **M aggregator shards** over
//! *partitioned* broker topics, fed by a pool of client worker
//! threads — and, since the pipelined runtime, the stages run
//! **continuously and concurrently** instead of lock-stepping behind
//! per-epoch barriers. As on the paper's Kafka deployment, a proxy is
//! its topic: a worker publishes each share once, onto its proxy's
//! topic, and the shards subscribe to those topics, so a share makes
//! one hop.
//!
//! # Topology and partition affinity
//!
//! ```text
//! worker threads ──append(partition π(c))───► proxy-i-in[π(c)]   (i = 0..n)
//! shard thread s (owns {p : p % M == s}) ───► join ⟂ decode ⟂ window (free-running)
//! main ──Close(epoch) → merge counts────────► finalize → QueryResult
//! ```
//!
//! Every client `c` is pinned to partition `π(c) = c mod P`; all `n`
//! of its XOR shares travel in partition `π(c)` of their respective
//! proxy topics, and shard `π(c) mod M` owns partition `π(c)` of
//! *every* proxy topic (`Broker::consumer_of`) — so each MID's shares
//! join **shard-locally**, with no cross-shard traffic before the
//! window merge.
//!
//! This file holds the worker threads and the supervisor (scheduler,
//! merge, recovery, health). The proxy and shard roles, their two
//! hostings — a thread of this process or a `privapprox-node` child —
//! and the epoch close policy are in the `stage` module; the command
//! vocabulary both hostings speak is in `control`.
//!
//! # The overlapped pipeline
//!
//! The pre-pipelined runtime ran a global three-phase barrier per
//! epoch (all workers answer → all proxies drain → all shards drain),
//! so the epoch's critical path *summed* the stage maxima. Now:
//!
//! * **proxies need no epoch commands**: a share is on its proxy's
//!   topic as soon as a worker flushes its run, whichever epoch it
//!   belongs to (on the process transport a proxy bridge ships it to
//!   its child as it lands) — a proxy has no epoch state to
//!   synchronize;
//! * **shard threads free-run**: they continuously join/decode/window
//!   records, counting completed decodes **per epoch tag** (the
//!   answer timestamp, which identifies its epoch); an epoch is
//!   closed by a `Close{epoch, expect, watermark}` control message,
//!   which the shard satisfies as soon as its in-flight accounting
//!   shows all `expect` answers tagged with that epoch have been
//!   decoded — records of *later* epochs may already be flowing
//!   through the same shard and are simply accounted under their own
//!   tags;
//! * **the main thread pipelines epochs**: [`ShardedSystem::submit_epoch`]
//!   dispatches epoch `k+1` to the workers without waiting for epoch
//!   `k` to drain, up to the configured
//!   [pipeline depth](ShardedSystemBuilder::pipeline_depth); worker
//!   replies, shard closes and the cross-shard merge happen when the
//!   epoch *completes* (lazily, oldest first).
//!
//! Per-partition **backpressure** (see
//! [`ShardedSystemBuilder::partition_capacity`]) bounds how far a
//! fast stage can run ahead of a slow one in records, on top of the
//! epoch-granular bound the pipeline depth provides — epoch `k+1`'s
//! workers park in the broker instead of flooding a shard still
//! draining epoch `k`.
//!
//! Why the epoch tag is sufficient: within one partition the broker
//! is FIFO **per producer**, but epoch `k+1` shares from one worker
//! may overtake epoch `k` shares from another, so a simple cumulative
//! message count cannot tell a shard when epoch `k` is fully drained.
//! The timestamp does: every answer of an epoch carries that epoch's
//! event timestamp, the timestamps are strictly increasing across
//! submitted epochs, and the per-tag counters are exact regardless of
//! interleaving. Closing epochs in submission order then guarantees
//! every window the watermark sweeps is complete: sliding windows
//! only ever close once every epoch overlapping them has been
//! accounted (earlier epochs closed earlier, later epochs only live
//! in windows ending after this watermark).
//!
//! # Determinism and equivalence
//!
//! `ShardedSystem` produces **byte-identical** `QueryResult`s to
//! `System` for the same configuration, seed for seed, at any shard
//! count *and any pipeline depth*. Four properties compose into that
//! guarantee:
//!
//! 1. every client's answer is a pure function of its seed, the query
//!    and the epoch's timestamp (the answer's RNG is derived from the
//!    three, and
//!    [`Randomizer::randomize_vec_forked`](privapprox_rr::randomize::Randomizer::randomize_vec_forked)
//!    re-forks the bulk generator from it per call), so processing
//!    order, scratch sharing and epoch overlap are irrelevant;
//! 2. window accumulation is commutative counting, so the partition
//!    of answers across shards — and the interleaving of epochs
//!    within a shard — is irrelevant;
//! 3. watermarks advance in epoch order and only after the epoch's
//!    in-flight accounting settles, so every closed window saw
//!    exactly the answers the single-threaded run folds; and
//! 4. estimation ([`finalize_window_into`]) is a pure function of the
//!    merged counts, so summing shard-local counts and finalizing
//!    once equals finalizing a single aggregator's counts.
//!
//! The equivalence is pinned by `tests/sharded_equivalence.rs` across
//! seeds × bucket widths × proxies × shards × **pipeline depths**,
//! including a straggler-shard stress where one shard is artificially
//! delayed while the workers run epochs ahead.
//!
//! # Steady-state allocation
//!
//! Each shard keeps the single-aggregator guarantees: decode scratch,
//! pooled estimators, recycled result shells, allocation-free broker
//! polls. The per-epoch in-flight accounting is a bounded scan list
//! (one entry per epoch concurrently in flight), so the overlapped
//! steady state performs no per-message heap allocation either
//! (extended proof in `crates/core/tests/alloc_steady_state.rs`).
//! Per-epoch *control* traffic (channel messages, reply vectors) is
//! deliberately outside that budget — it is O(threads) per epoch,
//! not O(messages).
//!
//! # Failure model (supervised runtime)
//!
//! Every deployment thread runs under a supervisor: panics are caught
//! ([`std::panic::catch_unwind`]), recorded in a crash log, surfaced
//! as typed [`DeployError`]s from the epoch API (never hangs), and the
//! dead thread is **respawned**:
//!
//! * a **worker** respawns with the same index, hence the same client
//!   ids and RNG seeds, and is sent the loads again so its clients'
//!   tables are rebuilt. That is all of a client's state: an answer's
//!   randomness is derived from the seed and the epoch's timestamp, so
//!   the replacement answers every later epoch exactly as the dead
//!   worker would have, at a cost independent of the epochs behind it;
//! * a **shard** respawns owning its slot's partitions, `{p : p %
//!   shards == s}`, as on the process transport: its
//!   `"aggregator"`-group consumer resumes at the committed offsets,
//!   exactly where the dead shard stopped (no replay, no loss beyond
//!   what died in its windows), and it is pre-registered with every
//!   live query (a shard child's replacement is instead routed to by
//!   the proxy children, once it has every query registered). While
//!   a slot is dead its partitions wait for the replacement;
//! * a **proxy bridge** (process transport) respawns into its own
//!   consumer group, resuming from the committed offset.
//!
//! Epoch closes carry a **deadline**
//! ([`ShardedSystemBuilder::epoch_deadline`]): a close that cannot
//! account for all expected answers in time fires anyway with the
//! decodes at hand — a *partial close*. The estimate stays unbiased
//! because [`finalize_window_into`] scales by `U/n` with `n` the
//! answers actually observed: losing answers degrades the deployment
//! to a smaller effective sampling fraction with a correspondingly
//! wider confidence interval (degrade-to-sampling), never a biased
//! number. Partial closes and lost answers are counted in
//! [`DeployHealth`].
//!
//! Epoch-completion accounting is **global**, not per shard: every
//! decode bumps a shared epoch ledger keyed by epoch tag, and a
//! close is satisfied when the ledger reaches the epoch's total
//! expectation. This keeps closes correct across respawns, where a
//! replacement's re-issued close counts the decodes its predecessor
//! published.
//!
//! Poisoned input (malformed keys, undecodable or unroutable
//! payloads) is counted, and an in-process shard quarantines a copy
//! to a dead-letter topic (see [`Aggregator::set_dead_letter`]);
//! every thread carries a [`Heartbeat`] surfaced through
//! [`ShardedSystem::thread_health`].
//!
//! [`Aggregator::set_dead_letter`]: crate::Aggregator::set_dead_letter
//! [`Heartbeat`]: privapprox_cluster::Heartbeat

use crate::aggregator::{finalize_window_into, QueryResult};
use crate::client::{Client, ClientScratch};
use crate::control::{CloseCmd, ShardCmd, ShardReply};
use crate::error::{CoreError, DeployError};
use crate::feedback::FeedbackController;
use crate::historical::Warehouse;
use crate::initializer::Initializer;
use crate::persist::{
    self, persist_err, CloseRecord, DurableState, OpenEpoch, RecoveredState, SnapshotContents,
};
use crate::proxy::inbound_topic;
use crate::remote;
use crate::stage::{
    spawn_supervised, take_crash, CrashLog, Host, ProxyHandle, Role, ShardHandle,
};
pub use crate::stage::FaultInjector;
use privapprox_store::wal::DEFAULT_SEGMENT_BYTES;
use privapprox_cluster::{FaultPlan, HeartbeatStatus, LinkStats, Watchdog};
use privapprox_rr::estimate::BucketEstimator;
use privapprox_rr::privacy::epsilon_zk;
use privapprox_sql::{ColumnType, Schema, Value};
use privapprox_crypto::xor::SlotPool;
use privapprox_stream::broker::{BatchEntry, Broker, BrokerStats, TopicWriter};
use privapprox_types::ids::AnalystId;
use privapprox_types::{
    AnswerSpec, BitVec, Budget, BudgetLedger, ClientId, ExecutionParams, MessageId, PrivacyBudget,
    ProxyId, Query, QueryBuilder, QueryId, Timestamp, Window,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default epoch deadline: how long a shard waits for an epoch's
/// expected in-flight records before closing partially with what it
/// has — a liveness backstop under correct operation, the
/// degrade-to-sampling trigger under faults. Configurable via
/// [`ShardedSystemBuilder::epoch_deadline`].
const DEFAULT_EPOCH_DEADLINE: Duration = Duration::from_secs(60);

/// Topic poisoned records are quarantined to (drop-oldest bounded at
/// [`DEAD_LETTER_CAP`]; same partition count as the data topics).
pub(crate) const DEAD_LETTER_TOPIC: &str = "dead-letter";

/// Dead-letter quarantine capacity per partition. A poisoned-input
/// storm evicts the *oldest* quarantined records rather than growing
/// without bound; evictions are surfaced as
/// [`DeployHealth::dead_letter_dropped`].
pub(crate) const DEAD_LETTER_CAP: usize = 4_096;

/// How often an idle worker wakes from its command wait to beat its
/// heartbeat.
const WORKER_IDLE_BEAT: Duration = Duration::from_millis(250);

/// Records a worker accumulates per (proxy topic, partition) before
/// flushing the run as one batch append — the lock-amortization
/// grain of the batched send path. Long enough to amortize the
/// partition lock and capacity check to noise, short enough that a
/// run publishes well inside an epoch and the payload slot pools stay
/// small. Clamped to the topic capacity on bounded topics, since a
/// batch wider than the capacity can never publish.
const WORKER_FLUSH_RUN: usize = 64;

/// CPU time consumed by the calling thread so far (Linux:
/// `CLOCK_THREAD_CPUTIME_ID`; elsewhere falls back to wall time,
/// which over-counts blocked waits).
///
/// This is the measurement behind "machine-level" throughput claims:
/// on an unloaded multi-core machine a pinned thread's CPU time
/// equals its wall time, while on an oversubscribed box (CI
/// containers) it still reports what the thread *would* sustain on a
/// dedicated core. For the overlapped pipeline the machine rate is
/// `messages / max over all threads of CPU time` — the wall-clock of
/// the bottleneck stage when every thread has its own core —
/// documented for BENCH_5 in `docs/benchmarks.md`.
pub fn thread_busy_time() -> Duration {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: std links libc on Linux; Timespec matches the ABI
        // layout of struct timespec on 64-bit Linux.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
            return Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32);
        }
    }
    wall_clock_fallback()
}

/// Wall-clock fallback for [`thread_busy_time`] on platforms without
/// a per-thread CPU clock.
fn wall_clock_fallback() -> Duration {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed()
}

/// Static configuration of a threaded sharded deployment.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of client devices.
    pub clients: u64,
    /// Number of proxies, one topic each (≥ 2).
    pub proxies: u16,
    /// Number of aggregator shards (≥ 1).
    pub shards: usize,
    /// Number of client worker threads (≥ 1).
    pub workers: usize,
    /// Partitions per broker topic; `0` means "same as `shards`".
    pub partitions: usize,
    /// Maximum epochs concurrently in flight (≥ 1); see
    /// [`ShardedSystemBuilder::pipeline_depth`].
    pub pipeline_depth: usize,
    /// Per-partition broker backlog bound (`0` = auto-sized to
    /// pipeline-depth + 1 epochs' worth of records); see
    /// [`ShardedSystemBuilder::partition_capacity`].
    pub partition_capacity: usize,
    /// Expected multi-tenant schedule width, used by the capacity
    /// auto-sizing (a scheduled epoch carries one record per client
    /// *per admitted query*); see
    /// [`ShardedSystemBuilder::concurrent_queries`].
    pub concurrent_queries: usize,
    /// Master seed for all client RNGs (same semantics as
    /// [`SystemConfig::seed`](crate::SystemConfig)).
    pub seed: u64,
    /// Confidence level for reported intervals.
    pub confidence: f64,
    /// The analyst's signing key.
    pub analyst_key: u64,
    /// How long an epoch close may wait for its expected answers
    /// before closing partially; see
    /// [`ShardedSystemBuilder::epoch_deadline`].
    pub epoch_deadline: Duration,
    /// Ack-stall threshold before a supervised link proactively
    /// resends its unacked window; see
    /// [`ShardedSystemBuilder::link_resend_after`]. `None` keeps the
    /// link's default (250 ms).
    pub link_resend_after: Option<Duration>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            clients: 100,
            proxies: 2,
            shards: 2,
            workers: 2,
            partitions: 0,
            pipeline_depth: 2,
            partition_capacity: 0,
            concurrent_queries: 1,
            seed: 0,
            confidence: 0.95,
            analyst_key: 0x5EED_0000_CAFE,
            epoch_deadline: DEFAULT_EPOCH_DEADLINE,
            link_resend_after: None,
        }
    }
}

impl ShardedConfig {
    /// Effective partition count (`partitions`, defaulting to
    /// `shards`).
    pub fn effective_partitions(&self) -> usize {
        if self.partitions == 0 {
            self.shards
        } else {
            self.partitions
        }
    }
}

/// How the deployment's proxies and aggregator shards are hosted.
///
/// The epoch protocol, supervision and health roll-up are identical
/// either way — [`ShardedSystem`] drives both through the same handle
/// types, and the equivalence matrix pins the process transport
/// byte-identical to in-process threads.
#[derive(Debug, Clone, Default)]
pub enum TransportMode {
    /// Proxies and shards run as supervised threads sharing this
    /// process's broker (the default).
    #[default]
    InProcess,
    /// Proxies and shards run as spawned `privapprox-node` child
    /// processes reached over loopback TCP, each behind a supervised,
    /// optionally fault-injected link; proxy children hold such a link
    /// to every shard child (see [`crate::remote`]).
    Process {
        /// Path to the `privapprox-node` binary.
        node: PathBuf,
        /// Fault plan applied to the dials of every link, parent →
        /// child and proxy child → shard child
        /// ([`FaultPlan::default`] = clean links).
        faults: FaultPlan,
    },
}

/// Builder for [`ShardedSystem`].
#[derive(Debug, Clone, Default)]
pub struct ShardedSystemBuilder {
    config: ShardedConfig,
    /// `Some(path)` switches the build to process transport.
    node_binary: Option<PathBuf>,
    /// Link fault plan for process transport (ignored in-process).
    link_faults: FaultPlan,
    /// `Some(dir)` enables the durable store (journal + snapshots).
    durable_dir: Option<PathBuf>,
    /// Epoch closes between snapshots (`0` = default of 8).
    snapshot_every: u64,
    /// Journal segment rotation threshold (`0` = store default).
    journal_segment_bytes: u64,
    /// Test hooks (none by default).
    faults: FaultInjector,
}

impl ShardedSystemBuilder {
    /// Enables **durable crash recovery** backed by `dir`: budget
    /// charges are journaled (and fsynced) strictly before the
    /// debit-gated sends of every epoch, each epoch close journals
    /// what its windows counted (recovery recomputes their results
    /// from it), and the full supervisor state (ledgers, schedule,
    /// retained warehouses, undrained results) is snapshotted every
    /// [`snapshot_every`](ShardedSystemBuilder::snapshot_every) closes
    /// with the journal pruned beneath the snapshot floor.
    ///
    /// If `dir` already holds a store, the build loads it and the
    /// system starts **pending recovery**: re-issue the original loads
    /// (closures cannot be journaled), then call
    /// [`ShardedSystem::resume`]. Works under both the in-process and
    /// the process transport — journaling is entirely supervisor-side.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Sets how many epoch closes elapse between snapshots (default
    /// 8). `1` snapshots at every close — the exactness setting for
    /// retained-warehouse recovery; larger intervals trade a longer
    /// journal replay for less checkpoint I/O. Disk usage stays
    /// O(snapshot interval) either way: each snapshot prunes journal
    /// segments below its floor.
    pub fn snapshot_every(mut self, closes: u64) -> Self {
        self.snapshot_every = closes.max(1);
        self
    }

    /// Overrides the journal's segment rotation threshold in bytes
    /// (default 1 MiB). Small segments make the disk bound tight —
    /// pruning deletes whole segments — at the cost of more files.
    pub fn journal_segment_bytes(mut self, bytes: u64) -> Self {
        self.journal_segment_bytes = bytes.max(1 << 12);
        self
    }

    /// Arms the deployment's test hooks (stragglers, injected panics,
    /// dropped traffic, a crash between journal fsync and first send);
    /// see [`FaultInjector`]. Production code never calls this.
    pub fn fault_injector(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Hosts proxies and shards as `privapprox-node` child processes
    /// (spawned from `node`) connected over loopback TCP instead of
    /// in-process threads. Everything else — epoch pipeline,
    /// supervision, respawn, results — behaves identically.
    pub fn process_transport(mut self, node: impl Into<PathBuf>) -> Self {
        self.node_binary = Some(node.into());
        self
    }

    /// Injects deterministic network faults (drop / duplicate / delay
    /// / reorder / cut) into the data frames of every link a share
    /// crosses: parent → proxy child, and each proxy child's link to
    /// each shard child. The parent's control link to a shard child
    /// carries no data frame, so no fault fires there. Only
    /// meaningful together with
    /// [`ShardedSystemBuilder::process_transport`].
    pub fn transport_faults(mut self, plan: FaultPlan) -> Self {
        self.link_faults = plan;
        self
    }
    /// Sets the client population size.
    pub fn clients(mut self, n: u64) -> Self {
        self.config.clients = n;
        self
    }

    /// Sets the number of proxies, one topic each (≥ 2).
    pub fn proxies(mut self, n: u16) -> Self {
        self.config.proxies = n;
        self
    }

    /// Sets the number of aggregator shards (≥ 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.config.shards = n;
        self
    }

    /// Sets the number of client worker threads (≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n;
        self
    }

    /// Sets the broker partition count (defaults to the shard count;
    /// may exceed it, in which case shards own several partitions
    /// each).
    pub fn partitions(mut self, n: usize) -> Self {
        self.config.partitions = n;
        self
    }

    /// Sets the **pipeline depth**: how many epochs may be in flight
    /// at once through [`ShardedSystem::submit_epoch`] before the
    /// oldest is completed. Depth 1 degenerates to epoch-at-a-time
    /// submission; the default of 2 lets workers populate epoch `k+1`
    /// while the shards drain epoch `k`. [`ShardedSystem::run_epoch`]
    /// always flushes, so its per-call semantics are depth-invariant.
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.config.pipeline_depth = depth.max(1);
        self
    }

    /// Bounds every broker partition's backlog to `records` in-flight
    /// records: producers park when a partition is full, and consumed
    /// records are trimmed off the bounded log. This is the
    /// record-granular backpressure under the epoch-granular pipeline
    /// depth: a future epoch's workers cannot flood a shard that is
    /// still draining. Deployment topics are **always** bounded —
    /// `0` (the default) auto-sizes the bound to pipeline-depth + 1
    /// epochs' worth of records per partition.
    pub fn partition_capacity(mut self, records: usize) -> Self {
        self.config.partition_capacity = records;
        self
    }

    /// Declares how many queries the deployment expects to run
    /// concurrently (the multi-tenant schedule width, default 1).
    /// Only the capacity auto-sizing uses it: a scheduled epoch
    /// appends one record per client **per admitted query**, so the
    /// per-partition bound scales accordingly. An explicit
    /// [`ShardedSystemBuilder::partition_capacity`] overrides it.
    pub fn concurrent_queries(mut self, queries: usize) -> Self {
        self.config.concurrent_queries = queries.max(1);
        self
    }

    /// Sets the **epoch deadline**: how long a shard waits for an
    /// epoch's expected answers before closing with the decodes it
    /// has (a *partial close*). The estimate of a partial close stays
    /// unbiased — [`finalize_window_into`] scales by the answers
    /// actually observed, so losing answers widens the confidence
    /// interval exactly as a smaller sampling fraction would
    /// (degrade-to-sampling). Default 60 s.
    pub fn epoch_deadline(mut self, deadline: Duration) -> Self {
        self.config.epoch_deadline = deadline;
        self
    }

    /// Overrides how long a supervised link waits for ack progress
    /// before proactively resending its unacked window (process
    /// transport only; default 250 ms). The resend is a *loss
    /// suspicion* heuristic: on a healthy but heavily oversubscribed
    /// host (e.g. a single-core CI runner with every node process
    /// competing for the same CPU), acks can lag behind the
    /// scheduler rather than the network, and a larger threshold
    /// avoids redundant — though harmless, MID-deduplicated —
    /// resend traffic.
    pub fn link_resend_after(mut self, after: Duration) -> Self {
        self.config.link_resend_after = Some(after);
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the reporting confidence level.
    pub fn confidence(mut self, c: f64) -> Self {
        self.config.confidence = c;
        self
    }

    /// Builds and starts the deployment: creates the (optionally
    /// bounded) topics and spawns the worker, proxy and shard
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; see
    /// [`ShardedSystemBuilder::try_build`] for the typed-error form.
    pub fn build(self) -> ShardedSystem {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ShardedSystemBuilder::build`] reporting an impossible
    /// configuration as [`DeployError::InvalidConfig`] instead of
    /// panicking.
    pub fn try_build(self) -> Result<ShardedSystem, DeployError> {
        let c = self.config;
        let snapshot_every = if self.snapshot_every == 0 {
            8
        } else {
            self.snapshot_every
        };
        let journal_segment_bytes = if self.journal_segment_bytes == 0 {
            DEFAULT_SEGMENT_BYTES
        } else {
            self.journal_segment_bytes
        };
        let invalid = |m: String| Err(DeployError::InvalidConfig(m));
        if c.clients == 0 {
            return invalid("population must be positive".into());
        }
        if c.proxies < 2 {
            return invalid("PrivApprox requires at least two proxies".into());
        }
        if c.shards < 1 {
            return invalid("need at least one aggregator shard".into());
        }
        if c.workers < 1 {
            return invalid("need at least one client worker".into());
        }
        if let Err(m) = self.faults.validate(&c, self.node_binary.is_none()) {
            return invalid(m);
        }
        if c.epoch_deadline.is_zero() {
            return invalid("epoch deadline must be positive".into());
        }
        // Written so that NaN fails too.
        if !(c.confidence > 0.0 && c.confidence < 1.0) {
            return invalid("confidence must be in (0,1)".into());
        }
        let partitions = c.effective_partitions();
        let broker = Broker::new(partitions);
        // A producer parked on a full partition gives up (with a
        // typed `Backpressure` fault) on the same horizon the epoch
        // degrades to sampling: a stalled consumer surfaces as an
        // error plus a partial close, never a wedged producer thread.
        broker.set_backpressure_deadline(c.epoch_deadline.max(Duration::from_millis(10)));
        // Every deployment topic is bounded: an explicit capacity, or
        // the auto-bound of pipeline-depth + 1 epochs' worth of
        // records per partition. Bounded partitions give the pipeline
        // its record-granular backpressure AND log trimming — consumed
        // records drop off the front, so the broker's memory (and the
        // allocator's page-fault rate) stays flat however many epochs
        // stream through.
        let capacity = if c.partition_capacity > 0 {
            c.partition_capacity
        } else {
            ((c.pipeline_depth as u64 + 1)
                * c.concurrent_queries.max(1) as u64
                * c.clients.div_ceil(partitions as u64))
            .max(64) as usize
        };
        // Bounded topics must exist (with their capacity) before the
        // workers/shards auto-create them unbounded. One topic per
        // proxy carries each share once: in-process shards consume it,
        // and proxy bridges ship it to the proxy children, which send
        // it straight to the shard children.
        for i in 0..c.proxies {
            let topic = inbound_topic(ProxyId(i));
            broker.create_topic_with_capacity(&topic, partitions, capacity);
        }
        // The quarantine topic is bounded drop-oldest: poisoned input
        // must never backpressure the healthy pipeline, and a
        // poisoned-input storm must not grow memory without bound —
        // beyond the cap the oldest quarantined records are evicted
        // and counted ([`DeployHealth::dead_letter_dropped`]).
        broker.create_topic_drop_oldest(DEAD_LETTER_TOPIC, partitions, DEAD_LETTER_CAP);

        let host = Host {
            config: c,
            transport: match self.node_binary {
                Some(node) => TransportMode::Process {
                    node,
                    faults: self.link_faults,
                },
                None => TransportMode::InProcess,
            },
            partitions,
            broker,
            crashes: CrashLog::default(),
            ledger: Arc::default(),
            forwarded: Arc::default(),
            watchdog: Watchdog::new(),
            proxy_beats: Vec::new(),
            link_stats: Vec::new(),
            children: Vec::new(),
            routes: Arc::default(),
            shard_wakes: Arc::default(),
            faults: self.faults,
        };
        let mut system = ShardedSystem {
            host,
            workers: Vec::new(),
            proxies: Vec::new(),
            shards: Vec::new(),
            queries: HashMap::new(),
            initializer: Initializer::new(),
            now_ms: 0,
            next_serial: 1,
            in_flight: VecDeque::new(),
            pending: Vec::new(),
            spare_shells: Vec::new(),
            pending_recycle: vec![Vec::new(); c.shards],
            busy: BusyProfile::new(c.workers, c.shards),
            loads: Vec::new(),
            faults: Vec::new(),
            partial_closes: 0,
            lost_answers: 0,
            respawns: 0,
            worker_backpressure: 0,
            admitted: Vec::new(),
            ledgers: HashMap::new(),
            retired: Vec::new(),
            terminal: Vec::new(),
            feedback: HashMap::new(),
            last_error: HashMap::new(),
            retain_set: Vec::new(),
            batch_scratch: None,
            durable: None,
            recovered: None,
            recovered_warehouses: HashMap::new(),
            epochs_closed_total: 0,
            epochs_submitted_total: 0,
        };
        // Shards start first: a proxy child is told where every shard
        // child listens. Each tier's children start together. A failed
        // spawn drops `system`, which stops what was started.
        let spawn_failed = |e: std::io::Error| DeployError::InvalidConfig(e.to_string());
        for w in 0..c.workers {
            let worker = WorkerHandle::spawn(w, &mut system.host);
            system.workers.push(worker);
        }
        if matches!(system.host.transport, TransportMode::InProcess) {
            // A proxy is its topic and runs no thread here: the shards
            // reading the topics beat its heartbeat.
            for i in 0..c.proxies {
                let beat = system.host.watchdog.register(&format!("proxy-{i}"));
                system.host.proxy_beats.push(beat);
            }
        }
        let shards: Vec<usize> = (0..c.shards).collect();
        system.shards = (system.host)
            .spawn_shards(&shards, Vec::new)
            .map_err(spawn_failed)?;
        for (s, shard) in system.shards.iter().enumerate() {
            system.host.publish_route(s, shard.route);
        }
        let proxies: Vec<_> = (0..c.proxies as usize)
            .map(|i| (i, Arc::default()))
            .collect();
        system.proxies = system.host.spawn_proxies(&proxies).map_err(spawn_failed)?;
        if let Some(dir) = self.durable_dir {
            let (durable, recovered) =
                DurableState::open(&dir, journal_segment_bytes, snapshot_every).map_err(|e| {
                    DeployError::Persist {
                        detail: e.to_string(),
                    }
                })?;
            system.durable = Some(durable);
            system.recovered = recovered.map(Box::new);
        }
        Ok(system)
    }
}

// ---------------------------------------------------------------------------
// Worker threads: own a slice of the client population.

/// A replayable load: the worker respawn path re-runs the full load
/// log on the replacement thread (creates replace tables, so replay
/// in order is idempotent), rebuilding every owned client's local
/// store.
#[derive(Clone)]
enum LoadCmd {
    Numeric {
        table: String,
        column: String,
        f: Arc<dyn Fn(usize) -> f64 + Send + Sync>,
    },
    Rows {
        table: String,
        schema: Schema,
        f: Arc<dyn Fn(usize) -> Vec<Vec<Value>> + Send + Sync>,
    },
}

enum WorkerCmd {
    Load(LoadCmd),
    Answer {
        query: Arc<Query>,
        params: ExecutionParams,
        /// The epoch tag: stamps every share and keys the answers' RNG.
        ts: Timestamp,
    },
    /// Chaos hook: panic on receipt.
    Die,
    Shutdown,
}

enum WorkerReply {
    Loaded,
    Answered {
        /// Messages (participating clients) sent, per partition.
        /// Always present — even on error, the shares sent before the
        /// failing client are in the broker and must be accounted for.
        per_partition: Vec<u64>,
        /// The first client-side error, if any (the worker stops at
        /// the first failing client).
        error: Option<CoreError>,
        busy: Duration,
    },
}

struct WorkerHandle {
    cmd: Sender<WorkerCmd>,
    reply: Receiver<WorkerReply>,
    thread: Option<JoinHandle<()>>,
    /// Replies the previous incarnation owed that will never arrive:
    /// a respawned worker knows nothing of the epochs already
    /// submitted to its predecessor, so the completion loop skips
    /// this many recvs (their answers are part of the epoch's lost
    /// count).
    reply_debt: usize,
    /// Permanently retired (respawn disabled or failed, or the thread
    /// wedged past the deadline and cannot be safely replaced).
    dead: bool,
}

impl WorkerHandle {
    /// Spawns worker `w`, owning clients `{i : i % workers == w}`.
    /// Client identities (id, RNG seed) are exactly
    /// [`System`](crate::System)'s, so per-client streams match the
    /// single-threaded harness seed for seed — including across a
    /// respawn, which reuses the same index.
    fn spawn(w: usize, host: &mut Host) -> WorkerHandle {
        let (cmd_tx, cmd_rx) = channel::<WorkerCmd>();
        let (reply_tx, reply_rx) = channel::<WorkerReply>();
        let broker = host.broker.clone();
        let c = host.config;
        let (workers, clients, seed, key, n_proxies, partitions) = (
            c.workers,
            c.clients,
            c.seed,
            c.analyst_key,
            c.proxies as usize,
            host.partitions,
        );
        // Injected fault hooks fire once: a respawn finds the fuse
        // already taken.
        let mut fuse = host.faults.worker_fuse(w);
        let drop_hook = host.faults.drop_hook(c.shards);
        let heartbeat = host.watchdog.register(&format!("worker-{w}"));
        let forwarded = Arc::clone(&host.forwarded);
        let thread =
            spawn_supervised(Role::Worker, w, Arc::clone(&host.crashes), move || {
                let mut owned: Vec<(usize, Client)> = (0..clients)
                    .filter(|i| (*i as usize) % workers == w)
                    .map(|i| (i as usize, Client::new(ClientId(i), seed, key)))
                    .collect();
                let mut scratch = ClientScratch::new();
                // Cached per-topic writers: no topic-name hash per
                // share, and one consumer wakeup per flushed run.
                let writers: Vec<TopicWriter> = (0..n_proxies)
                    .map(|pi| broker.writer(&inbound_topic(ProxyId(pi as u16))))
                    .collect();
                let mut per_partition = vec![0u64; partitions];
                // Batched send state, reused across epochs so the
                // steady state allocates nothing: one pending run
                // per (proxy topic, partition) — all of a
                // message's shares enter their runs together, and
                // a run flushes as ONE all-or-nothing batch
                // append (one partition lock, one capacity check)
                // once it reaches the flush grain. Entries hold
                // refcount clones of the split scratch's payload
                // slots and a pooled 24-byte query-tagged key
                // built once per message — no per-share
                // allocation or copy.
                let mut batches: Vec<Vec<Vec<BatchEntry>>> = (0..n_proxies)
                    .map(|_| vec![Vec::new(); partitions])
                    .collect();
                let mut key_pool = SlotPool::new();
                let flush_run = match writers.first().map(|w| w.capacity()) {
                    Some(cap) if cap > 0 => WORKER_FLUSH_RUN.min(cap),
                    _ => WORKER_FLUSH_RUN,
                };
                // Flushes one partition's pending runs across all
                // proxy topics; returns the number of messages
                // published. Each topic's run is all-or-nothing;
                // if topic `j` hits its backpressure deadline,
                // topics `< j` have already published this run
                // (those share sets expire at the join, exactly
                // like the pre-batching failure path) and the
                // run's messages stay uncounted.
                // A run's shares are counted as forwarded before
                // they are published, so a shard never decodes an
                // uncounted share; a run that stalls unpublished
                // is taken back out.
                // Every flushed run wakes its topic's consumer, so
                // an epoch streams through the stages while it is
                // still being answered. A consumer that is awake
                // costs the notify two atomic operations; only
                // one that caught up and parked is rung.
                let flush_partition = |writers: &[TopicWriter],
                                       batches: &mut [Vec<Vec<BatchEntry>>],
                                       partition: usize|
                 -> Result<u64, CoreError> {
                    let n = batches[0][partition].len() as u64;
                    for (pi, writer) in writers.iter().enumerate() {
                        forwarded.fetch_add(n, Ordering::Relaxed);
                        let run = &mut batches[pi][partition];
                        if let Err(e) = writer.try_append_batch(partition, run) {
                            forwarded.fetch_sub(n, Ordering::Relaxed);
                            return Err(e.into());
                        }
                        writer.notify();
                    }
                    Ok(n)
                };
                loop {
                    heartbeat.beat();
                    let cmd = match cmd_rx.recv_timeout(WORKER_IDLE_BEAT) {
                        Ok(cmd) => cmd,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    };
                    match cmd {
                        WorkerCmd::Load(LoadCmd::Numeric { table, column, f }) => {
                            for (i, client) in &mut owned {
                                let db = client.db_mut();
                                db.create_table(
                                    &table,
                                    Schema::new(vec![
                                        ("ts", ColumnType::Int),
                                        (column.as_str(), ColumnType::Float),
                                    ]),
                                );
                                db.insert(&table, vec![Value::Int(0), Value::Float(f(*i))])
                                    .expect("schema arity");
                            }
                            let _ = reply_tx.send(WorkerReply::Loaded);
                        }
                        WorkerCmd::Load(LoadCmd::Rows { table, schema, f }) => {
                            for (i, client) in &mut owned {
                                let db = client.db_mut();
                                db.create_table(&table, schema.clone());
                                for row in f(*i) {
                                    db.insert(&table, row).expect("schema arity");
                                }
                            }
                            let _ = reply_tx.send(WorkerReply::Loaded);
                        }
                        WorkerCmd::Answer { query, params, ts } => {
                            let t0 = thread_busy_time();
                            let qtag = query.id.to_u64().to_be_bytes();
                            per_partition.iter_mut().for_each(|n| *n = 0);
                            // One signature check for the whole
                            // population: the query is a single
                            // immutable value, so the per-client
                            // verdicts cannot differ, and verify
                            // consumes no RNG — answers stay
                            // byte-identical to per-client
                            // verification. A forgery surfaces
                            // exactly like the first client
                            // failing (zero sent, error reply).
                            let mut failure = if query.verify(key) {
                                None
                            } else {
                                Some(CoreError::BadSignature)
                            };
                            'clients: for (i, client) in &mut owned {
                                if failure.is_some() {
                                    break;
                                }
                                match client.answer_query_into_preverified(
                                    &query,
                                    &params,
                                    ts,
                                    n_proxies,
                                    &mut scratch,
                                ) {
                                    Ok(None) => {}
                                    Ok(Some(shares)) => {
                                        let partition = *i % partitions;
                                        let dropped = drop_hook
                                            .is_some_and(|(s, m)| partition % m == s);
                                        if dropped {
                                            // Accounted but never sent —
                                            // the drop-traffic fault.
                                            per_partition[partition] += 1;
                                        } else {
                                            // One pooled 24-byte key per
                                            // message — query tag (u64
                                            // BE) ‖ MID — refcounted
                                            // across its n shares;
                                            // payloads ride by refcount
                                            // from the split scratch's
                                            // slots.
                                            let mut key = key_pool.acquire(24);
                                            let slot = Arc::get_mut(&mut key)
                                                .expect("acquired key slot is unique");
                                            slot[..8].copy_from_slice(&qtag);
                                            slot[8..].copy_from_slice(
                                                &shares[0].mid.to_bytes(),
                                            );
                                            for (pi, share) in shares.iter().enumerate()
                                            {
                                                batches[pi][partition].push((
                                                    Some(Arc::clone(&key)),
                                                    Arc::clone(&share.payload),
                                                    ts,
                                                ));
                                            }
                                            key_pool.release(key);
                                            if batches[0][partition].len() >= flush_run {
                                                match flush_partition(
                                                    &writers,
                                                    &mut batches,
                                                    partition,
                                                ) {
                                                    Ok(n) => per_partition[partition] += n,
                                                    Err(e) => {
                                                        // The run's messages stay
                                                        // unaccounted; any topic
                                                        // already flushed leaves
                                                        // expired joins.
                                                        failure = Some(e);
                                                        break 'clients;
                                                    }
                                                }
                                            }
                                        }
                                        if let Some(n) = fuse.as_mut() {
                                            if *n <= 1 {
                                                panic!("injected worker fault");
                                            }
                                            *n -= 1;
                                        }
                                    }
                                    Err(e) => {
                                        failure = Some(e);
                                        break;
                                    }
                                }
                            }
                            if failure.is_none() {
                                // Drain the partial runs; a failure here
                                // surfaces like a mid-epoch one.
                                for partition in 0..partitions {
                                    if batches[0][partition].is_empty() {
                                        continue;
                                    }
                                    match flush_partition(&writers, &mut batches, partition)
                                    {
                                        Ok(n) => per_partition[partition] += n,
                                        Err(e) => {
                                            failure = Some(e);
                                            break;
                                        }
                                    }
                                }
                            }
                            // On failure, abandon whatever runs remain:
                            // clearing drops the payload/key refcounts so
                            // the scratch slots recycle, and the next
                            // epoch starts from clean batches.
                            for topic_batches in &mut batches {
                                for b in topic_batches {
                                    b.clear();
                                }
                            }
                            let busy = thread_busy_time().saturating_sub(t0);
                            // Counts always travel with the reply,
                            // error or not: shares sent *before* a
                            // failing client are already in the
                            // broker, and the epoch-tagged close is
                            // what lets a later epoch run from
                            // consistent counts.
                            let _ = reply_tx.send(WorkerReply::Answered {
                                per_partition: per_partition.clone(),
                                error: failure,
                                busy,
                            });
                        }
                        WorkerCmd::Die => panic!("injected worker fault"),
                        WorkerCmd::Shutdown => break,
                    }
                }
            });
        WorkerHandle {
            cmd: cmd_tx,
            reply: reply_rx,
            thread: Some(thread),
            reply_debt: 0,
            dead: false,
        }
    }
}

// ---------------------------------------------------------------------------
// The deployment.

/// Accumulated per-thread CPU time over a deployment's lifetime —
/// the instrumentation behind machine-level throughput reporting
/// (see [`thread_busy_time`]).
#[derive(Debug, Clone)]
pub struct BusyProfile {
    /// Per client-worker CPU time in the answer stage.
    pub workers: Vec<Duration>,
    /// Per proxy-bridge CPU time (shipping plus the free-running poll
    /// loop). Empty in-process, where a proxy is its topic and runs no
    /// thread.
    pub proxies: Vec<Duration>,
    /// Per shard-thread CPU time (drain/close plus the free-running
    /// poll loop).
    pub shards: Vec<Duration>,
}

impl BusyProfile {
    fn new(workers: usize, shards: usize) -> BusyProfile {
        BusyProfile {
            workers: vec![Duration::ZERO; workers],
            proxies: Vec::new(),
            shards: vec![Duration::ZERO; shards],
        }
    }

    /// The critical path of a *barrier-synchronized* pass:
    /// `max(workers) + max(proxies) + max(shards)` — what an epoch
    /// costs when the stages run one after another (the BENCH_4
    /// methodology, kept for like-for-like comparisons).
    pub fn critical_path(&self) -> Duration {
        let max = |v: &[Duration]| v.iter().copied().max().unwrap_or(Duration::ZERO);
        max(&self.workers) + max(&self.proxies) + max(&self.shards)
    }

    /// The busiest single thread — the critical resource of the
    /// **overlapped** pipeline: with one core per thread and the
    /// stages running concurrently, steady-state wall time converges
    /// to this, so `messages / bottleneck()` is the pipelined machine
    /// rate (the BENCH_5 methodology).
    pub fn bottleneck(&self) -> Duration {
        self.workers
            .iter()
            .chain(&self.proxies)
            .chain(&self.shards)
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

/// One submitted, not-yet-completed epoch.
struct InFlightEpoch {
    /// The epoch tag: the event timestamp every answer of this epoch
    /// carries.
    epoch: Timestamp,
    /// The watermark closing the epoch's windows.
    watermark: Timestamp,
    /// Worker commands issued for this epoch — one per scheduled
    /// query — so completion knows how many `Answered` replies each
    /// worker owes.
    cmds: usize,
    /// Journal index of this epoch's first record (charge or
    /// submitted). A snapshot taken while the epoch is open must not
    /// prune below this: recovery rebuilds open epochs from exactly
    /// these records. `0` when the deployment is not durable.
    journal_mark: u64,
}

/// A threaded, sharded in-process PrivApprox deployment with
/// overlapped-epoch pipelining (see the module docs for topology,
/// the pipeline protocol and guarantees). Drives the same query-epoch
/// surface as [`System`](crate::System) — `analyst()`, `load_*`,
/// `run_epoch`, `drain_results` — and produces byte-identical
/// results; [`ShardedSystem::submit_epoch`]/[`ShardedSystem::flush_epochs`]
/// expose the pipelined form.
pub struct ShardedSystem {
    /// Shape, transport, broker and the supervision state every stage
    /// reports into — what starting (or restarting) a stage needs.
    host: Host,
    workers: Vec<WorkerHandle>,
    proxies: Vec<ProxyHandle>,
    shards: Vec<ShardHandle>,
    /// Registered queries. Shared, not cloned: every worker command
    /// of an epoch points at the one registered definition (10⁴
    /// bucket rules on a wide query).
    queries: HashMap<QueryId, (Arc<Query>, ExecutionParams)>,
    initializer: Initializer,
    /// The shared event clock, advanced exactly like `System`'s.
    now_ms: u64,
    next_serial: u32,
    /// Submitted epochs not yet completed, oldest first.
    in_flight: VecDeque<InFlightEpoch>,
    /// Closed, merged windows not yet returned.
    pending: Vec<QueryResult>,
    /// Recycled result shells for the merge step.
    spare_shells: Vec<QueryResult>,
    /// Estimators consumed by the last merge, owed back to each shard
    /// with its next close command.
    pending_recycle: Vec<Vec<BucketEstimator>>,
    /// Cumulative per-thread busy time (workers accumulate deltas;
    /// shard slots hold the latest cumulative reading; proxy-bridge
    /// times live in the handles' atomics).
    busy: BusyProfile,
    /// Every load ever issued, in order: what a respawned worker is
    /// sent to rebuild its clients' tables.
    loads: Vec<LoadCmd>,
    /// Deployment faults observed so far (panics, wedges, respawn
    /// failures), oldest first.
    faults: Vec<DeployError>,
    /// Epochs that closed with fewer answers than expected.
    partial_closes: u64,
    /// Answers expected but never accounted across all partial
    /// closes.
    lost_answers: u64,
    /// Threads respawned so far.
    respawns: u64,
    /// Worker batch flushes that hit the backpressure deadline
    /// (reported through epoch replies, tallied here).
    worker_backpressure: u64,
    /// Multi-tenant schedule: queries admitted to
    /// [`ShardedSystem::submit_epoch_all`], in admission order.
    admitted: Vec<QueryId>,
    /// Per-query privacy-budget spend ledgers (unbounded unless
    /// [`ShardedSystem::set_budget`] assigned a cap).
    ledgers: HashMap<QueryId, BudgetLedger>,
    /// Typed terminal results of budget-retired queries, each
    /// reported exactly once via [`ShardedSystem::drain_retired`].
    retired: Vec<Retirement>,
    /// Every query ever retired (permanent — draining the terminal
    /// results must not let a spent query back into the schedule).
    terminal: Vec<QueryId>,
    /// Per-query feedback controllers (opt-in).
    feedback: HashMap<QueryId, FeedbackController>,
    /// Worst relative CI bound of each query's most recently
    /// finalized window — the feedback signal.
    last_error: HashMap<QueryId, f64>,
    /// Queries whose shards retain decoded answers for batch queries.
    retain_set: Vec<QueryId>,
    /// Recycled estimator for the batch-query path (the pooled
    /// estimator lifecycle the historical regression suite pins).
    batch_scratch: Option<BucketEstimator>,
    /// The durable store (journal + snapshots), when enabled.
    durable: Option<DurableState>,
    /// State reconstructed from the store at build time, consumed by
    /// [`ShardedSystem::resume`].
    recovered: Option<Box<RecoveredState>>,
    /// Retained-warehouse contents recovered from the last snapshot,
    /// merged into [`ShardedSystem::batch_query`] answers (the shards'
    /// in-memory stores die with the crash).
    recovered_warehouses: HashMap<QueryId, persist::Retained>,
    /// Lifetime epoch closes (snapshot meta; survives restarts).
    epochs_closed_total: u64,
    /// Lifetime submitted epochs (drives the crash-injection hook).
    epochs_submitted_total: u64,
}

/// The typed terminal result of a query retired mid-stream by budget
/// exhaustion: its ledger rejected an epoch's `ε_zk` debit, so the
/// query left the schedule having sent nothing that epoch. Reported
/// exactly once via [`ShardedSystem::drain_retired`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retirement {
    /// The retired query.
    pub query: QueryId,
    /// Total ε spent across the query's lifetime (≤ `allocated`).
    pub spent: f64,
    /// The lifetime allowance the ledger enforced.
    pub allocated: f64,
    /// Epochs the query answered before exhaustion.
    pub epochs: u64,
}

/// The typed refusal of a retired query, from `admit` and from every
/// epoch entry point alike.
fn retired(query: QueryId) -> CoreError {
    CoreError::Deploy(DeployError::InvalidConfig(format!(
        "query {query:?} was retired: its privacy budget is spent"
    )))
}

/// A deployment-wide health snapshot: the aggregator quad plus the
/// quarantine, degradation and supervision counters. See
/// [`ShardedSystem::deploy_health`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeployHealth {
    /// Records that failed decode (malformed / corrupt shares).
    pub undecodable: u64,
    /// Decoded answers for unregistered queries.
    pub unroutable: u64,
    /// Duplicate shares dropped by the joiner.
    pub duplicates: u64,
    /// Joins evicted incomplete after the join timeout.
    pub expired_joins: u64,
    /// Poisoned shares quarantined: every undecodable or unroutable
    /// one, on either transport (only in-process shards keep copies,
    /// on the dead-letter topic; a shard child counts and keeps none).
    pub dead_lettered: u64,
    /// Decoded answers dropped behind the watermark (e.g. records
    /// arriving after their epoch partially closed).
    pub late_answers: u64,
    /// Epochs that closed on their deadline with fewer answers than
    /// expected (each one degraded to a smaller effective sample).
    pub partial_closes: u64,
    /// Answers expected but never accounted across partial closes.
    pub lost_answers: u64,
    /// Worker threads that panicked or wedged.
    pub worker_panics: u64,
    /// Shard threads that panicked or wedged.
    pub shard_panics: u64,
    /// Proxy bridges (process transport) that panicked; in-process a
    /// proxy is its topic and runs no thread.
    pub proxy_panics: u64,
    /// Threads respawned.
    pub respawns: u64,
    /// Backpressure deadlines hit by producers: worker batch flushes
    /// that gave up at the deadline, their run left unpublished.
    pub backpressure_stalls: u64,
    /// Socket links re-dialed after a severed connection (process
    /// transport; always zero in-process).
    pub reconnects: u64,
    /// `Reject(Overloaded)` frames received on the deployment's links
    /// (the parent's, and each proxy child's to the shard children):
    /// data frames a node bounced for running more than its in-flight
    /// cap past the stream's ack floor. A dial the front door refuses
    /// at its connection cap is a failed dial, not counted here.
    pub rejections: u64,
    /// Unacknowledged frames retransmitted after a resend stall.
    pub retries: u64,
    /// Poisoned records evicted from the bounded dead-letter topic to
    /// admit newer ones (drop-oldest overflow). Only in-process shards
    /// keep copies there; a shard child counts its quarantined shares
    /// in [`DeployHealth::dead_lettered`] and keeps none.
    pub dead_letter_dropped: u64,
    /// Successful crash recoveries of the durable store directory
    /// (persisted in snapshot meta, so it survives further restarts).
    /// Zero when the deployment is not durable.
    pub recoveries: u64,
    /// On-disk bytes of the recovery journal: live WAL segments plus
    /// the unsynced append buffer. Bounded to O(snapshot interval) by
    /// segment pruning at each snapshot.
    pub journal_bytes: u64,
    /// Snapshot files currently retained on disk (the newest plus one
    /// predecessor kept as a fallback).
    pub snapshot_count: u64,
}

impl ShardedSystem {
    /// Starts building a deployment.
    pub fn builder() -> ShardedSystemBuilder {
        ShardedSystemBuilder::default()
    }

    /// The configuration.
    pub fn config(&self) -> &ShardedConfig {
        &self.host.config
    }

    /// Replaces the initializer (e.g. to set a privacy ceiling).
    pub fn set_initializer(&mut self, init: Initializer) {
        self.initializer = init;
    }

    /// The partition a client is pinned to: `c mod partitions`.
    pub fn partition_of(&self, client: u64) -> usize {
        (client % self.host.partitions as u64) as usize
    }

    /// The shard owning a partition: `p mod shards`, on both
    /// transports and across respawns.
    pub fn shard_of_partition(&self, partition: usize) -> usize {
        partition % self.host.config.shards
    }

    /// Number of epochs currently in flight (submitted, not yet
    /// completed).
    pub fn in_flight_epochs(&self) -> usize {
        self.in_flight.len()
    }

    /// Populates every client with a one-row table holding a numeric
    /// column, exactly like
    /// [`System::load_numeric_column`](crate::System::load_numeric_column).
    /// Completes any in-flight epochs first: loads must not reorder
    /// around pending answer commands. The load is logged, so
    /// respawned workers rebuild it.
    pub fn load_numeric_column<F>(&mut self, table: &str, column: &str, f: F) -> Result<(), CoreError>
    where
        F: Fn(usize) -> f64 + Send + Sync + 'static,
    {
        self.apply_load(LoadCmd::Numeric {
            table: table.to_string(),
            column: column.to_string(),
            f: Arc::new(f),
        })
    }

    /// Populates every client with arbitrary rows, exactly like
    /// [`System::load_rows`](crate::System::load_rows). Completes any
    /// in-flight epochs first; logged for respawned workers.
    pub fn load_rows<F>(&mut self, table: &str, schema: Schema, f: F) -> Result<(), CoreError>
    where
        F: Fn(usize) -> Vec<Vec<Value>> + Send + Sync + 'static,
    {
        self.apply_load(LoadCmd::Rows {
            table: table.to_string(),
            schema,
            f: Arc::new(f),
        })
    }

    /// Sends a load to every live worker and waits for the acks. A
    /// worker dying mid-load is respawned — and the respawn replays
    /// the full load log, which already includes this load, so the
    /// replacement comes back fully populated.
    fn apply_load(&mut self, load: LoadCmd) -> Result<(), CoreError> {
        let _ = self.flush_epochs();
        self.repair();
        // Log before sending: a respawn triggered below must replay
        // this load too.
        self.loads.push(load.clone());
        for w in &self.workers {
            if w.dead {
                continue;
            }
            let _ = w.cmd.send(WorkerCmd::Load(load.clone()));
        }
        let mut result = Ok(());
        for wi in 0..self.workers.len() {
            if self.workers[wi].dead {
                continue;
            }
            match self.workers[wi].reply.recv_timeout(self.control_wait()) {
                Ok(WorkerReply::Loaded) => {}
                Ok(WorkerReply::Answered { .. }) => unreachable!("load expects Loaded"),
                Err(err) => {
                    let fault = self.stage_down(Role::Worker, wi, err);
                    if result.is_ok() {
                        result = Err(fault.into());
                    }
                    // A successful respawn replayed the log (this
                    // load included), so the deployment is whole
                    // again even though the fault is reported.
                    if self.respawn_worker(wi).is_ok() {
                        result = Ok(());
                    }
                }
            }
        }
        result
    }

    /// Opens an analyst session for query submission.
    pub fn analyst(&mut self) -> ShardedAnalystSession<'_> {
        ShardedAnalystSession {
            system: self,
            sql: String::new(),
            buckets: None,
            budget: Budget::default_accuracy(),
            window: None,
            explicit_params: None,
        }
    }

    /// The execution parameters currently assigned to a query.
    pub fn params(&self, id: QueryId) -> Option<ExecutionParams> {
        self.queries.get(&id).map(|(_, p)| *p)
    }

    /// Registers a signed query with explicit parameters on every
    /// shard (the lower-level path under
    /// [`ShardedAnalystSession::submit`]). Completes any in-flight
    /// epochs first so registration cannot interleave with pending
    /// closes. A shard dying mid-registration is respawned
    /// pre-registered (respawns register every known query), so the
    /// deployment never runs with a query known to some shards only.
    pub fn register(&mut self, query: Query, params: ExecutionParams) -> Result<(), CoreError> {
        self.register_shared(Arc::new(query), params)
    }

    /// [`ShardedSystem::register`] for a definition that is already
    /// shared (a retune or a retention switch re-registers the query
    /// it holds).
    fn register_shared(
        &mut self,
        query: Arc<Query>,
        params: ExecutionParams,
    ) -> Result<(), CoreError> {
        let _ = self.flush_epochs();
        self.repair();
        // Record before sending: a respawn triggered below registers
        // from this map, covering the in-flight registration.
        self.queries.insert(query.id, (Arc::clone(&query), params));
        // Journal before the shard sends: a crash mid-registration
        // recovers the query (re-registration appends a fresh record;
        // the latest wins at replay).
        if self.durable.is_some() {
            let rec = persist::rec_registered(
                &query,
                params,
                self.retain_set.contains(&query.id),
                self.next_serial as u64,
            );
            self.journal(persist::K_REGISTERED, rec)?;
            self.journal_sync()?;
        }
        for shard in &self.shards {
            if shard.dead {
                continue;
            }
            let _ = shard.cmd.send(ShardCmd::Register {
                query: Arc::clone(&query),
                params,
                population: self.host.config.clients,
                retain: self.retain_set.contains(&query.id),
            });
        }
        self.host.wake_shards();
        let mut result = Ok(());
        for s in 0..self.shards.len() {
            if self.shards[s].dead {
                continue;
            }
            match self.shards[s].reply.recv_timeout(self.control_wait()) {
                Ok(ShardReply::Registered) => {}
                Ok(_) => unreachable!("register expects Registered"),
                Err(err) => {
                    let fault = self.stage_down(Role::Shard, s, err);
                    if result.is_ok() {
                        result = Err(fault.into());
                    }
                    if self.respawn_shard(s).is_ok() {
                        result = Ok(());
                    }
                }
            }
        }
        result
    }

    /// Submits one epoch of a query into the pipeline: the workers
    /// start answering immediately, while proxies forward and shards
    /// drain whatever earlier epochs are still in flight. If the
    /// pipeline is at [depth](ShardedSystemBuilder::pipeline_depth),
    /// the oldest epoch is completed first (its windows land in the
    /// [`ShardedSystem::drain_results`] buffer, and its client error —
    /// if any — is returned here).
    ///
    /// This is [`ShardedSystem::submit_epoch_all`] over a schedule of
    /// one, under the same budget rule: the epoch is charged
    /// `ε_zk(s, p, q)` before any send; a query whose ledger cannot
    /// cover the debit is retired instead — nothing is sent, `Ok` is
    /// returned and its [`Retirement`] surfaces via
    /// [`ShardedSystem::drain_retired`] — and a retired query is
    /// refused with the typed error [`ShardedSystem::admit`] returns.
    /// A query without a [`ShardedSystem::set_budget`] is metered on
    /// an unbounded ledger and never retired.
    pub fn submit_epoch(&mut self, query: &Query) -> Result<(), CoreError> {
        self.submit_charged(&[query.id])
    }

    /// The budget pass, and the only way a fresh epoch reaches the
    /// dispatcher: [`ShardedSystem::submit_epoch`] runs it over one
    /// query, [`ShardedSystem::submit_epoch_all`] over the admitted
    /// set. A retired or unknown id is refused. Every other query is
    /// debited `ε_zk` strictly before any worker command — against the
    /// unbounded ledger its first epoch creates when it has no budget
    /// — so a query whose ledger cannot cover the debit is retired
    /// (one [`Retirement`], one `Retired` record, out of the schedule
    /// for good) having sent nothing, and the epoch goes ahead with
    /// the rest. With no survivors nothing is submitted.
    fn submit_charged(&mut self, schedule: &[QueryId]) -> Result<(), CoreError> {
        let mut batch = Vec::with_capacity(schedule.len());
        for &qid in schedule {
            if self.terminal.contains(&qid) {
                return Err(retired(qid));
            }
            // The epoch runs the definition registered under this id —
            // the one the shards aggregate with — shared, not cloned.
            let (query, params) = self.queries.get(&qid).ok_or(CoreError::UnknownQuery)?;
            let eps = epsilon_zk(params.s, params.p, params.q);
            let unbounded = BudgetLedger::new(PrivacyBudget::unbounded());
            match self.ledgers.entry(qid).or_insert(unbounded).try_charge(eps) {
                Ok(()) => batch.push((Arc::clone(query), *params)),
                Err(exhausted) => {
                    let retirement = Retirement {
                        query: qid,
                        spent: exhausted.spent,
                        allocated: exhausted.allocated,
                        epochs: exhausted.epochs,
                    };
                    self.admitted.retain(|q| *q != qid);
                    self.terminal.push(qid);
                    self.retired.push(retirement);
                    self.journal(persist::K_RETIRED, persist::rec_retired(&retirement))?;
                }
            }
        }
        if batch.is_empty() {
            // No epoch sync will follow: make any retirement durable now.
            return self.journal_sync();
        }
        self.dispatch_epoch(&batch, None)
    }

    /// The one epoch dispatcher, under the budget pass (a fresh epoch,
    /// its ledgers already debited) and the recovery re-run of an open
    /// epoch (its original `stamps`; the debits are already in the
    /// restored ledgers).
    ///
    /// A fresh epoch first waits for room in the pipeline and takes
    /// the next step of the shared event clock (`admit` validated the
    /// equal window sizes). Then, in this order: one `Charge` per
    /// entry, read from the entry's ledger, plus the epoch's
    /// `Submitted` record are journaled under ONE fsync (a re-run
    /// journals its `Submitted` alone) — the durable barrier, strictly
    /// before the first worker send, so a crash can never lose an
    /// epoch whose shares escaped: after the sync it re-runs the epoch
    /// without re-charging, before it leaves (at worst) orphan charges
    /// that reconstruction drops, and the recovered spend can only
    /// under-report, never over-spend ε; the crash hook; the batch
    /// goes to every live worker; the epoch enters the in-flight
    /// queue.
    fn dispatch_epoch(
        &mut self,
        batch: &[(Arc<Query>, ExecutionParams)],
        stamps: Option<(Timestamp, Timestamp)>,
    ) -> Result<(), CoreError> {
        let mut result = Ok(());
        let (ts, watermark) = match stamps {
            Some(recovered) => recovered,
            None => {
                while self.in_flight.len() >= self.host.config.pipeline_depth.max(1) {
                    let r = self.complete_oldest(false);
                    if result.is_ok() {
                        result = r;
                    }
                }
                let window_size = batch[0].0.window.size;
                let epoch_start = self.now_ms.div_ceil(window_size) * window_size;
                (
                    Timestamp(epoch_start + window_size / 2),
                    Timestamp(epoch_start + window_size),
                )
            }
        };
        self.now_ms = self.now_ms.max(watermark.0);
        let journal_mark = self.durable.as_ref().map_or(0, |d| d.wal.next_index());
        if self.durable.is_some() {
            let charged = if stamps.is_none() { batch } else { &[] };
            for (query, params) in charged {
                let ledger = &self.ledgers[&query.id];
                let eps = epsilon_zk(params.s, params.p, params.q);
                let rec = persist::rec_charge(query.id, ts, eps, ledger.spent(), ledger.epochs());
                self.journal(persist::K_CHARGE, rec)?;
            }
            let rec = persist::rec_submitted(ts, watermark, batch);
            self.journal(persist::K_SUBMITTED, rec)?;
            self.journal_sync()?;
        }
        // The crash hook: `abort()` exactly *after* the chosen epoch's
        // journal fsync and *before* any of its worker sends — the
        // widest gap the recovery contract must close.
        if self.host.faults.crashes_after(self.epochs_submitted_total) {
            std::process::abort();
        }
        self.epochs_submitted_total += 1;
        for wi in 0..self.workers.len() {
            if self.workers[wi].dead {
                continue;
            }
            let mut sent = 0;
            while sent < batch.len() {
                let (query, params) = &batch[sent];
                let cmd = WorkerCmd::Answer {
                    query: Arc::clone(query),
                    params: *params,
                    ts,
                };
                if self.workers[wi].cmd.send(cmd).is_ok() {
                    sent += 1;
                    continue;
                }
                // The command channel disconnected: the worker died
                // since its last reply. Report, respawn (the
                // replacement gets the loads), then send this epoch's
                // batch from the top — the dead channel swallowed the
                // commands already sent.
                let fault = self.stage_down(Role::Worker, wi, RecvTimeoutError::Disconnected);
                if result.is_ok() {
                    result = Err(fault.into());
                }
                if self.respawn_worker(wi).is_err() {
                    break;
                }
                sent = 0;
                result = Ok(());
            }
        }
        self.in_flight.push_back(InFlightEpoch {
            epoch: ts,
            watermark,
            cmds: batch.len(),
            journal_mark,
        });
        result
    }

    /// Completes every in-flight epoch, oldest first: collects worker
    /// replies, issues the epoch-tagged closes, merges shard windows
    /// and finalizes results into the
    /// [`ShardedSystem::drain_results`] buffer. Returns the first
    /// client error encountered (later epochs still complete — the
    /// cleanup guarantee).
    pub fn flush_epochs(&mut self) -> Result<(), CoreError> {
        let mut result = Ok(());
        while !self.in_flight.is_empty() {
            let r = self.complete_oldest(false);
            if result.is_ok() {
                result = r;
            }
        }
        result
    }

    /// Runs one epoch of a query through the overlapped pipeline and
    /// waits for it: submit + flush. Within the epoch the stages
    /// still stream concurrently (workers feed proxies feed shards);
    /// across epochs, use [`ShardedSystem::submit_epoch`] to keep the
    /// pipeline full.
    ///
    /// Returns the epoch's windowed result — byte-identical to what
    /// [`System::run_epoch`](crate::System::run_epoch) returns for
    /// the same configuration and seed, at any pipeline depth. A query
    /// that this call or an earlier one retired (see
    /// [`ShardedSystem::submit_epoch`]) returns the typed error
    /// [`ShardedSystem::admit`] returns.
    pub fn run_epoch(&mut self, query: &Query) -> Result<QueryResult, CoreError> {
        let mut outcome = self.submit_epoch(query);
        let flushed = self.flush_epochs();
        if outcome.is_ok() {
            outcome = flushed;
        }
        outcome?;
        if self.terminal.contains(&query.id) {
            return Err(retired(query.id));
        }
        let idx = self
            .pending
            .iter()
            .rposition(|r| r.query == query.id)
            .ok_or(CoreError::UnknownQuery)?;
        Ok(self.pending.remove(idx))
    }

    // ----- multi-tenant schedule ------------------------------------

    /// Admits a registered query to the multi-tenant schedule:
    /// [`ShardedSystem::submit_epoch_all`] answers every admitted
    /// query each epoch, sharing the worker pool. Queries on one
    /// schedule must agree on window size (one shared event clock
    /// tags each epoch). Re-admitting is a no-op; a budget-retired
    /// query cannot come back (its allowance is spent).
    pub fn admit(&mut self, query: QueryId) -> Result<(), CoreError> {
        let (q, _) = self.queries.get(&query).ok_or(CoreError::UnknownQuery)?;
        if self.terminal.contains(&query) {
            return Err(retired(query));
        }
        if self.admitted.contains(&query) {
            return Ok(());
        }
        if let Some(first) = self.admitted.first() {
            let shared = self.queries[first].0.window.size;
            if q.window.size != shared {
                return Err(CoreError::Deploy(DeployError::InvalidConfig(format!(
                    "scheduled queries must share a window size: {} != {}",
                    q.window.size, shared
                ))));
            }
        }
        self.admitted.push(query);
        if self.durable.is_some() {
            self.journal(persist::K_ADMITTED, persist::rec_query_only(query))?;
            self.journal_sync()?;
        }
        Ok(())
    }

    /// The queries currently admitted to the epoch schedule, in
    /// admission order.
    pub fn admitted(&self) -> &[QueryId] {
        &self.admitted
    }

    /// Withdraws a query from the schedule without retiring it: the
    /// ledger keeps its spend, the query may be re-admitted, and an
    /// epoch it runs through [`ShardedSystem::submit_epoch`] meanwhile
    /// is charged like any other.
    pub fn withdraw(&mut self, query: QueryId) {
        self.admitted.retain(|q| *q != query);
        // Buffered append only: the withdrawal becomes durable with
        // the next epoch's sync. Losing it re-admits the query on
        // recovery — a scheduling hiccup, never a privacy leak (every
        // epoch, by either entry point, is charged before it sends).
        if self.durable.is_some() {
            if let Err(CoreError::Deploy(fault)) =
                self.journal(persist::K_WITHDRAWN, persist::rec_query_only(query))
            {
                self.faults.push(fault);
            }
        }
    }

    /// Assigns a lifetime privacy budget to a query. The new ledger
    /// keeps the spend and epoch count of the old one, so a re-budget
    /// never hands back ε already spent; a budget below the spend
    /// leaves nothing to spend (the spend is capped at the new
    /// allowance). Every epoch, by either entry point, debits
    /// `ε_zk(s, p, q)` — the zero-knowledge privacy spend of one
    /// answer under sampling and randomized response (paper Equation
    /// 9). Once a debit would overdraw, the query is retired
    /// mid-stream: it answers no further epochs and its typed
    /// terminal [`Retirement`] surfaces via
    /// [`ShardedSystem::drain_retired`].
    pub fn set_budget(&mut self, query: QueryId, budget: PrivacyBudget) -> Result<(), CoreError> {
        if !self.queries.contains_key(&query) {
            return Err(CoreError::UnknownQuery);
        }
        let allocated = budget.allocated();
        let ledger = persist::rebudget(self.ledgers.get(&query), allocated);
        self.ledgers.insert(query, ledger);
        self.journal(persist::K_BUDGET, persist::rec_budget(query, allocated))?;
        self.journal_sync()
    }

    /// The query's spend ledger, if one exists: assigned by
    /// [`ShardedSystem::set_budget`], or created unbounded by the
    /// query's first epoch through either entry point — metered,
    /// never retired.
    pub fn budget_ledger(&self, query: QueryId) -> Option<&BudgetLedger> {
        self.ledgers.get(&query)
    }

    /// Terminal results of queries retired by budget exhaustion since
    /// the last drain, in retirement order. Each retirement is
    /// reported exactly once.
    pub fn drain_retired(&mut self) -> Vec<Retirement> {
        std::mem::take(&mut self.retired)
    }

    /// Attaches a StreamApprox-style feedback controller: each
    /// [`ShardedSystem::apply_feedback`] re-tunes the query's
    /// execution parameters from the previous window's observed
    /// error.
    pub fn enable_feedback(
        &mut self,
        query: QueryId,
        controller: FeedbackController,
    ) -> Result<(), CoreError> {
        if !self.queries.contains_key(&query) {
            return Err(CoreError::UnknownQuery);
        }
        self.feedback.insert(query, controller);
        Ok(())
    }

    /// The worst relative CI bound observed in the query's most
    /// recently finalized window — the feedback signal.
    pub fn last_observed_error(&self, query: QueryId) -> Option<f64> {
        self.last_error.get(&query).copied()
    }

    /// Flushes the pipeline, then re-tunes every admitted query that
    /// has a controller and an observed error, re-registering changed
    /// parameters on every shard. Flushing first keeps the pipelined
    /// schedule equivalent to an isolated run: the retune takes
    /// effect at exactly the same epoch boundary in both.
    pub fn apply_feedback(&mut self) -> Result<(), CoreError> {
        let mut result = self.flush_epochs();
        let mut retunes = Vec::new();
        for qid in &self.admitted {
            let (Some(ctrl), Some(err)) = (self.feedback.get(qid), self.last_error.get(qid))
            else {
                continue;
            };
            let params = self.queries[qid].1;
            let (next, changed) = ctrl.retune(params, *err);
            if changed {
                retunes.push((*qid, next));
            }
        }
        for (qid, next) in retunes {
            let query = Arc::clone(&self.queries[&qid].0);
            let r = self.register_shared(query, next);
            if result.is_ok() {
                result = r;
            }
        }
        result
    }

    /// Submits one multi-tenant epoch: every admitted query is
    /// answered by every client under ONE shared epoch timestamp —
    /// one participation flip, randomization, split and send per
    /// (client, query), batched through the zero-copy `append_batch`
    /// path — after charging each query's budget ledger for the
    /// epoch. A query whose ledger cannot cover the `ε_zk` debit is
    /// retired *before* any command is sent (exactly one
    /// [`Retirement`], zero shares this epoch) and the epoch proceeds
    /// with the survivors; with no survivors, nothing is submitted.
    pub fn submit_epoch_all(&mut self) -> Result<(), CoreError> {
        let schedule = self.admitted.clone();
        self.submit_charged(&schedule)
    }

    /// Runs one multi-tenant epoch to completion: submit + flush.
    /// Every admitted query's windows land in
    /// [`ShardedSystem::drain_results`], sorted by window start then
    /// query id; retirements surface via
    /// [`ShardedSystem::drain_retired`].
    pub fn run_epoch_all(&mut self) -> Result<(), CoreError> {
        let mut outcome = self.submit_epoch_all();
        let flushed = self.flush_epochs();
        if outcome.is_ok() {
            outcome = flushed;
        }
        outcome
    }

    /// Turns on historical retention for a registered query: every
    /// shard keeps the decoded randomized answers it routes to the
    /// query, and [`ShardedSystem::batch_query`] answers batch
    /// queries over the retained stream (paper §3.3.1). In-process
    /// transport only — a remote shard child holds no fetchable
    /// store.
    pub fn retain_history(&mut self, query: QueryId) -> Result<(), CoreError> {
        if !matches!(self.host.transport, TransportMode::InProcess) {
            return Err(CoreError::Deploy(DeployError::InvalidConfig(
                "historical retention requires in-process shards".into(),
            )));
        }
        if self.retain_set.contains(&query) {
            return Ok(());
        }
        let (q, params) = self
            .queries
            .get(&query)
            .ok_or(CoreError::UnknownQuery)?
            .clone();
        self.retain_set.push(query);
        // Re-register with the retain flag; `register` flushes
        // in-flight epochs first, so retention starts at an epoch
        // boundary.
        self.register_shared(q, params)
    }

    /// Answers a historical/batch query over the retained stream:
    /// the shards' stored answers for `query` within `range` are
    /// merged in canonical `(timestamp, MID)` order — threaded
    /// arrival interleavings cannot show — and re-sampled down to
    /// `batch_budget` answers (the §3.3.1 second sampling round)
    /// with an RNG derived deterministically from the deployment
    /// seed, the query and the range.
    pub fn batch_query(
        &mut self,
        query: QueryId,
        range: Window,
        batch_budget: usize,
    ) -> Result<QueryResult, CoreError> {
        if !self.retain_set.contains(&query) {
            return Err(CoreError::Deploy(DeployError::InvalidConfig(
                "historical retention is not enabled for this query".into(),
            )));
        }
        let mut first_error = self.flush_epochs().err();
        self.repair();
        let (q, params) = self
            .queries
            .get(&query)
            .ok_or(CoreError::UnknownQuery)?
            .clone();
        for shard in &self.shards {
            if shard.dead {
                continue;
            }
            let _ = shard.cmd.send(ShardCmd::Fetch { query, range });
        }
        self.host.wake_shards();
        let mut warehouse = Warehouse::new(query, q.answer.len(), params, self.host.config.clients);
        let wait = self.control_wait();
        for s in 0..self.shards.len() {
            if self.shards[s].dead {
                continue;
            }
            match self.shards[s].reply.recv_timeout(wait) {
                Ok(ShardReply::Stored { answers }) => {
                    for (ts, mid, answer) in answers {
                        warehouse.append(Timestamp(ts), MessageId(mid), answer);
                    }
                }
                Ok(_) => unreachable!("fetch expects Stored"),
                Err(err) => {
                    // The dead shard's retained history died with it:
                    // the batch answer degrades to the surviving
                    // stores, and the fault is reported.
                    let fault = self.stage_down(Role::Shard, s, err);
                    first_error = first_error.or(Some(fault.into()));
                    let _ = self.respawn_shard(s);
                }
            }
        }
        // Answers retained before a crash live in the recovered
        // snapshot, not in the restarted shards' stores; the
        // warehouse's `(timestamp, MID)` keying dedups any overlap
        // with post-restart retention.
        if let Some(prev) = self.recovered_warehouses.get(&query) {
            for (ts, mid, answer) in prev {
                if range.contains(Timestamp(*ts)) {
                    warehouse.append(Timestamp(*ts), MessageId(*mid), answer.clone());
                }
            }
        }
        // Deterministic batch sampling: the same seed, query and
        // range always draw the same reservoir, so concurrent and
        // isolated runs agree byte for byte.
        let mut rng = StdRng::seed_from_u64(
            self.host.config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ query.to_u64().rotate_left(17)
                ^ range.start.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
                ^ range.end.0,
        );
        // The estimator comes from the recycled scratch slot — the
        // pooled lifecycle the historical regression suite pins (a
        // dirty estimator must never leak a prior query's counts).
        let mut est = self
            .batch_scratch
            .take()
            .unwrap_or_else(|| BucketEstimator::new(q.answer.len(), params.p.min(1.0), params.q));
        let result =
            warehouse.batch_query_with(&mut est, range, batch_budget, self.host.config.confidence, &mut rng);
        self.batch_scratch = Some(est);
        match first_error {
            Some(e) => Err(e),
            None => Ok(result),
        }
    }

    /// Completes the oldest in-flight epoch. `lenient` (drop path)
    /// tolerates dead threads and incomplete drains without reporting
    /// faults or respawning.
    ///
    /// This is the supervised heart of the runtime: every wait is
    /// deadlined, a worker or shard that died mid-epoch surfaces as a
    /// typed [`DeployError`] (and is respawned), and an epoch whose
    /// global accounting cannot settle closes **partially** — the
    /// shards emit the decodes they have, the estimate scales by the
    /// observed sample (degrade-to-sampling), and the loss is counted
    /// in [`DeployHealth`].
    fn complete_oldest(&mut self, lenient: bool) -> Result<(), CoreError> {
        let Some(ep) = self.in_flight.pop_front() else {
            return Ok(());
        };
        // Worker replies arrive strictly in command order per worker,
        // so the oldest pending Answered on each channel is this
        // epoch's. A respawned worker skips the replies its dead
        // predecessor still owed (`reply_debt`).
        let wait = self.control_wait();
        let mut per_partition = vec![0u64; self.host.partitions];
        let mut first_error: Option<CoreError> = None;
        for wi in 0..self.workers.len() {
            // A multi-tenant epoch issued one Answer per scheduled
            // query; each worker owes that many replies.
            'replies: for _ in 0..ep.cmds {
                if self.workers[wi].dead {
                    break 'replies;
                }
                if self.workers[wi].reply_debt > 0 {
                    self.workers[wi].reply_debt -= 1;
                    continue;
                }
                let reply = match self.workers[wi].reply.recv_timeout(wait) {
                    Ok(r) => r,
                    Err(err) => {
                        if lenient {
                            self.workers[wi].dead = true;
                        } else {
                            let fault = self.stage_down(Role::Worker, wi, err);
                            first_error = first_error.or(Some(fault.into()));
                            let _ = self.respawn_worker(wi);
                        }
                        // The dead worker's remaining replies for this
                        // epoch died with it; a successful respawn owes
                        // replies only for the *later* in-flight epochs.
                        break 'replies;
                    }
                };
                match reply {
                    WorkerReply::Answered {
                        per_partition: counts,
                        error,
                        busy,
                    } => {
                        self.busy.workers[wi] += busy;
                        for (total, n) in per_partition.iter_mut().zip(&counts) {
                            *total += n;
                        }
                        if let Some(e) = error {
                            if matches!(e, CoreError::Deploy(DeployError::Backpressure { .. })) {
                                self.worker_backpressure += 1;
                            }
                            first_error = first_error.or(Some(e));
                        }
                    }
                    WorkerReply::Loaded => unreachable!("answer expects Answered"),
                }
            }
        }
        // Sweep dead proxy bridges before waiting on the closes: a
        // dead bridge strands shares on its proxy's topic, and
        // respawning it now lets the close drain instead of
        // deadlining.
        if !lenient {
            self.check_proxies();
        }
        // Even when a client errored, the epoch still closes: the
        // shares sent before the failure are in the broker, and the
        // epoch-tagged close (with the exact partial count) is what
        // lets later — possibly already in-flight — epochs proceed
        // from consistent accounting. The partial window surfaces via
        // `drain_results`, mirroring `System`. The error is returned
        // after cleanup.
        //
        // The close carries the epoch's *total* expectation — every
        // shard closes against the global ledger, which still counts
        // what a respawned shard's predecessor decoded.
        let expect: u64 = per_partition.iter().sum();
        for (s, shard) in self.shards.iter().enumerate() {
            if shard.dead {
                continue;
            }
            let _ = shard.cmd.send(ShardCmd::Close(CloseCmd {
                epoch: ep.epoch,
                expect,
                watermark: ep.watermark,
                recycle: std::mem::take(&mut self.pending_recycle[s]),
            }));
        }
        self.host.wake_shards();
        // A live shard replies within the epoch deadline by
        // construction (the deadline fires the close even when the
        // accounting cannot settle); the slack on top only covers
        // scheduling, so a miss means the thread is gone.
        let shard_wait = self.host.config.epoch_deadline + wait;
        let mut merged: Vec<(QueryId, Window, BucketEstimator, usize)> = Vec::new();
        let mut total_decoded = 0u64;
        for s in 0..self.shards.len() {
            if self.shards[s].dead {
                continue;
            }
            let mut retried = false;
            loop {
                match self.shards[s].reply.recv_timeout(shard_wait) {
                    Ok(ShardReply::Closed {
                        decoded,
                        windows,
                        busy,
                        ..
                    }) => {
                        self.busy.shards[s] = self.shards[s].busy_base + busy;
                        total_decoded += decoded;
                        for rw in windows {
                            match merged
                                .iter_mut()
                                .find(|(q, w, _, _)| *q == rw.query && *w == rw.window)
                            {
                                Some((_, _, est, _)) => {
                                    est.merge(&rw.estimator);
                                    self.pending_recycle[s].push(rw.estimator);
                                }
                                None => merged.push((rw.query, rw.window, rw.estimator, s)),
                            }
                        }
                        break;
                    }
                    Ok(_) => unreachable!("close expects Closed"),
                    Err(err) => {
                        if lenient {
                            self.shards[s].dead = true;
                            break;
                        }
                        let fault = self.stage_down(Role::Shard, s, err);
                        first_error = first_error.or(Some(fault.into()));
                        if retried || self.respawn_shard(s).is_err() {
                            break;
                        }
                        // Re-issue the close to the replacement: the
                        // windows the dead shard held are lost (the
                        // close goes partial), but the watermark
                        // still advances on every shard — in order.
                        retried = true;
                        let _ = self.shards[s].cmd.send(ShardCmd::Close(CloseCmd {
                            epoch: ep.epoch,
                            expect,
                            watermark: ep.watermark,
                            recycle: Vec::new(),
                        }));
                        self.host.wake_shards();
                    }
                }
            }
        }
        // Fewer decodes accounted than answers sent: the epoch closed
        // partially (deadline fired, or a shard died with decodes in
        // its windows). More is also possible — a dead worker's
        // pre-crash shares decode without a reply to expect them —
        // and is not a degradation.
        if !lenient && total_decoded < expect {
            self.partial_closes += 1;
            self.lost_answers += expect - total_decoded;
        }
        self.host.ledger.retire(ep.epoch);
        merged.sort_unstable_by_key(|(q, w, _, _)| (w.start, q.to_u64()));
        let pending_base = self.pending.len();
        // What each window below was finalized under, for the close
        // record: recovery recomputes the results from these.
        let mut closed_params: Vec<ExecutionParams> = Vec::new();
        for (qid, window, mut est, src) in merged {
            let (_, qparams) = self.queries.get(&qid).expect("registered query");
            if self.durable.is_some() {
                closed_params.push(*qparams);
            }
            let mut shell = self.spare_shells.pop().unwrap_or_else(QueryResult::shell);
            finalize_window_into(
                &mut shell,
                qid,
                window,
                &mut est,
                *qparams,
                self.host.config.clients,
                self.host.config.confidence,
            );
            // Feedback signal: the most recent window's worst relative
            // CI bound (windows are sorted by start, so the newest
            // observation wins).
            self.last_error.insert(qid, shell.worst_relative_bound());
            self.pending.push(shell);
            self.pending_recycle[src].push(est);
        }
        // Checkpoint the close: what the windows counted and what they
        // were finalized under, fsynced before the results can be
        // drained. The lenient (drop) path
        // never journals — an epoch abandoned at drop stays open in
        // the journal and is re-run on recovery (at-least-once).
        if !lenient && self.durable.is_some() {
            let rec = persist::rec_closed(&CloseRecord {
                epoch: ep.epoch,
                watermark: ep.watermark,
                partial: total_decoded < expect,
                lost: expect.saturating_sub(total_decoded),
                results: &self.pending[pending_base..],
                params: &closed_params,
                confidence: self.host.config.confidence,
            });
            let journaled = self
                .journal(persist::K_CLOSED, rec)
                .and_then(|()| self.journal_sync());
            if let Err(e) = journaled {
                first_error = first_error.or(Some(e));
            }
            self.epochs_closed_total += 1;
            let due = {
                let d = self.durable.as_mut().expect("durable checked above");
                d.closes_since_snapshot += 1;
                d.closes_since_snapshot >= d.snapshot_every
            };
            if due {
                if let Err(e) = self.write_snapshot_now() {
                    first_error = first_error.or(Some(e));
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Drains any additional closed windows (sliding-window queries
    /// emit several per epoch; pipelined submissions park every
    /// completed epoch's results here).
    pub fn drain_results(&mut self) -> Vec<QueryResult> {
        std::mem::take(&mut self.pending)
    }

    /// Returns consumed results to the merge step's shell pool.
    pub fn recycle_results(&mut self, consumed: &mut Vec<QueryResult>) {
        self.spare_shells.append(consumed);
    }

    /// Broker traffic counters.
    pub fn broker_stats(&self) -> BrokerStats {
        self.host.broker.stats()
    }

    /// The deployment's broker, for tests and external taps that
    /// attach extra consumers (e.g. mirroring a topic, or wedging a
    /// partition's committed floor to exercise backpressure).
    pub fn broker(&self) -> &Broker {
        &self.host.broker
    }

    /// Aggregated shard health counters: `(undecodable, unroutable,
    /// duplicates, expired_joins)` summed across shards. Completes
    /// any in-flight epochs first, so the snapshot covers everything
    /// submitted so far.
    pub fn aggregator_health(&mut self) -> (u64, u64, u64, u64) {
        let t = self.probe_shards();
        (t.0, t.1, t.2, t.3)
    }

    /// Probes every live shard for its cumulative counters:
    /// `(undecodable, unroutable, duplicates, expired_joins,
    /// dead_lettered, late_answers)` summed across shards.
    fn probe_shards(&mut self) -> (u64, u64, u64, u64, u64, u64) {
        let _ = self.flush_epochs();
        self.repair();
        let mut totals = (0, 0, 0, 0, 0, 0);
        for shard in &self.shards {
            if shard.dead {
                continue;
            }
            let _ = shard.cmd.send(ShardCmd::Probe);
        }
        self.host.wake_shards();
        for s in 0..self.shards.len() {
            if self.shards[s].dead {
                continue;
            }
            match self.shards[s].reply.recv_timeout(self.control_wait()) {
                Ok(ShardReply::Health {
                    quad,
                    dead_lettered,
                    late_answers,
                    busy,
                }) => {
                    self.busy.shards[s] = self.shards[s].busy_base + busy;
                    totals.0 += quad.0;
                    totals.1 += quad.1;
                    totals.2 += quad.2;
                    totals.3 += quad.3;
                    totals.4 += dead_lettered;
                    totals.5 += late_answers;
                }
                Ok(_) => unreachable!("probe expects Health"),
                Err(err) => {
                    // A shard that died since its last close: its
                    // counters are lost with it (the respawn restarts
                    // them at zero).
                    let _ = self.stage_down(Role::Shard, s, err);
                    let _ = self.respawn_shard(s);
                }
            }
        }
        totals
    }

    /// The deployment-wide health snapshot: data-plane quarantine and
    /// degradation counters plus the supervision record. Completes
    /// in-flight epochs and repairs dead threads first.
    pub fn deploy_health(&mut self) -> DeployHealth {
        let t = self.probe_shards();
        let stats = &self.host.link_stats;
        let links = |counter: fn(&LinkStats) -> &AtomicU64| -> u64 {
            stats.iter().map(|l| counter(l).load(Ordering::Relaxed)).sum()
        };
        let mut health = DeployHealth {
            undecodable: t.0,
            unroutable: t.1,
            duplicates: t.2,
            expired_joins: t.3,
            dead_lettered: t.4,
            late_answers: t.5,
            partial_closes: self.partial_closes,
            lost_answers: self.lost_answers,
            respawns: self.respawns,
            backpressure_stalls: self.worker_backpressure,
            reconnects: links(|l| &l.reconnects),
            rejections: links(|l| &l.rejections),
            retries: links(|l| &l.resends),
            dead_letter_dropped: self.host.broker.topic_dropped(DEAD_LETTER_TOPIC),
            recoveries: self.durable.as_ref().map_or(0, |d| d.recoveries),
            journal_bytes: self.durable.as_ref().map_or(0, |d| d.journal_bytes()),
            snapshot_count: self.durable.as_ref().map_or(0, |d| d.snapshot_count()),
            ..DeployHealth::default()
        };
        for fault in &self.faults {
            match fault {
                DeployError::WorkerPanic { .. } => health.worker_panics += 1,
                DeployError::ShardPanic { .. } => health.shard_panics += 1,
                DeployError::ProxyPanic { .. } => health.proxy_panics += 1,
                _ => {}
            }
        }
        health
    }

    /// Every deployment fault observed so far (panics, wedges,
    /// respawn failures), oldest first. Faults are also returned from
    /// the epoch API as they happen; this is the cumulative record.
    pub fn faults(&self) -> &[DeployError] {
        &self.faults
    }

    /// Liveness snapshot of every supervised thread from the
    /// heartbeat registry: `(thread name, status)`, stale when the
    /// thread has not beaten within `stale_after`. Workers beat at
    /// least every 250 ms while idle; proxies and shards beat once per park interval — pass a
    /// `stale_after` comfortably above ~250 ms. In-process a proxy is
    /// its topic, and its entry is beaten by the shards that read it.
    pub fn thread_health(&self, stale_after: Duration) -> Vec<(String, HeartbeatStatus)> {
        self.host.watchdog.statuses(stale_after)
    }

    /// Records quarantined on the dead-letter topic and not yet
    /// consumed by an operator (an in-process shard preserves poisoned
    /// input verbatim there for offline inspection). Only in-process
    /// shards keep copies; a shard child counts its quarantined shares
    /// in [`DeployHealth::dead_lettered`] and keeps none.
    pub fn dead_letter_backlog(&self) -> u64 {
        self.host.broker.topic_len(DEAD_LETTER_TOPIC)
    }

    /// Chaos hook: makes worker `w` panic on its next command poll.
    /// Waits for the thread to finish unwinding before returning, so
    /// the fault lands at a deterministic point: a command sent after
    /// this call fails fast (dead channel → respawn + resend)
    /// instead of racing the unwind and being accepted-then-lost —
    /// the equivalence suites inject between epochs and need both
    /// runs of a pair on the same side of that race.
    pub fn inject_worker_panic(&mut self, w: usize) {
        let _ = self.workers[w].cmd.send(WorkerCmd::Die);
        while self.workers[w]
            .thread
            .as_ref()
            .is_some_and(|t| !t.is_finished())
        {
            std::thread::yield_now();
        }
    }

    /// Chaos hook: makes shard `s` panic on its next control check.
    pub fn inject_shard_panic(&mut self, s: usize) {
        let _ = self.shards[s].cmd.send(ShardCmd::Die);
        self.host.wake_shards();
    }

    // -- durability --------------------------------------------------------

    /// Buffers one journal record when the deployment is durable
    /// (no-op otherwise, and while a recovery replay is muted).
    fn journal(&mut self, kind: u8, payload: Vec<u8>) -> Result<(), CoreError> {
        match self.durable.as_mut() {
            Some(d) => d.append(kind, &payload).map_err(persist_err),
            None => Ok(()),
        }
    }

    /// Fsyncs every buffered journal record — the durability barrier
    /// the submit paths cross before their first worker send.
    fn journal_sync(&mut self) -> Result<(), CoreError> {
        match self.durable.as_mut() {
            Some(d) => d.sync().map_err(persist_err),
            None => Ok(()),
        }
    }

    /// True when the store directory held a previous incarnation's
    /// state at build time; call [`ShardedSystem::resume`] (after
    /// re-issuing loads) to adopt it.
    pub fn needs_recovery(&self) -> bool {
        self.recovered.is_some()
    }

    /// Adopts the state recovered from the durable store: queries are
    /// re-registered on every shard, budget ledgers restored to their
    /// journaled spend, the schedule and retirement set rebuilt,
    /// pending results and retained warehouses restored, and every
    /// submitted-but-unclosed epoch re-run **without re-charging**
    /// (its debits are already in the restored ledgers). Closed epochs
    /// are not revisited: nothing a client does later depends on them.
    /// Returns the recovered queries, oldest first.
    ///
    /// Call order matters: loads hold closures the store cannot
    /// serialize, so the caller re-issues
    /// [`load_numeric_column`](ShardedSystem::load_numeric_column) /
    /// [`load_rows`](ShardedSystem::load_rows) *before* `resume` —
    /// the re-run epochs need the tables in place. With nothing to
    /// recover this is a no-op returning an empty list.
    pub fn resume(&mut self) -> Result<Vec<Query>, CoreError> {
        let Some(rec) = self.recovered.take() else {
            return Ok(Vec::new());
        };
        let rec = *rec;
        // Everything restored below *came from* the journal:
        // re-journaling it would duplicate records, so appends are
        // muted until the re-submissions at the end.
        if let Some(d) = self.durable.as_mut() {
            d.muted = true;
        }
        self.now_ms = self.now_ms.max(rec.now_ms);
        self.next_serial = self.next_serial.max(rec.next_serial as u32);
        self.partial_closes = rec.partial_closes;
        self.lost_answers = rec.lost_answers;
        self.epochs_closed_total = rec.epochs_closed;
        self.terminal = rec.terminal;
        for (qid, entries) in rec.warehouses {
            self.recovered_warehouses.insert(qid, entries);
        }
        self.pending.extend(rec.pending);
        // Retention flags first: `register` reads them to re-enable
        // shard-side retention for recovered queries.
        for rq in &rec.queries {
            if rq.retain && !self.retain_set.contains(&rq.query.id) {
                self.retain_set.push(rq.query.id);
            }
        }
        let mut result = Ok(());
        let mut queries = Vec::with_capacity(rec.queries.len());
        for rq in rec.queries {
            let r = self.register(rq.query.clone(), rq.params);
            if result.is_ok() {
                result = r;
            }
            if let Some(ledger) = rq.ledger {
                self.ledgers.insert(rq.query.id, ledger);
            }
            queries.push(rq.query);
        }
        for qid in rec.admitted {
            if self.queries.contains_key(&qid)
                && !self.terminal.contains(&qid)
                && !self.admitted.contains(&qid)
            {
                self.admitted.push(qid);
            }
        }
        if let Some(d) = self.durable.as_mut() {
            d.muted = false;
            d.recoveries += 1;
        }
        // Checkpoint the adopted state before re-running the open
        // epochs: their fresh `Submitted` records land *after* this
        // snapshot's floor, so a second crash — even mid-recovery —
        // reconstructs from here plus the journal suffix.
        let snap = self.write_snapshot_now();
        if result.is_ok() {
            result = snap;
        }
        for ep in rec.open_epochs {
            let r = self.resubmit_open_epoch(ep);
            if result.is_ok() {
                result = r;
            }
        }
        result.map(|()| queries)
    }

    /// Re-runs one submitted-but-unclosed epoch recovered from the
    /// journal: a fresh `Submitted` record is journaled and fsynced
    /// (NO charge records — the epoch's debits are already in the
    /// restored ledgers), then the batch is sent under its original
    /// epoch timestamp — which is what the answers' randomness is
    /// derived from, so the re-run produces the same shares the crash
    /// may or may not have let escape.
    fn resubmit_open_epoch(&mut self, ep: OpenEpoch) -> Result<(), CoreError> {
        let mut batch: Vec<(Arc<Query>, ExecutionParams)> = Vec::with_capacity(ep.entries.len());
        for (qid, params) in &ep.entries {
            let Some((query, _)) = self.queries.get(qid) else {
                continue;
            };
            batch.push((Arc::clone(query), *params));
        }
        if batch.is_empty() {
            return Ok(());
        }
        self.dispatch_epoch(&batch, Some((ep.ts, ep.watermark)))
    }

    /// Captures every retained query's warehouse for the snapshot:
    /// the shards' in-memory stores (in-process transport) merged
    /// with anything recovered from the previous snapshot, deduped by
    /// `(timestamp, MID)` in canonical order.
    fn capture_warehouses(&mut self) -> Vec<(QueryId, persist::Retained)> {
        let retained = self.retain_set.clone();
        let mut out = Vec::with_capacity(retained.len());
        for qid in retained {
            let mut merged: BTreeMap<(u64, u128), BitVec> = BTreeMap::new();
            if let Some(prev) = self.recovered_warehouses.get(&qid) {
                for (ts, mid, answer) in prev {
                    merged.insert((*ts, *mid), answer.clone());
                }
            }
            if matches!(self.host.transport, TransportMode::InProcess) {
                for shard in &self.shards {
                    if shard.dead {
                        continue;
                    }
                    let _ = shard.cmd.send(ShardCmd::Fetch {
                        query: qid,
                        range: Window {
                            start: Timestamp(0),
                            end: Timestamp(u64::MAX),
                        },
                    });
                }
                self.host.wake_shards();
                let wait = self.control_wait();
                for s in 0..self.shards.len() {
                    if self.shards[s].dead {
                        continue;
                    }
                    match self.shards[s].reply.recv_timeout(wait) {
                        Ok(ShardReply::Stored { answers }) => {
                            for (ts, mid, answer) in answers {
                                merged.insert((ts, mid), answer);
                            }
                        }
                        Ok(_) => unreachable!("fetch expects Stored"),
                        Err(err) => {
                            let _ = self.stage_down(Role::Shard, s, err);
                            let _ = self.respawn_shard(s);
                        }
                    }
                }
            }
            out.push((
                qid,
                merged
                    .into_iter()
                    .map(|((ts, mid), answer)| (ts, mid, answer))
                    .collect(),
            ));
        }
        out
    }

    /// Writes a full snapshot now and prunes the journal beneath it,
    /// bounding disk to O(snapshot interval). The prune floor is
    /// capped at the lowest open epoch's journal mark: open epochs
    /// are rebuilt from their journal records, never from snapshots.
    fn write_snapshot_now(&mut self) -> Result<(), CoreError> {
        if self.durable.is_none() {
            return Ok(());
        }
        let warehouses = self.capture_warehouses();
        let mut queries: Vec<(&Query, ExecutionParams, bool, Option<&BudgetLedger>)> = self
            .queries
            .values()
            .map(|(q, p)| {
                (
                    &**q,
                    *p,
                    self.retain_set.contains(&q.id),
                    self.ledgers.get(&q.id),
                )
            })
            .collect();
        queries.sort_unstable_by_key(|(q, _, _, _)| q.id.to_u64());
        let mut durable = self.durable.take().expect("durable checked above");
        let contents = SnapshotContents {
            now_ms: self.now_ms,
            next_serial: self.next_serial as u64,
            recoveries: durable.recoveries,
            partial_closes: self.partial_closes,
            lost_answers: self.lost_answers,
            epochs_closed: self.epochs_closed_total,
            queries,
            admitted: &self.admitted,
            terminal: &self.terminal,
            pending: &self.pending,
            warehouses: &warehouses,
        };
        let floor_cap = self
            .in_flight
            .iter()
            .map(|e| e.journal_mark)
            .min()
            .unwrap_or(u64::MAX);
        let outcome = durable
            .snapshot(&contents, floor_cap)
            .map(|_| ())
            .map_err(persist_err);
        self.durable = Some(durable);
        outcome
    }

    /// Simulates a hard crash (the in-process analogue of `kill -9`):
    /// the journal's unsynced append buffer is discarded — nothing
    /// else touches disk — and the deployment is torn down without
    /// journaling its shutdown. A store directory left by `crash()`
    /// recovers exactly like one left by a real SIGKILL: from the
    /// last fsync barrier.
    pub fn crash(mut self) {
        if let Some(d) = self.durable.take() {
            d.wal.simulate_crash();
        }
        self.recovered = None;
        // Implicit Drop: lenient pipeline teardown, journaling off.
    }

    // -- supervision internals ---------------------------------------------

    /// How long a control wait (load ack, registration ack, worker
    /// epoch reply) may block before the peer is declared dead: the
    /// epoch deadline, floored at the default so short-deadline
    /// configurations (partial-close tests) don't misread a healthy
    /// but slow thread as dead.
    fn control_wait(&self) -> Duration {
        self.host.config.epoch_deadline.max(DEFAULT_EPOCH_DEADLINE)
    }

    /// Declares a worker or shard dead after a failed wait and returns
    /// the typed fault (proxy bridges have no reply channel to wait on; see
    /// [`ShardedSystem::check_proxies`]). Distinguishes a *wedge* (deadline elapsed,
    /// thread still running — retired but never respawned, because a
    /// live predecessor could double-send shares) from real death
    /// (thread gone; the crash log holds the panic message).
    fn stage_down(&mut self, role: Role, i: usize, err: RecvTimeoutError) -> DeployError {
        let (thread, dead) = match role {
            Role::Worker => {
                let w = &mut self.workers[i];
                (&mut w.thread, &mut w.dead)
            }
            _ => {
                let s = &mut self.shards[i];
                (&mut s.thread, &mut s.dead)
            }
        };
        let wedged =
            err == RecvTimeoutError::Timeout && thread.as_ref().is_some_and(|t| !t.is_finished());
        let message = if wedged {
            // The handle keeps the JoinHandle: its presence is what
            // marks the slot non-respawnable.
            "wedged: no reply within the control deadline".to_string()
        } else {
            if let Some(t) = thread.take() {
                let _ = t.join();
            }
            take_crash(&self.host.crashes, role, i)
                .unwrap_or_else(|| "thread exited without a panic record".to_string())
        };
        *dead = true;
        let fault = match role {
            Role::Worker => DeployError::WorkerPanic { worker: i, message },
            _ => DeployError::ShardPanic { shard: i, message },
        };
        self.faults.push(fault.clone());
        fault
    }

    /// Sweeps the proxy bridges (process transport) for silent deaths
    /// (a bridge has no reply channel, so death shows as a finished
    /// thread) and respawns them.
    fn check_proxies(&mut self) {
        for i in 0..self.proxies.len() {
            let proxy = &mut self.proxies[i];
            if proxy.dead || !proxy.thread.as_ref().is_some_and(|t| t.is_finished()) {
                continue;
            }
            if let Some(t) = proxy.thread.take() {
                let _ = t.join();
            }
            proxy.dead = true;
            let message = take_crash(&self.host.crashes, Role::Proxy, i)
                .unwrap_or_else(|| "thread exited unexpectedly".to_string());
            self.faults.push(DeployError::ProxyPanic { proxy: i, message });
            let _ = self.respawn_proxy(i);
        }
    }

    /// Respawns every dead-but-respawnable thread — the control-path
    /// repair pass run before loads, registrations and probes.
    fn repair(&mut self) {
        self.check_proxies();
        for wi in 0..self.workers.len() {
            if self.workers[wi].dead && self.workers[wi].thread.is_none() {
                let _ = self.respawn_worker(wi);
            }
        }
        for s in 0..self.shards.len() {
            if self.shards[s].dead && self.shards[s].thread.is_none() {
                let _ = self.respawn_shard(s);
            }
        }
    }

    /// Records (and returns) the fault of a slot that could not be
    /// put back into service.
    fn respawn_failed(&mut self, role: Role, index: usize) -> DeployError {
        let fault = DeployError::RespawnFailed {
            role: role.name(),
            index,
        };
        self.faults.push(fault.clone());
        fault
    }

    /// Respawns worker `wi` under the same index — same client ids
    /// and RNG seeds — and re-sends every load, rebuilding the
    /// clients' tables. Nothing else carries over from one epoch to
    /// the next, so the replacement's future MIDs and coin flips are
    /// byte-identical to what the dead worker would have produced. A
    /// wedged predecessor (thread still running) is never replaced.
    fn respawn_worker(&mut self, wi: usize) -> Result<(), DeployError> {
        if self.workers[wi].thread.is_some() {
            return Err(self.respawn_failed(Role::Worker, wi));
        }
        let handle = WorkerHandle::spawn(wi, &mut self.host);
        for load in &self.loads {
            let _ = handle.cmd.send(WorkerCmd::Load(load.clone()));
        }
        let wait = self.control_wait();
        for _ in 0..self.loads.len() {
            if !matches!(handle.reply.recv_timeout(wait), Ok(WorkerReply::Loaded)) {
                return Err(self.respawn_failed(Role::Worker, wi));
            }
        }
        self.workers[wi] = handle;
        // Answer commands sent to the dead predecessor will never be
        // replied to (and any replies it queued died with its
        // channel): the completion loop skips that many waits.
        self.workers[wi].reply_debt = self.in_flight.iter().map(|e| e.cmds).sum();
        self.respawns += 1;
        Ok(())
    }

    /// Respawns shard `s` — however it is hosted, see
    /// [`Host::spawn_shards`] — and registers every live query on the
    /// replacement before the slot goes back into service (and, in
    /// process mode, before the proxy children are routed to it).
    fn respawn_shard(&mut self, s: usize) -> Result<(), DeployError> {
        if self.shards[s].thread.is_some() {
            return Err(self.respawn_failed(Role::Shard, s));
        }
        let population = self.host.config.clients;
        let register = || {
            (self.queries.values())
                .map(|(query, params)| ShardCmd::Register {
                    query: Arc::clone(query),
                    params: *params,
                    population,
                    // The dead shard's retained store died with it;
                    // re-enabling retention lets later epochs
                    // accumulate again (the batch answer degrades,
                    // reported as the respawn fault).
                    retain: self.retain_set.contains(&query.id),
                })
                .collect()
        };
        let spawned = self.host.spawn_shards(&[s], register);
        let Some(mut handle) = spawned.ok().and_then(|mut h| h.pop()) else {
            return Err(self.respawn_failed(Role::Shard, s));
        };
        let wait = self.control_wait();
        for _ in 0..self.queries.len() {
            if !matches!(handle.reply.recv_timeout(wait), Ok(ShardReply::Registered)) {
                return Err(self.respawn_failed(Role::Shard, s));
            }
        }
        handle.busy_base = self.busy.shards[s];
        self.host.publish_route(s, handle.route);
        self.shards[s] = handle;
        self.respawns += 1;
        Ok(())
    }

    /// Respawns proxy bridge `i` (see [`Host::spawn_proxies`]); its counters
    /// carry over, so they stay cumulative.
    fn respawn_proxy(&mut self, i: usize) -> Result<(), DeployError> {
        let counters = Arc::clone(&self.proxies[i].counters);
        match self.host.spawn_proxies(&[(i, counters)]).ok().and_then(|mut h| h.pop()) {
            Some(handle) => {
                self.proxies[i] = handle;
                self.respawns += 1;
                Ok(())
            }
            None => Err(self.respawn_failed(Role::Proxy, i)),
        }
    }

    /// `(label, OS pid)` of every `privapprox-node` child ever
    /// spawned (`proxy-<i>` / `shard-<s>`, including respawn
    /// replacements, oldest first). Empty in in-process mode. The
    /// kill-9 recovery harness uses this to SIGKILL specific children
    /// mid-epoch.
    pub fn children(&self) -> &[(String, u32)] {
        &self.host.children
    }

    /// Cumulative on-CPU time of every live `privapprox-node` child
    /// process, labelled `proxy-<i>` / `shard-<s>`. Empty in
    /// in-process mode and on platforms without `/proc`; children
    /// that already exited (e.g. a pre-respawn casualty) are skipped.
    /// The bench harness folds these into the machine-rate bottleneck
    /// so a child process counts as a pipeline stage exactly like a
    /// parent thread does under the dedicated-core convention.
    pub fn child_cpu(&self) -> Vec<(String, Duration)> {
        self.host.children
            .iter()
            .filter_map(|(label, pid)| {
                remote::process_cpu(*pid).map(|cpu| (label.clone(), cpu))
            })
            .collect()
    }

    /// Snapshot of cumulative per-thread CPU time per stage (the
    /// machine-level throughput instrumentation; see
    /// [`thread_busy_time`] and [`BusyProfile::bottleneck`]).
    pub fn busy_profile(&self) -> BusyProfile {
        let mut profile = self.busy.clone();
        profile.proxies = (self.proxies.iter())
            .map(|p| Duration::from_nanos(p.counters.busy_ns.load(Ordering::Relaxed)))
            .collect();
        profile
    }

    /// Total shares workers have published onto proxy topics so far,
    /// on either transport.
    pub fn forwarded_shares(&self) -> u64 {
        self.host.forwarded.load(Ordering::Relaxed)
    }
}

impl Drop for ShardedSystem {
    fn drop(&mut self) {
        // Leniently complete whatever the caller left in flight: an
        // abandoned overlapped epoch leaves answer commands, broker
        // records and epoch-tagged closes in the pipeline, and the
        // worker/shard threads must observe their shutdowns *after*
        // those — not interleaved with them.
        while !self.in_flight.is_empty() {
            let _ = self.complete_oldest(true);
        }
        for w in &self.workers {
            let _ = w.cmd.send(WorkerCmd::Shutdown);
        }
        for s in &self.shards {
            let _ = s.cmd.send(ShardCmd::Shutdown);
        }
        for p in &self.proxies {
            p.counters.stop.store(true, Ordering::Relaxed);
        }
        // Pop parked threads out of their parks.
        for p in &self.proxies {
            self.host.broker.notify_topic(&p.in_topic);
        }
        self.host.wake_shards();
        // A wedged thread (dead flag up, thread never finished) is
        // skipped: its command channel just disconnected, so it exits
        // on its own, and joining it could hang the drop.
        for w in &mut self.workers {
            if let Some(t) = w.thread.take() {
                if !w.dead || t.is_finished() {
                    let _ = t.join();
                }
            }
        }
        for p in &mut self.proxies {
            if let Some(t) = p.thread.take() {
                let _ = t.join();
            }
        }
        for s in &mut self.shards {
            if let Some(t) = s.thread.take() {
                if !s.dead || t.is_finished() {
                    let _ = t.join();
                }
            }
        }
    }
}

/// A fluent analyst session against a [`ShardedSystem`] — the same
/// SQL → buckets → budget → submit surface as
/// [`AnalystSession`](crate::system::AnalystSession), registering the
/// query on every shard.
pub struct ShardedAnalystSession<'a> {
    system: &'a mut ShardedSystem,
    sql: String,
    buckets: Option<AnswerSpec>,
    budget: Budget,
    window: Option<(u64, u64)>,
    explicit_params: Option<ExecutionParams>,
}

impl<'a> ShardedAnalystSession<'a> {
    /// Sets the SQL text.
    pub fn query(mut self, sql: impl Into<String>) -> Self {
        self.sql = sql.into();
        self
    }

    /// Sets the answer format `A[n]`.
    pub fn buckets(mut self, spec: AnswerSpec) -> Self {
        self.buckets = Some(spec);
        self
    }

    /// Sets the execution budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets sliding-window parameters `(w, δ)` in milliseconds.
    pub fn window(mut self, size: u64, slide: u64) -> Self {
        self.window = Some((size, slide));
        self
    }

    /// Bypasses the initializer with explicit `(s, p, q)`.
    pub fn params(mut self, params: ExecutionParams) -> Self {
        self.explicit_params = Some(params);
        self
    }

    /// Signs, registers (on every shard) and distributes the query;
    /// returns it. Serial assignment matches
    /// [`System`](crate::System) so the same submission order yields
    /// the same `QueryId`s.
    pub fn submit(self) -> Result<Query, CoreError> {
        let spec = self.buckets.ok_or_else(|| {
            CoreError::InfeasibleBudget("query needs an answer bucket spec".into())
        })?;
        let (w, d) = self.window.unwrap_or((60_000, 60_000));
        let sys = self.system;
        let id = QueryId::new(AnalystId(1), sys.next_serial);
        sys.next_serial += 1;
        let query = QueryBuilder::new(id, self.sql)
            .answer(spec)
            .window(w, d)
            .sign_and_build(sys.host.config.analyst_key);
        let params = match self.explicit_params {
            Some(p) => p,
            None => sys.initializer.derive(&self.budget, sys.host.config.clients)?,
        };
        sys.register(query.clone(), params)?;
        Ok(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed_spec() -> AnswerSpec {
        AnswerSpec::ranges_with_overflow(0.0, 110.0, 11)
    }

    #[test]
    fn sharded_end_to_end_exact_mode() {
        let mut system = ShardedSystem::builder()
            .clients(200)
            .proxies(2)
            .shards(2)
            .workers(2)
            .seed(1)
            .build();
        system.load_numeric_column("vehicle", "speed", |i| (i % 110) as f64).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        let result = system.run_epoch(&query).unwrap();
        assert_eq!(result.sample_size, 200);
        assert_eq!(result.population, 200);
        let total: f64 = result.buckets.iter().map(|b| b.estimate).sum();
        assert_eq!(total, 200.0);
        for b in 0..9 {
            assert_eq!(result.buckets[b].estimate, 20.0, "bucket {b}");
        }
        assert_eq!(system.aggregator_health(), (0, 0, 0, 0));
    }

    #[test]
    fn sharded_epochs_advance_windows() {
        let mut system = ShardedSystem::builder()
            .clients(60)
            .proxies(2)
            .shards(4)
            .workers(3)
            .seed(4)
            .build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        let r1 = system.run_epoch(&query).unwrap();
        let r2 = system.run_epoch(&query).unwrap();
        assert!(r2.window.start > r1.window.start);
        assert_eq!(r1.sample_size, 60);
        assert_eq!(r2.sample_size, 60);
        // Threads did real work on every stage.
        let busy = system.busy_profile();
        assert!(busy.workers.iter().any(|d| !d.is_zero()));
        assert!(busy.critical_path() > Duration::ZERO);
        assert!(busy.bottleneck() <= busy.critical_path());
    }

    /// Pipelined submission: epochs overlap up to the configured
    /// depth, results arrive in epoch order via `drain_results`, and
    /// every epoch is exact.
    #[test]
    fn sharded_pipelined_epochs_overlap_and_drain_in_order() {
        let mut system = ShardedSystem::builder()
            .clients(90)
            .proxies(2)
            .shards(3)
            .workers(3)
            .pipeline_depth(3)
            .seed(6)
            .build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        for _ in 0..5 {
            system.submit_epoch(&query).unwrap();
            assert!(system.in_flight_epochs() <= 3, "depth respected");
        }
        system.flush_epochs().unwrap();
        assert_eq!(system.in_flight_epochs(), 0);
        let results = system.drain_results();
        assert_eq!(results.len(), 5);
        for (e, r) in results.iter().enumerate() {
            assert_eq!(r.sample_size, 90, "epoch {e}");
            assert_eq!(r.buckets[1].estimate, 90.0, "epoch {e}");
            if e > 0 {
                assert!(r.window.start > results[e - 1].window.start, "epoch order");
            }
        }
        assert_eq!(system.aggregator_health(), (0, 0, 0, 0));
    }

    #[test]
    fn sharded_single_shard_degenerates_to_plain_pipeline() {
        let mut system = ShardedSystem::builder()
            .clients(50)
            .proxies(3)
            .shards(1)
            .workers(1)
            .seed(9)
            .build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        let result = system.run_epoch(&query).unwrap();
        assert_eq!(result.sample_size, 50);
        assert_eq!(result.buckets[1].estimate, 50.0);
    }

    #[test]
    fn sharded_partition_affinity_is_total() {
        let system = ShardedSystem::builder()
            .clients(10)
            .proxies(2)
            .shards(3)
            .partitions(6)
            .build();
        // Every client maps to a partition, every partition to a
        // shard, and the shard set is exhaustive.
        let mut shards_seen = std::collections::HashSet::new();
        for c in 0..10 {
            let p = system.partition_of(c);
            assert!(p < 6);
            shards_seen.insert(system.shard_of_partition(p));
        }
        assert_eq!(shards_seen.len(), 3);
    }

    /// A failed epoch (one client errors mid-population) must not
    /// poison the pipeline: the epoch still closes with its exact
    /// partial count, so the next epoch runs from consistent
    /// accounting instead of tripping the close asserts on stale
    /// records.
    /// Shard `s` owns partitions `{p : p % shards == s}` after a
    /// respawn too, as a shard child does: the replacement takes its
    /// slot's stride, and a share written to partition `p` is read by
    /// `shard_of_partition(p)` and no other shard.
    #[test]
    fn a_respawned_shard_keeps_its_slots_partitions() {
        let mut system = ShardedSystem::builder()
            .clients(30)
            .proxies(2)
            .shards(3)
            .workers(2)
            .partitions(6)
            .seed(5)
            .build();
        system
            .load_numeric_column("vehicle", "speed", |_| 15.0)
            .unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        assert_eq!(system.run_epoch(&query).unwrap().sample_size, 30);
        system.inject_shard_panic(0);
        let served = (0..20).any(|_| {
            let full = system.run_epoch(&query).is_ok_and(|r| r.sample_size == 30);
            full && system.respawns == 1
        });
        assert!(served, "the replacement never served an epoch in full");
        let (_, unroutable, _, _) = system.aggregator_health();
        assert_eq!(unroutable, 0, "the replacement read a share before its queries");
        // Each shard's undecodable count, probed one shard at a time.
        let undecodable = |system: &mut ShardedSystem| -> Vec<u64> {
            (0..3)
                .map(|s| {
                    system.shards[s].cmd.send(ShardCmd::Probe).unwrap();
                    system.host.wake_shards();
                    match system.shards[s].reply.recv_timeout(system.control_wait()) {
                        Ok(ShardReply::Health { quad, .. }) => quad.0,
                        _ => panic!("shard {s} did not answer the probe"),
                    }
                })
                .collect()
        };
        for p in 0..6 {
            let before = undecodable(&mut system);
            // A key of the wrong width: whichever shard reads it
            // counts it as undecodable.
            let w = system.broker().writer("proxy-0-in");
            (w.try_append_quiet(p, Some(Arc::from(&[9u8; 5][..])), vec![1, 2, 3], Timestamp(0)))
                .unwrap();
            w.notify();
            system.run_epoch(&query).unwrap();
            let after = undecodable(&mut system);
            let counted: Vec<usize> = (0..3).filter(|&s| after[s] > before[s]).collect();
            assert_eq!(counted, vec![system.shard_of_partition(p)], "partition {p}");
        }
    }

    #[test]
    fn sharded_failed_epoch_cleans_up_for_the_next() {
        let mut system = ShardedSystem::builder()
            .clients(40)
            .proxies(2)
            .shards(2)
            .workers(2)
            .seed(3)
            .build();
        // Client 25 holds an unbucketizable (negative) speed.
        system.load_numeric_column("vehicle", "speed", |i| if i == 25 { -5.0 } else { 15.0 }).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        assert!(matches!(
            system.run_epoch(&query),
            Err(CoreError::Unbucketizable(_))
        ));
        // The failure epoch's partial window surfaces via drain, not
        // silently: some clients answered before the bad one.
        let partial = system.drain_results();
        assert_eq!(partial.len(), 1);
        assert!(partial[0].sample_size < 40);
        // Repair the data; the next epoch is exact and complete.
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let result = system.run_epoch(&query).unwrap();
        assert_eq!(result.sample_size, 40);
        assert_eq!(result.buckets[1].estimate, 40.0);
        assert_eq!(system.aggregator_health(), (0, 0, 0, 0));
    }

    /// A client error in epoch k+1 while epoch k is still in flight
    /// must not corrupt epoch k's windows: each overlapped epoch
    /// closes under its own tag with its own exact (possibly partial)
    /// count.
    #[test]
    fn sharded_error_in_overlapped_epoch_isolates_to_its_windows() {
        let mut system = ShardedSystem::builder()
            .clients(40)
            .proxies(2)
            .shards(2)
            .workers(2)
            .pipeline_depth(3)
            .seed(8)
            .build();
        // Client 25 fails every epoch — so both in-flight epochs
        // error, each mid-population.
        system.load_numeric_column("vehicle", "speed", |i| if i == 25 { -5.0 } else { 15.0 }).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        // Two epochs enter the pipeline back to back; neither has
        // completed when the second is submitted.
        system.submit_epoch(&query).unwrap();
        assert!(system.submit_epoch(&query).is_ok(), "depth not yet hit");
        assert_eq!(system.in_flight_epochs(), 2);
        assert!(matches!(
            system.flush_epochs(),
            Err(CoreError::Unbucketizable(_))
        ));
        let partials = system.drain_results();
        assert_eq!(partials.len(), 2, "both epochs closed their windows");
        assert_eq!(
            partials[0].sample_size, partials[1].sample_size,
            "identical partial populations → identical counts per epoch"
        );
        assert!(partials[0].sample_size < 40);
        assert!(partials[1].window.start > partials[0].window.start);
        // Repair and verify the pipeline is clean.
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let result = system.run_epoch(&query).unwrap();
        assert_eq!(result.sample_size, 40);
        assert_eq!(system.aggregator_health(), (0, 0, 0, 0));
    }

    /// Dropping a system with epochs still in flight (an aborted
    /// overlapped run) must drain the epoch-tagged control messages
    /// and shut down cleanly instead of interleaving shutdowns with
    /// pending answers/closes.
    #[test]
    fn sharded_drop_with_in_flight_epochs_shuts_down_cleanly() {
        let mut system = ShardedSystem::builder()
            .clients(30)
            .proxies(2)
            .shards(2)
            .workers(2)
            .pipeline_depth(3)
            .seed(12)
            .build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        system.submit_epoch(&query).unwrap();
        system.submit_epoch(&query).unwrap();
        assert_eq!(system.in_flight_epochs(), 2);
        drop(system); // must not hang or panic
    }

    #[test]
    fn try_build_rejects_impossible_configs() {
        let invalid = |b: ShardedSystemBuilder| {
            matches!(b.try_build(), Err(DeployError::InvalidConfig(_)))
        };
        assert!(invalid(ShardedSystem::builder().clients(0)));
        assert!(invalid(ShardedSystem::builder().clients(10).proxies(1)));
        assert!(invalid(ShardedSystem::builder().clients(10).shards(0)));
        assert!(invalid(ShardedSystem::builder().clients(10).workers(0)));
        assert!(invalid(
            ShardedSystem::builder()
                .clients(10)
                .epoch_deadline(Duration::ZERO)
        ));
        for c in [0.0, 1.0, f64::NAN] {
            assert!(invalid(ShardedSystem::builder().clients(10).confidence(c)));
        }
        let inject = |f: FaultInjector| ShardedSystem::builder().clients(10).fault_injector(f);
        let none = FaultInjector::default();
        assert!(invalid(inject(none.worker_panic_after(9, 1))));
        assert!(invalid(inject(none.shard_panic_after(9, 1))));
        assert!(invalid(inject(none.drop_shard_traffic(9))));
        assert!(invalid(inject(none.straggler(9, Duration::from_millis(1)))));
        // A child has no fuse: the hook is in-process only.
        assert!(invalid(
            inject(none.shard_panic_after(0, 1)).process_transport("privapprox-node")
        ));
    }

    #[test]
    fn thread_health_reports_every_supervised_thread() {
        let system = ShardedSystem::builder()
            .clients(10)
            .proxies(2)
            .shards(2)
            .workers(2)
            .build();
        let statuses = system.thread_health(Duration::from_secs(5));
        assert_eq!(statuses.len(), 6, "2 workers + 2 proxies + 2 shards");
        assert!(statuses.iter().all(|(_, s)| s.is_alive()));
    }

    /// In-process a proxy is its topic: a worker appends each share
    /// once, onto its proxy's topic, and the shards read it there. A
    /// relay hop would append every share a second time (4 records per
    /// answer with 2 proxies). The auto-sized partitions hold a
    /// pipeline of depth 3 without a stall.
    #[test]
    fn in_process_shares_are_appended_once() {
        let (population, epochs) = (120u64, 6u64);
        let mut system = ShardedSystem::builder()
            .clients(population)
            .proxies(2)
            .shards(2)
            .workers(2)
            .pipeline_depth(3)
            .seed(13)
            .build();
        system
            .load_numeric_column("vehicle", "speed", |i| (i % 110) as f64)
            .unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 0.9, 0.6))
            .submit()
            .unwrap();
        for _ in 0..epochs {
            system.submit_epoch(&query).unwrap();
        }
        system.flush_epochs().unwrap();
        let results = system.drain_results();
        assert_eq!(results.len(), epochs as usize);
        assert!(results.iter().all(|r| r.sample_size == population));
        let answers = population * epochs;
        assert_eq!(system.broker_stats().records_in, 2 * answers);
        assert_eq!(system.forwarded_shares(), 2 * answers);
        assert_eq!(system.deploy_health().backpressure_stalls, 0);
    }

    /// The worker-side twin of the relay's stall accounting: a flush
    /// that hits the backpressure deadline on proxy 1's topic leaves
    /// its unpublished run uncounted, while proxy 0's run of the same
    /// flush, already published, stays counted — so the forwarded
    /// count is exactly what the broker holds.
    #[test]
    fn a_stalled_worker_flush_leaves_its_run_uncounted() {
        let mut system = ShardedSystem::builder()
            .clients(48)
            .proxies(2)
            .shards(1)
            .workers(1)
            .seed(13)
            .partition_capacity(8)
            .epoch_deadline(Duration::from_millis(300))
            .build();
        system
            .load_numeric_column("vehicle", "speed", |_| 15.0)
            .unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        // A never-polling group pins proxy 1's floor: its first run
        // (8 records, the capacity) fits, the second never does.
        let wedge = system
            .broker()
            .consumer("wedge", &[&inbound_topic(ProxyId(1))]);
        let err = system.run_epoch(&query).unwrap_err();
        assert!(
            matches!(err, CoreError::Deploy(DeployError::Backpressure { .. })),
            "expected a typed backpressure fault, got {err}"
        );
        let published = system.broker_stats().records_in;
        assert_eq!(system.forwarded_shares(), published);
        // Proxy 0 published one run more than proxy 1.
        assert_eq!(published, 8 + 8 + 8);
        assert_eq!(system.deploy_health().backpressure_stalls, 1);
        drop(wedge);
    }

    /// Poisoned input (malformed key) is quarantined to the
    /// dead-letter topic and counted — never silently dropped, never
    /// blocking the healthy stream.
    #[test]
    fn poisoned_records_are_dead_lettered() {
        let mut system = ShardedSystem::builder()
            .clients(20)
            .proxies(2)
            .shards(2)
            .workers(2)
            .seed(5)
            .build();
        system
            .load_numeric_column("vehicle", "speed", |_| 15.0)
            .unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        // A key of the wrong width, injected straight onto a proxy
        // topic the shards read.
        let w = system.broker().writer("proxy-0-in");
        (w.try_append_quiet(0, Some(Arc::from(&[9u8; 5][..])), vec![1, 2, 3], Timestamp(0)))
            .unwrap();
        w.notify();
        let result = system.run_epoch(&query).unwrap();
        assert_eq!(result.sample_size, 20, "healthy stream unaffected");
        let health = system.deploy_health();
        assert_eq!(health.dead_lettered, 1);
        assert_eq!(system.dead_letter_backlog(), 1);
        assert_eq!(health.partial_closes, 0);
        assert_eq!(health.respawns, 0);
    }

    /// What a worker respawn re-sends is the loads and nothing else:
    /// epochs leave no trace in the supervisor's replay state, so a
    /// respawn costs the same after any number of them.
    #[test]
    fn sharded_respawn_state_is_the_loads_issued_at_any_epoch_count() {
        let mut system = ShardedSystem::builder().clients(20).workers(2).seed(3).build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        system.load_numeric_column("vehicle", "speed", |_| 25.0).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        assert_eq!(system.loads.len(), 2);
        for _ in 0..50 {
            system.submit_epoch(&query).unwrap();
            assert_eq!(system.loads.len(), 2);
        }
        system.inject_worker_panic(1);
        let result = system.run_epoch(&query).unwrap();
        assert_eq!((result.sample_size, result.buckets[2].estimate), (20, 20.0));
        assert_eq!((system.deploy_health().respawns, system.loads.len()), (1, 2));
    }

    /// A snapshot section the frame cap cannot hold — here a retained
    /// warehouse grown past 64 MiB — fails the snapshot with a typed
    /// error before anything touches the directory, and the epochs
    /// keep closing (journaled, results intact) around it.
    #[test]
    fn sharded_oversized_snapshot_section_is_a_typed_error_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("privapprox-framecap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut system = ShardedSystem::builder()
            .clients(20)
            .seed(5)
            .durable(&dir)
            .snapshot_every(2)
            .build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        system.retain_history(query.id).unwrap();
        system.run_epoch(&query).unwrap();
        let files = |dir: &PathBuf| {
            let mut names: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let before = files(&dir);
        let cap = privapprox_store::MAX_FRAME as usize;
        system
            .recovered_warehouses
            .insert(query.id, vec![(0, 0, BitVec::zeros(cap * 8))]);
        // Closes 2 and 3 both owe a snapshot; each attempt is refused.
        for _ in 0..2 {
            match system.run_epoch(&query) {
                Err(CoreError::Deploy(DeployError::Persist { detail })) => {
                    assert!(detail.contains("too large"), "{detail}")
                }
                other => panic!("expected a Persist error, got {other:?}"),
            }
            let closed = system.drain_results();
            assert_eq!(closed.len(), 1);
            assert_eq!((closed[0].sample_size, closed[0].buckets[1].estimate), (20, 20.0));
            assert_eq!(files(&dir), before, "a refused snapshot must leave no file");
        }
        system.recovered_warehouses.clear();
        system.run_epoch(&query).unwrap();
        assert_eq!(system.deploy_health().snapshot_count, 1);
        drop(system);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A 20-client durable deployment over `dir` that snapshots only
    /// when `resume` does, so the journal keeps every record.
    fn durable_system(dir: &std::path::Path) -> ShardedSystem {
        let mut system = ShardedSystem::builder()
            .clients(20)
            .seed(5)
            .durable(dir)
            .snapshot_every(1_000)
            .build();
        system.load_numeric_column("vehicle", "speed", |i| (i % 110) as f64).unwrap();
        system
    }

    fn speed_query(system: &mut ShardedSystem, params: ExecutionParams) -> Query {
        system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(params)
            .submit()
            .unwrap()
    }

    fn ledger_bits(ledger: &BudgetLedger) -> (u64, u64, u64) {
        (ledger.allocated().to_bits(), ledger.spent().to_bits(), ledger.epochs())
    }

    fn is_retired<T>(outcome: Result<T, CoreError>) -> bool {
        matches!(outcome, Err(CoreError::Deploy(DeployError::InvalidConfig(_))))
    }

    /// Both entry points and a retune of `s` go through one budget
    /// pass: each query's ledger counts exactly its entries in the
    /// journal's `Submitted` records, its spend is their `ε_zk` summed
    /// in journal order, and `resume()` rebuilds it bit for bit.
    #[test]
    fn every_submitted_epoch_is_charged_exactly_once() {
        let dir = std::env::temp_dir().join(format!("privapprox-charged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut system = durable_system(&dir);
        let query = speed_query(&mut system, ExecutionParams::checked(0.5, 0.8, 0.6));
        let other = speed_query(&mut system, ExecutionParams::checked(0.9, 0.7, 0.6));
        system.run_epoch(&query).unwrap();
        system.submit_epoch(&query).unwrap();
        system.admit(query.id).unwrap();
        system.admit(other.id).unwrap();
        system.run_epoch_all().unwrap();
        let controller = FeedbackController::new(1e-6, 0.5, 0.95);
        system.enable_feedback(query.id, controller).unwrap();
        let s = system.params(query.id).unwrap().s;
        system.apply_feedback().unwrap();
        assert_ne!(system.params(query.id).unwrap().s, s, "the retune moved s");
        system.submit_epoch_all().unwrap();
        system.submit_epoch(&other).unwrap();
        system.submit_epoch(&query).unwrap();
        let live = [query.id, other.id].map(|q| *system.budget_ledger(q).unwrap());
        assert_eq!((live[0].epochs(), live[1].epochs()), (5, 3));
        system.crash();

        let (_, journal) = privapprox_store::wal::Wal::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
        for (qid, ledger) in [query.id, other.id].iter().zip(&live) {
            let mut debits = Vec::new();
            for rec in journal.records.iter().filter(|r| r.kind == persist::K_SUBMITTED) {
                let mut r = privapprox_store::codec::Reader::new(&rec.payload, "submitted");
                let (_ts, _watermark, n) = (r.u64().unwrap(), r.u64().unwrap(), r.u64().unwrap());
                for _ in 0..n {
                    let id = r.u64().unwrap();
                    let (s, p, q) = (r.f64().unwrap(), r.f64().unwrap(), r.f64().unwrap());
                    if id == qid.to_u64() {
                        debits.push(epsilon_zk(s, p, q));
                    }
                }
            }
            assert_eq!(ledger.epochs(), debits.len() as u64, "{qid:?}: one charge per entry");
            let spent = debits.iter().fold(0.0, |sum, eps| sum + eps);
            assert_eq!(ledger.spent().to_bits(), spent.to_bits(), "{qid:?}: Σ ε_zk");
        }

        let mut system = durable_system(&dir);
        system.resume().unwrap();
        for (qid, ledger) in [query.id, other.id].iter().zip(&live) {
            let recovered = system.budget_ledger(*qid).unwrap();
            assert_eq!(ledger_bits(recovered), ledger_bits(ledger), "{qid:?} recovered");
        }
        drop(system);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A re-budget keeps what was spent: set below the spend, it
    /// leaves nothing, the next epoch retires the query, and a restart
    /// rebuilds the same ledger from the `Budget` record.
    #[test]
    fn set_budget_after_spending_keeps_the_spend() {
        let dir = std::env::temp_dir().join(format!("privapprox-rebudget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut system = durable_system(&dir);
        let params = ExecutionParams::checked(0.9, 0.8, 0.6);
        let query = speed_query(&mut system, params);
        let eps = epsilon_zk(params.s, params.p, params.q);
        system.run_epoch(&query).unwrap();
        system.run_epoch(&query).unwrap();
        system.set_budget(query.id, PrivacyBudget::new(1.5 * eps).unwrap()).unwrap();
        let ledger = *system.budget_ledger(query.id).unwrap();
        assert_eq!(ledger.epochs(), 2, "the epochs carry over");
        assert_eq!(ledger.remaining(), 0.0, "a budget below the spend leaves nothing");
        assert!(is_retired(system.run_epoch(&query)));
        let retired = system.drain_retired();
        assert_eq!((retired.len(), retired[0].epochs), (1, 2));
        let live = *system.budget_ledger(query.id).unwrap();
        system.crash();

        let mut system = durable_system(&dir);
        system.resume().unwrap();
        let recovered = system.budget_ledger(query.id).unwrap();
        assert_eq!(ledger_bits(recovered), ledger_bits(&live));
        assert!(is_retired(system.submit_epoch(&query)), "still retired after the restart");
        drop(system);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_unknown_query_is_rejected() {
        let mut system = ShardedSystem::builder().clients(10).build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let foreign =
            QueryBuilder::new(QueryId::new(AnalystId(1), 999), "SELECT speed FROM vehicle")
                .answer(speed_spec())
                .sign_and_build(system.config().analyst_key);
        assert_eq!(
            system.run_epoch(&foreign).unwrap_err(),
            CoreError::UnknownQuery
        );
        assert_eq!(
            system.submit_epoch(&foreign).unwrap_err(),
            CoreError::UnknownQuery
        );
    }
}
