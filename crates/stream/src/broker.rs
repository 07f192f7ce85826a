//! An in-process pub/sub message broker (the Kafka stand-in).
//!
//! Topics hold ordered partitions of records; producers append (keyed
//! records hash to a partition, unkeyed ones round-robin, and
//! partition-affine senders pick one explicitly via
//! [`Producer::send_to`]); consumers poll sequentially from
//! per-(group, topic, partition) offsets with optional blocking. All
//! state lives behind `std::sync` locks, and every park is on an
//! [`EventCount`] (a wakeup between a waiter's check and its sleep is
//! never lost, so no park needs a timed re-check), so many
//! client/proxy/aggregator threads can share one broker, exactly like
//! the paper's proxies share a Kafka cluster.
//!
//! # Partition ownership
//!
//! A [`Consumer`] owns a fixed stride of every subscribed topic's
//! partitions, `{p : p % shards == shard}`, given when it is created
//! ([`Broker::consumer_of`]; [`Broker::consumer`] owns them all).
//! Because the stride is the same for every topic, partition `p` of
//! every topic a consumer reads lands on the same consumer, which is
//! what lets the sharded deployment join a message's XOR shares
//! shard-locally (all of client `c`'s shares travel in partition
//! `π(c)` of their respective proxy topics, and shard `s` owns the
//! same stride on both transports).
//!
//! Delivery is **exactly-once per group**: the per-(group, topic,
//! partition) offset map is the single source of truth, and a poll
//! reads records and advances the offset atomically under one lock.
//! A successor created in the same group with the same stride — a
//! respawned shard — resumes at the group's committed offsets, and
//! consumers of one group that own the same partition share its
//! offset, so records are neither dropped nor delivered twice
//! (asserted by the sequence-numbered tests in `tests/rebalance.rs`).
//!
//! # Partition fairness
//!
//! A poll capped by `max` resumes round-robin where the previous poll
//! stopped (a rotating cursor over the consumer's assigned
//! partitions) instead of always draining partition 0 first, so a
//! busy low-index partition cannot starve the rest.
//!
//! Payloads are shared immutable buffers ([`Record::value`] is an
//! `Arc<[u8]>`, and since the pipelined deployment [`Record::key`]
//! too): a record is copied into the broker **once** at its first
//! [`Producer::send`] and every subsequent hop — consumer polls,
//! proxy forwarding, multiple consumer groups — shares that
//! allocation by refcount. Before this, each of a message's `k`
//! shares was cloned at every hop (client send, proxy poll, proxy
//! re-send, aggregator poll); now the fan-out to `k` proxies costs
//! `k` buffer copies total, not `3k–4k`.
//!
//! The poll hot path is allocation-free: [`Consumer::poll_into`]
//! appends `(topic_index, partition, record)` triples into a
//! caller-owned buffer (records are refcount clones) over the
//! consumer's partitions, fixed at creation, and forwarders append
//! through a [`TopicWriter`] (topic resolved once, one consumer
//! wakeup per batch). The allocating `poll`/`poll_partitioned`
//! wrappers remain for control paths and tests.
//!
//! # Bounded partitions (backpressure)
//!
//! Topics created with [`Broker::create_topic_with_capacity`] bound
//! each partition's backlog: a producer appending to a partition
//! whose `appended − slowest group's committed offset` has reached
//! the capacity blocks until a consumer polls the backlog down. This
//! is what keeps an overlapped deployment's epoch `k+1` from flooding
//! a shard still draining epoch `k`: the producer side parks instead
//! of growing the log without bound.

use crate::wake::EventCount;
use privapprox_types::Timestamp;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// Broker-level failures surfaced to producers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// A bounded partition stayed full past the broker's backpressure
    /// deadline (see [`Broker::set_backpressure_deadline`]): the
    /// consumer group holding the floor is stalled or dead, and the
    /// producer gives up instead of parking forever.
    Backpressure {
        /// Topic whose partition stayed full.
        topic: String,
        /// The full partition.
        partition: usize,
        /// How long the producer waited before giving up.
        waited: Duration,
    },
}

impl core::fmt::Display for BrokerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BrokerError::Backpressure {
                topic,
                partition,
                waited,
            } => write!(
                f,
                "backpressure deadline: partition {partition} of topic {topic:?} stayed \
                 full for {waited:?} — is a consumer group stalled?"
            ),
        }
    }
}

impl std::error::Error for BrokerError {}

/// One record in a partition log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Position within the partition.
    pub offset: u64,
    /// Optional partitioning key, behind a shared immutable buffer
    /// like the payload: polling a record out of the log (which must
    /// retain its copy) bumps a refcount instead of reallocating the
    /// key bytes — previously every hop of every share re-allocated
    /// its 16-byte MID key.
    pub key: Option<Arc<[u8]>>,
    /// Payload bytes, behind a shared immutable buffer: the partition
    /// log, every consumer group's poll and every forwarding re-send
    /// all reference the **same** allocation — cloning a `Record` (or
    /// relaying one through [`Producer::send`]) bumps a refcount
    /// instead of copying the bytes. One client message fanned out to
    /// `k` proxies therefore costs one buffer per share end to end,
    /// not one per pipeline hop.
    pub value: Arc<[u8]>,
    /// Event timestamp assigned by the producer.
    pub timestamp: Timestamp,
}

impl Record {
    /// Wire size used for traffic accounting: key + value + a fixed
    /// 16-byte frame (offset + timestamp), mirroring a compact Kafka
    /// record frame.
    pub fn wire_size(&self) -> u64 {
        16 + self.key.as_ref().map(|k| k.len()).unwrap_or(0) as u64 + self.value.len() as u64
    }
}

#[derive(Debug, Default)]
struct Partition {
    /// Retained records; the front holds offset `base`. Bounded
    /// topics **trim**: records below every registered group's
    /// committed floor pop off the front, so consumed payloads drop
    /// their last log reference and the allocator recycles warm pages
    /// instead of faulting fresh ones for every message (an unbounded
    /// log costs ~3× per append in page faults alone at 1.3 KB
    /// payloads). Unbounded topics retain everything, preserving
    /// read-from-zero semantics for late-joining groups.
    records: VecDeque<Record>,
    /// Offset of the record at the front of `records`.
    base: u64,
    /// Per-group committed offsets, mirrored here from the global
    /// offset map so a bounded producer can compute its backlog — and
    /// the trim point — with only the partition lock held. Maintained
    /// only for topics with a capacity limit (empty map = no
    /// registered consumer yet = no backpressure, no trimming).
    committed: HashMap<String, u64>,
}

struct Topic {
    /// The topic's name, for error reporting.
    name: String,
    partitions: Vec<Mutex<Partition>>,
    /// The event counts of every consumer subscribed to this topic,
    /// notified whenever a partition receives data (and by control
    /// wakes, see [`Broker::notify_topic`]).
    waiters: RwLock<Vec<Arc<EventCount>>>,
    /// Notified whenever a bounded topic's consumer frees backlog;
    /// producers parked on a full partition wait here.
    space: EventCount,
    round_robin: AtomicU64,
    /// Maximum per-partition backlog (appended − slowest group's
    /// committed offset) before producers block; `0` = unbounded.
    capacity: usize,
    /// Overflow policy for a full bounded partition: `true` evicts
    /// the oldest retained record (quarantine semantics — the topic
    /// is a ring of the most recent `capacity` records, producers
    /// never park); `false` applies backpressure (pipeline
    /// semantics). With `drop_oldest`, `capacity` bounds the retained
    /// record count directly, independent of consumer floors.
    drop_oldest: bool,
    /// Records evicted by the `drop_oldest` policy.
    dropped: AtomicU64,
}

impl Topic {
    fn new(name: &str, partitions: usize, capacity: usize) -> Topic {
        Topic::with_policy(name, partitions, capacity, false)
    }

    fn with_policy(name: &str, partitions: usize, capacity: usize, drop_oldest: bool) -> Topic {
        Topic {
            name: name.to_string(),
            partitions: (0..partitions)
                .map(|_| Mutex::new(Partition::default()))
                .collect(),
            waiters: RwLock::new(Vec::new()),
            space: EventCount::new(),
            round_robin: AtomicU64::new(0),
            capacity,
            drop_oldest,
            dropped: AtomicU64::new(0),
        }
    }

    /// Wakes every subscribed consumer that is parked (or about to
    /// park) on its event count.
    fn wake_consumers(&self) {
        for waiter in read(&self.waiters).iter() {
            waiter.notify();
        }
    }
}

/// Cumulative broker-side traffic counters (drives Figure 9a).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Records appended by producers.
    pub records_in: u64,
    /// Bytes appended by producers.
    pub bytes_in: u64,
    /// Records delivered to consumers.
    pub records_out: u64,
    /// Bytes delivered to consumers.
    pub bytes_out: u64,
}

#[derive(Default)]
struct Stats {
    records_in: AtomicU64,
    bytes_in: AtomicU64,
    records_out: AtomicU64,
    bytes_out: AtomicU64,
}

struct BrokerInner {
    topics: RwLock<HashMap<String, Arc<Topic>>>,
    /// How long a producer parks on a full bounded partition before
    /// failing with [`BrokerError::Backpressure`], in nanoseconds.
    backpressure_deadline_ns: AtomicU64,
    group_offsets: Mutex<HashMap<(String, String, usize), u64>>,
    stats: Stats,
    default_partitions: usize,
}

/// A shared, thread-safe message broker.
#[derive(Clone)]
pub struct Broker {
    inner: Arc<BrokerInner>,
}

impl Broker {
    /// Creates a broker whose auto-created topics have
    /// `default_partitions` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `default_partitions` is zero.
    pub fn new(default_partitions: usize) -> Broker {
        assert!(default_partitions > 0, "topics need at least 1 partition");
        Broker {
            inner: Arc::new(BrokerInner {
                topics: RwLock::new(HashMap::new()),
                backpressure_deadline_ns: AtomicU64::new(
                    DEFAULT_BACKPRESSURE_DEADLINE.as_nanos() as u64
                ),
                group_offsets: Mutex::new(HashMap::new()),
                stats: Stats::default(),
                default_partitions,
            }),
        }
    }

    /// Creates a topic explicitly with a partition count; a no-op if
    /// the topic already exists.
    pub fn create_topic(&self, name: &str, partitions: usize) {
        self.create_topic_with_capacity(name, partitions, 0)
    }

    /// Creates a topic whose partitions apply **backpressure**: a
    /// producer appending to a partition whose backlog (records
    /// appended minus the slowest consumer group's committed offset)
    /// has reached `capacity` blocks until a consumer polls the
    /// backlog down. `capacity = 0` means unbounded (the default).
    ///
    /// Bounded partitions also **trim**: records below every
    /// registered group's committed offset drop off the log (their
    /// last log reference), so a pipeline topic's memory stays flat
    /// instead of growing — and page-faulting — without bound. A
    /// group joining after trimming reads from the earliest retained
    /// record.
    ///
    /// Backpressure engages only once at least one consumer group has
    /// registered for the topic — producers racing ahead of consumer
    /// creation would otherwise deadlock on a floor nobody advances.
    /// A no-op if the topic already exists.
    pub fn create_topic_with_capacity(&self, name: &str, partitions: usize, capacity: usize) {
        assert!(partitions > 0, "topics need at least 1 partition");
        let mut topics = write(&self.inner.topics);
        topics
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Topic::new(name, partitions, capacity)));
    }

    /// Creates a bounded topic with **drop-oldest** overflow: each
    /// partition retains at most `capacity` records, and appending to
    /// a full partition evicts the oldest retained record instead of
    /// parking the producer. Evictions are counted per topic (see
    /// [`Broker::topic_dropped`]).
    ///
    /// This is the right policy for quarantine streams like the
    /// deployment's `dead-letter` topic: poisoned input must never
    /// backpressure the hot path, but it must not grow memory without
    /// limit either — under sustained poison the topic becomes a ring
    /// of the most recent `capacity` casualties. Consumers whose
    /// committed offset falls below the trim point resume from the
    /// earliest retained record, exactly like a late joiner on a
    /// bounded pipeline topic.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (an unbounded ring is a
    /// contradiction) or `partitions` is zero. A no-op if the topic
    /// already exists.
    pub fn create_topic_drop_oldest(&self, name: &str, partitions: usize, capacity: usize) {
        assert!(partitions > 0, "topics need at least 1 partition");
        assert!(capacity > 0, "drop-oldest topics need a capacity");
        let mut topics = write(&self.inner.topics);
        topics
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Topic::with_policy(name, partitions, capacity, true)));
    }

    /// Records evicted from `name` by the drop-oldest policy so far
    /// (0 for unknown or backpressure-bounded topics).
    pub fn topic_dropped(&self, name: &str) -> u64 {
        read(&self.inner.topics)
            .get(name)
            .map_or(0, |t| t.dropped.load(Ordering::Relaxed))
    }

    /// Sets how long producers park on a full bounded partition
    /// before failing with [`BrokerError::Backpressure`] (default 60
    /// seconds — a deadlock backstop). Deployments that degrade to
    /// sampling on overload set this near their epoch deadline so a
    /// stalled consumer surfaces as a typed error instead of a wedged
    /// producer thread.
    pub fn set_backpressure_deadline(&self, deadline: Duration) {
        self.inner
            .backpressure_deadline_ns
            .store(deadline.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The current producer-park deadline for full bounded partitions.
    pub fn backpressure_deadline(&self) -> Duration {
        Duration::from_nanos(self.inner.backpressure_deadline_ns.load(Ordering::Relaxed))
    }

    fn topic(&self, name: &str) -> Arc<Topic> {
        if let Some(t) = read(&self.inner.topics).get(name) {
            return Arc::clone(t);
        }
        let mut topics = write(&self.inner.topics);
        Arc::clone(
            topics
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Topic::new(name, self.inner.default_partitions, 0))),
        )
    }

    /// Wakes every consumer subscribed to `topic` without producing a
    /// record: a parked [`Consumer::poll_blocking_into`] returns (with
    /// `0` if there is still no data) and a park through
    /// [`Consumer::wake`] ends. Used by control planes — the sharded
    /// deployment queueing a close command for a shard that is parked
    /// in a blocking poll — so a command is seen at wakeup latency,
    /// not at the park's timeout.
    pub fn notify_topic(&self, topic: &str) {
        self.topic(topic).wake_consumers();
    }

    /// Number of partitions of a topic (auto-creating it if absent).
    pub fn partitions(&self, topic: &str) -> usize {
        self.topic(topic).partitions.len()
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> BrokerStats {
        BrokerStats {
            records_in: self.inner.stats.records_in.load(Ordering::Relaxed),
            bytes_in: self.inner.stats.bytes_in.load(Ordering::Relaxed),
            records_out: self.inner.stats.records_out.load(Ordering::Relaxed),
            bytes_out: self.inner.stats.bytes_out.load(Ordering::Relaxed),
        }
    }

    /// Total records currently stored in a topic across partitions.
    pub fn topic_len(&self, topic: &str) -> u64 {
        let t = self.topic(topic);
        t.partitions
            .iter()
            .map(|p| lock(p).records.len() as u64)
            .sum()
    }

    /// Creates a producer handle.
    pub fn producer(&self) -> Producer {
        Producer {
            broker: self.clone(),
        }
    }

    /// Creates a consumer in `group` subscribed to `topics` that owns
    /// every partition: [`Broker::consumer_of`] with a stride of one.
    pub fn consumer(&self, group: &str, topics: &[&str]) -> Consumer {
        self.consumer_of(group, topics, 0, 1)
    }

    /// Creates a consumer in `group` subscribed to `topics` that owns
    /// partitions `{p : p % shards == shard}` of every topic (see the
    /// module docs). Ownership is fixed here: the consumer starts at
    /// the group's committed offsets of its partitions, and dropping
    /// it withdraws the group's backpressure floors on them.
    ///
    /// # Panics
    ///
    /// Panics unless `shard < shards`.
    pub fn consumer_of(
        &self,
        group: &str,
        topics: &[&str],
        shard: usize,
        shards: usize,
    ) -> Consumer {
        assert!(shard < shards, "shard {shard} of {shards}");
        let mut slots = Vec::new();
        for (ti, name) in topics.iter().enumerate() {
            let topic = self.topic(name);
            for pi in (0..topic.partitions.len()).filter(|p| p % shards == shard) {
                slots.push(Slot {
                    topic_idx: ti as u32,
                    topic: Arc::clone(&topic),
                    partition: pi as u32,
                    offset_key: (group.to_string(), name.to_string(), pi),
                });
            }
        }
        // Register this group's committed-offset floors on the owned
        // partitions of bounded topics so producers start honoring the
        // backlog limit (the floor starts at the group's committed
        // offset, which is 0 for a fresh group).
        {
            let offsets = lock(&self.inner.group_offsets);
            for slot in slots.iter().filter(|s| s.topic.capacity > 0) {
                let committed = offsets.get(&slot.offset_key).copied().unwrap_or(0);
                let mut p = lock(&slot.topic.partitions[slot.partition as usize]);
                // A group joining after trimming starts from the
                // earliest retained record.
                let floor = committed.max(p.base);
                p.committed.entry(group.to_string()).or_insert(floor);
            }
        }
        // One event count covers every subscribed topic: producers and
        // control wakes notify it through each topic's waiter list.
        let wake = Arc::new(EventCount::new());
        for t in topics {
            write(&self.topic(t).waiters).push(Arc::clone(&wake));
        }
        Consumer {
            broker: self.clone(),
            group: group.to_string(),
            topics: topics.iter().map(|s| s.to_string()).collect(),
            wake,
            cursor: AtomicU64::new(0),
            slots,
        }
    }

    /// Creates a [`TopicWriter`] bound to one topic — the hot-path
    /// producer for forwarders: the topic handle is resolved once
    /// instead of a name lookup per record, and appends can defer the
    /// consumer wakeup to one notify per batch.
    pub fn writer(&self, topic: &str) -> TopicWriter {
        TopicWriter {
            broker: self.clone(),
            topic: self.topic(topic),
        }
    }
}

/// Appends records to topics.
#[derive(Clone)]
pub struct Producer {
    broker: Broker,
}

impl Producer {
    /// Sends a record; returns `(partition, offset)`.
    ///
    /// `value` is anything convertible into a shared immutable buffer:
    /// a `Vec<u8>` or `&[u8]` (one copy into a fresh `Arc<[u8]>`), or
    /// an `Arc<[u8]>` — e.g. a [`Record::value`] being relayed — which
    /// is shared as-is, so forwarding paths never copy payload bytes.
    /// # Panics
    ///
    /// Panics if a bounded partition stays full past the broker's
    /// backpressure deadline; fault-tolerant producers use a
    /// [`TopicWriter`]'s `try_` forms to receive the [`BrokerError`]
    /// instead.
    pub fn send(
        &self,
        topic: &str,
        key: Option<Vec<u8>>,
        value: impl Into<Arc<[u8]>>,
        timestamp: Timestamp,
    ) -> (usize, u64) {
        let t = self.broker.topic(topic);
        let n = t.partitions.len();
        let partition = match &key {
            Some(k) => (fnv1a(k) % n as u64) as usize,
            None => (t.round_robin.fetch_add(1, Ordering::Relaxed) % n as u64) as usize,
        };
        let offset = append(
            &self.broker,
            &t,
            partition,
            key.map(Arc::from),
            value.into(),
            timestamp,
            true,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        (partition, offset)
    }

    /// Sends a record to an **explicit partition** — the
    /// partition-affine routing primitive: a sharded deployment maps
    /// each client to a fixed partition so all of its shares (across
    /// every proxy topic) meet at the aggregator shard owning that
    /// partition, and partition-preserving forwarders relay a record
    /// onto the same partition index they polled it from. Returns the
    /// record's offset.
    ///
    /// # Panics
    ///
    /// Panics if the topic does not have partition `partition`, or if
    /// a bounded partition stays full past the broker's backpressure
    /// deadline (use a [`TopicWriter`]'s `try_` forms to handle the
    /// latter).
    pub fn send_to(
        &self,
        topic: &str,
        partition: usize,
        key: Option<Vec<u8>>,
        value: impl Into<Arc<[u8]>>,
        timestamp: Timestamp,
    ) -> u64 {
        let t = self.broker.topic(topic);
        assert!(
            partition < t.partitions.len(),
            "topic {topic:?} has {} partitions, no partition {partition}",
            t.partitions.len()
        );
        append(
            &self.broker,
            &t,
            partition,
            key.map(Arc::from),
            value.into(),
            timestamp,
            true,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Default producer park bound on a full partition — a deadlock
/// backstop (a correctly wired deployment always drains), not a
/// tuning knob; see [`Broker::set_backpressure_deadline`].
const DEFAULT_BACKPRESSURE_DEADLINE: Duration = Duration::from_secs(60);

/// Shared append path: waits for backlog space on bounded topics,
/// writes the record, bumps the traffic counters and (unless the
/// caller batches wakeups) wakes blocked consumers. The bounded wait
/// is deadline-limited: a partition that stays full past the broker's
/// backpressure deadline fails with [`BrokerError::Backpressure`]
/// instead of parking the producer forever. A consumer group dying
/// mid-park is detected without waiting for the deadline — the
/// departing consumer withdraws its group's committed floors and
/// notifies the topic's `space` count, and every wait iteration
/// re-evaluates the backlog against the remaining floors.
fn append(
    broker: &Broker,
    t: &Topic,
    partition: usize,
    key: Option<Arc<[u8]>>,
    value: Arc<[u8]>,
    timestamp: Timestamp,
    notify: bool,
) -> Result<u64, BrokerError> {
    let mut waited = false;
    let started = std::time::Instant::now();
    let deadline = started + broker.backpressure_deadline();
    let (offset, size) = loop {
        // Read before the capacity check: space freed at any point
        // after this ends the park below at once.
        let space = t.space.token();
        let mut p = lock(&t.partitions[partition]);
        let next = p.base + p.records.len() as u64;
        if t.capacity > 0 && !t.drop_oldest {
            // Backlog against the slowest registered group; an empty
            // floor map (no consumer yet) leaves the topic unbounded.
            let floor = p.committed.values().copied().min().unwrap_or(next);
            if next - floor.min(next) >= t.capacity as u64 {
                drop(p);
                if !park_for_space(t, space, deadline) {
                    return Err(BrokerError::Backpressure {
                        topic: t.name.clone(),
                        partition,
                        waited: started.elapsed(),
                    });
                }
                waited = true;
                continue;
            }
        }
        let offset = next;
        let rec = Record {
            offset,
            key,
            value,
            timestamp,
        };
        let size = rec.wire_size();
        p.records.push_back(rec);
        evict_over_capacity(t, &mut p);
        break (offset, size);
    };
    broker
        .inner
        .stats
        .records_in
        .fetch_add(1, Ordering::Relaxed);
    broker
        .inner
        .stats
        .bytes_in
        .fetch_add(size, Ordering::Relaxed);
    if notify || waited {
        // Wake blocked consumers (always after a backpressure wait:
        // the record the consumer is parked for may be this one).
        t.wake_consumers();
    }
    Ok(offset)
}

/// Parks a producer that found its partition full until a consumer
/// frees backlog — any [`EventCount::notify`] on the topic's `space`
/// count newer than `token`, which the caller read before its
/// capacity check — or until `deadline`. `false` means the deadline
/// passed.
fn park_for_space(t: &Topic, token: u64, deadline: std::time::Instant) -> bool {
    let left = deadline.saturating_duration_since(std::time::Instant::now());
    if left.is_zero() {
        return false;
    }
    // Quiet appends may have filled the partition behind a consumer
    // that is parked: the full partition is its wakeup, not a tick.
    t.wake_consumers();
    // Woken or timed out, the caller re-evaluates the backlog (and a
    // timeout fails the deadline check on its next pass).
    t.space.park(token, left);
    true
}

/// Drop-oldest overflow: after an append, evicts from the log front
/// until at most `capacity` records remain, counting evictions.
/// Ring semantics for quarantine topics — producers never park and
/// memory stays bounded even with no consumer at all; a consumer
/// whose offset falls below the new base resumes from the earliest
/// retained record. No-op for unbounded or backpressure topics.
fn evict_over_capacity(t: &Topic, p: &mut Partition) {
    if t.capacity == 0 || !t.drop_oldest {
        return;
    }
    let mut evicted = 0u64;
    while p.records.len() > t.capacity {
        p.records.pop_front();
        p.base += 1;
        evicted += 1;
    }
    if evicted > 0 {
        t.dropped.fetch_add(evicted, Ordering::Relaxed);
    }
}

/// One record of a batch append: `(key, value, timestamp)`. Key and
/// value are shared immutable buffers, so batching costs refcount
/// moves, never payload copies.
pub type BatchEntry = (Option<Arc<[u8]>>, Arc<[u8]>, Timestamp);

/// Batch form of [`append`]: publishes every entry of `records` onto
/// one partition under a **single** lock acquisition, with a single
/// capacity/backpressure evaluation and one stats/notify pass —
/// per-record cost collapses to a `VecDeque` push.
///
/// The contract is **all-or-nothing**: either every record is
/// published at consecutive offsets (returning the first offset and
/// draining `records`, so the caller's buffer can be reused
/// allocation-free) or none is (`records` is left intact, so a retry
/// after `Err` cannot double-publish). This is what lets a producer
/// treat one client message's `n` shares as atomic: a mid-batch
/// `Backpressure` can never half-publish a share set.
///
/// The wait condition generalizes the per-record one: the producer
/// parks while `backlog + records.len() > capacity`, which for a
/// 1-record batch is exactly the `backlog ≥ capacity` check of
/// [`append`]. A batch wider than the whole capacity (which no
/// amount of consumer progress could ever admit) fails fast with
/// [`BrokerError::Backpressure`] instead of parking to the deadline;
/// callers split oversized runs on [`TopicWriter::capacity`]. As in
/// [`append`], backpressure engages only once a consumer group has
/// registered a floor.
fn append_batch(
    broker: &Broker,
    t: &Topic,
    partition: usize,
    records: &mut Vec<BatchEntry>,
    notify: bool,
) -> Result<u64, BrokerError> {
    let n = records.len() as u64;
    if n == 0 {
        return Ok(0);
    }
    let mut waited = false;
    let started = std::time::Instant::now();
    let deadline = started + broker.backpressure_deadline();
    let (first, size) = loop {
        let space = t.space.token();
        let mut p = lock(&t.partitions[partition]);
        let next = p.base + p.records.len() as u64;
        if t.capacity > 0 && !t.drop_oldest {
            if let Some(floor) = p.committed.values().copied().min() {
                let backlog = next - floor.min(next);
                if backlog + n > t.capacity as u64 {
                    drop(p);
                    if n > t.capacity as u64 || !park_for_space(t, space, deadline) {
                        return Err(BrokerError::Backpressure {
                            topic: t.name.clone(),
                            partition,
                            waited: started.elapsed(),
                        });
                    }
                    waited = true;
                    continue;
                }
            }
        }
        let mut size = 0u64;
        for (i, (key, value, timestamp)) in records.drain(..).enumerate() {
            let rec = Record {
                offset: next + i as u64,
                key,
                value,
                timestamp,
            };
            size += rec.wire_size();
            p.records.push_back(rec);
        }
        evict_over_capacity(t, &mut p);
        break (next, size);
    };
    broker
        .inner
        .stats
        .records_in
        .fetch_add(n, Ordering::Relaxed);
    broker
        .inner
        .stats
        .bytes_in
        .fetch_add(size, Ordering::Relaxed);
    if notify || waited {
        t.wake_consumers();
    }
    Ok(first)
}

/// A producer handle bound to a single topic, for forwarding-shaped
/// hot paths: no per-record topic-name hash lookup, shared-buffer key
/// and value pass-through, and batched consumer wakeups
/// ([`TopicWriter::append_quiet`] + one [`TopicWriter::notify`] per
/// batch instead of a wakeup per record).
#[derive(Clone)]
pub struct TopicWriter {
    broker: Broker,
    topic: Arc<Topic>,
}

impl TopicWriter {
    /// Appends to an explicit partition and wakes consumers, like
    /// [`Producer::send_to`] but without the topic lookup and with
    /// shared (refcounted) key bytes.
    ///
    /// # Panics
    ///
    /// Panics on a backpressure deadline; see
    /// [`TopicWriter::try_append_quiet`].
    pub fn send_to(
        &self,
        partition: usize,
        key: Option<Arc<[u8]>>,
        value: impl Into<Arc<[u8]>>,
        timestamp: Timestamp,
    ) -> u64 {
        append(
            &self.broker,
            &self.topic,
            partition,
            key,
            value.into(),
            timestamp,
            true,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Appends without waking consumers; callers forwarding a batch
    /// follow up with one [`TopicWriter::notify`]. (A backpressure
    /// wait still notifies, so a bounded pipeline cannot stall on a
    /// deferred wakeup.)
    ///
    /// # Panics
    ///
    /// Panics on a backpressure deadline; see
    /// [`TopicWriter::try_append_quiet`].
    pub fn append_quiet(
        &self,
        partition: usize,
        key: Option<Arc<[u8]>>,
        value: impl Into<Arc<[u8]>>,
        timestamp: Timestamp,
    ) -> u64 {
        self.try_append_quiet(partition, key, value, timestamp)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`TopicWriter::append_quiet`] returning
    /// [`BrokerError::Backpressure`] when a bounded partition stays
    /// full past the broker's deadline — the form the supervised
    /// deployment's hot paths use, so a stalled consumer degrades the
    /// epoch instead of wedging (or killing) a producer thread.
    pub fn try_append_quiet(
        &self,
        partition: usize,
        key: Option<Arc<[u8]>>,
        value: impl Into<Arc<[u8]>>,
        timestamp: Timestamp,
    ) -> Result<u64, BrokerError> {
        append(
            &self.broker,
            &self.topic,
            partition,
            key,
            value.into(),
            timestamp,
            false,
        )
    }

    /// Publishes a run of records onto one partition atomically —
    /// one lock acquisition, one capacity check, consecutive offsets
    /// — and wakes consumers. Returns the first record's offset;
    /// `records` is drained on success (reuse the buffer) and left
    /// intact on failure. See [`TopicWriter::try_append_batch`] for
    /// the full contract.
    ///
    /// # Panics
    ///
    /// Panics on a backpressure deadline; see
    /// [`TopicWriter::try_append_batch`].
    pub fn append_batch(&self, partition: usize, records: &mut Vec<BatchEntry>) -> u64 {
        append_batch(&self.broker, &self.topic, partition, records, true)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Batch form of [`TopicWriter::try_append_quiet`]: publishes
    /// every entry of `records` onto `partition` under a single lock
    /// acquisition and a single backpressure evaluation, **without**
    /// waking consumers (follow a flush with one
    /// [`TopicWriter::notify`]).
    ///
    /// All-or-nothing: on `Ok` every record was appended at
    /// consecutive offsets (the returned offset is the first) and
    /// `records` is drained, so the caller's buffer — and the
    /// `Arc<[u8]>` payload slots inside it — can be reused without
    /// reallocating; on `Err` **nothing** was published and `records`
    /// is untouched, so retrying the same batch cannot double-publish
    /// and abandoning it cannot half-publish a share set. A batch
    /// larger than the partition capacity fails fast (it could never
    /// fit); chunk on [`TopicWriter::capacity`] first.
    pub fn try_append_batch(
        &self,
        partition: usize,
        records: &mut Vec<BatchEntry>,
    ) -> Result<u64, BrokerError> {
        append_batch(&self.broker, &self.topic, partition, records, false)
    }

    /// Wakes consumers parked on this topic — the batch-end pair of
    /// [`TopicWriter::append_quiet`].
    pub fn notify(&self) {
        self.topic.wake_consumers();
    }

    /// Number of partitions of the bound topic.
    pub fn partitions(&self) -> usize {
        self.topic.partitions.len()
    }

    /// The bound topic's per-partition backlog capacity (`0` =
    /// unbounded) — what batching producers chunk oversized runs on,
    /// since a single batch wider than this can never publish.
    pub fn capacity(&self) -> usize {
        self.topic.capacity
    }
}

/// Sequentially consumes records from subscribed topics: its group's
/// records on the partitions it owns (see the module docs for
/// ownership and fairness semantics).
pub struct Consumer {
    broker: Broker,
    group: String,
    topics: Vec<String>,
    /// What this consumer parks on; registered with every subscribed
    /// topic, so one park covers them all.
    wake: Arc<EventCount>,
    /// Rotating start slot for partition-fair polling: the next poll
    /// begins one past where the previous capped poll stopped.
    cursor: AtomicU64,
    /// The owned (topic, partition) pairs, flattened once at creation
    /// so polls neither re-derive them nor allocate.
    slots: Vec<Slot>,
}

/// One owned (topic, partition) pair. It carries its pre-built
/// offset-map key, so the steady-state poll updates committed offsets
/// in place without cloning group/topic strings per slot per poll.
struct Slot {
    topic_idx: u32,
    topic: Arc<Topic>,
    partition: u32,
    offset_key: (String, String, usize),
}

impl Consumer {
    /// Non-blocking poll into a caller-owned buffer — the hot-path
    /// form of [`Consumer::poll_partitioned`]: appends up to `max`
    /// `(topic_index, partition, record)` triples to `out` and
    /// returns how many were appended. The topic index is the
    /// record's position in this consumer's subscription list
    /// (subscription order), so routing-by-source costs an array
    /// index instead of a topic-name clone per record; with a warm
    /// `out` the poll allocates nothing (records are refcount
    /// clones).
    ///
    /// Offsets advance atomically with the read (one lock), so a
    /// group delivers every record exactly once even when several of
    /// its consumers own a partition. Fairness: iteration starts at a
    /// rotating cursor, so when `max` caps the batch the next poll
    /// resumes at the following partition instead of re-draining the
    /// lowest indices first.
    pub fn poll_into(&self, max: usize, out: &mut Vec<(u32, u32, Record)>) -> usize {
        if max == 0 {
            return 0;
        }
        let slots = &self.slots;
        if slots.is_empty() {
            return 0;
        }
        let pushed_at_entry = out.len();
        let start = (self.cursor.load(Ordering::Relaxed) % slots.len() as u64) as usize;
        let mut offsets = lock(&self.broker.inner.group_offsets);
        let mut freed_bounded = false;
        for k in 0..slots.len() {
            let slot = &slots[(start + k) % slots.len()];
            let committed = offsets.get(&slot.offset_key).copied().unwrap_or(0);
            let mut p = lock(&slot.topic.partitions[slot.partition as usize]);
            let next = p.base + p.records.len() as u64;
            // Reads resume from the earliest retained record if this
            // group's offset predates the trim point (late joiner on
            // a bounded topic).
            let read_from = committed.max(p.base).min(next);
            let take = ((next - read_from) as usize).min(max - (out.len() - pushed_at_entry));
            if take == 0 {
                continue;
            }
            let idx = (read_from - p.base) as usize;
            for rec in p.records.range(idx..idx + take) {
                self.broker
                    .inner
                    .stats
                    .records_out
                    .fetch_add(1, Ordering::Relaxed);
                self.broker
                    .inner
                    .stats
                    .bytes_out
                    .fetch_add(rec.wire_size(), Ordering::Relaxed);
                out.push((slot.topic_idx, slot.partition, rec.clone()));
            }
            let advanced = read_from + take as u64;
            if slot.topic.capacity > 0 {
                // Mirror the committed floor for bounded producers and
                // remember to wake any of them parked on this topic.
                // In-place on the warm path: the floor entry exists
                // from consumer registration.
                match p.committed.get_mut(&self.group) {
                    Some(v) => *v = advanced,
                    None => {
                        p.committed.insert(self.group.clone(), advanced);
                    }
                }
                // Trim: drop records every registered group has
                // consumed — their last log reference — so the pages
                // backing consumed payloads recycle instead of the
                // log growing (and faulting) without bound.
                if let Some(floor) = p.committed.values().copied().min() {
                    while p.base < floor && !p.records.is_empty() {
                        p.records.pop_front();
                        p.base += 1;
                    }
                }
                freed_bounded = true;
            }
            drop(p);
            // In-place on the warm path: the offset entry exists after
            // this slot's first non-empty poll.
            match offsets.get_mut(&slot.offset_key) {
                Some(v) => *v = advanced,
                None => {
                    offsets.insert(slot.offset_key.clone(), advanced);
                }
            }
            if out.len() - pushed_at_entry >= max {
                // Capped mid-rotation: resume after this partition.
                self.cursor.store(
                    (start + k + 1) as u64 % slots.len() as u64,
                    Ordering::Relaxed,
                );
                break;
            }
        }
        drop(offsets);
        if freed_bounded {
            // Wake producers blocked on backlog space. One notify per
            // poll batch: bounded topics trade per-record wakeup
            // latency for batch-granular signalling.
            let mut notified: [Option<&Arc<Topic>>; 8] = [None; 8];
            let mut n = 0;
            for slot in slots.iter() {
                let topic = &slot.topic;
                if topic.capacity == 0
                    || notified[..n]
                        .iter()
                        .any(|t| t.map(|t| Arc::ptr_eq(t, topic)).unwrap_or(false))
                {
                    continue;
                }
                topic.space.notify();
                if n < notified.len() {
                    notified[n] = Some(topic);
                    n += 1;
                }
            }
        }
        out.len() - pushed_at_entry
    }

    /// Allocating wrapper over [`Consumer::poll_into`] reporting topic
    /// names: drains up to `max` available records across the
    /// topic-partitions this consumer owns.
    pub fn poll_partitioned(&self, max: usize) -> Vec<(String, usize, Record)> {
        let mut buf = Vec::new();
        self.poll_into(max, &mut buf);
        self.named(buf)
    }

    /// Replaces subscription indices by topic names.
    fn named(&self, polled: Vec<(u32, u32, Record)>) -> Vec<(String, usize, Record)> {
        polled
            .into_iter()
            .map(|(ti, pi, r)| (self.topics[ti as usize].clone(), pi as usize, r))
            .collect()
    }

    /// [`Consumer::poll_partitioned`] without the partition indices —
    /// the original poll surface, kept for callers that don't route by
    /// partition.
    pub fn poll(&self, max: usize) -> Vec<(String, Record)> {
        self.poll_partitioned(max)
            .into_iter()
            .map(|(t, _, r)| (t, r))
            .collect()
    }

    /// The event count this consumer parks on, notified by every
    /// append-with-wakeup on a subscribed topic, by
    /// and by [`Broker::notify_topic`]. A thread that must
    /// wait for broker records *and* something else (a socket, a
    /// command queue) reads a token from it before checking its
    /// sources and parks on it when all are empty.
    pub fn wake(&self) -> &Arc<EventCount> {
        &self.wake
    }

    /// Blocking poll into a caller-owned buffer: appends everything
    /// available (up to `max`) like [`Consumer::poll_into`]; if that
    /// is nothing, parks until this consumer is **notified** or
    /// `timeout` passes and polls once more. Returns the number
    /// appended.
    ///
    /// `0` therefore means "timed out" *or* "woken without data" — a
    /// control wake ([`Broker::notify_topic`]) — and callers loop. The
    /// park cannot miss a wakeup: the event-count token is read before
    /// the first poll, so a record (on any subscribed topic) or a
    /// control wake landing after that check ends the park
    /// immediately.
    pub fn poll_blocking_into(
        &self,
        max: usize,
        timeout: Duration,
        out: &mut Vec<(u32, u32, Record)>,
    ) -> usize {
        let token = self.wake.token();
        let n = self.poll_into(max, out);
        if n > 0 || !self.wake.park(token, timeout) {
            return n;
        }
        self.poll_into(max, out)
    }

    /// Blocking poll: waits up to `timeout` for at least one record,
    /// riding out wakes that bring no data.
    pub fn poll_blocking(&self, max: usize, timeout: Duration) -> Vec<(String, Record)> {
        let deadline = std::time::Instant::now() + timeout;
        let mut buf = Vec::new();
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if self.poll_blocking_into(max, left, &mut buf) > 0 || left.is_zero() {
                break;
            }
        }
        (buf.into_iter())
            .map(|(ti, _, r)| (self.topics[ti as usize].clone(), r))
            .collect()
    }
}

impl Drop for Consumer {
    /// Withdraws the group's committed floors on the bounded
    /// partitions this consumer owned: a departed consumer must not
    /// freeze backpressure and trimming at its final offset. A
    /// successor in the group re-registers the floor at the group's
    /// committed offset (or the earliest retained record).
    fn drop(&mut self) {
        for slot in self.slots.iter().filter(|s| s.topic.capacity > 0) {
            let mut p = lock(&slot.topic.partitions[slot.partition as usize]);
            if p.committed.remove(&self.group).is_some() {
                drop(p);
                // Producers parked against the withdrawn floor can
                // re-evaluate their backlog now.
                slot.topic.space.notify();
            }
        }
        for topic_name in &self.topics {
            write(&self.broker.topic(topic_name).waiters).retain(|w| !Arc::ptr_eq(w, &self.wake));
        }
    }
}

// A panic in another thread poisons a lock, and these take it anyway:
// every critical section leaves its data consistent before anything in
// it can panic, so a poisoned lock guards no torn state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn ts(v: u64) -> Timestamp {
        Timestamp(v)
    }

    #[test]
    fn a_poisoned_lock_does_not_wedge_the_broker() {
        let broker = Broker::new(2);
        broker.create_topic("t", 2);
        let w = broker.writer("t");
        let c = broker.consumer("g", &["t"]);
        w.send_to(1, None, b"before".to_vec(), ts(1));
        // A thread panics while it holds partition 1's lock, the
        // topic's waiter list and the broker's topic map.
        let topic = broker.topic("t");
        let (held, inner) = (Arc::clone(&topic), Arc::clone(&broker.inner));
        let died = thread::spawn(move || {
            let _partition = lock(&held.partitions[1]);
            let _waiters = write(&held.waiters);
            let _topics = write(&inner.topics);
            panic!("dies holding the locks");
        })
        .join();
        assert!(died.is_err());
        assert!(topic.partitions[1].is_poisoned());
        assert!(topic.waiters.is_poisoned());
        assert!(broker.inner.topics.is_poisoned());
        // Appending to that partition (which wakes the waiter list)
        // and polling it both go through.
        w.send_to(1, None, b"after".to_vec(), ts(2));
        let got: Vec<Vec<u8>> = c
            .poll(10)
            .into_iter()
            .map(|(_, r)| r.value.to_vec())
            .collect();
        assert_eq!(got, [b"before".to_vec(), b"after".to_vec()]);
        // Subscribing and unsubscribing write the waiter list; a new
        // topic writes the topic map.
        let late = broker.consumer("h", &["t", "u"]);
        assert_eq!(late.poll(10).len(), 2);
        drop(late);
        broker.writer("u").send_to(0, None, b"u".to_vec(), ts(3));
        assert_eq!(broker.topic_len("u"), 1);
    }

    #[test]
    fn drop_oldest_topic_evicts_instead_of_parking() {
        let broker = Broker::new(1);
        broker.create_topic_drop_oldest("quarantine", 1, 3);
        let w = broker.writer("quarantine");
        // No consumer at all — a backpressure topic would be
        // unbounded here; a drop-oldest topic must stay capped.
        for i in 0..10u8 {
            w.send_to(0, None, vec![i], ts(i as u64));
        }
        assert_eq!(broker.topic_len("quarantine"), 3);
        assert_eq!(broker.topic_dropped("quarantine"), 7);
        // A late consumer reads the newest `capacity` records.
        let c = broker.consumer("auditor", &["quarantine"]);
        let got: Vec<u8> = c.poll(10).into_iter().map(|(_, r)| r.value[0]).collect();
        assert_eq!(got, vec![7, 8, 9]);
        // Batches never park or fail either, even oversized ones.
        let mut batch: Vec<BatchEntry> = (10..15u8)
            .map(|i| (None, Arc::from(vec![i]), ts(i as u64)))
            .collect();
        w.append_batch(0, &mut batch);
        assert!(batch.is_empty());
        let got: Vec<u8> = c.poll(10).into_iter().map(|(_, r)| r.value[0]).collect();
        assert_eq!(got, vec![12, 13, 14]);
        // Consumed records trim off like any bounded topic's; the
        // retained count never exceeds the ring capacity.
        assert!(broker.topic_len("quarantine") <= 3);
    }

    #[test]
    fn drop_oldest_counter_unknown_topic_is_zero() {
        let broker = Broker::new(1);
        assert_eq!(broker.topic_dropped("nope"), 0);
        broker.create_topic_with_capacity("bounded", 1, 4);
        assert_eq!(broker.topic_dropped("bounded"), 0);
    }

    #[test]
    fn writer_park_timeout_surfaces_backpressure_when_consumers_leak() {
        let broker = Broker::new(1);
        broker.create_topic_with_capacity("pipe", 1, 2);
        // A consumer registers a floor then leaks without running its
        // Drop (a wedged thread still holding the handle): the floor
        // never advances and nobody will ever announce freed space, so
        // only the broker's deadline bounds the producer's park.
        let consumer = broker.consumer("g", &["pipe"]);
        std::mem::forget(consumer);
        broker.set_backpressure_deadline(Duration::from_millis(30));
        assert_eq!(broker.backpressure_deadline(), Duration::from_millis(30));
        let w = broker.writer("pipe");
        w.send_to(0, None, b"a".to_vec(), ts(1));
        w.send_to(0, None, b"b".to_vec(), ts(2));
        let started = std::time::Instant::now();
        let err = w
            .try_append_quiet(0, None, b"c".to_vec(), ts(3))
            .expect_err("full partition with a leaked consumer must time out");
        let waited = started.elapsed();
        match err {
            BrokerError::Backpressure {
                topic, partition, ..
            } => {
                assert_eq!(topic, "pipe");
                assert_eq!(partition, 0);
            }
        }
        // The configured bound, not the broker's 60 s default.
        assert!(waited < Duration::from_secs(5), "waited {waited:?}");
        // The batch path honors the same deadline.
        let mut batch: Vec<BatchEntry> = vec![(None, Arc::from(b"d".as_slice()), ts(4))];
        assert!(w.try_append_batch(0, &mut batch).is_err());
        assert_eq!(batch.len(), 1, "failed batch left intact");
    }

    #[test]
    fn produce_consume_round_trip() {
        let broker = Broker::new(1);
        let producer = broker.producer();
        let consumer = broker.consumer("g", &["answers"]);
        producer.send("answers", None, b"a".to_vec(), ts(1));
        producer.send("answers", None, b"b".to_vec(), ts(2));
        let got = consumer.poll(10);
        assert_eq!(got.len(), 2);
        assert_eq!(&*got[0].1.value, b"a");
        assert_eq!(&*got[1].1.value, b"b");
        // Offsets advanced: nothing left.
        assert!(consumer.poll(10).is_empty());
    }

    #[test]
    fn offsets_are_per_group() {
        let broker = Broker::new(1);
        broker.producer().send("t", None, b"x".to_vec(), ts(1));
        let c1 = broker.consumer("g1", &["t"]);
        let c2 = broker.consumer("g2", &["t"]);
        assert_eq!(c1.poll(10).len(), 1);
        assert_eq!(c2.poll(10).len(), 1, "independent group sees the record");
        assert!(c1.poll(10).is_empty());
    }

    #[test]
    fn keyed_records_stick_to_partitions() {
        let broker = Broker::new(4);
        let producer = broker.producer();
        let (p1, _) = producer.send("t", Some(b"alpha".to_vec()), b"1".to_vec(), ts(1));
        let (p2, _) = producer.send("t", Some(b"alpha".to_vec()), b"2".to_vec(), ts(2));
        assert_eq!(p1, p2, "same key must land in the same partition");
    }

    #[test]
    fn unkeyed_records_round_robin() {
        let broker = Broker::new(4);
        let producer = broker.producer();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4 {
            let (p, _) = producer.send("t", None, vec![i], ts(i as u64));
            seen.insert(p);
        }
        assert_eq!(seen.len(), 4, "round robin should cover all partitions");
    }

    #[test]
    fn per_partition_order_is_preserved() {
        let broker = Broker::new(2);
        let producer = broker.producer();
        for i in 0..100u8 {
            producer.send("t", Some(b"k".to_vec()), vec![i], ts(i as u64));
        }
        let consumer = broker.consumer("g", &["t"]);
        let got = consumer.poll(1000);
        let values: Vec<u8> = got.iter().map(|(_, r)| r.value[0]).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        assert_eq!(values, sorted, "single-key stream must stay ordered");
        // Offsets are contiguous from zero.
        for (i, (_, r)) in got.iter().enumerate() {
            assert_eq!(r.offset, i as u64);
        }
    }

    #[test]
    fn poll_respects_max() {
        let broker = Broker::new(1);
        let producer = broker.producer();
        for i in 0..10u8 {
            producer.send("t", None, vec![i], ts(0));
        }
        let consumer = broker.consumer("g", &["t"]);
        assert_eq!(consumer.poll(3).len(), 3);
        assert_eq!(consumer.poll(3).len(), 3);
        assert_eq!(consumer.poll(100).len(), 4);
    }

    /// The payload allocation is shared, not copied: every consumer
    /// group's poll and a forwarding re-send all see the producer's
    /// original buffer.
    #[test]
    fn payload_buffer_is_shared_not_copied() {
        let broker = Broker::new(1);
        let payload: Arc<[u8]> = Arc::from(&b"one allocation"[..]);
        broker
            .producer()
            .send("t", None, Arc::clone(&payload), ts(1));
        let a = broker.consumer("g1", &["t"]).poll(10);
        let b = broker.consumer("g2", &["t"]).poll(10);
        assert!(Arc::ptr_eq(&payload, &a[0].1.value));
        assert!(Arc::ptr_eq(&payload, &b[0].1.value));
        // Relay (the proxy pattern): still the same allocation.
        broker
            .producer()
            .send("fwd", None, a[0].1.value.clone(), ts(2));
        let c = broker.consumer("g3", &["fwd"]).poll(10);
        assert!(Arc::ptr_eq(&payload, &c[0].1.value));
    }

    #[test]
    fn traffic_stats_accumulate() {
        let broker = Broker::new(1);
        let producer = broker.producer();
        producer.send("t", None, vec![0u8; 100], ts(0));
        let consumer = broker.consumer("g", &["t"]);
        let _ = consumer.poll(10);
        let stats = broker.stats();
        assert_eq!(stats.records_in, 1);
        assert_eq!(stats.records_out, 1);
        assert_eq!(stats.bytes_in, 116); // 100 + 16 frame
        assert_eq!(stats.bytes_out, 116);
    }

    #[test]
    fn blocking_poll_wakes_on_data() {
        let broker = Broker::new(1);
        let consumer = broker.consumer("g", &["t"]);
        let producer = broker.producer();
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            producer.send("t", None, b"wake".to_vec(), ts(1));
        });
        let got = consumer.poll_blocking(10, Duration::from_secs(5));
        handle.join().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(&*got[0].1.value, b"wake");
    }

    /// The park covers every subscribed topic, not just the first: a
    /// record on the *last* topic ends a 10 s park promptly, and so
    /// does a record-less control wake (which reads as `0`).
    #[test]
    fn blocking_poll_wakes_on_any_subscribed_topic_and_on_control_wakes() {
        let broker = Broker::new(1);
        let consumer = broker.consumer("g", &["first", "second", "third"]);
        let mut out = Vec::new();
        for wake_with_data in [true, false] {
            let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
            let broker2 = broker.clone();
            let waker = thread::spawn(move || {
                if wake_with_data {
                    broker2.producer().send("third", None, b"x".to_vec(), ts(1));
                    return;
                }
                // A control wake that lands before the poll has read
                // its token is (rightly) not waited for, so keep
                // ringing until the poll is back.
                while done_rx.try_recv() == Err(std::sync::mpsc::TryRecvError::Empty) {
                    broker2.notify_topic("second");
                    thread::yield_now();
                }
            });
            let start = std::time::Instant::now();
            let n = consumer.poll_blocking_into(10, Duration::from_secs(10), &mut out);
            drop(done_tx);
            waker.join().unwrap();
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "woken by the event"
            );
            assert_eq!(n, usize::from(wake_with_data));
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2, "the record came from the third topic");
    }

    /// Quiet appends ring nobody, so a consumer that parked before
    /// them sleeps on — until the partition fills: the producer wakes
    /// it before parking for space. Both parks are asked for 10 s and
    /// the whole exchange must take well under 1 s.
    #[test]
    fn a_full_partition_wakes_the_parked_consumer() {
        const CAPACITY: usize = 4;
        const TOTAL: usize = 4 * CAPACITY;
        let broker = Broker::new(1);
        broker.set_backpressure_deadline(Duration::from_secs(10));
        broker.create_topic_with_capacity("pipe", 1, CAPACITY);
        let consumer = broker.consumer("g", &["pipe"]);
        let (idle_tx, idle_rx) = std::sync::mpsc::channel();
        let reader = thread::spawn(move || {
            let mut out = Vec::new();
            idle_tx.send(()).unwrap();
            while out.len() < TOTAL {
                consumer.poll_blocking_into(TOTAL, Duration::from_secs(10), &mut out);
            }
        });
        // Let the reader find the topic empty and park.
        idle_rx.recv().unwrap();
        thread::sleep(Duration::from_millis(50));
        let start = std::time::Instant::now();
        let w = broker.writer("pipe");
        for i in 0..TOTAL as u64 {
            w.append_quiet(0, None, vec![0u8; 8], ts(i));
        }
        w.notify();
        reader.join().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "woken by the full partition, not a timeout: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn blocking_poll_times_out_empty() {
        let broker = Broker::new(1);
        let consumer = broker.consumer("g", &["empty"]);
        let start = std::time::Instant::now();
        let got = consumer.poll_blocking(10, Duration::from_millis(50));
        assert!(got.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn send_to_targets_the_exact_partition() {
        let broker = Broker::new(4);
        let producer = broker.producer();
        for p in 0..4usize {
            let off = producer.send_to("t", p, None, vec![p as u8], ts(0));
            assert_eq!(off, 0, "first record of partition {p}");
        }
        let consumer = broker.consumer("g", &["t"]);
        let got = consumer.poll_partitioned(100);
        let mut by_partition: Vec<(usize, u8)> =
            got.iter().map(|(_, p, r)| (*p, r.value[0])).collect();
        by_partition.sort_unstable();
        assert_eq!(by_partition, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    #[should_panic(expected = "no partition")]
    fn send_to_missing_partition_panics() {
        let broker = Broker::new(2);
        broker.producer().send_to("t", 2, None, vec![0], ts(0));
    }

    /// The round-robin cursor: a capped poll resumes at the next
    /// partition, so consecutive poll(1) calls alternate between two
    /// loaded partitions instead of draining partition 0 first.
    #[test]
    fn capped_polls_rotate_across_partitions() {
        let broker = Broker::new(2);
        let producer = broker.producer();
        for i in 0..6u8 {
            producer.send_to("t", (i % 2) as usize, None, vec![i], ts(0));
        }
        let consumer = broker.consumer("g", &["t"]);
        let mut partitions = Vec::new();
        for _ in 0..6 {
            let got = consumer.poll_partitioned(1);
            assert_eq!(got.len(), 1);
            partitions.push(got[0].1);
        }
        assert_eq!(
            partitions,
            vec![0, 1, 0, 1, 0, 1],
            "poll(1) must alternate partitions"
        );
    }

    /// No partition starves: with partition 0 continuously refilled, a
    /// record sitting in partition 1 is still delivered within two
    /// capped polls.
    #[test]
    fn high_partitions_do_not_starve_under_load() {
        let broker = Broker::new(2);
        let producer = broker.producer();
        let consumer = broker.consumer("g", &["t"]);
        producer.send_to("t", 1, None, b"straggler".to_vec(), ts(0));
        let mut seen_partition_1_after = None;
        for round in 0..4 {
            // Keep partition 0 saturated beyond the poll cap.
            for i in 0..8u8 {
                producer.send_to("t", 0, None, vec![i], ts(0));
            }
            let got = consumer.poll_partitioned(4);
            if got.iter().any(|(_, p, _)| *p == 1) {
                seen_partition_1_after = Some(round);
                break;
            }
        }
        assert!(
            matches!(seen_partition_1_after, Some(r) if r <= 1),
            "partition 1 starved: {seen_partition_1_after:?}"
        );
    }

    /// `consumer_of` strides of one group are disjoint, exhaustive and
    /// the same on every topic, and a dropped stride withdraws the
    /// group's backpressure floors on its own partitions only.
    #[test]
    fn group_members_divide_partitions_consistently() {
        const SHARDS: usize = 3;
        let broker = Broker::new(7);
        let producer = broker.producer();
        for topic in ["a", "b"] {
            for p in 0..7 {
                producer.send_to(topic, p, None, vec![p as u8], ts(0));
            }
        }
        let mut delivered: Vec<(String, u8)> = Vec::new();
        for s in 0..SHARDS {
            let shard = broker.consumer_of("g", &["a", "b"], s, SHARDS);
            for (topic, r) in shard.poll(64) {
                assert_eq!(
                    r.value[0] as usize % SHARDS,
                    s,
                    "{topic} outside the stride"
                );
                delivered.push((topic, r.value[0]));
            }
        }
        delivered.sort_unstable();
        let mut expected: Vec<(String, u8)> = ["a", "b"]
            .iter()
            .flat_map(|t| (0..7u8).map(move |p| (t.to_string(), p)))
            .collect();
        expected.sort_unstable();
        assert_eq!(
            delivered, expected,
            "disjoint and exhaustive on both topics"
        );

        broker.create_topic_with_capacity("bounded", 2, 1);
        broker.set_backpressure_deadline(Duration::from_millis(20));
        let even = broker.consumer_of("h", &["bounded"], 0, 2);
        let odd = broker.consumer_of("h", &["bounded"], 1, 2);
        let w = broker.writer("bounded");
        w.send_to(0, None, vec![0], ts(0));
        w.send_to(1, None, vec![1], ts(0));
        assert!(w.try_append_quiet(1, None, vec![2], ts(0)).is_err());
        drop(odd);
        assert!(w.try_append_quiet(1, None, vec![2], ts(0)).is_ok());
        assert!(w.try_append_quiet(0, None, vec![2], ts(0)).is_err());
        assert_eq!(even.poll(8).len(), 1, "the even stride reads only its own");
    }

    /// A record is delivered to exactly one stride of a group, and a
    /// successor with the same stride resumes at the committed offset
    /// of the one that left — nothing lost, nothing repeated.
    #[test]
    fn rebalance_hands_off_offsets_exactly_once() {
        const SHARDS: usize = 3;
        let broker = Broker::new(7);
        let producer = broker.producer();
        for round in 0..2u8 {
            for topic in ["a", "b"] {
                for p in 0..7 {
                    producer.send_to(topic, p, None, vec![round, p as u8], ts(0));
                }
            }
        }
        let mut shards: Vec<Consumer> = (0..SHARDS)
            .map(|s| broker.consumer_of("g", &["a", "b"], s, SHARDS))
            .collect();
        let mut delivered: Vec<(String, u8, u8)> = Vec::new();
        let mut take = |shard: &Consumer, s: usize, max: usize| {
            for (topic, r) in shard.poll(max) {
                assert_eq!(
                    r.value[1] as usize % SHARDS,
                    s,
                    "{topic} outside the stride"
                );
                delivered.push((topic, r.value[0], r.value[1]));
            }
        };
        for (s, shard) in shards.iter().enumerate() {
            take(shard, s, 3);
        }
        // Shard 1 leaves mid-stream; its successor resumes at the
        // group's committed offsets.
        drop(shards.remove(1));
        shards.insert(1, broker.consumer_of("g", &["a", "b"], 1, SHARDS));
        for (s, shard) in shards.iter().enumerate() {
            take(shard, s, 64);
        }
        delivered.sort_unstable();
        let mut expected = Vec::new();
        for topic in ["a", "b"] {
            for round in 0..2u8 {
                for p in 0..7u8 {
                    expected.push((topic.to_string(), round, p));
                }
            }
        }
        expected.sort_unstable();
        assert_eq!(delivered, expected, "exactly once across the handoff");
    }

    /// A bounded partition blocks its producer at capacity and
    /// releases it as soon as a consumer polls the backlog down —
    /// nothing lost, nothing reordered.
    #[test]
    fn bounded_partition_applies_backpressure() {
        let broker = Broker::new(1);
        broker.create_topic_with_capacity("b", 1, 4);
        let consumer = broker.consumer("g", &["b"]);
        let producer = broker.producer();
        // Fill to capacity without blocking.
        for i in 0..4u8 {
            producer.send_to("b", 0, None, vec![i], ts(0));
        }
        // The fifth send must block until the consumer drains.
        let blocked = thread::spawn({
            let producer = producer.clone();
            move || {
                let start = std::time::Instant::now();
                producer.send_to("b", 0, None, vec![4], ts(0));
                start.elapsed()
            }
        });
        thread::sleep(Duration::from_millis(50));
        assert_eq!(consumer.poll(2).len(), 2, "drain frees space");
        let waited = blocked.join().unwrap();
        assert!(
            waited >= Duration::from_millis(40),
            "producer should have blocked (waited {waited:?})"
        );
        // Everything arrives exactly once, in order.
        let mut seen: Vec<u8> = vec![0, 1];
        loop {
            let batch = consumer.poll(16);
            if batch.is_empty() {
                break;
            }
            seen.extend(batch.iter().map(|(_, r)| r.value[0]));
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    /// Bounded topics trim consumed records: once every registered
    /// group's committed offset passes a record, it leaves the log
    /// (memory stays flat), while offsets remain absolute and a
    /// late-joining group reads from the earliest retained record.
    #[test]
    fn bounded_topics_trim_consumed_records() {
        let broker = Broker::new(1);
        broker.create_topic_with_capacity("b", 1, 100);
        let c1 = broker.consumer("g1", &["b"]);
        let producer = broker.producer();
        for i in 0..10u8 {
            producer.send_to("b", 0, None, vec![i], ts(0));
        }
        assert_eq!(broker.topic_len("b"), 10);
        let got = c1.poll(6);
        assert_eq!(got.len(), 6);
        assert_eq!(
            broker.topic_len("b"),
            4,
            "consumed records trimmed off the log"
        );
        // Offsets stay absolute across the trim.
        let more = c1.poll(10);
        assert_eq!(more.len(), 4);
        assert_eq!(more[0].1.offset, 6);
        assert_eq!(broker.topic_len("b"), 0);
        // A group joining after the trim starts at the earliest
        // retained record (nothing retained here → sees only new
        // records), without stalling producers.
        let c2 = broker.consumer("g2", &["b"]);
        producer.send_to("b", 0, None, vec![99], ts(1));
        let late = c2.poll(10);
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].1.value[0], 99);
        assert_eq!(late[0].1.offset, 10);
        // g1 sees it too, exactly once.
        assert_eq!(c1.poll(10).len(), 1);
    }

    /// A group that fully departs a bounded topic releases its
    /// committed floor: backpressure and trimming must track the
    /// *live* slowest group, not a ghost.
    #[test]
    fn departed_group_releases_its_backpressure_floor() {
        let broker = Broker::new(1);
        broker.create_topic_with_capacity("b", 1, 4);
        let slow = broker.consumer("slow", &["b"]);
        let fast = broker.consumer("fast", &["b"]);
        let producer = broker.producer();
        for i in 0..4u8 {
            producer.send_to("b", 0, None, vec![i], ts(0));
        }
        // `fast` is caught up; `slow` never polls, pinning the floor.
        assert_eq!(fast.poll(10).len(), 4);
        assert_eq!(broker.topic_len("b"), 4, "slow group pins retention");
        // Once `slow` departs, its floor must not wedge producers.
        drop(slow);
        for i in 4..8u8 {
            producer.send_to("b", 0, None, vec![i], ts(0));
        }
        assert_eq!(fast.poll(10).len(), 4, "fast sees the new records");
        assert_eq!(broker.topic_len("b"), 0, "trimming resumed");
    }

    /// A producer parked on a full partition when its only consumer
    /// **dies mid-park** must unblock promptly: the departing consumer
    /// withdraws the group's committed floors and signals the waiters,
    /// so the park re-evaluates against the remaining (none) floors
    /// instead of sleeping to the deadline.
    #[test]
    fn consumer_death_mid_park_releases_the_producer() {
        let broker = Broker::new(1);
        broker.create_topic_with_capacity("b", 1, 4);
        let stalled = broker.consumer("g", &["b"]);
        let producer = broker.producer();
        for i in 0..4u8 {
            producer.send_to("b", 0, None, vec![i], ts(0));
        }
        // Deadline far away: only the death can release the park.
        broker.set_backpressure_deadline(Duration::from_secs(30));
        let parked = thread::spawn({
            let writer = broker.writer("b");
            move || {
                let start = std::time::Instant::now();
                let r = writer.try_append_quiet(0, None, vec![4], ts(0));
                (r, start.elapsed())
            }
        });
        thread::sleep(Duration::from_millis(50));
        // Kill the consumer while the producer is parked.
        drop(stalled);
        let (result, waited) = parked.join().unwrap();
        assert!(result.is_ok(), "park released by the dead consumer");
        assert!(
            waited < Duration::from_secs(5),
            "must not sleep to the deadline (waited {waited:?})"
        );
    }

    /// A partition full past the configured deadline fails the append
    /// with a typed `Backpressure` error instead of panicking or
    /// parking forever.
    #[test]
    fn backpressure_deadline_returns_typed_error() {
        let broker = Broker::new(1);
        broker.create_topic_with_capacity("b", 1, 2);
        broker.set_backpressure_deadline(Duration::from_millis(50));
        let _stalled = broker.consumer("g", &["b"]);
        let producer = broker.producer();
        producer.send_to("b", 0, None, vec![0], ts(0));
        producer.send_to("b", 0, None, vec![1], ts(0));
        // Partition full, consumer never polls: deadline fires.
        let writer = broker.writer("b");
        let err = writer
            .try_append_quiet(0, None, vec![2], ts(0))
            .unwrap_err();
        match err {
            BrokerError::Backpressure {
                topic,
                partition,
                waited,
            } => {
                assert_eq!(topic, "b");
                assert_eq!(partition, 0);
                assert!(waited >= Duration::from_millis(50));
            }
        }
        // The batch form reports the same.
        let mut batch: Vec<BatchEntry> = vec![(None, Arc::from(vec![3u8]), ts(0))];
        assert!(writer.try_append_batch(0, &mut batch).is_err());
        // Draining recovers the topic for good.
        assert_eq!(_stalled.poll(10).len(), 2);
        assert!(writer.try_append_quiet(0, None, vec![4], ts(0)).is_ok());
    }

    /// Backpressure only engages once a consumer group exists: a
    /// producer racing ahead of consumer creation must not deadlock
    /// against a floor nobody advances.
    #[test]
    fn bounded_topic_without_consumers_does_not_block() {
        let broker = Broker::new(1);
        broker.create_topic_with_capacity("b", 1, 2);
        let producer = broker.producer();
        for i in 0..10u8 {
            producer.send_to("b", 0, None, vec![i], ts(0));
        }
        assert_eq!(broker.topic_len("b"), 10);
        // A late consumer still sees everything.
        let consumer = broker.consumer("g", &["b"]);
        assert_eq!(consumer.poll(100).len(), 10);
    }

    /// `poll_into` reports subscription-order topic indices and reuses
    /// the caller's buffer.
    #[test]
    fn poll_into_reports_topic_indices() {
        let broker = Broker::new(2);
        broker.create_topic("alpha", 2);
        broker.create_topic("beta", 2);
        let producer = broker.producer();
        producer.send_to("alpha", 0, None, b"a".to_vec(), ts(1));
        producer.send_to("beta", 1, None, b"b".to_vec(), ts(2));
        let consumer = broker.consumer("g", &["alpha", "beta"]);
        let mut buf = Vec::new();
        let n = consumer.poll_into(16, &mut buf);
        assert_eq!(n, 2);
        let mut got: Vec<(u32, u32, u8)> =
            buf.iter().map(|(t, p, r)| (*t, *p, r.value[0])).collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 0, b'a'), (1, 1, b'b')]);
        // The buffer is appended to, not cleared.
        consumer_send_and_poll_appends(&broker, &consumer, &mut buf);
    }

    fn consumer_send_and_poll_appends(
        broker: &Broker,
        consumer: &Consumer,
        buf: &mut Vec<(u32, u32, Record)>,
    ) {
        broker
            .producer()
            .send_to("alpha", 1, None, b"c".to_vec(), ts(3));
        let before = buf.len();
        assert_eq!(consumer.poll_into(16, buf), 1);
        assert_eq!(buf.len(), before + 1);
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let broker = Broker::new(4);
        let mut handles = Vec::new();
        for t in 0..4 {
            let producer = broker.producer();
            handles.push(thread::spawn(move || {
                for i in 0..250u64 {
                    producer.send("t", None, (t * 1000 + i).to_le_bytes().to_vec(), ts(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(broker.topic_len("t"), 1000);
        let consumer = broker.consumer("g", &["t"]);
        let mut total = 0;
        loop {
            let batch = consumer.poll(128);
            if batch.is_empty() {
                break;
            }
            total += batch.len();
        }
        assert_eq!(total, 1000);
    }
}
