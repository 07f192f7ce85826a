//! An in-process pub/sub message broker (the Kafka stand-in).
//!
//! Topics hold ordered partitions of records. Writers append to an
//! explicit partition through a [`TopicWriter`] (the deployment pins
//! client `c` to partition `c mod partitions`; a relay re-publishes on
//! the partition it polled from). Consumers poll their group's records
//! sequentially. All state lives behind `std::sync` locks, and every
//! park is on an [`EventCount`] (a wakeup between a waiter's check and
//! its sleep is never lost, so no park needs a timed re-check), so many
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
//! # Committed offsets
//!
//! Each partition keeps one cursor per consumer group that ever
//! subscribed to it: the group's committed next offset, and how many
//! live consumers of the group own the partition. A poll reads records
//! and advances the cursor under the partition's lock, so delivery is
//! **exactly-once per group**: consumers of one group that own the
//! same partition share its cursor, and a successor created in the
//! same group with the same stride — a respawned shard — resumes where
//! the group stopped (asserted by the sequence-numbered tests in
//! `tests/rebalance.rs`).
//!
//! # Partition fairness
//!
//! A poll capped by `max` resumes round-robin where the previous poll
//! stopped (a rotating cursor over the consumer's assigned
//! partitions) instead of always draining partition 0 first, so a
//! busy low-index partition cannot starve the rest.
//!
//! Payloads are shared immutable buffers ([`Record::value`] and
//! [`Record::key`] are `Arc<[u8]>`): a record is copied into the
//! broker **once**, when it is first appended, and every later hop —
//! consumer polls, proxy forwarding, multiple consumer groups — shares
//! that allocation by refcount, so the fan-out to `k` proxies costs
//! `k` buffer copies in total.
//!
//! The poll hot path is allocation-free: [`Consumer::poll_into`]
//! appends `(topic_index, partition, record)` triples into a
//! caller-owned buffer (records are refcount clones), and writers
//! append without waking anyone, then wake consumers once per batch
//! with [`TopicWriter::notify`].
//!
//! # Bounded partitions (backpressure)
//!
//! Topics created with [`Broker::create_topic_with_capacity`] bound
//! each partition's backlog: a writer appending to a partition whose
//! `appended − slowest live group's committed offset` has reached the
//! capacity parks until a consumer polls the backlog down. This is
//! what keeps an overlapped deployment's epoch `k+1` from flooding a
//! shard still draining epoch `k`: the producer side parks instead of
//! growing the log without bound.

use crate::wake::EventCount;
use privapprox_types::Timestamp;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

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
    /// Optional key (the share's wire key), behind a shared immutable
    /// buffer like the payload: polling a record out of the log bumps
    /// a refcount instead of reallocating the key bytes.
    pub key: Option<Arc<[u8]>>,
    /// Payload bytes, behind a shared immutable buffer: the partition
    /// log, every consumer group's poll and every forwarding re-append
    /// all reference the **same** allocation.
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

#[derive(Default)]
struct Partition {
    /// Retained records; the front holds offset `base`. Bounded
    /// topics **trim**: records below every live group's committed
    /// offset pop off the front, so consumed payloads drop their last
    /// log reference and the allocator recycles warm pages instead of
    /// faulting fresh ones for every message. Unbounded topics retain
    /// everything, so a group that subscribes late reads from zero.
    records: VecDeque<Record>,
    /// Offset of the record at the front of `records`.
    base: u64,
    /// One cursor per consumer group that ever subscribed to this
    /// partition, in subscription order. A cursor outlives its
    /// consumers, so a respawned one resumes where its group stopped;
    /// a [`Slot`] holds its group's index here.
    groups: Vec<Cursor>,
}

/// A consumer group's position in one partition.
struct Cursor {
    group: String,
    /// The group's committed next offset.
    next: u64,
    /// Live consumers of the group that own the partition. Only groups
    /// with one hold the backpressure and trimming floor.
    live: usize,
}

impl Partition {
    /// The offset the next appended record gets.
    fn end(&self) -> u64 {
        self.base + self.records.len() as u64
    }

    /// The slowest live group's committed offset, if any group is live.
    fn floor(&self) -> Option<u64> {
        (self.groups.iter())
            .filter(|c| c.live > 0)
            .map(|c| c.next)
            .min()
    }
}

struct Topic {
    /// The topic's name, for error reporting.
    name: String,
    partitions: Vec<Mutex<Partition>>,
    /// The event counts of every consumer subscribed to this topic,
    /// notified when a writer asks for it and by control wakes (see
    /// [`Broker::notify_topic`]).
    waiters: RwLock<Vec<Arc<EventCount>>>,
    /// Notified whenever a bounded topic's consumer frees backlog;
    /// producers parked on a full partition wait here.
    space: EventCount,
    /// Maximum per-partition backlog (appended − slowest live group's
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
    fn new(name: &str, partitions: usize, capacity: usize, drop_oldest: bool) -> Topic {
        assert!(partitions > 0, "topics need at least 1 partition");
        Topic {
            name: name.to_string(),
            partitions: (0..partitions)
                .map(|_| Mutex::new(Partition::default()))
                .collect(),
            waiters: RwLock::new(Vec::new()),
            space: EventCount::new(),
            capacity,
            drop_oldest,
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether a full partition parks its producers.
    fn applies_backpressure(&self) -> bool {
        self.capacity > 0 && !self.drop_oldest
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
    stats: Stats,
    default_partitions: usize,
}

/// A shared, thread-safe message broker.
#[derive(Clone)]
pub struct Broker {
    inner: Arc<BrokerInner>,
}

/// Default producer park bound on a full partition — a deadlock
/// backstop (a correctly wired deployment always drains), not a
/// tuning knob; see [`Broker::set_backpressure_deadline`].
const DEFAULT_BACKPRESSURE_DEADLINE: Duration = Duration::from_secs(60);

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
    /// appended minus the slowest live consumer group's committed
    /// offset) has reached `capacity` blocks until a consumer polls
    /// the backlog down. `capacity = 0` means unbounded (the default).
    ///
    /// Bounded partitions also **trim**: records below every live
    /// group's committed offset drop off the log (their last log
    /// reference), so a pipeline topic's memory stays flat instead of
    /// growing — and page-faulting — without bound. A group joining
    /// after trimming reads from the earliest retained record.
    ///
    /// Backpressure engages only while at least one consumer group
    /// has a live consumer on the partition — producers racing ahead
    /// of consumer creation would otherwise deadlock on a floor
    /// nobody advances. A no-op if the topic already exists.
    pub fn create_topic_with_capacity(&self, name: &str, partitions: usize, capacity: usize) {
        self.create(name, partitions, capacity, false);
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
        assert!(capacity > 0, "drop-oldest topics need a capacity");
        self.create(name, partitions, capacity, true);
    }

    fn create(&self, name: &str, partitions: usize, capacity: usize, drop_oldest: bool) {
        (write(&self.inner.topics).entry(name.to_string()))
            .or_insert_with(|| Arc::new(Topic::new(name, partitions, capacity, drop_oldest)));
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

    fn topic(&self, name: &str) -> Arc<Topic> {
        if let Some(t) = read(&self.inner.topics).get(name) {
            return Arc::clone(t);
        }
        self.create(name, self.inner.default_partitions, 0, false);
        Arc::clone(&read(&self.inner.topics)[name])
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
        let s = &self.inner.stats;
        BrokerStats {
            records_in: s.records_in.load(Ordering::Relaxed),
            bytes_in: s.bytes_in.load(Ordering::Relaxed),
            records_out: s.records_out.load(Ordering::Relaxed),
            bytes_out: s.bytes_out.load(Ordering::Relaxed),
        }
    }

    /// Total records currently stored in a topic across partitions.
    pub fn topic_len(&self, topic: &str) -> u64 {
        (self.topic(topic).partitions.iter())
            .map(|p| lock(p).records.len() as u64)
            .sum()
    }

    /// Creates a consumer in `group` subscribed to `topics` that owns
    /// every partition: [`Broker::consumer_of`] with a stride of one.
    pub fn consumer(&self, group: &str, topics: &[&str]) -> Consumer {
        self.consumer_of(group, topics, 0, 1)
    }

    /// Creates a consumer in `group` subscribed to `topics` that owns
    /// partitions `{p : p % shards == shard}` of every topic (see the
    /// module docs). Ownership is fixed here: the consumer starts at
    /// the group's committed offsets of its partitions (the earliest
    /// retained record for a new group), and the group holds the
    /// backpressure floor on them until its last live consumer drops.
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
        // One event count covers every subscribed topic: writers and
        // control wakes notify it through each topic's waiter list.
        let wake = Arc::new(EventCount::new());
        let topics: Vec<Arc<Topic>> = topics.iter().map(|name| self.topic(name)).collect();
        let mut slots = Vec::new();
        for (ti, topic) in topics.iter().enumerate() {
            write(&topic.waiters).push(Arc::clone(&wake));
            for pi in (0..topic.partitions.len()).filter(|p| p % shards == shard) {
                let mut p = lock(&topic.partitions[pi]);
                let gi = match p.groups.iter().position(|c| c.group == group) {
                    Some(i) => i,
                    None => {
                        p.groups.push(Cursor {
                            group: group.to_string(),
                            next: 0,
                            live: 0,
                        });
                        p.groups.len() - 1
                    }
                };
                // A group joining after trimming starts from the
                // earliest retained record.
                let base = p.base;
                let c = &mut p.groups[gi];
                c.next = c.next.max(base);
                c.live += 1;
                slots.push(Slot {
                    topic_idx: ti as u32,
                    topic: Arc::clone(topic),
                    partition: pi as u32,
                    group: gi,
                });
            }
        }
        Consumer {
            broker: self.clone(),
            topics,
            wake,
            cursor: AtomicU64::new(0),
            slots,
        }
    }

    /// Creates a [`TopicWriter`] bound to one topic (auto-creating it
    /// if absent): the topic is resolved once, not per record.
    pub fn writer(&self, topic: &str) -> TopicWriter {
        TopicWriter {
            broker: self.clone(),
            topic: self.topic(topic),
        }
    }
}

/// One record of a batch append: `(key, value, timestamp)`. Key and
/// value are shared immutable buffers, so batching costs refcount
/// moves, never payload copies.
pub type BatchEntry = (Option<Arc<[u8]>>, Arc<[u8]>, Timestamp);

/// Appends to one topic, on an explicit partition. Every append —
/// one record or a batch — takes the same path: one partition lock,
/// one capacity check, consecutive offsets, all or nothing.
///
/// The `try_` appends wake no consumer themselves (except after a
/// backpressure wait); a writer follows a run of them with one
/// [`TopicWriter::notify`].
#[derive(Clone)]
pub struct TopicWriter {
    broker: Broker,
    topic: Arc<Topic>,
}

impl TopicWriter {
    /// Appends one record to `partition` — the proxy relay's per-record
    /// form of [`TopicWriter::try_append_batch`], with the same
    /// backpressure rule and error. `value` is anything convertible
    /// into a shared immutable buffer: a `Vec<u8>` or `&[u8]` (one
    /// copy), or an `Arc<[u8]>` — e.g. a [`Record::value`] being
    /// relayed — which is shared as-is. Returns the record's offset.
    pub fn try_append_quiet(
        &self,
        partition: usize,
        key: Option<Arc<[u8]>>,
        value: impl Into<Arc<[u8]>>,
        timestamp: Timestamp,
    ) -> Result<u64, BrokerError> {
        let value = value.into();
        self.append(partition, 1, false, |log, offset| {
            push(log, offset, key, value, timestamp)
        })
    }

    /// [`TopicWriter::try_append_batch`] that wakes consumers, and
    /// panics on a backpressure deadline instead of returning it.
    pub fn append_batch(&self, partition: usize, records: &mut Vec<BatchEntry>) -> u64 {
        self.append_entries(partition, records, true)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Publishes every entry of `records` onto `partition` under a
    /// single lock acquisition and a single backpressure evaluation,
    /// without waking consumers.
    ///
    /// All-or-nothing: on `Ok` every record was appended at
    /// consecutive offsets (the returned offset is the first) and
    /// `records` is drained, so the caller's buffer — and the
    /// `Arc<[u8]>` payload slots inside it — can be reused without
    /// reallocating; on `Err` **nothing** was published and `records`
    /// is untouched, so retrying the same batch cannot double-publish
    /// and abandoning it cannot half-publish a share set. A batch
    /// larger than the partition capacity fails fast (it could never
    /// fit); chunk on [`TopicWriter::capacity`] first. An empty batch
    /// returns `Ok(0)` and publishes nothing.
    pub fn try_append_batch(
        &self,
        partition: usize,
        records: &mut Vec<BatchEntry>,
    ) -> Result<u64, BrokerError> {
        self.append_entries(partition, records, false)
    }

    fn append_entries(
        &self,
        partition: usize,
        records: &mut Vec<BatchEntry>,
        notify: bool,
    ) -> Result<u64, BrokerError> {
        self.append(partition, records.len(), notify, |log, first| {
            (records.drain(..).zip(first..))
                .map(|((key, value, timestamp), offset)| push(log, offset, key, value, timestamp))
                .sum()
        })
    }

    /// The one append path. Parks while the partition's backlog plus
    /// the `n` new records would exceed a backpressure topic's
    /// capacity, then lets `fill` push the records at consecutive
    /// offsets from the one it is handed (it returns their wire
    /// bytes), counts them and — if `notify`, or after a park, since
    /// the parked-for consumer may want these very records — wakes
    /// consumers.
    ///
    /// The park is deadline-limited: a partition that stays full past
    /// the broker's backpressure deadline fails with
    /// [`BrokerError::Backpressure`], and so does, at once, a run wider
    /// than the whole capacity. A consumer group whose last live member
    /// drops mid-park withdraws its floor and notifies the topic's
    /// `space` count, so the park re-evaluates without waiting for the
    /// deadline.
    fn append(
        &self,
        partition: usize,
        n: usize,
        notify: bool,
        fill: impl FnOnce(&mut VecDeque<Record>, u64) -> u64,
    ) -> Result<u64, BrokerError> {
        let t = &*self.topic;
        if n == 0 {
            return Ok(0);
        }
        let started = Instant::now();
        let deadline_ns = self
            .broker
            .inner
            .backpressure_deadline_ns
            .load(Ordering::Relaxed);
        let deadline = started + Duration::from_nanos(deadline_ns);
        let mut waited = false;
        let (first, size) = loop {
            // Read before the capacity check: space freed at any point
            // after this ends the park below at once.
            let space = t.space.token();
            let mut p = lock(&t.partitions[partition]);
            let end = p.end();
            let backlog = p.floor().map_or(0, |floor| end - floor.min(end));
            if t.applies_backpressure() && backlog + n as u64 > t.capacity as u64 {
                drop(p);
                if n > t.capacity || !park_for_space(t, space, deadline) {
                    return Err(BrokerError::Backpressure {
                        topic: t.name.clone(),
                        partition,
                        waited: started.elapsed(),
                    });
                }
                waited = true;
                continue;
            }
            let size = fill(&mut p.records, end);
            if t.drop_oldest {
                evict_over_capacity(t, &mut p);
            }
            break (end, size);
        };
        let stats = &self.broker.inner.stats;
        stats.records_in.fetch_add(n as u64, Ordering::Relaxed);
        stats.bytes_in.fetch_add(size, Ordering::Relaxed);
        if notify || waited {
            t.wake_consumers();
        }
        Ok(first)
    }

    /// Wakes consumers parked on this topic — the end of a run of
    /// appends.
    pub fn notify(&self) {
        self.topic.wake_consumers();
    }

    /// The bound topic's per-partition backlog capacity (`0` =
    /// unbounded) — what batching producers chunk oversized runs on,
    /// since a single batch wider than this can never publish.
    pub fn capacity(&self) -> usize {
        self.topic.capacity
    }
}

/// Pushes one record onto a partition log; returns its wire size.
fn push(
    log: &mut VecDeque<Record>,
    offset: u64,
    key: Option<Arc<[u8]>>,
    value: Arc<[u8]>,
    timestamp: Timestamp,
) -> u64 {
    let rec = Record {
        offset,
        key,
        value,
        timestamp,
    };
    let size = rec.wire_size();
    log.push_back(rec);
    size
}

/// Parks a producer that found its partition full until a consumer
/// frees backlog — any [`EventCount::notify`] on the topic's `space`
/// count newer than `token`, which the caller read before its
/// capacity check — or until `deadline`. `false` means the deadline
/// passed.
fn park_for_space(t: &Topic, token: u64, deadline: Instant) -> bool {
    let left = deadline.saturating_duration_since(Instant::now());
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
/// until at most `capacity` records remain, counting evictions, so a
/// quarantine topic's producers never park and its memory stays
/// bounded even with no consumer at all. A consumer whose offset falls
/// below the new base resumes from the earliest retained record.
fn evict_over_capacity(t: &Topic, p: &mut Partition) {
    let evicted = p.records.len().saturating_sub(t.capacity);
    if evicted > 0 {
        p.records.drain(..evicted);
        p.base += evicted as u64;
        t.dropped.fetch_add(evicted as u64, Ordering::Relaxed);
    }
}

/// Sequentially consumes records from subscribed topics: its group's
/// records on the partitions it owns (see the module docs for
/// ownership and fairness semantics).
pub struct Consumer {
    broker: Broker,
    /// The subscribed topics, in subscription order.
    topics: Vec<Arc<Topic>>,
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

/// One owned (topic, partition) pair.
struct Slot {
    topic_idx: u32,
    topic: Arc<Topic>,
    partition: u32,
    /// The index of the consumer's group's [`Cursor`] in the partition.
    group: usize,
}

impl Consumer {
    /// Non-blocking poll into a caller-owned buffer: appends up to
    /// `max` `(topic_index, partition, record)` triples to `out` and
    /// returns how many were appended. The topic index is the
    /// record's position in this consumer's subscription list
    /// (subscription order), so routing-by-source costs an array
    /// index instead of a topic-name clone per record; with a warm
    /// `out` the poll allocates nothing (records are refcount
    /// clones).
    ///
    /// The group's cursor advances under the partition lock that the
    /// read holds, so a group delivers every record exactly once even
    /// when several of its consumers own a partition. Fairness:
    /// iteration starts at a rotating cursor, so when `max` caps the
    /// batch the next poll resumes at the following partition instead
    /// of re-draining the lowest indices first.
    pub fn poll_into(&self, max: usize, out: &mut Vec<(u32, u32, Record)>) -> usize {
        let slots = &self.slots;
        if max == 0 || slots.is_empty() {
            return 0;
        }
        let pushed_at_entry = out.len();
        let start = (self.cursor.load(Ordering::Relaxed) % slots.len() as u64) as usize;
        let (mut bytes, mut freed_bounded) = (0u64, false);
        for k in 0..slots.len() {
            let slot = &slots[(start + k) % slots.len()];
            let mut guard = lock(&slot.topic.partitions[slot.partition as usize]);
            let p = &mut *guard;
            let end = p.end();
            let cursor = &mut p.groups[slot.group];
            // Reads resume from the earliest retained record if this
            // group's offset predates the trim point.
            let read_from = cursor.next.max(p.base).min(end);
            let take = ((end - read_from) as usize).min(max - (out.len() - pushed_at_entry));
            if take == 0 {
                continue;
            }
            cursor.next = read_from + take as u64;
            let idx = (read_from - p.base) as usize;
            for rec in p.records.range(idx..idx + take) {
                bytes += rec.wire_size();
                out.push((slot.topic_idx, slot.partition, rec.clone()));
            }
            if slot.topic.capacity > 0 {
                // Trim: drop records every live group has consumed —
                // their last log reference — so the pages backing
                // consumed payloads recycle instead of the log growing
                // (and faulting) without bound.
                let trim = p.floor().map_or(0, |floor| floor.saturating_sub(p.base));
                let trim = (trim as usize).min(p.records.len());
                p.records.drain(..trim);
                p.base += trim as u64;
                freed_bounded = true;
            }
            drop(guard);
            if out.len() - pushed_at_entry >= max {
                // Capped mid-rotation: resume after this partition.
                let resume = (start + k + 1) % slots.len();
                self.cursor.store(resume as u64, Ordering::Relaxed);
                break;
            }
        }
        let polled = out.len() - pushed_at_entry;
        if polled == 0 {
            // An empty poll writes nothing that other threads read.
            return 0;
        }
        let stats = &self.broker.inner.stats;
        stats
            .records_out
            .fetch_add(polled as u64, Ordering::Relaxed);
        stats.bytes_out.fetch_add(bytes, Ordering::Relaxed);
        if freed_bounded {
            // Wake producers blocked on backlog space: one notify per
            // bounded topic per poll batch.
            for topic in self.topics.iter().filter(|t| t.capacity > 0) {
                topic.space.notify();
            }
        }
        polled
    }

    /// The event count this consumer parks on, notified by
    /// [`TopicWriter::notify`] and [`TopicWriter::append_batch`] on a
    /// subscribed topic, by a producer parking on a full one, and by
    /// [`Broker::notify_topic`]. A thread that must wait for broker
    /// records *and* something else (a socket, a command queue) reads
    /// a token from it before checking its sources and parks on it
    /// when all are empty.
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
    /// the first poll, so a wake (on any subscribed topic) landing
    /// after that check ends the park immediately.
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
}

impl Drop for Consumer {
    /// Leaves the group on the partitions this consumer owned. The
    /// group's cursor stays (a successor resumes at it), but once its
    /// last live consumer of a partition is gone the group no longer
    /// holds that partition's backpressure and trimming floor: a
    /// departed group must not freeze them at its final offset.
    fn drop(&mut self) {
        for slot in &self.slots {
            let mut p = lock(&slot.topic.partitions[slot.partition as usize]);
            let cursor = &mut p.groups[slot.group];
            cursor.live -= 1;
            if cursor.live == 0 && slot.topic.capacity > 0 {
                drop(p);
                // Producers parked against the withdrawn floor can
                // re-evaluate their backlog now.
                slot.topic.space.notify();
            }
        }
        for topic in &self.topics {
            write(&topic.waiters).retain(|w| !Arc::ptr_eq(w, &self.wake));
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn ts(v: u64) -> Timestamp {
        Timestamp(v)
    }

    /// Appends one unkeyed record to `topic`'s `partition` and wakes
    /// its consumers; returns the record's offset.
    fn put(broker: &Broker, topic: &str, partition: usize, value: impl Into<Arc<[u8]>>) -> u64 {
        let w = broker.writer(topic);
        let offset = w.try_append_quiet(partition, None, value, ts(0)).unwrap();
        w.notify();
        offset
    }

    /// Polls up to `max` records into a fresh buffer.
    fn poll(consumer: &Consumer, max: usize) -> Vec<(u32, u32, Record)> {
        let mut out = Vec::new();
        consumer.poll_into(max, &mut out);
        out
    }

    /// The first payload byte of every polled record.
    fn firsts(polled: &[(u32, u32, Record)]) -> Vec<u8> {
        polled.iter().map(|(_, _, r)| r.value[0]).collect()
    }

    #[test]
    fn a_poisoned_lock_does_not_wedge_the_broker() {
        let broker = Broker::new(2);
        broker.create_topic("t", 2);
        let c = broker.consumer("g", &["t"]);
        put(&broker, "t", 1, b"before".to_vec());
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
        put(&broker, "t", 1, b"after".to_vec());
        let got: Vec<Vec<u8>> = (poll(&c, 10).into_iter())
            .map(|(_, _, r)| r.value.to_vec())
            .collect();
        assert_eq!(got, [b"before".to_vec(), b"after".to_vec()]);
        // Subscribing and unsubscribing write the waiter list; a new
        // topic writes the topic map.
        let late = broker.consumer("h", &["t", "u"]);
        assert_eq!(poll(&late, 10).len(), 2);
        drop(late);
        put(&broker, "u", 0, b"u".to_vec());
        assert_eq!(broker.topic_len("u"), 1);
    }

    #[test]
    fn drop_oldest_topic_evicts_instead_of_parking() {
        let broker = Broker::new(1);
        broker.create_topic_drop_oldest("quarantine", 1, 3);
        // No consumer at all — a backpressure topic would be
        // unbounded here; a drop-oldest topic must stay capped.
        for i in 0..10u8 {
            put(&broker, "quarantine", 0, vec![i]);
        }
        assert_eq!(broker.topic_len("quarantine"), 3);
        assert_eq!(broker.topic_dropped("quarantine"), 7);
        // A late consumer reads the newest `capacity` records.
        let c = broker.consumer("auditor", &["quarantine"]);
        assert_eq!(firsts(&poll(&c, 10)), vec![7, 8, 9]);
        // Batches never park or fail either, even oversized ones.
        let mut batch: Vec<BatchEntry> = (10..15u8)
            .map(|i| (None, Arc::from(vec![i]), ts(i as u64)))
            .collect();
        broker.writer("quarantine").append_batch(0, &mut batch);
        assert!(batch.is_empty());
        assert_eq!(firsts(&poll(&c, 10)), vec![12, 13, 14]);
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
        put(&broker, "pipe", 0, b"a".to_vec());
        put(&broker, "pipe", 0, b"b".to_vec());
        let w = broker.writer("pipe");
        let started = Instant::now();
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
        let consumer = broker.consumer("g", &["answers"]);
        put(&broker, "answers", 0, b"a".to_vec());
        put(&broker, "answers", 0, b"b".to_vec());
        let got = poll(&consumer, 10);
        assert_eq!(got.len(), 2);
        assert_eq!(&*got[0].2.value, b"a");
        assert_eq!(&*got[1].2.value, b"b");
        // Offsets advanced: nothing left.
        assert!(poll(&consumer, 10).is_empty());
    }

    #[test]
    fn offsets_are_per_group() {
        let broker = Broker::new(1);
        put(&broker, "t", 0, b"x".to_vec());
        let c1 = broker.consumer("g1", &["t"]);
        let c2 = broker.consumer("g2", &["t"]);
        assert_eq!(poll(&c1, 10).len(), 1);
        assert_eq!(poll(&c2, 10).len(), 1, "independent group sees the record");
        assert!(poll(&c1, 10).is_empty());
    }

    #[test]
    fn per_partition_order_is_preserved() {
        let broker = Broker::new(2);
        for i in 0..100u8 {
            put(&broker, "t", 1, vec![i]);
        }
        let consumer = broker.consumer("g", &["t"]);
        let got = poll(&consumer, 1000);
        assert_eq!(firsts(&got), (0..100u8).collect::<Vec<_>>());
        // Offsets are contiguous from zero.
        for (i, (_, _, r)) in got.iter().enumerate() {
            assert_eq!(r.offset, i as u64);
        }
    }

    #[test]
    fn poll_respects_max() {
        let broker = Broker::new(1);
        for i in 0..10u8 {
            put(&broker, "t", 0, vec![i]);
        }
        let consumer = broker.consumer("g", &["t"]);
        assert_eq!(poll(&consumer, 3).len(), 3);
        assert_eq!(poll(&consumer, 3).len(), 3);
        assert_eq!(poll(&consumer, 100).len(), 4);
    }

    /// The payload allocation is shared, not copied: every consumer
    /// group's poll and a forwarding re-append all see the producer's
    /// original buffer.
    #[test]
    fn payload_buffer_is_shared_not_copied() {
        let broker = Broker::new(1);
        let payload: Arc<[u8]> = Arc::from(&b"one allocation"[..]);
        put(&broker, "t", 0, Arc::clone(&payload));
        let a = poll(&broker.consumer("g1", &["t"]), 10);
        let b = poll(&broker.consumer("g2", &["t"]), 10);
        assert!(Arc::ptr_eq(&payload, &a[0].2.value));
        assert!(Arc::ptr_eq(&payload, &b[0].2.value));
        // Relay (the proxy pattern): still the same allocation.
        put(&broker, "fwd", 0, a[0].2.value.clone());
        let c = poll(&broker.consumer("g3", &["fwd"]), 10);
        assert!(Arc::ptr_eq(&payload, &c[0].2.value));
    }

    #[test]
    fn traffic_stats_accumulate() {
        let broker = Broker::new(1);
        put(&broker, "t", 0, vec![0u8; 100]);
        let consumer = broker.consumer("g", &["t"]);
        let _ = poll(&consumer, 10);
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
        let handle = thread::spawn({
            let broker = broker.clone();
            move || {
                thread::sleep(Duration::from_millis(30));
                put(&broker, "t", 0, b"wake".to_vec());
            }
        });
        let mut got = Vec::new();
        let n = consumer.poll_blocking_into(10, Duration::from_secs(5), &mut got);
        handle.join().unwrap();
        assert_eq!(n, 1);
        assert_eq!(&*got[0].2.value, b"wake");
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
                    put(&broker2, "third", 0, b"x".to_vec());
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
            let start = Instant::now();
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
        let start = Instant::now();
        let w = broker.writer("pipe");
        for i in 0..TOTAL as u64 {
            w.try_append_quiet(0, None, vec![0u8; 8], ts(i)).unwrap();
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
        let start = Instant::now();
        let mut got = Vec::new();
        assert_eq!(
            consumer.poll_blocking_into(10, Duration::from_millis(50), &mut got),
            0
        );
        assert!(got.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn send_to_targets_the_exact_partition() {
        let broker = Broker::new(4);
        for p in 0..4usize {
            let off = put(&broker, "t", p, vec![p as u8]);
            assert_eq!(off, 0, "first record of partition {p}");
        }
        let consumer = broker.consumer("g", &["t"]);
        let mut by_partition: Vec<(u32, u8)> = (poll(&consumer, 100).iter())
            .map(|(_, p, r)| (*p, r.value[0]))
            .collect();
        by_partition.sort_unstable();
        assert_eq!(by_partition, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn send_to_missing_partition_panics() {
        let broker = Broker::new(2);
        let _ = broker.writer("t").try_append_quiet(2, None, vec![0], ts(0));
    }

    /// The round-robin cursor: a capped poll resumes at the next
    /// partition, so consecutive poll(1) calls alternate between two
    /// loaded partitions instead of draining partition 0 first.
    #[test]
    fn capped_polls_rotate_across_partitions() {
        let broker = Broker::new(2);
        for i in 0..6u8 {
            put(&broker, "t", (i % 2) as usize, vec![i]);
        }
        let consumer = broker.consumer("g", &["t"]);
        let mut partitions = Vec::new();
        for _ in 0..6 {
            let got = poll(&consumer, 1);
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
        let consumer = broker.consumer("g", &["t"]);
        put(&broker, "t", 1, b"straggler".to_vec());
        let mut seen_partition_1_after = None;
        for round in 0..4 {
            // Keep partition 0 saturated beyond the poll cap.
            for i in 0..8u8 {
                put(&broker, "t", 0, vec![i]);
            }
            if poll(&consumer, 4).iter().any(|(_, p, _)| *p == 1) {
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
        for topic in ["a", "b"] {
            for p in 0..7 {
                put(&broker, topic, p, vec![p as u8]);
            }
        }
        let mut delivered: Vec<(u32, u8)> = Vec::new();
        for s in 0..SHARDS {
            let shard = broker.consumer_of("g", &["a", "b"], s, SHARDS);
            for (topic, _, r) in poll(&shard, 64) {
                assert_eq!(
                    r.value[0] as usize % SHARDS,
                    s,
                    "topic {topic} outside the stride"
                );
                delivered.push((topic, r.value[0]));
            }
        }
        delivered.sort_unstable();
        let expected: Vec<(u32, u8)> = (0..2u32)
            .flat_map(|t| (0..7u8).map(move |p| (t, p)))
            .collect();
        assert_eq!(
            delivered, expected,
            "disjoint and exhaustive on both topics"
        );

        broker.create_topic_with_capacity("bounded", 2, 1);
        broker.set_backpressure_deadline(Duration::from_millis(20));
        let even = broker.consumer_of("h", &["bounded"], 0, 2);
        let odd = broker.consumer_of("h", &["bounded"], 1, 2);
        let w = broker.writer("bounded");
        put(&broker, "bounded", 0, vec![0]);
        put(&broker, "bounded", 1, vec![1]);
        assert!(w.try_append_quiet(1, None, vec![2], ts(0)).is_err());
        drop(odd);
        assert!(w.try_append_quiet(1, None, vec![2], ts(0)).is_ok());
        assert!(w.try_append_quiet(0, None, vec![2], ts(0)).is_err());
        assert_eq!(
            poll(&even, 8).len(),
            1,
            "the even stride reads only its own"
        );
    }

    /// A record is delivered to exactly one stride of a group, and a
    /// successor with the same stride resumes at the committed offset
    /// of the one that left — nothing lost, nothing repeated.
    #[test]
    fn rebalance_hands_off_offsets_exactly_once() {
        const SHARDS: usize = 3;
        let broker = Broker::new(7);
        for round in 0..2u8 {
            for topic in ["a", "b"] {
                for p in 0..7 {
                    put(&broker, topic, p, vec![round, p as u8]);
                }
            }
        }
        let mut shards: Vec<Consumer> = (0..SHARDS)
            .map(|s| broker.consumer_of("g", &["a", "b"], s, SHARDS))
            .collect();
        let mut delivered: Vec<(u32, u8, u8)> = Vec::new();
        let mut take = |shard: &Consumer, s: usize, max: usize| {
            for (topic, _, r) in poll(shard, max) {
                assert_eq!(
                    r.value[1] as usize % SHARDS,
                    s,
                    "topic {topic} outside the stride"
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
        for topic in 0..2u32 {
            for round in 0..2u8 {
                for p in 0..7u8 {
                    expected.push((topic, round, p));
                }
            }
        }
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
        // Fill to capacity without blocking.
        for i in 0..4u8 {
            put(&broker, "b", 0, vec![i]);
        }
        // The fifth append must block until the consumer drains.
        let blocked = thread::spawn({
            let broker = broker.clone();
            move || {
                let start = Instant::now();
                put(&broker, "b", 0, vec![4]);
                start.elapsed()
            }
        });
        thread::sleep(Duration::from_millis(50));
        assert_eq!(poll(&consumer, 2).len(), 2, "drain frees space");
        let waited = blocked.join().unwrap();
        assert!(
            waited >= Duration::from_millis(40),
            "producer should have blocked (waited {waited:?})"
        );
        // Everything arrives exactly once, in order.
        let mut seen: Vec<u8> = vec![0, 1];
        loop {
            let batch = poll(&consumer, 16);
            if batch.is_empty() {
                break;
            }
            seen.extend(firsts(&batch));
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    /// Bounded topics trim consumed records: once every live group's
    /// committed offset passes a record, it leaves the log (memory
    /// stays flat), while offsets remain absolute and a late-joining
    /// group reads from the earliest retained record.
    #[test]
    fn bounded_topics_trim_consumed_records() {
        let broker = Broker::new(1);
        broker.create_topic_with_capacity("b", 1, 100);
        let c1 = broker.consumer("g1", &["b"]);
        for i in 0..10u8 {
            put(&broker, "b", 0, vec![i]);
        }
        assert_eq!(broker.topic_len("b"), 10);
        assert_eq!(poll(&c1, 6).len(), 6);
        assert_eq!(
            broker.topic_len("b"),
            4,
            "consumed records trimmed off the log"
        );
        // Offsets stay absolute across the trim.
        let more = poll(&c1, 10);
        assert_eq!(more.len(), 4);
        assert_eq!(more[0].2.offset, 6);
        assert_eq!(broker.topic_len("b"), 0);
        // A group joining after the trim starts at the earliest
        // retained record (nothing retained here → sees only new
        // records), without stalling producers.
        let c2 = broker.consumer("g2", &["b"]);
        put(&broker, "b", 0, vec![99]);
        let late = poll(&c2, 10);
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].2.value[0], 99);
        assert_eq!(late[0].2.offset, 10);
        // g1 sees it too, exactly once.
        assert_eq!(poll(&c1, 10).len(), 1);
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
        for i in 0..4u8 {
            put(&broker, "b", 0, vec![i]);
        }
        // `fast` is caught up; `slow` never polls, pinning the floor.
        assert_eq!(poll(&fast, 10).len(), 4);
        assert_eq!(broker.topic_len("b"), 4, "slow group pins retention");
        // Once `slow` departs, its floor must not wedge producers.
        drop(slow);
        for i in 4..8u8 {
            put(&broker, "b", 0, vec![i]);
        }
        assert_eq!(poll(&fast, 10).len(), 4, "fast sees the new records");
        assert_eq!(broker.topic_len("b"), 0, "trimming resumed");
    }

    /// A group holds its floor while any of its consumers owning the
    /// partition lives: dropping one of two members must not let a
    /// producer past the capacity the survivor has not drained.
    #[test]
    fn a_group_keeps_its_floor_while_any_member_lives() {
        let broker = Broker::new(1);
        broker.create_topic_with_capacity("b", 1, 4);
        broker.set_backpressure_deadline(Duration::from_millis(20));
        let a = broker.consumer("g", &["b"]);
        let b = broker.consumer("g", &["b"]);
        for i in 0..4u8 {
            put(&broker, "b", 0, vec![i]);
        }
        let w = broker.writer("b");
        let full = |w: &TopicWriter| w.try_append_quiet(0, None, vec![4], ts(0));
        assert!(matches!(full(&w), Err(BrokerError::Backpressure { .. })));
        drop(a);
        assert!(
            matches!(full(&w), Err(BrokerError::Backpressure { .. })),
            "`b` still holds the group's floor"
        );
        assert_eq!(broker.topic_len("b"), 4);
        // The survivor drains, and the group's floor moves with it.
        assert_eq!(poll(&b, 2).len(), 2);
        assert_eq!(full(&w), Ok(4));
        drop(b);
        // With no live member left the floor is gone, but the cursor
        // stays: a successor resumes where the group stopped.
        assert_eq!(full(&w), Ok(5));
        let successor = broker.consumer("g", &["b"]);
        assert_eq!(firsts(&poll(&successor, 10)), vec![2, 3, 4, 4]);
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
        for i in 0..4u8 {
            put(&broker, "b", 0, vec![i]);
        }
        // Deadline far away: only the death can release the park.
        broker.set_backpressure_deadline(Duration::from_secs(30));
        let parked = thread::spawn({
            let writer = broker.writer("b");
            move || {
                let start = Instant::now();
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
        let stalled = broker.consumer("g", &["b"]);
        put(&broker, "b", 0, vec![0]);
        put(&broker, "b", 0, vec![1]);
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
        assert_eq!(poll(&stalled, 10).len(), 2);
        assert!(writer.try_append_quiet(0, None, vec![4], ts(0)).is_ok());
    }

    /// Backpressure only engages once a consumer group exists: a
    /// producer racing ahead of consumer creation must not deadlock
    /// against a floor nobody advances.
    #[test]
    fn bounded_topic_without_consumers_does_not_block() {
        let broker = Broker::new(1);
        broker.create_topic_with_capacity("b", 1, 2);
        for i in 0..10u8 {
            put(&broker, "b", 0, vec![i]);
        }
        assert_eq!(broker.topic_len("b"), 10);
        // A late consumer still sees everything.
        let consumer = broker.consumer("g", &["b"]);
        assert_eq!(poll(&consumer, 100).len(), 10);
    }

    /// `poll_into` reports subscription-order topic indices and
    /// appends to the caller's buffer.
    #[test]
    fn poll_into_reports_topic_indices() {
        let broker = Broker::new(2);
        broker.create_topic("alpha", 2);
        broker.create_topic("beta", 2);
        put(&broker, "alpha", 0, b"a".to_vec());
        put(&broker, "beta", 1, b"b".to_vec());
        let consumer = broker.consumer("g", &["alpha", "beta"]);
        let mut buf = Vec::new();
        let n = consumer.poll_into(16, &mut buf);
        assert_eq!(n, 2);
        let mut got: Vec<(u32, u32, u8)> =
            buf.iter().map(|(t, p, r)| (*t, *p, r.value[0])).collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 0, b'a'), (1, 1, b'b')]);
        // The buffer is appended to, not cleared.
        put(&broker, "alpha", 1, b"c".to_vec());
        assert_eq!(consumer.poll_into(16, &mut buf), 1);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let broker = Broker::new(4);
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let broker = broker.clone();
                thread::spawn(move || {
                    for i in 0..250u64 {
                        let value = (t * 1000 + i).to_le_bytes().to_vec();
                        put(&broker, "t", (i % 4) as usize, value);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(broker.topic_len("t"), 1000);
        let consumer = broker.consumer("g", &["t"]);
        let mut total = 0;
        loop {
            let batch = poll(&consumer, 128);
            if batch.is_empty() {
                break;
            }
            total += batch.len();
        }
        assert_eq!(total, 1000);
    }
}
