//! Stage hosting: where a deployment's proxies and aggregator shards
//! run, and how the supervisor starts them.
//!
//! The paper has two server roles (§3.2, §5): a proxy whose only job
//! is the answer transmission, and an aggregator that joins, decodes
//! and windows. A proxy is its topic, as on Kafka: workers publish
//! each share once, onto its proxy's
//! [`inbound_topic`](crate::proxy::inbound_topic), and an aggregator
//! subscribes to those topics. The aggregator is written once —
//! [`LocalShard`] — and each role is hosted one of two ways, chosen by
//! [`TransportMode`] in exactly one place per role
//! ([`Host::spawn_proxies`], [`Host::spawn_shards`], called with a
//! whole tier at build and a tier of one at respawn):
//!
//! * **in-process**: a shard runs on a supervised thread of this
//!   process and consumes the proxy topics directly, so a share makes
//!   one hop; a proxy is its topic and runs no thread;
//! * **process**: each role runs in a `privapprox-node` child (see
//!   [`remote`](crate::remote)), and a supervised thread is a bridge
//!   to it. Shares do not come back through this process: a
//!   [`ProxyBridge`] ships its child the records workers publish, one
//!   frame per shard slot; the proxy child sends each frame on whole
//!   to its shard child; and a shard's [`Bridge`] carries only its
//!   control plane — commands out, replies and decode progress back.
//!
//! Either way a shard's thread has the same name, the same crash role
//! and the same handle, and its loop has the same shape — read a wake
//! token, check every source, act, park only if nothing was found —
//! so the supervisor's epoch, supervision and respawn machinery never
//! asks how a shard is hosted. The aggregator's **close policy** (FIFO
//! close queue, `ledger ≥ expect` or the epoch deadline, straggle,
//! sibling kick) lives in that one loop, [`run_shard`]: it is
//! evaluated where the global [`EpochLedger`] lives, which every
//! in-process shard feeds directly and every child feeds through
//! `Progress` frames, so partial-close degradation under faults is
//! identical across hostings.

use crate::aggregator::Aggregator;
use crate::control::{CloseCmd, EpochTally, ShardCmd, ShardReply};
use crate::deploy::{thread_busy_time, ShardedConfig, TransportMode, DEAD_LETTER_TOPIC};
use crate::proxy::inbound_topic;
use crate::remote::{self, Bridge, NodeChild, ProxyBridge, Routes};
use privapprox_cluster::wire::decode_progress;
use privapprox_cluster::{FaultPlan, FrameKind, Heartbeat, LinkStats, RecordRef, Watchdog};
use privapprox_rr::estimate::BucketEstimator;
use privapprox_stream::broker::{Broker, Consumer};
use privapprox_stream::EventCount;
use privapprox_types::{BitVec, FastState, MessageId, ProxyId, QueryId, Timestamp};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Watchdog tick of an in-process shard thread's park (a remote shard
/// bridge ticks at [`remote::LINK_READ_POLL`](crate::remote)). What
/// normally ends the park is the event the shard waits for — a worker
/// publishing a share onto a proxy topic, or a wake: the main
/// thread's after it queued a command, a sibling's kick after it
/// closed an epoch. The tick only keeps the heartbeat fresh and fires
/// an overdue epoch deadline.
const SHARD_PARK: Duration = Duration::from_millis(50);

// ---------------------------------------------------------------------------
// Supervision primitives.

/// The three kinds of supervised thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    Worker,
    Proxy,
    Shard,
}

impl Role {
    /// The role's name in thread names, crash records, typed faults
    /// and on a `privapprox-node` command line.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Role::Worker => "worker",
            Role::Proxy => "proxy",
            Role::Shard => "shard",
        }
    }
}

/// One caught thread panic.
pub(crate) struct Crash {
    role: Role,
    index: usize,
    message: String,
}

pub(crate) type CrashLog = Arc<Mutex<Vec<Crash>>>;

/// Removes and returns the crash message recorded for `(role,
/// index)`, if any. Callers join the dead thread first, so its record
/// is in the log by the time they look.
pub(crate) fn take_crash(crashes: &CrashLog, role: Role, index: usize) -> Option<String> {
    let mut log = crashes.lock().expect("crash log lock");
    let pos = log
        .iter()
        .position(|c| c.role == role && c.index == index)?;
    Some(log.remove(pos).message)
}

/// Spawns the supervised thread `pa-<role>-<index>`: a panic in `body`
/// is caught and recorded in the crash log — with its message, for the
/// typed fault the supervisor raises — instead of tearing down the
/// process.
pub(crate) fn spawn_supervised(
    role: Role,
    index: usize,
    crashes: CrashLog,
    body: impl FnOnce() + Send + 'static,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("pa-{}-{index}", role.name()))
        .spawn(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                crashes.lock().expect("crash log lock").push(Crash {
                    role,
                    index,
                    message,
                });
            }
        })
        .expect("spawn supervised thread")
}

/// Global per-epoch decode counts, shared by every shard.
///
/// Closes are satisfied against the **global** count (the close
/// command carries the epoch's *total* expectation), which keeps
/// epoch accounting correct across shard respawns: a replacement
/// shard is re-issued the close of every open epoch, and that close
/// is satisfied by decodes its dead predecessor published as well as
/// its own.
///
/// Shards batch their bumps (one ledger update per poll batch, not
/// per record), and the entry list is a bounded scan list — at most
/// pipeline-depth + 1 epochs are live, and the main thread retires
/// entries once an epoch fully closes — so the warm ledger costs an
/// uncontended mutex plus a ≤ depth-entry scan per batch and
/// allocates nothing.
#[derive(Default)]
pub(crate) struct EpochLedger {
    counts: Mutex<Vec<(Timestamp, u64)>>,
}

impl EpochLedger {
    /// Adds `delta` decodes under `epoch`'s tag.
    fn add(&self, epoch: Timestamp, delta: u64) {
        let mut counts = self.counts.lock().expect("ledger lock");
        match counts.iter_mut().find(|(t, _)| *t == epoch) {
            Some((_, n)) => *n += delta,
            None => counts.push((epoch, delta)),
        }
    }

    /// Total decodes recorded under `epoch`'s tag.
    fn count(&self, epoch: Timestamp) -> u64 {
        self.counts
            .lock()
            .expect("ledger lock")
            .iter()
            .find(|(t, _)| *t == epoch)
            .map_or(0, |(_, n)| *n)
    }

    /// Retires every entry tagged `epoch` or earlier (epoch tags are
    /// strictly increasing, so this also sweeps stale zombie entries
    /// from threads that died mid-publish).
    pub(crate) fn retire(&self, epoch: Timestamp) {
        self.counts
            .lock()
            .expect("ledger lock")
            .retain(|(t, _)| *t > epoch);
    }
}

// ---------------------------------------------------------------------------
// Fault injection.

/// The deployment's test hooks, handed to the builder as one value
/// ([`ShardedSystemBuilder::fault_injector`](crate::ShardedSystemBuilder::fault_injector))
/// so production configuration carries none of them — the shape
/// [`FaultPlan`](privapprox_cluster::FaultPlan) has for links. The
/// default injects nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultInjector {
    straggler: Option<(usize, Duration)>,
    worker_panic_after: Option<(usize, u64)>,
    shard_panic_after: Option<(usize, u64)>,
    drop_shard_traffic: Option<usize>,
    crash_after_journal: Option<u64>,
}

impl FaultInjector {
    /// Delays every epoch close on shard `shard` by `delay` — the
    /// straggler-shard stress hook: workers run epochs ahead (up to
    /// the pipeline depth) while the straggler lags, and results must
    /// still be byte-identical to the single-threaded harness.
    pub fn straggler(mut self, shard: usize, delay: Duration) -> Self {
        self.straggler = Some((shard, delay));
        self
    }

    /// Worker `worker` panics immediately after sending its
    /// `answers`-th answer (counted across epochs). Fires once: the
    /// respawned worker is not re-armed.
    pub fn worker_panic_after(mut self, worker: usize, answers: u64) -> Self {
        self.worker_panic_after = Some((worker, answers));
        self
    }

    /// Shard `shard` panics on its `decodes`-th decoded answer
    /// (in-process shards only). Fires once: the respawned shard is
    /// not re-armed.
    pub fn shard_panic_after(mut self, shard: usize, decodes: u64) -> Self {
        self.shard_panic_after = Some((shard, decodes));
        self
    }

    /// Every worker *accounts* answers bound for shard `shard`'s
    /// partitions but never sends their shares — the deterministic
    /// straggler-loss hook behind the partial-close tests (the epoch's
    /// expectation includes the dropped answers, so the close can only
    /// fire on its deadline).
    pub fn drop_shard_traffic(mut self, shard: usize) -> Self {
        self.drop_shard_traffic = Some(shard);
        self
    }

    /// The process calls [`std::process::abort`] immediately after the
    /// `epoch`-th (0-based, counted across the deployment's lifetime)
    /// submitted epoch's journal records hit disk — after the fsync
    /// barrier, **before** any worker send. This is the exact point
    /// the durability contract pivots on: the charge is spent on disk
    /// but no answer escaped.
    pub fn crash_after_journal(mut self, epoch: u64) -> Self {
        self.crash_after_journal = Some(epoch);
        self
    }

    /// Checks every hook's slot against the deployment's shape.
    pub(crate) fn validate(&self, c: &ShardedConfig, in_process: bool) -> Result<(), String> {
        let shard_hooks = [
            ("straggler", self.straggler.map(|(s, _)| s)),
            ("fault-injected", self.shard_panic_after.map(|(s, _)| s)),
            ("traffic-dropped", self.drop_shard_traffic),
        ];
        for (what, shard) in shard_hooks {
            if shard.is_some_and(|s| s >= c.shards) {
                return Err(format!("{what} shard out of range"));
            }
        }
        if self.worker_panic_after.is_some_and(|(w, _)| w >= c.workers) {
            return Err("fault-injected worker out of range".into());
        }
        if self.shard_panic_after.is_some() && !in_process {
            return Err("shard_panic_after requires in-process shards".into());
        }
        Ok(())
    }

    /// The fuse of worker `w`, handed out once.
    pub(crate) fn worker_fuse(&mut self, w: usize) -> Option<u64> {
        take_slot(&mut self.worker_panic_after, w)
    }

    /// The fuse of shard `s`, handed out once.
    fn shard_fuse(&mut self, s: usize) -> Option<u64> {
        take_slot(&mut self.shard_panic_after, s)
    }

    /// The delay before every close on shard `s`.
    fn straggle(&self, s: usize) -> Option<Duration> {
        self.straggler
            .and_then(|(slot, delay)| (slot == s).then_some(delay))
    }

    /// `(dropped shard, shard count)` for the workers' send path.
    pub(crate) fn drop_hook(&self, shards: usize) -> Option<(usize, usize)> {
        self.drop_shard_traffic.map(|s| (s, shards))
    }

    /// Whether the `n`-th submitted epoch is the one to abort after.
    pub(crate) fn crashes_after(&self, n: u64) -> bool {
        self.crash_after_journal == Some(n)
    }
}

/// Takes a one-shot hook's value if it is armed for slot `i`.
fn take_slot(hook: &mut Option<(usize, u64)>, i: usize) -> Option<u64> {
    match *hook {
        Some((slot, n)) if slot == i => {
            *hook = None;
            Some(n)
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The aggregator role.

/// One aggregator shard: join ⟂ decode ⟂ window over its stride of
/// partitions, `{p : p % shards == s}`, a per-epoch decode tally, the
/// retained answers of queries registered for history, and the
/// control-plane handling of [`ShardCmd`]s. An in-process shard thread
/// and a `privapprox-node` child run this same value; they differ only
/// in where shares come from — the thread's consumer of the proxy
/// topics ([`LocalShard::pump`]), or the child's proxy links, walked
/// frame by frame into a detached shard ([`LocalShard::offer`]) — and
/// where [`LocalShard::publish`] sends the tally's deltas.
pub(crate) struct LocalShard<In = Consumer> {
    agg: Aggregator<In>,
    decodes: Decodes,
}

/// What a shard keeps of every answer it decodes.
#[derive(Default)]
struct Decodes {
    tally: EpochTally,
    /// The §3.3.1 at-rest store (randomized answers only) of queries
    /// registered with `retain`. `FastState`: looked up on every
    /// decoded answer, keyed by analyst-assigned ids.
    retained: HashMap<QueryId, Vec<(u64, u128, BitVec)>, FastState>,
    /// Fault injection: panic on the `n`-th decode.
    fuse: Option<u64>,
}

impl Decodes {
    /// Tags one decode with its epoch and stores it if its query is
    /// retained.
    fn keep(&mut self, qid: QueryId, ts: Timestamp, mid: MessageId, answer: &BitVec) {
        self.tally.bump(ts);
        if let Some(stored) = self.retained.get_mut(&qid) {
            stored.push((ts.0, mid.0, answer.clone()));
        }
        if let Some(n) = &mut self.fuse {
            if *n <= 1 {
                panic!("injected shard fault");
            }
            *n -= 1;
        }
    }
}

impl LocalShard {
    /// Shard `s` of `shards`: consumes partitions `{p : p % shards ==
    /// s}` of `broker`'s proxy topics — the ones workers publish to —
    /// in the `"aggregator"` group; poisoned input is quarantined to
    /// `broker`'s dead-letter topic.
    pub(crate) fn new(
        broker: &Broker,
        (s, shards): (usize, usize),
        proxies: usize,
        confidence: f64,
        fuse: Option<u64>,
    ) -> LocalShard {
        let topics: Vec<String> = (0..proxies)
            .map(|i| inbound_topic(ProxyId(i as u16)))
            .collect();
        let mut agg = Aggregator::for_shard(broker, &topics, confidence, s, shards);
        agg.set_dead_letter(broker.writer(DEAD_LETTER_TOPIC));
        let decodes = Decodes {
            fuse,
            ..Decodes::default()
        };
        LocalShard { agg, decodes }
    }

    /// The event count the shard's consumer is woken through.
    fn wake(&self) -> &Arc<EventCount> {
        self.agg.wake()
    }

    /// Offers every share the proxy topics hold, tagging every decode
    /// with its epoch. Returns the number of answers decoded.
    pub(crate) fn pump(&mut self) -> u64 {
        self.agg
            .pump_with(|qid, ts, mid, answer| self.decodes.keep(qid, ts, mid, answer))
    }
}

impl LocalShard<()> {
    /// A shard with no broker behind it, fed share by share through
    /// [`LocalShard::offer`]; it counts poisoned input but keeps no
    /// copy of it.
    pub(crate) fn detached(proxies: usize, confidence: f64) -> LocalShard<()> {
        let agg = Aggregator::detached(proxies, confidence);
        LocalShard {
            agg,
            decodes: Decodes::default(),
        }
    }

    /// Offers one share walked off proxy `source`'s link, tagging a
    /// decode it completes with its epoch.
    pub(crate) fn offer(&mut self, source: usize, r: RecordRef) {
        let (partition, ts) = (r.partition as usize, Timestamp(r.timestamp));
        let keep = |qid, ts, mid, answer: &BitVec| self.decodes.keep(qid, ts, mid, answer);
        self.agg.offer(source, partition, r.key, r.value, ts, keep);
    }
}

impl<In> LocalShard<In> {
    /// Reports every decode counted since the last call, as `(epoch,
    /// delta)`, for the global epoch ledger.
    pub(crate) fn publish(&mut self, sink: impl FnMut(Timestamp, u64)) {
        self.decodes.tally.publish(sink);
    }

    /// Returns an estimator to the open-window pool.
    pub(crate) fn release(&mut self, est: BucketEstimator) {
        self.agg.release_estimator(est);
    }

    /// Acts on one control command and produces its reply. The host
    /// decides *when* a `Close` is due; this cuts the windows.
    pub(crate) fn handle(&mut self, cmd: ShardCmd) -> ShardReply {
        let Decodes {
            tally, retained, ..
        } = &mut self.decodes;
        match cmd {
            ShardCmd::Register {
                query,
                params,
                population,
                retain,
            } => {
                if retain {
                    // Keep whatever is already stored: re-registration
                    // (a feedback retune) must not wipe history.
                    retained.entry(query.id).or_default();
                }
                self.agg.register_query(&query, params, population);
                ShardReply::Registered
            }
            ShardCmd::Fetch { query, range } => ShardReply::Stored {
                answers: retained.get(&query).map_or_else(Vec::new, |stored| {
                    stored
                        .iter()
                        .filter(|(ts, _, _)| range.contains(Timestamp(*ts)))
                        .cloned()
                        .collect()
                }),
            },
            ShardCmd::Close(c) => {
                for est in c.recycle {
                    self.agg.release_estimator(est);
                }
                let mut windows = Vec::new();
                self.agg
                    .advance_watermark_raw_into(c.watermark, &mut windows);
                let decoded = tally.count(c.epoch);
                // The epoch's accounting retires with the close.
                tally.retire(c.epoch);
                ShardReply::Closed {
                    epoch: c.epoch,
                    decoded,
                    windows,
                    busy: thread_busy_time(),
                }
            }
            ShardCmd::Probe => ShardReply::Health {
                quad: (
                    self.agg.undecodable(),
                    self.agg.unroutable(),
                    self.agg.duplicates(),
                    self.agg.expired_joins(),
                ),
                dead_lettered: self.agg.dead_lettered(),
                late_answers: self.agg.late_events(),
                busy: thread_busy_time(),
            },
            ShardCmd::Die | ShardCmd::Shutdown => {
                unreachable!("the host loop acts on lifecycle commands itself")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Handles.

/// What a proxy bridge shares with the supervisor: its stop flag and
/// its CPU time. They outlive a respawn — the replacement keeps
/// counting where its predecessor stopped — so every reading is
/// cumulative and monotone.
#[derive(Default)]
pub(crate) struct RelayCounters {
    pub stop: AtomicBool,
    pub busy_ns: AtomicU64,
}

pub(crate) struct ProxyHandle {
    pub counters: Arc<RelayCounters>,
    pub in_topic: String,
    pub thread: Option<JoinHandle<()>>,
    pub dead: bool,
}

pub(crate) struct ShardHandle {
    pub cmd: Sender<ShardCmd>,
    pub reply: Receiver<ShardReply>,
    pub thread: Option<JoinHandle<()>>,
    /// Where a shard child listens (`None` in-process): published to
    /// the proxy children once the slot is in service.
    pub route: Option<SocketAddr>,
    /// CPU time accumulated by dead predecessor incarnations, added
    /// to this incarnation's readings so the busy profile stays
    /// monotone across respawns.
    pub busy_base: Duration,
    pub dead: bool,
}

// ---------------------------------------------------------------------------
// Hosting.

/// Every shard slot's park event count, rung by the main thread after
/// it queues a command and by a shard that closed an epoch (the
/// sibling kick).
pub(crate) type ShardWakes = Arc<Mutex<Vec<Arc<EventCount>>>>;

fn ring_all(wakes: &ShardWakes) {
    for wake in wakes.lock().expect("shard wakes lock").iter() {
        wake.notify();
    }
}

/// Everything starting a stage needs: the deployment's shape and
/// transport, the shared broker, and the supervision state every
/// stage reports into.
pub(crate) struct Host {
    pub config: ShardedConfig,
    /// How proxies and shards are hosted.
    pub transport: TransportMode,
    pub partitions: usize,
    pub broker: Broker,
    /// Panic records from supervised threads, drained as faults are
    /// reported.
    pub crashes: CrashLog,
    /// Global per-epoch decode accounting shared with every shard.
    pub ledger: Arc<EpochLedger>,
    /// Shares workers published onto proxy topics, each counted before
    /// it is published (and taken back out if its run stalls
    /// unpublished), so a share a shard decoded is already counted.
    pub forwarded: Arc<AtomicU64>,
    /// Liveness registry: every thread beats a heartbeat here.
    pub watchdog: Watchdog,
    /// In-process, one heartbeat per proxy, beaten by every shard
    /// thread that reads the proxy's topic (empty in process mode,
    /// where each proxy bridge beats its own).
    pub proxy_beats: Vec<Heartbeat>,
    /// Per-link supervision counters: one entry per link a parent
    /// bridge ever dialed, and per proxy child the mirror of its
    /// links to the shard children, respawn replacements included.
    /// Empty in in-process mode.
    pub link_stats: Vec<Arc<LinkStats>>,
    /// Every `privapprox-node` child ever spawned (label, OS pid),
    /// including respawn replacements. Empty in in-process mode.
    pub children: Vec<(String, u32)>,
    /// Where the shard children listen (process mode).
    pub routes: Arc<Routes>,
    pub shard_wakes: ShardWakes,
    /// Test hooks; one-shot fuses are taken out as they are armed.
    pub faults: FaultInjector,
}

/// An aggregator shard, wherever it runs. (One value per shard thread,
/// moved into it once: the size gap between the variants costs
/// nothing.)
#[allow(clippy::large_enum_variant)]
enum Shard {
    Local(LocalShard),
    Remote(Bridge),
}

impl Host {
    /// Spawns one `privapprox-node` child per slot of a tier — all of
    /// them started before any is awaited — and records them.
    fn spawn_children(
        &mut self,
        node: &Path,
        role: Role,
        slots: &[usize],
        faults: FaultPlan,
        shards: &[SocketAddr],
    ) -> io::Result<Vec<NodeChild>> {
        let (config, partitions) = (&self.config, self.partitions);
        let tier: Vec<Vec<String>> = (slots.iter())
            .map(|&i| remote::node_args(role, i, config, partitions, faults, shards))
            .collect();
        remote::spawn_tier(node, &tier)
    }

    /// Opens the bridge to the child of slot `(role, index)` and
    /// records the child and its link.
    fn bridge(
        &mut self,
        child: NodeChild,
        faults: FaultPlan,
        slot: (Role, usize),
        wake: Arc<EventCount>,
    ) -> io::Result<Bridge> {
        let bridge = Bridge::open(child, faults, slot, &self.config, wake)?;
        let (role, index) = slot;
        self.children
            .push((format!("{}-{index}", role.name()), bridge.pid()));
        self.link_stats.push(bridge.stats());
        Ok(bridge)
    }

    /// Starts the proxy bridges of `slots` (each with the counters it
    /// reports into). In-process a proxy is its topic, which the shards
    /// consume directly, so there is nothing to start. In process mode
    /// each child is started with the shard children's current
    /// addresses, and its bridge ships it whatever lands on the proxy's
    /// topic, whichever epoch it belongs to — a proxy holds no epoch
    /// state, so it needs no epoch commands.
    ///
    /// A bridge consumes its proxy's topic in its own consumer group; a
    /// respawn resumes from the group's committed offset, so a dead
    /// bridge delays forwarding but never loses what is still on the
    /// topic. (Shares that reached a dead *child* and were not yet
    /// relayed died with it — the epoch ledger accounts them as a
    /// partial close.)
    pub(crate) fn spawn_proxies(
        &mut self,
        slots: &[(usize, Arc<RelayCounters>)],
    ) -> io::Result<Vec<ProxyHandle>> {
        let TransportMode::Process { node, faults } = self.transport.clone() else {
            return Ok(Vec::new());
        };
        let told = self.routes.read();
        let indices: Vec<usize> = slots.iter().map(|(i, _)| *i).collect();
        let children = self.spawn_children(&node, Role::Proxy, &indices, faults, &told.1)?;
        let mut relays = Vec::with_capacity(slots.len());
        for (i, child) in indices.into_iter().zip(children) {
            let in_topic = inbound_topic(ProxyId(i as u16));
            let consumer = self.broker.consumer(&format!("proxy-{i}"), &[&in_topic]);
            let wake = Arc::clone(consumer.wake());
            let bridge = self.bridge(child, faults, (Role::Proxy, i), wake)?;
            let routes = Arc::clone(&self.routes);
            let relay = ProxyBridge::new(i, bridge, consumer, routes, told.clone());
            self.link_stats.push(relay.shard_links());
            relays.push(relay);
        }
        Ok((slots.iter().zip(relays))
            .map(|((i, counters), relay)| self.start_proxy(*i, Arc::clone(counters), relay))
            .collect())
    }

    /// Runs proxy `i`'s bridge on its supervised thread.
    fn start_proxy(
        &mut self,
        i: usize,
        counters: Arc<RelayCounters>,
        mut relay: ProxyBridge,
    ) -> ProxyHandle {
        let heartbeat = self.watchdog.register(&format!("proxy-{i}"));
        let c = Arc::clone(&counters);
        let thread = spawn_supervised(Role::Proxy, i, Arc::clone(&self.crashes), move || loop {
            // Before looking at any source: whatever lands after this
            // turns the park below into a no-op.
            let token = relay.token();
            // Read the flag before the round so one last round runs
            // after it is raised: shutdown leaves no stranded shares.
            let stopping = c.stop.load(Ordering::Relaxed);
            heartbeat.beat();
            let t0 = thread_busy_time();
            let moved = relay.round();
            let dt = thread_busy_time().saturating_sub(t0);
            c.busy_ns.fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
            if stopping {
                relay.goodbye();
                break;
            }
            if !moved {
                // Ended by a share landing on the proxy's topic, a
                // frame from the child, a route change or the stop
                // flag's wake — not by the tick.
                relay.park(token);
            }
        });
        ProxyHandle {
            counters,
            in_topic: inbound_topic(ProxyId(i as u16)),
            thread: Some(thread),
            dead: false,
        }
    }

    /// Starts the shards of `slots`. Shard `s` owns partitions `{p :
    /// p % shards == s}` on both transports: in-process, its consumer
    /// owns that stride of the `"aggregator"` group's topics, and a
    /// replacement resumes at the group's committed offsets; a shard
    /// child's proxies route to it by the same rule. Each shard's
    /// command queue starts with `register()`'s commands, so a
    /// replacement knows every live query before it reads the shares
    /// waiting in its partitions. Decodes held in a dead shard's open
    /// windows are lost — the affected epochs close partially.
    pub(crate) fn spawn_shards(
        &mut self,
        slots: &[usize],
        register: impl Fn() -> Vec<ShardCmd>,
    ) -> io::Result<Vec<ShardHandle>> {
        let c = self.config;
        let shards = match self.transport.clone() {
            TransportMode::InProcess => (slots.iter())
                .map(|&s| {
                    let fuse = self.faults.shard_fuse(s);
                    let (slot, proxies) = ((s, c.shards), c.proxies as usize);
                    Shard::Local(LocalShard::new(
                        &self.broker,
                        slot,
                        proxies,
                        c.confidence,
                        fuse,
                    ))
                })
                .collect(),
            TransportMode::Process { node, faults } => {
                let children = self.spawn_children(&node, Role::Shard, slots, faults, &[])?;
                let mut shards = Vec::with_capacity(slots.len());
                for (&s, child) in slots.iter().zip(children) {
                    let bridge = self.bridge(child, faults, (Role::Shard, s), Arc::default())?;
                    shards.push(Shard::Remote(bridge));
                }
                shards
            }
        };
        Ok((slots.iter().zip(shards))
            .map(|(&s, shard)| self.start_shard(s, shard, register()))
            .collect())
    }

    /// Runs shard `s` on its supervised thread, with `queued` ahead of
    /// every later command.
    fn start_shard(&mut self, s: usize, shard: Shard, queued: Vec<ShardCmd>) -> ShardHandle {
        let wake = shard.wake();
        {
            let mut wakes = self.shard_wakes.lock().expect("shard wakes lock");
            if wakes.len() <= s {
                wakes.resize_with(s + 1, Arc::default);
            }
            wakes[s] = wake;
        }
        let route = match &shard {
            Shard::Local(_) => None,
            Shard::Remote(bridge) => Some(bridge.addr()),
        };
        let policy = ClosePolicy {
            ledger: Arc::clone(&self.ledger),
            deadline: self.config.epoch_deadline,
            straggle: self.faults.straggle(s),
            siblings: Arc::clone(&self.shard_wakes),
        };
        let heartbeat = self.watchdog.register(&format!("shard-{s}"));
        let beats = (heartbeat, self.proxy_beats.clone());
        let (cmd, cmd_rx) = channel::<ShardCmd>();
        for c in queued {
            let _ = cmd.send(c);
        }
        let (reply_tx, reply) = channel::<ShardReply>();
        let thread = spawn_supervised(Role::Shard, s, Arc::clone(&self.crashes), move || {
            run_shard(shard, policy, &cmd_rx, &reply_tx, &beats)
        });
        ShardHandle {
            cmd,
            reply,
            thread: Some(thread),
            route,
            busy_base: Duration::ZERO,
            dead: false,
        }
    }

    /// Points the proxy children at shard `s`'s child (a no-op
    /// in-process) and wakes their bridges to pass it on. Called once
    /// the slot is in service — at respawn, after every query is
    /// registered on the replacement, so no share reaches it first.
    pub(crate) fn publish_route(&self, s: usize, route: Option<SocketAddr>) {
        let Some(addr) = route else {
            return;
        };
        self.routes.set(s, addr);
        for i in 0..self.config.proxies {
            self.broker.notify_topic(&inbound_topic(ProxyId(i)));
        }
    }

    /// Wakes every shard — in-process shard threads parked on their
    /// consumer's event count, and shard bridges parked in `poll(2)`,
    /// whose event count rings their self-pipe — so a queued command
    /// is seen at wakeup latency.
    pub(crate) fn wake_shards(&self) {
        ring_all(&self.shard_wakes);
    }
}

/// When a queued close fires, and what firing it touches besides the
/// shard itself.
struct ClosePolicy {
    ledger: Arc<EpochLedger>,
    /// How long a close may wait for the epoch's global accounting
    /// before firing with the decodes at hand (a *partial close*).
    deadline: Duration,
    /// Fault injection: delay before every close.
    straggle: Option<Duration>,
    /// For the sibling kick.
    siblings: ShardWakes,
}

/// The loop of a shard's supervised thread, whichever way the shard is
/// hosted: absorb the supervisor's commands, fire the oldest queued
/// close once it is due, move data, park. Each turn beats the shard's
/// heartbeat and those of the proxy topics it reads in-process.
fn run_shard(
    mut shard: Shard,
    policy: ClosePolicy,
    cmd_rx: &Receiver<ShardCmd>,
    reply_tx: &Sender<ShardReply>,
    (heartbeat, proxy_beats): &(Heartbeat, Vec<Heartbeat>),
) {
    let ClosePolicy {
        ledger,
        deadline,
        straggle,
        siblings,
    } = policy;
    // Close requests queue in epoch order and are satisfied strictly
    // FIFO (watermarks must advance in order); `Instant` tracks the
    // epoch deadline.
    let mut closes: VecDeque<(CloseCmd, Instant)> = VecDeque::new();
    // The epoch whose close a child has not answered yet: further
    // closes are held until its reply, so watermarks advance strictly
    // in order. An in-process shard answers on the spot.
    let mut awaiting: Option<Timestamp> = None;
    'run: loop {
        heartbeat.beat();
        proxy_beats.iter().for_each(Heartbeat::beat);
        // Before looking at any source: whatever lands after this
        // turns the park below into a no-op.
        let token = shard.token();
        let mut idle = true;
        // 1. Absorb all pending control messages.
        loop {
            let cmd = cmd_rx.try_recv();
            idle &= cmd.is_err();
            match cmd {
                Ok(ShardCmd::Close(c)) => closes.push_back((c, Instant::now())),
                Ok(ShardCmd::Die) => panic!("injected shard fault"),
                Ok(ShardCmd::Shutdown) | Err(TryRecvError::Disconnected) => break 'run,
                Ok(cmd) => shard.submit(cmd, reply_tx),
                Err(TryRecvError::Empty) => break,
            }
        }
        // 2. Fire the oldest close once the epoch's GLOBAL accounting
        //    settles (or its deadline fires → partial close).
        if awaiting.is_none() {
            if let Some((front, since)) = closes.front() {
                if ledger.count(front.epoch) >= front.expect || since.elapsed() >= deadline {
                    let (c, _) = closes.pop_front().expect("front exists");
                    if let Some(delay) = straggle {
                        std::thread::sleep(delay);
                    }
                    if matches!(shard, Shard::Remote(_)) {
                        awaiting = Some(c.epoch);
                    }
                    shard.submit(ShardCmd::Close(c), reply_tx);
                    // Kick sibling shards out of their parks: the
                    // ledger that satisfied this close satisfies
                    // theirs, at wakeup latency instead of
                    // park-timeout latency.
                    ring_all(&siblings);
                    continue 'run;
                }
            }
        }
        // 3. Move what is there, publishing decode deltas to the
        //    global ledger.
        idle &= !shard.work(&ledger, reply_tx, &mut awaiting);
        // 4. Nothing to do: sleep until a worker publishes a share onto
        //    a proxy topic (in-process), a frame arrives from the
        //    child, or a wake (a queued command, a sibling's close
        //    kick) — the tick only serves the heartbeat,
        //    `maybe_resend` and an overdue epoch deadline.
        if idle {
            shard.park(token);
        }
    }
    if let Shard::Remote(bridge) = &mut shard {
        bridge.goodbye();
    }
}

impl Shard {
    /// The event count the shard parks on: an in-process shard's
    /// consumer's, a bridge's own.
    fn wake(&self) -> Arc<EventCount> {
        match self {
            Shard::Local(local) => Arc::clone(local.wake()),
            Shard::Remote(bridge) => bridge.wake(),
        }
    }

    fn token(&self) -> u64 {
        match self {
            Shard::Local(local) => local.wake().token(),
            Shard::Remote(bridge) => bridge.token(),
        }
    }

    /// Hands one control command to the shard. A local shard replies
    /// on the spot; a child's reply arrives as a frame, in
    /// [`Shard::work`].
    fn submit(&mut self, cmd: ShardCmd, reply_tx: &Sender<ShardReply>) {
        match self {
            Shard::Local(local) => {
                let _ = reply_tx.send(local.handle(cmd));
            }
            // Retention is rejected for process transport before any
            // command is sent; reply empty so a misdirected fetch
            // cannot wedge the caller.
            Shard::Remote(_) if matches!(cmd, ShardCmd::Fetch { .. }) => {
                let _ = reply_tx.send(ShardReply::Stored {
                    answers: Vec::new(),
                });
            }
            Shard::Remote(bridge) => bridge.send_ctrl(cmd.encode()),
        }
    }

    /// One data round; returns whether anything moved.
    fn work(
        &mut self,
        ledger: &EpochLedger,
        reply_tx: &Sender<ShardReply>,
        awaiting: &mut Option<Timestamp>,
    ) -> bool {
        match self {
            Shard::Local(local) => {
                let decoded = local.pump();
                local.publish(|epoch, delta| ledger.add(epoch, delta));
                decoded > 0
            }
            Shard::Remote(bridge) => {
                // The child's shares come from the proxy children; what
                // comes here is its progress and its replies.
                let mut moved = false;
                while let Some(f) = bridge.try_recv() {
                    moved = true;
                    match f.kind {
                        FrameKind::Progress => match decode_progress(&f.payload) {
                            Ok((epoch, delta)) => ledger.add(Timestamp(epoch), delta),
                            Err(e) => bridge.fail(e),
                        },
                        FrameKind::CtrlReply => match ShardReply::decode(&f.payload) {
                            Ok(reply) => {
                                if let ShardReply::Closed { epoch, .. } = &reply {
                                    let asked = awaiting.take();
                                    assert_eq!(asked, Some(*epoch), "close reply out of order");
                                }
                                let _ = reply_tx.send(reply);
                            }
                            Err(e) => bridge.fail(e),
                        },
                        _ => {}
                    }
                }
                bridge.settle();
                moved
            }
        }
    }

    fn park(&mut self, token: u64) {
        match self {
            Shard::Local(local) => {
                local.wake().park(token, SHARD_PARK);
            }
            Shard::Remote(bridge) => bridge.park(token),
        }
    }
}
