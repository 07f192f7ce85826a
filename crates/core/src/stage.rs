//! Stage hosting: where a deployment's proxy relays and aggregator
//! shards run, and how the supervisor starts them.
//!
//! The paper has two server roles (§3.2, §5): a stateless proxy relay
//! and an aggregator that joins, decodes and windows. Each is written
//! once — [`Proxy`] and [`LocalShard`] — and hosted one of two ways,
//! chosen by [`TransportMode`] in exactly one place per role
//! ([`Host::spawn_proxy`], [`Host::spawn_shard`], called at build and
//! at respawn alike):
//!
//! * **in-process**: the role runs on a supervised thread of this
//!   process, consuming the shared broker directly;
//! * **process**: the role runs in a `privapprox-node` child (see
//!   [`remote`](crate::remote)), and the supervised thread is a
//!   [`Bridge`] that ships the child its broker records and brings
//!   back what the child produces.
//!
//! Either way the thread has the same name, the same crash role and
//! the same handle, and its loop has the same shape — read a wake
//! token, check every source, act, park only if nothing was found —
//! so the supervisor's epoch, supervision and respawn machinery never
//! asks how a stage is hosted. The aggregator's **close policy** (FIFO
//! close queue, `ledger ≥ expect` or the epoch deadline, straggle,
//! sibling kick) lives in that one loop, [`run_shard`]: it is
//! evaluated where the global [`EpochLedger`] lives, which every
//! in-process shard feeds directly and every child feeds through
//! `Progress` frames, so partial-close degradation under faults is
//! identical across hostings.

use crate::aggregator::Aggregator;
use crate::control::{CloseCmd, EpochTally, ShardCmd, ShardReply};
use crate::deploy::{thread_busy_time, ShardedConfig, TransportMode, DEAD_LETTER_TOPIC};
use crate::proxy::{inbound_topic, outbound_topic, Proxy};
use crate::remote::Bridge;
use privapprox_cluster::wire::{decode_data_batch, decode_progress, DataMsg};
use privapprox_cluster::{FaultPlan, FrameKind, Heartbeat, LinkStats, Watchdog};
use privapprox_rr::estimate::BucketEstimator;
use privapprox_stream::broker::{Broker, Consumer, TopicWriter};
use privapprox_stream::EventCount;
use privapprox_types::{BitVec, ProxyId, QueryId, Timestamp};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Watchdog tick of an in-process shard thread's park (a remote shard
/// bridge ticks at [`remote::LINK_READ_POLL`](crate::remote)). What
/// normally ends the park is the event the shard waits for — a
/// relayed share landing on an outbound topic, or a broker control
/// wake: `wake_shards` after the main thread queued a command, a
/// sibling's kick after it closed an epoch. The tick only keeps the
/// heartbeat fresh and fires an overdue epoch deadline.
const SHARD_PARK: Duration = Duration::from_millis(50);

/// Watchdog tick of a free-running proxy thread's park. What normally
/// ends the park is a share landing on the inbound topic (or the
/// control wake that follows the stop flag at shutdown); the tick
/// only keeps the heartbeat fresh.
const PROXY_PARK: Duration = Duration::from_millis(50);

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
/// epoch accounting correct across shard respawns: a consumer-group
/// rebalance reshuffles the partition → shard assignment, so any
/// per-shard split of the expectation would go permanently stale the
/// first time a shard dies.
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

/// One aggregator shard: join ⟂ decode ⟂ window over the partitions
/// the `"aggregator"` group assigns it, a per-epoch decode tally, the
/// retained answers of queries registered for history, and the
/// control-plane handling of [`ShardCmd`]s. An in-process shard thread
/// and a `privapprox-node` child run this same value; they differ only
/// in where [`LocalShard::publish`] sends the tally's deltas.
pub(crate) struct LocalShard {
    agg: Aggregator,
    tally: EpochTally,
    /// The §3.3.1 at-rest store (randomized answers only) of queries
    /// registered with `retain`.
    retained: HashMap<QueryId, Vec<(u64, u128, BitVec)>>,
    /// Fault injection: panic on the `n`-th decode.
    fuse: Option<u64>,
}

impl LocalShard {
    /// Joins the `"aggregator"` group over `broker`'s proxy-out
    /// topics; poisoned input is quarantined to `broker`'s dead-letter
    /// topic.
    pub(crate) fn new(
        broker: &Broker,
        proxies: usize,
        confidence: f64,
        fuse: Option<u64>,
    ) -> LocalShard {
        let mut agg = Aggregator::new(broker, proxies, confidence);
        agg.set_dead_letter(broker.writer(DEAD_LETTER_TOPIC));
        LocalShard {
            agg,
            tally: EpochTally::default(),
            retained: HashMap::new(),
            fuse,
        }
    }

    /// The event count the shard's consumer is woken through.
    fn wake(&self) -> &Arc<EventCount> {
        self.agg.wake()
    }

    /// Drains what the proxy streams hold, tagging every decode with
    /// its epoch. Returns the number of answers decoded.
    pub(crate) fn pump(&mut self) -> u64 {
        let (tally, retained, fuse) = (&mut self.tally, &mut self.retained, &mut self.fuse);
        self.agg.pump_with(|qid, ts, mid, answer| {
            tally.bump(ts);
            if let Some(stored) = retained.get_mut(&qid) {
                stored.push((ts.0, mid.0, answer.clone()));
            }
            if let Some(n) = fuse {
                if *n <= 1 {
                    panic!("injected shard fault");
                }
                *n -= 1;
            }
        })
    }

    /// Reports every decode counted since the last call, as `(epoch,
    /// delta)`, for the global epoch ledger.
    pub(crate) fn publish(&mut self, sink: impl FnMut(Timestamp, u64)) {
        self.tally.publish(sink);
    }

    /// Returns an estimator to the open-window pool.
    pub(crate) fn release(&mut self, est: BucketEstimator) {
        self.agg.release_estimator(est);
    }

    /// Acts on one control command and produces its reply. The host
    /// decides *when* a `Close` is due; this cuts the windows.
    pub(crate) fn handle(&mut self, cmd: ShardCmd) -> ShardReply {
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
                    self.retained.entry(query.id).or_default();
                }
                self.agg.register_query(&query, params, population);
                ShardReply::Registered
            }
            ShardCmd::Fetch { query, range } => ShardReply::Stored {
                answers: self.retained.get(&query).map_or_else(Vec::new, |stored| {
                    stored
                        .iter()
                        .filter(|(ts, _, _)| range.contains(Timestamp(*ts)))
                        .cloned()
                        .collect()
                }),
            },
            ShardCmd::Close(c) => {
                for est in c.recycle {
                    self.release(est);
                }
                let mut windows = Vec::new();
                self.agg.advance_watermark_raw_into(c.watermark, &mut windows);
                let decoded = self.tally.count(c.epoch);
                // The epoch's accounting retires with the close.
                self.tally.retire(c.epoch);
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

/// What a relay shares with the supervisor: its stop flag and its
/// counters. They outlive a respawn — the replacement keeps counting
/// where its predecessor stopped — so every reading is cumulative and
/// monotone.
#[derive(Default)]
pub(crate) struct RelayCounters {
    pub stop: AtomicBool,
    pub forwarded: AtomicU64,
    pub busy_ns: AtomicU64,
    /// Backpressure deadlines the relay rode out (the batch is
    /// retained and retried, so these are stalls, not losses).
    pub backpressure: AtomicU64,
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
    /// CPU time accumulated by dead predecessor incarnations, added
    /// to this incarnation's readings so the busy profile stays
    /// monotone across respawns.
    pub busy_base: Duration,
    pub dead: bool,
}

// ---------------------------------------------------------------------------
// Hosting.

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
    /// Liveness registry: every thread beats a heartbeat here.
    pub watchdog: Watchdog,
    /// Per-link supervision counters (one entry per proxy/shard link
    /// ever dialed, including respawn replacements). Empty in
    /// in-process mode.
    pub link_stats: Vec<Arc<LinkStats>>,
    /// Every `privapprox-node` child ever spawned (label, OS pid),
    /// including respawn replacements. Empty in in-process mode.
    pub children: Vec<(String, u32)>,
    /// Test hooks; one-shot fuses are taken out as they are armed.
    pub faults: FaultInjector,
}

/// A proxy relay, wherever it runs. (One value per relay thread, moved
/// into it once: the size gap between the variants costs nothing.)
#[allow(clippy::large_enum_variant)]
enum Relay {
    Local(Proxy),
    Remote {
        bridge: Bridge,
        /// The local outbound topic the child's relayed shares land
        /// on.
        out: TopicWriter,
        inbound: Vec<DataMsg>,
    },
}

/// An aggregator shard, wherever it runs.
enum Shard {
    Local(LocalShard),
    Remote(Bridge),
}

impl Host {
    /// Spawns the `node` child for slot `(role, index)` and records
    /// it.
    fn bridge(
        &mut self,
        (node, faults): (&Path, FaultPlan),
        role: Role,
        index: usize,
        consumer: Consumer,
    ) -> io::Result<Bridge> {
        let (config, partitions) = (&self.config, self.partitions);
        let bridge = Bridge::open(node, faults, role, index, consumer, config, partitions)?;
        self.children
            .push((format!("{}-{index}", role.name()), bridge.pid()));
        self.link_stats.push(bridge.stats());
        Ok(bridge)
    }

    /// Starts proxy `i`: a relay that forwards continuously until told
    /// to stop. A proxy holds no epoch state, so it needs no epoch
    /// commands — it parks on its consumer's event count and forwards
    /// whatever lands, whichever epoch it belongs to.
    ///
    /// The relay joins its own single-member consumer group here, on
    /// the calling thread; a respawn rejoins it and resumes from the
    /// committed offset, so a dead relay delays forwarding but never
    /// loses what is still on its inbound topic. (Shares that reached
    /// a dead *child* and were not yet relayed back died with its
    /// private broker — the epoch ledger accounts them as a partial
    /// close.)
    pub(crate) fn spawn_proxy(
        &mut self,
        i: usize,
        counters: Arc<RelayCounters>,
    ) -> io::Result<ProxyHandle> {
        let id = ProxyId(i as u16);
        let in_topic = inbound_topic(id);
        let mut relay = match self.transport.clone() {
            TransportMode::InProcess => Relay::Local(Proxy::new(id, &self.broker)),
            TransportMode::Process { node, faults } => {
                let consumer = self.broker.consumer(&format!("proxy-{i}"), &[&in_topic]);
                Relay::Remote {
                    bridge: self.bridge((&node, faults), Role::Proxy, i, consumer)?,
                    out: self.broker.writer(&outbound_topic(id)),
                    inbound: Vec::new(),
                }
            }
        };
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
            let moved = relay.round(&c);
            let dt = thread_busy_time().saturating_sub(t0);
            c.busy_ns.fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
            if stopping {
                if let Relay::Remote { bridge, .. } = &mut relay {
                    bridge.goodbye();
                }
                break;
            }
            if !moved {
                // Ended by a share landing on the inbound topic, a
                // frame from the child, or the stop flag's wake — not
                // by the tick.
                relay.park(token);
            }
        });
        Ok(ProxyHandle {
            counters,
            in_topic,
            thread: Some(thread),
            dead: false,
        })
    }

    /// Starts shard `s`. Either hosting joins the `"aggregator"`
    /// consumer group here, on the calling thread: at build, that is
    /// what makes membership — and so the partition → shard mapping —
    /// complete and identical across transports before the first
    /// record flows; at respawn, committed offsets persist across the
    /// membership change, so the replacement resumes exactly where the
    /// group left off. Decodes held in a dead shard's open windows are
    /// lost — the affected epochs close partially.
    pub(crate) fn spawn_shard(&mut self, s: usize) -> io::Result<ShardHandle> {
        let c = self.config;
        let shard = match self.transport.clone() {
            TransportMode::InProcess => {
                let fuse = self.faults.shard_fuse(s);
                Shard::Local(LocalShard::new(
                    &self.broker,
                    c.proxies as usize,
                    c.confidence,
                    fuse,
                ))
            }
            TransportMode::Process { node, faults } => {
                let outs: Vec<String> =
                    (0..c.proxies).map(|i| outbound_topic(ProxyId(i))).collect();
                let outs: Vec<&str> = outs.iter().map(String::as_str).collect();
                let consumer = self.broker.consumer("aggregator", &outs);
                Shard::Remote(self.bridge((&node, faults), Role::Shard, s, consumer)?)
            }
        };
        let policy = ClosePolicy {
            ledger: Arc::clone(&self.ledger),
            deadline: c.epoch_deadline,
            straggle: self.faults.straggle(s),
            broker: self.broker.clone(),
        };
        let heartbeat = self.watchdog.register(&format!("shard-{s}"));
        let (cmd, cmd_rx) = channel::<ShardCmd>();
        let (reply_tx, reply) = channel::<ShardReply>();
        let thread = spawn_supervised(Role::Shard, s, Arc::clone(&self.crashes), move || {
            run_shard(shard, policy, &cmd_rx, &reply_tx, &heartbeat)
        });
        Ok(ShardHandle {
            cmd,
            reply,
            thread: Some(thread),
            busy_base: Duration::ZERO,
            dead: false,
        })
    }
}

impl Relay {
    fn token(&self) -> u64 {
        match self {
            Relay::Local(proxy) => proxy.wake().token(),
            Relay::Remote { bridge, .. } => bridge.token(),
        }
    }

    /// One forwarding round; returns whether anything moved (or is
    /// waiting to: a stalled relay retries without parking).
    fn round(&mut self, c: &RelayCounters) -> bool {
        match self {
            Relay::Local(proxy) => match proxy.try_pump() {
                Ok(n) => {
                    c.forwarded.fetch_add(n, Ordering::Relaxed);
                    n > 0
                }
                // A backpressure deadline is a stall downstream, not a
                // relay fault: the unforwarded tail stays buffered and
                // the next round retries it.
                Err(_) => {
                    c.backpressure.fetch_add(1, Ordering::Relaxed);
                    true
                }
            },
            Relay::Remote {
                bridge,
                out,
                inbound,
            } => {
                // Ship produced shares to the child, then land the
                // relayed ones that are already here.
                let mut moved = bridge.ship();
                while let Some(f) = bridge.try_recv() {
                    moved = true;
                    if f.kind != FrameKind::Data {
                        continue;
                    }
                    inbound.clear();
                    if let Err(e) = decode_data_batch(&f.payload, inbound) {
                        bridge.fail(e);
                    }
                    c.forwarded.fetch_add(inbound.len() as u64, Ordering::Relaxed);
                    for m in inbound.drain(..) {
                        deliver_share(out, m, &c.backpressure);
                    }
                    out.notify();
                }
                bridge.settle();
                moved
            }
        }
    }

    fn park(&mut self, token: u64) {
        match self {
            Relay::Local(proxy) => {
                proxy.wake().park(token, PROXY_PARK);
            }
            Relay::Remote { bridge, .. } => bridge.park(token),
        }
    }
}

/// Appends one share relayed back by a child to the local broker,
/// riding out backpressure deadlines exactly like the in-process
/// relay: the record is retried, the stall is counted, nothing is
/// dropped.
fn deliver_share(writer: &TopicWriter, m: DataMsg, stalls: &AtomicU64) {
    while writer
        .try_append_quiet(
            m.partition as usize,
            m.key.clone(),
            Arc::clone(&m.value),
            Timestamp(m.timestamp),
        )
        .is_err()
    {
        stalls.fetch_add(1, Ordering::Relaxed);
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
    broker: Broker,
}

/// The loop of a shard's supervised thread, whichever way the shard is
/// hosted: absorb the supervisor's commands, fire the oldest queued
/// close once it is due, move data, park.
fn run_shard(
    mut shard: Shard,
    policy: ClosePolicy,
    cmd_rx: &Receiver<ShardCmd>,
    reply_tx: &Sender<ShardReply>,
    heartbeat: &Heartbeat,
) {
    let ClosePolicy {
        ledger,
        deadline,
        straggle,
        broker,
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
                    broker.notify_topic(&outbound_topic(ProxyId(0)));
                    continue 'run;
                }
            }
        }
        // 3. Move what is there, publishing decode deltas to the
        //    global ledger.
        idle &= !shard.work(&ledger, reply_tx, &mut awaiting);
        // 4. Nothing to do: sleep until a relayed share lands on an
        //    outbound topic, a frame arrives from the child, or a
        //    control wake (`wake_shards` after a command, a sibling's
        //    close kick) — the tick only serves the heartbeat,
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
                // Forward relayed shares to the child, then take the
                // child's frames that are already here.
                let mut moved = bridge.ship();
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
