//! Multi-process deployment: the `privapprox-node` child runtime and
//! the parent-side plumbing that connects it to
//! [`ShardedSystem`](crate::deploy::ShardedSystem) over loopback TCP.
//!
//! The in-process deployment runs proxies and aggregator shards as
//! supervised threads against one shared broker. This module lets the
//! *same* control flow drive them as spawned child processes instead,
//! with a data path that has no hub — as in the paper (§3, Fig. 1),
//! proxies forward straight to the aggregator:
//!
//! ```text
//! data:     worker ─► parent broker ─► proxy bridge ═► proxy child ═► shard child
//! control:  main ─► shard bridge ═► shard child      (Ctrl; CtrlReply and Progress back)
//! ```
//!
//! * each proxy / shard becomes a `privapprox-node` process behind a
//!   front door on a loopback port;
//! * the parent keeps a thin *bridge thread* per child that looks
//!   exactly like the in-process `ProxyHandle` / `ShardHandle`
//!   threads, so respawn, epoch accounting and health roll-up are
//!   shared between both transports. A `ProxyBridge` ships its child
//!   the shares workers publish on the proxy's inbound topic — one
//!   frame per shard slot per poll batch, every record stamped with
//!   the proxy's stream — and keeps the child's shard routes current;
//!   a shard's `Bridge` carries the control plane only — commands out,
//!   replies and decode progress back;
//! * a proxy child only transmits, as the paper's proxy does (§3.2.3):
//!   it holds one [`SupervisedLink`] per shard child and sends each
//!   frame the parent shipped, checked by a borrowed walk
//!   ([`walk_data_batch`]) but never decoded, whole to shard
//!   `partition % shards` — the `"aggregator"` consumer group's rank
//!   rule, so each MID's shares still meet on one shard and results
//!   stay byte-identical. Shard children are spawned first and their
//!   addresses ride the proxies' command line; a respawned shard's
//!   address reaches the live proxies as a [`Route`](FrameKind::Route)
//!   frame, and each reports its links' counters home as
//!   [`LinkStats`](FrameKind::LinkStats) frames;
//! * neither child keeps a broker: a shard child walks each frame a
//!   proxy link delivers and offers every share, by reference, to
//!   the same `LocalShard` join an in-process shard thread runs on
//!   what its consumer polls — the link *is* the paper's proxy output
//!   stream (§3.2.4). It counts poisoned shares and keeps no copy of
//!   them;
//! * the control plane (query registration, epoch close, health
//!   probes) is the in-process shard's own command vocabulary
//!   (`ShardCmd`/`ShardReply`) in binary; floats travel as
//!   `f64::to_bits` so results stay **byte-identical** to the
//!   in-process path;
//! * the data plane is batched binary [`DataMsg`] records with
//!   cumulative acks, receive-side reassembly ([`Reassembly`]) and
//!   epoch [`Progress`](FrameKind::Progress) deltas feeding the
//!   parent's epoch-deadline ledger.
//!
//! # Wake protocol
//!
//! No hop delivers by timer (the full table is the "Wake protocol"
//! section of `docs/wire-format.md`):
//!
//! * a **node child** sleeps in one `poll(2)` ([`PollSet`]) over its
//!   front door, every connection it admitted (the parent's; a shard's
//!   also one per proxy) and — a proxy — every link it dialed. Woken,
//!   it admits whoever knocked, takes only what is already there
//!   ([`Transport::try_recv`]), acts — relay, or join and decode; ack —
//!   and **flushes before it waits again**, so an epoch is relayed as
//!   it arrives and no reply it has encoded (the `Closed` reply
//!   included) sleeps in a buffer;
//! * a **parent bridge** has two sources: its child's socket and an
//!   event count — a proxy bridge's consumer's (rung by a share on the
//!   inbound topic, a route change, the stop flag's wake), a shard
//!   bridge's own (rung by a queued command or a sibling's close
//!   kick). It reads a wake token, checks both, flushes, and parks in
//!   one `poll(2)` over the socket *and* a self-pipe that the event
//!   count rings — only while the bridge is parked;
//! * a blocked **write** keeps receiving, so two ends can both be
//!   mid-burst with more to say than the socket buffers hold.
//!
//! `LINK_READ_POLL` is what is left of the timers: a watchdog tick
//! for heartbeats, the stop flag and `maybe_resend`.
//!
//! Failure model: a dead child shows up as a dead link; when the
//! link's retry budget is exhausted the bridge thread panics with the
//! child's role attached, which lands in the existing crash log /
//! respawn machinery. Share records a dead child held are a *sampling
//! loss* — the epoch-deadline ledger closes the affected epochs
//! partially, exactly like a shard-thread panic in-process. A proxy
//! child whose link to a shard runs out of retries drops that slot's
//! shares for the round and dials the slot again the next: a shard
//! that outlives the stall gets the link's unacked window replayed,
//! and a dead one's slot keeps failing until the parent routes it to
//! the respawned shard, whose fresh link starts with an empty window.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::os::fd::{AsRawFd, RawFd};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use privapprox_cluster::frontdoor::{shake_hands, ConnGuard};
use privapprox_cluster::wire::{
    decode_link_stats, decode_route, encode_ack, encode_link_stats, encode_progress, encode_route,
    Channel,
};
use privapprox_cluster::{
    encode_data_batch, walk_data_batch, AdmissionPolicy, Admitted, BackoffPolicy, DataMsg,
    FaultPlan, FaultyTransport, Frame, FrameKind, FrontDoor, Hello, Link, LinkStats, PollSet,
    Reassembly, RejectReason, SupervisedLink, TcpTransport, TokenBucket, Transport, Waker,
};
use privapprox_stream::broker::{Consumer, Record};
use privapprox_stream::EventCount;

use crate::control::{ShardCmd, ShardReply};
use crate::deploy::ShardedConfig;
use crate::stage::{LocalShard, Role};

/// How long a dial waits for the TCP connect to a child node.
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_millis(1_000);
/// Watchdog tick of every socket wait, on both ends — **not** a
/// delivery mechanism. What normally ends the wait is the awaited
/// event itself: bytes on a socket, or (parent side) the bridge's
/// wake handle being rung because a record landed on a topic it
/// consumes or the main thread queued a command. The tick only bounds
/// how stale a heartbeat, a raised stop flag or an overdue
/// `maybe_resend` can get. It is a `poll(2)` timeout; the
/// `SO_RCVTIMEO` it replaces was rounded up to whole jiffies — a
/// nominal 5 ms measured 12 ms on an HZ=250 guest — which is one more
/// reason nothing on the epoch path may depend on it.
pub(crate) const LINK_READ_POLL: Duration = Duration::from_millis(50);
/// Hello/HelloAck round-trip budget.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_millis(2_000);
/// Records packed into one data frame (one sequence number, one ack).
pub(crate) const BATCH_RECORDS: usize = 512;

// ---------------------------------------------------------------------------
// Parent side: spawning children and dialing supervised links.
// ---------------------------------------------------------------------------

/// A spawned `privapprox-node` child process.
///
/// Dropping the guard kills the child — a bridge-thread panic (or a
/// clean shutdown) can therefore never strand an orphan listener. The
/// child additionally watches its stdin (held open by this handle)
/// and exits on EOF, which covers the parent being killed outright.
pub(crate) struct NodeChild {
    child: Child,
    /// The loopback address the child's front door is listening on.
    addr: SocketAddr,
}

/// Cumulative on-CPU time of process `pid`, read from
/// `/proc/<pid>/schedstat` (whose first field is nanoseconds on-CPU —
/// no clock-tick conversion). `None` off Linux or once the process
/// has exited. The bench harness uses this to price child processes
/// as pipeline stages in the machine-rate bottleneck.
pub(crate) fn process_cpu(pid: u32) -> Option<Duration> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/schedstat")).ok()?;
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(Duration::from_nanos(ns))
}

impl Drop for NodeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts one child per command line — a *tier*: every shard of a
/// build, every proxy, or the one slot a respawn replaces — and only
/// then reads each child's `PORT <n>` banner (printed once its front
/// door is bound, so a returned child is dialable). The tier's
/// start-ups overlap instead of queueing. If a child fails to start or
/// announce, the ones already announced are killed by their guards
/// and the rest exit on their closed stdin.
pub(crate) fn spawn_tier(node: &Path, tier: &[Vec<String>]) -> io::Result<Vec<NodeChild>> {
    let mut started = Vec::with_capacity(tier.len());
    for args in tier {
        let child = Command::new(node)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("spawn {}: {e}", args.join(" "))))?;
        started.push(child);
    }
    started.into_iter().map(announced).collect()
}

/// Waits for a started child's `PORT <n>` banner.
fn announced(mut child: Child) -> io::Result<NodeChild> {
    let stdout = child.stdout.take().expect("piped child stdout");
    let mut line = String::new();
    let port = match BufReader::new(stdout).read_line(&mut line) {
        Ok(_) => line
            .trim()
            .strip_prefix("PORT ")
            .and_then(|p| p.parse::<u16>().ok()),
        Err(_) => None,
    };
    match port {
        Some(p) => Ok(NodeChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], p)),
        }),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("node did not announce a port (got {line:?})"),
            ))
        }
    }
}

/// The command line of the child for slot `(role, index)`. A proxy's
/// also names every shard child's address, in slot order, plus the
/// fault plan and resend threshold of the links it dials to them.
pub(crate) fn node_args(
    role: Role,
    index: usize,
    config: &ShardedConfig,
    partitions: usize,
    faults: FaultPlan,
    shards: &[SocketAddr],
) -> Vec<String> {
    let mut args = vec![
        role.name().to_string(),
        "--index".into(),
        index.to_string(),
        "--partitions".into(),
        partitions.to_string(),
        "--proxies".into(),
        config.proxies.to_string(),
        "--confidence-bits".into(),
        config.confidence.to_bits().to_string(),
    ];
    if role == Role::Proxy {
        let addrs: Vec<String> = shards.iter().map(SocketAddr::to_string).collect();
        args.extend(["--shards".into(), addrs.join(",")]);
        if !faults.is_clean() {
            args.extend(["--faults".into(), fault_arg(&faults)]);
        }
        if let Some(after) = config.link_resend_after {
            args.extend(["--resend-after-us".into(), after.as_micros().to_string()]);
        }
    }
    args
}

/// A fault plan as one command-line word:
/// `seed:drop:duplicate:delay:reorder:cut_after:data_only[:latency_us:bytes_per_us]`,
/// floats as their IEEE-754 bits, so a child faults exactly as
/// planned.
fn fault_arg(p: &FaultPlan) -> String {
    let mut words = vec![
        p.seed,
        p.drop.to_bits(),
        p.duplicate.to_bits(),
        p.delay.to_bits(),
        p.reorder.to_bits(),
        p.cut_after,
        p.data_only as u64,
    ];
    if let Some(link) = p.link {
        words.extend([link.latency_us, link.bytes_per_us.to_bits()]);
    }
    let words: Vec<String> = words.iter().map(u64::to_string).collect();
    words.join(":")
}

/// Parses [`fault_arg`]'s word.
fn parse_fault_arg(word: &str) -> Option<FaultPlan> {
    let w: Vec<u64> = word
        .split(':')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let link = match w.len() {
        7 => None,
        9 => Some(Link {
            latency_us: w[7],
            bytes_per_us: f64::from_bits(w[8]),
        }),
        _ => return None,
    };
    Some(FaultPlan {
        seed: w[0],
        drop: f64::from_bits(w[1]),
        duplicate: f64::from_bits(w[2]),
        delay: f64::from_bits(w[3]),
        reorder: f64::from_bits(w[4]),
        cut_after: w[5],
        data_only: w[6] != 0,
        link,
        ..FaultPlan::default()
    })
}

/// Builds the supervised, optionally fault-injected link to a node.
/// Each (re)dial performs the front-door handshake — the first one
/// announcing a fresh link, so the node restarts that stream's
/// reassembly; admission rejection surfaces as `ConnectionRefused`
/// and burns a retry.
fn node_link(
    addr: SocketAddr,
    (channel, index): (Channel, u32),
    faults: FaultPlan,
    stats: Arc<LinkStats>,
    seed: u64,
    resend_after: Option<Duration>,
) -> SupervisedLink {
    let mut fresh = true;
    let dial = Box::new(move || -> io::Result<Box<dyn Transport>> {
        let tcp = TcpTransport::connect(addr, CONNECT_TIMEOUT, LINK_READ_POLL)?;
        let mut t: Box<dyn Transport> = if faults.is_clean() {
            Box::new(tcp)
        } else {
            Box::new(FaultyTransport::new(tcp, faults))
        };
        let hello = Hello {
            channel,
            index,
            fresh,
        };
        shake_hands(t.as_mut(), hello, HANDSHAKE_TIMEOUT)?;
        fresh = false;
        Ok(t)
    });
    let mut link = SupervisedLink::new(dial, BackoffPolicy::default(), stats, seed);
    if let Some(after) = resend_after {
        link.set_resend_after(after);
    }
    link
}

/// Converts a polled broker record into its wire form. Key and value
/// buffers are shared with the record (refcount bumps, no copies) —
/// the only byte copy on the send path is the frame encode itself.
fn record_to_msg(stream: u8, partition: u32, rec: &Record) -> DataMsg {
    DataMsg {
        seq: 0,
        stream,
        partition,
        timestamp: rec.timestamp.0,
        key: rec.key.clone(),
        value: Arc::clone(&rec.value),
    }
}

/// Deterministic per-link jitter seed: deployment seed × role × slot,
/// so backoff schedules are stable run to run and distinct link to
/// link.
fn link_seed(seed: u64, role: &str, index: usize) -> u64 {
    let role_tag = role
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
    seed ^ role_tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Takes a bridge thread down with its slot's name attached: the
/// panic lands in the crash log and the respawn machinery.
fn link_down(label: &str, e: impl std::fmt::Display) -> ! {
    panic!("{label} link: {e}")
}

/// Unwraps a link operation in a bridge thread; an error here means
/// the link's retry budget ran out.
fn link_ok<T>(label: &str, outcome: io::Result<T>) -> T {
    outcome.unwrap_or_else(|e| link_down(label, e))
}

/// Where every shard child listens, by slot, as the parent last
/// published it. A proxy child learns the table on its command line
/// and every later change as a `Route` frame, which its bridge sends
/// when the generation moves.
#[derive(Default)]
pub(crate) struct Routes {
    generation: AtomicU64,
    addrs: Mutex<Vec<SocketAddr>>,
}

impl Routes {
    /// Points shard slot `s` at `addr`.
    pub(crate) fn set(&self, s: usize, addr: SocketAddr) {
        let mut addrs = self.addrs.lock().expect("routes lock");
        if addrs.len() <= s {
            addrs.resize(s + 1, addr);
        }
        addrs[s] = addr;
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// The table, with the generation it was read at.
    pub(crate) fn read(&self) -> (u64, Vec<SocketAddr>) {
        let addrs = self.addrs.lock().expect("routes lock");
        (self.generation.load(Ordering::SeqCst), addrs.clone())
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }
}

/// The parent's end of one `privapprox-node` child: the child process,
/// the supervised link to it, and one park over the link and an event
/// count.
///
/// A bridge asleep in `poll(2)` cannot hear a condvar, so it installs
/// a *bell* on its event count which rings the self-pipe its `poll(2)`
/// also watches — only while the bridge is announced as parked, so a
/// busy bridge costs its notifiers no syscall.
pub(crate) struct Bridge {
    /// `"<role> <index>"`, for the panic message of a dead link.
    label: String,
    link: SupervisedLink,
    waker: Waker,
    /// What ends the bridge's park besides its socket.
    wake: Arc<EventCount>,
    /// Declared last, so dropped last: the bridge owns the child, and
    /// a bridge thread that unwinds (or shuts down) kills the process.
    child: NodeChild,
}

impl Bridge {
    /// Dials the supervised link to the freshly spawned `child` of
    /// slot `(role, index)` — a proxy's link carries shares, a shard's
    /// control only — and lets `wake` end the bridge's `poll(2)`.
    pub(crate) fn open(
        child: NodeChild,
        faults: FaultPlan,
        (role, index): (Role, usize),
        config: &ShardedConfig,
        wake: Arc<EventCount>,
    ) -> io::Result<Bridge> {
        let name = role.name();
        let channel = if role == Role::Proxy {
            Channel::Data
        } else {
            Channel::Ctrl
        };
        let faults = if faults.node_links_only {
            FaultPlan::default()
        } else {
            faults
        };
        let link = node_link(
            child.addr,
            (channel, index as u32),
            faults,
            LinkStats::shared(),
            link_seed(config.seed, name, index),
            config.link_resend_after,
        );
        let waker = Waker::new()?;
        let bell = waker.clone();
        wake.set_bell(move || bell.ring());
        Ok(Bridge {
            label: format!("{name} {index}"),
            link,
            waker,
            wake,
            child,
        })
    }

    /// Takes the bridge thread down over a damaged frame, like a link
    /// whose retry budget ran out.
    pub(crate) fn fail(&self, e: impl std::fmt::Display) -> ! {
        link_down(&self.label, e)
    }

    /// The child's OS process id.
    pub(crate) fn pid(&self) -> u32 {
        self.child.child.id()
    }

    /// Where the child's front door listens.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.child.addr
    }

    /// The link's supervision counters.
    pub(crate) fn stats(&self) -> Arc<LinkStats> {
        Arc::clone(self.link.stats())
    }

    /// The event count the bridge parks on.
    pub(crate) fn wake(&self) -> Arc<EventCount> {
        Arc::clone(&self.wake)
    }

    /// The park token; read **before** checking the bridge's sources.
    pub(crate) fn token(&self) -> u64 {
        self.wake.token()
    }

    /// The next frame from the child that is already here; never
    /// waits for one.
    pub(crate) fn try_recv(&mut self) -> Option<Frame> {
        link_ok(&self.label, self.link.try_recv())
    }

    /// Sends one frame and flushes it out.
    fn send(&mut self, frame: Frame) {
        let sent = self.link.send(frame).and_then(|()| self.link.flush());
        link_ok(&self.label, sent);
    }

    /// Sends one control request.
    pub(crate) fn send_ctrl(&mut self, payload: Vec<u8>) {
        self.send(Frame::new(FrameKind::Ctrl, payload));
    }

    /// Ends a round: replays a stalled resend window and flushes, so
    /// nothing the round encoded sleeps in a buffer.
    pub(crate) fn settle(&mut self) {
        let settled = self.link.maybe_resend().and_then(|()| self.link.flush());
        link_ok(&self.label, settled);
    }

    /// Sleeps until the socket has input, the event count moves past
    /// `token`, or the [`LINK_READ_POLL`] watchdog tick — and not at
    /// all if the count already moved. The caller has settled.
    pub(crate) fn park(&mut self, token: u64) {
        let slept = self
            .wake
            .park_in(token, || self.link.wait(&self.waker, LINK_READ_POLL));
        link_ok(&self.label, slept.unwrap_or(Ok(())));
    }

    /// Best-effort goodbye so the child exits cleanly before the guard
    /// kills it.
    pub(crate) fn goodbye(&mut self) {
        let _ = self.link.send(Frame::bare(FrameKind::Shutdown));
        let _ = self.link.flush();
    }
}

/// The parent's end of a proxy child: ships the child the shares
/// workers publish on the proxy's inbound topic, tells it where shard
/// children moved, and mirrors the counters of its links to them.
pub(crate) struct ProxyBridge {
    /// The proxy's index: the `stream` of every record it ships.
    stream: u8,
    bridge: Bridge,
    /// Joined to the proxy's group on the spawning thread; its event
    /// count is the bridge's.
    consumer: Consumer,
    batch: Vec<(u32, u32, Record)>,
    /// A poll batch's records, by the child's shard slot.
    slots: Vec<Vec<DataMsg>>,
    routes: Arc<Routes>,
    /// The route table as the child knows it, and its generation.
    told: (u64, Vec<SocketAddr>),
    /// The child's shard links' counters, as it last reported them.
    peer_links: Arc<LinkStats>,
}

impl ProxyBridge {
    /// The bridge of proxy `index`; `told` is the route table on the
    /// child's command line, one address per shard slot.
    pub(crate) fn new(
        index: usize,
        bridge: Bridge,
        consumer: Consumer,
        routes: Arc<Routes>,
        told: (u64, Vec<SocketAddr>),
    ) -> ProxyBridge {
        ProxyBridge {
            stream: index as u8,
            bridge,
            consumer,
            batch: Vec::new(),
            slots: vec![Vec::new(); told.1.len()],
            routes,
            told,
            peer_links: LinkStats::shared(),
        }
    }

    /// The counters of the child's links to the shard children.
    pub(crate) fn peer_links(&self) -> Arc<LinkStats> {
        Arc::clone(&self.peer_links)
    }

    pub(crate) fn token(&self) -> u64 {
        self.bridge.token()
    }

    pub(crate) fn park(&mut self, token: u64) {
        self.bridge.park(token);
    }

    pub(crate) fn goodbye(&mut self) {
        self.bridge.goodbye();
    }

    /// One round: ships what waits on the inbound topic — per poll
    /// batch, one data frame for each shard slot (`partition % shards`)
    /// it has records for, which the child sends on whole; each share
    /// counted in `forwarded` — sends a `Route` for every shard slot
    /// that moved, and takes the child's link reports. Returns whether
    /// anything moved.
    pub(crate) fn round(&mut self, forwarded: &AtomicU64) -> bool {
        let mut moved = false;
        while self.consumer.poll_into(BATCH_RECORDS, &mut self.batch) > 0 {
            moved = true;
            forwarded.fetch_add(self.batch.len() as u64, Ordering::Relaxed);
            let shards = self.slots.len();
            for (_, partition, rec) in self.batch.drain(..) {
                let msg = record_to_msg(self.stream, partition, &rec);
                self.slots[partition as usize % shards].push(msg);
            }
            for msgs in self.slots.iter_mut().filter(|m| !m.is_empty()) {
                let frame = Frame::new(FrameKind::Data, encode_data_batch(msgs));
                self.bridge.send(frame);
                msgs.clear();
            }
        }
        if self.routes.generation() != self.told.0 {
            let (generation, addrs) = self.routes.read();
            for (s, addr) in addrs.iter().enumerate() {
                if self.told.1.get(s) != Some(addr) {
                    let route = encode_route(s as u32, *addr);
                    self.bridge.send(Frame::new(FrameKind::Route, route));
                }
            }
            self.told = (generation, addrs);
        }
        while let Some(f) = self.bridge.try_recv() {
            moved = true;
            if f.kind == FrameKind::LinkStats {
                match decode_link_stats(&f.payload) {
                    Ok(counts) => self.peer_links.set_counts(counts),
                    Err(e) => self.bridge.fail(e),
                }
            }
        }
        self.bridge.settle();
        moved
    }
}

// ---------------------------------------------------------------------------
// Child side: the `privapprox-node` runtime.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum NodeRole {
    Proxy,
    Shard,
}

struct NodeOpts {
    role: NodeRole,
    index: usize,
    partitions: usize,
    proxies: usize,
    confidence: f64,
    /// Every shard child's front door, by slot (a proxy's links).
    shards: Vec<SocketAddr>,
    /// Faults on the links this node dials.
    faults: FaultPlan,
    /// Ack-stall threshold of those links (`None`: the link default).
    resend_after: Option<Duration>,
}

impl NodeOpts {
    fn parse(args: &[String]) -> io::Result<NodeOpts> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidInput, what.to_string());
        let role = match args.first().map(String::as_str) {
            Some("proxy") => NodeRole::Proxy,
            Some("shard") => NodeRole::Shard,
            _ => return Err(bad("usage: privapprox-node <proxy|shard> [flags]")),
        };
        let mut opts = NodeOpts {
            role,
            index: 0,
            partitions: 1,
            proxies: 2,
            confidence: 0.95,
            shards: Vec::new(),
            faults: FaultPlan::default(),
            resend_after: None,
        };
        let mut it = args[1..].iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| bad("flag missing value"))?;
            match flag.as_str() {
                "--index" => opts.index = val.parse().map_err(|_| bad("--index"))?,
                "--partitions" => opts.partitions = val.parse().map_err(|_| bad("--partitions"))?,
                "--proxies" => opts.proxies = val.parse().map_err(|_| bad("--proxies"))?,
                "--confidence-bits" => {
                    opts.confidence =
                        f64::from_bits(val.parse().map_err(|_| bad("--confidence-bits"))?)
                }
                "--shards" => {
                    opts.shards = val
                        .split(',')
                        .map(str::parse)
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad("--shards"))?
                }
                "--faults" => opts.faults = parse_fault_arg(val).ok_or_else(|| bad("--faults"))?,
                "--resend-after-us" => {
                    let us = val.parse().map_err(|_| bad("--resend-after-us"))?;
                    opts.resend_after = Some(Duration::from_micros(us));
                }
                _ => return Err(bad("unknown flag")),
            }
        }
        if opts.partitions == 0 {
            return Err(bad("--partitions must be positive"));
        }
        if role == NodeRole::Proxy && opts.shards.is_empty() {
            return Err(bad("a proxy node needs --shards"));
        }
        Ok(opts)
    }
}

/// Entry point for the `privapprox-node` binary: binds a front door,
/// prints `PORT <n>` on stdout, then serves its role until the parent
/// sends `Shutdown`, closes the child's stdin, or kills it. Returns
/// the process exit code.
pub fn node_main(args: &[String]) -> i32 {
    match run_node(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("privapprox-node: {e}");
            1
        }
    }
}

fn run_node(args: &[String]) -> io::Result<()> {
    let opts = NodeOpts::parse(args)?;
    let door = FrontDoor::bind(AdmissionPolicy::default())?;
    let port = door.local_addr()?.port();
    {
        let mut out = io::stdout().lock();
        writeln!(out, "PORT {port}")?;
        out.flush()?;
    }
    // Orphan defense: the parent holds our stdin open. EOF means the
    // parent is gone — exit instead of lingering as a stray listener.
    thread::spawn(|| {
        let mut sink = [0u8; 64];
        let mut stdin = io::stdin().lock();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(0);
    });
    match opts.role {
        NodeRole::Proxy => ProxyNode::new(&opts).run(&door),
        NodeRole::Shard => ShardNode::new(&opts).run(&door),
    }
}

/// A connection the front door admitted, with the admission state its
/// data frames answer to. A broken or hostile connection is dropped;
/// its peer re-dials.
struct Conn {
    t: Box<dyn Transport>,
    bucket: TokenBucket,
    max_in_flight: usize,
    /// Frees the front door's connection slot when the connection goes.
    _slot: Option<ConnGuard>,
}

impl Conn {
    /// Splits an admission into the peer's `Hello` and the connection.
    fn admitted(a: Admitted) -> (Hello, Conn) {
        let conn = Conn {
            t: Box::new(a.transport),
            bucket: a.bucket,
            max_in_flight: a.max_in_flight,
            _slot: Some(a.guard),
        };
        (a.hello, conn)
    }

    /// What a wait over this connection watches.
    fn watched(&self) -> (Option<RawFd>, bool) {
        (self.t.raw_fd(), self.t.ready_now())
    }
}

/// A node's one wait: sleeps until the front door or any of `ends` —
/// the socket and [`Transport::ready_now`] of every connection and
/// dialed link — has input, or the watchdog tick; not at all while
/// one of them already holds a frame.
fn wait_for_input(
    set: &mut PollSet,
    door: &FrontDoor,
    ends: impl Iterator<Item = (Option<RawFd>, bool)>,
) -> io::Result<()> {
    set.clear();
    set.watch(door.as_raw_fd());
    let mut ready = false;
    for (fd, held) in ends {
        ready |= held;
        if let Some(fd) = fd {
            set.watch(fd);
        }
    }
    if ready {
        return Ok(());
    }
    set.wait(LINK_READ_POLL)
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// A data frame's payload as the inbox released it, with the shard
/// slot all of its records belong to.
type Batch = (usize, Vec<u8>);

/// The receiving half of one data stream: admission control in front
/// of the resend protocol's reassembly. It outlives the connections
/// that feed it, so a re-dialed link's replay continues in sequence.
struct Inbox {
    reasm: Reassembly<Batch>,
    /// Highest cumulative ack sent on the current connection.
    acked: u64,
    /// Batches released in order, payloads as they arrived, waiting to
    /// be relayed (a proxy node) or joined (a shard node).
    deliverable: Vec<Batch>,
    /// Records must name a partition below this.
    partitions: usize,
    /// The stream every record must claim: the proxy whose shares the
    /// link carries.
    stream: u8,
    /// Shard slots (`partition % slots`); a batch's records all fall
    /// in one. A shard node's inbox has one.
    slots: usize,
}

impl Inbox {
    fn new(partitions: usize, stream: u8, slots: usize) -> Inbox {
        Inbox {
            reasm: Reassembly::new(),
            acked: 0,
            deliverable: Vec::new(),
            partitions,
            stream,
            slots,
        }
    }

    /// A new connection for this stream: the ack floor is announced
    /// on it afresh, and a fresh link (sequence restarting at 1) also
    /// restarts the reassembly.
    fn reconnected(&mut self, fresh: bool) {
        if fresh {
            self.reasm = Reassembly::new();
        }
        self.acked = 0;
    }

    /// Takes one inbound data frame: walked and checked without being
    /// decoded, admitted (or bounced with a `Reject` — the peer's
    /// resend window redelivers it later) and put back in sequence. A
    /// batch holding a record the node cannot pass on — a partition
    /// beyond its `--partitions`, a stream other than the link's, or a
    /// shard slot other than the batch's first record's — is refused
    /// whole as `InvalidData`, and the caller drops the connection.
    fn accept(&mut self, payload: Vec<u8>, c: &mut Conn) -> io::Result<()> {
        // The first record's sequence number (the frame's) and slot.
        let mut head = None;
        let records = walk_data_batch(&payload, |r| {
            let slot = r.partition as usize % self.slots;
            let (_, first) = *head.get_or_insert((r.seq, slot));
            if r.partition as usize >= self.partitions || r.stream != self.stream || slot != first {
                return Err(invalid(format!(
                    "refused a batch: record for stream {} partition {} in a batch for slot {first} \
                     (this link: stream {}, {} partitions, {} slots)",
                    r.stream, r.partition, self.stream, self.partitions, self.slots
                )));
            }
            Ok(())
        })?;
        let (seq, slot) = head.expect("a walked batch has a record");
        let refused = if seq > self.reasm.ack_floor() + c.max_in_flight as u64 {
            Some(RejectReason::Overloaded)
        } else if !c.bucket.try_take(Instant::now(), records as f64) {
            Some(RejectReason::RateLimited)
        } else {
            None
        };
        match refused {
            Some(reason) => c.t.send(&Frame::reject(reason)),
            None => {
                let batch = (slot, payload);
                self.reasm.accept(seq, batch, &mut self.deliverable);
                Ok(())
            }
        }
    }

    /// Queues the cumulative ack for everything delivered in order,
    /// if it moved.
    fn ack(&mut self, t: &mut dyn Transport) -> io::Result<()> {
        let floor = self.reasm.ack_floor();
        if floor > self.acked {
            t.send(&Frame::new(FrameKind::DataAck, encode_ack(floor)))?;
            self.acked = floor;
        }
        Ok(())
    }
}

/// Child runtime for one proxy: the parent's connection on the way in
/// and a supervised link to every shard child on the way out. Its role
/// is transmission only (§3.2.3), so it keeps no broker and runs no
/// [`Proxy`](crate::proxy::Proxy): each frame the parent ships holds
/// one shard slot's shares and goes on to that slot's link as it
/// arrived, checked but never decoded.
struct ProxyNode {
    index: usize,
    /// The parent's batches, checked and put back in sequence.
    inbox: Inbox,
    parent: Option<Conn>,
    /// One link per shard child, by slot, replaced when the parent
    /// routes the slot to a respawned shard.
    shards: Vec<SupervisedLink>,
    /// Slots whose link ran out of retries this round: left alone for
    /// the rest of it, so a stalled shard costs a round one retry
    /// budget, and dialed again the next — a shard that lives through
    /// the stall is reached again with the link's unacked window.
    down: Vec<bool>,
    faults: FaultPlan,
    resend_after: Option<Duration>,
    /// Counters of every link this node has dialed, old and current.
    link_stats: Arc<LinkStats>,
    /// `link_stats` as the parent last heard them.
    reported: [u64; 4],
}

impl ProxyNode {
    fn new(opts: &NodeOpts) -> ProxyNode {
        let slots = opts.shards.len();
        let mut node = ProxyNode {
            index: opts.index,
            inbox: Inbox::new(opts.partitions, opts.index as u8, slots),
            parent: None,
            shards: Vec::new(),
            down: vec![false; slots],
            faults: opts.faults,
            resend_after: opts.resend_after,
            link_stats: LinkStats::shared(),
            reported: [0; 4],
        };
        node.shards = (opts.shards.iter().enumerate())
            .map(|(s, &addr)| node.dial(s, addr))
            .collect();
        node
    }

    /// A fresh link to shard slot `s` at `addr`, dialed on first use.
    fn dial(&self, s: usize, addr: SocketAddr) -> SupervisedLink {
        node_link(
            addr,
            (Channel::Data, self.index as u32),
            self.faults,
            Arc::clone(&self.link_stats),
            link_seed(self.faults.seed ^ s as u64, "proxy", self.index),
            self.resend_after,
        )
    }

    fn run(mut self, door: &FrontDoor) -> io::Result<()> {
        let mut set = PollSet::new();
        loop {
            let ends = (self.parent.iter().map(Conn::watched))
                .chain(self.shards.iter().map(|l| (l.raw_fd(), l.ready_now())));
            wait_for_input(&mut set, door, ends)?;
            while let Some(a) = door.try_accept(HANDSHAKE_TIMEOUT) {
                self.admit(a);
            }
            if let Some(mut c) = self.parent.take() {
                match self.take_from(&mut c) {
                    Ok(true) => return Ok(()),
                    Ok(false) => self.parent = Some(c),
                    Err(_) => {}
                }
            }
            self.take_acks();
            self.forward();
            self.settle();
            self.answer_parent();
        }
    }

    /// Takes a connection from the parent (the only peer that dials a
    /// proxy node).
    fn admit(&mut self, a: Admitted) {
        let (hello, conn) = Conn::admitted(a);
        if hello.channel == Channel::Data {
            self.inbox.reconnected(hello.fresh);
            self.reported = [0; 4];
            self.parent = Some(conn);
        }
    }

    /// Takes every frame the parent has already sent; `Ok(true)` on
    /// `Shutdown`.
    fn take_from(&mut self, c: &mut Conn) -> io::Result<bool> {
        while let Some(f) = c.t.try_recv()? {
            match f.kind {
                FrameKind::Data => self.inbox.accept(f.payload, c)?,
                FrameKind::Route => {
                    let (s, addr) = decode_route(&f.payload)?;
                    let s = s as usize;
                    if s >= self.shards.len() {
                        return Err(invalid(format!("route to unknown shard slot {s}")));
                    }
                    // The old link goes with whatever it had not had
                    // acknowledged: the epoch ledger accounts for it.
                    self.shards[s] = self.dial(s, addr);
                }
                FrameKind::Shutdown => return Ok(true),
                _ => {}
            }
        }
        Ok(false)
    }

    /// Takes what the shard children sent back: acks, which trim each
    /// link's resend window, and rejections, which it counts.
    fn take_acks(&mut self) {
        for (link, down) in self.shards.iter_mut().zip(&mut self.down) {
            while !*down {
                match link.try_recv() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => *down = true,
                }
            }
        }
    }

    /// Sends every reassembled batch, as it arrived, to its shard slot
    /// (`partition % shards` — the `"aggregator"` group's rank rule,
    /// so all of a MID's shares meet on one shard); the link rewrites
    /// its leading `seq`. A batch for a slot whose link is down this
    /// round is dropped; the epoch ledger accounts for it.
    fn forward(&mut self) {
        for (slot, payload) in self.inbox.deliverable.drain(..) {
            if !self.down[slot] {
                let frame = Frame::new(FrameKind::Data, payload);
                self.down[slot] = self.shards[slot].send(frame).is_err();
            }
        }
    }

    /// Replays stalled resend windows and flushes every shard link.
    /// Ends the round's use of the links: one that went down in it is
    /// dialed again in the next.
    fn settle(&mut self) {
        for (link, down) in self.shards.iter_mut().zip(&mut self.down) {
            if !*down {
                let _ = link.maybe_resend().and_then(|()| link.flush());
            }
            *down = false;
        }
    }

    /// Tells the parent what the shard links' counters did, acks what
    /// arrived in order and flushes: nothing encoded this round sleeps
    /// in a buffer.
    fn answer_parent(&mut self) {
        let Some(c) = self.parent.as_mut() else {
            return;
        };
        let counts = self.link_stats.counts();
        let mut sent = Ok(());
        if counts != self.reported {
            sent =
                c.t.send(&Frame::new(FrameKind::LinkStats, encode_link_stats(counts)));
        }
        let sent = sent
            .and_then(|()| self.inbox.ack(c.t.as_mut()))
            .and_then(|()| c.t.flush());
        match sent {
            Ok(()) => self.reported = counts,
            Err(_) => self.parent = None,
        }
    }
}

/// Child runtime for one aggregator shard: the same join, decode and
/// windowing as an in-process shard thread, in a detached
/// [`LocalShard`] that takes each share straight off its proxy's data
/// link; a data link from every proxy child; and the parent's control
/// connection (`Ctrl` in; `CtrlReply` and `Progress` out).
struct ShardNode {
    shard: LocalShard<()>,
    /// Per proxy: its data link's inbox and its connection.
    inboxes: Vec<Inbox>,
    proxies: Vec<Option<Conn>>,
    parent: Option<Conn>,
}

impl ShardNode {
    fn new(opts: &NodeOpts) -> ShardNode {
        ShardNode {
            shard: LocalShard::detached(opts.proxies, opts.confidence),
            inboxes: (0..opts.proxies)
                .map(|p| Inbox::new(opts.partitions, p as u8, 1))
                .collect(),
            proxies: (0..opts.proxies).map(|_| None).collect(),
            parent: None,
        }
    }

    fn run(mut self, door: &FrontDoor) -> io::Result<()> {
        let mut set = PollSet::new();
        loop {
            let conns = self.parent.iter().chain(self.proxies.iter().flatten());
            wait_for_input(&mut set, door, conns.map(Conn::watched))?;
            while let Some(a) = door.try_accept(HANDSHAKE_TIMEOUT) {
                self.admit(a);
            }
            // Shares first: a command acts on every share received
            // ahead of it.
            for p in 0..self.proxies.len() {
                if self.take_data(p).is_err() {
                    self.proxies[p] = None;
                }
            }
            if let Some(mut c) = self.parent.take() {
                match self.take_from(&mut c) {
                    Ok(true) => return Ok(()),
                    Ok(false) => self.parent = Some(c),
                    Err(_) => {}
                }
            }
            self.pump();
            // Progress, the `Closed` reply and acks all leave before
            // the next wait.
            if let Some(mut c) = self.parent.take() {
                if self.report(&mut c).and_then(|()| c.t.flush()).is_ok() {
                    self.parent = Some(c);
                }
            }
            for (slot, inbox) in self.proxies.iter_mut().zip(&mut self.inboxes) {
                let Some(c) = slot else { continue };
                if inbox.ack(c.t.as_mut()).and_then(|()| c.t.flush()).is_err() {
                    *slot = None;
                }
            }
        }
    }

    /// Takes the parent's control connection, or a proxy's data link,
    /// whose records it joins as that proxy's shares.
    fn admit(&mut self, a: Admitted) {
        let (hello, conn) = Conn::admitted(a);
        match hello.channel {
            Channel::Ctrl => self.parent = Some(conn),
            Channel::Data => {
                let p = hello.index as usize;
                if let Some(slot) = self.proxies.get_mut(p) {
                    self.inboxes[p].reconnected(hello.fresh);
                    *slot = Some(conn);
                }
            }
        }
    }

    /// Takes every data frame proxy `p` has already sent.
    fn take_data(&mut self, p: usize) -> io::Result<()> {
        let Some(c) = self.proxies[p].as_mut() else {
            return Ok(());
        };
        while let Some(f) = c.t.try_recv()? {
            if f.kind == FrameKind::Data {
                self.inboxes[p].accept(f.payload, c)?;
            }
        }
        Ok(())
    }

    /// Takes every frame the parent has already sent; `Ok(true)` on
    /// `Shutdown`.
    fn take_from(&mut self, c: &mut Conn) -> io::Result<bool> {
        while let Some(f) = c.t.try_recv()? {
            match f.kind {
                FrameKind::Ctrl => self.on_ctrl(&f.payload, c)?,
                FrameKind::Shutdown => return Ok(true),
                _ => {}
            }
        }
        Ok(false)
    }

    /// Joins every reassembled share as its proxy's, in the order the
    /// link delivered them.
    fn pump(&mut self) {
        for (p, inbox) in self.inboxes.iter_mut().enumerate() {
            for (_, payload) in inbox.deliverable.drain(..) {
                let walked = walk_data_batch(&payload, |r| {
                    self.shard.offer(p, r);
                    Ok(())
                });
                debug_assert!(walked.is_ok(), "the inbox walked this batch");
            }
        }
    }

    /// Queues a `Progress` frame for every epoch whose tally moved.
    /// Without a parent connection the tally keeps them.
    fn report(&mut self, c: &mut Conn) -> io::Result<()> {
        let mut sent = Ok(());
        self.shard.publish(|epoch, delta| {
            if sent.is_ok() {
                let progress = encode_progress(epoch.0, delta);
                sent = c.t.send(&Frame::new(FrameKind::Progress, progress));
            }
        });
        sent
    }

    fn on_ctrl(&mut self, payload: &[u8], c: &mut Conn) -> io::Result<()> {
        let cmd =
            ShardCmd::decode(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        // A command acts on every share received ahead of it, and its
        // progress leaves first, so the parent's ledger never runs
        // behind a close.
        self.pump();
        self.report(c)?;
        let mut reply = self.shard.handle(cmd);
        let sent = c.t.send(&Frame::new(FrameKind::CtrlReply, reply.encode()));
        // The windows went out as bytes: their estimators go home to
        // the open-window pool.
        if let ShardReply::Closed { windows, .. } = reply {
            for w in windows {
                self.shard.release(w.estimator);
            }
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::tests::{
        sample_close, sample_closed, sample_health, sample_query, sample_register,
    };
    use privapprox_cluster::wire::decode_ack;
    use privapprox_cluster::{decode_data_batch, ChannelTransport};
    use std::sync::mpsc;

    // What the node reads off and writes onto its socket — the `Ctrl`
    // and `CtrlReply` payloads — reconstructs bit for bit.

    #[test]
    fn register_roundtrip_is_exact() {
        let sent = sample_register();
        let (
            ShardCmd::Register {
                query,
                params,
                population,
                ..
            },
            q,
        ) = (ShardCmd::decode(&sent.encode()).unwrap(), sample_query())
        else {
            panic!("wrong variant");
        };
        // All four bucket rules, an infinite bound included.
        assert_eq!(*query, q);
        assert_eq!(
            [params.s, params.p, params.q].map(f64::to_bits),
            [0.6f64, 0.85, 0.3].map(f64::to_bits)
        );
        assert_eq!(population, 12_345);
    }

    #[test]
    fn finish_and_probe_roundtrip() {
        let ShardCmd::Close(c) = ShardCmd::decode(&sample_close().encode()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!((c.epoch.0, c.watermark.0), (4_000, 6_000));
        assert!(matches!(
            ShardCmd::decode(&ShardCmd::Probe.encode()).unwrap(),
            ShardCmd::Probe
        ));
        assert!(matches!(
            ShardReply::decode(&ShardReply::Registered.encode()).unwrap(),
            ShardReply::Registered
        ));
    }

    #[test]
    fn closed_reply_reconstructs_estimators_bit_for_bit() {
        // The widest reply the benchmark's workloads produce: 10⁴
        // buckets per window.
        let mut sent = sample_closed(3, 10_000);
        let ShardReply::Closed {
            epoch,
            decoded,
            windows,
            busy,
        } = ShardReply::decode(&sent.encode()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(
            (epoch.0, decoded, busy),
            (7_000, 200, Duration::from_nanos(1_234))
        );
        let ShardReply::Closed {
            windows: reference, ..
        } = &mut sent
        else {
            unreachable!();
        };
        assert_eq!(windows.len(), reference.len());
        for (mut got, want) in windows.into_iter().zip(reference) {
            assert_eq!((got.query, got.window), (want.query, want.window));
            let (got, want) = (got.estimator.raw_parts(), want.estimator.raw_parts());
            assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (want.0.to_bits(), want.1.to_bits())
            );
            assert_eq!(
                (got.2, got.3),
                (want.2, want.3),
                "counts drifted over the wire"
            );
        }
    }

    #[test]
    fn health_roundtrip_and_corrupt_payloads() {
        let ShardReply::Health {
            quad,
            dead_lettered,
            late_answers,
            busy,
        } = ShardReply::decode(&sample_health().encode()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(quad, (1, 2, 3, 4));
        assert_eq!((dead_lettered, late_answers), (5, 6));
        assert_eq!(busy, Duration::from_nanos(7));
        // Empty, unknown tag, trailing bytes (the byte-level sweep is
        // in `control::tests`).
        assert!(ShardReply::decode(b"").is_err());
        assert!(ShardReply::decode(&[9]).is_err());
        assert!(ShardCmd::decode(&[9]).is_err());
        assert!(ShardCmd::decode(&[3, 0]).is_err());
    }

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn node_opts_parse() {
        let opts = NodeOpts::parse(&args(&[
            "shard",
            "--index",
            "2",
            "--partitions",
            "8",
            "--proxies",
            "3",
            "--confidence-bits",
            &0.99f64.to_bits().to_string(),
        ]))
        .unwrap();
        assert!(opts.role == NodeRole::Shard);
        assert_eq!(opts.index, 2);
        assert_eq!(opts.partitions, 8);
        assert_eq!(opts.proxies, 3);
        assert_eq!(opts.confidence.to_bits(), 0.99f64.to_bits());
        assert!(NodeOpts::parse(&["referee".to_string()]).is_err());
        // The child has no fault hooks.
        assert!(NodeOpts::parse(&["shard".into(), "--fuse".into(), "1".into()]).is_err());
        // A proxy is told every shard's address, in slot order.
        let proxy = NodeOpts::parse(&args(&[
            "proxy",
            "--shards",
            "127.0.0.1:7001,127.0.0.1:7002",
            "--resend-after-us",
            "2000000",
        ]))
        .unwrap();
        assert_eq!(proxy.shards.len(), 2);
        assert_eq!(proxy.shards[1].port(), 7002);
        assert_eq!(proxy.resend_after, Some(Duration::from_secs(2)));
        assert!(
            NodeOpts::parse(&args(&["proxy"])).is_err(),
            "a proxy needs shards"
        );
        assert!(NodeOpts::parse(&args(&["proxy", "--shards", "nowhere"])).is_err());
    }

    /// The links a child dials fault exactly as the parent planned.
    #[test]
    fn fault_plan_crosses_the_command_line_exactly() {
        let shaped = Link {
            latency_us: 250,
            bytes_per_us: 12.5,
        };
        for link in [None, Some(shaped)] {
            let plan = FaultPlan {
                seed: 0xC4A05,
                drop: 0.3,
                duplicate: 0.25,
                delay: 0.1,
                reorder: 0.2,
                cut_after: 4,
                data_only: false,
                link,
                ..FaultPlan::default()
            };
            assert_eq!(parse_fault_arg(&fault_arg(&plan)), Some(plan));
        }
        assert_eq!(parse_fault_arg("1:2:3"), None);
        assert_eq!(parse_fault_arg("1:x:0:0:0:0:1"), None);
    }

    /// A connection to a node whose far end the test holds.
    fn channel_conn() -> (ChannelTransport, Conn) {
        let (peer, node_end) = ChannelTransport::pair(64);
        let conn = Conn {
            t: Box::new(node_end),
            bucket: TokenBucket::unlimited(),
            max_in_flight: 64,
            _slot: None,
        };
        (peer, conn)
    }

    /// One share record as a data frame with sequence number `seq`.
    fn share(seq: u64, stream: u8, partition: u32) -> Frame {
        batch(seq, stream, &[partition])
    }

    /// A data frame with sequence number `seq` holding one share record
    /// per entry of `partitions`.
    fn batch(seq: u64, stream: u8, partitions: &[u32]) -> Frame {
        let msgs: Vec<DataMsg> = (partitions.iter().enumerate())
            .map(|(i, &partition)| DataMsg {
                seq,
                stream,
                partition,
                timestamp: 1_000 + i as u64,
                key: Some(vec![7u8; 16].into()),
                value: vec![i as u8; 8].into(),
            })
            .collect();
        Frame::new(FrameKind::Data, encode_data_batch(&msgs))
    }

    /// A proxy node with `flags`, linked to shard slots at `shards`.
    fn proxy_node(flags: &[&str], shards: &[SocketAddr]) -> ProxyNode {
        let shards: Vec<String> = shards.iter().map(SocketAddr::to_string).collect();
        let shards = shards.join(",");
        let mut words = vec!["proxy", "--shards", &shards];
        words.extend_from_slice(flags);
        ProxyNode::new(&NodeOpts::parse(&args(&words)).unwrap())
    }

    /// A stand-in shard child: a front door under `policy` whose
    /// serving loop hands over the first `n` connections it admits, in
    /// order, and bounces every knock in between.
    fn fake_shard(
        policy: AdmissionPolicy,
        n: usize,
    ) -> (SocketAddr, mpsc::Receiver<Admitted>, thread::JoinHandle<()>) {
        let door = FrontDoor::bind(policy).unwrap();
        let addr = door.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        let serving = thread::spawn(move || {
            let mut set = PollSet::new();
            for _ in 0..n {
                let admitted = loop {
                    if let Some(a) = door.try_accept(HANDSHAKE_TIMEOUT) {
                        break a;
                    }
                    wait_for_input(&mut set, &door, std::iter::empty()).unwrap();
                };
                tx.send(admitted).unwrap();
            }
        });
        (addr, rx, serving)
    }

    /// The first frame on shard slot `slot`'s link: a proxy node dials
    /// its links in slot order, so the fake shard admits them so.
    fn first_frame(admitted: &mpsc::Receiver<Admitted>, slot: usize) -> Frame {
        let mut links = Vec::new();
        for _ in 0..=slot {
            let link = admitted.recv_timeout(Duration::from_secs(5));
            links.push(link.expect("the proxy node dialed the shard"));
        }
        let mut link = links.pop().unwrap();
        assert_eq!(link.hello.channel, Channel::Data);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match link.transport.recv().unwrap() {
                Some(f) => break f,
                None => assert!(Instant::now() < deadline, "no share arrived"),
            }
        }
    }

    /// The partitions of a data frame's records.
    fn partitions(frame: &Frame) -> Vec<u32> {
        let mut msgs = Vec::new();
        decode_data_batch(&frame.payload, &mut msgs).unwrap();
        msgs.iter().map(|m| m.partition).collect()
    }

    /// One round of `ProxyNode::run` over what the parent sent on
    /// `conn`: take it, relay it, ack it. Returns the parent's ack.
    fn relay_round(node: &mut ProxyNode, parent: &mut ChannelTransport, mut conn: Conn) -> u64 {
        assert!(!node.take_from(&mut conn).unwrap());
        node.parent = Some(conn);
        node.take_acks();
        node.forward();
        node.settle();
        node.answer_parent();
        loop {
            let f = parent.try_recv().unwrap().expect("an ack");
            if f.kind == FrameKind::DataAck {
                break decode_ack(&f.payload).unwrap();
            }
        }
    }

    /// A proxy node's parent link: a batch naming a partition beyond
    /// `--partitions` is refused whole with a typed error, and the node
    /// relays the next well-formed batch on the re-dialed connection
    /// and acks it.
    #[test]
    fn proxy_node_refuses_an_out_of_range_partition_and_keeps_serving() {
        let (addr, admitted, shard) = fake_shard(AdmissionPolicy::default(), 1);
        let mut node = proxy_node(&["--partitions", "2"], &[addr]);
        let (mut parent, mut conn) = channel_conn();
        parent.send(&share(1, 0, 99)).unwrap();
        let refused = node.take_from(&mut conn).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        assert!(node.inbox.deliverable.is_empty());
        // The parent re-dials and its resend window goes again, well
        // formed this time.
        let (mut parent, conn) = channel_conn();
        node.inbox.reconnected(false);
        parent.send(&share(1, 0, 1)).unwrap();
        assert_eq!(relay_round(&mut node, &mut parent, conn), 1);
        assert_eq!(
            partitions(&first_frame(&admitted, 0)),
            [1],
            "the share was relayed"
        );
        shard.join().unwrap();
    }

    /// A proxy node's link to a shard that lives but refuses it for
    /// longer than the retry budget — here a door bouncing every knock
    /// while another peer holds its one connection slot — gives up for
    /// that round and is dialed again the next, instead of dropping
    /// the slot's shares until a route change that never comes.
    #[test]
    fn proxy_node_redials_a_live_shard_after_giving_up() {
        let policy = AdmissionPolicy {
            max_connections: 1,
            ..AdmissionPolicy::default()
        };
        let (addr, admitted, shard) = fake_shard(policy, 2);
        let mut holder = TcpTransport::connect(addr, CONNECT_TIMEOUT, LINK_READ_POLL).unwrap();
        let hello = Hello {
            channel: Channel::Ctrl,
            index: 0,
            fresh: true,
        };
        shake_hands(&mut holder, hello, HANDSHAKE_TIMEOUT).unwrap();
        let held = admitted.recv().unwrap();

        let mut node = proxy_node(&["--partitions", "1"], &[addr]);
        let (mut parent, conn) = channel_conn();
        parent.send(&share(1, 0, 0)).unwrap();
        assert_eq!(relay_round(&mut node, &mut parent, conn), 1);
        assert_eq!(node.link_stats.gave_up.load(Ordering::Relaxed), 1);

        // The slot frees up; the next round reaches the shard.
        drop((held, holder));
        let conn = node.parent.take().expect("the parent's connection");
        parent.send(&share(2, 0, 0)).unwrap();
        assert_eq!(relay_round(&mut node, &mut parent, conn), 2);
        let frame = first_frame(&admitted, 0);
        assert_eq!(partitions(&frame).len(), 1, "the second round's share");
        shard.join().unwrap();
    }

    /// What the parent shipped reaches the shard of its slot as it
    /// was sent, past the sequence number the link rewrites: the node
    /// reads a batch's framing but never re-encodes it.
    #[test]
    fn proxy_node_relays_the_parents_frame_unchanged() {
        let (addr, admitted, shard) = fake_shard(AdmissionPolicy::default(), 2);
        let mut node = proxy_node(&["--index", "1", "--partitions", "4"], &[addr, addr]);
        let sent = batch(1, 1, &[3, 1, 3]);
        let (mut parent, conn) = channel_conn();
        parent.send(&sent).unwrap();
        assert_eq!(relay_round(&mut node, &mut parent, conn), 1);
        let got = first_frame(&admitted, 1);
        assert_eq!(
            got.payload[..8],
            1u64.to_le_bytes(),
            "the link's own sequence"
        );
        assert_eq!(got.payload[8..], sent.payload[8..]);
        shard.join().unwrap();
    }

    /// A batch the node cannot pass on whole — records for two shard
    /// slots, or a record naming another proxy's stream — is refused
    /// as `InvalidData`; the next well-formed batch is relayed and
    /// acked.
    #[test]
    fn proxy_node_refuses_a_batch_spanning_shard_slots_or_naming_another_proxy() {
        let (addr, admitted, shard) = fake_shard(AdmissionPolicy::default(), 2);
        let mut node = proxy_node(&["--index", "1", "--partitions", "4"], &[addr, addr]);
        for bad in [batch(1, 1, &[0, 1]), batch(1, 0, &[2])] {
            let (mut parent, mut conn) = channel_conn();
            node.inbox.reconnected(true);
            parent.send(&bad).unwrap();
            let refused = node.take_from(&mut conn).unwrap_err();
            assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
            assert!(node.inbox.deliverable.is_empty());
        }
        let (mut parent, conn) = channel_conn();
        node.inbox.reconnected(false);
        parent.send(&batch(1, 1, &[0, 2])).unwrap();
        assert_eq!(relay_round(&mut node, &mut parent, conn), 1);
        assert_eq!(partitions(&first_frame(&admitted, 0)), [0, 2]);
        shard.join().unwrap();
    }

    /// A shard node's data link from a proxy: an out-of-range
    /// partition, or a record claiming another proxy's stream than the
    /// link's `Hello` named, is refused whole; the next well-formed
    /// batch is acked.
    #[test]
    fn shard_node_refuses_misfiled_records_and_keeps_serving() {
        let mut node = ShardNode::new(
            &NodeOpts::parse(&args(&["shard", "--partitions", "2", "--proxies", "2"])).unwrap(),
        );
        for bad in [share(1, 1, 2), share(1, 0, 0)] {
            let (mut proxy, conn) = channel_conn();
            node.proxies[1] = Some(conn);
            node.inboxes[1].reconnected(true);
            proxy.send(&bad).unwrap();
            let refused = node.take_data(1).unwrap_err();
            assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        }
        let (mut proxy, conn) = channel_conn();
        node.proxies[1] = Some(conn);
        node.inboxes[1].reconnected(false);
        proxy.send(&share(1, 1, 1)).unwrap();
        node.take_data(1).unwrap();
        node.pump();
        let c = node.proxies[1].as_mut().unwrap();
        node.inboxes[1].ack(c.t.as_mut()).unwrap();
        let ack = proxy.try_recv().unwrap().expect("an ack");
        assert_eq!(decode_ack(&ack.payload).unwrap(), 1);
    }

    /// A shard node joins shares straight off its links, with no
    /// broker to quarantine them on: a well-framed share whose key is
    /// not a wire key passes the link's checks, and the shard counts
    /// it as undecodable and dead-lettered.
    #[test]
    fn shard_node_counts_poisoned_shares_without_a_broker() {
        let mut node = ShardNode::new(
            &NodeOpts::parse(&args(&["shard", "--partitions", "2", "--proxies", "2"])).unwrap(),
        );
        let (mut proxy, conn) = channel_conn();
        node.proxies[0] = Some(conn);
        let poisoned = DataMsg {
            seq: 1,
            stream: 0,
            partition: 1,
            timestamp: 1_000,
            key: Some(vec![7u8; 23].into()),
            value: vec![0xAB; 8].into(),
        };
        let frame = Frame::new(FrameKind::Data, encode_data_batch(&[poisoned]));
        proxy.send(&frame).unwrap();
        node.take_data(0).unwrap();
        node.pump();
        let (mut parent, mut conn) = channel_conn();
        node.on_ctrl(&ShardCmd::Probe.encode(), &mut conn).unwrap();
        let reply = parent.try_recv().unwrap().expect("a reply");
        assert_eq!(reply.kind, FrameKind::CtrlReply);
        let ShardReply::Health {
            quad: (undecodable, ..),
            dead_lettered,
            ..
        } = ShardReply::decode(&reply.payload).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!((undecodable, dead_lettered), (1, 1));
    }
}
