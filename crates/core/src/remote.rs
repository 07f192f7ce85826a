//! Multi-process deployment: the `privapprox-node` child runtime and
//! the parent-side plumbing that connects it to
//! [`ShardedSystem`](crate::deploy::ShardedSystem) over loopback TCP.
//!
//! The in-process deployment runs proxies and aggregator shards as
//! supervised threads against one shared broker. This module lets the
//! *same* control flow drive them as spawned child processes instead:
//!
//! * each proxy / shard becomes a `privapprox-node` process with its
//!   own private broker, reached through one multiplexed framed
//!   connection (`crates/cluster` wire format, supervised by
//!   [`SupervisedLink`]);
//! * the parent keeps a thin *bridge thread* per child that looks
//!   exactly like the in-process `ProxyHandle` / `ShardHandle`
//!   worker threads, so respawn, epoch accounting and health roll-up
//!   are shared between both transports;
//! * a child's private topics are *trimmed* — unbounded, since the
//!   one thread that fills them also drains them, but dropping what
//!   that thread has consumed — so a child's memory follows its
//!   backlog, not its lifetime;
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
//! * a **node child** has one source, its socket. Its `serve` loop
//!   waits for the first frame of a burst ([`Transport::recv`], a
//!   `poll(2)` that returns the moment bytes arrive), takes only what
//!   is already there ([`Transport::try_recv`]), acts — feed, relay or
//!   decode, ack — and **flushes before it waits again**, so an epoch
//!   is relayed as it arrives and no reply it has encoded (the
//!   `Closed` reply included) sleeps in a buffer;
//! * a **parent bridge** has three: its child's socket, the broker
//!   topics it consumes, and (shards) the main thread's command
//!   queue. It reads a wake token, checks all three, flushes, and
//!   parks in one `poll(2)` over the socket *and* a self-pipe that its
//!   consumer's event count rings — on a record landing on a consumed
//!   topic, `wake_shards` after a queued command, a sibling's close
//!   kick, the stop flag's wake — only while the bridge is parked;
//! * a blocked **write** keeps receiving, so parent and child can both
//!   be mid-burst with more to say than the socket buffers hold.
//!
//! `LINK_READ_POLL` is what is left of the timers: a watchdog tick
//! for heartbeats, the stop flag and `maybe_resend`.
//!
//! Failure model: a dead child shows up as a dead link; when the
//! link's retry budget is exhausted the bridge thread panics with the
//! child's role attached, which lands in the existing crash log /
//! respawn machinery. Share records a dead child held are a *sampling
//! loss* — the epoch-deadline ledger closes the affected epochs
//! partially, exactly like a shard-thread panic in-process.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use privapprox_cluster::frontdoor::shake_hands;
use privapprox_cluster::wire::{encode_ack, encode_progress, Channel};
use privapprox_cluster::{
    decode_data_batch, encode_data_batch, AdmissionPolicy, BackoffPolicy, DataMsg, FaultPlan,
    FaultyTransport, Frame, FrameKind, FrontDoor, Hello, LinkStats, Reassembly, RejectReason,
    SupervisedLink, TcpTransport, TokenBucket, Transport, Waker,
};
use privapprox_stream::broker::{Broker, Consumer, Record, TopicWriter};
use privapprox_types::{ProxyId, Timestamp};

use crate::control::{ShardCmd, ShardReply};
use crate::deploy::{ShardedConfig, DEAD_LETTER_TOPIC};
use crate::proxy::{inbound_topic, outbound_topic, Proxy};
use crate::stage::{LocalShard, Role};

/// How long a dial waits for the TCP connect to a child node.
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_millis(1_000);
/// Watchdog tick of every socket wait, on both ends — **not** a
/// delivery mechanism. What normally ends the wait is the awaited
/// event itself: bytes on the socket, or (parent side) the bridge's
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
/// Capacity of a node's local drop-oldest dead-letter quarantine.
const NODE_DEAD_LETTER_CAP: usize = 4_096;

// ---------------------------------------------------------------------------
// Parent side: spawning children and dialing supervised links.
// ---------------------------------------------------------------------------

/// A spawned `privapprox-node` child process.
///
/// Dropping the guard kills the child — a bridge-thread panic (or a
/// clean shutdown) can therefore never strand an orphan listener. The
/// child additionally watches its stdin (held open by this handle)
/// and exits on EOF, which covers the parent being killed outright.
struct NodeChild {
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

/// Spawns a `privapprox-node` child and waits for its `PORT <n>`
/// banner (printed after the front door is bound, so a successful
/// return means the child is dialable).
fn spawn_node(node: &Path, args: &[String]) -> io::Result<NodeChild> {
    let mut child = Command::new(node)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdout = child.stdout.take().expect("piped child stdout");
    let mut line = String::new();
    let read = BufReader::new(stdout).read_line(&mut line);
    let port = match read {
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

/// Builds the supervised, optionally fault-injected link to a child
/// node. Each (re)dial performs the front-door handshake; admission
/// rejection surfaces as `ConnectionRefused` and burns a retry.
fn node_link(
    addr: SocketAddr,
    index: u32,
    faults: FaultPlan,
    stats: Arc<LinkStats>,
    seed: u64,
) -> SupervisedLink {
    let dial = Box::new(move || -> io::Result<Box<dyn Transport>> {
        let tcp = TcpTransport::connect(addr, CONNECT_TIMEOUT, LINK_READ_POLL)?;
        let mut t: Box<dyn Transport> = if faults.is_clean() {
            Box::new(tcp)
        } else {
            Box::new(FaultyTransport::new(tcp, faults))
        };
        shake_hands(
            t.as_mut(),
            Hello {
                channel: Channel::Data,
                index,
            },
            HANDSHAKE_TIMEOUT,
        )?;
        Ok(t)
    });
    SupervisedLink::new(dial, BackoffPolicy::default(), stats, seed)
}

/// Converts a polled broker record into its wire form. Key and value
/// buffers are shared with the record (refcount bumps, no copies) —
/// the only byte copy on the send path is the frame encode itself.
fn record_to_msg(stream: u32, partition: u32, rec: &Record) -> DataMsg {
    DataMsg {
        seq: 0,
        stream: stream as u8,
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

/// The parent's end of one `privapprox-node` child: the child process,
/// the supervised link to it, the broker consumer whose records it is
/// fed, and one park over all of them.
///
/// The consumer's event count is rung by every producer of the topics
/// the bridge consumes and by control wakes
/// ([`Broker::notify_topic`]: `wake_shards`, a sibling's close kick,
/// the stop flag at drop). A bridge asleep in `poll(2)` cannot hear a
/// condvar, so it installs a *bell* on that event count which rings
/// the self-pipe its `poll(2)` also watches — only while the bridge
/// is announced as parked, so a busy bridge costs its notifiers no
/// syscall.
pub(crate) struct Bridge {
    /// `"<role> <index>"`, for the panic message of a dead link.
    label: String,
    consumer: Consumer,
    link: SupervisedLink,
    waker: Waker,
    batch: Vec<(u32, u32, Record)>,
    msgs: Vec<DataMsg>,
    /// Declared last, so dropped last: the bridge owns the child, and
    /// a bridge thread that unwinds (or shuts down) kills the process.
    child: NodeChild,
}

impl Bridge {
    /// Spawns the child for slot `(role, index)` and dials its
    /// supervised link — the one place a child is born, at build and
    /// at respawn alike. `consumer` must already have joined its group
    /// on the calling thread.
    pub(crate) fn open(
        node: &Path,
        faults: FaultPlan,
        role: Role,
        index: usize,
        consumer: Consumer,
        config: &ShardedConfig,
        partitions: usize,
    ) -> io::Result<Bridge> {
        let role = role.name();
        let args = [
            role.to_string(),
            "--index".into(),
            index.to_string(),
            "--partitions".into(),
            partitions.to_string(),
            "--proxies".into(),
            config.proxies.to_string(),
            "--confidence-bits".into(),
            config.confidence.to_bits().to_string(),
        ];
        let child = spawn_node(node, &args)
            .map_err(|e| io::Error::new(e.kind(), format!("spawn {role} node {index}: {e}")))?;
        let mut link = node_link(
            child.addr,
            index as u32,
            faults,
            LinkStats::shared(),
            link_seed(config.seed, role, index),
        );
        if let Some(after) = config.link_resend_after {
            link.set_resend_after(after);
        }
        let waker = Waker::new()?;
        let bell = waker.clone();
        consumer.wake().set_bell(move || bell.ring());
        Ok(Bridge {
            label: format!("{role} {index}"),
            consumer,
            link,
            waker,
            batch: Vec::new(),
            msgs: Vec::new(),
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

    /// The link's supervision counters.
    pub(crate) fn stats(&self) -> Arc<LinkStats> {
        Arc::clone(self.link.stats())
    }

    /// The park token; read **before** checking the bridge's sources.
    pub(crate) fn token(&self) -> u64 {
        self.consumer.wake().token()
    }

    /// Ships every record waiting on the consumed topics to the child,
    /// one data frame per poll batch. Returns whether any moved.
    pub(crate) fn ship(&mut self) -> bool {
        let mut moved = false;
        while self.consumer.poll_into(BATCH_RECORDS, &mut self.batch) > 0 {
            moved = true;
            self.msgs.clear();
            for (stream, partition, rec) in self.batch.drain(..) {
                self.msgs.push(record_to_msg(stream, partition, &rec));
            }
            let frame = Frame::new(FrameKind::Data, encode_data_batch(&self.msgs));
            let sent = self.link.send(frame).and_then(|()| self.link.flush());
            link_ok(&self.label, sent);
        }
        moved
    }

    /// The next frame from the child that is already here; never
    /// waits for one.
    pub(crate) fn try_recv(&mut self) -> Option<Frame> {
        link_ok(&self.label, self.link.try_recv())
    }

    /// Sends one control request and flushes it out.
    pub(crate) fn send_ctrl(&mut self, payload: Vec<u8>) {
        let sent = self
            .link
            .send(Frame::new(FrameKind::Ctrl, payload))
            .and_then(|()| self.link.flush());
        link_ok(&self.label, sent);
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
            .consumer
            .wake()
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
                _ => return Err(bad("unknown flag")),
            }
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

/// Accept loop shared by both roles: serve one parent connection at a
/// time; a link error drops back to `accept` and waits for the
/// parent's supervised re-dial. Returns when `Shutdown` arrives.
fn accept_loop<F>(door: &FrontDoor, mut serve: F) -> io::Result<()>
where
    F: FnMut(&mut dyn Transport, &mut TokenBucket, usize) -> io::Result<bool>,
{
    loop {
        let mut admitted = match door.accept(HANDSHAKE_TIMEOUT) {
            Ok(a) => a,
            // A failed handshake (or a bounced connection) is the
            // peer's problem; keep the door open.
            Err(_) => continue,
        };
        admitted.transport.set_read_timeout(LINK_READ_POLL)?;
        let max_in_flight = admitted.max_in_flight;
        match serve(
            &mut admitted.transport,
            &mut admitted.bucket,
            max_in_flight,
        ) {
            Ok(true) => return Ok(()),
            // Connection lost: the parent will re-dial and replay.
            Ok(false) | Err(_) => continue,
        }
    }
}

/// The receiving half of a node's data link: admission control in
/// front of the resend protocol's reassembly.
struct Inbox {
    reasm: Reassembly<Vec<DataMsg>>,
    /// Highest cumulative ack sent on the current connection.
    acked: u64,
    /// Record batches released in order, waiting to be fed to the
    /// node's local topics.
    deliverable: Vec<Vec<DataMsg>>,
}

impl Inbox {
    fn new() -> Inbox {
        Inbox {
            reasm: Reassembly::new(),
            acked: 0,
            deliverable: Vec::new(),
        }
    }

    /// Takes one inbound data frame: decoded, admitted (or bounced
    /// with a `Reject` — the peer's resend window redelivers it
    /// later) and put back in sequence.
    fn accept(
        &mut self,
        payload: &[u8],
        t: &mut dyn Transport,
        bucket: &mut TokenBucket,
        max_in_flight: usize,
    ) -> io::Result<()> {
        let mut msgs = Vec::new();
        decode_data_batch(payload, &mut msgs)?;
        let seq = msgs[0].seq;
        let refused = if seq > self.reasm.ack_floor() + max_in_flight as u64 {
            Some(RejectReason::Overloaded)
        } else if !bucket.try_take(Instant::now(), msgs.len() as f64) {
            Some(RejectReason::RateLimited)
        } else {
            None
        };
        match refused {
            Some(reason) => t.send(&Frame::reject(reason)),
            None => {
                self.reasm.accept(seq, msgs, &mut self.deliverable);
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

/// Child runtime for one proxy: a private broker with the proxy's
/// in/out topics, the real [`Proxy`] relay in between, and the framed
/// connection to the parent on the outside.
struct ProxyNode {
    _broker: Broker,
    proxy: Proxy,
    in_writer: TopicWriter,
    egress: Consumer,
    inbox: Inbox,
    next_seq: u64,
    batch: Vec<(u32, u32, Record)>,
    out_msgs: Vec<DataMsg>,
}

impl ProxyNode {
    fn new(opts: &NodeOpts) -> ProxyNode {
        let id = ProxyId(opts.index as u16);
        let broker = Broker::new(opts.partitions);
        // This one thread both fills and drains the node's topics, so
        // they must never apply backpressure — and must not keep what
        // it has consumed, or the child grows by an epoch's shares
        // per epoch.
        let (inbound, out_name) = (inbound_topic(id), outbound_topic(id));
        broker.create_topic_trimmed(&inbound, opts.partitions);
        broker.create_topic_trimmed(&out_name, opts.partitions);
        let proxy = Proxy::new(id, &broker);
        let in_writer = broker.writer(&inbound);
        let egress = broker.consumer("node-egress", &[&out_name]);
        ProxyNode {
            _broker: broker,
            proxy,
            in_writer,
            egress,
            inbox: Inbox::new(),
            next_seq: 0,
            batch: Vec::new(),
            out_msgs: Vec::new(),
        }
    }

    fn run(mut self, door: &FrontDoor) -> io::Result<()> {
        accept_loop(door, |t, bucket, max_in_flight| {
            self.serve(t, bucket, max_in_flight)
        })
    }

    fn serve(
        &mut self,
        t: &mut dyn Transport,
        bucket: &mut TokenBucket,
        max_in_flight: usize,
    ) -> io::Result<bool> {
        // Fresh connection: re-announce the cumulative ack floor so
        // the parent can trim frames acked before the reconnect.
        self.inbox.acked = 0;
        loop {
            let mut shutdown = false;
            // 1. Wait for the first frame of a burst (a quiet tick
            //    just goes round), then take only what is already
            //    here: the rest of the epoch is relayed as it arrives,
            //    not after the link has gone quiet.
            let mut next = t.recv()?;
            while let Some(f) = next {
                match f.kind {
                    FrameKind::Data => self.inbox.accept(&f.payload, t, bucket, max_in_flight)?,
                    FrameKind::Shutdown => {
                        shutdown = true;
                        break;
                    }
                    _ => {}
                }
                next = t.try_recv()?;
            }
            // 2. Feed reassembled shares into the local inbound topic.
            for batch in self.inbox.deliverable.drain(..) {
                for m in batch {
                    self.in_writer.append_quiet(
                        m.partition as usize,
                        m.key,
                        m.value,
                        Timestamp(m.timestamp),
                    );
                }
            }
            // 3. Relay (partition-preserving, same code as in-process).
            self.proxy.pump();
            // 4. Ship relayed shares back to the parent.
            loop {
                let n = self.egress.poll_into(BATCH_RECORDS, &mut self.batch);
                if n == 0 {
                    break;
                }
                self.out_msgs.clear();
                for (stream, partition, rec) in self.batch.drain(..) {
                    self.out_msgs.push(record_to_msg(stream, partition, &rec));
                }
                self.next_seq += 1;
                self.out_msgs[0].seq = self.next_seq;
                t.send(&Frame::new(
                    FrameKind::Data,
                    encode_data_batch(&self.out_msgs),
                ))?;
            }
            // 5. Cumulative ack for everything delivered in order —
            //    and every reply encoded above leaves before the next
            //    wait.
            self.inbox.ack(t)?;
            t.flush()?;
            if shutdown {
                return Ok(true);
            }
        }
    }
}

/// Child runtime for one aggregator shard: a private broker carrying
/// every proxy's outbound topic, the same [`LocalShard`] an
/// in-process shard thread runs as their sole consumer, and the
/// control plane spoken over `Ctrl` / `CtrlReply` frames.
struct ShardNode {
    _broker: Broker,
    shard: LocalShard,
    writers: Vec<TopicWriter>,
    inbox: Inbox,
}

impl ShardNode {
    fn new(opts: &NodeOpts) -> ShardNode {
        let broker = Broker::new(opts.partitions);
        let names: Vec<String> = (0..opts.proxies)
            .map(|p| outbound_topic(ProxyId(p as u16)))
            .collect();
        // Filled and drained by this one thread: trimmed, never
        // bounded (see `ProxyNode::new`).
        for n in &names {
            broker.create_topic_trimmed(n, opts.partitions);
        }
        broker.create_topic_drop_oldest(DEAD_LETTER_TOPIC, opts.partitions, NODE_DEAD_LETTER_CAP);
        let shard = LocalShard::new(&broker, opts.proxies, opts.confidence, None);
        let writers = names.iter().map(|n| broker.writer(n)).collect();
        ShardNode {
            _broker: broker,
            shard,
            writers,
            inbox: Inbox::new(),
        }
    }

    fn run(mut self, door: &FrontDoor) -> io::Result<()> {
        accept_loop(door, |t, bucket, max_in_flight| {
            self.serve(t, bucket, max_in_flight)
        })
    }

    /// Feeds reassembled shares into the local topics, decodes what is
    /// there and queues a `Progress` frame for every epoch whose tally
    /// moved.
    fn pump(&mut self, t: &mut dyn Transport) -> io::Result<()> {
        for batch in self.inbox.deliverable.drain(..) {
            for m in batch {
                if let Some(w) = self.writers.get(m.stream as usize) {
                    w.append_quiet(m.partition as usize, m.key, m.value, Timestamp(m.timestamp));
                }
            }
        }
        self.shard.pump();
        let mut sent = Ok(());
        self.shard.publish(|epoch, delta| {
            if sent.is_ok() {
                sent = t.send(&Frame::new(
                    FrameKind::Progress,
                    encode_progress(epoch.0, delta),
                ));
            }
        });
        sent
    }

    fn on_ctrl(&mut self, payload: &[u8], t: &mut dyn Transport) -> io::Result<()> {
        let cmd = ShardCmd::decode(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        // A command acts on every share received ahead of it, and its
        // progress leaves first, so the parent's ledger never runs
        // behind a close.
        self.pump(t)?;
        let mut reply = self.shard.handle(cmd);
        let sent = t.send(&Frame::new(FrameKind::CtrlReply, reply.encode()));
        // The windows went out as bytes: their estimators go home to
        // the open-window pool.
        if let ShardReply::Closed { windows, .. } = reply {
            for w in windows {
                self.shard.release(w.estimator);
            }
        }
        sent
    }

    fn serve(
        &mut self,
        t: &mut dyn Transport,
        bucket: &mut TokenBucket,
        max_in_flight: usize,
    ) -> io::Result<bool> {
        self.inbox.acked = 0;
        loop {
            let mut shutdown = false;
            // Same shape as the proxy node: wait for the first frame,
            // take what is already here, act, flush, wait again.
            let mut next = t.recv()?;
            while let Some(f) = next {
                match f.kind {
                    FrameKind::Data => self.inbox.accept(&f.payload, t, bucket, max_in_flight)?,
                    FrameKind::Ctrl => self.on_ctrl(&f.payload, t)?,
                    FrameKind::Shutdown => {
                        shutdown = true;
                        break;
                    }
                    _ => {}
                }
                next = t.try_recv()?;
            }
            self.pump(t)?;
            self.inbox.ack(t)?;
            // The `Closed` reply, progress and acks encoded above all
            // leave before the next wait.
            t.flush()?;
            if shutdown {
                return Ok(true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::tests::{
        sample_close, sample_closed, sample_health, sample_query, sample_register,
    };

    // What the node reads off and writes onto its socket — the `Ctrl`
    // and `CtrlReply` payloads — reconstructs bit for bit.

    #[test]
    fn register_roundtrip_is_exact() {
        let sent = sample_register();
        let (ShardCmd::Register { query, params, population, .. }, q) =
            (ShardCmd::decode(&sent.encode()).unwrap(), sample_query())
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
        let ShardReply::Closed { epoch, decoded, windows, busy } =
            ShardReply::decode(&sent.encode()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!((epoch.0, decoded, busy), (7_000, 200, Duration::from_nanos(1_234)));
        let ShardReply::Closed { windows: reference, .. } = &mut sent else {
            unreachable!();
        };
        assert_eq!(windows.len(), reference.len());
        for (mut got, want) in windows.into_iter().zip(reference) {
            assert_eq!((got.query, got.window), (want.query, want.window));
            let (got, want) = (got.estimator.raw_parts(), want.estimator.raw_parts());
            assert_eq!((got.0.to_bits(), got.1.to_bits()), (want.0.to_bits(), want.1.to_bits()));
            assert_eq!((got.2, got.3), (want.2, want.3), "counts drifted over the wire");
        }
    }

    #[test]
    fn health_roundtrip_and_corrupt_payloads() {
        let ShardReply::Health { quad, dead_lettered, late_answers, busy } =
            ShardReply::decode(&sample_health().encode()).unwrap()
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

    #[test]
    fn node_opts_parse() {
        let args: Vec<String> = [
            "shard",
            "--index",
            "2",
            "--partitions",
            "8",
            "--proxies",
            "3",
            "--confidence-bits",
            &0.99f64.to_bits().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = NodeOpts::parse(&args).unwrap();
        assert!(opts.role == NodeRole::Shard);
        assert_eq!(opts.index, 2);
        assert_eq!(opts.partitions, 8);
        assert_eq!(opts.proxies, 3);
        assert_eq!(opts.confidence.to_bits(), 0.99f64.to_bits());
        assert!(NodeOpts::parse(&["referee".to_string()]).is_err());
        // The child has no fault hooks.
        assert!(NodeOpts::parse(&["shard".into(), "--fuse".into(), "1".into()]).is_err());
    }
}
