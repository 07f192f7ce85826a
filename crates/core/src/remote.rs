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
//!   probes) is JSON over the workspace serde shims; floats travel as
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
    SupervisedLink, TcpTransport, TokenBucket, Transport,
};
use privapprox_rr::estimate::BucketEstimator;
use privapprox_stream::broker::{Broker, Consumer, Record, TopicWriter};
use privapprox_types::{
    AnswerSpec, BucketRule, ExecutionParams, ProxyId, Query, QueryId, Timestamp, Window,
    WindowSpec,
};
use serde::Value;

use crate::aggregator::{Aggregator, RawWindow};
use crate::deploy::DEAD_LETTER_TOPIC;
use crate::proxy::{inbound_topic, outbound_topic, Proxy};

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
// Control-plane codec (JSON over the serde shims).
//
// Floats are carried as `f64::to_bits` (`Value::UInt`), so estimates
// reconstruct bit-for-bit on the other side — the equivalence matrix
// pins the cross-process path byte-identical to in-process, and a JSON
// float round-trip (or a NaN) must not be able to break that.
// ---------------------------------------------------------------------------

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad ctrl payload: {what}"))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn vu(x: u64) -> Value {
    Value::UInt(x)
}

fn vf(x: f64) -> Value {
    Value::UInt(x.to_bits())
}

fn vs(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn need<'a>(v: &'a Value, key: &'static str) -> io::Result<&'a Value> {
    v.get(key).ok_or_else(|| corrupt(key))
}

fn need_u64(v: &Value, key: &'static str) -> io::Result<u64> {
    need(v, key)?.as_u64().ok_or_else(|| corrupt(key))
}

fn need_f64(v: &Value, key: &'static str) -> io::Result<f64> {
    Ok(f64::from_bits(need_u64(v, key)?))
}

fn need_str<'a>(v: &'a Value, key: &'static str) -> io::Result<&'a str> {
    need(v, key)?.as_str().ok_or_else(|| corrupt(key))
}

fn need_array<'a>(v: &'a Value, key: &'static str) -> io::Result<&'a [Value]> {
    need(v, key)?.as_array().ok_or_else(|| corrupt(key))
}

pub(crate) fn parse(payload: &[u8]) -> io::Result<Value> {
    let s = std::str::from_utf8(payload).map_err(|_| corrupt("utf8"))?;
    serde_json::from_str(s).map_err(|e| corrupt(&format!("json: {e:?}")))
}

pub(crate) fn render(v: &Value) -> Vec<u8> {
    serde_json::to_string(v).expect("ctrl json render").into_bytes()
}

pub(crate) fn query_to_value(q: &Query) -> Value {
    let rules: Vec<Value> = q
        .answer
        .buckets()
        .iter()
        .map(|r| match r {
            BucketRule::Range { lo, hi } => {
                obj(vec![("t", vs("range")), ("lo", vf(*lo)), ("hi", vf(*hi))])
            }
            BucketRule::Value(x) => obj(vec![("t", vs("value")), ("x", vf(*x))]),
            BucketRule::Text(s) => obj(vec![("t", vs("text")), ("x", vs(s))]),
            BucketRule::Like(s) => obj(vec![("t", vs("like")), ("x", vs(s))]),
        })
        .collect();
    obj(vec![
        ("id", vu(q.id.to_u64())),
        ("sql", vs(&q.sql)),
        ("freq", vu(q.frequency)),
        ("wsize", vu(q.window.size)),
        ("wslide", vu(q.window.slide)),
        ("sig", vu(q.signature)),
        ("answer", Value::Array(rules)),
    ])
}

pub(crate) fn query_from_value(v: &Value) -> io::Result<Query> {
    let mut rules = Vec::new();
    for r in need_array(v, "answer")? {
        rules.push(match need_str(r, "t")? {
            "range" => BucketRule::Range {
                lo: need_f64(r, "lo")?,
                hi: need_f64(r, "hi")?,
            },
            "value" => BucketRule::Value(need_f64(r, "x")?),
            "text" => BucketRule::Text(need_str(r, "x")?.to_string()),
            "like" => BucketRule::Like(need_str(r, "x")?.to_string()),
            _ => return Err(corrupt("rule tag")),
        });
    }
    if rules.is_empty() {
        return Err(corrupt("empty answer spec"));
    }
    Ok(Query {
        id: QueryId::from_u64(need_u64(v, "id")?),
        sql: need_str(v, "sql")?.to_string(),
        answer: AnswerSpec::new(rules),
        frequency: need_u64(v, "freq")?,
        window: WindowSpec {
            size: need_u64(v, "wsize")?,
            slide: need_u64(v, "wslide")?,
        },
        signature: need_u64(v, "sig")?,
    })
}

/// A control request the parent sends to a node.
pub(crate) enum NodeCtrl {
    /// Register a query on the node's aggregator.
    Register {
        /// The query definition.
        query: Box<Query>,
        /// Sampling / randomization parameters.
        params: ExecutionParams,
        /// Population size for scale-up.
        population: u64,
    },
    /// Close an epoch: drain, advance the watermark, report windows.
    Finish {
        /// Epoch tag (epoch-start milliseconds).
        epoch: u64,
        /// Watermark to advance to (exclusive window close bound).
        watermark: u64,
    },
    /// Health probe.
    Probe,
}

/// A control reply a node sends back to the parent.
pub(crate) enum NodeReply {
    /// Query registration acknowledged.
    Registered,
    /// Epoch closed; raw windows reconstructed losslessly.
    Closed {
        /// Which epoch this close answers (sanity check).
        epoch: u64,
        /// Answers this node decoded under the closed epoch's tag.
        decoded: u64,
        /// Cumulative busy time of the node's aggregator loop.
        busy: Duration,
        /// Closed windows with exact estimator state.
        windows: Vec<RawWindow>,
    },
    /// Health counters.
    Health {
        /// `(undecodable, unroutable, duplicates, expired_joins)`.
        quad: (u64, u64, u64, u64),
        /// Records quarantined to the node's dead-letter topic.
        dead_lettered: u64,
        /// Decoded answers dropped behind the watermark.
        late_answers: u64,
        /// Cumulative busy time.
        busy: Duration,
    },
}

pub(crate) fn encode_register(query: &Query, params: ExecutionParams, population: u64) -> Vec<u8> {
    render(&obj(vec![
        ("t", vs("register")),
        ("query", query_to_value(query)),
        ("s", vf(params.s)),
        ("p", vf(params.p)),
        ("q", vf(params.q)),
        ("population", vu(population)),
    ]))
}

pub(crate) fn encode_finish(epoch: u64, watermark: u64) -> Vec<u8> {
    render(&obj(vec![
        ("t", vs("finish")),
        ("epoch", vu(epoch)),
        ("watermark", vu(watermark)),
    ]))
}

pub(crate) fn encode_probe() -> Vec<u8> {
    render(&obj(vec![("t", vs("probe"))]))
}

pub(crate) fn decode_ctrl(payload: &[u8]) -> io::Result<NodeCtrl> {
    let v = parse(payload)?;
    Ok(match need_str(&v, "t")? {
        "register" => NodeCtrl::Register {
            query: Box::new(query_from_value(need(&v, "query")?)?),
            params: ExecutionParams {
                s: need_f64(&v, "s")?,
                p: need_f64(&v, "p")?,
                q: need_f64(&v, "q")?,
            },
            population: need_u64(&v, "population")?,
        },
        "finish" => NodeCtrl::Finish {
            epoch: need_u64(&v, "epoch")?,
            watermark: need_u64(&v, "watermark")?,
        },
        "probe" => NodeCtrl::Probe,
        _ => return Err(corrupt("ctrl tag")),
    })
}

pub(crate) fn encode_registered() -> Vec<u8> {
    render(&obj(vec![("t", vs("registered"))]))
}

/// Serializes a `Closed` reply. Takes the windows by mutable slice
/// because [`BucketEstimator::raw_parts`] folds sketch planes in
/// place before exposing the exact `u64` counts.
pub(crate) fn encode_closed(
    epoch: u64,
    decoded: u64,
    busy: Duration,
    windows: &mut [RawWindow],
) -> Vec<u8> {
    let wins: Vec<Value> = windows
        .iter_mut()
        .map(|w| {
            let (p, q, total, counts) = w.estimator.raw_parts();
            obj(vec![
                ("query", vu(w.query.to_u64())),
                ("start", vu(w.window.start.0)),
                ("end", vu(w.window.end.0)),
                ("p", vf(p)),
                ("q", vf(q)),
                ("total", vu(total)),
                ("counts", Value::Array(counts.iter().map(|c| vu(*c)).collect())),
            ])
        })
        .collect();
    render(&obj(vec![
        ("t", vs("closed")),
        ("epoch", vu(epoch)),
        ("decoded", vu(decoded)),
        ("busy_ns", vu(busy.as_nanos() as u64)),
        ("windows", Value::Array(wins)),
    ]))
}

pub(crate) fn encode_health(
    quad: (u64, u64, u64, u64),
    dead_lettered: u64,
    late_answers: u64,
    busy: Duration,
) -> Vec<u8> {
    render(&obj(vec![
        ("t", vs("health")),
        ("undecodable", vu(quad.0)),
        ("unroutable", vu(quad.1)),
        ("duplicates", vu(quad.2)),
        ("expired_joins", vu(quad.3)),
        ("dead_lettered", vu(dead_lettered)),
        ("late_answers", vu(late_answers)),
        ("busy_ns", vu(busy.as_nanos() as u64)),
    ]))
}

pub(crate) fn decode_reply(payload: &[u8]) -> io::Result<NodeReply> {
    let v = parse(payload)?;
    Ok(match need_str(&v, "t")? {
        "registered" => NodeReply::Registered,
        "closed" => {
            let mut windows = Vec::new();
            for w in need_array(&v, "windows")? {
                let counts: Vec<u64> = need_array(w, "counts")?
                    .iter()
                    .map(|c| c.as_u64().ok_or_else(|| corrupt("counts")))
                    .collect::<io::Result<_>>()?;
                windows.push(RawWindow {
                    query: QueryId::from_u64(need_u64(w, "query")?),
                    window: Window {
                        start: Timestamp(need_u64(w, "start")?),
                        end: Timestamp(need_u64(w, "end")?),
                    },
                    estimator: BucketEstimator::from_raw_parts(
                        need_f64(w, "p")?,
                        need_f64(w, "q")?,
                        need_u64(w, "total")?,
                        &counts,
                    ),
                });
            }
            NodeReply::Closed {
                epoch: need_u64(&v, "epoch")?,
                decoded: need_u64(&v, "decoded")?,
                busy: Duration::from_nanos(need_u64(&v, "busy_ns")?),
                windows,
            }
        }
        "health" => NodeReply::Health {
            quad: (
                need_u64(&v, "undecodable")?,
                need_u64(&v, "unroutable")?,
                need_u64(&v, "duplicates")?,
                need_u64(&v, "expired_joins")?,
            ),
            dead_lettered: need_u64(&v, "dead_lettered")?,
            late_answers: need_u64(&v, "late_answers")?,
            busy: Duration::from_nanos(need_u64(&v, "busy_ns")?),
        },
        _ => return Err(corrupt("reply tag")),
    })
}

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
    addr: SocketAddr,
}

impl NodeChild {
    /// The loopback address the child's front door is listening on.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The child's OS process id.
    pub(crate) fn pid(&self) -> u32 {
        self.child.id()
    }
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
pub(crate) fn spawn_node(node: &Path, args: &[String]) -> io::Result<NodeChild> {
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
pub(crate) fn node_link(
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
pub(crate) fn record_to_msg(stream: u32, partition: u32, rec: &Record) -> DataMsg {
    DataMsg {
        seq: 0,
        stream: stream as u8,
        partition,
        timestamp: rec.timestamp.0,
        key: rec.key.clone(),
        value: Arc::clone(&rec.value),
    }
}

/// Sends `msgs` over `link` as batched data frames ([`BATCH_RECORDS`]
/// records per frame). Returns the number of frames sent.
pub(crate) fn send_batched(link: &mut SupervisedLink, msgs: &[DataMsg]) -> io::Result<u64> {
    let mut frames = 0;
    for chunk in msgs.chunks(BATCH_RECORDS) {
        link.send(Frame::new(FrameKind::Data, encode_data_batch(chunk)))?;
        frames += 1;
    }
    if frames > 0 {
        link.flush()?;
    }
    Ok(frames)
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
    fuse: Option<u64>,
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
            fuse: None,
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
                "--fuse" => opts.fuse = Some(val.parse().map_err(|_| bad("--fuse"))?),
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

/// Bumps the per-epoch decode tally (mirrors the in-process shard
/// loop's tee accounting).
fn bump(counts: &mut Vec<(u64, u64)>, epoch: u64, delta: u64) {
    match counts.iter_mut().find(|(e, _)| *e == epoch) {
        Some((_, n)) => *n += delta,
        None => counts.push((epoch, delta)),
    }
}

/// Queues `Progress` deltas for every epoch whose decode tally moved
/// since the last publication.
fn publish_progress(
    t: &mut dyn Transport,
    counts: &[(u64, u64)],
    published: &mut Vec<(u64, u64)>,
) -> io::Result<()> {
    for &(epoch, n) in counts {
        let prev = published
            .iter_mut()
            .find(|(e, _)| *e == epoch)
            .map(|entry| &mut entry.1);
        match prev {
            Some(p) if *p < n => {
                let delta = n - *p;
                *p = n;
                t.send(&Frame::new(FrameKind::Progress, encode_progress(epoch, delta)))?;
            }
            Some(_) => {}
            None => {
                published.push((epoch, n));
                t.send(&Frame::new(FrameKind::Progress, encode_progress(epoch, n)))?;
            }
        }
    }
    Ok(())
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
/// every proxy's outbound topic, a sole-member [`Aggregator`] over
/// them, and the epoch close protocol spoken over the control frames.
struct ShardNode {
    _broker: Broker,
    agg: Aggregator,
    writers: Vec<TopicWriter>,
    inbox: Inbox,
    counts: Vec<(u64, u64)>,
    published: Vec<(u64, u64)>,
    busy: Duration,
    fuse: Option<u64>,
    raw: Vec<RawWindow>,
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
        let mut agg = Aggregator::new(&broker, opts.proxies, opts.confidence);
        agg.set_dead_letter(broker.writer(DEAD_LETTER_TOPIC));
        let writers = names.iter().map(|n| broker.writer(n)).collect();
        ShardNode {
            _broker: broker,
            agg,
            writers,
            inbox: Inbox::new(),
            counts: Vec::new(),
            published: Vec::new(),
            busy: Duration::ZERO,
            fuse: opts.fuse,
            raw: Vec::new(),
        }
    }

    fn run(mut self, door: &FrontDoor) -> io::Result<()> {
        accept_loop(door, |t, bucket, max_in_flight| {
            self.serve(t, bucket, max_in_flight)
        })
    }

    /// Feeds reassembled shares into the local topics and drains the
    /// aggregator over them, tallying decodes per epoch tag and
    /// burning the injected-fault fuse (a fuse of 0 panics, which
    /// kills the child process — the remote analogue of the
    /// in-process shard fault injection).
    fn pump(&mut self) {
        for batch in self.inbox.deliverable.drain(..) {
            for m in batch {
                if let Some(w) = self.writers.get(m.stream as usize) {
                    w.append_quiet(m.partition as usize, m.key, m.value, Timestamp(m.timestamp));
                }
            }
        }
        let t0 = Instant::now();
        let counts = &mut self.counts;
        let fuse = &mut self.fuse;
        self.agg.pump_with(|_q, ts, _mid, _answer| {
            bump(counts, ts.0, 1);
            if let Some(left) = fuse {
                assert!(*left > 0, "injected shard fault (fuse)");
                *left -= 1;
            }
        });
        self.busy += t0.elapsed();
    }

    fn on_ctrl(&mut self, payload: &[u8], t: &mut dyn Transport) -> io::Result<()> {
        let reply = match decode_ctrl(payload)? {
            NodeCtrl::Register {
                query,
                params,
                population,
            } => {
                self.agg.register_query(&query, params, population);
                encode_registered()
            }
            NodeCtrl::Finish { epoch, watermark } => {
                // Drain every share received ahead of this request,
                // publish the resulting progress (so the parent's
                // ledger never runs behind the close), then cut the
                // windows.
                self.pump();
                publish_progress(t, &self.counts, &mut self.published)?;
                let t0 = Instant::now();
                self.raw.clear();
                self.agg
                    .advance_watermark_raw_into(Timestamp(watermark), &mut self.raw);
                let decoded = self
                    .counts
                    .iter()
                    .find(|(e, _)| *e == epoch)
                    .map(|(_, n)| *n)
                    .unwrap_or(0);
                self.busy += t0.elapsed();
                let reply = encode_closed(epoch, decoded, self.busy, &mut self.raw);
                // Estimators go home to the open-window pool; the
                // retired epoch tallies are dropped.
                for w in self.raw.drain(..) {
                    self.agg.release_estimator(w.estimator);
                }
                self.counts.retain(|(e, _)| *e > epoch);
                self.published.retain(|(e, _)| *e > epoch);
                reply
            }
            NodeCtrl::Probe => {
                self.pump();
                publish_progress(t, &self.counts, &mut self.published)?;
                encode_health(
                    (
                        self.agg.undecodable(),
                        self.agg.unroutable(),
                        self.agg.duplicates(),
                        self.agg.expired_joins(),
                    ),
                    self.agg.dead_lettered(),
                    self.agg.late_events(),
                    self.busy,
                )
            }
        };
        t.send(&Frame::new(FrameKind::CtrlReply, reply))
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
            self.pump();
            publish_progress(t, &self.counts, &mut self.published)?;
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
    use privapprox_types::{AnalystId, QueryBuilder};

    fn sample_query() -> Query {
        QueryBuilder::new(QueryId::new(AnalystId(3), 7), "SELECT speed FROM cars")
            .answer(AnswerSpec::new(vec![
                BucketRule::Value(0.0),
                BucketRule::Range { lo: 0.0, hi: 100.0 },
                BucketRule::Range {
                    lo: 100.0,
                    hi: f64::INFINITY,
                },
                BucketRule::Text("n/a".into()),
                BucketRule::Like("err-%".into()),
            ]))
            .frequency(500)
            .window(2_000, 500)
            .sign_and_build(0xDEAD_BEEF)
    }

    #[test]
    fn register_roundtrip_is_exact() {
        let q = sample_query();
        let params = ExecutionParams {
            s: 0.6,
            p: 0.85,
            q: 0.3,
        };
        let enc = encode_register(&q, params, 12_345);
        match decode_ctrl(&enc).unwrap() {
            NodeCtrl::Register {
                query,
                params: p2,
                population,
            } => {
                assert_eq!(*query, q);
                assert_eq!(p2.s.to_bits(), params.s.to_bits());
                assert_eq!(p2.p.to_bits(), params.p.to_bits());
                assert_eq!(p2.q.to_bits(), params.q.to_bits());
                assert_eq!(population, 12_345);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn finish_and_probe_roundtrip() {
        match decode_ctrl(&encode_finish(4_000, 2_000)).unwrap() {
            NodeCtrl::Finish { epoch, watermark } => {
                assert_eq!((epoch, watermark), (4_000, 2_000));
            }
            _ => panic!("wrong variant"),
        }
        assert!(matches!(
            decode_ctrl(&encode_probe()).unwrap(),
            NodeCtrl::Probe
        ));
    }

    #[test]
    fn closed_reply_reconstructs_estimators_bit_for_bit() {
        use privapprox_types::BitVec;
        let mut est = BucketEstimator::new(5, 0.9, 0.55);
        let mut answer = BitVec::zeros(5);
        for i in 0..200u64 {
            answer.reset(5);
            answer.set((i % 5) as usize, true);
            answer.set(((i * 3) % 5) as usize, true);
            est.push(&answer);
        }
        let mut reference = est.clone();
        let mut windows = vec![RawWindow {
            query: QueryId::new(AnalystId(1), 2),
            window: Window {
                start: Timestamp(1_000),
                end: Timestamp(3_000),
            },
            estimator: est,
        }];
        let enc = encode_closed(7_000, 200, Duration::from_nanos(1_234), &mut windows);
        match decode_reply(&enc).unwrap() {
            NodeReply::Closed {
                epoch,
                decoded,
                busy,
                windows: got,
            } => {
                assert_eq!(epoch, 7_000);
                assert_eq!(decoded, 200);
                assert_eq!(busy, Duration::from_nanos(1_234));
                assert_eq!(got.len(), 1);
                let mut back = got.into_iter().next().unwrap();
                assert_eq!(back.query, QueryId::new(AnalystId(1), 2));
                assert_eq!(back.window.start, Timestamp(1_000));
                for (a, b) in back
                    .estimator
                    .estimates()
                    .iter()
                    .zip(reference.estimates().iter())
                {
                    assert_eq!(a.to_bits(), b.to_bits(), "estimate drifted over the wire");
                }
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn health_roundtrip_and_corrupt_payloads() {
        let enc = encode_health((1, 2, 3, 4), 5, 6, Duration::from_nanos(7));
        match decode_reply(&enc).unwrap() {
            NodeReply::Health {
                quad,
                dead_lettered,
                late_answers,
                busy,
            } => {
                assert_eq!(quad, (1, 2, 3, 4));
                assert_eq!((dead_lettered, late_answers), (5, 6));
                assert_eq!(busy, Duration::from_nanos(7));
            }
            _ => panic!("wrong variant"),
        }
        assert!(decode_reply(b"not json").is_err());
        assert!(decode_reply(b"{\"t\":\"nope\"}").is_err());
        assert!(decode_ctrl(b"{\"t\":\"finish\"}").is_err());
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
            "--fuse",
            "10",
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
        assert_eq!(opts.fuse, Some(10));
        assert!(NodeOpts::parse(&["referee".to_string()]).is_err());
    }
}
