//! The [`Transport`] abstraction: framed, bidirectional, fallible.
//!
//! Three implementations share one contract so the deployment runtime
//! is transport-agnostic:
//!
//! * [`TcpTransport`] — loopback TCP, the real multi-process path
//!   (non-blocking socket, `poll(2)` waits, user-space frame buffer);
//! * [`ChannelTransport`] — in-process mpsc pair: the socket-free
//!   harness unit tests drive node and supervision logic through (no
//!   deployment runs it);
//! * [`FaultyTransport`] — a deterministic fault-injection wrapper
//!   (seeded drop/duplicate/delay/reorder and a connection cut, on
//!   data frames only), driving the network-chaos suite.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::poll::{wait_fd, Waker, READABLE, WRITABLE};
use crate::wire::{frame_header, parse_frame, write_frame, Frame, FrameKind, MAX_FRAME};

/// How long a link may make **no progress** before it is declared
/// dead: a frame that started arriving and then stalled, or a write
/// the peer never drains.
const STALL_BUDGET: Duration = Duration::from_secs(10);

/// Write-coalescing grain: frames collect in user space until this
/// many bytes are pending (or [`Transport::flush`] is called).
const WRITE_BUF: usize = 64 << 10;

/// Least room offered to a socket read.
const READ_CHUNK: usize = 64 << 10;

/// Receive storage kept once the buffer runs empty.
const RBUF_KEEP: usize = 4 << 20;

/// A framed, bidirectional, fallible message link.
///
/// Receiving comes in three strengths so a loop can wait for the
/// *first* frame of a burst, take the rest without waiting, and sleep
/// again only after it has acted and flushed:
///
/// * [`Transport::recv`] waits up to the configured read timeout;
/// * [`Transport::try_recv`] never waits;
/// * [`Transport::wait`] sleeps until a frame may be there **or** a
///   [`Waker`] is rung, for threads with more than one source.
///
/// `Ok(None)` means nothing arrived. Any `Err` means the link is
/// broken and must be re-dialed (see `supervise::SupervisedLink`).
pub trait Transport: Send {
    /// Queues one frame for transmission. Frames may sit in a user
    /// space buffer until [`Transport::flush`]; a caller must flush
    /// before it goes to sleep waiting for an answer.
    fn send(&mut self, frame: &Frame) -> io::Result<()>;

    /// Pushes every queued frame to the peer. While the peer's side
    /// is full this keeps *receiving* (into memory), so two ends that
    /// write at each other cannot deadlock.
    fn flush(&mut self) -> io::Result<()>;

    /// Receives one frame, waiting at most the read timeout for it.
    fn recv(&mut self) -> io::Result<Option<Frame>>;

    /// Receives one frame if one is already here (buffered, or
    /// readable without blocking). Never waits.
    fn try_recv(&mut self) -> io::Result<Option<Frame>>;

    /// Sleeps until [`Transport::try_recv`] may have a frame, `waker`
    /// is rung, or `timeout` passes — whichever comes first. Returns
    /// at once if a frame is already buffered.
    fn wait(&mut self, waker: &Waker, timeout: Duration) -> io::Result<()>;

    /// The socket under this end, for a wait over several links at
    /// once ([`PollSet`](crate::poll::PollSet)); `None` for an
    /// in-memory channel.
    fn raw_fd(&self) -> Option<RawFd>;

    /// Whether a receive would return without waiting on the socket: a
    /// whole frame is already held in user space, where `poll(2)`
    /// cannot see it, or the link is known to be broken. A wait over
    /// several links must not sleep while any of them is ready.
    fn ready_now(&self) -> bool;
}

/// [`Transport`] over a TCP stream (loopback in this deployment).
///
/// The socket is non-blocking; every wait is a `poll(2)`. Received
/// bytes land in a user-space buffer that frames are parsed out of, so
/// a burst costs one `read` rather than three per frame, a partial
/// frame simply stays buffered across quiet receives, and "is a frame
/// already here" needs no syscall.
pub struct TcpTransport {
    stream: TcpStream,
    /// Receive storage (every byte initialised); `rbuf[rpos..rend]`
    /// is received and not yet parsed, `rbuf[rend..]` is room.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    /// When the front of `rbuf` became an incomplete frame.
    partial_since: Option<Instant>,
    /// Queued, not yet written.
    wbuf: Vec<u8>,
    read_timeout: Duration,
}

impl TcpTransport {
    /// Dials `addr` with `connect_timeout`, disables Nagle, and
    /// applies `read_timeout`.
    pub fn connect(
        addr: SocketAddr,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> io::Result<TcpTransport> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        TcpTransport::from_stream(stream, read_timeout)
    }

    /// Wraps an accepted or connected stream.
    pub fn from_stream(stream: TcpStream, read_timeout: Duration) -> io::Result<TcpTransport> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(TcpTransport {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            rend: 0,
            partial_since: None,
            wbuf: Vec::new(),
            read_timeout,
        })
    }

    /// One non-blocking read into the spare room of `rbuf`, first
    /// making room for at least a chunk (or the rest of the frame at
    /// the front, if that is known to be larger). Returns the bytes
    /// read; `0` means the socket had nothing.
    fn fill(&mut self) -> io::Result<usize> {
        let pending = self.rend - self.rpos;
        let want = match self.rbuf[self.rpos..self.rend].first_chunk::<4>() {
            Some(len) => (4 + u32::from_le_bytes(*len) as usize).saturating_sub(pending),
            None => 0,
        }
        .clamp(READ_CHUNK, MAX_FRAME + 6);
        if self.rbuf.len() - self.rend < want {
            self.rbuf.copy_within(self.rpos..self.rend, 0);
            self.rpos = 0;
            self.rend = pending;
            if self.rbuf.len() < pending + want {
                self.rbuf.resize(pending + want, 0);
            }
        }
        let read = loop {
            match self.stream.read(&mut self.rbuf[self.rend..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => break other,
            }
        };
        match read {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed connection",
            )),
            Ok(n) => {
                self.rend += n;
                Ok(n)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Parses the frame at the front of the received bytes, if it is
    /// complete.
    fn take_buffered(&mut self) -> io::Result<Option<Frame>> {
        match parse_frame(&self.rbuf[self.rpos..self.rend])? {
            Some((frame, used)) => {
                self.rpos += used;
                self.partial_since = None;
                if self.rpos == self.rend {
                    self.rpos = 0;
                    self.rend = 0;
                    // Room grown for one huge burst is not kept.
                    self.rbuf.truncate(RBUF_KEEP);
                    self.rbuf.shrink_to(RBUF_KEEP);
                }
                Ok(Some(frame))
            }
            None if self.rpos == self.rend => Ok(None),
            None => {
                // The stream cannot be resynchronized past a frame
                // that never completes.
                let since = *self.partial_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= STALL_BUDGET {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stalled mid-frame",
                    ));
                }
                Ok(None)
            }
        }
    }

    /// Writes all of `data`, sleeping in `poll(2)` while the socket is
    /// full — and receiving into `rbuf` meanwhile, so a peer that is
    /// itself blocked writing to us gets unblocked instead of the two
    /// ends deadlocking. What is absorbed is bounded by what the peer
    /// has to say before it reads again (at most an epoch's frames).
    fn write_all_absorbing(&mut self, mut data: &[u8]) -> io::Result<()> {
        // When the socket last refused bytes with none accepted since.
        let mut full_since: Option<Instant> = None;
        while !data.is_empty() {
            match self.stream.write(data) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    data = &data[n..];
                    full_since = None;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let since = *full_since.get_or_insert_with(Instant::now);
                    let left = STALL_BUDGET.saturating_sub(since.elapsed());
                    if left.is_zero() {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "peer stopped draining the connection",
                        ));
                    }
                    if wait_fd(&self.stream, READABLE | WRITABLE, left)? & READABLE != 0 {
                        self.fill()?;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        if frame.payload.len() < WRITE_BUF {
            write_frame(&mut self.wbuf, frame)?;
            if self.wbuf.len() >= WRITE_BUF {
                self.flush()?;
            }
            return Ok(());
        }
        // A large payload goes out straight from the caller's buffer
        // instead of being copied behind the queued bytes first.
        self.wbuf.extend_from_slice(&frame_header(frame)?);
        self.flush()?;
        self.write_all_absorbing(&frame.payload)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        let mut queued = std::mem::take(&mut self.wbuf);
        let written = self.write_all_absorbing(&queued);
        queued.clear();
        self.wbuf = queued;
        written
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        let deadline = Instant::now() + self.read_timeout;
        loop {
            if let Some(frame) = self.try_recv()? {
                return Ok(Some(frame));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            wait_fd(&self.stream, READABLE, left)?;
        }
    }

    fn try_recv(&mut self) -> io::Result<Option<Frame>> {
        loop {
            if let Some(frame) = self.take_buffered()? {
                return Ok(Some(frame));
            }
            if self.fill()? == 0 {
                return Ok(None);
            }
        }
    }

    fn wait(&mut self, waker: &Waker, timeout: Duration) -> io::Result<()> {
        if self.ready_now() {
            return Ok(());
        }
        waker.wait(Some(&self.stream), timeout)
    }

    fn raw_fd(&self) -> Option<RawFd> {
        Some(self.stream.as_raw_fd())
    }

    fn ready_now(&self) -> bool {
        // Input absorbed during a flush is invisible to poll(2): a
        // whole frame already held ends a wait before it starts.
        let held = &self.rbuf[self.rpos..self.rend];
        held.first_chunk::<4>()
            .is_some_and(|len| held.len() - 4 >= u32::from_le_bytes(*len) as usize)
    }
}

/// [`Transport`] over in-process channels: the socket-free path for
/// unit tests of node and supervision logic. A receive waits at most
/// 10 ms.
pub struct ChannelTransport {
    tx: SyncSender<Frame>,
    rx: Receiver<Frame>,
    read_timeout: Duration,
    /// A frame [`Transport::wait`] pulled off the channel (an mpsc
    /// receiver cannot be peeked); the next receive returns it.
    parsed: Option<Frame>,
    /// The waker this end is asleep on in [`Transport::wait`], if it
    /// is — the peer's sends ring it, standing in for socket
    /// readiness.
    sleeper: Arc<Mutex<Option<Waker>>>,
    /// The peer's `sleeper`.
    peer_sleeper: Arc<Mutex<Option<Waker>>>,
}

impl ChannelTransport {
    /// Builds a connected pair of endpoints with `depth` frames of
    /// buffering per direction.
    pub fn pair(depth: usize) -> (ChannelTransport, ChannelTransport) {
        let (a_tx, b_rx) = mpsc::sync_channel(depth);
        let (b_tx, a_rx) = mpsc::sync_channel(depth);
        let (a_sleeper, b_sleeper) = (Arc::default(), Arc::default());
        let mk = |tx, rx, sleeper: &Arc<_>, peer_sleeper: &Arc<_>| ChannelTransport {
            tx,
            rx,
            read_timeout: Duration::from_millis(10),
            parsed: None,
            sleeper: Arc::clone(sleeper),
            peer_sleeper: Arc::clone(peer_sleeper),
        };
        (
            mk(a_tx, a_rx, &a_sleeper, &b_sleeper),
            mk(b_tx, b_rx, &b_sleeper, &a_sleeper),
        )
    }

    fn disconnected() -> io::Error {
        io::Error::new(io::ErrorKind::UnexpectedEof, "channel peer gone")
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.tx
            .send(frame.clone())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "channel peer gone"))?;
        if let Some(waker) = &*self.peer_sleeper.lock().expect("sleeper slot") {
            waker.ring();
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        if let Some(frame) = self.parsed.take() {
            return Ok(Some(frame));
        }
        match self.rx.recv_timeout(self.read_timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ChannelTransport::disconnected()),
        }
    }

    fn try_recv(&mut self) -> io::Result<Option<Frame>> {
        if let Some(frame) = self.parsed.take() {
            return Ok(Some(frame));
        }
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(ChannelTransport::disconnected()),
        }
    }

    fn wait(&mut self, waker: &Waker, timeout: Duration) -> io::Result<()> {
        // Announce the sleeper first, then look: a frame sent before
        // the announcement is found here, one sent after it rings.
        *self.sleeper.lock().expect("sleeper slot") = Some(waker.clone());
        let slept = match self.try_recv() {
            Ok(None) => waker.wait(None, timeout),
            Ok(frame) => {
                self.parsed = frame;
                Ok(())
            }
            Err(e) => Err(e),
        };
        // Awake again: sends need not ring anybody.
        *self.sleeper.lock().expect("sleeper slot") = None;
        slept
    }

    fn raw_fd(&self) -> Option<RawFd> {
        None
    }

    fn ready_now(&self) -> bool {
        self.parsed.is_some()
    }
}

/// Deterministic fault plan for [`FaultyTransport`].
///
/// Every fault — the cut's count included — touches
/// [`FrameKind::Data`] frames only: every other frame passes clean,
/// so a link that carries no data (a shard child's control link) is
/// never faulted. Faults are driven by a seeded xorshift generator,
/// so a given `(plan, traffic)` pair replays identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; two transports with equal seeds and equal traffic
    /// fault identically.
    pub seed: u64,
    /// Probability a sent frame is silently dropped.
    pub drop: f64,
    /// Probability a sent frame is delivered twice.
    pub duplicate: f64,
    /// Probability a sent frame is delayed by a flat 1 ms.
    pub delay: f64,
    /// Probability a sent frame is held back and swapped with the
    /// next one (adjacent reorder).
    pub reorder: f64,
    /// After this many sent data frames the connection is cut with an
    /// I/O error (a partition: everything until re-dial fails). `0`
    /// disables. Each new connection gets a fresh count, so a
    /// supervised link makes progress between cuts.
    pub cut_after: u64,
    /// Test-only: fault only the links one node dials to another (a
    /// proxy node's link to each shard node), leaving every link the
    /// deploying process dials clean, so the chaos suite can show that
    /// repair on that hop alone is counted. Default `false`: every
    /// link is faulted.
    #[doc(hidden)]
    pub node_links_only: bool,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 1,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            reorder: 0.0,
            cut_after: 0,
            node_links_only: false,
        }
    }
}

impl FaultPlan {
    /// True if every fault is disabled (the wrapper is a no-op).
    pub fn is_clean(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.delay == 0.0
            && self.reorder == 0.0
            && self.cut_after == 0
    }
}

/// Wraps any [`Transport`] with the seeded faults of a [`FaultPlan`].
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    rng: u64,
    /// Data frames sent on this connection (drives `cut_after`).
    sent: u64,
    /// True once the cut fired: all traffic fails until re-dial.
    severed: bool,
    /// Frame held back by a reorder fault, delivered on next send.
    held: Option<Frame>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with `plan`'s faults.
    pub fn new(inner: T, plan: FaultPlan) -> FaultyTransport<T> {
        FaultyTransport {
            inner,
            plan,
            rng: plan.seed | 1,
            sent: 0,
            severed: false,
            held: None,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64* — tiny, seedable, good enough for fault dice.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    fn cut_error(&self) -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            "injected partition: link severed",
        )
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        if self.severed {
            return Err(self.cut_error());
        }
        if frame.kind != FrameKind::Data {
            return self.inner.send(frame);
        }
        self.sent += 1;
        if self.plan.cut_after > 0 && self.sent > self.plan.cut_after {
            self.severed = true;
            return Err(self.cut_error());
        }
        if self.chance(self.plan.drop) {
            return Ok(()); // silently lost; resend path repairs it
        }
        if self.chance(self.plan.delay) {
            std::thread::sleep(Duration::from_millis(1));
        }
        if self.chance(self.plan.reorder) && self.held.is_none() {
            self.held = Some(frame.clone());
            return Ok(());
        }
        self.inner.send(frame)?;
        if self.chance(self.plan.duplicate) {
            self.inner.send(frame)?;
        }
        if let Some(held) = self.held.take() {
            self.inner.send(&held)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.severed {
            return Err(self.cut_error());
        }
        // A reorder hold must not outlive the batch: flush delivers it
        // so the last frame before a quiet period is never stranded.
        if let Some(held) = self.held.take() {
            self.inner.send(&held)?;
        }
        self.inner.flush()
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        if self.severed {
            return Err(self.cut_error());
        }
        self.inner.recv()
    }

    fn try_recv(&mut self) -> io::Result<Option<Frame>> {
        if self.severed {
            return Err(self.cut_error());
        }
        self.inner.try_recv()
    }

    fn wait(&mut self, waker: &Waker, timeout: Duration) -> io::Result<()> {
        if self.severed {
            return Err(self.cut_error());
        }
        self.inner.wait(waker, timeout)
    }

    fn raw_fd(&self) -> Option<RawFd> {
        self.inner.raw_fd()
    }

    fn ready_now(&self) -> bool {
        // A severed link is ready to report its error.
        self.severed || self.inner.ready_now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_data_batch, encode_data_batch, DataMsg};

    fn data_frame(seq: u64) -> Frame {
        let msg = DataMsg {
            seq,
            stream: 0,
            partition: 0,
            timestamp: 0,
            key: None,
            value: vec![seq as u8].into(),
        };
        Frame::new(FrameKind::Data, encode_data_batch(&[msg]))
    }

    /// The sequence number of a one-record data frame.
    fn seq_of(frame: &Frame) -> u64 {
        let mut msgs = Vec::new();
        assert_eq!(decode_data_batch(&frame.payload, &mut msgs).unwrap(), 1);
        msgs[0].seq
    }

    #[test]
    fn channel_pair_roundtrip_and_timeout() {
        let (mut a, mut b) = ChannelTransport::pair(16);
        assert!(b.recv().unwrap().is_none()); // quiet read
        a.send(&data_frame(1)).unwrap();
        a.flush().unwrap();
        let got = b.recv().unwrap().unwrap();
        assert_eq!(got.kind, FrameKind::Data);
        drop(a);
        assert!(b.recv().is_err()); // peer gone is a hard error
    }

    #[test]
    fn tcp_pair_roundtrip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream, Duration::from_millis(50)).unwrap();
            let f = t.recv().unwrap().unwrap();
            t.send(&f).unwrap();
            t.flush().unwrap();
        });
        let mut c =
            TcpTransport::connect(addr, Duration::from_secs(5), Duration::from_secs(5)).unwrap();
        c.send(&data_frame(9)).unwrap();
        c.flush().unwrap();
        let echoed = c.recv().unwrap().unwrap();
        assert_eq!(echoed, data_frame(9));
        join.join().unwrap();
    }

    fn tcp_pair(read_timeout: Duration) -> (TcpTransport, TcpTransport) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let near = TcpTransport::connect(addr, Duration::from_secs(5), read_timeout).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let far = TcpTransport::from_stream(stream, read_timeout).unwrap();
        (near, far)
    }

    /// Generous fixed bounds, not tuned timings: waits are asked for
    /// 10 s and anything event-driven must be back within `PROMPT`.
    const LONG: Duration = Duration::from_secs(10);
    const PROMPT: Duration = Duration::from_millis(100);

    #[test]
    fn try_recv_never_waits_and_a_burst_needs_one_wait() {
        let (mut a, mut b) = tcp_pair(LONG);
        let t0 = Instant::now();
        assert!(b.try_recv().unwrap().is_none());
        assert!(t0.elapsed() < PROMPT, "an empty link answers at once");
        for i in 0..32 {
            a.send(&data_frame(i)).unwrap();
        }
        a.flush().unwrap();
        // One (event-ended) wait for the first frame of the burst…
        let t0 = Instant::now();
        assert_eq!(b.recv().unwrap().unwrap(), data_frame(0));
        assert!(t0.elapsed() < Duration::from_secs(1));
        // …and the other 31 are already here: held in user space, where
        // poll(2) cannot see them, they still end a wait at once.
        let t0 = Instant::now();
        b.wait(&Waker::new().unwrap(), LONG).unwrap();
        for i in 1..32 {
            assert_eq!(b.try_recv().unwrap().unwrap(), data_frame(i));
        }
        assert!(b.try_recv().unwrap().is_none());
        assert!(t0.elapsed() < PROMPT);
    }

    #[test]
    fn wait_ends_on_a_ring_or_on_a_frame_whichever_comes() {
        let (a, b) = ChannelTransport::pair(4);
        let (ta, tb) = tcp_pair(LONG);
        let pairs: [(Box<dyn Transport>, Box<dyn Transport>); 2] =
            [(Box::new(a), Box::new(b)), (Box::new(ta), Box::new(tb))];
        for (kind, (mut near, mut far)) in ["channel", "tcp"].into_iter().zip(pairs) {
            let waker = Waker::new().unwrap();
            // A ring from another thread ends the sleep.
            let (sleeping_tx, sleeping_rx) = mpsc::channel();
            let ringer = {
                let waker = waker.clone();
                std::thread::spawn(move || {
                    sleeping_rx.recv().unwrap();
                    waker.ring();
                })
            };
            let t0 = Instant::now();
            sleeping_tx.send(()).unwrap();
            far.wait(&waker, LONG).unwrap();
            ringer.join().unwrap();
            assert!(t0.elapsed() < Duration::from_secs(1), "{kind}");
            assert!(far.try_recv().unwrap().is_none());
            // So does a frame — and it is there to take afterwards.
            let sender = std::thread::spawn(move || {
                near.send(&data_frame(7)).unwrap();
                near.flush().unwrap();
                near
            });
            let t0 = Instant::now();
            let got = loop {
                far.wait(&waker, LONG).unwrap();
                if let Some(frame) = far.try_recv().unwrap() {
                    break frame;
                }
            };
            assert_eq!(got, data_frame(7));
            assert!(t0.elapsed() < Duration::from_secs(1), "{kind}");
            drop(sender.join().unwrap());
        }
    }

    /// A channel end is rung only while it sleeps: once its wait is
    /// over, the peer's sends leave the waker alone.
    #[test]
    fn channel_sends_ring_only_a_sleeping_peer() {
        let (mut a, mut b) = ChannelTransport::pair(4);
        let waker = Waker::new().unwrap();
        a.send(&data_frame(1)).unwrap();
        b.wait(&waker, LONG).unwrap(); // the frame is there: no sleep
        assert!(b.sleeper.lock().unwrap().is_none());
        a.send(&data_frame(2)).unwrap(); // must not ring
        let t0 = Instant::now();
        waker.wait(None, Duration::from_millis(20)).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "nobody rang the waker"
        );
        assert_eq!(b.try_recv().unwrap().unwrap(), data_frame(1));
        assert_eq!(b.try_recv().unwrap().unwrap(), data_frame(2));
    }

    /// Both ends write far more than the socket buffers hold before
    /// either reads: a flush that only wrote would deadlock; one that
    /// keeps receiving while it is blocked finishes.
    #[test]
    fn two_ends_writing_at_each_other_do_not_deadlock() {
        const FRAMES: u64 = 64;
        let big = |seq: u64| {
            let msg = DataMsg {
                seq,
                stream: 0,
                partition: 0,
                timestamp: 0,
                key: None,
                value: vec![seq as u8; 256 << 10].into(),
            };
            Frame::new(FrameKind::Data, encode_data_batch(&[msg]))
        };
        let (a, b) = tcp_pair(LONG);
        let ends = [a, b].map(|mut t| {
            std::thread::spawn(move || {
                for seq in 0..FRAMES {
                    t.send(&big(seq)).unwrap();
                }
                t.flush().unwrap();
                for seq in 0..FRAMES {
                    assert_eq!(t.recv().unwrap().unwrap(), big(seq));
                }
            })
        });
        for end in ends {
            end.join().unwrap();
        }
    }

    #[test]
    fn faulty_drop_is_deterministic() {
        let run = || {
            let (a, mut b) = ChannelTransport::pair(1024);
            let mut f = FaultyTransport::new(
                a,
                FaultPlan {
                    seed: 7,
                    drop: 0.5,
                    ..FaultPlan::default()
                },
            );
            for i in 0..200 {
                f.send(&data_frame(i)).unwrap();
            }
            f.flush().unwrap();
            let mut got = Vec::new();
            while let Some(frame) = b.recv().unwrap() {
                got.push(seq_of(&frame));
            }
            got
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "seeded faults must replay identically");
        assert!(first.len() < 200 && !first.is_empty());
    }

    #[test]
    fn faulty_duplicate_and_reorder_deliver_everything() {
        let (a, mut b) = ChannelTransport::pair(4096);
        let mut f = FaultyTransport::new(
            a,
            FaultPlan {
                seed: 3,
                duplicate: 0.3,
                reorder: 0.3,
                ..FaultPlan::default()
            },
        );
        for i in 0..100 {
            f.send(&data_frame(i)).unwrap();
        }
        f.flush().unwrap(); // delivers any held reorder frame
        let mut seen = std::collections::BTreeSet::new();
        let mut total = 0;
        while let Some(frame) = b.recv().unwrap() {
            seen.insert(seq_of(&frame));
            total += 1;
        }
        assert_eq!(seen.len(), 100, "no frame may be lost");
        assert!(total > 100, "duplicates should have occurred");
    }

    #[test]
    fn cut_after_severs_until_redial() {
        let (a, _b) = ChannelTransport::pair(64);
        let mut f = FaultyTransport::new(
            a,
            FaultPlan {
                cut_after: 3,
                ..FaultPlan::default()
            },
        );
        for i in 0..3 {
            f.send(&data_frame(i)).unwrap();
        }
        assert!(f.send(&data_frame(3)).is_err());
        assert!(f.recv().is_err(), "a severed link fails both directions");
        // Control frames are also dead once severed.
        assert!(f.send(&Frame::bare(FrameKind::Shutdown)).is_err());
    }

    #[test]
    fn control_frames_bypass_data_faults() {
        let (a, mut b) = ChannelTransport::pair(64);
        let mut f = FaultyTransport::new(
            a,
            FaultPlan {
                seed: 5,
                drop: 1.0, // every data frame dropped
                ..FaultPlan::default()
            },
        );
        f.send(&data_frame(0)).unwrap();
        f.send(&Frame::bare(FrameKind::Shutdown)).unwrap();
        let got = b.recv().unwrap().unwrap();
        assert_eq!(got.kind, FrameKind::Shutdown);
        assert!(b.recv().unwrap().is_none());
    }
}
