//! The front door: connection acceptor with admission control.
//!
//! A node binds one listener and multiplexes every peer over it. The
//! door enforces the overload policy *before* work is admitted:
//!
//! * **connection cap** — beyond `max_connections` concurrent links,
//!   new arrivals get a `Reject(Overloaded)` frame and are closed;
//! * **per-client token bucket** — each connection carries a
//!   [`TokenBucket`]; a data frame arriving on an empty bucket is
//!   answered with `Reject(RateLimited)` and dropped (the sender's
//!   supervised resend path re-delivers it once tokens refill);
//! * **in-flight cap** — a connection with more than `max_in_flight`
//!   unacknowledged data frames gets `Reject(Overloaded)` per excess
//!   frame, bounding the receiver's queue regardless of sender
//!   behavior.
//!
//! Rejected *frames* are never silently lost: senders treat them like
//! drops (ack-timeout resend), and the MID duplicate defense absorbs
//! any over-delivery — so admission control degrades throughput,
//! never correctness.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::poll::{wait_fd, READABLE};
use crate::transport::{TcpTransport, Transport};
use crate::wire::{Frame, FrameKind, Hello, RejectReason};

/// A token bucket with an injectable clock (tests pass synthetic
/// `Instant`s; production uses `Instant::now()` per call).
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    capacity: f64,
    tokens: f64,
    fill_per_sec: f64,
    last: Option<Instant>,
}

impl TokenBucket {
    /// A bucket holding at most `capacity` tokens, refilling at
    /// `fill_per_sec`; starts full.
    pub fn new(capacity: f64, fill_per_sec: f64) -> TokenBucket {
        assert!(capacity > 0.0 && fill_per_sec >= 0.0);
        TokenBucket {
            capacity,
            tokens: capacity,
            fill_per_sec,
            last: None,
        }
    }

    /// An effectively unlimited bucket (admission always passes).
    pub fn unlimited() -> TokenBucket {
        TokenBucket::new(f64::MAX / 4.0, 0.0)
    }

    /// Takes `n` tokens at time `now`; `false` (and no deduction) if
    /// the refilled level is insufficient.
    pub fn try_take(&mut self, now: Instant, n: f64) -> bool {
        if let Some(last) = self.last {
            let dt = now.saturating_duration_since(last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.fill_per_sec).min(self.capacity);
        }
        self.last = Some(now);
        if self.tokens >= n {
            self.tokens -= n;
            true
        } else {
            false
        }
    }

    /// Current token level (after the last refill).
    pub fn level(&self) -> f64 {
        self.tokens
    }
}

/// Admission limits a [`FrontDoor`] enforces.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Concurrent connections accepted before `Overloaded` bounces.
    pub max_connections: usize,
    /// Unacknowledged data frames tolerated per connection before
    /// excess frames are bounced `Overloaded`.
    pub max_in_flight: usize,
    /// Per-connection token bucket `(capacity, fill_per_sec)`;
    /// `None` = unlimited.
    pub rate: Option<(f64, f64)>,
}

impl Default for AdmissionPolicy {
    fn default() -> AdmissionPolicy {
        AdmissionPolicy {
            max_connections: 64,
            max_in_flight: 16_384,
            rate: None,
        }
    }
}

impl AdmissionPolicy {
    /// Builds the per-connection token bucket this policy implies.
    pub fn bucket(&self) -> TokenBucket {
        match self.rate {
            Some((cap, fill)) => TokenBucket::new(cap, fill),
            None => TokenBucket::unlimited(),
        }
    }
}

/// Decrements the live-connection gauge when an admitted connection
/// ends.
pub struct ConnGuard {
    live: Arc<AtomicUsize>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// An admitted connection: its transport, the peer's handshake, and
/// the admission state the serving loop enforces.
pub struct Admitted {
    /// The framed connection (handshake consumed; `HelloAck` sent).
    pub transport: TcpTransport,
    /// What the peer declared in its `Hello`.
    pub hello: Hello,
    /// Token bucket for this connection's data frames.
    pub bucket: TokenBucket,
    /// In-flight cap for this connection.
    pub max_in_flight: usize,
    /// Releases the connection slot on drop.
    pub guard: ConnGuard,
}

/// The node-side acceptor: one listener, admission control, framed
/// handshakes.
pub struct FrontDoor {
    listener: TcpListener,
    policy: AdmissionPolicy,
    live: Arc<AtomicUsize>,
    /// Connections bounced `Overloaded` at accept.
    bounced: AtomicUsize,
}

impl FrontDoor {
    /// Binds a loopback listener on an OS-assigned port.
    pub fn bind(policy: AdmissionPolicy) -> io::Result<FrontDoor> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        Ok(FrontDoor {
            listener,
            policy,
            live: Arc::new(AtomicUsize::new(0)),
            bounced: AtomicUsize::new(0),
        })
    }

    /// The bound address (advertised by node processes on stdout).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Number of currently admitted connections.
    pub fn live_connections(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Connections bounced at accept so far.
    pub fn bounced_connections(&self) -> usize {
        self.bounced.load(Ordering::Relaxed)
    }

    /// Admits the connection already waiting on the listener, if there
    /// is one, and never waits for one to arrive — the door is served
    /// beside other sockets, in one wait over them all (its
    /// [`AsRawFd`] is the listener).
    ///
    /// Over-cap arrivals are answered with `Reject(Overloaded)` and
    /// closed without ever reaching a serving loop. `None` covers a
    /// knock that was bounced or failed its handshake (garbage, wrong
    /// version), and a failed `accept(2)` — an aborted connection or a
    /// passing shortage of descriptors is the peer's problem, not the
    /// node's. The handshake itself still takes up to
    /// `handshake_timeout` (the dialer sends its `Hello` with the
    /// connect).
    pub fn try_accept(&self, handshake_timeout: Duration) -> Option<Admitted> {
        if !matches!(wait_fd(&self.listener, READABLE, Duration::ZERO), Ok(n) if n > 0) {
            return None;
        }
        let (stream, _) = self.listener.accept().ok()?;
        self.admit(stream, handshake_timeout)
    }

    /// Runs admission and the handshake on one accepted stream.
    fn admit(&self, stream: TcpStream, handshake_timeout: Duration) -> Option<Admitted> {
        if self.live.load(Ordering::Relaxed) >= self.policy.max_connections {
            self.bounced.fetch_add(1, Ordering::Relaxed);
            let _ = reject_and_close(stream, RejectReason::Overloaded, handshake_timeout);
            return None;
        }
        let mut transport = TcpTransport::from_stream(stream, handshake_timeout).ok()?;
        let hello = expect_hello(&mut transport, handshake_timeout).ok()?;
        transport.send(&Frame::bare(FrameKind::HelloAck)).ok()?;
        transport.flush().ok()?;
        self.live.fetch_add(1, Ordering::Relaxed);
        Some(Admitted {
            transport,
            hello,
            bucket: self.policy.bucket(),
            max_in_flight: self.policy.max_in_flight,
            guard: ConnGuard {
                live: self.live.clone(),
            },
        })
    }
}

impl AsRawFd for FrontDoor {
    /// The listener, for a wait over it and the connections it serves.
    fn as_raw_fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }
}

/// Reads the peer's `Hello`, tolerating quiet reads until `timeout`.
fn expect_hello(t: &mut TcpTransport, timeout: Duration) -> io::Result<Hello> {
    let deadline = Instant::now() + timeout;
    loop {
        match t.recv()? {
            Some(f) if f.kind == FrameKind::Hello => return Hello::decode(&f.payload),
            Some(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected hello frame",
                ))
            }
            None if Instant::now() < deadline => continue,
            None => return Err(io::Error::new(io::ErrorKind::TimedOut, "hello timeout")),
        }
    }
}

fn reject_and_close(stream: TcpStream, reason: RejectReason, timeout: Duration) -> io::Result<()> {
    let mut t = TcpTransport::from_stream(stream, timeout)?;
    t.send(&Frame::reject(reason))?;
    t.flush()
}

/// Client-side handshake: sends `Hello`, waits for `HelloAck`.
///
/// A `Reject` answer maps to `ErrorKind::ConnectionRefused` so the
/// supervised dial loop treats admission pressure like any other
/// dial failure (backoff and retry).
pub fn shake_hands(t: &mut dyn Transport, hello: Hello, timeout: Duration) -> io::Result<()> {
    t.send(&Frame::new(FrameKind::Hello, hello.encode()))?;
    t.flush()?;
    let deadline = Instant::now() + timeout;
    loop {
        match t.recv()? {
            Some(f) if f.kind == FrameKind::HelloAck => return Ok(()),
            Some(f) if f.kind == FrameKind::Reject => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "admission rejected",
                ))
            }
            Some(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected handshake reply",
                ))
            }
            None if Instant::now() < deadline => continue,
            None => return Err(io::Error::new(io::ErrorKind::TimedOut, "handshake timeout")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Channel;

    #[test]
    fn token_bucket_refills_and_bounds() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(2.0, 1.0);
        assert!(b.try_take(t0, 1.0));
        assert!(b.try_take(t0, 1.0));
        assert!(!b.try_take(t0, 1.0), "empty bucket rejects");
        // 1.5 simulated seconds refill 1.5 tokens.
        let t1 = t0 + Duration::from_millis(1500);
        assert!(b.try_take(t1, 1.0));
        assert!(!b.try_take(t1, 1.0));
        // Refill never exceeds capacity.
        let t2 = t1 + Duration::from_secs(100);
        assert!(b.try_take(t2, 2.0));
        assert!(!b.try_take(t2, 0.5));
    }

    /// A serving loop's admission: waits on the door, admits, and
    /// waits again past every knock that was bounced.
    fn admit_next(door: &FrontDoor, timeout: Duration) -> Admitted {
        loop {
            if let Some(a) = door.try_accept(timeout) {
                return a;
            }
            wait_fd(door, READABLE, timeout).unwrap();
        }
    }

    /// A door served beside other sockets never waits for a knock:
    /// it admits what is already waiting and nothing else.
    #[test]
    fn try_accept_admits_only_what_is_waiting() {
        let door = FrontDoor::bind(AdmissionPolicy::default()).unwrap();
        let timeout = Duration::from_secs(5);
        let t0 = Instant::now();
        assert!(door.try_accept(timeout).is_none());
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "an empty door answers at once"
        );
        let addr = door.local_addr().unwrap();
        let dialer = std::thread::spawn(move || {
            let mut t = TcpTransport::connect(addr, timeout, Duration::from_millis(20)).unwrap();
            let hello = Hello {
                channel: Channel::Data,
                index: 4,
                fresh: true,
            };
            shake_hands(&mut t, hello, timeout).unwrap();
            t
        });
        let admitted = admit_next(&door, timeout);
        assert_eq!((admitted.hello.index, admitted.hello.fresh), (4, true));
        drop(dialer.join().unwrap());
        assert!(door.try_accept(timeout).is_none());
    }

    #[test]
    fn front_door_admits_shakes_and_caps() {
        let door = Arc::new(
            FrontDoor::bind(AdmissionPolicy {
                max_connections: 1,
                ..AdmissionPolicy::default()
            })
            .unwrap(),
        );
        let addr = door.local_addr().unwrap();
        let timeout = Duration::from_secs(5);

        // Server: admit the first connection and hand its guard to the
        // main thread, then keep serving the door — so the acceptor is
        // live (and bouncing) while the slot is held.
        let (tx, rx) = std::sync::mpsc::channel();
        let server_door = door.clone();
        let server = std::thread::spawn(move || {
            let admitted = admit_next(&server_door, timeout);
            assert_eq!(admitted.hello.channel, Channel::Data);
            assert_eq!(admitted.hello.index, 3);
            tx.send(admitted).unwrap();
            admit_next(&server_door, timeout).hello.index
        });

        // First client: admitted.
        let mut c1 = TcpTransport::connect(addr, timeout, Duration::from_millis(20)).unwrap();
        shake_hands(
            &mut c1,
            Hello {
                channel: Channel::Data,
                index: 3,
                fresh: true,
            },
            timeout,
        )
        .unwrap();
        let admitted = rx.recv().unwrap();
        assert_eq!(door.live_connections(), 1);

        // Second client: bounced Overloaded while c1 holds the slot
        // (the server thread is waiting on the door, enforcing the cap).
        let mut c2 = TcpTransport::connect(addr, timeout, Duration::from_millis(20)).unwrap();
        let err = shake_hands(
            &mut c2,
            Hello {
                channel: Channel::Ctrl,
                index: 0,
                fresh: true,
            },
            timeout,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert!(door.bounced_connections() >= 1);

        // Third client: admitted once the guard frees the slot.
        drop(admitted);
        let mut c3 = TcpTransport::connect(addr, timeout, Duration::from_millis(20)).unwrap();
        shake_hands(
            &mut c3,
            Hello {
                channel: Channel::Ctrl,
                index: 7,
                fresh: true,
            },
            timeout,
        )
        .unwrap();
        assert_eq!(server.join().unwrap(), 7);
    }
}
