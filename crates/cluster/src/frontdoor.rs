//! The front door: connection acceptor with admission control.
//!
//! A node binds one listener and multiplexes every peer over it.
//! Beyond `max_connections` concurrent links, new arrivals get a
//! `Reject(Overloaded)` frame and are closed before any handshake;
//! the dialer's [`shake_hands`] reports that as `ConnectionRefused`,
//! which its supervised link treats like any other failed dial
//! (backoff and retry). What a node admits per connection — the
//! in-flight cap on its data frames — is the node's serving loop's
//! business, not the door's.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::poll::{wait_fd, READABLE};
use crate::transport::{TcpTransport, Transport};
use crate::wire::{Frame, FrameKind, Hello, RejectReason};

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
/// the slot it holds.
pub struct Admitted {
    /// The framed connection (handshake consumed; `HelloAck` sent).
    pub transport: TcpTransport,
    /// What the peer declared in its `Hello`.
    pub hello: Hello,
    /// Releases the connection slot on drop.
    pub guard: ConnGuard,
}

/// The node-side acceptor: one listener, admission control, framed
/// handshakes.
pub struct FrontDoor {
    listener: TcpListener,
    /// Concurrent connections admitted before arrivals are bounced.
    max_connections: usize,
    live: Arc<AtomicUsize>,
}

impl FrontDoor {
    /// Binds a loopback listener on an OS-assigned port that admits
    /// at most `max_connections` connections at a time.
    pub fn bind(max_connections: usize) -> io::Result<FrontDoor> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        Ok(FrontDoor {
            listener,
            max_connections,
            live: Arc::new(AtomicUsize::new(0)),
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
        if self.live.load(Ordering::Relaxed) >= self.max_connections {
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
        let door = FrontDoor::bind(64).unwrap();
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
        let door = Arc::new(FrontDoor::bind(1).unwrap());
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
