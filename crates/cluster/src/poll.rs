//! Readiness waits: `poll(2)` over sockets plus the self-pipe
//! [`Waker`] that lets another thread end such a wait.
//!
//! The transports keep their sockets non-blocking and sleep *here*,
//! so one thread can wait on "my socket has bytes **or** somebody
//! needs me" at once — the parent bridges' park — and a node child on
//! its front door plus every link it serves ([`PollSet`]; see the wake
//! protocol in `docs/wire-format.md`). `poll` is declared `extern "C"`
//! (std links libc on every unix target); the pipe is a
//! `UnixStream::pair`, so nothing else needs FFI. There is no
//! fallback for targets without `poll(2)`: a timed retry would be
//! exactly the delivery-by-timer this module exists to remove.

#[cfg(not(unix))]
compile_error!("privapprox-cluster waits in poll(2) and supports unix targets only");

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// Bytes can be read (or the peer hung up / the socket errored — both
/// surface through the read that follows).
pub(crate) const READABLE: i16 = 0x001; // POLLIN
/// Bytes can be written.
pub(crate) const WRITABLE: i16 = 0x004; // POLLOUT

const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

#[cfg(target_os = "linux")]
type NFds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NFds = std::ffi::c_uint;

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// What the last poll found ready of what was asked. Hang-ups and
    /// socket errors count as ready for whatever was asked, so the I/O
    /// call that follows reports them.
    fn ready(&self) -> i16 {
        if self.revents & (POLLERR | POLLHUP) != 0 {
            self.events
        } else {
            self.revents & self.events
        }
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout_ms: i32) -> i32;
}

/// Sleeps until one of `fds` is ready or `timeout` passes, leaving
/// each record's `revents` set (all zero on a timeout or a signal —
/// callers re-check against their own deadlines).
fn poll_slice(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    for p in fds.iter_mut() {
        p.revents = 0;
    }
    // Whole milliseconds, rounded up: a sub-millisecond remainder
    // must sleep, not spin.
    let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
    // SAFETY: `fds` is a slice of initialised `#[repr(C)]` pollfd
    // records that lives across the call, and its length is passed
    // with it; std links libc on unix.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// Sleeps until one of `fds` (descriptor, interest mask) is ready
/// or `timeout` passes; returns the ready mask of each.
fn poll_ready<const N: usize>(fds: [(RawFd, i16); N], timeout: Duration) -> io::Result<[i16; N]> {
    let mut raw = fds.map(|(fd, events)| PollFd {
        fd,
        events,
        revents: 0,
    });
    poll_slice(&mut raw, timeout)?;
    Ok(raw.map(|p| p.ready()))
}

/// Sleeps until `fd` is ready for `interest` or `timeout` passes;
/// returns the ready mask.
pub(crate) fn wait_fd(fd: &impl AsRawFd, interest: i16, timeout: Duration) -> io::Result<i16> {
    poll_ready([(fd.as_raw_fd(), interest)], timeout).map(|[ready]| ready)
}

/// A reusable `poll(2)` set over any number of descriptors, each
/// watched for input: the one wait of a node child that serves its
/// front door, its parent's link and a link per peer node at once.
#[derive(Default)]
pub struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// An empty set.
    pub fn new() -> PollSet {
        PollSet::default()
    }

    /// Empties the set for the next wait, keeping its storage.
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Watches `fd` for input (or a hang-up or error, which the read
    /// that follows reports).
    pub fn watch(&mut self, fd: RawFd) {
        self.fds.push(PollFd {
            fd,
            events: READABLE,
            revents: 0,
        });
    }

    /// Sleeps until a watched descriptor is ready or `timeout` passes.
    /// Which one ended the wait is not reported — the caller re-checks
    /// its sources.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        poll_slice(&mut self.fds, timeout)
    }
}

/// A handle another thread rings to end a [`Waker::wait`]: the
/// classic self-pipe, level-triggered, so a ring that lands just
/// before the wait begins still ends it.
#[derive(Clone)]
pub struct Waker {
    /// `(read end, write end)`, both non-blocking.
    pipe: Arc<(UnixStream, UnixStream)>,
}

impl Waker {
    /// Opens the pipe.
    pub fn new() -> io::Result<Waker> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker {
            pipe: Arc::new((rx, tx)),
        })
    }

    /// Ends the current — or, if none is in progress, the next —
    /// [`Waker::wait`]. One `write(2)`; callers that ring often
    /// gate it on "a waiter is parked" (an
    /// `EventCount` bell does).
    pub fn ring(&self) {
        // A full pipe already holds more rings than one wait needs.
        let _ = (&self.pipe.1).write(&[1]);
    }

    /// Sleeps until rung, until `socket` (if given) is readable,
    /// or until `timeout` passes. Pending rings are consumed;
    /// which of the three ended the wait is not reported — the
    /// caller re-checks its sources.
    pub fn wait(&self, socket: Option<&TcpStream>, timeout: Duration) -> io::Result<()> {
        let rx = &self.pipe.0;
        // poll(2) ignores negative descriptors.
        let sock = socket.map_or(-1, |s| s.as_raw_fd());
        let [rung, _] = poll_ready([(rx.as_raw_fd(), READABLE), (sock, READABLE)], timeout)?;
        if rung != 0 {
            let mut sink = [0u8; 64];
            while matches!((&*rx).read(&mut sink), Ok(n) if n == sink.len()) {}
        }
        Ok(())
    }
}
