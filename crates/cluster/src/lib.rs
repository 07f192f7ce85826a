//! Multi-process transport: the frames, links and supervision that
//! carry shares between a deployment's parent and its proxy and shard
//! children.
//!
//! * [`wire`] — length-prefixed frame codec with a version header
//!   (layout in `docs/wire-format.md`);
//! * [`transport`] — the [`Transport`] trait over loopback TCP, an
//!   in-process channel pair for unit tests, and a deterministic
//!   fault-injection wrapper ([`FaultyTransport`]) over data frames;
//! * [`poll`] — `poll(2)` readiness waits, the self-pipe [`Waker`]
//!   that lets a thread sleep on a socket *and* a wakeup, and the
//!   [`PollSet`] a node child sleeps in over all of its sockets;
//! * [`supervise`] — per-connection supervision: reconnect with
//!   exponential backoff + jitter + retry budget, idempotent resend
//!   windows, link health counters;
//! * [`frontdoor`] — the node acceptor: connection multiplexing, a
//!   connection cap answered with a typed `Overloaded` rejection, and
//!   the client-side handshake;
//! * [`events`] — wall-clock heartbeats and the [`Watchdog`] that
//!   tells a busy thread from a dead or wedged one.

pub mod events;
pub mod frontdoor;
pub mod poll;
pub mod supervise;
pub mod transport;
pub mod wire;

pub use events::{Heartbeat, HeartbeatStatus, Watchdog};
pub use frontdoor::{Admitted, FrontDoor};
pub use poll::{PollSet, Waker};
pub use supervise::{BackoffPolicy, Dial, LinkStats, Reassembly, SupervisedLink};
pub use transport::{ChannelTransport, FaultPlan, FaultyTransport, TcpTransport, Transport};
pub use wire::{
    decode_data_batch, encode_data_batch, walk_data_batch, DataMsg, Frame, FrameKind, Hello,
    RecordRef, RejectReason, MAX_FRAME, WIRE_VERSION,
};
