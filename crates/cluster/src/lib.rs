//! Multi-process transport: the frames, links and supervision that
//! carry shares between a deployment's parent and its proxy and shard
//! children.
//!
//! * [`wire`] — length-prefixed frame codec with a version header
//!   (layout in `docs/wire-format.md`);
//! * [`transport`] — the [`Transport`] trait over loopback TCP, an
//!   in-process channel pair, and a deterministic fault-injection
//!   wrapper ([`FaultyTransport`]) shaped by the [`Link`] model;
//! * [`net`] — the [`Link`] latency/bandwidth delay model;
//! * [`poll`] — `poll(2)` readiness waits, the self-pipe [`Waker`]
//!   that lets a thread sleep on a socket *and* a wakeup, and the
//!   [`PollSet`] a node child sleeps in over all of its sockets;
//! * [`supervise`] — per-connection supervision: reconnect with
//!   exponential backoff + jitter + retry budget, idempotent resend
//!   windows, link health counters;
//! * [`frontdoor`] — the node acceptor: connection multiplexing,
//!   admission control (connection cap, in-flight cap, typed
//!   `Overloaded` rejections) and per-client token-bucket rate
//!   limits;
//! * [`events`] — wall-clock heartbeats and the [`Watchdog`] that
//!   tells a busy thread from a dead or wedged one.

pub mod events;
pub mod frontdoor;
pub mod net;
pub mod poll;
pub mod supervise;
pub mod transport;
pub mod wire;

pub use events::{Heartbeat, HeartbeatStatus, Watchdog};
pub use frontdoor::{AdmissionPolicy, Admitted, FrontDoor, TokenBucket};
pub use net::Link;
pub use poll::{PollSet, Waker};
pub use supervise::{BackoffPolicy, LinkStats, Reassembly, SupervisedLink};
pub use transport::{ChannelTransport, FaultPlan, FaultyTransport, TcpTransport, Transport};
pub use wire::{
    decode_data_batch, encode_data_batch, walk_data_batch, DataMsg, Frame, FrameKind, Hello,
    RecordRef, RejectReason, MAX_FRAME, WIRE_VERSION,
};
