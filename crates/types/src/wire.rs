//! Cross-process wire-format constants.
//!
//! The multi-process deployment (see `privapprox-cluster`'s transport
//! layer and `docs/wire-format.md`) exchanges length-prefixed frames
//! over loopback TCP. Every frame carries a one-byte format version so
//! a parent and a spawned node from different builds fail loudly at
//! the first frame instead of silently mis-decoding shares.

/// Current frame-format version.
///
/// Bumped whenever the frame header or a payload layout — data or
/// control — changes incompatibly (2: control payloads went from JSON
/// to binary; 3: a `Closed` reply's per-bucket counts became one
/// width-adaptive block; 4: proxy nodes link to shard nodes directly —
/// `Route` and `LinkStats` frames, and a `Hello` that marks a fresh
/// link; 5: a parent → proxy batch holds one shard slot's records,
/// stamped with the proxy's stream, and travels on whole). A peer
/// receiving a frame with a
/// different version must drop the connection with a decode error —
/// there is no cross-version negotiation (both ends of a deployment
/// come from one build).
pub const WIRE_VERSION: u8 = 5;

/// Maximum accepted frame payload length in bytes (16 MiB).
///
/// A length prefix beyond this is treated as stream corruption rather
/// than an allocation request: the largest legitimate frame is a
/// `Closed` control reply carrying per-bucket counts for a 10⁴-bucket
/// window set (two to eight bytes a bucket), well under a mebibyte.
pub const MAX_FRAME: usize = 16 << 20;
