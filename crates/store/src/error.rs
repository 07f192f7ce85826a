//! Typed persistence errors.
//!
//! Every failure mode the store can hit maps to one variant here; the
//! WAL and snapshot readers never panic on hostile bytes and never
//! return a silently shortened record stream (the one sanctioned
//! exception — a torn tail at the very end of the newest WAL segment,
//! the signature of a crash mid-append — is *reported*, not hidden;
//! see [`crate::wal::WalRecovery::torn_tail`]).

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Why a frame failed to decode. Carried inside
/// [`StoreError::Corrupt`] so callers can distinguish a bit flip from
/// a version skew without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorruptKind {
    /// The segment/snapshot magic number is wrong — the file is not a
    /// store file at all (or its header was overwritten).
    BadMagic,
    /// The frame declares a version this build does not speak.
    BadVersion(u8),
    /// The frame declares a length that is impossible (shorter than
    /// the fixed header or larger than [`crate::frame::MAX_FRAME`]).
    BadLength(u32),
    /// The CRC32 over `[version][kind][payload]` does not match the
    /// stored checksum: the frame's bytes changed after it was
    /// written.
    CrcMismatch {
        /// Checksum recorded in the frame.
        stored: u32,
        /// Checksum recomputed over the bytes actually read.
        computed: u32,
    },
    /// The buffer ends in the middle of a frame. At the tail of the
    /// newest WAL segment this is the expected crash artifact and is
    /// tolerated (reported via recovery stats); anywhere else it means
    /// the file was truncated behind our back and is surfaced as a
    /// hard [`StoreError::Corrupt`].
    Truncated {
        /// Bytes the frame header promised.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptKind::BadMagic => write!(f, "bad magic"),
            CorruptKind::BadVersion(v) => write!(f, "unsupported version {v}"),
            CorruptKind::BadLength(n) => write!(f, "impossible frame length {n}"),
            CorruptKind::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "crc mismatch (stored {stored:#010x}, computed {computed:#010x})"
                )
            }
            CorruptKind::Truncated { need, have } => {
                write!(f, "truncated frame (need {need} bytes, have {have})")
            }
        }
    }
}

/// Everything that can go wrong opening, appending to, or replaying
/// the store.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level I/O failure, tagged with the path and operation so
    /// the supervisor log says *which* file failed.
    Io {
        /// What the store was doing (`"open"`, `"append"`, `"sync"`, …).
        op: &'static str,
        /// File or directory involved.
        path: PathBuf,
        /// Underlying error.
        source: io::Error,
    },
    /// A frame or file header failed validation mid-stream.
    Corrupt {
        /// File the corruption was found in.
        path: PathBuf,
        /// Byte offset of the offending frame.
        offset: u64,
        /// What exactly failed.
        kind: CorruptKind,
    },
    /// A record or snapshot section payload was structurally invalid
    /// after the CRC passed — the framing is fine but the contents do
    /// not parse (version-skewed writer, or a logic bug).
    BadRecord {
        /// Which decoder rejected it.
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A record or snapshot section is too large to frame: its payload
    /// would exceed [`crate::frame::MAX_FRAME`], which every reader
    /// treats as corruption. Nothing was written.
    FrameTooLarge {
        /// Kind byte of the refused frame.
        kind: u8,
        /// Payload bytes it would have carried.
        len: usize,
    },
    /// The WAL directory's segment sequence has a hole (e.g. a segment
    /// was deleted by hand): replay would silently skip records, so we
    /// refuse.
    SegmentGap {
        /// Last segment index seen before the hole.
        after: u64,
        /// First segment index seen after the hole.
        found: u64,
    },
}

impl StoreError {
    /// Convenience constructor for [`StoreError::Io`].
    pub fn io(op: &'static str, path: &Path, source: io::Error) -> StoreError {
        StoreError::Io {
            op,
            path: path.to_path_buf(),
            source,
        }
    }

    /// Convenience constructor for [`StoreError::Corrupt`].
    pub fn corrupt(path: &Path, offset: u64, kind: CorruptKind) -> StoreError {
        StoreError::Corrupt {
            path: path.to_path_buf(),
            offset,
            kind,
        }
    }

    /// True when the error is any flavour of on-disk corruption (as
    /// opposed to an I/O failure or a decoder rejection).
    pub fn is_corruption(&self) -> bool {
        matches!(self, StoreError::Corrupt { .. })
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(
                    f,
                    "store io error during {op} on {}: {source}",
                    path.display()
                )
            }
            StoreError::Corrupt { path, offset, kind } => {
                write!(
                    f,
                    "corrupt store file {} at offset {offset}: {kind}",
                    path.display()
                )
            }
            StoreError::BadRecord { what, detail } => {
                write!(f, "malformed {what} record: {detail}")
            }
            StoreError::FrameTooLarge { kind, len } => {
                write!(
                    f,
                    "frame of kind {kind} too large: {len} payload bytes exceed the frame cap"
                )
            }
            StoreError::SegmentGap { after, found } => {
                write!(f, "wal segment gap: segment {after} followed by {found}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
