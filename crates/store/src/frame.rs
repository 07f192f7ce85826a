//! CRC-framed record codec shared by WAL segments and snapshots.
//!
//! Layout (all integers little-endian, mirroring the transport frames
//! in `cluster/src/wire.rs` with a trailing checksum added — the wire
//! can retransmit, a log cannot):
//!
//! ```text
//! [u32 len][u8 version][u8 kind][payload: len-6 bytes][u32 crc]
//! ```
//!
//! `len` counts everything after the length word (version byte + kind
//! byte + payload + crc). `crc` is CRC-32 over `[version][kind]
//! [payload]`. `version` must equal [`STORE_VERSION`]; mismatches are
//! hard decode errors, never negotiation. Kinds are opaque to this
//! layer — the WAL and snapshot formats assign meaning.

use crate::crc::{crc32, Crc32};
use crate::error::{CorruptKind, StoreError};

/// On-disk format version stamped into every frame (6: `Closed`
/// records and snapshots no longer carry committed offsets or window
/// high-water marks; see the version history in
/// `docs/checkpoint-format.md`).
pub const STORE_VERSION: u8 = 6;

/// Upper bound on a single frame's `len` field. Anything larger is
/// treated as corruption: the biggest legitimate frame (a warehouse
/// snapshot section) is far below this, and without a cap a corrupted
/// length word would make the reader attempt a multi-gigabyte
/// allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// Fixed bytes around a payload: length word + version + kind + crc.
pub const FRAME_OVERHEAD: usize = 4 + 1 + 1 + 4;

/// Minimum legal value of the `len` field (version + kind + crc).
const MIN_LEN: u32 = 6;

/// Appends one encoded frame to `buf`, or refuses — leaving `buf` as
/// it was — a payload the reader's [`MAX_FRAME`] cap would reject.
pub fn encode_frame_into(buf: &mut Vec<u8>, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
    // Checked on `usize`, before the cast: a ≥ 4 GiB payload must not
    // wrap into a small `len`.
    if payload.len() > (MAX_FRAME - MIN_LEN) as usize {
        return Err(StoreError::FrameTooLarge {
            kind,
            len: payload.len(),
        });
    }
    let len = MIN_LEN + payload.len() as u32;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.push(STORE_VERSION);
    buf.push(kind);
    buf.extend_from_slice(payload);
    let mut crc = Crc32::new();
    crc.update(&[STORE_VERSION, kind]);
    crc.update(payload);
    buf.extend_from_slice(&crc.finish().to_le_bytes());
    Ok(())
}

/// One frame successfully decoded from the head of a buffer.
#[derive(Debug, PartialEq, Eq)]
pub struct DecodedFrame<'a> {
    /// Kind byte (meaning assigned by the caller's format).
    pub kind: u8,
    /// Borrowed payload bytes.
    pub payload: &'a [u8],
    /// Total encoded size, i.e. how far to advance in the buffer.
    pub consumed: usize,
}

/// Decodes the frame at the head of `buf`.
///
/// Returns `Ok(None)` on an empty buffer (clean end of stream). A
/// buffer that ends partway through a frame yields
/// [`CorruptKind::Truncated`]; the WAL layer decides whether that is a
/// tolerated torn tail (end of the newest segment) or hard corruption.
/// Never panics and never returns a frame whose checksum does not
/// match.
pub fn decode_frame(buf: &[u8]) -> Result<Option<DecodedFrame<'_>>, CorruptKind> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() < 4 {
        return Err(CorruptKind::Truncated {
            need: 4,
            have: buf.len(),
        });
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if !(MIN_LEN..=MAX_FRAME).contains(&len) {
        return Err(CorruptKind::BadLength(len));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Err(CorruptKind::Truncated {
            need: total,
            have: buf.len(),
        });
    }
    let body = &buf[4..total];
    let (head, crc_bytes) = body.split_at(body.len() - 4);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let computed = crc32(head);
    if stored != computed {
        return Err(CorruptKind::CrcMismatch { stored, computed });
    }
    // Checksum verified; only now do we trust the version byte to be
    // what the writer meant (an unchecked version test would misreport
    // a bit-flipped version byte as skew instead of corruption).
    let version = head[0];
    if version != STORE_VERSION {
        return Err(CorruptKind::BadVersion(version));
    }
    Ok(Some(DecodedFrame {
        kind: head[1],
        payload: &head[2..],
        consumed: total,
    }))
}

/// A frame's kind and an owned copy of its payload.
pub type OwnedFrame = (u8, Vec<u8>);

/// Decodes every frame in `buf`, requiring the buffer to end exactly
/// on a frame boundary (snapshot files: rename is atomic, so a valid
/// snapshot is never torn — any truncation is corruption).
pub fn decode_all(buf: &[u8]) -> Result<Vec<OwnedFrame>, (u64, CorruptKind)> {
    let mut out = Vec::new();
    let mut off = 0usize;
    loop {
        match decode_frame(&buf[off..]) {
            Ok(None) => return Ok(out),
            Ok(Some(f)) => {
                out.push((f.kind, f.payload.to_vec()));
                off += f.consumed;
            }
            Err(kind) => return Err((off as u64, kind)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, 7, b"hello").unwrap();
        encode_frame_into(&mut buf, 9, b"").unwrap();
        let f = decode_frame(&buf).unwrap().unwrap();
        assert_eq!((f.kind, f.payload), (7, &b"hello"[..]));
        let g = decode_frame(&buf[f.consumed..]).unwrap().unwrap();
        assert_eq!((g.kind, g.payload), (9, &b""[..]));
        assert_eq!(f.consumed + g.consumed, buf.len());
    }

    #[test]
    fn truncation_reported_at_every_cut() {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, 3, b"payload bytes").unwrap();
        for cut in 1..buf.len() {
            match decode_frame(&buf[..cut]) {
                Err(CorruptKind::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn crc_catches_flips() {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, 3, b"payload bytes").unwrap();
        // Flip each bit of the body (skip the length word: corrupting
        // it legitimately reports BadLength/Truncated instead).
        for byte in 4..buf.len() {
            for bit in 0..8 {
                buf[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&buf).is_err(),
                    "flip at {byte}:{bit} went undetected"
                );
                buf[byte] ^= 1 << bit;
            }
        }
        assert!(decode_frame(&buf).unwrap().is_some());
    }

    #[test]
    fn a_payload_over_the_cap_is_refused_and_the_largest_under_it_decodes() {
        let mut buf = b"kept".to_vec();
        let over = vec![0u8; MAX_FRAME as usize];
        match encode_frame_into(&mut buf, 8, &over) {
            Err(StoreError::FrameTooLarge { kind: 8, len }) => assert_eq!(len, over.len()),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert_eq!(
            buf, b"kept",
            "a refused frame must leave the buffer untouched"
        );
        buf.clear();
        let largest = &over[..(MAX_FRAME - MIN_LEN) as usize];
        encode_frame_into(&mut buf, 8, largest).unwrap();
        let f = decode_frame(&buf).unwrap().unwrap();
        assert_eq!(
            (f.kind, f.payload.len(), f.consumed),
            (8, largest.len(), buf.len())
        );
    }

    #[test]
    fn absurd_length_rejected() {
        let mut buf = vec![0xFF, 0xFF, 0xFF, 0xFF];
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(decode_frame(&buf), Err(CorruptKind::BadLength(_))));
    }
}
