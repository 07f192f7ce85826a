//! Length-prefixed frame codec for the multi-process transport.
//!
//! Layout (all integers little-endian, documented in
//! `docs/wire-format.md`):
//!
//! ```text
//! [u32 len][u8 version][u8 kind][payload: len-2 bytes]
//! ```
//!
//! `len` counts everything after the prefix: the version byte, the
//! kind byte and the payload. `version` must equal [`WIRE_VERSION`]; a
//! mismatch is a hard decode error, never a negotiation. Data-plane payloads
//! ([`DataMsg`]) and the small fixed payloads (acks, progress, routes,
//! link stats) are hand-rolled binary; control-plane payloads are
//! opaque here — `privapprox-core`'s control module encodes them with
//! the store crate's payload primitives.

use std::io::{self, Write};
use std::net::SocketAddr;
use std::sync::Arc;

/// Current frame-format version.
///
/// Bumped whenever the frame header or a payload layout — data or
/// control — changes incompatibly (2: control payloads went from JSON
/// to binary; 3: a `Closed` reply's per-bucket counts became one
/// width-adaptive block; 4: proxy nodes link to shard nodes directly —
/// `Route` and `LinkStats` frames, and a `Hello` that marks a fresh
/// link; 5: a parent → proxy batch holds one shard slot's records,
/// stamped with the proxy's stream, and travels on whole). A peer
/// receiving a frame with a different version must drop the
/// connection with a decode error — there is no cross-version
/// negotiation (both ends of a deployment come from one build), so a
/// parent and a node from different builds fail loudly at the first
/// frame instead of silently mis-decoding shares.
pub const WIRE_VERSION: u8 = 5;

/// Maximum accepted frame payload length in bytes (16 MiB).
///
/// A length prefix beyond this is treated as stream corruption rather
/// than an allocation request: the largest legitimate frame is a
/// `Closed` control reply carrying per-bucket counts for a 10⁴-bucket
/// window set (two to eight bytes a bucket), well under a mebibyte.
pub const MAX_FRAME: usize = 16 << 20;

/// Discriminates what a frame's payload means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Connection handshake: `[u8 channel][u8 fresh][u32 index]` (see
    /// [`Hello`]).
    Hello = 1,
    /// Handshake accept (empty payload).
    HelloAck = 2,
    /// One or more broker records in flight; binary [`DataMsg`]
    /// bodies, concatenated (see [`encode_data_batch`]).
    Data = 3,
    /// Cumulative acknowledgement: `[u64 seq]` — every data frame up
    /// to and including `seq` has been received and reassembled in
    /// order by the peer.
    DataAck = 4,
    /// Decode-progress report from an aggregator node:
    /// `[u64 epoch][u64 delta]` answers newly decoded for `epoch`.
    Progress = 5,
    /// Control request (tag byte + binary body, opaque to this crate).
    Ctrl = 6,
    /// Control reply (tag byte + binary body, opaque to this crate).
    CtrlReply = 7,
    /// Admission-control rejection: `[u8 reason]` (see
    /// [`RejectReason`]). The rejected frame is dropped by the
    /// receiver; senders repair via the idempotent resend path.
    Reject = 8,
    /// Orderly connection shutdown (empty payload).
    Shutdown = 9,
    /// Where a shard node now listens: `[u32 shard][utf-8 address]`
    /// (see [`encode_route`]). Sent to a proxy node when a shard slot
    /// is respawned; the proxy opens a fresh link to it.
    Route = 10,
    /// A node's cumulative counters over the links it dialed:
    /// `[u64 reconnects][u64 resends][u64 rejections][u64 gave_up]`
    /// (see [`encode_link_stats`]).
    LinkStats = 11,
}

impl FrameKind {
    /// Parses the kind byte; `None` for unknown kinds.
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            1 => FrameKind::Hello,
            2 => FrameKind::HelloAck,
            3 => FrameKind::Data,
            4 => FrameKind::DataAck,
            5 => FrameKind::Progress,
            6 => FrameKind::Ctrl,
            7 => FrameKind::CtrlReply,
            8 => FrameKind::Reject,
            9 => FrameKind::Shutdown,
            10 => FrameKind::Route,
            11 => FrameKind::LinkStats,
            _ => return None,
        })
    }
}

/// Why a node bounced a frame or connection: the `Reject` frame's
/// reason byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectReason {
    /// Too many connections, or too many unacknowledged frames in
    /// flight on this connection.
    Overloaded = 1,
}

/// One decoded frame: a kind plus its raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload means.
    pub kind: FrameKind,
    /// Raw payload bytes (layout depends on `kind`).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame from a kind and payload.
    pub fn new(kind: FrameKind, payload: Vec<u8>) -> Frame {
        Frame { kind, payload }
    }

    /// An empty-payload frame (handshake acks, shutdown).
    pub fn bare(kind: FrameKind) -> Frame {
        Frame {
            kind,
            payload: Vec::new(),
        }
    }

    /// A rejection frame carrying `reason`.
    pub fn reject(reason: RejectReason) -> Frame {
        Frame {
            kind: FrameKind::Reject,
            payload: vec![reason as u8],
        }
    }
}

/// The 6-byte header preceding `frame`'s payload on the wire; fails
/// (`InvalidInput`) if the payload exceeds [`MAX_FRAME`].
pub fn frame_header(frame: &Frame) -> io::Result<[u8; 6]> {
    if frame.payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds MAX_FRAME", frame.payload.len()),
        ));
    }
    let len = (frame.payload.len() + 2) as u32;
    let mut header = [0u8; 6];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4] = WIRE_VERSION;
    header[5] = frame.kind as u8;
    Ok(header)
}

/// Serializes `frame` onto `w` (one `write_all` for the header, one
/// for the payload).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame_header(frame)?)?;
    w.write_all(&frame.payload)
}

/// Parses the frame at the front of `buf` — bytes received so far,
/// possibly ending mid-frame. `Ok(None)` means the frame is not
/// complete yet (read more and call again; nothing is consumed);
/// `Ok(Some((frame, n)))` hands back the frame and the `n` bytes it
/// occupied. The header is validated as soon as its bytes are there,
/// so a corrupt length word, a foreign version or an unknown kind is
/// an `InvalidData` error before any payload is waited for (or
/// allocated).
pub fn parse_frame(buf: &[u8]) -> io::Result<Option<(Frame, usize)>> {
    let Some(len_bytes) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*len_bytes) as usize;
    if len < 2 || len - 2 > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt frame length {len}"),
        ));
    }
    let Some(&[version, kind]) = buf[4..].first_chunk::<2>() else {
        return Ok(None);
    };
    if version != WIRE_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("wire version mismatch: got {version}, want {WIRE_VERSION}"),
        ));
    }
    let kind = FrameKind::from_u8(kind).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown frame kind {kind}"),
        )
    })?;
    let end = 4 + len;
    Ok(buf.get(6..end).map(|payload| {
        let frame = Frame {
            kind,
            payload: payload.to_vec(),
        };
        (frame, end)
    }))
}

/// A data-plane frame body: one broker record plus routing metadata.
///
/// Binary layout:
///
/// ```text
/// [u64 seq][u8 stream][u32 partition][u64 timestamp]
/// [u16 key_len][key][u32 val_len][value]
/// ```
///
/// `seq` is the per-connection send sequence driving cumulative
/// [`FrameKind::DataAck`]s and idempotent resend; `stream` indexes
/// which logical topic the record belongs to (the proxy whose share it
/// is, which must match the data link's [`Hello::index`]);
/// `key_len == u16::MAX` means "no key".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataMsg {
    /// Per-connection send sequence number (starts at 1).
    pub seq: u64,
    /// Logical stream index within the connection.
    pub stream: u8,
    /// Destination partition.
    pub partition: u32,
    /// Record timestamp (epoch tag), milliseconds.
    pub timestamp: u64,
    /// Optional partitioning key (the MID bytes on share topics).
    /// Shared buffer, matching the broker's `Record`: building a
    /// `DataMsg` from a polled record bumps a refcount, and a decoded
    /// one hands its single allocation straight to the local broker.
    pub key: Option<Arc<[u8]>>,
    /// Record payload (shared buffer, same rationale as `key`).
    pub value: Arc<[u8]>,
}

/// Sentinel `key_len` meaning "record has no key".
const NO_KEY: u16 = u16::MAX;

impl DataMsg {
    /// Encoded size on the wire, in bytes.
    pub fn encoded_len(&self) -> usize {
        27 + self.key.as_ref().map_or(0, |k| k.len()) + self.value.len()
    }

    /// Appends the encoded record body to `out` (the zero-temporary
    /// path batch encoding rides on).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let klen = self.key.as_ref().map_or(0, |k| k.len());
        assert!(klen < NO_KEY as usize, "key too long for wire format");
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.push(self.stream);
        out.extend_from_slice(&self.partition.to_le_bytes());
        out.extend_from_slice(&self.timestamp.to_le_bytes());
        match &self.key {
            Some(k) => {
                out.extend_from_slice(&(k.len() as u16).to_le_bytes());
                out.extend_from_slice(k);
            }
            None => out.extend_from_slice(&NO_KEY.to_le_bytes()),
        }
        out.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.value);
    }
}

/// One record of a data payload, borrowed from the bytes it was read
/// from: what [`walk_data_batch`] hands its visitor.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// See [`DataMsg::seq`].
    pub seq: u64,
    /// See [`DataMsg::stream`].
    pub stream: u8,
    /// See [`DataMsg::partition`].
    pub partition: u32,
    /// See [`DataMsg::timestamp`].
    pub timestamp: u64,
    /// See [`DataMsg::key`].
    pub key: Option<&'a [u8]>,
    /// See [`DataMsg::value`].
    pub value: &'a [u8],
}

impl RecordRef<'_> {
    /// The record as an owned [`DataMsg`]: one allocation for the key,
    /// one for the value.
    fn to_msg(self) -> DataMsg {
        DataMsg {
            seq: self.seq,
            stream: self.stream,
            partition: self.partition,
            timestamp: self.timestamp,
            key: self.key.map(Arc::from),
            value: Arc::from(self.value),
        }
    }
}

fn corrupt_batch() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "corrupt data batch")
}

/// Reads the record that starts at `payload[at..]`: the record and the
/// offset just past it, or `None` if its framing runs off the end.
/// The one place the record layout is parsed.
fn record_at(payload: &[u8], at: usize) -> Option<(RecordRef<'_>, usize)> {
    let head: &[u8; 23] = payload.get(at..)?.first_chunk()?;
    let klen = u16::from_le_bytes([head[21], head[22]]);
    let mut end = at + 23;
    let key = if klen == NO_KEY {
        None
    } else {
        end += klen as usize;
        Some(payload.get(at + 23..end)?)
    };
    let vlen: &[u8; 4] = payload.get(end..)?.first_chunk()?;
    let value_at = end + 4;
    end = value_at + u32::from_le_bytes(*vlen) as usize;
    let record = RecordRef {
        seq: u64::from_le_bytes(head[..8].try_into().unwrap()),
        stream: head[8],
        partition: u32::from_le_bytes(head[9..13].try_into().unwrap()),
        timestamp: u64::from_le_bytes(head[13..21].try_into().unwrap()),
        key,
        value: payload.get(value_at..end)?,
    };
    Some((record, end))
}

/// Walks the records of a [`FrameKind::Data`] payload in order without
/// copying or allocating, handing each to `visit`. Returns how many
/// there were. An empty payload, or one whose framing does not end
/// exactly at its last byte, is `InvalidData`; an error from `visit`
/// ends the walk and is returned. [`decode_data_batch`] reads through
/// the same framing, so a payload this accepts is one it decodes.
pub fn walk_data_batch<'a>(
    payload: &'a [u8],
    mut visit: impl FnMut(RecordRef<'a>) -> io::Result<()>,
) -> io::Result<usize> {
    let mut at = 0usize;
    let mut n = 0usize;
    while at < payload.len() {
        let (record, end) = record_at(payload, at).ok_or_else(corrupt_batch)?;
        visit(record)?;
        at = end;
        n += 1;
    }
    if n == 0 {
        return Err(corrupt_batch());
    }
    Ok(n)
}

/// Encodes a run of records as one [`FrameKind::Data`] payload: the
/// concatenation of each record's [`DataMsg::encode_into`] body. The
/// *frame's* sequence number is the first record's `seq` (the
/// supervised link rewrites the leading 8 bytes); the remaining
/// records ride under it, so acks and resends operate on whole
/// batches.
pub fn encode_data_batch(msgs: &[DataMsg]) -> Vec<u8> {
    assert!(!msgs.is_empty(), "empty data batch");
    // Exact-size reservation: share values dwarf the fixed header, so
    // a guessed capacity would mean several doubling reallocations
    // (each one a full copy of the partially built frame).
    let mut out = Vec::with_capacity(msgs.iter().map(DataMsg::encoded_len).sum());
    for m in msgs {
        m.encode_into(&mut out);
    }
    out
}

/// Decodes a [`FrameKind::Data`] payload holding one **or more**
/// concatenated records (see [`encode_data_batch`]), appending them to
/// `out`. Returns how many records were appended. The frame-level
/// sequence number is `out[first].seq`; per-record `seq` fields after
/// the first are not meaningful.
pub fn decode_data_batch(payload: &[u8], out: &mut Vec<DataMsg>) -> io::Result<usize> {
    walk_data_batch(payload, |record| {
        out.push(record.to_msg());
        Ok(())
    })
}

/// Encodes a cumulative [`FrameKind::DataAck`] payload.
pub fn encode_ack(seq: u64) -> Vec<u8> {
    seq.to_le_bytes().to_vec()
}

/// Decodes a [`FrameKind::DataAck`] payload.
pub fn decode_ack(payload: &[u8]) -> io::Result<u64> {
    let bytes: [u8; 8] = payload
        .try_into()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "corrupt ack frame"))?;
    Ok(u64::from_le_bytes(bytes))
}

/// Encodes a [`FrameKind::Progress`] payload.
pub fn encode_progress(epoch: u64, delta: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&delta.to_le_bytes());
    out
}

/// Decodes a [`FrameKind::Progress`] payload into `(epoch, delta)`.
pub fn decode_progress(payload: &[u8]) -> io::Result<(u64, u64)> {
    if payload.len() != 16 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "corrupt progress frame",
        ));
    }
    let epoch = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let delta = u64::from_le_bytes(payload[8..].try_into().unwrap());
    Ok((epoch, delta))
}

/// Encodes a [`FrameKind::Route`] payload: shard slot `shard` now
/// listens at `addr`.
pub fn encode_route(shard: u32, addr: SocketAddr) -> Vec<u8> {
    let mut out = shard.to_le_bytes().to_vec();
    out.extend_from_slice(addr.to_string().as_bytes());
    out
}

/// Decodes a [`FrameKind::Route`] payload into `(shard, address)`.
pub fn decode_route(payload: &[u8]) -> io::Result<(u32, SocketAddr)> {
    let corrupt = || io::Error::new(io::ErrorKind::InvalidData, "corrupt route frame");
    let (shard, addr) = payload.split_first_chunk::<4>().ok_or_else(corrupt)?;
    let addr = std::str::from_utf8(addr)
        .ok()
        .and_then(|a| a.parse().ok())
        .ok_or_else(corrupt)?;
    Ok((u32::from_le_bytes(*shard), addr))
}

/// Encodes a [`FrameKind::LinkStats`] payload from counters in wire
/// order (`LinkStats::counts`).
pub fn encode_link_stats(counts: [u64; 4]) -> Vec<u8> {
    counts.iter().flat_map(|c| c.to_le_bytes()).collect()
}

/// Decodes a [`FrameKind::LinkStats`] payload.
pub fn decode_link_stats(payload: &[u8]) -> io::Result<[u64; 4]> {
    let bytes: &[u8; 32] = payload
        .try_into()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "corrupt link-stats frame"))?;
    Ok(std::array::from_fn(|i| {
        u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap())
    }))
}

/// Which logical channel a connection carries (handshake byte 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Channel {
    /// Control RPC: register/close/probe requests and replies.
    Ctrl = 1,
    /// Data plane: share records, acks, progress reports.
    Data = 2,
}

/// Handshake payload: who is connecting and what for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Control or data.
    pub channel: Channel,
    /// Logical stream index the peer will send (e.g. which proxy's
    /// records a data link carries toward an aggregator node).
    pub index: u32,
    /// The first connection of a new link, whose sequence numbers
    /// start again at 1: the node resets that stream's reassembly. A
    /// re-dial of a live link says `false`, and its replay continues
    /// where the node's cursor stands.
    pub fresh: bool,
}

impl Hello {
    /// Encodes a [`FrameKind::Hello`] payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.channel as u8, self.fresh as u8];
        out.extend_from_slice(&self.index.to_le_bytes());
        out
    }

    /// Decodes a [`FrameKind::Hello`] payload.
    pub fn decode(payload: &[u8]) -> io::Result<Hello> {
        if payload.len() != 6 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "corrupt hello frame",
            ));
        }
        let channel = match payload[0] {
            1 => Channel::Ctrl,
            2 => Channel::Data,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown channel {other}"),
                ))
            }
        };
        let fresh = match payload[1] {
            0 => false,
            1 => true,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "corrupt hello frame",
                ))
            }
        };
        Ok(Hello {
            channel,
            index: u32::from_le_bytes(payload[2..6].try_into().unwrap()),
            fresh,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_over_buffer() {
        let frames = [
            Frame::bare(FrameKind::HelloAck),
            Frame::new(FrameKind::Data, b"payload".to_vec()),
            Frame::reject(RejectReason::Overloaded),
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut at = 0;
        for f in &frames {
            // Every proper prefix of a frame is "not complete yet".
            let (got, used) = parse_frame(&buf[at..]).unwrap().unwrap();
            for cut in 0..used {
                assert!(parse_frame(&buf[at..at + cut]).unwrap().is_none());
            }
            assert_eq!(&got, f);
            at += used;
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn version_mismatch_is_invalid_data() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::bare(FrameKind::Shutdown)).unwrap();
        buf[4] ^= 0xFF; // corrupt the version byte
        let err = parse_frame(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_rejected_without_allocating() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::bare(FrameKind::Shutdown)).unwrap();
        buf[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        // Rejected from the length word alone, before any payload.
        let err = parse_frame(&buf[..4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn data_msg_roundtrip_with_and_without_key() {
        for key in [Some(vec![1u8, 2, 3].into()), None] {
            let msg = DataMsg {
                seq: 42,
                stream: 3,
                partition: 7,
                timestamp: 123_456,
                key: key.clone(),
                value: vec![9; 257].into(),
            };
            let enc = encode_data_batch(std::slice::from_ref(&msg));
            assert_eq!(enc.len(), msg.encoded_len());
            let mut decoded = Vec::new();
            assert_eq!(decode_data_batch(&enc, &mut decoded).unwrap(), 1);
            assert_eq!(decoded, [msg]);
        }
    }

    #[test]
    fn truncated_data_payload_is_error() {
        let msg = DataMsg {
            seq: 1,
            stream: 0,
            partition: 0,
            timestamp: 5,
            key: None,
            value: vec![1, 2, 3, 4].into(),
        };
        let enc = encode_data_batch(&[msg]);
        for cut in [0, 5, enc.len() - 1] {
            assert!(decode_data_batch(&enc[..cut], &mut Vec::new()).is_err());
        }
        // Trailing garbage is also corruption, not silently ignored.
        let mut padded = enc.clone();
        padded.push(0);
        assert!(decode_data_batch(&padded, &mut Vec::new()).is_err());
    }

    #[test]
    fn data_batch_roundtrip_and_corruption() {
        let msgs: Vec<DataMsg> = (0..5)
            .map(|i| DataMsg {
                seq: 100 + i,
                stream: (i % 2) as u8,
                partition: i as u32,
                timestamp: 1_000 + i,
                key: if i % 2 == 0 {
                    Some(vec![i as u8; 16].into())
                } else {
                    None
                },
                value: vec![i as u8; 3 + i as usize].into(),
            })
            .collect();
        let enc = encode_data_batch(&msgs);
        let mut out = Vec::new();
        assert_eq!(decode_data_batch(&enc, &mut out).unwrap(), 5);
        assert_eq!(out, msgs);
        // A single record is a batch of one.
        out.clear();
        let one = encode_data_batch(&msgs[..1]);
        assert_eq!(decode_data_batch(&one, &mut out).unwrap(), 1);
        assert_eq!(out[0], msgs[0]);
        // Truncation and empty payloads are corruption.
        assert!(decode_data_batch(&enc[..enc.len() - 1], &mut Vec::new()).is_err());
        assert!(decode_data_batch(&[], &mut Vec::new()).is_err());
    }

    /// A 3-record batch under the damage a socket or a hostile peer can
    /// do. A strict prefix is refused, unless it ends where a record
    /// does — then it is exactly the records before the cut. A flipped
    /// byte yields an error or records that re-encode to exactly the
    /// damaged bytes, never a panic. And the walker a node checks a
    /// batch with agrees with the decoder the batch is later filed
    /// through, input for input: both refuse it, or both read the same
    /// count.
    #[test]
    fn hostile_data_batches_are_refused_or_well_formed() {
        let msgs: Vec<DataMsg> = (0..3u8)
            .map(|i| DataMsg {
                seq: 1 + i as u64,
                stream: 1,
                partition: 2 * i as u32,
                timestamp: 4_000 + i as u64,
                key: (i != 1).then(|| vec![i; 16].into()),
                value: vec![0xA5 ^ i; 6].into(),
            })
            .collect();
        let bytes = encode_data_batch(&msgs);
        // What the payload decodes to, re-encoded, once the walker has
        // been checked against the decoder.
        let recode = |payload: &[u8]| -> Option<Vec<u8>> {
            let walked = walk_data_batch(payload, |_| Ok(())).ok();
            let mut out = Vec::new();
            let decoded = decode_data_batch(payload, &mut out).ok();
            assert_eq!(walked, decoded, "walker and decoder disagree");
            decoded.map(|_| encode_data_batch(&out))
        };
        assert_eq!(recode(&bytes), Some(bytes.clone()));
        let mut boundaries = Vec::new();
        walk_data_batch(&bytes, |r| {
            let at = boundaries.last().copied().unwrap_or(0);
            boundaries.push(at + 27 + r.key.map_or(0, <[u8]>::len) + r.value.len());
            Ok(())
        })
        .unwrap();
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            match boundaries.iter().position(|&b| b == cut) {
                Some(n) => assert_eq!(recode(prefix), Some(encode_data_batch(&msgs[..=n]))),
                None => assert_eq!(recode(prefix), None, "prefix of {cut} bytes"),
            }
        }
        let mut damaged = bytes.clone();
        for i in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xFF] {
                damaged[i] = bytes[i] ^ flip;
                if let Some(again) = recode(&damaged) {
                    assert_eq!(again, damaged, "byte {i} ^ {flip:#x}");
                }
            }
            damaged[i] = bytes[i];
        }
        // A visitor's refusal ends the walk with its error.
        let refused = walk_data_batch(&bytes, |r| match r.partition {
            2 => Err(io::Error::new(io::ErrorKind::InvalidData, "misfiled")),
            _ => Ok(()),
        });
        assert_eq!(refused.unwrap_err().to_string(), "misfiled");
    }

    #[test]
    fn ack_progress_hello_roundtrip() {
        assert_eq!(decode_ack(&encode_ack(77)).unwrap(), 77);
        assert_eq!(decode_progress(&encode_progress(3, 250)).unwrap(), (3, 250));
        for fresh in [false, true] {
            let hello = Hello {
                channel: Channel::Data,
                index: 2,
                fresh,
            };
            assert_eq!(Hello::decode(&hello.encode()).unwrap(), hello);
        }
        let mut bad = Hello {
            channel: Channel::Ctrl,
            index: 0,
            fresh: false,
        }
        .encode();
        bad[1] = 2;
        assert!(Hello::decode(&bad).is_err());
    }

    #[test]
    fn route_and_link_stats_roundtrip_and_corruption() {
        let addr: SocketAddr = "127.0.0.1:40123".parse().unwrap();
        assert_eq!(decode_route(&encode_route(3, addr)).unwrap(), (3, addr));
        let route = encode_route(3, addr);
        assert!(decode_route(&route[..3]).is_err());
        assert!(decode_route(&route[..4]).is_err());
        assert!(decode_route(&[0, 0, 0, 0, b'x']).is_err());
        let counts = [1, 2, 3, u64::MAX];
        assert_eq!(
            decode_link_stats(&encode_link_stats(counts)).unwrap(),
            counts
        );
        assert!(decode_link_stats(&encode_link_stats(counts)[..31]).is_err());
    }
}
