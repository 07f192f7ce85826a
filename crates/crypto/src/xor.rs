//! The XOR-based split encryption scheme (paper §3.2.3, Figure 2).
//!
//! A client message `M = ⟨QID, randomized answer⟩` is split into `n`
//! computationally indistinguishable shares: `n − 1` pseudorandom key
//! strings `MK₂ … MKₙ` (ChaCha20 keystream from a fresh random seed)
//! and the encrypted message `M_E = M ⊕ MK₂ ⊕ … ⊕ MKₙ`. Each share
//! travels to a different proxy under the same fresh random message
//! identifier `MID`; the aggregator XORs all `n` shares with matching
//! `MID` to recover `M`. Because every share individually is uniform
//! random, no proxy learns whether it carries the answer or a pad.

use crate::chacha::ChaCha20;
use privapprox_types::{words, BitVec, MessageId, QueryId};
use rand::Rng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Current wire-format version byte.
pub const WIRE_VERSION: u8 = 1;

/// One share of a split message: what a single proxy sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Share {
    /// Join key: identical across the `n` shares of one message.
    pub mid: MessageId,
    /// `M_E` or one of the `MKᵢ` — indistinguishable by design.
    ///
    /// A shared immutable buffer: [`XorSplitter::split_into`] builds
    /// the share directly into an `Arc` slot from the scratch's
    /// [`SlotPool`], so a producer can hand the **same allocation**
    /// to a broker log (`Record::value` is `Arc<[u8]>` too) with a
    /// refcount bump instead of a payload copy. The slot is never
    /// rewritten while any such reference is alive.
    pub payload: Arc<[u8]>,
}

/// A FIFO recycling pool of shared `Arc<[u8]>` buffers — the
/// double-buffering behind zero-copy share payloads.
///
/// `acquire` hands out a buffer that is **uniquely owned** (strong
/// count 1): a recycled slot whose previous consumers (broker log,
/// in-flight batch) have all dropped their references, or a fresh
/// allocation when none has. Consumers release buffers in roughly the
/// order they were acquired (a bounded broker log trims oldest
/// first; a flushed batch drops all at once), so the pool probes only
/// the oldest slots and stays O(1) per acquire; it grows to the
/// in-flight window's size and then recycles — zero allocation at
/// steady state.
#[derive(Debug, Clone, Default)]
pub struct SlotPool {
    slots: VecDeque<Arc<[u8]>>,
}

impl SlotPool {
    /// Creates an empty pool (slots are allocated on demand).
    pub fn new() -> SlotPool {
        SlotPool::default()
    }

    /// Number of buffers the pool currently tracks (free or still
    /// referenced downstream) — the steady-state plateau the
    /// allocation tests pin.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool holds no buffers yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Hands out a uniquely owned buffer of exactly `len` bytes,
    /// recycling the oldest free slot when one exists.
    ///
    /// A slot still referenced downstream is **never** handed out
    /// (its bytes may be live in a broker log), only rotated behind
    /// the queue; a unique slot of the wrong length (the message
    /// width changed) is dropped and replaced. Pair every acquire
    /// with a [`SlotPool::release`] once the buffer's refcount has
    /// been handed to its consumers.
    pub fn acquire(&mut self, len: usize) -> Arc<[u8]> {
        // Probe the two oldest slots: releases are FIFO-shaped, so
        // the head is the first to free up; the second probe rides
        // over one straggler without degrading to a scan.
        for _ in 0..self.slots.len().min(2) {
            let slot = self.slots.pop_front().expect("probed within len");
            if Arc::strong_count(&slot) == 1 {
                if slot.len() == len {
                    return slot;
                }
                break;
            }
            self.slots.push_back(slot);
        }
        Arc::from(vec![0u8; len])
    }

    /// Returns an acquired buffer to the back of the pool. The pool's
    /// reference is what keeps the slot recyclable after every
    /// downstream consumer drops theirs.
    pub fn release(&mut self, slot: Arc<[u8]>) {
        self.slots.push_back(slot);
    }
}

/// Errors from share recombination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombineError {
    /// No shares supplied.
    Empty,
    /// Shares carry different message identifiers.
    MixedIds,
    /// Shares have inconsistent payload lengths.
    LengthMismatch,
}

impl core::fmt::Display for CombineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CombineError::Empty => write!(f, "no shares to combine"),
            CombineError::MixedIds => write!(f, "shares have mixed message ids"),
            CombineError::LengthMismatch => write!(f, "shares have mismatched lengths"),
        }
    }
}

impl std::error::Error for CombineError {}

/// Splits messages into `n` XOR shares for `n` proxies.
#[derive(Debug, Clone, Copy)]
pub struct XorSplitter {
    n: usize,
}

impl XorSplitter {
    /// Creates a splitter for `n ≥ 2` proxies ("PrivApprox includes at
    /// least two proxies", §2.2).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` — a single proxy would see the plaintext.
    pub fn new(n: usize) -> XorSplitter {
        assert!(n >= 2, "XOR splitting needs at least 2 proxies, got {n}");
        XorSplitter { n }
    }

    /// Number of shares produced per message.
    pub fn shares(&self) -> usize {
        self.n
    }

    /// Splits `message` into `n` shares under a fresh random `MID`.
    ///
    /// Share 0 is `M_E`; shares 1…n−1 are the key strings. Callers
    /// should shuffle or route them to distinct proxies — the payloads
    /// themselves carry no marker of which is which.
    pub fn split<R: Rng + ?Sized>(&self, message: &[u8], rng: &mut R) -> Vec<Share> {
        let mid = MessageId(rng.gen());
        self.split_with_mid(message, mid, rng)
    }

    /// Splits with an explicit message identifier (used by tests and
    /// the duplicate-defence logic).
    ///
    /// Thin allocating wrapper over [`XorSplitter::split_into`].
    pub fn split_with_mid<R: Rng + ?Sized>(
        &self,
        message: &[u8],
        mid: MessageId,
        rng: &mut R,
    ) -> Vec<Share> {
        let mut scratch = SplitScratch::new();
        self.split_into(message, mid, rng, &mut scratch);
        scratch.shares
    }

    /// Splits `message` into shares held in caller-owned scratch
    /// buffers, and returns them as a slice.
    ///
    /// This is the steady-state client path: once `scratch` has been
    /// warmed by one message of each size, no heap allocation occurs —
    /// share 0's buffer accumulates `M_E` starting from a copy of the
    /// message, and each key string is written by ChaCha20 directly
    /// into its reused share buffer **with the `M_E` accumulation
    /// fused into the keystream write**
    /// ([`ChaCha20::xor_keystream_into`]): every keystream block is
    /// consumed for both the share payload and the accumulator while
    /// it is hot, instead of a second full-length XOR pass per key
    /// string.
    ///
    /// Each share is built **directly into an `Arc<[u8]>` slot** from
    /// the scratch's per-share-index [`SlotPool`], so a producer can
    /// append `share.payload` to a broker log by refcount — no copy.
    /// The pool is double-buffered (and grows on demand): a payload
    /// still referenced by the broker or a pending batch is never
    /// rewritten, the next split simply builds into the other buffer
    /// (or a fresh one while the in-flight window is still warming).
    pub fn split_into<'a, R: Rng + ?Sized>(
        &self,
        message: &[u8],
        mid: MessageId,
        rng: &mut R,
        scratch: &'a mut SplitScratch,
    ) -> &'a [Share] {
        scratch.valid = true;
        let empty = Arc::clone(&scratch.empty);
        let shares = &mut scratch.shares;
        shares.truncate(self.n);
        while shares.len() < self.n {
            shares.push(Share {
                mid,
                payload: Arc::clone(&empty),
            });
        }
        if scratch.pools.len() < self.n {
            scratch.pools.resize_with(self.n, SlotPool::new);
        }
        // Drop the previous message's payload references before
        // acquiring: each one is the second refcount on a pool slot,
        // and releasing it here is what lets the double buffer
        // recycle as soon as the downstream consumers let go too.
        for share in shares.iter_mut() {
            share.mid = mid;
            share.payload = Arc::clone(&empty);
        }
        // Share 0 accumulates M_E starting from a copy of the message.
        let mut acc = scratch.pools[0].acquire(message.len());
        let acc_buf = Arc::get_mut(&mut acc).expect("acquired slot is uniquely owned");
        acc_buf.copy_from_slice(message);
        for i in 1..self.n {
            let mut pad = scratch.pools[i].acquire(message.len());
            let pad_buf = Arc::get_mut(&mut pad).expect("acquired slot is uniquely owned");
            // Fresh ChaCha20 keystream per key string, seeded from the
            // caller's RNG ("seeded with a cryptographically strong
            // random number"), written straight into the share buffer
            // while the same blocks accumulate into M_E.
            let mut stream = ChaCha20::from_seed(rng.gen(), i as u64);
            stream.xor_keystream_into(pad_buf, acc_buf);
            shares[i].payload = Arc::clone(&pad);
            scratch.pools[i].release(pad);
        }
        shares[0].payload = Arc::clone(&acc);
        scratch.pools[0].release(acc);
        shares
    }
}

/// Caller-owned share buffers for [`XorSplitter::split_into`].
///
/// Reusing one `SplitScratch` across messages keeps the client's
/// split stage allocation-free at steady state. Payloads live in
/// per-share-index [`SlotPool`]s of shared `Arc<[u8]>` buffers: a
/// payload handed to a broker (or held in a pending batch) pins its
/// slot, and the pool builds the next message into another buffer —
/// a consumer-retained payload is never mutated.
#[derive(Debug, Clone, Default)]
pub struct SplitScratch {
    shares: Vec<Share>,
    /// One payload-slot pool per share index.
    pools: Vec<SlotPool>,
    /// Zero-length placeholder cloned into a share whose previous
    /// payload reference is being released back to its pool.
    empty: Arc<[u8]>,
    /// Whether `shares` holds the result of a completed
    /// [`XorSplitter::split_into`] (as opposed to leftovers from an
    /// earlier message after an [`SplitScratch::invalidate`]).
    valid: bool,
}

impl SplitScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> SplitScratch {
        SplitScratch::default()
    }

    /// Total payload buffers tracked across the per-share-index
    /// pools — free or still referenced downstream. Plateaus at the
    /// in-flight window's size; the allocation tests pin that it
    /// stops growing once warm.
    pub fn payload_slots(&self) -> usize {
        self.pools.iter().map(SlotPool::len).sum()
    }

    /// The shares produced by the most recent
    /// [`XorSplitter::split_into`], or an empty slice if the scratch
    /// has been invalidated since.
    pub fn shares(&self) -> &[Share] {
        if self.valid {
            &self.shares
        } else {
            &[]
        }
    }

    /// Marks the current contents stale without dropping the buffers:
    /// [`SplitScratch::shares`] returns an empty slice until the next
    /// `split_into`. Callers whose pipeline can skip a message (e.g. a
    /// client sitting an epoch out) use this so a stale read cannot
    /// resubmit the previous message's shares.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }
}

/// Recombines shares by XOR; the inverse of [`XorSplitter::split`].
///
/// The aggregator "cannot identify which of the received messages is
/// M_E, it just XORs all the n received messages to decrypt M" — order
/// is irrelevant.
pub fn combine(shares: &[Share]) -> Result<Vec<u8>, CombineError> {
    let mut out = Vec::new();
    combine_into(shares, &mut out)?;
    Ok(out)
}

/// [`combine`] into a caller-owned buffer: `out` is overwritten with
/// the recombined message. Allocation-free once `out`'s capacity
/// covers the message size; the XOR runs in `u64` words.
pub fn combine_into(shares: &[Share], out: &mut Vec<u8>) -> Result<(), CombineError> {
    let first = shares.first().ok_or(CombineError::Empty)?;
    out.clear();
    out.extend_from_slice(&first.payload);
    for share in &shares[1..] {
        if share.mid != first.mid {
            return Err(CombineError::MixedIds);
        }
        if share.payload.len() != out.len() {
            return Err(CombineError::LengthMismatch);
        }
        words::xor_into(out, &share.payload);
    }
    Ok(())
}

/// Encodes an answer message `M = ⟨QID, randomized answer⟩` (Eq. 9).
///
/// Wire layout: `version:u8 ‖ qid:u64be ‖ buckets:u16be ‖ bit bytes`.
pub fn encode_answer(qid: QueryId, answer: &BitVec) -> Vec<u8> {
    let mut out = Vec::with_capacity(answer_wire_size(answer.len()));
    encode_answer_into(qid, answer, &mut out);
    out
}

/// [`encode_answer`] into a caller-owned buffer, overwritten in place.
/// Allocation-free once `out`'s capacity covers the wire size — the
/// bit bytes stream directly from the answer's limbs.
pub fn encode_answer_into(qid: QueryId, answer: &BitVec, out: &mut Vec<u8>) {
    assert!(answer.len() <= u16::MAX as usize, "answer too wide");
    out.clear();
    out.push(WIRE_VERSION);
    out.extend_from_slice(&qid.to_u64().to_be_bytes());
    out.extend_from_slice(&(answer.len() as u16).to_be_bytes());
    answer.extend_bytes_into(out);
}

/// Decodes an answer message; `None` on any malformation (bad version,
/// truncation, trailing bytes, or set padding bits).
pub fn decode_answer(bytes: &[u8]) -> Option<(QueryId, BitVec)> {
    let mut answer = BitVec::zeros(0);
    let qid = decode_answer_into(bytes, &mut answer)?;
    Some((qid, answer))
}

/// [`decode_answer`] into a caller-owned `BitVec`, whose limb storage
/// is reused. Returns the query id on success; on any malformation
/// returns `None` and leaves `answer` in an unspecified valid state.
///
/// This is the aggregator's steady-state decode: one scratch `BitVec`
/// absorbs every message in a window with no per-message allocation.
pub fn decode_answer_into(bytes: &[u8], answer: &mut BitVec) -> Option<QueryId> {
    if bytes.len() < 11 || bytes[0] != WIRE_VERSION {
        return None;
    }
    let qid = QueryId::from_u64(u64::from_be_bytes(bytes[1..9].try_into().ok()?));
    let n = u16::from_be_bytes(bytes[9..11].try_into().ok()?) as usize;
    if n == 0 {
        return None;
    }
    let body = &bytes[11..];
    if !answer.assign_from_bytes(n, body) {
        return None;
    }
    Some(qid)
}

/// Expected wire size in bytes of an encoded answer with `buckets`
/// buckets — used by the bandwidth accounting of Figure 9a.
pub fn answer_wire_size(buckets: usize) -> usize {
    11 + buckets.div_ceil(8)
}

/// Bytes in a share's broker record key: query tag (u64 BE) ‖ MID.
pub const WIRE_KEY_LEN: usize = 24;

/// Builds the broker record key carried by every share of `qid`'s
/// message `mid`: the query tag routes the share to per-(query, shard)
/// join state before any decode, and the MID pairs the `n` shares at
/// the aggregator. The tag keeps multi-tenant joins apart by
/// construction: a client draws each query's MIDs from that query's
/// own RNG stream, so two queries' MIDs coincide only by a 2⁻¹²⁸
/// accident, but a MID-only key would then fuse shares across
/// queries.
pub fn wire_key(qid: QueryId, mid: MessageId) -> [u8; WIRE_KEY_LEN] {
    let mut key = [0u8; WIRE_KEY_LEN];
    key[..8].copy_from_slice(&qid.to_u64().to_be_bytes());
    key[8..].copy_from_slice(&mid.to_bytes());
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use privapprox_types::ids::AnalystId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn qid() -> QueryId {
        QueryId::new(AnalystId(3), 17)
    }

    #[test]
    fn split_combine_round_trip_two_proxies() {
        let mut rng = StdRng::seed_from_u64(1);
        let splitter = XorSplitter::new(2);
        let msg = encode_answer(qid(), &BitVec::one_hot(11, 4));
        let shares = splitter.split(&msg, &mut rng);
        assert_eq!(shares.len(), 2);
        assert_eq!(combine(&shares).unwrap(), msg);
    }

    #[test]
    fn split_combine_round_trip_many_proxies() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in 2..=6 {
            let splitter = XorSplitter::new(n);
            let msg: Vec<u8> = (0..137).map(|i| (i * 7) as u8).collect();
            let shares = splitter.split(&msg, &mut rng);
            assert_eq!(shares.len(), n);
            assert_eq!(combine(&shares).unwrap(), msg, "n = {n}");
        }
    }

    #[test]
    fn combine_is_order_invariant() {
        let mut rng = StdRng::seed_from_u64(3);
        let splitter = XorSplitter::new(4);
        let msg = b"the aggregator cannot identify M_E".to_vec();
        let mut shares = splitter.split(&msg, &mut rng);
        shares.reverse();
        assert_eq!(combine(&shares).unwrap(), msg);
        shares.swap(0, 2);
        assert_eq!(combine(&shares).unwrap(), msg);
    }

    #[test]
    fn single_share_reveals_nothing() {
        // Statistical smoke test of indistinguishability: for a fixed
        // all-zeros message, every individual share should still look
        // uniformly random (≈50 % ones).
        let mut rng = StdRng::seed_from_u64(4);
        let splitter = XorSplitter::new(2);
        let msg = vec![0u8; 1000];
        let mut per_share_ones = [0u64; 2];
        let trials = 200;
        for _ in 0..trials {
            let shares = splitter.split(&msg, &mut rng);
            for (i, s) in shares.iter().enumerate() {
                per_share_ones[i] += s.payload.iter().map(|b| b.count_ones() as u64).sum::<u64>();
            }
        }
        let total_bits = (trials * msg.len() * 8) as f64;
        for (i, ones) in per_share_ones.iter().enumerate() {
            let rate = *ones as f64 / total_bits;
            assert!(
                (rate - 0.5).abs() < 0.005,
                "share {i} bit rate {rate} — pad leaking structure?"
            );
        }
    }

    #[test]
    fn all_shares_carry_the_same_fresh_mid() {
        let mut rng = StdRng::seed_from_u64(5);
        let splitter = XorSplitter::new(3);
        let a = splitter.split(b"x", &mut rng);
        let b = splitter.split(b"x", &mut rng);
        assert!(a.iter().all(|s| s.mid == a[0].mid));
        assert!(b.iter().all(|s| s.mid == b[0].mid));
        assert_ne!(a[0].mid, b[0].mid, "every message gets a fresh MID");
    }

    #[test]
    fn combine_rejects_mixed_ids_and_lengths() {
        let mut rng = StdRng::seed_from_u64(6);
        let splitter = XorSplitter::new(2);
        let mut shares = splitter.split(b"hello", &mut rng);
        let other = splitter.split(b"hello", &mut rng);
        assert_eq!(combine(&[]).unwrap_err(), CombineError::Empty);

        let mut mixed = shares.clone();
        mixed[1] = other[1].clone();
        assert_eq!(combine(&mixed).unwrap_err(), CombineError::MixedIds);

        let mut short = shares[1].payload.to_vec();
        short.pop();
        shares[1].payload = short.into();
        assert_eq!(combine(&shares).unwrap_err(), CombineError::LengthMismatch);
    }

    #[test]
    fn invalidated_scratch_exposes_no_stale_shares() {
        let mut rng = StdRng::seed_from_u64(8);
        let splitter = XorSplitter::new(2);
        let mut scratch = SplitScratch::new();
        splitter.split_into(b"secret", MessageId(1), &mut rng, &mut scratch);
        assert_eq!(scratch.shares().len(), 2);
        scratch.invalidate();
        assert!(
            scratch.shares().is_empty(),
            "stale shares must not be readable after invalidation"
        );
        // A new split re-validates.
        splitter.split_into(b"fresh", MessageId(2), &mut rng, &mut scratch);
        assert_eq!(scratch.shares().len(), 2);
        assert_eq!(combine(scratch.shares()).unwrap(), b"fresh");
    }

    #[test]
    fn answer_codec_round_trips() {
        for buckets in [1usize, 7, 8, 11, 100, 10_000] {
            let v = BitVec::one_hot(buckets, buckets / 2);
            let bytes = encode_answer(qid(), &v);
            assert_eq!(bytes.len(), answer_wire_size(buckets));
            let (q, back) = decode_answer(&bytes).expect("decodes");
            assert_eq!(q, qid());
            assert_eq!(back, v);
        }
    }

    #[test]
    fn decode_rejects_malformed_messages() {
        let good = encode_answer(qid(), &BitVec::one_hot(11, 4));
        // Truncated.
        assert_eq!(decode_answer(&good[..10]), None);
        assert_eq!(decode_answer(&good[..good.len() - 1]), None);
        // Wrong version.
        let mut bad = good.clone();
        bad[0] = 9;
        assert_eq!(decode_answer(&bad), None);
        // Trailing junk.
        let mut long = good.clone();
        long.push(0);
        assert_eq!(decode_answer(&long), None);
        // Zero buckets.
        let mut zero = good.clone();
        zero[9] = 0;
        zero[10] = 0;
        assert_eq!(decode_answer(&zero[..11]), None);
        // Set padding bit beyond bucket 11 (bits 11..16 of 2 bytes).
        let mut pad = good.clone();
        let last = pad.len() - 1;
        pad[last] |= 0b1000_0000;
        assert_eq!(decode_answer(&pad), None);
    }

    #[test]
    fn corrupting_one_share_garbles_the_answer() {
        let mut rng = StdRng::seed_from_u64(7);
        let splitter = XorSplitter::new(2);
        let msg = encode_answer(qid(), &BitVec::one_hot(11, 4));
        let mut shares = splitter.split(&msg, &mut rng);
        let mut corrupt = shares[1].payload.to_vec();
        corrupt[3] ^= 0xFF;
        shares[1].payload = corrupt.into();
        let combined = combine(&shares).unwrap();
        assert_ne!(combined, msg, "corruption must not cancel out");
    }

    #[test]
    #[should_panic(expected = "at least 2 proxies")]
    fn one_proxy_is_rejected() {
        let _ = XorSplitter::new(1);
    }

    #[test]
    fn free_slots_recycle_across_messages() {
        // With no downstream reference pinning them, consecutive
        // splits reuse the same double-buffered allocations: the pool
        // stays at one slot per share index.
        let mut rng = StdRng::seed_from_u64(9);
        let splitter = XorSplitter::new(3);
        let mut scratch = SplitScratch::new();
        splitter.split_into(b"warm-up message", MessageId(1), &mut rng, &mut scratch);
        let ptrs: Vec<*const u8> = scratch
            .shares()
            .iter()
            .map(|s| s.payload.as_ptr())
            .collect();
        for m in 2..20u128 {
            splitter.split_into(b"warm-up message", MessageId(m), &mut rng, &mut scratch);
            let again: Vec<*const u8> = scratch
                .shares()
                .iter()
                .map(|s| s.payload.as_ptr())
                .collect();
            assert_eq!(ptrs, again, "free slots must recycle, not reallocate");
        }
        assert_eq!(scratch.payload_slots(), 3, "one slot per share index");
    }

    #[test]
    fn retained_payloads_are_never_mutated() {
        // A consumer (broker log, pending batch) holding a payload
        // reference pins the slot: the next split builds into another
        // buffer and the retained bytes stay byte-for-byte intact.
        let mut rng = StdRng::seed_from_u64(10);
        let splitter = XorSplitter::new(2);
        let mut scratch = SplitScratch::new();
        splitter.split_into(b"first message!", MessageId(1), &mut rng, &mut scratch);
        let retained: Vec<Arc<[u8]>> = scratch
            .shares()
            .iter()
            .map(|s| Arc::clone(&s.payload))
            .collect();
        let snapshot: Vec<Vec<u8>> = retained.iter().map(|p| p.to_vec()).collect();
        for m in 2..6u128 {
            splitter.split_into(b"later message#", MessageId(m), &mut rng, &mut scratch);
            for (share, held) in scratch.shares().iter().zip(&retained) {
                assert!(
                    !Arc::ptr_eq(&share.payload, held),
                    "a retained slot must not be handed out again"
                );
            }
        }
        for (held, snap) in retained.iter().zip(&snapshot) {
            assert_eq!(&held[..], &snap[..], "retained payload bytes mutated");
        }
        // Dropping the retained references frees the slots; the pool
        // settles back onto them instead of growing further.
        drop(retained);
        let grown = scratch.payload_slots();
        for m in 6..12u128 {
            splitter.split_into(b"later message#", MessageId(m), &mut rng, &mut scratch);
        }
        assert_eq!(scratch.payload_slots(), grown, "pool must plateau once freed");
    }

    #[test]
    fn pool_replaces_slots_when_the_message_width_changes() {
        let mut rng = StdRng::seed_from_u64(11);
        let splitter = XorSplitter::new(2);
        let mut scratch = SplitScratch::new();
        splitter.split_into(&[7u8; 32], MessageId(1), &mut rng, &mut scratch);
        splitter.split_into(&[9u8; 96], MessageId(2), &mut rng, &mut scratch);
        assert!(scratch.shares().iter().all(|s| s.payload.len() == 96));
        assert_eq!(combine(scratch.shares()).unwrap(), vec![9u8; 96]);
    }
}
