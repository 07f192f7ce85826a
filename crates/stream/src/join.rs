//! The MID-keyed share join (paper §3.2.4, first step).
//!
//! "At the aggregator, all data streams (⟨MID, M_E⟩ and ⟨MID, MKᵢ⟩)
//! are received, and can be joined together … the associated M_E and
//! MKᵢ are paired by using the message identifier MID." The joiner
//! buffers shares until all `n` arrive, then emits the XOR combination.
//! Incomplete groups are evicted after a timeout (a proxy may have
//! dropped a share); groups that receive *more* than `n` shares are
//! flagged — that is the duplicate-answer defence the paper addresses
//! with triple splitting.

use privapprox_types::{words, FastState, MessageId, Timestamp};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Cap on recycled accumulator buffers held for reuse.
const SPARE_BUFFER_CAP: usize = 4096;

/// Outcome of offering one share to the joiner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinOutcome {
    /// Still waiting for more shares of this MID.
    Pending,
    /// All `n` shares arrived: the XOR-combined message.
    Complete(Vec<u8>),
    /// More than `n` shares arrived for this MID — a duplicate or
    /// forgery; the MID is quarantined and the message dropped.
    Duplicate,
    /// Share length differed from earlier shares of the same MID.
    Malformed,
}

struct Pending {
    acc: Vec<u8>,
    /// Bitmask of source (proxy) indices already seen for this MID.
    seen: u64,
    first_seen: Timestamp,
}

/// Joins XOR shares by `(query, message identifier)`.
///
/// Keying on the pair — not the MID alone — is what makes the joiner
/// multi-tenant safe: per-(client, query) RNG streams are seeded from
/// the same material so two concurrent queries draw *identical* MID
/// sequences from each client, and a MID-only join would fuse shares
/// across queries. The query tag comes from the record key's leading
/// 8 bytes (see the aggregator's wire-key layout).
pub struct MidJoiner {
    expected: usize,
    timeout: u64,
    // `FastState`: one lookup per received share, keyed by MIDs drawn
    // from the client RNG — no adversarial key control to defend
    // against, so SipHash is pure overhead here.
    pending: HashMap<(u64, MessageId), Pending, FastState>,
    quarantined: HashMap<(u64, MessageId), Timestamp, FastState>,
    /// Recycled accumulator buffers: evicted groups and buffers handed
    /// back via [`MidJoiner::recycle`] are reused for new groups, so
    /// the steady-state join allocates nothing per message.
    spare: Vec<Vec<u8>>,
    /// Counters for observability/tests.
    completed: u64,
    expired: u64,
    duplicates: u64,
}

impl MidJoiner {
    /// Creates a joiner expecting `n` shares per message, evicting
    /// incomplete groups `timeout_ms` after their first share.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize, timeout_ms: u64) -> MidJoiner {
        assert!(n >= 2, "XOR join needs at least 2 shares");
        MidJoiner {
            expected: n,
            timeout: timeout_ms,
            pending: HashMap::default(),
            quarantined: HashMap::default(),
            spare: Vec::new(),
            completed: 0,
            expired: 0,
            duplicates: 0,
        }
    }

    /// Offers one share of `query`'s message observed at `now` from
    /// proxy stream `source` (`0 ≤ source < n`).
    ///
    /// Provenance matters: a message's shares must arrive one per
    /// proxy, so a second share from the same source under the same
    /// (query, MID) is an adversarial replay and is rejected before it
    /// can XOR-poison the accumulator.
    pub fn offer(
        &mut self,
        query: u64,
        mid: MessageId,
        source: usize,
        payload: &[u8],
        now: Timestamp,
    ) -> JoinOutcome {
        if source >= self.expected {
            return JoinOutcome::Malformed;
        }
        let key = (query, mid);
        if self.quarantined.contains_key(&key) {
            self.duplicates += 1;
            return JoinOutcome::Duplicate;
        }
        let entry = match self.pending.entry(key) {
            Entry::Vacant(slot) => {
                // First share of this MID: seed the accumulator from
                // the payload directly (saves the zero-fill + XOR),
                // reusing a recycled buffer when one is available.
                let mut acc = self.spare.pop().unwrap_or_default();
                acc.clear();
                acc.extend_from_slice(payload);
                slot.insert(Pending {
                    acc,
                    seen: 1 << source,
                    first_seen: now,
                });
                return JoinOutcome::Pending;
            }
            Entry::Occupied(slot) => slot.into_mut(),
        };
        if entry.seen & (1 << source) != 0 {
            self.duplicates += 1;
            return JoinOutcome::Duplicate;
        }
        if entry.acc.len() != payload.len() {
            // Remove the poisoned group entirely.
            if let Some(poisoned) = self.pending.remove(&key) {
                self.recycle(poisoned.acc);
            }
            self.quarantined.insert(key, now);
            return JoinOutcome::Malformed;
        }
        words::xor_into(&mut entry.acc, payload);
        entry.seen |= 1 << source;
        if entry.seen.count_ones() as usize == self.expected {
            let done = self.pending.remove(&key).expect("present");
            self.completed += 1;
            // Remember the key briefly so late duplicates are caught.
            self.quarantined.insert(key, now);
            JoinOutcome::Complete(done.acc)
        } else {
            JoinOutcome::Pending
        }
    }

    /// Hands a completed message's buffer back for reuse by future
    /// groups. Callers that decode [`JoinOutcome::Complete`] payloads
    /// and drop them should recycle instead — it is what keeps the
    /// steady-state join allocation-free.
    pub fn recycle(&mut self, buffer: Vec<u8>) {
        if self.spare.len() < SPARE_BUFFER_CAP {
            self.spare.push(buffer);
        }
    }

    /// Evicts groups whose first share is older than the timeout, and
    /// expires old quarantine entries. Returns the number of pending
    /// groups dropped.
    pub fn sweep(&mut self, now: Timestamp) -> usize {
        let timeout = self.timeout;
        let before = self.pending.len();
        let spare = &mut self.spare;
        self.pending.retain(|_, p| {
            let keep = now.0.saturating_sub(p.first_seen.0) < timeout;
            if !keep && spare.len() < SPARE_BUFFER_CAP {
                spare.push(core::mem::take(&mut p.acc));
            }
            keep
        });
        let dropped = before - self.pending.len();
        self.expired += dropped as u64;
        // Quarantine horizon: 4× the join timeout.
        self.quarantined
            .retain(|_, t| now.0.saturating_sub(t.0) < timeout.saturating_mul(4));
        dropped
    }

    /// Number of messages fully joined so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of pending groups evicted by timeouts.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Number of shares rejected as duplicates.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Current number of incomplete groups (memory watermark).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privapprox_crypto::XorSplitter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ts(v: u64) -> Timestamp {
        Timestamp(v)
    }

    #[test]
    fn joins_two_shares_into_the_message() {
        let mut rng = StdRng::seed_from_u64(1);
        let splitter = XorSplitter::new(2);
        let msg = b"QID+answer".to_vec();
        let shares = splitter.split(&msg, &mut rng);
        let mut joiner = MidJoiner::new(2, 1000);
        assert_eq!(
            joiner.offer(0, shares[0].mid, 0, &shares[0].payload, ts(0)),
            JoinOutcome::Pending
        );
        assert_eq!(
            joiner.offer(0, shares[1].mid, 1, &shares[1].payload, ts(1)),
            JoinOutcome::Complete(msg)
        );
        assert_eq!(joiner.completed(), 1);
    }

    #[test]
    fn join_order_does_not_matter() {
        let mut rng = StdRng::seed_from_u64(2);
        let splitter = XorSplitter::new(3);
        let msg = vec![7u8; 40];
        let shares = splitter.split(&msg, &mut rng);
        let mut joiner = MidJoiner::new(3, 1000);
        assert_eq!(
            joiner.offer(0, shares[2].mid, 2, &shares[2].payload, ts(0)),
            JoinOutcome::Pending
        );
        assert_eq!(
            joiner.offer(0, shares[0].mid, 0, &shares[0].payload, ts(0)),
            JoinOutcome::Pending
        );
        assert_eq!(
            joiner.offer(0, shares[1].mid, 1, &shares[1].payload, ts(0)),
            JoinOutcome::Complete(msg)
        );
    }

    #[test]
    fn interleaved_messages_join_independently() {
        let mut rng = StdRng::seed_from_u64(3);
        let splitter = XorSplitter::new(2);
        let m1 = b"first".to_vec();
        let m2 = b"second!".to_vec();
        let s1 = splitter.split(&m1, &mut rng);
        let s2 = splitter.split(&m2, &mut rng);
        let mut joiner = MidJoiner::new(2, 1000);
        joiner.offer(0, s1[0].mid, 0, &s1[0].payload, ts(0));
        joiner.offer(0, s2[0].mid, 0, &s2[0].payload, ts(0));
        assert_eq!(
            joiner.offer(0, s2[1].mid, 1, &s2[1].payload, ts(1)),
            JoinOutcome::Complete(m2)
        );
        assert_eq!(
            joiner.offer(0, s1[1].mid, 1, &s1[1].payload, ts(1)),
            JoinOutcome::Complete(m1)
        );
    }

    #[test]
    fn extra_share_after_completion_is_a_duplicate() {
        let mut rng = StdRng::seed_from_u64(4);
        let splitter = XorSplitter::new(2);
        let shares = splitter.split(b"msg", &mut rng);
        let mut joiner = MidJoiner::new(2, 1000);
        joiner.offer(0, shares[0].mid, 0, &shares[0].payload, ts(0));
        joiner.offer(0, shares[1].mid, 1, &shares[1].payload, ts(0));
        // A replayed share (adversarial client answering many times).
        assert_eq!(
            joiner.offer(0, shares[0].mid, 0, &shares[0].payload, ts(1)),
            JoinOutcome::Duplicate
        );
        assert_eq!(joiner.duplicates(), 1);
    }

    #[test]
    fn mismatched_lengths_quarantine_the_mid() {
        let mid = MessageId(42);
        let mut joiner = MidJoiner::new(2, 1000);
        assert_eq!(
            joiner.offer(0, mid, 0, &[1, 2, 3], ts(0)),
            JoinOutcome::Pending
        );
        assert_eq!(
            joiner.offer(0, mid, 1, &[1, 2], ts(0)),
            JoinOutcome::Malformed
        );
        // Subsequent shares with that MID are rejected too.
        assert_eq!(
            joiner.offer(0, mid, 0, &[9, 9, 9], ts(1)),
            JoinOutcome::Duplicate
        );
    }

    #[test]
    fn sweep_evicts_stale_groups() {
        let mut joiner = MidJoiner::new(2, 100);
        joiner.offer(0, MessageId(1), 0, &[1], ts(0));
        joiner.offer(0, MessageId(2), 0, &[2], ts(90));
        assert_eq!(joiner.pending_len(), 2);
        let dropped = joiner.sweep(ts(150));
        assert_eq!(dropped, 1, "only the old group expires");
        assert_eq!(joiner.pending_len(), 1);
        assert_eq!(joiner.expired(), 1);
        // The evicted message can never complete now.
        assert_eq!(
            joiner.offer(0, MessageId(1), 0, &[1], ts(151)),
            JoinOutcome::Pending
        );
    }

    #[test]
    fn quarantine_expires_eventually() {
        let mut joiner = MidJoiner::new(2, 100);
        let mid = MessageId(7);
        joiner.offer(0, mid, 0, &[1], ts(0));
        joiner.offer(0, mid, 1, &[1], ts(0)); // completes (XOR = 0)
        assert_eq!(joiner.offer(0, mid, 0, &[1], ts(1)), JoinOutcome::Duplicate);
        // After 4× timeout the quarantine entry ages out.
        joiner.sweep(ts(500));
        assert_eq!(joiner.offer(0, mid, 0, &[1], ts(501)), JoinOutcome::Pending);
    }

    #[test]
    fn identical_mids_under_distinct_queries_join_independently() {
        // Concurrent queries draw identical MID sequences from each
        // client (same-seed per-query RNG streams), so the joiner must
        // treat (q, mid) — not mid — as the join key.
        let mid = MessageId(0xDEAD_BEEF);
        let mut joiner = MidJoiner::new(2, 1000);
        assert_eq!(
            joiner.offer(1, mid, 0, &[0xAA], ts(0)),
            JoinOutcome::Pending
        );
        assert_eq!(
            joiner.offer(2, mid, 0, &[0x55], ts(0)),
            JoinOutcome::Pending
        );
        assert_eq!(
            joiner.offer(1, mid, 1, &[0x0F], ts(1)),
            JoinOutcome::Complete(vec![0xAA ^ 0x0F])
        );
        assert_eq!(
            joiner.offer(2, mid, 1, &[0xF0], ts(1)),
            JoinOutcome::Complete(vec![0x55 ^ 0xF0])
        );
        assert_eq!(joiner.completed(), 2);
        assert_eq!(joiner.duplicates(), 0);
        // Completion quarantine is also per-query: query 3 may still
        // open a fresh group under the same MID.
        assert_eq!(joiner.offer(3, mid, 0, &[1], ts(2)), JoinOutcome::Pending);
        assert_eq!(joiner.offer(1, mid, 0, &[1], ts(2)), JoinOutcome::Duplicate);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_share_join_rejected() {
        let _ = MidJoiner::new(1, 100);
    }
}
