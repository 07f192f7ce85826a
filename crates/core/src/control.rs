//! The shard control plane: the commands the supervisor sends an
//! aggregator shard and the replies it gets back.
//!
//! One vocabulary serves both hostings. An in-process shard thread
//! takes [`ShardCmd`]s off a channel; a `privapprox-node` child takes
//! the same commands as `Ctrl` frames and answers with `CtrlReply`
//! frames, encoded here with the store's payload primitives
//! ([`Writer`]/[`Reader`]; layouts in `docs/wire-format.md`). Floats
//! travel as raw IEEE-754 bits and counts as integers, so a window
//! crosses a socket bit for bit. The query codec is also what
//! [`persist`](crate::persist) writes into journal records and
//! snapshots.
//!
//! Every decoder is total: truncated, oversized or out-of-domain
//! input yields a [`StoreError`], never a panic, and a declared count
//! is checked against the bytes that remain **before** anything is
//! allocated for it.

use crate::aggregator::RawWindow;
use privapprox_rr::estimate::BucketEstimator;
use privapprox_store::codec::{Reader, Writer};
use privapprox_store::StoreError;
use privapprox_types::{
    AnswerSpec, BitVec, BucketRule, ExecutionParams, Query, QueryId, Timestamp, Window,
    WindowSpec,
};
use std::sync::Arc;
use std::time::Duration;

/// An epoch close request: "once `expect` answers tagged `epoch` have
/// been decoded, advance the watermark and emit the closed windows".
pub(crate) struct CloseCmd {
    pub epoch: Timestamp,
    /// The epoch's *global* expectation. Host-side: the close policy
    /// runs where the epoch ledger lives, so it does not cross the
    /// wire.
    pub expect: u64,
    pub watermark: Timestamp,
    /// Estimators coming home from a previous epoch's merge.
    /// Host-side: a child keeps its own pool.
    pub recycle: Vec<BucketEstimator>,
}

pub(crate) enum ShardCmd {
    Register {
        query: Arc<Query>,
        params: ExecutionParams,
        population: u64,
        /// Keep this query's decoded answers for batch queries
        /// (historical retention, §3.3.1). In-process only — rejected
        /// for process transport before any command is sent.
        retain: bool,
    },
    Close(CloseCmd),
    /// Historical fetch: return the retained answers of `query`
    /// within `range`. In-process only.
    Fetch { query: QueryId, range: Window },
    /// Health-counter snapshot (no watermark movement).
    Probe,
    /// Chaos hook: panic on receipt.
    Die,
    Shutdown,
}

pub(crate) enum ShardReply {
    Registered,
    /// Retained `(timestamp, MID, randomized answer)` triples for a
    /// [`ShardCmd::Fetch`].
    Stored { answers: Vec<(u64, u128, BitVec)> },
    Closed {
        /// The epoch this close answers.
        epoch: Timestamp,
        /// Answers **this shard** decoded under the closed epoch's
        /// tag. The supervisor sums the replies: a total below the
        /// close's global `expect` is a partial close.
        decoded: u64,
        windows: Vec<RawWindow>,
        /// Cumulative CPU time of the shard's thread (monotone within
        /// one incarnation; the handle adds the respawn base).
        busy: Duration,
    },
    Health {
        /// `(undecodable, unroutable, duplicates, expired_joins)`.
        quad: (u64, u64, u64, u64),
        /// Records quarantined to the dead-letter topic.
        dead_lettered: u64,
        /// Decoded answers dropped behind the watermark.
        late_answers: u64,
        /// Cumulative CPU time.
        busy: Duration,
    },
}

// Leading tag byte of a `Ctrl` / `CtrlReply` payload.
const T_REGISTER: u8 = 1;
const T_CLOSE: u8 = 2;
const T_PROBE: u8 = 3;
const T_REGISTERED: u8 = 1;
const T_CLOSED: u8 = 2;
const T_HEALTH: u8 = 3;

// Leading tag byte of an encoded bucket rule.
const R_RANGE: u8 = 0;
const R_VALUE: u8 = 1;
const R_TEXT: u8 = 2;
const R_LIKE: u8 = 3;

/// Appends a query definition and its execution parameters.
pub(crate) fn put_query(w: &mut Writer, q: &Query, params: ExecutionParams) {
    w.u64(q.id.to_u64())
        .str(&q.sql)
        .u64(q.frequency)
        .u64(q.window.size)
        .u64(q.window.slide)
        .u64(q.signature)
        .u64(q.answer.len() as u64);
    for rule in q.answer.buckets() {
        match rule {
            BucketRule::Range { lo, hi } => w.u8(R_RANGE).f64(*lo).f64(*hi),
            BucketRule::Value(x) => w.u8(R_VALUE).f64(*x),
            BucketRule::Text(s) => w.u8(R_TEXT).str(s),
            BucketRule::Like(s) => w.u8(R_LIKE).str(s),
        };
    }
    w.f64(params.s).f64(params.p).f64(params.q);
}

/// Reads what [`put_query`] wrote, refusing an empty answer spec, a
/// degenerate window and out-of-range parameters.
pub(crate) fn get_query(r: &mut Reader<'_>) -> Result<(Query, ExecutionParams), StoreError> {
    let id = QueryId::from_u64(r.u64()?);
    let sql = r.str()?.to_string();
    let frequency = r.u64()?;
    let window = WindowSpec {
        size: r.u64()?,
        slide: r.u64()?,
    };
    if window.slide == 0 || window.slide > window.size {
        return Err(r.invalid(format!("degenerate window {window:?}")));
    }
    let signature = r.u64()?;
    // The shortest rule is a tag byte plus eight bytes of body.
    let n = r.count(9)?;
    if n == 0 {
        return Err(r.invalid("empty answer spec"));
    }
    let mut rules = Vec::with_capacity(n);
    for _ in 0..n {
        rules.push(match r.u8()? {
            R_RANGE => BucketRule::Range {
                lo: r.f64()?,
                hi: r.f64()?,
            },
            R_VALUE => BucketRule::Value(r.f64()?),
            R_TEXT => BucketRule::Text(r.str()?.to_string()),
            R_LIKE => BucketRule::Like(r.str()?.to_string()),
            other => return Err(r.invalid(format!("unknown bucket rule tag {other}"))),
        });
    }
    let (s, p, q) = (r.f64()?, r.f64()?, r.f64()?);
    let params = ExecutionParams::new(s, p, q)
        .map_err(|e| r.invalid(format!("execution parameters: {e:?}")))?;
    let query = Query {
        id,
        sql,
        answer: AnswerSpec::new(rules),
        frequency,
        window,
        signature,
    };
    Ok((query, params))
}

/// The fewest bytes [`put_window`] writes: six fixed words and a counts
/// block (width byte, length word) of one two-byte count. Bounds a
/// declared window count by the payload that remains.
pub(crate) const MIN_WINDOW_BYTES: usize = 48 + 9 + 2;

/// Appends one window's accumulated counts — a `Closed` reply's window
/// on the socket and the tail of a journal close record's
/// ([`persist`](crate::persist)): the window's identity, the channel
/// `(p, q)`, the answers counted and the per-bucket yes-counts as one
/// width-adaptive block ([`Writer::counts`]).
pub(crate) fn put_window<I>(
    w: &mut Writer,
    query: QueryId,
    window: Window,
    (p, q): (f64, f64),
    total: u64,
    counts: I,
) where
    I: IntoIterator<Item = u64>,
    I::IntoIter: Clone + ExactSizeIterator,
{
    w.u64(query.to_u64())
        .u64(window.start.0)
        .u64(window.end.0)
        .f64(p)
        .f64(q)
        .u64(total)
        .counts(counts);
}

/// Reads what [`put_window`] wrote into an estimator, refusing what
/// [`BucketEstimator::from_raw_parts`] and
/// [`finalize_window_into`](crate::aggregator::finalize_window_into)
/// would assert on: `p` or `q` outside its domain, no buckets, a
/// yes-count above the answers counted. `scratch` holds the decoded
/// counts between windows.
pub(crate) fn get_window(
    r: &mut Reader<'_>,
    scratch: &mut Vec<u64>,
) -> Result<RawWindow, StoreError> {
    let query = QueryId::from_u64(r.u64()?);
    let window = Window {
        start: Timestamp(r.u64()?),
        end: Timestamp(r.u64()?),
    };
    let (p, q, total) = (r.f64()?, r.f64()?, r.u64()?);
    if !(p > 0.0 && p <= 1.0 && q > 0.0 && q < 1.0) {
        return Err(r.invalid(format!("window with p={p}, q={q}")));
    }
    r.counts(scratch)?;
    if let Some(over) = scratch.iter().find(|c| **c > total) {
        return Err(r.invalid(format!("yes-count {over} of {total} answers")));
    }
    Ok(RawWindow {
        query,
        window,
        estimator: BucketEstimator::from_raw_parts(p, q, total, scratch),
    })
}

impl ShardCmd {
    /// The `Ctrl` frame payload of a command that crosses the socket.
    ///
    /// # Panics
    ///
    /// Panics on `Fetch`, `Die` and `Shutdown`: the bridge that hosts a
    /// remote shard acts on those itself (retention is in-process
    /// only), so encoding one is a bug in this program.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            ShardCmd::Register {
                query,
                params,
                population,
                retain: _,
            } => {
                w.u8(T_REGISTER);
                put_query(&mut w, query, *params);
                w.u64(*population);
            }
            ShardCmd::Close(c) => {
                w.u8(T_CLOSE).u64(c.epoch.0).u64(c.watermark.0);
            }
            ShardCmd::Probe => {
                w.u8(T_PROBE);
            }
            ShardCmd::Fetch { .. } | ShardCmd::Die | ShardCmd::Shutdown => {
                unreachable!("host-side command has no wire form")
            }
        }
        w.finish()
    }

    /// Parses a `Ctrl` frame payload.
    pub(crate) fn decode(payload: &[u8]) -> Result<ShardCmd, StoreError> {
        let mut r = Reader::new(payload, "ctrl");
        let cmd = match r.u8()? {
            T_REGISTER => {
                let (query, params) = get_query(&mut r)?;
                ShardCmd::Register {
                    query: Arc::new(query),
                    params,
                    population: r.u64()?,
                    retain: false,
                }
            }
            T_CLOSE => ShardCmd::Close(CloseCmd {
                epoch: Timestamp(r.u64()?),
                expect: 0,
                watermark: Timestamp(r.u64()?),
                recycle: Vec::new(),
            }),
            T_PROBE => ShardCmd::Probe,
            other => return Err(r.invalid(format!("unknown command tag {other}"))),
        };
        r.done()?;
        Ok(cmd)
    }
}

impl ShardReply {
    /// The `CtrlReply` frame payload. Takes `&mut self` because
    /// [`BucketEstimator::raw_parts`] folds pending bit planes before
    /// exposing the exact counts.
    ///
    /// # Panics
    ///
    /// Panics on `Stored`: retention has no wire form.
    pub(crate) fn encode(&mut self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            ShardReply::Registered => {
                w.u8(T_REGISTERED);
            }
            ShardReply::Closed {
                epoch,
                decoded,
                windows,
                busy,
            } => {
                w.u8(T_CLOSED)
                    .u64(epoch.0)
                    .u64(*decoded)
                    .u64(busy.as_nanos() as u64)
                    .u64(windows.len() as u64);
                for win in windows {
                    let (p, q, total, counts) = win.estimator.raw_parts();
                    put_window(
                        &mut w,
                        win.query,
                        win.window,
                        (p, q),
                        total,
                        counts.iter().copied(),
                    );
                }
            }
            ShardReply::Health {
                quad,
                dead_lettered,
                late_answers,
                busy,
            } => {
                w.u8(T_HEALTH)
                    .u64(quad.0)
                    .u64(quad.1)
                    .u64(quad.2)
                    .u64(quad.3)
                    .u64(*dead_lettered)
                    .u64(*late_answers)
                    .u64(busy.as_nanos() as u64);
            }
            ShardReply::Stored { .. } => unreachable!("retention has no wire form"),
        }
        w.finish()
    }

    /// Parses a `CtrlReply` frame payload.
    pub(crate) fn decode(payload: &[u8]) -> Result<ShardReply, StoreError> {
        let mut r = Reader::new(payload, "ctrl reply");
        let reply = match r.u8()? {
            T_REGISTERED => ShardReply::Registered,
            T_CLOSED => {
                let epoch = Timestamp(r.u64()?);
                let decoded = r.u64()?;
                let busy = Duration::from_nanos(r.u64()?);
                let n = r.count(MIN_WINDOW_BYTES)?;
                let mut windows = Vec::with_capacity(n);
                let mut counts = Vec::new();
                for _ in 0..n {
                    windows.push(get_window(&mut r, &mut counts)?);
                }
                ShardReply::Closed {
                    epoch,
                    decoded,
                    windows,
                    busy,
                }
            }
            T_HEALTH => ShardReply::Health {
                quad: (r.u64()?, r.u64()?, r.u64()?, r.u64()?),
                dead_lettered: r.u64()?,
                late_answers: r.u64()?,
                busy: Duration::from_nanos(r.u64()?),
            },
            other => return Err(r.invalid(format!("unknown reply tag {other}"))),
        };
        r.done()?;
        Ok(reply)
    }
}

/// One shard's per-epoch decode counts, with what it has already
/// reported upstream.
///
/// Decoded answers are counted per epoch tag (the answer timestamp);
/// [`EpochTally::publish`] hands each not-yet-reported delta to the
/// global epoch ledger exactly once — directly for an in-process
/// shard, as a `Progress` frame from a child. A bounded scan list, not
/// a map: at most pipeline-depth + 1 epochs are ever live, entries
/// retire when their epoch closes, and the warm list never allocates
/// per message.
#[derive(Default)]
pub(crate) struct EpochTally {
    /// `(epoch, decoded, published)`.
    epochs: Vec<(Timestamp, u64, u64)>,
}

impl EpochTally {
    /// Counts one decode under `epoch`'s tag.
    pub(crate) fn bump(&mut self, epoch: Timestamp) {
        match self.epochs.iter_mut().find(|(t, _, _)| *t == epoch) {
            Some((_, n, _)) => *n += 1,
            None => self.epochs.push((epoch, 1, 0)),
        }
    }

    /// Decodes counted under `epoch`'s tag.
    pub(crate) fn count(&self, epoch: Timestamp) -> u64 {
        self.epochs
            .iter()
            .find(|(t, _, _)| *t == epoch)
            .map_or(0, |(_, n, _)| *n)
    }

    /// Hands `sink` every `(epoch, delta)` counted since the last
    /// publication.
    pub(crate) fn publish(&mut self, mut sink: impl FnMut(Timestamp, u64)) {
        for (epoch, n, published) in &mut self.epochs {
            if *n > *published {
                sink(*epoch, *n - *published);
                *published = *n;
            }
        }
    }

    /// Drops every entry tagged `epoch` or earlier.
    pub(crate) fn retire(&mut self, epoch: Timestamp) {
        self.epochs.retain(|(t, _, _)| *t > epoch);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use privapprox_types::{AnalystId, QueryBuilder};

    /// A query whose answer spec uses all four bucket rules.
    pub(crate) fn sample_query() -> Query {
        QueryBuilder::new(QueryId::new(AnalystId(3), 7), "SELECT speed FROM cars")
            .answer(AnswerSpec::new(vec![
                BucketRule::Value(0.0),
                BucketRule::Range { lo: 0.0, hi: 100.0 },
                BucketRule::Range {
                    lo: 100.0,
                    hi: f64::INFINITY,
                },
                BucketRule::Text("n/a".into()),
                BucketRule::Like("err-%".into()),
            ]))
            .frequency(500)
            .window(2_000, 500)
            .sign_and_build(0xDEAD_BEEF)
    }

    pub(crate) fn sample_register() -> ShardCmd {
        ShardCmd::Register {
            query: Arc::new(sample_query()),
            params: ExecutionParams::checked(0.6, 0.85, 0.3),
            population: 12_345,
            retain: false,
        }
    }

    pub(crate) fn sample_close() -> ShardCmd {
        ShardCmd::Close(CloseCmd {
            epoch: Timestamp(4_000),
            expect: 0,
            watermark: Timestamp(6_000),
            recycle: Vec::new(),
        })
    }

    /// A `Closed` reply of `windows` windows, each an estimator of
    /// `buckets` buckets that has folded 200 two-bit answers.
    pub(crate) fn sample_closed(windows: usize, buckets: usize) -> ShardReply {
        let mut answer = BitVec::zeros(buckets);
        let windows = (0..windows as u64)
            .map(|w| {
                let mut estimator = BucketEstimator::new(buckets, 0.9, 0.55);
                for i in 0..200 {
                    answer.reset(buckets);
                    answer.set((i + w as usize) % buckets, true);
                    answer.set((i * 3) % buckets, true);
                    estimator.push(&answer);
                }
                RawWindow {
                    query: QueryId::new(AnalystId(1), 2),
                    window: Window {
                        start: Timestamp(1_000 * w),
                        end: Timestamp(1_000 * w + 2_000),
                    },
                    estimator,
                }
            })
            .collect();
        ShardReply::Closed {
            epoch: Timestamp(7_000),
            decoded: 200,
            windows,
            busy: Duration::from_nanos(1_234),
        }
    }

    pub(crate) fn sample_health() -> ShardReply {
        ShardReply::Health {
            quad: (1, 2, 3, 4),
            dead_lettered: 5,
            late_answers: 6,
            busy: Duration::from_nanos(7),
        }
    }

    /// Decodes `bytes` as a command or a reply and re-encodes what
    /// came out.
    fn recode(is_cmd: bool, bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
        if is_cmd {
            ShardCmd::decode(bytes).map(|cmd| cmd.encode())
        } else {
            ShardReply::decode(bytes).map(|mut reply| reply.encode())
        }
    }

    /// Every encoded message, damaged every way one byte or one cut
    /// can damage it: a strict prefix is always refused, and a flipped
    /// byte yields an error or a well-formed message (one that
    /// re-encodes to exactly the bytes it was read from) — never a
    /// panic.
    #[test]
    fn hostile_input_is_refused_or_well_formed() {
        let messages = [
            (true, sample_register().encode()),
            (true, sample_close().encode()),
            (true, ShardCmd::Probe.encode()),
            (false, ShardReply::Registered.encode()),
            (false, sample_closed(2, 5).encode()),
            (false, sample_health().encode()),
        ];
        for (is_cmd, bytes) in messages {
            assert_eq!(recode(is_cmd, &bytes).unwrap(), bytes);
            for cut in 0..bytes.len() {
                assert!(recode(is_cmd, &bytes[..cut]).is_err(), "prefix of {cut} bytes");
            }
            let mut damaged = bytes.clone();
            for i in 0..bytes.len() {
                for flip in [0x01, 0x80, 0xFF] {
                    damaged[i] = bytes[i] ^ flip;
                    if let Ok(again) = recode(is_cmd, &damaged) {
                        assert_eq!(again, damaged, "byte {i} ^ {flip:#x}");
                    }
                }
                damaged[i] = bytes[i];
            }
        }
    }

    /// A declared rule or count length the payload cannot hold is
    /// refused before anything is allocated for it (an unchecked
    /// `with_capacity` of these would abort the test).
    #[test]
    fn oversized_declared_lengths_are_refused() {
        let huge = (u64::MAX >> 1).to_le_bytes();
        let mut register = sample_register().encode();
        let rules_at = 1 + 8 + 8 + sample_query().sql.len() + 32;
        register[rules_at..rules_at + 8].copy_from_slice(&huge);
        assert!(ShardCmd::decode(&register).is_err());
        let closed = sample_closed(1, 5).encode();
        // The window count, and the first window's block length (behind
        // six fixed words and the width byte).
        for count_at in [25, 33 + 48 + 1] {
            let mut closed = closed.clone();
            closed[count_at..count_at + 8].copy_from_slice(&huge);
            assert!(ShardReply::decode(&closed).is_err(), "count at {count_at}");
        }
    }

    #[test]
    fn tally_publishes_each_delta_exactly_once() {
        let (a, b) = (Timestamp(500), Timestamp(1_500));
        let mut tally = EpochTally::default();
        let mut ledger: Vec<(Timestamp, u64)> = Vec::new();
        tally.bump(a);
        tally.bump(a);
        tally.bump(b);
        tally.publish(|e, d| ledger.push((e, d)));
        assert_eq!(ledger, vec![(a, 2), (b, 1)]);
        // Nothing new: nothing published.
        tally.publish(|e, d| ledger.push((e, d)));
        assert_eq!(ledger.len(), 2);
        tally.bump(a);
        tally.publish(|e, d| ledger.push((e, d)));
        assert_eq!(ledger[2..], [(a, 1)]);
        assert_eq!((tally.count(a), tally.count(b)), (3, 1));
        // Retiring an epoch drops it and everything older; the rest
        // stays published.
        tally.retire(a);
        assert_eq!((tally.count(a), tally.count(b)), (0, 1));
        tally.publish(|e, d| ledger.push((e, d)));
        assert_eq!(ledger.len(), 3);
        let published: u64 = ledger.iter().map(|(_, d)| d).sum();
        assert_eq!(published, 4, "every decode reported once");
    }
}
