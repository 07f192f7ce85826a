//! The PrivApprox aggregator (paper §3.2.4, Figure 3 right).
//!
//! The aggregator consumes every proxy's output stream, joins shares
//! by MID, XOR-decodes the randomized answers, assigns them to sliding
//! windows, and at each window close inverts the randomization
//! (Equation 5), scales by the inverse sampling fraction (Equation 2),
//! and attaches a confidence interval whose half-width sums the two
//! independent error sources — sampling (Equations 3–4) and
//! randomized response — exactly as §3.2.4 prescribes.

use privapprox_crypto::xor::decode_answer_into;
use privapprox_rr::estimate::{estimate_true_yes, rr_estimator_variance, BucketEstimator};
use privapprox_rr::privacy::PrivacyReport;
use privapprox_rr::randomize::Randomizer;
use privapprox_sampling::srs::ParticipationCoin;
use privapprox_stats::estimate::ConfidenceInterval;
use privapprox_stats::normal::normal_quantile;
use privapprox_stats::tdist::t_critical;
use privapprox_stream::broker::{Broker, Consumer, TopicWriter};
use privapprox_stream::join::{JoinOutcome, MidJoiner};
use privapprox_stream::window::WindowedFold;
use privapprox_stream::EventCount;
use privapprox_types::ids::AnalystId;
use privapprox_types::{BitVec, ExecutionParams, MessageId, QueryId, Timestamp, Window};
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Default join timeout: shares split across proxies should arrive
/// within this many milliseconds of each other.
pub const JOIN_TIMEOUT_MS: u64 = 30_000;

/// Per-bucket output of one window.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketResult {
    /// Raw randomized "Yes" count `R_y` observed in the window.
    pub raw_yes: u64,
    /// Equation 5 estimate of truthful yeses within the sample.
    pub estimate_sample: f64,
    /// Population-scaled estimate (Equation 2): `(U/U′)·E_y`.
    pub estimate: f64,
    /// `estimate ± bound` at the configured confidence, with the bound
    /// summing the sampling and randomization error components.
    pub ci: ConfidenceInterval,
    /// The sampling component of the bound (diagnostics; Figure 4b).
    pub sampling_error: f64,
    /// The randomized-response component of the bound.
    pub rr_error: f64,
}

/// One window's query result delivered to the analyst.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Which query.
    pub query: QueryId,
    /// The event-time window.
    pub window: Window,
    /// Answers aggregated in this window (`U′`).
    pub sample_size: u64,
    /// Subscribed population (`U`).
    pub population: u64,
    /// Per-bucket estimates.
    pub buckets: Vec<BucketResult>,
    /// The privacy levels the parameters guarantee.
    pub privacy: PrivacyReport,
}

impl QueryResult {
    /// The estimated fraction of the population per bucket (clamped
    /// to `[0, 1]` for presentation).
    pub fn fractions(&self) -> Vec<f64> {
        if self.population == 0 {
            return vec![0.0; self.buckets.len()];
        }
        self.buckets
            .iter()
            .map(|b| (b.estimate / self.population as f64).clamp(0.0, 1.0))
            .collect()
    }

    /// The widest relative confidence bound across buckets, used by
    /// the adaptive feedback loop.
    pub fn worst_relative_bound(&self) -> f64 {
        self.buckets
            .iter()
            .map(|b| b.ci.relative_bound())
            .fold(0.0, f64::max)
    }
}

type BoxedInit = Box<dyn Fn() -> BucketEstimator + Send>;
type BoxedFold = Box<dyn Fn(&mut BucketEstimator, &BitVec) + Send>;

/// A shared pool of recycled [`BucketEstimator`]s keyed by bucket
/// count. Every window *open* takes a warm estimator (resetting its
/// counts in place) instead of allocating `vec![0; buckets]`, and
/// every window *close* returns it after finalization — in steady
/// state the open/close cycle touches the heap not at all. The pool
/// is shared across every query registered on one aggregator, so
/// same-width queries amortize each other's windows.
type EstimatorPool = Arc<Mutex<HashMap<usize, Vec<BucketEstimator>>>>;

struct QueryState {
    params: ExecutionParams,
    population: u64,
    buckets: usize,
    windows: WindowedFold<BitVec, BucketEstimator, BoxedInit, BoxedFold>,
}

/// The aggregation endpoint.
///
/// Its input is a type parameter: the default, [`Consumer`], is the
/// `"aggregator"`-group consumer over every proxy's output topic that
/// [`Aggregator::new`] joins and the `pump*` methods drain. A shard
/// child's aggregator has no broker behind it (its input is `()`):
/// the child hands it each share it walks off a proxy link.
pub struct Aggregator<In = Consumer> {
    input: In,
    joiner: MidJoiner,
    queries: HashMap<QueryId, QueryState>,
    confidence: f64,
    /// Scratch `BitVec` every joined message decodes into; windows
    /// fold it by reference, so the steady-state drain loop performs
    /// no per-message allocation.
    answer_scratch: BitVec,
    /// Recycled estimators, shared with every query's window-open
    /// closure.
    estimator_pool: EstimatorPool,
    /// Scratch buffer closed windows drain into before finalization.
    closed_scratch: Vec<(Window, BucketEstimator)>,
    /// The consumer's reused poll batch (empty without a consumer):
    /// the drain loop performs no per-batch (let alone per-record)
    /// allocation in the broker hop — records are refcount clones, and
    /// the record's topic **index** is its source for the joiner's
    /// provenance tracking (the consumer subscribes to proxy outputs
    /// in proxy order).
    batch: Vec<(u32, u32, privapprox_stream::broker::Record)>,
    /// Recycled [`QueryResult`] shells (their `buckets` vectors keep
    /// their capacity), refilled by [`Aggregator::recycle_results`].
    spare_results: Vec<QueryResult>,
    /// Records that failed decode (malformed / corrupt shares).
    undecodable: u64,
    /// Decoded answers for unregistered queries.
    unroutable: u64,
    /// Quarantine sink for undecodable / unroutable records; when
    /// set, poisoned input is preserved for post-mortem instead of
    /// silently dropped.
    dead_letter: Option<TopicWriter>,
}

impl Aggregator {
    /// Creates an aggregator consuming `n_proxies` proxy output
    /// topics on the broker, reporting intervals at `confidence`.
    pub fn new(broker: &Broker, n_proxies: usize, confidence: f64) -> Aggregator {
        let topics: Vec<String> = (0..n_proxies)
            .map(|i| crate::proxy::outbound_topic(privapprox_types::ProxyId(i as u16)))
            .collect();
        let topic_refs: Vec<&str> = topics.iter().map(|s| s.as_str()).collect();
        // Subscribed in proxy order, so a record's topic index in the
        // poll batch *is* its source proxy index.
        let consumer = broker.consumer("aggregator", &topic_refs);
        Aggregator::with_input(consumer, n_proxies, confidence)
    }

    /// Drains available proxy records, joining and decoding shares and
    /// feeding decoded answers into their query windows. Returns the
    /// number of fully decoded answers processed.
    pub fn pump(&mut self) -> u64 {
        self.pump_with(|_, _, _, _| {})
    }

    /// [`Aggregator::pump`] that parks instead of returning when the
    /// proxy streams are momentarily empty: blocks up to `timeout`
    /// for the first record (or a control wake), then drains
    /// everything available. Returns the number of fully decoded
    /// answers (`0` = nothing arrived). The loop of a plain aggregator
    /// *thread*; one that also serves a command queue reads a token
    /// from [`Aggregator::wake`] first and parks on it itself.
    pub fn pump_blocking(&mut self, timeout: std::time::Duration) -> u64 {
        if self
            .input
            .poll_blocking_into(2048, timeout, &mut self.batch)
            == 0
        {
            return 0;
        }
        self.pump()
    }

    /// The event count the aggregator's consumer is woken through: a
    /// record on any proxy stream, or a control wake
    /// ([`Broker::notify_topic`](privapprox_stream::broker::Broker::notify_topic)).
    pub fn wake(&self) -> &Arc<EventCount> {
        self.input.wake()
    }

    /// [`Aggregator::pump`] with a tee: every decoded answer is also
    /// handed to `tee` (used to feed the historical warehouse of
    /// §3.3.1 without a second decode pass). Joins each record of the
    /// pending poll batch, then polls the next, until the streams are
    /// empty.
    pub fn pump_with<F>(&mut self, mut tee: F) -> u64
    where
        F: FnMut(QueryId, Timestamp, MessageId, &BitVec),
    {
        // Moved out so its records can be read while `offer` borrows
        // `self`; moved back (no realloc) at the end.
        let mut batch = std::mem::take(&mut self.batch);
        let mut decoded = 0;
        loop {
            for (source, partition, r) in batch.drain(..) {
                let (source, partition) = (source as usize, partition as usize);
                let key = r.key.as_deref();
                decoded +=
                    u64::from(self.offer(source, partition, key, &r.value, r.timestamp, &mut tee));
            }
            if self.input.poll_into(2048, &mut batch) == 0 {
                break;
            }
        }
        self.batch = batch;
        decoded
    }
}

impl Aggregator<()> {
    /// Creates an aggregator with no broker behind it, joining shares
    /// from `n_proxies` proxies and reporting intervals at
    /// `confidence`: its caller hands it every share through
    /// [`Aggregator::offer`].
    pub(crate) fn detached(n_proxies: usize, confidence: f64) -> Aggregator<()> {
        Aggregator::with_input((), n_proxies, confidence)
    }
}

impl<In> Aggregator<In> {
    fn with_input(input: In, n_proxies: usize, confidence: f64) -> Aggregator<In> {
        assert!(n_proxies >= 2, "PrivApprox requires at least two proxies");
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1)"
        );
        Aggregator {
            input,
            joiner: MidJoiner::new(n_proxies, JOIN_TIMEOUT_MS),
            queries: HashMap::new(),
            confidence,
            answer_scratch: BitVec::zeros(0),
            estimator_pool: Arc::new(Mutex::new(HashMap::new())),
            closed_scratch: Vec::new(),
            batch: Vec::new(),
            spare_results: Vec::new(),
            undecodable: 0,
            unroutable: 0,
            dead_letter: None,
        }
    }

    /// Routes undecodable / unroutable records to a quarantine topic
    /// instead of dropping them. The writer's topic must have at
    /// least as many partitions as the proxy output topics; writes
    /// preserve the original key, payload and timestamp.
    pub fn set_dead_letter(&mut self, writer: TopicWriter) {
        self.dead_letter = Some(writer);
    }

    /// Registers a query so its answers can be windowed and estimated.
    pub fn register_query(
        &mut self,
        query: &privapprox_types::Query,
        params: ExecutionParams,
        population: u64,
    ) {
        let buckets = query.answer.len();
        let init: BoxedInit = {
            let (p, q) = (params.p.min(1.0), params.q);
            let pool = Arc::clone(&self.estimator_pool);
            Box::new(move || {
                // Window open: recycle a same-width estimator when the
                // pool has one, allocate only on a cold pool.
                match pool
                    .lock()
                    .expect("pool lock")
                    .get_mut(&buckets)
                    .and_then(Vec::pop)
                {
                    Some(mut est) => {
                        est.reset(p, q);
                        est
                    }
                    None => BucketEstimator::new(buckets, p, q),
                }
            })
        };
        let fold: BoxedFold = Box::new(move |est, v| est.push(v));
        self.queries.insert(
            query.id,
            QueryState {
                params,
                population,
                buckets,
                windows: WindowedFold::new(query.window, 0, init, fold),
            },
        );
    }

    /// Joins one share: `source` is the index of the proxy it came
    /// through, `partition` the stream partition it came on, `key` its
    /// wire key. When it completes its message, the answer is decoded,
    /// handed to `tee` and folded into its query's window, and `offer`
    /// returns `true`. Poisoned input is counted — and, with a
    /// dead-letter sink, quarantined — never fatal.
    pub(crate) fn offer(
        &mut self,
        source: usize,
        partition: usize,
        key: Option<&[u8]>,
        value: &[u8],
        ts: Timestamp,
        mut tee: impl FnMut(QueryId, Timestamp, MessageId, &BitVec),
    ) -> bool {
        // Wire key layout (24 bytes): query tag (u64 BE) ‖ MID
        // (16 bytes). The tag routes shares to per-(query, shard)
        // join state *before* decode — concurrent queries draw
        // identical MID sequences per client (same-seed streams),
        // so a MID-only join would fuse shares across queries.
        let Some((qtag, mid)) = key.and_then(|k| {
            let k = <[u8; 24]>::try_from(k).ok()?;
            let qtag = u64::from_be_bytes(k[..8].try_into().expect("8-byte slice"));
            let mid = MessageId::from_bytes(k[8..].try_into().expect("16-byte slice"));
            Some((qtag, mid))
        }) else {
            self.undecodable += 1;
            self.quarantine(partition, key, value, ts);
            return false;
        };
        // Pending, duplicate and malformed shares wait or drop in the
        // joiner.
        let JoinOutcome::Complete(message) = self.joiner.offer(qtag, mid, source, value, ts) else {
            return false;
        };
        // Decode into the scratch vector and fold it by reference; the
        // joined buffer goes back to the joiner's pool. Nothing is
        // allocated per message once the scratch buffers are warm.
        let answer = &mut self.answer_scratch;
        let mut decoded = false;
        match decode_answer_into(&message, answer) {
            None => self.undecodable += 1,
            // A decoded QID that disagrees with the key's query tag
            // means the share was routed under the wrong join key —
            // corrupt, not merely unregistered.
            Some(qid) if qid.to_u64() != qtag => self.undecodable += 1,
            Some(qid) => match self.queries.get_mut(&qid) {
                None => self.unroutable += 1,
                Some(state) if answer.len() == state.buckets => {
                    tee(qid, ts, mid, answer);
                    state.windows.push(ts, answer);
                    decoded = true;
                }
                Some(_) => self.undecodable += 1,
            },
        }
        self.joiner.recycle(message);
        if !decoded {
            // Quarantine the share that completed the poisoned join —
            // enough to recover the MID and inspect the payload
            // post-mortem.
            self.quarantine(partition, key, value, ts);
        }
        decoded
    }

    /// Keeps a copy of a poisoned share on the dead-letter sink, if
    /// one is set.
    fn quarantine(&self, partition: usize, key: Option<&[u8]>, value: &[u8], ts: Timestamp) {
        if let Some(w) = &self.dead_letter {
            w.send_to(partition, key.map(Arc::from), value, ts);
        }
    }

    /// Advances event time, sweeping the joiner and emitting results
    /// for every window that closed.
    ///
    /// Allocating wrapper over
    /// [`Aggregator::advance_watermark_into`]; the returned results
    /// leave the shell pool for good, so steady-state callers should
    /// prefer the `_into` form plus [`Aggregator::recycle_results`].
    pub fn advance_watermark(&mut self, to: Timestamp) -> Vec<QueryResult> {
        let mut out = Vec::new();
        self.advance_watermark_into(to, &mut out);
        out
    }

    /// Advances event time, sweeping the joiner and *appending* a
    /// result for every window that closed to `out` (in window-start
    /// order, ties broken by query id).
    ///
    /// This is the allocation-free half of the window lifecycle: the
    /// closed windows drain into a reused scratch buffer, each
    /// estimator is finalized into a recycled [`QueryResult`] shell
    /// (its `buckets` vector keeps its capacity) and then returned to
    /// the estimator pool for the next window open. Once the pools
    /// are warm — after one full window cycle per registered query —
    /// a window close performs zero heap allocations (see
    /// `tests/alloc_steady_state.rs`).
    pub fn advance_watermark_into(&mut self, to: Timestamp, out: &mut Vec<QueryResult>) {
        self.joiner.sweep(to);
        let confidence = self.confidence;
        let start_len = out.len();
        for (qid, state) in self.queries.iter_mut() {
            state
                .windows
                .advance_watermark_into(to, &mut self.closed_scratch);
            for (window, mut est) in self.closed_scratch.drain(..) {
                let mut result = self.spare_results.pop().unwrap_or_else(result_shell);
                finalize_window_into(
                    &mut result,
                    *qid,
                    window,
                    &mut est,
                    state.params,
                    state.population,
                    confidence,
                );
                out.push(result);
                // Window close complete: the estimator goes back to
                // the pool for the next open of this width.
                self.estimator_pool
                    .lock()
                    .expect("pool lock")
                    .entry(est.buckets())
                    .or_default()
                    .push(est);
            }
        }
        out[start_len..].sort_unstable_by_key(|r| (r.window.start, r.query.to_u64()));
    }

    /// Returns consumed results to the shell pool so their buffers
    /// can back future window closes. Callers running the
    /// steady-state loop pair every [`Aggregator::advance_watermark_into`]
    /// with one `recycle_results` after reading the batch.
    pub fn recycle_results(&mut self, consumed: &mut Vec<QueryResult>) {
        self.spare_results.append(consumed);
    }

    /// Advances event time like
    /// [`Aggregator::advance_watermark_into`], but emits each closed
    /// window's **raw accumulated counts** instead of finalized
    /// estimates — the shard-local half of a sharded deployment:
    /// every shard closes its windows raw, a merge step sums the
    /// counts across shards ([`privapprox_rr::estimate::BucketEstimator::merge`])
    /// and [`finalize_window_into`] turns the merged counts into the
    /// *same* `QueryResult` a single aggregator would have produced
    /// (estimation is a pure function of the counts).
    ///
    /// The emitted estimators leave this aggregator's pool; return
    /// them with [`Aggregator::release_estimator`] once merged so the
    /// per-shard steady state stays allocation-free. Output is
    /// appended in (window start, query id) order.
    pub fn advance_watermark_raw_into(&mut self, to: Timestamp, out: &mut Vec<RawWindow>) {
        self.joiner.sweep(to);
        let start_len = out.len();
        for (qid, state) in self.queries.iter_mut() {
            state
                .windows
                .advance_watermark_into(to, &mut self.closed_scratch);
            for (window, est) in self.closed_scratch.drain(..) {
                out.push(RawWindow {
                    query: *qid,
                    window,
                    estimator: est,
                });
            }
        }
        out[start_len..].sort_unstable_by_key(|r| (r.window.start, r.query.to_u64()));
    }

    /// Returns an estimator to the open-window pool — the raw-window
    /// counterpart of the recycling
    /// [`Aggregator::advance_watermark_into`] performs internally.
    /// Estimators are interchangeable within a bucket width, so a
    /// merge step may hand back any same-width estimator, not
    /// necessarily the exact instance this aggregator emitted.
    pub fn release_estimator(&mut self, est: BucketEstimator) {
        self.estimator_pool
            .lock()
            .expect("pool lock")
            .entry(est.buckets())
            .or_default()
            .push(est);
    }

    /// Count of records that failed share/answer decoding.
    pub fn undecodable(&self) -> u64 {
        self.undecodable
    }

    /// Count of decoded answers with no registered query.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Shares quarantined as poisoned: every undecodable or
    /// unroutable one, whether or not a dead-letter sink
    /// ([`Aggregator::set_dead_letter`]) keeps a copy.
    pub fn dead_lettered(&self) -> u64 {
        self.undecodable + self.unroutable
    }

    /// Decoded answers that arrived behind the watermark and were
    /// dropped by window assignment, summed over registered queries.
    pub fn late_events(&self) -> u64 {
        self.queries.values().map(|s| s.windows.late_events()).sum()
    }

    /// Joiner-level duplicate rejections (adversarial repeats).
    pub fn duplicates(&self) -> u64 {
        self.joiner.duplicates()
    }

    /// Incomplete share groups evicted so far.
    pub fn expired_joins(&self) -> u64 {
        self.joiner.expired()
    }
}

/// One shard-local closed window *before* estimation: the query it
/// belongs to, its event-time bounds, and the accumulated randomized
/// counts. Produced by [`Aggregator::advance_watermark_raw_into`];
/// consumed by a cross-shard merge that sums sibling counts and
/// finalizes once via [`finalize_window_into`].
#[derive(Debug)]
pub struct RawWindow {
    /// Which query the window belongs to.
    pub query: QueryId,
    /// The event-time window.
    pub window: Window,
    /// The shard-local accumulated counts.
    pub estimator: BucketEstimator,
}

/// A blank [`QueryResult`] shell for the recycling pool; every field
/// is overwritten by [`finalize_window_into`].
fn result_shell() -> QueryResult {
    QueryResult {
        query: QueryId::new(AnalystId(0), 0),
        window: Window::of(Timestamp(0), 0),
        sample_size: 0,
        population: 0,
        buckets: Vec::new(),
        privacy: PrivacyReport::for_params(1.0, 0.9, 0.5),
    }
}

impl QueryResult {
    /// A blank shell for recycling pools: every field is overwritten
    /// by [`finalize_window_into`], and the `buckets` vector keeps
    /// whatever capacity it accumulates across reuses. Merge steps
    /// outside the aggregator (the sharded deployment's result
    /// assembly) pool these the same way the aggregator pools its
    /// internal shells.
    pub fn shell() -> QueryResult {
        result_shell()
    }
}

/// Writes a closed window's accumulated counts into a recycled
/// [`QueryResult`] shell (the `buckets` vector keeps its capacity
/// across windows).
///
/// Estimation (Equations 2–5 plus both error bounds) is a **pure
/// function** of the accumulated counts and the query's parameters —
/// which is the keystone of sharded-vs-single-threaded equivalence:
/// summing shard-local counts and finalizing once is bit-identical to
/// finalizing a single aggregator's counts, so `ShardedSystem` calls
/// this exact function over merged [`RawWindow`]s.
pub fn finalize_window_into(
    out: &mut QueryResult,
    query: QueryId,
    window: Window,
    est: &mut BucketEstimator,
    params: ExecutionParams,
    population: u64,
    confidence: f64,
) {
    let n = est.total();
    let u = population as f64;
    let scale = if n > 0 { u / n as f64 } else { 0.0 };
    let z = normal_quantile(1.0 - (1.0 - confidence) / 2.0);
    // The Student-t critical value depends only on (confidence, n),
    // both fixed for the whole window — hoisted out of the per-bucket
    // loop because its root-finding is the single most expensive step
    // of a close at wide answers (a 10⁴-bucket window close dropped
    // from ~hundreds of ms to sub-ms when this stopped being
    // re-derived per bucket).
    let t_crit = if n >= 2 && n < population {
        t_critical(confidence, (n - 1) as f64)
    } else {
        0.0
    };
    out.query = query;
    out.window = window;
    out.sample_size = n;
    out.population = population;
    out.privacy = PrivacyReport::for_params(params.s, params.p, params.q);
    out.buckets.clear();
    out.buckets.extend(est.raw_counts().iter().map(|&ry| {
        let e_sample = if n > 0 {
            if params.p >= 1.0 {
                ry as f64
            } else {
                estimate_true_yes(ry, n, params.p, params.q)
            }
        } else {
            0.0
        };
        let estimate = e_sample * scale;
        // Randomization error: normal bound on Eq 5's variance,
        // scaled to the population like the estimate itself.
        let rr_error = if n > 0 && params.p < 1.0 {
            z * rr_estimator_variance(ry, n, params.p).sqrt() * scale
        } else {
            0.0
        };
        // Sampling error: Equations 3–4 with the Bernoulli
        // plug-in variance of the estimated truthful rate.
        let sampling_error = if n >= 2 && n < population {
            let r = (e_sample / n as f64).clamp(0.0, 1.0);
            let sigma2 = r * (1.0 - r) * n as f64 / (n as f64 - 1.0);
            let var = u * u / n as f64 * sigma2 * ((u - n as f64).max(0.0) / u);
            t_crit * var.sqrt()
        } else if n < 2 && population > 0 {
            f64::INFINITY
        } else {
            0.0
        };
        BucketResult {
            raw_yes: ry,
            estimate_sample: e_sample,
            estimate,
            ci: ConfidenceInterval {
                estimate,
                bound: sampling_error + rr_error,
                confidence,
            },
            sampling_error,
            rr_error,
        }
    }));
}

/// Empirically calibrates the accuracy loss of the randomized-response
/// stage, as §3.2.4 prescribes: "we run several micro-benchmarks at
/// the beginning of the query answering process (without performing
/// the sampling process) to estimate the accuracy loss caused by
/// randomized response."
///
/// Returns the mean relative loss η over `trials` synthetic runs of
/// `n` answers with the hinted yes-rate.
pub fn calibrate_rr_loss<R: Rng + ?Sized>(
    p: f64,
    q: f64,
    n: u64,
    yes_rate_hint: f64,
    trials: u32,
    rng: &mut R,
) -> f64 {
    assert!(trials > 0 && n > 0);
    if p >= 1.0 {
        return 0.0;
    }
    let randomizer = Randomizer::new(p, q);
    let ay = (yes_rate_hint * n as f64).round().max(1.0) as u64;
    let mut total = 0.0;
    for _ in 0..trials {
        let ry = (0..n)
            .filter(|&i| randomizer.randomize_bit(i < ay, rng))
            .count() as u64;
        let ey = estimate_true_yes(ry, n, p, q);
        total += ((ey - ay as f64) / ay as f64).abs();
    }
    total / trials as f64
}

/// Convenience used by benches: the expected number of participants
/// when `population` clients each flip a coin with bias `s`.
pub fn expected_sample_size(population: u64, s: f64) -> u64 {
    let _ = ParticipationCoin::new(s); // range validation
    (population as f64 * s).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proxy::{inbound_topic, Proxy};
    use privapprox_crypto::xor::wire_key;
    use privapprox_sql::{ColumnType, Schema, Value};
    use privapprox_types::ids::AnalystId;
    use privapprox_types::{AnswerSpec, ClientId, ProxyId, Query, QueryBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const KEY: u64 = 0xBEE;

    fn test_query(window_ms: u64) -> Query {
        QueryBuilder::new(QueryId::new(AnalystId(9), 1), "SELECT v FROM data")
            .answer(AnswerSpec::ranges_with_overflow(0.0, 10.0, 10))
            .window(window_ms, window_ms)
            .sign_and_build(KEY)
    }

    fn make_client(i: u64, value: f64) -> Client {
        let mut c = Client::new(ClientId(i), 1000 + i, KEY);
        c.db_mut()
            .create_table("data", Schema::new(vec![("v", ColumnType::Float)]));
        c.db_mut()
            .insert("data", vec![Value::Float(value)])
            .unwrap();
        c
    }

    /// Runs `population` clients through proxies into the aggregator
    /// within one window; returns the emitted result.
    fn run_once(params: ExecutionParams, population: u64) -> QueryResult {
        let broker = privapprox_stream::broker::Broker::new(2);
        let query = test_query(1_000);
        let producer = broker.producer();
        let mut proxies: Vec<Proxy> = (0..2).map(|i| Proxy::new(ProxyId(i), &broker)).collect();
        let mut agg = Aggregator::new(&broker, 2, 0.95);
        agg.register_query(&query, params, population);

        for i in 0..population {
            // Half the clients hold value 2.5 (bucket 2), half 7.5
            // (bucket 7).
            let value = if i % 2 == 0 { 2.5 } else { 7.5 };
            let mut client = make_client(i, value);
            let answer = client.answer_query(&query, &params, Timestamp(500), 2);
            if let Some(answer) = answer.unwrap() {
                for (pi, share) in answer.shares.iter().enumerate() {
                    producer.send(
                        &inbound_topic(ProxyId(pi as u16)),
                        Some(wire_key(query.id, share.mid).to_vec()),
                        &share.payload[..],
                        Timestamp(500),
                    );
                }
            }
        }
        for p in &mut proxies {
            p.pump();
        }
        agg.pump();
        let mut results = agg.advance_watermark(Timestamp(2_000));
        assert_eq!(results.len(), 1, "exactly one window should close");
        results.pop().unwrap()
    }

    #[test]
    fn exact_mode_recovers_the_histogram() {
        // s = 1, p = 1: no approximation at all — counts are exact.
        let result = run_once(ExecutionParams::checked(1.0, 1.0, 0.5), 100);
        assert_eq!(result.sample_size, 100);
        assert_eq!(result.buckets[2].raw_yes, 50);
        assert_eq!(result.buckets[7].raw_yes, 50);
        assert_eq!(result.buckets[2].estimate, 50.0);
        assert_eq!(result.buckets[0].estimate, 0.0);
        assert_eq!(result.buckets[2].ci.bound, 0.0, "census + truth = exact");
        assert!(result.privacy.eps_zk.is_infinite(), "p = 1 has no privacy");
    }

    #[test]
    fn randomized_mode_estimates_within_tolerance() {
        let result = run_once(ExecutionParams::checked(1.0, 0.8, 0.5), 2_000);
        assert_eq!(result.sample_size, 2_000);
        let est2 = result.buckets[2].estimate;
        let est7 = result.buckets[7].estimate;
        assert!((est2 - 1_000.0).abs() < 120.0, "bucket2 {est2}");
        assert!((est7 - 1_000.0).abs() < 120.0, "bucket7 {est7}");
        // Empty buckets estimate near zero.
        assert!(result.buckets[0].estimate.abs() < 120.0);
        // CI bounds are positive and finite, and the truth is inside.
        assert!(result.buckets[2].ci.bound.is_finite());
        assert!(result.buckets[2].ci.contains(1_000.0));
        assert!(result.privacy.eps_zk.is_finite());
    }

    #[test]
    fn sampled_mode_scales_to_the_population() {
        let result = run_once(ExecutionParams::checked(0.5, 1.0, 0.5), 2_000);
        // About half participate.
        assert!(
            (result.sample_size as f64 - 1_000.0).abs() < 150.0,
            "sample {}",
            result.sample_size
        );
        // Estimates scale back to the full population.
        let est2 = result.buckets[2].estimate;
        assert!((est2 - 1_000.0).abs() < 150.0, "bucket2 {est2}");
        // Sampling error is the only component.
        assert!(result.buckets[2].sampling_error > 0.0);
        assert_eq!(result.buckets[2].rr_error, 0.0);
    }

    #[test]
    fn combined_mode_sums_both_error_components() {
        let result = run_once(ExecutionParams::checked(0.6, 0.6, 0.6), 2_000);
        let b = &result.buckets[2];
        assert!(b.sampling_error > 0.0);
        assert!(b.rr_error > 0.0);
        assert!((b.ci.bound - (b.sampling_error + b.rr_error)).abs() < 1e-9);
        assert!(b.ci.contains(1_000.0), "CI {} should cover 1000", b.ci);
    }

    #[test]
    fn fractions_are_clamped_and_normalized_shape() {
        let result = run_once(ExecutionParams::checked(1.0, 0.9, 0.5), 1_000);
        let fr = result.fractions();
        assert_eq!(fr.len(), 11);
        assert!(fr.iter().all(|&f| (0.0..=1.0).contains(&f)));
        assert!((fr[2] - 0.5).abs() < 0.1);
    }

    #[test]
    fn results_windows_split_by_event_time() {
        // Two windows of 1s; answers land in both.
        let broker = privapprox_stream::broker::Broker::new(2);
        let query = test_query(1_000);
        let producer = broker.producer();
        let mut proxies: Vec<Proxy> = (0..2).map(|i| Proxy::new(ProxyId(i), &broker)).collect();
        let mut agg = Aggregator::new(&broker, 2, 0.95);
        let params = ExecutionParams::checked(1.0, 1.0, 0.5);
        agg.register_query(&query, params, 10);

        for (i, ts) in [(0u64, 100u64), (1, 300), (2, 1_500)] {
            let mut client = make_client(i, 2.5);
            let answer = client.answer_query(&query, &params, Timestamp(ts), 2);
            let answer = answer.unwrap().unwrap();
            for (pi, share) in answer.shares.iter().enumerate() {
                producer.send(
                    &inbound_topic(ProxyId(pi as u16)),
                    Some(wire_key(query.id, share.mid).to_vec()),
                    &share.payload[..],
                    Timestamp(ts),
                );
            }
        }
        for p in &mut proxies {
            p.pump();
        }
        agg.pump();
        let results = agg.advance_watermark(Timestamp(3_000));
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].sample_size, 2);
        assert_eq!(results[1].sample_size, 1);
        assert!(results[0].window.start < results[1].window.start);
    }

    #[test]
    fn estimator_pool_reuse_stays_correct_across_window_cycles() {
        // Three full window cycles through the recycled-shell API:
        // every cycle's estimator comes from the pool after the
        // first, and every cycle's result must be freshly counted
        // (a stale estimator would inflate the counts).
        let broker = privapprox_stream::broker::Broker::new(2);
        let query = test_query(1_000);
        let producer = broker.producer();
        let mut proxies: Vec<Proxy> = (0..2).map(|i| Proxy::new(ProxyId(i), &broker)).collect();
        let mut agg = Aggregator::new(&broker, 2, 0.95);
        let params = ExecutionParams::checked(1.0, 1.0, 0.5);
        agg.register_query(&query, params, 10);

        let mut results: Vec<QueryResult> = Vec::new();
        for cycle in 0u64..4 {
            let n_answers = cycle + 1; // distinct per cycle
            for i in 0..n_answers {
                let mut client = make_client(100 * cycle + i, 2.5);
                let epoch = Timestamp(cycle * 1_000 + 500);
                let answer = client.answer_query(&query, &params, epoch, 2);
                let answer = answer.unwrap().unwrap();
                for (pi, share) in answer.shares.iter().enumerate() {
                    producer.send(
                        &inbound_topic(ProxyId(pi as u16)),
                        Some(wire_key(query.id, share.mid).to_vec()),
                        &share.payload[..],
                        epoch,
                    );
                }
            }
            for p in &mut proxies {
                p.pump();
            }
            agg.pump();
            agg.advance_watermark_into(Timestamp((cycle + 1) * 1_000), &mut results);
            assert_eq!(results.len(), 1, "cycle {cycle}");
            let r = &results[0];
            assert_eq!(r.sample_size, n_answers, "cycle {cycle}");
            assert_eq!(r.buckets[2].raw_yes, n_answers, "cycle {cycle}");
            assert!(r
                .buckets
                .iter()
                .enumerate()
                .all(|(b, br)| b == 2 || br.raw_yes == 0));
            agg.recycle_results(&mut results);
            assert!(results.is_empty(), "recycling drains the batch");
        }
    }

    #[test]
    fn corrupt_records_are_counted_not_crashing() {
        let broker = privapprox_stream::broker::Broker::new(2);
        let query = test_query(1_000);
        let mut agg = Aggregator::new(&broker, 2, 0.95);
        agg.register_query(&query, ExecutionParams::checked(1.0, 0.9, 0.5), 10);
        let producer = broker.producer();
        // Record with a short key (no MID).
        producer.send(
            "proxy-0-out",
            Some(vec![1, 2, 3]),
            vec![0; 13],
            Timestamp(0),
        );
        // A pair of "shares" under a well-formed 24-byte key that
        // joins to garbage (decode failure, not key failure).
        let key = wire_key(query.id, MessageId(77)).to_vec();
        producer.send(
            "proxy-0-out",
            Some(key.clone()),
            vec![0xAB; 13],
            Timestamp(0),
        );
        producer.send("proxy-1-out", Some(key), vec![0xCD; 13], Timestamp(0));
        agg.pump();
        assert_eq!(agg.undecodable(), 2);
        // No valid answer ever arrived, so no window opened at all.
        let results = agg.advance_watermark(Timestamp(5_000));
        assert!(results.is_empty());
    }

    #[test]
    fn calibration_matches_table1_scale() {
        // Table 1 reports η ≈ 0.0128 for p = q = 0.6 at N = 10⁴ with
        // 60 % yes answers. Accept a generous band — it is a Monte
        // Carlo quantity.
        let mut rng = StdRng::seed_from_u64(5);
        let loss = calibrate_rr_loss(0.6, 0.6, 10_000, 0.6, 20, &mut rng);
        assert!(
            loss > 0.004 && loss < 0.03,
            "calibrated loss {loss} outside the Table 1 ballpark"
        );
    }

    #[test]
    fn expected_sample_size_rounds() {
        assert_eq!(expected_sample_size(1_000, 0.6), 600);
        assert_eq!(expected_sample_size(3, 0.5), 2);
    }
}
