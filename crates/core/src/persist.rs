//! Durable persistence for the sharded runtime: the journal schema,
//! snapshot sections and crash-recovery reconstruction over the
//! `privapprox-store` WAL.
//!
//! # What is journaled, and when
//!
//! The deployment's *control-plane decisions* are journaled; the
//! data plane (client shares in broker partitions) is not — an
//! epoch's shares are reproducible byte-for-byte from the seed and the
//! epoch's timestamp, which its `Submitted` record carries.
//!
//! The one ordering that carries the privacy guarantee: **budget
//! charges are journaled and fsynced strictly before the first
//! debit-gated worker send of the epoch**. A crash can therefore only
//! leave the journal *ahead* of the wire — recovered ledgers have
//! spent at least as much as any answer that escaped, so replaying a
//! crash can under-spend ε (a charged epoch whose sends never
//! happened is re-run without re-charging) but never over-spend.
//!
//! Charge records are *gated* on the epoch's `Submitted` record at
//! reconstruction: both are appended under one `sync`, so a torn tail
//! can persist trailing charges without their `Submitted`. Such
//! orphans prove no send happened (sends come only after the sync
//! returns), and reconstruction ignores them — the ledger ends
//! exactly equal to an uninterrupted run's.
//!
//! # Snapshots
//!
//! Every [`snapshot_every`](crate::ShardedSystemBuilder::snapshot_every)
//! epoch closes, the full supervisor state is written as an atomic
//! temp-file-rename snapshot and the journal is pruned below the
//! snapshot's record floor, bounding disk usage to O(snapshot
//! interval). A closed epoch leaves nothing behind but its results
//! and counters, so a snapshot's size does not grow with the epochs
//! closed. Loads hold closures and are not stored: the caller
//! re-issues them before [`resume`](crate::ShardedSystem::resume).

use crate::aggregator::{finalize_window_into, BucketResult, QueryResult};
use crate::control::{get_query, get_window, put_query, put_window, MIN_WINDOW_BYTES};
use crate::error::{CoreError, DeployError};
use crate::tenant::{Retained, Tenant, Tenants};
use privapprox_rr::privacy::PrivacyReport;
use privapprox_stats::estimate::ConfidenceInterval;
use privapprox_store::codec::{Reader, Writer};
use privapprox_store::snapshot::{load_latest, prune_snapshots, write_snapshot};
use privapprox_store::wal::{dir_bytes, Wal, WalRecord};
use privapprox_store::StoreError;
use privapprox_types::{BitVec, BudgetLedger, ExecutionParams, Query, QueryId, Timestamp, Window};
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ----- journal record kinds (WAL kind bytes; 0 is reserved) --------

/// A query (re-)registered on every shard, with its parameters and
/// retention flag. Re-registration (feedback retune, retention
/// enable) appends a fresh record; the latest wins.
pub(crate) const K_REGISTERED: u8 = 1;
/// A lifetime privacy budget assigned; the query's ledger keeps its
/// spend and epoch count ([`Tenants::set_budget`]).
pub(crate) const K_BUDGET: u8 = 2;
/// A query admitted to the multi-tenant schedule.
pub(crate) const K_ADMITTED: u8 = 3;
/// A query withdrawn from the schedule (ledger kept).
pub(crate) const K_WITHDRAWN: u8 = 4;
/// A query retired by budget exhaustion (terminal).
pub(crate) const K_RETIRED: u8 = 5;
/// One epoch's ε_zk debit against a query's ledger: one per entry of
/// every fresh `K_SUBMITTED`, whichever entry point submitted it.
/// Carries the *absolute* post-charge spend so replay is idempotent.
/// Applied at reconstruction only when the epoch's `K_SUBMITTED`
/// follows.
pub(crate) const K_CHARGE: u8 = 6;
/// An epoch handed to the workers: timestamp, watermark and the
/// (query, params) entries answered. The fsync barrier between this
/// record and the first worker send is the recovery contract.
pub(crate) const K_SUBMITTED: u8 = 7;
/// An epoch fully closed: what its windows *counted* plus the inputs
/// they were finalized under (results are recomputed at recovery, see
/// [`rec_closed`]).
pub(crate) const K_CLOSED: u8 = 8;

// ----- snapshot section kinds (0 is reserved for the header) -------

const S_META: u8 = 1;
const S_QUERIES: u8 = 2;
const S_SCHED: u8 = 3;
// 4 is retired (the answer-command history of store versions ≤ 3).
const S_PENDING: u8 = 5;
// 6 and 7 are retired (committed offsets and window high-water marks
// of store versions ≤ 5).
const S_WAREHOUSES: u8 = 8;

/// Converts a store fault into the deployment's typed error.
pub(crate) fn persist_err(e: StoreError) -> CoreError {
    CoreError::Deploy(DeployError::Persist {
        detail: e.to_string(),
    })
}

fn bad(what: &'static str, detail: String) -> StoreError {
    StoreError::BadRecord { what, detail }
}

/// Reads a ledger allowance: finite and positive, or +∞ (unbounded).
/// Anything else is damage — a NaN allowance admits every charge
/// (`debited > allocated` is never true), which is a free budget.
fn get_allocation(r: &mut Reader<'_>) -> Result<f64, StoreError> {
    let a = r.f64()?;
    let legal = a == f64::INFINITY || (a.is_finite() && a > 0.0);
    legal
        .then_some(a)
        .ok_or_else(|| r.invalid(format!("budget allocation {a}")))
}

/// Reads a ledger spend: finite and non-negative (a damaged spend must
/// not restore as a fresh ledger).
fn get_spend(r: &mut Reader<'_>) -> Result<f64, StoreError> {
    let spent = r.f64()?;
    let legal = spent.is_finite() && spent >= 0.0;
    legal
        .then_some(spent)
        .ok_or_else(|| r.invalid(format!("ledger spend {spent}")))
}

/// Execution parameters read from a record, refused outside their
/// domains with a typed error.
fn get_params(r: &Reader<'_>, s: f64, p: f64, q: f64) -> Result<ExecutionParams, StoreError> {
    ExecutionParams::new(s, p, q).map_err(|e| r.invalid(format!("execution parameters: {e:?}")))
}

// ----- record payload encoders -------------------------------------

pub(crate) fn rec_registered(
    query: &Query,
    params: ExecutionParams,
    retain: bool,
    next_serial: u64,
) -> Vec<u8> {
    let mut w = Writer::new();
    put_query(&mut w, query, params);
    w.u8(retain as u8).u64(next_serial);
    w.finish()
}

pub(crate) fn rec_budget(query: QueryId, allocated: f64) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(query.to_u64()).f64(allocated);
    w.finish()
}

pub(crate) fn rec_query_only(query: QueryId) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(query.to_u64());
    w.finish()
}

pub(crate) fn rec_retired(r: &crate::deploy::Retirement) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(r.query.to_u64())
        .f64(r.spent)
        .f64(r.allocated)
        .u64(r.epochs);
    w.finish()
}

pub(crate) fn rec_charge(
    query: QueryId,
    epoch: Timestamp,
    eps: f64,
    spent_after: f64,
    epochs_after: u64,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(query.to_u64())
        .u64(epoch.0)
        .f64(eps)
        .f64(spent_after)
        .u64(epochs_after);
    w.finish()
}

pub(crate) fn rec_submitted(
    ts: Timestamp,
    watermark: Timestamp,
    entries: &[(Arc<Query>, ExecutionParams)],
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(ts.0).u64(watermark.0).u64(entries.len() as u64);
    for (q, p) in entries {
        w.u64(q.id.to_u64()).f64(p.s).f64(p.p).f64(p.q);
    }
    w.finish()
}

/// Everything a close persists, gathered by the supervisor.
pub(crate) struct CloseRecord<'a> {
    pub epoch: Timestamp,
    pub watermark: Timestamp,
    pub partial: bool,
    pub lost: u64,
    /// The epoch's finalized windows.
    pub results: &'a [QueryResult],
    /// The parameters each of `results` was finalized under, in step.
    pub params: &'a [ExecutionParams],
    /// The confidence level every window was finalized at.
    pub confidence: f64,
}

/// Encodes a close. A result is a pure function of its window's
/// yes-counts, the answers counted and `(s, p, q, population,
/// confidence)` — [`finalize_window_into`] — so the record holds those
/// and not the eight computed words a bucket: per window the three
/// finalize inputs a [`put_window`] body lacks, then that body.
pub(crate) fn rec_closed(c: &CloseRecord<'_>) -> Vec<u8> {
    assert_eq!(
        c.results.len(),
        c.params.len(),
        "one parameter set per result"
    );
    let mut w = Writer::new();
    w.u64(c.epoch.0)
        .u64(c.watermark.0)
        .u8(c.partial as u8)
        .u64(c.lost);
    w.u64(c.results.len() as u64);
    for (r, params) in c.results.iter().zip(c.params) {
        w.f64(params.s).u64(r.population).f64(c.confidence);
        put_window(
            &mut w,
            r.query,
            r.window,
            (params.p, params.q),
            r.sample_size,
            r.buckets.iter().map(|b| b.raw_yes),
        );
    }
    w.finish()
}

/// Reads one window of a close record and finalizes it with the
/// function the live merge ran, so the recovered result is the live
/// one bit for bit. Everything `finalize_window_into` asserts is
/// checked first.
fn get_closed_window(
    r: &mut Reader<'_>,
    scratch: &mut Vec<u64>,
) -> Result<QueryResult, StoreError> {
    let (s, population, confidence) = (r.f64()?, r.u64()?, r.f64()?);
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(r.invalid(format!("confidence {confidence} outside (0,1)")));
    }
    let mut raw = get_window(r, scratch)?;
    let (p, q, _, _) = raw.estimator.raw_parts();
    let params = get_params(r, s, p, q)?;
    let mut result = QueryResult::shell();
    finalize_window_into(
        &mut result,
        raw.query,
        raw.window,
        &mut raw.estimator,
        params,
        population,
        confidence,
    );
    Ok(result)
}

// ----- QueryResult codec (bit-exact: floats as raw bits) -----------
//
// The wide form, for the snapshot's `S_PENDING` section only. A pending
// `QueryResult` does not remember the `s` and `confidence` it was
// finalized under, so it cannot be written as counts and recomputed
// like a close record; the section is written once per
// `snapshot_every` closes, off the per-epoch path.

fn put_result(w: &mut Writer, r: &QueryResult) {
    w.u64(r.query.to_u64())
        .u64(r.window.start.0)
        .u64(r.window.end.0)
        .u64(r.sample_size)
        .u64(r.population);
    w.u64(r.buckets.len() as u64);
    for b in &r.buckets {
        w.u64(b.raw_yes)
            .f64(b.estimate_sample)
            .f64(b.estimate)
            .f64(b.ci.estimate)
            .f64(b.ci.bound)
            .f64(b.ci.confidence)
            .f64(b.sampling_error)
            .f64(b.rr_error);
    }
    w.f64(r.privacy.eps_rr)
        .f64(r.privacy.eps_dp)
        .f64(r.privacy.eps_zk);
}

fn get_result(r: &mut Reader<'_>) -> Result<QueryResult, StoreError> {
    let query = QueryId::from_u64(r.u64()?);
    let window = Window {
        start: Timestamp(r.u64()?),
        end: Timestamp(r.u64()?),
    };
    let sample_size = r.u64()?;
    let population = r.u64()?;
    let nb = r.count(64)?;
    let mut buckets = Vec::with_capacity(nb);
    for _ in 0..nb {
        buckets.push(BucketResult {
            raw_yes: r.u64()?,
            estimate_sample: r.f64()?,
            estimate: r.f64()?,
            ci: ConfidenceInterval {
                estimate: r.f64()?,
                bound: r.f64()?,
                confidence: r.f64()?,
            },
            sampling_error: r.f64()?,
            rr_error: r.f64()?,
        });
    }
    let privacy = PrivacyReport {
        eps_rr: r.f64()?,
        eps_dp: r.f64()?,
        eps_zk: r.f64()?,
    };
    Ok(QueryResult {
        query,
        window,
        sample_size,
        population,
        buckets,
        privacy,
    })
}

// ----- recovered state ---------------------------------------------

/// An epoch that was durably submitted but never closed: its sends
/// may or may not have escaped before the crash, so recovery re-runs
/// it live — **without** re-charging (the charges are already in the
/// reconstructed ledgers).
pub(crate) struct OpenEpoch {
    pub ts: Timestamp,
    pub watermark: Timestamp,
    pub entries: Vec<(QueryId, ExecutionParams)>,
}

/// Supervisor state reconstructed from snapshot + journal suffix.
#[derive(Default)]
pub(crate) struct RecoveredState {
    /// The tenant table, rebuilt through the live transitions: every
    /// query with its latest parameters, retention flag, ledger,
    /// schedule state and the warehouse the last snapshot captured.
    pub tenants: Tenants,
    pub now_ms: u64,
    pub next_serial: u64,
    pub recoveries: u64,
    pub partial_closes: u64,
    pub lost_answers: u64,
    pub epochs_closed: u64,
    /// Submitted-but-unclosed epochs, oldest first.
    pub open_epochs: Vec<OpenEpoch>,
    /// Results closed but possibly not yet drained (at-least-once:
    /// a result drained after the last snapshot is re-emitted).
    pub pending: Vec<QueryResult>,
    /// Whether the journal ended in a torn (crash-truncated) frame.
    pub torn_tail: bool,
}

// ----- snapshot assembly -------------------------------------------

/// Everything the supervisor hands the snapshot writer.
pub(crate) struct SnapshotContents<'a> {
    pub now_ms: u64,
    pub next_serial: u64,
    pub recoveries: u64,
    pub partial_closes: u64,
    pub lost_answers: u64,
    pub epochs_closed: u64,
    pub tenants: &'a Tenants,
    pub pending: &'a [QueryResult],
    pub warehouses: &'a [(QueryId, Retained)],
}

fn build_sections(c: &SnapshotContents<'_>) -> Vec<(u8, Vec<u8>)> {
    let mut meta = Writer::new();
    meta.u64(c.now_ms)
        .u64(c.next_serial)
        .u64(c.recoveries)
        .u64(c.partial_closes)
        .u64(c.lost_answers)
        .u64(c.epochs_closed);

    // Tenants by id, so the section does not depend on the order
    // queries were registered in.
    let mut tenants: Vec<&Tenant> = c.tenants.iter().collect();
    tenants.sort_unstable_by_key(|t| t.query.id.to_u64());
    let mut queries = Writer::new();
    queries.u64(tenants.len() as u64);
    for t in tenants {
        put_query(&mut queries, &t.query, t.params);
        queries.u8(t.retain.is_some() as u8);
        match t.ledger {
            Some(l) => {
                queries
                    .u8(1)
                    .f64(l.allocated())
                    .f64(l.spent())
                    .u64(l.epochs());
            }
            None => {
                queries.u8(0);
            }
        }
    }

    let mut sched = Writer::new();
    for ids in [c.tenants.schedule(), c.tenants.terminal()] {
        sched.u64(ids.len() as u64);
        for qid in ids {
            sched.u64(qid.to_u64());
        }
    }

    let mut pending = Writer::new();
    pending.u64(c.pending.len() as u64);
    for r in c.pending {
        put_result(&mut pending, r);
    }

    let mut wh = Writer::new();
    wh.u64(c.warehouses.len() as u64);
    for (qid, entries) in c.warehouses {
        wh.u64(qid.to_u64()).u64(entries.len() as u64);
        for (ts, mid, answer) in entries {
            wh.u64(*ts).u128(*mid).u64(answer.len() as u64);
            wh.bytes(&answer.to_bytes());
        }
    }

    vec![
        (S_META, meta.finish()),
        (S_QUERIES, queries.finish()),
        (S_SCHED, sched.finish()),
        (S_PENDING, pending.finish()),
        (S_WAREHOUSES, wh.finish()),
    ]
}

fn apply_snapshot(
    state: &mut RecoveredState,
    sections: &[(u8, Vec<u8>)],
) -> Result<(), StoreError> {
    for (kind, payload) in sections {
        match *kind {
            S_META => {
                let mut r = Reader::new(payload, "snapshot meta");
                state.now_ms = r.u64()?;
                state.next_serial = r.u64()?;
                state.recoveries = r.u64()?;
                state.partial_closes = r.u64()?;
                state.lost_answers = r.u64()?;
                state.epochs_closed = r.u64()?;
                r.done()?;
            }
            S_QUERIES => {
                let mut r = Reader::new(payload, "snapshot queries");
                let n = r.count(32)?;
                for _ in 0..n {
                    let (q, params) = get_query(&mut r)?;
                    let qid = q.id;
                    let retain = r.u8()? != 0;
                    let ledger = if r.u8()? != 0 {
                        let (alloc, spent) = (get_allocation(&mut r)?, get_spend(&mut r)?);
                        Some(BudgetLedger::restore(alloc, spent, r.u64()?))
                    } else {
                        None
                    };
                    register(&mut state.tenants, q, params, retain);
                    if let Some(t) = state.tenants.get_mut(qid) {
                        t.ledger = ledger;
                    }
                }
                r.done()?;
            }
            S_SCHED => {
                let mut r = Reader::new(payload, "snapshot schedule");
                let na = r.count(8)?;
                for _ in 0..na {
                    let _ = state.tenants.admit(QueryId::from_u64(r.u64()?));
                }
                let nt = r.count(8)?;
                for _ in 0..nt {
                    state.tenants.retire(QueryId::from_u64(r.u64()?), None);
                }
                r.done()?;
            }
            S_PENDING => {
                let mut r = Reader::new(payload, "snapshot pending");
                let n = r.count(64)?;
                for _ in 0..n {
                    state.pending.push(get_result(&mut r)?);
                }
                r.done()?;
            }
            S_WAREHOUSES => {
                let mut r = Reader::new(payload, "snapshot warehouses");
                let nq = r.count(16)?;
                for _ in 0..nq {
                    let qid = QueryId::from_u64(r.u64()?);
                    let ne = r.count(32)?;
                    let mut entries = Vec::with_capacity(ne);
                    for _ in 0..ne {
                        let ts = r.u64()?;
                        let mid = r.u128()?;
                        let bits = r.u64()? as usize;
                        let raw = r.bytes()?;
                        let answer = BitVec::from_bytes(bits, raw).ok_or_else(|| {
                            bad(
                                "snapshot warehouses",
                                format!(
                                    "bit vector of {bits} bits does not fit {} bytes",
                                    raw.len()
                                ),
                            )
                        })?;
                        entries.push((ts, mid, answer));
                    }
                    if let Some(t) = state.tenants.get_mut(qid) {
                        t.recovered = entries;
                    }
                }
                r.done()?;
            }
            other => {
                return Err(bad("snapshot", format!("unknown section kind {other}")));
            }
        }
    }
    Ok(())
}

// ----- journal replay ----------------------------------------------
//
// Records are applied through the live transitions of
// [`Tenants`]. A transition that refuses a record (an unknown query,
// an admission the window rule forbids) refuses one the live path
// never journaled: the record is skipped, as the refused call changed
// nothing live.

/// Replays a registration with its retention flag.
fn register(tenants: &mut Tenants, q: Query, params: ExecutionParams, retain: bool) {
    let qid = q.id;
    if tenants.register(Arc::new(q), params).is_ok() && retain {
        let _ = tenants.retain(qid);
    }
}

fn apply_records(state: &mut RecoveredState, records: &[WalRecord]) -> Result<(), StoreError> {
    // Charges buffered until their epoch's `Submitted` proves the
    // sync barrier was crossed; orphans at the journal tail mean no
    // send escaped and are dropped.
    let mut pending_charges: Vec<(QueryId, u64, f64, u64)> = Vec::new();
    for rec in records {
        match rec.kind {
            K_REGISTERED => {
                let mut r = Reader::new(&rec.payload, "registered");
                let (q, params) = get_query(&mut r)?;
                let retain = r.u8()? != 0;
                let next_serial = r.u64()?;
                r.done()?;
                register(&mut state.tenants, q, params, retain);
                state.next_serial = state.next_serial.max(next_serial);
            }
            K_BUDGET => {
                let mut r = Reader::new(&rec.payload, "budget");
                let qid = QueryId::from_u64(r.u64()?);
                let allocated = get_allocation(&mut r)?;
                r.done()?;
                let _ = state.tenants.set_budget(qid, allocated);
            }
            K_ADMITTED => {
                let mut r = Reader::new(&rec.payload, "admitted");
                let qid = QueryId::from_u64(r.u64()?);
                r.done()?;
                let _ = state.tenants.admit(qid);
            }
            K_WITHDRAWN => {
                let mut r = Reader::new(&rec.payload, "withdrawn");
                let qid = QueryId::from_u64(r.u64()?);
                r.done()?;
                state.tenants.withdraw(qid);
            }
            K_RETIRED => {
                let mut r = Reader::new(&rec.payload, "retired");
                let qid = QueryId::from_u64(r.u64()?);
                let _spent = r.f64()?;
                let _allocated = r.f64()?;
                let _epochs = r.u64()?;
                r.done()?;
                state.tenants.retire(qid, None);
            }
            K_CHARGE => {
                let mut r = Reader::new(&rec.payload, "charge");
                let qid = QueryId::from_u64(r.u64()?);
                let epoch = r.u64()?;
                let _eps = r.f64()?;
                let spent_after = get_spend(&mut r)?;
                let epochs_after = r.u64()?;
                r.done()?;
                pending_charges.push((qid, epoch, spent_after, epochs_after));
            }
            K_SUBMITTED => {
                let mut r = Reader::new(&rec.payload, "submitted");
                let ts = Timestamp(r.u64()?);
                let watermark = Timestamp(r.u64()?);
                let n = r.count(32)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let qid = QueryId::from_u64(r.u64()?);
                    let (s, p, q) = (r.f64()?, r.f64()?, r.f64()?);
                    entries.push((qid, get_params(&r, s, p, q)?));
                }
                r.done()?;
                // The sync barrier was crossed: this epoch's charges
                // are live. Absolute values make re-application after
                // a snapshot idempotent.
                for (qid, epoch, spent_after, epochs_after) in pending_charges.drain(..) {
                    if epoch == ts.0 {
                        state.tenants.settle(qid, spent_after, epochs_after);
                    }
                }
                state.now_ms = state.now_ms.max(watermark.0);
                state.open_epochs.push(OpenEpoch {
                    ts,
                    watermark,
                    entries,
                });
            }
            K_CLOSED => {
                let mut r = Reader::new(&rec.payload, "closed");
                let ts = Timestamp(r.u64()?);
                // A snapshot's floor is capped at the oldest in-flight
                // `Submitted`, so at pipeline depth > 1 the suffix
                // replayed over it holds close records of epochs the
                // snapshot already counted. Only the close of an epoch
                // still open in the reconstructed state is news.
                let Some(pos) = state.open_epochs.iter().position(|e| e.ts == ts) else {
                    continue;
                };
                let _watermark = Timestamp(r.u64()?);
                let partial = r.u8()? != 0;
                let lost = r.u64()?;
                // Three finalize inputs precede each window.
                let nr = r.count(24 + MIN_WINDOW_BYTES)?;
                let mut counts = Vec::new();
                for _ in 0..nr {
                    state.pending.push(get_closed_window(&mut r, &mut counts)?);
                }
                r.done()?;
                state.epochs_closed += 1;
                if partial {
                    state.partial_closes += 1;
                }
                state.lost_answers += lost;
                state.open_epochs.remove(pos);
            }
            other => {
                return Err(bad("journal", format!("unknown record kind {other}")));
            }
        }
    }
    Ok(())
}

// ----- durable handle ----------------------------------------------

/// The open durable store plus the supervisor-side cadence state.
pub(crate) struct DurableState {
    pub dir: PathBuf,
    pub wal: Wal,
    /// Epoch closes between snapshots (≥ 1).
    pub snapshot_every: u64,
    pub closes_since_snapshot: u64,
    /// Sequence the *next* snapshot will get.
    pub snapshot_seq: u64,
    /// Successful recoveries of this store directory (persisted in
    /// snapshot meta; surfaced via `DeployHealth::recoveries`).
    pub recoveries: u64,
    /// True while `resume()` replays state that already came *from*
    /// the journal — suppresses re-journaling.
    pub muted: bool,
}

impl DurableState {
    /// Opens (creating if absent) the store directory, replays the
    /// latest snapshot plus the journal suffix, and returns the
    /// reconstructed supervisor state, if any was found.
    pub fn open(
        dir: &Path,
        segment_bytes: u64,
        snapshot_every: u64,
    ) -> Result<(DurableState, Option<RecoveredState>), StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("create_dir_all", dir, e))?;
        let snapshot = load_latest(dir)?;
        let (wal, recovery) = Wal::open(dir, segment_bytes)?;
        let mut state = RecoveredState::default();
        let mut found = false;
        let mut floor = 0u64;
        let mut snapshot_seq = 0u64;
        if let Some(snap) = snapshot {
            apply_snapshot(&mut state, &snap.sections)?;
            floor = snap.wal_floor;
            snapshot_seq = snap.seq + 1;
            found = true;
        }
        let suffix: Vec<WalRecord> = recovery
            .records
            .into_iter()
            .filter(|r| r.index >= floor)
            .collect();
        if !suffix.is_empty() {
            found = true;
        }
        apply_records(&mut state, &suffix)?;
        state.torn_tail = recovery.torn_tail.is_some();
        let durable = DurableState {
            dir: dir.to_path_buf(),
            wal,
            snapshot_every: snapshot_every.max(1),
            closes_since_snapshot: 0,
            snapshot_seq,
            recoveries: state.recoveries,
            muted: false,
        };
        Ok((durable, if found { Some(state) } else { None }))
    }

    /// Buffers one journal record (no-op while muted).
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
        if self.muted {
            return Ok(());
        }
        self.wal.append(kind, payload)?;
        Ok(())
    }

    /// Makes every buffered record durable (no-op while muted).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.muted {
            return Ok(());
        }
        self.wal.sync()
    }

    /// Writes a snapshot of `contents`, then prunes the journal below
    /// the snapshot floor and retires old snapshot files — the disk
    /// bound. Returns the snapshot size in bytes.
    ///
    /// `floor_cap` bounds the prune floor: open (submitted, not yet
    /// closed) epochs are rebuilt from their journal records on
    /// recovery, so the caller passes the lowest open epoch's journal
    /// mark to keep those records alive past the snapshot.
    pub fn snapshot(
        &mut self,
        contents: &SnapshotContents<'_>,
        floor_cap: u64,
    ) -> Result<u64, StoreError> {
        // The floor must only cover *synced* records: buffered bytes
        // are not yet durable and must survive in the journal.
        self.wal.sync()?;
        let floor = self.wal.next_index().min(floor_cap);
        let sections = build_sections(contents);
        let bytes = write_snapshot(&self.dir, self.snapshot_seq, floor, &sections)?;
        self.snapshot_seq += 1;
        self.wal.prune_below(floor)?;
        prune_snapshots(&self.dir, 2)?;
        self.closes_since_snapshot = 0;
        Ok(bytes)
    }

    /// Total on-disk journal bytes (live segments plus unsynced
    /// buffer), for `DeployHealth::journal_bytes`.
    pub fn journal_bytes(&self) -> u64 {
        dir_bytes(&self.dir).unwrap_or(0) + self.wal.pending_bytes() as u64
    }

    /// Snapshot files currently on disk.
    pub fn snapshot_count(&self) -> u64 {
        privapprox_store::snapshot::snapshot_count(&self.dir).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::RawWindow;
    use crate::control::ShardReply;
    use privapprox_rr::estimate::BucketEstimator;
    use privapprox_types::ids::AnalystId;
    use privapprox_types::{AnswerSpec, BucketRule, QueryBuilder};

    fn mk_query(serial: u32) -> Query {
        QueryBuilder::new(QueryId::new(AnalystId(1), serial), "SELECT speed FROM cars")
            .answer(AnswerSpec::new(vec![
                BucketRule::Range { lo: 0.0, hi: 50.0 },
                BucketRule::Range {
                    lo: 50.0,
                    hi: 100.0,
                },
            ]))
            .window(1_000, 1_000)
            .sign_and_build(42)
    }

    fn mk_result(qid: QueryId, start: u64) -> QueryResult {
        QueryResult {
            query: qid,
            window: Window {
                start: Timestamp(start),
                end: Timestamp(start + 1_000),
            },
            sample_size: 7,
            population: 100,
            buckets: vec![BucketResult {
                raw_yes: 5,
                estimate_sample: 4.25,
                estimate: 42.5,
                ci: ConfidenceInterval {
                    estimate: 42.5,
                    bound: 3.125,
                    confidence: 0.95,
                },
                sampling_error: 2.0,
                rr_error: 1.125,
            }],
            privacy: PrivacyReport {
                eps_rr: 1.0,
                eps_dp: 0.5,
                eps_zk: 0.25,
            },
        }
    }

    /// A table of one admitted tenant, built through the live
    /// transitions.
    fn one_tenant(
        q: &Query,
        params: ExecutionParams,
        retain: bool,
        ledger: Option<BudgetLedger>,
    ) -> Tenants {
        let mut tenants = Tenants::default();
        tenants.register(Arc::new(q.clone()), params).unwrap();
        if retain {
            tenants.retain(q.id).unwrap();
        }
        tenants.admit(q.id).unwrap();
        tenants.get_mut(q.id).unwrap().ledger = ledger;
        tenants
    }

    #[test]
    fn result_codec_is_bit_exact() {
        let q = mk_query(1);
        let original = mk_result(q.id, 500);
        let mut w = Writer::new();
        put_result(&mut w, &original);
        let buf = w.finish();
        let mut r = Reader::new(&buf, "test");
        let decoded = get_result(&mut r).unwrap();
        r.done().unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn orphan_charges_without_submitted_are_dropped() {
        let q = mk_query(1);
        let mut records = Vec::new();
        let mut idx = 0u64;
        let mut push = |records: &mut Vec<WalRecord>, kind: u8, payload: Vec<u8>| {
            records.push(WalRecord {
                index: idx,
                kind,
                payload,
            });
            idx += 1;
        };
        let params = ExecutionParams::checked(1.0, 0.9, 0.5);
        push(
            &mut records,
            K_REGISTERED,
            rec_registered(&q, params, false, 2),
        );
        push(&mut records, K_BUDGET, rec_budget(q.id, 1.0));
        // Epoch 1: charge + submitted (applied).
        push(
            &mut records,
            K_CHARGE,
            rec_charge(q.id, Timestamp(500), 0.25, 0.25, 1),
        );
        push(
            &mut records,
            K_SUBMITTED,
            rec_submitted(
                Timestamp(500),
                Timestamp(1_000),
                &[(Arc::new(q.clone()), params)],
            ),
        );
        // Epoch 2: a torn tail left the charge without its submitted.
        push(
            &mut records,
            K_CHARGE,
            rec_charge(q.id, Timestamp(1_500), 0.25, 0.5, 2),
        );
        let mut state = RecoveredState::default();
        apply_records(&mut state, &records).unwrap();
        let ledger = state.tenants.get(q.id).unwrap().ledger.unwrap();
        assert_eq!(ledger.spent(), 0.25, "orphan charge must not apply");
        assert_eq!(ledger.epochs(), 1);
        assert_eq!(
            state.open_epochs.len(),
            1,
            "epoch 1 submitted, never closed"
        );
    }

    /// What the live merge would have pushed for a window with these
    /// counts: the same two calls, on the same inputs.
    fn finalized(
        qid: QueryId,
        counts: &[u64],
        total: u64,
        params: ExecutionParams,
        population: u64,
        confidence: f64,
    ) -> QueryResult {
        let mut est = BucketEstimator::from_raw_parts(params.p, params.q, total, counts);
        let window = Window {
            start: Timestamp(0),
            end: Timestamp(1_000),
        };
        let mut out = QueryResult::shell();
        finalize_window_into(
            &mut out, qid, window, &mut est, params, population, confidence,
        );
        out
    }

    /// Every float of a result as its bit pattern (`==` on the struct
    /// would let `-0.0 == 0.0` and `NaN != NaN` through).
    fn float_bits(r: &QueryResult) -> Vec<u64> {
        let mut bits = vec![r.privacy.eps_rr, r.privacy.eps_dp, r.privacy.eps_zk];
        for b in &r.buckets {
            bits.extend([
                b.estimate_sample,
                b.estimate,
                b.ci.estimate,
                b.ci.bound,
                b.ci.confidence,
                b.sampling_error,
                b.rr_error,
            ]);
        }
        bits.into_iter().map(f64::to_bits).collect()
    }

    /// The journal of one epoch of `q` that closed with `result`:
    /// registered, submitted at 500, closed.
    fn one_epoch_journal(
        q: &Query,
        params: ExecutionParams,
        result: &QueryResult,
        confidence: f64,
    ) -> Vec<WalRecord> {
        let payloads = [
            (K_REGISTERED, rec_registered(q, params, false, 2)),
            (
                K_SUBMITTED,
                rec_submitted(
                    Timestamp(500),
                    Timestamp(1_000),
                    &[(Arc::new(q.clone()), params)],
                ),
            ),
            (
                K_CLOSED,
                rec_closed(&CloseRecord {
                    epoch: Timestamp(500),
                    watermark: Timestamp(1_000),
                    partial: false,
                    lost: 0,
                    results: std::slice::from_ref(result),
                    params: &[params],
                    confidence,
                }),
            ),
        ];
        payloads
            .into_iter()
            .enumerate()
            .map(|(index, (kind, payload))| WalRecord {
                index: index as u64,
                kind,
                payload,
            })
            .collect()
    }

    #[test]
    fn a_close_removes_the_open_epoch_and_restores_its_results() {
        let q = mk_query(1);
        let params = ExecutionParams::checked(1.0, 0.9, 0.5);
        let result = finalized(q.id, &[5, 2], 7, params, 100, 0.95);
        let records = one_epoch_journal(&q, params, &result, 0.95);
        let mut state = RecoveredState::default();
        apply_records(&mut state, &records).unwrap();
        assert!(state.open_epochs.is_empty());
        assert_eq!(state.pending, vec![result]);
        assert_eq!(state.epochs_closed, 1);
        assert_eq!(state.now_ms, 1_000);
    }

    /// A close record of an epoch that is not open in the state being
    /// rebuilt — the snapshot underneath already counted it — changes
    /// nothing.
    #[test]
    fn close_of_an_epoch_the_snapshot_counted_is_not_counted_again() {
        let q = mk_query(1);
        let params = ExecutionParams::checked(1.0, 0.9, 0.5);
        let result = finalized(q.id, &[5, 2], 7, params, 100, 0.95);
        let mut records = one_epoch_journal(&q, params, &result, 0.95);
        let mut state = RecoveredState::default();
        apply_records(&mut state, &records).unwrap();
        // Replay the close alone over the state that has it.
        let close = records.pop().unwrap();
        apply_records(&mut state, &[close]).unwrap();
        assert_eq!(state.epochs_closed, 1);
        assert_eq!(state.pending, vec![result]);
    }

    proptest::proptest! {
        /// A close record recovers to exactly what the live path
        /// computed, at every count width and both width boundaries,
        /// and the same counts cross a socket in a `Closed` reply.
        #[test]
        fn close_record_recovers_the_live_result_bit_for_bit(
            noise in proptest::collection::vec(proptest::any::<u64>(), 1..40),
            slack in 0u64..1_000,
            population in 0u64..(1 << 34),
            s in 0.01f64..1.0,
            p in 0.01f64..1.2,
            q in 0.01f64..0.99,
            confidence in 0.5f64..0.999,
        ) {
            let query = mk_query(1);
            let params = ExecutionParams::checked(s, p.min(1.0), q);
            let (u16m, u32m) = (u16::MAX as u64, u32::MAX as u64);
            for largest in [u16m, u16m + 1, u32m, u32m + 1] {
                let mut counts: Vec<u64> = noise.iter().map(|c| c % (largest + 1)).collect();
                counts[0] = largest;
                let total = largest + slack;
                let live = finalized(query.id, &counts, total, params, population, confidence);
                let records = one_epoch_journal(&query, params, &live, confidence);
                let mut state = RecoveredState::default();
                apply_records(&mut state, &records).unwrap();
                proptest::prop_assert_eq!(state.pending.len(), 1);
                proptest::prop_assert_eq!(&state.pending[0], &live);
                proptest::prop_assert_eq!(float_bits(&state.pending[0]), float_bits(&live));

                let mut reply = ShardReply::Closed {
                    epoch: Timestamp(500),
                    decoded: total,
                    windows: vec![RawWindow {
                        query: query.id,
                        window: live.window,
                        estimator: BucketEstimator::from_raw_parts(
                            params.p, params.q, total, &counts,
                        ),
                    }],
                    busy: std::time::Duration::ZERO,
                };
                let Ok(ShardReply::Closed { mut windows, .. }) =
                    ShardReply::decode(&reply.encode())
                else {
                    return Err(proptest::TestCaseError::fail("Closed reply did not round-trip"));
                };
                let (rp, rq, rtotal, rcounts) = windows[0].estimator.raw_parts();
                proptest::prop_assert_eq!(
                    (rp.to_bits(), rq.to_bits(), rtotal),
                    (params.p.to_bits(), params.q.to_bits(), total)
                );
                proptest::prop_assert_eq!(rcounts, &counts[..]);
            }
        }
    }

    /// Byte offsets into the close record `one_epoch_journal` writes
    /// for one window: the epoch header is 33 bytes, then `s`,
    /// `population`, `confidence`, the window's six words, the block.
    const AT_CONFIDENCE: usize = 33 + 16;
    const AT_P: usize = 33 + 24 + 24;
    const AT_Q: usize = AT_P + 8;
    const AT_TOTAL: usize = AT_Q + 8;
    const AT_WIDTH: usize = AT_TOTAL + 8;
    const AT_BLOCK_LEN: usize = AT_WIDTH + 1;

    /// Damaged close records are refused with a typed error — never a
    /// panic in `from_raw_parts` or `finalize_window_into`, never an
    /// allocation sized by a declared length.
    #[test]
    fn hostile_close_records_are_refused() {
        let q = mk_query(1);
        let params = ExecutionParams::checked(0.8, 0.9, 0.5);
        let result = finalized(q.id, &[5, 2], 7, params, 100, 0.95);
        let mut records = one_epoch_journal(&q, params, &result, 0.95);
        let good = records.pop().unwrap().payload;
        let replay = |payload: &[u8]| {
            let mut journal = records.clone();
            journal.push(WalRecord {
                index: 2,
                kind: K_CLOSED,
                payload: payload.to_vec(),
            });
            apply_records(&mut RecoveredState::default(), &journal)
        };
        replay(&good).unwrap();
        let patched = |at: usize, bytes: &[u8]| {
            let mut bad = good.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            bad
        };
        let f = |x: f64| x.to_bits().to_le_bytes();
        let hostile = [
            ("p = 0", patched(AT_P, &f(0.0))),
            ("p > 1", patched(AT_P, &f(1.5))),
            ("p = NaN", patched(AT_P, &f(f64::NAN))),
            ("q = 0", patched(AT_Q, &f(0.0))),
            ("q = 1", patched(AT_Q, &f(1.0))),
            ("s = 0", patched(33, &f(0.0))),
            ("confidence = 0", patched(AT_CONFIDENCE, &f(0.0))),
            ("confidence = 1", patched(AT_CONFIDENCE, &f(1.0))),
            ("confidence = NaN", patched(AT_CONFIDENCE, &f(f64::NAN))),
            (
                "a yes-count above the total",
                patched(AT_TOTAL, &4u64.to_le_bytes()),
            ),
            ("unknown width", patched(AT_WIDTH, &[3])),
            (
                "byte length not buckets × width",
                patched(AT_BLOCK_LEN, &3u64.to_le_bytes()),
            ),
            ("zero buckets", patched(AT_BLOCK_LEN, &0u64.to_le_bytes())),
            (
                "block longer than the payload",
                patched(AT_BLOCK_LEN, &(1u64 << 40).to_le_bytes()),
            ),
            (
                "more windows than bytes",
                patched(25, &(1u64 << 40).to_le_bytes()),
            ),
        ];
        for (what, payload) in &hostile {
            assert!(
                matches!(replay(payload), Err(StoreError::BadRecord { .. })),
                "{what} was accepted"
            );
        }
        for cut in 0..good.len() {
            assert!(
                matches!(replay(&good[..cut]), Err(StoreError::BadRecord { .. })),
                "prefix of {cut} bytes was accepted"
            );
        }
        // Any single damaged byte: refused or decoded, never a panic.
        let mut damaged = good.clone();
        for i in 0..good.len() {
            for flip in [0x01, 0x80, 0xFF] {
                damaged[i] = good[i] ^ flip;
                let _ = replay(&damaged);
            }
            damaged[i] = good[i];
        }
    }

    /// The budget plane's records refuse damage with a typed error:
    /// every cut of `Budget`, `Charge`, `Submitted` and `Retired` is
    /// refused, any single damaged byte is refused or rebuilds a legal
    /// ledger — never a panic, never a free budget — and the named
    /// out-of-domain values are refused, in the journal and in the
    /// snapshot's ledger field alike.
    #[test]
    fn hostile_budget_records_are_refused() {
        let q = mk_query(1);
        let params = ExecutionParams::checked(0.8, 0.9, 0.5);
        let retirement = crate::deploy::Retirement {
            query: q.id,
            spent: 0.25,
            allocated: 1.0,
            epochs: 1,
        };
        let journal = [
            (K_REGISTERED, rec_registered(&q, params, false, 2)),
            (K_BUDGET, rec_budget(q.id, 1.0)),
            (K_CHARGE, rec_charge(q.id, Timestamp(500), 0.25, 0.25, 1)),
            (
                K_SUBMITTED,
                rec_submitted(
                    Timestamp(500),
                    Timestamp(1_000),
                    &[(Arc::new(q.clone()), params)],
                ),
            ),
            (K_RETIRED, rec_retired(&retirement)),
        ];
        // The journal with record `at`'s payload replaced.
        let replay = |at: usize, payload: &[u8]| {
            let records: Vec<WalRecord> = journal
                .iter()
                .enumerate()
                .map(|(i, (kind, good))| WalRecord {
                    index: i as u64,
                    kind: *kind,
                    payload: if i == at {
                        payload.to_vec()
                    } else {
                        good.clone()
                    },
                })
                .collect();
            let mut state = RecoveredState::default();
            apply_records(&mut state, &records).map(|()| state)
        };
        let legal = |state: &RecoveredState| {
            state.tenants.iter().filter_map(|t| t.ledger).all(|l| {
                let a = l.allocated();
                (a == f64::INFINITY || (a.is_finite() && a > 0.0))
                    && l.spent().is_finite()
                    && l.spent() <= a
            })
        };
        let state = replay(0, &journal[0].1).unwrap();
        let l = state.tenants.get(q.id).unwrap().ledger.unwrap();
        assert_eq!((l.allocated(), l.spent(), l.epochs()), (1.0, 0.25, 1));
        assert_eq!(state.tenants.terminal(), vec![q.id]);

        let patched = |at: usize, offset: usize, bytes: &[u8]| {
            let mut bad = journal[at].1.clone();
            bad[offset..offset + bytes.len()].copy_from_slice(bytes);
            bad
        };
        let f = |x: f64| x.to_bits().to_le_bytes();
        // `Budget`: allocation at 8. `Charge`: spend-after at 24.
        // `Submitted`: entry count at 16, then s, p, q at 32, 40, 48.
        let hostile = [
            ("allocation NaN", 1, patched(1, 8, &f(f64::NAN))),
            ("allocation 0", 1, patched(1, 8, &f(0.0))),
            ("allocation < 0", 1, patched(1, 8, &f(-1.0))),
            ("allocation −∞", 1, patched(1, 8, &f(f64::NEG_INFINITY))),
            ("spend NaN", 2, patched(2, 24, &f(f64::NAN))),
            ("spend < 0", 2, patched(2, 24, &f(-0.5))),
            ("spend ∞", 2, patched(2, 24, &f(f64::INFINITY))),
            ("s = 0", 3, patched(3, 32, &f(0.0))),
            ("s > 1", 3, patched(3, 32, &f(1.5))),
            ("p = NaN", 3, patched(3, 40, &f(f64::NAN))),
            ("q = 1", 3, patched(3, 48, &f(1.0))),
            (
                "more entries than bytes",
                3,
                patched(3, 16, &(1u64 << 40).to_le_bytes()),
            ),
        ];
        for (what, at, payload) in &hostile {
            assert!(
                matches!(replay(*at, payload), Err(StoreError::BadRecord { .. })),
                "{what} was accepted"
            );
        }
        let unbounded = replay(1, &patched(1, 8, &f(f64::INFINITY))).unwrap();
        assert!(unbounded
            .tenants
            .get(q.id)
            .unwrap()
            .ledger
            .unwrap()
            .allocated()
            .is_infinite());

        for (at, (_, good)) in journal.iter().enumerate().skip(1) {
            for cut in 0..good.len() {
                assert!(
                    matches!(replay(at, &good[..cut]), Err(StoreError::BadRecord { .. })),
                    "record {at}: prefix of {cut} bytes was accepted"
                );
            }
            let mut damaged = good.clone();
            for i in 0..good.len() {
                for flip in [0x01, 0x80, 0xFF] {
                    damaged[i] = good[i] ^ flip;
                    if let Ok(state) = replay(at, &damaged) {
                        assert!(legal(&state), "record {at}, byte {i} ^ {flip:#x}");
                    }
                }
                damaged[i] = good[i];
            }
        }

        let nan = BudgetLedger::restore(f64::NAN, 0.0, 0);
        let sections = build_sections(&SnapshotContents {
            now_ms: 0,
            next_serial: 0,
            recoveries: 0,
            partial_closes: 0,
            lost_answers: 0,
            epochs_closed: 0,
            tenants: &one_tenant(&q, params, false, Some(nan)),
            pending: &[],
            warehouses: &[],
        });
        assert!(matches!(
            apply_snapshot(&mut RecoveredState::default(), &sections),
            Err(StoreError::BadRecord { .. })
        ));
    }

    /// The size the durable path pays per epoch: one 10⁴-bucket window
    /// over 1000 clients is two bytes a bucket plus fixed fields.
    #[test]
    fn wide_close_record_fits_24_kib() {
        let q = mk_query(1);
        let params = ExecutionParams::checked(1.0, 0.9, 0.5);
        let counts: Vec<u64> = (0..10_000u64).map(|i| i % 1_001).collect();
        let result = finalized(q.id, &counts, 1_000, params, 1_000, 0.95);
        let mut records = one_epoch_journal(&q, params, &result, 0.95);
        let close = records.pop().unwrap().payload;
        assert!(
            close.len() <= 24 * 1024,
            "close record is {} bytes",
            close.len()
        );
        records.push(WalRecord {
            index: 2,
            kind: K_CLOSED,
            payload: close,
        });
        let mut state = RecoveredState::default();
        apply_records(&mut state, &records).unwrap();
        assert_eq!(state.pending, vec![result]);
    }

    #[test]
    fn snapshot_sections_round_trip() {
        let q = mk_query(1);
        let params = ExecutionParams::checked(1.0, 0.9, 0.5);
        let ledger = BudgetLedger::restore(2.0, 0.75, 3);
        let result = mk_result(q.id, 2_000);
        let pending = vec![result.clone()];
        let warehouses = vec![(q.id, vec![(500u64, 7u128, BitVec::one_hot(2, 1))])];
        let contents = SnapshotContents {
            now_ms: 3_000,
            next_serial: 2,
            recoveries: 1,
            partial_closes: 4,
            lost_answers: 9,
            epochs_closed: 3,
            tenants: &one_tenant(&q, params, true, Some(ledger)),
            pending: &pending,
            warehouses: &warehouses,
        };
        let sections = build_sections(&contents);
        let mut state = RecoveredState::default();
        apply_snapshot(&mut state, &sections).unwrap();
        assert_eq!(state.now_ms, 3_000);
        assert_eq!(state.next_serial, 2);
        assert_eq!(state.recoveries, 1);
        assert_eq!(state.partial_closes, 4);
        assert_eq!(state.lost_answers, 9);
        assert_eq!(state.epochs_closed, 3);
        assert_eq!(state.tenants.iter().len(), 1);
        let t = state.tenants.get(q.id).unwrap();
        assert!(t.retain.is_some());
        let l = t.ledger.unwrap();
        assert_eq!((l.allocated(), l.spent(), l.epochs()), (2.0, 0.75, 3));
        assert_eq!(state.tenants.schedule(), vec![q.id]);
        assert_eq!(state.pending, pending);
        assert_eq!(t.recovered, warehouses[0].1);
    }
}
