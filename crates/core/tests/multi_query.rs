//! Multi-tenant scheduling: K concurrent queries sharing one worker
//! pool must produce **byte-identical** per-query results to the same
//! K queries run sequentially in isolation — the property that makes
//! the multi-tenant runtime a drop-in. It holds because a client's
//! answer draws from an RNG derived from its seed and the epoch's
//! timestamp — never the query id or what else shares the epoch —
//! shares are
//! routed by a query-tagged wire key so the join and the window
//! accumulation never mix tenants, and the shared epoch clock steps
//! identically for any schedule width.
//!
//! The isolation baselines submit **all** K queries (so query ids and
//! signatures match the concurrent run) but admit only one — the
//! others never answer an epoch.
//!
//! Alongside the equivalence matrix this suite pins the rest of the
//! multi-tenant contract:
//! * per-query privacy-budget ledgers never over-spend, under
//!   arbitrary charge interleavings (property test) and in the real
//!   scheduler (a retired query emits exactly one terminal
//!   [`Retirement`] and zero further results);
//! * feedback retuning is monotone under excess error, stays within
//!   `(0, 1]` × `(0, max_p]`, and replays identically per seed;
//! * a recycled batch-query estimator must not leak a prior query's
//!   counts into a historical answer (the PR-2 pooled-window
//!   lifecycle regression).
//!
//! The quick matrix runs in the tier-1 suite; the exhaustive
//! K ∈ {2,4} × shards {1,2,4} × widths {11, 10⁴} × depths {1,3}
//! sweep is `#[ignore]`d and run by the CI stress job.

use privapprox_core::aggregator::QueryResult;
use privapprox_core::{
    CoreError, DeployError, DeployHealth, FeedbackController, ShardedSystem, Warehouse,
};
use privapprox_rr::privacy::epsilon_zk;
use privapprox_rr::BucketEstimator;
use privapprox_types::{
    AnswerSpec, BudgetLedger, ExecutionParams, MessageId, PrivacyBudget, Query, Timestamp, Window,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const POPULATION: u64 = 120;
const WINDOW_MS: u64 = 1_000;

/// Exact (bit-level for floats) equality of two results.
fn assert_results_identical(a: &QueryResult, b: &QueryResult, context: &str) {
    assert_eq!(a.query, b.query, "{context}: query id");
    assert_eq!(a.window, b.window, "{context}: window");
    assert_eq!(a.sample_size, b.sample_size, "{context}: sample size");
    assert_eq!(a.population, b.population, "{context}: population");
    assert_eq!(a.buckets.len(), b.buckets.len(), "{context}: bucket count");
    let bits = f64::to_bits;
    for (i, (x, y)) in a.buckets.iter().zip(&b.buckets).enumerate() {
        let c = format!("{context}: bucket {i}");
        assert_eq!(x.raw_yes, y.raw_yes, "{c} raw_yes");
        assert_eq!(
            bits(x.estimate_sample),
            bits(y.estimate_sample),
            "{c} estimate_sample"
        );
        assert_eq!(bits(x.estimate), bits(y.estimate), "{c} estimate");
        assert_eq!(bits(x.ci.estimate), bits(y.ci.estimate), "{c} ci.estimate");
        assert_eq!(bits(x.ci.bound), bits(y.ci.bound), "{c} ci.bound");
        assert_eq!(
            bits(x.sampling_error),
            bits(y.sampling_error),
            "{c} sampling_error"
        );
        assert_eq!(bits(x.rr_error), bits(y.rr_error), "{c} rr_error");
    }
    assert_eq!(
        bits(a.privacy.eps_zk),
        bits(b.privacy.eps_zk),
        "{context}: eps_zk"
    );
}

/// Per-query execution parameters for tenant `j`: distinct sampling
/// rates so the tenants genuinely differ (identical streams would
/// mask cross-tenant mixing).
fn tenant_params(j: usize) -> ExecutionParams {
    ExecutionParams::checked(0.9 - 0.07 * j as f64, 0.8, 0.6)
}

struct Matrix {
    seed: u64,
    k: usize,
    shards: usize,
    depth: usize,
    buckets: usize,
    epochs: usize,
    /// Kill this worker between epochs `fault.0` and `fault.0 + 1`.
    fault: Option<(usize, usize)>,
}

/// Builds a deployment and submits `k` queries (registering all of
/// them so ids/signatures are schedule-independent).
fn build(m: &Matrix) -> (ShardedSystem, Vec<Query>) {
    let mut sys = ShardedSystem::builder()
        .clients(POPULATION)
        .proxies(2)
        .shards(m.shards)
        .workers(m.shards)
        .pipeline_depth(m.depth)
        .concurrent_queries(m.k)
        .seed(m.seed)
        .build();
    sys.load_numeric_column("vehicle", "speed", |i| (i % 110) as f64)
        .unwrap();
    let spec = AnswerSpec::ranges_with_overflow(0.0, 110.0, m.buckets - 1);
    let queries: Vec<Query> = (0..m.k)
        .map(|j| {
            sys.analyst()
                .query("SELECT speed FROM vehicle")
                .buckets(spec.clone())
                .window(WINDOW_MS, WINDOW_MS)
                .params(tenant_params(j))
                .submit()
                .unwrap()
        })
        .collect();
    (sys, queries)
}

/// Runs the schedule `admit` (indices into the submitted queries) for
/// `epochs` epochs and returns the drained result sequence plus
/// health. Worker faults named by the matrix are injected between
/// epochs; the surfaced supervision error is expected, not fatal.
fn run_schedule(m: &Matrix, admit: &[usize]) -> (Vec<QueryResult>, DeployHealth) {
    let (mut sys, queries) = build(m);
    for &j in admit {
        sys.admit(queries[j].id).unwrap();
    }
    let mut faulted = false;
    for epoch in 0..m.epochs {
        if let Some((after, w)) = m.fault {
            if epoch == after {
                // Between epochs: the Die command precedes the next
                // epoch's Answer commands on the worker's channel, so
                // the dying worker contributes zero shares to it.
                sys.inject_worker_panic(w);
                faulted = true;
            }
        }
        match sys.run_epoch_all() {
            Ok(()) => {}
            Err(e) => assert!(faulted, "unexpected epoch error: {e}"),
        }
    }
    let results = sys.drain_results();
    let health = sys.deploy_health();
    (results, health)
}

/// The core property: the concurrent run's per-query result sequence
/// equals each query's isolation run, byte for byte.
fn assert_concurrent_equals_isolated(m: &Matrix) {
    let context = format!(
        "seed {} k {} shards {} depth {} buckets {} fault {:?}",
        m.seed, m.k, m.shards, m.depth, m.buckets, m.fault
    );
    let all: Vec<usize> = (0..m.k).collect();
    let (concurrent, health) = run_schedule(m, &all);
    assert_eq!(
        concurrent.len(),
        m.k * m.epochs,
        "{context}: every admitted query answers every epoch"
    );
    if m.fault.is_none() {
        assert_eq!(health.respawns, 0, "{context}: fault-free");
        assert_eq!(health.partial_closes, 0, "{context}");
    } else {
        assert!(health.respawns >= 1, "{context}: fault repaired");
    }
    for j in 0..m.k {
        let (isolated, _) = run_schedule(m, &[j]);
        let mine: Vec<&QueryResult> = concurrent
            .iter()
            .filter(|r| r.query == all_query_id(m, j))
            .collect();
        assert_eq!(
            mine.len(),
            isolated.len(),
            "{context} query {j}: result count"
        );
        for (i, (got, want)) in mine.iter().zip(&isolated).enumerate() {
            assert_results_identical(got, want, &format!("{context} query {j} epoch {i}"));
        }
    }
}

/// The id query `j` receives from the analyst session (serials are
/// assigned in submission order, schedule-independent).
fn all_query_id(m: &Matrix, j: usize) -> privapprox_types::QueryId {
    let (_, queries) = build(&Matrix { epochs: 0, ..*m });
    queries[j].id
}

// ---------------------------------------------------------------
// Tentpole: the deterministic multi-query equivalence matrix.
// ---------------------------------------------------------------

/// Quick matrix (tier-1): two tenants across shard counts, both
/// bucket widths, barrier and pipelined depths.
#[test]
fn two_tenants_equal_isolated_runs() {
    for &shards in &[1usize, 2, 4] {
        for &buckets in &[11usize, 10_000] {
            for &depth in &[1usize, 3] {
                assert_concurrent_equals_isolated(&Matrix {
                    seed: 7,
                    k: 2,
                    shards,
                    depth,
                    buckets,
                    epochs: 2,
                    fault: None,
                });
            }
        }
    }
}

/// Quick K = 4 case (tier-1): four tenants, pipelined.
#[test]
fn four_tenants_equal_isolated_runs() {
    assert_concurrent_equals_isolated(&Matrix {
        seed: 11,
        k: 4,
        shards: 2,
        depth: 3,
        buckets: 11,
        epochs: 2,
        fault: None,
    });
}

/// Fault case (tier-1): a worker panics mid-stream between epochs.
/// The respawned worker's clients answer from the epoch's timestamp
/// like the dead one's would have, so the equivalence holds even
/// across the faulted epoch — and no tenant's shares contaminate
/// another's windows.
#[test]
fn worker_panic_mid_stream_preserves_tenant_isolation() {
    assert_concurrent_equals_isolated(&Matrix {
        seed: 13,
        k: 2,
        shards: 2,
        depth: 3,
        buckets: 11,
        epochs: 4,
        fault: Some((1, 1)),
    });
}

/// A respawned worker needs nothing from the epochs behind it: killed
/// after epoch 1 or after epoch 500, the run equals the unfaulted one
/// at every epoch, the one after the kill included, and the repair is
/// one respawn that lost nothing.
#[test]
fn worker_killed_early_or_late_equals_the_unfaulted_run() {
    for after in [1, 500] {
        let faulted = Matrix {
            seed: 19,
            k: 2,
            shards: 2,
            depth: 1,
            buckets: 11,
            epochs: after + 1,
            fault: Some((after, 1)),
        };
        let (got, health) = run_schedule(&faulted, &[0, 1]);
        assert_eq!(
            (health.respawns, health.partial_closes),
            (1, 0),
            "kill after {after}"
        );
        let (want, _) = run_schedule(
            &Matrix {
                fault: None,
                ..faulted
            },
            &[0, 1],
        );
        assert_eq!(got.len(), want.len(), "kill after {after}: result count");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_results_identical(g, w, &format!("kill after {after}, result {i}"));
        }
    }
}

/// Exhaustive sweep: the full K × shards × widths × depths matrix,
/// including a fault case per K. `#[ignore]`d — the CI stress job
/// runs it (`--include-ignored`, release).
#[test]
#[ignore = "exhaustive; run by the CI stress job"]
fn exhaustive_multi_query_matrix() {
    for &k in &[2usize, 4] {
        for &shards in &[1usize, 2, 4] {
            for &buckets in &[11usize, 10_000] {
                for &depth in &[1usize, 3] {
                    assert_concurrent_equals_isolated(&Matrix {
                        seed: 17 + k as u64,
                        k,
                        shards,
                        depth,
                        buckets,
                        epochs: 2,
                        fault: None,
                    });
                }
            }
        }
        assert_concurrent_equals_isolated(&Matrix {
            seed: 29 + k as u64,
            k,
            shards: 2,
            depth: 3,
            buckets: 11,
            epochs: 4,
            fault: Some((1, k % 2)),
        });
    }
}

// ---------------------------------------------------------------
// Satellite: per-query budgets never over-spend; retirement is a
// typed, exactly-once terminal.
// ---------------------------------------------------------------

proptest! {
    /// Arbitrary interleavings of epoch charges across queries: no
    /// ledger ever spends more than its allowance, a rejected charge
    /// leaves the ledger untouched, and the first rejection is
    /// terminal for that ledger (every later identical charge is
    /// rejected too — the scheduler retires on first refusal).
    #[test]
    fn budget_ledger_never_overspends(
        allowances in proptest::collection::vec(0.0f64..20.0, 1..6),
        charges in proptest::collection::vec((0usize..6, 0.01f64..5.0), 0..64),
    ) {
        let mut ledgers: Vec<BudgetLedger> = allowances
            .iter()
            .map(|&a| BudgetLedger::new(PrivacyBudget::new(a.max(0.001)).unwrap()))
            .collect();
        let mut exhausted = vec![false; ledgers.len()];
        for (q, eps) in charges {
            let q = q % ledgers.len();
            let before = ledgers[q].spent();
            match ledgers[q].try_charge(eps) {
                Ok(()) => {
                    prop_assert!(!exhausted[q], "charge admitted after exhaustion");
                    prop_assert!(
                        ledgers[q].spent() <= ledgers[q].allocated() + 1e-12,
                        "over-spent: {} > {}",
                        ledgers[q].spent(),
                        ledgers[q].allocated()
                    );
                }
                Err(ex) => {
                    prop_assert_eq!(ledgers[q].spent().to_bits(), before.to_bits());
                    prop_assert!(ex.spent + ex.requested > ex.allocated);
                    if eps >= 5.0 - f64::EPSILON {
                        exhausted[q] = true;
                    }
                }
            }
        }
        for l in &ledgers {
            prop_assert!(l.spent() <= l.allocated() + 1e-12);
        }
    }
}

/// A budget covering exactly two epochs retires the query at its
/// third: exactly one `Retirement` (spent ≤ allocated, epochs = 2),
/// zero results for the retired query afterwards, and the surviving
/// tenant keeps answering every epoch.
#[test]
fn exhausted_budget_retires_query_exactly_once() {
    let m = Matrix {
        seed: 19,
        k: 2,
        shards: 2,
        depth: 1,
        buckets: 11,
        epochs: 0,
        fault: None,
    };
    let (mut sys, queries) = build(&m);
    let eps = epsilon_zk(tenant_params(0).s, tenant_params(0).p, tenant_params(0).q);
    sys.set_budget(queries[0].id, PrivacyBudget::new(2.5 * eps).unwrap())
        .unwrap();
    for q in &queries {
        sys.admit(q.id).unwrap();
    }
    for _ in 0..5 {
        sys.run_epoch_all().unwrap();
    }
    let results = sys.drain_results();
    let for_q0 = results.iter().filter(|r| r.query == queries[0].id).count();
    let for_q1 = results.iter().filter(|r| r.query == queries[1].id).count();
    assert_eq!(for_q0, 2, "budget covers exactly two epochs");
    assert_eq!(for_q1, 5, "survivor answers every epoch");
    let retired = sys.drain_retired();
    assert_eq!(retired.len(), 1, "exactly one terminal result");
    assert_eq!(retired[0].query, queries[0].id);
    assert_eq!(retired[0].epochs, 2);
    assert!(retired[0].spent <= retired[0].allocated);
    assert!(sys.drain_retired().is_empty(), "terminal is drained once");
    assert!(!sys.admitted().contains(&queries[0].id));
    assert!(
        sys.admit(queries[0].id).is_err(),
        "a retired query cannot re-enter the schedule"
    );
    let ledger = sys.budget_ledger(queries[0].id).unwrap();
    assert!(ledger.spent() <= ledger.allocated());
    // Zero further shares: two more epochs yield survivor-only
    // results and no new retirement.
    for _ in 0..2 {
        sys.run_epoch_all().unwrap();
    }
    let more = sys.drain_results();
    assert!(more.iter().all(|r| r.query == queries[1].id));
    assert_eq!(more.len(), 2);
    assert!(sys.drain_retired().is_empty());
    assert_eq!(sys.deploy_health().partial_closes, 0);
}

/// One budget rule under every entry point. A query `run_epoch_all`
/// retired is refused by `submit_epoch` and `run_epoch` with the typed
/// error `admit` returns, and no share of it reaches the broker; a
/// budgeted query driven only through `run_epoch` is charged each
/// epoch and retired by the call whose debit its ledger cannot cover.
#[test]
fn a_retired_query_cannot_be_run_by_any_entry_point() {
    let retired = |r: Result<(), CoreError>| {
        matches!(r, Err(CoreError::Deploy(DeployError::InvalidConfig(_))))
    };
    let m = Matrix {
        seed: 41,
        k: 2,
        shards: 2,
        depth: 1,
        buckets: 11,
        epochs: 0,
        fault: None,
    };
    let (mut sys, queries) = build(&m);
    let eps = |j: usize| epsilon_zk(tenant_params(j).s, tenant_params(j).p, tenant_params(j).q);
    let (q0, q1) = (&queries[0], &queries[1]);

    // Retired by the schedule.
    sys.set_budget(q0.id, PrivacyBudget::new(1.5 * eps(0)).unwrap())
        .unwrap();
    sys.admit(q0.id).unwrap();
    sys.run_epoch_all().unwrap();
    sys.run_epoch_all().unwrap();
    assert_eq!(sys.drain_retired().len(), 1);
    sys.drain_results();
    let records_in = sys.broker_stats().records_in;
    assert!(retired(sys.submit_epoch(q0)));
    assert!(retired(sys.run_epoch(q0).map(|_| ())));
    assert!(retired(sys.admit(q0.id)));
    assert_eq!(
        sys.broker_stats().records_in,
        records_in,
        "no share of a retired query is sent"
    );
    assert!(sys.drain_results().is_empty());
    assert_eq!(sys.budget_ledger(q0.id).unwrap().epochs(), 1);

    // Retired through `run_epoch` alone: two epochs fit, the third
    // call's debit does not.
    sys.set_budget(q1.id, PrivacyBudget::new(2.5 * eps(1)).unwrap())
        .unwrap();
    for epoch in 0..2 {
        sys.run_epoch(q1).unwrap();
        assert_eq!(sys.budget_ledger(q1.id).unwrap().epochs(), epoch + 1);
    }
    let records_in = sys.broker_stats().records_in;
    assert!(
        retired(sys.run_epoch(q1).map(|_| ())),
        "the call that retires it says so"
    );
    assert_eq!(sys.broker_stats().records_in, records_in);
    let terminal = sys.drain_retired();
    assert_eq!(terminal.len(), 1);
    assert_eq!((terminal[0].query, terminal[0].epochs), (q1.id, 2));
    assert!(terminal[0].spent <= terminal[0].allocated);
    assert!(retired(sys.submit_epoch(q1)));
    assert!(sys.drain_results().is_empty());
    assert_eq!(sys.deploy_health().partial_closes, 0);
}

// ---------------------------------------------------------------
// Satellite: feedback retuning is monotone, bounded, deterministic.
// ---------------------------------------------------------------

proptest! {
    /// When the observed error exceeds the target, the next sampling
    /// rate never decreases; every retuned rate stays within
    /// `(0, 1]` and `p` within `(0, max_p]`.
    #[test]
    fn feedback_is_monotone_and_bounded(
        s in 0.05f64..1.0,
        p in 0.3f64..0.95,
        q in 0.2f64..0.8,
        target in 0.01f64..0.5,
        observed in 0.0f64..4.0,
    ) {
        let ctrl = FeedbackController::new(target, 0.5, 0.95);
        let current = ExecutionParams::checked(s, p, q);
        let (next, _) = ctrl.retune(current, observed);
        prop_assert!(next.s > 0.0 && next.s <= 1.0, "s out of range: {}", next.s);
        prop_assert!(next.p > 0.0 && next.p <= 0.95 + 1e-12, "p out of range: {}", next.p);
        prop_assert!(next.q > 0.0 && next.q < 1.0);
        if observed > target {
            prop_assert!(
                next.s >= current.s - 1e-12,
                "rate decreased under excess error: {} -> {}",
                current.s,
                next.s
            );
        }
    }

    /// Retuning is a pure function: the same trajectory of observed
    /// errors replays to identical parameters, bit for bit.
    #[test]
    fn feedback_replays_identically(
        s in 0.05f64..1.0,
        target in 0.01f64..0.5,
        errors in proptest::collection::vec(0.0f64..3.0, 1..12),
    ) {
        let ctrl = FeedbackController::new(target, 0.5, 0.95);
        let start = ExecutionParams::checked(s, 0.8, 0.6);
        let run = |mut cur: ExecutionParams| -> Vec<(u64, u64, u64)> {
            errors
                .iter()
                .map(|&e| {
                    let (next, _) = ctrl.retune(cur, e);
                    cur = next;
                    (next.s.to_bits(), next.p.to_bits(), next.q.to_bits())
                })
                .collect()
        };
        prop_assert_eq!(run(start), run(start));
    }
}

/// Deploy-level feedback: a tight error target grows the sampling
/// rate from the previous window's observed error; the retune lands
/// on an epoch boundary (flush first), and a loose target changes
/// nothing.
#[test]
fn feedback_drives_sample_rate_from_observed_error() {
    let m = Matrix {
        seed: 23,
        k: 2,
        shards: 2,
        depth: 2,
        buckets: 11,
        epochs: 0,
        fault: None,
    };
    let (mut sys, queries) = build(&m);
    for q in &queries {
        sys.admit(q.id).unwrap();
    }
    // Tight target on tenant 0; tenant 1 runs uncontrolled.
    sys.enable_feedback(queries[0].id, FeedbackController::new(1e-6, 0.5, 0.9))
        .unwrap();
    sys.run_epoch_all().unwrap();
    let e0 = sys.last_observed_error(queries[0].id).unwrap();
    assert!(e0.is_finite() && e0 > 0.0);
    sys.apply_feedback().unwrap();
    sys.run_epoch_all().unwrap();
    let results = sys.drain_results();
    let eps0: Vec<f64> = results
        .iter()
        .filter(|r| r.query == queries[0].id)
        .map(|r| r.privacy.eps_zk)
        .collect();
    // Tenant 0's second-epoch spend grew with its sampling rate
    // (ε_zk is monotone in s); tenant 1's did not move.
    assert!(
        eps0[1] > eps0[0],
        "rate did not grow under a tight target: {eps0:?}"
    );
    let eps1: Vec<f64> = results
        .iter()
        .filter(|r| r.query == queries[1].id)
        .map(|r| r.privacy.eps_zk)
        .collect();
    assert_eq!(
        eps1[0].to_bits(),
        eps1[1].to_bits(),
        "no controller: unchanged"
    );
}

// ---------------------------------------------------------------
// Satellite: historical answers from retained windows; a recycled
// estimator must not leak a prior query's counts.
// ---------------------------------------------------------------

/// `batch_query_with` through a deliberately dirty recycled estimator
/// equals the fresh-estimator `batch_query`, bit for bit — the
/// pooled-lifecycle regression at the `Warehouse` layer.
#[test]
fn recycled_estimator_does_not_leak_into_batch_answer() {
    let params = ExecutionParams::checked(1.0, 0.9, 0.6);
    let qid = privapprox_types::QueryId::new(privapprox_types::AnalystId(1), 1);
    let mut w = Warehouse::new(qid, 4, params, 1_000);
    let mut rng = StdRng::seed_from_u64(42);
    for i in 0..200u64 {
        let mut answer = privapprox_types::BitVec::zeros(4);
        answer.set((i % 4) as usize, true);
        w.append(Timestamp(i * 10), MessageId(i as u128), answer);
    }
    let range = Window {
        start: Timestamp(0),
        end: Timestamp(2_000),
    };
    let want = w.batch_query(range, 64, 0.95, &mut StdRng::seed_from_u64(7));
    // Poison a recycled estimator with a "prior query's" counts.
    let mut dirty = BucketEstimator::new(4, 0.9, 0.6);
    for _ in 0..50 {
        let mut other = privapprox_types::BitVec::zeros(4);
        other.set(0, true);
        dirty.push(&other);
    }
    let _ = &mut rng;
    let got = w.batch_query_with(&mut dirty, range, 64, 0.95, &mut StdRng::seed_from_u64(7));
    assert_results_identical(&want, &got, "recycled estimator");
}

/// End-to-end: a deployment answers a historical batch query from the
/// shards' retained windows, identically whether or not a *different*
/// query's batch answer was computed first through the same recycled
/// scratch estimator.
#[test]
fn historical_answers_survive_scratch_recycling_across_queries() {
    let m = Matrix {
        seed: 31,
        k: 2,
        shards: 2,
        depth: 1,
        buckets: 11,
        epochs: 0,
        fault: None,
    };
    let run = |interleave: bool| -> QueryResult {
        let (mut sys, queries) = build(&m);
        for q in &queries {
            sys.admit(q.id).unwrap();
            sys.retain_history(q.id).unwrap();
        }
        for _ in 0..3 {
            sys.run_epoch_all().unwrap();
        }
        let range = Window {
            start: Timestamp(0),
            end: Timestamp(10 * WINDOW_MS),
        };
        if interleave {
            // Dirty the recycled scratch with tenant 0's counts first.
            let _ = sys.batch_query(queries[0].id, range, 40).unwrap();
        }
        sys.batch_query(queries[1].id, range, 40).unwrap()
    };
    let clean = run(false);
    let interleaved = run(true);
    assert!(clean.sample_size > 0, "retained windows answered");
    assert_results_identical(&clean, &interleaved, "scratch recycling");
}

/// Retention is an in-process capability: a query that never opted in
/// has no store to query.
#[test]
fn batch_query_requires_retention() {
    let m = Matrix {
        seed: 37,
        k: 1,
        shards: 1,
        depth: 1,
        buckets: 11,
        epochs: 0,
        fault: None,
    };
    let (mut sys, queries) = build(&m);
    let range = Window {
        start: Timestamp(0),
        end: Timestamp(WINDOW_MS),
    };
    assert!(sys.batch_query(queries[0].id, range, 10).is_err());
}

// ---------------------------------------------------------------
// Schedule hygiene.
// ---------------------------------------------------------------

/// Queries on one schedule must share a window size (one shared epoch
/// clock tags every admitted query's answers).
#[test]
fn admit_rejects_mismatched_window_sizes() {
    let m = Matrix {
        seed: 41,
        k: 1,
        shards: 1,
        depth: 1,
        buckets: 11,
        epochs: 0,
        fault: None,
    };
    let (mut sys, queries) = build(&m);
    let spec = AnswerSpec::ranges_with_overflow(0.0, 110.0, 10);
    let other = sys
        .analyst()
        .query("SELECT speed FROM vehicle")
        .buckets(spec)
        .window(2_000, 2_000)
        .params(tenant_params(1))
        .submit()
        .unwrap();
    sys.admit(queries[0].id).unwrap();
    sys.admit(queries[0].id).unwrap(); // idempotent
    assert_eq!(sys.admitted().len(), 1);
    assert!(sys.admit(other.id).is_err(), "window sizes must agree");
    sys.withdraw(queries[0].id);
    sys.admit(other.id).unwrap();
}

/// The window rule `admit` enforces holds for a re-registration too:
/// re-registering an admitted query with another window size is
/// refused with `admit`'s error, and the refused call changes nothing
/// — the run that carries on is byte-identical to one that never made
/// it (a wider window would count each client once per epoch it
/// spans).
#[test]
fn reregistering_an_admitted_query_keeps_the_shared_window() {
    let m = Matrix {
        seed: 43,
        k: 2,
        shards: 2,
        depth: 1,
        buckets: 11,
        epochs: 4,
        fault: None,
    };
    let (reference, _) = run_schedule(&m, &[0, 1]);
    let (mut sys, queries) = build(&m);
    for q in &queries {
        sys.admit(q.id).unwrap();
    }
    sys.run_epoch_all().unwrap();
    let mut wider = queries[1].clone();
    wider.window.size = 3 * WINDOW_MS;
    wider.window.slide = 3 * WINDOW_MS;
    match sys.register(wider, tenant_params(1)) {
        Err(CoreError::Deploy(DeployError::InvalidConfig(msg))) => assert!(
            msg.contains("scheduled queries must share a window size: 3000 != 1000"),
            "{msg}"
        ),
        other => panic!("expected the shared-window refusal, got {other:?}"),
    }
    for _ in 1..m.epochs {
        sys.run_epoch_all().unwrap();
    }
    let results = sys.drain_results();
    assert_eq!(results.len(), reference.len());
    for (i, (got, want)) in results.iter().zip(&reference).enumerate() {
        assert_eq!(got.window.end.0 - got.window.start.0, WINDOW_MS);
        assert_results_identical(got, want, &format!("result {i}"));
    }
    // Off the schedule, the query may take any window.
    sys.withdraw(queries[1].id);
    let mut wider = queries[1].clone();
    wider.window.size = 3 * WINDOW_MS;
    wider.window.slide = 3 * WINDOW_MS;
    sys.register(wider, tenant_params(1)).unwrap();
    assert!(sys.admit(queries[1].id).is_err(), "window sizes must agree");
}
