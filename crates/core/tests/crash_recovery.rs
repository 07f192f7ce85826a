//! Kill-9 crash recovery: a durable `ShardedSystem` killed without
//! warning — `abort()` between an epoch's journal fsync and its first
//! worker send, a SIGKILLed child node, or a whole-system teardown
//! with the unsynced journal tail discarded — must recover from its
//! store directory to a state whose drained results are
//! **byte-identical** to an uninterrupted run, and whose budget
//! ledgers never exceed the uninterrupted spend.
//!
//! Why byte-identity is achievable at all: the journal captures the
//! control plane (registrations, charges, submitted epochs, closes),
//! and an epoch's data plane is a deterministic function of the seed
//! and the epoch's journaled timestamp — recovery re-runs the open
//! epochs under their original timestamps, reproducing the exact
//! shares the crash may have swallowed, and owes closed epochs
//! nothing.
//!
//! The privacy half of the contract: charges are journaled and
//! fsynced strictly before any send, so a recovered ledger has spent
//! at least as much as any answer that escaped the crash — replaying
//! can only under-spend ε, never over-spend. The matrix asserts the
//! recovered spend never exceeds the pre-crash spend and that the
//! finished run's spend equals the uninterrupted run's to the bit.
//!
//! Results are delivered at-least-once across a crash (a result
//! drained just before the crash can be re-emitted from the journal
//! after it); duplicates are keyed by `(query, window start)` and
//! must themselves be byte-identical.
//!
//! The quick matrix (1/2/4 shards × widths {11, 10⁴}) runs in tier-1;
//! the seeded exhaustive sweep is `#[ignore]`d and run by the CI
//! stress job.

use privapprox_core::aggregator::QueryResult;
use privapprox_core::{FaultInjector, ShardedSystem, ShardedSystemBuilder, System};
use privapprox_rr::privacy::epsilon_zk;
use privapprox_types::{
    AnswerSpec, ExecutionParams, PrivacyBudget, Query, QueryId, Timestamp, Window,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const POPULATION: u64 = 120;
const WINDOW_MS: u64 = 1_000;

fn node_binary() -> &'static str {
    env!("CARGO_BIN_EXE_privapprox-node")
}

/// A fresh store directory under the system temp dir; any leftover
/// from a previous run of the same test is cleared first.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("privapprox-crashrec-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// One crash-matrix configuration.
struct Rig {
    seed: u64,
    shards: usize,
    buckets: usize,
    epochs: usize,
}

fn rig_params() -> ExecutionParams {
    ExecutionParams::checked(0.9, 0.8, 0.6)
}

fn builder(r: &Rig) -> ShardedSystemBuilder {
    ShardedSystem::builder()
        .clients(POPULATION)
        .proxies(2)
        .shards(r.shards)
        .workers(r.shards)
        .seed(r.seed)
}

fn load(sys: &mut ShardedSystem) {
    sys.load_numeric_column("vehicle", "speed", |i| (i % 110) as f64)
        .unwrap();
}

/// Registers the rig's single budgeted, scheduled query (the serial
/// is deterministic, so every incarnation agrees on the `QueryId`).
fn register(sys: &mut ShardedSystem, buckets: usize) -> Query {
    let spec = AnswerSpec::ranges_with_overflow(0.0, 110.0, buckets - 1);
    let q = sys
        .analyst()
        .query("SELECT speed FROM vehicle")
        .buckets(spec)
        .window(WINDOW_MS, WINDOW_MS)
        .params(rig_params())
        .submit()
        .unwrap();
    sys.set_budget(q.id, PrivacyBudget::new(10_000.0).unwrap())
        .unwrap();
    sys.admit(q.id).unwrap();
    q
}

/// The uninterrupted run every crashed run is measured against:
/// drained results in close order plus the final ledger spend.
fn reference_run(r: &Rig) -> (Vec<QueryResult>, f64) {
    let mut sys = builder(r).build();
    load(&mut sys);
    let q = register(&mut sys, r.buckets);
    let mut results = Vec::new();
    for _ in 0..r.epochs {
        sys.run_epoch_all().unwrap();
        results.extend(sys.drain_results());
    }
    let spent = sys.budget_ledger(q.id).unwrap().spent();
    (results, spent)
}

/// Merges result streams from before and after crashes, dropping
/// at-least-once duplicates — which must be byte-identical to the
/// copy that was kept — and sorting into canonical order.
fn merge_dedup(runs: Vec<Vec<QueryResult>>) -> Vec<QueryResult> {
    let mut seen: HashMap<(QueryId, u64), usize> = HashMap::new();
    let mut out: Vec<QueryResult> = Vec::new();
    for run in runs {
        for r in run {
            let key = (r.query, r.window.start.0);
            match seen.get(&key) {
                Some(&i) => assert_results_identical(&out[i], &r, "at-least-once duplicate"),
                None => {
                    seen.insert(key, out.len());
                    out.push(r);
                }
            }
        }
    }
    out.sort_by_key(|r| (r.window.start.0, r.query.to_u64()));
    out
}

fn assert_sequences_identical(got: &[QueryResult], want: &[QueryResult], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: result count");
    for (g, w) in got.iter().zip(want) {
        assert_results_identical(g, w, context);
    }
}

/// The whole-system crash matrix body: run `crash_after` full epochs
/// durably, submit one more, tear the system down kill-9 style (the
/// unsynced journal tail is discarded), recover from the store
/// directory, finish the run, and require byte-identity with the
/// uninterrupted reference plus ledger spend that never exceeded the
/// true spend. Returns the byte length of the newest snapshot the
/// crashed incarnation left (0 when it had written none).
fn crash_recover_case(r: &Rig, crash_after: usize, tag: &str) -> u64 {
    assert!(crash_after < r.epochs);
    let (mut reference, ref_spent) = reference_run(r);
    reference.sort_by_key(|x| (x.window.start.0, x.query.to_u64()));
    let dir = store_dir(tag);

    // Phase 1: crash with one epoch submitted (journal fsynced) but
    // never completed.
    let mut pre = Vec::new();
    let pre_spent;
    {
        let mut sys = builder(r).durable(&dir).snapshot_every(2).build();
        assert!(!sys.needs_recovery(), "fresh directory has nothing to recover");
        load(&mut sys);
        let q = register(&mut sys, r.buckets);
        for _ in 0..crash_after {
            sys.run_epoch_all().unwrap();
            pre.extend(sys.drain_results());
        }
        sys.submit_epoch_all().unwrap();
        pre_spent = sys.budget_ledger(q.id).unwrap().spent();
        sys.crash();
    }
    let snapshot_bytes = std::fs::read_dir(&dir)
        .unwrap()
        .map(|f| f.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "snap"))
        .max()
        .map_or(0, |newest| std::fs::metadata(newest).unwrap().len());

    // Phase 2: recover, verify the ledger, finish the run.
    let mut sys = builder(r).durable(&dir).snapshot_every(2).build();
    assert!(sys.needs_recovery(), "the journal holds a crashed incarnation");
    load(&mut sys);
    let recovered = sys.resume().unwrap();
    assert_eq!(recovered.len(), 1, "one registered query recovers");
    let qid = recovered[0].id;
    let spent_recovered = sys.budget_ledger(qid).unwrap().spent();
    assert!(
        spent_recovered <= pre_spent,
        "recovered ledger may under-report but never over-spend: {spent_recovered} > {pre_spent}"
    );
    sys.flush_epochs().unwrap();
    let mut post = sys.drain_results();
    for _ in (crash_after + 1)..r.epochs {
        sys.run_epoch_all().unwrap();
        post.extend(sys.drain_results());
    }
    assert_eq!(
        sys.budget_ledger(qid).unwrap().spent().to_bits(),
        ref_spent.to_bits(),
        "finished recovered run spends exactly what the uninterrupted run spent"
    );
    let health = sys.deploy_health();
    assert_eq!(health.recoveries, 1, "exactly one recovery counted");
    assert!(health.snapshot_count >= 1, "resume checkpointed the adopted state");
    assert!(health.journal_bytes > 0, "the journal is live");

    let combined = merge_dedup(vec![pre, post]);
    assert_sequences_identical(&combined, &reference, tag);
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
    snapshot_bytes
}

/// Closed epochs leave nothing behind: the snapshot taken at close
/// 2 000 is byte for byte as long as the one taken at close 10, and
/// recovery from either continues the uninterrupted run.
#[test]
fn snapshot_size_and_recovery_do_not_depend_on_epochs_closed() {
    let after = |closed: usize| {
        let r = Rig { seed: 23, shards: 2, buckets: 11, epochs: closed + 4 };
        crash_recover_case(&r, closed, &format!("flat-{closed}"))
    };
    let (early, late) = (after(10), after(2_000));
    assert!(early > 0, "a snapshot landed on close 10");
    assert_eq!(early, late);
}

// ----- the quick whole-system matrix (tier-1) ----------------------

#[test]
fn crash_recovery_one_shard_narrow() {
    let r = Rig { seed: 3, shards: 1, buckets: 11, epochs: 4 };
    crash_recover_case(&r, 1, "1shard-11");
}

#[test]
fn crash_recovery_two_shards_narrow() {
    let r = Rig { seed: 5, shards: 2, buckets: 11, epochs: 4 };
    crash_recover_case(&r, 2, "2shard-11");
}

#[test]
fn crash_recovery_four_shards_wide() {
    let r = Rig { seed: 9, shards: 4, buckets: 10_000, epochs: 3 };
    crash_recover_case(&r, 1, "4shard-10k");
}

#[test]
fn crash_before_any_close_recovers() {
    // Crash point 0: the journal holds a registration, charges and
    // one submitted epoch — no close, no snapshot.
    let r = Rig { seed: 13, shards: 2, buckets: 11, epochs: 3 };
    crash_recover_case(&r, 0, "first-epoch");
}

/// The exhaustive seeded sweep the CI stress job runs: every crash
/// point of every matrix cell.
#[test]
#[ignore]
fn crash_recovery_full_sweep() {
    for &shards in &[1usize, 2, 4] {
        for &buckets in &[11usize, 10_000] {
            let epochs = if buckets > 1_000 { 3 } else { 5 };
            for crash_after in 0..epochs - 1 {
                for seed in 0..3u64 {
                    let r = Rig { seed: 21 + seed, shards, buckets, epochs };
                    let tag = format!("sweep-{shards}-{buckets}-{crash_after}-{seed}");
                    crash_recover_case(&r, crash_after, &tag);
                }
            }
        }
    }
}

// ----- results recomputed from a close record ----------------------

/// A close record holds what the shards counted, not the result:
/// crash after a 10⁴-bucket close's fsync and before the drain (no
/// snapshot in between, so the journal is the only copy), and the
/// result `resume()` recomputes is the single-threaded oracle's,
/// bit for bit.
#[test]
fn wide_result_recomputed_from_its_close_record_matches_the_oracle() {
    let r = Rig { seed: 37, shards: 2, buckets: 10_000, epochs: 1 };
    let mut oracle = System::builder()
        .clients(POPULATION)
        .proxies(2)
        .seed(r.seed)
        .build();
    oracle.load_numeric_column("vehicle", "speed", |i| (i % 110) as f64);
    let q = oracle
        .analyst()
        .query("SELECT speed FROM vehicle")
        .buckets(AnswerSpec::ranges_with_overflow(0.0, 110.0, r.buckets - 1))
        .window(WINDOW_MS, WINDOW_MS)
        .params(rig_params())
        .submit()
        .unwrap();
    let want = oracle.run_epoch(&q).unwrap();

    let dir = store_dir("wide-close-record");
    {
        let mut sys = builder(&r).durable(&dir).snapshot_every(100).build();
        load(&mut sys);
        assert_eq!(register(&mut sys, r.buckets).id, q.id);
        // Registering 10⁴ bucket rules is the bulk of the journal;
        // the epoch itself must add little.
        let registered = sys.deploy_health().journal_bytes;
        sys.run_epoch_all().unwrap();
        let epoch = sys.deploy_health().journal_bytes - registered;
        assert!(epoch < 32 * 1024, "one 10⁴-bucket epoch journaled {epoch} bytes");
        sys.crash();
    }
    let mut sys = builder(&r).durable(&dir).snapshot_every(100).build();
    load(&mut sys);
    sys.resume().unwrap();
    let got = sys.drain_results();
    assert_eq!(got.len(), 1, "the undrained window comes back once");
    assert_results_identical(&got[0], &want, "recomputed from the close record");
    assert_eq!(got[0], want);
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----- overlapped epochs: the suffix under a snapshot ---------------

/// At pipeline depth 3 a snapshot's floor stops at the oldest in-flight
/// `Submitted`, so the journal suffix replayed over it holds the close
/// records of epochs the snapshot already counted. They must not count
/// twice: after a crash the health counters equal an uninterrupted
/// run's and every window is drained exactly once. Shard 0's traffic
/// is dropped so every close is partial and loses a known number of
/// answers — the counters have something to double.
#[test]
fn overlapped_epochs_recover_without_double_counting_closes() {
    let r = Rig { seed: 31, shards: 2, buckets: 11, epochs: 7 };
    let lossy = |r: &Rig| {
        builder(r)
            .pipeline_depth(3)
            .epoch_deadline(Duration::from_millis(400))
            .fault_injector(FaultInjector::default().drop_shard_traffic(0))
    };
    let (want, want_health) = {
        let mut sys = lossy(&r).build();
        load(&mut sys);
        register(&mut sys, r.buckets);
        for _ in 0..r.epochs {
            sys.submit_epoch_all().unwrap();
        }
        sys.flush_epochs().unwrap();
        (sys.drain_results(), sys.deploy_health())
    };
    assert_eq!(want_health.partial_closes, r.epochs as u64);
    assert!(want_health.lost_answers > 0);

    let dir = store_dir("depth3");
    let crash_after = 5;
    {
        // Five submissions at depth 3 close epochs 1 and 2; the second
        // close snapshots with epochs 3 and 4 in flight.
        let mut sys = lossy(&r).durable(&dir).snapshot_every(2).build();
        load(&mut sys);
        register(&mut sys, r.buckets);
        for _ in 0..crash_after {
            sys.submit_epoch_all().unwrap();
        }
        sys.crash();
    }
    let mut sys = lossy(&r).durable(&dir).snapshot_every(2).build();
    load(&mut sys);
    sys.resume().unwrap();
    for _ in crash_after..r.epochs {
        sys.submit_epoch_all().unwrap();
    }
    sys.flush_epochs().unwrap();
    let mut got = sys.drain_results();
    let health = sys.deploy_health();
    assert_eq!(health.partial_closes, want_health.partial_closes);
    assert_eq!(health.lost_answers, want_health.lost_answers);
    got.sort_by_key(|x| (x.window.start.0, x.query.to_u64()));
    assert_sequences_identical(&got, &want, "depth-3 recovery, nothing drained before the crash");
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----- ledger monotonicity across every crash point ----------------

/// At every possible crash point, the persisted spend equals the
/// charged spend (charges are fsynced before sends, and `crash()`
/// models the widest loss — everything unsynced gone): recovery can
/// never manufacture spend above the true ledger, and the epoch
/// count restores exactly.
#[test]
fn ledger_never_overspends_at_any_crash_point() {
    let r = Rig { seed: 17, shards: 2, buckets: 11, epochs: 5 };
    let eps = epsilon_zk(0.9, 0.8, 0.6);
    for crash_after in 0..r.epochs {
        let dir = store_dir(&format!("ledger-{crash_after}"));
        let true_spent;
        {
            let mut sys = builder(&r).durable(&dir).snapshot_every(3).build();
            load(&mut sys);
            let q = register(&mut sys, r.buckets);
            for _ in 0..crash_after {
                sys.run_epoch_all().unwrap();
                sys.drain_results();
            }
            sys.submit_epoch_all().unwrap();
            true_spent = sys.budget_ledger(q.id).unwrap().spent();
            sys.crash();
        }
        let mut sys = builder(&r).durable(&dir).snapshot_every(3).build();
        load(&mut sys);
        let recovered = sys.resume().unwrap();
        let ledger = sys.budget_ledger(recovered[0].id).unwrap();
        assert!(
            ledger.spent() <= true_spent,
            "crash point {crash_after}: recovered spend {} exceeds true spend {true_spent}",
            ledger.spent()
        );
        assert_eq!(
            ledger.spent().to_bits(),
            true_spent.to_bits(),
            "crash point {crash_after}: every synced charge restores exactly"
        );
        assert_eq!(ledger.epochs(), crash_after as u64 + 1);
        assert!((ledger.spent() - eps * (crash_after as f64 + 1.0)).abs() < 1e-9);
        drop(sys);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ----- abort() between fsync and send (re-exec harness) ------------

/// Re-executes this test binary so `crash_after_journal` can
/// `abort()` the victim for real. With `PRIVAPPROX_CRASH_RESUME` set
/// the child recovers first and aborts during the open-epoch
/// *re-submission* — a crash in the middle of recovery itself.
fn spawn_crash_child(dir: &Path, crash_at: u64, resume_first: bool) {
    let exe = std::env::current_exe().unwrap();
    let mut cmd = Command::new(exe);
    cmd.args(["--exact", "child_abort_workload", "--nocapture", "--test-threads=1"])
        .env("PRIVAPPROX_CRASH_DIR", dir)
        .env("PRIVAPPROX_CRASH_AT", crash_at.to_string());
    if resume_first {
        cmd.env("PRIVAPPROX_CRASH_RESUME", "1");
    }
    let out = cmd.output().unwrap();
    assert!(
        !out.status.success(),
        "the child was supposed to abort mid-epoch; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

const ABORT_RIG: Rig = Rig { seed: 7, shards: 2, buckets: 11, epochs: 6 };

/// Not an independent test: the crash *victim*, re-executed by the
/// abort harness below with the env set (a plain `cargo test` run
/// sees no env and returns immediately). `crash_after_journal` fires
/// `abort()` after the chosen epoch's journal fsync and before any
/// worker send — the widest window the recovery contract must close.
#[test]
fn child_abort_workload() {
    let Ok(dir) = std::env::var("PRIVAPPROX_CRASH_DIR") else {
        return;
    };
    let crash_at: u64 = std::env::var("PRIVAPPROX_CRASH_AT").unwrap().parse().unwrap();
    let r = ABORT_RIG;
    let mut sys = builder(&r)
        .durable(&dir)
        .snapshot_every(2)
        .fault_injector(FaultInjector::default().crash_after_journal(crash_at))
        .build();
    load(&mut sys);
    if std::env::var("PRIVAPPROX_CRASH_RESUME").is_ok() {
        // Recovery replays, then aborts while re-submitting the open
        // epoch (the first submission counted after a restart).
        let _ = sys.resume();
    } else {
        register(&mut sys, r.buckets);
    }
    // Deliberately never drains: a result handed to the analyst by a
    // process that then dies is *delivered* and gone, which the
    // parent could not verify. Undrained results stay in `pending`,
    // ride the snapshot and the journal's close records, and must all
    // resurface after recovery.
    for _ in 0..r.epochs {
        let _ = sys.run_epoch_all();
    }
    // The hook should have killed us above.
    std::process::exit(3);
}

#[test]
fn abort_after_fsync_recovers_byte_identically() {
    let r = ABORT_RIG;
    let (mut reference, ref_spent) = reference_run(&r);
    reference.sort_by_key(|x| (x.window.start.0, x.query.to_u64()));
    let dir = store_dir("abort");
    std::fs::create_dir_all(&dir).unwrap();
    spawn_crash_child(&dir, 2, false);

    let mut sys = builder(&r).durable(&dir).snapshot_every(2).build();
    assert!(sys.needs_recovery());
    load(&mut sys);
    let recovered = sys.resume().unwrap();
    let qid = recovered[0].id;
    sys.flush_epochs().unwrap();
    let mut post = sys.drain_results();
    // The child aborted while submitting its third epoch (index 2):
    // two epochs closed, the third re-ran above. Finish the rest.
    for _ in 3..r.epochs {
        sys.run_epoch_all().unwrap();
        post.extend(sys.drain_results());
    }
    assert_eq!(sys.budget_ledger(qid).unwrap().spent().to_bits(), ref_spent.to_bits());
    let combined = merge_dedup(vec![post]);
    assert_sequences_identical(&combined, &reference, "abort recovery");
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Double crash: the first `abort()` mid-epoch, the second mid-*
/// recovery* (while the open epoch is being re-submitted). The third
/// incarnation must still finish byte-identically and never
/// over-spend — re-submission journals no new charges, so repeating
/// it is idempotent on the ledger.
#[test]
fn double_crash_during_recovery_still_byte_identical() {
    let r = ABORT_RIG;
    let (mut reference, ref_spent) = reference_run(&r);
    reference.sort_by_key(|x| (x.window.start.0, x.query.to_u64()));
    let dir = store_dir("double");
    std::fs::create_dir_all(&dir).unwrap();
    spawn_crash_child(&dir, 2, false);
    // Second victim: recovers, then aborts during the open epoch's
    // re-submission (submission index 0 of the new incarnation).
    spawn_crash_child(&dir, 0, true);

    let mut sys = builder(&r).durable(&dir).snapshot_every(2).build();
    assert!(sys.needs_recovery());
    load(&mut sys);
    let recovered = sys.resume().unwrap();
    let qid = recovered[0].id;
    let ledger = sys.budget_ledger(qid).unwrap();
    assert_eq!(
        ledger.epochs(),
        3,
        "three charged epochs — the re-submission never re-charges"
    );
    sys.flush_epochs().unwrap();
    let mut post = sys.drain_results();
    for _ in 3..r.epochs {
        sys.run_epoch_all().unwrap();
        post.extend(sys.drain_results());
    }
    assert_eq!(sys.budget_ledger(qid).unwrap().spent().to_bits(), ref_spent.to_bits());
    let combined = merge_dedup(vec![post]);
    assert_sequences_identical(&combined, &reference, "double-crash recovery");
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----- retained warehouses survive restart -------------------------

/// `retain_history` + `batch_query` across a crash: the snapshot
/// carries the retained warehouse, so a historical answer after
/// recovery is byte-identical to the same question asked before the
/// crash (the batch reservoir is seeded deterministically).
#[test]
fn retained_batch_answers_survive_restart() {
    let r = Rig { seed: 23, shards: 2, buckets: 11, epochs: 3 };
    let dir = store_dir("retain");
    let range = Window {
        start: Timestamp(0),
        end: Timestamp(u64::MAX),
    };
    let before;
    {
        let mut sys = builder(&r).durable(&dir).snapshot_every(1).build();
        load(&mut sys);
        let q = register(&mut sys, r.buckets);
        sys.retain_history(q.id).unwrap();
        for _ in 0..r.epochs {
            sys.run_epoch_all().unwrap();
            sys.drain_results();
        }
        before = sys.batch_query(q.id, range, 50).unwrap();
        sys.crash();
    }
    let mut sys = builder(&r).durable(&dir).snapshot_every(1).build();
    load(&mut sys);
    let recovered = sys.resume().unwrap();
    sys.flush_epochs().unwrap();
    sys.drain_results();
    let after = sys.batch_query(recovered[0].id, range, 50).unwrap();
    assert_results_identical(&after, &before, "batch answer across restart");
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----- a multi-tenant table survives restart ----------------------

/// Three tenants across a whole-system restart: C then A admitted, B
/// retired by its budget, A retaining its answers. After the drop,
/// a rebuild on the same directory and `resume`, the schedule keeps
/// its admission order, B stays refused by every entry point, every
/// ledger's spend is the one before the drop to the bit, and A's
/// retained answers still answer its batch query.
#[test]
fn tenant_lifecycle_survives_whole_system_restart() {
    let r = Rig { seed: 31, shards: 2, buckets: 11, epochs: 3 };
    let dir = store_dir("tenants");
    let range = Window {
        start: Timestamp(0),
        end: Timestamp(u64::MAX),
    };
    let eps = epsilon_zk(0.9, 0.8, 0.6);
    let is_retired = |outcome: Result<(), privapprox_core::CoreError>| {
        matches!(outcome, Err(e) if e.to_string().contains("was retired"))
    };
    let (a, b, c, spent, batch_before);
    {
        let mut sys = builder(&r).durable(&dir).snapshot_every(1).build();
        load(&mut sys);
        let submit = |sys: &mut ShardedSystem| {
            sys.analyst()
                .query("SELECT speed FROM vehicle")
                .buckets(AnswerSpec::ranges_with_overflow(0.0, 110.0, r.buckets - 1))
                .window(WINDOW_MS, WINDOW_MS)
                .params(rig_params())
                .submit()
                .unwrap()
        };
        (a, b, c) = (submit(&mut sys), submit(&mut sys), submit(&mut sys));
        sys.admit(c.id).unwrap();
        sys.admit(a.id).unwrap();
        sys.set_budget(b.id, PrivacyBudget::new(1.5 * eps).unwrap())
            .unwrap();
        sys.admit(b.id).unwrap();
        sys.retain_history(a.id).unwrap();
        for _ in 0..r.epochs {
            sys.run_epoch_all().unwrap();
            sys.drain_results();
        }
        let retired = sys.drain_retired();
        assert_eq!(retired.len(), 1, "B's budget covers one epoch");
        assert_eq!((retired[0].query, retired[0].epochs), (b.id, 1));
        assert_eq!(sys.admitted(), vec![c.id, a.id]);
        spent = [a.id, b.id, c.id].map(|q| sys.budget_ledger(q).unwrap().spent());
        batch_before = sys.batch_query(a.id, range, 50).unwrap();
    }
    let mut sys = builder(&r).durable(&dir).snapshot_every(1).build();
    assert!(sys.needs_recovery());
    load(&mut sys);
    let recovered = sys.resume().unwrap();
    let ids: Vec<QueryId> = recovered.iter().map(|q| q.id).collect();
    assert_eq!(ids, vec![a.id, b.id, c.id], "registration order");
    sys.flush_epochs().unwrap();
    sys.drain_results();

    assert_eq!(sys.admitted(), vec![c.id, a.id], "admission order");
    assert!(is_retired(sys.admit(b.id)), "admit refuses B");
    assert!(is_retired(sys.submit_epoch(&b)), "submit_epoch refuses B");
    assert!(
        is_retired(sys.run_epoch(&b).map(|_| ())),
        "run_epoch refuses B"
    );
    for (q, before) in [a.id, b.id, c.id].iter().zip(spent) {
        let after = sys.budget_ledger(*q).unwrap().spent();
        assert_eq!(after.to_bits(), before.to_bits(), "{q:?}: spend");
    }
    let batch_after = sys.batch_query(a.id, range, 50).unwrap();
    assert!(batch_after.sample_size > 0, "A retained answers");
    assert_results_identical(&batch_after, &batch_before, "A's batch answer");

    sys.run_epoch_all().unwrap();
    let results = sys.drain_results();
    let mut answered: Vec<QueryId> = results.iter().map(|r| r.query).collect();
    answered.sort_by_key(|q| q.to_u64());
    let mut scheduled = vec![a.id, c.id];
    scheduled.sort_by_key(|q| q.to_u64());
    assert_eq!(answered, scheduled, "the resumed schedule runs C and A");
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----- disk stays O(snapshot interval) (satellite: bounded journal) -

/// 200-epoch soak with a tiny (4 KiB) segment threshold: rotation
/// plus pruning below each snapshot's floor must keep the journal —
/// and the whole store directory — bounded by the snapshot interval,
/// not the run length.
#[test]
fn journal_disk_stays_bounded_over_soak() {
    let r = Rig { seed: 11, shards: 1, buckets: 11, epochs: 200 };
    let dir = store_dir("soak");
    let mut sys = builder(&r)
        .durable(&dir)
        .snapshot_every(10)
        .journal_segment_bytes(4 * 1024)
        .build();
    load(&mut sys);
    register(&mut sys, r.buckets);
    let mut max_journal = 0u64;
    let mut max_segments = 0usize;
    for e in 0..r.epochs {
        sys.run_epoch_all().unwrap();
        sys.drain_results();
        if e % 10 == 9 {
            let h = sys.deploy_health();
            max_journal = max_journal.max(h.journal_bytes);
            assert!(
                h.snapshot_count <= 2,
                "epoch {e}: old snapshots must be retired, found {}",
                h.snapshot_count
            );
            let segments = std::fs::read_dir(&dir)
                .unwrap()
                .filter(|f| {
                    f.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .starts_with("wal-")
                })
                .count();
            max_segments = max_segments.max(segments);
        }
    }
    assert!(
        max_journal < 256 * 1024,
        "journal grew past the snapshot-interval bound: {max_journal} bytes"
    );
    assert!(
        max_segments <= 16,
        "segment pruning fell behind: {max_segments} live segments"
    );
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----- SIGKILLed child node (process transport) --------------------

/// The same-seed single-threaded run, one result per epoch.
fn oracle_run(r: &Rig) -> Vec<QueryResult> {
    let mut oracle = System::builder()
        .clients(POPULATION)
        .proxies(2)
        .seed(r.seed)
        .build();
    oracle.load_numeric_column("vehicle", "speed", |i| (i % 110) as f64);
    let q = oracle
        .analyst()
        .query("SELECT speed FROM vehicle")
        .buckets(AnswerSpec::ranges_with_overflow(0.0, 110.0, r.buckets - 1))
        .window(WINDOW_MS, WINDOW_MS)
        .params(rig_params())
        .submit()
        .unwrap();
    (0..r.epochs)
        .map(|_| oracle.run_epoch(&q).unwrap())
        .collect()
}

/// Process transport: SIGKILL the child labelled `victim` mid-run —
/// no unwind, no goodbye; the parent discovers the death through its
/// supervised link, and a shard's death also reaches the proxy
/// children through theirs. Supervision respawns it exactly once;
/// every epoch closes, fully or partially at the deadline
/// (degrade-to-sampling, not corruption), none hangs, and the first
/// clean epoch after the repair is the oracle's — an epoch is a pure
/// function of (seed, query, epoch), and the respawned child is routed like
/// the one it replaced. Then the whole deployment is killed and
/// recovered. The *accounting* contract holds even though a dead
/// child's in-flight shares are legitimately lost: every charged
/// epoch restores, spend never exceeds the charge sequence, and the
/// recovered deployment keeps producing windows.
fn sigkill_child_then_whole_system_recovery(victim: &str) {
    let r = Rig { seed: 29, shards: 2, buckets: 11, epochs: 8 };
    let (kill_at, resume_at) = (2, 6);
    let eps = epsilon_zk(0.9, 0.8, 0.6);
    let oracle = oracle_run(&r);
    let dir = store_dir(&format!("sigkill-{victim}"));
    let charged_epochs;
    {
        let mut sys = builder(&r)
            .process_transport(node_binary())
            .epoch_deadline(Duration::from_secs(2))
            .durable(&dir)
            .snapshot_every(2)
            .build();
        load(&mut sys);
        let q = register(&mut sys, r.buckets);
        for _ in 0..kill_at {
            sys.run_epoch_all().unwrap();
            sys.drain_results();
        }
        let mut partial_closes = sys.deploy_health().partial_closes;
        let (_, pid) = sys
            .children()
            .iter()
            .find(|(label, _)| label == victim)
            .cloned()
            .expect("process transport spawns the victim");
        Command::new("kill")
            .args(["-9", &pid.to_string()])
            .status()
            .unwrap();
        // The first epoch after the kill meets the dead child: nothing
        // probes the deployment in between.
        let mut first_clean = None;
        for (epoch, expected) in oracle.iter().enumerate().take(resume_at).skip(kill_at) {
            // Faults surface as typed errors while the pipeline keeps
            // going (respawn + partial close are legitimate here);
            // returning at all means the epoch closed.
            let outcome = sys.run_epoch_all();
            let results = sys.drain_results();
            let health = sys.deploy_health();
            let clean = outcome.is_ok() && health.partial_closes == partial_closes;
            partial_closes = health.partial_closes;
            if clean && health.respawns == 1 && first_clean.is_none() {
                assert_eq!(results.len(), 1, "{victim}: epoch {epoch} emits its window");
                let context = format!("{victim}: epoch {epoch}, first clean after the repair");
                assert_results_identical(&results[0], expected, &context);
                first_clean = Some(epoch);
            }
        }
        assert!(
            first_clean.is_some(),
            "{victim}: no clean epoch after the repair"
        );
        let health = sys.deploy_health();
        assert_eq!(health.respawns, 1, "{victim}: one death, one respawn");
        assert!(health.partial_closes <= (resume_at - kill_at) as u64);
        let ledger = sys.budget_ledger(q.id).unwrap();
        charged_epochs = ledger.epochs();
        assert_eq!(
            charged_epochs, resume_at as u64,
            "every submitted epoch charged exactly once"
        );
        assert!((ledger.spent() - eps * resume_at as f64).abs() < 1e-9);
        sys.crash();
    }
    // Whole-system recovery of the process deployment.
    let mut sys = builder(&r)
        .process_transport(node_binary())
        .epoch_deadline(Duration::from_secs(2))
        .durable(&dir)
        .snapshot_every(2)
        .build();
    assert!(sys.needs_recovery());
    load(&mut sys);
    let recovered = sys.resume().unwrap();
    let qid = recovered[0].id;
    assert_eq!(
        sys.budget_ledger(qid).unwrap().epochs(),
        charged_epochs,
        "charged epochs restore exactly across a process-mode restart"
    );
    let _ = sys.flush_epochs();
    let mut produced = sys.drain_results();
    for _ in resume_at..r.epochs {
        sys.run_epoch_all().unwrap();
        produced.extend(sys.drain_results());
    }
    assert!(
        !produced.is_empty(),
        "the recovered process deployment keeps producing windows"
    );
    let ledger = sys.budget_ledger(qid).unwrap();
    assert_eq!(ledger.epochs(), r.epochs as u64);
    assert!(
        ledger.spent() <= eps * r.epochs as f64 + 1e-9,
        "spend never exceeds the charge sequence"
    );
    let health = sys.deploy_health();
    assert_eq!(health.recoveries, 1);
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_child_node_then_whole_system_recovery() {
    sigkill_child_then_whole_system_recovery("shard-0");
}

/// The proxy child holds links to every shard child: its replacement
/// dials them afresh, and each shard restarts that stream's sequence.
#[test]
fn sigkilled_proxy_child_then_whole_system_recovery() {
    sigkill_child_then_whole_system_recovery("proxy-0");
}
