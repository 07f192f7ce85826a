//! The four workloads and the three things done to each: set-up
//! (build, verify against the single-thread oracle, warm), the
//! closed-loop saturation phase, and the open-loop paced phase. All of
//! it drives the runtime through `ShardedSystem`'s public API from one
//! driver thread.

use crate::host;
use privapprox::core::deploy::BusyProfile;
use privapprox::core::{QueryResult, ShardedSystem, System};
use privapprox::stream::broker::BrokerStats;
use privapprox::types::{AnswerSpec, ExecutionParams, Query};
use rand::rngs::StdRng;
use rand::Rng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Proxies (relay threads or children) in every workload: the paper's
/// minimum, and the smallest count the runtime accepts.
pub const PROXIES: u16 = 2;
/// Epochs in flight during the saturation phase.
const PIPELINE_DEPTH: usize = 3;
/// Epochs compared byte-for-byte with the oracle during set-up.
const VERIFY_EPOCHS: usize = 3;
/// `(s, p, q)` of every workload: everyone answers, RR at the paper's
/// default coins.
pub const PARAMS: (f64, f64, f64) = (1.0, 0.9, 0.6);
/// Tumbling window, ms: one window per epoch.
pub const WINDOW_MS: u64 = 60_000;
/// The column every client holds and the query over it.
pub const TABLE: &str = "rides";
pub const COLUMN: &str = "d";
pub const SQL: &str = "SELECT d FROM rides";

/// Client `i`'s private value.
pub fn column_value(i: usize) -> f64 {
    (i % 100) as f64
}

/// `buckets` answer buckets over the column's range (the last one is
/// the overflow bucket).
pub fn answer_spec(buckets: usize) -> AnswerSpec {
    AnswerSpec::ranges_with_overflow(0.0, 110.0, buckets - 1)
}

/// How a workload hosts its proxies and its aggregator shard.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Hosting {
    /// Threads of the benchmark process sharing one broker.
    Threads,
    /// `privapprox-node` children behind supervised loopback TCP.
    Socket,
    /// Threads, plus the durable journal and snapshots.
    Durable,
}

/// One named set of inputs. The shape (1 worker, 2 proxies, 1 shard,
/// depth 3) is the same everywhere; these are the properties the
/// runtime's behaviour depends on.
pub struct Workload {
    pub name: &'static str,
    /// Answer width in buckets: bytes per share, work per kernel call.
    pub buckets: usize,
    /// Clients answering each epoch (`s = 1`).
    pub clients: u64,
    /// Open-loop epoch period of the paced phase.
    pub period: Duration,
    pub hosting: Hosting,
}

/// Names are permanent: later PRs are compared per name.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wide",
        buckets: 10_000,
        clients: 1_000,
        period: Duration::from_millis(10),
        hosting: Hosting::Threads,
    },
    Workload {
        name: "narrow",
        buckets: 11,
        clients: 4_000,
        period: Duration::from_millis(12),
        hosting: Hosting::Threads,
    },
    Workload {
        name: "socket",
        buckets: 10_000,
        clients: 1_000,
        period: Duration::from_millis(100),
        hosting: Hosting::Socket,
    },
    Workload {
        name: "durable",
        buckets: 10_000,
        clients: 1_000,
        period: Duration::from_millis(20),
        hosting: Hosting::Durable,
    },
];

/// Where a run finds its node program and keeps its files.
pub struct Env {
    /// The benchmark executable itself: started with a node's
    /// arguments it *is* `privapprox-node` (see `main`), so the
    /// `socket` workload's children need no second binary.
    pub node: PathBuf,
    /// `<target dir>/benchmark/`: the durable journal and the span
    /// files, on the disk the build lives on.
    pub work: PathBuf,
}

impl Env {
    pub fn locate() -> Result<Env, String> {
        let node =
            std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
        // <target dir>/release/benchmark
        let target_dir = node
            .parent()
            .and_then(Path::parent)
            .ok_or("no target directory above the benchmark")?;
        Ok(Env {
            work: target_dir.join("benchmark"),
            node,
        })
    }
}

/// A directory that is gone once the guard is: the durable journal
/// must not outlive the run on any exit path.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `path` empty (an old store there would put the runtime
    /// into recovery).
    fn create(path: PathBuf) -> Result<ScratchDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Epochs attempted and epochs that failed a check, over one run.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one epoch's outcome. An epoch is good when it returned
    /// exactly one window and every client's answer is in it.
    fn epoch(&mut self, windows: &[QueryResult], clients: u64) {
        self.attempted += 1;
        if windows.len() != 1 || windows[0].sample_size != clients {
            self.failed += 1;
        }
    }
}

/// A built, verified and warmed system under test. `sys` is declared
/// first so its threads, children and journal files are gone before
/// the journal directory is removed.
pub struct Rig {
    pub sys: ShardedSystem,
    pub query: Query,
    /// Journal growth per epoch over the verification epochs (no
    /// snapshot falls in them); 0 unless durable.
    pub journal_bytes_per_epoch: f64,
    _journal: Option<ScratchDir>,
}

/// Set-up: build the deployment, load the column, submit the query,
/// run [`VERIFY_EPOCHS`] epochs and compare each with a same-seed
/// single-thread [`System`], then fill and flush the pipeline once.
pub fn set_up(w: &Workload, seed: u64, env: &Env) -> Result<Rig, String> {
    let clients = w.clients;
    let mut builder = ShardedSystem::builder()
        .clients(clients)
        .workers(1)
        .proxies(PROXIES)
        .shards(1)
        .pipeline_depth(PIPELINE_DEPTH)
        .partition_capacity((PIPELINE_DEPTH + 1) * clients as usize)
        .seed(seed);
    let mut journal = None;
    match w.hosting {
        Hosting::Threads => {}
        Hosting::Socket => {
            // Two seconds, as the repo's own transport gate uses: acks
            // on a shared 2-vCPU host lag from scheduling, not loss.
            builder = builder
                .process_transport(&env.node)
                .link_resend_after(Duration::from_secs(2));
        }
        Hosting::Durable => {
            let dir = env
                .work
                .join(format!("journal-{}-{}", w.name, std::process::id()));
            let dir = ScratchDir::create(dir)?;
            builder = builder.durable(dir.path()).snapshot_every(64);
            journal = Some(dir);
        }
    }
    let mut sys = builder.try_build().map_err(|e| format!("build: {e}"))?;
    sys.load_numeric_column(TABLE, COLUMN, column_value)
        .map_err(|e| format!("load: {e}"))?;
    let params = ExecutionParams::checked(PARAMS.0, PARAMS.1, PARAMS.2);
    let query = sys
        .analyst()
        .query(SQL)
        .buckets(answer_spec(w.buckets))
        .window(WINDOW_MS, WINDOW_MS)
        .params(params)
        .submit()
        .map_err(|e| format!("submit: {e}"))?;

    let mut oracle = System::builder()
        .clients(clients)
        .proxies(PROXIES)
        .seed(seed)
        .build();
    oracle.load_numeric_column(TABLE, COLUMN, column_value);
    let oracle_query = oracle
        .analyst()
        .query(SQL)
        .buckets(answer_spec(w.buckets))
        .window(WINDOW_MS, WINDOW_MS)
        .params(params)
        .submit()
        .map_err(|e| format!("oracle submit: {e}"))?;

    let durable = w.hosting == Hosting::Durable;
    let journal_before = if durable {
        sys.deploy_health().journal_bytes
    } else {
        0
    };
    for epoch in 0..VERIFY_EPOCHS {
        let got = sys
            .run_epoch(&query)
            .map_err(|e| format!("epoch {epoch}: {e}"))?;
        let want = oracle
            .run_epoch(&oracle_query)
            .map_err(|e| format!("oracle epoch {epoch}: {e}"))?;
        if got != want {
            return Err(format!(
                "epoch {epoch} differs from the single-thread oracle"
            ));
        }
    }
    let journal_bytes_per_epoch = if durable {
        sys.deploy_health()
            .journal_bytes
            .saturating_sub(journal_before) as f64
            / VERIFY_EPOCHS as f64
    } else {
        0.0
    };
    drop(oracle);

    for _ in 0..PIPELINE_DEPTH {
        sys.submit_epoch(&query)
            .map_err(|e| format!("warm-up submit: {e}"))?;
    }
    sys.flush_epochs()
        .map_err(|e| format!("warm-up flush: {e}"))?;
    let mut warm = sys.drain_results();
    sys.recycle_results(&mut warm);
    Ok(Rig {
        sys,
        query,
        journal_bytes_per_epoch,
        _journal: journal,
    })
}

/// The runtime's public counters plus the host's view of CPU, read at
/// one instant.
struct Counters {
    /// CPU seconds of the benchmark process and every child.
    cpu_s: f64,
    busy: BusyProfile,
    child_cpu: Vec<(String, Duration)>,
    broker: BrokerStats,
    forwarded: u64,
}

impl Counters {
    fn read(sys: &ShardedSystem) -> Counters {
        Counters {
            cpu_s: cpu_seconds(sys),
            busy: sys.busy_profile(),
            child_cpu: sys.child_cpu(),
            broker: sys.broker_stats(),
            forwarded: sys.forwarded_shares(),
        }
    }
}

/// The benchmark process and every child the deployment spawned.
fn pids(sys: &ShardedSystem) -> impl Iterator<Item = u32> + '_ {
    std::iter::once(std::process::id()).chain(sys.children().iter().map(|(_, pid)| *pid))
}

/// CPU seconds consumed so far by the benchmark process and every
/// child.
fn cpu_seconds(sys: &ShardedSystem) -> f64 {
    host::total(pids(sys).filter_map(host::cpu_seconds))
}

/// Peak resident memory (`VmHWM`) of the benchmark process plus the
/// system's children.
pub fn peak_rss_mib(sys: &ShardedSystem) -> f64 {
    host::total(pids(sys).filter_map(host::peak_rss_mib))
}

/// Everything a run measures, accumulated over its phases and the
/// systems they run on. The end-to-end numbers are those of the best
/// paced window and the best saturation slice (see `host::highest`),
/// so a stall of the shared host spoils some of them, not the result.
#[derive(Default)]
pub struct Measured {
    pub tally: Tally,
    // Paced phase, one entry per window.
    /// Each window's median and mean of due time → result, ms.
    pub window_p50_ms: Vec<f64>,
    pub window_mean_ms: Vec<f64>,
    /// Every epoch's due time → result; duration of `run_epoch` alone;
    /// due time → `run_epoch` called. Unsorted, ms.
    pub latency_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    /// Most epochs ever overdue at once.
    pub backlog_max: u64,
    // Saturation phase, one entry per slice.
    /// Each slice's messages closed ÷ wall seconds, and CPU µs ÷
    /// messages closed.
    pub slice_msgs_per_s: Vec<f64>,
    pub slice_cpu_us_per_msg: Vec<f64>,
    // Totals over all slices, for the layer table.
    pub wall_s: f64,
    pub messages: u64,
    pub cpu_s: f64,
    /// CPU seconds of the busiest thread of each stage.
    pub worker_busy_s: f64,
    pub proxy_busy_s: f64,
    pub shard_busy_s: f64,
    /// CPU seconds the runtime attributes to its children.
    pub child_cpu_s: f64,
    pub broker_records: u64,
    pub broker_bytes: u64,
    pub forwarded: u64,
    // What each system read when it was closed.
    /// Supervision counters that moved in a fault-free run.
    pub faults: Vec<String>,
    pub backpressure_stalls: u64,
    pub retries: u64,
    pub reconnects: u64,
    pub snapshot_count: u64,
    /// Journal growth per epoch over set-up's verification epochs, B.
    pub journal_bytes_per_epoch: f64,
    /// Largest Σ `VmHWM` of a system's children, MiB.
    pub children_rss_mib: f64,
}

impl Measured {
    /// The paced phase's last quarter was more than twice as slow as
    /// its first: a backlog was growing, and the latencies describe a
    /// diverging run. Call while `latency_ms` is still in epoch order.
    pub fn unsustained(&self) -> bool {
        let quarter = self.latency_ms.len().div_ceil(4);
        let median_of = |samples: &[f64]| host::median(&mut samples.to_vec());
        let (first, last) = (
            &self.latency_ms[..quarter],
            &self.latency_ms[self.latency_ms.len() - quarter..],
        );
        quarter > 0 && median_of(last) > 2.0 * median_of(first)
    }
}

/// Open loop, one window: epoch `k` is due at `t0 + (k + uₖ)·period`
/// with `uₖ` uniform in [0, 1) from the seed — one arrival per period
/// whatever happened to the epochs before it, none skipped or
/// rescheduled, but not phase-locked to the runtime's own 5 and 10 ms
/// timers, which on a strict grid decide for a whole run which epochs
/// meet a timed park. Latency counts from the due time, so a stall
/// charges every epoch it delays.
pub fn pace(rig: &mut Rig, w: &Workload, jitter: &mut StdRng, length: Duration, m: &mut Measured) {
    let Rig { sys, query, .. } = rig;
    let epochs = (length.as_secs_f64() / w.period.as_secs_f64()).ceil() as u32;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let first = m.latency_ms.len();
    let mut spent = Vec::with_capacity(1);
    let t0 = Instant::now() + w.period;
    for k in 0..epochs {
        let due = t0 + w.period.mul_f64(k as f64 + jitter.gen::<f64>());
        host::wait_until(due);
        let started = Instant::now();
        let outcome = sys.run_epoch(query);
        let done = Instant::now();
        let late = started - due;
        m.late_ms.push(ms(late));
        m.backlog_max = m
            .backlog_max
            .max((late.as_secs_f64() / w.period.as_secs_f64()) as u64);
        match outcome {
            Ok(window) => {
                m.tally.epoch(std::slice::from_ref(&window), w.clients);
                m.latency_ms.push(ms(done - due));
                m.service_ms.push(ms(done - started));
                spent.push(window);
                sys.recycle_results(&mut spent);
            }
            Err(_) => m.tally.epoch(&[], w.clients),
        }
    }
    let window = &m.latency_ms[first..];
    if window.is_empty() {
        return;
    }
    m.window_p50_ms.push(host::median(&mut window.to_vec()));
    m.window_mean_ms
        .push(window.iter().sum::<f64>() / window.len() as f64);
}

/// Slices the timed part of the saturation phase is cut into.
const SLICES: u32 = 12;

/// Takes the windows closed so far out of the system, checks each, and
/// returns how many client answers they hold.
fn collect(sys: &mut ShardedSystem, clients: u64, tally: &mut Tally) -> u64 {
    let mut windows = sys.drain_results();
    let messages = windows.iter().map(|w| w.sample_size).sum();
    for w in &windows {
        tally.epoch(std::slice::from_ref(w), clients);
    }
    sys.recycle_results(&mut windows);
    messages
}

/// Closed loop: one driver keeps [`PIPELINE_DEPTH`] epochs in flight
/// for `length`, collecting each epoch's window as it closes. The
/// first quarter is untimed (a freshly set-up system runs a third
/// slower for its first second or so); the rest is cut into [`SLICES`]
/// slices, each ending at a window close so that messages and seconds
/// line up.
pub fn saturate(rig: &mut Rig, clients: u64, length: Duration, m: &mut Measured) {
    let Rig { sys, query, .. } = rig;
    let tallied = m.tally.attempted;
    let mut submitted = 0u64;
    let mut messages = 0u64;
    let start = Instant::now();
    // Where the totals count from: the end of the warm-up, or the
    // start of a phase too short to have one.
    let mut timed_from = (start, 0u64, Counters::read(sys));
    // (instant, messages closed, CPU seconds) where the current slice
    // began, once the warm-up is over.
    let mut slice_start: Option<(Instant, u64, f64)> = None;
    let warm_up = length / 4;
    let slice = (length - warm_up) / SLICES;
    while start.elapsed() < length {
        submitted += 1;
        if sys.submit_epoch(query).is_err() {
            m.tally.failed += 1;
        }
        let closed = collect(sys, clients, &mut m.tally);
        messages += closed;
        let now = Instant::now();
        match slice_start {
            None if now - start >= warm_up => {
                let counters = Counters::read(sys);
                slice_start = Some((now, messages, counters.cpu_s));
                timed_from = (now, messages, counters);
            }
            Some((began, messages_then, cpu_then)) if closed > 0 && now - began >= slice => {
                let cpu_now = cpu_seconds(sys);
                let in_slice = (messages - messages_then) as f64;
                m.slice_msgs_per_s
                    .push(in_slice / (now - began).as_secs_f64());
                m.slice_cpu_us_per_msg
                    .push((cpu_now - cpu_then) * 1e6 / in_slice);
                slice_start = Some((now, messages, cpu_now));
            }
            _ => {}
        }
    }
    if sys.flush_epochs().is_err() {
        m.tally.failed += 1;
    }
    messages += collect(sys, clients, &mut m.tally);
    let end = Instant::now();
    // An epoch that produced no window was never tallied above.
    let lost = submitted.saturating_sub(m.tally.attempted - tallied);
    m.tally.attempted += lost;
    m.tally.failed += lost;

    let after = Counters::read(sys);
    let (from, messages_then, before) = timed_from;
    let busiest = |now: &[Duration], then: &[Duration]| {
        now.iter()
            .zip(then)
            .map(|(a, b)| a.saturating_sub(*b).as_secs_f64())
            .fold(0.0, f64::max)
    };
    m.wall_s += (end - from).as_secs_f64();
    m.messages += messages - messages_then;
    m.cpu_s += after.cpu_s - before.cpu_s;
    m.worker_busy_s += busiest(&after.busy.workers, &before.busy.workers);
    m.proxy_busy_s += busiest(&after.busy.proxies, &before.busy.proxies);
    m.shard_busy_s += busiest(&after.busy.shards, &before.busy.shards);
    for (label, cpu) in &after.child_cpu {
        let base = before.child_cpu.iter().find(|(l, _)| l == label);
        m.child_cpu_s += cpu
            .saturating_sub(base.map_or(Duration::ZERO, |(_, c)| *c))
            .as_secs_f64();
    }
    m.broker_records += after.broker.records_in - before.broker.records_in;
    m.broker_bytes += after.broker.bytes_in - before.broker.bytes_in;
    m.forwarded += after.forwarded - before.forwarded;
}

/// Reads the system's closing counters — the supervision record that
/// must be clean in a fault-free run, the children's peak memory —
/// then tears it down.
pub fn close(mut rig: Rig, m: &mut Measured) {
    let h = rig.sys.deploy_health();
    let must_be_zero = [
        ("worker_panics", h.worker_panics),
        ("shard_panics", h.shard_panics),
        ("proxy_panics", h.proxy_panics),
        ("respawns", h.respawns),
        ("partial_closes", h.partial_closes),
        ("lost_answers", h.lost_answers),
        ("dead_lettered", h.dead_lettered),
        ("dead_letter_dropped", h.dead_letter_dropped),
        ("undecodable", h.undecodable),
        ("unroutable", h.unroutable),
        ("retries", h.retries),
        ("reconnects", h.reconnects),
        ("rejections", h.rejections),
    ];
    m.faults.extend(
        must_be_zero
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(name, n)| format!("{name}={n}")),
    );
    m.backpressure_stalls += h.backpressure_stalls;
    m.retries += h.retries;
    m.reconnects += h.reconnects;
    m.snapshot_count += h.snapshot_count;
    let children = rig.sys.children().iter();
    let rss = host::total(children.filter_map(|(_, pid)| host::peak_rss_mib(*pid)));
    m.children_rss_mib = m.children_rss_mib.max(rss);
}
