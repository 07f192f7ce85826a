//! The repo's benchmark: wall-clock throughput, CPU cost and
//! due-time → result latency of the PrivApprox runtime on four
//! workloads, and — in a separate traced run — a per-layer table
//! measured from outside. README.md beside this package says what each
//! number means and why each workload exists; `BENCHMARK.json` at the
//! repo root is the contract later PRs are judged with.

mod host;
mod layers;
mod trace;
mod workload;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Env, Measured, Tally, Workload, WORKLOADS};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Windows the paced phase is cut into. The reported latencies are
/// those of the least disturbed window, so a stall of the shared host —
/// which an open loop charges to every epoch it delays — spoils a few
/// windows, not the result.
const WINDOWS: u32 = 20;
/// Default length of a run's timed phases, and the `--smoke` length.
const FULL_SECONDS: f64 = 28.0;
const SMOKE_SECONDS: f64 = 3.0;

/// The share of the first pass's value by which the second may be
/// worse before `--agree` fails: the bound `BENCHMARK.json` gives every
/// end-to-end metric (why it is the same for all: README, "Why these
/// bounds").
const BOUND: f64 = 0.25;
/// The one end-to-end metric of which more is better.
const HIGHER_IS_BETTER: &str = "msgs_per_s";

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Rows written as `(name, value, unit)` become metrics.
fn metrics<const N: usize>(rows: [(&'static str, f64, &'static str); N]) -> Vec<Metric> {
    let named = |(name, value, unit)| Metric { name, value, unit };
    rows.into_iter().map(named).collect()
}

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    agree: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark [--workload wide|narrow|socket|durable] [--seed N] \
[--seconds S] [--trace 0|1] [--smoke] [--agree] [--out FILE]";

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: FULL_SECONDS,
        trace: false,
        smoke: false,
        agree: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let found = WORKLOADS.iter().find(|w| w.name == name);
                o.workload = Some(found.ok_or(format!("no workload named {name}"))?);
            }
            "--seed" => {
                o.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(1.0..=60.0).contains(&o.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => o.smoke = true,
            "--agree" => o.agree = true,
            "--out" => o.out = Some(value()?.into()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if o.smoke {
        o.seconds = SMOKE_SECONDS;
    }
    if o.agree && o.trace {
        return Err("--agree compares end-to-end metrics: run it without --trace 1".into());
    }
    Ok(o)
}

/// Everything one run of one workload produced.
struct Outcome {
    workload: &'static str,
    metrics: Vec<Metric>,
    tally: Tally,
    /// Non-zero supervision counters of a run that should have none.
    faults: Vec<String>,
    unsustained: bool,
    paced_samples: usize,
    /// Median `run_epoch` duration of the paced phase, for the
    /// cross-workload overhead rows of a whole-suite run.
    service_p50_ms: f64,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.faults.is_empty()
    }
}

/// One run of one workload: [`SETUPS`] set-ups (timed, each torn down
/// before the next), the saturation phase on the last but one system,
/// the paced phase on the last, the checks on both — and, in a traced
/// run, the layer pipeline afterwards.
///
/// Each phase gets a system fresh from set-up, so neither inherits the
/// other's history: the runtime keeps per-epoch state (the replay log;
/// on `socket` the children's unbounded topic logs) and `socket` slows
/// down in steps after a few hundred epochs. Each phase is one
/// contiguous block: a fresh system saturates a third slower for its
/// first second or so, which short alternating blocks never get past.
fn run_workload(w: &'static Workload, o: &Options, env: &Env) -> Result<Outcome, String> {
    // 8 s : 20 s of a 28 s run; a traced run gives three sevenths of
    // the run to the layer pipeline and paces less.
    let share = |sevenths: f64| Duration::from_secs_f64(o.seconds * sevenths / 7.0);
    let (saturated, paced, layered) = if o.trace {
        (share(2.0), share(2.0), share(3.0))
    } else {
        (share(2.0), share(5.0), Duration::ZERO)
    };
    host::reset_peak_rss();
    let mut m = Measured::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut fresh = || {
        let t = Instant::now();
        let rig = workload::set_up(w, o.seed, env);
        setup_s.push(t.elapsed().as_secs_f64());
        rig
    };
    // Memory a deployed, verified and warmed system costs (the oracle
    // included): the high-water mark once the first set-up is done,
    // before any phase adds its per-epoch growth.
    let first = fresh()?;
    let setup_rss_mib = workload::peak_rss_mib(&first.sys);
    drop(first);
    for _ in 3..SETUPS {
        drop(fresh()?);
    }
    let mut rig = fresh()?;
    m.journal_bytes_per_epoch = rig.journal_bytes_per_epoch;
    workload::saturate(&mut rig, w.clients, saturated, &mut m);
    workload::close(rig, &mut m);
    let mut rig = fresh()?;
    let mut jitter = StdRng::seed_from_u64(o.seed);
    for _ in 0..WINDOWS {
        workload::pace(&mut rig, w, &mut jitter, paced / WINDOWS, &mut m);
    }
    workload::close(rig, &mut m);
    if m.messages == 0 || m.window_p50_ms.is_empty() {
        return Err("no epoch completed".into());
    }
    let peak_rss_mib = host::peak_rss_mib(std::process::id()).unwrap_or(0.0) + m.children_rss_mib;
    let unsustained = m.unsustained();

    let messages = m.messages as f64;
    let cpu_us_per_msg = host::lowest(&m.slice_cpu_us_per_msg);
    let service_p50_ms = host::median(&mut m.service_ms);
    let metrics = if !o.trace {
        metrics([
            ("setup_s", host::median(&mut setup_s), "s"),
            ("msgs_per_s", host::highest(&m.slice_msgs_per_s), "1/s"),
            ("cpu_us_per_msg", cpu_us_per_msg, "us"),
            ("latency_p50_ms", host::lowest(&m.window_p50_ms), "ms"),
            ("latency_mean_ms", host::lowest(&m.window_mean_ms), "ms"),
            ("setup_rss_mib", setup_rss_mib, "MiB"),
        ])
    } else {
        let spans_to = env.work.join(format!("trace-{}.json", w.name));
        let table = layers::measure(w, o.seed, layered, &spans_to)?;
        let per_msg_ns = |seconds: f64| seconds * 1e9 / messages;
        let idle = 1.0 - m.cpu_s / (m.wall_s * host::nproc() as f64);
        let kept_kib = (peak_rss_mib - setup_rss_mib).max(0.0) * 1024.0 / m.tally.attempted as f64;
        m.latency_ms.sort_by(f64::total_cmp);
        m.late_ms.sort_by(f64::total_cmp);
        // One row per line: this is the layer table.
        #[rustfmt::skip]
        let mut rows = metrics([
            ("core.deploy.worker_busy_frac", m.worker_busy_s / m.wall_s, "frac"),
            ("core.deploy.proxy_busy_frac", m.proxy_busy_s / m.wall_s, "frac"),
            ("core.deploy.shard_busy_frac", m.shard_busy_s / m.wall_s, "frac"),
            ("core.deploy.worker_cpu_ns_per_msg", per_msg_ns(m.worker_busy_s), "ns"),
            ("core.deploy.proxy_cpu_ns_per_msg", per_msg_ns(m.proxy_busy_s), "ns"),
            ("core.deploy.shard_cpu_ns_per_msg", per_msg_ns(m.shard_busy_s), "ns"),
            ("core.remote.child_cpu_ns_per_msg", per_msg_ns(m.child_cpu_s), "ns"),
            ("core.deploy.host_idle_frac", idle, "frac"),
            ("core.deploy.rss_kib_per_epoch", kept_kib, "KiB"),
            ("core.proxy.forwarded_per_msg", m.forwarded as f64 / messages, "count"),
            ("stream.broker.records_per_msg", m.broker_records as f64 / messages, "count"),
            ("stream.broker.bytes_per_msg", m.broker_bytes as f64 / messages, "B"),
            ("stream.broker.backpressure_stalls", m.backpressure_stalls as f64, "count"),
            ("cluster.supervise.retries", m.retries as f64, "count"),
            ("cluster.supervise.reconnects", m.reconnects as f64, "count"),
            ("store.journal_bytes_per_epoch", m.journal_bytes_per_epoch, "B"),
            ("store.snapshot_count", m.snapshot_count as f64, "count"),
            ("core.deploy.epoch_service_p50_ms", service_p50_ms, "ms"),
            ("bench.latency_p90_ms", host::quantile(&m.latency_ms, 0.9), "ms"),
            ("bench.latency_p99_ms", host::quantile(&m.latency_ms, 0.99), "ms"),
            ("bench.generator_late_p99_ms", host::quantile(&m.late_ms, 0.99), "ms"),
            ("bench.backlog_max_epochs", m.backlog_max as f64, "count"),
            ("bench.peak_rss_mib", peak_rss_mib, "MiB"),
        ]);
        let unaccounted_ns = cpu_us_per_msg * 1e3 - table.sum_ns;
        rows.extend(table.rows);
        rows.extend(metrics([
            ("layers.sum_ns", table.sum_ns, "ns"),
            ("core.deploy.unaccounted_ns", unaccounted_ns, "ns"),
            ("bench.trace_overhead_frac", table.overhead_frac, "frac"),
        ]));
        rows
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a number", bad.name));
    }
    // A fault counts as failed work, but never as more than was tried.
    let mut tally = m.tally;
    tally.failed = (tally.failed + m.faults.len() as u64).min(tally.attempted);
    Ok(Outcome {
        workload: w.name,
        metrics,
        tally,
        faults: m.faults,
        unsustained,
        paced_samples: m.latency_ms.len(),
        service_p50_ms,
    })
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(r: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct(),
        r.tally.attempted,
        r.tally.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The machine-readable results of a whole invocation, for `--out`
/// and for the last line of a suite run.
fn document(runs: &[Outcome], o: &Options) -> String {
    let mut s = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"not_for_comparison\": {}, \"nproc\": {}, \"workloads\": {{",
        o.seed,
        o.seconds,
        o.trace,
        o.smoke,
        host::nproc()
    );
    for (i, r) in runs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"unsustained\": {}, \"paced_samples\": {}, \"result\": {}}}",
            r.workload,
            r.unsustained,
            r.paced_samples,
            result_line(r)
        );
    }
    s.push_str("}}");
    s
}

/// Every metric by name with its unit, for people.
fn print_table(r: &Outcome, w: &Workload) {
    println!(
        "# {}: {} epochs attempted, {} failed; paced phase {} samples at one epoch per {} ms",
        r.workload,
        r.tally.attempted,
        r.tally.failed,
        r.paced_samples,
        w.period.as_millis()
    );
    for m in &r.metrics {
        println!(
            "{:<8} {:<36} {:>16.4} {}",
            r.workload, m.name, m.value, m.unit
        );
    }
    for fault in &r.faults {
        println!("# {}: FAULT in a fault-free run: {fault}", r.workload);
    }
    if r.unsustained {
        println!(
            "# {}: UNSUSTAINED: the paced phase's last quarter is more than twice as slow as its first; \
             its percentiles describe a growing backlog",
            r.workload
        );
    }
}

/// One pass over the selected workloads.
fn run_suite(o: &Options, env: &Env) -> Result<Vec<Outcome>, String> {
    let selected: Vec<&'static Workload> = match o.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut runs = Vec::new();
    for w in selected {
        let r = run_workload(w, o, env).map_err(|e| format!("{}: {e}", w.name))?;
        print_table(&r, w);
        runs.push(r);
    }
    // What the store and the socket transport add to an epoch, when
    // the workloads that differ only in them ran side by side.
    let service = |name: &str| {
        runs.iter()
            .find(|r| r.workload == name)
            .map(|r| r.service_p50_ms)
    };
    for (row, with) in [
        ("store.epoch_overhead_ms", "durable"),
        ("cluster.epoch_overhead_ms", "socket"),
    ] {
        if let (Some(base), Some(with)) = (service("wide"), service(with)) {
            println!("{:<8} {:<36} {:>16.4} ms", "suite", row, with - base);
        }
    }
    Ok(runs)
}

/// The A/A check: pairs of (workload, metric) on which the second
/// suite run is worse than the first by more than the metric's bound.
fn disagreements(first: &[Outcome], second: &[Outcome]) -> Vec<String> {
    let mut out = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            let worse = if ma.name == HIGHER_IS_BETTER {
                ma.value - mb.value
            } else {
                mb.value - ma.value
            };
            if worse / ma.value > BOUND {
                out.push(format!(
                    "{} {}: {} then {} {} (bound {:.0} %)",
                    a.workload,
                    ma.name,
                    ma.value,
                    mb.value,
                    ma.unit,
                    BOUND * 100.0
                ));
            }
        }
    }
    out
}

fn run(o: &Options) -> Result<bool, String> {
    let env = Env::locate()?;
    if o.smoke {
        println!("# smoke run: every check is live, the numbers are NOT for comparison");
    }
    let runs = run_suite(o, &env)?;
    let mut ok = runs.iter().all(Outcome::correct);
    if o.agree {
        println!("# second pass for --agree");
        let again = run_suite(o, &env)?;
        ok &= again.iter().all(Outcome::correct);
        for line in disagreements(&runs, &again) {
            println!("# DISAGREE {line}");
            ok = false;
        }
    }
    let doc = document(&runs, o);
    if let Some(path) = &o.out {
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    match runs.as_slice() {
        [one] if o.workload.is_some() => println!("{}", result_line(one)),
        _ => println!("{doc}"),
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // The `socket` workload's children are this executable again:
    // given a node's arguments it is `privapprox-node`, the same three
    // lines around `node_main` as `crates/core/src/bin/node.rs`.
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(args.first().map(String::as_str), Some("proxy" | "shard")) {
        return ExitCode::from(privapprox::core::remote::node_main(&args) as u8);
    }
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
