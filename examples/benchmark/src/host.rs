//! What the benchmark reads from the host rather than from the
//! runtime: process CPU time and peak memory out of `/proc`, the
//! open-loop clock, and order statistics over the samples it took.

use std::time::{Duration, Instant};

/// How close to a due time the pacing loop stops sleeping and starts
/// spinning: a sleep may overshoot by a scheduler quantum, a spin may
/// not, and 200 µs of spin per epoch is ≤ 2 % of the shortest period.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

/// CPU seconds every living thread of process `pid` has spent on a
/// core, or `None` once the process is gone. Summed from the
/// scheduler's own per-thread run time
/// (`/proc/<pid>/task/<tid>/schedstat`, nanoseconds), which is exact
/// where the tick-sampled `utime`/`stime` of `/proc/<pid>/stat` are
/// 10 ms estimates. A thread that exits takes its time with it; none
/// does between two reads inside a phase.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let Ok(stat) = std::fs::read_to_string(task.ok()?.path().join("schedstat")) else {
            continue; // the thread ended between listing and reading
        };
        ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(ns as f64 / 1e9)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Starts this process's `VmHWM` over from its current resident set, so
/// that a workload run after another in one process reads its own
/// peak. (Writing `5` to `clear_refs` is the kernel's interface for
/// exactly this; where it is refused the peaks of a whole-suite run
/// are upper bounds, and single-workload runs are unaffected.)
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Number of hardware threads the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Returns at `due` or as soon after as the host allows: sleeps to
/// within [`SPIN_WINDOW`] of it, then spins.
pub fn wait_until(due: Instant) {
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN_WINDOW {
            std::thread::sleep(left - SPIN_WINDOW);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Σ `values`. Not `sum()`: an empty `f64` sum is -0.0, which prints
/// as "-0" in the row of a workload that has no children.
pub fn total(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |a, b| a + b)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by the nearest-rank
/// rule, so every reported value is one that was measured.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns its median.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile(samples, 0.5)
}

/// The largest and the smallest of `samples`: the reading of the
/// slice or window the host disturbed least. Interference on a shared
/// host only ever slows a slice down (its steal is not even reported
/// to this guest), so the best one is the steadiest estimate of what
/// the program can do; README, "Why these statistics".
pub fn highest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn lowest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}
