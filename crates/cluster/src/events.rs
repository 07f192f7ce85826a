//! The wall-clock liveness primitives ([`Heartbeat`]/[`Watchdog`])
//! the supervised deployment runtime uses to tell a busy thread from
//! a dead or wedged one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A thread's liveness beacon: the owning thread calls
/// [`Heartbeat::beat`] on every loop iteration (an atomic store —
/// cheap enough for a hot loop), and the [`Watchdog`] that issued it
/// reads the elapsed time since the last beat from any other thread.
#[derive(Clone)]
pub struct Heartbeat {
    /// Nanoseconds since the watchdog's origin at the last beat.
    cell: Arc<AtomicU64>,
    origin: Instant,
}

impl Heartbeat {
    /// Records that the owning thread is alive now.
    pub fn beat(&self) {
        self.cell
            .store(self.origin.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Observed liveness of one registered thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatStatus {
    /// Beat within the staleness bound.
    Alive {
        /// Time since the last beat.
        since_last: Duration,
    },
    /// No beat for longer than the staleness bound: the thread is
    /// dead, wedged, or starved.
    Stale {
        /// Time since the last beat.
        since_last: Duration,
    },
}

impl HeartbeatStatus {
    /// True when the thread beat within the bound.
    pub fn is_alive(&self) -> bool {
        matches!(self, HeartbeatStatus::Alive { .. })
    }
}

/// A registry of named [`Heartbeat`]s: each supervised thread gets
/// one at spawn, and the supervisor snapshots staleness without
/// touching the threads themselves.
pub struct Watchdog {
    origin: Instant,
    entries: Vec<(String, Arc<AtomicU64>)>,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog::new()
    }
}

impl Watchdog {
    /// Creates an empty registry; its creation instant is the time
    /// origin every issued heartbeat counts from.
    pub fn new() -> Watchdog {
        Watchdog {
            origin: Instant::now(),
            entries: Vec::new(),
        }
    }

    /// Issues a heartbeat under `name`, initialized to "beat now". A
    /// re-registration under an existing name (a respawned thread)
    /// replaces the old cell, so a successor starts with a fresh
    /// liveness record instead of inheriting its predecessor's.
    pub fn register(&mut self, name: &str) -> Heartbeat {
        let cell = Arc::new(AtomicU64::new(self.origin.elapsed().as_nanos() as u64));
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, c)) => *c = Arc::clone(&cell),
            None => self.entries.push((name.to_string(), Arc::clone(&cell))),
        }
        Heartbeat {
            cell,
            origin: self.origin,
        }
    }

    /// Snapshot of every registered thread's status: stale when the
    /// last beat is older than `stale_after`.
    pub fn statuses(&self, stale_after: Duration) -> Vec<(String, HeartbeatStatus)> {
        let now = self.origin.elapsed();
        self.entries
            .iter()
            .map(|(name, cell)| {
                let last = Duration::from_nanos(cell.load(Ordering::Relaxed));
                let since_last = now.saturating_sub(last);
                let status = if since_last > stale_after {
                    HeartbeatStatus::Stale { since_last }
                } else {
                    HeartbeatStatus::Alive { since_last }
                };
                (name.clone(), status)
            })
            .collect()
    }

    /// Names of threads whose last beat is older than `stale_after`.
    pub fn stale(&self, stale_after: Duration) -> Vec<String> {
        self.statuses(stale_after)
            .into_iter()
            .filter(|(_, s)| !s.is_alive())
            .map(|(n, _)| n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_keeps_thread_alive() {
        let mut dog = Watchdog::new();
        let hb = dog.register("worker-0");
        hb.beat();
        let statuses = dog.statuses(Duration::from_secs(5));
        assert_eq!(statuses.len(), 1);
        assert_eq!(statuses[0].0, "worker-0");
        assert!(statuses[0].1.is_alive());
        assert!(dog.stale(Duration::from_secs(5)).is_empty());
    }

    #[test]
    fn silent_thread_goes_stale() {
        let mut dog = Watchdog::new();
        let _hb = dog.register("shard-1");
        std::thread::sleep(Duration::from_millis(30));
        let stale = dog.stale(Duration::from_millis(5));
        assert_eq!(stale, vec!["shard-1".to_string()]);
    }

    #[test]
    fn heartbeat_works_across_threads() {
        let mut dog = Watchdog::new();
        let hb = dog.register("t");
        std::thread::sleep(Duration::from_millis(20));
        let t = std::thread::spawn(move || hb.beat());
        t.join().unwrap();
        assert!(dog.stale(Duration::from_millis(10)).is_empty());
    }

    #[test]
    fn reregistration_replaces_the_cell() {
        let mut dog = Watchdog::new();
        let _old = dog.register("shard-0");
        std::thread::sleep(Duration::from_millis(20));
        assert!(!dog.stale(Duration::from_millis(5)).is_empty());
        // The respawned thread re-registers: fresh cell, alive again,
        // and no duplicate entry.
        let _new = dog.register("shard-0");
        assert!(dog.stale(Duration::from_millis(5)).is_empty());
        assert_eq!(dog.statuses(Duration::from_secs(1)).len(), 1);
    }
}
