//! Barrier-synchronized phase execution — the SplitX cost model.
//!
//! SplitX's proxies process each epoch in phases (noise addition,
//! answer transmission, answer intersection, answer shuffling) and
//! "requires synchronization among its proxies to process query
//! answers in a privacy-preserving fashion. This synchronization
//! creates a significant delay" (paper §6 #VIII). This module models
//! phase-structured execution: every participant must finish phase `k`
//! and exchange data before any participant starts phase `k + 1`.
//! PrivApprox's proxies, by contrast, are a single barrier-free
//! forwarding phase — the gap between the two is Figure 6.

use crate::pool::ServerPool;

/// One phase of a synchronized computation.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Human-readable label (reported in Figure 6's breakdown).
    pub name: String,
    /// Number of per-item tasks in this phase.
    pub tasks: u64,
    /// Cost per task in microseconds.
    pub service_us: f64,
    /// Fixed post-phase exchange/synchronization delay in µs (barrier
    /// plus cross-proxy data exchange).
    pub barrier_us: u64,
}

impl Phase {
    /// Convenience constructor.
    pub fn new(name: &str, tasks: u64, service_us: f64, barrier_us: u64) -> Phase {
        Phase {
            name: name.to_string(),
            tasks,
            service_us,
            barrier_us,
        }
    }
}

/// Runs phases over `participants` pools (one per proxy), enforcing a
/// barrier between phases. Returns `(total_time, per_phase_times)`.
///
/// Each participant processes its own copy of every phase's tasks
/// (SplitX replicates the work at both proxies); the barrier waits for
/// the slowest.
pub fn run_phases(participants: &mut [ServerPool], phases: &[Phase]) -> (u64, Vec<u64>) {
    assert!(!participants.is_empty(), "need at least one participant");
    let mut clock: u64 = 0;
    let mut per_phase = Vec::with_capacity(phases.len());
    for phase in phases {
        let start = clock;
        let mut slowest = start;
        for pool in participants.iter_mut() {
            let done = pool.submit_batch(start, phase.tasks, phase.service_us);
            slowest = slowest.max(done);
        }
        clock = slowest + phase.barrier_us;
        per_phase.push(clock - start);
    }
    (clock, per_phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ServerPool;

    #[test]
    fn single_phase_equals_batch_time() {
        let mut pools = vec![ServerPool::new(4)];
        let (total, per) = run_phases(&mut pools, &[Phase::new("forward", 1000, 4.0, 0)]);
        // 1000 tasks × 4 µs over 4 cores = 1000 µs.
        assert_eq!(total, 1000);
        assert_eq!(per, vec![1000]);
    }

    #[test]
    fn barriers_add_up() {
        let mut pools = vec![ServerPool::new(1)];
        let (total, per) = run_phases(
            &mut pools,
            &[Phase::new("a", 10, 1.0, 100), Phase::new("b", 10, 1.0, 100)],
        );
        assert_eq!(per, vec![110, 110]);
        assert_eq!(total, 220);
    }

    #[test]
    fn slowest_participant_gates_the_barrier() {
        // One fast pool (4 cores) and one slow pool (1 core): the
        // barrier waits for the slow one.
        let mut pools = vec![ServerPool::new(4), ServerPool::new(1)];
        let (total, _) = run_phases(&mut pools, &[Phase::new("x", 100, 10.0, 0)]);
        assert_eq!(total, 1000, "gated by the 1-core participant");
    }

    #[test]
    fn phased_execution_is_slower_than_unsynchronized() {
        // The Fig 6 structure in miniature: same total work, but
        // split into barrier-separated phases vs one free-running
        // phase.
        let work = 100_000u64;
        let mut sync_pools = vec![ServerPool::new(8), ServerPool::new(8)];
        let phases: Vec<Phase> = (0..4)
            .map(|i| Phase::new(&format!("p{i}"), work / 4, 2.0, 50_000))
            .collect();
        let (sync_time, _) = run_phases(&mut sync_pools, &phases);

        let mut free_pool = ServerPool::new(8);
        let free_time = free_pool.submit_batch(0, work, 2.0);

        assert!(
            sync_time > free_time + 3 * 50_000,
            "sync {sync_time} vs free {free_time}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn empty_participants_rejected() {
        let _ = run_phases(&mut [], &[Phase::new("x", 1, 1.0, 0)]);
    }
}
