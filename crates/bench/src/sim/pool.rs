//! Multi-core server pools: the basic throughput/latency model.
//!
//! A pool is `nodes × cores_per_node` identical cores. Tasks arrive at
//! given times and run for given service durations on the earliest
//! core that is both free and past the arrival time — the classic
//! G/G/c earliest-available-server discipline. Makespan over a batch
//! gives throughput; per-task completion minus arrival gives latency.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Shape of a simulated cluster for one component (e.g. the proxy
/// tier): how many nodes, how many cores each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Cores per node.
    pub cores_per_node: usize,
}

impl ClusterSpec {
    /// Total cores.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// The spec after `failed_nodes` nodes drop out — the capacity a
    /// supervised deployment degrades to while failed nodes respawn
    /// (never below one node: a cluster that lost everything is a
    /// different model than a slow one).
    pub fn degraded(&self, failed_nodes: usize) -> ClusterSpec {
        ClusterSpec {
            nodes: self.nodes.saturating_sub(failed_nodes).max(1),
            cores_per_node: self.cores_per_node,
        }
    }
}

/// A pool of identical cores with earliest-free scheduling.
#[derive(Debug, Clone)]
pub struct ServerPool {
    /// Min-heap of per-core next-free times.
    cores: BinaryHeap<Reverse<u64>>,
}

impl ServerPool {
    /// Creates a pool with `cores` cores, all free at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> ServerPool {
        assert!(cores > 0, "pool needs at least one core");
        ServerPool {
            cores: (0..cores).map(|_| Reverse(0)).collect(),
        }
    }

    /// Creates a pool from a cluster spec.
    pub fn for_cluster(spec: ClusterSpec) -> ServerPool {
        ServerPool::new(spec.total_cores())
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Submits a task arriving at `arrival` needing `service_us`
    /// microseconds; returns its completion time.
    pub fn submit(&mut self, arrival: u64, service_us: f64) -> u64 {
        let Reverse(free_at) = self.cores.pop().expect("pool never empty");
        let start = free_at.max(arrival);
        let completion = start + service_us.ceil() as u64;
        self.cores.push(Reverse(completion));
        completion
    }

    /// Runs a batch of `count` identical tasks all arriving at
    /// `arrival`; returns the makespan completion time.
    ///
    /// Equivalent to `count` calls to [`ServerPool::submit`] but O(c
    /// log range) instead of O(count log c): greedy earliest-free
    /// assignment of identical tasks is a water-filling problem, so
    /// the makespan is the smallest level `L` at which the cores'
    /// combined capacity `Σ ⌊(L − hᵢ)/t⌋` reaches `count`.
    pub fn submit_batch(&mut self, arrival: u64, count: u64, service_us: f64) -> u64 {
        if count == 0 {
            return self.horizon().max(arrival);
        }
        let t = (service_us.ceil() as u64).max(1);
        let heights: Vec<u64> = self
            .cores
            .iter()
            .map(|Reverse(free_at)| (*free_at).max(arrival))
            .collect();
        let capacity = |level: u64| -> u64 {
            heights
                .iter()
                .map(|&h| if level > h { (level - h) / t } else { 0 })
                .sum()
        };
        let (mut lo, mut hi) = (
            heights.iter().min().copied().unwrap_or(0) + t,
            heights.iter().max().copied().unwrap_or(0) + count * t,
        );
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if capacity(mid) >= count {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let level = lo;
        // Materialize per-core task counts; trim the excess (cores at
        // the highest completion shed first — they are the ones the
        // greedy order would not have filled that far).
        let mut ks: Vec<u64> = heights
            .iter()
            .map(|&h| if level > h { (level - h) / t } else { 0 })
            .collect();
        let mut excess = ks.iter().sum::<u64>() - count;
        let mut order: Vec<usize> = (0..heights.len()).collect();
        order.sort_by_key(|&i| core::cmp::Reverse(heights[i] + ks[i] * t));
        let mut oi = 0;
        while excess > 0 {
            let i = order[oi % order.len()];
            if ks[i] > 0 && (oi / order.len() > 0 || heights[i] + ks[i] * t >= level) {
                ks[i] -= 1;
                excess -= 1;
            }
            oi += 1;
        }
        let mut new_cores = BinaryHeap::with_capacity(heights.len());
        let mut makespan = arrival;
        for (h, k) in heights.iter().zip(&ks) {
            let done = h + k * t;
            makespan = makespan.max(done);
            // A core's free time never regresses below its prior load.
            new_cores.push(Reverse(done.max(*h)));
        }
        self.cores = new_cores;
        makespan
    }

    /// The latest next-free time across cores (the current makespan).
    pub fn horizon(&self) -> u64 {
        self.cores.iter().map(|Reverse(t)| *t).max().unwrap_or(0)
    }

    /// Throughput over a batch: tasks per second given the batch
    /// completed at `completion` having started at `arrival`.
    pub fn throughput(count: u64, arrival: u64, completion: u64) -> f64 {
        let elapsed_us = completion.saturating_sub(arrival).max(1);
        count as f64 * 1_000_000.0 / elapsed_us as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_serializes() {
        let mut pool = ServerPool::new(1);
        assert_eq!(pool.submit(0, 10.0), 10);
        assert_eq!(pool.submit(0, 10.0), 20);
        assert_eq!(pool.submit(100, 10.0), 110, "idle gap respected");
    }

    #[test]
    fn parallel_cores_run_concurrently() {
        let mut pool = ServerPool::new(4);
        let completions: Vec<u64> = (0..4).map(|_| pool.submit(0, 10.0)).collect();
        assert!(completions.iter().all(|&c| c == 10));
        // Fifth task queues behind one of them.
        assert_eq!(pool.submit(0, 10.0), 20);
    }

    #[test]
    fn batch_scales_nearly_linearly_with_cores() {
        // The Fig 8 scale-up shape: same batch, more cores → shorter
        // makespan, ~proportional.
        let n = 100_000u64;
        let service = 2.0;
        let t2 = ServerPool::new(2).submit_batch(0, n, service);
        let t4 = ServerPool::new(4).submit_batch(0, n, service);
        let t8 = ServerPool::new(8).submit_batch(0, n, service);
        let r42 = t2 as f64 / t4 as f64;
        let r84 = t4 as f64 / t8 as f64;
        assert!((r42 - 2.0).abs() < 0.1, "2→4 cores speedup {r42}");
        assert!((r84 - 2.0).abs() < 0.1, "4→8 cores speedup {r84}");
    }

    #[test]
    fn closed_form_batch_matches_explicit_simulation() {
        let n = 1000u64; // big enough to take the closed-form path at 8 cores? 1000 > 32 ✓
        let service = 3.0;
        let closed = ServerPool::new(8).submit_batch(0, n, service);
        let mut explicit = ServerPool::new(8);
        let mut last = 0;
        for _ in 0..n {
            last = last.max(explicit.submit(0, service));
        }
        assert_eq!(closed, last);
    }

    #[test]
    fn batch_respects_prior_load() {
        let mut pool = ServerPool::new(2);
        pool.submit(0, 100.0); // one core busy until 100
        let done = pool.submit_batch(0, 10, 10.0);
        // Free core takes tasks from t=0; busy one from t=100. The
        // earliest-free discipline puts all 10 on the idle core: 100.
        assert_eq!(done, 100);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut pool = ServerPool::new(2);
        assert_eq!(pool.submit_batch(5, 0, 10.0), 5);
    }

    #[test]
    fn throughput_computation() {
        // 1000 tasks over 1 second.
        assert_eq!(ServerPool::throughput(1000, 0, 1_000_000), 1000.0);
        // Degenerate zero-duration guard.
        assert!(ServerPool::throughput(10, 5, 5) > 0.0);
    }

    #[test]
    fn cluster_spec_cores() {
        let spec = ClusterSpec {
            nodes: 4,
            cores_per_node: 8,
        };
        assert_eq!(spec.total_cores(), 32);
        assert_eq!(ServerPool::for_cluster(spec).cores(), 32);
    }

    #[test]
    fn degraded_spec_loses_whole_nodes_but_never_everything() {
        let spec = ClusterSpec {
            nodes: 4,
            cores_per_node: 8,
        };
        assert_eq!(spec.degraded(1).total_cores(), 24);
        assert_eq!(spec.degraded(4).total_cores(), 8, "floor of one node");
        assert_eq!(spec.degraded(100).total_cores(), 8);
        // A degraded pool runs the same batch slower, not wrong.
        let n = 10_000u64;
        let full = ServerPool::for_cluster(spec).submit_batch(0, n, 2.0);
        let degraded = ServerPool::for_cluster(spec.degraded(2)).submit_batch(0, n, 2.0);
        assert!(degraded > full, "fewer cores → longer makespan");
    }
}
