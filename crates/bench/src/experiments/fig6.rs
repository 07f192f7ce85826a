//! Figure 6: proxy latency, SplitX vs PrivApprox, for 10²..10⁸
//! clients.
//!
//! Up to `REAL_LIMIT` clients both pipelines execute for real
//! ([`crate::splitx`]); beyond that the calibrated cluster
//! simulator extends the curves — per-answer service times come from
//! the real runs, the synchronization structure (4 barrier-separated
//! phases vs 1 free phase) is the models' only difference, mirroring
//! the paper's explanation of the gap.

use crate::calibrate::Calibration;
use crate::phases::{run_phases, Phase};
use crate::pool::ServerPool;
use crate::splitx::{run_privapprox_epoch, run_splitx_epoch, synthetic_batch};
use serde::Serialize;

/// Largest client count executed for real.
pub const REAL_LIMIT: u64 = 1_000_000;
/// Per-phase synchronization/exchange delay (µs) charged to SplitX in
/// the simulated range: one cross-proxy round trip on a gigabit link
/// plus barrier bookkeeping.
pub const SYNC_BARRIER_US: u64 = 50_000;
/// Cores per simulated proxy node (the paper's testbed nodes).
pub const SIM_CORES: usize = 8;

/// One Figure 6 row.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Row {
    /// Number of clients (answers per epoch).
    pub clients: u64,
    /// SplitX end-to-end proxy latency (seconds).
    pub splitx_s: f64,
    /// SplitX transmission component.
    pub splitx_transmission_s: f64,
    /// SplitX computation (noise + intersection) component.
    pub splitx_computation_s: f64,
    /// SplitX shuffling component.
    pub splitx_shuffle_s: f64,
    /// PrivApprox proxy latency (seconds).
    pub privapprox_s: f64,
    /// True when the row came from the calibrated simulator rather
    /// than real execution.
    pub simulated: bool,
}

/// Runs the experiment over the paper's client counts.
pub fn run(calibration: &Calibration, max_clients: u64) -> Vec<Fig6Row> {
    let mut rows = Vec::new();
    let mut n = 100u64;
    while n <= max_clients {
        rows.push(if n <= REAL_LIMIT {
            run_real(n)
        } else {
            run_simulated(calibration, n)
        });
        n *= 10;
    }
    rows
}

/// Executes both pipelines for real at `n` clients.
///
/// Small batches are dominated by thread-spawn noise, so they repeat
/// several times and keep the fastest epoch.
fn run_real(n: u64) -> Fig6Row {
    let reps = if n <= 100_000 { 5 } else { 1 };
    let batch = synthetic_batch(n as usize, 13, n);
    let mut best = run_splitx_epoch(&batch, 42);
    let mut best_pa = run_privapprox_epoch(&batch);
    for _ in 1..reps {
        let t = run_splitx_epoch(&batch, 42);
        if t.total < best.total {
            best = t;
        }
        best_pa = best_pa.min(run_privapprox_epoch(&batch));
    }
    Fig6Row {
        clients: n,
        splitx_s: best.total.as_secs_f64(),
        splitx_transmission_s: best.transmission.as_secs_f64(),
        splitx_computation_s: (best.noise + best.intersection).as_secs_f64(),
        splitx_shuffle_s: best.shuffling.as_secs_f64(),
        privapprox_s: best_pa.as_secs_f64(),
        simulated: false,
    }
}

/// Simulates both pipelines at `n` clients from calibrated costs.
///
/// Runs the pools in nanosecond ticks so sub-microsecond per-answer
/// costs survive the integer quantization.
fn run_simulated(c: &Calibration, n: u64) -> Fig6Row {
    let ns = 1_000.0;
    // SplitX: two 8-core proxy nodes, four barrier-separated phases.
    let mut pools = vec![ServerPool::new(SIM_CORES), ServerPool::new(SIM_CORES)];
    let barrier_ns = SYNC_BARRIER_US * 1_000;
    let phases = [
        Phase::new("noise", n, c.splitx_noise_us * ns, barrier_ns),
        Phase::new("transmission", n, c.splitx_transmission_us * ns, barrier_ns),
        Phase::new("intersection", n, c.splitx_intersection_us * ns, barrier_ns),
        Phase::new("shuffle", n, c.splitx_shuffle_us * ns, barrier_ns),
    ];
    let (total_ns, per_phase) = run_phases(&mut pools, &phases);

    // PrivApprox: one free-running forward phase on the same hardware.
    let mut pa_pool = ServerPool::new(2 * SIM_CORES);
    let pa_ns = pa_pool.submit_batch(0, n, c.privapprox_forward_us * ns);

    Fig6Row {
        clients: n,
        splitx_s: total_ns as f64 / 1e9,
        splitx_transmission_s: per_phase[1] as f64 / 1e9,
        splitx_computation_s: (per_phase[0] + per_phase[2]) as f64 / 1e9,
        splitx_shuffle_s: per_phase[3] as f64 / 1e9,
        privapprox_s: pa_ns as f64 / 1e9,
        simulated: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_calibration() -> Calibration {
        Calibration {
            proxy_forward_us: 0.5,
            aggregator_join_us: 1.0,
            rr_us: 0.3,
            xor_split_us: 0.4,
            splitx_noise_us: 0.2,
            splitx_transmission_us: 0.1,
            splitx_intersection_us: 0.3,
            splitx_shuffle_us: 0.15,
            privapprox_forward_us: 0.1,
        }
    }

    #[test]
    fn simulated_splitx_is_slower_with_growing_gap() {
        let c = fake_calibration();
        let rows = run(&c, 100_000_000)
            .into_iter()
            .filter(|r| r.simulated)
            .collect::<Vec<_>>();
        assert_eq!(rows.len(), 2, "10⁷ and 10⁸ rows simulated");
        for r in &rows {
            assert!(
                r.splitx_s > r.privapprox_s,
                "{} clients: splitx {} vs pa {}",
                r.clients,
                r.splitx_s,
                r.privapprox_s
            );
            // The paper reports ≈6.5× at 10⁶ on its testbed; demand a
            // clearly-visible multiple here without pinning hardware.
            assert!(r.splitx_s / r.privapprox_s > 2.0);
            // Breakdown sums to ≤ total (barriers add the rest).
            assert!(
                r.splitx_transmission_s + r.splitx_computation_s + r.splitx_shuffle_s
                    <= r.splitx_s + 1e-9
            );
        }
        // Latency grows with client count.
        assert!(rows[1].splitx_s > rows[0].splitx_s);
        assert!(rows[1].privapprox_s > rows[0].privapprox_s);
    }

    #[test]
    fn real_rows_execute_and_order_correctly() {
        // Keep the real range small in unit tests.
        let c = fake_calibration();
        let rows = run(&c, 10_000);
        assert_eq!(rows.len(), 3); // 10², 10³, 10⁴
        assert!(rows.iter().all(|r| !r.simulated));
        for r in &rows {
            assert!(r.splitx_s > 0.0 && r.privapprox_s > 0.0);
            assert!(
                r.splitx_s > r.privapprox_s,
                "{} clients: splitx {} vs pa {}",
                r.clients,
                r.splitx_s,
                r.privapprox_s
            );
        }
    }
}
