//! Figure 8: proxy and aggregator throughput, scaling up (cores) and
//! out (nodes).
//!
//! The paper ran a 44-node cluster; this host has a handful of cores
//! at best, so the parallel structure comes from the calibrated
//! cluster simulator: per-message service times are *measured* from
//! the real single-core implementation (see [`crate::calibrate`]) and
//! scheduled over simulated multi-core nodes. Message-size effects
//! between the two case studies enter through a measured per-byte
//! component.

use crate::calibrate::Calibration;
use crate::pool::ServerPool;
use serde::Serialize;

/// Messages per simulated epoch batch.
pub const BATCH: u64 = 4_000_000;

/// Workload flavor: the two case studies differ in answer width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CaseStudy {
    /// NYC taxi: 11 buckets → 13-byte answers.
    NycTaxi,
    /// Household electricity: 7 buckets → 12-byte answers.
    Electricity,
}

impl CaseStudy {
    /// Encoded answer size on the wire.
    pub fn wire_bytes(self) -> usize {
        match self {
            CaseStudy::NycTaxi => privapprox_crypto::answer_wire_size(11),
            CaseStudy::Electricity => privapprox_crypto::answer_wire_size(7),
        }
    }

    /// Service-time scale factor relative to the taxi workload
    /// (per-byte component of the forward path; the calibration's
    /// base cost was measured on taxi-sized answers).
    fn service_scale(self) -> f64 {
        let taxi = CaseStudy::NycTaxi.wire_bytes() as f64;
        // ~60 % of the forward cost is per-message overhead, the rest
        // scales with size (measured shape of the broker path).
        0.6 + 0.4 * self.wire_bytes() as f64 / taxi
    }
}

/// One throughput measurement.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Row {
    /// Which component: "proxy" or "aggregator".
    pub component: String,
    /// Which case study.
    pub case: CaseStudy,
    /// Node count.
    pub nodes: usize,
    /// Cores per node.
    pub cores: usize,
    /// Throughput in thousands of responses per second.
    pub kresponses_per_sec: f64,
}

/// Scale-up (single node, varying cores) and scale-out (8-core nodes)
/// sweeps for both components and case studies.
pub fn run(c: &Calibration) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for &case in &[CaseStudy::NycTaxi, CaseStudy::Electricity] {
        let proxy_service = c.proxy_forward_us * case.service_scale();
        let agg_service = c.aggregator_join_us * case.service_scale();
        // Scale-up: 2, 4, 6, 8 cores on one node.
        for cores in [2usize, 4, 6, 8] {
            rows.push(measure("proxy", case, 1, cores, proxy_service));
            rows.push(measure("aggregator", case, 1, cores, agg_service));
        }
        // Scale-out: 8-core nodes; proxies 1–4 (the paper's cluster of
        // 4), aggregator 1–20.
        for nodes in [1usize, 2, 3, 4] {
            rows.push(measure("proxy", case, nodes, 8, proxy_service));
        }
        for nodes in [1usize, 5, 10, 15, 20] {
            rows.push(measure("aggregator", case, nodes, 8, agg_service));
        }
    }
    rows
}

fn measure(
    component: &str,
    case: CaseStudy,
    nodes: usize,
    cores: usize,
    service_us: f64,
) -> Fig8Row {
    // The pool quantizes service times to whole ticks; run it in
    // nanosecond ticks so sub-microsecond per-message costs (and the
    // small size difference between the case studies) survive.
    let mut pool = ServerPool::new(nodes * cores);
    let done_ns = pool.submit_batch(0, BATCH, service_us * 1_000.0);
    Fig8Row {
        component: component.to_string(),
        case,
        nodes,
        cores,
        kresponses_per_sec: BATCH as f64 / (done_ns as f64 / 1e9) / 1_000.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration {
            proxy_forward_us: 0.8,
            aggregator_join_us: 2.4,
            rr_us: 0.3,
            xor_split_us: 0.4,
            splitx_noise_us: 0.2,
            splitx_transmission_us: 0.1,
            splitx_intersection_us: 0.3,
            splitx_shuffle_us: 0.15,
            privapprox_forward_us: 0.1,
        }
    }

    fn find<'a>(
        rows: &'a [Fig8Row],
        component: &str,
        case: CaseStudy,
        nodes: usize,
        cores: usize,
    ) -> &'a Fig8Row {
        rows.iter()
            .find(|r| {
                r.component == component && r.case == case && r.nodes == nodes && r.cores == cores
            })
            .expect("row present")
    }

    #[test]
    fn throughput_scales_with_cores_and_nodes() {
        let rows = run(&cal());
        let p2 = find(&rows, "proxy", CaseStudy::NycTaxi, 1, 2).kresponses_per_sec;
        let p8 = find(&rows, "proxy", CaseStudy::NycTaxi, 1, 8).kresponses_per_sec;
        assert!(
            (p8 / p2 - 4.0).abs() < 0.2,
            "2→8 cores should ≈4×: {p2} vs {p8}"
        );
        let n1 = find(&rows, "proxy", CaseStudy::NycTaxi, 1, 8).kresponses_per_sec;
        let n4 = find(&rows, "proxy", CaseStudy::NycTaxi, 4, 8).kresponses_per_sec;
        assert!((n4 / n1 - 4.0).abs() < 0.2, "1→4 nodes should ≈4×");
    }

    #[test]
    fn aggregator_is_slower_than_proxies() {
        // "The throughput of the aggregator … is much lower than the
        // throughput of proxies due to the relatively expensive join."
        let rows = run(&cal());
        let proxy = find(&rows, "proxy", CaseStudy::NycTaxi, 1, 8).kresponses_per_sec;
        let agg = find(&rows, "aggregator", CaseStudy::NycTaxi, 1, 8).kresponses_per_sec;
        assert!(agg < proxy, "aggregator {agg} vs proxy {proxy}");
    }

    #[test]
    fn electricity_beats_taxi_at_proxies_but_not_aggregator() {
        // "proxies achieve relatively higher throughput because the
        // message size is smaller … the aggregator … does not
        // significantly improve."
        let rows = run(&cal());
        let taxi = find(&rows, "proxy", CaseStudy::NycTaxi, 1, 8).kresponses_per_sec;
        let elec = find(&rows, "proxy", CaseStudy::Electricity, 1, 8).kresponses_per_sec;
        assert!(elec > taxi, "electricity {elec} vs taxi {taxi}");
        let ratio = elec / taxi;
        assert!(ratio < 1.15, "size effect should be modest: {ratio}");
    }
}
