//! Figure 4: (a) accuracy loss vs sampling fraction for nine `(p, q)`
//! pairs; (b) the sampling/randomization error decomposition; (c)
//! accuracy loss vs number of clients.

use crate::experiments::micro::mean_loss;
use crate::experiments::RUNS;
use privapprox_datasets::micro::MicroAnswers;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// The sampling fractions the paper sweeps (percent).
pub const FRACTIONS: [u32; 7] = [10, 20, 40, 60, 80, 90, 100];
/// The nine (p, q) combinations.
pub const PQ: [(f64, f64); 9] = [
    (0.3, 0.3),
    (0.3, 0.6),
    (0.3, 0.9),
    (0.6, 0.3),
    (0.6, 0.6),
    (0.6, 0.9),
    (0.9, 0.3),
    (0.9, 0.6),
    (0.9, 0.9),
];

/// One Figure 4a series: losses (%) per sampling fraction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4aSeries {
    /// First-coin bias.
    pub p: f64,
    /// Second-coin bias.
    pub q: f64,
    /// Loss (%) at each of [`FRACTIONS`].
    pub loss_pct: Vec<f64>,
}

/// Figure 4a: loss vs sampling fraction per (p, q).
pub fn run_4a(seed: u64) -> Vec<Fig4aSeries> {
    let population = MicroAnswers::paper_default(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF164A);
    PQ.iter()
        .map(|&(p, q)| Fig4aSeries {
            p,
            q,
            loss_pct: FRACTIONS
                .iter()
                .map(|&f| {
                    100.0
                        * mean_loss(
                            population.answers(),
                            population.yes_count(),
                            f as f64 / 100.0,
                            p,
                            q,
                            RUNS,
                            &mut rng,
                        )
                })
                .collect(),
        })
        .collect()
}

/// Figure 4b rows: the error decomposition at each sampling fraction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4bRow {
    /// Sampling fraction (%).
    pub fraction_pct: u32,
    /// Loss (%) from sampling alone (`p = 1`).
    pub sampling_only: f64,
    /// Loss (%) from randomized response alone (`s = 1`, p=0.3 q=0.6).
    pub rr_only: f64,
    /// Loss (%) with both processes active.
    pub combined: f64,
    /// `sampling_only + rr_only` — §3.2.4 claims this tracks
    /// `combined` because the processes are independent.
    pub sum_of_parts: f64,
}

/// Figure 4b: error decomposition (paper parameters: RR at p = 0.3,
/// q = 0.6).
pub fn run_4b(seed: u64) -> Vec<Fig4bRow> {
    let population = MicroAnswers::paper_default(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF164B);
    let (p, q) = (0.3, 0.6);
    let rr_only = 100.0
        * mean_loss(
            population.answers(),
            population.yes_count(),
            1.0,
            p,
            q,
            RUNS,
            &mut rng,
        );
    FRACTIONS
        .iter()
        .map(|&f| {
            let s = f as f64 / 100.0;
            let sampling_only = 100.0
                * mean_loss(
                    population.answers(),
                    population.yes_count(),
                    s,
                    1.0,
                    0.5,
                    RUNS,
                    &mut rng,
                );
            let combined = 100.0
                * mean_loss(
                    population.answers(),
                    population.yes_count(),
                    s,
                    p,
                    q,
                    RUNS,
                    &mut rng,
                );
            Fig4bRow {
                fraction_pct: f,
                sampling_only,
                rr_only,
                combined,
                sum_of_parts: sampling_only + rr_only,
            }
        })
        .collect()
}

/// Figure 4c rows: loss vs population size.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4cRow {
    /// Number of clients.
    pub clients: u64,
    /// Loss (%).
    pub loss_pct: f64,
}

/// Figure 4c: client counts 10¹..10⁶ at s = 0.9, p = 0.9, q = 0.6.
pub fn run_4c(seed: u64) -> Vec<Fig4cRow> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF164C);
    [10u64, 100, 1_000, 10_000, 100_000, 1_000_000]
        .iter()
        .map(|&n| {
            let population = MicroAnswers::generate(n, 0.6, seed ^ n);
            // Smaller run count at 10⁶ keeps the experiment quick; the
            // variance there is tiny anyway.
            let runs = if n >= 1_000_000 { 3 } else { RUNS };
            let loss = mean_loss(
                population.answers(),
                population.yes_count(),
                0.9,
                0.9,
                0.6,
                runs,
                &mut rng,
            );
            Fig4cRow {
                clients: n,
                loss_pct: 100.0 * loss,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_loss_decreases_with_sampling() {
        let series = run_4a(1);
        assert_eq!(series.len(), 9);
        for s in &series {
            assert_eq!(s.loss_pct.len(), FRACTIONS.len());
            // Compare the 10 % and 90 % points (monotonicity holds in
            // expectation; single points can wobble, so use the ends).
            assert!(
                s.loss_pct[0] > s.loss_pct[5],
                "p={} q={}: 10% loss {} vs 90% loss {}",
                s.p,
                s.q,
                s.loss_pct[0],
                s.loss_pct[5]
            );
        }
    }

    #[test]
    fn fig4b_parts_sum_to_roughly_the_whole() {
        // §3.2.4 / Fig 4b: the two error sources are independent and
        // additive. The RR component measured at s = 1 sees N answers;
        // under sampling it operates on s·N of them, so its
        // contribution grows like 1/√s — account for that scale when
        // comparing, plus Monte Carlo slack.
        let rows = run_4b(2);
        for r in &rows {
            let scaled_parts = r.sampling_only + r.rr_only / (r.fraction_pct as f64 / 100.0).sqrt();
            assert!(
                r.combined <= scaled_parts * 1.8 + 0.5,
                "fraction {}%: combined {} vs scaled parts {scaled_parts}",
                r.fraction_pct,
                r.combined
            );
        }
        // Sampling-only error vanishes at s = 1 and the combined loss
        // collapses to the RR-only loss there.
        let last = rows.last().unwrap();
        assert!(
            last.sampling_only < 0.01,
            "census sampling loss {}",
            last.sampling_only
        );
        assert!(
            (last.combined - last.rr_only).abs() < last.rr_only.max(0.5),
            "at s=1 combined {} ≈ rr_only {}",
            last.combined,
            last.rr_only
        );
    }

    #[test]
    fn fig4c_loss_falls_with_population() {
        let rows = run_4c(3);
        assert_eq!(rows.len(), 6);
        // The paper: few clients (<100) → low utility; 10⁶ → tiny loss.
        assert!(
            rows[0].loss_pct > rows[5].loss_pct,
            "10 clients {} vs 1M clients {}",
            rows[0].loss_pct,
            rows[5].loss_pct
        );
        assert!(
            rows[5].loss_pct < 0.5,
            "1M-client loss {}",
            rows[5].loss_pct
        );
    }
}
