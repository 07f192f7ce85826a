//! The initializer: budget → system parameters (paper §3.1, §5).
//!
//! "Once receiving the pair of the query and query budget from the
//! analyst, the aggregator first converts the query budget into system
//! parameters for sampling (s) and randomization (p, q)." Three budget
//! flavors are supported (§2.1): latency SLAs, accuracy targets, and
//! resource caps. Randomization parameters may additionally be pinned
//! by a privacy target (a maximum ε_zk).

use crate::error::CoreError;
use privapprox_rr::privacy::{epsilon_zk, p_for_epsilon, s_for_epsilon_zk};
use privapprox_sampling::planner::sampling_fraction_for;
use privapprox_types::{Budget, ExecutionParams};

/// Default first-coin bias when no privacy target pins it.
pub const DEFAULT_P: f64 = 0.9;
/// Default second-coin bias (the paper's most common choice).
pub const DEFAULT_Q: f64 = 0.6;
/// Sampling fraction floor: below this the CLT-based error machinery
/// stops being meaningful for realistic populations.
pub const MIN_S: f64 = 0.01;
/// The truthful-yes rate accuracy planning assumes.
const YES_RATE_HINT: f64 = 0.5;

/// Capacity model for latency budgets: how fast the deployment chews
/// through answers, measured by the bench harness.
#[derive(Debug, Clone, Copy)]
pub struct CapacityModel {
    /// Aggregate end-to-end throughput in answers per second.
    pub answers_per_sec: f64,
}

impl Default for CapacityModel {
    fn default() -> Self {
        // A conservative single-node figure; benches recalibrate it.
        CapacityModel {
            answers_per_sec: 200_000.0,
        }
    }
}

/// Converts analyst budgets into execution parameters.
#[derive(Debug, Clone, Default)]
pub struct Initializer {
    capacity: CapacityModel,
    /// Optional privacy ceiling: the derived parameters must satisfy
    /// `ε_zk(s, p, q) ≤ max_epsilon_zk`.
    max_epsilon_zk: Option<f64>,
}

impl Initializer {
    /// Creates an initializer with the default capacity model.
    pub fn new() -> Initializer {
        Initializer::default()
    }

    /// Overrides the capacity model (benches feed measured values).
    pub fn with_capacity(mut self, capacity: CapacityModel) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets a privacy ceiling on the derived parameters.
    pub fn with_max_epsilon_zk(mut self, eps: f64) -> Self {
        assert!(eps > 0.0, "privacy ceiling must be positive");
        self.max_epsilon_zk = Some(eps);
        self
    }

    /// Converts a budget for a query over `population` clients into
    /// `(s, p, q)`.
    pub fn derive(&self, budget: &Budget, population: u64) -> Result<ExecutionParams, CoreError> {
        let s = match budget {
            Budget::Accuracy {
                target_error,
                confidence,
            } => {
                if !(*target_error > 0.0) || !(*confidence > 0.0 && *confidence < 1.0) {
                    return Err(CoreError::InfeasibleBudget(format!(
                        "bad accuracy budget: error {target_error}, confidence {confidence}"
                    )));
                }
                sampling_fraction_for(population, YES_RATE_HINT, *target_error, *confidence)
            }
            Budget::LatencySla(ms) => {
                // Process s·U answers within the SLA at the modeled
                // capacity: s = capacity·t / U.
                let budget_answers = self.capacity.answers_per_sec * (*ms as f64) / 1_000.0;
                if budget_answers < 1.0 {
                    return Err(CoreError::InfeasibleBudget(format!(
                        "latency SLA of {ms} ms admits no answers at \
                         {} answers/sec",
                        self.capacity.answers_per_sec
                    )));
                }
                (budget_answers / population as f64).min(1.0)
            }
            Budget::Resources {
                max_answers_per_window,
            } => {
                if *max_answers_per_window == 0 {
                    return Err(CoreError::InfeasibleBudget(
                        "resource budget of zero answers".into(),
                    ));
                }
                (*max_answers_per_window as f64 / population as f64).min(1.0)
            }
        };
        let s = s.clamp(MIN_S, 1.0);

        // Randomization parameters: defaults, tightened by the privacy
        // ceiling when present.
        let (mut p, q) = (DEFAULT_P, DEFAULT_Q);
        if let Some(ceiling) = self.max_epsilon_zk {
            if epsilon_zk(s, p, q) > ceiling {
                // First try lowering p at the given s.
                // ε_zk(s, p, q) ≤ ceiling ⇔ ε_rr(p, q) ≤ the value
                // whose amplification equals the ceiling.
                let target_rr = ((ceiling.exp() - 1.0) / s + 1.0).ln();
                p = p_for_epsilon(target_rr, q).min(DEFAULT_P);
                if epsilon_zk(s, p, q) > ceiling + 1e-9 {
                    return Err(CoreError::InfeasibleBudget(format!(
                        "privacy ceiling ε_zk ≤ {ceiling} unreachable at s = {s}"
                    )));
                }
            }
        }
        Ok(ExecutionParams::new(s, p, q)?)
    }

    /// The sampling fraction meeting a privacy target with the default
    /// `(p, q)` — used when the analyst trades latency for privacy.
    pub fn sampling_for_privacy(&self, eps_zk: f64) -> Option<f64> {
        s_for_epsilon_zk(eps_zk, DEFAULT_P, DEFAULT_Q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_budget_tightens_with_error_target() {
        let init = Initializer::new();
        let loose = init
            .derive(
                &Budget::Accuracy {
                    target_error: 0.1,
                    confidence: 0.95,
                },
                100_000,
            )
            .unwrap();
        let tight = init
            .derive(
                &Budget::Accuracy {
                    target_error: 0.01,
                    confidence: 0.95,
                },
                100_000,
            )
            .unwrap();
        assert!(tight.s > loose.s, "tight {} loose {}", tight.s, loose.s);
    }

    #[test]
    fn latency_budget_scales_with_sla() {
        let init = Initializer::new().with_capacity(CapacityModel {
            answers_per_sec: 10_000.0,
        });
        let fast = init.derive(&Budget::LatencySla(100), 100_000).unwrap();
        let slow = init.derive(&Budget::LatencySla(5_000), 100_000).unwrap();
        // 100 ms at 10k answers/s → 1000 answers → s = 0.01.
        assert!((fast.s - 0.01).abs() < 1e-9, "fast s = {}", fast.s);
        // 5 s → 50k answers → s = 0.5.
        assert!((slow.s - 0.5).abs() < 1e-9, "slow s = {}", slow.s);
    }

    #[test]
    fn resource_budget_is_a_direct_ratio() {
        let init = Initializer::new();
        let p = init
            .derive(
                &Budget::Resources {
                    max_answers_per_window: 25_000,
                },
                100_000,
            )
            .unwrap();
        assert!((p.s - 0.25).abs() < 1e-9);
        // Caps at 1 when the budget exceeds the population.
        let p = init
            .derive(
                &Budget::Resources {
                    max_answers_per_window: 1_000_000,
                },
                100,
            )
            .unwrap();
        assert_eq!(p.s, 1.0);
    }

    #[test]
    fn infeasible_budgets_error() {
        let init = Initializer::new().with_capacity(CapacityModel {
            answers_per_sec: 1.0,
        });
        assert!(matches!(
            init.derive(&Budget::LatencySla(1), 1_000),
            Err(CoreError::InfeasibleBudget(_))
        ));
        assert!(matches!(
            init.derive(
                &Budget::Resources {
                    max_answers_per_window: 0
                },
                1_000
            ),
            Err(CoreError::InfeasibleBudget(_))
        ));
        assert!(matches!(
            init.derive(
                &Budget::Accuracy {
                    target_error: 0.0,
                    confidence: 0.95
                },
                1_000
            ),
            Err(CoreError::InfeasibleBudget(_))
        ));
    }

    #[test]
    fn privacy_ceiling_lowers_p() {
        // A resource budget at the full population forces s = 1, where
        // ε_zk(1, 0.9, 0.6) = ln 16 ≈ 2.77 > 1 — p must come down.
        let init = Initializer::new().with_max_epsilon_zk(1.0);
        let params = init
            .derive(
                &Budget::Resources {
                    max_answers_per_window: 100_000,
                },
                100_000,
            )
            .unwrap();
        assert_eq!(params.s, 1.0);
        assert!(params.p < DEFAULT_P, "p lowered to meet ε_zk ≤ 1");
        assert!(epsilon_zk(params.s, params.p, params.q) <= 1.0 + 1e-9);
    }

    #[test]
    fn accuracy_budget_with_small_s_keeps_default_p() {
        // The default accuracy budget samples ~1.5 % of 100k clients;
        // amplification already beats an ε_zk ceiling of 1.
        let init = Initializer::new().with_max_epsilon_zk(1.0);
        let params = init.derive(&Budget::default_accuracy(), 100_000).unwrap();
        assert_eq!(params.p, DEFAULT_P);
        assert!(epsilon_zk(params.s, params.p, params.q) <= 1.0);
    }

    #[test]
    fn generous_privacy_ceiling_keeps_defaults() {
        let init = Initializer::new().with_max_epsilon_zk(50.0);
        let params = init.derive(&Budget::default_accuracy(), 100_000).unwrap();
        assert_eq!(params.p, DEFAULT_P);
        assert_eq!(params.q, DEFAULT_Q);
    }

    #[test]
    fn sampling_for_privacy_round_trips() {
        let init = Initializer::new();
        let s = init.sampling_for_privacy(1.5).expect("reachable");
        assert!((epsilon_zk(s, DEFAULT_P, DEFAULT_Q) - 1.5).abs() < 1e-9);
    }
}
