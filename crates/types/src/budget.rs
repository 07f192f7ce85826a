//! Query execution budgets and the derived system parameters.
//!
//! "Analysts publish streaming queries to the system, and also specify
//! a query execution budget … either in the form of latency
//! guarantees/SLAs, output quality/accuracy, or the computing resources
//! for query processing" (paper §2.1). The aggregator's initializer
//! converts a budget into the sampling parameter `s` and the
//! randomization parameters `(p, q)` (§3.1, §5); the conversion logic
//! itself lives in `privapprox-core::initializer` — this module only
//! defines the vocabulary.

use crate::time::Millis;

/// An analyst-specified query execution budget (paper §2.1).
#[derive(Debug, Clone, PartialEq)]
pub enum Budget {
    /// Latency SLA: each windowed result must be produced within the
    /// given number of milliseconds.
    LatencySla(Millis),
    /// Output-quality target: the half-width of the confidence
    /// interval, relative to the estimate, must stay below
    /// `target_error` at the given `confidence` level (e.g. 0.05 at
    /// 0.95).
    Accuracy {
        /// Maximum tolerated relative error.
        target_error: f64,
        /// Confidence level in (0, 1), typically 0.95.
        confidence: f64,
    },
    /// Resource cap: at most this many client answers may be processed
    /// per window (drives the sampling parameter directly).
    Resources {
        /// Maximum answers per window the aggregator may ingest.
        max_answers_per_window: u64,
    },
}

impl Budget {
    /// A conventional default: 5 % relative error at 95 % confidence.
    pub fn default_accuracy() -> Budget {
        Budget::Accuracy {
            target_error: 0.05,
            confidence: 0.95,
        }
    }
}

/// The system parameters the initializer derives from a budget:
/// sampling fraction `s` and randomization coin biases `(p, q)`
/// (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionParams {
    /// Sampling parameter: probability that a client participates in a
    /// given epoch (§3.2.1).
    pub s: f64,
    /// First-coin bias: probability of answering truthfully (§3.2.2).
    pub p: f64,
    /// Second-coin bias: probability of answering "Yes" when lying.
    pub q: f64,
}

impl ExecutionParams {
    /// Creates parameters, validating each lies in its legal range.
    ///
    /// `s ∈ (0, 1]`, `p ∈ (0, 1]`, `q ∈ (0, 1)`. `p = 1` disables
    /// randomization (used by the error-decomposition experiments);
    /// `q` must avoid 0 and 1 or Equation 8's ε diverges trivially.
    pub fn new(s: f64, p: f64, q: f64) -> Result<ExecutionParams, ParamError> {
        if !(s > 0.0 && s <= 1.0) {
            return Err(ParamError::Sampling(s));
        }
        if !(p > 0.0 && p <= 1.0) {
            return Err(ParamError::FirstCoin(p));
        }
        if !(q > 0.0 && q < 1.0) {
            return Err(ParamError::SecondCoin(q));
        }
        Ok(ExecutionParams { s, p, q })
    }

    /// Unvalidated constructor for compile-time-known constants.
    ///
    /// # Panics
    ///
    /// Panics on invalid values (same domain as [`ExecutionParams::new`]).
    pub fn checked(s: f64, p: f64, q: f64) -> ExecutionParams {
        ExecutionParams::new(s, p, q).expect("invalid execution parameters")
    }
}

impl Default for ExecutionParams {
    /// The paper's most common microbenchmark setting:
    /// `s = 0.6, p = 0.6, q = 0.6`.
    fn default() -> Self {
        ExecutionParams {
            s: 0.6,
            p: 0.6,
            q: 0.6,
        }
    }
}

/// A per-query differential-privacy allowance (journal version §4.3):
/// the total zero-knowledge ε a query may consume across its lifetime.
/// Each answered epoch spends `epsilon_zk(s, p, q)`; once the
/// remaining allowance cannot cover the next epoch the query must be
/// retired. Stored as a plain `f64` so the leaf `types` crate needs no
/// knowledge of the ε formulas (those live in `privapprox-rr`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyBudget {
    allocated: f64,
}

impl PrivacyBudget {
    /// A finite lifetime allowance of `epsilon > 0`.
    pub fn new(epsilon: f64) -> Result<PrivacyBudget, ParamError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(ParamError::Epsilon(epsilon));
        }
        Ok(PrivacyBudget { allocated: epsilon })
    }

    /// No cap: every epoch charge is admitted. Required for exact-mode
    /// runs (`p ≥ 1` disables randomization, so per-epoch ε is
    /// infinite) and for open-ended monitoring queries.
    pub fn unbounded() -> PrivacyBudget {
        PrivacyBudget {
            allocated: f64::INFINITY,
        }
    }

    /// The lifetime allowance (infinite for [`PrivacyBudget::unbounded`]).
    pub fn allocated(&self) -> f64 {
        self.allocated
    }

    /// Whether this budget admits every charge.
    pub fn is_unbounded(&self) -> bool {
        self.allocated.is_infinite()
    }
}

/// Append-only spend ledger for one query's [`PrivacyBudget`].
///
/// The single mutating operation, [`BudgetLedger::try_charge`], either
/// debits a whole epoch or rejects it — there is no partial spend and
/// no refund, so `spent() <= allocated()` holds by construction over
/// any interleaving of charges (the `multi_query` property suite
/// replays arbitrary interleavings against this invariant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetLedger {
    allocated: f64,
    spent: f64,
    epochs: u64,
}

impl BudgetLedger {
    /// A fresh ledger with nothing spent.
    pub fn new(budget: PrivacyBudget) -> BudgetLedger {
        BudgetLedger {
            allocated: budget.allocated(),
            spent: 0.0,
            epochs: 0,
        }
    }

    /// Reconstructs a ledger from journaled state (crash recovery).
    /// The restored spend is clamped to the allowance: a journal can
    /// only under-report spend (charges are journaled before any
    /// send), so recovery must never manufacture an over-spent — or
    /// worse, free-budget — ledger from a corrupt pair.
    pub fn restore(allocated: f64, spent: f64, epochs: u64) -> BudgetLedger {
        BudgetLedger {
            allocated,
            spent: if spent.is_finite() && spent >= 0.0 {
                spent.min(allocated)
            } else {
                0.0
            },
            epochs,
        }
    }

    /// Debits one epoch worth of `epsilon`, or rejects the charge —
    /// leaving the ledger untouched — when it would overdraw the
    /// allowance. Non-finite charges (exact mode: ε = ∞) are admitted
    /// only by an unbounded budget, and do not advance `spent`.
    ///
    /// The debit arithmetic is deliberately conservative (never
    /// under-counting): a positive ε that naive `f64` addition would
    /// round away entirely is bumped to the next representable value
    /// instead, and a sum that would overflow past the largest finite
    /// double is treated as exceeding any finite allowance. Without
    /// this, a crafted ε near the budget cap parks `spent` at a value
    /// whose rounding absorbs every later charge — unlimited epochs
    /// against a finite ε allowance, i.e. free privacy budget.
    pub fn try_charge(&mut self, epsilon: f64) -> Result<(), BudgetExhausted> {
        if epsilon.is_nan() || epsilon < 0.0 {
            return Err(self.exhausted(epsilon));
        }
        if self.allocated.is_infinite() {
            if epsilon.is_finite() {
                // The unbounded meter saturates at the largest finite
                // double rather than degrading to ∞ (which would make
                // `spent` indistinguishable from the allowance).
                self.spent = charge_up(self.spent, epsilon).min(f64::MAX);
            }
            self.epochs = self.epochs.saturating_add(1);
            return Ok(());
        }
        if !epsilon.is_finite() {
            return Err(self.exhausted(epsilon));
        }
        let debited = charge_up(self.spent, epsilon);
        if debited > self.allocated {
            return Err(self.exhausted(epsilon));
        }
        self.spent = debited;
        self.epochs = self.epochs.saturating_add(1);
        Ok(())
    }

    fn exhausted(&self, requested: f64) -> BudgetExhausted {
        BudgetExhausted {
            requested,
            spent: self.spent,
            allocated: self.allocated,
            epochs: self.epochs,
        }
    }

    /// Total ε debited so far. Never exceeds [`BudgetLedger::allocated`].
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// The lifetime allowance this ledger enforces.
    pub fn allocated(&self) -> f64 {
        self.allocated
    }

    /// Allowance still available (infinite for unbounded budgets).
    pub fn remaining(&self) -> f64 {
        if self.allocated.is_infinite() {
            f64::INFINITY
        } else {
            (self.allocated - self.spent).max(0.0)
        }
    }

    /// Number of epochs successfully charged.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }
}

/// Total ε after debiting `epsilon` from `spent`, rounded *up*: a
/// positive charge always strictly advances the sum (absorption by
/// rounding becomes the next representable double instead), and a sum
/// past the largest finite double lands on ∞, which every finite
/// allowance then rejects. Both inputs are finite and non-negative at
/// the call sites.
fn charge_up(spent: f64, epsilon: f64) -> f64 {
    let sum = spent + epsilon;
    if epsilon > 0.0 && sum <= spent {
        next_up(spent)
    } else {
        sum
    }
}

/// Smallest double strictly greater than finite non-negative `x`
/// (`f64::MAX` maps to ∞). Hand-rolled while `f64::next_up` is
/// unstable on the pinned toolchain.
fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// A rejected [`BudgetLedger::try_charge`]: the query must be retired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetExhausted {
    /// The per-epoch ε that could not be covered.
    pub requested: f64,
    /// Total ε spent before the rejected charge.
    pub spent: f64,
    /// The lifetime allowance.
    pub allocated: f64,
    /// Epochs successfully charged before exhaustion.
    pub epochs: u64,
}

impl core::fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "privacy budget exhausted: charge {} after spending {} of {} over {} epochs",
            self.requested, self.spent, self.allocated, self.epochs
        )
    }
}

impl std::error::Error for BudgetExhausted {}

/// Rejection reasons for out-of-range execution parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamError {
    /// `s` outside (0, 1].
    Sampling(f64),
    /// `p` outside (0, 1].
    FirstCoin(f64),
    /// `q` outside (0, 1).
    SecondCoin(f64),
    /// Privacy budget ε not a positive finite number.
    Epsilon(f64),
}

impl core::fmt::Display for ParamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParamError::Sampling(s) => write!(f, "sampling parameter s={s} outside (0, 1]"),
            ParamError::FirstCoin(p) => write!(f, "randomization parameter p={p} outside (0, 1]"),
            ParamError::SecondCoin(q) => write!(f, "randomization parameter q={q} outside (0, 1)"),
            ParamError::Epsilon(e) => write!(f, "privacy budget epsilon={e} not positive finite"),
        }
    }
}

impl std::error::Error for ParamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_params_accepted() {
        let p = ExecutionParams::new(0.6, 0.9, 0.3).unwrap();
        assert_eq!(p.s, 0.6);
        assert_eq!(p.p, 0.9);
        assert_eq!(p.q, 0.3);
    }

    #[test]
    fn boundary_params() {
        assert!(ExecutionParams::new(1.0, 1.0, 0.5).is_ok());
        assert!(ExecutionParams::new(0.0, 0.5, 0.5).is_err());
        assert!(ExecutionParams::new(0.5, 0.0, 0.5).is_err());
        assert!(ExecutionParams::new(0.5, 0.5, 0.0).is_err());
        assert!(ExecutionParams::new(0.5, 0.5, 1.0).is_err());
        assert!(ExecutionParams::new(1.1, 0.5, 0.5).is_err());
        assert!(ExecutionParams::new(f64::NAN, 0.5, 0.5).is_err());
    }

    #[test]
    fn error_messages_name_the_offender() {
        let e = ExecutionParams::new(2.0, 0.5, 0.5).unwrap_err();
        assert!(e.to_string().contains("s=2"));
        let e = ExecutionParams::new(0.5, 2.0, 0.5).unwrap_err();
        assert!(e.to_string().contains("p=2"));
        let e = ExecutionParams::new(0.5, 0.5, 2.0).unwrap_err();
        assert!(e.to_string().contains("q=2"));
    }

    #[test]
    fn ledger_rejects_overdraft_without_mutation() {
        let mut l = BudgetLedger::new(PrivacyBudget::new(1.0).unwrap());
        l.try_charge(0.4).unwrap();
        l.try_charge(0.4).unwrap();
        let err = l.try_charge(0.4).unwrap_err();
        assert_eq!(err.spent, 0.8);
        assert_eq!(err.allocated, 1.0);
        assert_eq!(err.epochs, 2);
        // Rejected charge leaves the ledger untouched and chargeable.
        assert_eq!(l.spent(), 0.8);
        assert_eq!(l.epochs(), 2);
        l.try_charge(0.2).unwrap();
        assert!(l.spent() <= l.allocated());
        assert_eq!(l.remaining(), 0.0);
    }

    #[test]
    fn unbounded_ledger_admits_infinite_charges() {
        let mut l = BudgetLedger::new(PrivacyBudget::unbounded());
        l.try_charge(f64::INFINITY).unwrap();
        l.try_charge(3.0).unwrap();
        assert_eq!(l.epochs(), 2);
        assert_eq!(l.spent(), 3.0);
        assert!(l.remaining().is_infinite());
    }

    #[test]
    fn bounded_ledger_rejects_infinite_and_invalid_charges() {
        let mut l = BudgetLedger::new(PrivacyBudget::new(10.0).unwrap());
        assert!(l.try_charge(f64::INFINITY).is_err());
        assert!(l.try_charge(f64::NAN).is_err());
        assert!(l.try_charge(-1.0).is_err());
        assert_eq!(l.epochs(), 0);
        assert_eq!(l.spent(), 0.0);
    }

    #[test]
    fn charge_near_cap_cannot_wrap_into_free_budget() {
        // The regression this pins: a crafted ε at the largest finite
        // double. The allowance covers it exactly; after that the
        // ledger sits at saturation, and *no* further positive charge
        // — huge (sum overflows) or tiny (sum rounds back to spent) —
        // may be admitted. Pre-fix, both were: `MAX + MAX` overflowed
        // to ∞ on an unbounded meter, and `MAX + tiny == MAX` passed
        // the `> allocated` test forever, i.e. unlimited epochs.
        let mut l = BudgetLedger::new(PrivacyBudget::new(f64::MAX).unwrap());
        l.try_charge(f64::MAX).unwrap();
        assert_eq!(l.spent(), f64::MAX);
        assert!(
            l.try_charge(f64::MAX).is_err(),
            "overflowing re-charge admitted"
        );
        assert!(l.try_charge(1.0).is_err(), "absorbed re-charge admitted");
        assert!(l.try_charge(1e-300).is_err());
        assert_eq!(l.epochs(), 1);
        assert_eq!(l.spent(), f64::MAX);
        assert!(l.spent() <= l.allocated());
    }

    #[test]
    fn tiny_charges_always_register_or_reject() {
        // ε small enough that naive addition absorbs it: the debit
        // must still strictly advance `spent` (never a free epoch).
        let mut l = BudgetLedger::new(PrivacyBudget::new(1.0).unwrap());
        l.try_charge(0.5).unwrap();
        let before = l.spent();
        l.try_charge(1e-20).unwrap();
        assert!(
            l.spent() > before,
            "positive charge admitted without advancing spent"
        );
        // And the strictly-monotone debit composes: hammering the
        // ledger with absorbed charges can only march spent upward,
        // never park it below the allowance forever at zero cost.
        let mut last = l.spent();
        for _ in 0..1000 {
            match l.try_charge(1e-20) {
                Ok(()) => {
                    assert!(l.spent() > last);
                    last = l.spent();
                }
                Err(_) => break,
            }
        }
        assert!(l.spent() <= l.allocated());
    }

    #[test]
    fn unbounded_meter_saturates_instead_of_degrading() {
        let mut l = BudgetLedger::new(PrivacyBudget::unbounded());
        l.try_charge(f64::MAX).unwrap();
        l.try_charge(f64::MAX).unwrap();
        assert_eq!(l.spent(), f64::MAX, "meter saturates, never reads ∞");
        assert_eq!(l.epochs(), 2);
        assert!(l.remaining().is_infinite());
        l.try_charge(f64::INFINITY).unwrap();
        assert_eq!(l.spent(), f64::MAX);
    }

    #[test]
    fn budget_validation() {
        assert!(PrivacyBudget::new(0.0).is_err());
        assert!(PrivacyBudget::new(-1.0).is_err());
        assert!(PrivacyBudget::new(f64::INFINITY).is_err());
        assert!(PrivacyBudget::new(f64::NAN).is_err());
        assert!(PrivacyBudget::new(2.5).is_ok());
        assert!(PrivacyBudget::unbounded().is_unbounded());
        assert!(!PrivacyBudget::new(2.5).unwrap().is_unbounded());
    }

    #[test]
    fn default_budget_is_95_confidence() {
        match Budget::default_accuracy() {
            Budget::Accuracy {
                target_error,
                confidence,
            } => {
                assert_eq!(target_error, 0.05);
                assert_eq!(confidence, 0.95);
            }
            other => panic!("unexpected default budget {other:?}"),
        }
    }
}
