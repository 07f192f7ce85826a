//! Shared vocabulary for the PrivApprox reproduction.
//!
//! This crate defines the types that cross subsystem boundaries: the
//! analyst's query model `⟨QID, SQL, A[n], f, w, δ⟩` (paper §3.1,
//! Equation 1), bucketed answer specifications, the bit-vector answer
//! representation, identifiers, event-time primitives, and query
//! execution budgets.
//!
//! Everything here is plain data: no I/O, no randomness, no threads.

pub mod bitvec;
pub mod budget;
pub mod fasthash;
pub mod ids;
pub mod query;
pub mod time;
pub mod words;

pub use bitvec::BitVec;
pub use budget::{Budget, BudgetExhausted, BudgetLedger, ExecutionParams, PrivacyBudget};
pub use fasthash::{FastHasher, FastState};
pub use ids::{AnalystId, ClientId, MessageId, ProxyId, QueryId};
pub use query::{AnswerSpec, BucketIndexer, BucketRule, Query, QueryBuilder};
pub use time::{Millis, Timestamp, Window, WindowSpec};
