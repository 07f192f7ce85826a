//! The PrivApprox system: clients, proxies, aggregator and analyst
//! sessions.
//!
//! This crate wires the substrates (SQL engine, sampling, randomized
//! response, XOR crypto, stream broker, windowed dataflow) into the
//! end-to-end architecture of the paper's Figures 1 and 3:
//!
//! ```text
//! analyst ──query+budget──► initializer ──(s,p,q)+query──► clients
//! clients ──sample→answer→randomize→split──► proxies (n ≥ 2)
//! proxies ──forward only──► aggregator ──join→decode→window→estimate──► analyst
//! ```
//!
//! * [`client`] — local store, participation coin, query answering,
//!   randomization, share splitting (§3.2.1–§3.2.3);
//! * [`proxy`] — forwarding relays over broker topics (§3.2.3);
//! * [`aggregator`] — share join, decode, sliding-window aggregation,
//!   Equation 5 inversion, Equation 2 scaling, error bounds (§3.2.4);
//! * [`initializer`] — budget → `(s, p, q)` conversion (§3.1);
//! * [`feedback`] — the adaptive re-tuning loop (§5);
//! * [`historical`] — the batch-analytics warehouse with second-round
//!   sampling (§3.3.1);
//! * [`system`] — an in-process deployment harness used by examples,
//!   integration tests and benchmarks;
//! * [`deploy`] — the *threaded, sharded* deployment runtime
//!   ([`ShardedSystem`]): M aggregator shards reading N proxy topics
//!   over partitioned broker topics, byte-identical to [`System`] seed
//!   for seed.
//!
//! # Hot-path buffer conventions (`*_into`)
//!
//! The steady-state pipeline is allocation-free end to end, proven by
//! the counting-allocator test in `tests/alloc_steady_state.rs`. The
//! convention that makes this auditable: any function named `*_into`
//! writes through a caller-owned buffer, and the *caller* keeps that
//! buffer alive across calls so its capacity is reused.
//!
//! * Client side: [`Client::answer_query_into`] drives the whole
//!   epoch (prepared SQL → bucketize → randomize → encode → split)
//!   through one [`ClientScratch`]; the returned shares borrow from
//!   it. The SQL stage runs the query's plan, shared by every client
//!   whose table has the same schema (`privapprox_sql::Database::plan`):
//!   it is prepared when the first client meets the query, and each
//!   client keeps a handle until the SQL changes or its table is
//!   re-created with another schema.
//! * Aggregator side: `pump` decodes into an internal scratch
//!   `BitVec` and folds it by reference;
//!   [`Aggregator::advance_watermark_into`] appends closed windows
//!   into the caller's `Vec<QueryResult>` using recycled result
//!   shells and pooled estimators, and
//!   [`Aggregator::recycle_results`] returns consumed shells for the
//!   next close.
//!
//! Buffer ownership, in one sentence: scratch lives with whoever
//! loops — the client owns its `ClientScratch` epoch loop, the
//! aggregator owns its decode scratch and pools, and the analyst-side
//! caller owns the results vector it drains and recycles.

pub mod aggregator;
pub mod client;
mod control;
pub mod deploy;
pub mod error;
pub mod feedback;
pub mod historical;
pub mod initializer;
pub mod persist;
pub mod proxy;
pub mod remote;
mod stage;
pub mod system;
mod tenant;

pub use aggregator::{Aggregator, BucketResult, QueryResult};
pub use client::{Client, ClientAnswer, ClientScratch};
pub use deploy::{
    DeployHealth, FaultInjector, Retirement, ShardedConfig, ShardedSystem, ShardedSystemBuilder,
};
pub use error::{CoreError, DeployError};
pub use feedback::FeedbackController;
pub use historical::Warehouse;
pub use initializer::Initializer;
pub use proxy::Proxy;
pub use system::{System, SystemBuilder, SystemConfig};
