//! # PrivApprox — privacy-preserving stream analytics
//!
//! A from-scratch Rust reproduction of *"PrivApprox: Privacy-Preserving
//! Stream Analytics"* (Quoc, Beck, Bhatotia, Chen, Fetzer, Strufe —
//! USENIX ATC 2017).
//!
//! PrivApprox marries two approximation techniques:
//!
//! * **client-side sampling** — each client flips a coin with bias `s`
//!   to decide whether to answer at all, buying low latency and
//!   bandwidth (and, combined with the next step, a tighter privacy
//!   bound);
//! * **randomized response** — participating clients perturb each
//!   answer bit with the classic two-coin `(p, q)` mechanism, so the
//!   aggregate is differentially private *at the source*, with no
//!   trusted aggregator or proxy.
//!
//! Randomized answers are split with XOR one-time pads across at least
//! two non-colluding proxies and re-joined at the aggregator, which
//! window-aggregates them, inverts the randomization, and reports
//! per-bucket estimates with confidence intervals.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | query model, buckets, bit vectors, budgets |
//! | [`stats`] | t/normal quantiles, Eq 2–4 estimators |
//! | [`sampling`] | client coin, stratified/reservoir sampling |
//! | [`rr`] | randomized response, privacy accounting, RAPPOR |
//! | [`crypto`] | XOR split encryption, ChaCha20, RSA/GM/Paillier |
//! | [`sql`] | the client-local SQL engine |
//! | [`stream`] | pub/sub broker, MID join, sliding-window folding |
//! | [`cluster`] | calibrated discrete-event cluster simulator |
//! | [`datasets`] | synthetic NYC-taxi / electricity workloads |
//! | [`core`] | clients, proxies, aggregator, analyst sessions |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for a complete end-to-end run; the
//! short version:
//!
//! ```
//! use privapprox::core::system::{System, SystemConfig};
//! use privapprox::types::{AnswerSpec, Budget};
//!
//! // Build an in-process deployment: 1000 clients, 2 proxies.
//! let mut system = System::builder()
//!     .clients(1000)
//!     .proxies(2)
//!     .seed(7)
//!     .build();
//!
//! // Every client holds one private speed reading.
//! system.load_numeric_column("vehicle", "speed", |i| (i % 120) as f64);
//!
//! // The analyst asks for the speed distribution, 12 buckets.
//! let query = system
//!     .analyst()
//!     .query("SELECT speed FROM vehicle")
//!     .buckets(AnswerSpec::ranges_with_overflow(0.0, 110.0, 11))
//!     .budget(Budget::default_accuracy())
//!     .submit()
//!     .expect("query accepted");
//!
//! // Run one epoch and read the windowed, privacy-preserving result.
//! let result = system.run_epoch(&query).expect("epoch ran");
//! assert_eq!(result.buckets.len(), 12);
//! ```

pub use privapprox_cluster as cluster;
pub use privapprox_core as core;
pub use privapprox_crypto as crypto;
pub use privapprox_datasets as datasets;
pub use privapprox_rr as rr;
pub use privapprox_sampling as sampling;
pub use privapprox_sql as sql;
pub use privapprox_stats as stats;
pub use privapprox_stream as stream;
pub use privapprox_types as types;
