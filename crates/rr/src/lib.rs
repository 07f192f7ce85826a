//! Randomized response and privacy accounting (paper §3.2.2, §4).
//!
//! Clients that pass the sampling coin perturb their answers with the
//! classic two-coin randomized response mechanism: with probability
//! `p` answer truthfully; otherwise answer "Yes" with probability `q`
//! and "No" with `1 − q`. The aggregate is inverted with Equation 5,
//! the utility loss is Equation 6, and the mechanism is
//! `ε`-differentially private with `ε = ln((p+(1−p)q)/((1−p)q))`
//! (Equation 8). Combined with client-side sampling the guarantee
//! tightens (amplification by sampling) and, per the paper's §4,
//! becomes zero-knowledge privacy.
//!
//! Modules:
//!
//! * [`randomize`] — the client-side mechanism over single bits and
//!   `A[n]` bit-vectors;
//! * [`estimate`] — Equations 5 and 6 plus bucket-count inversion with
//!   confidence bounds;
//! * [`privacy`] — ε accounting: Eq 8, the sampled amplification
//!   bound, and the zero-knowledge reconstruction (see DESIGN.md §1
//!   for the Eq 19 substitution note);
//! * [`inversion`] — the query-inversion mechanism of §3.3.2;
//! * [`rng`] — the bulk random-word subsystem: an 8-lane interleaved
//!   xoshiro256++ ([`rng::WideRng`]) with an AVX2 kernel behind
//!   runtime detection and a byte-identical portable fallback,
//!   feeding the sampler through pre-filled word buffers.
//!
//! # Hot-path conventions
//!
//! [`randomize::Randomizer::randomize_vec_into`] and
//! [`estimate::BucketEstimator`] follow the workspace's caller-owned
//! buffer discipline: `randomize_vec_into` writes into a caller-kept
//! `BitVec` (resizing only on width changes), and an estimator can be
//! [`estimate::BucketEstimator::reset`] in place so pools can recycle
//! it across window opens instead of re-allocating its count vector.
//! Both are what the zero-allocation steady-state proof in
//! `privapprox-core` leans on.

pub mod estimate;
pub mod inversion;
pub mod privacy;
pub mod randomize;
pub mod rng;

pub use estimate::{accuracy_loss, estimate_true_yes, BucketEstimator};
pub use inversion::{should_invert, InvertibleCount};
pub use privacy::{
    epsilon_dp_sampled, epsilon_rr, epsilon_rr_strict, epsilon_zk, p_for_epsilon, s_for_epsilon_zk,
    PrivacyReport,
};
pub use randomize::{RandomizeScratch, Randomizer};
pub use rng::WideRng;
