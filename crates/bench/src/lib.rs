//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! Each experiment lives in [`experiments`] as a pure function from
//! parameters to a serializable result struct; the `src/bin/*`
//! binaries drive them and print paper-style tables, and `run_all`
//! regenerates everything into `results/*.json` plus a Markdown
//! summary. Criterion benches under `benches/` cover the
//! throughput-style measurements (Tables 2–3, Figure 5b).
//!
//! | paper artifact | module | binary |
//! |---|---|---|
//! | Table 1 | [`experiments::table1`] | `table1` |
//! | Table 2 | [`experiments::table2`] | `table2` |
//! | Table 3 | [`experiments::table3`] | `table3` |
//! | Figure 4a/b/c | [`experiments::fig4`] | `fig4` |
//! | Figure 5a/b/c | [`experiments::fig5`] | `fig5` |
//! | Figure 6 | [`experiments::fig6`] | `fig6` |
//! | Figure 7a/b/c | [`experiments::fig7`] | `fig7` |
//! | Figure 8a/b | [`experiments::fig8`] | `fig8` |
//! | Figure 9a/b | [`experiments::fig9`] | `fig9` |
//!
//! Code that only the experiments run lives here too, out of the
//! runtime crates:
//!
//! | group | files | modules |
//! |---|---|---|
//! | baselines — the schemes the paper compares against | `src/baselines/` | [`ubig`], [`prime`], [`rsa`], [`gm`], [`paillier`] (Table 2), [`rappor`] (Figure 5c), [`splitx`] (Figure 6) |
//! | sim — the calibrated cluster simulator standing in for the 44-node testbed | `src/sim/` | [`pool`], [`phases`] (Figures 6 and 8) |
//!
//! None of the baselines should be used for real-world
//! confidentiality; they are comparators reproducing published
//! measurements.

pub mod calibrate;
pub mod experiments;
pub mod report;

#[path = "baselines/gm.rs"]
pub mod gm;
#[path = "baselines/paillier.rs"]
pub mod paillier;
#[path = "baselines/prime.rs"]
pub mod prime;
#[path = "baselines/rappor.rs"]
pub mod rappor;
#[path = "baselines/rsa.rs"]
pub mod rsa;
#[path = "baselines/splitx.rs"]
pub mod splitx;
#[path = "baselines/ubig.rs"]
pub mod ubig;

#[path = "sim/phases.rs"]
pub mod phases;
#[path = "sim/pool.rs"]
pub mod pool;

pub use report::{save_json, Table};
