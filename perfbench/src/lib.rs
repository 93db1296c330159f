//! The hybrid-cc benchmark: one seeded, closed-loop driver with three
//! workloads, end-to-end metrics from untraced runs and per-layer
//! metrics from traced ones. Every number comes from outside the
//! program: calls into each crate's public API, timed here, and deltas
//! of the `hcc-obs` registries. See `perfbench/README.md`.

pub mod env;
pub mod json;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
