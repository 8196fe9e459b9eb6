//! The repository's benchmark: four workloads (`run-sparse`,
//! `reanalyze-dense`, `serve-steady`, `serve-churn`), end-to-end metrics
//! measured with tracing off, and a traced run that gives per-layer numbers.
//! `main.rs` is the command line; README.md explains what is measured and why.

pub mod adapter;
pub mod batch;
pub mod compare;
pub mod driver;
pub mod options;
pub mod probes;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod util;
