//! Observability substrate for the meme pipeline.
//!
//! Morina & Bernstein's web-scale re-measurement of the paper and
//! MemeSequencer both treat matching/clustering throughput as a
//! first-class metric; this crate is the workspace's version of that
//! discipline. It is deliberately **offline and dependency-free**: a
//! thread-safe [`Registry`] of
//!
//! * **spans** — wall-time timers with hierarchical `/`-separated paths
//!   (`pipeline/hash`), aggregated as call-count / total / min / max;
//! * **counters** — monotonic `u64` event counts (images hashed,
//!   neighbor queries, EM iterations, degradations);
//! * **gauges** — last-write-wins `f64` readings (throughput,
//!   log-likelihoods);
//! * **histograms** — fixed-bucket distributions (EM iterations per
//!   cluster).
//!
//! Everything exports as deterministic, schema-stable JSON
//! ([`Registry::to_json`]; the schema is documented in DESIGN.md §7
//! "Observability" and validated by `memes validate-metrics`).
//!
//! The [`Metrics`] handle wraps an `Option<Arc<Registry>>` so
//! instrumented code pays a single branch when metrics are disabled —
//! hot paths never need `#[cfg]`s or separate uninstrumented twins.
//!
//! ```
//! use meme_metrics::Metrics;
//!
//! let metrics = Metrics::enabled();
//! let span = metrics.span("pipeline");
//! {
//!     let stage = span.child("hash");
//!     metrics.add("hash.images", 420);
//!     stage.finish();
//! }
//! span.finish();
//! let json = metrics.to_json().unwrap();
//! assert!(json.contains("\"pipeline/hash\""));
//! assert!(json.contains("\"hash.images\": 420"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod json;
mod registry;
mod span;

pub use clock::Deadline;
pub use registry::{HistogramSnapshot, Registry, Snapshot, SpanStats, SCHEMA_VERSION};
pub use span::Span;

use std::sync::Arc;

/// Bucket upper bounds for iteration-count style histograms (EM sweeps,
/// training epochs): roughly logarithmic, final bucket is overflow.
pub const ITERATION_BUCKETS: [f64; 9] = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0];

/// Bucket upper bounds for serving-path latencies in **microseconds**:
/// sub-millisecond resolution where in-memory lookups live, coarse
/// tail buckets for scheduling hiccups, final bucket is overflow.
pub const LATENCY_BUCKETS_US: [f64; 12] = [
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 50_000.0, 250_000.0,
];

/// A cheaply cloneable handle to an optional [`Registry`].
///
/// Disabled handles make every operation a no-op (spans still measure
/// elapsed time, so callers can compute throughput regardless), which
/// lets library code take a `&Metrics` unconditionally.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Option<Arc<Registry>>);

impl Metrics {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// A handle backed by a fresh registry.
    pub fn enabled() -> Self {
        Self(Some(Arc::new(Registry::new())))
    }

    /// Wrap an existing (possibly shared) registry.
    pub fn from_registry(registry: Arc<Registry>) -> Self {
        Self(Some(registry))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The backing registry, when enabled.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.0.as_ref()
    }

    /// Add `delta` to the named monotonic counter.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(r) = &self.0 {
            r.add_counter(name, delta);
        }
    }

    /// Increment the named counter by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Set the named gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(r) = &self.0 {
            r.set_gauge(name, value);
        }
    }

    /// Record `value` into the named fixed-bucket histogram. The bucket
    /// bounds are fixed by the first observation; later calls may pass
    /// the same `bounds` (or an empty slice) — they are not re-read.
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        if let Some(r) = &self.0 {
            r.observe(name, bounds, value);
        }
    }

    /// Current value of a counter (0 when disabled or never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.0.as_ref().map_or(0, |r| r.counter_value(name))
    }

    /// Start a span at `path`. Time is measured even when disabled (the
    /// returned guard's `finish` reports elapsed seconds); recording, and
    /// the copy of `path` it needs, happen only when enabled.
    pub fn span(&self, path: &str) -> Span {
        Span::start(self.0.as_ref().map(|r| (Arc::clone(r), path.to_string())))
    }

    /// Export the registry as JSON; `None` when disabled.
    pub fn to_json(&self) -> Option<String> {
        self.0.as_ref().map(|r| r.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let m = Metrics::disabled();
        m.inc("x");
        m.gauge("g", 1.0);
        m.observe("h", &[1.0], 0.5);
        let span = m.span("s");
        assert!(span.finish() >= 0.0);
        assert_eq!(m.counter("x"), 0);
        assert!(m.to_json().is_none());
        assert!(!m.is_enabled());
    }

    #[test]
    fn enabled_handle_records() {
        let m = Metrics::enabled();
        m.inc("jobs");
        m.add("jobs", 2);
        m.gauge("speed", 4.5);
        m.observe("iters", &ITERATION_BUCKETS, 3.0);
        assert_eq!(m.counter("jobs"), 3);
        let snap = m.registry().unwrap().snapshot();
        assert_eq!(snap.counters["jobs"], 3);
        assert_eq!(snap.gauges["speed"], 4.5);
        assert_eq!(snap.histograms["iters"].count, 1);
    }

    #[test]
    fn clones_share_the_registry() {
        let a = Metrics::enabled();
        let b = a.clone();
        a.inc("shared");
        b.inc("shared");
        assert_eq!(a.counter("shared"), 2);
    }

    #[test]
    fn spans_nest_by_path() {
        let m = Metrics::enabled();
        let parent = m.span("run");
        let child = parent.child("stage");
        child.finish();
        parent.finish();
        let snap = m.registry().unwrap().snapshot();
        assert!(snap.spans.contains_key("run"));
        assert!(snap.spans.contains_key("run/stage"));
        assert_eq!(snap.spans["run"].calls, 1);
    }
}
