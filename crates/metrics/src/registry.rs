//! The thread-safe metric store.

use crate::json::{write_escaped, write_f64};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Aggregated wall-time statistics of one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Completed invocations.
    pub calls: u64,
    /// Sum of elapsed seconds over all invocations.
    pub total_secs: f64,
    /// Fastest invocation.
    pub min_secs: f64,
    /// Slowest invocation.
    pub max_secs: f64,
}

impl SpanStats {
    fn record(&mut self, secs: f64) {
        self.calls += 1;
        self.total_secs += secs;
        self.min_secs = self.min_secs.min(secs);
        self.max_secs = self.max_secs.max(secs);
    }

    fn new(secs: f64) -> Self {
        Self {
            calls: 1,
            total_secs: secs,
            min_secs: secs,
            max_secs: secs,
        }
    }
}

/// A fixed-bucket histogram. `bounds` are inclusive upper edges;
/// `counts` has one extra trailing slot for overflow observations.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper edge per bucket, ascending.
    pub bounds: Vec<f64>,
    /// Observations per bucket; `counts.len() == bounds.len() + 1`
    /// (the last slot counts values above every bound).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let n = bounds.len();
        Self {
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0.0,
        }
    }

    fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.count += 1;
        self.sum += value;
    }
}

/// A point-in-time copy of every metric in a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span statistics by `/`-separated path.
    pub spans: BTreeMap<String, SpanStats>,
}

/// Version stamp of the exported JSON document shape.
pub const SCHEMA_VERSION: u64 = 1;

/// Thread-safe metric registry.
///
/// All maps are `BTreeMap`s so snapshots and JSON exports are
/// deterministically ordered. The single mutex is deliberate: metric
/// writes in this workspace are per-chunk or per-stage (thousands per
/// run, not millions), so contention is negligible and the
/// implementation stays dependency-free.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Snapshot>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to a counter, creating it at zero first. Only a
    /// name's first write allocates its key.
    pub fn add_counter(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        match inner.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Current counter value (0 if never written).
    pub fn counter_value(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        match inner.gauges.get_mut(name) {
            Some(g) => *g = value,
            None => {
                inner.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Record one observation into a fixed-bucket histogram. The bounds
    /// are fixed on first use; later `bounds` arguments are ignored.
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        match inner.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = HistogramSnapshot::new(bounds);
                h.observe(value);
                inner.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Record one completed span invocation.
    pub fn record_span(&self, path: &str, secs: f64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        match inner.spans.get_mut(path) {
            Some(s) => s.record(secs),
            None => {
                inner.spans.insert(path.to_string(), SpanStats::new(secs));
            }
        }
    }

    /// Copy out every metric.
    pub fn snapshot(&self) -> Snapshot {
        self.inner
            .lock()
            .expect("metrics registry poisoned")
            .clone()
    }

    /// Export as pretty-printed JSON with deterministic key order.
    ///
    /// Document shape (see DESIGN.md §7 "Observability"):
    ///
    /// ```json
    /// {
    ///   "schema_version": 1,
    ///   "spans": { "<path>": { "calls": 1, "total_secs": 0.5,
    ///                          "min_secs": 0.5, "max_secs": 0.5 } },
    ///   "counters": { "<name>": 42 },
    ///   "gauges": { "<name>": 3.5 },
    ///   "histograms": { "<name>": { "bounds": [1.0], "counts": [2, 0],
    ///                               "count": 2, "sum": 1.5 } }
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");

        out.push_str("  \"spans\": {");
        for (i, (path, s)) in snap.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_escaped(&mut out, path);
            let _ = write!(out, ": {{\"calls\": {}, \"total_secs\": ", s.calls);
            write_f64(&mut out, s.total_secs);
            out.push_str(", \"min_secs\": ");
            write_f64(&mut out, s.min_secs);
            out.push_str(", \"max_secs\": ");
            write_f64(&mut out, s.max_secs);
            out.push('}');
        }
        out.push_str(if snap.spans.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"counters\": {");
        for (i, (name, v)) in snap.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_escaped(&mut out, name);
            let _ = write!(out, ": {v}");
        }
        out.push_str(if snap.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"gauges\": {");
        for (i, (name, v)) in snap.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_escaped(&mut out, name);
            out.push_str(": ");
            write_f64(&mut out, *v);
        }
        out.push_str(if snap.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in snap.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_escaped(&mut out, name);
            out.push_str(": {\"bounds\": [");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_f64(&mut out, *b);
            }
            out.push_str("], \"counts\": [");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(out, "], \"count\": {}, \"sum\": ", h.count);
            write_f64(&mut out, h.sum);
            out.push('}');
        }
        out.push_str(if snap.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });

        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.add_counter("a", 2);
        r.add_counter("a", 3);
        assert_eq!(r.counter_value("a"), 5);
        assert_eq!(r.counter_value("missing"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = Registry::new();
        r.set_gauge("g", 1.0);
        r.set_gauge("g", 7.5);
        assert_eq!(r.snapshot().gauges["g"], 7.5);
    }

    #[test]
    fn histogram_buckets_by_upper_edge() {
        let r = Registry::new();
        let bounds = [1.0, 5.0, 10.0];
        for v in [0.5, 1.0, 3.0, 10.0, 99.0] {
            r.observe("h", &bounds, v);
        }
        let h = &r.snapshot().histograms["h"];
        // <=1: {0.5, 1.0}; <=5: {3.0}; <=10: {10.0}; overflow: {99.0}.
        assert_eq!(h.counts, vec![2, 1, 1, 1]);
        assert_eq!(h.count, 5);
        assert!((h.sum - 113.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_bounds_sorted_and_deduped() {
        let r = Registry::new();
        r.observe("h", &[5.0, 1.0, 5.0, f64::NAN], 2.0);
        let h = &r.snapshot().histograms["h"];
        assert_eq!(h.bounds, vec![1.0, 5.0]);
        assert_eq!(h.counts.len(), 3);
    }

    #[test]
    fn span_stats_track_extremes() {
        let r = Registry::new();
        r.record_span("p", 2.0);
        r.record_span("p", 0.5);
        r.record_span("p", 1.0);
        let s = &r.snapshot().spans["p"];
        assert_eq!(s.calls, 3);
        assert!((s.total_secs - 3.5).abs() < 1e-9);
        assert_eq!(s.min_secs, 0.5);
        assert_eq!(s.max_secs, 2.0);
    }

    #[test]
    fn concurrent_writes_are_safe_and_exact() {
        use std::sync::Arc;
        let r = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    r.add_counter("n", 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter_value("n"), 8000);
    }

    #[test]
    fn empty_registry_exports_valid_shape() {
        let json = Registry::new().to_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"spans\": {}"));
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"gauges\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }

    #[test]
    fn export_is_deterministically_ordered() {
        let build = || {
            let r = Registry::new();
            r.add_counter("zeta", 1);
            r.add_counter("alpha", 2);
            r.set_gauge("mid", 0.5);
            r.record_span("a/b", 1.0);
            r.to_json()
        };
        assert_eq!(build(), build());
        let json = build();
        assert!(json.find("\"alpha\"").unwrap() < json.find("\"zeta\"").unwrap());
    }
}
