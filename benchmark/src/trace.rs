//! The traced run's span store.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer: name, start, end, the span that caused it, and the
//! repetition it belongs to. Counts are taken at the same boundaries.
//! Everything stays in memory until [`Trace::write`] at exit. A span's
//! self time is its duration minus the part of it its children cover.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Trace`].
pub type SpanId = usize;

/// One recorded interval. Times are nanoseconds since the trace began.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub repetition: u32,
}

/// Per-name totals derived from the span list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory trace of one traced run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<SpanRecord>,
    counts: BTreeMap<String, f64>,
}

/// What [`Trace::write`] puts on disk.
#[derive(Debug, Serialize, Deserialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    /// Per-name call count, total and self time.
    totals: BTreeMap<String, SpanTotals>,
    /// Counts and program-side numbers taken at the span boundaries.
    counts: BTreeMap<String, f64>,
    spans: Vec<SpanRecord>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// The instant the trace's clock started; client threads stamp against it.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the trace began.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>, repetition: u32) -> SpanId {
        let now = self.now_ns();
        self.record(name, now, now, parent, repetition)
    }

    /// Close a span opened with [`Trace::begin`]; returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now.max(span.start_ns);
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Record a span whose bounds were measured elsewhere (client threads
    /// time their own requests and hand the timestamps over afterwards).
    pub fn record(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        repetition: u32,
    ) -> SpanId {
        self.spans.push(SpanRecord {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            repetition,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span and return its result with the elapsed seconds.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        repetition: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, repetition);
        let out = f();
        let secs = self.end(id);
        (out, secs)
    }

    /// Set a count taken at a span boundary (last write wins).
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.insert(name.to_string(), value);
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, clipped to the span itself.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
                let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
                children[p].push((start, end));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Calls, total time and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let t = out.entry(s.name.clone()).or_insert(SpanTotals {
                calls: 0,
                total_ns: 0,
                self_ns: 0,
            });
            t.calls += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// Write the whole trace as JSON.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let file = TraceFile {
            workload: workload.to_string(),
            seed,
            totals: self.totals(),
            counts: self.counts.clone(),
            spans: self.spans.clone(),
        };
        let json = serde_json::to_string(&file).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root 0..100; a 10..40; b 30..60 (overlaps a); c 80..120 (runs past
    /// root); a1 15..25 inside a.
    fn hand_built() -> Trace {
        let mut t = Trace::new();
        let root = t.record("root", 0, 100, None, 0);
        let a = t.record("a", 10, 40, Some(root), 0);
        t.record("b", 30, 60, Some(root), 0);
        t.record("c", 80, 120, Some(root), 0);
        t.record("a1", 15, 25, Some(a), 0);
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = hand_built();
        // children cover 10..60 (union of a and b) and 80..100 (c clipped).
        assert_eq!(t.self_times_ns(), vec![100 - 50 - 20, 30 - 10, 30, 40, 10]);
    }

    #[test]
    fn totals_group_by_name() {
        let mut t = hand_built();
        t.record("a", 200, 210, None, 1);
        let totals = t.totals();
        assert_eq!(
            totals["a"],
            SpanTotals {
                calls: 2,
                total_ns: 40,
                self_ns: 30
            }
        );
        assert_eq!(totals["root"].self_ns, 30);
    }

    #[test]
    fn begin_end_nest_and_measure() {
        let mut t = Trace::new();
        let (_, outer) = t.time("outer", None, 3, || std::hint::black_box(1 + 1));
        assert!(outer >= 0.0);
        let id = t.begin("x", Some(0), 3);
        assert!(t.end(id) >= 0.0);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].repetition, 3);
        assert!(t.spans()[1].end_ns >= t.spans()[1].start_ns);
    }

    #[test]
    fn trace_file_round_trips() {
        let mut t = hand_built();
        t.count("requests", 12.0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        t.write(&path, "run-sparse", 7).unwrap();
        let back: TraceFile =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.workload, "run-sparse");
        assert_eq!(back.spans, t.spans());
        assert_eq!(back.counts["requests"], 12.0);
        assert_eq!(back.totals["root"].self_ns, 30);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
