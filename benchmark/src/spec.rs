//! What the benchmark measures: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `/BENCHMARK.json` is this
//! file rendered by the `spec` subcommand; a test keeps the two equal.

use serde::Value;

/// How long one run measures, and the `--seconds` default.
pub const RUN_SECONDS: u64 = 20;

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    RunSparse,
    ReanalyzeDense,
    ServeSteady,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RunSparse,
        Workload::ReanalyzeDense,
        Workload::ServeSteady,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RunSparse => "run-sparse",
            Workload::ReanalyzeDense => "reanalyze-dense",
            Workload::ServeSteady => "serve-steady",
            Workload::ServeChurn => "serve-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (README has the long form).
    pub fn why(self) -> &'static str {
        match self {
            Workload::RunSparse => {
                "full `memes run` on a paper-shaped corpus (76% one-offs): Step 1 render+pHash is most of the wall, Steps 2-7 a small share"
            }
            Workload::ReanalyzeDense => {
                "`memes resume` from a post-hash checkpoint on a duplicate-heavy corpus: Step 1 bypassed, so index, DBSCAN, Hawkes EM and the checkpoint codec do all the work"
            }
            Workload::ServeSteady => {
                "closed loop over nproc persistent connections: only the per-request hop chain read-parse-queue-lookup-render-write is measured"
            }
            Workload::ServeChurn => {
                "connect, 8 lookups, close: accept, ConnRegistry admit, reader-thread spawn and reap/join, which steady lookups never touch"
            }
        }
    }

    /// What one operation is, for `ops_per_s` and the latency metrics.
    pub fn operation(self) -> &'static str {
        match self {
            Workload::RunSparse => "one full run (Steps 1-7 + to_json)",
            Workload::ReanalyzeDense => {
                "one resume from the post-hash checkpoint (Steps 2-7 + to_json)"
            }
            Workload::ServeSteady => "one lookup round trip",
            Workload::ServeChurn => "one session (connect, 8 lookups, close)",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: every workload reports every one of these.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const OP_P50_MS: &str = "op_p50_ms";
pub const OP_TAIL_MS: &str = "op_tail_ms";
pub const OPS_PER_S: &str = "ops_per_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// Bounds sit outside the spreads measured over ten seeds per workload
/// (README, "Measured spreads"); one bound serves all four workloads, so
/// the least steady workload sets it.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: OP_P50_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: OP_TAIL_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: OPS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric, reported by the traced run. Layers are crates; the
/// name's prefix is the crate.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 63] = [
    layer("simweb.generate_s", "s", Lower),
    layer("simweb.cache_build_s", "s", Lower),
    layer("simweb.render_oneoff_us", "us", Lower),
    layer("simweb.render_variant_us", "us", Lower),
    layer("simweb.render_cache_hit_ratio", "ratio", Higher),
    layer("imaging.resize_us", "us", Lower),
    layer("imaging.dct_us", "us", Lower),
    layer("phash.hash_us", "us", Lower),
    layer("phash.images", "count", Higher),
    layer("index.group_s", "s", Lower),
    layer("index.build_s", "s", Lower),
    layer("index.neighbors_s", "s", Lower),
    layer("index.collapse_ratio", "ratio", Higher),
    layer("index.candidates_per_query", "count", Lower),
    layer("index.verify_ratio", "ratio", Higher),
    layer("index.query_ns", "ns", Lower),
    layer("cluster.dbscan_s", "s", Lower),
    layer("cluster.medoids_s", "s", Lower),
    layer("cluster.clusters", "count", Higher),
    layer("cluster.noise_ratio", "ratio", Lower),
    layer("annotate.annotate_s", "s", Lower),
    layer("annotate.annotated_ratio", "ratio", Higher),
    layer("hawkes.estimate_s", "s", Lower),
    layer("hawkes.em_iterations", "count", Lower),
    layer("hawkes.clusters_fitted", "count", Higher),
    layer("hawkes.clusters_skipped", "count", Lower),
    layer("core.stage_hash_s", "s", Lower),
    layer("core.stage_cluster_s", "s", Lower),
    layer("core.stage_site_s", "s", Lower),
    layer("core.stage_annotate_s", "s", Lower),
    layer("core.stage_associate_s", "s", Lower),
    layer("core.influence_s", "s", Lower),
    layer("core.to_json_s", "s", Lower),
    layer("core.stage_coverage_ratio", "ratio", Higher),
    layer("core.output_bytes", "bytes", Lower),
    layer("core.ckpt_encode_s", "s", Lower),
    layer("core.ckpt_decode_s", "s", Lower),
    layer("core.ckpt_bytes", "bytes", Lower),
    layer("core.hash_parallel_efficiency", "ratio", Higher),
    layer("core.retries", "count", Lower),
    layer("core.quarantined", "count", Lower),
    layer("metrics.inc_ns", "ns", Lower),
    layer("metrics.span_ns", "ns", Lower),
    layer("metrics.trace_overhead_ratio", "ratio", Lower),
    layer("serve.load_output_ms", "ms", Lower),
    layer("serve.snapshot_build_ms", "ms", Lower),
    layer("serve.ready_ms", "ms", Lower),
    layer("serve.parse_ns", "ns", Lower),
    layer("serve.lookup_hit_ns", "ns", Lower),
    layer("serve.lookup_miss_ns", "ns", Lower),
    layer("serve.render_hit_ns", "ns", Lower),
    layer("serve.queue_handoff_ns", "ns", Lower),
    layer("serve.query_span_us", "us", Lower),
    layer("serve.batch_size_mean", "count", Lower),
    layer("serve.transport_us", "us", Lower),
    layer("serve.cpu_us_per_query", "us", Lower),
    layer("serve.hit_ratio", "ratio", Higher),
    layer("serve.rtt_p99_us", "us", Lower),
    layer("serve.rtt_p999_us", "us", Lower),
    layer("serve.session_overhead_us", "us", Lower),
    layer("serve.reload_ms", "ms", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.timeouts", "count", Lower),
];

/// The program and arguments the driver runs, from the root of a checkout.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// `/BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let doc = obj(vec![
        (
            "command",
            Value::Array(COMMAND.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                Workload::ALL
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name())), ("why", text(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.word())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut json = serde_json::to_string_pretty(&doc).expect("a value tree always serializes");
    json.push('\n');
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let head_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        head_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert!(seen.insert(w.name()), "{} used twice", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(Workload::parse("nope").is_none());
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == SETUP_S)
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn per_layer_names_are_prefixed_by_a_crate() {
        let layers = [
            "simweb", "imaging", "phash", "index", "cluster", "annotate", "hawkes", "core",
            "metrics", "serve",
        ];
        for m in PER_LAYER {
            let prefix = m.name.split('.').next().unwrap_or("");
            assert!(layers.contains(&prefix), "{}", m.name);
        }
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with the `spec` subcommand"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
