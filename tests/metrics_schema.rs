//! End-to-end observability: a metrics-enabled pipeline run must export
//! JSON that (a) passes the shared DESIGN.md §7 schema validator and
//! (b) carries the per-stage spans, throughput gauges, Hawkes EM
//! counters and fit-quality histogram, and degradation counters the
//! acceptance criteria promise.

use origins_of_memes::core::checkpoint::{prev_checkpoint_path, StageId};
use origins_of_memes::core::pipeline::{Pipeline, PipelineConfig, FIT_BETA, WORST_FITS};
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::metrics::{Metrics, Registry};
use origins_of_memes::observability::validate_metrics_json;
use origins_of_memes::simweb::SimConfig;
use std::sync::Arc;

#[test]
fn metrics_export_passes_schema_validation_and_covers_the_run() {
    let dataset = SimConfig::tiny(7).generate();
    let registry = Arc::new(Registry::new());
    let metrics = Metrics::from_registry(Arc::clone(&registry));
    let output = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .with_metrics(metrics.clone())
        .run(&dataset)
        .unwrap()
        .expect_complete();
    output
        .estimate_influence(&dataset, FIT_BETA, &metrics)
        .unwrap();

    let json = registry.to_json();
    validate_metrics_json(&json).unwrap();

    // The acceptance surface: one schema-documented export with stage
    // wall time, throughput, EM iterations, and degradation visibility.
    let snap = registry.snapshot();
    for span in [
        "pipeline",
        "pipeline/hash",
        "pipeline/cluster",
        "pipeline/site",
        "pipeline/annotate",
        "pipeline/associate",
        "pipeline/influence",
    ] {
        let s = &snap.spans[span];
        assert_eq!(s.calls, 1, "{span}");
        assert!(s.total_secs >= 0.0, "{span}");
    }
    assert_eq!(snap.counters["hash.images"], dataset.posts.len() as u64);
    assert!(snap.gauges["hash.images_per_sec"] > 0.0);
    assert!(snap.counters["hawkes.em_iterations_total"] > 0);
    assert_eq!(
        snap.counters["hawkes.clusters_fitted"] + snap.counters["hawkes.clusters_skipped"],
        snap.counters["hawkes.clusters_total"]
    );
    let em = &snap.histograms["hawkes.em_iterations"];
    assert_eq!(em.count, snap.counters["hawkes.clusters_fitted"]);
    // Per-cluster fit quality is one histogram plus the worst few by
    // name: the set of metric names does not grow with the clusters.
    let ll = &snap.histograms["hawkes.log_likelihood_per_event"];
    assert_eq!(ll.count, snap.counters["hawkes.clusters_fitted"]);
    assert!(!snap.gauges.keys().any(|k| k.starts_with("hawkes.cluster.")));
    let named = snap
        .gauges
        .keys()
        .filter(|k| k.starts_with("hawkes.worst_fit."))
        .count() as u64;
    assert_eq!(
        named,
        2 * snap.counters["hawkes.clusters_fitted"].min(WORST_FITS as u64)
    );
    let worst =
        |rank: usize| snap.gauges[&format!("hawkes.worst_fit.{rank}.log_likelihood_per_event")];
    assert!(worst(0) <= worst(1), "worst first");
}

#[test]
fn disabled_metrics_change_nothing_and_export_nothing() {
    let dataset = SimConfig::tiny(8).generate();
    let plain = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .run(&dataset)
        .unwrap()
        .expect_complete();

    let registry = Arc::new(Registry::new());
    let instrumented = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .with_metrics(Metrics::from_registry(Arc::clone(&registry)))
        .run(&dataset)
        .unwrap()
        .expect_complete();
    // Observability must be read-only: identical output either way.
    assert_eq!(plain.to_json(), instrumented.to_json());

    // And a disabled handle records nothing.
    let m = Metrics::disabled();
    m.inc("x");
    m.span("y").finish();
    assert!(m.to_json().is_none());
}

#[test]
fn the_checkpoint_layer_has_its_own_spans_and_byte_counter() {
    // A resume from the post-hash checkpoint: one load, then one
    // persist per stage it runs, each attributed to its own span.
    let dataset = SimConfig::tiny(7).generate();
    let pipeline = Pipeline::new(PipelineConfig::fast());
    let path =
        std::env::temp_dir().join(format!("memes-metrics-schema-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_checkpoint_path(&path));
    SupervisedRunner::new(pipeline.clone())
        .with_checkpoint(&path)
        .halt_after(StageId::Hash)
        .run(&dataset)
        .unwrap();
    let post_hash_bytes = std::fs::metadata(&path).unwrap().len();

    let registry = Arc::new(Registry::new());
    SupervisedRunner::new(pipeline)
        .with_metrics(Metrics::from_registry(Arc::clone(&registry)))
        .with_checkpoint(&path)
        .resume(&dataset)
        .unwrap()
        .expect_complete();
    validate_metrics_json(&registry.to_json()).unwrap();
    let snap = registry.snapshot();
    assert_eq!(snap.spans["pipeline/checkpoint_load"].calls, 1);
    assert_eq!(snap.spans["pipeline/persist"].calls, 3);
    assert_eq!(snap.counters["checkpoint.writes"], 3);
    // Every generation holds at least the post-hash sections, and the
    // last one is the file left on disk.
    let last = std::fs::metadata(&path).unwrap().len();
    let written = snap.counters["checkpoint.bytes_written"];
    assert!(written > 2 * post_hash_bytes + last, "{written}");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_checkpoint_path(&path));
}
