//! End-to-end observability: a metrics-enabled pipeline run must export
//! JSON that (a) passes the shared DESIGN.md §7 schema validator and
//! (b) carries the per-stage spans, throughput gauges, Hawkes EM
//! counters, and degradation counters the acceptance criteria promise.

use origins_of_memes::core::pipeline::{Pipeline, PipelineConfig};
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::hawkes::InfluenceEstimator;
use origins_of_memes::metrics::{Metrics, Registry};
use origins_of_memes::observability::validate_metrics_json;
use origins_of_memes::simweb::{Community, SimConfig};
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
    let estimator = InfluenceEstimator::new(Community::COUNT, 3.0);
    output
        .estimate_influence(&dataset, &estimator, 0, &metrics)
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
