//! Chaos suite: the pipeline must *complete with degradation records*,
//! never panic, under deterministic fault injection.
//!
//! Every test generates a clean Tiny dataset, corrupts it with one
//! [`FaultSpec`] preset, and drives the full Fig. 2 pipeline (plus
//! Step-7 robust influence where relevant). The assertions are about
//! graceful degradation: runs finish, fallbacks are *recorded*, and
//! clean parts of the data stay analyzable.

use origins_of_memes::core::pipeline::{
    Degradation, Pipeline, PipelineConfig, PipelineOutput, ScreenshotFilterMode, FIT_BETA,
};
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::hawkes::HawkesError;
use origins_of_memes::metrics::{Metrics, Registry};
use origins_of_memes::simweb::{Dataset, FaultSpec, SimConfig};
use std::sync::Arc;

/// Generate, corrupt, run. Panics (failing the test) if the pipeline
/// does not complete.
fn run_corrupted(spec: FaultSpec) -> (Dataset, PipelineOutput) {
    let mut dataset = SimConfig::tiny(31).generate();
    let report = spec.apply(&mut dataset);
    assert!(report.any(), "preset corrupted nothing");
    let out = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .run(&dataset)
        .expect("pipeline completes under corruption")
        .expect_complete();
    (dataset, out)
}

fn robust_influence(dataset: &Dataset, out: &PipelineOutput) -> Vec<Degradation> {
    let (_, degradations) = out
        .estimate_influence(dataset, FIT_BETA, &Metrics::disabled())
        .expect("pipeline-produced cluster ids are in range");
    degradations
}

#[test]
fn chaos_nan_storm_skips_poisoned_clusters() {
    let (dataset, out) = run_corrupted(FaultSpec::nan_storm(1));
    // Steps 1–6 are timestamp-agnostic and must finish clean.
    assert_eq!(out.occurrences.len(), dataset.posts.len());
    // Step 7: clusters whose event stream caught a NaN are skipped and
    // recorded, not fatal.
    let degradations = robust_influence(&dataset, &out);
    assert!(
        degradations
            .iter()
            .any(|d| matches!(d, Degradation::HawkesClusterSkipped { .. })),
        "no skips recorded: {degradations:?}"
    );
    // The estimator names each poisoned stream with a typed error.
    let invalid = HawkesError::InvalidEvents(String::new()).to_string();
    assert!(
        degradations.iter().any(|d| matches!(
            d,
            Degradation::HawkesClusterSkipped { reason, .. } if reason.starts_with(&invalid)
        )),
        "no typed skip: {degradations:?}"
    );
}

/// Duplicate-hash collapsing (DESIGN.md §10) builds the cluster index
/// over *unique* hashes, so a flood of identical hashes is absorbed
/// upstream of the index: the hashes collapse, the cluster index stays
/// on MIH, and the run is a full run.
fn assert_flood_absorbed(spec: FaultSpec) {
    let mut dataset = SimConfig::tiny(31).generate();
    let report = spec.apply(&mut dataset);
    assert!(report.any(), "preset corrupted nothing");
    let registry = Arc::new(Registry::new());
    let out = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .with_metrics(Metrics::from_registry(Arc::clone(&registry)))
        .run(&dataset)
        .expect("pipeline completes under corruption")
        .expect_complete();
    let snap = registry.snapshot();
    assert!(
        snap.counters.get("index.engine.mih").copied().unwrap_or(0) >= 1,
        "cluster index should stay on MIH: {:?}",
        snap.counters
    );
    let collapse = snap.gauges["cluster.dedup_collapse_ratio"];
    assert!(
        collapse < 1.0,
        "a flood must collapse hashes (ratio {collapse})"
    );
    assert_eq!(out.occurrences.len(), dataset.posts.len());
    robust_influence(&dataset, &out);
}

#[test]
fn chaos_duplicate_flood_is_absorbed_by_dedup() {
    assert_flood_absorbed(FaultSpec::duplicate_flood(2));
}

#[test]
fn chaos_blank_flood_is_absorbed_by_dedup() {
    // All-zero pHashes collapse to a single unique hash.
    assert_flood_absorbed(FaultSpec::blank_flood(3));
}

#[test]
fn chaos_gallery_wipe_still_annotates_or_degrades_gracefully() {
    let (dataset, out) = run_corrupted(FaultSpec::gallery_wipe(4));
    // Wiping most galleries shrinks annotation coverage but must not
    // break the association step (an empty index matches nothing).
    assert_eq!(out.annotations.len(), out.clustering.n_clusters());
    assert_eq!(out.occurrences.len(), dataset.posts.len());
    robust_influence(&dataset, &out);
}

#[test]
fn chaos_score_garbage_is_harmless_to_the_image_pipeline() {
    let (dataset, out) = run_corrupted(FaultSpec::score_garbage(5));
    assert_eq!(out.post_hashes.len(), dataset.posts.len());
    assert!(out.clustering.n_clusters() > 0);
    robust_influence(&dataset, &out);
}

#[test]
fn chaos_cascade_starvation_completes() {
    let (dataset, out) = run_corrupted(FaultSpec::cascade_starvation(6));
    assert_eq!(out.post_hashes.len(), dataset.posts.len());
    // Single-event cascades are fittable or skipped — never fatal.
    robust_influence(&dataset, &out);
}

#[test]
fn chaos_time_crunch_completes() {
    let (dataset, out) = run_corrupted(FaultSpec::time_crunch(7));
    assert_eq!(out.occurrences.len(), dataset.posts.len());
    // Near-critical timing may or may not converge per cluster; both
    // outcomes must be recorded, not fatal.
    robust_influence(&dataset, &out);
}

#[test]
fn chaos_cnn_divergence_falls_back_to_oracle() {
    let dataset = SimConfig::tiny(32).generate();
    let mut config = PipelineConfig::fast();
    let train = origins_of_memes::annotate::TrainConfig {
        epochs: 1,
        batch_size: 16,
        learning_rate: f32::NAN, // every attempt diverges
        ..Default::default()
    };
    config.screenshot_filter = ScreenshotFilterMode::Train {
        corpus_scale: 0.004,
        config: train,
    };
    let out = SupervisedRunner::new(Pipeline::new(config))
        .run(&dataset)
        .expect("fallback completes")
        .expect_complete();
    let fell_back = out.degradations.iter().any(
        |d| matches!(d, Degradation::ScreenshotFilterFellBack { attempts, .. } if *attempts >= 2),
    );
    assert!(
        fell_back,
        "no filter fallback recorded: {:?}",
        out.degradations
    );
    // Oracle fallback means no trained-classifier metrics…
    assert!(out.screenshot_metrics.is_none());
    // …but screenshots still get filtered (oracle ground truth).
    assert!(out.annotations.len() == out.clustering.n_clusters());
}

#[test]
fn chaos_degradations_survive_serialization() {
    // Duplicate floods are absorbed by dedup these days, so provoke a
    // degradation that still occurs: a screenshot filter that diverges
    // on every training attempt and falls back to the oracle.
    let dataset = SimConfig::tiny(8).generate();
    let mut config = PipelineConfig::fast();
    let train = origins_of_memes::annotate::TrainConfig {
        epochs: 1,
        batch_size: 16,
        learning_rate: f32::NAN,
        ..Default::default()
    };
    config.screenshot_filter = ScreenshotFilterMode::Train {
        corpus_scale: 0.004,
        config: train,
    };
    let out = SupervisedRunner::new(Pipeline::new(config))
        .run(&dataset)
        .expect("fallback completes")
        .expect_complete();
    assert!(!out.degradations.is_empty());
    let back = PipelineOutput::from_json(&out.to_json()).expect("roundtrip");
    assert_eq!(back.degradations, out.degradations);
}
