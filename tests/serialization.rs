//! Persistence: datasets and pipeline runs round-trip through JSON, so
//! the expensive hashing step can be done once and analyzed many times
//! (the paper's batch/one-time split, §3.3).

use origins_of_memes::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::simweb::{Dataset, SimConfig};

#[test]
fn dataset_roundtrips_through_json() {
    let dataset = SimConfig::tiny(5).generate();
    let json = serde_json::to_string(&dataset).expect("dataset serializes");
    let back: Dataset = serde_json::from_str(&json).expect("dataset deserializes");
    assert_eq!(back.posts, dataset.posts);
    assert_eq!(back.daily_totals, dataset.daily_totals);
    assert_eq!(back.kym_raw, dataset.kym_raw);
    assert_eq!(back.universe, dataset.universe);
    // A restored dataset renders identical images.
    let post = &dataset.posts[0];
    assert_eq!(
        back.render_post_image(post),
        dataset.render_post_image(post)
    );
}

#[test]
fn pipeline_output_roundtrips_and_stays_analyzable() {
    let dataset = SimConfig::tiny(5).generate();
    let output = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .run(&dataset)
        .expect("pipeline runs")
        .expect_complete();
    let json = output.to_json();
    let back = PipelineOutput::from_json(&json).expect("output deserializes");
    assert_eq!(back.post_hashes, output.post_hashes);
    assert_eq!(back.occurrences, output.occurrences);
    assert_eq!(back.annotations, output.annotations);
    assert_eq!(back.annotated_clusters(), output.annotated_clusters());
    // Step-7 analysis works on the restored run.
    let restored_events = back.try_all_cluster_events(&dataset).unwrap();
    let original_events = output.try_all_cluster_events(&dataset).unwrap();
    assert_eq!(restored_events, original_events);
}

#[test]
fn corrupt_json_is_rejected() {
    assert!(PipelineOutput::from_json("{\"not\": \"a run\"}").is_err());
    assert!(PipelineOutput::from_json("").is_err());
}

#[test]
fn checkpoints_roundtrip_preserving_stage_equality() {
    use origins_of_memes::core::checkpoint::{
        decode_checkpoint, encode_checkpoint, prev_checkpoint_path, RunnerOutcome, StageId,
    };
    let dataset = SimConfig::tiny(5).generate();
    let pipeline = Pipeline::new(PipelineConfig::fast());
    let mut path = std::env::temp_dir();
    path.push(format!(
        "memes-serialization-ckpt-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_checkpoint_path(&path));
    let run = SupervisedRunner::new(pipeline.clone())
        .with_checkpoint(&path)
        .halt_after(StageId::Cluster)
        .run(&dataset)
        .expect("runner halts cleanly");
    assert!(matches!(
        run.outcome,
        RunnerOutcome::Halted {
            after: StageId::Cluster
        }
    ));

    // On-disk checkpoints carry the integrity envelope (DESIGN.md §11);
    // decode_checkpoint verifies it before handing back the payload.
    let saved = std::fs::read(&path).expect("checkpoint written");
    let ckpt = decode_checkpoint(&saved).expect("checkpoint decodes");
    assert_eq!(
        ckpt.completed,
        vec![StageId::Site, StageId::Hash, StageId::Cluster]
    );
    assert_eq!(ckpt.next_stage(), Some(StageId::Annotate));
    assert!(!ckpt.is_complete());

    // Re-encoding is a fixed point: envelope and payload identical.
    let back = decode_checkpoint(&encode_checkpoint(&ckpt)).expect("roundtrip decodes");
    assert_eq!(back.completed, ckpt.completed);
    assert_eq!(back.dataset_fingerprint, ckpt.dataset_fingerprint);
    assert_eq!(encode_checkpoint(&back), encode_checkpoint(&ckpt));

    // The partial state already carries the pixel stages' and the
    // cluster stage's outputs, and nothing later.
    assert!(ckpt.state.site.is_some());
    assert!(ckpt.state.post_hashes.is_some());
    assert!(ckpt.state.clustering.is_some());
    assert!(ckpt.state.annotations.is_none());
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_checkpoint_path(&path));
}
