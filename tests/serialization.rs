//! Persistence: datasets and pipeline runs round-trip through JSON, so
//! the expensive hashing step can be done once and analyzed many times
//! (the paper's batch/one-time split, §3.3).

use origins_of_memes::core::checkpoint::{
    crc32, decode_checkpoint, fsck_bytes, prev_checkpoint_path, CheckpointMedium, DiskMedium,
    FsckClass, MediumError, StageId,
};
use origins_of_memes::core::pipeline::{
    Degradation, Pipeline, PipelineConfig, PipelineError, PipelineOutput,
};
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::simweb::{Dataset, SimConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

#[allow(dead_code)]
mod ckpt_v3;

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
    use origins_of_memes::core::checkpoint::{encode_checkpoint, RunnerOutcome};
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

fn scratch_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "memes-serialization-{}-{name}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_checkpoint_path(&path));
    path
}

fn remove(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(prev_checkpoint_path(path));
}

/// Run until `stage` completes, leaving its checkpoint at `path`.
fn halt_after(pipeline: &Pipeline, dataset: &Dataset, stage: StageId, path: &Path) {
    SupervisedRunner::new(pipeline.clone())
        .with_checkpoint(path)
        .halt_after(stage)
        .run(dataset)
        .expect("runner halts cleanly");
}

/// A v2 file (`MEMES-CKPT v2 crc32=<hex8> len=<N>` over one JSON
/// document) holding the post-hash state of the v3 checkpoint `v3`, as
/// an older build wrote it.
fn v2_post_hash_file(v3: &[u8]) -> Vec<u8> {
    let ckpt = decode_checkpoint(v3).expect("post-hash checkpoint decodes");
    let json = format!(
        r#"{{"dataset_fingerprint":{},"config":{},"completed":["Site","Hash"],"state":{{"post_hashes":{}}}}}"#,
        ckpt.dataset_fingerprint,
        serde_json::to_string(&ckpt.config).unwrap(),
        serde_json::to_string(&ckpt.state.post_hashes).unwrap(),
    );
    format!(
        "MEMES-CKPT v2 crc32={:08x} len={}\n{json}",
        crc32(json.as_bytes()),
        json.len()
    )
    .into_bytes()
}

#[test]
fn a_v2_post_hash_checkpoint_is_stale_and_resume_rolls_back_to_a_v3_prev() {
    let dataset = SimConfig::tiny(5).generate();
    let pipeline = Pipeline::new(PipelineConfig::fast());
    let path = scratch_path("v2-stale");
    halt_after(&pipeline, &dataset, StageId::Hash, &path);
    let v3 = std::fs::read(&path).unwrap();
    let v2 = v2_post_hash_file(&v3);
    let report = fsck_bytes(&v2, None);
    assert_eq!(report.class, FsckClass::Stale, "{}", report.detail);

    // With no previous generation, resuming fails typed: never a
    // silent fresh run.
    remove(&path);
    std::fs::write(&path, &v2).unwrap();
    let err = SupervisedRunner::new(pipeline.clone())
        .with_checkpoint(&path)
        .resume(&dataset)
        .expect_err("a v2 checkpoint does not resume");
    assert!(
        matches!(&err, PipelineError::CheckpointCorrupt(detail) if detail.contains("schema v2")),
        "{err}"
    );

    // With an intact v3 `.prev`, resuming rolls back to it and converges
    // to the uninterrupted run.
    std::fs::write(prev_checkpoint_path(&path), &v3).unwrap();
    let resumed = SupervisedRunner::new(pipeline.clone())
        .with_checkpoint(&path)
        .resume(&dataset)
        .expect("rollback rescues the v2 checkpoint");
    assert!(resumed.report.rolled_back, "rollback must be reported");
    let mut resumed = resumed.expect_complete();
    let before = resumed.degradations.len();
    resumed
        .degradations
        .retain(|d| !matches!(d, Degradation::CheckpointRolledBack { .. }));
    assert_eq!(before, resumed.degradations.len() + 1);
    let uninterrupted = SupervisedRunner::new(pipeline)
        .run(&dataset)
        .expect("pipeline runs")
        .expect_complete();
    assert_eq!(resumed.to_json(), uninterrupted.to_json());
    let on_disk = std::fs::read(&path).unwrap();
    assert!(
        on_disk.starts_with(ckpt_v3::MAGIC),
        "the resume left v2 bytes"
    );
    let report = fsck_bytes(&on_disk, None);
    assert_eq!(report.class, FsckClass::Clean, "{}", report.detail);
    assert_eq!(report.completed.len(), StageId::ALL.len());
    remove(&path);
}

/// Records every write, then passes it to the disk.
#[derive(Debug, Default)]
struct Recording {
    writes: Mutex<Vec<Vec<u8>>>,
}

impl Recording {
    fn writes(&self) -> Vec<Vec<u8>> {
        self.writes.lock().unwrap().clone()
    }
}

impl CheckpointMedium for Recording {
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), MediumError> {
        self.writes.lock().unwrap().push(bytes.to_vec());
        DiskMedium.write(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<(), MediumError> {
        DiskMedium.rename(from, to)
    }
    fn read(&self, path: &Path) -> Result<Vec<u8>, MediumError> {
        DiskMedium.read(path)
    }
    fn exists(&self, path: &Path) -> bool {
        DiskMedium.exists(path)
    }
}

/// Generation `next` is generation `prev` plus one stage section: past
/// the header, `prev`'s sections come back byte for byte, and the only
/// other section is the one `stage` just wrote.
fn assert_extends(prev: &[u8], next: &[u8], stage: StageId) {
    let prev = ckpt_v3::sections(prev);
    let next = ckpt_v3::sections(next);
    assert_eq!(next[0].0, "header");
    assert_eq!(next.len(), prev.len() + 1, "{stage}");
    for (old, new) in prev.iter().zip(&next).skip(1) {
        assert_eq!(old.0, new.0);
        assert!(old.1 == new.1, "section `{}` was re-encoded", old.0);
    }
    assert_eq!(next.last().unwrap().0, stage.name());
}

#[test]
fn each_persist_copies_the_sections_already_written() {
    let dataset = SimConfig::tiny(5).generate();
    let pipeline = Pipeline::new(PipelineConfig::fast());

    // A run from scratch: generation k+1 repeats generation k.
    let path = scratch_path("reuse-run");
    let medium = Arc::new(Recording::default());
    SupervisedRunner::new(pipeline.clone())
        .with_checkpoint(&path)
        .with_medium(medium.clone())
        .run(&dataset)
        .expect("pipeline runs");
    let generations = medium.writes();
    assert_eq!(generations.len(), StageId::ALL.len());
    assert_eq!(ckpt_v3::sections(&generations[0]).len(), 2);
    for (k, pair) in generations.windows(2).enumerate() {
        assert_extends(&pair[0], &pair[1], StageId::ALL[k + 1]);
    }
    remove(&path);

    // A resume copies the sections it decoded from the file on disk.
    let path = scratch_path("reuse-resume");
    halt_after(&pipeline, &dataset, StageId::Hash, &path);
    let post_hash = std::fs::read(&path).unwrap();
    let medium = Arc::new(Recording::default());
    SupervisedRunner::new(pipeline)
        .with_checkpoint(&path)
        .with_medium(medium.clone())
        .resume(&dataset)
        .expect("resume runs");
    let generations = medium.writes();
    assert_eq!(generations.len(), 3);
    assert_extends(&post_hash, &generations[0], StageId::Cluster);
    assert_extends(&generations[0], &generations[1], StageId::Annotate);
    assert_extends(&generations[1], &generations[2], StageId::Associate);
    remove(&path);
}
