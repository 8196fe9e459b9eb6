//! Loading completed runs from disk.
//!
//! The serving layer accepts both artifact formats the pipeline writes:
//! the `PipelineOutput` JSON export (`memes run --out run.json`) and a
//! completed checkpoint (`memes run --checkpoint run.ckpt`, once every
//! stage has run). Checkpoints are `MEMES-CKPT v3` files — a header
//! and one CRC-checked section per stage; a checkpoint of any other
//! schema version, such as the v2 envelope older builds wrote, is
//! refused as stale. The format is sniffed from the leading bytes — checkpoints announce
//! themselves with the `MEMES-CKPT` magic — so callers just hand over a
//! path.

use crate::error::ServeError;
use meme_core::checkpoint::decode_checkpoint;
use meme_core::pipeline::PipelineOutput;
use std::path::Path;

/// The checkpoint magic, followed by the schema version; see
/// DESIGN.md §11.
const CKPT_MAGIC: &[u8] = b"MEMES-CKPT";

/// Read a completed run from `path`, in either artifact format.
///
/// Checkpoints are CRC-verified and schema-checked by the runner's
/// [`decode_checkpoint`]; torn or stale files surface as
/// [`ServeError::Checkpoint`], incomplete or inconsistent runs as
/// [`ServeError::Pipeline`], and files that are neither format as
/// [`ServeError::UnrecognizedArtifact`].
pub fn load_output(path: &Path) -> Result<PipelineOutput, ServeError> {
    let bytes = std::fs::read(path).map_err(|e| ServeError::Io {
        target: path.display().to_string(),
        detail: e.to_string(),
    })?;
    if bytes.starts_with(CKPT_MAGIC) {
        let ckpt = decode_checkpoint(&bytes)?;
        return Ok(ckpt.into_completed_output()?);
    }
    let text = String::from_utf8(bytes).map_err(|e| ServeError::UnrecognizedArtifact {
        path: path.display().to_string(),
        detail: format!("not UTF-8: {e}"),
    })?;
    PipelineOutput::from_json(&text).map_err(|e| ServeError::UnrecognizedArtifact {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Snapshot, DEFAULT_THETA};
    use meme_core::checkpoint::{crc32, Checkpoint, CheckpointDefect};
    use meme_core::pipeline::{Pipeline, PipelineConfig};
    use meme_core::supervise::SupervisedRunner;
    use meme_simweb::SimConfig;

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "meme-serve-artifact-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn loads_json_artifact_and_rejects_garbage() {
        let output = crate::testutil::tiny_output();
        let dir = tempdir();
        let json_path = dir.join("run.json");
        std::fs::write(&json_path, output.to_json()).unwrap();
        let loaded = load_output(&json_path).unwrap();
        assert_eq!(loaded.medoid_hashes, output.medoid_hashes);
        assert_eq!(loaded.occurrences, output.occurrences);

        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "not an artifact at all").unwrap();
        assert!(matches!(
            load_output(&garbage),
            Err(ServeError::UnrecognizedArtifact { .. })
        ));
        assert!(matches!(
            load_output(&dir.join("missing.json")),
            Err(ServeError::Io { .. })
        ));
    }

    #[test]
    fn loads_completed_checkpoint_and_rejects_partial_and_torn() {
        let dataset = SimConfig::tiny(23).generate();
        let config = PipelineConfig::fast();
        let dir = tempdir();
        let ckpt_path = dir.join("run.ckpt");
        let runner =
            SupervisedRunner::new(Pipeline::new(config.clone())).with_checkpoint(&ckpt_path);
        let direct = runner.run(&dataset).unwrap().expect_complete();
        let loaded = load_output(&ckpt_path).unwrap();
        assert_eq!(loaded.medoid_hashes, direct.medoid_hashes);
        assert_eq!(loaded.occurrences, direct.occurrences);

        // A fresh (no stages completed) checkpoint is typed, not a panic.
        let fresh = Checkpoint::fresh(&dataset, config);
        let partial_path = dir.join("partial.ckpt");
        std::fs::write(
            &partial_path,
            meme_core::checkpoint::encode_checkpoint(&fresh),
        )
        .unwrap();
        assert!(matches!(
            load_output(&partial_path),
            Err(ServeError::Pipeline(_))
        ));

        // Truncate the real envelope: torn → typed checkpoint defect.
        let bytes = std::fs::read(&ckpt_path).unwrap();
        let torn_path = dir.join("torn.ckpt");
        std::fs::write(&torn_path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            load_output(&torn_path),
            Err(ServeError::Checkpoint(_))
        ));
    }

    /// `memes run --checkpoint dir/run.ckpt --out dir/run.json`.
    fn checkpointed_run(dir: &Path) -> (std::path::PathBuf, std::path::PathBuf) {
        let dataset = SimConfig::tiny(29).generate();
        let ckpt_path = dir.join("run.ckpt");
        let json_path = dir.join("run.json");
        let _ = std::fs::remove_file(&ckpt_path);
        let _ = std::fs::remove_file(dir.join("run.ckpt.prev"));
        let output = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
            .with_checkpoint(&ckpt_path)
            .run(&dataset)
            .unwrap()
            .expect_complete();
        std::fs::write(&json_path, output.to_json()).unwrap();
        (ckpt_path, json_path)
    }

    fn snapshot_of(path: &Path) -> Snapshot {
        Snapshot::build(&load_output(path).unwrap(), None, DEFAULT_THETA, 1).unwrap()
    }

    #[test]
    fn a_v3_checkpoint_serves_the_same_records_as_its_json() {
        let dir = tempdir().join("v3");
        std::fs::create_dir_all(&dir).unwrap();
        let (ckpt_path, json_path) = checkpointed_run(&dir);
        assert!(std::fs::read(&ckpt_path)
            .unwrap()
            .starts_with(b"MEMES-CKPT v3\n"));
        let from_ckpt = snapshot_of(&ckpt_path);
        let from_json = snapshot_of(&json_path);
        assert!(!from_json.records().is_empty());
        assert_eq!(from_ckpt.records(), from_json.records());
    }

    #[test]
    fn a_v2_checkpoint_is_refused_as_stale() {
        // The v2 envelope older builds wrote: one CRC over one JSON
        // document. No build reads it any more.
        let dir = tempdir();
        let json = crate::testutil::tiny_output().to_json();
        let v2_path = dir.join("run-v2.ckpt");
        std::fs::write(
            &v2_path,
            format!(
                "MEMES-CKPT v2 crc32={:08x} len={}\n{json}",
                crc32(json.as_bytes()),
                json.len()
            ),
        )
        .unwrap();
        assert!(matches!(
            load_output(&v2_path),
            Err(ServeError::Checkpoint(CheckpointDefect::Stale { .. }))
        ));
    }
}
