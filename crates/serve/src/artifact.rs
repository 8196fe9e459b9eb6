//! Loading completed runs from disk.
//!
//! The serving layer accepts both artifact formats the pipeline writes:
//! the `PipelineOutput` JSON export (`memes run --out run.json`) and
//! the checksummed v2 checkpoint envelope (`memes run --checkpoint
//! ckpt.json`, once every stage has completed). The format is sniffed
//! from the leading bytes — envelopes announce themselves with the
//! `MEMES-CKPT` magic — so callers just hand over a path.

use crate::error::ServeError;
use meme_core::checkpoint::decode_checkpoint;
use meme_core::pipeline::PipelineOutput;
use std::path::Path;

/// The checkpoint envelope magic (`MEMES-CKPT v2 …`); see DESIGN.md §11.
const CKPT_MAGIC: &[u8] = b"MEMES-CKPT";

/// Read a completed run from `path`, in either artifact format.
///
/// Envelope files are CRC-verified and schema-checked by the runner's
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
    use meme_core::checkpoint::Checkpoint;
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
}
