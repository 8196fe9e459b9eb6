//! The serving layer's error taxonomy.

use meme_core::checkpoint::CheckpointDefect;
use meme_core::pipeline::PipelineError;
use std::fmt;

/// Why the serving layer could not load an artifact, answer a request,
/// or keep a server running. Follows the workspace error convention
/// (DESIGN.md §6): callers match on variants to decide
/// retry-vs-report-vs-abort, and the CLI maps variants onto the shared
/// exit-code contract.
#[derive(Debug)]
pub enum ServeError {
    /// An artifact or socket could not be read or written.
    Io {
        /// What was being accessed.
        target: String,
        /// The underlying OS error, rendered.
        detail: String,
    },
    /// The artifact file is a checkpoint envelope, but a defective one.
    Checkpoint(CheckpointDefect),
    /// The artifact decoded, but its contents are inconsistent (the
    /// same defects [`PipelineError::CheckpointCorrupt`] guards
    /// against: out-of-range cluster ids, dangling entry ids, …).
    Pipeline(PipelineError),
    /// The artifact file is neither a `PipelineOutput` JSON export nor
    /// a checkpoint envelope.
    UnrecognizedArtifact {
        /// The file that failed to parse either way.
        path: String,
        /// Why the JSON interpretation failed.
        detail: String,
    },
    /// A client sent a line the protocol cannot interpret.
    Protocol {
        /// What was wrong with the request.
        detail: String,
    },
    /// An influence table was supplied whose row count does not match
    /// the artifact's annotated-cluster count.
    InfluenceShape {
        /// Rows supplied.
        rows: usize,
        /// Annotated clusters in the artifact.
        annotated: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { target, detail } => write!(f, "cannot access {target}: {detail}"),
            Self::Checkpoint(d) => write!(f, "artifact checkpoint is defective: {d}"),
            Self::Pipeline(e) => write!(f, "artifact is inconsistent: {e}"),
            Self::UnrecognizedArtifact { path, detail } => write!(
                f,
                "{path} is neither a run artifact (JSON) nor a checkpoint envelope: {detail}"
            ),
            Self::Protocol { detail } => write!(f, "bad request: {detail}"),
            Self::InfluenceShape { rows, annotated } => write!(
                f,
                "influence table has {rows} rows for {annotated} annotated clusters"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PipelineError> for ServeError {
    fn from(e: PipelineError) -> Self {
        Self::Pipeline(e)
    }
}

impl From<CheckpointDefect> for ServeError {
    fn from(d: CheckpointDefect) -> Self {
        Self::Checkpoint(d)
    }
}
