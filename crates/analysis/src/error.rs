//! Typed errors and the shared process-exit convention.
//!
//! [`AnalysisError`] follows the PR 1 error-taxonomy pattern
//! (`DistError`/`ClusterError`/…): one enum per subsystem, variants
//! carrying enough context to act on, `Display` + `Error` implemented,
//! never a bare `String` escaping a public API.
//!
//! [`Exit`] is the exit-code convention shared by every workspace
//! binary (`memes`, `memes-lint`): `0` success, `1` the tool ran and
//! found violations (lint findings, schema violations, failed runs),
//! `2` the tool could not do its job at all (unreadable input, bad
//! usage). CI distinguishes "the gate failed" from "the gate is
//! broken".

use std::fmt;
use std::path::Path;
use std::process::ExitCode;

/// Failures of the analysis subsystem itself (not lint findings —
/// findings are data, not errors).
#[derive(Debug)]
pub enum AnalysisError {
    /// A file or directory could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// The report could not be serialized.
    Serialize {
        /// The serializer's complaint.
        detail: String,
    },
}

impl AnalysisError {
    /// Wrap an I/O error with its path.
    pub fn io(path: &Path, e: std::io::Error) -> Self {
        Self::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        }
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, detail } => write!(f, "cannot access {path}: {detail}"),
            Self::Serialize { detail } => write!(f, "cannot serialize the report: {detail}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// The workspace-wide binary exit convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Everything ran; nothing to report.
    Clean,
    /// The tool ran correctly and is reporting violations (lint
    /// findings, invalid metrics JSON, a failed pipeline run).
    Violations,
    /// The tool could not do its job: unreadable input, bad usage,
    /// internal invariant breakage.
    Operational,
}

impl Exit {
    /// The numeric code (`0` / `1` / `2`).
    pub fn code(self) -> u8 {
        match self {
            Exit::Clean => 0,
            Exit::Violations => 1,
            Exit::Operational => 2,
        }
    }
}

impl From<Exit> for ExitCode {
    fn from(e: Exit) -> Self {
        ExitCode::from(e.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_stable() {
        assert_eq!(Exit::Clean.code(), 0);
        assert_eq!(Exit::Violations.code(), 1);
        assert_eq!(Exit::Operational.code(), 2);
    }

    #[test]
    fn errors_render_their_context() {
        let e = AnalysisError::io(
            Path::new("crates/core/src"),
            std::io::Error::other("permission denied"),
        );
        assert!(e.to_string().contains("crates/core/src"));
        assert!(e.to_string().contains("permission denied"));
    }
}
