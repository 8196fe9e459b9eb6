//! Source-file model and the workspace walker.
//!
//! The walker mirrors the workspace layout in `Cargo.toml`: member
//! crates under `crates/*`, the root facade under `src/`, integration
//! tests under `tests/`. `vendor/` (offline stand-ins for external
//! crates), `target/`, fixture corpora and `benchmark/` (a workspace of
//! its own, outside `Cargo.toml`'s members, whose job is to read the
//! wall clock) are never scanned — the invariants are ours, not our
//! dependencies'.

use crate::error::AnalysisError;
use std::fs;
use std::path::{Path, PathBuf};

/// Where in the workspace a file lives — rules scope themselves by
/// class (e.g. `panic-reachable` exempts test code outright).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code under a crate's `src/` (the default).
    Lib,
    /// A binary under `src/bin/`.
    Bin,
    /// An integration-test file (any `tests/` directory).
    Test,
    /// A build script (`build.rs`).
    Build,
    /// An example (`examples/`).
    Example,
}

impl FileClass {
    /// Short label for diagnostics and the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            FileClass::Lib => "lib",
            FileClass::Bin => "bin",
            FileClass::Test => "test",
            FileClass::Build => "build",
            FileClass::Example => "example",
        }
    }
}

/// One source file, located within the workspace.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (as diagnostics print it).
    pub path: String,
    /// Owning crate: `crates/<name>/…` → `<name>`; root package → `root`.
    pub crate_name: String,
    /// File class (see [`FileClass`]).
    pub class: FileClass,
    /// The file's text.
    pub text: String,
}

impl SourceFile {
    /// Classify a workspace-relative path and wrap the text.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> Self {
        let path = path.into().replace('\\', "/");
        let crate_name = match path.strip_prefix("crates/") {
            Some(rest) => rest.split('/').next().unwrap_or("root").to_string(),
            None => "root".to_string(),
        };
        let class = classify(&path);
        Self {
            path,
            crate_name,
            class,
            text: text.into(),
        }
    }

    /// The trimmed text of a 1-based line (quoted in findings), empty
    /// when out of range.
    pub fn line_text(&self, line: u32) -> &str {
        self.text
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .map(str::trim)
            .unwrap_or("")
    }
}

fn classify(path: &str) -> FileClass {
    if path.ends_with("build.rs") {
        FileClass::Build
    } else if path.contains("/bin/") {
        FileClass::Bin
    } else if path.starts_with("tests/") || path.contains("/tests/") {
        FileClass::Test
    } else if path.starts_with("examples/") || path.contains("/examples/") {
        FileClass::Example
    } else {
        FileClass::Lib
    }
}

/// Directories the walker never descends into.
const EXCLUDED_DIRS: [&str; 6] = [
    "vendor",
    "target",
    ".git",
    "fixtures",
    "repro-out",
    "benchmark",
];

/// Collect every workspace `.rs` file under `root`, sorted by path so
/// every run (and the JSON report) is deterministic.
pub fn walk_workspace(root: &Path) -> Result<Vec<SourceFile>, AnalysisError> {
    let mut paths: Vec<PathBuf> = Vec::new();
    collect(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let text = fs::read_to_string(&p).map_err(|e| AnalysisError::io(&p, e))?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .into_owned();
        files.push(SourceFile::new(rel, text));
    }
    Ok(files)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), AnalysisError> {
    let entries = fs::read_dir(dir).map_err(|e| AnalysisError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| AnalysisError::io(dir, e))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if EXCLUDED_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_and_class_detection() {
        let f = SourceFile::new("crates/core/src/pipeline.rs", "");
        assert_eq!(f.crate_name, "core");
        assert_eq!(f.class, FileClass::Lib);

        let f = SourceFile::new("crates/index/tests/properties.rs", "");
        assert_eq!(f.crate_name, "index");
        assert_eq!(f.class, FileClass::Test);

        let f = SourceFile::new("src/bin/memes.rs", "");
        assert_eq!(f.crate_name, "root");
        assert_eq!(f.class, FileClass::Bin);

        let f = SourceFile::new("tests/chaos.rs", "");
        assert_eq!(f.crate_name, "root");
        assert_eq!(f.class, FileClass::Test);

        let f = SourceFile::new("build.rs", "");
        assert_eq!(f.class, FileClass::Build);
    }

    #[test]
    fn line_text_trims_and_bounds() {
        let f = SourceFile::new("x.rs", "a\n  let y = 1;  \n");
        assert_eq!(f.line_text(2), "let y = 1;");
        assert_eq!(f.line_text(99), "");
    }
}
