//! Dead-letter quarantine for poison items.
//!
//! A poison item — a post whose image fails to hash or to associate on
//! *every* attempt — must not sink its stage or burn the retry budget
//! forever. The supervisor ([`crate::supervise`]) diverts such items
//! here: each one becomes a [`QuarantineEntry`] with a typed
//! [`QuarantineReason`], the batch is summarised in the run's
//! degradations, and the entries are persisted to a `quarantine.jsonl`
//! dead-letter file (one JSON object per line, append-friendly and
//! greppable). `memes quarantine ls` lists a file; `memes quarantine
//! replay` re-processes the items against a clean pipeline to decide
//! whether they have recovered.

use crate::checkpoint::StageId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Why an item was quarantined.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuarantineReason {
    /// The item failed on every retry attempt of its stage.
    PoisonItem {
        /// Attempts made before giving up on the item.
        attempts: u32,
        /// Rendered cause of the last failure.
        detail: String,
    },
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PoisonItem { attempts, detail } => {
                write!(f, "poison item (failed {attempts} attempt(s)): {detail}")
            }
        }
    }
}

/// One quarantined item: which stage dropped it, which item it was, and
/// why. `item` is an index into `dataset.posts` — the stable, seedable
/// coordinate every replay can resolve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// The stage that gave up on the item.
    pub stage: StageId,
    /// Post index (into `dataset.posts`) of the quarantined item.
    pub item: usize,
    /// Why it was quarantined.
    pub reason: QuarantineReason,
}

/// A quarantine file failure — typed, per the workspace error taxonomy.
#[derive(Debug)]
pub enum QuarantineError {
    /// The file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The rendered OS error.
        detail: String,
    },
    /// A line was not a valid quarantine entry.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// The decode error.
        detail: String,
    },
}

impl fmt::Display for QuarantineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, detail } => write!(f, "quarantine file {path}: {detail}"),
            Self::Malformed { line, detail } => {
                write!(f, "quarantine line {line} is malformed: {detail}")
            }
        }
    }
}

impl std::error::Error for QuarantineError {}

/// Encode entries as JSON Lines (one entry per line, trailing newline).
pub fn encode_jsonl(entries: &[QuarantineEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        // lint:allow(panic-reachable): vendored serde serialization of plain structs is infallible
        out.push_str(&serde_json::to_string(e).expect("quarantine entry serializes"));
        out.push('\n');
    }
    out
}

/// Decode a JSON Lines quarantine file body (blank lines are ignored).
pub fn parse_jsonl(text: &str) -> Result<Vec<QuarantineEntry>, QuarantineError> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry = serde_json::from_str(line).map_err(|e| QuarantineError::Malformed {
            line: i + 1,
            detail: e.to_string(),
        })?;
        entries.push(entry);
    }
    Ok(entries)
}

/// Read and decode a quarantine file.
pub fn read_quarantine(path: &Path) -> Result<Vec<QuarantineEntry>, QuarantineError> {
    let text = std::fs::read_to_string(path).map_err(|e| QuarantineError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    parse_jsonl(&text)
}

/// Write entries to a quarantine file (whole-file rewrite; the
/// supervisor calls this after every stage with the full accumulated
/// set, so a crash can only lose the newest batch, never corrupt old
/// lines mid-file).
pub fn write_quarantine(path: &Path, entries: &[QuarantineEntry]) -> Result<(), QuarantineError> {
    std::fs::write(path, encode_jsonl(entries)).map_err(|e| QuarantineError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

/// Entry counts per stage, in [`StageId::ALL`] order (stages with no
/// entries are omitted) — the `memes quarantine ls` summary line.
pub fn summarize(entries: &[QuarantineEntry]) -> Vec<(StageId, usize)> {
    StageId::ALL
        .into_iter()
        .filter_map(|stage| {
            let n = entries.iter().filter(|e| e.stage == stage).count();
            (n > 0).then_some((stage, n))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<QuarantineEntry> {
        vec![
            QuarantineEntry {
                stage: StageId::Hash,
                item: 17,
                reason: QuarantineReason::PoisonItem {
                    attempts: 3,
                    detail: "injected poison".to_string(),
                },
            },
            QuarantineEntry {
                stage: StageId::Associate,
                item: 4,
                reason: QuarantineReason::PoisonItem {
                    attempts: 3,
                    detail: "injected poison".to_string(),
                },
            },
            QuarantineEntry {
                stage: StageId::Hash,
                item: 99,
                reason: QuarantineReason::PoisonItem {
                    attempts: 1,
                    detail: "render failed".to_string(),
                },
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip_preserves_entries() {
        let entries = sample();
        let text = encode_jsonl(&entries);
        assert_eq!(text.lines().count(), entries.len());
        let back = parse_jsonl(&text).expect("roundtrip");
        assert_eq!(back, entries);
    }

    #[test]
    fn blank_lines_are_ignored_and_garbage_is_typed() {
        let entries = sample();
        let mut text = encode_jsonl(&entries);
        text.insert(0, '\n');
        let back = parse_jsonl(&text).expect("blank lines skipped");
        assert_eq!(back, entries);

        text.push_str("{ not a quarantine entry\n");
        let err = parse_jsonl(&text).expect_err("garbage line must fail");
        match err {
            QuarantineError::Malformed { line, .. } => assert_eq!(line, text.lines().count()),
            other => panic!("expected Malformed, got {other}"),
        }
    }

    #[test]
    fn summarize_groups_by_stage_in_stage_order() {
        assert_eq!(
            summarize(&sample()),
            vec![(StageId::Hash, 2), (StageId::Associate, 1)]
        );
        assert!(summarize(&[]).is_empty());
    }

    #[test]
    fn file_io_is_typed() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "memes-quarantine-test-{}.jsonl",
            std::process::id()
        ));
        let entries = sample();
        write_quarantine(&path, &entries).expect("write");
        let back = read_quarantine(&path).expect("read");
        assert_eq!(back, entries);
        let _ = std::fs::remove_file(&path);

        let missing = dir.join("memes-quarantine-no-such-file.jsonl");
        assert!(matches!(
            read_quarantine(&missing),
            Err(QuarantineError::Io { .. })
        ));
    }
}
