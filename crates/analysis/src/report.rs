//! The machine-readable lint report (`lint-report.json`).
//!
//! CI archives it; no program reads it back, so the typed structs below
//! are the schema and serde is the only producer.

use crate::error::AnalysisError;
use crate::rules::Finding;
use serde::{Deserialize, Serialize};

/// Schema version of `lint-report.json`; bump on incompatible change
/// (2: findings carry no baseline `status`, the document no `timings`).
pub const REPORT_SCHEMA_VERSION: u32 = 2;

/// Per-rule rollup.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuleSummary {
    /// Rule id.
    pub id: String,
    /// One-line description.
    pub summary: String,
    /// Findings attributed to this rule.
    pub count: u32,
}

/// Totals across the run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Totals {
    /// All findings.
    pub total: u32,
}

/// The full `lint-report.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Must equal [`REPORT_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Producing tool (`"memes-lint"`).
    pub tool: String,
    /// Number of workspace files scanned.
    pub files_scanned: u32,
    /// Every registered rule with its hit count (zero counts included,
    /// so the report documents coverage, not just hits).
    pub rules: Vec<RuleSummary>,
    /// All findings, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Rollup counts.
    pub totals: Totals,
}

impl Report {
    /// Serialize (pretty, trailing newline).
    pub fn to_json(&self) -> Result<String, AnalysisError> {
        let mut text =
            serde_json::to_string_pretty(self).map_err(|e| AnalysisError::Serialize {
                detail: e.to_string(),
            })?;
        text.push('\n');
        Ok(text)
    }
}
