//! Workspace-specific static analysis for the meme-pipeline repo.
//!
//! `memes-lint` (this crate's binary) enforces the invariants the test
//! suite can only sample: determinism (no hash-order leaking into
//! output, no wall-clock reads in algorithm code), panic-freedom in
//! pipeline hot paths, and the PR 1 typed-error taxonomy at public API
//! boundaries. It is a token-level analyzer — a lexer and pattern
//! walker, not a full parser — which keeps it dependency-free and fast
//! enough to run on every CI push.
//!
//! Architecture:
//! - [`lexer`] — Rust lexer producing tokens + comments with 1-based
//!   line/col spans.
//! - [`source`] — workspace walker and file classification
//!   (lib/bin/test/build/example).
//! - [`context`] — per-file analysis context incl. `#[cfg(test)]`
//!   region detection.
//! - [`rules`] — the [`rules::Rule`] registry (seven rules on one
//!   trait, plus engine-level suppression hygiene).
//! - [`symbols`] — pass 1: symbol table, best-effort call graph, and
//!   lock model built from the token stream (DESIGN.md §13).
//! - [`suppress`] — `// lint:allow(<rule>): <reason>` directives.
//! - [`report`] — `lint-report.json`.
//! - [`engine`] — ties it together.

pub mod context;
pub mod engine;
pub mod error;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod suppress;
pub mod symbols;

pub use engine::{Engine, LintRun};
pub use error::{AnalysisError, Exit};
pub use report::{Report, REPORT_SCHEMA_VERSION};
pub use rules::{all_rule_ids, builtin_rules, Finding, Rule, Workspace};
pub use source::{walk_workspace, FileClass, SourceFile};
pub use symbols::WorkspaceModel;
