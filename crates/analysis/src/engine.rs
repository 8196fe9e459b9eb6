//! The lint engine: walk, lex, build the pass-1 model, run the rules,
//! apply suppressions, build the report.

use crate::context::FileContext;
use crate::error::AnalysisError;
use crate::report::{Report, RuleSummary, Totals, REPORT_SCHEMA_VERSION};
use crate::rules::{all_rule_ids, builtin_rules, Finding, Rule, Workspace, ENGINE_RULE_IDS};
use crate::source::{walk_workspace, SourceFile};
use crate::suppress::{parse_suppressions, Suppression};
use crate::symbols::WorkspaceModel;
use std::collections::BTreeMap;
use std::path::Path;

/// Result of linting a set of files.
pub struct LintRun {
    /// Findings that survived suppression, sorted by
    /// (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// How many files were scanned.
    pub files_scanned: u32,
}

/// The engine: the rule registry plus the scan drivers.
pub struct Engine {
    rules: Vec<Box<dyn Rule>>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine with the built-in registry.
    pub fn new() -> Self {
        Self {
            rules: builtin_rules(),
        }
    }

    /// The registered rules.
    pub fn rules(&self) -> &[Box<dyn Rule>] {
        &self.rules
    }

    /// Lint every workspace `.rs` file under `root`.
    pub fn lint_root(&self, root: &Path) -> Result<LintRun, AnalysisError> {
        let files = walk_workspace(root)?;
        Ok(self.lint_files(&files))
    }

    /// Lint a file set as one unit: pass 1 (symbols, call graph, lock
    /// model), every rule over the workspace, then `lint:allow`
    /// application per file, then one global deterministic sort.
    pub fn lint_files(&self, files: &[SourceFile]) -> LintRun {
        let ctxs: Vec<FileContext<'_>> = files.iter().map(FileContext::build).collect();
        let sups: Vec<Vec<Suppression>> = ctxs
            .iter()
            .map(|c| parse_suppressions(&c.comments))
            .collect();
        let model = WorkspaceModel::build(&ctxs);
        let ws = Workspace {
            contexts: &ctxs,
            model: &model,
            suppressions: &sups,
        };

        let index_of: BTreeMap<&str, usize> = files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.path.as_str(), i))
            .collect();
        let mut raw: Vec<Vec<Finding>> = vec![Vec::new(); files.len()];
        for rule in &self.rules {
            for f in rule.check(&ws) {
                // Rules only ever report into scanned files.
                if let Some(&i) = index_of.get(f.file.as_str()) {
                    raw[i].push(f);
                }
            }
        }

        let mut findings = Vec::new();
        for ((file, raw), sups) in files.iter().zip(raw).zip(sups) {
            findings.extend(apply_suppressions(file, raw, sups));
        }
        findings.sort_by(|a, b| {
            (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule))
        });
        LintRun {
            findings,
            files_scanned: files.len() as u32,
        }
    }

    /// Lint one file (tests, fixtures): a one-file workspace.
    pub fn lint_source(&self, file: &SourceFile) -> Vec<Finding> {
        self.lint_files(std::slice::from_ref(file)).findings
    }

    /// Build the full report for a run.
    pub fn build_report(&self, run: &LintRun) -> Report {
        let mut per_rule: BTreeMap<&str, u32> = BTreeMap::new();
        for f in &run.findings {
            *per_rule.entry(f.rule.as_str()).or_insert(0) += 1;
        }
        let engine_ids = ENGINE_RULE_IDS.map(|id| (id, "suppression hygiene (engine-level)"));
        let rules = self
            .rules
            .iter()
            .map(|r| (r.id(), r.summary()))
            .chain(engine_ids)
            .map(|(id, summary)| RuleSummary {
                id: id.to_string(),
                summary: summary.to_string(),
                count: per_rule.get(id).copied().unwrap_or(0),
            })
            .collect();
        Report {
            schema_version: REPORT_SCHEMA_VERSION,
            tool: "memes-lint".to_string(),
            files_scanned: run.files_scanned,
            rules,
            findings: run.findings.clone(),
            totals: Totals {
                total: run.findings.len() as u32,
            },
        }
    }
}

/// Apply one file's `lint:allow` directives to its raw findings;
/// malformed or unused suppressions become findings themselves.
fn apply_suppressions(
    file: &SourceFile,
    raw: Vec<Finding>,
    mut sups: Vec<Suppression>,
) -> Vec<Finding> {
    let valid_ids = all_rule_ids();
    let mut out = Vec::new();

    // Suppression hygiene first: unknown rules or a missing reason
    // invalidate the directive (it suppresses nothing).
    for s in &sups {
        let unknown: Vec<&String> = s
            .rules
            .iter()
            .filter(|r| !valid_ids.contains(&r.as_str()))
            .collect();
        if s.rules.is_empty() || !unknown.is_empty() || s.reason.is_none() {
            let detail = if s.rules.is_empty() {
                "no rule ids".to_string()
            } else if !unknown.is_empty() {
                format!(
                    "unknown rule(s) {}",
                    unknown
                        .iter()
                        .map(|r| format!("`{r}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            } else {
                "missing reason — a suppression is a reviewed decision; \
                     say why the finding is acceptable"
                    .to_string()
            };
            out.push(Finding::new(
                "invalid-suppression",
                file,
                s.line,
                s.col,
                format!("malformed lint:allow: {detail}"),
            ));
        }
    }

    // Apply valid suppressions.
    for f in raw {
        let mut suppressed = false;
        for s in &mut sups {
            if s.reason.is_some() && s.covers(&f.rule, f.line) {
                s.used = true;
                suppressed = true;
                break;
            }
        }
        if !suppressed {
            out.push(f);
        }
    }

    // A valid suppression that matched nothing is stale.
    for s in &sups {
        if s.reason.is_some()
            && !s.used
            && s.rules.iter().all(|r| valid_ids.contains(&r.as_str()))
            && !s.rules.is_empty()
        {
            out.push(Finding::new(
                "unused-suppression",
                file,
                s.line,
                s.col,
                format!(
                    "lint:allow({}) suppresses nothing here; remove it",
                    s.rules.join(", ")
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn lint_one(path: &str, src: &str) -> Vec<Finding> {
        Engine::new().lint_source(&SourceFile::new(path, src))
    }

    #[test]
    fn suppression_silences_a_finding() {
        let f = lint_one(
            "crates/core/src/x.rs",
            "fn f() {\n\
                 // lint:allow(panic-reachable): documented invariant, tested above\n\
                 a.unwrap();\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn trailing_suppression_works() {
        let f = lint_one(
            "crates/core/src/x.rs",
            "fn f() { a.unwrap(); } // lint:allow(panic-reachable): invariant\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn reasonless_suppression_is_invalid_and_inert() {
        let f = lint_one(
            "crates/core/src/x.rs",
            "fn f() {\n// lint:allow(panic-reachable)\na.unwrap();\n}\n",
        );
        let rules: Vec<&str> = f.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"invalid-suppression"), "{rules:?}");
        assert!(rules.contains(&"panic-reachable"), "{rules:?}");
    }

    #[test]
    fn unknown_rule_is_invalid() {
        let f = lint_one(
            "crates/core/src/x.rs",
            "// lint:allow(made-up-rule): whatever\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "invalid-suppression");
        assert!(f[0].message.contains("made-up-rule"));
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let f = lint_one(
            "crates/core/src/x.rs",
            "// lint:allow(panic-reachable): nothing here panics\nfn f() {}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unused-suppression");
    }

    #[test]
    fn findings_are_sorted() {
        let files = [
            SourceFile::new("crates/core/src/b.rs", "fn f() { a.unwrap(); }\n"),
            SourceFile::new(
                "crates/core/src/a.rs",
                "fn f() { b.unwrap(); c.unwrap(); }\n",
            ),
        ];
        let run = Engine::new().lint_files(&files);
        let keys: Vec<(&str, u32, u32)> = run
            .findings
            .iter()
            .map(|f| (f.file.as_str(), f.line, f.col))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(run.findings[0].file, "crates/core/src/a.rs");
    }

    #[test]
    fn report_json_is_byte_stable_and_roundtrips() {
        // Rules iterate graph structures; any hidden iteration-order
        // dependence would churn the archived report. Exercise a
        // cross-file caller finding plus a site finding.
        let files = [
            SourceFile::new(
                "crates/cluster/src/w.rs",
                "/// # Panics\n/// Panics on empty input.\npub fn medoids(x: &[u64]) -> u64 {\n\
                 // lint:allow(panic-reachable): documented wrapper\n    x.first().unwrap() + 0\n}\n",
            ),
            SourceFile::new(
                "crates/core/src/a.rs",
                "pub fn stage(x: &[u64]) -> u64 { medoids(x) }\n\
                 pub fn run(x: &[u64]) -> u64 { stage(x) + a.unwrap() }\n",
            ),
        ];
        let engine = Engine::new();
        let render = || {
            let run = engine.lint_files(&files);
            engine.build_report(&run).to_json().unwrap()
        };
        let first = render();
        for _ in 0..3 {
            assert_eq!(first, render(), "report JSON must be byte-stable");
        }

        // The one serde round-trip of the artifact: what was written
        // reads back as the same findings and a consistent roll-up.
        let back: Report = serde_json::from_str(&first).unwrap();
        assert_eq!(back.findings, engine.lint_files(&files).findings);
        assert_eq!(back.findings.len(), 2, "stage's call and run's site");
        assert_eq!(back.totals.total, 2);
        assert_eq!(back.rules.len(), all_rule_ids().len());
        let counted: u32 = back.rules.iter().map(|r| r.count).sum();
        assert_eq!(counted, back.totals.total);
    }
}
