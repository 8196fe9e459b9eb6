//! `panic-in-pipeline`: no panicking shortcuts in pipeline-stage and
//! index hot paths.
//!
//! The PR 1 fault-tolerance work gave every stage a typed error channel
//! (`StageError` → `PipelineError`); an `unwrap()` deep inside a stage
//! bypasses that machinery and turns a recoverable degradation into a
//! process abort mid-run. Flags `.unwrap()`, `.expect(...)`,
//! `panic!`/`unreachable!`/`todo!`/`unimplemented!`, and indexing by an
//! integer literal (`xs[0]` — a hidden panic site) in the `core`,
//! `index`, and `annotate` crates. Test code, benches, examples, and
//! build scripts are exempt; deliberate panics (crossbeam panic
//! re-raise, documented panicking APIs) carry `lint:allow` with the
//! reviewed reason.

use super::{is_macro_call, is_method_call, Finding, Rule};
use crate::context::FileContext;
use crate::lexer::TokenKind;
use crate::source::{FileClass, SourceFile};

/// Crates whose lib code must stay panic-free. Shared with the
/// interprocedural `panic-reachable` rule so both scope identically.
pub(crate) const SCOPED_CRATES: [&str; 7] = [
    "core", "index", "annotate", "cluster", "serve", "stats", "hawkes",
];

/// Panicking macros. Shared with `panic-reachable`'s source detection.
pub(crate) const MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

pub struct PanicInPipeline;

impl Rule for PanicInPipeline {
    fn id(&self) -> &'static str {
        "panic-in-pipeline"
    }

    fn summary(&self) -> &'static str {
        "unwrap/expect/panic!/literal indexing in pipeline and index hot paths; \
         use the typed error taxonomy instead"
    }

    fn applies(&self, file: &SourceFile) -> bool {
        file.class == FileClass::Lib && SCOPED_CRATES.contains(&file.crate_name.as_str())
    }

    fn check(&self, ctx: &FileContext<'_>) -> Vec<Finding> {
        let mut out = Vec::new();
        let toks = &ctx.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            if ctx.is_test_line(t.line) {
                continue;
            }
            if is_method_call(toks, i, "unwrap") || is_method_call(toks, i, "expect") {
                out.push(Finding::new(
                    self.id(),
                    ctx.file,
                    t.line,
                    t.col,
                    format!(
                        ".{}() in a pipeline hot path; propagate a typed error \
                         (StageError and friends) instead of aborting the run",
                        t.text
                    ),
                ));
                continue;
            }
            for m in MACROS {
                if is_macro_call(toks, i, m) {
                    out.push(Finding::new(
                        self.id(),
                        ctx.file,
                        t.line,
                        t.col,
                        format!(
                            "{}! aborts the whole run; return an error variant or \
                             restructure so the case is unrepresentable",
                            t.text
                        ),
                    ));
                }
            }
            // `xs[0]` — indexing by integer literal on an identifier.
            if t.is_punct("[")
                && i > 0
                && toks[i - 1].kind == TokenKind::Ident
                && toks.get(i + 1).is_some_and(|n| n.kind == TokenKind::Int)
                && toks.get(i + 2).is_some_and(|n| n.is_punct("]"))
            {
                out.push(Finding::new(
                    self.id(),
                    ctx.file,
                    t.line,
                    t.col,
                    format!(
                        "indexing `{}[{}]` panics when out of bounds; use .get() \
                         or prove the length with a match",
                        toks[i - 1].text,
                        toks[i + 1].text
                    ),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;
    use crate::source::SourceFile;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::new(path, src);
        let ctx = FileContext::build(&file);
        PanicInPipeline.check(&ctx)
    }

    #[test]
    fn flags_unwrap_expect_and_macros() {
        let f = check(
            "crates/core/src/x.rs",
            "fn f() { a.unwrap(); b.expect(\"msg\"); panic!(\"boom\"); }\n",
        );
        assert_eq!(f.len(), 3);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn flags_literal_indexing() {
        let f = check("crates/index/src/x.rs", "fn f() { let x = parts[0]; }\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("parts[0]"));
    }

    #[test]
    fn ignores_test_regions_and_out_of_scope_crates() {
        assert!(check(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests { fn t() { a.unwrap(); } }\n"
        )
        .is_empty());
        let file = SourceFile::new("crates/imaging/src/x.rs", "fn f() { a.unwrap(); }\n");
        assert!(!PanicInPipeline.applies(&file));
    }

    #[test]
    fn stats_and_hawkes_are_in_scope() {
        // The statistical kernels feed every pipeline stage and the
        // influence estimation; a NaN-provoked panic there takes down
        // the whole run, so both crates sit inside the rule's scope.
        for path in ["crates/stats/src/x.rs", "crates/hawkes/src/x.rs"] {
            let file = SourceFile::new(path, "");
            assert!(
                PanicInPipeline.applies(&file),
                "{path} must be scanned by panic-in-pipeline"
            );
        }
    }

    #[test]
    fn unwrap_or_is_fine() {
        assert!(check("crates/core/src/x.rs", "fn f() { a.unwrap_or(0); }\n").is_empty());
    }

    #[test]
    fn supervision_layer_files_are_in_scope() {
        // The supervised-execution layer (DESIGN.md §11) is panic-free
        // by contract — its entire job is containing panics, so a panic
        // of its own would be self-defeating. Pin every file of the
        // layer into this rule's scope.
        for path in [
            "crates/core/src/checkpoint.rs",
            "crates/core/src/supervise.rs",
            "crates/core/src/quarantine.rs",
            "crates/core/src/pipeline.rs",
        ] {
            let file = SourceFile::new(path, "");
            assert!(
                PanicInPipeline.applies(&file),
                "{path} must be scanned by panic-in-pipeline"
            );
        }
        // Findings inside the layer are reported like any other.
        let f = check(
            "crates/core/src/supervise.rs",
            "fn f() { ckpt.unwrap(); }\n",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn serving_layer_files_are_in_scope() {
        // The serving layer (DESIGN.md §12) answers queries from live
        // traffic; a panic in a worker poisons the queue locks and
        // stalls every connection, so its lib code is held to the same
        // panic-free contract as the pipeline stages.
        for path in [
            "crates/serve/src/snapshot.rs",
            "crates/serve/src/store.rs",
            "crates/serve/src/batch.rs",
            "crates/serve/src/server.rs",
            "crates/serve/src/protocol.rs",
            "crates/serve/src/artifact.rs",
        ] {
            let file = SourceFile::new(path, "");
            assert!(
                PanicInPipeline.applies(&file),
                "{path} must be scanned by panic-in-pipeline"
            );
        }
        let f = check("crates/serve/src/server.rs", "fn f() { job.unwrap(); }\n");
        assert_eq!(f.len(), 1);
    }
}
