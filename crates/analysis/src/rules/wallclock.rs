//! `wallclock-outside-metrics`: wall-clock reads belong to the
//! observability layer.
//!
//! Timing is an observability concern: PR 2 routes every duration
//! through `crates/metrics` spans so that timing never leaks into
//! results (and so the fault-injection clock can be virtualized). An
//! `Instant::now()` in an algorithm crate is either dead weight or —
//! worse — a timestamp about to end up inside supposedly deterministic
//! output. Flags `Instant::now()` / `SystemTime::now()` everywhere
//! except `crates/metrics` and `crates/repro`; tests are exempt by class.

use super::{Finding, Rule, Workspace};
use crate::context::FileContext;
use crate::source::{FileClass, SourceFile};

/// Crates that may read the clock: `metrics` owns time measurement,
/// `repro` logs how long an experiment took on stderr.
const EXEMPT_CRATES: [&str; 2] = ["metrics", "repro"];

pub struct WallclockOutsideMetrics;

impl Rule for WallclockOutsideMetrics {
    fn id(&self) -> &'static str {
        "wallclock-outside-metrics"
    }

    fn summary(&self) -> &'static str {
        "Instant::now/SystemTime::now outside crates/metrics and crates/repro"
    }

    fn check(&self, ws: &Workspace<'_>) -> Vec<Finding> {
        ws.per_file(|f| self.in_scope(f), |ctx| self.check_file(ctx))
    }
}

impl WallclockOutsideMetrics {
    fn in_scope(&self, file: &SourceFile) -> bool {
        matches!(file.class, FileClass::Lib | FileClass::Bin)
            && !EXEMPT_CRATES.contains(&file.crate_name.as_str())
    }

    fn check_file(&self, ctx: &FileContext<'_>) -> Vec<Finding> {
        let toks = &ctx.tokens;
        let mut out = Vec::new();
        for i in 0..toks.len() {
            let t = &toks[i];
            if ctx.is_test_line(t.line) {
                continue;
            }
            let is_clock = t.is_ident("Instant") || t.is_ident("SystemTime");
            if is_clock
                && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && toks.get(i + 2).is_some_and(|n| n.is_ident("now"))
            {
                out.push(Finding::new(
                    self.id(),
                    ctx.file,
                    t.line,
                    t.col,
                    format!(
                        "{}::now() outside the metrics layer; record timing via \
                         a metrics span (crates/metrics) so results stay \
                         deterministic and clocks stay mockable",
                        t.text
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
        WallclockOutsideMetrics.check_file(&ctx)
    }

    #[test]
    fn flags_clock_reads_in_algorithm_crates() {
        let f = check(
            "crates/core/src/x.rs",
            "fn f() { let t = std::time::Instant::now(); }\n",
        );
        assert_eq!(f.len(), 1);
        let f = check("crates/hawkes/src/x.rs", "fn f() { SystemTime::now(); }\n");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn metrics_and_repro_are_exempt() {
        let file = SourceFile::new("crates/metrics/src/span.rs", "");
        assert!(!WallclockOutsideMetrics.in_scope(&file));
        let file = SourceFile::new("crates/repro/src/lib.rs", "");
        assert!(!WallclockOutsideMetrics.in_scope(&file));
        let file = SourceFile::new("crates/core/tests/t.rs", "");
        assert!(!WallclockOutsideMetrics.in_scope(&file));
    }

    #[test]
    fn duration_arithmetic_is_fine() {
        assert!(check(
            "crates/core/src/x.rs",
            "fn f(t: Instant) { let d = t.elapsed(); }\n"
        )
        .is_empty());
    }
}
