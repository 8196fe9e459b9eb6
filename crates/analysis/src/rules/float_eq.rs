//! `float-eq`: no direct `==`/`!=` on floating-point values.
//!
//! The statistical crates (`stats`, `phash`, `hawkes`) are exactly
//! where float round-off bites: an `x == 0.0` guard that holds on one
//! machine can fail after a reassociated sum on another, changing
//! KS/perceptual-hash/Hawkes results silently. Compare against an
//! explicit tolerance, or restructure so exact zero is a represented
//! state (e.g. an Option) rather than a sentinel. Findings here are
//! expected to live in the baseline until each guard is audited — some
//! sentinel comparisons *are* exact by construction, and earn a
//! `lint:allow` with the proof in the reason.

use super::{Finding, Rule, Workspace};
use crate::context::FileContext;
use crate::lexer::{Token, TokenKind};
use crate::source::{FileClass, SourceFile};
use std::collections::HashSet;

/// Crates doing float-heavy numerics.
const SCOPED_CRATES: [&str; 3] = ["stats", "phash", "hawkes"];

pub struct FloatEq;

impl Rule for FloatEq {
    fn id(&self) -> &'static str {
        "float-eq"
    }

    fn summary(&self) -> &'static str {
        "direct ==/!= on floating-point values in stats/phash/hawkes"
    }

    fn check(&self, ws: &Workspace<'_>) -> Vec<Finding> {
        ws.per_file(|f| self.in_scope(f), |ctx| self.check_file(ctx))
    }
}

impl FloatEq {
    fn in_scope(&self, file: &SourceFile) -> bool {
        file.class == FileClass::Lib && SCOPED_CRATES.contains(&file.crate_name.as_str())
    }

    fn check_file(&self, ctx: &FileContext<'_>) -> Vec<Finding> {
        let toks = &ctx.tokens;
        let floats = float_idents(toks);
        let mut out = Vec::new();
        for i in 0..toks.len() {
            let t = &toks[i];
            if !(t.is_punct("==") || t.is_punct("!=")) {
                continue;
            }
            if ctx.is_test_line(t.line) {
                continue;
            }
            let prev = i.checked_sub(1).map(|j| &toks[j]);
            let next = toks.get(i + 1);
            if operand_is_float(prev, &floats) || operand_is_float(next, &floats) {
                out.push(Finding::new(
                    self.id(),
                    ctx.file,
                    t.line,
                    t.col,
                    format!(
                        "`{}` on a float; compare with an explicit tolerance \
                         (or justify exactness with lint:allow and a proof)",
                        t.text
                    ),
                ));
            }
        }
        out
    }
}

/// Whether a comparison operand token is float-valued: a float literal,
/// or an identifier annotated `: f64`/`: f32` somewhere in the file.
fn operand_is_float(t: Option<&Token>, floats: &HashSet<&str>) -> bool {
    match t {
        Some(t) if t.kind == TokenKind::Float => true,
        Some(t) if t.kind == TokenKind::Ident => floats.contains(t.text.as_str()),
        _ => false,
    }
}

/// Identifiers annotated as `f64`/`f32` (`name: f64` bindings, params,
/// fields) anywhere in the file.
fn float_idents(toks: &[Token]) -> HashSet<&str> {
    let mut out = HashSet::new();
    for i in 2..toks.len() {
        if (toks[i].is_ident("f64") || toks[i].is_ident("f32"))
            && toks[i - 1].is_punct(":")
            && toks[i - 2].kind == TokenKind::Ident
        {
            out.insert(toks[i - 2].text.as_str());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;
    use crate::source::SourceFile;

    fn check(src: &str) -> Vec<Finding> {
        let file = SourceFile::new("crates/stats/src/x.rs", src);
        let ctx = FileContext::build(&file);
        FloatEq.check_file(&ctx)
    }

    #[test]
    fn flags_literal_comparisons() {
        assert_eq!(check("fn f(q: f64) -> bool { q == 0.0 }\n").len(), 1);
        assert_eq!(check("fn f(q: f64) -> bool { 1.0 != q }\n").len(), 1);
    }

    #[test]
    fn flags_annotated_float_idents() {
        assert_eq!(check("fn f(a: f64, b: f64) -> bool { a == b }\n").len(), 1);
    }

    #[test]
    fn integer_comparisons_are_fine() {
        assert!(check("fn f(n: usize) -> bool { n == 0 }\n").is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        assert!(check("#[test]\nfn t() { assert!(x == 0.5); }\n").is_empty());
    }

    #[test]
    fn out_of_scope_crates_skip() {
        let file = SourceFile::new("crates/core/src/x.rs", "");
        assert!(!FloatEq.in_scope(&file));
    }
}
