//! `untyped-error`: public APIs return the PR 1 error taxonomy, not
//! stringly-typed errors.
//!
//! PR 1 gave each subsystem a typed error enum (`DistError`,
//! `HawkesError`, `ClusterError`, `AnnotateError`, `IndexError`,
//! `PipelineError`); callers match on variants to decide
//! retry-vs-degrade-vs-abort. A `Result<_, String>` or
//! `Box<dyn Error>` return erases that contract. Flags function
//! signatures whose error type is `String` or `Box<dyn …Error…>`, and
//! `map_err` closures that stringify an error (`.to_string()`) without
//! wrapping it in a taxonomy type. Lib code in all crates; binaries
//! (CLI arg parsing) and tests are exempt.

use super::{Finding, Rule, Workspace};
use crate::context::FileContext;
use crate::lexer::{Token, TokenKind};
use crate::source::{FileClass, SourceFile};

pub struct UntypedError;

impl Rule for UntypedError {
    fn id(&self) -> &'static str {
        "untyped-error"
    }

    fn summary(&self) -> &'static str {
        "Result<_, String> / Box<dyn Error> escaping a public API instead of the typed taxonomy"
    }

    fn check(&self, ws: &Workspace<'_>) -> Vec<Finding> {
        ws.per_file(|f| self.in_scope(f), |ctx| self.check_file(ctx))
    }
}

impl UntypedError {
    fn in_scope(&self, file: &SourceFile) -> bool {
        file.class == FileClass::Lib
    }

    fn check_file(&self, ctx: &FileContext<'_>) -> Vec<Finding> {
        let toks = &ctx.tokens;
        let mut out = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if ctx.is_test_line(t.line) {
                i += 1;
                continue;
            }
            // `-> Result<…, ERR>` with ERR == String or Box<dyn …>.
            if t.is_punct("->") && toks.get(i + 1).is_some_and(|n| n.is_ident("Result")) {
                if let Some((err_start, err_end, close)) = error_type_span(toks, i + 2) {
                    let err = &toks[err_start..err_end];
                    if is_untyped(err) {
                        out.push(Finding::new(
                            self.id(),
                            ctx.file,
                            toks[err_start].line,
                            toks[err_start].col,
                            "error type is stringly-typed; return one of the \
                             workspace error enums (DistError, HawkesError, \
                             ClusterError, AnnotateError, IndexError, \
                             PipelineError, …) so callers can match on variants"
                                .to_string(),
                        ));
                    }
                    i = close;
                    continue;
                }
            }
            // `.map_err(|e| e.to_string())` — stringifying instead of wrapping.
            if super::is_method_call(toks, i, "map_err") {
                let close = matching_paren(toks, i + 1);
                let body = &toks[i + 2..close.min(toks.len())];
                let stringifies = (0..body.len())
                    .any(|k| super::is_method_call(body, k, "to_string"))
                    || body.iter().any(|b| b.is_ident("format"));
                let wraps = body
                    .iter()
                    .any(|b| b.kind == TokenKind::Ident && b.text.ends_with("Error"));
                if stringifies && !wraps {
                    out.push(Finding::new(
                        self.id(),
                        ctx.file,
                        t.line,
                        t.col,
                        "map_err stringifies the error; wrap it in a taxonomy \
                         variant so context survives to the caller"
                            .to_string(),
                    ));
                }
                i = close.min(toks.len());
                continue;
            }
            i += 1;
        }
        out
    }
}

/// Given the index of the `<` after `Result`, return
/// `(err_start, err_end, index_after_closing_gt)` for the error type —
/// the generic argument after the last depth-1 comma. None for a bare
/// `Result` alias (single-argument aliases carry their own error type).
fn error_type_span(toks: &[Token], lt: usize) -> Option<(usize, usize, usize)> {
    if !toks.get(lt)?.is_punct("<") {
        return None;
    }
    let mut depth = 1i32;
    let mut j = lt + 1;
    let mut last_comma: Option<usize> = None;
    while j < toks.len() && depth > 0 {
        let t = &toks[j];
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
        } else if t.is_punct("->") {
            // `Fn(..) -> ..` inside generics; ignore.
        } else if t.is_punct(",") && depth == 1 {
            last_comma = Some(j);
        }
        j += 1;
    }
    let close = j; // one past the closing `>`
    let err_start = last_comma? + 1;
    Some((err_start, close - 1, close))
}

/// Whether a token span denotes a stringly error type.
fn is_untyped(err: &[Token]) -> bool {
    if err.len() == 1 && err[0].is_ident("String") {
        return true;
    }
    // Box<dyn Error…> / Box<dyn std::error::Error…>
    err.first().is_some_and(|t| t.is_ident("Box")) && err.iter().any(|t| t.is_ident("Error"))
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct("(") {
            depth += 1;
        } else if toks[j].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;
    use crate::source::SourceFile;

    fn check(src: &str) -> Vec<Finding> {
        let file = SourceFile::new("crates/core/src/x.rs", src);
        let ctx = FileContext::build(&file);
        UntypedError.check_file(&ctx)
    }

    #[test]
    fn flags_result_string() {
        let f = check("fn f() -> Result<(), String> { Ok(()) }\n");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn flags_box_dyn_error() {
        let f = check("fn f() -> Result<u32, Box<dyn std::error::Error>> { Ok(1) }\n");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn typed_errors_are_fine() {
        assert!(check("fn f() -> Result<(), PipelineError> { Ok(()) }\n").is_empty());
        assert!(
            check("fn f() -> Result<Vec<u8>, crate::error::IndexError> { Ok(vec![]) }\n")
                .is_empty()
        );
    }

    #[test]
    fn nested_generics_pick_the_right_comma() {
        // HashMap<String, u64> inside the Ok type must not confuse the
        // error-position logic.
        assert!(
            check("fn f() -> Result<HashMap<String, u64>, IndexError> { todo!() }\n").is_empty()
        );
        let f = check("fn f() -> Result<HashMap<String, u64>, String> { todo!() }\n");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn map_err_stringify_flagged_wrap_fine() {
        let f = check("fn f() { x.map_err(|e| e.to_string())?; }\n");
        assert_eq!(f.len(), 1);
        assert!(check("fn f() { x.map_err(|e| IndexError::Io(e.to_string()))?; }\n").is_empty());
    }
}
