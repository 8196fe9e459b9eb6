//! `nondeterministic-iteration`: HashMap/HashSet iteration order must
//! not reach outputs.
//!
//! The pipeline's headline invariant is byte-identical output for a
//! fixed seed, across thread counts and across run/resume. `HashMap`
//! iteration order is randomized per process, so collecting a map's
//! entries into a `Vec` without sorting bakes nondeterminism into
//! whatever consumes that `Vec` — cluster IDs, medoid picks, JSON
//! arrays. Flags `.iter()`/`.keys()`/`.values()`/`.into_iter()`/
//! `.drain()` on an identifier known to be a `HashMap`/`HashSet`
//! when the same statement `.collect()`s and no `sort` appears in the
//! statement or on the binding shortly after. Re-collecting into
//! another keyed container (`HashMap`/`HashSet`/`BTreeMap`/`BTreeSet`)
//! is fine, as is order-insensitive consumption (for-loop
//! accumulation, `.sum()`, `.len()`).

use super::{
    is_method_call, let_binding_name, statement_end, statement_start, Finding, Rule, Workspace,
};
use crate::context::FileContext;
use crate::lexer::{Token, TokenKind};
use crate::source::{FileClass, SourceFile};
use std::collections::HashSet;

/// Crates whose outputs feed PipelineOutput/checkpoints.
const SCOPED_CRATES: [&str; 4] = ["core", "cluster", "annotate", "index"];

/// Iteration methods whose order is the map's internal order.
const ITER_METHODS: [&str; 6] = ["iter", "into_iter", "keys", "values", "drain", "iter_mut"];

/// How many tokens after the statement to look for a follow-up
/// `<binding>.sort…` call.
const SORT_LOOKAHEAD: usize = 48;

pub struct NondeterministicIteration;

impl Rule for NondeterministicIteration {
    fn id(&self) -> &'static str {
        "nondeterministic-iteration"
    }

    fn summary(&self) -> &'static str {
        "HashMap/HashSet iteration collected into ordered output without a sort"
    }

    fn check(&self, ws: &Workspace<'_>) -> Vec<Finding> {
        ws.per_file(|f| self.in_scope(f), |ctx| self.check_file(ctx))
    }
}

impl NondeterministicIteration {
    fn in_scope(&self, file: &SourceFile) -> bool {
        file.class == FileClass::Lib && SCOPED_CRATES.contains(&file.crate_name.as_str())
    }

    fn check_file(&self, ctx: &FileContext<'_>) -> Vec<Finding> {
        let toks = &ctx.tokens;
        let hashed = hashed_idents(toks);
        let mut out = Vec::new();
        for i in 0..toks.len() {
            let t = &toks[i];
            if ctx.is_test_line(t.line) {
                continue;
            }
            let is_iter = ITER_METHODS.iter().any(|m| is_method_call(toks, i, m));
            if !is_iter {
                continue;
            }
            // Receiver must be a known hash container: `name.iter()` or
            // `name.entry_chain().iter()` — take the first ident of the
            // dotted chain walking back.
            let Some(recv) = receiver_ident(toks, i) else {
                continue;
            };
            if !hashed.contains(recv) {
                continue;
            }
            let start = statement_start(toks, i);
            let end = statement_end(toks, i);
            let stmt = &toks[start..end];
            // Only ordered materialization is a problem.
            if !(0..stmt.len()).any(|k| is_method_call(stmt, k, "collect")) {
                continue;
            }
            // Re-keying into another unordered/ordered map is fine.
            if stmt.iter().any(is_map_ident) {
                continue;
            }
            // A tail-expression collect inherits the fn's return type:
            // `fn f(..) -> BTreeMap<..> { m.iter()...collect() }`.
            if start > 0 && toks[start - 1].is_punct("{") && return_type_is_map(toks, start - 1) {
                continue;
            }
            // Sorted within the statement (`…collect(); v.sort()` is a
            // separate statement — handled by the lookahead below).
            if stmt.iter().any(is_sort_token) {
                continue;
            }
            // `let v = map.iter()…collect(); v.sort…` within a short
            // window downstream.
            if let Some(bind) = let_binding_name(toks, start) {
                let window_end = (end + SORT_LOOKAHEAD).min(toks.len());
                let mut sorted_later = false;
                let mut k = end;
                while k + 2 < window_end {
                    if toks[k].is_ident(bind)
                        && toks[k + 1].is_punct(".")
                        && is_sort_token(&toks[k + 2])
                    {
                        sorted_later = true;
                        break;
                    }
                    k += 1;
                }
                if sorted_later {
                    continue;
                }
            }
            out.push(Finding::new(
                self.id(),
                ctx.file,
                t.line,
                t.col,
                format!(
                    "`{recv}` is a HashMap/HashSet; collecting its iteration \
                     order without sorting makes downstream output depend on \
                     hasher state — sort with a deterministic key (and a \
                     tiebreak) before it escapes",
                ),
            ));
        }
        out
    }
}

/// Identifiers bound or typed as `HashMap`/`HashSet` anywhere in the
/// file: `let m: HashMap<…>`, `let m = HashMap::new()`,
/// `m: HashMap<…>` (struct fields / params), plus
/// `…::<HashMap<…>>` turbofish collects assigned via `let`.
fn hashed_idents(toks: &[Token]) -> HashSet<&str> {
    let mut out = HashSet::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet")) {
            continue;
        }
        // Walk back over `:` / `=` / `::` / turbofish to the binding.
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            if p.is_punct(":")
                || p.is_punct("=")
                || p.is_punct("::")
                || p.is_punct("<")
                || p.is_punct("(")
                || p.is_ident("mut")
                || p.is_ident("let")
            {
                j -= 1;
                continue;
            }
            break;
        }
        if j > 0 && toks[j - 1].kind == TokenKind::Ident {
            out.insert(toks[j - 1].text.as_str());
        }
    }
    out
}

/// The base identifier of the dotted receiver chain ending at the
/// method-name token `i` (`self.map.iter()` → `map`; the field nearest
/// the call is the container).
fn receiver_ident(toks: &[Token], i: usize) -> Option<&str> {
    // toks[i] is the method name, toks[i-1] is `.`.
    let prev = toks.get(i.checked_sub(2)?)?;
    (prev.kind == TokenKind::Ident).then_some(prev.text.as_str())
}

fn is_sort_token(t: &Token) -> bool {
    t.kind == TokenKind::Ident && t.text.starts_with("sort")
}

fn is_map_ident(t: &Token) -> bool {
    t.is_ident("HashMap")
        || t.is_ident("HashSet")
        || t.is_ident("BTreeMap")
        || t.is_ident("BTreeSet")
}

/// Whether the tokens between the nearest preceding `->` and the brace
/// at `brace` (a function's return type) name a keyed container.
fn return_type_is_map(toks: &[Token], brace: usize) -> bool {
    let from = brace.saturating_sub(24);
    let Some(arrow) = (from..brace).rev().find(|&j| {
        toks[j].is_punct("->")
            || toks[j].is_punct(";")
            || toks[j].is_punct("{")
            || toks[j].is_punct("}")
    }) else {
        return false;
    };
    toks[arrow].is_punct("->") && toks[arrow + 1..brace].iter().any(is_map_ident)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;
    use crate::source::SourceFile;

    fn check(src: &str) -> Vec<Finding> {
        let file = SourceFile::new("crates/core/src/x.rs", src);
        let ctx = FileContext::build(&file);
        NondeterministicIteration.check_file(&ctx)
    }

    #[test]
    fn flags_unsorted_collect() {
        let f = check(
            "use std::collections::HashMap;\n\
             fn f(m: HashMap<String, u64>) -> Vec<String> {\n\
                 m.keys().cloned().collect()\n\
             }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn sorted_in_statement_is_fine() {
        // `.collect::<Vec<_>>()` then sorted via sorted-adapter ident.
        assert!(check(
            "fn f() {\n\
                 let m: std::collections::HashMap<u32, u32> = Default::default();\n\
                 let mut v: Vec<u32> = m.keys().copied().collect();\n\
                 v.sort_unstable();\n\
             }\n",
        )
        .is_empty());
    }

    #[test]
    fn recollect_into_map_is_fine() {
        assert!(check(
            "use std::collections::{HashMap, HashSet};\n\
             fn f(m: HashMap<u32, u32>) -> HashSet<u32> {\n\
                 m.keys().copied().collect::<HashSet<u32>>()\n\
             }\n",
        )
        .is_empty());
    }

    #[test]
    fn for_loop_accumulation_is_fine() {
        assert!(check(
            "fn f(m: std::collections::HashMap<u32, u32>) -> u32 {\n\
                 let mut s = 0;\n\
                 for (_, v) in m.iter() { s += v; }\n\
                 s\n\
             }\n",
        )
        .is_empty());
    }

    #[test]
    fn tail_expression_does_not_inherit_next_items_signature() {
        // The tail expression's statement ends at the fn's closing
        // brace; a following fn mentioning HashMap must not trigger
        // the re-key-into-map exemption.
        let f = check(
            "use std::collections::HashMap;\n\
             fn a(m: HashMap<u32, u32>) -> Vec<u32> {\n\
                 m.keys().copied().collect()\n\
             }\n\
             fn b(m: HashMap<u32, u32>) -> usize { m.len() }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn plain_vec_is_not_flagged() {
        assert!(
            check("fn f(v: Vec<u32>) -> Vec<u32> { v.iter().copied().collect() }\n").is_empty()
        );
    }
}
