//! The rule registry.
//!
//! Each rule is a token-pattern check scoped to the crates where its
//! invariant is load-bearing (DESIGN.md §8 has the catalog and the
//! rationale per rule). Every rule sees the whole [`Workspace`] — each
//! file's tokens, comments and test mask, plus the pass-1 call graph
//! and lock model — and returns [`Finding`]s; the engine applies
//! suppressions afterwards. A rule that needs no cross-file state
//! implements [`Rule::check`] with [`Workspace::per_file`].

mod alloc_in_hotpath;
mod float_eq;
mod lock_order;
mod nondeterministic_iteration;
mod panic_reachable;
mod untyped_error;
mod wallclock;

use crate::context::FileContext;
use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;
use crate::suppress::Suppression;
use crate::symbols::WorkspaceModel;
use serde::{Deserialize, Serialize};

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// The rule that fired.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation with the fix direction.
    pub message: String,
    /// The trimmed source line the finding sits on, so the report
    /// reads without the tree at hand.
    pub key: String,
}

impl Finding {
    /// Build a finding, quoting the source line.
    pub fn new(
        rule: &'static str,
        file: &SourceFile,
        line: u32,
        col: u32,
        message: String,
    ) -> Self {
        let mut key = file.line_text(line).to_string();
        key.truncate(160);
        Self {
            rule: rule.to_string(),
            file: file.path.clone(),
            line,
            col,
            message,
            key,
        }
    }
}

/// A workspace lint rule.
pub trait Rule: Sync + Send {
    /// Stable kebab-case id (used in `lint:allow(...)` and the report).
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules` and the report.
    fn summary(&self) -> &'static str;
    /// Scan the workspace. Findings land in concrete scanned files, so
    /// suppression applies to every rule alike.
    fn check(&self, ws: &Workspace<'_>) -> Vec<Finding>;
}

/// What a rule gets to look at: the per-file contexts, the pass-1
/// [`WorkspaceModel`], and each file's parsed suppressions (so rules
/// that model suppression semantics — `panic-reachable`'s edge cutting
/// — see exactly what the engine will honor).
pub struct Workspace<'a> {
    /// One context per scanned file, in workspace walk order.
    pub contexts: &'a [FileContext<'a>],
    /// The symbol table, call graph, and lock model.
    pub model: &'a WorkspaceModel,
    /// Parsed suppressions, parallel to `contexts`.
    pub suppressions: &'a [Vec<Suppression>],
}

impl Workspace<'_> {
    /// Whether a `lint:allow(rule)` with a reason covers `line` in the
    /// file at context index `file_idx` — the same predicate the engine
    /// applies when silencing findings.
    pub fn is_suppressed(&self, file_idx: usize, rule: &str, line: u32) -> bool {
        self.suppressions[file_idx]
            .iter()
            .any(|s| s.reason.is_some() && s.covers(rule, line))
    }

    /// The findings of a one-file-at-a-time `check` over every file
    /// `in_scope` admits.
    pub(crate) fn per_file(
        &self,
        in_scope: impl Fn(&SourceFile) -> bool,
        check: impl Fn(&FileContext<'_>) -> Vec<Finding>,
    ) -> Vec<Finding> {
        self.contexts
            .iter()
            .filter(|ctx| in_scope(ctx.file))
            .flat_map(check)
            .collect()
    }
}

/// All seven rules, in catalog order.
pub fn builtin_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(nondeterministic_iteration::NondeterministicIteration),
        Box::new(untyped_error::UntypedError),
        Box::new(wallclock::WallclockOutsideMetrics),
        Box::new(float_eq::FloatEq),
        Box::new(panic_reachable::PanicReachable),
        Box::new(lock_order::LockOrder),
        Box::new(alloc_in_hotpath::AllocInHotpath),
    ]
}

/// Engine-level rule ids (suppression hygiene); valid in `lint:allow`
/// checks even though no [`Rule`] produces them.
pub const ENGINE_RULE_IDS: [&str; 2] = ["invalid-suppression", "unused-suppression"];

/// Every valid rule id (the seven rules + engine).
pub fn all_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = builtin_rules().iter().map(|r| r.id()).collect();
    ids.extend(ENGINE_RULE_IDS);
    ids
}

// ----------------------------------------------------------- helpers

/// Whether token `i` is a method name in a `.name(` call.
pub(crate) fn is_method_call(tokens: &[Token], i: usize, name: &str) -> bool {
    tokens[i].is_ident(name)
        && i > 0
        && tokens[i - 1].is_punct(".")
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("("))
}

/// Whether token `i` is a macro invocation `name!(`/`name![`/`name!{`.
pub(crate) fn is_macro_call(tokens: &[Token], i: usize, name: &str) -> bool {
    tokens[i].is_ident(name)
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("!"))
        && tokens
            .get(i + 2)
            .is_some_and(|t| t.is_punct("(") || t.is_punct("[") || t.is_punct("{"))
}

/// Index of the start of the statement containing token `i`: one past
/// the previous `;`, `{`, or `}` at the same nesting level walking
/// backwards (approximate, but line-accurate for idiomatic code).
pub(crate) fn statement_start(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j > 0 {
        let t = &tokens[j - 1];
        if t.is_punct(")") || t.is_punct("]") {
            depth += 1;
        } else if t.is_punct("(") || t.is_punct("[") {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(";") || t.is_punct("{") || t.is_punct("}")) {
            return j;
        }
        j -= 1;
    }
    0
}

/// Index one past the end of the statement containing token `i`: the
/// next `;` at bracket depth 0, the opening `{` of a block (for-loop
/// bodies), the `}` closing the enclosing block (tail expressions), or
/// end of stream.
pub(crate) fn statement_end(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if depth == 0 && t.is_punct(";") {
            return j + 1;
        } else if depth == 0 && (t.is_punct("{") || t.is_punct("}")) {
            return j;
        }
        j += 1;
    }
    tokens.len()
}

/// The identifier bound by `let [mut] <name>` at the start of the
/// statement beginning at `start`, if the statement is a let-binding.
pub(crate) fn let_binding_name(tokens: &[Token], start: usize) -> Option<&str> {
    let mut j = start;
    if !tokens.get(j)?.is_ident("let") {
        return None;
    }
    j += 1;
    if tokens.get(j)?.is_ident("mut") {
        j += 1;
    }
    let t = tokens.get(j)?;
    (t.kind == TokenKind::Ident).then_some(t.text.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn registry_ids_are_unique_and_kebab() {
        let ids = all_rule_ids();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        for id in ids {
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{id}"
            );
        }
    }

    #[test]
    fn statement_bounds() {
        let toks = lex("let a = b.iter().collect(); x.sort();").tokens;
        let iter_pos = toks.iter().position(|t| t.is_ident("iter")).unwrap();
        assert_eq!(statement_start(&toks, iter_pos), 0);
        let end = statement_end(&toks, iter_pos);
        assert!(toks[end - 1].is_punct(";"));
        assert_eq!(let_binding_name(&toks, 0), Some("a"));
    }

    #[test]
    fn method_and_macro_detection() {
        let toks = lex("a.unwrap(); panic!(\"x\"); unwrap(); b.unwrap_or(1);").tokens;
        let at = |name: &str, occurrence: usize| {
            toks.iter()
                .enumerate()
                .filter(|(_, t)| t.is_ident(name))
                .nth(occurrence)
                .map(|(i, _)| i)
                .unwrap()
        };
        assert!(is_method_call(&toks, at("unwrap", 0), "unwrap"));
        assert!(!is_method_call(&toks, at("unwrap", 1), "unwrap")); // bare call
        assert!(is_macro_call(&toks, at("panic", 0), "panic"));
        assert!(!is_method_call(&toks, at("unwrap_or", 0), "unwrap"));
    }
}
