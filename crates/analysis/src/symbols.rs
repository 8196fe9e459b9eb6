//! Pass 1 of the workspace analysis: the symbol table and call model.
//!
//! Built once per lint run from the already-lexed token streams, this
//! module extracts every function definition (free functions and
//! `impl`/`trait` methods), every call site, every lock acquisition,
//! every blocking primitive, and every `// lint:hotpath(<reason>)`
//! annotation — and resolves calls to workspace definitions where the
//! resolution is *unambiguous*. Anything else is recorded as
//! unresolved; the interprocedural rules never guess (DESIGN.md §13).
//!
//! The extraction is token-level, like the rest of the linter: no type
//! information, no trait dispatch. The resolution rules are therefore
//! deliberately conservative:
//!
//! * `name(…)` (bare) resolves iff exactly one free function `name`
//!   exists at the narrowest matching scope — same file, then same
//!   crate, then workspace.
//! * `recv.name(…)` (method) resolves iff exactly one workspace method
//!   is called `name` across all `impl`/`trait` blocks.
//! * `Type::name(…)` (path) resolves by the qualifier's last segment:
//!   a capitalized segment must match the defining `impl` type, a
//!   lowercase one the defining file stem or crate.

use crate::context::FileContext;
use crate::lexer::{Comment, Token, TokenKind};
use std::collections::BTreeMap;

/// A `// lint:hotpath(<reason>)` annotation attached to a function.
#[derive(Debug, Clone)]
pub struct Hotpath {
    /// The reviewed reason; `None` when the annotation is malformed
    /// (empty or unterminated reason) — itself a finding.
    pub reason: Option<String>,
    /// 1-based line of the annotation comment.
    pub line: u32,
    /// 1-based column of the annotation comment.
    pub col: u32,
}

/// One function (or method) definition.
#[derive(Debug, Clone)]
pub struct FunctionDef {
    /// The function's name.
    pub name: String,
    /// The enclosing `impl`/`trait` type, when this is a method.
    pub qself: Option<String>,
    /// Index into the lint run's file list.
    pub file: usize,
    /// 1-based line of the function name.
    pub line: u32,
    /// 1-based column of the function name.
    pub col: u32,
    /// Token range `[open, close]` of the body braces; `None` for
    /// bodiless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the definition sits in test code.
    pub is_test: bool,
    /// Whether the doc comment above carries a `# Panics` section —
    /// the workspace's documented-panicking-wrapper contract.
    pub panics_doc: bool,
    /// The `lint:hotpath` annotation, when present.
    pub hotpath: Option<Hotpath>,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)`.
    Bare,
    /// `recv.name(…)`.
    Method,
    /// `Qualifier::name(…)` — the qualifier is the last path segment.
    Path(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// Bare / method / path form.
    pub kind: CallKind,
    /// Token index of the callee name in the defining file's stream.
    pub token: usize,
    /// 1-based line of the callee name.
    pub line: u32,
    /// 1-based column of the callee name.
    pub col: u32,
    /// Resolved callee (index into [`WorkspaceModel::functions`]);
    /// `None` when no workspace definition or more than one matched.
    pub resolved: Option<usize>,
}

/// A `.lock()`/`.read()`/`.write()` guard acquisition.
#[derive(Debug, Clone)]
pub struct LockEvent {
    /// Canonical lock id: `Type::field` for `self.field` receivers in
    /// a known `impl`, the raw receiver chain otherwise.
    pub lock: String,
    /// Which acquisition method (`lock`, `read`, `write`).
    pub method: String,
    /// Guard binding name, when let-bound.
    pub guard: Option<String>,
    /// Token index of the acquisition method name.
    pub token: usize,
    /// One past the last token index where the guard is live: end of
    /// the enclosing block for let-bound guards (truncated at a
    /// `drop(<guard>)`), end of statement for temporaries.
    pub until: usize,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// 1-based column of the acquisition.
    pub col: u32,
}

/// A call to a blocking primitive (condvar wait, channel recv, file or
/// socket I/O, thread join).
#[derive(Debug, Clone)]
pub struct BlockingCall {
    /// Display form, e.g. `.recv()`.
    pub what: String,
    /// Token index of the method/function name.
    pub token: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// For `.wait(guard)`/`.wait_timeout(guard, …)`: the guard variable
    /// the condvar atomically releases for the duration of the wait.
    pub releases: Option<String>,
}

/// The workspace symbol table and call model (pass 1 output).
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    /// Every function definition, in (file, body-start) order.
    pub functions: Vec<FunctionDef>,
    /// Call sites per function (same index as `functions`).
    pub calls: Vec<Vec<CallSite>>,
    /// Lock acquisitions per function.
    pub locks: Vec<Vec<LockEvent>>,
    /// Blocking primitives per function.
    pub blocking: Vec<Vec<BlockingCall>>,
    /// Alloc-capable macro uses (`format!`, `vec!`) per function, as
    /// (macro name, token, line, col).
    pub alloc_macros: Vec<Vec<(String, usize, u32, u32)>>,
}

impl WorkspaceModel {
    /// Build the model over an already-lexed file set.
    pub fn build(ctxs: &[FileContext<'_>]) -> Self {
        let mut model = WorkspaceModel::default();
        for (fi, ctx) in ctxs.iter().enumerate() {
            extract_functions(fi, ctx, &mut model.functions);
        }
        let n = model.functions.len();
        model.calls = vec![Vec::new(); n];
        model.locks = vec![Vec::new(); n];
        model.blocking = vec![Vec::new(); n];
        model.alloc_macros = vec![Vec::new(); n];
        for (fi, ctx) in ctxs.iter().enumerate() {
            extract_bodies(fi, ctx, &mut model);
        }
        resolve_calls(ctxs, &mut model);
        model
    }

    /// `crate::Type::name` / `crate::name` display form.
    pub fn qualified(&self, ctxs: &[FileContext<'_>], id: usize) -> String {
        let f = &self.functions[id];
        let krate = &ctxs[f.file].file.crate_name;
        match &f.qself {
            Some(t) => format!("{krate}::{t}::{}", f.name),
            None => format!("{krate}::{}", f.name),
        }
    }

    /// Resolved call edges of `id`, in source order.
    pub fn resolved_calls(&self, id: usize) -> impl Iterator<Item = &CallSite> {
        self.calls[id].iter().filter(|c| c.resolved.is_some())
    }
}

/// Keywords that can be directly followed by `(` without being calls.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "match", "return", "for", "in", "as", "move", "let", "fn",
];

/// Higher-order combinators whose single argument may be a function
/// reference worth an implicit call edge (`.map(double)`).
const HOF_COMBINATORS: [&str; 20] = [
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "map_while",
    "for_each",
    "retain",
    "and_then",
    "or_else",
    "map_err",
    "unwrap_or_else",
    "is_some_and",
    "is_none_or",
    "position",
    "find_map",
    "take_while",
    "skip_while",
    "inspect",
    "then",
    "spawn",
];

/// Method names shared with std collections / iterators / io: a
/// workspace method with one of these names is never resolved by
/// name-uniqueness alone, because the receiver is far more likely to
/// be a `HashMap`/`Vec`/`str` than the workspace type. Calls through
/// `self.name(...)` or an explicit `Type::name(...)` path still
/// resolve — there the receiver type is known.
const STD_METHOD_NAMES: [&str; 45] = [
    "entry",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "append",
    "extend",
    "clear",
    "take",
    "replace",
    "contains",
    "contains_key",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "keys",
    "values",
    "next",
    "peek",
    "clone",
    "join",
    "split",
    "parse",
    "find",
    "fmt",
    "eq",
    "cmp",
    "partial_cmp",
    "hash",
    "default",
    "min",
    "max",
    "send",
    "recv",
    "flush",
    "read",
    "write",
    "lock",
    "wait",
    "count",
    "sum",
    // `AtomicBool::load` and friends: a workspace `load` method must
    // not capture every atomic read.
    "load",
];

// ------------------------------------------------- function extraction

fn extract_functions(fi: usize, ctx: &FileContext<'_>, out: &mut Vec<FunctionDef>) {
    let toks = &ctx.tokens;
    let comments_by_line = comments_by_line(&ctx.comments);
    let token_lines = token_line_info(toks);
    let mut depth: i32 = 0;
    // (depth of the impl/trait body, type name).
    let mut impl_stack: Vec<(i32, String)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            while impl_stack.last().is_some_and(|(d, _)| *d > depth) {
                impl_stack.pop();
            }
        } else if (t.is_ident("impl") || t.is_ident("trait")) && !in_type_position(toks, i) {
            if let Some(ty) = impl_subject(toks, i) {
                impl_stack.push((depth + 1, ty));
            }
        } else if t.is_ident("fn") && toks.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) {
            let name_tok = &toks[i + 1];
            let (panics_doc, hotpath) =
                doc_block_info(name_tok.line, &comments_by_line, &token_lines);
            out.push(FunctionDef {
                name: name_tok.text.clone(),
                qself: impl_stack.last().map(|(_, t)| t.clone()),
                file: fi,
                line: name_tok.line,
                col: name_tok.col,
                body: find_body(toks, i + 2),
                is_test: ctx.is_test_line(name_tok.line),
                panics_doc,
                hotpath,
            });
        }
        i += 1;
    }
}

/// `impl` as part of a type (`-> impl Iterator`, `&impl Fn()`, `dyn`)
/// rather than the start of an impl block.
fn in_type_position(toks: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).map(|j| &toks[j]) else {
        return false;
    };
    if prev.kind == TokenKind::Punct {
        return matches!(
            prev.text.as_str(),
            "->" | "(" | "," | "<" | "&" | ":" | "=" | "+" | "|"
        );
    }
    prev.is_ident("dyn")
}

/// The type an `impl`/`trait` block defines methods on: the segment
/// after the final `for` when present (`impl Trait for Type`), the last
/// path segment otherwise. Generics and `where` clauses are skipped.
fn impl_subject(toks: &[Token], i: usize) -> Option<String> {
    let is_trait = toks[i].is_ident("trait");
    let mut segs: Vec<&str> = Vec::new();
    let mut angle = 0i32;
    let mut j = i + 1;
    while j < toks.len() {
        let t = &toks[j];
        if angle == 0 {
            if t.is_punct("{") {
                break;
            }
            if t.is_punct(";") {
                return None;
            }
            if t.is_ident("where") || (is_trait && t.is_punct(":")) {
                break;
            }
        }
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if angle == 0 && t.kind == TokenKind::Ident {
            segs.push(&t.text);
        }
        j += 1;
    }
    if is_trait {
        return segs.first().map(|s| s.to_string());
    }
    if let Some(pos) = segs.iter().rposition(|s| *s == "for") {
        return segs.get(pos + 1).map(|s| s.to_string());
    }
    segs.last().map(|s| s.to_string())
}

/// The `{…}` body token range of a fn whose signature starts at `j`,
/// or `None` for a bodiless (`;`-terminated) declaration.
fn find_body(toks: &[Token], mut j: usize) -> Option<(usize, usize)> {
    while j < toks.len() {
        if toks[j].is_punct(";") {
            return None;
        }
        if toks[j].is_punct("{") {
            break;
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let open = j;
    let mut depth = 0i32;
    while j < toks.len() {
        if toks[j].is_punct("{") {
            depth += 1;
        } else if toks[j].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some((open, j));
            }
        }
        j += 1;
    }
    Some((open, toks.len().saturating_sub(1)))
}

fn comments_by_line(comments: &[Comment]) -> BTreeMap<u32, Vec<&Comment>> {
    let mut map: BTreeMap<u32, Vec<&Comment>> = BTreeMap::new();
    for c in comments {
        map.entry(c.line).or_default().push(c);
    }
    map
}

/// For each 1-based line: (has any token, first token text).
fn token_line_info(toks: &[Token]) -> BTreeMap<u32, String> {
    let mut map: BTreeMap<u32, String> = BTreeMap::new();
    for t in toks {
        map.entry(t.line).or_insert_with(|| t.text.clone());
    }
    map
}

/// Walk the doc/attribute block directly above a `fn` at `fn_line`:
/// doc comments are scanned for a `# Panics` section, plain comments
/// for a `lint:hotpath(<reason>)` annotation. Attribute lines (first
/// token `#`, or continuation punctuation) are stepped over; anything
/// else ends the block.
fn doc_block_info(
    fn_line: u32,
    comments: &BTreeMap<u32, Vec<&Comment>>,
    token_lines: &BTreeMap<u32, String>,
) -> (bool, Option<Hotpath>) {
    let mut panics = false;
    let mut hotpath: Option<Hotpath> = None;
    let scan = |ln: u32, panics: &mut bool, hotpath: &mut Option<Hotpath>| {
        for c in comments.get(&ln).map(Vec::as_slice).unwrap_or(&[]) {
            if ["///", "/**"].iter().any(|p| c.text.starts_with(p)) {
                if c.text.contains("# Panics") {
                    *panics = true;
                }
            } else if let Some(h) = parse_hotpath(c) {
                *hotpath = Some(h);
            }
        }
    };
    // Trailing annotation on the signature line itself also counts.
    scan(fn_line, &mut panics, &mut hotpath);
    let mut ln = fn_line;
    while ln > 1 {
        ln -= 1;
        match token_lines.get(&ln) {
            // Attribute line (`#[…]`) or a multi-line attribute tail:
            // step over it, ignoring any trailing comment.
            Some(first) if first == "#" || first == ")" || first == "]" => continue,
            // Any other code line ends the item's block — a trailing
            // comment there belongs to *that* line's item.
            Some(_) => break,
            // Comment-only line: part of this item's doc block.
            None if comments.contains_key(&ln) => {
                scan(ln, &mut panics, &mut hotpath);
            }
            // Blank line: ends the block.
            None => break,
        }
    }
    (panics, hotpath)
}

/// Parse `lint:hotpath(<reason>)` out of a plain comment.
fn parse_hotpath(c: &Comment) -> Option<Hotpath> {
    const MARKER: &str = "lint:hotpath";
    let start = c.text.find(MARKER)?;
    let after = &c.text[start + MARKER.len()..];
    let reason = after
        .strip_prefix('(')
        .and_then(|rest| rest.find(')').map(|end| rest[..end].trim().to_string()))
        .filter(|r| !r.is_empty());
    Some(Hotpath {
        reason,
        line: c.line,
        col: c.col,
    })
}

// ----------------------------------------------------- body extraction

/// Methods that block the calling thread outright.
const BLOCKING_METHODS: [&str; 12] = [
    "wait",
    "wait_timeout",
    "wait_while",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "accept",
    "connect",
    "read_line",
    "read_to_string",
    "read_to_end",
    "write_all",
];

/// Path-call names that are blocking I/O (`TcpStream::connect`,
/// `fs::read_to_string`, `File::open`, …).
const BLOCKING_PATH_CALLS: [&str; 6] = [
    "connect",
    "bind",
    "open",
    "create",
    "read_to_string",
    "copy",
];

fn extract_bodies(fi: usize, ctx: &FileContext<'_>, model: &mut WorkspaceModel) {
    let toks = &ctx.tokens;
    // Function defs of this file, in body-start order (extraction order
    // already guarantees outer-before-inner for nested fns).
    let defs: Vec<usize> = (0..model.functions.len())
        .filter(|&id| model.functions[id].file == fi && model.functions[id].body.is_some())
        .collect();
    let mut next = 0usize;
    let mut active: Vec<usize> = Vec::new();
    let mut skip_attr_until = 0usize;

    for i in 0..toks.len() {
        while next < defs.len() && model.functions[defs[next]].body.unwrap().0 == i {
            active.push(defs[next]);
            next += 1;
        }
        while let Some(&top) = active.last() {
            if i > model.functions[top].body.unwrap().1 {
                active.pop();
            } else {
                break;
            }
        }
        let Some(&cur) = active.last() else { continue };

        // Attribute contents (`#[cfg(test)]`) look like calls; skip them.
        if i < skip_attr_until {
            continue;
        }
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < toks.len() {
                if toks[j].is_punct("[") {
                    depth += 1;
                } else if toks[j].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            skip_attr_until = j + 1;
            continue;
        }

        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }

        // Alloc-capable macros.
        if (t.text == "format" || t.text == "vec")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            model.alloc_macros[cur].push((t.text.clone(), i, t.line, t.col));
            continue;
        }

        // Calls: `name(`.
        if !toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            // Function-reference argument: `.map(double)` — a lone
            // lowercase ident as the sole argument of a known
            // higher-order combinator. Recorded as a bare call site —
            // resolution gives it an edge solely when exactly one
            // workspace free fn matches, since the token is otherwise
            // just a variable. The combinator allowlist keeps struct
            // literal shorthand (`Profile { events, .. }`) and macro
            // arguments (`write!(f, .., x)`) out of the model.
            let prev = i.checked_sub(1).map(|j| &toks[j]);
            let next = toks.get(i + 1);
            let arg_start = prev.is_some_and(|p| p.is_punct("("))
                && i.checked_sub(2).is_some_and(|j| {
                    let h = &toks[j];
                    h.kind == TokenKind::Ident && HOF_COMBINATORS.contains(&h.text.as_str())
                });
            if arg_start
                && next.is_some_and(|n| n.is_punct(")"))
                && t.text.starts_with(|c: char| c.is_ascii_lowercase())
                && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
                && t.text != "drop"
                && t.text != "self"
            {
                model.calls[cur].push(CallSite {
                    name: t.text.clone(),
                    kind: CallKind::Bare,
                    token: i,
                    line: t.line,
                    col: t.col,
                    resolved: None,
                });
            }
            continue;
        }
        let prev = i.checked_sub(1).map(|j| &toks[j]);
        let is_method = prev.is_some_and(|p| p.is_punct("."));
        let is_path = prev.is_some_and(|p| p.is_punct("::"));

        if is_method {
            // Lock acquisition: `.lock()` / `.read()` / `.write()` with
            // *empty* parens (with arguments these are I/O, handled as
            // blocking calls below).
            let empty = toks.get(i + 2).is_some_and(|n| n.is_punct(")"));
            if empty && matches!(t.text.as_str(), "lock" | "read" | "write") {
                let lock = canonical_lock_id(toks, i, &model.functions[cur]);
                let stmt = crate::rules::statement_start(toks, i);
                let guard = crate::rules::let_binding_name(toks, stmt)
                    .filter(|n| *n != "_")
                    .map(str::to_string);
                let until = if guard.is_some() {
                    guard_block_end(toks, i, guard.as_deref())
                } else {
                    crate::rules::statement_end(toks, i)
                };
                model.locks[cur].push(LockEvent {
                    lock,
                    method: t.text.clone(),
                    guard,
                    token: i,
                    until,
                    line: t.line,
                    col: t.col,
                });
                continue;
            }
            // Blocking primitives.
            let io_rw = matches!(t.text.as_str(), "read" | "write") && !empty;
            let join = t.text == "join" && empty;
            if BLOCKING_METHODS.contains(&t.text.as_str()) || io_rw || join {
                let releases = (t.text.starts_with("wait"))
                    .then(|| {
                        toks.get(i + 2)
                            .filter(|n| n.kind == TokenKind::Ident)
                            .map(|n| n.text.clone())
                    })
                    .flatten();
                model.blocking[cur].push(BlockingCall {
                    what: format!(".{}()", t.text),
                    token: i,
                    line: t.line,
                    col: t.col,
                    releases,
                });
                // `.read(buf)`/`.write(buf)` are not workspace calls;
                // the rest still get recorded as (method) call sites so
                // blocking callees resolve transitively.
            }
            model.calls[cur].push(CallSite {
                name: t.text.clone(),
                kind: CallKind::Method,
                token: i,
                line: t.line,
                col: t.col,
                resolved: None,
            });
        } else if is_path {
            let qualifier = path_qualifier(toks, i);
            if BLOCKING_PATH_CALLS.contains(&t.text.as_str())
                && qualifier.as_deref().is_some_and(is_io_qualifier)
            {
                model.blocking[cur].push(BlockingCall {
                    what: format!("{}::{}()", qualifier.as_deref().unwrap_or(""), t.text),
                    token: i,
                    line: t.line,
                    col: t.col,
                    releases: None,
                });
            }
            model.calls[cur].push(CallSite {
                name: t.text.clone(),
                kind: CallKind::Path(qualifier.unwrap_or_default()),
                token: i,
                line: t.line,
                col: t.col,
                resolved: None,
            });
        } else {
            // Bare call. Keywords, CamelCase tuple-struct / enum
            // constructors (`Some`, `Ok`, `GroupId`), and `drop` (it
            // ends guard lifetimes; never a workspace fn) are not
            // calls the model should chase.
            if NON_CALL_KEYWORDS.contains(&t.text.as_str())
                || t.text == "drop"
                || t.text.starts_with(|c: char| c.is_ascii_uppercase())
                || prev.is_some_and(|p| p.is_ident("fn"))
            {
                continue;
            }
            model.calls[cur].push(CallSite {
                name: t.text.clone(),
                kind: CallKind::Bare,
                token: i,
                line: t.line,
                col: t.col,
                resolved: None,
            });
        }
    }
}

/// `TcpStream`, `File`, `fs`, `net`, … — qualifiers whose blocking
/// path-calls we recognize.
fn is_io_qualifier(q: &str) -> bool {
    matches!(
        q,
        "TcpStream" | "TcpListener" | "UnixStream" | "UnixListener" | "File" | "fs" | "net"
    )
}

/// The last path segment before `name` in `A::B::name(`.
fn path_qualifier(toks: &[Token], name_idx: usize) -> Option<String> {
    let seg = name_idx.checked_sub(2).map(|j| &toks[j])?;
    (seg.kind == TokenKind::Ident).then(|| seg.text.clone())
}

/// Canonical lock id for the receiver of `.lock()`/`.read()`/`.write()`
/// at token `i`: `Type::field.path` when the chain starts at `self` in
/// a known impl, the literal receiver chain otherwise.
fn canonical_lock_id(toks: &[Token], i: usize, def: &FunctionDef) -> String {
    // Walk `recv(.recv)*` backwards from the `.` before the method.
    let mut segs: Vec<&str> = Vec::new();
    let mut j = i.checked_sub(2); // token before the `.`
    while let Some(k) = j {
        let t = &toks[k];
        if t.kind != TokenKind::Ident {
            break;
        }
        segs.push(&t.text);
        match k.checked_sub(1).map(|p| &toks[p]) {
            Some(p) if p.is_punct(".") || p.is_punct("::") => j = k.checked_sub(2),
            _ => break,
        }
    }
    segs.reverse();
    if segs.is_empty() {
        return "<expr>".to_string();
    }
    if segs[0] == "self" {
        if let Some(ty) = &def.qself {
            return format!("{ty}::{}", segs[1..].join("."));
        }
    }
    segs.join(".")
}

/// One past the `}` closing the block enclosing token `i`, truncated at
/// a `drop(<guard>)` of the named guard.
fn guard_block_end(toks: &[Token], i: usize, guard: Option<&str>) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if let Some(g) = guard {
            if t.is_ident("drop")
                && toks.get(j + 1).is_some_and(|n| n.is_punct("("))
                && toks.get(j + 2).is_some_and(|n| n.is_ident(g))
                && toks.get(j + 3).is_some_and(|n| n.is_punct(")"))
            {
                return j;
            }
        }
        j += 1;
    }
    toks.len()
}

// ---------------------------------------------------------- resolution

fn resolve_calls(ctxs: &[FileContext<'_>], model: &mut WorkspaceModel) {
    // Name maps over definitions. BTreeMap for deterministic iteration.
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, f) in model.functions.iter().enumerate() {
        match f.qself {
            None => free.entry(&f.name).or_default().push(id),
            Some(_) => methods.entry(&f.name).or_default().push(id),
        }
    }

    let file_stem = |fi: usize| -> &str {
        let path = ctxs[fi].file.path.as_str();
        path.rsplit('/')
            .next()
            .and_then(|n| n.strip_suffix(".rs"))
            .unwrap_or("")
    };

    let mut calls = std::mem::take(&mut model.calls);
    for (caller, sites) in calls.iter_mut().enumerate() {
        let caller_file = model.functions[caller].file;
        let caller_crate = ctxs[caller_file].file.crate_name.as_str();
        for call in sites {
            call.resolved = match &call.kind {
                CallKind::Bare => {
                    let empty: Vec<usize> = Vec::new();
                    let cands = free.get(call.name.as_str()).unwrap_or(&empty);
                    let same_file: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&id| model.functions[id].file == caller_file)
                        .collect();
                    let same_crate: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&id| {
                            ctxs[model.functions[id].file].file.crate_name == caller_crate
                        })
                        .collect();
                    pick(&[&same_file, &same_crate, cands])
                }
                CallKind::Method => {
                    let empty: Vec<usize> = Vec::new();
                    let cands = methods.get(call.name.as_str()).unwrap_or(&empty);
                    // `self.name(...)`: the receiver type is the
                    // caller's own impl type — resolve within it.
                    let toks = &ctxs[caller_file].tokens;
                    let self_recv = call.token >= 2
                        && toks[call.token - 2].is_ident("self")
                        && !(call.token >= 3 && toks[call.token - 3].is_punct("."));
                    if self_recv {
                        let qself = model.functions[caller].qself.as_deref();
                        let own: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&id| {
                                model.functions[id].qself.as_deref() == qself
                                    && ctxs[model.functions[id].file].file.crate_name
                                        == caller_crate
                            })
                            .collect();
                        pick(&[&own])
                    } else if STD_METHOD_NAMES.contains(&call.name.as_str()) {
                        // Receiver unknown and the name collides with
                        // std: `map.entry(k)` must not resolve to a
                        // workspace `entry` method.
                        None
                    } else {
                        pick(&[cands])
                    }
                }
                CallKind::Path(q) => {
                    let q: &str = if q == "Self" {
                        model.functions[caller].qself.as_deref().unwrap_or(q)
                    } else {
                        q
                    };
                    let is_type = q.starts_with(|c: char| c.is_ascii_uppercase());
                    let cands: Vec<usize> = if is_type {
                        methods
                            .get(call.name.as_str())
                            .map(|v| {
                                v.iter()
                                    .copied()
                                    .filter(|&id| model.functions[id].qself.as_deref() == Some(q))
                                    .collect()
                            })
                            .unwrap_or_default()
                    } else {
                        free.get(call.name.as_str())
                            .map(|v| {
                                v.iter()
                                    .copied()
                                    .filter(|&id| {
                                        let fi = model.functions[id].file;
                                        let krate = ctxs[fi].file.crate_name.as_str();
                                        file_stem(fi) == q
                                            || krate == q
                                            || q.strip_prefix("meme_") == Some(krate)
                                    })
                                    .collect()
                            })
                            .unwrap_or_default()
                    };
                    pick(&[&cands])
                }
            };
        }
    }
    model.calls = calls;
}

/// Resolve against candidate lists from narrowest to widest scope: the
/// first non-empty list decides — a single entry resolves, more than
/// one is ambiguous (unresolved). All lists empty is unresolved too.
fn pick(scopes: &[&Vec<usize>]) -> Option<usize> {
    for cands in scopes {
        match cands.len() {
            0 => continue,
            1 => return Some(cands[0]),
            _ => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn model_of(files: &[(&str, &str)]) -> (Vec<SourceFile>, WorkspaceModel) {
        let files: Vec<SourceFile> = files.iter().map(|(p, t)| SourceFile::new(*p, *t)).collect();
        let ctxs: Vec<FileContext> = files.iter().map(FileContext::build).collect();
        let model = WorkspaceModel::build(&ctxs);
        (files, model)
    }

    fn find<'m>(m: &'m WorkspaceModel, name: &str) -> (usize, &'m FunctionDef) {
        m.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn extracts_free_fns_and_methods() {
        let (_f, m) = model_of(&[(
            "crates/core/src/x.rs",
            "pub fn free() {}\n\
             struct S;\n\
             impl S {\n    fn method(&self) {}\n}\n\
             impl std::fmt::Display for S {\n    fn fmt(&self) {}\n}\n\
             trait T {\n    fn required(&self);\n    fn provided(&self) {}\n}\n",
        )]);
        assert_eq!(find(&m, "free").1.qself, None);
        assert_eq!(find(&m, "method").1.qself.as_deref(), Some("S"));
        assert_eq!(find(&m, "fmt").1.qself.as_deref(), Some("S"));
        assert_eq!(find(&m, "required").1.body, None);
        assert_eq!(find(&m, "provided").1.qself.as_deref(), Some("T"));
    }

    #[test]
    fn impl_in_return_type_is_not_a_block() {
        let (_f, m) = model_of(&[(
            "crates/core/src/x.rs",
            "fn gen() -> impl Iterator<Item = u32> {\n    (0..3).map(double)\n}\n\
             fn double(x: u32) -> u32 { x * 2 }\n",
        )]);
        assert_eq!(find(&m, "double").1.qself, None);
        let (gid, _) = find(&m, "gen");
        let resolved: Vec<&str> = m.resolved_calls(gid).map(|c| c.name.as_str()).collect();
        assert_eq!(resolved, ["double"]);
    }

    #[test]
    fn resolution_prefers_same_file_then_crate() {
        let (_f, m) = model_of(&[
            (
                "crates/core/src/a.rs",
                "fn helper() {}\nfn caller() { helper(); }\n",
            ),
            ("crates/core/src/b.rs", "fn helper() {}\n"),
        ]);
        let (caller, _) = find(&m, "caller");
        let call = m.resolved_calls(caller).next().unwrap();
        let target = call.resolved.unwrap();
        assert_eq!(m.functions[target].file, 0, "same-file helper wins");
    }

    #[test]
    fn ambiguous_methods_are_recorded_not_guessed() {
        let (_f, m) = model_of(&[(
            "crates/core/src/x.rs",
            "struct A;\nstruct B;\n\
             impl A {\n    fn go(&self) {}\n}\n\
             impl B {\n    fn go(&self) {}\n}\n\
             fn caller(a: A) { a.go(); }\n",
        )]);
        let (caller, _) = find(&m, "caller");
        assert_eq!(m.resolved_calls(caller).count(), 0);
        let sites: Vec<(&str, Option<usize>)> = m.calls[caller]
            .iter()
            .map(|c| (c.name.as_str(), c.resolved))
            .collect();
        assert_eq!(
            sites,
            [("go", None)],
            "the ambiguous call site stays unresolved"
        );
    }

    #[test]
    fn qualified_path_disambiguates() {
        let (_f, m) = model_of(&[(
            "crates/core/src/x.rs",
            "struct A;\nstruct B;\n\
             impl A {\n    fn go() {}\n}\n\
             impl B {\n    fn go() {}\n}\n\
             fn caller() { A::go(); }\n",
        )]);
        let (caller, _) = find(&m, "caller");
        let call = m.resolved_calls(caller).next().unwrap();
        let target = call.resolved.unwrap();
        assert_eq!(m.functions[target].qself.as_deref(), Some("A"));
    }

    #[test]
    fn panics_doc_and_hotpath_are_attached() {
        let (_f, m) = model_of(&[(
            "crates/cluster/src/x.rs",
            "/// Does things.\n\
             ///\n\
             /// # Panics\n\
             /// Panics when empty.\n\
             pub fn medoids() {}\n\
             // lint:hotpath(steady-state lookup)\n\
             #[inline]\n\
             pub fn lookup() {}\n\
             // lint:hotpath()\n\
             pub fn malformed() {}\n\
             pub fn plain() {}\n",
        )]);
        assert!(find(&m, "medoids").1.panics_doc);
        let hp = find(&m, "lookup").1.hotpath.as_ref().unwrap();
        assert_eq!(hp.reason.as_deref(), Some("steady-state lookup"));
        let bad = find(&m, "malformed").1.hotpath.as_ref().unwrap();
        assert!(bad.reason.is_none());
        assert!(find(&m, "plain").1.hotpath.is_none());
        assert!(!find(&m, "plain").1.panics_doc);
    }

    #[test]
    fn lock_guard_lifetimes() {
        let (_f, m) = model_of(&[(
            "crates/serve/src/x.rs",
            "struct Q { inner: std::sync::Mutex<u32> }\n\
             impl Q {\n\
                 fn bound(&self) {\n\
                     let g = self.inner.lock().unwrap_or_else(e);\n\
                     use_it(&g);\n\
                     drop(g);\n\
                     after();\n\
                 }\n\
                 fn temp(&self) {\n\
                     *self.inner.lock().unwrap_or_else(e) += 1;\n\
                     after();\n\
                 }\n\
             }\n\
             fn use_it(_g: &u32) {}\nfn after() {}\nfn e(x: u32) -> u32 { x }\n",
        )]);
        let (bound, _) = find(&m, "bound");
        let lk = &m.locks[bound][0];
        assert_eq!(lk.lock, "Q::inner");
        assert_eq!(lk.guard.as_deref(), Some("g"));
        // `drop(g)` truncates the range before `after()`.
        let after_call = m.calls[bound]
            .iter()
            .find(|c| c.name == "after")
            .unwrap()
            .token;
        assert!(lk.until < after_call);

        let (temp, _) = find(&m, "temp");
        let lk = &m.locks[temp][0];
        assert_eq!(lk.guard, None);
        let after_call = m.calls[temp]
            .iter()
            .find(|c| c.name == "after")
            .unwrap()
            .token;
        // `until` is exclusive: statement_end points one past the `;`,
        // which is the `after` token itself.
        assert!(lk.until <= after_call, "temporary dies at statement end");
    }

    #[test]
    fn blocking_and_wait_release() {
        let (_f, m) = model_of(&[(
            "crates/serve/src/x.rs",
            "fn f(rx: R, cv: C, g: G) {\n\
                 rx.recv();\n\
                 let g2 = cv.wait(g2);\n\
             }\n",
        )]);
        let (fid, _) = find(&m, "f");
        let whats: Vec<&str> = m.blocking[fid].iter().map(|b| b.what.as_str()).collect();
        assert_eq!(whats, [".recv()", ".wait()"]);
        assert_eq!(m.blocking[fid][1].releases.as_deref(), Some("g2"));
    }

    #[test]
    fn attribute_contents_are_not_calls() {
        let (_f, m) = model_of(&[(
            "crates/core/src/x.rs",
            "fn f() {\n    #[allow(dead_code)]\n    let x = 1;\n}\n",
        )]);
        let (fid, _) = find(&m, "f");
        assert!(m.calls[fid].is_empty());
    }
}
