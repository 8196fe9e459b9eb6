//! `panic-reachable`: pipeline/serve-scoped lib code must not panic,
//! directly or *transitively*.
//!
//! The PR 1 fault-tolerance work gave every stage a typed error channel
//! (`StageError` → `PipelineError`); an `unwrap()` deep inside a stage
//! bypasses that machinery and turns a recoverable degradation into a
//! process abort mid-run. The rule reports two things under one id:
//!
//! * every **panic site** — `.unwrap()`, `.expect(...)`,
//!   `panic!`/`unreachable!`/`todo!`/`unimplemented!`, and indexing by
//!   an integer literal (`xs[0]`, a hidden panic site) — in the
//!   non-test lib code of a scoped crate, at the token;
//! * every scoped function that **reaches** a panic source over the
//!   pass-1 call graph, at the call. A source is either a function
//!   whose doc comment declares a `# Panics` section (the workspace's
//!   documented panicking-wrapper contract — `MihIndex::new`,
//!   `Image::filled`) or a scoped lib function with a live panic site
//!   in its body.
//!
//! `lint:allow(panic-reachable)` on a site line is the reviewed
//! statement that the panic cannot fire (the crossbeam panic re-raise
//! sites), so the site is *not* a source: propagating it up the call
//! graph would re-litigate that review at every caller. On a call line
//! it both silences the finding there and *absorbs the contract*:
//! callers of the suppressing function are no longer flagged through
//! that edge. Resolution is conservative (see DESIGN.md §13);
//! unresolved calls propagate nothing — the rule never guesses.

use super::{is_macro_call, is_method_call, Finding, Rule, Workspace};
use crate::lexer::{Token, TokenKind};
use crate::source::{FileClass, SourceFile};

/// Crates whose lib code must stay panic-free.
const SCOPED_CRATES: [&str; 7] = [
    "core", "index", "annotate", "cluster", "serve", "stats", "hawkes",
];

/// Panicking macros.
const MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

const ID: &str = "panic-reachable";

pub struct PanicReachable;

fn in_scope(file: &SourceFile) -> bool {
    file.class == FileClass::Lib && SCOPED_CRATES.contains(&file.crate_name.as_str())
}

/// One panic token in scoped, non-test lib code.
struct Site {
    /// Token index in its file.
    token: usize,
    line: u32,
    col: u32,
    /// What the token does, e.g. ``calls `.unwrap()` ``.
    what: String,
    /// The fix direction for the message.
    fix: &'static str,
    /// False under a `lint:allow(panic-reachable)`: reviewed, not a source.
    live: bool,
}

/// The one panic-token detector: what token `i` does if it can panic,
/// and the fix direction.
fn panic_token(toks: &[Token], i: usize) -> Option<(String, &'static str)> {
    let t = &toks[i];
    if is_method_call(toks, i, "unwrap") || is_method_call(toks, i, "expect") {
        Some((
            format!("calls `.{}()`", t.text),
            "propagate a typed error (StageError and friends) instead of aborting the run",
        ))
    } else if MACROS.iter().any(|m| is_macro_call(toks, i, m)) {
        Some((
            format!("invokes `{}!`", t.text),
            "return an error variant or restructure so the case is unrepresentable",
        ))
    } else if t.is_punct("[")
        && i > 0
        && toks[i - 1].kind == TokenKind::Ident
        && toks.get(i + 1).is_some_and(|n| n.kind == TokenKind::Int)
        && toks.get(i + 2).is_some_and(|n| n.is_punct("]"))
    {
        // `xs[0]` — indexing by integer literal on an identifier.
        Some((
            format!("indexes `{}[{}]`", toks[i - 1].text, toks[i + 1].text),
            "use .get() or prove the length with a match",
        ))
    } else {
        None
    }
}

/// Every panic token in the non-test code of one file; none when the
/// file is out of scope.
fn panic_sites(ws: &Workspace<'_>, file_idx: usize) -> Vec<Site> {
    let ctx = &ws.contexts[file_idx];
    if !in_scope(ctx.file) {
        return Vec::new();
    }
    let mut sites = Vec::new();
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_test_line(t.line) {
            continue;
        }
        if let Some((what, fix)) = panic_token(&ctx.tokens, i) {
            sites.push(Site {
                token: i,
                line: t.line,
                col: t.col,
                what,
                fix,
                live: !ws.is_suppressed(file_idx, ID, t.line),
            });
        }
    }
    sites
}

impl Rule for PanicReachable {
    fn id(&self) -> &'static str {
        ID
    }

    fn summary(&self) -> &'static str {
        "unwrap/expect/panic!/literal indexing in pipeline/serve-scoped lib code, or a call \
         that transitively reaches one or a documented-panicking wrapper; use the typed \
         error taxonomy / the try_ variant instead"
    }

    fn check(&self, ws: &Workspace<'_>) -> Vec<Finding> {
        let n = ws.model.functions.len();
        let mut out = Vec::new();

        // --- panic sites: every one is a finding at the token ------
        // (the engine silences the reviewed ones, which marks their
        // lint:allow as used).
        let sites: Vec<Vec<Site>> = (0..ws.contexts.len())
            .map(|file_idx| panic_sites(ws, file_idx))
            .collect();
        for (ctx, file_sites) in ws.contexts.iter().zip(&sites) {
            for s in file_sites {
                let message = format!("{} in a panic-free crate; {}", s.what, s.fix);
                out.push(Finding::new(ID, ctx.file, s.line, s.col, message));
            }
        }

        // --- classify panic sources -------------------------------
        let mut source_desc: Vec<Option<String>> = vec![None; n];
        for (f, desc) in ws.model.functions.iter().zip(&mut source_desc) {
            if f.is_test {
                continue;
            }
            if f.panics_doc {
                *desc = Some("documents `# Panics`".to_string());
            } else if let Some((open, close)) = f.body {
                *desc = sites[f.file]
                    .iter()
                    .find(|s| s.live && (open..=close).contains(&s.token))
                    .map(|s| format!("{} at line {}", s.what, s.line));
            }
        }

        // --- reverse BFS over uncut resolved edges ----------------
        let cut =
            |caller: usize, line: u32| ws.is_suppressed(ws.model.functions[caller].file, ID, line);
        let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for caller in 0..n {
            for call in ws.model.resolved_calls(caller) {
                if !cut(caller, call.line) {
                    radj[call.resolved.expect("resolved")].push(caller);
                }
            }
        }
        let mut dist: Vec<Option<u32>> = vec![None; n];
        let mut queue: Vec<usize> = (0..n).filter(|&f| source_desc[f].is_some()).collect();
        for &s in &queue {
            dist[s] = Some(0);
        }
        let mut head = 0;
        while head < queue.len() {
            let g = queue[head];
            head += 1;
            let d = dist[g].expect("queued nodes have a distance");
            for &caller in &radj[g] {
                if dist[caller].is_none() {
                    dist[caller] = Some(d + 1);
                    queue.push(caller);
                }
            }
        }

        // --- report reachable scoped functions --------------------
        for (fid, desc) in source_desc.iter().enumerate() {
            let f = &ws.model.functions[fid];
            let file = ws.contexts[f.file].file;
            // A source is reported at its sites, not again as a caller.
            if f.is_test || !in_scope(file) || desc.is_some() {
                continue;
            }
            // Every *cut* edge into the reachable set emits — the
            // engine suppresses those findings, which marks each
            // per-edge lint:allow as used. Uncut edges collapse to one
            // live finding at the minimal site: a function is "can
            // reach a panic" once, not per path.
            let mut best_uncut: Option<(u32, String, u32, u32, usize)> = None;
            let mut cut_sites: std::collections::BTreeSet<(u32, u32, usize)> =
                std::collections::BTreeSet::new();
            for call in ws.model.resolved_calls(fid) {
                let g = call.resolved.expect("resolved");
                let Some(dg) = dist[g] else { continue };
                if cut(fid, call.line) {
                    cut_sites.insert((call.line, call.col, g));
                    continue;
                }
                let key = (dg, ws.model.qualified(ws.contexts, g), call.line, call.col);
                if best_uncut
                    .as_ref()
                    .is_none_or(|b| (b.0, &b.1, b.2, b.3) > (key.0, &key.1, key.2, key.3))
                {
                    best_uncut = Some((key.0, key.1, key.2, key.3, g));
                }
            }
            let me = ws.model.qualified(ws.contexts, fid);
            let emit = |line: u32, col: u32, first: usize, out: &mut Vec<Finding>| {
                let (chain, terminal) = chain_from(ws, &dist, &source_desc, first);
                out.push(Finding::new(
                    ID,
                    file,
                    line,
                    col,
                    format!(
                        "`{me}` can reach a panic via `{chain}`; `{terminal_name}` {terminal}. \
                         Call a try_ variant / handle the error, or absorb the contract here \
                         with a reviewed lint:allow(panic-reachable)",
                        terminal_name = chain.rsplit(" -> ").next().unwrap_or(&chain),
                    ),
                ));
            };
            for &(line, col, g) in &cut_sites {
                emit(line, col, g, &mut out);
            }
            if let Some((_, _, line, col, first)) = best_uncut {
                emit(line, col, first, &mut out);
            }
        }
        out
    }
}

/// Deterministic shortest chain from `start` down to a source,
/// rendered as `a -> b -> c`, plus the source's description.
fn chain_from(
    ws: &Workspace<'_>,
    dist: &[Option<u32>],
    source_desc: &[Option<String>],
    start: usize,
) -> (String, String) {
    const MAX_HOPS: usize = 8;
    let mut names = vec![ws.model.qualified(ws.contexts, start)];
    let mut cur = start;
    for _ in 0..MAX_HOPS {
        let d = dist[cur].expect("chain nodes are reachable");
        if d == 0 {
            break;
        }
        let mut next: Option<(String, u32, u32, usize)> = None;
        for call in ws.model.resolved_calls(cur) {
            let g = call.resolved.expect("resolved");
            if dist[g] != Some(d - 1)
                || ws.is_suppressed(ws.model.functions[cur].file, ID, call.line)
            {
                continue;
            }
            let key = (ws.model.qualified(ws.contexts, g), call.line, call.col);
            if next
                .as_ref()
                .is_none_or(|b| (&b.0, b.1, b.2) > (&key.0, key.1, key.2))
            {
                next = Some((key.0, key.1, key.2, g));
            }
        }
        let Some((name, _, _, g)) = next else { break };
        names.push(name);
        cur = g;
    }
    let terminal = match &source_desc[cur] {
        Some(desc) => desc.clone(),
        None => {
            names.push("…".to_string());
            "reaches a panic deeper in the chain".to_string()
        }
    };
    (names.join(" -> "), terminal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        Engine::new().lint_source(&SourceFile::new(path, src))
    }

    #[test]
    fn flags_unwrap_expect_and_macros() {
        let f = check(
            "crates/core/src/x.rs",
            "fn f() { a.unwrap(); b.expect(\"msg\"); panic!(\"boom\"); }\n",
        );
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|f| f.rule == ID && f.line == 1));
    }

    #[test]
    fn flags_literal_indexing_outside_function_bodies_too() {
        let f = check("crates/index/src/x.rs", "fn f() { let x = parts[0]; }\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("parts[0]"));
        // Sites are scanned over the whole file, not only fn bodies.
        let f = check("crates/index/src/x.rs", "const FIRST: u8 = TABLE[0];\n");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn ignores_test_regions_and_out_of_scope_crates() {
        assert!(check(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests { fn t() { a.unwrap(); } }\n"
        )
        .is_empty());
        assert!(check("crates/imaging/src/x.rs", "fn f() { a.unwrap(); }\n").is_empty());
        assert!(check("crates/core/src/bin/x.rs", "fn f() { a.unwrap(); }\n").is_empty());
    }

    #[test]
    fn unwrap_or_is_fine() {
        assert!(check("crates/core/src/x.rs", "fn f() { a.unwrap_or(0); }\n").is_empty());
    }

    #[test]
    fn every_panic_free_layer_is_in_scope() {
        // The statistical kernels (a NaN-provoked panic takes down the
        // whole run), the supervised-execution layer (DESIGN.md §11 —
        // its job is containing panics, so one of its own would be
        // self-defeating) and the serving layer (§12 — a worker panic
        // poisons the queue locks and stalls every connection) are all
        // held to the panic-free contract.
        for path in [
            "crates/stats/src/x.rs",
            "crates/hawkes/src/x.rs",
            "crates/annotate/src/x.rs",
            "crates/cluster/src/x.rs",
            "crates/index/src/x.rs",
            "crates/core/src/checkpoint.rs",
            "crates/core/src/supervise.rs",
            "crates/core/src/quarantine.rs",
            "crates/core/src/pipeline.rs",
            "crates/serve/src/snapshot.rs",
            "crates/serve/src/store.rs",
            "crates/serve/src/batch.rs",
            "crates/serve/src/server.rs",
            "crates/serve/src/protocol.rs",
            "crates/serve/src/artifact.rs",
        ] {
            assert_eq!(check(path, "fn f() { job.unwrap(); }\n").len(), 1, "{path}");
        }
    }

    #[test]
    fn a_reviewed_site_is_not_a_source_but_a_live_one_is() {
        let reviewed = "fn leaf() {\n\
             // lint:allow(panic-reachable): invariant, proven above\n\
             a.unwrap();\n\
             }\n\
             fn caller() { leaf(); }\n";
        assert!(check("crates/core/src/x.rs", reviewed).is_empty());

        let live = "fn leaf() {\n    a.unwrap();\n}\nfn caller() { leaf(); }\n";
        let f = check("crates/core/src/x.rs", live);
        let at: Vec<(u32, u32)> = f.iter().map(|f| (f.line, f.col)).collect();
        assert_eq!(at, [(2, 7), (4, 15)], "site, then caller: {f:?}");
    }
}
