//! `panic-reachable`: pipeline/serve-scoped functions must not
//! *transitively* reach a panic.
//!
//! `panic-in-pipeline` catches the panic site itself; this rule walks
//! the pass-1 call graph so the *callers* of panicking wrappers are
//! caught too. A panic **source** is either a function whose doc
//! comment declares a `# Panics` section (the workspace's documented
//! panicking-wrapper contract — `dbscan`, `MihIndex::new`) or a
//! scoped lib function with an unsuppressed panic token in its body.
//! A suppressed-but-undocumented panic (e.g. the crossbeam panic
//! re-raise sites) is *not* a source: the suppression is the reviewed
//! statement that the panic cannot fire, so propagating it up the call
//! graph would re-litigate that review at every caller.
//!
//! A `lint:allow(panic-reachable)` on a call site both silences the
//! finding there and *absorbs the contract*: callers of the suppressing
//! function are no longer flagged through that edge. Resolution is
//! conservative (see DESIGN.md §13); unresolved calls propagate
//! nothing — the rule never guesses.

use super::{
    is_macro_call, is_method_call, panic_in_pipeline::SCOPED_CRATES, Finding, Workspace,
    WorkspaceRule,
};
use crate::lexer::TokenKind;
use crate::source::FileClass;

pub struct PanicReachable;

impl WorkspaceRule for PanicReachable {
    fn id(&self) -> &'static str {
        "panic-reachable"
    }

    fn summary(&self) -> &'static str {
        "pipeline/serve-scoped function transitively reaches unwrap/expect/panic! \
         or a documented-panicking wrapper; call the try_ variant or handle the error"
    }

    fn check(&self, ws: &Workspace<'_>) -> Vec<Finding> {
        let n = ws.model.functions.len();

        // --- classify panic sources -------------------------------
        let mut source_desc: Vec<Option<String>> = vec![None; n];
        for (fid, desc) in source_desc.iter_mut().enumerate() {
            let f = &ws.model.functions[fid];
            if f.is_test {
                continue;
            }
            if f.panics_doc {
                *desc = Some("documents `# Panics`".to_string());
                continue;
            }
            let file = ws.contexts[f.file].file;
            if f.body.is_some()
                && file.class == FileClass::Lib
                && SCOPED_CRATES.contains(&file.crate_name.as_str())
            {
                if let Some((line, what)) = self.first_live_panic(ws, fid) {
                    *desc = Some(format!("{what} at line {line}"));
                }
            }
        }

        // --- reverse BFS over uncut resolved edges ----------------
        let cut = |ws: &Workspace<'_>, caller: usize, line: u32| {
            let file = ws.model.functions[caller].file;
            ws.is_suppressed(file, self.id(), line)
        };
        let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for caller in 0..n {
            for call in ws.model.resolved_calls(caller) {
                if !cut(ws, caller, call.line) {
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
        let mut out = Vec::new();
        for (fid, desc) in source_desc.iter().enumerate() {
            let f = &ws.model.functions[fid];
            let file = ws.contexts[f.file].file;
            if f.is_test
                || file.class != FileClass::Lib
                || !SCOPED_CRATES.contains(&file.crate_name.as_str())
                || desc.is_some()
            {
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
                if cut(ws, fid, call.line) {
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
                let (chain, terminal) = self.chain_from(ws, &dist, first);
                out.push(Finding::new(
                    self.id(),
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

impl PanicReachable {
    /// First unsuppressed panic token in a function body, as
    /// (line, description). Mirrors `panic-in-pipeline`'s detection;
    /// a token covered by a `lint:allow(panic-in-pipeline)` (or
    /// `panic-reachable`) is a reviewed non-panic and does not count.
    fn first_live_panic(&self, ws: &Workspace<'_>, fid: usize) -> Option<(u32, String)> {
        let f = &ws.model.functions[fid];
        let (open, close) = f.body?;
        let ctx = &ws.contexts[f.file];
        let toks = &ctx.tokens;
        for i in open..=close.min(toks.len().saturating_sub(1)) {
            let t = &toks[i];
            if ctx.is_test_line(t.line) {
                continue;
            }
            let what = if is_method_call(toks, i, "unwrap") || is_method_call(toks, i, "expect") {
                Some(format!("calls `.{}()`", t.text))
            } else if super::panic_in_pipeline::MACROS
                .iter()
                .any(|m| is_macro_call(toks, i, m))
            {
                Some(format!("invokes `{}!`", t.text))
            } else if t.is_punct("[")
                && i > open
                && toks[i - 1].kind == TokenKind::Ident
                && toks.get(i + 1).is_some_and(|x| x.kind == TokenKind::Int)
                && toks.get(i + 2).is_some_and(|x| x.is_punct("]"))
            {
                Some(format!(
                    "indexes `{}[{}]`",
                    toks[i - 1].text,
                    toks[i + 1].text
                ))
            } else {
                None
            };
            let Some(what) = what else { continue };
            let reviewed = ws.is_suppressed(f.file, "panic-in-pipeline", t.line)
                || ws.is_suppressed(f.file, "panic-reachable", t.line);
            if !reviewed {
                return Some((t.line, what));
            }
        }
        None
    }

    /// Deterministic shortest chain from `start` down to a source,
    /// rendered as `a -> b -> c`, plus the source's description.
    fn chain_from(
        &self,
        ws: &Workspace<'_>,
        dist: &[Option<u32>],
        start: usize,
    ) -> (String, String) {
        const MAX_HOPS: usize = 8;
        let mut names = vec![ws.model.qualified(ws.contexts, start)];
        let mut cur = start;
        let terminal;
        for _ in 0..MAX_HOPS {
            let d = dist[cur].expect("chain nodes are reachable");
            if d == 0 {
                break;
            }
            let mut next: Option<(String, u32, u32, usize)> = None;
            for call in ws.model.resolved_calls(cur) {
                let g = call.resolved.expect("resolved");
                if dist[g] != Some(d - 1)
                    || ws.is_suppressed(ws.model.functions[cur].file, self.id(), call.line)
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
        if dist[cur] == Some(0) {
            // Recompute the terminal description the same way the
            // source pass did.
            let f = &ws.model.functions[cur];
            terminal = if f.panics_doc {
                "documents `# Panics`".to_string()
            } else {
                self.first_live_panic(ws, cur)
                    .map(|(line, what)| format!("{what} at line {line}"))
                    .unwrap_or_else(|| "panics".to_string())
            };
        } else {
            terminal = "reaches a panic deeper in the chain".to_string();
            names.push("…".to_string());
        }
        (names.join(" -> "), terminal)
    }
}
