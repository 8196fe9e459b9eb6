//! `alloc-in-hotpath`: no steady-state allocation on annotated hot paths.
//!
//! A `// lint:hotpath(<reason>)` comment on a function marks it as a
//! per-query / per-item path (the serving lookup, the MIH radius
//! queries). This rule takes the transitive closure of those roots over
//! *resolved* call edges and flags allocation-capable expressions in
//! any reached function: `Vec::new`/`with_capacity`/`from`-style
//! container constructors, `.to_string()`/`.to_owned()`/`.to_vec()`/
//! `.clone()`/`.collect()`, and the `format!`/`vec!` macros.
//! `Arc::clone`/`Rc::clone` are refcount bumps, not allocations, and
//! are exempt (they are path calls whose name is not a constructor).
//!
//! Unlike `panic-reachable` there is no edge-cutting: an allocation is
//! a property of the site, so the suppression belongs on the site
//! (`lint:allow(alloc-in-hotpath): <why this alloc is amortized>`).
//! A `lint:hotpath` with no reason is itself a finding — the reason is
//! the budget statement reviewers hold the path to.

use super::{Finding, Rule, Workspace};
use crate::symbols::CallKind;

pub struct AllocInHotpath;

/// Methods that allocate on (nearly) every call.
const ALLOC_METHODS: [&str; 5] = ["to_string", "to_owned", "to_vec", "clone", "collect"];

/// Owning container types whose constructors allocate.
const CONTAINER_TYPES: [&str; 10] = [
    "Vec", "VecDeque", "String", "Box", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Rc", "Arc",
];

/// Constructor names that allocate when qualified by a container type.
/// `clone` is deliberately absent: `Arc::clone`/`Rc::clone` only bump a
/// refcount.
const CTOR_NAMES: [&str; 4] = ["new", "with_capacity", "from", "from_iter"];

impl Rule for AllocInHotpath {
    fn id(&self) -> &'static str {
        "alloc-in-hotpath"
    }

    fn summary(&self) -> &'static str {
        "allocation-capable call reachable from a lint:hotpath function; \
         preallocate, reuse scratch buffers, or hoist out of the per-item path"
    }

    fn check(&self, ws: &Workspace<'_>) -> Vec<Finding> {
        let n = ws.model.functions.len();
        let mut out = Vec::new();

        // Malformed annotations: lint:hotpath with no reason.
        for fid in 0..n {
            let f = &ws.model.functions[fid];
            if let Some(hp) = &f.hotpath {
                if hp.reason.is_none() {
                    out.push(Finding::new(
                        self.id(),
                        ws.contexts[f.file].file,
                        hp.line,
                        hp.col,
                        "malformed lint:hotpath — write `lint:hotpath(<reason>)`; the reason \
                         states the per-item budget this path is held to"
                            .to_string(),
                    ));
                }
            }
        }

        // Multi-source BFS from well-formed roots over resolved edges,
        // with parent pointers for the chain in the message.
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut root_of: Vec<Option<usize>> = vec![None; n];
        let mut queue: Vec<usize> = Vec::new();
        for (fid, root) in root_of.iter_mut().enumerate() {
            let f = &ws.model.functions[fid];
            if !f.is_test && f.hotpath.as_ref().is_some_and(|h| h.reason.is_some()) {
                *root = Some(fid);
                queue.push(fid);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            for call in ws.model.resolved_calls(cur) {
                let g = call.resolved.expect("resolved");
                if root_of[g].is_none() && !ws.model.functions[g].is_test {
                    root_of[g] = root_of[cur];
                    parent[g] = Some(cur);
                    queue.push(g);
                }
            }
        }

        // Scan every reached function for allocation sites.
        for &fid in &queue {
            let root = root_of[fid].expect("queued nodes have a root");
            let f = &ws.model.functions[fid];
            let ctx = &ws.contexts[f.file];
            let file = ctx.file;
            let chain = self.chain(ws, &parent, fid);
            let reason = ws.model.functions[root]
                .hotpath
                .as_ref()
                .and_then(|h| h.reason.clone())
                .unwrap_or_default();
            let flag = |line: u32, col: u32, what: String, out: &mut Vec<Finding>| {
                if ctx.is_test_line(line) {
                    return;
                }
                out.push(Finding::new(
                    self.id(),
                    file,
                    line,
                    col,
                    format!(
                        "{what} on the hot path `{chain}` (lint:hotpath: {reason}); \
                         preallocate or reuse a scratch buffer, or suppress here with \
                         the amortization argument"
                    ),
                ));
            };
            for call in &ws.model.calls[fid] {
                match &call.kind {
                    CallKind::Method if ALLOC_METHODS.contains(&call.name.as_str()) => {
                        flag(
                            call.line,
                            call.col,
                            format!("`.{}()` allocates", call.name),
                            &mut out,
                        );
                    }
                    CallKind::Path(q)
                        if CONTAINER_TYPES.contains(&q.as_str())
                            && CTOR_NAMES.contains(&call.name.as_str()) =>
                    {
                        flag(
                            call.line,
                            call.col,
                            format!("`{q}::{}` allocates", call.name),
                            &mut out,
                        );
                    }
                    _ => {}
                }
            }
            for (mac, _tok, line, col) in &ws.model.alloc_macros[fid] {
                flag(*line, *col, format!("`{mac}!` allocates"), &mut out);
            }
        }
        out
    }
}

impl AllocInHotpath {
    /// Render `root -> ... -> fid` from the BFS parent pointers.
    fn chain(&self, ws: &Workspace<'_>, parent: &[Option<usize>], fid: usize) -> String {
        let mut ids = vec![fid];
        let mut cur = fid;
        while let Some(p) = parent[cur] {
            ids.push(p);
            cur = p;
            if ids.len() > 16 {
                break;
            }
        }
        ids.reverse();
        ids.iter()
            .map(|&id| ws.model.qualified(ws.contexts, id))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}
