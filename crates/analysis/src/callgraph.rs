//! The `callgraph.json` artifact.
//!
//! `memes-lint graph --out callgraph.json` dumps the pass-1 workspace
//! model (see [`crate::symbols`]) so the CI archive carries the same
//! graph the interprocedural rules ran on: every function with its
//! qualification and annotations, every *resolved* edge with a call
//! count, and every call the resolver declined to guess about.

use crate::context::FileContext;
use crate::error::AnalysisError;
use crate::symbols::{Unresolved, WorkspaceModel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Schema version of `callgraph.json`; bump on incompatible change.
pub const CALLGRAPH_SCHEMA_VERSION: u32 = 1;

/// One function node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphFunction {
    /// Node id — index into `functions`.
    pub id: u32,
    /// `crate::Type::name` / `crate::name` display form.
    pub qualified: String,
    /// Workspace-relative defining file.
    pub file: String,
    /// 1-based line of the name.
    pub line: u32,
    /// 1-based column of the name.
    pub col: u32,
    /// File class (`lib`, `bin`, `test`, …).
    pub class: String,
    /// Whether the definition sits in test code.
    pub is_test: bool,
    /// Whether the doc comment declares `# Panics`.
    pub panics_doc: bool,
    /// Whether a `lint:hotpath` annotation is attached.
    pub hotpath: bool,
}

/// One resolved caller→callee edge (call sites collapsed).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphEdge {
    /// Caller node id.
    pub caller: u32,
    /// Callee node id.
    pub callee: u32,
    /// 1-based line of the first call site.
    pub line: u32,
    /// 1-based column of the first call site.
    pub col: u32,
    /// Number of call sites collapsed into this edge.
    pub count: u32,
}

/// One call the resolver recorded but did not resolve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphUnresolved {
    /// Caller node id.
    pub caller: u32,
    /// Callee name as written.
    pub name: String,
    /// `bare` / `method` / `path`.
    pub kind: String,
    /// `ambiguous` (several workspace matches) or `unknown` (none).
    pub reason: String,
    /// 1-based line of the first occurrence.
    pub line: u32,
    /// 1-based column of the first occurrence.
    pub col: u32,
    /// Number of call sites collapsed into this entry.
    pub count: u32,
}

/// Rollup counts.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GraphTotals {
    /// Function nodes.
    pub functions: u32,
    /// Resolved edges.
    pub edges: u32,
    /// Unresolved entries.
    pub unresolved: u32,
}

/// The full `callgraph.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CallGraph {
    /// Must equal [`CALLGRAPH_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Producing tool (`"memes-lint"`).
    pub tool: String,
    /// All function nodes, in (file, position) order.
    pub functions: Vec<GraphFunction>,
    /// Resolved edges, sorted by (caller, callee).
    pub edges: Vec<GraphEdge>,
    /// Unresolved calls, sorted by (caller, name, kind).
    pub unresolved: Vec<GraphUnresolved>,
    /// Rollup counts.
    pub totals: GraphTotals,
}

impl CallGraph {
    /// Project the workspace model into the dump form.
    pub fn from_model(model: &WorkspaceModel, ctxs: &[FileContext<'_>]) -> Self {
        let functions: Vec<GraphFunction> = model
            .functions
            .iter()
            .enumerate()
            .map(|(id, f)| GraphFunction {
                id: id as u32,
                qualified: model.qualified(ctxs, id),
                file: ctxs[f.file].file.path.clone(),
                line: f.line,
                col: f.col,
                class: ctxs[f.file].file.class.name().to_string(),
                is_test: f.is_test,
                panics_doc: f.panics_doc,
                hotpath: f.hotpath.is_some(),
            })
            .collect();

        let mut edge_map: BTreeMap<(u32, u32), GraphEdge> = BTreeMap::new();
        for (caller, _) in model.functions.iter().enumerate() {
            for call in model.resolved_calls(caller) {
                let callee = call.resolved.expect("resolved_calls filters") as u32;
                edge_map
                    .entry((caller as u32, callee))
                    .and_modify(|e| e.count += 1)
                    .or_insert(GraphEdge {
                        caller: caller as u32,
                        callee,
                        line: call.line,
                        col: call.col,
                        count: 1,
                    });
            }
        }
        let edges: Vec<GraphEdge> = edge_map.into_values().collect();

        let unresolved: Vec<GraphUnresolved> = model
            .unresolved
            .iter()
            .map(|u| GraphUnresolved {
                caller: u.caller as u32,
                name: u.name.clone(),
                kind: u.kind.clone(),
                reason: match u.why {
                    Unresolved::Ambiguous => "ambiguous".to_string(),
                    Unresolved::Unknown => "unknown".to_string(),
                },
                line: u.line,
                col: u.col,
                count: u.count,
            })
            .collect();

        let totals = GraphTotals {
            functions: functions.len() as u32,
            edges: edges.len() as u32,
            unresolved: unresolved.len() as u32,
        };
        CallGraph {
            schema_version: CALLGRAPH_SCHEMA_VERSION,
            tool: "memes-lint".to_string(),
            functions,
            edges,
            unresolved,
            totals,
        }
    }

    /// Serialize (pretty, trailing newline).
    pub fn to_json(&self) -> Result<String, AnalysisError> {
        crate::report::to_pretty_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let files: Vec<SourceFile> = files.iter().map(|(p, t)| SourceFile::new(*p, *t)).collect();
        let ctxs: Vec<FileContext> = files.iter().map(FileContext::build).collect();
        let model = WorkspaceModel::build(&ctxs);
        CallGraph::from_model(&model, &ctxs)
    }

    #[test]
    fn dump_roundtrips() {
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            "fn a() { b(); b(); c.mystery(); }\nfn b() {}\n",
        )]);
        assert_eq!(g.functions.len(), 2);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].count, 2, "call sites collapse into one edge");
        let text = g.to_json().unwrap();
        let back: CallGraph = serde_json::from_str(&text).unwrap();
        assert_eq!(back.totals.functions, 2);
        assert_eq!(back.to_json().unwrap(), text);
    }

    #[test]
    fn dump_is_deterministic() {
        let files = [("crates/core/src/x.rs", "fn a() { b(); }\nfn b() { a(); }\n")];
        let t1 = graph_of(&files).to_json().unwrap();
        let t2 = graph_of(&files).to_json().unwrap();
        assert_eq!(t1, t2);
    }
}
