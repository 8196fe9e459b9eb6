//! Drives the fixture corpus under `tests/fixtures/`.
//!
//! Every fixture is a *file set* linted as one unit through
//! `Engine::lint_files` (a single-file fixture is a set of one), so
//! cross-file resolution, edge-cutting suppressions and transitive
//! closures are exercised by the same driver as the per-file idioms.
//! Expected findings are declared inline with `//~ <rule>` markers on
//! the offending line; `//~ <rule> @ <col>` additionally pins the exact
//! 1-based column, so diagnostic spans are locked down, not just
//! counts. A set with no markers (`ok.rs`: known-good idioms) must lint
//! clean. Fixtures are lexed-only data files — the workspace walker
//! skips `fixtures` directories, and cargo never compiles them.

use meme_analysis::{Engine, SourceFile};
use std::fs;
use std::path::Path;

const CORE: &str = "crates/core/src/fixture.rs";
const STATS: &str = "crates/stats/src/fixture.rs";

/// (fixture directory, [(file name, synthetic workspace path)]) — the
/// path places each file inside a crate the rule under test is scoped
/// to.
const FIXTURES: [(&str, &[(&str, &str)]); 15] = [
    ("nondeterministic-iteration", &[("ok.rs", CORE)]),
    ("nondeterministic-iteration", &[("bad.rs", CORE)]),
    ("untyped-error", &[("ok.rs", CORE)]),
    ("untyped-error", &[("bad.rs", CORE)]),
    ("wallclock-outside-metrics", &[("ok.rs", CORE)]),
    ("wallclock-outside-metrics", &[("bad.rs", CORE)]),
    ("float-eq", &[("ok.rs", STATS)]),
    ("float-eq", &[("bad.rs", STATS)]),
    ("panic-reachable", &[("ok.rs", CORE)]),
    ("panic-reachable", &[("bad.rs", CORE)]),
    ("suppressions", &[("ok.rs", CORE)]),
    ("suppressions", &[("bad.rs", CORE)]),
    (
        "workspace/panic-reachable",
        &[
            ("cluster.rs", "crates/cluster/src/fixture_cluster.rs"),
            ("pipeline.rs", "crates/core/src/fixture_pipeline.rs"),
        ],
    ),
    (
        "workspace/lock-order",
        &[
            ("queue.rs", "crates/serve/src/fixture_queue.rs"),
            ("store.rs", "crates/serve/src/fixture_store.rs"),
        ],
    ),
    (
        "workspace/alloc-in-hotpath",
        &[
            ("index.rs", "crates/index/src/fixture_index.rs"),
            ("serve.rs", "crates/serve/src/fixture_serve.rs"),
        ],
    ),
];

/// One expected or reported finding: (synthetic file, line, rule) and,
/// when pinned, the column.
type Mark = ((String, u32, String), Option<u32>);

fn parse_markers(synthetic: &str, text: &str) -> Vec<Mark> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let Some(pos) = line.find("//~") else {
            continue;
        };
        let spec = line[pos + 3..].trim();
        let (rule, col) = match spec.split_once('@') {
            Some((r, c)) => (
                r.trim(),
                Some(c.trim().parse::<u32>().expect("column in marker")),
            ),
            None => (spec, None),
        };
        out.push(((synthetic.to_string(), i as u32 + 1, rule.to_string()), col));
    }
    out
}

fn load(dir: &str, files: &[(&str, &str)]) -> Vec<SourceFile> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    files
        .iter()
        .map(|(name, synthetic)| {
            let path = root.join(dir).join(name);
            let text = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
            SourceFile::new(*synthetic, text)
        })
        .collect()
}

#[test]
fn fixtures_match_their_markers_exactly() {
    for (dir, files) in FIXTURES {
        let names: Vec<&str> = files.iter().map(|(name, _)| *name).collect();
        let set = format!("{dir}/{{{}}}", names.join(","));
        let sources = load(dir, files);
        let mut want: Vec<Mark> = sources
            .iter()
            .flat_map(|src| parse_markers(&src.path, &src.text))
            .collect();
        assert_eq!(
            want.is_empty(),
            names == ["ok.rs"],
            "{set}: only an ok.rs declares no markers"
        );

        let run = Engine::new().lint_files(&sources);
        let rendered = run
            .findings
            .iter()
            .map(|f| {
                format!(
                    "{}:{}:{}: [{}] {}",
                    f.file, f.line, f.col, f.rule, f.message
                )
            })
            .collect::<Vec<_>>()
            .join("\n");
        let mut got: Vec<Mark> = run
            .findings
            .iter()
            .map(|f| ((f.file.clone(), f.line, f.rule.clone()), Some(f.col)))
            .collect();

        // Compare (file, line, rule) exactly: every marker fires, and
        // nothing unmarked fires.
        want.sort();
        got.sort();
        let keys = |marks: &[Mark]| marks.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        assert_eq!(
            keys(&want),
            keys(&got),
            "{set} marker mismatch; linter said:\n{rendered}"
        );

        // Where a marker pins a column, the diagnostic span must match
        // it exactly.
        for pinned in want.iter().filter(|(_, col)| col.is_some()) {
            assert!(
                got.contains(pinned),
                "{set}: expected {pinned:?}, linter said:\n{rendered}"
            );
        }
    }
}

#[test]
fn every_rule_fires_in_some_fixture() {
    let marked: Vec<String> = FIXTURES
        .iter()
        .flat_map(|(dir, files)| load(dir, files))
        .flat_map(|src| parse_markers(&src.path, &src.text))
        .map(|((_, _, rule), _)| rule)
        .collect();
    for id in meme_analysis::all_rule_ids() {
        assert!(
            marked.iter().any(|rule| rule == id),
            "rule `{id}` has no `//~ {id}` marker in any fixture"
        );
    }
}
