//! End-to-end tests for the `memes-lint` binary: exit codes, the flag
//! surface, and the written report artifact.
//!
//! Each test builds a throwaway fake workspace under the OS temp dir
//! and drives the real binary via `CARGO_BIN_EXE_memes-lint`.

use meme_analysis::Report;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const CLEAN_LIB: &str = "pub fn add(a: u64, b: u64) -> u64 { a + b }\n";

const ONE_PANIC: &str = "pub fn first(x: Option<u64>) -> u64 {\n    x.unwrap()\n}\n";

/// A scratch workspace rooted in the temp dir, removed on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str, lib_source: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("memes-lint-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let src = root.join("crates/core/src");
        fs::create_dir_all(&src).expect("create scratch workspace");
        fs::write(src.join("lib.rs"), lib_source).expect("write scratch lib.rs");
        Self { root }
    }

    fn lint(&self, extra: &[&str]) -> Output {
        run_lint(&self.root, extra)
    }

    fn report(&self) -> Report {
        let text = fs::read_to_string(self.root.join("lint-report.json")).expect("report written");
        serde_json::from_str(&text).expect("report parses as the typed document")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn run_lint(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_memes-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn memes-lint")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("memes-lint terminated by signal")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn clean_workspace_exits_zero_and_writes_the_report() {
    let ws = Scratch::new("clean", CLEAN_LIB);
    let out = ws.lint(&[]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));

    let report = ws.report();
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.totals.total, 0);
    assert!(report.findings.is_empty());
}

#[test]
fn any_finding_exits_one() {
    let ws = Scratch::new("plain-violation", ONE_PANIC);
    let out = ws.lint(&[]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("crates/core/src/lib.rs:2:7: [panic-reachable]"),
        "diagnostic names the site and the rule: {}",
        stderr(&out)
    );
    assert_eq!(ws.report().totals.total, 1);
}

#[test]
fn unreadable_root_is_operational_failure() {
    let missing =
        std::env::temp_dir().join(format!("memes-lint-no-such-root-{}", std::process::id()));
    let out = run_lint(&missing, &[]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
}

#[test]
fn bad_usage_is_operational_failure() {
    let ws = Scratch::new("bad-usage", CLEAN_LIB);
    assert_eq!(exit_code(&ws.lint(&["--no-such-flag"])), 2);
    // The ratchet, the timing export and the call-graph dump are gone,
    // not hidden: each of their flags is an unknown argument.
    for flag in [
        "--baseline",
        "--deny-new",
        "--fix-baseline",
        "--timings",
        "graph",
    ] {
        let out = ws.lint(&[flag]);
        assert_eq!(exit_code(&out), 2, "{flag}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("unknown argument `{flag}`")),
            "{flag}: {}",
            stderr(&out)
        );
    }
    assert!(!ws.root.join("lint-report.json").exists());
    assert!(!ws.root.join("lint-baseline.json").exists());
}

#[test]
fn list_rules_names_every_rule() {
    let ws = Scratch::new("list-rules", CLEAN_LIB);
    let out = ws.lint(&["--list-rules"]);
    assert_eq!(exit_code(&out), 0);
    let listing = String::from_utf8_lossy(&out.stdout).into_owned();
    let listed: Vec<&str> = listing
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed, meme_analysis::all_rule_ids());
}
