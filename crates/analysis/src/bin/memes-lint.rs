//! `memes-lint` — the workspace static-analysis gate.
//!
//! ```text
//! memes-lint [--root DIR] [--report FILE] [--list-rules] [--quiet]
//! ```
//!
//! The lint run writes `lint-report.json` (gitignored; CI archives it).
//!
//! Exit codes follow the workspace convention ([`Exit`]): `0` clean,
//! `1` any finding (a reviewed exception is a `lint:allow` with its
//! reason, next to the code), `2` operational failure (unreadable
//! root, bad usage).

use meme_analysis::error::Exit;
use meme_analysis::{AnalysisError, Engine};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    report: PathBuf,
    list_rules: bool,
    quiet: bool,
}

const USAGE: &str = "usage: memes-lint [--root DIR] [--report FILE] [--list-rules] [--quiet]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut report: Option<PathBuf> = None;
    let mut list_rules = false;
    let mut quiet = false;

    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--report" => {
                report = Some(PathBuf::from(it.next().ok_or("--report needs a path")?));
            }
            "--list-rules" => list_rules = true,
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Args {
        report: report.unwrap_or_else(|| root.join("lint-report.json")),
        root,
        list_rules,
        quiet,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return Exit::Operational.into();
        }
    };
    match run(&args) {
        Ok(exit) => exit.into(),
        Err(e) => {
            eprintln!("memes-lint: {e}");
            Exit::Operational.into()
        }
    }
}

fn run(args: &Args) -> Result<Exit, AnalysisError> {
    let engine = Engine::new();

    if args.list_rules {
        for rule in engine.rules() {
            println!("{:<28} {}", rule.id(), rule.summary());
        }
        println!(
            "{:<28} malformed/reason-less lint:allow",
            "invalid-suppression"
        );
        println!(
            "{:<28} lint:allow matching no finding",
            "unused-suppression"
        );
        return Ok(Exit::Clean);
    }

    let run = engine.lint_root(&args.root)?;
    let text = engine.build_report(&run).to_json()?;
    std::fs::write(&args.report, &text).map_err(|e| AnalysisError::io(&args.report, e))?;

    if !args.quiet {
        for f in &run.findings {
            eprintln!(
                "{}:{}:{}: [{}] {}",
                f.file, f.line, f.col, f.rule, f.message
            );
        }
        eprintln!(
            "memes-lint: {} file(s), {} finding(s) (report: {})",
            run.files_scanned,
            run.findings.len(),
            args.report.display(),
        );
    }

    if run.findings.is_empty() {
        Ok(Exit::Clean)
    } else {
        Ok(Exit::Violations)
    }
}
