//! `memes-lint` — the workspace static-analysis gate.
//!
//! ```text
//! memes-lint [--root DIR] [--report FILE] [--list-rules] [--quiet]
//! memes-lint graph [--root DIR] [--out FILE]
//! ```
//!
//! The lint run writes `lint-report.json` (gitignored; CI archives it).
//! The `graph` subcommand dumps the pass-1 call graph (functions,
//! resolved edges, unresolved calls) as JSON — `callgraph.json` by
//! convention — for CI archiving and offline inspection.
//!
//! Exit codes follow the workspace convention ([`Exit`]): `0` clean,
//! `1` any finding (a reviewed exception is a `lint:allow` with its
//! reason, next to the code), `2` operational failure (unreadable
//! root, bad usage).

use meme_analysis::error::Exit;
use meme_analysis::{AnalysisError, CallGraph, Engine};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    graph: bool,
    root: PathBuf,
    report: PathBuf,
    out: PathBuf,
    list_rules: bool,
    quiet: bool,
}

const USAGE: &str = "usage: memes-lint [--root DIR] [--report FILE] [--list-rules] [--quiet]\n\
                     \x20      memes-lint graph [--root DIR] [--out FILE]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut graph = false;
    let mut root = PathBuf::from(".");
    let mut report: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut list_rules = false;
    let mut quiet = false;

    let mut it = argv.iter().peekable();
    if it.peek().map(|a| a.as_str()) == Some("graph") {
        graph = true;
        it.next();
    }
    while let Some(arg) = it.next() {
        match (arg.as_str(), graph) {
            ("--root", _) => {
                root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            ("--out", true) => {
                out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?));
            }
            ("--report", false) => {
                report = Some(PathBuf::from(it.next().ok_or("--report needs a path")?));
            }
            ("--list-rules", false) => list_rules = true,
            ("--quiet", _) | ("-q", _) => quiet = true,
            ("--help", _) | ("-h", _) => return Err(USAGE.to_string()),
            (other, _) => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Args {
        graph,
        report: report.unwrap_or_else(|| root.join("lint-report.json")),
        out: out.unwrap_or_else(|| root.join("callgraph.json")),
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
    let result = if args.graph {
        run_graph(&args)
    } else {
        run(&args)
    };
    match result {
        Ok(exit) => exit.into(),
        Err(e) => {
            eprintln!("memes-lint: {e}");
            Exit::Operational.into()
        }
    }
}

/// `memes-lint graph`: dump the pass-1 call graph.
fn run_graph(args: &Args) -> Result<Exit, AnalysisError> {
    use meme_analysis::context::FileContext;
    use meme_analysis::symbols::WorkspaceModel;

    let files = meme_analysis::walk_workspace(&args.root)?;
    let ctxs: Vec<FileContext<'_>> = files.iter().map(FileContext::build).collect();
    let model = WorkspaceModel::build(&ctxs);
    let graph = CallGraph::from_model(&model, &ctxs);
    let text = graph.to_json()?;
    std::fs::write(&args.out, &text).map_err(|e| AnalysisError::io(&args.out, e))?;
    if !args.quiet {
        eprintln!(
            "memes-lint: call graph: {} function(s), {} edge(s), {} unresolved \
             (wrote {})",
            graph.totals.functions,
            graph.totals.edges,
            graph.totals.unresolved,
            args.out.display(),
        );
    }
    Ok(Exit::Clean)
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
