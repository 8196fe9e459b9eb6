//! The repository's benchmark.
//!
//! ```text
//! memes-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! memes-benchmark all       [--seed N] [--seconds S] [--smoke] [--out DIR]
//! memes-benchmark selfcheck [--seed N] [--seconds S] [--smoke] [--out DIR]
//! memes-benchmark compare OLD.json NEW.json
//! memes-benchmark spec
//! ```
//!
//! `--workload` runs one workload in this process and prints, as the last
//! line of standard output, the object the driver reads; `all` runs every
//! workload in a process of its own, untraced then traced. `artifact DIR
//! [--seed N] [--smoke]` is what the serve workloads' set-up runs as a child
//! process: it leaves a completed run in DIR for them to serve. Exit codes: 0
//! fine, 1 an output check failed or `compare` found a metric worse, 2
//! usage or operational error. README.md has the rest.

use memes_benchmark::options::{Options, Sizes};
use memes_benchmark::report::{ResultFile, REPORT_PREFIX};
use memes_benchmark::spec::{self, Workload};
use memes_benchmark::{batch, compare, driver, serve};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: memes-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
       memes-benchmark all|selfcheck [--seed N] [--seconds S] [--smoke] [--out DIR]
       memes-benchmark compare OLD.json NEW.json
       memes-benchmark spec
workloads: run-sparse, reanalyze-dense, serve-steady, serve-churn";

struct Cli {
    command: Option<String>,
    positionals: Vec<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        positionals: Vec::new(),
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                cli.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?)
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a number of seconds")?
            }
            "--trace" => {
                cli.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out_dir = PathBuf::from(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if cli.command.is_none() && cli.workload.is_none() => cli.command = Some(arg.clone()),
            _ => cli.positionals.push(arg.clone()),
        }
    }
    Ok(cli)
}

/// One workload in this process; the contract's line goes last.
fn run_workload(cli: &Cli, workload: Workload) -> Result<bool, String> {
    // Temporary artifacts get a directory of their own, so two runs that
    // share `--out` never touch each other's files.
    let scratch = cli.out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let opts = Options {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        out_dir: cli.out_dir.clone(),
        scratch_dir: scratch.clone(),
        smoke: cli.smoke,
    };
    let report = match workload {
        Workload::RunSparse | Workload::ReanalyzeDense => batch::run(&opts),
        Workload::ServeSteady | Workload::ServeChurn => serve::run(&opts),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let report = report?;
    print!("{}", report.table());
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    println!("{REPORT_PREFIX}{json}");
    println!("{}", report.contract_line());
    Ok(report.correct)
}

fn read_result(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    ResultFile::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(cli: &Cli) -> Result<bool, String> {
    if let Some(workload) = cli.workload {
        return run_workload(cli, workload);
    }
    let set = driver::SetOptions {
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
        out_dir: &cli.out_dir,
    };
    match (cli.command.as_deref(), cli.positionals.as_slice()) {
        (Some("all"), []) | (Some("selfcheck"), []) => {
            std::fs::create_dir_all(&cli.out_dir)
                .map_err(|e| format!("create {}: {e}", cli.out_dir.display()))?;
            if cli.command.as_deref() == Some("all") {
                driver::all(&set)
            } else {
                driver::selfcheck(&set)
            }
        }
        (Some("compare"), [old, new]) => {
            let comparison = compare::compare(&read_result(old)?, &read_result(new)?);
            print!("{}", comparison.table());
            Ok(!comparison.regressed())
        }
        (Some("artifact"), [dir]) => {
            serve::write_artifact(Path::new(dir), &Sizes::of(cli.smoke), cli.seed).map(|()| true)
        }
        (Some("spec"), []) => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|cli| dispatch(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
