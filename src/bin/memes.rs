//! `memes` — command-line front end for the origins-of-memes pipeline.
//!
//! ```text
//! memes simulate --scale small --seed 7 --out dataset.json
//! memes run      --scale small --seed 7 --out run.json [--train-filter]
//!                [--checkpoint ckpt.json] [--metrics-out run-metrics.json]
//!                [--retries N] [--quarantine q.jsonl] [--chaos PRESET]
//! memes resume   --scale small --seed 7 --checkpoint ckpt.json [--out run.json]
//!                [--metrics-out run-metrics.json] [--retries N]
//!                [--quarantine q.jsonl] [--chaos PRESET]
//! memes repro    SECTION --scale small --seed 7 [--train-filter] [--out DIR]
//! memes fsck     CKPT [--scale small --seed 7 --train-filter]
//! memes quarantine ls FILE
//! memes quarantine replay FILE --scale small --seed 7
//! memes validate-metrics run-metrics.json
//! memes serve    --artifact run.json [--addr 127.0.0.1:0] [--reload]
//!                [--max-conns N] [--read-timeout-ms MS] [--max-line-bytes N]
//!                [--scale small --seed 7]
//! memes lookup   HASH (--artifact run.json | --addr HOST:PORT)
//! ```
//!
//! Every subcommand regenerates the (deterministic) dataset from its
//! seed, so no intermediate file is ever required; `--out` writes the
//! artifact for external tooling. Each subcommand takes a fixed number
//! of positional arguments; any other count is bad usage.
//!
//! `memes repro SECTION` prints one of the paper's tables or figures
//! (the usage text lists them), or `all` of them over one shared run,
//! to stdout. Its Steps 1–6 run is the one `memes run` makes; with
//! `--out DIR`, Fig. 7 is also written as `DIR/fig7.dot` and
//! `DIR/fig7.json`.
//!
//! `run --checkpoint` snapshots progress
//! after every stage, and `resume` picks a killed run up from the last
//! completed stage (the checkpoint is validated against the dataset and
//! configuration before being honoured; a torn or stale current
//! generation automatically falls back to the previous one when it is
//! intact). The stages run `site`, `hash`, `cluster`, `annotate`,
//! `associate`: both stages that render and pHash images (the KYM
//! galleries of Step 4, the posts of Step 1) come first, so once `hash`
//! is checkpointed a `resume` renders no image.
//!
//! All runs execute under supervision (DESIGN.md §11): a failed stage
//! is retried at once within a bounded budget (`--retries N`, default 2
//! retries after the first attempt), panics are contained into typed
//! errors, and poison items are diverted to the `--quarantine`
//! dead-letter file instead of sinking the run. `--chaos PRESET` injects execution
//! faults for testing: `panic-once`, `stage-flake`, `flaky-items`,
//! `poison-items`, `write-blackout`, or `torn-final`.
//!
//! `memes fsck CKPT` classifies a checkpoint file as clean, torn,
//! stale, or (when `--scale`/`--seed` describe the expected run)
//! mismatched — and reports the previous generation (`CKPT.prev`) when
//! present. `memes quarantine ls FILE` lists a dead-letter file;
//! `memes quarantine replay FILE` re-processes the quarantined items
//! against a clean pipeline and reports which have recovered.
//!
//! `memes serve` loads a completed run artifact (`--out` JSON or a
//! completed checkpoint) into an immutable snapshot and answers
//! line-delimited JSON lookups over TCP (DESIGN.md §12). Binding port 0
//! picks a free port; the chosen address is printed to stdout as
//! `serving on HOST:PORT` so scripts and tests can discover it.
//! `--reload` lets clients hot-swap a new artifact in without dropping
//! connections. The connection lifecycle is bounded: at most
//! `--max-conns` concurrent clients (excess accepts are shed with
//! `{"error":"overloaded"}`), each request line must finish within
//! `--read-timeout-ms` (`{"error":"read timeout"}`, then close) and
//! stay under `--max-line-bytes` (typed rejection, then close). When
//! `--scale`/`--seed` describe the run that produced
//! the artifact, the dataset is regenerated and Step-7 influence
//! profiles are served alongside each hit. `memes lookup HASH` answers
//! one query — in process with `--artifact`, or against a running
//! server with `--addr` — and exits 0 on a hit, 1 on a miss.
//!
//! `--metrics-out PATH` (on `run` and `resume`) attaches a metrics
//! registry to the pipeline, additionally runs Step-7 influence
//! estimation under it, and writes the registry JSON (DESIGN.md §7) to
//! PATH. `validate-metrics FILE` checks such a file against the schema
//! and exits non-zero on any violation — the CI smoke check.
//!
//! Exit codes follow the workspace convention shared with `memes-lint`
//! ([`Exit`]): `0` clean, `1` violations (the validated artifact failed
//! its check — an invalid metrics file, a defective checkpoint, a
//! malformed quarantine file, a replay with still-failing items), `2`
//! operational failure (unreadable/unwritable files, bad usage, a
//! pipeline run that did not complete).

use meme_analysis::Exit;
use origins_of_memes::core::checkpoint::{
    dataset_fingerprint, fsck_file, DiskMedium, FsckClass, RunnerOutcome, StageId,
};
use origins_of_memes::core::pipeline::{
    Pipeline, PipelineConfig, PipelineOutput, ScreenshotFilterMode, FIT_BETA,
};
use origins_of_memes::core::quarantine::{read_quarantine, summarize, QuarantineError};
use origins_of_memes::core::supervise::{
    FaultyMedium, StagePolicy, SupervisedRunner, SupervisionReport,
};
use origins_of_memes::hawkes::ClusterInfluence;
use origins_of_memes::metrics::{Metrics, Registry};
use origins_of_memes::observability::validate_metrics_json;
use origins_of_memes::phash::{ImageHasher, PHash, PerceptualHasher};
use origins_of_memes::repro::{select, Body, Export, Repro, SECTIONS};
use origins_of_memes::serve::{
    load_output, protocol, ServeScratch, Server, ServerConfig, Snapshot, SnapshotStore,
    DEFAULT_THETA,
};
use origins_of_memes::simweb::{Dataset, ExecFaultSpec, SimConfig, SimScale};
use std::fmt::Display;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    command: String,
    positionals: Vec<String>,
    scale: SimScale,
    seed: u64,
    /// Whether --scale or --seed was passed explicitly (fsck only
    /// verifies the dataset fingerprint when the caller described one).
    explicit_dataset: bool,
    out: Option<String>,
    train_filter: bool,
    checkpoint: Option<String>,
    metrics_out: Option<String>,
    retries: u32,
    quarantine: Option<String>,
    chaos: Option<String>,
    artifact: Option<String>,
    addr: Option<String>,
    reload: bool,
    max_conns: usize,
    read_timeout_ms: u64,
    max_line_bytes: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().collect();
    let command = argv.get(1).cloned().ok_or_else(usage)?;
    // The positional arguments each command takes, in order.
    let operands: &[&str] = match command.as_str() {
        "simulate" | "run" | "resume" | "serve" => &[],
        "fsck" => &["CHECKPOINT"],
        "lookup" => &["HASH"],
        "repro" => &["SECTION"],
        "validate-metrics" => &["FILE"],
        "quarantine" => &["ls|replay", "FILE"],
        other => return Err(format!("unknown command {other}")),
    };
    let mut args = Args {
        command,
        positionals: Vec::new(),
        scale: SimScale::Small,
        seed: 1,
        explicit_dataset: false,
        out: None,
        train_filter: false,
        checkpoint: None,
        metrics_out: None,
        retries: 2,
        quarantine: None,
        chaos: None,
        artifact: None,
        addr: None,
        reload: false,
        max_conns: ServerConfig::default().max_conns,
        read_timeout_ms: ServerConfig::default().read_timeout_ms,
        max_line_bytes: ServerConfig::default().max_line_bytes,
    };
    let mut i = 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                args.scale = match argv.get(i).map(String::as_str) {
                    Some("tiny") => SimScale::Tiny,
                    Some("small") => SimScale::Small,
                    Some("default") => SimScale::Default,
                    other => return Err(format!("unknown scale {other:?}")),
                };
                args.explicit_dataset = true;
            }
            "--seed" => {
                i += 1;
                args.seed = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an integer")?;
                args.explicit_dataset = true;
            }
            "--out" => {
                i += 1;
                args.out = Some(argv.get(i).cloned().ok_or("--out needs a path")?);
            }
            "--checkpoint" => {
                i += 1;
                args.checkpoint = Some(argv.get(i).cloned().ok_or("--checkpoint needs a path")?);
            }
            "--metrics-out" => {
                i += 1;
                args.metrics_out = Some(argv.get(i).cloned().ok_or("--metrics-out needs a path")?);
            }
            "--retries" => {
                i += 1;
                args.retries = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--retries needs an integer")?;
            }
            "--quarantine" => {
                i += 1;
                args.quarantine = Some(argv.get(i).cloned().ok_or("--quarantine needs a path")?);
            }
            "--chaos" => {
                i += 1;
                args.chaos = Some(argv.get(i).cloned().ok_or("--chaos needs a preset name")?);
            }
            "--artifact" => {
                i += 1;
                args.artifact = Some(argv.get(i).cloned().ok_or("--artifact needs a path")?);
            }
            "--addr" => {
                i += 1;
                args.addr = Some(argv.get(i).cloned().ok_or("--addr needs HOST:PORT")?);
            }
            "--max-conns" => {
                i += 1;
                args.max_conns = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--max-conns needs a positive integer")?;
            }
            "--read-timeout-ms" => {
                i += 1;
                args.read_timeout_ms = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--read-timeout-ms needs a positive integer")?;
            }
            "--max-line-bytes" => {
                i += 1;
                args.max_line_bytes = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--max-line-bytes needs a positive integer")?;
            }
            "--reload" => args.reload = true,
            "--train-filter" => args.train_filter = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            positional => args.positionals.push(positional.to_string()),
        }
        i += 1;
    }
    if args.positionals.len() != operands.len() {
        return Err(format!(
            "{} takes {} positional argument(s) [{}], got {}",
            args.command,
            operands.len(),
            operands.join(" "),
            args.positionals.len()
        ));
    }
    if args.command == "resume" && args.checkpoint.is_none() {
        return Err("resume needs --checkpoint PATH".to_string());
    }
    if args.command == "quarantine" && !matches!(args.positionals[0].as_str(), "ls" | "replay") {
        return Err("quarantine needs `ls FILE` or `replay FILE`".to_string());
    }
    if args.command == "repro" && select(&args.positionals[0]).is_none() {
        return Err(format!("unknown section {}", args.positionals[0]));
    }
    if args.command == "serve" && args.artifact.is_none() {
        return Err("serve needs --artifact PATH".to_string());
    }
    if args.command == "lookup" {
        match (&args.artifact, &args.addr) {
            (Some(_), None) | (None, Some(_)) => {}
            _ => {
                return Err(
                    "lookup needs exactly one of --artifact PATH or --addr HOST:PORT".to_string(),
                )
            }
        }
    }
    Ok(args)
}

fn usage() -> String {
    let sections: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
    format!(
        "usage: memes <simulate|run|resume> \
         [--scale tiny|small|default] [--seed N] [--out PATH] \
         [--checkpoint PATH] [--metrics-out PATH] [--train-filter] \
         [--retries N] [--quarantine PATH] [--chaos PRESET]\n\
         \u{20}      memes repro <{}|all> [--scale S --seed N --train-filter] [--out DIR]\n\
         \u{20}      memes fsck CHECKPOINT [--scale S --seed N --train-filter]\n\
         \u{20}      memes quarantine <ls|replay> FILE [--scale S --seed N]\n\
         \u{20}      memes validate-metrics FILE\n\
         \u{20}      memes serve --artifact PATH [--addr HOST:PORT] \
         [--reload] [--max-conns N] [--read-timeout-ms MS] [--max-line-bytes N] \
         [--scale S --seed N]\n\
         \u{20}      memes lookup HASH (--artifact PATH | --addr HOST:PORT)",
        sections.join("|")
    )
}

/// Report an operational failure on stderr; the caller exits with the
/// returned code.
fn operational(message: impl Display) -> ExitCode {
    eprintln!("{message}");
    Exit::Operational.into()
}

/// Write `contents` to `path`, narrating on stderr.
fn write_file(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> Result<(), ExitCode> {
    let path = path.as_ref();
    std::fs::write(path, contents)
        .map_err(|e| operational(format_args!("cannot write {}: {e}", path.display())))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Resolve a `--chaos` preset name to an execution-fault schedule.
fn chaos_spec(preset: &str, seed: u64) -> Result<ExecFaultSpec, String> {
    match preset {
        "panic-once" => Ok(ExecFaultSpec::panic_once_everywhere(seed)),
        "stage-flake" => Ok(ExecFaultSpec::transient_stage(seed, "*", 1)),
        "flaky-items" => Ok(ExecFaultSpec::flaky_items(seed, "hash", 0.05)),
        "poison-items" => Ok(ExecFaultSpec::poison_items(seed, "hash", 0.03)),
        "write-blackout" => Ok(ExecFaultSpec::write_blackout(seed, 2)),
        // 5 stages → 5 checkpoint temp-file writes; tear the last one.
        "torn-final" => Ok(ExecFaultSpec::torn_write(seed, 4, 0.5)),
        other => Err(format!(
            "unknown chaos preset `{other}` (try panic-once, stage-flake, flaky-items, \
             poison-items, write-blackout, torn-final)"
        )),
    }
}

fn pipeline_config(args: &Args) -> PipelineConfig {
    PipelineConfig {
        screenshot_filter: if args.train_filter {
            ScreenshotFilterMode::Train {
                corpus_scale: 0.01,
                config: Default::default(),
            }
        } else {
            ScreenshotFilterMode::Oracle
        },
        ..PipelineConfig::default()
    }
}

fn generate_dataset(args: &Args) -> Result<Dataset, ExitCode> {
    let dataset = SimConfig::new(args.scale, args.seed)
        .try_generate()
        .map_err(|e| operational(format_args!("cannot generate the dataset: {e}")))?;
    eprintln!(
        "dataset: {} image posts, {} memes (scale {:?}, seed {})",
        dataset.posts.len(),
        dataset.universe.len(),
        args.scale,
        args.seed
    );
    Ok(dataset)
}

/// Steps 1–6 over `dataset` under supervision, set up from the command
/// line: retries, checkpoint (resumed from for `resume`), quarantine
/// file and chaos preset. A failed or halted run is reported and
/// becomes the operational exit code.
fn run_pipeline(
    args: &Args,
    dataset: &Dataset,
    metrics: &Metrics,
) -> Result<PipelineOutput, ExitCode> {
    let policy = StagePolicy {
        attempts: args.retries + 1,
    };
    let mut runner = SupervisedRunner::new(Pipeline::new(pipeline_config(args)))
        .with_metrics(metrics.clone())
        .with_policy(policy);
    if let Some(path) = &args.checkpoint {
        runner = runner.with_checkpoint(path);
    }
    if let Some(path) = &args.quarantine {
        runner = runner.with_quarantine(path);
    }
    if let Some(preset) = &args.chaos {
        let spec = chaos_spec(preset, args.seed).map_err(operational)?;
        eprintln!("chaos: injecting preset `{preset}` (seed {})", args.seed);
        runner = runner
            .with_medium(Arc::new(FaultyMedium::new(spec.clone())))
            .with_exec_faults(spec);
    }
    let result = if args.command == "resume" {
        runner.resume(dataset)
    } else {
        runner.run(dataset)
    };
    let run = result.map_err(|e| operational(format_args!("pipeline failed: {e}")))?;
    print_supervision(&run.report);
    let output = match run.outcome {
        RunnerOutcome::Complete(o) => *o,
        RunnerOutcome::Halted { after } => {
            return Err(operational(format_args!(
                "pipeline halted after stage `{after}`"
            )))
        }
    };
    eprintln!(
        "pipeline: {} clusters ({} annotated), {} matched posts",
        output.clustering.n_clusters(),
        output.annotated_clusters().len(),
        output.occurrences.iter().flatten().count()
    );
    for (kind, count) in output.degradation_summary() {
        eprintln!("degraded: {kind} x{count}");
    }
    Ok(output)
}

/// `memes simulate` — generate the dataset and save it with `--out`.
fn cmd_simulate(args: &Args) -> Result<(), ExitCode> {
    let dataset = generate_dataset(args)?;
    match &args.out {
        Some(path) => write_file(
            path,
            serde_json::to_string(&dataset).expect("dataset serializes"),
        ),
        None => {
            eprintln!("(pass --out to save the dataset as JSON)");
            Ok(())
        }
    }
}

/// `memes run` / `memes resume` — Steps 1–6, then the `--out` artifact
/// and the `--metrics-out` registry (which also records Step 7).
fn cmd_run(args: &Args) -> Result<(), ExitCode> {
    let dataset = generate_dataset(args)?;
    let registry = args.metrics_out.as_ref().map(|_| Arc::new(Registry::new()));
    let metrics = match &registry {
        Some(r) => Metrics::from_registry(Arc::clone(r)),
        None => Metrics::disabled(),
    };
    let output = run_pipeline(args, &dataset, &metrics)?;
    if let Some(path) = &args.out {
        write_file(path, output.to_json())?;
    }
    if let (Some(path), Some(registry)) = (&args.metrics_out, &registry) {
        // Step 7 under the same registry, so the export carries the
        // Hawkes EM iteration counts too.
        estimate_influence(&output, &dataset, &metrics)?;
        write_file(path, registry.to_json())?;
    }
    Ok(())
}

/// `memes repro SECTION` — print one paper table/figure, or `all` of
/// them, to stdout. The dataset and its Steps 1–6 run are made at the
/// first section that reads them, so the seed-only sections generate
/// none. `--out DIR` receives the files a section exports.
fn cmd_repro(args: &Args) -> Result<(), ExitCode> {
    let sections = select(&args.positionals[0]).expect("parse_args checks the section");
    let mut repro = None;
    for section in sections {
        let exports = print_section(section.name, &section.body, args.seed, || {
            shared_run(&mut repro, args)
        })?;
        let Some(dir) = &args.out else { continue };
        if !exports.is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| operational(format_args!("cannot create {dir}: {e}")))?;
        }
        for (name, contents) in exports {
            write_file(Path::new(dir).join(name), contents)?;
        }
    }
    Ok(())
}

/// Print one section and return the files it exports. `run` makes (or
/// reuses) the dataset and Steps 1–6 run, and is called only by the
/// sections that read them. A section that fails reports why on stderr
/// and exits 2.
fn print_section<'a>(
    name: &str,
    body: &Body,
    seed: u64,
    run: impl FnOnce() -> Result<&'a Repro, ExitCode>,
) -> Result<Vec<Export>, ExitCode> {
    let printed = match body {
        Body::Seed(print) => print(seed).map(|()| Vec::new()),
        Body::Run(print) => print(run()?).map(|()| Vec::new()),
        Body::Export(print) => print(run()?),
    };
    printed.map_err(|e| operational(format_args!("repro {name}: {e}")))
}

/// The dataset and Steps 1–6 run that every section of one `memes
/// repro` shares, made on first use.
fn shared_run<'a>(repro: &'a mut Option<Repro>, args: &Args) -> Result<&'a Repro, ExitCode> {
    Ok(match repro {
        Some(r) => r,
        empty @ None => {
            let dataset = generate_dataset(args)?;
            let output = run_pipeline(args, &dataset, &Metrics::disabled())?;
            empty.insert(Repro::new(args.seed, dataset, output))
        }
    })
}

/// Narrate what supervision had to do (silent when it did nothing).
fn print_supervision(report: &SupervisionReport) {
    for r in &report.retries {
        eprintln!("supervised: stage `{}` retried {}x", r.stage, r.retries);
    }
    if report.panics_contained > 0 {
        eprintln!("supervised: {} panic(s) contained", report.panics_contained);
    }
    if report.checkpoint_write_retries > 0 {
        eprintln!(
            "supervised: {} checkpoint write(s) retried",
            report.checkpoint_write_retries
        );
    }
    if report.quarantined_items > 0 {
        eprintln!(
            "supervised: {} item(s) quarantined",
            report.quarantined_items
        );
    }
    if report.rolled_back {
        eprintln!("supervised: resumed from previous checkpoint generation");
    }
}

/// `memes fsck CKPT` — classify a checkpoint file (and its previous
/// generation when present). Exit 0 clean, 1 defective, 2 unreadable.
fn cmd_fsck(args: &Args) -> ExitCode {
    let path = std::path::Path::new(&args.positionals[0]);
    // Only verify dataset/config identity when the caller described the
    // expected run; a bare `memes fsck ckpt` checks integrity alone.
    let expectation = if args.explicit_dataset {
        match generate_dataset(args) {
            Ok(dataset) => Some((dataset_fingerprint(&dataset), pipeline_config(args))),
            Err(exit) => return exit,
        }
    } else {
        None
    };
    let expect = expectation.as_ref().map(|(fp, cfg)| (*fp, cfg));
    let report = match fsck_file(&DiskMedium, path, expect) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fsck: cannot read {}: {e}", path.display());
            return Exit::Operational.into();
        }
    };
    let stages: Vec<&str> = report.completed.iter().map(|s| s.name()).collect();
    println!(
        "{}: {} — {} (completed: {})",
        path.display(),
        report.class.name(),
        report.detail,
        if stages.is_empty() {
            "none".to_string()
        } else {
            stages.join(", ")
        }
    );
    let prev = origins_of_memes::core::checkpoint::prev_checkpoint_path(path);
    if prev.exists() {
        match fsck_file(&DiskMedium, &prev, expect) {
            Ok(p) => println!("{}: {} — {}", prev.display(), p.class.name(), p.detail),
            Err(e) => println!("{}: unreadable ({e})", prev.display()),
        }
    }
    if report.class == FsckClass::Clean {
        Exit::Clean.into()
    } else {
        Exit::Violations.into()
    }
}

/// `memes quarantine ls FILE` — list a dead-letter file with a
/// per-stage summary. Exit 0 parsed, 1 malformed, 2 unreadable.
fn cmd_quarantine_ls(path: &str) -> ExitCode {
    let entries = match read_quarantine(std::path::Path::new(path)) {
        Ok(entries) => entries,
        Err(e @ QuarantineError::Io { .. }) => {
            eprintln!("quarantine: {e}");
            return Exit::Operational.into();
        }
        Err(e @ QuarantineError::Malformed { .. }) => {
            eprintln!("quarantine: {e}");
            return Exit::Violations.into();
        }
    };
    for e in &entries {
        println!("{} post {}: {}", e.stage, e.item, e.reason);
    }
    let summary: Vec<String> = summarize(&entries)
        .into_iter()
        .map(|(stage, n)| format!("{stage}: {n}"))
        .collect();
    eprintln!(
        "{} quarantined item(s){}",
        entries.len(),
        if summary.is_empty() {
            String::new()
        } else {
            format!(" ({})", summary.join(", "))
        }
    );
    Exit::Clean.into()
}

/// `memes quarantine replay FILE` — re-process quarantined items
/// against a clean (fault-free) pipeline. Hash-stage items are
/// re-hashed directly; associate-stage items are resolved through a
/// clean end-to-end run. Exit 0 when every item recovered, 1 when any
/// still fails, 2 on operational errors.
fn cmd_quarantine_replay(args: &Args, path: &str) -> ExitCode {
    let entries = match read_quarantine(std::path::Path::new(path)) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("quarantine: {e}");
            return Exit::Operational.into();
        }
    };
    if entries.is_empty() {
        eprintln!("quarantine: {path} is empty — nothing to replay");
        return Exit::Clean.into();
    }
    let dataset = match generate_dataset(args) {
        Ok(dataset) => dataset,
        Err(exit) => return exit,
    };
    let mut still_failing = 0usize;
    let hasher = PerceptualHasher::new();
    // The associate stage needs full pipeline context; run it once,
    // clean, and resolve every associate-stage entry against it.
    let needs_full_run = entries.iter().any(|e| e.stage != StageId::Hash);
    let clean_output = if needs_full_run {
        match SupervisedRunner::new(Pipeline::new(pipeline_config(args))).run(&dataset) {
            Ok(run) => Some(run.expect_complete()),
            Err(e) => {
                eprintln!("replay: clean pipeline run failed: {e}");
                return Exit::Operational.into();
            }
        }
    } else {
        None
    };
    for e in &entries {
        if e.item >= dataset.posts.len() {
            println!(
                "{} post {}: STILL FAILING (post index out of range for this dataset)",
                e.stage, e.item
            );
            still_failing += 1;
            continue;
        }
        match e.stage {
            StageId::Hash => {
                let hash = hasher.hash(&dataset.render_post_image(&dataset.posts[e.item]));
                println!(
                    "{} post {}: recovered (rehashed to {hash})",
                    e.stage, e.item
                );
            }
            _ => {
                let output = clean_output.as_ref().expect("full run for non-hash stages");
                let assoc = output.occurrences.get(e.item).and_then(|o| *o);
                match assoc {
                    Some(cluster) => println!(
                        "{} post {}: recovered (associates to cluster {cluster})",
                        e.stage, e.item
                    ),
                    None => println!(
                        "{} post {}: recovered (processed clean; no cluster association)",
                        e.stage, e.item
                    ),
                }
            }
        }
    }
    if still_failing > 0 {
        eprintln!(
            "replay: {still_failing}/{} item(s) still failing",
            entries.len()
        );
        Exit::Violations.into()
    } else {
        eprintln!("replay: all {} item(s) recovered", entries.len());
        Exit::Clean.into()
    }
}

/// Step 7 over `output`, narrating skipped clusters on stderr. An
/// artifact whose cluster ids are out of range is reported and becomes
/// the operational exit code.
fn estimate_influence(
    output: &PipelineOutput,
    dataset: &Dataset,
    metrics: &Metrics,
) -> Result<ClusterInfluence, ExitCode> {
    let (influence, skipped) = output
        .estimate_influence(dataset, FIT_BETA, metrics)
        .map_err(|e| operational(format_args!("influence: {e}")))?;
    if !skipped.is_empty() {
        eprintln!(
            "influence: {} cluster(s) skipped (failed Hawkes fits)",
            skipped.len()
        );
        for d in &skipped {
            eprintln!("  {d}");
        }
    }
    Ok(influence)
}

/// `memes serve --artifact PATH` — load a completed run artifact and
/// answer lookups over TCP until killed. Exit 2 on any startup failure;
/// a healthy server never returns.
fn cmd_serve(args: &Args) -> ExitCode {
    let artifact = args
        .artifact
        .as_deref()
        .expect("parse_args guarantees --artifact");
    let output = match load_output(std::path::Path::new(artifact)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("serve: cannot load {artifact}: {e}");
            return Exit::Operational.into();
        }
    };
    // Influence profiles need the dataset's event streams, which the
    // artifact does not carry; compute them only when the caller
    // described the producing run with --scale/--seed.
    let influence = if args.explicit_dataset {
        let influence = generate_dataset(args)
            .and_then(|dataset| estimate_influence(&output, &dataset, &Metrics::disabled()));
        match influence {
            Ok(influence) => Some(influence),
            Err(exit) => return exit,
        }
    } else {
        None
    };
    let snapshot = match Snapshot::build(&output, influence.as_ref(), DEFAULT_THETA, 0) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: rejected artifact {artifact}: {e}");
            return Exit::Operational.into();
        }
    };
    let store = Arc::new(SnapshotStore::new(snapshot));
    let config = ServerConfig {
        addr: args
            .addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:0".to_string()),
        allow_reload: args.reload,
        max_conns: args.max_conns,
        read_timeout_ms: args.read_timeout_ms,
        max_line_bytes: args.max_line_bytes,
        ..ServerConfig::default()
    };
    let server = match Server::start(store, config, Metrics::disabled()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot start: {e}");
            return Exit::Operational.into();
        }
    };
    // Stdout carries the bound address (port 0 picks a free one) so a
    // parent process can connect; everything else narrates on stderr.
    println!("serving on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    eprintln!(
        "serve: {} meme(s) from {artifact} (influence: {}, reload: {})",
        server.store().load().len(),
        if influence.is_some() { "yes" } else { "no" },
        if args.reload { "enabled" } else { "disabled" },
    );
    loop {
        std::thread::park(); // serve until killed
    }
}

/// `memes lookup HASH` — answer one query, either in process from an
/// artifact or against a running server. Exit 0 hit, 1 miss, 2 on
/// operational errors (bad hash, unreachable server, unloadable
/// artifact).
fn cmd_lookup(args: &Args) -> ExitCode {
    let raw = &args.positionals[0];
    let hash: PHash = match raw.parse() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("lookup: bad hash {raw:?}: {e}");
            return Exit::Operational.into();
        }
    };
    if let Some(addr) = &args.addr {
        return lookup_remote(addr, hash);
    }
    let artifact = args
        .artifact
        .as_deref()
        .expect("parse_args guarantees --artifact");
    let output = match load_output(std::path::Path::new(artifact)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lookup: cannot load {artifact}: {e}");
            return Exit::Operational.into();
        }
    };
    let snapshot = match Snapshot::build(&output, None, DEFAULT_THETA, 1) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lookup: rejected artifact {artifact}: {e}");
            return Exit::Operational.into();
        }
    };
    let mut scratch = ServeScratch::new();
    let mut buf = String::new();
    // Same wire format as the server, so scripts can treat both modes
    // identically.
    match snapshot.lookup(hash, &mut scratch) {
        Some(hit) => {
            protocol::render_hit(&mut buf, hash, &hit, &snapshot);
            println!("{buf}");
            Exit::Clean.into()
        }
        None => {
            protocol::render_miss(&mut buf, hash, snapshot.generation());
            println!("{buf}");
            Exit::Violations.into()
        }
    }
}

/// One lookup over the wire protocol against a running `memes serve`.
fn lookup_remote(addr: &str, hash: PHash) -> ExitCode {
    let mut stream = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lookup: cannot connect to {addr}: {e}");
            return Exit::Operational.into();
        }
    };
    let _ = stream.set_nodelay(true); // one-line round trip; avoid Nagle

    if let Err(e) = writeln!(stream, "{{\"hash\":\"{hash}\"}}") {
        eprintln!("lookup: cannot send to {addr}: {e}");
        return Exit::Operational.into();
    }
    let mut line = String::new();
    if let Err(e) = BufReader::new(&stream).read_line(&mut line) {
        eprintln!("lookup: cannot read from {addr}: {e}");
        return Exit::Operational.into();
    }
    let line = line.trim_end();
    if line.is_empty() {
        eprintln!("lookup: {addr} closed the connection without answering");
        return Exit::Operational.into();
    }
    println!("{line}");
    // The response decides the exit code: found:true hit, found:false
    // miss, anything else (an error line) operational.
    let found = serde_json::from_str::<serde::Value>(line)
        .ok()
        .as_ref()
        .and_then(serde::Value::as_object)
        .and_then(|o| {
            o.iter()
                .find(|(k, _)| k == "found")
                .map(|(_, v)| matches!(v, serde::Value::Bool(true)))
        });
    match found {
        Some(true) => Exit::Clean.into(),
        Some(false) => Exit::Violations.into(),
        None => Exit::Operational.into(),
    }
}

/// `memes validate-metrics FILE` — check a `--metrics-out` export
/// against the schema. Exit 0 valid, 1 invalid, 2 unreadable.
fn cmd_validate_metrics(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return operational(format_args!("cannot read {path}: {e}")),
    };
    match validate_metrics_json(&text) {
        Ok(()) => {
            eprintln!(
                "{path}: valid metrics JSON (schema v{})",
                origins_of_memes::metrics::SCHEMA_VERSION
            );
            Exit::Clean.into()
        }
        Err(e) => {
            eprintln!("{path}: invalid metrics JSON: {e}");
            Exit::Violations.into()
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            if e != usage() {
                eprintln!("{}", usage());
            }
            return Exit::Operational.into();
        }
    };
    let done = match args.command.as_str() {
        "validate-metrics" => return cmd_validate_metrics(&args.positionals[0]),
        "fsck" => return cmd_fsck(&args),
        "quarantine" if args.positionals[0] == "ls" => {
            return cmd_quarantine_ls(&args.positionals[1])
        }
        "quarantine" => return cmd_quarantine_replay(&args, &args.positionals[1]),
        "serve" => return cmd_serve(&args),
        "lookup" => return cmd_lookup(&args),
        "simulate" => cmd_simulate(&args),
        "run" | "resume" => cmd_run(&args),
        "repro" => cmd_repro(&args),
        _ => unreachable!("parse_args rejects unknown commands"),
    };
    match done {
        Ok(()) => Exit::Clean.into(),
        Err(exit) => exit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use origins_of_memes::hawkes::HawkesModel;

    /// A section whose stage returns a typed error (here the Hawkes
    /// model Fig. 10 builds, made invalid) exits 2 with the error on
    /// stderr instead of panicking, and never makes the dataset.
    #[test]
    fn a_failing_section_exits_operational() {
        let body = Body::Seed(|_| {
            HawkesModel::new(vec![-1.0], vec![vec![0.0]], 1.0)?;
            Ok(())
        });
        let run = || -> Result<&Repro, ExitCode> { panic!("a seed section made the dataset") };
        let exit = print_section("fig10", &body, 1, run).unwrap_err();
        assert_eq!(exit, ExitCode::from(Exit::Operational));
    }
}
