//! The batch workloads: `run-sparse` (the `memes run` driver end to end)
//! and `reanalyze-dense` (the `memes resume` driver from a post-hash
//! checkpoint). One operation is the driver, then Step 7, then `to_json()`.

use crate::adapter::{self, BatchRun, Corpus, InfluenceRun, ProgramMetrics, Res};
use crate::options::Options;
use crate::probes;
use crate::report::RunReport;
use crate::spec::{self, Workload};
use crate::stats::{self, Summary};
use crate::trace::Trace;
use crate::util;
use std::path::Path;
use std::time::Instant;

/// Operations in one tail group. `op_tail_ms` is the slowest wall of each
/// four consecutive operations, median over the groups: a run fits 7-45
/// operations, too few for a high percentile, and the rank within a group
/// stays the same however many operations a faster or slower commit fits.
const TAIL_GROUP: usize = 4;

/// One completed operation and where its time went.
struct Operation {
    wall_s: f64,
    /// Peak resident set while the operation ran, MiB.
    peak_rss_mib: f64,
    influence_s: f64,
    to_json_s: f64,
    run: BatchRun,
    influence: InfluenceRun,
    json: String,
}

/// What the operation works from.
struct Input<'a> {
    corpus: &'a Corpus,
    /// `reanalyze-dense` only: the post-hash checkpoint made in set-up, and
    /// the path each operation copies it to before resuming from the copy.
    checkpoint: Option<(&'a Path, &'a Path)>,
}

/// The timed operation. With a trace, the same calls are wrapped in spans
/// (`op` > `core.run` | `core.resume`, `core.influence`, `core.to_json`).
fn operate(
    input: &Input,
    threads: usize,
    metrics: &ProgramMetrics,
    mut trace: Option<&mut Trace>,
) -> Res<Operation> {
    if let Some((master, copy)) = input.checkpoint {
        // Untimed: every operation resumes from its own fresh copy, and the
        // previous operation's `.prev` generation must not be there to roll
        // back to.
        std::fs::copy(master, copy).map_err(|e| format!("copy checkpoint: {e}"))?;
        let _ = std::fs::remove_file(adapter::previous_generation(copy));
    }
    util::reset_peak_rss();
    let start = Instant::now();
    let op = begin(&mut trace, "op", None);

    let driver = begin(
        &mut trace,
        if input.checkpoint.is_some() {
            "core.resume"
        } else {
            "core.run"
        },
        op,
    );
    let run = match input.checkpoint {
        Some((_, copy)) => adapter::resume_pipeline(input.corpus, threads, copy, metrics)?,
        None => adapter::run_pipeline(input.corpus, threads, metrics)?,
    };
    end(&mut trace, driver);

    let t = Instant::now();
    let step7 = begin(&mut trace, "core.influence", op);
    let influence = adapter::fit_influence(input.corpus, &run.output, threads)?;
    end(&mut trace, step7);
    let influence_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ser = begin(&mut trace, "core.to_json", op);
    let json = adapter::output_json(&run.output);
    end(&mut trace, ser);
    let to_json_s = t.elapsed().as_secs_f64();

    end(&mut trace, op);
    Ok(Operation {
        wall_s: start.elapsed().as_secs_f64(),
        peak_rss_mib: util::peak_rss_mib(),
        influence_s,
        to_json_s,
        run,
        influence,
        json,
    })
}

fn begin(trace: &mut Option<&mut Trace>, name: &str, parent: Option<usize>) -> Option<usize> {
    trace.as_mut().map(|t| t.begin(name, parent, 0))
}

fn end(trace: &mut Option<&mut Trace>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (trace.as_mut(), id) {
        t.end(id);
    }
}

pub fn run(opts: &Options) -> Res<RunReport> {
    let workload = opts.workload;
    let dense = workload == Workload::ReanalyzeDense;
    let threads = adapter::nproc();
    let sizes = &opts.sizes();
    let corpus_spec = if dense { sizes.dense } else { sizes.sparse };
    let mut report = RunReport::new(workload, opts.seed, opts.seconds, opts.traced, threads);
    let master = opts.scratch_dir.join("post-hash.ckpt");
    let copy = opts.scratch_dir.join("resume.ckpt");
    let disabled = ProgramMetrics::disabled();

    // Set-up, several times over; the last one is kept. `run-sparse` makes
    // its single-thread reference run here, `reanalyze-dense` hashes the
    // corpus once and leaves the post-hash checkpoint.
    let mut setup_s = Vec::new();
    let mut kept: Option<(Corpus, Option<String>)> = None;
    for _ in 0..sizes.setup_reps {
        let t = Instant::now();
        let corpus = adapter::generate(&corpus_spec, opts.seed)?;
        let reference = if dense {
            adapter::hash_stage(&corpus, threads, Some(&master))?;
            None
        } else {
            let input = Input {
                corpus: &corpus,
                checkpoint: None,
            };
            Some(util::digest(
                operate(&input, 1, &disabled, None)?.json.as_bytes(),
            ))
        };
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((corpus, reference));
    }
    let (corpus, reference) = kept.ok_or("no set-up repetition ran")?;
    let input = Input {
        corpus: &corpus,
        checkpoint: dense.then_some((master.as_path(), copy.as_path())),
    };

    // The discarded warm-up. A checkpoint only resumes under the thread
    // count it was taken with, so on `reanalyze-dense` the warm-up's output
    // is the reference the timed repetitions must reproduce.
    let warmup = operate(&input, threads, &disabled, None)?;
    let reference = reference.unwrap_or_else(|| util::digest(warmup.json.as_bytes()));
    drop(warmup);

    let mut walls_ms = Vec::new();
    let mut peaks_mib = Vec::new();
    let mut last: Option<Operation> = None;
    let clock = Instant::now();
    while walls_ms.len() < sizes.min_reps || clock.elapsed().as_secs_f64() < opts.seconds {
        // The previous operation's output must not sit in the next one's peak.
        drop(last.take());
        let op = operate(&input, threads, &disabled, None)?;
        report.ops_attempted += 1;
        let digest = util::digest(op.json.as_bytes());
        let clean = op.run.retries == 0 && op.run.quarantined == 0 && op.influence.skipped == 0;
        if digest != reference {
            report.fail(format!(
                "repetition {}: to_json() digest {digest} differs from the reference {reference}",
                walls_ms.len()
            ));
        }
        if !clean || digest != reference {
            report.ops_failed += 1;
        }
        walls_ms.push(op.wall_s * 1e3);
        peaks_mib.push(op.peak_rss_mib);
        last = Some(op);
    }
    let last = last.ok_or("no timed repetition ran")?;

    let mismatches = adapter::rehash_mismatches(&corpus, &last.run.output, sizes.rehash_sample);
    if mismatches > 0 {
        report.fail(format!(
            "{mismatches} of {} sampled posts re-hash to a different pHash",
            sizes.rehash_sample
        ));
    }

    let rates: Vec<f64> = walls_ms.iter().map(|ms| 1e3 / ms).collect();
    let e2e = &mut report.end_to_end;
    e2e.insert(spec::OP_P50_MS.into(), Summary::of(&walls_ms));
    e2e.insert(
        spec::OP_TAIL_MS.into(),
        Summary::of(&stats::group_maxima(&walls_ms, TAIL_GROUP)),
    );
    e2e.insert(spec::OPS_PER_S.into(), Summary::of(&rates));
    e2e.insert(spec::PEAK_RSS_MB.into(), Summary::of(&peaks_mib));
    e2e.insert(spec::SETUP_S.into(), Summary::of(&setup_s));
    report.digests.insert("output_json".into(), reference);

    let shape = adapter::shape(&corpus);
    let (clusters, annotated) = adapter::cluster_counts(&last.run.output);
    report.notes.push(format!(
        "corpus: {} posts ({} one-offs, {} meme variants, {} fringe); {clusters} clusters, {annotated} annotated; {} timed repetition(s) on {threads} thread(s)",
        shape.posts, shape.oneoffs, shape.variants, shape.fringe, walls_ms.len()
    ));

    report.notes.push(format!(
        "walls in order, ms: {}",
        walls_ms
            .iter()
            .map(|ms| format!("{ms:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    if opts.traced {
        let mut trace = Trace::new();
        let metrics = ProgramMetrics::enabled();
        let traced = operate(&input, threads, &metrics, Some(&mut trace))?;
        let layer = &mut report.per_layer;
        let mut covered = traced.influence_s + traced.to_json_s;
        for stage in adapter::STAGES {
            let (secs, _) = metrics.span(&adapter::stage_span(stage));
            covered += secs;
            layer.insert(format!("core.stage_{stage}_s"), secs);
        }
        layer.insert("core.influence_s".into(), traced.influence_s);
        layer.insert("core.to_json_s".into(), traced.to_json_s);
        layer.insert("core.stage_coverage_ratio".into(), covered / traced.wall_s);
        layer.insert("core.retries".into(), f64::from(traced.run.retries));
        layer.insert("core.quarantined".into(), traced.run.quarantined as f64);
        layer.insert(
            "metrics.trace_overhead_ratio".into(),
            traced.wall_s * 1e3 / stats::median(&walls_ms),
        );
        let probed = probes::batch(
            &mut trace,
            &probes::BatchInput {
                corpus_spec: &corpus_spec,
                seed: opts.seed,
                corpus: &corpus,
                output: &traced.run.output,
                json: &traced.json,
                threads,
                sizes,
            },
        )?;
        report.per_layer.extend(probed);
        probes::write_trace(
            trace,
            &report.per_layer,
            &opts.out_dir,
            workload.name(),
            opts.seed,
        )?;
    }
    Ok(report)
}
