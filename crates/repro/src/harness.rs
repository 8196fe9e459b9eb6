//! Shared setup for the `repro-*` binaries.

use meme_core::pipeline::{Pipeline, PipelineConfig, PipelineOutput, ScreenshotFilterMode};
use meme_core::supervise::SupervisedRunner;
use meme_hawkes::Event;
use meme_simweb::{Dataset, SimConfig, SimScale};
use std::time::Instant;

/// Parsed command-line options common to every repro binary.
#[derive(Debug, Clone)]
pub struct Options {
    /// Dataset scale.
    pub scale: SimScale,
    /// Master seed.
    pub seed: u64,
    /// Train the real CNN screenshot filter instead of the oracle.
    pub train_filter: bool,
    /// Worker threads (0 = all).
    pub threads: usize,
}

/// Report a command line no experiment can be chosen from and exit 2,
/// the workspace's operational-error code.
fn bad_usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("flags: [--scale tiny|small|default] [--seed N] [--train-filter] [--threads N]");
    std::process::exit(2)
}

impl Options {
    /// Parse from `std::env::args`. An unknown flag or a missing or
    /// unparsable value is reported on stderr and exits 2, before any
    /// dataset is generated — never a silent fall back to the default
    /// experiment.
    pub fn from_args() -> Self {
        let mut opts = Self {
            scale: SimScale::Small,
            seed: 1,
            train_filter: false,
            threads: 0,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--scale" => {
                    opts.scale = match args.next().as_deref() {
                        Some("tiny") => SimScale::Tiny,
                        Some("small") => SimScale::Small,
                        Some("default") => SimScale::Default,
                        other => bad_usage(&format!("unknown scale {other:?}")),
                    };
                }
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| bad_usage("--seed needs an integer"));
                }
                "--train-filter" => opts.train_filter = true,
                "--threads" => {
                    opts.threads = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| bad_usage("--threads needs an integer"));
                }
                other => bad_usage(&format!("unknown flag {other}")),
            }
        }
        opts
    }
}

/// A generated dataset plus the completed pipeline run.
pub struct Repro {
    /// The options used.
    pub opts: Options,
    /// The synthetic corpus.
    pub dataset: Dataset,
    /// Steps 1–6 output.
    pub output: PipelineOutput,
}

impl Repro {
    /// Generate the dataset and run the pipeline, logging wall times.
    pub fn build(opts: Options) -> Self {
        eprintln!(
            "[repro] generating dataset (scale {:?}, seed {})...",
            opts.scale, opts.seed
        );
        let t0 = Instant::now();
        let dataset = SimConfig::new(opts.scale, opts.seed).generate();
        eprintln!(
            "[repro]   {} image posts, {} memes, {} KYM entries ({:.1?})",
            dataset.posts.len(),
            dataset.universe.len(),
            dataset.kym_raw.len(),
            t0.elapsed()
        );
        let config = PipelineConfig {
            screenshot_filter: if opts.train_filter {
                ScreenshotFilterMode::Train {
                    corpus_scale: 0.01,
                    config: Default::default(),
                }
            } else {
                ScreenshotFilterMode::Oracle
            },
            threads: opts.threads,
            ..PipelineConfig::default()
        };
        let t1 = Instant::now();
        eprintln!("[repro] running pipeline (steps 1-6)...");
        let output = SupervisedRunner::new(Pipeline::new(config))
            .run(&dataset)
            .expect("pipeline runs on generated data")
            .expect_complete();
        eprintln!(
            "[repro]   {} clusters ({} annotated), {} matched posts ({:.1?})",
            output.clustering.n_clusters(),
            output.annotated_clusters().len(),
            output.occurrences.iter().flatten().count(),
            t1.elapsed()
        );
        Self {
            opts,
            dataset,
            output,
        }
    }

    /// Build from CLI args.
    pub fn from_args() -> Self {
        Self::build(Options::from_args())
    }

    /// Step-7 input: one event stream per annotated cluster.
    pub fn cluster_events(&self) -> Vec<Vec<Event>> {
        self.output
            .try_all_cluster_events(&self.dataset)
            .expect("a pipeline-produced output keeps cluster ids in range")
    }
}

/// Print a section header matching the paper's table/figure numbering.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}
