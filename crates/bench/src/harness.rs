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
    /// Output directory for binaries that persist artifacts
    /// (`bench-baselines`); `None` means the current directory.
    pub out_dir: Option<String>,
    /// Cap on the index-benchmark corpus size (`bench-baselines`);
    /// lets CI smoke runs skip the largest grid cells.
    pub index_max_n: usize,
    /// Cap on the hash-benchmark post count (`bench-baselines`); lets
    /// CI smoke runs keep the slow frozen-legacy rung short.
    pub hash_max_n: usize,
}

impl Options {
    /// Parse from `std::env::args`. Recognized flags:
    /// `--scale tiny|small|default`, `--seed N`, `--train-filter`,
    /// `--threads N`, `--out-dir DIR`, `--index-max-n N`,
    /// `--hash-max-n N`.
    pub fn from_args() -> Self {
        let mut opts = Self {
            scale: SimScale::Small,
            seed: 1,
            train_filter: false,
            threads: 0,
            out_dir: None,
            index_max_n: usize::MAX,
            hash_max_n: usize::MAX,
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    opts.scale = match args.get(i).map(String::as_str) {
                        Some("tiny") => SimScale::Tiny,
                        Some("small") => SimScale::Small,
                        Some("default") => SimScale::Default,
                        other => {
                            eprintln!("unknown scale {other:?}; using small");
                            SimScale::Small
                        }
                    };
                }
                "--seed" => {
                    i += 1;
                    opts.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("bad --seed; using 1");
                        1
                    });
                }
                "--train-filter" => opts.train_filter = true,
                "--threads" => {
                    i += 1;
                    opts.threads = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(0);
                }
                "--out-dir" => {
                    i += 1;
                    opts.out_dir = args.get(i).cloned();
                }
                "--index-max-n" => {
                    i += 1;
                    opts.index_max_n = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(usize::MAX);
                }
                "--hash-max-n" => {
                    i += 1;
                    opts.hash_max_n = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(usize::MAX);
                }
                other => eprintln!("ignoring unknown flag {other}"),
            }
            i += 1;
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
