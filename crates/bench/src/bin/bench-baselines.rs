//! `bench-baselines` — persist the observability baselines.
//!
//! ```text
//! bench-baselines [--scale tiny|small|default] [--seed N]
//!                 [--threads N] [--out-dir DIR] [--index-max-n N]
//!                 [--hash-max-n N]
//! ```
//!
//! Writes `BENCH_pipeline.json` (full pipeline + Step-7 influence under
//! per-stage spans), `BENCH_clustering.json` (per-engine build /
//! `all_neighbors` / DBSCAN timings), `BENCH_index.json` (CSR query
//! engine vs the frozen legacy engine over the N × duplicate-fraction
//! grid; `--index-max-n` caps the grid for smoke runs), and
//! `BENCH_hash.json` (the render-cached scratch-reuse hash stage vs the
//! frozen legacy hash path at 1/2/8 threads; `--hash-max-n` caps the
//! post count for smoke runs) into `--out-dir` (default: the current
//! directory). All files pass `memes validate-metrics`.

use meme_bench::baseline::{clustering_baseline, hash_baseline, index_baseline, pipeline_baseline};
use meme_bench::harness::Options;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = Options::from_args();
    let dir = opts.out_dir.clone().unwrap_or_else(|| ".".to_string());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {dir}: {e}");
        return ExitCode::FAILURE;
    }

    eprintln!(
        "[bench-baselines] pipeline baseline (scale {:?}, seed {})...",
        opts.scale, opts.seed
    );
    let pipeline = pipeline_baseline(opts.scale, opts.seed, opts.threads);
    let pipeline_path = Path::new(&dir).join("BENCH_pipeline.json");
    if let Err(e) = std::fs::write(&pipeline_path, pipeline) {
        eprintln!("cannot write {}: {e}", pipeline_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("[bench-baselines] wrote {}", pipeline_path.display());

    eprintln!(
        "[bench-baselines] clustering baseline (seed {})...",
        opts.seed
    );
    let clustering = clustering_baseline(opts.seed, opts.threads);
    let clustering_path = Path::new(&dir).join("BENCH_clustering.json");
    if let Err(e) = std::fs::write(&clustering_path, clustering) {
        eprintln!("cannot write {}: {e}", clustering_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("[bench-baselines] wrote {}", clustering_path.display());

    eprintln!("[bench-baselines] index baseline (seed {})...", opts.seed);
    let index = index_baseline(opts.seed, opts.threads, opts.index_max_n);
    let index_path = Path::new(&dir).join("BENCH_index.json");
    if let Err(e) = std::fs::write(&index_path, index) {
        eprintln!("cannot write {}: {e}", index_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("[bench-baselines] wrote {}", index_path.display());

    eprintln!(
        "[bench-baselines] hash baseline (scale {:?}, seed {})...",
        opts.scale, opts.seed
    );
    let hash = hash_baseline(opts.scale, opts.seed, opts.hash_max_n);
    let hash_path = Path::new(&dir).join("BENCH_hash.json");
    if let Err(e) = std::fs::write(&hash_path, hash) {
        eprintln!("cannot write {}: {e}", hash_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("[bench-baselines] wrote {}", hash_path.display());
    ExitCode::SUCCESS
}
