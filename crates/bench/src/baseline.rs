//! Persisted observability baselines — the `BENCH_*.json` artifacts.
//!
//! Two reproducible workloads, each exported as a metrics registry
//! (DESIGN.md §7) wrapped in a small provenance envelope:
//!
//! * **`BENCH_pipeline.json`** — a full checkpointless pipeline run
//!   (Steps 1–6 under per-stage spans) plus instrumented Step-7
//!   influence estimation, at the harness scale/seed;
//! * **`BENCH_clustering.json`** — the Steps 2–3 kernel isolated: the
//!   same synthetic corpus pushed through each Hamming engine (build +
//!   `all_neighbors` spans, neighbor-pair counters), then DBSCAN;
//! * **`BENCH_index.json`** — the CSR query engine vs the frozen
//!   pre-CSR engine ([`crate::legacy`]): build time and `all_neighbors`
//!   throughput at N ∈ {1k, 10k, 50k}, eps = 8, duplicate fractions
//!   {0%, 50%, 90%}, with explicit speedup-ratio gauges;
//! * **`BENCH_hash.json`** — Step 1 isolated: the render-cached
//!   scratch-reuse hash kernel vs the frozen pre-optimization hash
//!   stage ([`crate::legacy`]) at 1/2/8 threads, with per-`ImageRef`
//!   kind breakdowns, images/sec, and speedup-ratio gauges.
//!
//! All validate with `memes validate-metrics` (the wrapper form), so
//! CI can archive them as trend baselines.

use crate::legacy::{legacy_all_neighbors, legacy_hash_posts, LegacyMihIndex};
use meme_core::pipeline::{Pipeline, PipelineConfig, ScreenshotFilterMode};
use meme_core::supervise::SupervisedRunner;
use meme_hawkes::InfluenceEstimator;
use meme_index::{
    all_neighbors, effective_threads, symmetric_neighbors, BkTreeIndex, BruteForceIndex,
    HammingIndex, HashGroups, MihIndex,
};
use meme_metrics::{Metrics, Registry};
use meme_phash::{HashScratch, ImageHasher, PHash, PerceptualHasher};
use meme_simweb::{Community, Dataset, ImageRef, RenderCache, RenderStats, SimConfig, SimScale};
use meme_stats::seeded_rng;
use rand::RngExt;
use std::sync::Arc;

/// The paper's clustering radius (eps = θ = 8).
const EPS: u32 = 8;

/// DBSCAN's minPts (paper: 5).
const MIN_PTS: usize = 5;

/// Wrap a registry export in the `BENCH_*.json` provenance envelope
/// (the wrapper form `memes validate-metrics` accepts).
pub fn wrap(bench: &str, scale: &str, seed: u64, metrics_json: &str) -> String {
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"scale\": \"{scale}\",\n  \
         \"seed\": {seed},\n  \"metrics\": {metrics_json}\n}}\n"
    )
}

/// The `--scale` spelling of a [`SimScale`], for provenance envelopes.
pub fn scale_label(scale: SimScale) -> &'static str {
    match scale {
        SimScale::Tiny => "tiny",
        SimScale::Small => "small",
        SimScale::Default => "default",
    }
}

/// Run the full pipeline (oracle screenshot filter) plus Step-7
/// influence under a metrics registry; return the `BENCH_pipeline.json`
/// document.
pub fn pipeline_baseline(scale: SimScale, seed: u64, threads: usize) -> String {
    let dataset = SimConfig::new(scale, seed).generate();
    let registry = Arc::new(Registry::new());
    let metrics = Metrics::from_registry(Arc::clone(&registry));
    let config = PipelineConfig {
        screenshot_filter: ScreenshotFilterMode::Oracle,
        threads,
        ..PipelineConfig::default()
    };
    let output = SupervisedRunner::new(Pipeline::new(config))
        .with_metrics(metrics.clone())
        .run(&dataset)
        .expect("pipeline runs on generated data")
        .expect_complete();
    let estimator = InfluenceEstimator::new(Community::COUNT, 3.0);
    output
        .estimate_influence(&dataset, &estimator, threads, &metrics)
        .expect("a pipeline-produced output keeps cluster ids in range");

    wrap("pipeline", scale_label(scale), seed, &registry.to_json())
}

/// A corpus with planted Hamming families (center + satellites inside
/// the radius) over background noise — enough structure that DBSCAN
/// finds clusters and the engines' index structures are exercised.
fn clustered_corpus(seed: u64, families: usize, noise: usize) -> Vec<PHash> {
    let mut rng = seeded_rng(seed);
    let mut hashes = Vec::with_capacity(families * (MIN_PTS + 2) + noise);
    for _ in 0..families {
        let center = PHash(rng.random());
        hashes.push(center);
        for _ in 0..MIN_PTS + 1 {
            let flips = rng.random_range(1..=EPS as usize / 2);
            let mut positions = Vec::with_capacity(flips);
            while positions.len() < flips {
                let p = rng.random_range(0..64u8);
                if !positions.contains(&p) {
                    positions.push(p);
                }
            }
            hashes.push(center.with_flipped_bits(&positions));
        }
    }
    for _ in 0..noise {
        hashes.push(PHash(rng.random()));
    }
    hashes
}

/// Build one engine and run `all_neighbors` over it, recording build
/// and query spans plus neighbor-pair counters under
/// `clustering/<engine>/…`.
fn timed_engine<I: HammingIndex + Sync>(
    metrics: &Metrics,
    engine: &str,
    threads: usize,
    n_queries: usize,
    build: impl FnOnce() -> I,
) -> Vec<Vec<usize>> {
    let span = metrics.span(&format!("clustering/{engine}/build"));
    let index = build();
    span.finish();
    let span = metrics.span(&format!("clustering/{engine}/all_neighbors"));
    let neighbors = all_neighbors(&index, EPS, threads);
    let elapsed = span.finish();
    let pairs: usize = neighbors.iter().map(Vec::len).sum();
    metrics.add(&format!("clustering.{engine}.neighbor_pairs"), pairs as u64);
    if elapsed > 0.0 {
        metrics.gauge(
            &format!("clustering.{engine}.queries_per_sec"),
            n_queries as f64 / elapsed,
        );
    }
    neighbors
}

/// Time each Hamming engine (build + `all_neighbors`) and DBSCAN on the
/// same planted corpus; return the `BENCH_clustering.json` document.
pub fn clustering_baseline(seed: u64, threads: usize) -> String {
    let hashes = clustered_corpus(seed, 150, 1500);
    let registry = Arc::new(Registry::new());
    let metrics = Metrics::from_registry(Arc::clone(&registry));
    metrics.add("clustering.corpus_hashes", hashes.len() as u64);

    let mih = timed_engine(&metrics, "mih", threads, hashes.len(), || {
        MihIndex::new(hashes.clone(), EPS)
    });
    let bk = timed_engine(&metrics, "bk_tree", threads, hashes.len(), || {
        BkTreeIndex::new(hashes.clone())
    });
    let brute = timed_engine(&metrics, "brute_force", threads, hashes.len(), || {
        BruteForceIndex::new(hashes.clone())
    });
    // The engines must agree; a baseline taken off a divergent engine
    // would be comparing different work.
    assert_eq!(mih, bk, "bk_tree diverged from mih");
    assert_eq!(mih, brute, "brute_force diverged from mih");

    let neighbors = mih;
    let span = metrics.span("clustering/dbscan");
    let clustering = meme_cluster::dbscan::try_dbscan(&neighbors, MIN_PTS)
        .expect("dbscan runs on planted corpus");
    span.finish();
    metrics.add("clustering.clusters", clustering.n_clusters() as u64);
    metrics.add("clustering.noise_posts", clustering.noise_count() as u64);

    wrap("clustering", "synthetic", seed, &registry.to_json())
}

/// The `BENCH_index.json` grid: corpus sizes × duplicate fractions.
const INDEX_BENCH_SIZES: [usize; 3] = [1_000, 10_000, 50_000];
const INDEX_BENCH_DUP_PCTS: [usize; 3] = [0, 50, 90];

/// A corpus of `n` hashes where `dup_pct` percent of the items are
/// exact copies of earlier items. The distinct base is the planted
/// clustered corpus (families within eps plus background noise), and
/// copies are spread round-robin over it so no single value dominates —
/// the regime where the pre-change engine ran MIH, not its brute-force
/// degenerate fallback.
fn duplicated_corpus(seed: u64, n: usize, dup_pct: usize) -> Vec<PHash> {
    let n_dups = n * dup_pct / 100;
    let n_base = n - n_dups;
    let families = (n_base / 30).max(1);
    let mut base = clustered_corpus(
        seed,
        families,
        n_base.saturating_sub(families * (MIN_PTS + 2)),
    );
    base.truncate(n_base);
    let mut rng = seeded_rng(seed ^ 0xD0D0);
    let mut out = base.clone();
    for _ in 0..n - out.len() {
        out.push(base[rng.random_range(0..base.len())]);
    }
    out
}

/// One cell of the index-engine comparison: the frozen legacy engine
/// and the CSR + dedup + symmetric engine over the same corpus, under
/// `index/<n>/<dup>/…` spans, with throughput and speedup gauges.
fn timed_index_cell(metrics: &Metrics, seed: u64, n: usize, dup_pct: usize, threads: usize) {
    let hashes = duplicated_corpus(seed, n, dup_pct);
    let tag = format!("{n}x{dup_pct}");
    metrics.add(&format!("index_bench.{tag}.items"), hashes.len() as u64);

    let span = metrics.span(&format!("index/{tag}/legacy_build"));
    let legacy = LegacyMihIndex::new(hashes.clone(), EPS);
    span.finish();
    let span = metrics.span(&format!("index/{tag}/legacy_all_neighbors"));
    let legacy_neighbors = legacy_all_neighbors(&legacy, EPS, threads);
    let legacy_elapsed = span.finish();

    let span = metrics.span(&format!("index/{tag}/csr_build"));
    let groups = HashGroups::new(&hashes);
    let index = MihIndex::new(groups.unique().to_vec(), EPS);
    let csr_build = span.finish();
    let span = metrics.span(&format!("index/{tag}/csr_all_neighbors"));
    let (csr_neighbors, stats) = symmetric_neighbors(&index, &groups, EPS, threads);
    let csr_elapsed = span.finish();

    // A speedup over different answers would be meaningless.
    assert_eq!(csr_neighbors, legacy_neighbors, "CSR diverged from legacy");

    metrics.add(
        &format!("index_bench.{tag}.unique_hashes"),
        stats.unique as u64,
    );
    metrics.add(
        &format!("index_bench.{tag}.unique_pairs"),
        stats.unique_pairs,
    );
    metrics.add(&format!("index_bench.{tag}.verified"), stats.verified);
    metrics.gauge(
        &format!("index_bench.{tag}.collapse_ratio"),
        groups.collapse_ratio(),
    );
    metrics.gauge(
        &format!("index_bench.{tag}.memory_bytes"),
        index.memory_bytes() as f64,
    );
    if legacy_elapsed > 0.0 {
        metrics.gauge(
            &format!("index_bench.{tag}.legacy_queries_per_sec"),
            n as f64 / legacy_elapsed,
        );
    }
    if csr_elapsed > 0.0 {
        metrics.gauge(
            &format!("index_bench.{tag}.csr_queries_per_sec"),
            n as f64 / csr_elapsed,
        );
        metrics.gauge(
            &format!("index_bench.{tag}.speedup_all_neighbors"),
            legacy_elapsed / csr_elapsed,
        );
    }
    if csr_build > 0.0 {
        metrics.gauge(
            &format!("index_bench.{tag}.csr_builds_per_sec"),
            1.0 / csr_build,
        );
    }
}

/// Compare the CSR engine against the frozen pre-CSR engine over the
/// size × duplicate-fraction grid; return the `BENCH_index.json`
/// document. `max_n` caps the corpus size (CI smoke runs pass a cap;
/// the committed baseline uses `usize::MAX`).
pub fn index_baseline(seed: u64, threads: usize, max_n: usize) -> String {
    let registry = Arc::new(Registry::new());
    let metrics = Metrics::from_registry(Arc::clone(&registry));
    metrics.add("index_bench.eps", EPS as u64);
    for &n in INDEX_BENCH_SIZES.iter().filter(|&&n| n <= max_n) {
        for &dup_pct in &INDEX_BENCH_DUP_PCTS {
            timed_index_cell(&metrics, seed, n, dup_pct, threads);
        }
    }
    wrap("index", "synthetic", seed, &registry.to_json())
}

/// `BENCH_hash.json`: thread counts for the hash-stage comparison.
const HASH_BENCH_THREADS: [usize; 3] = [1, 2, 8];

/// The current hash stage *without* the render cache: full per-post
/// renders through `Dataset::render_post_image`, but the scratch-reuse
/// kernel. Isolates the kernel's contribution from the cache's.
fn bench_hash_uncached(dataset: &Dataset, threads: usize) -> Vec<PHash> {
    let n = dataset.posts.len();
    let threads = effective_threads(threads, n);
    let chunk_len = n.div_ceil(threads);
    let mut hashes = vec![PHash::default(); n];
    crossbeam::thread::scope(|s| {
        for (chunk_id, slot_chunk) in hashes.chunks_mut(chunk_len).enumerate() {
            s.spawn(move |_| {
                let hasher = PerceptualHasher::new();
                let mut scratch = HashScratch::new();
                for (off, slot) in slot_chunk.iter_mut().enumerate() {
                    let post = &dataset.posts[chunk_id * chunk_len + off];
                    *slot = hasher.hash_into(&dataset.render_post_image(post), &mut scratch);
                }
            });
        }
    })
    .expect("hashing worker panicked");
    hashes
}

/// The full current hash stage: shared render cache + per-worker
/// scratch, mirroring `meme-core`'s `hash_posts` loop.
fn bench_hash_cached(
    dataset: &Dataset,
    cache: &RenderCache,
    threads: usize,
) -> (Vec<PHash>, RenderStats) {
    let n = dataset.posts.len();
    let threads = effective_threads(threads, n);
    let chunk_len = n.div_ceil(threads);
    let mut worker_stats = vec![RenderStats::default(); n.div_ceil(chunk_len)];
    let mut hashes = vec![PHash::default(); n];
    crossbeam::thread::scope(|s| {
        for ((chunk_id, slot_chunk), stats) in hashes
            .chunks_mut(chunk_len)
            .enumerate()
            .zip(worker_stats.iter_mut())
        {
            s.spawn(move |_| {
                let hasher = PerceptualHasher::new();
                let mut scratch = HashScratch::new();
                for (off, slot) in slot_chunk.iter_mut().enumerate() {
                    let post = &dataset.posts[chunk_id * chunk_len + off];
                    let img = dataset.render_post_cached(post, cache, stats);
                    *slot = hasher.hash_into(img.as_image(), &mut scratch);
                }
            });
        }
    })
    .expect("hashing worker panicked");
    let mut stats = RenderStats::default();
    for s in &worker_stats {
        stats.merge(s);
    }
    (hashes, stats)
}

/// Compare the hash stage against the frozen pre-optimization path
/// ([`crate::legacy`]) at 1/2/8 threads; return the `BENCH_hash.json`
/// document. Three rungs per thread count — frozen legacy, the
/// scratch-reuse kernel over uncached renders, and the full cached
/// stage — with byte-equality asserted between all three. `max_n` caps
/// the post count (CI smoke runs pass a cap; the committed baseline
/// uses `usize::MAX`).
pub fn hash_baseline(scale: SimScale, seed: u64, max_n: usize) -> String {
    let mut dataset = SimConfig::new(scale, seed).generate();
    if dataset.posts.len() > max_n {
        dataset.posts.truncate(max_n);
    }
    let n = dataset.posts.len();
    let registry = Arc::new(Registry::new());
    let metrics = Metrics::from_registry(Arc::clone(&registry));
    metrics.add("hash_bench.images", n as u64);

    let span = metrics.span("hash/cache_build");
    let cache = RenderCache::build(&dataset);
    span.finish();
    metrics.gauge("hash.render_cache.entries", cache.entries() as f64);
    metrics.gauge("hash.render_cache.bytes", cache.bytes() as f64);

    for &threads in &HASH_BENCH_THREADS {
        let span = metrics.span(&format!("hash/{threads}/legacy"));
        let legacy = legacy_hash_posts(&dataset, threads);
        let legacy_elapsed = span.finish();

        let span = metrics.span(&format!("hash/{threads}/kernel_uncached"));
        let uncached = bench_hash_uncached(&dataset, threads);
        let uncached_elapsed = span.finish();

        let span = metrics.span(&format!("hash/{threads}/cached"));
        let (cached, stats) = bench_hash_cached(&dataset, &cache, threads);
        let cached_elapsed = span.finish();

        // A speedup over different bits would be meaningless.
        assert_eq!(uncached, legacy, "kernel diverged from legacy bits");
        assert_eq!(cached, legacy, "cached stage diverged from legacy bits");

        if threads == HASH_BENCH_THREADS[0] {
            metrics.add("hash.render_cache.hits", stats.hits);
            metrics.add("hash.render_cache.misses", stats.misses);
            metrics.add("hash.rendered.meme_variant", stats.meme_variant);
            metrics.add("hash.rendered.one_off", stats.one_off);
            metrics.add("hash.rendered.screenshot", stats.screenshot);
            metrics.add("hash.rendered.blank", stats.blank);
        }
        if legacy_elapsed > 0.0 {
            metrics.gauge(
                &format!("hash_bench.{threads}.legacy_images_per_sec"),
                n as f64 / legacy_elapsed,
            );
        }
        if uncached_elapsed > 0.0 {
            metrics.gauge(
                &format!("hash_bench.{threads}.kernel_images_per_sec"),
                n as f64 / uncached_elapsed,
            );
            metrics.gauge(
                &format!("hash_bench.{threads}.speedup_kernel"),
                legacy_elapsed / uncached_elapsed,
            );
        }
        if cached_elapsed > 0.0 {
            metrics.gauge(
                &format!("hash_bench.{threads}.cached_images_per_sec"),
                n as f64 / cached_elapsed,
            );
            metrics.gauge(
                &format!("hash_bench.{threads}.speedup_cached"),
                legacy_elapsed / cached_elapsed,
            );
        }
    }

    // Per-kind post mix, so the per-kind throughput story is readable
    // straight off the artifact.
    let mut kinds = [0u64; 4];
    for post in &dataset.posts {
        match post.image {
            ImageRef::MemeVariant { .. } => kinds[0] += 1,
            ImageRef::OneOff { .. } => kinds[1] += 1,
            ImageRef::Screenshot { .. } => kinds[2] += 1,
            ImageRef::Blank => kinds[3] += 1,
        }
    }
    metrics.add("hash_bench.posts.meme_variant", kinds[0]);
    metrics.add("hash_bench.posts.one_off", kinds[1]);
    metrics.add("hash_bench.posts.screenshot", kinds[2]);
    metrics.add("hash_bench.posts.blank", kinds[3]);

    wrap("hash", scale_label(scale), seed, &registry.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustering_baseline_is_valid_and_finds_clusters() {
        let doc = clustering_baseline(7, 2);
        // The wrapper embeds a registry export under "metrics".
        assert!(doc.contains("\"bench\": \"clustering\""));
        assert!(doc.contains("\"schema_version\""));
        assert!(doc.contains("clustering/mih/all_neighbors"));
        assert!(doc.contains("clustering.clusters"));
    }

    #[test]
    fn index_baseline_reports_speedups_at_reduced_scale() {
        // Capped at 1k so the test stays fast; the grid logic, span
        // names, and equality assertion are identical at full scale.
        let doc = index_baseline(7, 2, 1_000);
        for needle in [
            "\"bench\": \"index\"",
            "index/1000x0/legacy_all_neighbors",
            "index/1000x90/csr_all_neighbors",
            "index_bench.1000x50.collapse_ratio",
            "index_bench.1000x90.speedup_all_neighbors",
        ] {
            assert!(doc.contains(needle), "missing {needle}");
        }
        assert!(!doc.contains("index/10000x0"), "cap ignored");
    }

    #[test]
    fn hash_baseline_reports_speedups_at_reduced_scale() {
        // Capped at 400 posts so the test stays fast; the rung
        // structure, span names, and equality assertions are identical
        // at full scale.
        let doc = hash_baseline(SimScale::Tiny, 7, 400);
        for needle in [
            "\"bench\": \"hash\"",
            "hash/cache_build",
            "hash/1/legacy",
            "hash/1/kernel_uncached",
            "hash/8/cached",
            "hash_bench.1.speedup_cached",
            "hash_bench.1.speedup_kernel",
            "hash.render_cache.hits",
            "hash.render_cache.entries",
            "hash_bench.posts.meme_variant",
        ] {
            assert!(doc.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn duplicated_corpus_hits_requested_fraction() {
        for &pct in &INDEX_BENCH_DUP_PCTS {
            let corpus = duplicated_corpus(3, 1_000, pct);
            assert_eq!(corpus.len(), 1_000);
            let groups = HashGroups::new(&corpus);
            // Unique count can only be at most the non-duplicate base
            // (families add further collisions only by chance).
            assert!(groups.len_unique() <= 1_000 - 1_000 * pct / 100);
            if pct >= 50 {
                assert!(groups.collapse_ratio() <= 0.55, "pct {pct}");
            }
        }
    }

    #[test]
    fn pipeline_baseline_carries_stage_spans_and_hawkes_counters() {
        let doc = pipeline_baseline(SimScale::Tiny, 7, 0);
        assert!(doc.contains("\"bench\": \"pipeline\""));
        for needle in [
            "pipeline/hash",
            "pipeline/cluster",
            "pipeline/site",
            "pipeline/annotate",
            "pipeline/associate",
            "pipeline/influence",
            "hawkes.em_iterations_total",
            "hash.images_per_sec",
        ] {
            assert!(doc.contains(needle), "missing {needle}");
        }
    }
}
