//! Every call into the product crates lives in this file.
//!
//! The rest of the benchmark sees plain numbers, strings and the opaque
//! handles defined here, so a simplification of the product's API is a
//! change to this one file. Only entry points that are meant to survive
//! that simplification are used (`tests/survivor_api.rs` enforces it): the
//! supervised driver, the `try_` twins, `symmetric_neighbors`, and
//! `InfluenceEstimator::estimate_robust`.

use meme_annotate::annotator::annotate_clusters_with_stats;
use meme_cluster::try_dbscan;
use meme_core::{
    decode_checkpoint, encode_checkpoint, prev_checkpoint_path, Checkpoint, Pipeline,
    PipelineConfig, PipelineOutput, RunnerOutcome, StageId, StagePolicy, StageState, SupervisedRun,
    SupervisedRunner,
};
use meme_hawkes::{ClusterInfluence, InfluenceEstimator, InfluenceMatrix};
use meme_imaging::dct::Dct2d;
use meme_imaging::image::Image;
use meme_imaging::resize::{resize_box_into_f64, BoxResizeScratch};
use meme_index::{symmetric_neighbors, FallbackIndex, HammingIndex, HashGroups, QueryScratch};
use meme_metrics::Metrics;
use meme_phash::{HashScratch, ImageHasher, PHash, PerceptualHasher};
use meme_serve::protocol::{parse_request, render_hit, render_miss};
use meme_serve::{
    load_output, BatchQueue, Push, ServeScratch, Server, ServerConfig, Snapshot, SnapshotStore,
    DEFAULT_THETA,
};
use meme_simweb::{Community, Dataset, ImageRef, RenderCache, RenderStats, SimConfig, SimScale};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub type Res<T> = Result<T, String>;

/// A generated corpus.
pub type Corpus = Dataset;
/// A completed run (Steps 1-6).
pub type RunOutput = PipelineOutput;
/// A 64-bit perceptual hash.
pub type Hash = PHash;
/// Step 7's influence matrices, one per cluster and their sum.
pub type Influence = ClusterInfluence;

/// Cores this process may use; pipeline threads and client counts follow it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------- corpora

/// How a workload's corpus is generated from `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct CorpusSpec {
    preset: SimScale,
    /// Memes in the universe. Posts, clusters and the KYM site all scale
    /// with it, so a smaller universe keeps each stage's share of a run.
    memes: usize,
    /// Multiplier on the preset's `universe.rate_scale` (meme posting rate).
    rate_mul: f64,
    /// Multiplier on every community's `oneoff_ratio`.
    oneoff_mul: f64,
    /// Multiplier on the KYM galleries' `images_per_variant`: the site
    /// stage renders and hashes every gallery image on one thread.
    gallery_mul: f64,
    /// Thin the generated posts evenly down to exactly this many, so that
    /// every seed measures the same amount of work.
    posts: usize,
}

/// The paper-shaped mix: the Small preset's one-off ratios (77% one-offs).
pub const SPARSE: CorpusSpec = CorpusSpec {
    preset: SimScale::Small,
    memes: 60,
    rate_mul: 1.0,
    oneoff_mul: 1.0,
    gallery_mul: 1.0,
    posts: 16_000,
};

/// Duplicate-heavy: one-offs almost gone, meme variants posted far more
/// often. Three times the memes of [`SPARSE`], because what the cluster and
/// Hawkes stages cost is heavy-tailed per meme and has to average out for
/// ten seeds to agree; quarter-size galleries keep the site stage, which is
/// render and pHash work, a small share of a workload that exists to bypass it.
pub const DENSE: CorpusSpec = CorpusSpec {
    preset: SimScale::Small,
    memes: 180,
    rate_mul: 3.0,
    oneoff_mul: 0.02,
    gallery_mul: 0.25,
    posts: 40_000,
};

/// `--smoke`: the Tiny preset, a few thousand posts.
pub const SMOKE_SPARSE: CorpusSpec = CorpusSpec {
    preset: SimScale::Tiny,
    memes: 60,
    rate_mul: 1.0,
    oneoff_mul: 1.0,
    gallery_mul: 1.0,
    posts: 8_000,
};

pub const SMOKE_DENSE: CorpusSpec = CorpusSpec {
    preset: SimScale::Tiny,
    memes: 60,
    rate_mul: 4.0,
    oneoff_mul: 0.02,
    gallery_mul: 1.0,
    posts: 6_000,
};

/// Generate the corpus for `seed` and thin it to the spec's post count.
pub fn generate(spec: &CorpusSpec, seed: u64) -> Res<Corpus> {
    let mut config = SimConfig::new(spec.preset, seed);
    config.universe.n_memes = spec.memes;
    config.universe.rate_scale *= spec.rate_mul;
    config.kym.images_per_variant *= spec.gallery_mul;
    for profile in &mut config.profiles {
        profile.oneoff_ratio *= spec.oneoff_mul;
    }
    let mut corpus = config.try_generate().map_err(|e| e.to_string())?;
    thin(&mut corpus, spec.posts);
    Ok(corpus)
}

/// Keep `keep` posts, evenly spaced over the time-sorted stream (so the
/// mix of image kinds and the timeline keep their shape), and re-number.
fn thin(corpus: &mut Corpus, keep: usize) {
    let total = corpus.posts.len();
    if total <= keep {
        return;
    }
    let posts = std::mem::take(&mut corpus.posts);
    corpus.posts = posts
        .into_iter()
        .enumerate()
        .filter(|(i, _)| (i + 1) * keep / total > i * keep / total)
        .map(|(_, post)| post)
        .collect();
    for (id, post) in corpus.posts.iter_mut().enumerate() {
        post.id = id;
    }
}

/// The first `n` posts of `corpus` as a corpus of their own.
pub fn head(corpus: &Corpus, n: usize) -> Corpus {
    let mut head = corpus.clone();
    head.posts.truncate(n);
    head
}

/// Size and mix of a corpus, for the report.
#[derive(Debug, Clone, Copy)]
pub struct CorpusShape {
    pub posts: usize,
    pub oneoffs: usize,
    pub variants: usize,
    pub fringe: usize,
}

pub fn shape(corpus: &Corpus) -> CorpusShape {
    let count = |f: &dyn Fn(&ImageRef) -> bool| corpus.posts.iter().filter(|p| f(&p.image)).count();
    CorpusShape {
        posts: corpus.posts.len(),
        oneoffs: count(&|i| matches!(i, ImageRef::OneOff { .. })),
        variants: count(&|i| matches!(i, ImageRef::MemeVariant { .. })),
        fringe: corpus
            .posts
            .iter()
            .filter(|p| p.community.is_fringe())
            .count(),
    }
}

// ------------------------------------------------------ program-side metrics

/// The program's own metrics registry: disabled for every timed
/// repetition, enabled for the traced one only.
#[derive(Debug, Clone)]
pub struct ProgramMetrics(Metrics);

impl ProgramMetrics {
    pub fn disabled() -> Self {
        Self(Metrics::disabled())
    }

    pub fn enabled() -> Self {
        Self(Metrics::enabled())
    }

    /// Total seconds and calls the program recorded under a span path.
    pub fn span(&self, path: &str) -> (f64, u64) {
        self.0
            .registry()
            .and_then(|r| {
                r.snapshot()
                    .spans
                    .get(path)
                    .map(|s| (s.total_secs, s.calls))
            })
            .unwrap_or((0.0, 0))
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.0.counter(name)
    }

    /// Mean of a program-side histogram (0 when never observed).
    pub fn histogram_mean(&self, name: &str) -> f64 {
        self.0
            .registry()
            .and_then(|r| r.snapshot().histograms.get(name).map(|h| (h.sum, h.count)))
            .map_or(
                0.0,
                |(sum, count)| if count == 0 { 0.0 } else { sum / count as f64 },
            )
    }
}

/// The program's span path for a pipeline stage (`pipeline/hash`, ...).
pub const STAGES: [&str; 5] = ["hash", "cluster", "site", "annotate", "associate"];

pub fn stage_span(stage: &str) -> String {
    format!("pipeline/{stage}")
}

// ------------------------------------------------------------- batch layer

/// What one supervised run or resume produced.
#[derive(Debug)]
pub struct BatchRun {
    pub output: RunOutput,
    pub retries: u32,
    pub quarantined: usize,
}

fn runner(threads: usize, metrics: &ProgramMetrics) -> SupervisedRunner {
    let config = PipelineConfig {
        threads,
        ..PipelineConfig::fast()
    };
    SupervisedRunner::new(Pipeline::new(config))
        .with_metrics(metrics.0.clone())
        .with_policy(StagePolicy::default())
}

fn completed(run: Result<SupervisedRun, meme_core::PipelineError>) -> Res<BatchRun> {
    let run = run.map_err(|e| e.to_string())?;
    match run.outcome {
        RunnerOutcome::Complete(output) => Ok(BatchRun {
            output: *output,
            retries: run.report.total_retries(),
            quarantined: run.report.quarantined_items,
        }),
        RunnerOutcome::Halted { after } => Err(format!("run halted after stage `{after}`")),
    }
}

/// The `memes run` driver: Steps 1-6 under supervision.
pub fn run_pipeline(corpus: &Corpus, threads: usize, metrics: &ProgramMetrics) -> Res<BatchRun> {
    completed(runner(threads, metrics).run(corpus))
}

/// Step 1 alone: hash the corpus and halt, leaving the post-hash
/// checkpoint at `checkpoint` when one is given.
pub fn hash_stage(corpus: &Corpus, threads: usize, checkpoint: Option<&Path>) -> Res<()> {
    let mut runner = runner(threads, &ProgramMetrics::disabled()).halt_after(StageId::Hash);
    if let Some(path) = checkpoint {
        runner = runner.with_checkpoint(path);
    }
    let run = runner.run(corpus).map_err(|e| e.to_string())?;
    match run.outcome {
        RunnerOutcome::Halted { .. } => Ok(()),
        RunnerOutcome::Complete(_) => Err("hash-stage run did not halt".to_string()),
    }
}

/// The `memes resume` driver: continue from the checkpoint on disk.
pub fn resume_pipeline(
    corpus: &Corpus,
    threads: usize,
    checkpoint: &Path,
    metrics: &ProgramMetrics,
) -> Res<BatchRun> {
    completed(
        runner(threads, metrics)
            .with_checkpoint(checkpoint)
            .resume(corpus),
    )
}

/// Where the driver keeps the generation before the current checkpoint.
pub fn previous_generation(checkpoint: &Path) -> PathBuf {
    prev_checkpoint_path(checkpoint)
}

/// Step 7 over a completed run.
#[derive(Debug)]
pub struct InfluenceRun {
    pub influence: ClusterInfluence,
    pub fitted: usize,
    pub skipped: usize,
    pub em_iterations: u64,
}

pub fn fit_influence(corpus: &Corpus, output: &RunOutput, threads: usize) -> Res<InfluenceRun> {
    let streams = output
        .try_all_cluster_events(corpus)
        .map_err(|e| e.to_string())?;
    let estimator = InfluenceEstimator::new(Community::COUNT, 3.0);
    let robust = estimator.estimate_robust(&streams, corpus.horizon(), threads);
    Ok(InfluenceRun {
        fitted: robust.fit_stats.len(),
        skipped: robust.skipped.len(),
        em_iterations: robust.fit_stats.iter().map(|f| f.iterations as u64).sum(),
        influence: robust.influence,
    })
}

/// Step 7's matrices as a file. The artifact a run writes does not carry
/// them, and the serve workloads' process must not run Step 7 itself (its
/// peak resident set has to be the server's), so the process that made the
/// artifact leaves them next to it.
#[derive(Serialize, Deserialize)]
struct InfluenceFile {
    per_cluster: Vec<InfluenceMatrix>,
    total: InfluenceMatrix,
}

pub fn save_influence(influence: &Influence, path: &Path) -> Res<()> {
    let file = InfluenceFile {
        per_cluster: influence.per_cluster.clone(),
        total: influence.total.clone(),
    };
    let json = serde_json::to_string(&file).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn load_influence(path: &Path) -> Res<Influence> {
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let file: InfluenceFile =
        serde_json::from_str(&json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(ClusterInfluence {
        per_cluster: file.per_cluster,
        total: file.total,
    })
}

pub fn output_json(output: &RunOutput) -> String {
    output.to_json()
}

pub fn cluster_counts(output: &RunOutput) -> (usize, usize) {
    (
        output.clustering.n_clusters(),
        output.annotated_clusters().len(),
    )
}

/// Re-hash `sample` evenly spaced posts through the one-shot path
/// (`render_post_image` + `PerceptualHasher::hash`) and count the ones whose
/// hash differs from what the run stored.
pub fn rehash_mismatches(corpus: &Corpus, output: &RunOutput, sample: usize) -> usize {
    let n = corpus.posts.len();
    if n == 0 || output.post_hashes.len() != n {
        return sample.max(1);
    }
    let hasher = PerceptualHasher::new();
    let sample = sample.min(n);
    (0..sample)
        .map(|k| k * n / sample)
        .filter(|&i| {
            hasher.hash(&corpus.render_post_image(&corpus.posts[i])) != output.post_hashes[i]
        })
        .count()
}

// ------------------------------------------------------------ batch probes

/// Render probe over the first posts of a corpus, split by image kind.
#[derive(Debug)]
pub struct RenderProbe {
    pub cache_build_s: f64,
    pub oneoff_us: f64,
    pub variant_us: f64,
    pub cache_hit_ratio: f64,
    /// The first rendered images, kept for the imaging and pHash probes.
    pub images: Vec<Image>,
}

pub fn probe_render(corpus: &Corpus, posts: usize, keep: usize) -> RenderProbe {
    let t = Instant::now();
    let cache = RenderCache::build(corpus);
    let cache_build_s = t.elapsed().as_secs_f64();
    let mut stats = RenderStats::default();
    let mut images = Vec::with_capacity(keep);
    let (mut oneoff_s, mut oneoffs, mut variant_s, mut variants) = (0.0, 0u64, 0.0, 0u64);
    for post in corpus.posts.iter().take(posts) {
        let t = Instant::now();
        let rendered = corpus.render_post_cached(post, &cache, &mut stats);
        let secs = t.elapsed().as_secs_f64();
        match post.image {
            ImageRef::OneOff { .. } => {
                oneoff_s += secs;
                oneoffs += 1;
            }
            ImageRef::MemeVariant { .. } => {
                variant_s += secs;
                variants += 1;
            }
            ImageRef::Screenshot { .. } | ImageRef::Blank => {}
        }
        if images.len() < keep {
            images.push(rendered.as_image().clone());
        }
        black_box(&rendered);
    }
    let per_us = |secs: f64, n: u64| if n == 0 { 0.0 } else { secs * 1e6 / n as f64 };
    RenderProbe {
        cache_build_s,
        oneoff_us: per_us(oneoff_s, oneoffs),
        variant_us: per_us(variant_s, variants),
        cache_hit_ratio: ratio(stats.hits, stats.hits + stats.misses),
        images,
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Box resize 64->32 and top-left DCT 32->8, microseconds per image.
pub fn probe_imaging(images: &[Image]) -> (f64, f64) {
    if images.is_empty() {
        return (0.0, 0.0);
    }
    let (n, hs) = (32, 8);
    let dct = Dct2d::new(n);
    let mut scratch = BoxResizeScratch::new();
    let mut plane = vec![0.0f64; n * n];
    let mut tmp = vec![0.0f64; hs * n];
    let mut block = vec![0.0f64; hs * hs];
    let t = Instant::now();
    for img in images {
        resize_box_into_f64(img, n, n, &mut scratch, &mut plane);
        black_box(&plane);
    }
    let resize_us = t.elapsed().as_secs_f64() * 1e6 / images.len() as f64;
    let t = Instant::now();
    for _ in images {
        dct.forward_topleft_into(black_box(&plane), hs, &mut tmp, &mut block);
        black_box(&block);
    }
    let dct_us = t.elapsed().as_secs_f64() * 1e6 / images.len() as f64;
    (resize_us, dct_us)
}

/// The pHash kernel with one reused scratch: (microseconds per image, images hashed).
pub fn probe_phash(images: &[Image], rounds: usize) -> (f64, u64) {
    let hasher = PerceptualHasher::new();
    let mut scratch = HashScratch::new();
    let t = Instant::now();
    for _ in 0..rounds {
        for img in images {
            black_box(hasher.hash_into(img, &mut scratch));
        }
    }
    let hashed = (rounds * images.len()) as u64;
    let us = if hashed == 0 {
        0.0
    } else {
        t.elapsed().as_secs_f64() * 1e6 / hashed as f64
    };
    (us, hashed)
}

/// Steps 2-3 and 5 re-done piece by piece on a run's own hashes.
#[derive(Debug, Default)]
pub struct ClusterProbe {
    pub group_s: f64,
    pub build_s: f64,
    pub neighbors_s: f64,
    pub collapse_ratio: f64,
    pub candidates_per_query: f64,
    pub verify_ratio: f64,
    pub dbscan_s: f64,
    pub medoids_s: f64,
    pub clusters: usize,
    pub noise_ratio: f64,
    pub annotate_s: f64,
    pub annotated_ratio: f64,
}

pub fn probe_cluster(output: &RunOutput, threads: usize) -> Res<ClusterProbe> {
    let config = PipelineConfig::fast();
    let fringe: Vec<PHash> = output
        .fringe_posts
        .iter()
        .map(|&i| output.post_hashes[i])
        .collect();
    let mut p = ClusterProbe::default();

    let t = Instant::now();
    let groups = HashGroups::new(&fringe);
    p.group_s = t.elapsed().as_secs_f64();
    p.collapse_ratio = groups.collapse_ratio();

    let t = Instant::now();
    let index = FallbackIndex::build(groups.unique().to_vec(), config.dbscan.eps);
    p.build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (neighbors, stats) = symmetric_neighbors(&index, &groups, config.dbscan.eps, threads);
    p.neighbors_s = t.elapsed().as_secs_f64();
    p.candidates_per_query = if stats.unique == 0 {
        0.0
    } else {
        stats.candidates as f64 / stats.unique as f64
    };
    p.verify_ratio = ratio(stats.verified, stats.candidates);

    let t = Instant::now();
    let clustering = try_dbscan(&neighbors, config.dbscan.min_pts).map_err(|e| e.to_string())?;
    p.dbscan_s = t.elapsed().as_secs_f64();
    p.clusters = clustering.n_clusters();
    p.noise_ratio = clustering.noise_fraction();

    let t = Instant::now();
    let medoids = clustering.try_medoids(&fringe).map_err(|e| e.to_string())?;
    p.medoids_s = t.elapsed().as_secs_f64();

    let medoid_hashes: Vec<PHash> = medoids.iter().map(|&m| fringe[m]).collect();
    let t = Instant::now();
    let (_, stats) = annotate_clusters_with_stats(&medoid_hashes, &output.site, config.theta);
    p.annotate_s = t.elapsed().as_secs_f64();
    p.annotated_ratio = ratio(stats.annotated_clusters as u64, medoid_hashes.len() as u64);
    Ok(p)
}

/// Step 6's query: post hashes against the annotated-medoid index, ns per query.
pub fn probe_association_query(output: &RunOutput, queries: usize) -> f64 {
    let theta = PipelineConfig::fast().theta;
    let medoids: Vec<PHash> = output
        .annotated_clusters()
        .iter()
        .map(|&c| output.medoid_hashes[c])
        .collect();
    let queries = queries.min(output.post_hashes.len());
    if medoids.is_empty() || queries == 0 {
        return 0.0;
    }
    let index = FallbackIndex::build(medoids, theta);
    let mut scratch = QueryScratch::new();
    let mut hits = Vec::new();
    let t = Instant::now();
    for &h in &output.post_hashes[..queries] {
        index.radius_query_into(h, theta, &mut scratch, &mut hits);
        black_box(&hits);
    }
    t.elapsed().as_secs_f64() * 1e9 / queries as f64
}

/// Checkpoint codec over the completed run: (encode s, decode s, envelope bytes).
pub fn probe_checkpoint_codec(corpus: &Corpus, output: &RunOutput) -> Res<(f64, f64, usize)> {
    let mut ckpt = Checkpoint::fresh(corpus, PipelineConfig::fast());
    ckpt.completed = StageId::ALL.to_vec();
    ckpt.state = StageState {
        post_hashes: Some(output.post_hashes.clone()),
        fringe_posts: Some(output.fringe_posts.clone()),
        clustering: Some(output.clustering.clone()),
        medoid_hashes: Some(output.medoid_hashes.clone()),
        medoid_posts: Some(output.medoid_posts.clone()),
        site: Some(output.site.clone()),
        entry_meme_ids: Some(output.entry_meme_ids.clone()),
        screenshot_metrics: output.screenshot_metrics.clone(),
        annotations: Some(output.annotations.clone()),
        occurrences: Some(output.occurrences.clone()),
        degradations: output.degradations.clone(),
        quarantined: Vec::new(),
    };
    let t = Instant::now();
    let bytes = encode_checkpoint(&ckpt);
    let encode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let decoded = decode_checkpoint(&bytes).map_err(|e| e.to_string())?;
    let decode_s = t.elapsed().as_secs_f64();
    if decoded.completed != ckpt.completed {
        return Err("checkpoint did not round-trip".to_string());
    }
    Ok((encode_s, decode_s, bytes.len()))
}

/// Cost of the program's instrumentation on an enabled registry, one
/// thread: (ns per `inc`, ns per `span().finish()`).
pub fn probe_metrics(calls: usize) -> (f64, f64) {
    let metrics = Metrics::enabled();
    let t = Instant::now();
    for _ in 0..calls {
        metrics.inc("probe.counter");
    }
    let inc_ns = t.elapsed().as_secs_f64() * 1e9 / calls.max(1) as f64;
    let t = Instant::now();
    for _ in 0..calls {
        black_box(metrics.span("probe/span").finish());
    }
    let span_ns = t.elapsed().as_secs_f64() * 1e9 / calls.max(1) as f64;
    (inc_ns, span_ns)
}

// ------------------------------------------------------------- serve layer

/// A snapshot store plus what a client needs to check replies against it.
#[derive(Debug)]
pub struct ServeFixture {
    store: Arc<SnapshotStore>,
}

/// Timings of bringing an artifact on disk up to a snapshot.
#[derive(Debug, Clone, Copy)]
pub struct LoadTimes {
    pub load_output_ms: f64,
    pub snapshot_build_ms: f64,
}

impl ServeFixture {
    /// Exactly what `memes serve` does with `--artifact` and a described
    /// dataset: load the artifact, build the snapshot with influence rows.
    pub fn from_artifact(artifact: &Path, influence: &Influence) -> Res<(ServeFixture, LoadTimes)> {
        let t = Instant::now();
        let output = load_output(artifact).map_err(|e| e.to_string())?;
        let load_output_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let snapshot = Snapshot::build(&output, Some(influence), DEFAULT_THETA, 0)
            .map_err(|e| e.to_string())?;
        let snapshot_build_ms = t.elapsed().as_secs_f64() * 1e3;
        let fixture = ServeFixture {
            store: Arc::new(SnapshotStore::new(snapshot)),
        };
        Ok((
            fixture,
            LoadTimes {
                load_output_ms,
                snapshot_build_ms,
            },
        ))
    }

    /// Medoid hashes of the servable memes; the query mix perturbs these.
    pub fn servable_hashes(&self) -> Vec<Hash> {
        self.store
            .load()
            .records()
            .iter()
            .map(|r| r.medoid)
            .collect()
    }

    /// The line the server must answer for `hash`, computed in process
    /// through `Snapshot::lookup` and the protocol's renderers, and
    /// whether it is a hit.
    pub fn expected_reply(&self, hash: Hash) -> (String, bool) {
        let snapshot = self.store.load();
        let mut scratch = ServeScratch::new();
        let mut line = String::new();
        match snapshot.lookup(hash, &mut scratch) {
            Some(hit) => {
                render_hit(&mut line, hash, &hit, &snapshot);
                (line, true)
            }
            None => {
                render_miss(&mut line, hash, snapshot.generation());
                (line, false)
            }
        }
    }

    /// Start a server over this store with `ServerConfig::default()`, as
    /// `memes serve` does (`allow_reload` is its `--reload`).
    pub fn start(&self, allow_reload: bool, metrics: &ProgramMetrics) -> Res<RunningServer> {
        let config = ServerConfig {
            allow_reload,
            ..ServerConfig::default()
        };
        Server::start(Arc::clone(&self.store), config, metrics.0.clone())
            .map(RunningServer)
            .map_err(|e| e.to_string())
    }
}

/// A live server; `shutdown` (or drop) joins every thread it started.
#[derive(Debug)]
pub struct RunningServer(Server);

impl RunningServer {
    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// The wire form of a lookup request, newline included.
pub fn request_line(hash: Hash) -> String {
    format!("{{\"hash\":\"{hash}\"}}\n")
}

/// The wire form of a reload request, newline included.
pub fn reload_line(artifact: &Path) -> String {
    let path = artifact
        .display()
        .to_string()
        .replace('\\', "\\\\")
        .replace('"', "\\\"");
    format!("{{\"op\":\"reload\",\"artifact\":\"{path}\"}}\n")
}

pub fn flip_bits(hash: Hash, bits: &[u8]) -> Hash {
    hash.with_flipped_bits(bits)
}

/// In-process cost of the hops a lookup passes through, ns per call.
#[derive(Debug, Default)]
pub struct HopProbe {
    pub parse_ns: f64,
    pub lookup_hit_ns: f64,
    pub lookup_miss_ns: f64,
    pub render_hit_ns: f64,
    pub queue_handoff_ns: f64,
}

pub fn probe_hops(fixture: &ServeFixture, queries: &[Hash], calls: usize) -> HopProbe {
    let snapshot = fixture.store.load();
    let mut scratch = ServeScratch::new();
    let (hits, misses): (Vec<Hash>, Vec<Hash>) = queries
        .iter()
        .partition(|&&q| snapshot.lookup(q, &mut scratch).is_some());
    let per_ns = |secs: f64, n: usize| if n == 0 { 0.0 } else { secs * 1e9 / n as f64 };
    let mut p = HopProbe::default();

    let lines: Vec<String> = queries.iter().map(|&q| request_line(q)).collect();
    if !lines.is_empty() {
        let t = Instant::now();
        for i in 0..calls {
            black_box(parse_request(lines[i % lines.len()].trim_end()).is_ok());
        }
        p.parse_ns = per_ns(t.elapsed().as_secs_f64(), calls);
    }
    let mut time_lookups = |set: &[Hash]| {
        if set.is_empty() {
            return 0.0;
        }
        let t = Instant::now();
        for i in 0..calls {
            black_box(snapshot.lookup(set[i % set.len()], &mut scratch));
        }
        per_ns(t.elapsed().as_secs_f64(), calls)
    };
    p.lookup_hit_ns = time_lookups(&hits);
    p.lookup_miss_ns = time_lookups(&misses);

    let mut scratch = ServeScratch::new();
    let found: Vec<_> = hits
        .iter()
        .filter_map(|&q| snapshot.lookup(q, &mut scratch).map(|hit| (q, hit)))
        .collect();
    if !found.is_empty() {
        let mut line = String::new();
        let t = Instant::now();
        for i in 0..calls {
            let (q, hit) = &found[i % found.len()];
            render_hit(&mut line, *q, hit, &snapshot);
            black_box(&line);
        }
        p.render_hit_ns = per_ns(t.elapsed().as_secs_f64(), calls);
    }

    let config = ServerConfig::default();
    let queue: BatchQueue<u64> = BatchQueue::bounded(config.queue_max);
    let mut drained = Vec::new();
    let t = Instant::now();
    for i in 0..calls {
        if queue.try_push(i as u64) == Push::Accepted {
            black_box(queue.drain_into(config.batch_max, &mut drained));
        }
    }
    p.queue_handoff_ns = per_ns(t.elapsed().as_secs_f64(), calls);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_a_function_of_the_seed_and_have_exactly_the_spec_size() {
        let a = generate(&SMOKE_SPARSE, 5).unwrap();
        let b = generate(&SMOKE_SPARSE, 5).unwrap();
        let c = generate(&SMOKE_SPARSE, 6).unwrap();
        assert_eq!(a.posts.len(), SMOKE_SPARSE.posts);
        assert_eq!(c.posts.len(), SMOKE_SPARSE.posts);
        assert_eq!(a.posts, b.posts);
        assert_ne!(a.posts, c.posts);
        let s = shape(&a);
        assert!(s.oneoffs > s.variants && s.fringe > 0, "{s:?}");
        let dense = shape(&generate(&SMOKE_DENSE, 5).unwrap());
        assert!(dense.variants > 4 * dense.oneoffs, "{dense:?}");
    }

    #[test]
    fn thinning_keeps_an_even_sample_in_time_order_with_dense_ids() {
        let full = SimConfig::new(SimScale::Tiny, 5).generate();
        let mut thinned = full.clone();
        thin(&mut thinned, 1_000);
        assert_eq!(thinned.posts.len(), 1_000);
        assert!(thinned.posts.iter().enumerate().all(|(i, p)| p.id == i));
        assert!(thinned.posts.windows(2).all(|w| w[0].t <= w[1].t));
        // Even: each tenth of the original stream keeps about a tenth.
        let cut = full.posts[full.posts.len() / 10].t;
        let early = thinned.posts.iter().filter(|p| p.t < cut).count();
        assert!((90..=110).contains(&early), "{early}");
        // A corpus already small enough is left alone.
        let mut small = full.clone();
        thin(&mut small, full.posts.len() + 1);
        assert_eq!(small.posts, full.posts);
        assert_eq!(head(&full, 10).posts.len(), 10);
    }
}
