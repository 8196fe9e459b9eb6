//! The seven-step processing pipeline (Fig. 2).
//!
//! [`Pipeline`] is the stage library; the one driver,
//! [`crate::supervise::SupervisedRunner`], takes a
//! [`meme_simweb::Dataset`] through:
//!
//! 1. **pHash extraction** — render each post's image lazily, hash it,
//!    drop the pixels (the paper: "after computing the pHashes, we
//!    delete the images");
//! 2. **pairwise distances** — multi-index hashing over the fringe
//!    communities' hashes;
//! 3. **clustering** — DBSCAN at `eps = 8`, `minPts = 5`, then medoids;
//! 4. **screenshot removal** — the CNN filter over KYM galleries (or a
//!    ground-truth oracle for fast tests);
//! 5. **cluster annotation** — medoids vs KYM galleries at `θ = 8`,
//!    representative-entry selection;
//! 6. **association** — every post (all five communities) matched
//!    against annotated-cluster medoids at `θ`;
//! 7. **analysis & influence** — per-cluster event streams
//!    ([`PipelineOutput::try_all_cluster_events`]) feeding the Hawkes
//!    influence fit ([`PipelineOutput::estimate_influence`], at
//!    [`FIT_BETA`] for the paper's figures).
//!
//! The numbers are Fig. 2's, not the execution order: the runner runs
//! Step 4 (stage `site`) before Step 1 (stage `hash`), so that both
//! image passes are behind the post-hash checkpoint ([`StageId::ALL`]).

use crate::checkpoint::{StageId, StageState};
use crate::metric::ClusterDescriptor;
use crate::quarantine::{QuarantineEntry, QuarantineReason};
use meme_annotate::annotator::{annotate_clusters_with_stats, ClusterAnnotation};
use meme_annotate::kym::{KymEntry, KymSite};
use meme_annotate::nn::TrainConfig;
use meme_annotate::screenshot::{ClassifierMetrics, ScreenshotCorpus, ScreenshotFilter};
use meme_annotate::AnnotateError;
use meme_cluster::dbscan::{try_dbscan_distinct, ClusterError, Clustering, DbscanParams};
use meme_cluster::medoid::medoid_of_hashes;
use meme_hawkes::{ClusterInfluence, Event, HawkesError, InfluenceEstimator};
use meme_imaging::image::Image;
use meme_index::{
    distinct_neighbors, effective_threads, FallbackIndex, HammingIndex, HashGroups, NeighborStats,
    QueryScratch,
};
use meme_metrics::Metrics;
use meme_phash::{HashScratch, ImageHasher, PHash, PerceptualHasher};
use meme_simweb::{
    Community, Dataset, ExecFaultSpec, ExecItemFault, ExecStageFault, GalleryImage, LazyImage,
    RenderCache, RenderStats,
};
use meme_stats::dist::DistError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many times Step 4 retries CNN training (reseeding each attempt)
/// before falling back to the ground-truth oracle filter.
pub const MAX_TRAIN_ATTEMPTS: usize = 2;

/// Kernel decay of the paper's Step-7 fit, per day
/// ([`PipelineOutput::estimate_influence`]): events cluster within hours
/// of each other, and 3/day matches the generator.
pub const FIT_BETA: f64 = 3.0;

/// Step-7 fits named in the metrics export: the ones with the lowest
/// log-likelihood per event (`hawkes.worst_fit.<rank>.*`). Every other
/// fit is only counted, in a histogram over
/// [`LOG_LIKELIHOOD_PER_EVENT_BUCKETS`].
pub const WORST_FITS: usize = 5;

/// Bucket upper bounds of the `hawkes.log_likelihood_per_event`
/// histogram: a fitted cluster's final log-likelihood over its event
/// count, in nats; the last bucket is overflow.
pub const LOG_LIKELIHOOD_PER_EVENT_BUCKETS: [f64; 9] =
    [-8.0, -6.0, -4.0, -3.0, -2.0, -1.0, 0.0, 2.0, 4.0];

/// How Step 4 decides what a screenshot is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScreenshotFilterMode {
    /// Train the Appendix-C CNN on a synthetic corpus of the given
    /// scale (fraction of the paper's 28.8K images), then classify.
    Train {
        /// Corpus scale.
        corpus_scale: f64,
        /// CNN training configuration.
        config: TrainConfig,
    },
    /// Use the generator's ground truth (exact, instant) — for tests
    /// and ablations that are not about the classifier.
    Oracle,
    /// No filtering (ablation: how much do screenshots pollute
    /// annotation?).
    Off,
}

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// DBSCAN parameters for Step 3 (paper: eps 8, minPts 5).
    pub dbscan: DbscanParams,
    /// Annotation/association threshold θ (paper: 8).
    pub theta: u32,
    /// Step-4 mode.
    pub screenshot_filter: ScreenshotFilterMode,
    /// Worker threads for the parallel stages (0 = all cores).
    pub threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            dbscan: DbscanParams::default(),
            theta: 8,
            screenshot_filter: ScreenshotFilterMode::Train {
                corpus_scale: 0.01,
                config: TrainConfig::default(),
            },
            threads: 0,
        }
    }
}

impl PipelineConfig {
    /// A fast configuration for tests: oracle screenshot filter.
    pub fn fast() -> Self {
        Self {
            screenshot_filter: ScreenshotFilterMode::Oracle,
            ..Self::default()
        }
    }
}

/// The substrate failure that sank a stage (the leaf of a
/// [`PipelineError::Stage`]).
#[derive(Debug)]
pub enum StageError {
    /// A Hawkes fit failed.
    Hawkes(HawkesError),
    /// Clustering failed.
    Cluster(ClusterError),
    /// Annotation-side training failed.
    Annotate(AnnotateError),
    /// A statistical distribution was mis-parameterised.
    Stats(DistError),
    /// An I/O failure (rendering corpora, spilling intermediates).
    Io(String),
    /// A transient failure worth retrying (flaky I/O, injected faults);
    /// the supervisor retries these under its [`crate::supervise::StagePolicy`].
    Transient {
        /// What failed, rendered.
        detail: String,
    },
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Hawkes(e) => write!(f, "{e}"),
            Self::Cluster(e) => write!(f, "{e}"),
            Self::Annotate(e) => write!(f, "{e}"),
            Self::Stats(e) => write!(f, "{e}"),
            Self::Io(e) => write!(f, "{e}"),
            Self::Transient { detail } => write!(f, "transient failure: {detail}"),
        }
    }
}

impl std::error::Error for StageError {}

/// Pipeline failure.
#[derive(Debug)]
pub enum PipelineError {
    /// The dataset had no posts at all.
    EmptyDataset,
    /// A stage failed; the tag records where and (when per-cluster
    /// work was involved) which cluster sank it.
    Stage {
        /// The stage that failed.
        stage: StageId,
        /// The cluster being processed, when the failure was per-cluster.
        cluster: Option<usize>,
        /// The underlying substrate error.
        source: StageError,
    },
    /// A stage panicked and the supervisor contained it
    /// (`catch_unwind`); retries were exhausted or disabled.
    StagePanicked {
        /// The stage whose worker panicked.
        stage: StageId,
        /// The panic payload, rendered.
        detail: String,
    },
    /// A checkpoint could not be read or written.
    CheckpointIo(String),
    /// A checkpoint file existed but could not be decoded, or claimed
    /// stages whose outputs it did not carry.
    CheckpointCorrupt(String),
    /// A checkpoint belongs to a different dataset or configuration.
    CheckpointMismatch(String),
    /// The quarantine dead-letter file could not be written.
    QuarantineIo(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyDataset => write!(f, "dataset contains no image posts"),
            Self::Stage {
                stage,
                cluster: Some(c),
                source,
            } => write!(f, "stage `{stage}` failed on cluster {c}: {source}"),
            Self::Stage {
                stage,
                cluster: None,
                source,
            } => write!(f, "stage `{stage}` failed: {source}"),
            Self::StagePanicked { stage, detail } => {
                write!(f, "stage `{stage}` panicked (contained): {detail}")
            }
            Self::CheckpointIo(e) => write!(f, "checkpoint I/O failed: {e}"),
            Self::CheckpointCorrupt(e) => write!(f, "checkpoint is corrupt: {e}"),
            Self::CheckpointMismatch(e) => write!(f, "checkpoint mismatch: {e}"),
            Self::QuarantineIo(e) => write!(f, "quarantine I/O failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Stage { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A recorded fallback: the pipeline kept going, but a component ran in
/// a degraded mode. Degradations ride along in the output (and thus in
/// checkpoints and reports) so no fallback is ever silent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Degradation {
    /// Step 7 skipped a cluster whose Hawkes fit failed; its influence
    /// contribution is an all-zero matrix.
    HawkesClusterSkipped {
        /// The cluster whose fit failed.
        cluster: usize,
        /// Why (the rendered [`HawkesError`]).
        reason: String,
    },
    /// Step 4 gave up on CNN training and used the ground-truth oracle.
    ScreenshotFilterFellBack {
        /// Training attempts made before falling back.
        attempts: usize,
        /// The last training error.
        reason: String,
    },
    /// A stage diverted poison items to the quarantine dead-letter file
    /// instead of failing; the run continued without them.
    ItemsQuarantined {
        /// The stage that quarantined the items.
        stage: StageId,
        /// How many items were diverted.
        items: usize,
    },
    /// Resume found the current checkpoint torn or stale and rolled
    /// back to the previous generation (`<path>.prev`).
    CheckpointRolledBack {
        /// Why the current generation was rejected.
        reason: String,
    },
}

impl Degradation {
    /// Short stable label for grouping in summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::HawkesClusterSkipped { .. } => "hawkes cluster skipped",
            Self::ScreenshotFilterFellBack { .. } => "screenshot filter fell back to oracle",
            Self::ItemsQuarantined { .. } => "poison items quarantined",
            Self::CheckpointRolledBack { .. } => "checkpoint rolled back",
        }
    }

    /// Stable machine-readable identifier (metric names, JSON keys).
    pub fn slug(&self) -> &'static str {
        match self {
            Self::HawkesClusterSkipped { .. } => "hawkes_cluster_skipped",
            Self::ScreenshotFilterFellBack { .. } => "screenshot_filter_fell_back",
            Self::ItemsQuarantined { .. } => "items_quarantined",
            Self::CheckpointRolledBack { .. } => "checkpoint_rolled_back",
        }
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::HawkesClusterSkipped { cluster, reason } => {
                write!(
                    f,
                    "cluster {cluster} skipped in influence estimation: {reason}"
                )
            }
            Self::ScreenshotFilterFellBack { attempts, reason } => write!(
                f,
                "screenshot filter fell back to oracle after {attempts} attempts: {reason}"
            ),
            Self::ItemsQuarantined { stage, items } => {
                write!(f, "stage `{stage}` quarantined {items} poison item(s)")
            }
            Self::CheckpointRolledBack { reason } => {
                write!(f, "resumed from previous checkpoint generation: {reason}")
            }
        }
    }
}

/// Everything the pipeline produces (Steps 1–6); Step 7 is computed
/// from it on demand.
///
/// Serializable: a completed run can be saved with
/// [`PipelineOutput::to_json`] and resumed later without re-hashing
/// the corpus (the paper's own batch/one-time-task split, §3.3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineOutput {
    /// pHash per post, aligned with `dataset.posts`.
    pub post_hashes: Vec<PHash>,
    /// Post indices (into `dataset.posts`) of the fringe-community
    /// images that were clustered, in clustering order.
    pub fringe_posts: Vec<usize>,
    /// The Step-3 clustering over `fringe_posts` positions.
    pub clustering: Clustering,
    /// Medoid hash per cluster.
    pub medoid_hashes: Vec<PHash>,
    /// Post index (into `dataset.posts`) of each cluster's medoid.
    pub medoid_posts: Vec<usize>,
    /// The filtered, hashed KYM site.
    pub site: KymSite,
    /// Ground-truth meme id per site entry (None for dormant entries).
    pub entry_meme_ids: Vec<Option<usize>>,
    /// Step-5 annotations, one per cluster.
    pub annotations: Vec<ClusterAnnotation>,
    /// Step-6 association: annotated-cluster id per post (None when the
    /// post matches no annotated cluster).
    pub occurrences: Vec<Option<usize>>,
    /// Test metrics of the screenshot classifier (Train mode only).
    pub screenshot_metrics: Option<ClassifierMetrics>,
    /// Fallbacks taken while producing this output, in stage order.
    pub degradations: Vec<Degradation>,
}

/// The stage library: one method per Fig. 2 step, driven stage by stage
/// by [`crate::supervise::SupervisedRunner`].
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    metrics: Metrics,
    /// Execution-fault schedule (chaos testing); the default spec
    /// injects nothing.
    faults: ExecFaultSpec,
}

impl Pipeline {
    /// Create a pipeline with a configuration (metrics disabled).
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            config,
            metrics: Metrics::disabled(),
            faults: ExecFaultSpec::default(),
        }
    }

    /// Attach a metrics handle; every stage records counters/spans into
    /// it. A disabled handle (the default) costs one branch per record.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Attach an execution-fault schedule (chaos testing only).
    pub fn with_exec_faults(mut self, faults: ExecFaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// The metrics handle.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Execute one stage against the accumulated state. `attempt` is the
    /// supervisor's 0-based attempt number for this stage; only fault
    /// decisions depend on it, so clean runs are identical for any value.
    pub(crate) fn run_stage(
        &self,
        stage: StageId,
        attempt: u32,
        dataset: &Dataset,
        state: &mut StageState,
    ) -> Result<(), PipelineError> {
        match self.faults.stage_fault(stage.name(), attempt) {
            ExecStageFault::Pass => {}
            ExecStageFault::Panic => {
                // lint:allow(panic-reachable): deliberate injected fault — the supervisor's catch_unwind must contain it
                panic!("injected fault: stage `{stage}` panicked on attempt {attempt}")
            }
            ExecStageFault::Transient => {
                return Err(PipelineError::Stage {
                    stage,
                    cluster: None,
                    source: StageError::Transient {
                        detail: format!("injected transient stage fault on attempt {attempt}"),
                    },
                })
            }
        }
        match stage {
            StageId::Hash => {
                // --- Step 1: pHash extraction (parallel render + hash).
                let (hashes, quarantined) = self.hash_posts(dataset, attempt)?;
                state.post_hashes = Some(hashes);
                record_quarantined(state, StageId::Hash, quarantined);
                Ok(())
            }
            StageId::Cluster => self.stage_cluster(dataset, state),
            StageId::Site => {
                // --- Step 4: screenshot filtering of KYM galleries.
                let (site, entry_meme_ids, metrics) =
                    self.build_site(dataset, &mut state.degradations);
                state.site = Some(site);
                state.entry_meme_ids = Some(entry_meme_ids);
                state.screenshot_metrics = metrics;
                Ok(())
            }
            StageId::Annotate => {
                // --- Step 5: cluster annotation.
                let medoid_hashes = req(&state.medoid_hashes, StageId::Annotate)?;
                let site = req(&state.site, StageId::Annotate)?;
                let (annotations, stats) =
                    annotate_clusters_with_stats(medoid_hashes, site, self.config.theta);
                self.metrics
                    .add("annotate.medoid_queries", stats.medoid_queries as u64);
                self.metrics
                    .add("annotate.gallery_hashes", stats.gallery_hashes as u64);
                self.metrics.add(
                    "annotate.annotated_clusters",
                    stats.annotated_clusters as u64,
                );
                state.annotations = Some(annotations);
                Ok(())
            }
            StageId::Associate => self.stage_associate(state, attempt),
        }
    }

    /// Steps 2–3: pairwise distances + DBSCAN + medoids over fringe
    /// images.
    fn stage_cluster(
        &self,
        dataset: &Dataset,
        state: &mut StageState,
    ) -> Result<(), PipelineError> {
        let post_hashes = req(&state.post_hashes, StageId::Cluster)?;
        let fringe_posts: Vec<usize> = dataset
            .posts
            .iter()
            .filter(|p| p.community.is_fringe())
            .map(|p| p.id)
            .collect();
        let fringe_hashes: Vec<PHash> = fringe_posts.iter().map(|&i| post_hashes[i]).collect();
        // Collapse exact re-posts before indexing: the index holds one
        // entry per distinct hash, the ε-graph joins distinct hashes,
        // and DBSCAN runs on the distinct-hash adjacency; per-post
        // labels come from one expansion through the owner table.
        let groups = HashGroups::new(&fringe_hashes);
        self.metrics
            .gauge("cluster.dedup_collapse_ratio", groups.collapse_ratio());
        let index = self.build_index(groups.unique().to_vec(), self.config.dbscan.eps, "cluster");
        self.metrics
            .add("cluster.fringe_posts", fringe_posts.len() as u64);
        let (adjacency, nstats) =
            distinct_neighbors(&index, &groups, self.config.dbscan.eps, self.config.threads);
        self.record_neighbor_stats(&nstats);
        let clustering = try_dbscan_distinct(&groups, &adjacency, self.config.dbscan.min_pts)
            .map_err(|e| PipelineError::Stage {
                stage: StageId::Cluster,
                cluster: None,
                source: StageError::Cluster(e),
            })?;
        self.metrics
            .add("cluster.clusters", clustering.n_clusters() as u64);
        self.metrics
            .add("cluster.noise_posts", clustering.noise_count() as u64);
        let cluster_error = |e| PipelineError::Stage {
            stage: StageId::Cluster,
            cluster: None,
            source: StageError::Cluster(e),
        };
        // One medoid per cluster on the workers, collected by cluster id.
        let members = clustering.try_members().map_err(cluster_error)?;
        let mut medoids: Vec<Option<usize>> = vec![None; members.len()];
        chunked(
            self.config.threads,
            &mut medoids,
            || (),
            |c, slot, ()| {
                *slot = medoid_of_hashes(&fringe_hashes, &members[c]);
            },
        );
        let medoid_positions: Vec<usize> = medoids
            .into_iter()
            .enumerate()
            .map(|(cluster, m)| m.ok_or(ClusterError::EmptyCluster { cluster }))
            .collect::<Result<_, _>>()
            .map_err(cluster_error)?;
        state.medoid_hashes = Some(medoid_positions.iter().map(|&p| fringe_hashes[p]).collect());
        state.medoid_posts = Some(medoid_positions.iter().map(|&p| fringe_posts[p]).collect());
        state.fringe_posts = Some(fringe_posts);
        state.clustering = Some(clustering);
        Ok(())
    }

    /// Build the index for `radius` queries under a per-engine
    /// build-time span (`index/build/{slug}`, so `--metrics-out` shows
    /// which engine was built and how long it took), then record the
    /// `index.memory_bytes` gauges (global = most recent build; the
    /// stage-scoped variant keeps the cluster and associate indexes
    /// distinguishable) and the engine-choice counter.
    fn build_index(&self, hashes: Vec<PHash>, radius: u32, stage: &str) -> FallbackIndex {
        let engine = FallbackIndex::engine_for(hashes.len(), radius);
        let span = self.metrics.span(&format!("index/build/{}", engine.slug()));
        let index = FallbackIndex::build(hashes, radius);
        span.finish();
        self.metrics.inc(&format!("index.engine.{}", engine.slug()));
        let bytes = index.memory_bytes() as f64;
        self.metrics.gauge("index.memory_bytes", bytes);
        self.metrics
            .gauge(&format!("index.memory_bytes.{stage}"), bytes);
        index
    }

    /// Roll a pairwise sweep's work counters into the `index.*` family.
    /// All values are sums over per-worker counters, so they are
    /// identical for every thread count.
    fn record_neighbor_stats(&self, s: &NeighborStats) {
        self.metrics.add("index.items", s.items as u64);
        self.metrics.add("index.unique_hashes", s.unique as u64);
        self.metrics.add("index.probes", s.probes);
        self.metrics.add("index.candidates", s.candidates);
        self.metrics.add("index.verified", s.verified);
        self.metrics.add("index.unique_pairs", s.unique_pairs);
    }

    /// Step 6: associate every post to the nearest annotated cluster.
    ///
    /// Association depends only on the post's hash, so posts collapse to
    /// their distinct hashes first: one radius query per distinct hash
    /// ([`Pipeline::run_items`], per-worker [`QueryScratch`] reuse), then
    /// an expansion back to posts through the owner table.
    /// Byte-identical to querying per post, for any thread count.
    /// Faulted items keep the `None` sentinel — a poison hash simply
    /// matches no cluster.
    fn stage_associate(&self, state: &mut StageState, attempt: u32) -> Result<(), PipelineError> {
        let post_hashes = req(&state.post_hashes, StageId::Associate)?;
        let medoid_hashes = req(&state.medoid_hashes, StageId::Associate)?;
        let annotations = req(&state.annotations, StageId::Associate)?;
        let annotated: Vec<usize> = annotations
            .iter()
            .filter(|a| a.is_annotated())
            .map(|a| a.cluster)
            .collect();
        let annotated_hashes: Vec<PHash> = annotated.iter().map(|&c| medoid_hashes[c]).collect();
        let assoc_index = self.build_index(annotated_hashes, self.config.theta, "associate");
        let n = post_hashes.len();
        let mut occurrences: Vec<Option<usize>> = vec![None; n];
        let mut quarantined: Vec<QuarantineEntry> = Vec::new();
        if n > 0 && !annotated.is_empty() {
            let groups = HashGroups::new(post_hashes);
            self.metrics
                .gauge("associate.dedup_collapse_ratio", groups.collapse_ratio());
            let n_unique = groups.len_unique();
            self.metrics.add("associate.hash_queries", n_unique as u64);
            let mut unique_occ: Vec<Option<usize>> = vec![None; n_unique];
            let theta = self.config.theta;
            // Quarantine coordinates are post indices: a poisoned unique
            // hash is reported as its first owning post (owner lists are
            // ascending and never empty).
            let (_, faulted) = self.run_items(
                StageId::Associate,
                attempt,
                &mut unique_occ,
                || (QueryScratch::new(), Vec::new()),
                |k, slot, (scratch, hits)| {
                    let h = groups.unique()[k];
                    *slot = assoc_index
                        .nearest_into(h, theta, scratch, hits)
                        .map(|(pos, _)| annotated[pos]);
                },
                |k| groups.owners(k)[0] as usize,
            );
            quarantined = faulted?;
            for (i, slot) in occurrences.iter_mut().enumerate() {
                *slot = unique_occ[groups.owner_of(i)];
            }
        }
        self.metrics.add("associate.posts", n as u64);
        self.metrics.add(
            "associate.matched",
            occurrences.iter().flatten().count() as u64,
        );
        self.metrics
            .add("associate.annotated_medoids", annotated.len() as u64);
        state.occurrences = Some(occurrences);
        record_quarantined(state, StageId::Associate, quarantined);
        Ok(())
    }

    /// [`chunked`] under the item-fault schedule, for the two stages that
    /// consult it. With an active schedule each index's verdict is taken
    /// before its item runs; a faulted slot keeps its sentinel and its
    /// verdict goes to [`collect_item_verdicts`] (`coord` maps an index
    /// to its post). The worker states come back either way, so a failed
    /// attempt's work is still counted.
    fn run_items<T: Send, S: Send>(
        &self,
        stage: StageId,
        attempt: u32,
        slots: &mut [T],
        new_state: impl Fn() -> S,
        item: impl Fn(usize, &mut T, &mut S) + Sync,
        coord: impl Fn(usize) -> usize,
    ) -> (Vec<S>, Result<Vec<QuarantineEntry>, PipelineError>) {
        let consult = self.faults.is_active();
        let workers = chunked(
            self.config.threads,
            slots,
            || (new_state(), Vec::new()),
            |k, slot, (state, faulted)| {
                let verdict = if consult {
                    self.faults.item_fault(stage.name(), k, attempt)
                } else {
                    ExecItemFault::Pass
                };
                match verdict {
                    ExecItemFault::Pass => item(k, slot, state),
                    _ => faulted.push((k, verdict)),
                }
            },
        );
        // Which worker saw which item depends on the thread count and the
        // schedule; sorted by `k`, the verdicts do not.
        let (states, faulted): (Vec<S>, Vec<Vec<_>>) = workers.into_iter().unzip();
        let mut faulted = faulted.concat();
        faulted.sort_unstable_by_key(|&(k, _)| k);
        let verdicts = collect_item_verdicts(stage, &faulted, attempt, coord);
        (states, verdicts)
    }

    /// Step 1 worker: hash every post's image in parallel. Poison items
    /// keep the `PHash::default()` sentinel and come back as quarantine
    /// entries.
    fn hash_posts(
        &self,
        dataset: &Dataset,
        attempt: u32,
    ) -> Result<(Vec<PHash>, Vec<QuarantineEntry>), PipelineError> {
        let posts = &dataset.posts;
        self.metrics.add("hash.images", posts.len() as u64);
        let hashing = ImageHashing::new(dataset, posts.iter().map(LazyImage::Post));
        let mut hashes = vec![PHash::default(); posts.len()];
        let (workers, quarantined) = self.run_items(
            StageId::Hash,
            attempt,
            &mut hashes,
            HashWorker::default,
            |i, slot, w| {
                let hash = hashing.hash_image(LazyImage::Post(&posts[i]), w, |_| true);
                *slot = hash.unwrap_or_default();
            },
            |i| i,
        );
        self.record_render_stats(&hashing.cache, &workers);
        quarantined.map(|q| (hashes, q))
    }

    /// Publish the hash stage's render-cache accounting: hit/miss and
    /// per-`ImageRef`-kind counters plus cache-size gauges, merged from
    /// the per-worker [`RenderStats`] after the parallel section.
    fn record_render_stats(&self, cache: &RenderCache, workers: &[HashWorker]) {
        let mut stats = RenderStats::default();
        for (_, s) in workers {
            stats.merge(s);
        }
        self.metrics.add("hash.render_cache.hits", stats.hits);
        self.metrics.add("hash.render_cache.misses", stats.misses);
        self.metrics
            .gauge("hash.render_cache.entries", cache.entries() as f64);
        self.metrics
            .gauge("hash.render_cache.bytes", cache.bytes() as f64);
        self.metrics
            .add("hash.rendered.meme_variant", stats.meme_variant);
        self.metrics.add("hash.rendered.one_off", stats.one_off);
        self.metrics
            .add("hash.rendered.screenshot", stats.screenshot);
        self.metrics.add("hash.rendered.blank", stats.blank);
    }

    /// Step 4 worker: filter galleries, hash survivors, build the site.
    ///
    /// In Train mode, CNN training is retried [`MAX_TRAIN_ATTEMPTS`]
    /// times with perturbed seeds; if every attempt diverges, the stage
    /// falls back to the ground-truth oracle and records the fallback
    /// rather than failing the run.
    ///
    /// This stage only decides *which* gallery images to consider; they
    /// go through the same render → pHash workers as Step 1's posts
    /// ([`ImageHashing`]). No item fault is consulted here.
    fn build_site(
        &self,
        dataset: &Dataset,
        degradations: &mut Vec<Degradation>,
    ) -> (KymSite, Vec<Option<usize>>, Option<ClassifierMetrics>) {
        let filter = match &self.config.screenshot_filter {
            ScreenshotFilterMode::Train {
                corpus_scale,
                config,
            } => {
                let mut trained = None;
                let mut last_err = String::new();
                for attempt in 0..MAX_TRAIN_ATTEMPTS {
                    self.metrics.inc("site.cnn_train_attempts");
                    let mut cfg = *config;
                    cfg.seed = config.seed.wrapping_add(attempt as u64);
                    let corpus = ScreenshotCorpus::generate(*corpus_scale, cfg.seed);
                    match ScreenshotFilter::try_train(&corpus, &cfg) {
                        Ok(fm) => {
                            trained = Some(fm);
                            break;
                        }
                        Err(e) => {
                            self.metrics.inc("site.cnn_train_failures");
                            last_err = e.to_string();
                        }
                    }
                }
                match trained {
                    Some((filter, metrics)) => Some((Some(filter), Some(metrics))),
                    None => {
                        degradations.push(Degradation::ScreenshotFilterFellBack {
                            attempts: MAX_TRAIN_ATTEMPTS,
                            reason: last_err,
                        });
                        Some((None, None)) // degrade to the oracle
                    }
                }
            }
            ScreenshotFilterMode::Oracle => Some((None, None)),
            ScreenshotFilterMode::Off => None,
        };
        // The oracle drops screenshots by ground truth, before any render;
        // a trained filter judges the render the hash is taken from.
        let oracle = matches!(filter, Some((None, _)));
        let (cnn, metrics) = filter.unwrap_or_default();
        let raw = &dataset.kym_raw.entries;
        let images: Vec<(usize, &GalleryImage)> = raw
            .iter()
            .enumerate()
            .flat_map(|(e, entry)| entry.images.iter().map(move |g| (e, g)))
            .filter(|(_, g)| !(oracle && g.is_screenshot()))
            .collect();
        let hashing =
            ImageHashing::new(dataset, images.iter().map(|&(_, g)| LazyImage::Gallery(g)));
        let keep = |img: &Image| cnn.as_ref().is_none_or(|f| !f.is_screenshot(img));
        let mut kept: Vec<Option<PHash>> = vec![None; images.len()];
        chunked(
            self.config.threads,
            &mut kept,
            HashWorker::default,
            |k, slot, w| *slot = hashing.hash_image(LazyImage::Gallery(images[k].1), w, keep),
        );
        let mut entries: Vec<KymEntry> = raw
            .iter()
            .map(|raw| KymEntry {
                id: 0,
                name: raw.name.clone(),
                category: raw.category,
                tags: raw.tags.clone(),
                origin: raw.origin.clone(),
                gallery: Vec::new(),
                people: raw.people.clone(),
                cultures: raw.cultures.clone(),
            })
            .collect();
        // Regroup the survivors per entry; `images` is in gallery order.
        for (&(e, _), hash) in images.iter().zip(kept) {
            entries[e].gallery.extend(hash);
        }
        self.metrics.add("site.entries", entries.len() as u64);
        self.metrics.add(
            "site.gallery_images_kept",
            entries.iter().map(|e| e.gallery.len() as u64).sum(),
        );
        let meme_ids = raw.iter().map(|raw| raw.meme_id).collect();
        (KymSite::new(entries), meme_ids, metrics)
    }
}

/// Slots a [`chunked`] worker claims at a time: enough that a claim
/// costs nothing next to the items in it, few enough that a worker that
/// drew the expensive items leaves no long tail for the others to idle
/// through.
const BLOCK: usize = 64;

/// The crate's one parallel loop: `item(k, &mut slots[k], &mut state)`
/// for every `k`. Each worker owns one `new_state()` and claims blocks
/// of [`BLOCK`] consecutive slots from a shared counter until none are
/// left. Output is positional, so no slot depends on the thread count;
/// which worker ran which block does, so callers fold the worker states
/// only with order-free merges (sums, sorted lists). No slots, no
/// workers.
fn chunked<T: Send, S: Send>(
    threads: usize,
    slots: &mut [T],
    new_state: impl Fn() -> S,
    item: impl Fn(usize, &mut T, &mut S) + Sync,
) -> Vec<S> {
    let blocks: Vec<Mutex<&mut [T]>> = slots.chunks_mut(BLOCK).map(Mutex::new).collect();
    if blocks.is_empty() {
        return Vec::new();
    }
    let next = AtomicUsize::new(0);
    let mut states: Vec<S> = (0..effective_threads(threads, blocks.len()))
        .map(|_| new_state())
        .collect();
    // The scope joins every worker and re-raises a worker's panic here.
    std::thread::scope(|s| {
        for state in &mut states {
            let (item, blocks, next) = (&item, &blocks, &next);
            s.spawn(move || loop {
                // Relaxed: the counter only hands out indices; the
                // block's mutex is what publishes its slots.
                let b = next.fetch_add(1, Ordering::Relaxed);
                // Each block is claimed once, so its lock is never
                // contended; it is poisoned only if a worker panicked,
                // which the scope re-raises.
                let Some(Ok(mut block)) = blocks.get(b).map(Mutex::lock) else {
                    return;
                };
                for (off, slot) in block.iter_mut().enumerate() {
                    item(b * BLOCK + off, slot, state);
                }
            });
        }
    });
    states
}

/// Steps 1 and 4 are one operation — the pHash of an image — over two
/// lists (posts, KYM gallery images). Canonical renders are memoized
/// once per pass and shared read-only by every worker; per-image work is
/// then one render through the cache plus the scratch-reuse hash kernel,
/// which steady state allocates nothing.
struct ImageHashing<'d> {
    dataset: &'d Dataset,
    cache: RenderCache,
    hasher: PerceptualHasher,
}

/// What each worker of an [`ImageHashing`] pass owns.
type HashWorker = (HashScratch, RenderStats);

impl<'d> ImageHashing<'d> {
    /// A pass over `images`, which is also what its cache covers.
    fn new(dataset: &'d Dataset, images: impl IntoIterator<Item = LazyImage<'d>>) -> Self {
        Self {
            dataset,
            // lint:allow(panic-reachable): the cache renders at fixed non-zero IMAGE_SIZE, so Image::filled's contract holds
            cache: RenderCache::build_over(dataset, images),
            // lint:allow(panic-reachable): new() plans the fixed 32x32 DCT input, which satisfies Dct2d::new's non-zero contract
            hasher: PerceptualHasher::new(),
        }
    }

    /// The pHash of `image`'s one render, unless `keep` — the trained
    /// screenshot filter, looking at that same render — drops it.
    fn hash_image(
        &self,
        image: LazyImage<'_>,
        (scratch, stats): &mut HashWorker,
        keep: impl Fn(&Image) -> bool,
    ) -> Option<PHash> {
        // lint:allow(panic-reachable): post and gallery canvases render at fixed non-zero dimensions with validated jitter fractions
        let rendered = self.dataset.render_cached(image, &self.cache, stats);
        let img = rendered.as_image();
        keep(img).then(|| self.hasher.hash_into(img, scratch))
    }
}

/// Fetch a prior stage's output, or report the checkpoint as corrupt
/// (a hand-edited or stale checkpoint can claim stages it never ran).
fn req<T>(slot: &Option<T>, stage: StageId) -> Result<&T, PipelineError> {
    slot.as_ref().ok_or_else(|| {
        PipelineError::CheckpointCorrupt(format!(
            "stage `{stage}` needs output from an earlier stage that is missing"
        ))
    })
}

/// Fold a stage's quarantine batch into the run state: one degradation
/// summarising the batch plus the individual dead-letter entries (the
/// supervisor persists the latter to `quarantine.jsonl`).
fn record_quarantined(state: &mut StageState, stage: StageId, entries: Vec<QuarantineEntry>) {
    if entries.is_empty() {
        return;
    }
    state.degradations.push(Degradation::ItemsQuarantined {
        stage,
        items: entries.len(),
    });
    state.quarantined.extend(entries);
}

/// Turn a stage's faulted items (`(index, verdict)`, ascending, no
/// `Pass`) into either a retryable [`StageError::Transient`] (any
/// transient verdict aborts the attempt; the supervisor re-runs the
/// whole stage deterministically) or the batch of quarantine entries
/// for the poison verdicts. `coord` maps a verdict index to its post
/// index (identity for the hash stage; the first owner of the unique
/// hash for deduplicated association).
fn collect_item_verdicts(
    stage: StageId,
    faulted: &[(usize, ExecItemFault)],
    attempt: u32,
    coord: impl Fn(usize) -> usize,
) -> Result<Vec<QuarantineEntry>, PipelineError> {
    let mut transient = faulted
        .iter()
        .filter(|(_, v)| *v == ExecItemFault::Transient);
    if let Some(&(first, _)) = transient.next() {
        return Err(PipelineError::Stage {
            stage,
            cluster: None,
            source: StageError::Transient {
                detail: format!(
                    "{} item(s) failed transiently (first: post {})",
                    1 + transient.count(),
                    coord(first)
                ),
            },
        });
    }
    Ok(faulted
        .iter()
        .map(|&(k, _)| QuarantineEntry {
            stage,
            item: coord(k),
            reason: QuarantineReason::PoisonItem {
                attempts: attempt + 1,
                detail: "item failed on every attempt".to_string(),
            },
        })
        .collect())
}

impl PipelineOutput {
    /// Ids of clusters that received KYM annotations.
    pub fn annotated_clusters(&self) -> Vec<usize> {
        self.annotations
            .iter()
            .filter(|a| a.is_annotated())
            .map(|a| a.cluster)
            .collect()
    }

    /// The representative KYM entry of a cluster, when annotated.
    pub fn representative_entry(&self, cluster: usize) -> Option<&KymEntry> {
        self.annotations[cluster]
            .representative
            .and_then(|id| self.site.get(id))
    }

    /// Whether the cluster's representative entry is politics-related.
    pub fn cluster_is_political(&self, cluster: usize) -> bool {
        self.representative_entry(cluster)
            .is_some_and(|e| e.is_political())
    }

    /// Whether the cluster's representative entry is racism-related.
    pub fn cluster_is_racist(&self, cluster: usize) -> bool {
        self.representative_entry(cluster)
            .is_some_and(|e| e.is_racist())
    }

    /// Step-7 input: the time-sorted event stream of every annotated
    /// cluster across the five communities, from the Step-6
    /// association, in [`PipelineOutput::annotated_clusters`] order.
    /// Cluster ids that point outside the medoid table — impossible for
    /// a pipeline-produced output, but reachable through an artifact or
    /// checkpoint loaded from disk — surface as
    /// [`PipelineError::CheckpointCorrupt`] instead of an index panic.
    pub fn try_all_cluster_events(
        &self,
        dataset: &Dataset,
    ) -> Result<Vec<Vec<Event>>, PipelineError> {
        // One pass over posts, bucketed by cluster.
        let annotated = self.annotated_clusters();
        let n_clusters = self.medoid_hashes.len();
        let mut slot_of = vec![usize::MAX; n_clusters];
        for (slot, &c) in annotated.iter().enumerate() {
            match slot_of.get_mut(c) {
                Some(s) => *s = slot,
                None => {
                    return Err(PipelineError::CheckpointCorrupt(format!(
                        "annotation names cluster {c}, but there are only {n_clusters} medoids"
                    )))
                }
            }
        }
        let mut streams: Vec<Vec<Event>> = vec![Vec::new(); annotated.len()];
        for (p, occ) in dataset.posts.iter().zip(&self.occurrences) {
            if let Some(c) = occ {
                let slot = *slot_of.get(*c).ok_or_else(|| {
                    PipelineError::CheckpointCorrupt(format!(
                        "post {} occurs in cluster {c}, but there are only {n_clusters} medoids",
                        p.id
                    ))
                })?;
                if slot != usize::MAX {
                    streams[slot].push(Event::new(p.t, p.community.index()));
                }
            }
        }
        // total_cmp: NaN times (fault-injected data) must not panic the
        // sort — the Hawkes layer rejects them with a typed error later.
        for s in &mut streams {
            s.sort_by(|a, b| a.t.total_cmp(&b.t));
        }
        Ok(streams)
    }

    /// Step 7: fit a Hawkes model per annotated cluster at kernel decay
    /// `beta` (the paper's fit is [`FIT_BETA`]) on every core, and
    /// aggregate influence (per-cluster and total matrices, in
    /// [`PipelineOutput::annotated_clusters`] order). The fit is the
    /// same at any thread count.
    ///
    /// Clusters whose fit fails (NaN times, foreign community ids,
    /// non-stationary or diverged EM) are skipped — contributing zero
    /// influence — and each skip comes back as a
    /// [`Degradation::HawkesClusterSkipped`] naming the cluster; a caller
    /// that wants fail-fast checks that list. Only an output whose
    /// cluster ids are out of range (a mangled artifact) is an `Err`.
    ///
    /// Records the Step-7 span (`pipeline/influence`), per-run EM
    /// iteration counts (total + histogram), the fits that stopped at
    /// the iteration budget (`hawkes.clusters_unconverged`), the final
    /// log-likelihood per event of every fitted cluster as one histogram
    /// plus the [`WORST_FITS`] lowest by cluster id
    /// (`hawkes.worst_fit.<rank>.*`), and a
    /// `degradation.hawkes_cluster_skipped` counter per skip; pass a
    /// disabled [`Metrics`] to record nothing.
    pub fn estimate_influence(
        &self,
        dataset: &Dataset,
        beta: f64,
        metrics: &Metrics,
    ) -> Result<(ClusterInfluence, Vec<Degradation>), PipelineError> {
        let span = metrics.span("pipeline/influence");
        let streams = self.try_all_cluster_events(dataset)?;
        let estimator = InfluenceEstimator::new(Community::COUNT, beta);
        let robust = estimator.estimate_robust(&streams, dataset.horizon(), 0);
        let elapsed = span.finish();
        let annotated = self.annotated_clusters();
        metrics.add("hawkes.clusters_total", streams.len() as u64);
        metrics.add("hawkes.clusters_fitted", robust.fit_stats.len() as u64);
        metrics.add("hawkes.clusters_skipped", robust.skipped.len() as u64);
        let unconverged = robust.fit_stats.iter().filter(|fit| !fit.converged);
        metrics.add("hawkes.clusters_unconverged", unconverged.count() as u64);
        let mut iterations_total = 0u64;
        let mut ll_total = 0.0f64;
        for fit in &robust.fit_stats {
            iterations_total += fit.iterations as u64;
            metrics.observe(
                "hawkes.em_iterations",
                &meme_metrics::ITERATION_BUCKETS,
                fit.iterations as f64,
            );
            metrics.observe(
                "hawkes.log_likelihood_per_event",
                &LOG_LIKELIHOOD_PER_EVENT_BUCKETS,
                fit.log_likelihood / fit.events as f64,
            );
            if fit.log_likelihood.is_finite() {
                ll_total += fit.log_likelihood;
            }
        }
        // The worst fits by name, a bounded set: the lowest
        // log-likelihood per event (finite: a diverged fit is skipped),
        // ties to the lower cluster id.
        let mut worst: Vec<(f64, usize)> = robust
            .fit_stats
            .iter()
            .map(|fit| {
                (
                    fit.log_likelihood / fit.events as f64,
                    annotated[fit.cluster],
                )
            })
            .collect();
        worst.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (rank, &(ll, cluster)) in worst.iter().take(WORST_FITS).enumerate() {
            metrics.gauge(&format!("hawkes.worst_fit.{rank}.cluster"), cluster as f64);
            metrics.gauge(
                &format!("hawkes.worst_fit.{rank}.log_likelihood_per_event"),
                ll,
            );
        }
        metrics.add("hawkes.em_iterations_total", iterations_total);
        metrics.gauge("hawkes.log_likelihood_total", ll_total);
        if elapsed > 0.0 && !streams.is_empty() {
            metrics.gauge("hawkes.clusters_per_sec", streams.len() as f64 / elapsed);
        }
        let degradations: Vec<Degradation> = robust
            .skipped
            .iter()
            .map(|s| Degradation::HawkesClusterSkipped {
                cluster: annotated[s.cluster],
                reason: s.error.to_string(),
            })
            .collect();
        for d in &degradations {
            metrics.inc(&format!("degradation.{}", d.slug()));
        }
        Ok((robust.influence, degradations))
    }

    /// Degradation counts grouped by kind, in first-seen order — the
    /// report/CLI surface for "what fell back during this run".
    pub fn degradation_summary(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for d in &self.degradations {
            match counts.iter_mut().find(|(k, _)| *k == d.kind()) {
                Some((_, n)) => *n += 1,
                None => counts.push((d.kind(), 1)),
            }
        }
        counts
    }

    /// Custom-metric descriptors plus representative-entry names for
    /// every annotated cluster (in [`PipelineOutput::annotated_clusters`]
    /// order) — the input of the cluster graphs `memes repro ablations`
    /// builds to compare custom-metric weights. Annotations
    /// whose cluster id falls outside the medoid table, or whose matched
    /// entry ids fall outside the KYM site — shapes the pipeline never
    /// emits, but a corrupt or stale-schema checkpoint can — surface as
    /// [`PipelineError::CheckpointCorrupt`] instead of an index panic.
    pub fn try_annotated_descriptors(
        &self,
    ) -> Result<(Vec<ClusterDescriptor>, Vec<String>), PipelineError> {
        let mut descriptors = Vec::new();
        let mut labels = Vec::new();
        for ann in self.annotations.iter().filter(|a| a.is_annotated()) {
            let Some(rep_id) = ann.representative else {
                continue; // is_annotated() implies Some, but do not panic on a corrupt checkpoint
            };
            let rep = self.site.get(rep_id).ok_or_else(|| {
                PipelineError::CheckpointCorrupt(format!(
                    "cluster {} has representative entry {rep_id}, but the site has only {} entries",
                    ann.cluster,
                    self.site.len()
                ))
            })?;
            if let Some(m) = ann.matches.iter().find(|m| m.entry_id >= self.site.len()) {
                return Err(PipelineError::CheckpointCorrupt(format!(
                    "cluster {} matched entry {}, but the site has only {} entries",
                    ann.cluster,
                    m.entry_id,
                    self.site.len()
                )));
            }
            let medoid = *self.medoid_hashes.get(ann.cluster).ok_or_else(|| {
                PipelineError::CheckpointCorrupt(format!(
                    "annotation names cluster {}, but there are only {} medoids",
                    ann.cluster,
                    self.medoid_hashes.len()
                ))
            })?;
            descriptors.push(ClusterDescriptor::from_annotation(medoid, ann, &self.site));
            labels.push(rep.name.clone());
        }
        Ok((descriptors, labels))
    }

    /// Serialize a completed run to JSON.
    pub fn to_json(&self) -> String {
        // lint:allow(panic-reachable): vendored serde serialization of plain structs is infallible
        serde_json::to_string(self).expect("pipeline output serializes")
    }

    /// Restore a run saved with [`PipelineOutput::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Number of unique hashes per community (Table 1's last column).
    pub fn unique_hashes(&self, dataset: &Dataset, community: Community) -> usize {
        use std::collections::HashSet;
        let set: HashSet<PHash> = dataset
            .posts
            .iter()
            .filter(|p| p.community == community)
            .map(|p| self.post_hashes[p.id])
            .collect();
        set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::SupervisedRunner;
    use meme_simweb::SimConfig;

    fn run(pipeline: Pipeline, dataset: &Dataset) -> PipelineOutput {
        SupervisedRunner::new(pipeline)
            .run(dataset)
            .unwrap()
            .expect_complete()
    }

    fn run_tiny() -> (Dataset, PipelineOutput) {
        let dataset = SimConfig::tiny(17).generate();
        let out = run(Pipeline::new(PipelineConfig::fast()), &dataset);
        (dataset, out)
    }

    #[test]
    fn pipeline_end_to_end_shapes() {
        let (dataset, out) = run_tiny();
        assert_eq!(out.post_hashes.len(), dataset.posts.len());
        assert_eq!(out.occurrences.len(), dataset.posts.len());
        assert_eq!(out.annotations.len(), out.clustering.n_clusters());
        assert_eq!(out.medoid_hashes.len(), out.clustering.n_clusters());
        assert!(
            out.clustering.n_clusters() > 5,
            "clusters {}",
            out.clustering.n_clusters()
        );
        // Noise exists but is not everything.
        let nf = out.clustering.noise_fraction();
        assert!((0.2..0.95).contains(&nf), "noise fraction {nf}");
    }

    #[test]
    fn some_clusters_are_annotated_some_not() {
        let (_, out) = run_tiny();
        let annotated = out.annotated_clusters().len();
        let total = out.clustering.n_clusters();
        assert!(annotated > 0, "no annotated clusters");
        assert!(
            annotated < total,
            "all {total} clusters annotated — uncatalogued mass missing"
        );
    }

    #[test]
    fn clustering_recovers_ground_truth_memes() {
        use meme_cluster::purity::majority_purity;
        let (dataset, out) = run_tiny();
        // Image-family truth (the paper's audit granularity): variants
        // of one meme merging at eps = 8 is not a false positive, and a
        // screenshot family is a legitimate (if meme-less) cluster.
        let truth: Vec<Option<meme_simweb::PostTruth>> = out
            .fringe_posts
            .iter()
            .map(|&i| dataset.posts[i].truth_key())
            .collect();
        let purity = majority_purity(&out.clustering, &truth);
        assert!(purity > 0.95, "cluster purity {purity}");
    }

    #[test]
    fn annotations_match_ground_truth_memes() {
        // For annotated clusters, the representative entry should
        // usually be the true meme of the cluster's medoid post.
        let (dataset, out) = run_tiny();
        let mut correct = 0usize;
        let mut total = 0usize;
        for ann in out.annotations.iter().filter(|a| a.is_annotated()) {
            let medoid_post = out.medoid_posts[ann.cluster];
            let Some((true_meme, _)) = dataset.posts[medoid_post].true_variant() else {
                continue;
            };
            total += 1;
            let rep = ann.representative.unwrap();
            if out.entry_meme_ids[rep] == Some(true_meme) {
                correct += 1;
            }
        }
        assert!(total > 0);
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.8, "annotation accuracy {acc} over {total}");
    }

    #[test]
    fn association_covers_mainstream_communities() {
        let (dataset, out) = run_tiny();
        for c in [Community::Twitter, Community::Reddit] {
            let matched = dataset
                .posts
                .iter()
                .zip(&out.occurrences)
                .filter(|(p, occ)| p.community == c && occ.is_some())
                .count();
            assert!(matched > 0, "{} has no meme matches", c.name());
        }
    }

    #[test]
    fn association_is_mostly_correct() {
        // Posts whose image is a meme variant should map to a cluster
        // whose medoid is the same variant (when that variant was
        // clustered + annotated).
        let (dataset, out) = run_tiny();
        let mut good = 0usize;
        let mut bad = 0usize;
        for (post, occ) in dataset.posts.iter().zip(&out.occurrences) {
            let (Some(cluster), Some((meme, variant))) = (occ, post.true_variant()) else {
                continue;
            };
            let medoid_post = out.medoid_posts[*cluster];
            match dataset.posts[medoid_post].true_variant() {
                Some((m, v)) if m == meme && v == variant => good += 1,
                _ => bad += 1,
            }
        }
        assert!(good > 0);
        let precision = good as f64 / (good + bad) as f64;
        assert!(precision > 0.9, "association precision {precision}");
    }

    #[test]
    fn cluster_events_are_sorted_and_complete() {
        let (dataset, out) = run_tiny();
        let annotated = out.annotated_clusters();
        let streams = out.try_all_cluster_events(&dataset).unwrap();
        assert_eq!(streams.len(), annotated.len());
        let total: usize = streams.iter().map(|s| s.len()).sum();
        let matched = out.occurrences.iter().flatten().count();
        assert_eq!(total, matched);
        for s in &streams {
            for w in s.windows(2) {
                assert!(w[0].t <= w[1].t);
            }
        }
        // Spot-check one stream against an inline filter of the
        // association.
        if let Some(&c) = annotated.first() {
            let mut expected: Vec<Event> = dataset
                .posts
                .iter()
                .zip(&out.occurrences)
                .filter(|(_, occ)| **occ == Some(c))
                .map(|(p, _)| Event::new(p.t, p.community.index()))
                .collect();
            expected.sort_by(|a, b| a.t.total_cmp(&b.t));
            assert_eq!(streams[0], expected);
        }
    }

    #[test]
    fn influence_estimation_runs_end_to_end() {
        let (dataset, out) = run_tiny();
        let (inf, skipped) = out
            .estimate_influence(&dataset, FIT_BETA, &Metrics::disabled())
            .unwrap();
        assert!(skipped.is_empty(), "{skipped:?}");
        let events: f64 = inf.total.events_per_community().iter().sum();
        let matched = out.occurrences.iter().flatten().count() as f64;
        assert!((events - matched).abs() < 1e-6);
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let mut dataset = SimConfig::tiny(18).generate();
        dataset.posts.clear();
        let err = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast())).run(&dataset);
        assert!(matches!(err, Err(PipelineError::EmptyDataset)));
    }

    #[test]
    fn hash_posts_handles_empty_dataset_without_panicking() {
        // The runner's typed EmptyDataset error guards the public entry
        // points, but the worker itself must stay total: an empty cache,
        // no workers, no verdicts.
        let mut dataset = SimConfig::tiny(18).generate();
        dataset.posts.clear();
        for threads in [0usize, 1, 8] {
            let pipeline = Pipeline::new(PipelineConfig {
                threads,
                ..PipelineConfig::fast()
            });
            let (hashes, quarantined) = pipeline.hash_posts(&dataset, 0).unwrap();
            assert!(hashes.is_empty() && quarantined.is_empty());
        }
    }

    #[test]
    fn chunked_is_total_and_positional_for_any_thread_count() {
        for threads in [0usize, 1, 2, 3, 8] {
            // Regression: no slots must mean no workers, not a
            // `clamp(1, 0)` or `chunks_mut(0)` panic.
            assert!(chunked(threads, &mut [0usize; 0], || (), |_, _, _| ()).is_empty());
            // Partial last block, one block, several blocks.
            for n in [5usize, BLOCK, 3 * BLOCK + 7] {
                let mut slots = vec![usize::MAX; n];
                let seen = chunked(threads, &mut slots, Vec::new, |k, slot, seen| {
                    *slot = k;
                    seen.push(k);
                });
                assert!(slots.iter().enumerate().all(|(k, &v)| v == k));
                assert!(seen.len() <= n.div_ceil(BLOCK), "no idle worker states");
                let mut all = seen.concat();
                all.sort_unstable();
                assert_eq!(all, slots, "every slot runs exactly once");
            }
        }
    }

    #[test]
    fn a_panicking_chunked_item_panics_on_the_caller() {
        let mut slots = vec![0u8; 3 * BLOCK];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            chunked(2, &mut slots, || (), |k, _, _| assert_ne!(k, BLOCK + 6))
        }));
        assert!(caught.is_err(), "the worker's panic reaches the caller");
    }

    #[test]
    fn hash_workers_merge_to_the_same_hashes_and_stats_at_any_thread_count() {
        let dataset = SimConfig::tiny(23).generate();
        let posts = &dataset.posts;
        let hashing = ImageHashing::new(&dataset, posts.iter().map(LazyImage::Post));
        let with_threads = |threads: usize| {
            let mut hashes = vec![PHash::default(); posts.len()];
            let workers = chunked(threads, &mut hashes, HashWorker::default, |i, slot, w| {
                *slot = hashing
                    .hash_image(LazyImage::Post(&posts[i]), w, |_| true)
                    .unwrap_or_default();
            });
            let mut stats = RenderStats::default();
            for (_, s) in &workers {
                stats.merge(s);
            }
            (hashes, stats)
        };
        let (hashes, stats) = with_threads(1);
        assert_eq!(stats.hits + stats.misses, posts.len() as u64);
        for threads in [0usize, 2, 3, 8] {
            let (h, st) = with_threads(threads);
            assert_eq!(h, hashes, "{threads} threads moved a hash");
            assert_eq!(
                st, stats,
                "{threads} threads changed the merged RenderStats"
            );
        }
    }

    #[test]
    fn item_fault_quarantine_is_ascending_at_any_thread_count() {
        let dataset = SimConfig::tiny(29).generate();
        let faults = ExecFaultSpec::poison_items(5, StageId::Hash.name(), 0.2);
        let quarantined = |threads: usize| {
            let pipeline = Pipeline::new(PipelineConfig {
                threads,
                ..PipelineConfig::fast()
            })
            .with_exec_faults(faults.clone());
            let (_, q) = pipeline.hash_posts(&dataset, 0).unwrap();
            q.iter().map(|e| e.item).collect::<Vec<_>>()
        };
        let reference = quarantined(1);
        assert!(reference.len() > BLOCK, "poison spans several blocks");
        assert!(reference.windows(2).all(|w| w[0] < w[1]));
        for threads in [2usize, 8] {
            assert_eq!(quarantined(threads), reference, "{threads} threads");
        }
    }

    #[test]
    fn associate_output_is_byte_identical_across_thread_counts() {
        let dataset = SimConfig::tiny(31).generate();
        let with_threads = |threads: usize| {
            let config = PipelineConfig {
                threads,
                ..PipelineConfig::fast()
            };
            run(Pipeline::new(config), &dataset)
        };
        let reference = with_threads(1);
        for threads in [2usize, 8] {
            let out = with_threads(threads);
            // Field-level checks first, so a determinism regression
            // names the stage that drifted instead of dumping two JSON
            // blobs: cluster ID assignment order (Step 3), medoid
            // selection (Step 3/5 input), annotations (Step 5), and
            // per-post association (Step 6).
            assert_eq!(
                reference.clustering.labels(),
                out.clustering.labels(),
                "{threads} threads changed cluster ID assignment order"
            );
            assert_eq!(
                reference.medoid_posts, out.medoid_posts,
                "{threads} threads changed medoid selection"
            );
            assert_eq!(
                reference.medoid_hashes, out.medoid_hashes,
                "{threads} threads changed medoid hashes"
            );
            assert_eq!(
                reference.annotations, out.annotations,
                "{threads} threads changed stage_annotate output"
            );
            assert_eq!(
                reference.occurrences, out.occurrences,
                "{threads} threads changed per-post associations"
            );
            assert_eq!(
                reference.to_json(),
                out.to_json(),
                "{threads} threads diverged from serial output"
            );
        }
    }

    #[test]
    fn metrics_capture_stage_counters_and_influence_stats() {
        use meme_metrics::Registry;
        use std::sync::Arc;

        let dataset = SimConfig::tiny(17).generate();
        let registry = Arc::new(Registry::new());
        let metrics = Metrics::from_registry(Arc::clone(&registry));
        let pipeline = Pipeline::new(PipelineConfig::fast()).with_metrics(metrics.clone());
        let out = run(pipeline, &dataset);
        out.estimate_influence(&dataset, FIT_BETA, &metrics)
            .unwrap();

        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["hash.images"],
            dataset.posts.len() as u64,
            "hash counter"
        );
        assert_eq!(snap.counters["associate.posts"], dataset.posts.len() as u64);
        assert_eq!(
            snap.counters["cluster.clusters"],
            out.clustering.n_clusters() as u64
        );
        assert_eq!(
            snap.counters["annotate.annotated_clusters"],
            out.annotated_clusters().len() as u64
        );
        assert!(snap.counters.keys().any(|k| k.starts_with("index.engine.")));
        assert!(snap.counters["hawkes.clusters_fitted"] > 0);
        assert!(snap.counters["hawkes.em_iterations_total"] > 0);
        // One span per stage plus the run parent and the influence span.
        for name in [
            "pipeline",
            "pipeline/hash",
            "pipeline/cluster",
            "pipeline/site",
            "pipeline/annotate",
            "pipeline/associate",
            "pipeline/influence",
        ] {
            assert!(snap.spans.contains_key(name), "missing span {name}");
        }
        assert!(snap.gauges.contains_key("hash.images_per_sec"));
        assert!(snap.histograms.contains_key("hawkes.em_iterations"));
    }

    #[test]
    fn metrics_counters_are_deterministic_across_thread_counts() {
        use meme_metrics::Registry;
        use std::sync::Arc;

        // A small successful Train mode beside the oracle: Step 4 then
        // classifies in the workers too.
        let trained = ScreenshotFilterMode::Train {
            corpus_scale: 0.01,
            config: TrainConfig {
                epochs: 1,
                ..TrainConfig::default()
            },
        };
        let dataset = SimConfig::tiny(32).generate();
        for screenshot_filter in [ScreenshotFilterMode::Oracle, trained] {
            let count_with = |threads: usize| {
                let registry = Arc::new(Registry::new());
                let pipeline = Pipeline::new(PipelineConfig {
                    threads,
                    screenshot_filter: screenshot_filter.clone(),
                    ..PipelineConfig::fast()
                })
                .with_metrics(Metrics::from_registry(Arc::clone(&registry)));
                let out = run(pipeline, &dataset);
                assert!(out.degradations.is_empty(), "{:?}", out.degradations);
                (
                    registry.snapshot().counters,
                    out.site,
                    out.screenshot_metrics,
                )
            };
            let reference = count_with(1);
            assert_eq!(reference, count_with(2));
            assert_eq!(reference, count_with(8));
            // Step 4 shares Step 1's workers, not its accounting.
            let rendered =
                reference.0["hash.render_cache.hits"] + reference.0["hash.render_cache.misses"];
            assert_eq!(rendered, dataset.posts.len() as u64);
        }
    }

    #[test]
    fn screenshot_posts_form_unannotated_clusters() {
        use meme_simweb::ImageRef;
        let (dataset, out) = run_tiny();
        // Screenshot families cluster (the paper's §4.1.1 observation)…
        let screenshot_clusters: Vec<usize> = (0..out.clustering.n_clusters())
            .filter(|&c| {
                matches!(
                    dataset.posts[out.medoid_posts[c]].image,
                    ImageRef::Screenshot { .. }
                )
            })
            .collect();
        assert!(
            !screenshot_clusters.is_empty(),
            "no screenshot clusters formed"
        );
        // …and with the screenshot filter active, none of them carries a
        // KYM annotation (their only possible gallery matches were
        // filtered in Step 4).
        for &c in &screenshot_clusters {
            assert!(
                !out.annotations[c].is_annotated(),
                "screenshot cluster {c} spuriously annotated"
            );
        }
    }

    #[test]
    fn filter_off_mode_keeps_screenshots_in_galleries() {
        let dataset = SimConfig::tiny(19).generate();
        let with = run(Pipeline::new(PipelineConfig::fast()), &dataset);
        let without = run(
            Pipeline::new(PipelineConfig {
                screenshot_filter: ScreenshotFilterMode::Off,
                ..PipelineConfig::fast()
            }),
            &dataset,
        );
        assert!(without.site.total_gallery_images() > with.site.total_gallery_images());
    }

    #[test]
    fn influence_with_zero_annotated_clusters_is_zero_not_an_abort() {
        // Regression: a run where no cluster earned a KYM annotation
        // used to abort the process inside the Hawkes estimator
        // (`chunks_mut(0)`); it must be the zero result with no
        // degradations.
        let (dataset, mut out) = run_tiny();
        for ann in &mut out.annotations {
            ann.matches.clear();
            ann.representative = None;
        }
        assert!(out.annotated_clusters().is_empty());
        let (influence, degradations) = out
            .estimate_influence(&dataset, 2.0, &Metrics::disabled())
            .unwrap();
        assert!(influence.per_cluster.is_empty());
        assert!(degradations.is_empty());
    }

    #[test]
    fn mangled_artifact_accessors_return_typed_errors() {
        // A pipeline never emits these shapes, but a corrupt or
        // stale-schema checkpoint can; each accessor must answer with
        // `CheckpointCorrupt`, not an index panic.
        let (dataset, out) = run_tiny();
        assert!(!out.annotated_clusters().is_empty());

        // Annotation cluster id past the medoid table.
        let mut bad = out.clone();
        let victim = bad
            .annotations
            .iter()
            .position(|a| a.is_annotated())
            .unwrap();
        bad.annotations[victim].cluster = bad.medoid_hashes.len() + 7;
        assert!(matches!(
            bad.try_all_cluster_events(&dataset),
            Err(PipelineError::CheckpointCorrupt(_))
        ));
        assert!(matches!(
            bad.try_annotated_descriptors(),
            Err(PipelineError::CheckpointCorrupt(_))
        ));

        // Occurrence pointing past the medoid table.
        let mut bad = out.clone();
        bad.occurrences[0] = Some(bad.medoid_hashes.len() + 7);
        assert!(matches!(
            bad.try_all_cluster_events(&dataset),
            Err(PipelineError::CheckpointCorrupt(_))
        ));

        // Representative / matched entry ids past the KYM site.
        let mut bad = out.clone();
        bad.annotations[victim].representative = Some(bad.site.len() + 7);
        assert!(matches!(
            bad.try_annotated_descriptors(),
            Err(PipelineError::CheckpointCorrupt(_))
        ));
        let cluster = bad.annotations[victim].cluster;
        assert!(bad.representative_entry(cluster).is_none());
        assert!(!bad.cluster_is_racist(cluster));
        let mut bad = out.clone();
        if let Some(m) = bad.annotations[victim].matches.first_mut() {
            m.entry_id = bad.site.len() + 7;
        }
        assert!(matches!(
            bad.try_annotated_descriptors(),
            Err(PipelineError::CheckpointCorrupt(_))
        ));

        // The intact output still satisfies both accessors.
        assert!(out.try_all_cluster_events(&dataset).is_ok());
        assert!(out.try_annotated_descriptors().is_ok());
    }
}
