//! Community influence estimation — the machinery behind Figs. 11–16.
//!
//! "We fit Hawkes models … for the 12.6K annotated clusters" (§5.2): one
//! model per meme cluster, root-cause attribution per cluster, then
//! aggregation. Two views of the aggregate:
//!
//! * **percent of destination** (Fig. 11): of all meme events on
//!   community `dst`, what share was root-caused by `src`;
//! * **normalized by source** (Fig. 12): influence divided by the number
//!   of events the *source* posted — the source's per-meme *efficiency*.
//!
//! Figs. 13–16 split clusters into groups (racist vs non-racist,
//! political vs non-political) and mark cells where two-sample KS tests
//! find the per-cluster influence distributions significantly different
//! (p < 0.01).

use crate::attribution::root_cause_matrix;
use crate::em::{fit_em, EmConfig};
use crate::model::{Event, HawkesError};
use meme_stats::ks::ks_two_sample;
use meme_stats::seeded_rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// An influence count matrix: `counts[src][dst]` is the expected number
/// of events on `dst` whose root cause lies on `src`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InfluenceMatrix {
    counts: Vec<Vec<f64>>,
}

impl InfluenceMatrix {
    /// A zero matrix over `k` communities.
    pub fn zeros(k: usize) -> Self {
        Self {
            counts: vec![vec![0.0; k]; k],
        }
    }

    /// Wrap raw counts.
    pub fn from_counts(counts: Vec<Vec<f64>>) -> Self {
        Self { counts }
    }

    /// Number of communities.
    pub fn k(&self) -> usize {
        self.counts.len()
    }

    /// Raw attributed mass for a cell.
    pub fn count(&self, src: usize, dst: usize) -> f64 {
        self.counts[src][dst]
    }

    /// Accumulate another matrix (summing across clusters).
    pub fn add(&mut self, other: &InfluenceMatrix) {
        assert_eq!(self.k(), other.k(), "matrix sizes must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }

    /// Events observed per community (column sums — every event
    /// contributes exactly one unit of root-cause mass).
    pub fn events_per_community(&self) -> Vec<f64> {
        let k = self.k();
        (0..k)
            .map(|dst| (0..k).map(|src| self.counts[src][dst]).sum())
            .collect()
    }

    /// Fig. 11 view: `cell[src][dst]` = percent of `dst`'s events caused
    /// by `src`. Columns sum to 100 (when the destination has events).
    pub fn percent_of_destination(&self) -> Vec<Vec<f64>> {
        let totals = self.events_per_community();
        self.counts
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&totals)
                    .map(|(c, t)| if *t > 0.0 { 100.0 * c / t } else { 0.0 })
                    .collect()
            })
            .collect()
    }

    /// Fig. 12 view: `cell[src][dst]` = influence normalized by the
    /// number of events the source posted, as a percent. A cell above
    /// 100% means each source event causes more than one event on the
    /// destination in expectation.
    pub fn normalized_by_source(&self) -> Vec<Vec<f64>> {
        let totals = self.events_per_community();
        self.counts
            .iter()
            .enumerate()
            .map(|(src, row)| {
                let n_src = totals[src];
                row.iter()
                    .map(|c| if n_src > 0.0 { 100.0 * c / n_src } else { 0.0 })
                    .collect()
            })
            .collect()
    }

    /// Fig. 12's "Total" column: sum of a source's normalized influence
    /// over all destinations.
    pub fn total_normalized(&self) -> Vec<f64> {
        self.normalized_by_source()
            .iter()
            .map(|row| row.iter().sum())
            .collect()
    }

    /// Fig. 12's "Total Ext" column: normalized influence on all
    /// *other* communities (external influence — the paper's efficiency
    /// headline).
    pub fn total_external_normalized(&self) -> Vec<f64> {
        self.normalized_by_source()
            .iter()
            .enumerate()
            .map(|(src, row)| {
                row.iter()
                    .enumerate()
                    .filter(|(dst, _)| *dst != src)
                    .map(|(_, v)| v)
                    .sum()
            })
            .collect()
    }
}

/// Per-cluster EM fit + attribution + aggregation.
#[derive(Debug, Clone)]
pub struct InfluenceEstimator {
    k: usize,
    config: EmConfig,
}

/// Per-cluster and aggregate influence, the estimate inside
/// [`RobustInfluence`].
#[derive(Debug, Clone)]
pub struct ClusterInfluence {
    /// One matrix per input cluster (empty clusters yield zero
    /// matrices).
    pub per_cluster: Vec<InfluenceMatrix>,
    /// Sum over all clusters.
    pub total: InfluenceMatrix,
}

/// One cluster the robust estimator gave up on.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedCluster {
    /// Index into the input cluster list.
    pub cluster: usize,
    /// Why the fit was abandoned.
    pub error: HawkesError,
}

/// Cost and quality diagnostics of one cluster's successful fit — the
/// observability record behind per-stage pipeline metrics (EM iteration
/// counts and final log-likelihoods in a `--metrics-out` export).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterFitStats {
    /// Index into the input cluster list.
    pub cluster: usize,
    /// Events in the cluster's stream.
    pub events: usize,
    /// EM iterations.
    pub iterations: usize,
    /// Final log-likelihood of the fitted model on the stream.
    pub log_likelihood: f64,
    /// Whether EM reached its tolerance within the iteration budget.
    pub converged: bool,
}

/// Output of [`InfluenceEstimator::estimate_robust`]: aggregates over
/// the clusters that fitted, plus a record of every cluster that did
/// not (those contribute zero matrices).
#[derive(Debug, Clone)]
pub struct RobustInfluence {
    /// The aggregate, identical in shape to [`ClusterInfluence`].
    pub influence: ClusterInfluence,
    /// Clusters whose fit failed or landed non-stationary, in ascending
    /// cluster order.
    pub skipped: Vec<SkippedCluster>,
    /// Fit diagnostics for every non-empty cluster that fitted, in
    /// ascending cluster order (empty streams have nothing to fit and
    /// produce neither stats nor a skip).
    pub fit_stats: Vec<ClusterFitStats>,
}

impl InfluenceEstimator {
    /// An EM-backed estimator over `k` communities with kernel decay
    /// `beta`.
    pub fn new(k: usize, beta: f64) -> Self {
        Self {
            k,
            config: EmConfig {
                beta,
                ..EmConfig::default()
            },
        }
    }

    /// Fit a model per cluster, attribute root causes, and aggregate.
    /// Clusters are processed in parallel across `threads` workers
    /// (0 = all cores). A cluster whose fit fails — invalid events, a
    /// diverged optimizer, or a fitted model at/past the critical
    /// branching ratio — is *skipped* (it contributes a zero matrix)
    /// and recorded, instead of aborting the whole estimate.
    /// Deterministic regardless of thread count.
    ///
    /// Cluster sizes are heavy-tailed and a fit costs about its stream
    /// length, so workers take clusters one at a time, longest first,
    /// from a shared counter: the largest fit starts immediately instead
    /// of queueing behind its chunk. Each result goes back to its
    /// cluster's slot, so the output never depends on who fitted what.
    pub fn estimate_robust(
        &self,
        clusters: &[Vec<Event>],
        horizon: f64,
        threads: usize,
    ) -> RobustInfluence {
        let k = self.k;
        let n = clusters.len();
        let hw = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        let threads = if threads == 0 { hw } else { threads }.min(n).max(1);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&c| std::cmp::Reverse(clusters[c].len()));
        let next = AtomicUsize::new(0);

        let config = &self.config;
        // Each worker fills its own slot with what it fitted; the scope
        // joins them all and re-raises a worker's panic here.
        let mut done: Vec<Vec<(usize, ClusterOutcome)>> = vec![Vec::new(); threads];
        std::thread::scope(|s| {
            for slot in &mut done {
                let (order, next) = (&order, &next);
                s.spawn(move || {
                    while let Some(&cluster) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let outcome =
                            fit_one_checked(config, &clusters[cluster], k, horizon, cluster);
                        slot.push((cluster, outcome));
                    }
                });
            }
        });
        // Every index was handed out exactly once, so every slot is
        // overwritten; the placeholder is an empty cluster's result.
        let mut outcomes: Vec<ClusterOutcome> = vec![Ok((InfluenceMatrix::zeros(k), None)); n];
        for (cluster, outcome) in done.into_iter().flatten() {
            outcomes[cluster] = outcome;
        }

        // Slots are in cluster order, so both lists come out sorted.
        let mut per_cluster = Vec::with_capacity(n);
        let mut skipped = Vec::new();
        let mut fit_stats = Vec::new();
        for (cluster, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok((m, stats)) => {
                    per_cluster.push(m);
                    fit_stats.extend(stats);
                }
                Err(error) => {
                    per_cluster.push(InfluenceMatrix::zeros(k));
                    skipped.push(SkippedCluster { cluster, error });
                }
            }
        }
        let mut total = InfluenceMatrix::zeros(k);
        for m in &per_cluster {
            total.add(m);
        }
        RobustInfluence {
            influence: ClusterInfluence { per_cluster, total },
            skipped,
            fit_stats,
        }
    }
}

/// One cluster's result: its matrix and fit diagnostics, or why it was
/// skipped.
type ClusterOutcome = Result<(InfluenceMatrix, Option<ClusterFitStats>), HawkesError>;

/// One cluster's influence matrix and fit diagnostics; an empty stream
/// has nothing to fit and yields a zero matrix without diagnostics. Fits
/// at or past the critical branching ratio are rejected: root-cause
/// attribution is meaningless there.
fn fit_one_checked(
    config: &EmConfig,
    events: &[Event],
    k: usize,
    horizon: f64,
    cluster_idx: usize,
) -> ClusterOutcome {
    if events.is_empty() {
        return Ok((InfluenceMatrix::zeros(k), None));
    }
    let fit = fit_em(events, k, horizon, config)?;
    let rho = fit.model.spectral_radius();
    if rho >= 1.0 {
        return Err(HawkesError::NonStationary {
            spectral_radius: rho,
        });
    }
    let matrix = InfluenceMatrix::from_counts(root_cause_matrix(&fit.model, events)?);
    let stats = ClusterFitStats {
        cluster: cluster_idx,
        events: events.len(),
        iterations: fit.iterations,
        log_likelihood: fit.log_likelihood,
        converged: fit.converged,
    };
    Ok((matrix, Some(stats)))
}

/// Cluster-bootstrap confidence intervals for an influence matrix.
///
/// The paper reports point estimates; since influence is aggregated
/// over thousands of independently-fitted clusters, resampling clusters
/// with replacement gives honest uncertainty bands for every cell of
/// the percent-of-destination matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BootstrapCi {
    /// Lower bound per cell (percent of destination).
    pub lo: Vec<Vec<f64>>,
    /// Upper bound per cell.
    pub hi: Vec<Vec<f64>>,
    /// Confidence level used.
    pub level: f64,
    /// Resamples drawn.
    pub resamples: usize,
}

/// Percentile-bootstrap CI over per-cluster influence matrices.
///
/// Returns `None` when there are no clusters or `resamples == 0`.
pub fn bootstrap_ci(
    per_cluster: &[InfluenceMatrix],
    resamples: usize,
    level: f64,
    seed: u64,
) -> Option<BootstrapCi> {
    use rand::RngExt;
    if per_cluster.is_empty() || resamples == 0 || !(0.0..1.0).contains(&level) {
        return None;
    }
    let k = per_cluster.first()?.k();
    let n = per_cluster.len();
    let mut rng = seeded_rng(seed);
    // samples[cell] = resampled percent values.
    let mut samples = vec![vec![Vec::with_capacity(resamples); k]; k];
    for _ in 0..resamples {
        let mut total = InfluenceMatrix::zeros(k);
        for _ in 0..n {
            total.add(&per_cluster[rng.random_range(0..n)]);
        }
        let pct = total.percent_of_destination();
        for src in 0..k {
            for dst in 0..k {
                samples[src][dst].push(pct[src][dst]);
            }
        }
    }
    let alpha = (1.0 - level) / 2.0;
    let quantile = |xs: &mut Vec<f64>, q: f64| -> f64 {
        xs.sort_by(f64::total_cmp);
        let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
        xs[rank - 1]
    };
    let mut lo = vec![vec![0.0; k]; k];
    let mut hi = vec![vec![0.0; k]; k];
    for src in 0..k {
        for dst in 0..k {
            lo[src][dst] = quantile(&mut samples[src][dst], alpha);
            hi[src][dst] = quantile(&mut samples[src][dst], 1.0 - alpha);
        }
    }
    Some(BootstrapCi {
        lo,
        hi,
        level,
        resamples,
    })
}

/// Comparison of two cluster groups (e.g. racist vs non-racist memes)
/// with per-cell KS significance, the Figs. 13–16 layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitInfluence {
    /// Aggregate percent-of-destination matrix for group A.
    pub a_percent: Vec<Vec<f64>>,
    /// Aggregate percent-of-destination matrix for group B.
    pub b_percent: Vec<Vec<f64>>,
    /// Aggregate source-normalized matrix for group A (Figs. 15–16).
    pub a_normalized: Vec<Vec<f64>>,
    /// Aggregate source-normalized matrix for group B.
    pub b_normalized: Vec<Vec<f64>>,
    /// Two-sample KS p-value per cell over the per-cluster
    /// percent-of-destination distributions; `1.0` where either group
    /// has no usable samples.
    pub p_values: Vec<Vec<f64>>,
}

impl SplitInfluence {
    /// Build the comparison from per-cluster matrices of the two groups.
    pub fn compare(group_a: &[InfluenceMatrix], group_b: &[InfluenceMatrix]) -> Self {
        let k = group_a
            .first()
            .or_else(|| group_b.first())
            .map(|m| m.k())
            .unwrap_or(0);
        let mut total_a = InfluenceMatrix::zeros(k);
        for m in group_a {
            total_a.add(m);
        }
        let mut total_b = InfluenceMatrix::zeros(k);
        for m in group_b {
            total_b.add(m);
        }

        // Per-cluster percent samples per cell.
        let samples = |group: &[InfluenceMatrix], src: usize, dst: usize| -> Vec<f64> {
            group
                .iter()
                .filter(|m| m.events_per_community()[dst] > 0.0)
                .map(|m| m.percent_of_destination()[src][dst])
                .collect()
        };

        let mut p_values = vec![vec![1.0f64; k]; k];
        for src in 0..k {
            for dst in 0..k {
                let a = samples(group_a, src, dst);
                let b = samples(group_b, src, dst);
                if let Some(r) = ks_two_sample(&a, &b) {
                    p_values[src][dst] = r.p_value;
                }
            }
        }
        Self {
            a_percent: total_a.percent_of_destination(),
            b_percent: total_b.percent_of_destination(),
            a_normalized: total_a.normalized_by_source(),
            b_normalized: total_b.normalized_by_source(),
            p_values,
        }
    }

    /// Whether a cell's group difference is significant at `alpha`
    /// (the paper stars cells at `p < 0.01`).
    pub fn significant(&self, src: usize, dst: usize, alpha: f64) -> bool {
        self.p_values[src][dst] < alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::HawkesModel;
    use crate::simulate::{simulate_branching, strip_lineage, true_root_community};
    use meme_stats::child_seed;

    /// 3 communities; community 0 is a prolific instigator.
    fn truth() -> HawkesModel {
        HawkesModel::new(
            vec![0.6, 0.2, 0.1],
            vec![
                vec![0.3, 0.25, 0.2],
                vec![0.05, 0.2, 0.05],
                vec![0.02, 0.05, 0.1],
            ],
            2.0,
        )
        .unwrap()
    }

    fn make_clusters(n: usize, horizon: f64, seed: u64) -> Vec<Vec<Event>> {
        let m = truth();
        (0..n)
            .map(|i| {
                let mut rng = seeded_rng(child_seed(seed, i as u64));
                strip_lineage(&simulate_branching(&m, horizon, &mut rng))
            })
            .collect()
    }

    #[test]
    fn matrix_views_are_consistent() {
        let m = InfluenceMatrix::from_counts(vec![
            vec![8.0, 2.0, 0.0],
            vec![1.0, 6.0, 1.0],
            vec![1.0, 2.0, 4.0],
        ]);
        let events = m.events_per_community();
        assert_eq!(events, vec![10.0, 10.0, 5.0]);
        let pod = m.percent_of_destination();
        // Columns sum to 100.
        for dst in 0..3 {
            let col: f64 = (0..3).map(|src| pod[src][dst]).sum();
            assert!((col - 100.0).abs() < 1e-9);
        }
        assert!((pod[0][0] - 80.0).abs() < 1e-9);
        let norm = m.normalized_by_source();
        // Row src=0: counts (8,2,0) over N_0=10 -> (80,20,0)%.
        assert!((norm[0][0] - 80.0).abs() < 1e-9);
        assert!((norm[0][1] - 20.0).abs() < 1e-9);
        let tot = m.total_normalized();
        assert!((tot[0] - 100.0).abs() < 1e-9);
        let ext = m.total_external_normalized();
        assert!((ext[0] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn zero_destination_yields_zero_percent() {
        let m = InfluenceMatrix::zeros(2);
        assert_eq!(m.percent_of_destination(), vec![vec![0.0; 2]; 2]);
        assert_eq!(m.normalized_by_source(), vec![vec![0.0; 2]; 2]);
    }

    #[test]
    fn estimator_recovers_ground_truth_influence() {
        let clusters = make_clusters(12, 300.0, 31);
        let est = InfluenceEstimator::new(3, 2.0);
        let robust = est.estimate_robust(&clusters, 300.0, 2);
        assert!(robust.skipped.is_empty(), "skips: {:?}", robust.skipped);
        let out = robust.influence;

        // Ground truth from lineage.
        let m = truth();
        let mut true_counts = vec![vec![0.0f64; 3]; 3];
        for (i, _) in clusters.iter().enumerate() {
            let mut rng = seeded_rng(child_seed(31, i as u64));
            let sim = simulate_branching(&m, 300.0, &mut rng);
            for j in 0..sim.len() {
                true_counts[true_root_community(&sim, j)][sim[j].process] += 1.0;
            }
        }
        let truth_mat = InfluenceMatrix::from_counts(true_counts);
        let est_pct = out.total.percent_of_destination();
        let true_pct = truth_mat.percent_of_destination();
        for src in 0..3 {
            for dst in 0..3 {
                assert!(
                    (est_pct[src][dst] - true_pct[src][dst]).abs() < 8.0,
                    "cell [{src}][{dst}]: est {:.1}% vs truth {:.1}%",
                    est_pct[src][dst],
                    true_pct[src][dst]
                );
            }
        }
        // The instigator community dominates external influence.
        let ext = out.total.total_external_normalized();
        assert!(ext[0] > ext[2], "ext {ext:?}");
    }

    #[test]
    fn estimate_deterministic_across_threads() {
        let clusters = make_clusters(6, 150.0, 32);
        let est = InfluenceEstimator::new(3, 2.0);
        let a = est.estimate_robust(&clusters, 150.0, 1).influence;
        let b = est.estimate_robust(&clusters, 150.0, 4).influence;
        assert_eq!(a.total, b.total);
        assert_eq!(a.per_cluster, b.per_cluster);
    }

    #[test]
    fn empty_cluster_contributes_zero() {
        let mut clusters = make_clusters(2, 100.0, 33);
        clusters.push(Vec::new());
        let est = InfluenceEstimator::new(3, 2.0);
        let out = est.estimate_robust(&clusters, 100.0, 1);
        assert_eq!(out.influence.per_cluster[2], InfluenceMatrix::zeros(3));
        assert!(out.skipped.is_empty(), "an empty stream is not a skip");
    }

    #[test]
    fn clean_clusters_are_all_fitted_and_keep_their_event_mass() {
        let clusters = make_clusters(6, 150.0, 36);
        let est = InfluenceEstimator::new(3, 2.0);
        let robust = est.estimate_robust(&clusters, 150.0, 2);
        assert!(robust.skipped.is_empty(), "skips: {:?}", robust.skipped);
        assert_eq!(robust.fit_stats.len(), clusters.len());
        for (m, events) in robust.influence.per_cluster.iter().zip(&clusters) {
            let mass: f64 = m.events_per_community().iter().sum();
            assert!((mass - events.len() as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn robust_estimate_skips_poisoned_clusters() {
        let mut clusters = make_clusters(4, 150.0, 37);
        // Cluster 1: a NaN event time; cluster 3: out-of-range process.
        clusters[1].push(Event::new(f64::NAN, 0));
        clusters[3] = vec![Event::new(1.0, 7)];
        let est = InfluenceEstimator::new(3, 2.0);
        // The estimate completes and records the two bad clusters.
        let robust = est.estimate_robust(&clusters, 150.0, 2);
        let skipped_ids: Vec<usize> = robust.skipped.iter().map(|s| s.cluster).collect();
        assert_eq!(skipped_ids, vec![1, 3]);
        assert_eq!(robust.influence.per_cluster[1], InfluenceMatrix::zeros(3));
        assert_eq!(robust.influence.per_cluster[3], InfluenceMatrix::zeros(3));
        // The clean clusters still contribute their full event mass.
        let events: f64 = robust.influence.total.events_per_community().iter().sum();
        let clean: f64 = clusters[0].len() as f64 + clusters[2].len() as f64;
        assert!((events - clean).abs() < 1e-6);
    }

    #[test]
    fn robust_estimate_deterministic_across_threads() {
        let mut clusters = make_clusters(5, 150.0, 38);
        clusters[2].push(Event::new(f64::NAN, 0));
        let est = InfluenceEstimator::new(3, 2.0);
        let a = est.estimate_robust(&clusters, 150.0, 1);
        let b = est.estimate_robust(&clusters, 150.0, 4);
        assert_eq!(a.influence.total, b.influence.total);
        assert_eq!(a.skipped, b.skipped);
        assert_eq!(a.fit_stats, b.fit_stats);
    }

    #[test]
    fn largest_first_scheduling_is_deterministic_across_threads() {
        // Heavy-tailed: a cluster ten times the others in the middle of
        // the list (it is fitted first), plus an empty and a poisoned one.
        let mut clusters = make_clusters(7, 60.0, 43);
        clusters[3] = make_clusters(1, 600.0, 44).remove(0);
        clusters[1] = Vec::new();
        clusters[5].push(Event::new(f64::NAN, 0));
        assert!(clusters[3].len() >= 5 * clusters[0].len().max(clusters[6].len()));
        let est = InfluenceEstimator::new(3, 2.0);
        let runs: Vec<RobustInfluence> = [1, 2, 8]
            .iter()
            .map(|&t| est.estimate_robust(&clusters, 600.0, t))
            .collect();
        let skipped: Vec<usize> = runs[0].skipped.iter().map(|s| s.cluster).collect();
        assert_eq!(skipped, vec![5]);
        let fitted: Vec<usize> = runs[0].fit_stats.iter().map(|s| s.cluster).collect();
        assert_eq!(fitted, vec![0, 2, 3, 4, 6]);
        for other in &runs[1..] {
            assert_eq!(other.influence.per_cluster, runs[0].influence.per_cluster);
            assert_eq!(other.influence.total, runs[0].influence.total);
            assert_eq!(other.skipped, runs[0].skipped);
            assert_eq!(other.fit_stats, runs[0].fit_stats);
        }
    }

    #[test]
    fn fit_stats_cover_fitted_clusters_in_order() {
        let mut clusters = make_clusters(4, 150.0, 39);
        clusters.push(Vec::new()); // empty: neither stats nor skip
        clusters[1].push(Event::new(f64::NAN, 0)); // skipped
        let est = InfluenceEstimator::new(3, 2.0);
        let out = est.estimate_robust(&clusters, 150.0, 2);
        let fitted: Vec<usize> = out.fit_stats.iter().map(|s| s.cluster).collect();
        assert_eq!(fitted, vec![0, 2, 3]);
        for st in &out.fit_stats {
            assert!(st.iterations > 0, "cluster {} did no work", st.cluster);
            assert!(st.events > 0);
            assert!(
                st.log_likelihood.is_finite(),
                "cluster {} LL {}",
                st.cluster,
                st.log_likelihood
            );
            assert_eq!(st.events, clusters[st.cluster].len());
        }
    }

    #[test]
    fn split_detects_group_difference() {
        // Group A: community 0 excites community 1 strongly.
        // Group B: pure background.
        let ma = HawkesModel::new(
            vec![0.6, 0.1, 0.1],
            vec![
                vec![0.2, 0.5, 0.1],
                vec![0.0, 0.1, 0.0],
                vec![0.0, 0.0, 0.1],
            ],
            2.0,
        )
        .unwrap();
        let mb = HawkesModel::new(vec![0.6, 0.4, 0.1], vec![vec![0.0; 3]; 3], 2.0).unwrap();
        let est = InfluenceEstimator::new(3, 2.0);
        let sim = |m: &HawkesModel, seed: u64| -> Vec<Vec<Event>> {
            (0..15)
                .map(|i| {
                    let mut rng = seeded_rng(child_seed(seed, i));
                    strip_lineage(&simulate_branching(m, 200.0, &mut rng))
                })
                .collect()
        };
        let a = est.estimate_robust(&sim(&ma, 41), 200.0, 2).influence;
        let b = est.estimate_robust(&sim(&mb, 42), 200.0, 2).influence;
        let split = SplitInfluence::compare(&a.per_cluster, &b.per_cluster);
        // Cell (0 -> 1) differs strongly between groups.
        assert!(
            split.a_percent[0][1] > split.b_percent[0][1] + 10.0,
            "A {} vs B {}",
            split.a_percent[0][1],
            split.b_percent[0][1]
        );
        assert!(
            split.significant(0, 1, 0.01),
            "p = {}",
            split.p_values[0][1]
        );
    }

    #[test]
    fn bootstrap_ci_brackets_point_estimate() {
        let clusters = make_clusters(20, 200.0, 55);
        let est = InfluenceEstimator::new(3, 2.0);
        let out = est.estimate_robust(&clusters, 200.0, 2).influence;
        let ci = bootstrap_ci(&out.per_cluster, 200, 0.9, 7).unwrap();
        let point = out.total.percent_of_destination();
        let mut inside = 0usize;
        let mut cells = 0usize;
        for src in 0..3 {
            for dst in 0..3 {
                assert!(ci.lo[src][dst] <= ci.hi[src][dst] + 1e-9);
                cells += 1;
                if point[src][dst] >= ci.lo[src][dst] - 1e-9
                    && point[src][dst] <= ci.hi[src][dst] + 1e-9
                {
                    inside += 1;
                }
            }
        }
        // The point estimate should sit inside nearly all intervals.
        assert!(inside >= cells - 1, "{inside}/{cells} inside");
        assert_eq!(ci.resamples, 200);
    }

    #[test]
    fn bootstrap_ci_rejects_degenerate_input() {
        assert!(bootstrap_ci(&[], 100, 0.9, 1).is_none());
        let m = vec![InfluenceMatrix::zeros(2)];
        assert!(bootstrap_ci(&m, 0, 0.9, 1).is_none());
        assert!(bootstrap_ci(&m, 10, 1.5, 1).is_none());
    }

    #[test]
    fn split_with_empty_groups_is_neutral() {
        let split = SplitInfluence::compare(&[], &[]);
        assert!(split.p_values.is_empty());
    }

    #[test]
    fn empty_cluster_list_yields_zero_influence_not_a_panic() {
        // Regression: `estimate_robust` on zero clusters used to reach
        // `chunks_mut(0)` and abort the process. A run with no
        // annotated clusters is a legal (if sad) outcome and must
        // produce the zero result.
        for threads in [1, 2, 8] {
            let est = InfluenceEstimator::new(3, 2.0);
            let robust = est.estimate_robust(&[], 100.0, threads);
            assert!(robust.influence.per_cluster.is_empty());
            assert_eq!(robust.influence.total, InfluenceMatrix::zeros(3));
            assert!(robust.skipped.is_empty());
            assert!(robust.fit_stats.is_empty());
        }
    }
}
