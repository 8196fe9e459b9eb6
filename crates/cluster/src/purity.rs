//! Ground-truth cluster-quality audits.
//!
//! Appendix A of the paper manually audits 200 random clusters for false
//! positives at DBSCAN distances 6, 8 and 10 (Fig. 17) and finds overall
//! true-positive mass of 99.4% at distance 8. The simulator knows every
//! image's true variant, so the reproduction replaces the manual audit
//! with exact computation over *all* clusters.

use crate::dbscan::Clustering;
use std::collections::HashMap;
use std::hash::Hash;

/// Per-cluster false-positive fraction: for each cluster, the fraction
/// of members whose ground truth differs from the cluster's majority
/// ground truth. `truth[i] = None` marks items with no meme identity
/// (one-off images); they count as false positives inside any cluster.
///
/// Returns one fraction per cluster, ordered by cluster id. These are
/// the samples behind the Fig. 17 CDFs.
pub fn cluster_false_positive_fractions<T: Eq + Hash + Clone>(
    clustering: &Clustering,
    truth: &[Option<T>],
) -> Vec<f64> {
    assert_eq!(
        clustering.len(),
        truth.len(),
        "truth must cover every clustered item"
    );
    clustering
        .all_members()
        .iter()
        .map(|members| {
            let mut counts: HashMap<&T, usize> = HashMap::new();
            for &i in members {
                if let Some(t) = &truth[i] {
                    *counts.entry(t).or_insert(0) += 1;
                }
            }
            let majority = counts.values().max().copied().unwrap_or(0);
            1.0 - majority as f64 / members.len() as f64
        })
        .collect()
}

/// Overall majority purity: the fraction of clustered (non-noise) items
/// matching their cluster's majority truth. The paper's distance-8 audit
/// corresponds to a purity of ~0.994.
pub fn majority_purity<T: Eq + Hash + Clone>(clustering: &Clustering, truth: &[Option<T>]) -> f64 {
    let fps = cluster_false_positive_fractions(clustering, truth);
    let sizes = clustering.sizes();
    let clustered: usize = sizes.iter().sum();
    if clustered == 0 {
        return 1.0;
    }
    let fp_items: f64 = fps.iter().zip(&sizes).map(|(f, s)| f * *s as f64).sum();
    1.0 - fp_items / clustered as f64
}

/// Fraction of items with a true meme identity that end up in some
/// cluster (recall of the clustering step). Items with `truth = None`
/// are excluded from the denominator.
pub fn identity_recall<T>(clustering: &Clustering, truth: &[Option<T>]) -> f64 {
    assert_eq!(clustering.len(), truth.len());
    let mut with_truth = 0usize;
    let mut clustered = 0usize;
    for (label, t) in clustering.labels().iter().zip(truth) {
        if t.is_some() {
            with_truth += 1;
            if label.is_some() {
                clustered += 1;
            }
        }
    }
    if with_truth == 0 {
        1.0
    } else {
        clustered as f64 / with_truth as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::try_dbscan;

    fn adjacency(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        adj
    }

    /// Two triangles -> two clusters; item 6 is noise.
    fn two_cluster_fixture() -> Clustering {
        let edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)];
        try_dbscan(&adjacency(7, &edges), 3).unwrap()
    }

    #[test]
    fn pure_clusters_have_zero_fp() {
        let c = two_cluster_fixture();
        let truth: Vec<Option<u32>> =
            vec![Some(1), Some(1), Some(1), Some(2), Some(2), Some(2), None];
        let fps = cluster_false_positive_fractions(&c, &truth);
        assert_eq!(fps, vec![0.0, 0.0]);
        assert_eq!(majority_purity(&c, &truth), 1.0);
        assert_eq!(identity_recall(&c, &truth), 1.0);
    }

    #[test]
    fn contaminated_cluster_measured() {
        let c = two_cluster_fixture();
        // One member of cluster 0 actually belongs to meme 2.
        let truth: Vec<Option<u32>> =
            vec![Some(1), Some(1), Some(2), Some(2), Some(2), Some(2), None];
        let fps = cluster_false_positive_fractions(&c, &truth);
        assert!((fps[0] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(fps[1], 0.0);
        let purity = majority_purity(&c, &truth);
        assert!((purity - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn oneoff_images_count_as_false_positives() {
        let c = two_cluster_fixture();
        let truth: Vec<Option<u32>> = vec![Some(1), Some(1), None, Some(2), Some(2), Some(2), None];
        let fps = cluster_false_positive_fractions(&c, &truth);
        assert!((fps[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn recall_counts_unclustered_truth() {
        let c = two_cluster_fixture();
        // Noise item 6 has a true identity that clustering missed.
        let truth: Vec<Option<u32>> = vec![
            Some(1),
            Some(1),
            Some(1),
            Some(2),
            Some(2),
            Some(2),
            Some(3),
        ];
        let r = identity_recall(&c, &truth);
        assert!((r - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_clustering_is_vacuously_pure() {
        let c = try_dbscan(&[], 5).unwrap();
        let truth: Vec<Option<u32>> = vec![];
        assert_eq!(majority_purity(&c, &truth), 1.0);
        assert_eq!(identity_recall(&c, &truth), 1.0);
    }

    #[test]
    #[should_panic(expected = "truth must cover")]
    fn mismatched_truth_panics() {
        let c = two_cluster_fixture();
        let truth: Vec<Option<u32>> = vec![Some(1)];
        let _ = cluster_false_positive_fractions(&c, &truth);
    }
}
