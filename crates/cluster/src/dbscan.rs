//! DBSCAN over precomputed neighbourhoods.
//!
//! The expensive part of DBSCAN on 64-bit perceptual hashes is the radius
//! query, which `meme-index` already solves; this module implements the
//! label-propagation half. Separating the two lets the pipeline reuse one
//! adjacency computation across parameter sweeps (Appendix A, Table 8)
//! and keeps this code independent of the index engine.
//!
//! One flood fill serves two inputs: [`try_dbscan`] over one list per
//! item, and [`try_dbscan_distinct`] over one list per distinct hash of
//! a duplicate-collapsed corpus, each hash weighted by its copies — the
//! pipeline's path, which never builds the per-post adjacency.

use crate::medoid::medoid_of_hashes;
use meme_index::{distinct_neighbors, FallbackIndex, HashGroups};
use meme_phash::PHash;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Invalid input to a clustering routine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// `min_pts == 0` — every point would be a core point of nothing.
    InvalidMinPts,
    /// An adjacency list referenced an item outside the point set.
    InvalidNeighbor {
        /// The item (for [`try_dbscan_distinct`], the distinct-hash
        /// slot) whose list is broken.
        item: usize,
        /// The out-of-range neighbour index.
        neighbor: usize,
        /// Number of items (distinct hashes) in the point set.
        len: usize,
    },
    /// A distinct-hash adjacency does not hold one list per distinct
    /// hash of its [`HashGroups`].
    AdjacencyLength {
        /// Number of lists passed.
        lists: usize,
        /// Number of distinct hashes in the groups.
        expected: usize,
    },
    /// A cluster id has no members — impossible for a [`Clustering`]
    /// produced by [`try_dbscan`], but reachable through deserialized
    /// (e.g. checkpointed) label vectors whose `n_clusters` overcounts.
    EmptyCluster {
        /// The memberless cluster id.
        cluster: usize,
    },
    /// An item carries a label outside `0..n_clusters` — again only
    /// reachable through deserialized label vectors.
    InvalidLabel {
        /// The mislabeled item.
        item: usize,
        /// Its out-of-range label.
        label: usize,
        /// The clustering's declared cluster count.
        n_clusters: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidMinPts => write!(f, "min_pts must be at least 1"),
            Self::InvalidNeighbor {
                item,
                neighbor,
                len,
            } => write!(
                f,
                "item {item} lists neighbour {neighbor}, but there are only {len} items"
            ),
            Self::AdjacencyLength { lists, expected } => write!(
                f,
                "adjacency has {lists} lists, but there are {expected} distinct hashes"
            ),
            Self::EmptyCluster { cluster } => {
                write!(f, "cluster {cluster} has no members")
            }
            Self::InvalidLabel {
                item,
                label,
                n_clusters,
            } => write!(
                f,
                "item {item} is labeled {label}, but there are only {n_clusters} clusters"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// DBSCAN parameters. The paper's production setting is
/// `eps = 8, min_pts = 5`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DbscanParams {
    /// Radius of the Hamming eps-neighbourhood.
    pub eps: u32,
    /// Minimum neighbourhood size (including the point itself) for a
    /// point to be a core point. DBSCAN noise in the paper's words:
    /// "there are less than 5 images with perceptual distance ≤ 8 from
    /// that particular instance".
    pub min_pts: usize,
}

impl Default for DbscanParams {
    fn default() -> Self {
        Self { eps: 8, min_pts: 5 }
    }
}

/// The result of a clustering run: a cluster label per item (`None` =
/// noise) and derived statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clustering {
    labels: Vec<Option<usize>>,
    n_clusters: usize,
}

impl Clustering {
    /// A clustering from stored labels (`None` = noise), validated as
    /// [`try_dbscan`] would have produced it: every label lies in
    /// `0..n_clusters` ([`ClusterError::InvalidLabel`]) and every cluster
    /// id has a member ([`ClusterError::EmptyCluster`]). The checkpoint
    /// decoder builds its clustering through it.
    pub fn try_new(labels: Vec<Option<usize>>, n_clusters: usize) -> Result<Self, ClusterError> {
        // More clusters than items leaves one memberless; checked before
        // sizing the table by a count that may come from hostile bytes.
        if n_clusters > labels.len() {
            return Err(ClusterError::EmptyCluster {
                cluster: labels.len(),
            });
        }
        let mut seen = vec![false; n_clusters];
        for (item, l) in labels.iter().enumerate() {
            if let Some(label) = *l {
                match seen.get_mut(label) {
                    Some(s) => *s = true,
                    None => {
                        return Err(ClusterError::InvalidLabel {
                            item,
                            label,
                            n_clusters,
                        })
                    }
                }
            }
        }
        match seen.iter().position(|s| !s) {
            Some(cluster) => Err(ClusterError::EmptyCluster { cluster }),
            None => Ok(Self { labels, n_clusters }),
        }
    }

    /// Per-item labels; `None` marks noise.
    pub fn labels(&self) -> &[Option<usize>] {
        &self.labels
    }

    /// Number of clusters found.
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether there are no items.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of noise items.
    pub fn noise_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_none()).count()
    }

    /// Fraction of items labeled noise (Table 2 reports 63%–69%).
    pub fn noise_fraction(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.noise_count() as f64 / self.labels.len() as f64
    }

    /// All clusters as member lists, indexed by cluster id.
    pub fn all_members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.n_clusters];
        for (i, l) in self.labels.iter().enumerate() {
            if let Some(c) = l {
                out[*c].push(i);
            }
        }
        out
    }

    /// Cluster sizes indexed by cluster id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.n_clusters];
        for l in self.labels.iter().flatten() {
            out[*l] += 1;
        }
        out
    }

    /// Member items of each cluster, indexed by cluster id, each list
    /// ascending: one checked bucketing pass over the labels. Label
    /// vectors [`try_dbscan`] never emits but a corrupt checkpoint can
    /// contain — out-of-range labels, memberless cluster ids — surface
    /// as typed [`ClusterError`]s instead of a panic.
    pub fn try_members(&self) -> Result<Vec<Vec<usize>>, ClusterError> {
        let mut members = vec![Vec::new(); self.n_clusters];
        for (item, l) in self.labels.iter().enumerate() {
            if let Some(label) = *l {
                match members.get_mut(label) {
                    Some(bucket) => bucket.push(item),
                    None => {
                        return Err(ClusterError::InvalidLabel {
                            item,
                            label,
                            n_clusters: self.n_clusters,
                        })
                    }
                }
            }
        }
        match members.iter().position(Vec::is_empty) {
            Some(cluster) => Err(ClusterError::EmptyCluster { cluster }),
            None => Ok(members),
        }
    }

    /// Medoid item index of each cluster, given the item hashes
    /// (Step 5's cluster representative): [`Clustering::try_members`],
    /// then one medoid per cluster, scored over the cluster's distinct
    /// hashes by [`medoid_of_hashes`]. The pipeline's cluster stage
    /// scores the clusters of [`Clustering::try_members`] on its
    /// workers instead; this is the serial form.
    pub fn try_medoids(&self, hashes: &[PHash]) -> Result<Vec<usize>, ClusterError> {
        let members = self.try_members()?;
        Ok(members
            .iter()
            .filter_map(|members| medoid_of_hashes(hashes, members))
            .collect())
    }
}

/// Run DBSCAN given each item's (self-exclusive) radius neighbourhood.
///
/// Deterministic: clusters are numbered by the order their first core
/// point appears. Border points are assigned to the first cluster that
/// reaches them (the standard tie-break).
///
/// `min_pts` and the adjacency lists are validated before labels are
/// propagated, so malformed input surfaces as a [`ClusterError`] rather
/// than a panic mid-flood-fill.
///
/// This is the item-level reference: the pipeline runs
/// [`try_dbscan_distinct`] over one list per distinct hash instead.
pub fn try_dbscan(neighbors: &[Vec<usize>], min_pts: usize) -> Result<Clustering, ClusterError> {
    check_adjacency(neighbors, min_pts)?;
    let (labels, n_clusters) = flood_fill(neighbors, |_| 1, min_pts, 0..neighbors.len());
    Ok(Clustering { labels, n_clusters })
}

/// Run DBSCAN over a duplicate-collapsed corpus: `adjacency[u]` is the
/// (self-exclusive, ascending) neighbourhood of distinct hash `u` of
/// `groups`, as [`distinct_neighbors`] computes it.
///
/// Returns the same per-item labels, cluster numbering and cluster
/// count as [`try_dbscan`] over the expanded item adjacency
/// ([`meme_index::symmetric_neighbors`]), without building it. Every
/// owner of a hash has the same neighbours, hence the same core status
/// and label, so the flood fill runs once per distinct hash with two
/// adjustments:
///
/// * a hash counts with its **owner count**: `u` is core when
///   `|owners(u)| + Σ_{v ∈ adjacency[u]} |owners(v)| ≥ min_pts`;
/// * hashes are visited in ascending **first-owner** order (the order
///   [`try_dbscan`] meets their first items), not in
///   [`HashGroups::unique`]'s hash order — which keeps the cluster
///   numbering identical.
///
/// A list count other than `groups.len_unique()`, an out-of-range slot
/// or `min_pts == 0` is a [`ClusterError`].
pub fn try_dbscan_distinct(
    groups: &HashGroups,
    adjacency: &[Vec<usize>],
    min_pts: usize,
) -> Result<Clustering, ClusterError> {
    if adjacency.len() != groups.len_unique() {
        return Err(ClusterError::AdjacencyLength {
            lists: adjacency.len(),
            expected: groups.len_unique(),
        });
    }
    check_adjacency(adjacency, min_pts)?;
    let first_owner_order = (0..groups.len_items()).filter_map(|i| {
        let u = groups.owner_of(i);
        (groups.owners(u).first() == Some(&(i as u32))).then_some(u)
    });
    let (group_labels, n_clusters) = flood_fill(
        adjacency,
        |u| groups.owners(u).len(),
        min_pts,
        first_owner_order,
    );
    let labels = (0..groups.len_items())
        .map(|i| group_labels[groups.owner_of(i)])
        .collect();
    Ok(Clustering { labels, n_clusters })
}

/// Reject `min_pts == 0` and any neighbour index outside the adjacency.
fn check_adjacency(neighbors: &[Vec<usize>], min_pts: usize) -> Result<(), ClusterError> {
    if min_pts == 0 {
        return Err(ClusterError::InvalidMinPts);
    }
    let n = neighbors.len();
    for (item, nb) in neighbors.iter().enumerate() {
        if let Some(&neighbor) = nb.iter().find(|&&j| j >= n) {
            return Err(ClusterError::InvalidNeighbor {
                item,
                neighbor,
                len: n,
            });
        }
    }
    Ok(())
}

/// The one DBSCAN flood fill, over validated adjacency. A node stands
/// for `weight(node)` points (1 for an item, the owner count for a
/// distinct hash) and is core when its own weight plus its neighbours'
/// reaches `min_pts` — the neighbourhood includes the point itself in
/// DBSCAN's definition, the adjacency lists exclude it. Clusters are
/// seeded from unvisited core nodes in `order` and numbered as they
/// are seeded; a border node keeps the first cluster that reaches it.
/// Returns the per-node labels and the cluster count.
fn flood_fill(
    neighbors: &[Vec<usize>],
    weight: impl Fn(usize) -> usize,
    min_pts: usize,
    order: impl Iterator<Item = usize>,
) -> (Vec<Option<usize>>, usize) {
    let n = neighbors.len();
    let is_core: Vec<bool> = neighbors
        .iter()
        .enumerate()
        .map(|(p, nb)| weight(p) + nb.iter().map(|&q| weight(q)).sum::<usize>() >= min_pts)
        .collect();

    let mut labels: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut n_clusters = 0usize;
    let mut queue = VecDeque::new();

    for start in order {
        if visited[start] || !is_core[start] {
            continue;
        }
        let cluster = n_clusters;
        n_clusters += 1;
        queue.push_back(start);
        visited[start] = true;
        labels[start] = Some(cluster);
        while let Some(p) = queue.pop_front() {
            for &q in &neighbors[p] {
                if labels[q].is_none() {
                    labels[q] = Some(cluster);
                }
                if !visited[q] && is_core[q] {
                    visited[q] = true;
                    queue.push_back(q);
                }
            }
        }
    }
    (labels, n_clusters)
}

/// Cluster `hashes` with DBSCAN in one call, parallelizing the pairwise
/// stage over `threads` workers (0 = all cores) — the same path the
/// pipeline's cluster stage takes: the hashes are collapsed with
/// [`HashGroups`], an index is built over the distinct hashes only,
/// [`distinct_neighbors`] sweeps their pairs and [`try_dbscan_distinct`]
/// clusters them. Labels are byte-identical to one radius query per
/// item for every thread count; malformed parameters surface as a
/// [`ClusterError`] instead of a panic.
pub fn try_dbscan_hashes(
    hashes: &[PHash],
    params: DbscanParams,
    threads: usize,
) -> Result<Clustering, ClusterError> {
    if params.min_pts == 0 {
        return Err(ClusterError::InvalidMinPts);
    }
    let groups = HashGroups::new(hashes);
    let collapsed = FallbackIndex::build(groups.unique().to_vec(), params.eps);
    let (adjacency, _) = distinct_neighbors(&collapsed, &groups, params.eps, threads);
    try_dbscan_distinct(&groups, &adjacency, params.min_pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meme_index::{BruteForceIndex, HammingIndex};
    use meme_stats::seeded_rng;
    use rand::RngExt;

    /// Build self-exclusive adjacency from an explicit edge list.
    fn adjacency(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        adj
    }

    #[test]
    fn try_new_accepts_what_dbscan_emits_and_types_the_rest() {
        let made = try_dbscan(&adjacency(4, &[(0, 1), (2, 3)]), 2).unwrap();
        let rebuilt = Clustering::try_new(made.labels().to_vec(), made.n_clusters()).unwrap();
        assert_eq!(rebuilt, made);
        assert_eq!(
            Clustering::try_new(vec![Some(0), None, Some(2)], 2),
            Err(ClusterError::InvalidLabel {
                item: 2,
                label: 2,
                n_clusters: 2
            })
        );
        assert_eq!(
            Clustering::try_new(vec![Some(1), Some(1)], 2),
            Err(ClusterError::EmptyCluster { cluster: 0 })
        );
        // A count no label vector can fill is refused before any table
        // is sized by it.
        assert_eq!(
            Clustering::try_new(vec![None], usize::MAX),
            Err(ClusterError::EmptyCluster { cluster: 1 })
        );
        assert!(Clustering::try_new(Vec::new(), 0).is_ok());
    }

    #[test]
    fn empty_input() {
        let c = try_dbscan(&[], 5).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.n_clusters(), 0);
        assert_eq!(c.noise_fraction(), 0.0);
    }

    #[test]
    fn all_noise_when_sparse() {
        // 4 isolated points, min_pts 2 -> all noise.
        let c = try_dbscan(&adjacency(4, &[]), 2).unwrap();
        assert_eq!(c.n_clusters(), 0);
        assert_eq!(c.noise_count(), 4);
        assert_eq!(c.noise_fraction(), 1.0);
    }

    #[test]
    fn min_pts_one_clusters_everything() {
        let c = try_dbscan(&adjacency(3, &[]), 1).unwrap();
        assert_eq!(c.n_clusters(), 3);
        assert_eq!(c.noise_count(), 0);
    }

    #[test]
    fn two_separate_cliques() {
        // Clique {0,1,2} and clique {3,4,5}, min_pts = 3.
        let edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)];
        let c = try_dbscan(&adjacency(6, &edges), 3).unwrap();
        assert_eq!(c.n_clusters(), 2);
        assert_eq!(c.labels()[0], c.labels()[1]);
        assert_eq!(c.labels()[0], c.labels()[2]);
        assert_eq!(c.labels()[3], c.labels()[4]);
        assert_ne!(c.labels()[0], c.labels()[3]);
        assert_eq!(c.sizes(), vec![3, 3]);
    }

    #[test]
    fn border_point_joins_cluster_but_does_not_expand() {
        // Clique {0,1,2,3} with min_pts 4: all four are core. Point 4 is
        // attached to 3 only (2 points in its neighbourhood, not core) —
        // a border point. Point 5 hangs off the border point; since 4 is
        // not core, expansion stops and 5 stays noise.
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
        ];
        let c = try_dbscan(&adjacency(6, &edges), 4).unwrap();
        assert_eq!(c.n_clusters(), 1);
        assert_eq!(c.labels()[4], Some(0)); // border
        assert_eq!(c.labels()[5], None); // noise beyond border
    }

    #[test]
    fn chain_of_core_points_forms_one_cluster() {
        // Path 0-1-2-3-4 with min_pts 2: every point is core
        // (>= 1 neighbour + self), density-connectivity chains them.
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4)];
        let c = try_dbscan(&adjacency(5, &edges), 2).unwrap();
        assert_eq!(c.n_clusters(), 1);
        assert_eq!(c.noise_count(), 0);
    }

    #[test]
    fn try_members_and_all_members_agree() {
        let edges = [(0, 1), (0, 2), (1, 2)];
        let c = try_dbscan(&adjacency(4, &edges), 3).unwrap();
        assert_eq!(c.try_members().unwrap(), vec![vec![0, 1, 2]]);
        assert_eq!(c.all_members(), vec![vec![0, 1, 2]]);
        assert_eq!(c.labels()[3], None);
    }

    #[test]
    fn hashes_end_to_end() {
        // Two tight hash families + isolated noise.
        let mut rng = seeded_rng(8);
        let mut hashes = Vec::new();
        for _ in 0..2 {
            let center = PHash(rng.random());
            for k in 0..6u8 {
                hashes.push(center.with_flipped_bits(&[k % 3]));
            }
        }
        hashes.push(PHash(rng.random()));
        let c = try_dbscan_hashes(&hashes, DbscanParams::default(), 1).unwrap();
        assert_eq!(c.n_clusters(), 2);
        assert_eq!(c.noise_count(), 1);
        let medoids = c.try_medoids(&hashes).unwrap();
        assert_eq!(medoids.len(), 2);
        // Medoid of the first cluster is one of its members.
        assert!(c.try_members().unwrap()[0].contains(&medoids[0]));
    }

    #[test]
    fn deterministic_labeling() {
        let mut rng = seeded_rng(9);
        let hashes: Vec<PHash> = (0..100)
            .map(|_| PHash(rng.random::<u64>() & 0xFFFF))
            .collect();
        let a = try_dbscan_hashes(&hashes, DbscanParams { eps: 6, min_pts: 3 }, 1).unwrap();
        let b = try_dbscan_hashes(&hashes, DbscanParams { eps: 6, min_pts: 3 }, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn try_medoids_picks_one_member_per_cluster_on_valid_clusterings() {
        let edges = [(0, 1), (0, 2), (1, 2), (4, 5), (4, 6), (5, 6)];
        let c = try_dbscan(&adjacency(7, &edges), 3).unwrap();
        let hashes: Vec<PHash> = (0..7).map(|i| PHash(1u64 << i)).collect();
        assert_eq!(c.try_medoids(&hashes).unwrap(), vec![0, 4]);
    }

    #[test]
    fn try_medoids_reports_corrupt_label_vectors() {
        // Simulate a corrupt checkpoint: serde can produce Clusterings
        // dbscan never would.
        let empty_cluster: Clustering =
            serde_json::from_str(r#"{"labels":[0,0,null],"n_clusters":2}"#).unwrap();
        let hashes = vec![PHash(1), PHash(2), PHash(3)];
        assert_eq!(
            empty_cluster.try_medoids(&hashes),
            Err(ClusterError::EmptyCluster { cluster: 1 })
        );

        let bad_label: Clustering =
            serde_json::from_str(r#"{"labels":[0,7],"n_clusters":1}"#).unwrap();
        assert_eq!(
            bad_label.try_medoids(&hashes),
            Err(ClusterError::InvalidLabel {
                item: 1,
                label: 7,
                n_clusters: 1
            })
        );
    }

    #[test]
    fn collapsed_sweep_matches_per_item_all_neighbors_oracle() {
        // The duplicate-collapsed pair sweep must be a pure optimization:
        // labels byte-identical to one radius query per item, for every
        // thread count, on a workload heavy with verbatim duplicates
        // (reposts — exactly what collapsing exists for).
        fn all_neighbors(index: &BruteForceIndex, radius: u32) -> Vec<Vec<usize>> {
            (0..index.len())
                .map(|i| {
                    let mut hits = index.radius_query(index.hash_at(i), radius);
                    hits.retain(|&j| j != i);
                    hits
                })
                .collect()
        }
        let mut rng = seeded_rng(11);
        let mut hashes = Vec::new();
        for _ in 0..8 {
            let center = PHash(rng.random());
            for k in 0..10u8 {
                // Half the family are exact duplicates of the center.
                hashes.push(center.with_flipped_bits(&[k % 5, k % 3]));
                hashes.push(center);
            }
        }
        for _ in 0..20 {
            hashes.push(PHash(rng.random()));
        }
        let idx = BruteForceIndex::new(hashes.clone());
        for params in [DbscanParams::default(), DbscanParams { eps: 4, min_pts: 3 }] {
            let per_item = try_dbscan(&all_neighbors(&idx, params.eps), params.min_pts).unwrap();
            for threads in [1, 2, 8] {
                let collapsed = try_dbscan_hashes(&hashes, params, threads).unwrap();
                assert_eq!(
                    per_item, collapsed,
                    "eps {} min_pts {} threads {threads}",
                    params.eps, params.min_pts
                );
            }
        }
    }

    #[test]
    fn try_dbscan_hashes_reports_typed_errors() {
        assert_eq!(
            try_dbscan_hashes(
                &[PHash(1), PHash(2)],
                DbscanParams { eps: 8, min_pts: 0 },
                1
            ),
            Err(ClusterError::InvalidMinPts)
        );
    }

    #[test]
    fn distinct_clusters_are_numbered_by_first_owner_not_by_hash() {
        // The ordering trap: the lowest hash (slot 0 of `unique()`) is
        // not the first core post. Items 0..3 share hash 900, items
        // 3..6 hash 7: post-level DBSCAN seeds cluster 0 at item 0.
        let hashes = [
            PHash(900),
            PHash(900),
            PHash(900),
            PHash(7),
            PHash(7),
            PHash(7),
        ];
        let groups = HashGroups::new(&hashes);
        assert_eq!(groups.unique(), &[PHash(7), PHash(900)]);
        let index = BruteForceIndex::new(groups.unique().to_vec());
        let (items, _) = meme_index::symmetric_neighbors(&index, &groups, 0, 1);
        let (adjacency, _) = distinct_neighbors(&index, &groups, 0, 1);
        let c = try_dbscan_distinct(&groups, &adjacency, 3).unwrap();
        assert_eq!(c, try_dbscan(&items, 3).unwrap());
        assert_eq!(
            c.labels(),
            &[Some(0), Some(0), Some(0), Some(1), Some(1), Some(1)]
        );
    }

    #[test]
    fn distinct_core_status_counts_owners() {
        // Hash 7 (three copies) and its 1-bit neighbour (one copy):
        // four points within eps 1, so both are core at min_pts 4 even
        // though each distinct hash has a single neighbour.
        let hashes = [PHash(7), PHash(6), PHash(7), PHash(7), PHash(1 << 40)];
        let groups = HashGroups::new(&hashes);
        let index = BruteForceIndex::new(groups.unique().to_vec());
        let (adjacency, _) = distinct_neighbors(&index, &groups, 1, 1);
        let c = try_dbscan_distinct(&groups, &adjacency, 4).unwrap();
        assert_eq!(c.labels(), &[Some(0), Some(0), Some(0), Some(0), None]);
        assert_eq!(
            try_dbscan_distinct(&groups, &adjacency, 5)
                .unwrap()
                .n_clusters(),
            0
        );
    }

    #[test]
    fn try_dbscan_distinct_reports_malformed_adjacency() {
        let groups = HashGroups::new(&[PHash(1), PHash(2), PHash(1)]);
        assert_eq!(groups.len_unique(), 2);
        assert_eq!(
            try_dbscan_distinct(&groups, &[vec![1]], 1),
            Err(ClusterError::AdjacencyLength {
                lists: 1,
                expected: 2
            })
        );
        assert_eq!(
            try_dbscan_distinct(&groups, &[vec![1], vec![0], vec![]], 1),
            Err(ClusterError::AdjacencyLength {
                lists: 3,
                expected: 2
            })
        );
        assert_eq!(
            try_dbscan_distinct(&groups, &[vec![1], vec![2]], 1),
            Err(ClusterError::InvalidNeighbor {
                item: 1,
                neighbor: 2,
                len: 2
            })
        );
        assert_eq!(
            try_dbscan_distinct(&groups, &[vec![1], vec![0]], 0),
            Err(ClusterError::InvalidMinPts)
        );
        let empty = HashGroups::new(&[]);
        assert_eq!(try_dbscan_distinct(&empty, &[], 5).unwrap().len(), 0);
    }

    #[test]
    fn try_dbscan_reports_typed_errors() {
        assert_eq!(try_dbscan(&[], 0), Err(ClusterError::InvalidMinPts));
        let broken = vec![vec![1], vec![5]];
        assert_eq!(
            try_dbscan(&broken, 1),
            Err(ClusterError::InvalidNeighbor {
                item: 1,
                neighbor: 5,
                len: 2
            })
        );
    }
}
