//! Property-based tests: DBSCAN invariants over arbitrary graphs,
//! dendrogram laws, and medoid optimality.

#![allow(clippy::needless_range_loop)]

use meme_cluster::dbscan::try_dbscan;
use meme_cluster::hier::{condensed_index, Dendrogram, Linkage};
use meme_cluster::medoid::medoid_of;
use proptest::prelude::*;

/// Random symmetric adjacency (self-exclusive) on `n` nodes.
fn adjacency_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    (2usize..40).prop_flat_map(|n| {
        prop::collection::vec(prop::collection::vec(0usize..n, 0..5), n).prop_map(move |raw| {
            let mut adj = vec![std::collections::BTreeSet::new(); n];
            for (i, targets) in raw.iter().enumerate() {
                for &j in targets {
                    if i != j {
                        adj[i].insert(j);
                        adj[j].insert(i);
                    }
                }
            }
            adj.into_iter().map(|s| s.into_iter().collect()).collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dbscan_core_points_are_never_noise(adj in adjacency_strategy(), min_pts in 1usize..6) {
        let c = try_dbscan(&adj, min_pts).unwrap();
        for (i, nbrs) in adj.iter().enumerate() {
            if nbrs.len() + 1 >= min_pts {
                prop_assert!(c.labels()[i].is_some(), "core point {i} is noise");
            }
        }
    }

    #[test]
    fn dbscan_noise_points_have_no_core_neighbor_with_their_label(adj in adjacency_strategy(), min_pts in 1usize..6) {
        let c = try_dbscan(&adj, min_pts).unwrap();
        // A noise point must not be adjacent to any core point (else it
        // would be at least a border member of that core's cluster).
        for (i, nbrs) in adj.iter().enumerate() {
            if c.labels()[i].is_none() {
                for &j in nbrs {
                    prop_assert!(
                        adj[j].len() + 1 < min_pts,
                        "noise {i} adjacent to core {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn dbscan_clusters_are_connected_via_core_points(adj in adjacency_strategy(), min_pts in 1usize..6) {
        let c = try_dbscan(&adj, min_pts).unwrap();
        // Every cluster contains at least one core point, and cluster
        // sizes sum with noise to n.
        let sizes = c.sizes();
        let total: usize = sizes.iter().sum();
        prop_assert_eq!(total + c.noise_count(), adj.len());
        for (id, members) in c.all_members().iter().enumerate() {
            prop_assert!(!members.is_empty(), "cluster {id} is empty");
            let has_core = members.iter().any(|&m| adj[m].len() + 1 >= min_pts);
            prop_assert!(has_core, "cluster {id} has no core point");
        }
    }

    #[test]
    fn medoid_minimizes_cost(n in 1usize..15, seed: u64) {
        // Random distance matrix; medoid must achieve the minimum sum
        // of squared distances.
        let mut rng = meme_stats::seeded_rng(seed);
        let mut d = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = rand::RngExt::random_range(&mut rng, 0.0..10.0);
                d[i][j] = v;
                d[j][i] = v;
            }
        }
        let members: Vec<usize> = (0..n).collect();
        let m = medoid_of(&members, |a, b| d[a][b]).unwrap();
        let cost = |i: usize| -> f64 { members.iter().map(|&j| d[i][j] * d[i][j]).sum() };
        for &i in &members {
            prop_assert!(cost(m) <= cost(i) + 1e-9);
        }
    }

    #[test]
    fn dendrogram_has_n_minus_one_merges(n in 1usize..25, seed: u64) {
        let mut rng = meme_stats::seeded_rng(seed);
        let condensed: Vec<f64> = (0..n * (n - 1) / 2)
            .map(|_| rand::RngExt::random_range(&mut rng, 0.0..1.0))
            .collect();
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let d = Dendrogram::build(n, &condensed, linkage).unwrap();
            prop_assert_eq!(d.merges().len(), n.saturating_sub(1));
            // Final merge covers all leaves.
            if let Some(last) = d.merges().last() {
                prop_assert_eq!(last.size, n);
            }
        }
    }

    #[test]
    fn dendrogram_heights_monotone_for_monotone_linkages(n in 2usize..20, seed: u64) {
        let mut rng = meme_stats::seeded_rng(seed);
        let condensed: Vec<f64> = (0..n * (n - 1) / 2)
            .map(|_| rand::RngExt::random_range(&mut rng, 0.0..1.0))
            .collect();
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let d = Dendrogram::build(n, &condensed, linkage).unwrap();
            let hs = d.heights();
            for w in hs.windows(2) {
                prop_assert!(w[1] >= w[0] - 1e-9, "{linkage:?}: {hs:?}");
            }
        }
    }

    #[test]
    fn dendrogram_cut_is_coarsening(n in 2usize..20, seed: u64, t1 in 0.0f64..1.0, dt in 0.0f64..1.0) {
        let mut rng = meme_stats::seeded_rng(seed);
        let condensed: Vec<f64> = (0..n * (n - 1) / 2)
            .map(|_| rand::RngExt::random_range(&mut rng, 0.0..1.0))
            .collect();
        let d = Dendrogram::build(n, &condensed, Linkage::Average).unwrap();
        let fine = d.cut(t1);
        let coarse = d.cut(t1 + dt);
        // Raising the threshold can only merge clusters: leaves sharing
        // a fine label must share a coarse one.
        for i in 0..n {
            for j in 0..n {
                if fine[i] == fine[j] {
                    prop_assert_eq!(coarse[i], coarse[j]);
                }
            }
        }
    }

    #[test]
    fn condensed_index_is_a_bijection(n in 2usize..30) {
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let idx = condensed_index(n, i, j);
                prop_assert!(idx < n * (n - 1) / 2);
                prop_assert!(seen.insert(idx), "duplicate index {idx}");
            }
        }
        prop_assert_eq!(seen.len(), n * (n - 1) / 2);
    }
}
