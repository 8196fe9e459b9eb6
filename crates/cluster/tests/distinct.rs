//! Differential oracle for the duplicate-collapsed cluster path: DBSCAN
//! over one adjacency list per distinct hash must label every item
//! exactly as item-level DBSCAN over the expanded per-item adjacency,
//! and medoids scored over a cluster's distinct hashes must pick the
//! member the all-pairs `medoid_of` picks.

use meme_cluster::dbscan::{try_dbscan, try_dbscan_distinct};
use meme_cluster::medoid::{medoid_of, medoid_of_hashes};
use meme_index::{distinct_neighbors, symmetric_neighbors, BruteForceIndex, HashGroups};
use meme_phash::PHash;
use proptest::prelude::*;

/// A hash multiset with planted duplicate runs. Families of near
/// variants (a center plus a few flipped bits) give every eps in 0..=10
/// something to join; each distinct hash is repeated in a run of
/// copies. Runs are laid out in *descending* hash order, so the order
/// in which hashes first occur is the reverse of `HashGroups::unique`'s
/// ascending order, and then some hashes recur in later runs, so a
/// hash's copies are not contiguous either.
fn planted_runs_strategy() -> impl Strategy<Value = Vec<PHash>> {
    (
        prop::collection::vec(
            (
                any::<u64>(),
                prop::collection::vec((prop::collection::vec(0u8..64, 0..5), 1usize..6), 1..5),
            ),
            1..6,
        ),
        prop::collection::vec((any::<usize>(), 1usize..4), 0..6),
    )
        .prop_map(|(families, repeats)| {
            let mut runs: Vec<(PHash, usize)> = Vec::new();
            for (center, variants) in families {
                for (flips, copies) in variants {
                    runs.push((PHash(center).with_flipped_bits(&flips), copies));
                }
            }
            runs.sort_unstable_by_key(|&(h, _)| std::cmp::Reverse(h));
            let mut items: Vec<PHash> = runs
                .iter()
                .flat_map(|&(h, copies)| std::iter::repeat_n(h, copies))
                .collect();
            for (pick, copies) in repeats {
                let (h, _) = runs[pick % runs.len()];
                items.extend(std::iter::repeat_n(h, copies));
            }
            items
        })
}

/// Member lists per cluster of an arbitrary label vector, in the
/// (unsorted) order the items were labeled.
fn members_of(labels: &[Option<usize>], n_clusters: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); n_clusters];
    for (i, l) in labels.iter().enumerate() {
        if let Some(c) = *l {
            out[c].push(i);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn distinct_dbscan_equals_item_dbscan(hashes in planted_runs_strategy()) {
        let groups = HashGroups::new(&hashes);
        let index = BruteForceIndex::new(groups.unique().to_vec());
        for eps in 0..=10u32 {
            for threads in [1usize, 2, 8] {
                let (items, _) = symmetric_neighbors(&index, &groups, eps, threads);
                let (distinct, _) = distinct_neighbors(&index, &groups, eps, threads);
                for min_pts in 1..=8usize {
                    let reference = try_dbscan(&items, min_pts).unwrap();
                    let collapsed = try_dbscan_distinct(&groups, &distinct, min_pts).unwrap();
                    prop_assert_eq!(
                        &collapsed,
                        &reference,
                        "eps {} min_pts {} threads {}",
                        eps,
                        min_pts,
                        threads
                    );
                    prop_assert_eq!(
                        collapsed.try_medoids(&hashes).unwrap(),
                        reference
                            .all_members()
                            .iter()
                            .map(|m| {
                                medoid_of(m, |i, j| f64::from(hashes[i].distance(hashes[j])))
                                    .unwrap()
                            })
                            .collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn collapsed_medoid_equals_all_pairs_medoid(
        case in planted_runs_strategy().prop_flat_map(|hashes| {
            let n = hashes.len();
            // Label 4 is noise.
            (Just(hashes), prop::collection::vec(0usize..5, n))
        }),
        reversed: bool,
    ) {
        let (hashes, raw) = case;
        let labels: Vec<Option<usize>> = raw.iter().map(|&l| (l < 4).then_some(l)).collect();
        for mut members in members_of(&labels, 4) {
            if reversed {
                members.reverse();
            }
            let all_pairs =
                medoid_of(&members, |i, j| f64::from(hashes[i].distance(hashes[j])));
            prop_assert_eq!(medoid_of_hashes(&hashes, &members), all_pairs);
        }
    }
}
