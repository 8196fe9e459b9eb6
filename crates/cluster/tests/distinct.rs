//! Differential oracles for the duplicate-collapsed cluster path: DBSCAN
//! over one adjacency list per distinct hash must label every item
//! exactly as item-level DBSCAN over the expanded per-item adjacency,
//! and medoids scored over a cluster's distinct hashes must pick the
//! member the all-pairs `medoid_of` picks. Those two DBSCANs share one
//! flood fill, so a third oracle shares nothing with them: the textbook
//! algorithm, with a brute-force range query per visited item.

use meme_cluster::dbscan::{try_dbscan, try_dbscan_distinct, try_dbscan_hashes, DbscanParams};
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

/// Hashes on a line: point `k` flips the first `k · step` bits of one
/// run of bit positions in a start hash, so points `i` and `j` are
/// `step · |i − j|` apart. Each point is repeated 1–3 times and the
/// items are laid out in a scrambled order. A dense point reaches its
/// neighbours on the line and no further, so a sparse point between two
/// dense ones is a border item that two clusters reach.
fn planted_line_strategy() -> impl Strategy<Value = Vec<PHash>> {
    (
        any::<u64>(),
        0u8..64,
        1usize..4,
        prop::collection::vec(1usize..4, 2..12),
        any::<u64>(),
    )
        .prop_map(|(start, offset, step, copies, scramble)| {
            let mut items: Vec<(u64, PHash)> = Vec::new();
            for (k, &n) in copies.iter().enumerate() {
                let flips: Vec<u8> = (0..(k * step) as u8).map(|b| offset + b).collect();
                let point = PHash(start).with_flipped_bits(&flips);
                for copy in 0..n {
                    let key =
                        ((k * 4 + copy) as u64 ^ scramble).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    items.push((key, point));
                }
            }
            items.sort_unstable_by_key(|&(key, _)| key);
            items.into_iter().map(|(_, h)| h).collect()
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

/// Textbook DBSCAN (Ester et al., 1996, in the form of Schubert et al.,
/// 2017) in O(n²): items are visited in order, every range query scans
/// all items, a core item's unlabeled or noise neighbours join its
/// cluster and the core ones among them grow it. A border item keeps the
/// first cluster that reaches it. Returns the labels (`None` = noise)
/// and the cluster count.
fn textbook_dbscan(hashes: &[PHash], eps: u32, min_pts: usize) -> (Vec<Option<usize>>, usize) {
    #[derive(Clone, Copy, PartialEq)]
    enum Label {
        Undefined,
        Noise,
        Cluster(usize),
    }
    let range_query = |p: usize| -> Vec<usize> {
        (0..hashes.len())
            .filter(|&q| hashes[p].distance(hashes[q]) <= eps)
            .collect()
    };
    let mut labels = vec![Label::Undefined; hashes.len()];
    let mut clusters = 0;
    for p in 0..hashes.len() {
        if labels[p] != Label::Undefined {
            continue;
        }
        let neighbors = range_query(p);
        if neighbors.len() < min_pts {
            labels[p] = Label::Noise;
            continue;
        }
        let c = Label::Cluster(clusters);
        clusters += 1;
        labels[p] = c;
        let mut seeds: Vec<usize> = neighbors.into_iter().filter(|&q| q != p).collect();
        let mut next = 0;
        while let Some(&q) = seeds.get(next) {
            next += 1;
            if labels[q] == Label::Noise {
                labels[q] = c;
            }
            if labels[q] != Label::Undefined {
                continue;
            }
            labels[q] = c;
            let neighbors = range_query(q);
            if neighbors.len() >= min_pts {
                seeds.extend(neighbors);
            }
        }
    }
    let labels = labels
        .into_iter()
        .map(|l| match l {
            Label::Cluster(c) => Some(c),
            Label::Undefined | Label::Noise => None,
        })
        .collect();
    (labels, clusters)
}

/// [`try_dbscan_distinct`] and [`try_dbscan_hashes`] against
/// [`textbook_dbscan`] on `hashes`, at every eps in 0..=10 and min_pts
/// in 1..=8.
fn assert_distinct_equals_textbook(hashes: &[PHash]) {
    let groups = HashGroups::new(hashes);
    let index = BruteForceIndex::new(groups.unique().to_vec());
    for eps in 0..=10u32 {
        let (distinct, _) = distinct_neighbors(&index, &groups, eps, 2);
        for min_pts in 1..=8usize {
            let (labels, clusters) = textbook_dbscan(hashes, eps, min_pts);
            let collapsed = try_dbscan_distinct(&groups, &distinct, min_pts).unwrap();
            assert_eq!(
                collapsed.labels(),
                &labels[..],
                "eps {eps} min_pts {min_pts}"
            );
            assert_eq!(collapsed.n_clusters(), clusters);
            let product = try_dbscan_hashes(hashes, DbscanParams { eps, min_pts }, 2).unwrap();
            assert_eq!(product, collapsed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn distinct_dbscan_equals_textbook_dbscan(
        runs in planted_runs_strategy(),
        line in planted_line_strategy(),
    ) {
        assert_distinct_equals_textbook(&runs);
        assert_distinct_equals_textbook(&line);
    }

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
