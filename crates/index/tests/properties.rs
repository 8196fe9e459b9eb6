//! Property-based tests: all engines agree with brute force on
//! arbitrary workloads, across radii and duplicate patterns.

#![allow(clippy::needless_range_loop)]

mod oracle;

use meme_index::{
    symmetric_neighbors, BruteForceIndex, HammingIndex, HashGroups, MihIndex, QueryScratch,
};
use meme_phash::PHash;
use oracle::all_neighbors;
use proptest::prelude::*;

fn hashes_strategy() -> impl Strategy<Value = Vec<PHash>> {
    prop::collection::vec(any::<u64>().prop_map(PHash), 0..150)
}

/// Clustered workloads: centers plus near-duplicates (the realistic
/// regime for perceptual hashes).
fn clustered_strategy() -> impl Strategy<Value = Vec<PHash>> {
    prop::collection::vec(
        (
            any::<u64>(),
            prop::collection::vec(0u8..64, 0..6),
            1usize..5,
        ),
        1..20,
    )
    .prop_map(|families| {
        let mut out = Vec::new();
        for (center, flips, copies) in families {
            let c = PHash(center);
            for k in 0..copies {
                let mut f = flips.clone();
                f.truncate(k.min(f.len()));
                out.push(c.with_flipped_bits(&f));
            }
        }
        out
    })
}

/// Adversarial duplicate-heavy workloads: a handful of distinct values
/// (some adjacent within a few bits), each repeated many times —
/// the regime that degenerates band buckets.
fn duplicate_heavy_strategy() -> impl Strategy<Value = Vec<PHash>> {
    (
        prop::collection::vec((any::<u64>(), 1usize..40), 1..6),
        prop::collection::vec(0u8..64, 0..4),
    )
        .prop_map(|(values, flips)| {
            let mut out = Vec::new();
            for (i, (v, copies)) in values.iter().enumerate() {
                // Odd slots derive from the previous value by a few bit
                // flips, so duplicates of *nearby* hashes also occur.
                let h = if i % 2 == 1 {
                    PHash(values[i - 1].0).with_flipped_bits(&flips)
                } else {
                    PHash(*v)
                };
                out.extend(std::iter::repeat_n(h, *copies));
            }
            out
        })
}

/// Every engine's answer for `q` through the scratch-reuse API (the
/// same scratch serving all radii, as production workers do), checked
/// against `radius_query` and across engines.
fn assert_engines_agree_through_scratch(
    hashes: &[PHash],
    q: PHash,
    radii: impl Iterator<Item = u32> + Clone,
) {
    let brute = BruteForceIndex::new(hashes.to_vec());
    let mih = MihIndex::new(hashes.to_vec(), radii.clone().max().unwrap_or(0));
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    for radius in radii {
        let expected = brute.radius_query(q, radius);
        prop_assert_eq!(&mih.radius_query(q, radius), &expected, "mih r={}", radius);
        brute.radius_query_into(q, radius, &mut scratch, &mut out);
        prop_assert_eq!(&out, &expected, "brute scratch r={}", radius);
        mih.radius_query_into(q, radius, &mut scratch, &mut out);
        prop_assert_eq!(&out, &expected, "mih scratch r={}", radius);
        let start = hashes.len() / 2;
        let tail: Vec<usize> = expected.iter().copied().filter(|&i| i >= start).collect();
        mih.radius_query_from(q, radius, start, &mut scratch, &mut out);
        prop_assert_eq!(&out, &tail, "mih from r={}", radius);
        brute.radius_query_from(q, radius, start, &mut scratch, &mut out);
        prop_assert_eq!(&out, &tail, "brute from r={}", radius);
    }
}

/// `symmetric_neighbors` over collapsed groups must reproduce
/// `all_neighbors` over the full item list, engine-independently, and
/// count each in-radius unordered unique pair exactly once.
fn assert_symmetric_matches_all_neighbors(hashes: &[PHash], radius: u32, threads: usize) {
    let expected = all_neighbors(&BruteForceIndex::new(hashes.to_vec()), radius);
    let groups = HashGroups::new(hashes);
    let mih = MihIndex::new(groups.unique().to_vec(), radius);
    let (via_mih, stats) = symmetric_neighbors(&mih, &groups, radius, threads);
    prop_assert_eq!(&via_mih, &expected);
    let brute = BruteForceIndex::new(groups.unique().to_vec());
    let (via_brute, _) = symmetric_neighbors(&brute, &groups, radius, threads);
    prop_assert_eq!(&via_brute, &expected);
    let in_radius_pairs: Vec<(usize, usize)> = (0..groups.len_unique())
        .flat_map(|u| (u + 1..groups.len_unique()).map(move |v| (u, v)))
        .filter(|&(u, v)| groups.unique()[u].distance(groups.unique()[v]) <= radius)
        .collect();
    prop_assert_eq!(stats.unique_pairs as usize, in_radius_pairs.len());
    // Edge accounting: undirected item edges = same-hash pairs plus the
    // cross-group expansion of each in-radius unique pair.
    let undirected_edges: usize = expected.iter().map(|l| l.len()).sum::<usize>() / 2;
    let dup_edges: usize = (0..groups.len_unique())
        .map(|u| groups.owners(u).len() * (groups.owners(u).len() - 1) / 2)
        .sum();
    let cross_edges: usize = in_radius_pairs
        .iter()
        .map(|&(u, v)| groups.owners(u).len() * groups.owners(v).len())
        .sum();
    prop_assert_eq!(undirected_edges, dup_edges + cross_edges);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_agree_uniform(hashes in hashes_strategy(), query: u64, radius in 0u32..12) {
        let q = PHash(query);
        let brute = BruteForceIndex::new(hashes.clone());
        let mih = MihIndex::new(hashes.clone(), 12);
        let expected = brute.radius_query(q, radius);
        prop_assert_eq!(mih.radius_query(q, radius), expected);
    }

    #[test]
    fn engines_agree_clustered(hashes in clustered_strategy(), radius in 0u32..10) {
        let brute = BruteForceIndex::new(hashes.clone());
        let mih = MihIndex::new(hashes.clone(), 10);
        for &q in hashes.iter().take(20) {
            let expected = brute.radius_query(q, radius);
            prop_assert_eq!(mih.radius_query(q, radius), expected);
        }
    }

    #[test]
    fn queries_return_sorted_unique_indices(hashes in hashes_strategy(), query: u64, radius in 0u32..64) {
        let brute = BruteForceIndex::new(hashes);
        let result = brute.radius_query(PHash(query), radius);
        for w in result.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn radius_monotonicity(hashes in hashes_strategy(), query: u64, r1 in 0u32..10, extra in 0u32..10) {
        let q = PHash(query);
        let mih = MihIndex::new(hashes, 20);
        let small = mih.radius_query(q, r1);
        let big = mih.radius_query(q, r1 + extra);
        // Growing the radius never loses results.
        for i in &small {
            prop_assert!(big.contains(i));
        }
    }

    #[test]
    fn engines_agree_clustered_through_scratch(hashes in clustered_strategy(), query: u64) {
        // Radii 0..=12, indexed and foreign queries, scratch reuse.
        assert_engines_agree_through_scratch(&hashes, PHash(query), 0..=12);
        if let Some(&q) = hashes.first() {
            assert_engines_agree_through_scratch(&hashes, q, 0..=12);
        }
    }

    #[test]
    fn engines_agree_duplicate_heavy_through_scratch(hashes in duplicate_heavy_strategy(), query: u64) {
        assert_engines_agree_through_scratch(&hashes, PHash(query), 0..=12);
        if let Some(&q) = hashes.last() {
            assert_engines_agree_through_scratch(&hashes, q, 0..=12);
        }
    }

    #[test]
    fn symmetric_matches_all_neighbors_clustered(
        hashes in clustered_strategy(),
        radius in 0u32..=12,
        threads in 1usize..5,
    ) {
        assert_symmetric_matches_all_neighbors(&hashes, radius, threads);
    }

    #[test]
    fn symmetric_matches_all_neighbors_duplicate_heavy(
        hashes in duplicate_heavy_strategy(),
        radius in 0u32..=12,
        threads in 1usize..5,
    ) {
        assert_symmetric_matches_all_neighbors(&hashes, radius, threads);
    }

    #[test]
    fn all_neighbors_is_symmetric(hashes in clustered_strategy(), radius in 0u32..10) {
        let idx = BruteForceIndex::new(hashes);
        let adj = all_neighbors(&idx, radius);
        for (i, nbrs) in adj.iter().enumerate() {
            for &j in nbrs {
                prop_assert!(adj[j].contains(&i), "edge {i}->{j} not symmetric");
                prop_assert!(j != i, "self-loop at {i}");
            }
        }
    }
}
