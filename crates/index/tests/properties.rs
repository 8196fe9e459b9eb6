//! Property-based tests: all engines agree with brute force on
//! arbitrary workloads, across radii and duplicate patterns, and the
//! ε-graph self-join equals a brute-force all-pairs graph.

#![allow(clippy::needless_range_loop)]

mod oracle;

use meme_index::mih::band_count;
use meme_index::{
    distinct_neighbors, symmetric_neighbors, BruteForceIndex, FallbackIndex, HammingIndex,
    HashGroups, MihIndex, QueryScratch,
};
use meme_phash::PHash;
use meme_stats::seeded_rng;
use oracle::{all_neighbors, all_pairs_graph};
use proptest::prelude::*;
use rand::RngExt;

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

// ---------------------------------------------------------------------
// The ε-graph oracle: `distinct_neighbors` against all pairs.

/// `n` distinct-ish hashes of one corpus family, drawn from `seed`:
/// 0 clustered (centres plus up to 6 flips), 1 duplicate-heavy (a few
/// values, most of them repeated, some one flip from another), 2
/// adversarial (random background plus pairs built against the band
/// layout [`band_count`] gives `n` hashes at `radius`).
fn oracle_corpus(kind: u8, n: usize, radius: u32, seed: u64) -> Vec<PHash> {
    let mut rng = seeded_rng(seed);
    let mut out: Vec<PHash> = Vec::with_capacity(n);
    match kind {
        0 => {
            while out.len() < n {
                let center = PHash(rng.random());
                for _ in 0..rng.random_range(1..12usize) {
                    let flips: Vec<u8> = (0..rng.random_range(0..=6usize))
                        .map(|_| rng.random_range(0..64u8))
                        .collect();
                    out.push(center.with_flipped_bits(&flips));
                }
            }
        }
        1 => {
            while out.len() < n {
                let h = match out.last() {
                    Some(&prev) if rng.random_bool(0.3) => {
                        prev.with_flipped_bits(&[rng.random_range(0..64u8)])
                    }
                    _ => PHash(rng.random()),
                };
                let copies = rng.random_range(1..6usize);
                out.extend(std::iter::repeat_n(h, copies));
            }
        }
        _ => {
            let m = band_count(n, radius);
            // MihIndex's layout: the first 64 % m bands get an extra bit.
            let (base, extra) = (64 / m, 64 % m);
            let bands: Vec<(u32, u32)> = (0..m)
                .scan(0u32, |shift, i| {
                    let width = base + u32::from(i < extra);
                    *shift += width;
                    Some((*shift - width, width))
                })
                .collect();
            let sub = radius / m;
            while out.len() < n {
                let h = PHash(rng.random());
                out.push(h);
                // Flips in one band only: at the radius and just past it.
                let (shift, width) = bands[rng.random_range(0..bands.len())];
                for d in [radius, radius + 1] {
                    let flips: Vec<u8> = (shift..shift + d.min(width)).map(|b| b as u8).collect();
                    out.push(h.with_flipped_bits(&flips));
                }
                // First within the sub-radius in the last band: `sub + 1`
                // flips in every earlier band while the budget lasts, then
                // at most `sub` in the last, at the radius and just past.
                for budget in [radius, radius + 1] {
                    let mut flips = Vec::new();
                    let mut left = budget;
                    for (b, &(shift, width)) in bands.iter().enumerate() {
                        let want = if b + 1 == bands.len() {
                            left
                        } else {
                            (sub + 1).min(left)
                        };
                        let take = want.min(width);
                        let start = rng.random_range(0..=width - take);
                        flips.extend((shift + start..shift + start + take).map(|bit| bit as u8));
                        left -= take;
                    }
                    out.push(h.with_flipped_bits(&flips));
                }
            }
        }
    }
    out.truncate(n);
    out
}

proptest! {
    #[test]
    fn distinct_neighbors_equal_the_all_pairs_graph(
        kind in 0u8..3,
        large in any::<bool>(),
        radius in 0u32..=12,
        seed in any::<u64>(),
    ) {
        // Small corpora keep r + 1 bands; large ones (≥ 256 distinct
        // hashes) get fewer, so the join runs at sub-radius 1.
        let n = if large { 320 + (seed % 400) as usize } else { 8 + (seed % 120) as usize };
        let hashes = oracle_corpus(kind, n, radius, seed);
        let groups = HashGroups::new(&hashes);
        let expected = all_pairs_graph(groups.unique(), radius);
        let pairs = expected.iter().map(Vec::len).sum::<usize>() / 2;
        let mih = MihIndex::new(groups.unique().to_vec(), radius);
        let brute = BruteForceIndex::new(groups.unique().to_vec());
        let fallback = FallbackIndex::build(groups.unique().to_vec(), radius);
        let bands = band_count(groups.len_unique(), radius);
        let ctx = format!("kind {kind} n {n} r {radius} bands {bands}");
        let mut mih_stats = Vec::new();
        for threads in [1, 2, 8] {
            let (via_mih, stats) = distinct_neighbors(&mih, &groups, radius, threads);
            prop_assert_eq!(&via_mih, &expected, "mih {} threads {}", ctx, threads);
            prop_assert_eq!(stats.unique_pairs as usize, pairs, "{}", ctx);
            prop_assert!(stats.unique_pairs <= stats.verified && stats.verified <= stats.candidates);
            mih_stats.push(stats);
            let (via_brute, stats) = distinct_neighbors(&brute, &groups, radius, threads);
            prop_assert_eq!(&via_brute, &expected, "brute {} threads {}", ctx, threads);
            prop_assert_eq!(stats.unique_pairs as usize, pairs, "{}", ctx);
            let (via_fallback, _) = distinct_neighbors(&fallback, &groups, radius, threads);
            prop_assert_eq!(&via_fallback, &expected, "fallback {} threads {}", ctx, threads);
        }
        // The work counters do not depend on the thread count either.
        prop_assert!(mih_stats.windows(2).all(|w| w[0] == w[1]), "{}", ctx);
    }
}
