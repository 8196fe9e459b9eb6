//! Cross-backend equivalence: MIH and brute force must return
//! *identical* neighbor sets — especially at the `eps`/`theta` decision
//! boundary (the paper's eps = θ = 8), and including the self-match —
//! so DBSCAN's core test (`nb.len() + 1 >= min_pts`) means exactly the
//! same thing no matter which engine a [`FallbackIndex`] picked.

mod oracle;

use meme_index::{
    BruteForceIndex, FallbackIndex, HammingIndex, MihIndex, QueryScratch, MIH_MIN_LEN,
};
use meme_phash::PHash;
use meme_stats::seeded_rng;
use oracle::all_neighbors;
use proptest::prelude::*;
use rand::RngExt;

/// The paper's clustering radius (eps) and annotation threshold (θ).
const BOUNDARY: u32 = 8;

/// A corpus engineered around the radius boundary: for each of several
/// centers, satellites at exact Hamming distances 6..=10 — so every
/// query has neighbors just inside, exactly on, and just outside the
/// radius — plus uniform background noise.
fn boundary_corpus(seed: u64) -> Vec<PHash> {
    let mut rng = seeded_rng(seed);
    let mut hashes = Vec::new();
    for _ in 0..12 {
        let center = PHash(rng.random());
        hashes.push(center);
        for d in 6u8..=10 {
            // Flip exactly `d` distinct bit positions.
            let mut positions: Vec<u8> = (0..64).collect();
            for i in 0..d as usize {
                let j = rng.random_range(i..64usize);
                positions.swap(i, j);
            }
            hashes.push(center.with_flipped_bits(&positions[..d as usize]));
        }
    }
    for _ in 0..80 {
        hashes.push(PHash(rng.random()));
    }
    hashes
}

fn engines(hashes: &[PHash]) -> Vec<(&'static str, Box<dyn HammingIndex>)> {
    vec![
        ("brute", Box::new(BruteForceIndex::new(hashes.to_vec()))),
        ("mih", Box::new(MihIndex::new(hashes.to_vec(), BOUNDARY))),
    ]
}

#[test]
fn identical_neighbor_sets_at_the_radius_boundary() {
    let hashes = boundary_corpus(101);
    let engines = engines(&hashes);
    // Every indexed hash as query; the boundary radius and its
    // neighbors (r-1 excludes the exact-distance satellites, r+1
    // includes the just-outside ones).
    for r in [BOUNDARY - 1, BOUNDARY, BOUNDARY + 1] {
        // MIH is built for BOUNDARY; querying beyond the built radius
        // is out of contract, so skip it there.
        for &q in &hashes {
            let expected = engines[0].1.radius_query(q, r);
            for (name, engine) in &engines[1..] {
                if *name == "mih" && r > BOUNDARY {
                    continue;
                }
                assert_eq!(
                    engine.radius_query(q, r),
                    expected,
                    "{name} disagrees with brute force at radius {r}"
                );
            }
        }
    }
}

#[test]
fn engines_agree_on_self_inclusion() {
    // The HammingIndex contract: a query that is itself indexed comes
    // back (distance 0). Every engine must honour it, or DBSCAN's
    // `nb.len() + 1` off-by-one correction would double-count on some
    // backends and not others.
    let hashes = boundary_corpus(102);
    for (name, engine) in engines(&hashes) {
        for (i, &h) in hashes.iter().enumerate() {
            assert!(
                engine.radius_query(h, 0).contains(&i),
                "{name} dropped the self-match for item {i}"
            );
        }
    }
}

#[test]
fn all_neighbors_identical_across_engines_and_self_excluded() {
    let hashes = boundary_corpus(103);
    let brute = BruteForceIndex::new(hashes.clone());
    let mih = MihIndex::new(hashes.clone(), BOUNDARY);
    let expected = all_neighbors(&brute, BOUNDARY);
    assert_eq!(all_neighbors(&mih, BOUNDARY), expected, "mih");
    for (i, list) in expected.iter().enumerate() {
        assert!(!list.contains(&i), "self not excluded for {i}");
    }
}

#[test]
fn dbscan_core_test_is_backend_invariant() {
    // The quantity DBSCAN actually consumes: |N(p)| + 1 >= min_pts.
    // Check the *core/non-core verdict* matches across engines for a
    // min_pts right at the satellite-family size, where one missing
    // boundary neighbor would flip the verdict.
    let hashes = boundary_corpus(104);
    let brute = BruteForceIndex::new(hashes.clone());
    let mih = MihIndex::new(hashes.clone(), BOUNDARY);
    let nb = all_neighbors(&brute, BOUNDARY);
    let nmih = all_neighbors(&mih, BOUNDARY);
    for min_pts in [2usize, 3, 4, 5] {
        for i in 0..hashes.len() {
            let core = nb[i].len() + 1 >= min_pts;
            assert_eq!(nmih[i].len() + 1 >= min_pts, core, "mih, min_pts {min_pts}");
        }
    }
}

/// Index sizes on both sides of the crossover (and the empty index).
const SIZES: [usize; 5] = [0, 1, MIH_MIN_LEN - 1, MIH_MIN_LEN, MIH_MIN_LEN + 40];

/// A corpus of `SIZES[size]` hashes: families of near-duplicates around
/// a few centers (flips of up to 12 bits, so hits straddle every radius
/// drawn below), with every fifth hash an exact copy of its center.
fn family_corpus(size: usize, centers: &[u64], seed: u64) -> Vec<PHash> {
    let mut rng = seeded_rng(seed);
    (0..SIZES[size])
        .map(|i| {
            let center = PHash(centers[i % centers.len()]);
            if i % 5 == 0 {
                return center;
            }
            let flips: Vec<u8> = (0..rng.random_range(0..=12usize))
                .map(|_| rng.random_range(0..64u8))
                .collect();
            center.with_flipped_bits(&flips)
        })
        .collect()
}

proptest! {
    #[test]
    fn fallback_index_answers_as_brute_force_on_both_sides_of_the_crossover(
        (size, radius, seed) in (0usize..SIZES.len(), 0u32..=20, any::<u64>()),
        centers in prop::collection::vec(any::<u64>(), 1..6),
        probes in prop::collection::vec((any::<u64>(), 0u8..64), 8),
    ) {
        let hashes = family_corpus(size, &centers, seed);
        let index = FallbackIndex::build(hashes.clone(), radius);
        let brute = BruteForceIndex::new(hashes.clone());
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        // Random probes, a bit away from the centers, and indexed hashes.
        let queries = probes.iter().flat_map(|&(bits, flip)| {
            let near = PHash(centers[bits as usize % centers.len()]).with_flipped_bits(&[flip]);
            let indexed = hashes.get(bits as usize % hashes.len().max(1)).copied();
            [PHash(bits), near].into_iter().chain(indexed)
        });
        for q in queries {
            let ctx = format!("engine {:?} n {} r {radius} q {q}", index.engine(), hashes.len());
            let expected = brute.radius_query(q, radius);
            prop_assert_eq!(index.radius_query(q, radius), expected.clone(), "{}", ctx);
            index.radius_query_into(q, radius, &mut scratch, &mut out);
            prop_assert_eq!(&out, &expected, "into {}", ctx);
            let naive = (0..hashes.len())
                .map(|i| (q.distance(hashes[i]), i))
                .filter(|&(d, _)| d <= radius)
                .min()
                .map(|(d, i)| (i, d));
            prop_assert_eq!(
                index.nearest_into(q, radius, &mut scratch, &mut out),
                naive,
                "nearest {}",
                ctx
            );
        }
    }
}
