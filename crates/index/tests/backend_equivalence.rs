//! Cross-backend equivalence: MIH and brute force must return
//! *identical* neighbor sets — especially at the `eps`/`theta` decision
//! boundary (the paper's eps = θ = 8), and including the self-match —
//! so DBSCAN's core test (`nb.len() + 1 >= min_pts`) means exactly the
//! same thing no matter which engine a [`FallbackIndex`] degraded to.

mod oracle;

use meme_index::{BruteForceIndex, FallbackIndex, HammingIndex, IndexEngine, MihIndex};
use meme_phash::PHash;
use meme_stats::seeded_rng;
use oracle::all_neighbors;
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

#[test]
fn every_fallback_degradation_level_matches_brute_force() {
    let hashes = boundary_corpus(105);
    let reference = BruteForceIndex::new(hashes.clone());

    // Level 0: clean workload at the boundary radius — MIH accepts.
    let mih = FallbackIndex::build(hashes.clone(), BOUNDARY);
    assert_eq!(mih.engine(), IndexEngine::Mih);

    // Level 1: radius beyond MIH's envelope — brute force takes it.
    let wide = FallbackIndex::build(hashes.clone(), 20);
    assert_eq!(wide.engine(), IndexEngine::BruteForce);

    // Level 1 again: duplicate-dominated workload — brute force takes it.
    let mut dominated = hashes.clone();
    dominated.extend(std::iter::repeat_n(PHash(0xFEED_FACE), 2 * hashes.len()));
    let brute = FallbackIndex::build(dominated.clone(), BOUNDARY);
    assert_eq!(brute.engine(), IndexEngine::BruteForce);
    let dominated_ref = BruteForceIndex::new(dominated.clone());

    for &q in hashes.iter().take(40) {
        assert_eq!(
            mih.radius_query(q, BOUNDARY),
            reference.radius_query(q, BOUNDARY),
            "fallback level mih"
        );
        assert_eq!(
            wide.radius_query(q, BOUNDARY),
            reference.radius_query(q, BOUNDARY),
            "fallback level brute (radius)"
        );
        assert_eq!(
            brute.radius_query(q, BOUNDARY),
            dominated_ref.radius_query(q, BOUNDARY),
            "fallback level brute (duplicates)"
        );
    }
}
