//! Medoid selection.
//!
//! "Clustering annotation uses the medoid of each cluster, i.e., the
//! element with the minimum square average distance from all images in
//! the cluster. In other words, the medoid is the image that best
//! represents the cluster." (§2.2, Step 5)

use meme_phash::PHash;

/// Index (into `members`' referenced universe) of the medoid of
/// `members` under an arbitrary distance function: the member minimizing
/// the sum of squared distances to all other members. Ties break toward
/// the lower item index, making the choice deterministic.
///
/// Returns `None` when `members` is empty.
pub fn medoid_of<F: Fn(usize, usize) -> f64>(members: &[usize], distance: F) -> Option<usize> {
    if members.is_empty() {
        return None;
    }
    let mut best: Option<(usize, f64)> = None;
    for &i in members {
        let cost: f64 = members
            .iter()
            .map(|&j| {
                let d = distance(i, j);
                d * d
            })
            .sum();
        let better = match best {
            None => true,
            Some((bi, bc)) => cost < bc || (cost == bc && i < bi),
        };
        if better {
            best = Some((i, cost));
        }
    }
    best.map(|(i, _)| i)
}

/// Medoid of a cluster of perceptual hashes: `members` are indices into
/// `hashes`. The same member [`medoid_of`] picks under Hamming
/// distance, computed over the cluster's *distinct* hashes: members are
/// sorted by `(hash, item)`, and each distinct hash `h` — which all its
/// copies share, cost included — scores `Σ count(h') · d(h, h')²` in
/// integer arithmetic (exact, as `medoid_of`'s float sums of integer
/// squares are). Ties break toward the lower item index, and each run's
/// first item is its lowest. Re-post-heavy clusters cost
/// O(distinct²) distances instead of O(members²).
pub fn medoid_of_hashes(hashes: &[PHash], members: &[usize]) -> Option<usize> {
    let mut sorted: Vec<(PHash, usize)> = members.iter().map(|&i| (hashes[i], i)).collect();
    sorted.sort_unstable();
    // (hash, copies, lowest item) per distinct hash.
    let mut distinct: Vec<(PHash, u64, usize)> = Vec::new();
    for &(h, i) in &sorted {
        match distinct.last_mut() {
            Some((last, copies, _)) if *last == h => *copies += 1,
            _ => distinct.push((h, 1, i)),
        }
    }
    let mut best: Option<(usize, u64)> = None;
    for &(h, _, item) in &distinct {
        let cost: u64 = distinct
            .iter()
            .map(|&(other, copies, _)| {
                let d = u64::from(h.distance(other));
                copies * d * d
            })
            .sum();
        let better = match best {
            None => true,
            Some((bi, bc)) => cost < bc || (cost == bc && item < bi),
        };
        if better {
            best = Some((item, cost));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cluster_has_no_medoid() {
        assert_eq!(medoid_of_hashes(&[], &[]), None);
    }

    #[test]
    fn singleton_is_its_own_medoid() {
        let hashes = vec![PHash(7)];
        assert_eq!(medoid_of_hashes(&hashes, &[0]), Some(0));
    }

    #[test]
    fn central_point_wins() {
        // 0 and 2 are far apart; 1 sits between them.
        let base = PHash(0);
        let hashes = vec![
            base,
            base.with_flipped_bits(&[0, 1, 2, 3]),
            base.with_flipped_bits(&[0, 1, 2, 3, 4, 5, 6, 7]),
        ];
        assert_eq!(medoid_of_hashes(&hashes, &[0, 1, 2]), Some(1));
    }

    #[test]
    fn tie_breaks_to_lower_index() {
        let hashes = vec![PHash(0), PHash(0)];
        assert_eq!(medoid_of_hashes(&hashes, &[0, 1]), Some(0));
        assert_eq!(medoid_of_hashes(&hashes, &[1, 0]), Some(0));
    }

    #[test]
    fn squared_distance_matters() {
        // Member A: distances {0, 3, 3} -> sum sq = 18.
        // Member B: distances {3, 0, 4} -> sum sq = 25.
        // Member C: distances {3, 4, 0} -> sum sq = 25.
        // With plain sums A (6) also wins; craft a case where they
        // disagree: A {0,1,5} sumsq 26 sum 6; B {1,0,4} sumsq 17 sum 5.
        // Use explicit distance closure for precision.
        let d = |i: usize, j: usize| -> f64 {
            let m = [[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]];
            m[i][j]
        };
        assert_eq!(medoid_of(&[0, 1, 2], d), Some(1));
    }

    #[test]
    fn medoid_is_always_a_member() {
        let hashes: Vec<PHash> = (0..10).map(|i| PHash(i * 37)).collect();
        let members = vec![2, 5, 7];
        let m = medoid_of_hashes(&hashes, &members).unwrap();
        assert!(members.contains(&m));
    }
}
