//! Set-similarity measures.
//!
//! The custom cluster distance metric (§2.3, Eq. 1) computes Jaccard
//! indices over the KYM annotations of two cluster medoids for the
//! `meme`, `culture`, and `people` features.

use std::collections::HashSet;
use std::hash::Hash;

/// Jaccard index `|A ∩ B| / |A ∪ B|` of two sets.
///
/// The paper's convention (and ours): two empty annotation sets are
/// treated as a trivial match with similarity `1.0`, so absent metadata
/// never *increases* the distance between two unannotated clusters.
pub fn jaccard<T: Eq + Hash>(a: &HashSet<T>, b: &HashSet<T>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)`; a secondary similarity
/// used in cluster-graph diagnostics.
pub fn overlap<T: Eq + Hash>(a: &HashSet<T>, b: &HashSet<T>) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let inter = a.intersection(b).count();
    inter as f64 / a.len().min(b.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> HashSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn jaccard_basic() {
        let a = set(&["pepe", "frog", "smug"]);
        let b = set(&["pepe", "frog", "sad"]);
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_identical_and_disjoint() {
        let a = set(&["x", "y"]);
        assert_eq!(jaccard(&a, &a), 1.0);
        let b = set(&["z"]);
        assert_eq!(jaccard(&a, &b), 0.0);
    }

    #[test]
    fn jaccard_empty_conventions() {
        let e: HashSet<String> = HashSet::new();
        let a = set(&["x"]);
        assert_eq!(jaccard(&e, &e), 1.0);
        assert_eq!(jaccard(&e, &a), 0.0);
    }

    #[test]
    fn overlap_subset_is_one() {
        let a = set(&["x", "y", "z"]);
        let b = set(&["x", "y"]);
        assert_eq!(overlap(&a, &b), 1.0);
    }

    #[test]
    fn overlap_empty_conventions() {
        let e: HashSet<String> = HashSet::new();
        let a = set(&["x"]);
        assert_eq!(overlap(&e, &e), 1.0);
        assert_eq!(overlap(&e, &a), 0.0);
    }
}
