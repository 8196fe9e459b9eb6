//! Linear-scan index: the correctness oracle and the small-`n` winner.

use crate::{HammingIndex, QueryScratch};
use meme_phash::{swar_distance, PHash};

/// Brute-force radius queries: one XOR + popcount per indexed hash and
/// no per-query setup, so it beats MIH below a few hundred items
/// ([`crate::MIH_MIN_LEN`]) and is the ground truth the other engines
/// are tested against.
#[derive(Debug, Clone)]
pub struct BruteForceIndex {
    hashes: Vec<PHash>,
}

impl BruteForceIndex {
    /// Build from a hash list (no preprocessing).
    pub fn new(hashes: Vec<PHash>) -> Self {
        Self { hashes }
    }

    /// The indexed hashes.
    pub fn hashes(&self) -> &[PHash] {
        &self.hashes
    }
}

impl HammingIndex for BruteForceIndex {
    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn hash_at(&self, i: usize) -> PHash {
        self.hashes[i]
    }

    // lint:hotpath(per-query linear scan; must not allocate per call)
    fn radius_query_from(
        &self,
        query: PHash,
        radius: u32,
        start: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<usize>,
    ) {
        // A linear scan visits each id exactly once, so the visited
        // stamps are unnecessary; results are ascending by construction.
        out.clear();
        let start = start.min(self.hashes.len());
        let tail = &self.hashes[start..];
        out.extend(
            tail.iter()
                .enumerate()
                .filter(|(_, &h)| swar_distance(query, h) <= radius)
                .map(|(k, _)| start + k),
        );
        scratch.stats.candidates += tail.len() as u64;
        scratch.stats.verified += tail.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_exact_and_near_matches() {
        let base = PHash(0xDEAD_BEEF_0000_0000);
        let hashes = vec![
            base,
            base.with_flipped_bits(&[0]),
            base.with_flipped_bits(&[0, 1, 2, 3, 4, 5, 6, 7, 8]),
            PHash(!base.bits()),
        ];
        let idx = BruteForceIndex::new(hashes);
        assert_eq!(idx.radius_query(base, 0), vec![0]);
        assert_eq!(idx.radius_query(base, 1), vec![0, 1]);
        assert_eq!(idx.radius_query(base, 9), vec![0, 1, 2]);
        assert_eq!(idx.radius_query(base, 64), vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_index() {
        let idx = BruteForceIndex::new(Vec::new());
        assert!(idx.is_empty());
        assert!(idx.radius_query(PHash(0), 64).is_empty());
    }

    #[test]
    fn duplicate_hashes_all_returned() {
        let h = PHash(42);
        let idx = BruteForceIndex::new(vec![h, h, h]);
        assert_eq!(idx.radius_query(h, 0), vec![0, 1, 2]);
    }
}
