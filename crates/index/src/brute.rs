//! Linear-scan index: the correctness oracle and the small-`n` winner.

use crate::{HammingIndex, JoinBlock, QueryScratch, QueryStats, JOIN_BLOCKS};
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
    fn radius_query_into(
        &self,
        query: PHash,
        radius: u32,
        scratch: &mut QueryScratch,
        out: &mut Vec<usize>,
    ) {
        // A linear scan visits each id exactly once, in ascending order.
        out.clear();
        out.extend(
            self.hashes
                .iter()
                .enumerate()
                .filter(|(_, &h)| swar_distance(query, h) <= radius)
                .map(|(i, _)| i),
        );
        scratch.stats.candidates += self.hashes.len() as u64;
        scratch.stats.verified += out.len() as u64;
    }

    /// Row ranges of the upper triangle, cut where the running pair
    /// count passes `1/JOIN_BLOCKS` of the total.
    fn join_blocks(&self, _radius: u32) -> Vec<JoinBlock> {
        let n = self.hashes.len();
        let target = (n * n.saturating_sub(1) / 2).div_ceil(JOIN_BLOCKS).max(1);
        let mut blocks = Vec::new();
        let (mut lo, mut acc) = (0, 0);
        for row in 0..n {
            acc += n - 1 - row;
            if acc >= target || row + 1 == n {
                blocks.push(JoinBlock {
                    band: 0,
                    lo,
                    hi: row + 1,
                });
                (lo, acc) = (row + 1, 0);
            }
        }
        blocks
    }

    fn join_pairs(
        &self,
        block: JoinBlock,
        radius: u32,
        pairs: &mut Vec<(u32, u32)>,
        stats: &mut QueryStats,
    ) {
        let before = pairs.len();
        for i in block.lo..block.hi {
            let hi = self.hashes[i];
            let tail = &self.hashes[i + 1..];
            pairs.extend(
                tail.iter()
                    .enumerate()
                    .filter(|(_, &h)| swar_distance(hi, h) <= radius)
                    .map(|(k, _)| (i as u32, (i + 1 + k) as u32)),
            );
            stats.candidates += tail.len() as u64;
        }
        stats.verified += (pairs.len() - before) as u64;
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
