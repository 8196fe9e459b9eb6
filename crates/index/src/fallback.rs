//! Engine choice: brute force for small indexes and wide radii, MIH
//! otherwise.
//!
//! Both engines answer every query exactly and identically (ascending
//! positions), so the choice changes speed only, and two properties of
//! the input decide the speed:
//!
//! * **Size.** Brute force pays one XOR + popcount per indexed hash and
//!   nothing else; MIH pays a few bucket probes per band and a sort
//!   before it saves any scan. Below [`MIH_MIN_LEN`] hashes the scan is
//!   cheaper. The Step-6 and `memes serve` medoid indexes (20–104
//!   annotated medoids) sit below it; Step 5's KYM gallery (556–1 876
//!   hashes at small scale) sits above it.
//! * **Radius.** MIH needs at least `⌊radius/2⌋ + 1` bands
//!   ([`crate::mih::band_count`]); past radius 15 that is over 8 bands
//!   of under 8 bits, every bucket holds a large share of the corpus
//!   and the probes stop pruning.
//!
//! Step 2 does not query at all: its ε-graph over the distinct fringe
//! hashes (7k–29k) is one self-join of the same engine's tables
//! ([`crate::distinct_neighbors`]), so the same two rules pick the
//! engine it joins on.
//!
//! Duplicates need no rule of their own. A query keeps each hit in the
//! first band where it lies within the sub-radius, so even when one
//! hash dominates the corpus a query costs at most about `bands × n`
//! XORs — the brute-force bound times the band count, not a quadratic
//! stall. Steps 2 and 6 and the serve snapshot hold at most a few
//! copies of a hash anyway; only Step 5's gallery is not deduplicated.

use crate::{BruteForceIndex, HammingIndex, JoinBlock, MihIndex, QueryScratch, QueryStats};
use meme_phash::PHash;

/// Index size from which MIH answers faster than brute force.
///
/// Measured with `radius_query_into` at radius 8 on a release build (2
/// vCPU, best of 7): the 90k distinct post hashes of `--scale small
/// --seed 1` queried against the first `n` cluster medoids and against
/// `n` gallery hashes taken at a stride. Brute force was faster at every
/// `n <= 256` in both families (e.g. 392 vs 411 ns at 256), the two were
/// within noise at 320 (419–466 vs 421–459 ns), and MIH was faster from
/// 384 on (470–517 vs 529–570 ns).
pub const MIH_MIN_LEN: usize = 320;

/// Largest radius MIH takes: beyond it, the at least `⌊radius/2⌋ + 1`
/// bands ([`crate::mih::band_count`]) shrink under 8 bits and bucket
/// selectivity vanishes.
const MIH_MAX_RADIUS: u32 = 15;

/// The engine a [`FallbackIndex`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexEngine {
    /// Multi-index hashing.
    Mih,
    /// Linear scan.
    BruteForce,
}

impl IndexEngine {
    /// Stable machine-readable identifier (metric names, JSON keys).
    pub fn slug(self) -> &'static str {
        match self {
            Self::Mih => "mih",
            Self::BruteForce => "brute_force",
        }
    }
}

/// A radius-query index on the engine [`FallbackIndex::engine_for`]
/// picks for its size and radius.
#[derive(Debug, Clone)]
pub struct FallbackIndex {
    backend: Backend,
}

#[derive(Debug, Clone)]
enum Backend {
    Mih(MihIndex),
    Brute(BruteForceIndex),
}

impl FallbackIndex {
    /// The engine for `len` hashes queried at `radius`: brute force
    /// below [`MIH_MIN_LEN`] hashes or past radius 15, MIH otherwise.
    pub fn engine_for(len: usize, radius: u32) -> IndexEngine {
        if len < MIH_MIN_LEN || radius > MIH_MAX_RADIUS {
            IndexEngine::BruteForce
        } else {
            IndexEngine::Mih
        }
    }

    /// Build an index for radius-`radius` queries over `hashes` on
    /// [`FallbackIndex::engine_for`]'s engine.
    pub fn build(hashes: Vec<PHash>, radius: u32) -> Self {
        let backend = match Self::engine_for(hashes.len(), radius) {
            // lint:allow(panic-reachable): engine_for picks MIH only at radius <= 15 < 64; 2^32 hashes (32 GiB) is beyond any corpus here
            IndexEngine::Mih => Backend::Mih(MihIndex::new(hashes, radius)),
            IndexEngine::BruteForce => Backend::Brute(BruteForceIndex::new(hashes)),
        };
        Self { backend }
    }

    /// The engine this index runs on.
    pub fn engine(&self) -> IndexEngine {
        match self.backend {
            Backend::Mih(_) => IndexEngine::Mih,
            Backend::Brute(_) => IndexEngine::BruteForce,
        }
    }
}

impl HammingIndex for FallbackIndex {
    fn len(&self) -> usize {
        match &self.backend {
            Backend::Mih(i) => i.len(),
            Backend::Brute(i) => i.len(),
        }
    }

    fn hash_at(&self, i: usize) -> PHash {
        match &self.backend {
            Backend::Mih(x) => x.hash_at(i),
            Backend::Brute(x) => x.hash_at(i),
        }
    }

    // lint:hotpath(per-query radius lookup; dispatch must stay allocation-free)
    fn radius_query_into(
        &self,
        query: PHash,
        radius: u32,
        scratch: &mut QueryScratch,
        out: &mut Vec<usize>,
    ) {
        match &self.backend {
            Backend::Mih(x) => x.radius_query_into(query, radius, scratch, out),
            Backend::Brute(x) => x.radius_query_into(query, radius, scratch, out),
        }
    }

    fn join_blocks(&self, radius: u32) -> Vec<JoinBlock> {
        match &self.backend {
            Backend::Mih(x) => x.join_blocks(radius),
            Backend::Brute(x) => x.join_blocks(radius),
        }
    }

    fn join_pairs(
        &self,
        block: JoinBlock,
        radius: u32,
        pairs: &mut Vec<(u32, u32)>,
        stats: &mut QueryStats,
    ) {
        match &self.backend {
            Backend::Mih(x) => x.join_pairs(block, radius, pairs, stats),
            Backend::Brute(x) => x.join_pairs(block, radius, pairs, stats),
        }
    }

    fn memory_bytes(&self) -> usize {
        match &self.backend {
            Backend::Mih(x) => x.memory_bytes(),
            Backend::Brute(x) => x.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distinct_hashes(n: usize) -> Vec<PHash> {
        // Spread bits so pairwise distances are non-trivial.
        (0..n)
            .map(|i| PHash((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    #[test]
    fn engine_for_empty_input_is_brute_force() {
        assert_eq!(FallbackIndex::engine_for(0, 8), IndexEngine::BruteForce);
    }

    #[test]
    fn engine_for_switches_to_mih_exactly_at_the_crossover() {
        assert_eq!(
            FallbackIndex::engine_for(MIH_MIN_LEN - 1, 8),
            IndexEngine::BruteForce
        );
        assert_eq!(FallbackIndex::engine_for(MIH_MIN_LEN, 8), IndexEngine::Mih);
    }

    #[test]
    fn engine_for_sends_radius_past_15_to_brute_force() {
        assert_eq!(FallbackIndex::engine_for(MIH_MIN_LEN, 15), IndexEngine::Mih);
        assert_eq!(
            FallbackIndex::engine_for(MIH_MIN_LEN, 16),
            IndexEngine::BruteForce
        );
    }

    #[test]
    fn build_runs_on_the_engine_engine_for_picks() {
        for (n, radius) in [(0, 8), (100, 8), (MIH_MIN_LEN, 8), (MIH_MIN_LEN, 20)] {
            let idx = FallbackIndex::build(distinct_hashes(n), radius);
            assert_eq!(idx.engine(), FallbackIndex::engine_for(n, radius));
            assert_eq!(idx.len(), n);
        }
    }

    #[test]
    fn answers_match_brute_force_on_both_engines() {
        let mut hashes = distinct_hashes(2 * MIH_MIN_LEN);
        hashes.extend(std::iter::repeat_n(PHash(42), 150));
        for n in [50, hashes.len()] {
            let brute = BruteForceIndex::new(hashes[..n].to_vec());
            for radius in [0u32, 8, 20, 40] {
                let idx = FallbackIndex::build(hashes[..n].to_vec(), radius);
                for &q in hashes.iter().take(20) {
                    assert_eq!(
                        idx.radius_query(q, radius),
                        brute.radius_query(q, radius),
                        "engine {:?} radius {radius}",
                        idx.engine()
                    );
                }
            }
        }
    }
}
