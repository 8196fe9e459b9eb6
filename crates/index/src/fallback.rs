//! Engine fallback: MIH → brute force.
//!
//! The banded engine is fast *on the workloads it was designed for*.
//! Outside that envelope it silently degenerates to
//! worse-than-brute-force behaviour:
//!
//! * **MIH** needs bands of a few bits each — at radius `r` it builds
//!   `r + 1` bands over 64 bits, so large radii produce 1–2-bit bands
//!   whose buckets hold most of the corpus, and every probe rescans it.
//!   It also collapses when one identical hash dominates the corpus
//!   (e.g. a corrupted feed emitting the same image): the dominant
//!   bucket turns every query quadratic.
//! * **Brute force** is O(n) per query regardless of the data — slower
//!   on friendly workloads, but immune to hostile ones.
//!
//! [`FallbackIndex::build`] tries MIH first, records why it rejected
//! the workload, and always returns a working index — graceful
//! degradation instead of a quadratic stall or a panic. The paper fixes
//! `eps = θ = 8` and every radius in this repository is ≤ 10, so MIH's
//! envelope (radius ≤ 15) covers every caller; brute force is the one
//! fallback and the reference the tests compare against.

use crate::{BruteForceIndex, HammingIndex, MihIndex, QueryScratch};
use meme_phash::PHash;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// The engine a [`FallbackIndex`] settled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IndexEngine {
    /// Multi-index hashing (the preferred engine).
    Mih,
    /// Parallel linear scan (the last resort; never rejects).
    BruteForce,
}

impl IndexEngine {
    /// Human-readable engine name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Mih => "multi-index hashing",
            Self::BruteForce => "brute force",
        }
    }

    /// Stable machine-readable identifier (metric names, JSON keys).
    pub fn slug(self) -> &'static str {
        match self {
            Self::Mih => "mih",
            Self::BruteForce => "brute_force",
        }
    }
}

impl fmt::Display for IndexEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an engine declined a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexError {
    /// The query radius exceeds what the engine can prune effectively.
    RadiusTooLarge {
        /// The engine that declined.
        engine: IndexEngine,
        /// Requested radius.
        radius: u32,
        /// Largest radius the engine accepts.
        limit: u32,
    },
    /// A single hash value dominates the corpus, degenerating the
    /// engine's data structure.
    DegenerateWorkload {
        /// The engine that declined.
        engine: IndexEngine,
        /// Fraction of the corpus held by the most common hash.
        dominant_fraction: f64,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RadiusTooLarge {
                engine,
                radius,
                limit,
            } => write!(
                f,
                "{engine} rejects radius {radius} (accepts up to {limit})"
            ),
            Self::DegenerateWorkload {
                engine,
                dominant_fraction,
            } => write!(
                f,
                "{engine} rejects duplicate-dominated workload \
                 ({:.0}% of hashes identical)",
                100.0 * dominant_fraction
            ),
        }
    }
}

impl std::error::Error for IndexError {}

/// Largest radius MIH accepts: beyond it, bands shrink under 4 bits
/// (`64 / (radius + 1) < 4`) and bucket selectivity vanishes.
const MIH_MAX_RADIUS: u32 = 15;

/// Minimum corpus size before duplicate domination matters; tiny
/// workloads are cheap under any engine.
const DUP_CHECK_MIN: usize = 16;

/// A radius-query index that always builds: MIH when the workload fits
/// its envelope, else brute force.
#[derive(Debug, Clone)]
pub struct FallbackIndex {
    backend: Backend,
    rejections: Vec<IndexError>,
}

#[derive(Debug, Clone)]
enum Backend {
    Mih(MihIndex),
    Brute(BruteForceIndex),
}

impl FallbackIndex {
    /// Decide which engine would take `hashes` at `radius` — without
    /// building anything. Cheap (one duplicate count), so callers that
    /// want to time or label the build (e.g. a metrics span named after
    /// the engine) can plan first, then call [`FallbackIndex::build`].
    pub fn plan(hashes: &[PHash], radius: u32) -> (IndexEngine, Vec<IndexError>) {
        let dominant = dominant_fraction(hashes);
        let rejection = if radius > MIH_MAX_RADIUS {
            IndexError::RadiusTooLarge {
                engine: IndexEngine::Mih,
                radius,
                limit: MIH_MAX_RADIUS,
            }
        } else if hashes.len() >= DUP_CHECK_MIN && dominant > 0.5 {
            IndexError::DegenerateWorkload {
                engine: IndexEngine::Mih,
                dominant_fraction: dominant,
            }
        } else {
            return (IndexEngine::Mih, Vec::new());
        };
        (IndexEngine::BruteForce, vec![rejection])
    }

    /// Build an index for radius-`radius` queries over `hashes`,
    /// falling back to brute force when MIH declines.
    pub fn build(hashes: Vec<PHash>, radius: u32) -> Self {
        let (engine, rejections) = Self::plan(&hashes, radius);
        let backend = match engine {
            // lint:allow(panic-reachable): plan() selects MIH only for radius < 64 and in-u32 gallery sizes, so new()'s contract holds
            IndexEngine::Mih => Backend::Mih(MihIndex::new(hashes, radius)),
            IndexEngine::BruteForce => Backend::Brute(BruteForceIndex::new(hashes)),
        };
        Self {
            backend,
            rejections,
        }
    }

    /// The engine that accepted the workload.
    pub fn engine(&self) -> IndexEngine {
        match self.backend {
            Backend::Mih(_) => IndexEngine::Mih,
            Backend::Brute(_) => IndexEngine::BruteForce,
        }
    }

    /// Why MIH declined (empty when it took the workload).
    pub fn rejections(&self) -> &[IndexError] {
        &self.rejections
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

    fn radius_query(&self, query: PHash, radius: u32) -> Vec<usize> {
        match &self.backend {
            Backend::Mih(x) => x.radius_query(query, radius),
            Backend::Brute(x) => x.radius_query(query, radius),
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

    fn radius_query_from(
        &self,
        query: PHash,
        radius: u32,
        start: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<usize>,
    ) {
        match &self.backend {
            Backend::Mih(x) => x.radius_query_from(query, radius, start, scratch, out),
            Backend::Brute(x) => x.radius_query_from(query, radius, start, scratch, out),
        }
    }

    fn memory_bytes(&self) -> usize {
        match &self.backend {
            Backend::Mih(x) => x.memory_bytes(),
            Backend::Brute(x) => x.memory_bytes(),
        }
    }
}

/// Share of the corpus held by the most common hash value (0 for an
/// empty corpus).
fn dominant_fraction(hashes: &[PHash]) -> f64 {
    if hashes.is_empty() {
        return 0.0;
    }
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for h in hashes {
        *counts.entry(h.0).or_insert(0) += 1;
    }
    let max = counts.values().copied().max().unwrap_or(0);
    max as f64 / hashes.len() as f64
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
    fn clean_small_radius_uses_mih() {
        let idx = FallbackIndex::build(distinct_hashes(100), 8);
        assert_eq!(idx.engine(), IndexEngine::Mih);
        assert!(idx.rejections().is_empty());
    }

    #[test]
    fn large_radius_falls_to_brute() {
        for radius in [20, 40] {
            let idx = FallbackIndex::build(distinct_hashes(100), radius);
            assert_eq!(idx.engine(), IndexEngine::BruteForce);
            assert_eq!(idx.rejections().len(), 1);
        }
    }

    #[test]
    fn duplicate_dominated_workload_falls_to_brute() {
        let mut hashes = distinct_hashes(30);
        hashes.extend(std::iter::repeat_n(PHash(0xDEAD_BEEF), 70));
        let idx = FallbackIndex::build(hashes, 8);
        assert_eq!(idx.engine(), IndexEngine::BruteForce);
        assert_eq!(idx.rejections().len(), 1);
        assert!(matches!(
            idx.rejections()[0],
            IndexError::DegenerateWorkload { .. }
        ));
    }

    #[test]
    fn tiny_duplicate_workloads_stay_on_mih() {
        let hashes = vec![PHash(7); DUP_CHECK_MIN - 1];
        let idx = FallbackIndex::build(hashes, 8);
        assert_eq!(idx.engine(), IndexEngine::Mih);
    }

    #[test]
    fn fallback_answers_match_brute_force() {
        let mut hashes = distinct_hashes(50);
        hashes.extend(std::iter::repeat_n(PHash(42), 150));
        let brute = BruteForceIndex::new(hashes.clone());
        for radius in [0u32, 8, 20, 40] {
            let idx = FallbackIndex::build(hashes.clone(), radius);
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

    #[test]
    fn empty_corpus_builds() {
        let idx = FallbackIndex::build(Vec::new(), 8);
        assert_eq!(idx.engine(), IndexEngine::Mih);
        assert!(idx.is_empty());
        assert!(idx.radius_query(PHash(1), 8).is_empty());
    }
}
