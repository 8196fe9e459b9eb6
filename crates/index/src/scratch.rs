//! Per-worker query counters.
//!
//! A query keeps no per-item state: [`crate::MihIndex`] keeps each hit
//! in its first band, and brute force visits each id once. What a
//! caller's [`QueryScratch`] still carries across queries is the work
//! they did — band probes, candidates drawn, candidates within the
//! radius — which the pipeline rolls up into the `index.*` metrics
//! family. Steady state (the output buffer grown to the largest
//! answer), a query through [`crate::HammingIndex::radius_query_into`]
//! performs **zero heap allocations**; `crates/index/tests/no_alloc.rs`
//! asserts this with a counting global allocator.

/// Cumulative work counters for queries (or self-join blocks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Bucket probes (MIH: one per bucket a query scans, or per bucket
    /// or pair of buckets a join draws pairs from).
    pub probes: u64,
    /// Candidates drawn from probed buckets, a candidate once per band
    /// it is drawn in.
    pub candidates: u64,
    /// Candidates within the radius, before the first-band rule keeps
    /// one per hit.
    pub verified: u64,
}

impl QueryStats {
    /// Component-wise sum — used to merge per-worker stats
    /// deterministically (addition is order-independent).
    pub fn merge(&mut self, other: QueryStats) {
        self.probes += other.probes;
        self.candidates += other.candidates;
        self.verified += other.verified;
    }
}

/// A query worker's running [`QueryStats`]. One per worker thread;
/// never shared.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// Cumulative work counters (see [`QueryStats`]).
    pub(crate) stats: QueryStats,
}

impl QueryScratch {
    /// A scratch with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative work counters since construction (or the last
    /// [`QueryScratch::take_stats`]).
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Return and reset the cumulative counters.
    pub fn take_stats(&mut self) -> QueryStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_and_take() {
        let mut s = QueryScratch::new();
        s.stats.probes = 3;
        s.stats.merge(QueryStats {
            probes: 1,
            candidates: 2,
            verified: 4,
        });
        assert_eq!(s.stats().probes, 4);
        assert_eq!(s.take_stats().verified, 4);
        assert_eq!(s.stats(), QueryStats::default());
    }
}
