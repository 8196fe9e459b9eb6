//! Hamming radius-query engines — Step 2 of the paper's pipeline.
//!
//! "We perform a pairwise comparison of all the pHashes using Hamming
//! distance. To support large numbers of images, we implement a highly
//! parallelizable system on top of TensorFlow, which uses multiple GPUs"
//! (§2.2). GPUs are not available here, so this crate substitutes
//! *algorithmic* speedups with the same contract — return **all** items
//! within a Hamming radius of a query, exactly:
//!
//! * [`BruteForceIndex`] — linear scan; simple, and the correctness
//!   oracle;
//! * [`MihIndex`] — multi-index hashing: split each 64-bit hash into
//!   [`mih::band_count`] bands; by pigeonhole, any hash within distance
//!   `r` lies within `⌊r/m⌋ ≤ 1` bits of the query in at least one band,
//!   so candidates come from a few direct-addressed bucket probes per
//!   band.
//!
//! Both engines implement [`HammingIndex`]'s one query,
//! [`HammingIndex::radius_query_into`], and its one self-join,
//! [`HammingIndex::join_pairs`]; [`FallbackIndex`] picks one of them
//! from the index size and radius alone. [`distinct_neighbors`] runs
//! the self-join on `std::thread::scope` workers — the "pairwise
//! comparison" — and [`symmetric_neighbors`] expands its output to one
//! list per item.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod dedup;
pub mod fallback;
pub mod mih;
pub mod scratch;

pub use brute::BruteForceIndex;
pub use dedup::HashGroups;
pub use fallback::{FallbackIndex, IndexEngine, MIH_MIN_LEN};
pub use mih::MihIndex;
pub use scratch::{QueryScratch, QueryStats};

use meme_phash::PHash;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Blocks a self-join is cut into ([`HammingIndex::join_blocks`]): a
/// fixed count, so the blocking — and with it every work counter — is
/// the same for every thread count, and fine enough that the worker
/// that draws the costliest block leaves the others little to idle
/// through.
pub const JOIN_BLOCKS: usize = 64;

/// One slice of a self-join's work, as the engine that cut it defines
/// it: keys `lo..hi` of band `band` for [`MihIndex`], rows `lo..hi` of
/// the upper triangle for [`BruteForceIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinBlock {
    /// The band the keys belong to (0 for brute force).
    pub band: usize,
    /// First key or row.
    pub lo: usize,
    /// One past the last key or row.
    pub hi: usize,
}

/// An exact radius-query index over a fixed set of 64-bit hashes.
///
/// Indices returned by queries refer to the order of the hash slice the
/// engine was built from. A query hash that is itself in the index *is*
/// returned (distance 0 ≤ r); callers that need open neighbourhoods
/// filter the self-index out.
pub trait HammingIndex {
    /// Number of indexed hashes.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hash stored at position `i`.
    fn hash_at(&self, i: usize) -> PHash;

    /// All indices `i` with `distance(query, hash_at(i)) <= radius`,
    /// ascending, written to `out` (cleared first) — the one query each
    /// engine implements. Work counters accumulate in `scratch`; a
    /// query allocates nothing once `out` has grown to its largest
    /// answer.
    fn radius_query_into(
        &self,
        query: PHash,
        radius: u32,
        scratch: &mut QueryScratch,
        out: &mut Vec<usize>,
    );

    /// All indices `i` with `distance(query, hash_at(i)) <= radius`,
    /// in ascending index order, through fresh working memory.
    fn radius_query(&self, query: PHash, radius: u32) -> Vec<usize> {
        let mut out = Vec::new();
        self.radius_query_into(query, radius, &mut QueryScratch::new(), &mut out);
        out
    }

    /// The nearest indexed hash within `radius` as `(position,
    /// distance)`: the smallest `(distance, position)`, so a tie goes to
    /// the smallest position. `hits` receives the radius matches.
    /// `None` when nothing is within `radius`.
    // lint:hotpath(per-query nearest lookup of Step 6 and `memes serve`)
    fn nearest_into(
        &self,
        query: PHash,
        radius: u32,
        scratch: &mut QueryScratch,
        hits: &mut Vec<usize>,
    ) -> Option<(usize, u32)> {
        self.radius_query_into(query, radius, scratch, hits);
        hits.iter()
            .map(|&pos| (query.distance(self.hash_at(pos)), pos))
            .min()
            .map(|(distance, pos)| (pos, distance))
    }

    /// The self-join at `radius` cut into about [`JOIN_BLOCKS`] blocks of
    /// similar estimated cost, for [`HammingIndex::join_pairs`]. The cut
    /// depends on the index and the radius only.
    fn join_blocks(&self, radius: u32) -> Vec<JoinBlock>;

    /// Append to `pairs` every unordered pair of positions `{i, j}`,
    /// `i != j`, within `radius` of each other that `block` owns — each
    /// pair of the index is owned by exactly one block of
    /// [`HammingIndex::join_blocks`] — in no particular order, counting
    /// the work into `stats`.
    fn join_pairs(
        &self,
        block: JoinBlock,
        radius: u32,
        pairs: &mut Vec<(u32, u32)>,
        stats: &mut QueryStats,
    );

    /// Approximate bytes held by the engine's data structures (hash
    /// storage plus per-engine tables) — the `index.memory_bytes`
    /// gauge. The default accounts for the hash slice only.
    fn memory_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<PHash>()
    }
}

/// Work counters of one [`distinct_neighbors`] run — the source of the
/// `index.*` metrics family. The join's blocking is fixed
/// ([`JOIN_BLOCKS`]), so every field is identical for every thread
/// count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NeighborStats {
    /// Items in the corpus (before duplicate collapsing).
    pub items: usize,
    /// Unique hashes joined.
    pub unique: usize,
    /// Buckets (MIH: a bucket, or a pair of buckets one bit apart)
    /// whose pairs the join drew; 0 for brute force.
    pub probes: u64,
    /// Candidate pairs drawn, a pair once per band it is drawn in.
    pub candidates: u64,
    /// Candidate pairs within the radius, before the first-band rule
    /// keeps one per pair.
    pub verified: u64,
    /// Unordered unique-hash pairs within the radius, each once.
    pub unique_pairs: u64,
}

/// Compute the radius neighbourhood of every **distinct hash** of
/// `groups` from an index built over exactly [`HashGroups::unique`],
/// by one self-join of the index.
///
/// `result[u]` lists all distinct-hash slots `v != u` with
/// `distance(unique[u], unique[v]) <= radius`, ascending. This is the
/// adjacency the cluster stage runs DBSCAN on
/// (`meme_cluster::try_dbscan_distinct`): every owner of `u` has the
/// same neighbours, so nothing is lost by not expanding it to items.
///
/// * exact duplicates collapse — the join runs over
///   `groups.len_unique()` hashes, not `groups.len_items()`;
/// * each unordered pair comes out of the join once: workers claim
///   [`HammingIndex::join_blocks`] from a shared counter and keep their
///   pairs;
/// * the adjacency is built on the workers too: each owns a range of
///   slots, takes both directions of every pair that lands in it, and
///   sorts its lists.
///
/// Deterministic for every `threads` value (pass 0 for available
/// parallelism).
pub fn distinct_neighbors<I: HammingIndex + Sync>(
    index: &I,
    groups: &HashGroups,
    radius: u32,
    threads: usize,
) -> (Vec<Vec<usize>>, NeighborStats) {
    let n_unique = groups.len_unique();
    debug_assert_eq!(
        index.len(),
        n_unique,
        "index not built over groups.unique()"
    );
    let mut stats = NeighborStats {
        items: groups.len_items(),
        unique: n_unique,
        ..NeighborStats::default()
    };
    if n_unique == 0 {
        return (Vec::new(), stats);
    }

    // ---- The join: blocks claimed from a counter, pairs kept per worker.
    let blocks = index.join_blocks(radius);
    let next = AtomicUsize::new(0);
    let mut workers: Vec<(Vec<(u32, u32)>, QueryStats)> = Vec::new();
    workers.resize_with(effective_threads(threads, blocks.len()), Default::default);
    std::thread::scope(|s| {
        for (pairs, worker_stats) in &mut workers {
            let (blocks, next) = (&blocks, &next);
            s.spawn(move || {
                // Relaxed: the counter only hands out block numbers.
                while let Some(&block) = blocks.get(next.fetch_add(1, Ordering::Relaxed)) {
                    index.join_pairs(block, radius, pairs, worker_stats);
                }
            });
        }
    });
    let mut work = QueryStats::default();
    let mut degree = vec![0usize; n_unique];
    for (pairs, worker_stats) in &workers {
        work.merge(*worker_stats);
        stats.unique_pairs += pairs.len() as u64;
        for &(u, v) in pairs {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
    }
    (stats.probes, stats.candidates, stats.verified) =
        (work.probes, work.candidates, work.verified);

    // ---- The adjacency: each worker owns a slot range, so which worker
    // found a pair does not matter; sorting makes each list ascending.
    let mut uadj: Vec<Vec<usize>> = degree.iter().map(|&d| Vec::with_capacity(d)).collect();
    let threads = effective_threads(threads, n_unique);
    let chunk_len = n_unique.div_ceil(threads);
    std::thread::scope(|s| {
        for (chunk_id, chunk) in uadj.chunks_mut(chunk_len).enumerate() {
            let workers = &workers;
            s.spawn(move || {
                let lo = chunk_id * chunk_len;
                let mut take = |from: u32, to: u32| {
                    if let Some(list) = (from as usize)
                        .checked_sub(lo)
                        .and_then(|k| chunk.get_mut(k))
                    {
                        list.push(to as usize);
                    }
                };
                for (pairs, _) in workers {
                    for &(u, v) in pairs {
                        take(u, v);
                        take(v, u);
                    }
                }
                for list in chunk {
                    list.sort_unstable();
                }
            });
        }
    });
    (uadj, stats)
}

/// Compute the radius neighbourhood of every *item* from an index built
/// over the corpus's **unique** hashes ([`HashGroups::unique`]):
/// [`distinct_neighbors`], expanded to items through the owner lists.
///
/// `result[i]` lists all `j != i` within `radius` of item `i` in
/// ascending order — byte-identical to one radius query per item over
/// the full item list. The item adjacency holds one entry per pair of
/// *posts* — on a duplicate-heavy corpus many times the distinct
/// adjacency (2.1M entries against 113k for 22k fringe posts carrying 7k
/// distinct hashes) — so the pipeline clusters the distinct adjacency
/// instead, and this function is the item-level reference it is tested
/// against.
///
/// `index` **must** be built over exactly `groups.unique()`.
/// Deterministic for every `threads` value (pass 0 for available
/// parallelism).
pub fn symmetric_neighbors<I: HammingIndex + Sync>(
    index: &I,
    groups: &HashGroups,
    radius: u32,
    threads: usize,
) -> (Vec<Vec<usize>>, NeighborStats) {
    let n_items = groups.len_items();
    let (uadj, stats) = distinct_neighbors(index, groups, radius, threads);
    if n_items == 0 {
        return (Vec::new(), stats);
    }

    // ---- Pass 3: expand to item-level adjacency through owner lists.
    // Item i with unique slot u neighbours every co-owner of u (distance
    // 0) and every owner of each v adjacent to u. Per-item work is
    // independent, so the same chunked-split parallel pattern applies.
    let mut result: Vec<Vec<usize>> = vec![Vec::new(); n_items];
    {
        let threads = effective_threads(threads, n_items);
        let chunk_len = n_items.div_ceil(threads);
        let uadj = &uadj;
        std::thread::scope(|s| {
            for (chunk_id, chunk) in result.chunks_mut(chunk_len).enumerate() {
                s.spawn(move || {
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        let i = (chunk_id * chunk_len + k) as u32;
                        let u = groups.owner_of(i as usize);
                        let co_owners = groups.owners(u);
                        let total = co_owners.len() - 1
                            + uadj[u]
                                .iter()
                                .map(|&v| groups.owners(v).len())
                                .sum::<usize>();
                        slot.reserve_exact(total);
                        slot.extend(co_owners.iter().filter(|&&j| j != i).map(|&j| j as usize));
                        for &v in &uadj[u] {
                            slot.extend(groups.owners(v).iter().map(|&j| j as usize));
                        }
                        // Sorted runs from different unique groups
                        // interleave arbitrarily; one in-place sort
                        // restores the ascending-id contract.
                        slot.sort_unstable();
                    }
                });
            }
        });
    }
    (result, stats)
}

/// Number of worker threads to actually spawn for `work_items` units of
/// work: `requested` (0 = available parallelism), never more than the
/// work items, never less than one.
///
/// Shared by the Hamming sweeps here and the pipeline's parallel stages
/// so the zero-work edge case is handled in one place: `usize::clamp`
/// panics when `min > max`, so a bare `requested.clamp(1, work_items)`
/// blows up on empty input — the upper bound is floored at 1 instead.
/// Step 7 is the exception: `meme-hawkes` does not depend on this
/// crate, and a Cargo edge for one function is not worth it, so
/// `InfluenceEstimator::estimate_robust` resolves its own thread count.
pub fn effective_threads(requested: usize, work_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    let t = if requested == 0 { hw } else { requested };
    t.clamp(1, work_items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use meme_stats::seeded_rng;
    use rand::RngExt;

    fn random_hashes(n: usize, seed: u64) -> Vec<PHash> {
        let mut rng = seeded_rng(seed);
        (0..n).map(|_| PHash(rng.random())).collect()
    }

    #[test]
    fn effective_threads_never_panics_or_overshoots() {
        assert_eq!(effective_threads(5, 0), 1); // the min>max regression
        assert_eq!(effective_threads(0, 0), 1);
        assert_eq!(effective_threads(5, 3), 3);
        assert_eq!(effective_threads(2, 10), 2);
        assert!(effective_threads(0, 10) >= 1);
    }

    #[test]
    fn engines_agree_on_random_workload() {
        let hashes = random_hashes(300, 3);
        let brute = BruteForceIndex::new(hashes.clone());
        let mih = MihIndex::new(hashes.clone(), 8);
        let mut rng = seeded_rng(4);
        for _ in 0..50 {
            // Mix indexed and random queries.
            let q = if rng.random_bool(0.5) {
                hashes[rng.random_range(0..hashes.len())]
            } else {
                PHash(rng.random())
            };
            for r in [0u32, 2, 5, 8] {
                let expected = brute.radius_query(q, r);
                assert_eq!(mih.radius_query(q, r), expected, "mih radius {r}");
            }
        }
    }

    /// Duplicate-heavy corpus: few distinct values, many copies.
    fn duplicate_heavy_hashes(n: usize, seed: u64) -> Vec<PHash> {
        let mut rng = seeded_rng(seed);
        let centers: Vec<PHash> = (0..8).map(|_| PHash(rng.random())).collect();
        (0..n)
            .map(|_| {
                let c = centers[rng.random_range(0..centers.len())];
                if rng.random_bool(0.3) {
                    c.with_flipped_bits(&[rng.random_range(0..64u8)])
                } else {
                    c
                }
            })
            .collect()
    }

    #[test]
    fn symmetric_neighbors_deterministic_across_thread_counts() {
        let hashes = duplicate_heavy_hashes(180, 10);
        let groups = HashGroups::new(&hashes);
        let brute = BruteForceIndex::new(groups.unique().to_vec());
        let (a, sa) = symmetric_neighbors(&brute, &groups, 6, 1);
        let (b, sb) = symmetric_neighbors(&brute, &groups, 6, 8);
        assert_eq!(a, b);
        assert_eq!(sa.unique_pairs, sb.unique_pairs);
        assert_eq!(sa.verified, sb.verified);
    }

    #[test]
    fn symmetric_neighbors_empty_corpus() {
        let groups = HashGroups::new(&[]);
        let mih = MihIndex::new(Vec::new(), 8);
        for threads in [0, 1, 7] {
            let (nbrs, stats) = symmetric_neighbors(&mih, &groups, 8, threads);
            assert!(nbrs.is_empty());
            assert_eq!(stats.unique_pairs, 0);
        }
    }

    #[test]
    fn symmetric_neighbors_all_duplicates() {
        // Single unique hash: every item neighbours every other item.
        let hashes = vec![PHash(99); 17];
        let groups = HashGroups::new(&hashes);
        let mih = MihIndex::new(groups.unique().to_vec(), 8);
        let (nbrs, stats) = symmetric_neighbors(&mih, &groups, 8, 4);
        assert_eq!(stats.unique, 1);
        assert_eq!(stats.unique_pairs, 0);
        for (i, list) in nbrs.iter().enumerate() {
            let expected: Vec<usize> = (0..17).filter(|&j| j != i).collect();
            assert_eq!(*list, expected);
        }
    }

    #[test]
    fn engines_agree_with_clustered_hashes() {
        // Clustered workload: groups of hashes within small distance.
        let mut rng = seeded_rng(5);
        let mut hashes = Vec::new();
        for _ in 0..20 {
            let center = PHash(rng.random());
            for _ in 0..10 {
                let flips: Vec<u8> = (0..rng.random_range(0..5u8))
                    .map(|_| rng.random_range(0..64u8))
                    .collect();
                hashes.push(center.with_flipped_bits(&flips));
            }
        }
        let brute = BruteForceIndex::new(hashes.clone());
        let mih = MihIndex::new(hashes.clone(), 8);
        for &q in &hashes {
            let expected = brute.radius_query(q, 8);
            assert_eq!(mih.radius_query(q, 8), expected);
        }
    }
}
