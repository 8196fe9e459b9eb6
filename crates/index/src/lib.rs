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
//!   `r + 1` bands; by pigeonhole, any hash within distance `r` matches
//!   at least one band exactly, so candidates come from `r + 1` exact
//!   table lookups.
//!
//! Both engines implement [`HammingIndex`]'s one query,
//! [`HammingIndex::radius_query_from`]; [`FallbackIndex`] picks one of
//! them from the index size and radius alone.
//! [`distinct_neighbors`] computes every distinct hash's radius
//! neighbourhood on `std::thread::scope` workers — the "pairwise
//! comparison" driver;
//! [`symmetric_neighbors`] expands it to one list per item.

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

    /// All indices `i >= start` with `distance(query, hash_at(i)) <=
    /// radius`, ascending, written to `out` (cleared first) — the one
    /// query each engine implements. Intermediate state lives in
    /// `scratch`, so steady-state calls allocate nothing. `start` skips
    /// the prefix before distance verification; the symmetric pairwise
    /// driver passes `u + 1` so each unordered pair is verified once
    /// and mirrored.
    fn radius_query_from(
        &self,
        query: PHash,
        radius: u32,
        start: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<usize>,
    );

    /// [`HammingIndex::radius_query_from`] over the whole index.
    // lint:hotpath(per-query radius lookup through the caller's scratch)
    fn radius_query_into(
        &self,
        query: PHash,
        radius: u32,
        scratch: &mut QueryScratch,
        out: &mut Vec<usize>,
    ) {
        self.radius_query_from(query, radius, 0, scratch, out);
    }

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

    /// Approximate bytes held by the engine's data structures (hash
    /// storage plus per-engine tables) — the `index.memory_bytes`
    /// gauge. The default accounts for the hash slice only.
    fn memory_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<PHash>()
    }
}

/// Work counters of one [`distinct_neighbors`] run — the source of the
/// `index.*` metrics family. All fields are sums over per-worker
/// [`QueryStats`], so they are identical for every thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NeighborStats {
    /// Items in the corpus (before duplicate collapsing).
    pub items: usize,
    /// Unique hashes actually queried.
    pub unique: usize,
    /// Band-bucket probes issued.
    pub probes: u64,
    /// Candidate ids gathered (before dedup).
    pub candidates: u64,
    /// Exact distances verified.
    pub verified: u64,
    /// Unordered unique-hash pairs within the radius (each verified
    /// once and mirrored).
    pub unique_pairs: u64,
}

/// Compute the radius neighbourhood of every **distinct hash** of
/// `groups` from an index built over exactly [`HashGroups::unique`],
/// querying once per distinct hash and verifying each unordered pair
/// once.
///
/// `result[u]` lists all distinct-hash slots `v != u` with
/// `distance(unique[u], unique[v]) <= radius`, ascending. This is the
/// adjacency the cluster stage runs DBSCAN on
/// (`meme_cluster::try_dbscan_distinct`): every owner of `u` has the
/// same neighbours, so nothing is lost by not expanding it to items.
///
/// * exact duplicates collapse — `groups.len_unique()` queries instead
///   of `groups.len_items()`;
/// * symmetry is exploited — distinct hash `u` only verifies candidates
///   `v > u` ([`HammingIndex::radius_query_from`]); the `v → u` edge is
///   mirrored from the pair list;
/// * workers reuse [`QueryScratch`] buffers, so the pair sweep performs
///   no steady-state allocations beyond the pair lists themselves.
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

    // ---- Pass 1: unique-level half-pairs (u, v), u < v, d(u, v) <= r.
    // Workers own disjoint u-ranges; concatenating their pair lists in
    // range order yields a list sorted by (u, v) for any thread count.
    let threads = effective_threads(threads, n_unique);
    let chunk_len = n_unique.div_ceil(threads);
    let mut worker_out: Vec<(Vec<(u32, u32)>, QueryStats)> = Vec::new();
    worker_out.resize_with(threads, Default::default);
    std::thread::scope(|s| {
        for (chunk_id, slot) in worker_out.iter_mut().enumerate() {
            let unique = groups.unique();
            s.spawn(move || {
                let lo = chunk_id * chunk_len;
                let hi = (lo + chunk_len).min(n_unique);
                let mut scratch = QueryScratch::new();
                let mut hits = Vec::new();
                let mut pairs = Vec::new();
                for (u, &uh) in unique.iter().enumerate().take(hi).skip(lo) {
                    index.radius_query_from(uh, radius, u + 1, &mut scratch, &mut hits);
                    pairs.extend(hits.iter().map(|&v| (u as u32, v as u32)));
                }
                *slot = (pairs, scratch.take_stats());
            });
        }
    });

    // ---- Pass 2: mirror the half-pairs into unique-level adjacency.
    // Scanning pairs in (u, v) order appends to every list in ascending
    // order: w's mirrored entries (u' < w) all precede its forward
    // entries (v > w), and both runs arrive sorted.
    let mut uadj: Vec<Vec<usize>> = vec![Vec::new(); n_unique];
    for (pairs, worker_stats) in &worker_out {
        let mut merged = QueryStats::default();
        merged.merge(*worker_stats);
        stats.probes += merged.probes;
        stats.candidates += merged.candidates;
        stats.verified += merged.verified;
        stats.unique_pairs += pairs.len() as u64;
        for &(u, v) in pairs {
            uadj[u as usize].push(v as usize);
            uadj[v as usize].push(u as usize);
        }
    }
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
/// Shared by every parallel stage in the workspace so the zero-work
/// edge case is handled in exactly one place: `usize::clamp` panics
/// when `min > max`, so a bare `requested.clamp(1, work_items)` blows
/// up on empty input — the upper bound is floored at 1 instead.
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
