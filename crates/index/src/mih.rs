//! Multi-index hashing: exact radius queries and the ε-graph self-join
//! via pigeonhole banding, over flat band tables.
//!
//! Split every 64-bit hash into `m` disjoint bit bands. Two hashes that
//! differ in at most `r` bits differ in at most `⌊r/m⌋` bits — the
//! *sub-radius* — in at least one band (pigeonhole: more in every band
//! would take more than `r` bits). A query therefore probes, in each
//! band, its own bucket and — when the sub-radius is 1 — the `width`
//! buckets one bit away, and verifies true distances. This is the
//! classic MIH scheme (Norouzi, Punjani & Fleet, CVPR 2012); it is the
//! engine the pipeline uses for the paper's `eps = 8` workloads,
//! replacing the authors' GPU pairwise system.
//!
//! **Band count.** [`band_count`] picks `m` from the index length by one
//! rule: about `64 / log2(len)` bands (so a bucket holds about one hash
//! of a uniform corpus), never more than `r + 1` (sub-radius 0 already)
//! and never fewer than `⌊r/2⌋ + 1` (so the sub-radius stays ≤ 1) or 4
//! (so a band is at most 16 bits). Small indexes keep `m = r + 1`; the
//! 7 271 distinct hashes of the dense benchmark corpus get `m = 5` at
//! `r = 8`.
//!
//! **Layout.** Each band's table is direct-addressed: `starts` holds
//! `2^width + 1` prefix offsets, so key `k`'s bucket is
//! `starts[k]..starts[k + 1]` — no search — in two parallel slabs: `ids`
//! (item ids, ascending within a bucket) and `slab` (the hashes
//! themselves, in the same order). Verifying a bucket reads one
//! contiguous run of hashes, never the index's hash list at random.
//! Tables are built by one counting sort per band.
//!
//! **The first-band rule.** A pair within the radius lies within the
//! sub-radius in one or more bands, and is met in each. It counts only
//! in the first such band, which the masked XOR of the pair decides in
//! a few ALU ops; no visited set is needed, so a query keeps no
//! per-item state and steady-state queries allocate nothing.
//!
//! **Self-join.** [`HammingIndex::join_pairs`] runs the same rule over
//! bucket pairs instead of queries: every pair inside a bucket and, at
//! sub-radius 1, across each pair of buckets one bit apart. Each pair
//! within the radius comes out exactly once, in the first band where it
//! lies within the sub-radius. [`crate::distinct_neighbors`] drives it.

use crate::scratch::{QueryScratch, QueryStats};
use crate::{HammingIndex, JoinBlock, JOIN_BLOCKS};
use meme_phash::PHash;

/// Fewest bands an index uses: a band is then at most 16 bits, so its
/// direct-addressed `starts` array has at most 65 537 entries.
const MIN_BANDS: u32 = 4;

/// The band count of an index over `len` hashes answering radius
/// `max_radius`: `64 / ⌊log2 len⌋`, rounded, clamped into
/// `⌊max_radius/2⌋ + 1 ..= max_radius + 1`, and at least 4.
///
/// The upper clamp is the sub-radius-0 split (`r + 1` bands, one exact
/// bucket per band); the lower clamp keeps the sub-radius `⌊r/m⌋` at
/// most 1, so probes only ever flip one bit of a band key.
pub fn band_count(len: usize, max_radius: u32) -> u32 {
    let by_size = match len.checked_ilog2() {
        Some(log) if log > 0 => (64 + log / 2) / log,
        _ => 64,
    };
    by_size
        .clamp(max_radius / 2 + 1, max_radius + 1)
        .max(MIN_BANDS)
}

/// One band's bits of a hash: `width` bits from `shift`.
#[derive(Debug, Clone, Copy)]
struct Band {
    shift: u32,
    width: u32,
}

impl Band {
    /// The band's key of hash bits `h`.
    #[inline(always)]
    fn key(&self, h: u64) -> usize {
        ((h >> self.shift) & ((1u64 << self.width) - 1)) as usize
    }

    /// The band's bits, in place.
    fn mask(&self) -> u64 {
        ((1u64 << self.width) - 1) << self.shift
    }
}

/// Whether `y` (a masked XOR) has at most `sub` bits set, `sub` ≤ 1.
#[inline(always)]
fn within(y: u64, sub: u32) -> bool {
    debug_assert!(sub <= 1);
    if sub == 0 {
        y == 0
    } else {
        y & y.wrapping_sub(1) == 0
    }
}

/// A bucket's hashes and, in the same order, their ids.
type Bucket<'a> = (&'a [u64], &'a [u32]);

/// One band's direct-addressed table.
#[derive(Debug, Clone)]
struct BandTable {
    band: Band,
    /// `mask` of `band`, cached for the first-band rule.
    mask: u64,
    /// `2^width + 1` offsets: key `k`'s bucket is `starts[k]..starts[k+1]`.
    starts: Vec<u32>,
    /// Item ids grouped by key, ascending within each bucket.
    ids: Vec<u32>,
    /// The hashes of `ids`, in the same order.
    slab: Vec<u64>,
}

impl BandTable {
    /// Counting sort of `hashes` by their key in `band`.
    fn build(hashes: &[PHash], band: Band) -> Self {
        let domain = 1usize << band.width;
        let mut starts = vec![0u32; domain + 1];
        for h in hashes {
            starts[band.key(h.bits()) + 1] += 1;
        }
        for k in 0..domain {
            starts[k + 1] += starts[k];
        }
        // `cursor[k]` is the next free slab position of key k.
        let mut cursor = starts[..domain].to_vec();
        let mut ids = vec![0u32; hashes.len()];
        let mut slab = vec![0u64; hashes.len()];
        for (i, h) in hashes.iter().enumerate() {
            let pos = &mut cursor[band.key(h.bits())];
            ids[*pos as usize] = i as u32;
            slab[*pos as usize] = h.bits();
            *pos += 1;
        }
        Self {
            band,
            mask: band.mask(),
            starts,
            ids,
            slab,
        }
    }

    /// Key `key`'s bucket: its hashes and their ids.
    #[inline(always)]
    fn bucket(&self, key: usize) -> Bucket<'_> {
        let (lo, hi) = (self.starts[key] as usize, self.starts[key + 1] as usize);
        (&self.slab[lo..hi], &self.ids[lo..hi])
    }

    /// Bytes held by this table's arrays.
    fn memory_bytes(&self) -> usize {
        self.starts.len() * std::mem::size_of::<u32>()
            + self.ids.len() * std::mem::size_of::<u32>()
            + self.slab.len() * std::mem::size_of::<u64>()
    }
}

/// Multi-index hashing engine supporting exact queries up to a fixed
/// maximum radius, with direct-addressed band tables.
#[derive(Debug, Clone)]
pub struct MihIndex {
    hashes: Vec<PHash>,
    tables: Vec<BandTable>,
    max_radius: u32,
}

impl MihIndex {
    /// Build an index answering queries with radius `<= max_radius`,
    /// over [`band_count`]`(hashes.len(), max_radius)` bands.
    ///
    /// # Panics
    /// Panics when `max_radius >= 64` (the band count would exceed the
    /// hash width; use brute force for such radii — at that point every
    /// scan is near-total anyway) or when there are more than `u32::MAX`
    /// hashes (the id slabs are 32-bit).
    pub fn new(hashes: Vec<PHash>, max_radius: u32) -> Self {
        assert!(
            max_radius < 64,
            "MIH banding needs max_radius < 64; use BruteForceIndex for larger radii"
        );
        assert!(
            hashes.len() <= u32::MAX as usize,
            "MihIndex supports at most u32::MAX hashes"
        );
        let m = band_count(hashes.len(), max_radius);
        // Distribute 64 bits over m bands: the first (64 % m) bands get
        // the extra bit.
        let base = 64 / m;
        let extra = 64 % m;
        let mut shift = 0u32;
        let tables = (0..m)
            .map(|i| {
                let band = Band {
                    shift,
                    width: base + u32::from(i < extra),
                };
                shift += band.width;
                BandTable::build(&hashes, band)
            })
            .collect();
        debug_assert_eq!(shift, 64);
        Self {
            hashes,
            tables,
            max_radius,
        }
    }

    /// The maximum radius this index can answer exactly.
    pub fn max_radius(&self) -> u32 {
        self.max_radius
    }

    /// The sub-radius of a radius-`radius` search: 0 or 1.
    fn sub_radius(&self, radius: u32) -> u32 {
        assert!(
            radius <= self.max_radius,
            "query radius {radius} exceeds index max_radius {}",
            self.max_radius
        );
        radius / self.tables.len() as u32
    }

    /// Whether band `band` is the first in which XOR `x` has at most
    /// `sub` bits set — the one band where its pair counts.
    #[inline(always)]
    fn first_band(&self, x: u64, band: usize, sub: u32) -> bool {
        self.tables[..band].iter().all(|t| !within(x & t.mask, sub))
    }

    /// The hits of `query` in bucket `key` of band `band`.
    #[inline]
    fn probe(
        &self,
        (band, key, sub): (usize, usize, u32),
        query: u64,
        radius: u32,
        stats: &mut QueryStats,
        out: &mut Vec<usize>,
    ) {
        let (hashes, ids) = self.tables[band].bucket(key);
        stats.probes += 1;
        stats.candidates += hashes.len() as u64;
        for (&h, &id) in hashes.iter().zip(ids) {
            let x = query ^ h;
            if x.count_ones() <= radius {
                stats.verified += 1;
                if self.first_band(x, band, sub) {
                    out.push(id as usize);
                }
            }
        }
    }

    /// Every pair across buckets `a` and `b` of band `band` (inside `a`
    /// when `b` is `None`), checked and appended to `pairs`.
    #[inline]
    fn join_buckets(
        &self,
        (band, sub, radius): (usize, u32, u32),
        a: Bucket<'_>,
        b: Option<Bucket<'_>>,
        pairs: &mut Vec<(u32, u32)>,
        stats: &mut QueryStats,
    ) {
        let (a_hashes, a_ids) = a;
        let mut verified = 0u64;
        for (i, (&hi, &idi)) in a_hashes.iter().zip(a_ids).enumerate() {
            let (hashes, ids) = b.unwrap_or((&a_hashes[i + 1..], &a_ids[i + 1..]));
            for (j, &hj) in hashes.iter().enumerate() {
                let x = hi ^ hj;
                if x.count_ones() <= radius {
                    verified += 1;
                    if self.first_band(x, band, sub) {
                        pairs.push((idi, ids[j]));
                    }
                }
            }
        }
        let n = a_hashes.len() as u64;
        stats.probes += 1;
        stats.candidates += match b {
            Some((b_hashes, _)) => n * b_hashes.len() as u64,
            None => n * n.saturating_sub(1) / 2,
        };
        stats.verified += verified;
    }
}

impl HammingIndex for MihIndex {
    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn hash_at(&self, i: usize) -> PHash {
        self.hashes[i]
    }

    /// Probes each band's bucket of the query (and, at sub-radius 1, the
    /// buckets one bit away), keeps each hit in its first band, and
    /// sorts the hits.
    ///
    /// # Panics
    /// Panics when `radius > max_radius`; the banding only guarantees
    /// exactness up to the radius the index was built for.
    // lint:hotpath(per-query banded bucket scan; writes only the caller's buffer)
    fn radius_query_into(
        &self,
        query: PHash,
        radius: u32,
        scratch: &mut QueryScratch,
        out: &mut Vec<usize>,
    ) {
        let sub = self.sub_radius(radius);
        out.clear();
        let q = query.bits();
        for (band, table) in self.tables.iter().enumerate() {
            let key = table.band.key(q);
            self.probe((band, key, sub), q, radius, &mut scratch.stats, out);
            if sub == 1 {
                for bit in 0..table.band.width {
                    self.probe(
                        (band, key ^ (1 << bit), sub),
                        q,
                        radius,
                        &mut scratch.stats,
                        out,
                    );
                }
            }
        }
        // Hits arrive in band order; the contract is ascending ids.
        out.sort_unstable();
    }

    /// One block per run of keys of one band, cut where the running
    /// estimate `Σ |bucket|²` passes `1/JOIN_BLOCKS` of the total.
    fn join_blocks(&self, radius: u32) -> Vec<JoinBlock> {
        self.sub_radius(radius);
        let cost = |t: &BandTable, k: usize| {
            let n = t.bucket(k).0.len() as u64;
            n * n
        };
        let total: u64 = self
            .tables
            .iter()
            .map(|t| (0..t.starts.len() - 1).map(|k| cost(t, k)).sum::<u64>())
            .sum();
        let target = total.div_ceil(JOIN_BLOCKS as u64).max(1);
        let mut blocks = Vec::new();
        for (band, t) in self.tables.iter().enumerate() {
            let (mut lo, mut acc) = (0, 0u64);
            let keys = t.starts.len() - 1;
            for k in 0..keys {
                acc += cost(t, k);
                if acc >= target || k + 1 == keys {
                    blocks.push(JoinBlock {
                        band,
                        lo,
                        hi: k + 1,
                    });
                    (lo, acc) = (k + 1, 0);
                }
            }
        }
        blocks
    }

    // lint:hotpath(the ε-graph's inner loop: contiguous slab pairs, pushes only into the caller's buffer)
    fn join_pairs(
        &self,
        block: JoinBlock,
        radius: u32,
        pairs: &mut Vec<(u32, u32)>,
        stats: &mut QueryStats,
    ) {
        let sub = self.sub_radius(radius);
        let band = block.band;
        let table = &self.tables[band];
        for key in block.lo..block.hi {
            let a = table.bucket(key);
            if a.0.is_empty() {
                continue;
            }
            self.join_buckets((band, sub, radius), a, None, pairs, stats);
            if sub == 1 {
                // Each unordered pair of buckets one bit apart once: from
                // the key with that bit clear.
                for bit in (0..table.band.width).filter(|&bit| key & (1 << bit) == 0) {
                    let b = table.bucket(key | 1 << bit);
                    if !b.0.is_empty() {
                        self.join_buckets((band, sub, radius), a, Some(b), pairs, stats);
                    }
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.hashes.len() * std::mem::size_of::<PHash>()
            + self
                .tables
                .iter()
                .map(BandTable::memory_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceIndex;
    use meme_stats::seeded_rng;
    use rand::RngExt;

    #[test]
    fn empty_index() {
        let idx = MihIndex::new(Vec::new(), 8);
        assert!(idx.is_empty());
        assert!(idx.radius_query(PHash(0), 8).is_empty());
        assert_eq!(idx.tables.len(), 9);
        // One band of 8 bits and eight of 7: (2^width + 1) starts each.
        assert_eq!(idx.memory_bytes(), (257 + 8 * 129) * 4);
    }

    #[test]
    fn band_count_follows_the_size_rule() {
        // Small indexes keep r + 1 bands; the dense corpus's 7 271
        // distinct hashes get 5 at r = 8.
        assert_eq!(band_count(0, 8), 9);
        assert_eq!(band_count(255, 8), 9);
        assert_eq!(band_count(256, 8), 8);
        assert_eq!(band_count(1_876, 8), 6);
        assert_eq!(band_count(7_271, 8), 5);
        // Never a sub-radius above 1, never a band wider than 16 bits.
        assert_eq!(band_count(1 << 30, 8), 5);
        assert_eq!(band_count(1 << 30, 2), 4);
        assert_eq!(band_count(10, 0), 4);
        assert_eq!(band_count(10, 63), 32);
        for len in [0usize, 1, 2, 100, 7_271, 1 << 20] {
            for r in 0..64 {
                let m = band_count(len, r);
                assert!(r / m <= 1 && (4..=64).contains(&m), "len {len} r {r} m {m}");
            }
        }
    }

    #[test]
    fn pigeonhole_guarantee_at_max_radius() {
        // Construct hashes at exactly max_radius from the query, with
        // flips adversarially concentrated to try to break banding.
        let q = PHash(0);
        let r = 8u32;
        // All flips in the low bits (first bands), all in the high bits
        // (last bands), one flip in each of 8 bands, and distance 9,
        // which must NOT be returned at radius 8.
        let spread: Vec<u8> = (0..8).map(|i| i * 8).collect();
        let hashes = vec![
            PHash(0xFF),
            PHash(0xFF00_0000_0000_0000),
            q.with_flipped_bits(&spread),
            PHash(0x1FF),
        ];
        for len in [hashes.len(), 7_000] {
            // Pad with far hashes so the size rule picks fewer bands.
            let mut padded = hashes.clone();
            padded.resize(len, PHash(u64::MAX));
            let idx = MihIndex::new(padded, r);
            assert_eq!(
                idx.radius_query(q, r),
                vec![0, 1, 2],
                "{} bands",
                idx.tables.len()
            );
        }
    }

    #[test]
    fn agrees_with_brute_force_near_threshold() {
        let mut rng = seeded_rng(77);
        let mut hashes = Vec::new();
        let center = PHash(rng.random());
        for d in 0..=12u8 {
            // A few hashes at each exact distance d from the center.
            for _ in 0..5 {
                let mut positions = Vec::new();
                while positions.len() < d as usize {
                    let p = rng.random_range(0..64u8);
                    if !positions.contains(&p) {
                        positions.push(p);
                    }
                }
                hashes.push(center.with_flipped_bits(&positions));
            }
        }
        let brute = BruteForceIndex::new(hashes.clone());
        let mih = MihIndex::new(hashes, 10);
        for r in 0..=10u32 {
            assert_eq!(mih.radius_query(center, r), brute.radius_query(center, r));
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_queries() {
        let mut rng = seeded_rng(78);
        let hashes: Vec<PHash> = (0..300)
            .map(|_| PHash(rng.random::<u64>() & 0xFFF))
            .collect();
        let mih = MihIndex::new(hashes.clone(), 8);
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        for &q in hashes.iter().take(60) {
            mih.radius_query_into(q, 8, &mut scratch, &mut out);
            assert_eq!(out, mih.radius_query(q, 8), "scratch reuse diverged");
        }
        let stats = scratch.stats();
        // 300 hashes → 8 bands at r = 8, sub-radius 1: each band probes
        // its own bucket plus one per bit of its 8-bit key.
        assert_eq!(mih.tables.len(), 8);
        assert_eq!(stats.probes, 60 * 8 * 9);
        assert!(stats.candidates >= stats.verified);
        assert!(stats.verified > 0);
    }

    #[test]
    fn radius_zero_is_an_exact_lookup() {
        let h = PHash(0xABCD);
        let idx = MihIndex::new(vec![h, PHash(0xABCE)], 0);
        assert_eq!(idx.tables.len(), 4);
        assert_eq!(idx.radius_query(h, 0), vec![0]);
    }

    #[test]
    #[should_panic(expected = "exceeds index max_radius")]
    fn over_radius_query_panics() {
        let idx = MihIndex::new(vec![PHash(0)], 4);
        let _ = idx.radius_query(PHash(0), 5);
    }

    #[test]
    #[should_panic(expected = "max_radius < 64")]
    fn absurd_radius_panics() {
        let _ = MihIndex::new(Vec::new(), 64);
    }

    #[test]
    fn uneven_band_widths_cover_all_bits() {
        // 64 bits / 9 bands — verify queries still work when bands are
        // uneven (max_radius = 8 → 9 bands).
        let q = PHash(u64::MAX);
        let near = q.with_flipped_bits(&[63]); // flip in the last band
        let idx = MihIndex::new(vec![near], 8);
        assert_eq!(idx.radius_query(q, 1), vec![0]);
    }

    #[test]
    fn duplicates_counted_once() {
        let h = PHash(99);
        let idx = MihIndex::new(vec![h, h], 8);
        // Each duplicate index appears once even though it is in every
        // band bucket.
        assert_eq!(idx.radius_query(h, 8), vec![0, 1]);
    }

    #[test]
    fn band_tables_are_flat_and_grouped() {
        let hashes: Vec<PHash> = (0..64u64).map(|i| PHash(i % 8)).collect();
        let idx = MihIndex::new(hashes.clone(), 8);
        for table in &idx.tables {
            // Offsets monotone over the whole key domain, every item in
            // the slab exactly once, next to its own hash, ids ascending
            // inside a bucket.
            assert_eq!(table.starts.len(), (1 << table.band.width) + 1);
            assert!(table.starts.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(table.ids.len(), hashes.len());
            let mut seen = vec![false; hashes.len()];
            for (&id, &h) in table.ids.iter().zip(&table.slab) {
                assert!(!seen[id as usize]);
                seen[id as usize] = true;
                assert_eq!(hashes[id as usize].bits(), h);
            }
            for k in 0..table.starts.len() - 1 {
                let (_, bucket) = table.bucket(k);
                assert!(bucket.windows(2).all(|w| w[0] < w[1]));
            }
        }
        assert!(idx.memory_bytes() > hashes.len() * 8);
    }
}
