//! Multi-index hashing: exact radius queries via pigeonhole banding,
//! over flat CSR band tables.
//!
//! Split every 64-bit hash into `m = max_radius + 1` disjoint bit bands.
//! If two hashes differ in at most `max_radius` bits, at least one band
//! is **identical** in both (pigeonhole: `max_radius` differing bits
//! cannot touch all `max_radius + 1` bands). A query therefore probes
//! one exact-match table per band, unions the candidates, and verifies
//! true distances — `m` table lookups instead of a linear scan. This is
//! the classic MIH scheme (Norouzi, Punjani & Fleet, CVPR 2012)
//! specialized to single-probe bands; it is the engine the pipeline uses
//! for the paper's `eps = 8` workloads, replacing the authors' GPU
//! pairwise system.
//!
//! **Layout.** Each band's table is a CSR triple instead of a
//! `HashMap<u64, Vec<usize>>`:
//!
//! * `keys` — the band values that occur, sorted ascending;
//! * `offsets` — `keys.len() + 1` prefix offsets into the slab;
//! * `ids` — one contiguous `u32` slab of item ids, grouped by key,
//!   ascending within each group.
//!
//! A probe is a binary search over `keys` followed by a contiguous slab
//! scan — two cache-predictable arrays instead of a pointer-chasing hash
//! map with one heap `Vec` per bucket. Construction is a counting sort
//! over the band's value domain (falling back to a pair sort for bands
//! wider than [`COUNTING_SORT_MAX_WIDTH`] bits), not
//! `entry().or_default().push()`.
//!
//! **Querying.** [`MihIndex`]'s `radius_query_from` gathers candidates
//! through an epoch-stamped [`QueryScratch`] (no per-query `sort +
//! dedup`), verifies distances with an unrolled SWAR batch kernel, and
//! writes into a caller-owned buffer — steady-state queries allocate
//! nothing.

use crate::scratch::QueryScratch;
use crate::HammingIndex;
use meme_phash::{swar_distance, PHash};

/// Widest band (in bits) built with a dense counting sort; wider bands
/// (only possible at `max_radius <= 3`, where bands have ≥ 16 bits) use
/// a pair sort instead — a 2^width counting array would not fit.
const COUNTING_SORT_MAX_WIDTH: u32 = 16;

#[derive(Debug, Clone, Copy)]
struct Band {
    shift: u32,
    width: u32,
}

impl Band {
    #[inline(always)]
    fn extract(&self, h: PHash) -> u64 {
        if self.width == 64 {
            h.bits()
        } else {
            (h.bits() >> self.shift) & ((1u64 << self.width) - 1)
        }
    }
}

/// One band's exact-match table in CSR form.
#[derive(Debug, Clone, Default)]
struct CsrTable {
    /// Occurring band values, ascending.
    keys: Vec<u64>,
    /// `keys.len() + 1` offsets into `ids`.
    offsets: Vec<u32>,
    /// Item ids grouped by key, ascending within each group.
    ids: Vec<u32>,
}

impl CsrTable {
    /// The ids whose band value equals `key` (empty when absent).
    #[inline]
    fn bucket(&self, key: u64) -> &[u32] {
        match self.keys.binary_search(&key) {
            Ok(pos) => {
                let lo = self.offsets[pos] as usize;
                let hi = self.offsets[pos + 1] as usize;
                &self.ids[lo..hi]
            }
            Err(_) => &[],
        }
    }

    /// Build from per-item band values via counting sort. `vals[i]` is
    /// item `i`'s band value; `counts` is a caller-provided buffer of at
    /// least `2^width` zeroed slots (returned re-zeroed).
    fn counting_sort(vals: &[u64], width: u32, counts: &mut [u32]) -> Self {
        let domain = 1usize << width;
        debug_assert!(counts.len() >= domain);
        debug_assert!(counts.iter().take(domain).all(|&c| c == 0));
        for &v in vals {
            counts[v as usize] += 1;
        }
        // Occurring keys in ascending order + prefix offsets.
        let mut keys = Vec::new();
        let mut offsets = Vec::new();
        let mut cursor = 0u32;
        for (v, &c) in counts.iter().enumerate().take(domain) {
            if c > 0 {
                keys.push(v as u64);
                offsets.push(cursor);
                cursor += c;
            }
        }
        offsets.push(cursor);
        // Second pass places ids; reuse `counts` as per-key cursors
        // (counts[v] becomes the next slab position for value v).
        let mut slot = 0usize;
        for (v, c) in counts.iter_mut().enumerate().take(domain) {
            if *c > 0 {
                *c = offsets[slot];
                slot += 1;
                debug_assert_eq!(keys[slot - 1], v as u64);
            }
        }
        let mut ids = vec![0u32; vals.len()];
        for (i, &v) in vals.iter().enumerate() {
            let pos = &mut counts[v as usize];
            ids[*pos as usize] = i as u32;
            *pos += 1;
        }
        // Re-zero the touched slots for the next band.
        for &k in &keys {
            counts[k as usize] = 0;
        }
        Self { keys, offsets, ids }
    }

    /// Build by sorting `(value, id)` pairs — the wide-band fallback.
    fn pair_sort(vals: &[u64]) -> Self {
        let mut pairs: Vec<(u64, u32)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        pairs.sort_unstable();
        let mut keys = Vec::new();
        let mut offsets = Vec::new();
        let mut ids = Vec::with_capacity(pairs.len());
        for (pos, &(v, i)) in pairs.iter().enumerate() {
            if keys.last() != Some(&v) {
                keys.push(v);
                offsets.push(pos as u32);
            }
            ids.push(i);
        }
        offsets.push(pairs.len() as u32);
        Self { keys, offsets, ids }
    }

    /// Bytes held by this table's arrays.
    fn memory_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<u64>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.ids.len() * std::mem::size_of::<u32>()
    }
}

/// Multi-index hashing engine supporting exact queries up to a fixed
/// maximum radius, with flat CSR band tables.
#[derive(Debug, Clone)]
pub struct MihIndex {
    hashes: Vec<PHash>,
    bands: Vec<Band>,
    tables: Vec<CsrTable>,
    max_radius: u32,
}

impl MihIndex {
    /// Build an index answering queries with radius `<= max_radius`.
    ///
    /// # Panics
    /// Panics when `max_radius >= 64` (the band count would exceed the
    /// hash width; use brute force for such radii — at that point every
    /// scan is near-total anyway) or when there are more than `u32::MAX`
    /// hashes (the CSR id slabs are 32-bit).
    pub fn new(hashes: Vec<PHash>, max_radius: u32) -> Self {
        assert!(
            max_radius < 64,
            "MIH banding needs max_radius < 64; use BruteForceIndex for larger radii"
        );
        assert!(
            hashes.len() <= u32::MAX as usize,
            "MihIndex supports at most u32::MAX hashes"
        );
        let m = max_radius + 1;
        // Distribute 64 bits over m bands: the first (64 % m) bands get
        // the extra bit.
        let base = 64 / m;
        let extra = 64 % m;
        let mut bands = Vec::with_capacity(m as usize);
        let mut shift = 0u32;
        for i in 0..m {
            let width = base + u32::from(i < extra);
            bands.push(Band { shift, width });
            shift += width;
        }
        debug_assert_eq!(shift, 64);

        // Shared build buffers, reused across bands: the extracted band
        // values and (for narrow bands) the counting-sort domain.
        let max_counting_width = bands
            .iter()
            .map(|b| b.width)
            .filter(|&w| w <= COUNTING_SORT_MAX_WIDTH)
            .max();
        let mut counts = vec![0u32; max_counting_width.map_or(0, |w| 1usize << w)];
        let mut vals = vec![0u64; hashes.len()];
        let tables = bands
            .iter()
            .map(|band| {
                for (v, &h) in vals.iter_mut().zip(&hashes) {
                    *v = band.extract(h);
                }
                if band.width <= COUNTING_SORT_MAX_WIDTH {
                    CsrTable::counting_sort(&vals, band.width, &mut counts)
                } else {
                    CsrTable::pair_sort(&vals)
                }
            })
            .collect();
        Self {
            hashes,
            bands,
            tables,
            max_radius,
        }
    }

    /// The maximum radius this index can answer exactly.
    pub fn max_radius(&self) -> u32 {
        self.max_radius
    }
}

/// Verify candidate distances four at a time with the SWAR popcount
/// kernel — a straight line of ALU ops the compiler can schedule across
/// candidates — pushing survivors in input order.
#[inline]
fn verify_batch(
    hashes: &[PHash],
    query: PHash,
    radius: u32,
    candidates: &[u32],
    out: &mut Vec<usize>,
) {
    let mut chunks = candidates.chunks_exact(4);
    for chunk in &mut chunks {
        if let &[a, b, c, d] = chunk {
            let da = swar_distance(hashes[a as usize], query);
            let db = swar_distance(hashes[b as usize], query);
            let dc = swar_distance(hashes[c as usize], query);
            let dd = swar_distance(hashes[d as usize], query);
            if da <= radius {
                out.push(a as usize);
            }
            if db <= radius {
                out.push(b as usize);
            }
            if dc <= radius {
                out.push(c as usize);
            }
            if dd <= radius {
                out.push(d as usize);
            }
        }
    }
    for &i in chunks.remainder() {
        if swar_distance(hashes[i as usize], query) <= radius {
            out.push(i as usize);
        }
    }
}

impl HammingIndex for MihIndex {
    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn hash_at(&self, i: usize) -> PHash {
        self.hashes[i]
    }

    /// Gathers candidates with id `>= start` through the visited stamps,
    /// batch-verifies them and sorts the survivors.
    ///
    /// # Panics
    /// Panics when `radius > max_radius`; the banding only guarantees
    /// exactness up to the radius the index was built for.
    // lint:hotpath(per-query banded candidate scan; the scratch buffers amortize allocation)
    fn radius_query_from(
        &self,
        query: PHash,
        radius: u32,
        start: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<usize>,
    ) {
        assert!(
            radius <= self.max_radius,
            "query radius {radius} exceeds index max_radius {}",
            self.max_radius
        );
        out.clear();
        scratch.begin(self.hashes.len());
        let start = start.min(u32::MAX as usize) as u32;
        let mut gathered = 0u64;
        for (band, table) in self.bands.iter().zip(&self.tables) {
            let bucket = table.bucket(band.extract(query));
            gathered += bucket.len() as u64;
            for &id in bucket {
                // The symmetric driver only wants ids >= start; cheap
                // integer compare ahead of the stamp + verify.
                if id >= start && scratch.mark(id) {
                    scratch.candidates.push(id);
                }
            }
        }
        scratch.stats.probes += self.bands.len() as u64;
        scratch.stats.candidates += gathered;
        scratch.stats.verified += scratch.candidates.len() as u64;
        verify_batch(&self.hashes, query, radius, &scratch.candidates, out);
        // Candidates arrive in probe order; the contract is ascending
        // item order. In-place sort of the (small) verified set — no
        // per-query sort+dedup over the raw candidate union.
        out.sort_unstable();
    }

    fn memory_bytes(&self) -> usize {
        self.hashes.len() * std::mem::size_of::<PHash>()
            + self
                .tables
                .iter()
                .map(CsrTable::memory_bytes)
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
        assert_eq!(idx.memory_bytes(), 9 * 4); // 9 bands × empty-table sentinel offset
    }

    #[test]
    fn pigeonhole_guarantee_at_max_radius() {
        // Construct hashes at exactly max_radius from the query, with
        // flips adversarially concentrated to try to break banding.
        let q = PHash(0);
        let r = 8u32;
        let mut hashes = Vec::new();
        // All flips in the low bits (first bands).
        hashes.push(PHash(0xFF));
        // All flips in the high bits (last bands).
        hashes.push(PHash(0xFF00_0000_0000_0000));
        // Spread: one flip in each of 8 bands.
        let spread: Vec<u8> = (0..8).map(|i| i * 8).collect();
        hashes.push(q.with_flipped_bits(&spread));
        // Distance 9: must NOT be returned at radius 8.
        hashes.push(PHash(0x1FF));
        let idx = MihIndex::new(hashes, r);
        let got = idx.radius_query(q, r);
        assert_eq!(got, vec![0, 1, 2]);
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
        assert_eq!(stats.probes, 60 * 9, "9 bands probed per query");
        assert!(stats.candidates >= stats.verified);
        assert!(stats.verified > 0);
    }

    #[test]
    fn radius_query_from_drops_lower_ids() {
        let h = PHash(42);
        let hashes = vec![
            h,
            h.with_flipped_bits(&[0]),
            h,
            h.with_flipped_bits(&[1, 2]),
        ];
        let mih = MihIndex::new(hashes, 8);
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        mih.radius_query_from(h, 8, 0, &mut scratch, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
        mih.radius_query_from(h, 8, 2, &mut scratch, &mut out);
        assert_eq!(out, vec![2, 3]);
        mih.radius_query_from(h, 8, 4, &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn radius_zero_band_widths() {
        // max_radius = 0 → a single 64-bit band (exact lookup), built by
        // the wide-band pair sort.
        let h = PHash(0xABCD);
        let idx = MihIndex::new(vec![h, PHash(0xABCE)], 0);
        assert_eq!(idx.radius_query(h, 0), vec![0]);
    }

    #[test]
    fn wide_and_narrow_band_builders_agree() {
        // max_radius = 3 → 4 bands of 16 bits: exactly the counting-sort
        // boundary. Build the same corpus through both table builders by
        // comparing against brute force at radius 3.
        let mut rng = seeded_rng(79);
        let center = PHash(rng.random());
        let mut hashes = vec![center];
        for k in 1..=3u8 {
            for _ in 0..10 {
                let flips: Vec<u8> = (0..k).map(|_| rng.random_range(0..64u8)).collect();
                hashes.push(center.with_flipped_bits(&flips));
            }
        }
        let brute = BruteForceIndex::new(hashes.clone());
        let mih = MihIndex::new(hashes, 3);
        for r in 0..=3 {
            assert_eq!(mih.radius_query(center, r), brute.radius_query(center, r));
        }
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
    fn csr_tables_are_flat_and_grouped() {
        let hashes: Vec<PHash> = (0..64u64).map(|i| PHash(i % 8)).collect();
        let idx = MihIndex::new(hashes.clone(), 8);
        for table in &idx.tables {
            // Keys sorted strictly ascending, offsets monotone, slab
            // covers every item exactly once.
            assert!(table.keys.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(table.offsets.len(), table.keys.len() + 1);
            assert!(table.offsets.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(table.ids.len(), hashes.len());
            let mut seen = vec![false; hashes.len()];
            for &id in &table.ids {
                assert!(!seen[id as usize]);
                seen[id as usize] = true;
            }
        }
        assert!(idx.memory_bytes() > hashes.len() * 8);
    }
}
