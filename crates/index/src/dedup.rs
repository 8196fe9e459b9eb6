//! Exact-duplicate hash collapsing.
//!
//! Meme corpora are dominated by exact re-posts: the same image (hence
//! the same 64-bit pHash) appears tens or hundreds of times. Querying an
//! index once per *item* repeats identical work once per copy, and
//! indexing every copy bloats each band bucket by the multiplicity.
//! [`HashGroups`] collapses an item list to its **unique hashes** plus a
//! CSR owner table, so callers can
//!
//! 1. build the index over `unique()` only (smaller tables, no
//!    duplicate-degenerate buckets),
//! 2. self-join the unique hashes once ([`crate::distinct_neighbors`]),
//!    and
//! 3. keep working on unique hashes — DBSCAN and medoids in
//!    `meme-cluster` weigh each hash by its owner count — and map only
//!    the final per-hash answer back to items through `owner_of()`.
//!
//! Invariants (relied on by [`crate::distinct_neighbors`],
//! [`crate::symmetric_neighbors`] and `meme_cluster::try_dbscan_distinct`):
//!
//! * `unique()` is strictly ascending by hash value (deterministic,
//!   input-order independent) — which is *not* the order in which the
//!   hashes first occur among the items;
//! * `owners(u)` is ascending by item id, and the owner lists partition
//!   `0..len_items()`, so `owners(u)[0]` is the group's first item;
//! * `owner_of(i)` is the unique slot whose hash equals the item's hash.

use meme_phash::PHash;

/// An item list collapsed to unique hash values with owner lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashGroups {
    /// Unique hash values, strictly ascending.
    unique: Vec<PHash>,
    /// Item id → unique slot.
    owner_of: Vec<u32>,
    /// CSR offsets into `items`, one slot per unique hash (+1 sentinel).
    offsets: Vec<u32>,
    /// Item ids grouped by unique slot, ascending within each group.
    items: Vec<u32>,
}

impl HashGroups {
    /// Collapse `hashes` (item order preserved in the owner tables).
    pub fn new(hashes: &[PHash]) -> Self {
        assert!(
            hashes.len() <= u32::MAX as usize,
            "HashGroups supports at most u32::MAX items"
        );
        let n = hashes.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        // Sort by (hash, id): groups become contiguous runs, ascending
        // by hash value, with ids ascending inside each run — `order`
        // itself is then the grouped item slab.
        order.sort_unstable_by_key(|&i| (hashes[i as usize], i));

        let mut unique = Vec::new();
        let mut owner_of = vec![0u32; n];
        let mut offsets = Vec::new();
        for (pos, &i) in order.iter().enumerate() {
            let h = hashes[i as usize];
            if unique.last() != Some(&h) {
                offsets.push(pos as u32);
                unique.push(h);
            }
            owner_of[i as usize] = (unique.len() - 1) as u32;
        }
        offsets.push(n as u32);
        debug_assert_eq!(offsets.len(), unique.len() + 1);
        Self {
            unique,
            owner_of,
            offsets,
            items: order,
        }
    }

    /// Number of items that were collapsed.
    pub fn len_items(&self) -> usize {
        self.owner_of.len()
    }

    /// Number of distinct hash values.
    pub fn len_unique(&self) -> usize {
        self.unique.len()
    }

    /// The distinct hash values, strictly ascending — build the Hamming
    /// index over this slice.
    pub fn unique(&self) -> &[PHash] {
        &self.unique
    }

    /// The unique slot owning item `i`.
    #[inline]
    pub fn owner_of(&self, i: usize) -> usize {
        self.owner_of[i] as usize
    }

    /// Item ids whose hash is `unique()[u]`, ascending.
    #[inline]
    pub fn owners(&self, u: usize) -> &[u32] {
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        &self.items[lo..hi]
    }

    /// `len_unique / len_items` — 1.0 means no duplicates, small values
    /// mean heavy collapsing (the `index.dedup_collapse_ratio` gauge).
    pub fn collapse_ratio(&self) -> f64 {
        if self.owner_of.is_empty() {
            return 1.0;
        }
        self.unique.len() as f64 / self.owner_of.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let g = HashGroups::new(&[]);
        assert_eq!(g.len_items(), 0);
        assert_eq!(g.len_unique(), 0);
        assert_eq!(g.collapse_ratio(), 1.0);
        assert!(g.unique().is_empty());
    }

    #[test]
    fn all_distinct() {
        let hashes = vec![PHash(30), PHash(10), PHash(20)];
        let g = HashGroups::new(&hashes);
        assert_eq!(g.len_unique(), 3);
        assert_eq!(g.unique(), &[PHash(10), PHash(20), PHash(30)]);
        assert_eq!(g.owner_of(0), 2); // PHash(30) is the largest
        assert_eq!(g.owners(0), &[1]); // PHash(10) owned by item 1
        assert_eq!(g.collapse_ratio(), 1.0);
    }

    #[test]
    fn duplicates_group_with_ascending_owners() {
        let hashes = vec![PHash(5), PHash(9), PHash(5), PHash(9), PHash(5)];
        let g = HashGroups::new(&hashes);
        assert_eq!(g.len_unique(), 2);
        assert_eq!(g.unique(), &[PHash(5), PHash(9)]);
        assert_eq!(g.owners(0), &[0, 2, 4]);
        assert_eq!(g.owners(1), &[1, 3]);
        for (i, &h) in hashes.iter().enumerate() {
            assert_eq!(g.unique()[g.owner_of(i)], h);
        }
        assert_eq!(g.collapse_ratio(), 2.0 / 5.0);
    }

    #[test]
    fn owner_lists_partition_items() {
        let hashes: Vec<PHash> = (0..40u64).map(|i| PHash(i % 7)).collect();
        let g = HashGroups::new(&hashes);
        let mut seen = vec![false; hashes.len()];
        for u in 0..g.len_unique() {
            for &i in g.owners(u) {
                assert!(!seen[i as usize], "item {i} in two groups");
                seen[i as usize] = true;
                assert_eq!(g.owner_of(i as usize), u);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn input_order_does_not_change_unique_order() {
        let a = HashGroups::new(&[PHash(3), PHash(1), PHash(2)]);
        let b = HashGroups::new(&[PHash(2), PHash(3), PHash(1)]);
        assert_eq!(a.unique(), b.unique());
    }
}
