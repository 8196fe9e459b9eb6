//! The per-item reference the collapsed pair sweep and the engines are
//! checked against: one radius query per indexed item, self excluded.

use meme_index::HammingIndex;

/// `result[i]` = every `j != i` within `radius` of item `i`, ascending.
pub fn all_neighbors<I: HammingIndex>(index: &I, radius: u32) -> Vec<Vec<usize>> {
    (0..index.len())
        .map(|i| {
            let mut hits = index.radius_query(index.hash_at(i), radius);
            hits.retain(|&j| j != i);
            hits
        })
        .collect()
}
