//! The references the ε-graph and the engines are checked against: one
//! radius query per indexed item, self excluded, and a plain all-pairs
//! scan.

use meme_index::HammingIndex;
use meme_phash::PHash;

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

/// `result[u]` = every `v != u` with `distance(hashes[u], hashes[v]) <=
/// radius`, ascending, from a scan of all pairs.
#[allow(dead_code)] // each test binary includes this module; not all call it
pub fn all_pairs_graph(hashes: &[PHash], radius: u32) -> Vec<Vec<usize>> {
    let mut graph = vec![Vec::new(); hashes.len()];
    for u in 0..hashes.len() {
        for v in u + 1..hashes.len() {
            if hashes[u].distance(hashes[v]) <= radius {
                graph[u].push(v);
                graph[v].push(u);
            }
        }
    }
    for list in &mut graph {
        list.sort_unstable();
    }
    graph
}
