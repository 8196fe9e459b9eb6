//! Multi-file fixture, callee side: documented panicking wrappers in
//! the shape of the workspace's `medoids` / `dbscan_with_index`.
//! Their own unwraps carry a reviewed `lint:allow`, so this file
//! produces no findings; the `# Panics` section is what makes each
//! wrapper a source for its callers.

/// Positions of cluster medoids.
///
/// # Panics
/// Panics when a cluster id has no members; [`try_medoids`] returns
/// `None` instead.
pub fn medoids(labels: &[usize]) -> Vec<usize> {
    // lint:allow(panic-reachable): documented panicking convenience over try_medoids
    try_medoids(labels).unwrap()
}

/// Fallible medoid selection.
pub fn try_medoids(labels: &[usize]) -> Option<Vec<usize>> {
    if labels.is_empty() {
        return None;
    }
    Some(labels.to_vec())
}

/// Index-backed DBSCAN.
///
/// # Panics
/// Panics when `min_pts == 0`; [`try_dbscan`] returns `None` instead.
pub fn dbscan_with_index(neighbors: &[Vec<usize>], min_pts: usize) -> Vec<isize> {
    // lint:allow(panic-reachable): documented panicking convenience over try_dbscan
    try_dbscan(neighbors, min_pts).unwrap()
}

/// Fallible DBSCAN.
pub fn try_dbscan(neighbors: &[Vec<usize>], min_pts: usize) -> Option<Vec<isize>> {
    if min_pts == 0 {
        return None;
    }
    Some(vec![0; neighbors.len()])
}
