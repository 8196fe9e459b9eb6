//! Multi-file fixture, caller side: functions reaching the panicking
//! wrappers in `cluster.rs` across the crate boundary, plus direct
//! panic sites — live and reviewed — and their callers.

/// Direct caller of a documented panicking wrapper: flagged.
pub fn cluster_stage(neighbors: &[Vec<usize>]) -> Vec<isize> {
    dbscan_with_index(neighbors, 4) //~ panic-reachable @ 5
}

/// Transitive caller: flagged one hop up as well, with the chain
/// rendered through `cluster_stage`.
pub fn run_all(neighbors: &[Vec<usize>]) -> usize {
    cluster_stage(neighbors).len() //~ panic-reachable @ 5
}

/// Reviewed absorption: the lint:allow both silences the finding here
/// and cuts the edge, so `audited_entry` below stays clean.
pub fn audited_stage(labels: &[usize]) -> Vec<usize> {
    // lint:allow(panic-reachable): labels come straight from dbscan, so every cluster has members
    medoids(labels)
}

/// Caller of the absorbing function: clean.
pub fn audited_entry(labels: &[usize]) -> usize {
    audited_stage(labels).len()
}

/// Unresolved call: the helper is defined nowhere in the workspace
/// model, so the rule must not guess — clean.
pub fn mystery_stage(labels: &[usize]) -> usize {
    helper_from_elsewhere(labels)
}

/// A direct panic site: flagged at the token, and the unsuppressed
/// unwrap makes this function a panic *source* for its callers.
pub fn shaky_parse(raw: &str) -> usize {
    raw.parse().unwrap() //~ panic-reachable @ 17
}

/// Caller of an undocumented source: flagged.
pub fn shaky_entry(raw: &str) -> usize {
    shaky_parse(raw) //~ panic-reachable @ 5
}

/// Two hops above the live site: flagged too, chain rendered through
/// `shaky_entry`.
pub fn shaky_run(raw: &str) -> usize {
    shaky_entry(raw) + 1 //~ panic-reachable @ 5
}

/// A reviewed site: the lint:allow is the statement that this unwrap
/// cannot fire, so the function is *not* a source…
pub fn reviewed_parse(digits: &str) -> usize {
    // lint:allow(panic-reachable): callers pass a string already matched against [0-9]{1,9}
    digits.parse().unwrap()
}

/// …and its caller stays clean.
pub fn reviewed_entry(digits: &str) -> usize {
    reviewed_parse(digits)
}
