//! Steady-state allocation audit for the in-process lookup path.
//!
//! The serving-layer contract extends the index crate's: once a
//! worker's [`ServeScratch`] has warmed up, [`Snapshot::lookup`] plus a
//! [`SnapshotStore::load`] per micro-batch perform **zero heap
//! allocations** — the snapshot is immutable, the hit is `Copy`, the
//! store load is one `Arc` clone, and record resolution is a slice
//! index. Same counting-allocator audit as
//! `crates/index/tests/no_alloc.rs`, and the same single-test rule (a
//! concurrent test's allocations would pollute the counting window).

use meme_core::pipeline::{Pipeline, PipelineConfig};
use meme_core::supervise::SupervisedRunner;
use meme_phash::PHash;
use meme_serve::{ServeScratch, Snapshot, SnapshotStore, DEFAULT_THETA};
use meme_simweb::SimConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with an allocation counter. Deallocations
/// are not counted — the assertion is about *new* heap traffic.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// The workspace lib crates `#![forbid(unsafe_code)]`; integration tests
// are separate crates, and a global allocator shim is exactly the kind
// of boundary where the unsafety is contained and auditable.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_lookups_do_not_allocate() {
    let dataset = SimConfig::tiny(17).generate();
    let output = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .run(&dataset)
        .unwrap()
        .expect_complete();
    let store = SnapshotStore::new(Snapshot::build(&output, None, DEFAULT_THETA, 0).unwrap());
    // The contract holds on whichever engine the snapshot's size picks.
    assert!(
        !store.load().is_empty(),
        "tiny run produced no annotated clusters"
    );

    // Query mix: exact medoids (hits at distance 0), near-misses one
    // bit away, and far probes (mostly misses) — enough variety to
    // drive every scratch buffer to its high-water mark during warmup.
    let queries: Vec<PHash> = {
        let snap = store.load();
        snap.records()
            .iter()
            .enumerate()
            .flat_map(|(i, r)| {
                [
                    r.medoid,
                    PHash(r.medoid.0 ^ (1 << (i % 64))),
                    PHash(r.medoid.0 ^ 0xAAAA_AAAA_AAAA_AAAA),
                ]
            })
            .collect()
    };

    let mut scratch = ServeScratch::new();
    let mut hits = 0u64;
    for &q in &queries {
        let snap = store.load();
        if snap.lookup(q, &mut scratch).is_some() {
            hits += 1;
        }
    }
    assert!(hits > 0, "warmup found no hits; the workload is broken");

    let before = allocations();
    for &q in &queries {
        // One store load per query is the worst case; workers batch it.
        let snap = store.load();
        let hit = snap.lookup(q, &mut scratch);
        if let Some(h) = hit {
            // Resolving the record and influence row is also free.
            assert!(snap.record(h.slot).is_some());
            let _ = snap.influence_row(h.slot);
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state serve lookups must not touch the heap"
    );
}
