//! Steady-state allocation audit for the query path.
//!
//! Once the caller's output vector has grown to the largest answer,
//! `radius_query_into` / `nearest_into` perform **zero heap
//! allocations**: probing reads direct-addressed band tables, the
//! first-band rule needs no visited set, results reuse the caller's
//! output vector, and the final ordering is an in-place sort. A
//! counting global allocator makes that claim a test instead of a
//! comment.
//!
//! The whole file is one `#[test]` so the counter is never shared with
//! a concurrently running test (the test harness runs tests in threads;
//! a second test's allocations would show up in our window).

use meme_index::{BruteForceIndex, HammingIndex, MihIndex, QueryScratch};
use meme_phash::PHash;
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

/// Deterministic clustered + duplicated workload, no RNG dependency.
fn workload(n: usize) -> Vec<PHash> {
    (0..n)
        .map(|i| {
            let center = (i as u64 % 13).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Flip up to two low bits on some items; repeat others
            // verbatim so duplicate buckets exist.
            let tweak = match i % 4 {
                0 => 0,
                1 => 1u64 << (i % 64),
                2 => 0,
                _ => (1u64 << (i % 64)) | (1u64 << ((i / 2) % 64)),
            };
            PHash(center ^ tweak)
        })
        .collect()
}

#[test]
fn steady_state_queries_do_not_allocate() {
    let hashes = workload(2000);
    let mih = MihIndex::new(hashes.clone(), 8);
    let brute = BruteForceIndex::new(hashes.clone());

    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();

    // Warmup: drive every buffer (stamps, candidates, output) to its
    // high-water mark over the full query mix.
    for &q in &hashes {
        mih.radius_query_into(q, 8, &mut scratch, &mut out);
        brute.radius_query_into(q, 8, &mut scratch, &mut out);
    }
    let mut nearest = 0usize;

    let before = allocations();
    for &q in &hashes {
        mih.radius_query_into(q, 8, &mut scratch, &mut out);
        brute.radius_query_into(q, 8, &mut scratch, &mut out);
        nearest += usize::from(mih.nearest_into(q, 8, &mut scratch, &mut out).is_some());
        nearest += usize::from(brute.nearest_into(q, 8, &mut scratch, &mut out).is_some());
    }
    let after = allocations();
    assert_eq!(
        nearest,
        2 * hashes.len(),
        "every indexed query is its own match"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state radius queries must not touch the heap"
    );
}
