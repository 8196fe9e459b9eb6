//! Allocation audit for Step 7's per-event paths.
//!
//! `fit_em` runs one pass over the stream per iteration, and
//! `root_cause_matrix` one pass in all; both read the past through a
//! decayed state and scratch buffers allocated once per call, so heap
//! traffic is a per-call constant — not one `Vec` per event (per
//! iteration). A counting global allocator makes that a test: with the
//! iteration count pinned, a stream ten times longer may cost only a
//! handful more allocations.
//!
//! The whole file is one `#[test]` so the counter is never shared with
//! a concurrently running test.

use meme_hawkes::{
    fit_em, root_cause_matrix, simulate_branching, strip_lineage, EmConfig, Event, HawkesModel,
};
use meme_stats::seeded_rng;
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

/// Allocations `fit_em` performs over exactly `ITERS` iterations.
fn fit_allocations(events: &[Event], horizon: f64) -> u64 {
    const ITERS: usize = 10;
    let cfg = EmConfig {
        beta: 2.0,
        max_iters: ITERS,
        tol: 0.0, // never met: every fit runs all ITERS iterations
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let fit = fit_em(events, 2, horizon, &cfg).expect("seeded stream fits");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(fit.iterations, ITERS);
    after - before
}

/// Allocations `root_cause_matrix` performs on `events`.
fn attribution_allocations(model: &HawkesModel, events: &[Event]) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let counts = root_cause_matrix(model, events).expect("seeded stream attributes");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(counts.len(), model.k());
    after - before
}

#[test]
fn allocations_do_not_scale_with_stream_length() {
    let truth = HawkesModel::new(
        vec![0.5, 0.15],
        vec![vec![0.35, 0.25], vec![0.05, 0.3]],
        2.0,
    )
    .expect("valid model");
    let mut rng = seeded_rng(0xA110C);
    let long = strip_lineage(&simulate_branching(&truth, 2500.0, &mut rng));
    assert!(long.len() >= 2000, "need 2 000 events: {}", long.len());
    let long = &long[..2000];
    let short = &long[..200];

    let short_allocs = fit_allocations(short, short[199].t + 1.0);
    let long_allocs = fit_allocations(long, long[1999].t + 1.0);
    assert!(
        long_allocs <= short_allocs + 8,
        "fit_em allocated {long_allocs} times on 2 000 events vs {short_allocs} on 200: \
         heap traffic must not grow with the stream"
    );

    let short_allocs = attribution_allocations(&truth, short);
    let long_allocs = attribution_allocations(&truth, long);
    assert!(
        long_allocs <= short_allocs + 8,
        "root_cause_matrix allocated {long_allocs} times on 2 000 events vs {short_allocs} on \
         200: heap traffic must not grow with the stream"
    );
}
