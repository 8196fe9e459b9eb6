//! Allocation audit for repeated metric writes.
//!
//! A metric name is copied into the registry on its first write only:
//! later `add` / `gauge` / `observe` calls on the same name, and every
//! span of a disabled handle, touch no heap. Counting-allocator audit
//! as in `crates/index/tests/no_alloc.rs`, with the same single-test
//! rule (a concurrent test's allocations would pollute the window).

use meme_metrics::{Metrics, LATENCY_BUCKETS_US};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with an allocation counter.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// The crate is `#![forbid(unsafe_code)]`; this test is a separate crate,
// and the global allocator shim is where the unsafety is contained.
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
fn repeated_writes_and_disabled_spans_do_not_allocate() {
    let enabled = Metrics::enabled();
    let disabled = Metrics::disabled();
    let write = |m: &Metrics| {
        m.inc("queries");
        m.gauge("generation", 1.0);
        m.observe("latency_us", &LATENCY_BUCKETS_US, 12.0);
    };
    write(&enabled); // first write of each name inserts its key

    let before = allocations();
    for _ in 0..100 {
        write(&enabled);
        write(&disabled);
        let span = disabled.span("serve/query");
        span.child("render").finish();
        span.finish();
    }
    assert_eq!(allocations() - before, 0);
    assert_eq!(enabled.counter("queries"), 101);
}
