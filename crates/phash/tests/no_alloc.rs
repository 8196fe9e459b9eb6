//! Steady-state allocation audit for the scratch-reuse hash kernel.
//!
//! `PerceptualHasher::hash_into`'s contract is that once a worker's
//! [`HashScratch`] buffers have grown to the kernel's fixed geometry,
//! hashing performs **zero heap allocations**: the box resize writes
//! into the cached f64 plane, the truncated DCT fills caller-owned
//! temporaries, and the median threshold is in-place selection. Every
//! jittered re-post is resampled back to its original size, but a
//! hasher handed images of other shapes must only re-derive the cached
//! filter windows in place. A counting global allocator makes that
//! claim a test instead of a comment.
//!
//! The whole file is one `#[test]` so the counter is never shared with
//! a concurrently running test (the test harness runs tests in threads;
//! a second test's allocations would show up in our window).

use meme_imaging::image::Image;
use meme_imaging::synth::{JitterConfig, TemplateGenome, VariantGenome};
use meme_phash::{HashScratch, ImageHasher, PerceptualHasher};
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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A deterministic image mix: canonical 64×64 renders, jittered
/// re-posts (64×64 too: crop and rescale resample back), and off-size
/// renders, so the shape changes from one image to the next.
fn workload() -> Vec<Image> {
    let mut rng = seeded_rng(0x5EED);
    let mut images = Vec::new();
    for seed in 0..5u64 {
        let v = VariantGenome::random(TemplateGenome::new(seed), seed, 2);
        images.push(v.render(64));
        for _ in 0..4 {
            images.push(v.render_jittered(64, &JitterConfig::default(), &mut rng));
        }
    }
    images.push(TemplateGenome::new(9).render(32));
    images.push(TemplateGenome::new(10).render(96));
    images.push(Image::filled(64, 64, 0.5));
    images
}

#[test]
fn steady_state_hashing_does_not_allocate() {
    let images = workload();
    let hasher = PerceptualHasher::new();
    let mut scratch = HashScratch::new();

    // Warmup: drive every buffer (plane, DCT temporaries, block, resize
    // windows) to its high-water mark across the full shape mix.
    let warmup: Vec<_> = images
        .iter()
        .map(|img| hasher.hash_into(img, &mut scratch))
        .collect();

    let before = allocations();
    for (img, &expect) in images.iter().zip(&warmup) {
        let got = hasher.hash_into(img, &mut scratch);
        assert_eq!(got, expect, "steady-state kernel must stay deterministic");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state hash_into must not touch the heap"
    );
}
