//! Reusable workspace for the allocation-free hashing path.
//!
//! Mirrors `meme_index::QueryScratch` and `meme_serve`'s `ServeScratch`:
//! each hashing worker owns one [`HashScratch`] and threads it through
//! [`ImageHasher::hash_into`](crate::ImageHasher::hash_into), so the
//! resize geometry, the f64 pixel plane, the DCT temporaries, and the
//! low-frequency coefficient block are allocated once and reused for
//! every image. Steady state, hashing performs zero heap allocations
//! (proven by `crates/phash/tests/no_alloc.rs`).

use meme_imaging::resize::BoxResizeScratch;

/// Per-worker scratch buffers for [`PerceptualHasher`]'s kernel.
///
/// All buffers grow to the hasher's fixed geometry on first use
/// (`32×32` plane, `8×32` DCT temporary, `8×8` block for the default
/// configuration) and never shrink. Every raster the simulator renders
/// is `IMAGE_SIZE`² (a jitter's crop and rescale resample back to the
/// original size), but a hasher may be handed other shapes: they only
/// re-derive the cached box-filter windows in place, and the window
/// vectors' capacity is bounded by the destination side, which is
/// constant.
///
/// A scratch is not tied to one hasher instance: any `PerceptualHasher`
/// (or other [`ImageHasher`](crate::ImageHasher)) may use it, resizing
/// the buffers as needed.
///
/// [`PerceptualHasher`]: crate::PerceptualHasher
#[derive(Debug, Clone, Default)]
pub struct HashScratch {
    /// Cached box-filter source windows.
    pub(crate) resize: BoxResizeScratch,
    /// The resized image as an `n × n` f64 plane (DCT input).
    pub(crate) plane: Vec<f64>,
    /// Row-pass DCT temporary (`hs × n`).
    pub(crate) tmp: Vec<f64>,
    /// Top-left `hs × hs` low-frequency coefficient block.
    pub(crate) block: Vec<f64>,
    /// Working copy of the block for median selection.
    pub(crate) sorted: Vec<f64>,
}

impl HashScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}
