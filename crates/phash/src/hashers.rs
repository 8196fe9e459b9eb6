//! Hashing algorithms: DCT pHash plus the aHash/dHash baselines.

use crate::hash64::PHash;
use crate::scratch::HashScratch;
use meme_imaging::dct::Dct2d;
use meme_imaging::image::Image;
use meme_imaging::resize::{resize_box, resize_box_into_f64};

/// A perceptual hashing algorithm mapping an image to a 64-bit
/// fingerprint. The pipeline (`meme-core`) is generic over this trait so
/// the ablation benches can swap algorithms.
pub trait ImageHasher {
    /// Hash an image.
    fn hash(&self, img: &Image) -> PHash;

    /// Hash an image reusing caller-owned [`HashScratch`] buffers.
    ///
    /// Returns exactly what [`ImageHasher::hash`] returns; the scratch
    /// only amortizes allocations across calls. Hashing workers hold one
    /// scratch each and call this in their hot loop. The default simply
    /// delegates to `hash`; algorithms with allocation-free kernels
    /// override it.
    fn hash_into(&self, img: &Image, scratch: &mut HashScratch) -> PHash {
        let _ = scratch;
        self.hash(img)
    }

    /// Short algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// The classic DCT perceptual hash used by the paper (via the Python
/// `ImageHash` library).
///
/// Algorithm: box-resize to 32×32 (`HASH_SIZE * HIGHFREQ_FACTOR`
/// square), 2-D DCT-II, keep the top-left 8×8 low-frequency block, and
/// set each bit to whether its coefficient exceeds the **median** of
/// that block (DC included, matching `ImageHash.phash`).
#[derive(Debug, Clone)]
pub struct PerceptualHasher {
    plan: Dct2d,
}

/// Side of the low-frequency block: `HASH_SIZE²` bits are the 64-bit
/// fingerprint.
const HASH_SIZE: usize = 8;
/// DCT input side over [`HASH_SIZE`] (ImageHash's default).
const HIGHFREQ_FACTOR: usize = 4;

impl PerceptualHasher {
    /// The 32×32 → 8×8 configuration from the paper.
    pub fn new() -> Self {
        Self {
            plan: Dct2d::new(HASH_SIZE * HIGHFREQ_FACTOR),
        }
    }
}

impl Default for PerceptualHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ImageHasher for PerceptualHasher {
    fn hash(&self, img: &Image) -> PHash {
        // One-shot convenience wrapper: there is exactly one live kernel
        // (`hash_into`), so the cached, uncached, and scratch-reuse paths
        // cannot drift apart.
        self.hash_into(img, &mut HashScratch::new())
    }

    // The pipeline's hash stage funnels every image through this kernel;
    // steady state it must not allocate (see crates/phash/tests/no_alloc.rs).
    // lint:hotpath(per-image pHash kernel; the scratch buffers amortize allocation)
    fn hash_into(&self, img: &Image, scratch: &mut HashScratch) -> PHash {
        let n = self.plan.n();
        let hs = HASH_SIZE;
        scratch.plane.resize(n * n, 0.0);
        scratch.tmp.resize(hs * n, 0.0);
        scratch.block.resize(hs * hs, 0.0);

        // Resize straight into the f64 DCT input plane, then compute only
        // the top-left 8×8 low-frequency block. Both
        // steps are bit-identical to the allocating resize → full DCT →
        // crop path (and `forward_topleft_into` emits the block already
        // in the row-major `coeffs[y * n + x]` order the bits read).
        resize_box_into_f64(img, n, n, &mut scratch.resize, &mut scratch.plane);
        self.plan
            .forward_topleft_into(&scratch.plane, hs, &mut scratch.tmp, &mut scratch.block);

        // Median threshold over the block (ImageHash convention), via
        // total-order selection instead of a `partial_cmp(..).expect(..)`
        // full sort: `total_cmp` and `partial_cmp` order finite values
        // identically (they can disagree only on NaN, which the DCT of
        // finite pixels never produces, and on -0.0 vs +0.0 ties — whose
        // values are numerically equal, leaving the median unchanged).
        scratch.sorted.clear();
        scratch.sorted.extend_from_slice(&scratch.block);
        let half = hs * hs / 2;
        let (_, lo, rest) = scratch
            .sorted
            .select_nth_unstable_by(half - 1, f64::total_cmp);
        let lo = *lo;
        let hi = rest.iter().copied().min_by(f64::total_cmp).unwrap_or(lo);
        let median = (lo + hi) / 2.0;

        let mut bits = 0u64;
        for (i, &c) in scratch.block.iter().enumerate() {
            if c > median {
                bits |= 1u64 << (63 - i);
            }
        }
        PHash(bits)
    }

    fn name(&self) -> &'static str {
        "phash"
    }
}

/// Average hash: resize to 8×8 and threshold each pixel at the mean.
/// Cheaper but markedly less robust than pHash; kept as an ablation
/// baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct AverageHasher;

impl ImageHasher for AverageHasher {
    fn hash(&self, img: &Image) -> PHash {
        let small = resize_box(img, 8, 8);
        let mean = small.mean();
        let mut bits = 0u64;
        for (i, &p) in small.data().iter().enumerate() {
            if p > mean {
                bits |= 1u64 << (63 - i);
            }
        }
        PHash(bits)
    }

    fn name(&self) -> &'static str {
        "ahash"
    }
}

/// Difference hash: resize to 9×8 and record the sign of each horizontal
/// gradient. Another standard baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct DifferenceHasher;

impl ImageHasher for DifferenceHasher {
    fn hash(&self, img: &Image) -> PHash {
        let small = resize_box(img, 9, 8);
        let mut bits = 0u64;
        let mut i = 0;
        for y in 0..8 {
            for x in 0..8 {
                if small.get(x + 1, y) > small.get(x, y) {
                    bits |= 1u64 << (63 - i);
                }
                i += 1;
            }
        }
        PHash(bits)
    }

    fn name(&self) -> &'static str {
        "dhash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meme_imaging::synth::{JitterConfig, TemplateGenome, VariantGenome};
    use meme_imaging::transform;
    use meme_stats::seeded_rng;

    fn hasher() -> PerceptualHasher {
        PerceptualHasher::new()
    }

    #[test]
    fn hash_is_deterministic() {
        let img = TemplateGenome::new(3).render(64);
        let h = hasher();
        assert_eq!(h.hash(&img), h.hash(&img));
    }

    #[test]
    fn distinct_templates_hash_far_apart() {
        let h = hasher();
        let hashes: Vec<PHash> = (0..30)
            .map(|s| h.hash(&TemplateGenome::new(s).render(64)))
            .collect();
        let mut min_d = 64;
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                min_d = min_d.min(hashes[i].distance(hashes[j]));
            }
        }
        // Templates must be well-separated: far beyond the clustering
        // threshold of 8.
        assert!(min_d > 12, "min inter-template distance {min_d}");
    }

    #[test]
    fn brightness_invariance() {
        let h = hasher();
        let img = TemplateGenome::new(10).render(64);
        let base = h.hash(&img);
        for delta in [-0.1, -0.05, 0.05, 0.1] {
            let d = base.distance(h.hash(&transform::brightness(&img, delta)));
            assert!(d <= 4, "brightness {delta} moved hash by {d}");
        }
    }

    #[test]
    fn contrast_invariance() {
        let h = hasher();
        let img = TemplateGenome::new(11).render(64);
        let base = h.hash(&img);
        for factor in [0.8, 0.9, 1.1, 1.25] {
            let d = base.distance(h.hash(&transform::contrast(&img, factor)));
            assert!(d <= 4, "contrast {factor} moved hash by {d}");
        }
    }

    #[test]
    fn noise_robustness() {
        let h = hasher();
        let img = TemplateGenome::new(12).render(64);
        let base = h.hash(&img);
        let mut rng = seeded_rng(7);
        for _ in 0..5 {
            let noisy = transform::gaussian_noise(&img, 0.02, &mut rng);
            let d = base.distance(h.hash(&noisy));
            assert!(d <= 6, "noise moved hash by {d}");
        }
    }

    #[test]
    fn rescale_robustness() {
        let h = hasher();
        let img = TemplateGenome::new(13).render(64);
        let base = h.hash(&img);
        for factor in [0.5, 0.75, 1.5] {
            let d = base.distance(h.hash(&transform::rescale_cycle(&img, factor)));
            assert!(d <= 6, "rescale {factor} moved hash by {d}");
        }
    }

    #[test]
    fn quantization_robustness() {
        let h = hasher();
        let img = TemplateGenome::new(14).render(64);
        let base = h.hash(&img);
        let q = transform::quantize_dct(&img, 8, 0.05);
        let d = base.distance(h.hash(&q));
        assert!(d <= 8, "quantization moved hash by {d}");
    }

    #[test]
    fn jittered_variants_stay_clusterable() {
        // DBSCAN needs chain-reachability, not all-pairs proximity: the
        // bulk of a variant's re-posts must sit within eps = 8 of the
        // canonical image, and even cropped outliers must stay moderate
        // so the density chain absorbs them.
        let h = hasher();
        let mut rng = seeded_rng(20);
        let mut within = 0usize;
        let mut total = 0usize;
        for seed in 0..10 {
            let v = VariantGenome::random(TemplateGenome::new(seed), seed, 1);
            let canon = h.hash(&v.render(64));
            for _ in 0..8 {
                let img = v.render_jittered(64, &JitterConfig::default(), &mut rng);
                let d = canon.distance(h.hash(&img));
                total += 1;
                if d <= 8 {
                    within += 1;
                }
                assert!(d <= 18, "template {seed}: jitter moved hash by {d}");
            }
        }
        let frac = within as f64 / total as f64;
        assert!(frac >= 0.75, "only {frac:.2} of jittered posts within eps");
    }

    #[test]
    fn photometric_jitter_alone_stays_within_threshold() {
        // Without the crop component, every jittered re-post must stay
        // within the clustering threshold of the canonical image.
        let h = hasher();
        let mut rng = seeded_rng(21);
        let photometric = JitterConfig {
            crop_prob: 0.0,
            ..JitterConfig::default()
        };
        for seed in 0..10 {
            let v = VariantGenome::random(TemplateGenome::new(seed), seed, 1);
            let canon = h.hash(&v.render(64));
            for _ in 0..5 {
                let img = v.render_jittered(64, &photometric, &mut rng);
                let d = canon.distance(h.hash(&img));
                assert!(
                    d <= 8,
                    "template {seed}: photometric jitter moved hash by {d}"
                );
            }
        }
    }

    #[test]
    fn hash_size_independent_of_render_resolution() {
        let h = hasher();
        let t = TemplateGenome::new(15);
        let h64 = h.hash(&t.render(64));
        let h128 = h.hash(&t.render(128));
        let d = h64.distance(h128);
        assert!(d <= 8, "resolution changed hash by {d}");
    }

    #[test]
    fn ahash_and_dhash_produce_different_algorithms() {
        let img = TemplateGenome::new(16).render(64);
        let p = PerceptualHasher::new().hash(&img);
        let a = AverageHasher.hash(&img);
        let d = DifferenceHasher.hash(&img);
        // Not a correctness requirement, but the three algorithms should
        // not collapse to the same bits on structured input.
        assert!(p != a || p != d);
        assert_eq!(AverageHasher.name(), "ahash");
        assert_eq!(DifferenceHasher.name(), "dhash");
        assert_eq!(PerceptualHasher::new().name(), "phash");
    }

    #[test]
    fn hash_into_matches_hash_with_reused_scratch() {
        let h = hasher();
        let mut scratch = HashScratch::new();
        let mut rng = seeded_rng(33);
        for seed in 0..6 {
            let v = VariantGenome::random(TemplateGenome::new(seed), seed, 2);
            for _ in 0..4 {
                let img = v.render_jittered(64, &JitterConfig::default(), &mut rng);
                assert_eq!(h.hash_into(&img, &mut scratch), h.hash(&img));
            }
        }
        // Shape changes between calls must not corrupt the scratch.
        let small = TemplateGenome::new(40).render(32);
        let big = TemplateGenome::new(41).render(128);
        assert_eq!(h.hash_into(&small, &mut scratch), h.hash(&small));
        assert_eq!(h.hash_into(&big, &mut scratch), h.hash(&big));
        assert_eq!(h.hash_into(&small, &mut scratch), h.hash(&small));
    }

    #[test]
    fn default_hash_into_delegates_to_hash() {
        let img = TemplateGenome::new(16).render(64);
        let mut scratch = HashScratch::new();
        assert_eq!(
            AverageHasher.hash_into(&img, &mut scratch),
            AverageHasher.hash(&img)
        );
        assert_eq!(
            DifferenceHasher.hash_into(&img, &mut scratch),
            DifferenceHasher.hash(&img)
        );
    }

    #[test]
    fn constant_image_hashes_stably() {
        // Degenerate flat image: all DCT AC coefficients are ~0; the hash
        // must still be computed without NaN/panic and be reproducible.
        let img = Image::filled(64, 64, 0.5);
        let h = hasher();
        assert_eq!(h.hash(&img), h.hash(&img));
    }
}
