//! Procedural meme-image synthesis.
//!
//! The simulator needs images whose ground-truth identity is known: which
//! *meme template* an image comes from, which *variant* of that meme it
//! is, and which within-variant re-post jitter it carries. This mirrors
//! the paper's Figure 1: a meme (Smug Frog) has several visually distinct
//! clusters of variants, each containing perceptually near-identical
//! images.
//!
//! * [`TemplateGenome`] — a seed. Rendering produces a distinctive base
//!   image: a mixture of random low-frequency cosine fields (which is
//!   exactly the structure pHash fingerprints) plus soft blobs.
//! * [`VariantGenome`] — a template plus a list of structural
//!   [`VariantOp`]s (caption bands, overlays, region inversion, mirror).
//!   Structural edits move the pHash a *moderate* distance, so each
//!   variant forms its own DBSCAN cluster, exactly as in the paper.
//! * [`VariantGenome::render_jittered`] — adds photometric re-post jitter
//!   (brightness/contrast/gamma/noise/rescale) that pHash is robust to,
//!   so images of one variant stay within the clustering threshold.

use crate::image::Image;
use crate::transform;
use meme_stats::{child_seed, seeded_rng};
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// Seed-only genome of a meme template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TemplateGenome {
    /// Seed that fully determines the rendered base image.
    pub seed: u64,
}

impl TemplateGenome {
    /// Create a genome from a seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Render the template's base image at `size × size`.
    ///
    /// The image is a mixture of 6 random low-frequency 2-D cosine modes
    /// (frequencies 1..=5 in each axis) plus 3 soft elliptical blobs,
    /// normalized into `[0, 1]`. Different seeds produce images whose
    /// pHashes are far apart with overwhelming probability because the
    /// sign pattern of the low-frequency DCT coefficients *is* the hash.
    pub fn render(&self, size: usize) -> Image {
        assert!(size >= 8, "template images need at least 8x8 pixels");
        let mut rng = seeded_rng(child_seed(self.seed, 0xC0DE));
        let mut img = Image::new(size, size);

        // Low-frequency cosine mixture.
        let modes: Vec<(usize, usize, f64, f64)> = (0..6)
            .map(|_| {
                let u = rng.random_range(1..=5usize);
                let v = rng.random_range(1..=5usize);
                let amp =
                    rng.random_range(0.35..1.0f64) * if rng.random_bool(0.5) { 1.0 } else { -1.0 };
                let phase = rng.random_range(0.0..std::f64::consts::TAU);
                (u, v, amp, phase)
            })
            .collect();
        let n = size as f64;
        // The field is separable: the x-cosine depends only on (x, u)
        // and the y-cosine only on (y, v, phase), so the per-pixel
        // `cos` calls collapse into per-mode tables, and `amp * cx`
        // (the left product of `amp * cx * cy`) into one row per mode.
        // Each row of the image is then one pass per mode,
        // `row[x] += amp_cx[x] * cy`, which accumulates every pixel's
        // modes in the same order and with the same operands as the
        // direct per-pixel form, so the image is bit-identical to it.
        let mut amp_cx = vec![0.0f64; modes.len() * size];
        let mut cy_tab = vec![0.0f64; modes.len() * size];
        for (m, &(u, v, amp, phase)) in modes.iter().enumerate() {
            for x in 0..size {
                let cx = (std::f64::consts::PI * (x as f64 + 0.5) * u as f64 / n).cos();
                amp_cx[m * size + x] = amp * cx;
            }
            for y in 0..size {
                cy_tab[m * size + y] =
                    (std::f64::consts::PI * (y as f64 + 0.5) * v as f64 / n + phase).cos();
            }
        }
        // Min/max run in 8 independent lanes while the rows are written.
        // On finite values the lanes fold to the same `lo`/`hi` as one
        // sequential scan (a signed zero can differ, which `p - lo` and
        // `hi - lo` below cannot observe).
        let mut lo = [f32::MAX; 8];
        let mut hi = [f32::MIN; 8];
        let mut row = vec![0.0f64; size];
        for (y, out) in img.data_mut().chunks_exact_mut(size).enumerate() {
            row.fill(0.0);
            for m in 0..modes.len() {
                let cy = cy_tab[m * size + y];
                for (acc, &ax) in row.iter_mut().zip(&amp_cx[m * size..(m + 1) * size]) {
                    *acc += ax * cy;
                }
            }
            for (p, &acc) in out.iter_mut().zip(&row) {
                *p = acc as f32;
            }
            let mut lanes = out.chunks_exact(8);
            for chunk in &mut lanes {
                for l in 0..8 {
                    lo[l] = lo[l].min(chunk[l]);
                    hi[l] = hi[l].max(chunk[l]);
                }
            }
            for (l, &p) in lanes.remainder().iter().enumerate() {
                lo[l] = lo[l].min(p);
                hi[l] = hi[l].max(p);
            }
        }
        let lo = lo.into_iter().fold(f32::MAX, f32::min);
        let hi = hi.into_iter().fold(f32::MIN, f32::max);

        // Normalize the cosine field into [0.15, 0.85] so blobs and
        // captions have headroom.
        let span = (hi - lo).max(1e-6);
        img.map_in_place(|p| 0.15 + 0.7 * (p - lo) / span);

        // Seeded soft blobs give each template mid-frequency character.
        for _ in 0..3 {
            let cx = rng.random_range(0.2..0.8) * n;
            let cy = rng.random_range(0.2..0.8) * n;
            let r = rng.random_range(0.08..0.22) * n;
            let tone = if rng.random_bool(0.5) { 0.95 } else { 0.05 };
            img.blend_ellipse(cx, cy, r, r * rng.random_range(0.6..1.4), tone, 0.8);
        }
        img.clamp();
        img
    }
}

/// A structural edit that defines a meme *variant*.
///
/// Positions and sizes are fractions of the image side so the same genome
/// renders consistently at any resolution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VariantOp {
    /// Caption band across the top (the classic image-macro top text).
    CaptionTop {
        /// Band height as a fraction of the image height, in `(0, 0.5]`.
        height_frac: f32,
        /// Band luminance.
        tone: f32,
    },
    /// Caption band across the bottom.
    CaptionBottom {
        /// Band height as a fraction of the image height, in `(0, 0.5]`.
        height_frac: f32,
        /// Band luminance.
        tone: f32,
    },
    /// A soft elliptical overlay (sticker / watermark / pasted face).
    Overlay {
        /// Center x as a fraction of width.
        cx: f32,
        /// Center y as a fraction of height.
        cy: f32,
        /// Radius as a fraction of the side.
        r: f32,
        /// Overlay luminance.
        tone: f32,
    },
    /// Invert the luminance of an axis-aligned region.
    InvertRegion {
        /// Left edge (fraction of width).
        x0: f32,
        /// Top edge (fraction of height).
        y0: f32,
        /// Right edge (fraction of width).
        x1: f32,
        /// Bottom edge (fraction of height).
        y1: f32,
    },
    /// Mirror the image horizontally.
    FlipH,
}

impl VariantOp {
    fn apply(&self, img: &Image) -> Image {
        let side = img.width() as f32;
        match *self {
            VariantOp::CaptionTop { height_frac, tone } => {
                transform::caption_band(img, true, height_frac, tone)
            }
            VariantOp::CaptionBottom { height_frac, tone } => {
                transform::caption_band(img, false, height_frac, tone)
            }
            VariantOp::Overlay { cx, cy, r, tone } => {
                let mut out = img.clone();
                out.blend_ellipse(
                    (cx * side) as f64,
                    (cy * img.height() as f32) as f64,
                    (r * side) as f64,
                    (r * side) as f64,
                    tone,
                    0.9,
                );
                out
            }
            VariantOp::InvertRegion { x0, y0, x1, y1 } => {
                let mut out = img.clone();
                let w = img.width() as f32;
                let h = img.height() as f32;
                let (ax, ay) = ((x0 * w) as usize, (y0 * h) as usize);
                let (bx, by) = ((x1 * w) as usize, (y1 * h) as usize);
                for y in ay..by.min(img.height()) {
                    for x in ax..bx.min(img.width()) {
                        let p = out.get(x, y);
                        out.set(x, y, 1.0 - p);
                    }
                }
                out
            }
            VariantOp::FlipH => transform::flip_horizontal(img),
        }
    }

    /// Draw a random structural op from a seeded RNG.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        match rng.random_range(0..5u8) {
            0 => VariantOp::CaptionTop {
                height_frac: rng.random_range(0.15..0.3),
                tone: if rng.random_bool(0.5) { 0.97 } else { 0.03 },
            },
            1 => VariantOp::CaptionBottom {
                height_frac: rng.random_range(0.15..0.3),
                tone: if rng.random_bool(0.5) { 0.97 } else { 0.03 },
            },
            2 => VariantOp::Overlay {
                cx: rng.random_range(0.25..0.75),
                cy: rng.random_range(0.25..0.75),
                r: rng.random_range(0.15..0.3),
                tone: if rng.random_bool(0.5) { 0.95 } else { 0.05 },
            },
            3 => VariantOp::InvertRegion {
                x0: rng.random_range(0.0..0.4),
                y0: rng.random_range(0.0..0.4),
                x1: rng.random_range(0.6..1.0),
                y1: rng.random_range(0.6..1.0),
            },
            _ => VariantOp::FlipH,
        }
    }
}

/// Strength of within-variant photometric jitter applied per posted
/// image; calibrated so pHash stays within the paper's clustering
/// threshold for the default.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JitterConfig {
    /// Max absolute brightness shift.
    pub brightness: f32,
    /// Max relative contrast change.
    pub contrast: f32,
    /// Gaussian pixel-noise sigma.
    pub noise_sigma: f32,
    /// Probability of a rescale (thumbnail) cycle.
    pub rescale_prob: f64,
    /// Probability of a border crop (re-screenshot of a re-post).
    pub crop_prob: f64,
    /// Max border-crop fraction per side.
    pub crop_max: f32,
}

impl Default for JitterConfig {
    fn default() -> Self {
        Self {
            brightness: 0.07,
            contrast: 0.18,
            noise_sigma: 0.025,
            rescale_prob: 0.55,
            crop_prob: 0.45,
            crop_max: 0.055,
        }
    }
}

/// A meme variant: a template plus an ordered list of structural edits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariantGenome {
    /// The parent meme template.
    pub template: TemplateGenome,
    /// Structural edits distinguishing this variant.
    pub ops: Vec<VariantOp>,
}

impl VariantGenome {
    /// The identity variant — the base template with no edits.
    pub fn base(template: TemplateGenome) -> Self {
        Self {
            template,
            ops: Vec::new(),
        }
    }

    /// A seeded random variant with `n_ops` structural edits.
    pub fn random(template: TemplateGenome, seed: u64, n_ops: usize) -> Self {
        let mut rng = seeded_rng(child_seed(seed, 0x7A51));
        let ops = (0..n_ops).map(|_| VariantOp::random(&mut rng)).collect();
        Self { template, ops }
    }

    /// Render the canonical image of this variant at `size × size`.
    pub fn render(&self, size: usize) -> Image {
        let mut img = self.template.render(size);
        for op in &self.ops {
            img = op.apply(&img);
        }
        img
    }

    /// Render the canonical image from an already-rendered template
    /// base. `base` must equal `self.template.render(size)`; the result
    /// is then byte-identical to [`VariantGenome::render`]. This is the
    /// render-cache build path: one template render is shared by every
    /// variant of the meme instead of being recomputed per variant.
    pub fn render_with_base(&self, base: &Image) -> Image {
        let mut img = base.clone();
        for op in &self.ops {
            img = op.apply(&img);
        }
        img
    }

    /// Apply one posted instance's photometric jitter to an
    /// already-rendered canonical image. `base` must equal
    /// `self.render(size)` for the result to be byte-identical to
    /// [`VariantGenome::render_jittered`] with the same `rng` state:
    /// the draw order is identical, and the first transform reads the
    /// base without mutating it. This is the per-post hot path when the
    /// canonical render comes from a cache.
    ///
    /// The result is exactly `brightness → contrast → gaussian_noise →
    /// rescale_cycle → border_crop` from `meme_imaging::transform`, run
    /// in place on one copy of `base` (plus one spare buffer for the
    /// resampling steps). Brightness consumes no draw, so drawing the
    /// contrast factor first lets both run as one pass.
    pub fn jitter_base<R: Rng + ?Sized>(base: &Image, jitter: &JitterConfig, rng: &mut R) -> Image {
        let b = rng.random_range(-jitter.brightness..=jitter.brightness);
        let c = 1.0 + rng.random_range(-jitter.contrast..=jitter.contrast);
        let mut img = base.clone();
        transform::brightness_contrast_in_place(img.data_mut(), b, c);
        if jitter.noise_sigma > 0.0 {
            transform::add_gaussian_noise(img.data_mut(), jitter.noise_sigma, rng);
        }
        let mut spare = Vec::new();
        if rng.random_bool(jitter.rescale_prob) {
            let factor = rng.random_range(0.7..0.95);
            transform::rescale_cycle_in_place(&mut img, factor, &mut spare);
        }
        if jitter.crop_max > 0.0 && rng.random_bool(jitter.crop_prob) {
            let frac = rng.random_range(0.0..jitter.crop_max);
            transform::border_crop_in_place(&mut img, frac, &mut spare);
        }
        img
    }

    /// Render one posted instance: the canonical image plus photometric
    /// jitter drawn from `rng`.
    pub fn render_jittered<R: Rng + ?Sized>(
        &self,
        size: usize,
        jitter: &JitterConfig,
        rng: &mut R,
    ) -> Image {
        let img = self.render(size);
        Self::jitter_base(&img, jitter, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_render_is_deterministic() {
        let t = TemplateGenome::new(99);
        assert_eq!(t.render(32), t.render(32));
    }

    #[test]
    fn different_seeds_differ() {
        let a = TemplateGenome::new(1).render(32);
        let b = TemplateGenome::new(2).render(32);
        assert!(a.mad(&b).unwrap() > 0.05);
    }

    #[test]
    fn render_stays_in_range() {
        for seed in 0..20 {
            let img = TemplateGenome::new(seed).render(48);
            assert!(img.data().iter().all(|p| (0.0..=1.0).contains(p)));
        }
    }

    #[test]
    #[should_panic(expected = "8x8")]
    fn tiny_render_panics() {
        let _ = TemplateGenome::new(0).render(4);
    }

    #[test]
    fn variant_ops_change_image() {
        let t = TemplateGenome::new(7);
        let base = VariantGenome::base(t).render(32);
        let v = VariantGenome {
            template: t,
            ops: vec![VariantOp::CaptionTop {
                height_frac: 0.25,
                tone: 1.0,
            }],
        };
        let edited = v.render(32);
        assert!(base.mad(&edited).unwrap() > 0.01);
    }

    #[test]
    fn random_variant_is_seeded() {
        let t = TemplateGenome::new(7);
        let a = VariantGenome::random(t, 3, 2);
        let b = VariantGenome::random(t, 3, 2);
        assert_eq!(a, b);
        let c = VariantGenome::random(t, 4, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn jittered_render_differs_slightly() {
        let t = TemplateGenome::new(5);
        let v = VariantGenome::base(t);
        let canon = v.render(32);
        let mut rng = meme_stats::seeded_rng(11);
        let jit = v.render_jittered(32, &JitterConfig::default(), &mut rng);
        let mad = canon.mad(&jit).unwrap();
        assert!(mad > 0.0, "jitter must change pixels");
        assert!(mad < 0.2, "jitter must stay mild, mad {mad}");
    }

    #[test]
    fn render_with_base_matches_render() {
        for seed in [1u64, 5, 40] {
            let t = TemplateGenome::new(seed);
            let v = VariantGenome::random(t, seed ^ 0xA5, 3);
            let base = t.render(64);
            assert_eq!(v.render_with_base(&base).data(), v.render(64).data());
        }
    }

    #[test]
    fn jitter_base_matches_render_jittered() {
        let jitter = JitterConfig::default();
        for seed in [2u64, 9, 31] {
            let t = TemplateGenome::new(seed);
            let v = VariantGenome::random(t, seed.wrapping_mul(3), 2);
            let canon = v.render(64);
            let mut rng_a = meme_stats::seeded_rng(seed ^ 0xF00D);
            let mut rng_b = meme_stats::seeded_rng(seed ^ 0xF00D);
            let direct = v.render_jittered(64, &jitter, &mut rng_a);
            let cached = VariantGenome::jitter_base(&canon, &jitter, &mut rng_b);
            assert_eq!(direct.data(), cached.data(), "seed {seed} diverged");
        }
    }

    #[test]
    fn invert_region_is_local() {
        let t = TemplateGenome::new(8);
        let base = t.render(32);
        let op = VariantOp::InvertRegion {
            x0: 0.5,
            y0: 0.5,
            x1: 1.0,
            y1: 1.0,
        };
        let out = op.apply(&base);
        assert_eq!(out.get(0, 0), base.get(0, 0));
        assert!((out.get(31, 31) - (1.0 - base.get(31, 31))).abs() < 1e-6);
    }

    #[test]
    fn all_random_ops_render() {
        let t = TemplateGenome::new(13);
        let mut rng = meme_stats::seeded_rng(21);
        for _ in 0..30 {
            let op = VariantOp::random(&mut rng);
            let img = op.apply(&t.render(32));
            assert!(img.data().iter().all(|p| p.is_finite()));
        }
    }
}
