//! Differential oracles for the row kernels: every rewritten pixel loop
//! against the per-pixel formulation it replaced, kept here verbatim,
//! compared bit for bit (`to_bits`) and, where the kernel draws from an
//! rng, with the rng state compared afterwards too. The truncated DCT is
//! checked against a crop of the full transform.
//!
//! Each property runs at least 256 cases; `PROPTEST_CASES` raises that.

use meme_imaging::dct::Dct2d;
use meme_imaging::image::Image;
use meme_imaging::resize::{resize_bilinear, resize_box, resize_box_into_f64, BoxResizeScratch};
use meme_imaging::synth::{JitterConfig, TemplateGenome, VariantGenome};
use meme_imaging::transform;
use meme_stats::seeded_rng;
use proptest::prelude::*;
use rand::RngExt;

/// The per-pixel formulations, as they were before the row kernels.
mod per_pixel {
    use meme_imaging::image::Image;
    use meme_stats::dist::normal_sample;
    use meme_stats::{child_seed, seeded_rng};
    use rand::{Rng, RngExt};

    pub fn resize_box(src: &Image, dst_w: usize, dst_h: usize) -> Image {
        let (sw, sh) = (src.width(), src.height());
        let mut out = Image::new(dst_w, dst_h);
        let x_ratio = sw as f64 / dst_w as f64;
        let y_ratio = sh as f64 / dst_h as f64;
        for dy in 0..dst_h {
            let y0 = (dy as f64 * y_ratio).floor() as usize;
            let y1 = (((dy + 1) as f64 * y_ratio).ceil() as usize).clamp(y0 + 1, sh);
            for dx in 0..dst_w {
                let x0 = (dx as f64 * x_ratio).floor() as usize;
                let x1 = (((dx + 1) as f64 * x_ratio).ceil() as usize).clamp(x0 + 1, sw);
                let mut acc = 0.0f64;
                for sy in y0..y1 {
                    for sx in x0..x1 {
                        acc += src.get(sx, sy) as f64;
                    }
                }
                let count = ((x1 - x0) * (y1 - y0)) as f64;
                out.set(dx, dy, (acc / count) as f32);
            }
        }
        out
    }

    pub fn resize_bilinear(src: &Image, dst_w: usize, dst_h: usize) -> Image {
        let (sw, sh) = (src.width(), src.height());
        let mut out = Image::new(dst_w, dst_h);
        let x_ratio = sw as f64 / dst_w as f64;
        let y_ratio = sh as f64 / dst_h as f64;
        for dy in 0..dst_h {
            let fy = (dy as f64 + 0.5) * y_ratio - 0.5;
            let y0 = fy.floor();
            let ty = (fy - y0) as f32;
            for dx in 0..dst_w {
                let fx = (dx as f64 + 0.5) * x_ratio - 0.5;
                let x0 = fx.floor();
                let tx = (fx - x0) as f32;
                let (xi, yi) = (x0 as isize, y0 as isize);
                let p00 = src.get_clamped(xi, yi);
                let p10 = src.get_clamped(xi + 1, yi);
                let p01 = src.get_clamped(xi, yi + 1);
                let p11 = src.get_clamped(xi + 1, yi + 1);
                let top = p00 + (p10 - p00) * tx;
                let bot = p01 + (p11 - p01) * tx;
                out.set(dx, dy, top + (bot - top) * ty);
            }
        }
        out
    }

    pub fn blend_ellipse(
        img: &mut Image,
        cx: f64,
        cy: f64,
        rx: f64,
        ry: f64,
        tone: f32,
        opacity: f32,
    ) {
        if rx <= 0.0 || ry <= 0.0 {
            return;
        }
        let (w, h) = (img.width(), img.height());
        let x_lo = ((cx - rx).floor().max(0.0)) as usize;
        let x_hi = ((cx + rx).ceil() as usize).min(w.saturating_sub(1));
        let y_lo = ((cy - ry).floor().max(0.0)) as usize;
        let y_hi = ((cy + ry).ceil() as usize).min(h.saturating_sub(1));
        for y in y_lo..=y_hi.min(h - 1) {
            for x in x_lo..=x_hi.min(w - 1) {
                let dx = (x as f64 + 0.5 - cx) / rx;
                let dy = (y as f64 + 0.5 - cy) / ry;
                let d2 = dx * dx + dy * dy;
                if d2 < 1.0 {
                    let w = ((1.0 - d2) as f32) * opacity;
                    let p = img.get(x, y);
                    img.set(x, y, p + (tone - p) * w.clamp(0.0, 1.0));
                }
            }
        }
    }

    pub fn template_render(seed: u64, size: usize) -> Image {
        let mut rng = seeded_rng(child_seed(seed, 0xC0DE));
        let mut img = Image::new(size, size);
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
        for y in 0..size {
            for x in 0..size {
                let mut acc = 0.0f64;
                for &(u, v, amp, phase) in &modes {
                    let cx = (std::f64::consts::PI * (x as f64 + 0.5) * u as f64 / n).cos();
                    let cy = (std::f64::consts::PI * (y as f64 + 0.5) * v as f64 / n + phase).cos();
                    acc += amp * cx * cy;
                }
                img.set(x, y, acc as f32);
            }
        }
        let (mut lo, mut hi) = (f32::MAX, f32::MIN);
        for &p in img.data() {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        let span = (hi - lo).max(1e-6);
        img.map_in_place(|p| 0.15 + 0.7 * (p - lo) / span);
        for _ in 0..3 {
            let cx = rng.random_range(0.2..0.8) * n;
            let cy = rng.random_range(0.2..0.8) * n;
            let r = rng.random_range(0.08..0.22) * n;
            let tone = if rng.random_bool(0.5) { 0.95 } else { 0.05 };
            let ry = r * rng.random_range(0.6..1.4);
            blend_ellipse(&mut img, cx, cy, r, ry, tone, 0.8);
        }
        img.clamp();
        img
    }

    pub fn brightness(img: &Image, delta: f32) -> Image {
        let mut out = img.clone();
        out.map_in_place(|p| p + delta);
        out.clamp();
        out
    }

    pub fn contrast(img: &Image, factor: f32) -> Image {
        let mut out = img.clone();
        out.map_in_place(|p| 0.5 + (p - 0.5) * factor);
        out.clamp();
        out
    }

    pub fn gaussian_noise<R: Rng + ?Sized>(img: &Image, sigma: f32, rng: &mut R) -> Image {
        let mut out = img.clone();
        for p in out.data_mut() {
            *p += sigma * normal_sample(rng) as f32;
        }
        out.clamp();
        out
    }

    pub fn border_crop(img: &Image, frac: f32) -> Image {
        let (w, h) = (img.width(), img.height());
        let dx = ((w as f32) * frac) as usize;
        let dy = ((h as f32) * frac) as usize;
        let cw = (w - 2 * dx).max(1);
        let ch = (h - 2 * dy).max(1);
        let mut cropped = Image::new(cw, ch);
        for y in 0..ch {
            for x in 0..cw {
                cropped.set(x, y, img.get(x + dx, y + dy));
            }
        }
        resize_bilinear(&cropped, w, h)
    }

    pub fn rescale_cycle(img: &Image, factor: f32) -> Image {
        let (w, h) = (img.width(), img.height());
        let nw = ((w as f32 * factor).round() as usize).max(1);
        let nh = ((h as f32 * factor).round() as usize).max(1);
        let mid = if factor < 1.0 {
            resize_box(img, nw, nh)
        } else {
            resize_bilinear(img, nw, nh)
        };
        resize_bilinear(&mid, w, h)
    }

    /// The composed chain `VariantGenome::jitter_base` used to run.
    pub fn jitter_base<R: Rng + ?Sized>(
        base: &Image,
        jitter: &super::JitterConfig,
        rng: &mut R,
    ) -> Image {
        let b = rng.random_range(-jitter.brightness..=jitter.brightness);
        let mut img = brightness(base, b);
        let c = 1.0 + rng.random_range(-jitter.contrast..=jitter.contrast);
        img = contrast(&img, c);
        if jitter.noise_sigma > 0.0 {
            img = gaussian_noise(&img, jitter.noise_sigma, rng);
        }
        if rng.random_bool(jitter.rescale_prob) {
            img = rescale_cycle(&img, rng.random_range(0.7..0.95));
        }
        if jitter.crop_max > 0.0 && rng.random_bool(jitter.crop_prob) {
            img = border_crop(&img, rng.random_range(0.0..jitter.crop_max));
        }
        img
    }
}

/// A `w × h` image (1-px edges included) of seeded pixels, some outside
/// `[0, 1]` so the clamps have work to do, and one in eight of any sign
/// and a magnitude from 2^-60 to 2^40: with those mixed in, a reordered
/// `f64` sum is no longer exact, so the box oracle sees the summation
/// order and not only the window geometry.
fn arbitrary_image(max_side: usize) -> impl Strategy<Value = Image> {
    (1..=max_side, 1..=max_side, any::<u64>()).prop_map(|(w, h, seed)| {
        let mut rng = seeded_rng(seed);
        let data = (0..w * h)
            .map(|_| {
                if rng.random_range(0..8u8) == 0 {
                    let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
                    let exp = rng.random_range(-60..=40i32);
                    sign * rng.random_range(1.0f32..2.0) * 2f32.powi(exp)
                } else {
                    rng.random_range(-0.1f32..1.1)
                }
            })
            .collect();
        Image::from_raw(w, h, data).unwrap()
    })
}

/// A `w × h` image of seeded pixels as [`arbitrary_image`] draws them,
/// at a size the caller picks.
fn seeded_image(w: usize, h: usize, seed: u64) -> Image {
    let mut rng = seeded_rng(seed);
    let data = (0..w * h)
        .map(|_| {
            if rng.random_range(0..8u8) == 0 {
                let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
                let exp = rng.random_range(-60..=40i32);
                sign * rng.random_range(1.0f32..2.0) * 2f32.powi(exp)
            } else {
                rng.random_range(-0.1f32..1.1)
            }
        })
        .collect();
    Image::from_raw(w, h, data).unwrap()
}

/// An `n × n` plane of `f64`s, one in four of them exotic: a signed
/// zero, a subnormal, or any sign at a magnitude from 2^-1000 to 2^500
/// (small enough that no sum of 32 products with the basis overflows).
fn arbitrary_plane(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    (0..n * n)
        .map(|_| {
            let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
            match rng.random_range(0..16u8) {
                0 => sign * 0.0,
                1 => sign * f64::from_bits(rng.random_range(1..1u64 << 52)),
                2 | 3 => {
                    sign * rng.random_range(1.0f64..2.0) * 2f64.powi(rng.random_range(-1000..=500))
                }
                _ => rng.random_range(-1.0f64..2.0),
            }
        })
        .collect()
}

fn same_bits(got: &Image, want: &Image) {
    assert_eq!((got.width(), got.height()), (want.width(), want.height()));
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "pixel {i} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: ProptestConfig::default().cases.max(256) })]

    #[test]
    fn resize_box_matches_per_pixel(img in arbitrary_image(48), w in 1usize..72, h in 1usize..72) {
        same_bits(&resize_box(&img, w, h), &per_pixel::resize_box(&img, w, h));
    }

    #[test]
    fn resize_box_into_f64_matches_per_pixel(
        images in prop::collection::vec(arbitrary_image(48), 1..4),
        w in 1usize..72,
        h in 1usize..72,
    ) {
        // One scratch across images of different shapes: the windows are
        // re-derived whenever the shape changes.
        let mut scratch = BoxResizeScratch::new();
        for img in &images {
            let mut plane = vec![0.0f64; w * h];
            resize_box_into_f64(img, w, h, &mut scratch, &mut plane);
            let want = per_pixel::resize_box(img, w, h);
            for (i, (&got, &want)) in plane.iter().zip(want.data()).enumerate() {
                prop_assert_eq!(got.to_bits(), (want as f64).to_bits(), "pixel {} diverged", i);
            }
        }
    }

    #[test]
    fn exact_ratio_windows_match_per_pixel(shape in 0usize..3, seed: u64) {
        // The windows tile the row: 2, 2 and 3 source pixels per column.
        let (src, dst) = [(64usize, 32usize), (48, 24), (96, 32)][shape];
        let img = seeded_image(src, src, seed);
        let want = per_pixel::resize_box(&img, dst, dst);
        same_bits(&resize_box(&img, dst, dst), &want);
        let mut plane = vec![0.0f64; dst * dst];
        resize_box_into_f64(&img, dst, dst, &mut BoxResizeScratch::new(), &mut plane);
        for (i, (&got, &want)) in plane.iter().zip(want.data()).enumerate() {
            prop_assert_eq!(got.to_bits(), (want as f64).to_bits(), "pixel {} diverged", i);
        }
    }

    #[test]
    fn forward_topleft_is_a_crop_of_forward(n in 1usize..40, hs in 1usize..40, seed: u64) {
        let hs = hs.min(n);
        let plan = Dct2d::new(n);
        let plane = arbitrary_plane(n, seed);
        let full = plan.forward(&plane);
        let (mut tmp, mut block) = (vec![0.0; hs * n], vec![0.0; hs * hs]);
        plan.forward_topleft_into(&plane, hs, &mut tmp, &mut block);
        for y in 0..hs {
            for x in 0..hs {
                prop_assert_eq!(
                    block[y * hs + x].to_bits(),
                    full[y * n + x].to_bits(),
                    "coefficient ({}, {}) diverged", y, x
                );
            }
        }
    }

    #[test]
    fn resize_bilinear_matches_per_pixel(img in arbitrary_image(48), w in 1usize..72, h in 1usize..72) {
        same_bits(&resize_bilinear(&img, w, h), &per_pixel::resize_bilinear(&img, w, h));
    }

    #[test]
    fn blend_ellipse_matches_per_pixel(
        img in arbitrary_image(40),
        cx in -30.0f64..70.0,
        cy in -30.0f64..70.0,
        rx in -2.0f64..30.0,
        ry in -2.0f64..30.0,
        tone in 0.0f32..1.0,
        opacity in 0.0f32..1.5,
    ) {
        // Centres and radii reach well outside the image: empty ranges
        // must be no-ops, never a panic.
        let mut got = img.clone();
        got.blend_ellipse(cx, cy, rx, ry, tone, opacity);
        let mut want = img;
        per_pixel::blend_ellipse(&mut want, cx, cy, rx, ry, tone, opacity);
        same_bits(&got, &want);
    }

    #[test]
    fn template_render_matches_per_pixel(seed: u64, size in 0usize..3) {
        let size = [8usize, 32, 64][size];
        same_bits(&TemplateGenome::new(seed).render(size), &per_pixel::template_render(seed, size));
    }

    #[test]
    fn template_renders_of_mixed_sizes_match_per_pixel(seed: u64) {
        // One thread renders 8, 64, 32 and 64 in turn, so each render
        // follows one of another size.
        for (i, size) in [8usize, 64, 32, 64].into_iter().enumerate() {
            let seed = seed.wrapping_add(i as u64);
            same_bits(&TemplateGenome::new(seed).render(size), &per_pixel::template_render(seed, size));
        }
    }

    #[test]
    fn photometric_wrappers_match_per_pixel(
        img in arbitrary_image(40),
        delta in -0.5f32..0.5,
        factor in 0.1f32..3.0,
        sigma in 0.0f32..0.2,
        seed: u64,
    ) {
        same_bits(&transform::brightness(&img, delta), &per_pixel::brightness(&img, delta));
        same_bits(&transform::contrast(&img, factor), &per_pixel::contrast(&img, factor));
        let (mut a, mut b) = (seeded_rng(seed), seeded_rng(seed));
        let got = transform::gaussian_noise(&img, sigma, &mut a);
        same_bits(&got, &per_pixel::gaussian_noise(&img, sigma, &mut b));
        prop_assert_eq!(a, b, "noise left the rng elsewhere");
    }

    #[test]
    fn resampling_transforms_match_per_pixel(
        img in arbitrary_image(40),
        factor in 0.05f32..3.0,
        frac in 0.0f32..0.5,
    ) {
        same_bits(&transform::rescale_cycle(&img, factor), &per_pixel::rescale_cycle(&img, factor));
        same_bits(&transform::border_crop(&img, frac), &per_pixel::border_crop(&img, frac));
    }

    #[test]
    fn jitter_base_matches_the_composed_chain(
        template: u64,
        variant_seed: u64,
        n_ops in 0usize..3,
        rng_seed: u64,
        noise: bool,
        crop: bool,
    ) {
        let v = VariantGenome::random(TemplateGenome::new(template), variant_seed, n_ops);
        let base = v.render(64);
        let jitter = JitterConfig {
            noise_sigma: if noise { 0.025 } else { 0.0 },
            crop_max: if crop { 0.055 } else { 0.0 },
            ..JitterConfig::default()
        };
        let (mut a, mut b) = (seeded_rng(rng_seed), seeded_rng(rng_seed));
        let got = VariantGenome::jitter_base(&base, &jitter, &mut a);
        same_bits(&got, &per_pixel::jitter_base(&base, &jitter, &mut b));
        prop_assert_eq!(a, b, "jitter left the rng elsewhere");
    }

    #[test]
    fn jitter_base_matches_on_any_raster(img in arbitrary_image(40), rng_seed: u64) {
        let jitter = JitterConfig { rescale_prob: 0.5, crop_prob: 0.5, ..JitterConfig::default() };
        let (mut a, mut b) = (seeded_rng(rng_seed), seeded_rng(rng_seed));
        let got = VariantGenome::jitter_base(&img, &jitter, &mut a);
        same_bits(&got, &per_pixel::jitter_base(&img, &jitter, &mut b));
        prop_assert_eq!(a, b);
    }
}
