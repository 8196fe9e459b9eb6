//! Photometric and geometric perturbations.
//!
//! §2.2 of the paper relies on pHash being "robust against changes in the
//! images, e.g., signal processing operations and direct manipulation".
//! These are exactly the operations meme re-posters apply: recompression,
//! brightness/contrast tweaks, small crops, caption bars, watermark
//! overlays. The simulator uses them to produce within-variant jitter and
//! the test suite uses them to verify hash robustness.

use crate::dct::Dct2d;
use crate::image::Image;
use crate::resize::{bilinear_into, box_filter, BoxResizeScratch};
use meme_stats::dist::normal_fill;
use rand::Rng;

/// Brightness's per-pixel step: shift, then clamp.
#[inline]
fn shift(p: f32, delta: f32) -> f32 {
    (p + delta).clamp(0.0, 1.0)
}

/// Contrast's per-pixel step: scale around mid-gray, then clamp.
#[inline]
fn stretch(p: f32, factor: f32) -> f32 {
    (0.5 + (p - 0.5) * factor).clamp(0.0, 1.0)
}

/// Add a constant to every pixel (brightness shift), then clamp.
pub fn brightness(img: &Image, delta: f32) -> Image {
    let mut out = img.clone();
    out.map_in_place(|p| shift(p, delta));
    out
}

/// Scale contrast around mid-gray by `factor`, then clamp.
pub fn contrast(img: &Image, factor: f32) -> Image {
    let mut out = img.clone();
    out.map_in_place(|p| stretch(p, factor));
    out
}

/// [`brightness`] then [`contrast`], in place and in one pass: each
/// pixel goes through both steps before the next is read.
pub(crate) fn brightness_contrast_in_place(px: &mut [f32], delta: f32, factor: f32) {
    for p in px {
        *p = stretch(shift(*p, delta), factor);
    }
}

/// Gamma-correct (`p^gamma` on clamped pixels).
///
/// # Panics
/// Panics when `gamma <= 0`.
pub fn gamma(img: &Image, gamma: f32) -> Image {
    assert!(gamma > 0.0, "gamma must be positive");
    let mut out = img.clone();
    out.map_in_place(|p| p.clamp(0.0, 1.0).powf(gamma));
    out
}

/// Add i.i.d. Gaussian pixel noise with standard deviation `sigma`.
pub fn gaussian_noise<R: Rng + ?Sized>(img: &Image, sigma: f32, rng: &mut R) -> Image {
    let mut out = img.clone();
    add_gaussian_noise(out.data_mut(), sigma, rng);
    out
}

/// [`gaussian_noise`] in place: pixel `i` gets the `i`-th normal draw
/// (`meme_stats::dist::normal_fill`, in blocks of 256), scaled by
/// `sigma`, then is clamped.
pub(crate) fn add_gaussian_noise<R: Rng + ?Sized>(px: &mut [f32], sigma: f32, rng: &mut R) {
    let mut z = [0.0f64; 256];
    for block in px.chunks_mut(z.len()) {
        let z = &mut z[..block.len()];
        normal_fill(z, rng);
        for (p, &z) in block.iter_mut().zip(z.iter()) {
            *p = (*p + sigma * z as f32).clamp(0.0, 1.0);
        }
    }
}

/// Horizontal mirror.
pub fn flip_horizontal(img: &Image) -> Image {
    let (w, h) = (img.width(), img.height());
    let mut out = Image::new(w, h);
    for y in 0..h {
        for x in 0..w {
            out.set(x, y, img.get(w - 1 - x, y));
        }
    }
    out
}

/// Crop `frac` of the border away on all sides and resize back to the
/// original dimensions (a common re-post manipulation).
///
/// # Panics
/// Panics unless `0 <= frac < 0.5`.
pub fn border_crop(img: &Image, frac: f32) -> Image {
    let mut out = img.clone();
    border_crop_in_place(&mut out, frac, &mut Vec::new());
    out
}

/// [`border_crop`] in place; the cropped window is copied into `spare`
/// and resampled from there back into `img`.
pub(crate) fn border_crop_in_place(img: &mut Image, frac: f32, spare: &mut Vec<f32>) {
    assert!(
        (0.0..0.5).contains(&frac),
        "crop fraction must be in [0, 0.5)"
    );
    let (w, h) = (img.width(), img.height());
    let dx = ((w as f32) * frac) as usize;
    let dy = ((h as f32) * frac) as usize;
    let cw = (w - 2 * dx).max(1);
    let ch = (h - 2 * dy).max(1);
    spare.clear();
    for row in img.data().chunks_exact(w).skip(dy).take(ch) {
        spare.extend_from_slice(&row[dx..dx + cw]);
    }
    bilinear_into(spare, cw, ch, img.data_mut(), w, h);
}

/// Rescale by `factor` (via box filter when shrinking, bilinear when
/// growing) and back to the original size; models thumbnailing /
/// re-upload cycles.
///
/// # Panics
/// Panics when `factor <= 0`.
pub fn rescale_cycle(img: &Image, factor: f32) -> Image {
    let mut out = img.clone();
    rescale_cycle_in_place(&mut out, factor, &mut Vec::new());
    out
}

/// [`rescale_cycle`] in place; the intermediate size lives in `spare`.
pub(crate) fn rescale_cycle_in_place(img: &mut Image, factor: f32, spare: &mut Vec<f32>) {
    assert!(factor > 0.0, "scale factor must be positive");
    let (w, h) = (img.width(), img.height());
    let nw = ((w as f32 * factor).round() as usize).max(1);
    let nh = ((h as f32 * factor).round() as usize).max(1);
    spare.clear();
    spare.resize(nw * nh, 0.0);
    if factor < 1.0 {
        box_filter(img, &mut BoxResizeScratch::new(), spare, nw, nh);
    } else {
        bilinear_into(img.data(), w, h, spare, nw, nh);
    }
    bilinear_into(spare, nw, nh, img.data_mut(), w, h);
}

/// Paint a caption band (top or bottom) with pseudo-text texture — the
/// classic image-macro manipulation. `height_frac` is the band height as
/// a fraction of the image, `tone` the band luminance.
///
/// # Panics
/// Panics unless `0 < height_frac <= 0.5`.
pub fn caption_band(img: &Image, top: bool, height_frac: f32, tone: f32) -> Image {
    assert!(
        height_frac > 0.0 && height_frac <= 0.5,
        "caption band height must be in (0, 0.5]"
    );
    let (w, h) = (img.width(), img.height());
    let band = ((h as f32 * height_frac) as usize).max(1);
    let mut out = img.clone();
    let (y0, y1) = if top { (0, band) } else { (h - band, h) };
    out.fill_rect(0, y0, w, y1, tone);
    // Pseudo-text: alternating short dashes in contrasting tone on the
    // band's center rows, so captions carry mid-frequency energy the way
    // real text does.
    let text_tone = if tone > 0.5 { tone - 0.6 } else { tone + 0.6 };
    let rows = [(y0 + band / 3), (y0 + 2 * band / 3)];
    for &row in &rows {
        if row >= y1 {
            continue;
        }
        let mut x = w / 12;
        while x + 3 < w - w / 12 {
            for dx in 0..3 {
                out.set(x + dx, row, text_tone.clamp(0.0, 1.0));
            }
            x += 5;
        }
    }
    out
}

/// JPEG-like lossy quantization: blockwise DCT, uniform quantization of
/// coefficients with step `step`, inverse DCT. Models recompression
/// artifacts.
///
/// # Panics
/// Panics when `step <= 0`.
pub fn quantize_dct(img: &Image, block: usize, step: f64) -> Image {
    assert!(step > 0.0, "quantization step must be positive");
    let block = block.max(2);
    let plan = Dct2d::new(block);
    let (w, h) = (img.width(), img.height());
    let mut out = img.clone();
    let mut buf = vec![0.0f64; block * block];
    for by in (0..h).step_by(block) {
        for bx in (0..w).step_by(block) {
            for y in 0..block {
                for x in 0..block {
                    buf[y * block + x] =
                        img.get_clamped((bx + x) as isize, (by + y) as isize) as f64;
                }
            }
            let mut coeffs = plan.forward(&buf);
            for c in &mut coeffs {
                *c = (*c / step).round() * step;
            }
            let rec = plan.inverse(&coeffs);
            for y in 0..block {
                for x in 0..block {
                    if bx + x < w && by + y < h {
                        out.set(bx + x, by + y, rec[y * block + x] as f32);
                    }
                }
            }
        }
    }
    out.clamp();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use meme_stats::seeded_rng;

    fn gradient(w: usize, h: usize) -> Image {
        let mut img = Image::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, (x + y) as f32 / (w + h) as f32);
            }
        }
        img
    }

    #[test]
    fn brightness_shifts_mean() {
        let img = Image::filled(8, 8, 0.4);
        let out = brightness(&img, 0.2);
        assert!((out.mean() - 0.6).abs() < 1e-6);
    }

    #[test]
    fn brightness_clamps() {
        let img = Image::filled(4, 4, 0.9);
        let out = brightness(&img, 0.5);
        assert_eq!(out.mean(), 1.0);
    }

    #[test]
    fn contrast_preserves_midgray() {
        let img = Image::filled(4, 4, 0.5);
        let out = contrast(&img, 2.0);
        assert_eq!(out.mean(), 0.5);
    }

    #[test]
    fn contrast_expands_spread() {
        let img = gradient(8, 8);
        let out = contrast(&img, 1.5);
        let spread_in = img.data().iter().cloned().fold(f32::MIN, f32::max)
            - img.data().iter().cloned().fold(f32::MAX, f32::min);
        let spread_out = out.data().iter().cloned().fold(f32::MIN, f32::max)
            - out.data().iter().cloned().fold(f32::MAX, f32::min);
        assert!(spread_out > spread_in);
    }

    #[test]
    fn gamma_identity() {
        let img = gradient(6, 6);
        let out = gamma(&img, 1.0);
        assert!(img.mad(&out).unwrap() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn gamma_rejects_nonpositive() {
        let _ = gamma(&Image::new(2, 2), 0.0);
    }

    #[test]
    fn noise_is_small_and_seeded() {
        let img = Image::filled(16, 16, 0.5);
        let mut r1 = seeded_rng(5);
        let mut r2 = seeded_rng(5);
        let a = gaussian_noise(&img, 0.05, &mut r1);
        let b = gaussian_noise(&img, 0.05, &mut r2);
        assert_eq!(a, b);
        let mad = img.mad(&a).unwrap();
        assert!(mad > 0.0 && mad < 0.1, "mad {mad}");
    }

    #[test]
    fn flip_is_involution() {
        let img = gradient(7, 5);
        let back = flip_horizontal(&flip_horizontal(&img));
        assert_eq!(img, back);
    }

    #[test]
    fn flip_moves_pixels() {
        let mut img = Image::new(4, 1);
        img.set(0, 0, 1.0);
        let out = flip_horizontal(&img);
        assert_eq!(out.get(3, 0), 1.0);
        assert_eq!(out.get(0, 0), 0.0);
    }

    #[test]
    fn border_crop_keeps_dimensions() {
        let img = gradient(32, 32);
        let out = border_crop(&img, 0.1);
        assert_eq!(out.width(), 32);
        assert_eq!(out.height(), 32);
        // Zero crop is identity-ish.
        let same = border_crop(&img, 0.0);
        assert!(img.mad(&same).unwrap() < 1e-5);
    }

    #[test]
    fn rescale_cycle_approximates_original() {
        let img = gradient(32, 32);
        let out = rescale_cycle(&img, 0.5);
        assert_eq!(out.width(), 32);
        let mad = img.mad(&out).unwrap();
        assert!(mad < 0.05, "mad {mad}");
    }

    #[test]
    fn caption_band_paints_top() {
        let img = Image::filled(32, 32, 0.5);
        let out = caption_band(&img, true, 0.25, 1.0);
        // Top rows painted bright (except text dashes), bottom untouched.
        assert!(out.get(0, 0) > 0.9);
        assert_eq!(out.get(0, 31), 0.5);
        // Text rows contain dark dashes.
        let has_dark = (0..32).any(|x| out.get(x, 2) < 0.5);
        assert!(has_dark);
    }

    #[test]
    fn caption_band_paints_bottom() {
        let img = Image::filled(32, 32, 0.5);
        let out = caption_band(&img, false, 0.25, 0.0);
        assert!(out.get(0, 31) < 0.1);
        assert_eq!(out.get(0, 0), 0.5);
    }

    #[test]
    fn quantize_with_tiny_step_is_near_identity() {
        let img = gradient(16, 16);
        let out = quantize_dct(&img, 8, 1e-6);
        assert!(img.mad(&out).unwrap() < 1e-4);
    }

    #[test]
    fn quantize_with_big_step_degrades() {
        let img = gradient(16, 16);
        let fine = quantize_dct(&img, 8, 0.01);
        let coarse = quantize_dct(&img, 8, 0.5);
        assert!(img.mad(&coarse).unwrap() > img.mad(&fine).unwrap());
    }
}
