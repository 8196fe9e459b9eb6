//! Image resampling.
//!
//! pHash (Step 1 of the pipeline) first shrinks every image to 32×32.
//! Downscaling uses an area-averaging **box filter** — the standard choice
//! for large shrink factors because it integrates over the source area
//! instead of point-sampling (which would alias and destroy hash
//! stability). Upscaling and mild rescaling use **bilinear** sampling.
//!
//! Both filters derive their geometry once per axis (box windows per
//! destination column and row, bilinear taps likewise) instead of per
//! pixel; every destination pixel is still computed from the same
//! source pixels by the same expression in the same order. What the
//! kernels change is the loop around that expression: the box filter
//! picks its walk from the window geometry, and bilinear blends each
//! source row along x once for every destination row that reads it.

use crate::image::Image;

/// Resize with an area-averaging box filter; the right filter for
/// downscaling. Each destination pixel is the mean of the source
/// rectangle it covers.
pub fn resize_box(src: &Image, dst_w: usize, dst_h: usize) -> Image {
    assert!(dst_w > 0 && dst_h > 0, "target dimensions must be non-zero");
    let mut out = Image::new(dst_w, dst_h);
    box_filter(
        src,
        &mut BoxResizeScratch::new(),
        out.data_mut(),
        dst_w,
        dst_h,
    );
    out
}

/// Cached box-filter geometry for [`resize_box_into_f64`].
///
/// The per-axis source windows depend only on the source/destination
/// shapes, which are fixed for a hashing worker (always
/// `input × input → 32 × 32`), so they are computed once and reused for
/// every image. Steady state the windows never reallocate; geometry is
/// recomputed only when the shape actually changes.
#[derive(Debug, Clone, Default)]
pub struct BoxResizeScratch {
    src_w: usize,
    src_h: usize,
    dst_w: usize,
    dst_h: usize,
    /// Half-open source-row window `[y0, y1)` per destination row.
    y_windows: Vec<(usize, usize)>,
    /// `(x0, dx, width)` of every column's window, ordered by width: one
    /// run per width, so the walk over a run has a fixed inner length.
    /// An image side is far below 2^32, so column and width fit a `u32`.
    by_width: Vec<(usize, u32, u32)>,
    /// One running sum per destination column of the current row, for
    /// the width-halving walk.
    row_acc: Vec<f64>,
}

impl BoxResizeScratch {
    /// An empty scratch; geometry is computed on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make the cached windows match the requested geometry.
    fn ensure(&mut self, src_w: usize, src_h: usize, dst_w: usize, dst_h: usize) {
        if (self.src_w, self.src_h, self.dst_w, self.dst_h) == (src_w, src_h, dst_w, dst_h)
            && !self.by_width.is_empty()
        {
            return;
        }
        let x_ratio = src_w as f64 / dst_w as f64;
        let y_ratio = src_h as f64 / dst_h as f64;
        self.by_width.clear();
        for dx in 0..dst_w {
            let x0 = floor(dx as f64 * x_ratio) as usize;
            let x1 = ceil((dx + 1) as f64 * x_ratio).clamp(x0 + 1, src_w);
            self.by_width.push((x0, dx as u32, (x1 - x0) as u32));
        }
        self.by_width
            .sort_unstable_by_key(|&(_, dx, width)| (width, dx));
        self.y_windows.clear();
        for dy in 0..dst_h {
            let y0 = floor(dy as f64 * y_ratio) as usize;
            let y1 = ceil((dy + 1) as f64 * y_ratio).clamp(y0 + 1, src_h);
            self.y_windows.push((y0, y1));
        }
        self.row_acc.resize(dst_w, 0.0);
        (self.src_w, self.src_h) = (src_w, src_h);
        (self.dst_w, self.dst_h) = (dst_w, dst_h);
    }
}

/// The box filter both entry points share: each destination value
/// accumulates its source rectangle row-major in `f64` from `0.0`,
/// divides by the pixel count and rounds to `f32`; `T::from` then
/// widens (or keeps) it. The rectangle sum is not split into a
/// horizontal and a vertical pass: that would change the summation
/// order, and with it the bits.
///
/// Destination pixels are independent, so the order in which they are
/// summed is free. When the filter halves the width (pHash's 64 → 32),
/// a destination row is summed source row by source row, two pixels at
/// a time, into one accumulator per column. Otherwise the columns go in
/// runs of equal window width, so no inner loop changes length from one
/// column to the next, and each window sums its rectangle in a
/// register, two windows side by side.
pub(crate) fn box_filter<T: From<f32>>(
    src: &Image,
    scratch: &mut BoxResizeScratch,
    out: &mut [T],
    dst_w: usize,
    dst_h: usize,
) {
    let (sw, sh) = (src.width(), src.height());
    scratch.ensure(sw, sh, dst_w, dst_h);
    let BoxResizeScratch {
        y_windows,
        by_width,
        row_acc,
        ..
    } = scratch;
    let data = src.data();
    let halves = 2 * dst_w == sw;
    for (row, &(y0, y1)) in out.chunks_exact_mut(dst_w).zip(y_windows.iter()) {
        let rows = &data[y0 * sw..y1 * sw];
        if halves {
            row_acc.fill(0.0);
            for src_row in rows.chunks_exact(sw) {
                for (acc, pair) in row_acc.iter_mut().zip(src_row.chunks_exact(2)) {
                    *acc += pair[0] as f64;
                    *acc += pair[1] as f64;
                }
            }
            let count = (2 * (y1 - y0)) as f64;
            for (o, &acc) in row.iter_mut().zip(row_acc.iter()) {
                *o = T::from((acc / count) as f32);
            }
            continue;
        }
        for run in by_width.chunk_by(|a, b| a.2 == b.2) {
            // Literal widths let the common runs unroll.
            match run[0].2 as usize {
                2 => box_run(row, rows, sw, 2, run),
                3 => box_run(row, rows, sw, 3, run),
                width => box_run(row, rows, sw, width, run),
            }
        }
    }
}

/// The destination pixels of a run of `width`-pixel windows over the
/// source rows `rows`: each sums its rectangle row-major in a register,
/// two side by side so that their addition chains overlap.
#[inline(always)]
fn box_run<T: From<f32>>(
    out_row: &mut [T],
    rows: &[f32],
    sw: usize,
    width: usize,
    run: &[(usize, u32, u32)],
) {
    let count = (width * (rows.len() / sw)) as f64;
    let mut pairs = run.chunks_exact(2);
    for pair in &mut pairs {
        let ((xa, da, _), (xb, db, _)) = (pair[0], pair[1]);
        let (da, db) = (da as usize, db as usize);
        let (mut a, mut b) = (0.0f64, 0.0f64);
        for src_row in rows.chunks_exact(sw) {
            let (pa, pb) = (&src_row[xa..xa + width], &src_row[xb..xb + width]);
            for (&pa, &pb) in pa.iter().zip(pb) {
                a += pa as f64;
                b += pb as f64;
            }
        }
        out_row[da] = T::from((a / count) as f32);
        out_row[db] = T::from((b / count) as f32);
    }
    for &(x0, dx, _) in pairs.remainder() {
        let dx = dx as usize;
        let mut acc = 0.0f64;
        for src_row in rows.chunks_exact(sw) {
            for &p in &src_row[x0..x0 + width] {
                acc += p as f64;
            }
        }
        out_row[dx] = T::from((acc / count) as f32);
    }
}

/// Box-resize `src` straight into a caller-provided `f64` plane —
/// the allocation-free fast path of the pHash kernel.
///
/// Produces exactly `resize_box(src, dst_w, dst_h)` followed by an
/// `as f64` widening of every pixel: both run the same filter, whose
/// window bounds come from the scratch instead of being re-derived per
/// image.
///
/// # Panics
/// Panics when a target dimension is zero or
/// `out.len() != dst_w * dst_h`.
pub fn resize_box_into_f64(
    src: &Image,
    dst_w: usize,
    dst_h: usize,
    scratch: &mut BoxResizeScratch,
    out: &mut [f64],
) {
    assert!(dst_w > 0 && dst_h > 0, "target dimensions must be non-zero");
    assert_eq!(out.len(), dst_w * dst_h, "output plane must be dst_w*dst_h");
    box_filter(src, scratch, out, dst_w, dst_h);
}

/// Resize with bilinear interpolation; the right filter for upscaling and
/// small adjustments (used by the scale-jitter perturbation).
pub fn resize_bilinear(src: &Image, dst_w: usize, dst_h: usize) -> Image {
    assert!(dst_w > 0 && dst_h > 0, "target dimensions must be non-zero");
    let mut out = Image::new(dst_w, dst_h);
    bilinear_into(
        src.data(),
        src.width(),
        src.height(),
        out.data_mut(),
        dst_w,
        dst_h,
        &mut BilinearScratch::default(),
    );
    out
}

/// `f.floor()` of a finite `f` well inside the `isize` range, without
/// the libm call `floor` is on baseline x86-64: truncate, then step
/// down when truncation rounded up.
#[inline]
fn floor(f: f64) -> isize {
    let t = f as isize;
    if t as f64 > f {
        t - 1
    } else {
        t
    }
}

/// `f.ceil()` of a finite `f` in `[0, 2^53)`, likewise.
#[inline]
fn ceil(f: f64) -> usize {
    let t = f as usize;
    if (t as f64) < f {
        t + 1
    } else {
        t
    }
}

/// Bilinear taps along one axis: for each destination index, the two
/// source indices it blends (clamped to the border, as sampling past
/// the edge repeats the edge) and the weight of the second.
fn bilinear_taps(taps: &mut Vec<(usize, usize, f32)>, src_len: usize, dst_len: usize) {
    // Align pixel centers.
    let ratio = src_len as f64 / dst_len as f64;
    let last = src_len as isize - 1;
    taps.clear();
    taps.extend((0..dst_len).map(|d| {
        let f = (d as f64 + 0.5) * ratio - 0.5;
        let i = floor(f);
        (
            i.clamp(0, last) as usize,
            (i + 1).clamp(0, last) as usize,
            (f - i as f64) as f32,
        )
    }));
}

/// Reusable buffers of [`bilinear_into`].
#[derive(Debug, Clone, Default)]
pub(crate) struct BilinearScratch {
    x_taps: Vec<(usize, usize, f32)>,
    y_taps: Vec<(usize, usize, f32)>,
    /// A source row blended along x (`dst_w` wide): `top` is row `y0` of
    /// the destination row's taps, `bot` row `y1`.
    top: Vec<f32>,
    bot: Vec<f32>,
}

/// Bilinear-resample the row-major `sw × sh` raster `src` into the
/// `dst_w × dst_h` raster `out`. Callers guarantee non-zero dimensions
/// and matching lengths.
///
/// A destination pixel is `top + (bot - top) * ty`, where `top` and
/// `bot` are its two source rows blended along x,
/// `p0 + (p1 - p0) * tx`. Those depend on the source row and the column
/// alone, so each source row is blended along x once, into `top` or
/// `bot`, and reused by every destination row that reads it (the
/// y taps never decrease); the y blend is then one pass over
/// contiguous rows.
pub(crate) fn bilinear_into(
    src: &[f32],
    sw: usize,
    sh: usize,
    out: &mut [f32],
    dst_w: usize,
    dst_h: usize,
    scratch: &mut BilinearScratch,
) {
    let BilinearScratch {
        x_taps,
        y_taps,
        top,
        bot,
    } = scratch;
    bilinear_taps(x_taps, sw, dst_w);
    bilinear_taps(y_taps, sh, dst_h);
    top.resize(dst_w, 0.0);
    bot.resize(dst_w, 0.0);
    let blend_row = |h: &mut [f32], y: usize| {
        let row = &src[y * sw..(y + 1) * sw];
        for (h, &(x0, x1, tx)) in h.iter_mut().zip(x_taps.iter()) {
            let (p0, p1) = (row[x0], row[x1]);
            *h = p0 + (p1 - p0) * tx;
        }
    };
    // The source rows `top` and `bot` hold (`usize::MAX`: none yet).
    let (mut top_y, mut bot_y) = (usize::MAX, usize::MAX);
    for (row, &(y0, y1, ty)) in out.chunks_exact_mut(dst_w).zip(y_taps.iter()) {
        if y0 != top_y {
            if y0 == bot_y {
                std::mem::swap(top, bot);
                (top_y, bot_y) = (bot_y, top_y);
            } else {
                blend_row(top, y0);
                top_y = y0;
            }
        }
        if y1 != bot_y {
            blend_row(bot, y1);
            bot_y = y1;
        }
        for ((o, &t), &b) in row.iter_mut().zip(top.iter()).zip(bot.iter()) {
            *o = t + (b - t) * ty;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_resize_preserves_constant() {
        let src = Image::filled(17, 13, 0.42);
        let out = resize_box(&src, 4, 4);
        assert!(out.data().iter().all(|p| (p - 0.42).abs() < 1e-6));
    }

    #[test]
    fn box_resize_preserves_mean_for_exact_factors() {
        // 4x4 image with known mean, shrink by 2: mean must be identical.
        let data: Vec<f32> = (0..16).map(|i| i as f32 / 15.0).collect();
        let src = Image::from_raw(4, 4, data).unwrap();
        let out = resize_box(&src, 2, 2);
        assert!((out.mean() - src.mean()).abs() < 1e-6);
    }

    #[test]
    fn box_resize_identity() {
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let src = Image::from_raw(4, 3, data).unwrap();
        let out = resize_box(&src, 4, 3);
        assert_eq!(out.data(), src.data());
    }

    #[test]
    fn bilinear_identity() {
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let src = Image::from_raw(4, 3, data).unwrap();
        let out = resize_bilinear(&src, 4, 3);
        for (a, b) in out.data().iter().zip(src.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn bilinear_upscale_interpolates() {
        let src = Image::from_raw(2, 1, vec![0.0, 1.0]).unwrap();
        let out = resize_bilinear(&src, 4, 1);
        // Values must be non-decreasing left to right.
        let d = out.data();
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
        assert!(d[0] < 0.3 && d[3] > 0.7);
    }

    #[test]
    fn downscale_to_single_pixel_is_mean() {
        let data: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let src = Image::from_raw(3, 3, data).unwrap();
        let out = resize_box(&src, 1, 1);
        assert!((out.get(0, 0) - 4.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_target_panics() {
        let src = Image::new(2, 2);
        let _ = resize_box(&src, 0, 1);
    }

    #[test]
    fn into_f64_is_bit_exact_vs_resize_box() {
        // The pHash kernel depends on exact equality, including the
        // f32 rounding step, across even and awkward shrink ratios.
        for (sw, sh) in [(64usize, 64usize), (57, 61), (33, 32), (8, 40)] {
            let data: Vec<f32> = (0..sw * sh)
                .map(|i| ((i * 2654435761) % 1000) as f32 / 1000.0)
                .collect();
            let src = Image::from_raw(sw, sh, data).unwrap();
            let mut scratch = BoxResizeScratch::new();
            for (dw, dh) in [(32usize, 32usize), (8, 8), (9, 8), (5, 7)] {
                let reference = resize_box(&src, dw, dh);
                let mut plane = vec![0.0f64; dw * dh];
                resize_box_into_f64(&src, dw, dh, &mut scratch, &mut plane);
                for (i, (&got, &want)) in plane.iter().zip(reference.data()).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        (want as f64).to_bits(),
                        "{sw}x{sh}->{dw}x{dh} pixel {i} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_geometry_survives_shape_changes() {
        let a = Image::filled(16, 16, 0.5);
        let b = Image::filled(10, 12, 0.25);
        let mut scratch = BoxResizeScratch::new();
        let mut out = vec![0.0f64; 16];
        resize_box_into_f64(&a, 4, 4, &mut scratch, &mut out);
        assert!(out.iter().all(|p| (p - 0.5).abs() < 1e-6));
        // Shape change re-derives the windows; same scratch, new geometry.
        resize_box_into_f64(&b, 4, 4, &mut scratch, &mut out);
        assert!(out.iter().all(|p| (p - 0.25).abs() < 1e-6));
        // And back again.
        resize_box_into_f64(&a, 4, 4, &mut scratch, &mut out);
        assert!(out.iter().all(|p| (p - 0.5).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "dst_w*dst_h")]
    fn into_f64_wrong_plane_length_panics() {
        let src = Image::new(4, 4);
        let mut scratch = BoxResizeScratch::new();
        let mut out = vec![0.0f64; 3];
        resize_box_into_f64(&src, 2, 2, &mut scratch, &mut out);
    }
}
