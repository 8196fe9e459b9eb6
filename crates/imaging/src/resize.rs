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
//! source pixels by the same expression in the same order.

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
    /// Half-open source-column window `[x0, x1)` per destination column.
    x_windows: Vec<(usize, usize)>,
    /// Half-open source-row window `[y0, y1)` per destination row.
    y_windows: Vec<(usize, usize)>,
    /// One running sum per destination column of the current row.
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
            && !self.x_windows.is_empty()
        {
            return;
        }
        let x_ratio = src_w as f64 / dst_w as f64;
        let y_ratio = src_h as f64 / dst_h as f64;
        self.x_windows.clear();
        for dx in 0..dst_w {
            let x0 = (dx as f64 * x_ratio).floor() as usize;
            let x1 = (((dx + 1) as f64 * x_ratio).ceil() as usize).clamp(x0 + 1, src_w);
            self.x_windows.push((x0, x1));
        }
        self.y_windows.clear();
        for dy in 0..dst_h {
            let y0 = (dy as f64 * y_ratio).floor() as usize;
            let y1 = (((dy + 1) as f64 * y_ratio).ceil() as usize).clamp(y0 + 1, src_h);
            self.y_windows.push((y0, y1));
        }
        self.row_acc.resize(dst_w, 0.0);
        (self.src_w, self.src_h) = (src_w, src_h);
        (self.dst_w, self.dst_h) = (dst_w, dst_h);
    }
}

/// The box filter both entry points share: each destination value
/// accumulates its source rectangle row-major in `f64`, divides by the
/// pixel count and rounds to `f32`; `T::from` then widens (or keeps) it.
///
/// One destination row is summed at a time, source row by source row,
/// with one accumulator per destination column: every accumulator still
/// receives its rectangle's pixels in row-major order, but the columns'
/// addition chains are independent and overlap in the pipeline. The
/// rectangle sum is not split into a horizontal and a vertical pass:
/// that would change the summation order, and with it the bits.
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
        x_windows,
        y_windows,
        row_acc,
        ..
    } = scratch;
    let data = src.data();
    for (row, &(y0, y1)) in out.chunks_exact_mut(dst_w).zip(y_windows.iter()) {
        row_acc.fill(0.0);
        for src_row in data[y0 * sw..y1 * sw].chunks_exact(sw) {
            for (acc, &(x0, x1)) in row_acc.iter_mut().zip(x_windows.iter()) {
                for &p in &src_row[x0..x1] {
                    *acc += p as f64;
                }
            }
        }
        for ((o, &acc), &(x0, x1)) in row.iter_mut().zip(row_acc.iter()).zip(x_windows.iter()) {
            let count = ((x1 - x0) * (y1 - y0)) as f64;
            *o = T::from((acc / count) as f32);
        }
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
    );
    out
}

/// Bilinear taps along one axis: for each destination index, the two
/// source indices it blends (clamped to the border, as sampling past
/// the edge repeats the edge) and the weight of the second.
fn bilinear_taps(src_len: usize, dst_len: usize) -> Vec<(usize, usize, f32)> {
    // Align pixel centers.
    let ratio = src_len as f64 / dst_len as f64;
    let last = src_len as isize - 1;
    (0..dst_len)
        .map(|d| {
            let f = (d as f64 + 0.5) * ratio - 0.5;
            let f0 = f.floor();
            let i = f0 as isize;
            (
                i.clamp(0, last) as usize,
                (i + 1).clamp(0, last) as usize,
                (f - f0) as f32,
            )
        })
        .collect()
}

/// Bilinear-resample the row-major `sw × sh` raster `src` into the
/// `dst_w × dst_h` raster `out`. Callers guarantee non-zero dimensions
/// and matching lengths.
pub(crate) fn bilinear_into(
    src: &[f32],
    sw: usize,
    sh: usize,
    out: &mut [f32],
    dst_w: usize,
    dst_h: usize,
) {
    let x_taps = bilinear_taps(sw, dst_w);
    let y_taps = bilinear_taps(sh, dst_h);
    for (row, &(y0, y1, ty)) in out.chunks_exact_mut(dst_w).zip(&y_taps) {
        let r0 = &src[y0 * sw..(y0 + 1) * sw];
        let r1 = &src[y1 * sw..(y1 + 1) * sw];
        for (o, &(x0, x1, tx)) in row.iter_mut().zip(&x_taps) {
            let (p00, p10, p01, p11) = (r0[x0], r0[x1], r1[x0], r1[x1]);
            let top = p00 + (p10 - p00) * tx;
            let bot = p01 + (p11 - p01) * tx;
            *o = top + (bot - top) * ty;
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
