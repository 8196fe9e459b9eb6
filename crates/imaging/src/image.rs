//! Grayscale raster image.
//!
//! All pipeline stages operate on single-channel luminance rasters: pHash
//! discards color before hashing, so the substrate does too. Pixels are
//! `f32` in the nominal range `[0, 1]`; intermediate operations may leave
//! the range and [`Image::clamp`] restores it.

use serde::{Deserialize, Serialize};

/// A grayscale image stored row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Image {
    /// Create an image filled with a constant luminance.
    ///
    /// # Panics
    /// Panics if either dimension is zero — a zero-area image is a
    /// programming error everywhere in this workspace.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        Self {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Create a black image.
    pub fn new(width: usize, height: usize) -> Self {
        Self::filled(width, height, 0.0)
    }

    /// Build from raw row-major data. Returns `None` when the buffer does
    /// not match `width * height` or a dimension is zero.
    pub fn from_raw(width: usize, height: usize, data: Vec<f32>) -> Option<Self> {
        if width == 0 || height == 0 || data.len() != width * height {
            return None;
        }
        Some(Self {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw row-major pixel buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Pixel accessor (no bounds check beyond the slice's own).
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        self.data[y * self.width + x]
    }

    /// Pixel accessor clamped to the image border (for sampling filters).
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.get(x, y)
    }

    /// Set one pixel.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        self.data[y * self.width + x] = v;
    }

    /// Apply `f` to every pixel in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(f32) -> f32) {
        for p in &mut self.data {
            *p = f(*p);
        }
    }

    /// Clamp all pixels into `[0, 1]`.
    pub fn clamp(&mut self) {
        self.map_in_place(|p| p.clamp(0.0, 1.0));
    }

    /// Mean luminance.
    pub fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Fill an axis-aligned rectangle (clipped to the image) with a
    /// constant value. `x1`/`y1` are exclusive.
    pub fn fill_rect(&mut self, x0: usize, y0: usize, x1: usize, y1: usize, v: f32) {
        let x1 = x1.min(self.width);
        let y1 = y1.min(self.height);
        for y in y0.min(y1)..y1 {
            for x in x0.min(x1)..x1 {
                self.set(x, y, v);
            }
        }
    }

    /// Blend a soft-edged ellipse into the image: pixels inside the
    /// ellipse move toward `tone` with weight falling off towards the rim.
    ///
    /// `dx²` depends only on the column and `dy²` only on the row, so
    /// each is computed once per column / row; the per-pixel
    /// `d2 = dx * dx + dy * dy` keeps its operand order.
    pub fn blend_ellipse(&mut self, cx: f64, cy: f64, rx: f64, ry: f64, tone: f32, opacity: f32) {
        if rx <= 0.0 || ry <= 0.0 {
            return;
        }
        let x_lo = ((cx - rx).floor().max(0.0)) as usize;
        let x_hi = ((cx + rx).ceil() as usize).min(self.width - 1);
        let y_lo = ((cy - ry).floor().max(0.0)) as usize;
        let y_hi = ((cy + ry).ceil() as usize).min(self.height - 1);
        if x_lo > x_hi {
            return;
        }
        let dx2: Vec<f64> = (x_lo..=x_hi)
            .map(|x| {
                let dx = (x as f64 + 0.5 - cx) / rx;
                dx * dx
            })
            .collect();
        for y in y_lo..=y_hi {
            let dy = (y as f64 + 0.5 - cy) / ry;
            let dy2 = dy * dy;
            let row = &mut self.data[y * self.width + x_lo..=y * self.width + x_hi];
            for (p, &dx2) in row.iter_mut().zip(&dx2) {
                let d2 = dx2 + dy2;
                if d2 < 1.0 {
                    // Smooth falloff: 1 at center, 0 at rim.
                    let w = ((1.0 - d2) as f32) * opacity;
                    *p += (tone - *p) * w.clamp(0.0, 1.0);
                }
            }
        }
    }

    /// Mean absolute pixel difference to another image of the same shape;
    /// `None` when shapes differ. Used by tests to quantify perturbations.
    pub fn mad(&self, other: &Image) -> Option<f32> {
        if self.width != other.width || self.height != other.height {
            return None;
        }
        let sum: f32 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .sum();
        Some(sum / self.data.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = Image::new(0, 4);
    }

    #[test]
    fn from_raw_validates_shape() {
        assert!(Image::from_raw(2, 2, vec![0.0; 4]).is_some());
        assert!(Image::from_raw(2, 2, vec![0.0; 3]).is_none());
        assert!(Image::from_raw(0, 2, vec![]).is_none());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut img = Image::new(3, 2);
        img.set(2, 1, 0.75);
        assert_eq!(img.get(2, 1), 0.75);
        assert_eq!(img.get(0, 0), 0.0);
    }

    #[test]
    fn clamped_access_at_borders() {
        let mut img = Image::new(2, 2);
        img.set(0, 0, 0.5);
        assert_eq!(img.get_clamped(-5, -5), 0.5);
        img.set(1, 1, 0.9);
        assert_eq!(img.get_clamped(10, 10), 0.9);
    }

    #[test]
    fn mean_and_clamp() {
        let mut img = Image::from_raw(2, 1, vec![-1.0, 3.0]).unwrap();
        assert_eq!(img.mean(), 1.0);
        img.clamp();
        assert_eq!(img.data(), &[0.0, 1.0]);
    }

    #[test]
    fn fill_rect_clips() {
        let mut img = Image::new(4, 4);
        img.fill_rect(2, 2, 100, 100, 1.0);
        assert_eq!(img.get(3, 3), 1.0);
        assert_eq!(img.get(1, 1), 0.0);
        let lit = img.data().iter().filter(|p| **p == 1.0).count();
        assert_eq!(lit, 4);
    }

    #[test]
    fn ellipse_blends_center_strongest() {
        let mut img = Image::new(16, 16);
        img.blend_ellipse(8.0, 8.0, 5.0, 5.0, 1.0, 1.0);
        assert!(img.get(8, 8) > 0.8);
        assert_eq!(img.get(0, 0), 0.0);
        // Rim pixels are dimmer than center.
        assert!(img.get(11, 8) < img.get(8, 8));
    }

    #[test]
    fn ellipse_degenerate_radius_is_noop() {
        let mut img = Image::new(4, 4);
        let before = img.clone();
        img.blend_ellipse(2.0, 2.0, 0.0, 3.0, 1.0, 1.0);
        assert_eq!(img, before);
    }

    #[test]
    fn mad_requires_same_shape() {
        let a = Image::new(2, 2);
        let b = Image::new(3, 2);
        assert!(a.mad(&b).is_none());
        let c = Image::filled(2, 2, 0.5);
        assert_eq!(a.mad(&c), Some(0.5));
    }
}
