//! Empirical cumulative distribution functions.
//!
//! Every CDF plot in the paper (images per KYM entry, Fig. 4b; KYM entries
//! per cluster / clusters per entry, Fig. 5; post scores, Fig. 9;
//! false-positive fractions, Fig. 17) is regenerated through [`Ecdf`].

use serde::{Deserialize, Serialize};

/// An empirical CDF built from a finite sample.
///
/// Stores the sorted sample; evaluation is a binary search. NaN values are
/// rejected at construction so ordering is total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build an ECDF from a sample. Returns `None` if the sample is empty
    /// or contains NaN.
    pub fn new(mut sample: Vec<f64>) -> Option<Self> {
        if sample.is_empty() || sample.iter().any(|x| x.is_nan()) {
            return None;
        }
        sample.sort_by(f64::total_cmp);
        Some(Self { sorted: sample })
    }

    /// Build from any iterator of values convertible to `f64`.
    pub fn from_counts<I: IntoIterator<Item = u64>>(counts: I) -> Option<Self> {
        Self::new(counts.into_iter().map(|c| c as f64).collect())
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the sample is empty (cannot happen for a constructed
    /// `Ecdf`, but required by convention alongside `len`).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evaluate `F(x) = P(X <= x)`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the count of elements <= x.
        let count = self.sorted.partition_point(|v| *v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile for `q` in `[0, 1]` (nearest-rank method).
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        // No q == 0.0 special case needed: ceil(0 * n) = 0, and the
        // saturating rank arithmetic below already lands on sorted[0].
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.saturating_sub(1).min(self.sorted.len() - 1)]
    }

    /// Median shortcut.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        // A constructed Ecdf is never empty; NaN is the inert fallback.
        self.sorted.first().copied().unwrap_or(f64::NAN)
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    /// Evaluate the ECDF on a fixed grid; used by the table binaries to
    /// print plottable (x, F(x)) series for the paper's CDF figures.
    pub fn series(&self, grid: &[f64]) -> Vec<(f64, f64)> {
        grid.iter().map(|&x| (x, self.eval(x))).collect()
    }

    /// A log-spaced grid covering the sample range, for the paper's
    /// log-x CDF plots (e.g. Fig. 4b). Returns `points` grid values.
    pub fn log_grid(&self, points: usize) -> Vec<f64> {
        let lo = self.min().max(1.0);
        let hi = self.max().max(lo + 1.0);
        let (l0, l1) = (lo.ln(), hi.ln());
        (0..points)
            .map(|i| (l0 + (l1 - l0) * i as f64 / (points.saturating_sub(1).max(1)) as f64).exp())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_nan() {
        assert!(Ecdf::new(vec![]).is_none());
        assert!(Ecdf::new(vec![1.0, f64::NAN]).is_none());
    }

    #[test]
    fn step_function_values() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert!((e.eval(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((e.eval(1.5) - 1.0 / 3.0).abs() < 1e-12);
        assert!((e.eval(2.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn handles_ties() {
        let e = Ecdf::new(vec![2.0, 2.0, 2.0, 5.0]).unwrap();
        assert_eq!(e.eval(1.9), 0.0);
        assert!((e.eval(2.0) - 0.75).abs() < 1e-12);
        assert_eq!(e.eval(5.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect()).unwrap();
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(1.0), 100.0);
        assert_eq!(e.median(), 50.0);
    }

    #[test]
    fn summary_stats() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.mean(), 2.5);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 4.0);
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
    }

    #[test]
    fn series_on_grid() {
        let e = Ecdf::new(vec![1.0, 2.0]).unwrap();
        let s = e.series(&[0.0, 1.0, 2.0]);
        assert_eq!(s, vec![(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)]);
    }

    #[test]
    fn log_grid_spans_range() {
        let e = Ecdf::new(vec![1.0, 10.0, 1000.0]).unwrap();
        let g = e.log_grid(10);
        assert_eq!(g.len(), 10);
        assert!((g[0] - 1.0).abs() < 1e-9);
        assert!((g[9] - 1000.0).abs() < 1e-6);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn single_observation() {
        let e = Ecdf::new(vec![7.0]).unwrap();
        assert_eq!(e.eval(6.9), 0.0);
        assert_eq!(e.eval(7.0), 1.0);
        assert_eq!(e.median(), 7.0);
    }
}
