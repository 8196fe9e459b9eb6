//! Descriptive statistics.
//!
//! The paper repeatedly reports means and medians (e.g. "an average of 45
//! and a median of 9 images" per KYM entry, §3.2; mean/median post scores,
//! §4.2.3). [`Summary`] computes these in one pass over a sample.

use serde::{Deserialize, Serialize};

/// One-shot descriptive summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub median: f64,
    /// Population variance.
    pub variance: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample; returns `None` for empty or NaN-containing
    /// input.
    pub fn of(sample: &[f64]) -> Option<Self> {
        if sample.is_empty() || sample.iter().any(|x| x.is_nan()) {
            return None;
        }
        let n = sample.len();
        let mean = sample.iter().sum::<f64>() / n as f64;
        let variance = sample.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let mut sorted = sample.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        Some(Self {
            n,
            mean,
            median,
            variance,
            std_dev: variance.sqrt(),
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_nan() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn odd_length_median() {
        let s = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn even_length_median_interpolates() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn variance_and_std() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.variance - 4.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_value() {
        let s = Summary::of(&[42.0]).unwrap();
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.variance, 0.0);
    }
}
