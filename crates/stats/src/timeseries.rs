//! Daily time-series binning.
//!
//! Fig. 8 of the paper plots, per community, the *percentage of posts per
//! day* that contain (all / racist / political) memes over the 13-month
//! window. The workspace measures time as `f64` **days since dataset
//! start** everywhere (the Hawkes model needs continuous time);
//! [`DailySeries`] bins such timestamps into integer day buckets.

use serde::{Deserialize, Serialize};

/// Counts of events per integer day over a fixed horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DailySeries {
    counts: Vec<u64>,
}

impl DailySeries {
    /// Create an empty series covering `horizon_days` days.
    pub fn new(horizon_days: usize) -> Self {
        Self {
            counts: vec![0; horizon_days],
        }
    }

    /// Bin a set of timestamps (days since start). Timestamps outside
    /// `[0, horizon)` are ignored.
    pub fn from_timestamps(timestamps: &[f64], horizon_days: usize) -> Self {
        let mut s = Self::new(horizon_days);
        for &t in timestamps {
            s.record(t);
        }
        s
    }

    /// Record one event at time `t` (days). Out-of-range or non-finite
    /// timestamps are ignored.
    pub fn record(&mut self, t: f64) {
        if t.is_finite() && t >= 0.0 {
            let day = t.floor() as usize;
            if day < self.counts.len() {
                self.counts[day] += 1;
            }
        }
    }

    /// Number of days in the horizon.
    pub fn horizon(&self) -> usize {
        self.counts.len()
    }

    /// Raw per-day counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-day percentage of this series relative to a base series
    /// (e.g. meme posts over all posts). Days where the base is zero
    /// yield 0%.
    pub fn percent_of(&self, base: &DailySeries) -> Vec<f64> {
        self.counts
            .iter()
            .zip(base.counts.iter().chain(std::iter::repeat(&0)))
            .map(|(&num, &den)| {
                if den == 0 {
                    0.0
                } else {
                    100.0 * num as f64 / den as f64
                }
            })
            .collect()
    }

    /// Downsample per-day percentages into `weeks`-day means, which is how
    /// `memes repro fig8` prints Fig. 8 compactly.
    pub fn smooth(values: &[f64], window: usize) -> Vec<f64> {
        if window == 0 || values.is_empty() {
            return values.to_vec();
        }
        values
            .chunks(window)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_by_floor() {
        let s = DailySeries::from_timestamps(&[0.0, 0.9, 1.0, 2.5, 2.6], 4);
        assert_eq!(s.counts(), &[2, 1, 2, 0]);
        assert_eq!(s.total(), 5);
        assert_eq!(s.horizon(), 4);
    }

    #[test]
    fn ignores_out_of_range() {
        let s = DailySeries::from_timestamps(&[-1.0, 4.0, 5.0, f64::NAN, 1.0], 4);
        assert_eq!(s.total(), 1);
        assert_eq!(s.counts()[1], 1);
    }

    #[test]
    fn percent_of_base() {
        let memes = DailySeries::from_timestamps(&[0.1, 0.2, 1.5], 3);
        let all = DailySeries::from_timestamps(&[0.1, 0.2, 0.3, 0.4, 1.5, 2.9], 3);
        let p = memes.percent_of(&all);
        assert_eq!(p.len(), 3);
        assert!((p[0] - 50.0).abs() < 1e-12);
        assert!((p[1] - 100.0).abs() < 1e-12);
        assert_eq!(p[2], 0.0);
    }

    #[test]
    fn percent_of_zero_base_is_zero() {
        let memes = DailySeries::from_timestamps(&[0.5], 2);
        let all = DailySeries::new(2);
        let p = memes.percent_of(&all);
        assert_eq!(p, vec![0.0, 0.0]);
    }

    #[test]
    fn smoothing_averages_chunks() {
        let v = vec![1.0, 3.0, 5.0, 7.0, 9.0];
        let s = DailySeries::smooth(&v, 2);
        assert_eq!(s, vec![2.0, 6.0, 9.0]);
        assert_eq!(DailySeries::smooth(&v, 0), v);
    }
}
