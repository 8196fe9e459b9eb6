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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(timestamps: &[f64], horizon_days: usize) -> DailySeries {
        let mut s = DailySeries::new(horizon_days);
        for &t in timestamps {
            s.record(t);
        }
        s
    }

    #[test]
    fn bins_by_floor() {
        let s = series(&[0.0, 0.9, 1.0, 2.5, 2.6], 4);
        assert_eq!(s.counts(), &[2, 1, 2, 0]);
        assert_eq!(s.total(), 5);
        assert_eq!(s.horizon(), 4);
    }

    #[test]
    fn ignores_out_of_range() {
        let s = series(&[-1.0, 4.0, 5.0, f64::NAN, 1.0], 4);
        assert_eq!(s.total(), 1);
        assert_eq!(s.counts()[1], 1);
    }
}
