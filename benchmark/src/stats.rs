//! Order statistics used for every reported number.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what judges this benchmark's
//! run-to-run spread; percentiles of latency samples are nearest-rank.

use serde::{Deserialize, Serialize};

/// Median, quartiles and sample count of one metric over the repetitions
/// of a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values`; an empty slice summarises to zeros.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Quartile distance as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives
/// them: position `i * (len + 1) / 4` (1-based) with linear interpolation,
/// clamped to the data. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let at = |i: usize| {
        // j is the 0-based index below the cut point, delta its remainder in quarters.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The largest value of each `group` consecutive values, in order: a fixed
/// rank over a fixed count, so the statistic does not depend on how many
/// values there are. Values left over after the last whole group are
/// dropped; fewer values than one group make one group of what there is.
pub fn group_maxima(values: &[f64], group: usize) -> Vec<f64> {
    let max = |chunk: &[f64]| chunk.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() {
        Vec::new()
    } else if values.len() < group {
        vec![max(values)]
    } else {
        values.chunks_exact(group).map(max).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_maxima_take_the_largest_of_each_whole_group() {
        let v = [3.0, 9.0, 1.0, 2.0, 5.0, 4.0, 8.0, 6.0, 7.0];
        assert_eq!(group_maxima(&v, 4), [9.0, 8.0]);
        assert_eq!(group_maxima(&v[..8], 4), [9.0, 8.0]);
        assert_eq!(group_maxima(&v[..3], 4), [9.0]);
        assert!(group_maxima(&[], 4).is_empty());
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([2, 4, 8], n=4) == [2.0, 4.0, 8.0]
        assert_eq!(quartiles(&[8.0, 2.0, 4.0]), (2.0, 8.0));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 99.9), 100.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        // Fewer than a hundred samples: p99 degenerates to the maximum.
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0], 99.0), 3.0);
        assert_eq!(percentile_sorted(&[], 99.0), 0.0);
    }

    #[test]
    fn summary_spread_is_quartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[4.0]).spread(), 0.0);
    }
}
