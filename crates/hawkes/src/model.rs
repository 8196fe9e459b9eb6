//! The K-variate linear Hawkes model with exponential impulse kernels.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An event: something happened on process `process` at time `t`
/// (workspace convention: `t` is in days since dataset start).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Event time.
    pub t: f64,
    /// Index of the process (community) the event occurred on.
    pub process: usize,
}

impl Event {
    /// Convenience constructor.
    pub fn new(t: f64, process: usize) -> Self {
        Self { t, process }
    }
}

/// Errors from model construction or fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum HawkesError {
    /// A dimension didn't match (weight matrix vs background vector).
    DimensionMismatch(String),
    /// A parameter was out of range (negative rate, non-positive decay…).
    InvalidParameter(String),
    /// Event stream invalid (unsorted, out-of-range process id…).
    InvalidEvents(String),
    /// The event stream was empty where a fit needs data.
    EmptyEvents,
    /// A fit landed at or beyond the critical branching ratio: the
    /// spectral radius of the fitted weight matrix reached 1, so
    /// cascades do not die out and attribution is unreliable.
    NonStationary {
        /// Spectral radius of the fitted weight matrix.
        spectral_radius: f64,
    },
    /// A fit produced non-finite parameters or likelihood.
    Diverged(String),
}

impl fmt::Display for HawkesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimensionMismatch(s) => write!(f, "dimension mismatch: {s}"),
            Self::InvalidParameter(s) => write!(f, "invalid parameter: {s}"),
            Self::InvalidEvents(s) => write!(f, "invalid events: {s}"),
            Self::EmptyEvents => write!(f, "empty event stream"),
            Self::NonStationary { spectral_radius } => write!(
                f,
                "non-stationary fit: spectral radius {spectral_radius} >= 1"
            ),
            Self::Diverged(s) => write!(f, "fit diverged: {s}"),
        }
    }
}

impl std::error::Error for HawkesError {}

/// A multivariate linear Hawkes model.
///
/// Process `k` has conditional intensity
///
/// ```text
/// λ_k(t) = μ_k + Σ_{i : t_i < t}  W[c_i][k] · β e^{-β (t - t_i)}
/// ```
///
/// where `μ_k` is the background rate, `W[c][k]` the expected number of
/// direct offspring an event on `c` spawns on `k` (the paper: "a weight
/// from Twitter to Reddit of 1.2 means that each event on Twitter will
/// cause an expected 1.2 additional events on Reddit"), and the
/// exponential kernel integrates to one so weights *are* offspring
/// counts. `β` controls how fast an impulse decays ("typically the
/// probability of another event occurring is highest soon after the
/// original event and decreases over time").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HawkesModel {
    /// Background rate per process (events per unit time).
    pub mu: Vec<f64>,
    /// Weight matrix: `w[src][dst]` = expected direct offspring on `dst`
    /// per event on `src`.
    pub w: Vec<Vec<f64>>,
    /// Exponential kernel decay rate (per unit time), shared across
    /// process pairs.
    pub beta: f64,
}

impl HawkesModel {
    /// Construct and validate a model.
    pub fn new(mu: Vec<f64>, w: Vec<Vec<f64>>, beta: f64) -> Result<Self, HawkesError> {
        let k = mu.len();
        if k == 0 {
            return Err(HawkesError::InvalidParameter(
                "need at least one process".into(),
            ));
        }
        if w.len() != k || w.iter().any(|row| row.len() != k) {
            return Err(HawkesError::DimensionMismatch(format!(
                "weight matrix must be {k}x{k}"
            )));
        }
        if mu.iter().any(|m| !m.is_finite() || *m < 0.0) {
            return Err(HawkesError::InvalidParameter(
                "background rates must be finite and >= 0".into(),
            ));
        }
        if w.iter().flatten().any(|x| !x.is_finite() || *x < 0.0) {
            return Err(HawkesError::InvalidParameter(
                "weights must be finite and >= 0".into(),
            ));
        }
        if !(beta.is_finite() && beta > 0.0) {
            return Err(HawkesError::InvalidParameter(
                "kernel decay beta must be finite and > 0".into(),
            ));
        }
        Ok(Self { mu, w, beta })
    }

    /// Number of processes.
    pub fn k(&self) -> usize {
        self.mu.len()
    }

    /// Spectral radius of the weight matrix (power iteration). The
    /// process is stationary — cascades die out — iff this is `< 1`.
    pub fn spectral_radius(&self) -> f64 {
        let k = self.k();
        let mut v = vec![1.0 / (k as f64).sqrt(); k];
        let mut lambda = 0.0;
        for _ in 0..200 {
            // v' = W^T v (offspring counts propagate src -> dst).
            let mut next = vec![0.0; k];
            for (src, row) in self.w.iter().enumerate() {
                for dst in 0..k {
                    next[dst] += row[dst] * v[src];
                }
            }
            let norm: f64 = next.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-300 {
                return 0.0;
            }
            lambda = norm;
            for (a, b) in v.iter_mut().zip(&next) {
                *a = b / norm;
            }
        }
        lambda
    }

    /// Whether cascades are guaranteed to die out.
    pub fn is_stationary(&self) -> bool {
        self.spectral_radius() < 1.0
    }

    /// Conditional intensity of process `dst` at time `t`, given sorted
    /// `events` strictly before `t` are counted.
    ///
    /// O(n) in the number of events; fitting code uses incremental
    /// recursions instead, this is the reference implementation for tests
    /// and thinning simulation.
    pub fn intensity(&self, events: &[Event], dst: usize, t: f64) -> f64 {
        let mut lambda = self.mu[dst];
        for e in events {
            if e.t >= t {
                break;
            }
            lambda += self.w[e.process][dst] * self.beta * (-self.beta * (t - e.t)).exp();
        }
        lambda
    }

    /// Validate an event stream against this model: sorted by time,
    /// process ids in range, times finite and within `[0, horizon]`.
    pub fn validate_events(&self, events: &[Event], horizon: f64) -> Result<(), HawkesError> {
        validate_stream(events, self.k(), Some(horizon))
    }

    /// Log-likelihood of a sorted event stream observed on `[0, horizon]`.
    ///
    /// `LL = Σ_i log λ_{c_i}(t_i) − Σ_k ∫_0^T λ_k(s) ds`, computed in
    /// O(nK) with the standard exponential-kernel recursion.
    pub fn log_likelihood(&self, events: &[Event], horizon: f64) -> Result<f64, HawkesError> {
        self.validate_events(events, horizon)?;
        let k = self.k();
        // r[c] = Σ_{j : t_j < t, c_j = c} exp(-beta (t - t_j)),
        // maintained at the current event time.
        let mut r = vec![0.0f64; k];
        let mut last_t = 0.0f64;
        let mut ll = 0.0f64;
        for e in events {
            let decay = (-self.beta * (e.t - last_t)).exp();
            for rc in &mut r {
                *rc *= decay;
            }
            let mut lambda = self.mu[e.process];
            for c in 0..k {
                lambda += self.w[c][e.process] * self.beta * r[c];
            }
            if lambda <= 0.0 {
                return Err(HawkesError::InvalidParameter(
                    "zero intensity at an observed event".into(),
                ));
            }
            ll += lambda.ln();
            r[e.process] += 1.0;
            last_t = e.t;
        }
        // Compensator: Σ_k μ_k T + Σ_i Σ_k W[c_i][k] (1 - e^{-β(T - t_i)}).
        let mut integral: f64 = self.mu.iter().sum::<f64>() * horizon;
        for e in events {
            let frac = 1.0 - (-self.beta * (horizon - e.t)).exp();
            let out: f64 = self.w[e.process].iter().sum();
            integral += out * frac;
        }
        Ok(ll - integral)
    }

    /// Expected total event rate per process at stationarity:
    /// `Λ = (I − W^T)^{-1} μ` (via fixed-point iteration). Returns `None`
    /// for non-stationary models.
    pub fn stationary_rates(&self) -> Option<Vec<f64>> {
        if !self.is_stationary() {
            return None;
        }
        let k = self.k();
        let mut rate = self.mu.clone();
        for _ in 0..10_000 {
            let mut next = self.mu.clone();
            for (src, row) in self.w.iter().enumerate() {
                for dst in 0..k {
                    next[dst] += row[dst] * rate[src];
                }
            }
            let diff: f64 = next.iter().zip(&rate).map(|(a, b)| (a - b).abs()).sum();
            rate = next;
            if diff < 1e-12 {
                break;
            }
        }
        Some(rate)
    }
}

/// Check a stream: sorted by time (a NaN time is unordered and fails),
/// process ids below `k` — the kernel's walk and indexing rely on both —
/// and, given an observation window, times within `[0, horizon]`.
pub(crate) fn validate_stream(
    events: &[Event],
    k: usize,
    horizon: Option<f64>,
) -> Result<(), HawkesError> {
    let mut prev = f64::NEG_INFINITY;
    for e in events {
        if e.t.is_nan() || e.t < prev {
            return Err(HawkesError::InvalidEvents(
                "events must be sorted by time".into(),
            ));
        }
        if e.process >= k {
            return Err(HawkesError::InvalidEvents(format!(
                "process id {} out of range (K = {k})",
                e.process
            )));
        }
        if let Some(h) = horizon.filter(|&h| e.t < 0.0 || e.t > h) {
            return Err(HawkesError::InvalidEvents(format!(
                "event time {} outside [0, {h}]",
                e.t
            )));
        }
        prev = e.t;
    }
    Ok(())
}

/// The argument checks both fitters share, so the same bad input is the
/// same error whichever fitter sees it.
pub(crate) fn validate_fit_inputs(
    events: &[Event],
    k: usize,
    horizon: f64,
    beta: f64,
) -> Result<(), HawkesError> {
    if k == 0 {
        return Err(HawkesError::InvalidParameter(
            "need at least one process".into(),
        ));
    }
    if events.is_empty() {
        return Err(HawkesError::EmptyEvents);
    }
    if !(horizon.is_finite() && horizon > 0.0) {
        return Err(HawkesError::InvalidParameter(
            "horizon must be finite and positive".into(),
        ));
    }
    if !(beta.is_finite() && beta > 0.0) {
        return Err(HawkesError::InvalidParameter(
            "beta must be finite and positive".into(),
        ));
    }
    validate_stream(events, k, Some(horizon))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> HawkesModel {
        HawkesModel::new(vec![0.5, 0.2], vec![vec![0.3, 0.2], vec![0.1, 0.4]], 1.5).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(HawkesModel::new(vec![], vec![], 1.0).is_err());
        assert!(HawkesModel::new(vec![1.0], vec![vec![0.5, 0.1]], 1.0).is_err());
        assert!(HawkesModel::new(vec![-1.0], vec![vec![0.5]], 1.0).is_err());
        assert!(HawkesModel::new(vec![1.0], vec![vec![-0.5]], 1.0).is_err());
        assert!(HawkesModel::new(vec![1.0], vec![vec![0.5]], 0.0).is_err());
        assert!(HawkesModel::new(vec![1.0], vec![vec![0.5]], 1.0).is_ok());
    }

    #[test]
    fn spectral_radius_diagonal() {
        let m =
            HawkesModel::new(vec![1.0, 1.0], vec![vec![0.7, 0.0], vec![0.0, 0.3]], 1.0).unwrap();
        assert!((m.spectral_radius() - 0.7).abs() < 1e-6);
        assert!(m.is_stationary());
    }

    #[test]
    fn spectral_radius_supercritical() {
        let m = HawkesModel::new(vec![1.0], vec![vec![1.2]], 1.0).unwrap();
        assert!((m.spectral_radius() - 1.2).abs() < 1e-9);
        assert!(!m.is_stationary());
        assert!(m.stationary_rates().is_none());
    }

    #[test]
    fn intensity_decays_toward_background() {
        let m = toy();
        let events = vec![Event::new(1.0, 0)];
        let just_after = m.intensity(&events, 1, 1.0001);
        let much_later = m.intensity(&events, 1, 50.0);
        assert!(just_after > m.mu[1]);
        assert!((much_later - m.mu[1]).abs() < 1e-9);
        // Impulse height right after the event: w * beta.
        assert!((just_after - (m.mu[1] + m.w[0][1] * m.beta)).abs() < 1e-3);
    }

    #[test]
    fn intensity_ignores_future_events() {
        let m = toy();
        let events = vec![Event::new(5.0, 0)];
        assert_eq!(m.intensity(&events, 0, 4.9), m.mu[0]);
    }

    #[test]
    fn validate_events_catches_problems() {
        let m = toy();
        assert!(m
            .validate_events(&[Event::new(1.0, 0), Event::new(0.5, 0)], 10.0)
            .is_err());
        assert!(m.validate_events(&[Event::new(1.0, 5)], 10.0).is_err());
        assert!(m.validate_events(&[Event::new(11.0, 0)], 10.0).is_err());
        assert!(m.validate_events(&[Event::new(f64::NAN, 0)], 10.0).is_err());
        assert!(m
            .validate_events(&[Event::new(0.5, 0), Event::new(1.0, 1)], 10.0)
            .is_ok());
    }

    #[test]
    fn log_likelihood_empty_stream_is_minus_integral() {
        let m = toy();
        let ll = m.log_likelihood(&[], 10.0).unwrap();
        assert!((ll + (0.5 + 0.2) * 10.0).abs() < 1e-12);
    }

    #[test]
    fn log_likelihood_prefers_generating_model() {
        // A single event early in the window: a model with higher
        // background on that process should win over a lower-background
        // one.
        let hi = HawkesModel::new(vec![1.0], vec![vec![0.0]], 1.0).unwrap();
        let lo = HawkesModel::new(vec![0.01], vec![vec![0.0]], 1.0).unwrap();
        let events = vec![Event::new(0.5, 0), Event::new(0.7, 0)];
        // Horizon chosen so 2 events in 2 days ~ rate 1.0.
        let ll_hi = hi.log_likelihood(&events, 2.0).unwrap();
        let ll_lo = lo.log_likelihood(&events, 2.0).unwrap();
        assert!(ll_hi > ll_lo);
    }

    #[test]
    fn log_likelihood_matches_direct_computation() {
        // Cross-check the O(nK) recursion against the O(n^2) definition.
        let m = toy();
        let events = vec![
            Event::new(0.3, 0),
            Event::new(0.9, 1),
            Event::new(1.4, 0),
            Event::new(2.0, 1),
        ];
        let horizon = 3.0;
        let fast = m.log_likelihood(&events, horizon).unwrap();
        let mut slow = 0.0;
        for (i, e) in events.iter().enumerate() {
            slow += m.intensity(&events[..i], e.process, e.t).ln();
        }
        let mut integral = (m.mu[0] + m.mu[1]) * horizon;
        for e in &events {
            let frac = 1.0 - (-m.beta * (horizon - e.t)).exp();
            integral += (m.w[e.process][0] + m.w[e.process][1]) * frac;
        }
        slow -= integral;
        assert!((fast - slow).abs() < 1e-9, "fast {fast} slow {slow}");
    }

    #[test]
    fn stationary_rates_solve_fixed_point() {
        let m = toy();
        let rates = m.stationary_rates().unwrap();
        // Check Λ = μ + W^T Λ.
        for dst in 0..2 {
            let expected = m.mu[dst] + m.w[0][dst] * rates[0] + m.w[1][dst] * rates[1];
            assert!((rates[dst] - expected).abs() < 1e-9);
        }
        // Rates exceed background (self/cross excitation adds volume).
        assert!(rates[0] > m.mu[0]);
        assert!(rates[1] > m.mu[1]);
    }
}
