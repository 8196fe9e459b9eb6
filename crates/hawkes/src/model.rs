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
    /// O(nK) by the same pass that runs EM's E-step.
    pub fn log_likelihood(&self, events: &[Event], horizon: f64) -> Result<f64, HawkesError> {
        self.validate_events(events, horizon)?;
        let k = self.k();
        let (mut bg, mut pair) = (vec![0.0; k], vec![vec![0.0; k]; k]);
        let mut state = DecayState::new(self);
        let factors = decay_factors(events, self.beta);
        let log_lambda = branching_pass(self, events, &factors, &mut state, &mut bg, &mut pair);
        // `ln 0 = −∞`: some event has zero intensity.
        if log_lambda < f64::MIN {
            return Err(HawkesError::InvalidParameter(
                "zero intensity at an observed event".into(),
            ));
        }
        let fractions = horizon_fractions(events, k, self.beta, horizon);
        Ok(log_lambda - compensator(self, horizon, &fractions))
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

/// `e^{−30}`: a source whose decayed mass `R_s` falls below this has every
/// event more than 30 kernel time-constants back, each under `1e-13` of
/// a fresh impulse, and [`DecayState`] forgets it. Kept, that mass would
/// only decay on into dust like `e^{−600}`, which reaches root-cause cells
/// that are otherwise exactly zero and prints as hundreds of digits in a
/// serve reply.
const FORGET_BELOW: f64 = 9.357_622_968_840_175e-14;

/// The exponential kernel's memory of a stream, advanced once per event.
/// At the current time `t` it holds, per source process `s`,
///
/// ```text
/// R_s(t) = Σ_{i on s, t_i ≤ t} e^{−β(t − t_i)}
/// Q_s(t) = Σ_{i on s, t_i ≤ t} e^{−β(t − t_i)} root(i) ∈ ℝ^K  (with_roots)
/// ```
///
/// so intensities and E-step responsibilities cost O(K) per event and
/// root-cause mass O(K²), with no parent window. From `t` to `t' ≥ t`
/// both decay by `d = e^{−β(t' − t)}`; a source whose `R_s` drops below
/// [`FORGET_BELOW`] is reset to zero.
#[derive(Debug)]
pub(crate) struct DecayState {
    beta: f64,
    t: f64,
    /// The model's background rates.
    mu: Vec<f64>,
    /// `W[s][dst]·β` at `[dst·K + s]`: one destination's column is
    /// contiguous, and `(W·β)·R_s` is the operand order of `W·β·R_s`.
    wb: Vec<f64>,
    pub(crate) r: Vec<f64>,
    /// Row `s` at `[s·K, (s+1)·K)`; empty unless built `with_roots`.
    pub(crate) q: Vec<f64>,
    /// `W[s][dst] β R_s(t)` of the last [`DecayState::intensity`] call.
    pub(crate) by_source: Vec<f64>,
}

impl DecayState {
    /// An empty past under `model`.
    pub(crate) fn new(model: &HawkesModel) -> Self {
        let k = model.k();
        let mut wb = vec![0.0; k * k];
        for (src, row) in model.w.iter().enumerate() {
            for (dst, &w) in row.iter().enumerate() {
                wb[dst * k + src] = w * model.beta;
            }
        }
        Self {
            beta: model.beta,
            t: 0.0,
            mu: model.mu.clone(),
            wb,
            r: vec![0.0; k],
            q: Vec::new(),
            by_source: vec![0.0; k],
        }
    }

    pub(crate) fn with_roots(mut self) -> Self {
        self.q = vec![0.0; self.r.len() * self.r.len()];
        self
    }

    /// Decay the past to time `t`. Streams are sorted, so `t` only goes
    /// back from the empty initial state (a stream may start before 0),
    /// and a tie leaves the state as it is.
    // lint:hotpath(per-event decay of the K or K+K² state floats; no allocation)
    pub(crate) fn advance_to(&mut self, t: f64) {
        let step = decay_factor(self.beta, self.t, t);
        self.t = t;
        if let Some(d) = step {
            self.decay(d);
        }
    }

    /// Multiply the past by `d`, a step's [`decay_factor`], forgetting a
    /// source that falls below [`FORGET_BELOW`]. Leaves the state's time
    /// alone: a caller that steps through [`decay_factors`] never asks
    /// for it.
    // lint:hotpath(per-event decay of the K or K+K² state floats; no allocation)
    pub(crate) fn decay(&mut self, d: f64) {
        for q in &mut self.q {
            *q *= d;
        }
        let k = self.r.len();
        for (src, r) in self.r.iter_mut().enumerate() {
            *r *= d;
            if *r > 0.0 && *r < FORGET_BELOW {
                *r = 0.0;
                if let Some(q) = self.q.get_mut(src * k..(src + 1) * k) {
                    q.fill(0.0);
                }
            }
        }
    }

    /// `dst`'s intensity now, `μ_dst + Σ_s W[s][dst] β R_s`, keeping the
    /// terms in `by_source`.
    // lint:hotpath(per-event intensity over K sources; no allocation)
    pub(crate) fn intensity(&mut self, dst: usize) -> f64 {
        let k = self.r.len();
        let column = &self.wb[dst * k..(dst + 1) * k];
        let mut lambda = self.mu[dst];
        for ((a, r), wb) in self.by_source.iter_mut().zip(&self.r).zip(column) {
            *a = wb * r;
            lambda += *a;
        }
        lambda
    }

    /// Add an event on `process` at the current time.
    pub(crate) fn push(&mut self, process: usize) {
        self.r[process] += 1.0;
    }

    /// Add the root-cause distribution of an event on `process` to `Q`.
    pub(crate) fn push_root(&mut self, process: usize, root: &[f64]) {
        let k = root.len();
        for (q, x) in self.q[process * k..(process + 1) * k].iter_mut().zip(root) {
            *q += x;
        }
    }
}

/// The factor `e^{−β(t − from)}` that decays the past from time `from`
/// to `t`, or `None` for a tie (`t − from ≤ 0`), which leaves the past
/// as it is: the one expression [`DecayState::advance_to`] and
/// [`decay_factors`] evaluate, so both decay by the same bits.
#[inline]
fn decay_factor(beta: f64, from: f64, t: f64) -> Option<f64> {
    let dt = t - from;
    if dt <= 0.0 {
        None
    } else {
        Some((-beta * dt).exp())
    }
}

/// Each event's [`decay_factor`] from the event before it (the first
/// from time 0, the empty state's), as [`DecayState::advance_to`] would
/// compute it walking the stream. `β` is fixed for a whole fit, so EM
/// computes the table once per fit instead of one `exp` per event per
/// iteration.
pub(crate) fn decay_factors(events: &[Event], beta: f64) -> Vec<Option<f64>> {
    let mut from = 0.0;
    events
        .iter()
        .map(|e| {
            let d = decay_factor(beta, from, e.t);
            from = e.t;
            d
        })
        .collect()
}

/// One pass over `events` under `model` — EM's E-step and the
/// likelihood's event term. Event `j` gives the background
/// `μ_{c_j} / λ_j` (summed into `bg`) and source `s` the parent mass
/// `W[s][c_j] β R_s(t_j) / λ_j` (into `pair[s][c_j]`). `factors` is
/// [`decay_factors`] of `events` at `model.beta`. Returns
/// `Σ_j ln λ_j`; `state` must be empty.
// lint:hotpath(one pass: K multiply-adds per event into the caller's buffers)
pub(crate) fn branching_pass(
    model: &HawkesModel,
    events: &[Event],
    factors: &[Option<f64>],
    state: &mut DecayState,
    bg: &mut [f64],
    pair: &mut [Vec<f64>],
) -> f64 {
    bg.fill(0.0);
    for row in pair.iter_mut() {
        row.fill(0.0);
    }
    let mut log_lambda = 0.0;
    for (e, &factor) in events.iter().zip(factors) {
        let c = e.process;
        if let Some(d) = factor {
            state.decay(d);
        }
        let lambda = state.intensity(c);
        log_lambda += lambda.ln();
        bg[c] += model.mu[c] / lambda;
        for (row, a) in pair.iter_mut().zip(&state.by_source) {
            row[c] += a / lambda;
        }
        state.push(c);
    }
    log_lambda
}

/// Per source process, `Σ_{i on s} (1 − e^{−β(T − t_i)})`: how much of
/// its events' offspring windows `[0, T]` observes. EM's M-step divides
/// by it and the compensator weighs `W` by it.
pub(crate) fn horizon_fractions(events: &[Event], k: usize, beta: f64, horizon: f64) -> Vec<f64> {
    let mut fractions = vec![0.0; k];
    for e in events {
        fractions[e.process] += 1.0 - (-beta * (horizon - e.t)).exp();
    }
    fractions
}

/// `∫_0^T Σ_k λ_k = T Σ_k μ_k + Σ_s fractions[s] Σ_k W[s][k]`.
pub(crate) fn compensator(model: &HawkesModel, horizon: f64, fractions: &[f64]) -> f64 {
    let offspring: f64 = model
        .w
        .iter()
        .zip(fractions)
        .map(|(row, f)| f * row.iter().sum::<f64>())
        .sum();
    model.mu.iter().sum::<f64>() * horizon + offspring
}

/// Check a stream: sorted by time (a NaN time is unordered and fails),
/// process ids below `k` — the decayed state and indexing rely on both —
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

    /// The reference E-step: `branching_pass` reading the past through
    /// one `advance_to` per event instead of the decay table.
    fn branching_pass_walking(
        model: &HawkesModel,
        events: &[Event],
        bg: &mut [f64],
        pair: &mut [Vec<f64>],
    ) -> f64 {
        let mut state = DecayState::new(model);
        let mut log_lambda = 0.0;
        for e in events {
            let c = e.process;
            state.advance_to(e.t);
            let lambda = state.intensity(c);
            log_lambda += lambda.ln();
            bg[c] += model.mu[c] / lambda;
            for (row, a) in pair.iter_mut().zip(&state.by_source) {
                row[c] += a / lambda;
            }
            state.push(c);
        }
        log_lambda
    }

    #[test]
    fn decay_table_pass_is_bit_equal_to_walking_the_stream() {
        use meme_stats::seeded_rng;
        use rand::RngExt;
        let beta = 2.5;
        let model = HawkesModel::new(
            vec![0.4, 0.05, 0.2],
            vec![
                vec![0.3, 0.1, 0.05],
                vec![0.2, 0.25, 0.0],
                vec![0.0, 0.1, 0.4],
            ],
            beta,
        )
        .unwrap();
        for seed in 0..40u64 {
            let mut rng = seeded_rng(seed);
            // Seeds cycle through: tie-heavy steps on a coarse grid, a
            // start before 0, and gaps past the 30/β forget horizon.
            let mut t = if seed % 3 == 1 {
                -rng.random_range(0.5..5.0)
            } else {
                0.0
            };
            let events: Vec<Event> = (0..rng.random_range(1..200usize))
                .map(|_| {
                    t += match seed % 3 {
                        0 => f64::from(rng.random_range(0..3u8)) * 0.25,
                        1 => rng.random_range(0.0..0.4),
                        _ if rng.random_bool(0.2) => rng.random_range(30.0..80.0) / beta,
                        _ => rng.random_range(0.0..0.5),
                    };
                    Event::new(t, rng.random_range(0..3usize))
                })
                .collect();
            let k = model.k();
            let (mut bg, mut pair) = (vec![0.0; k], vec![vec![0.0; k]; k]);
            let (mut bg_ref, mut pair_ref) = (vec![0.0; k], vec![vec![0.0; k]; k]);
            let factors = decay_factors(&events, beta);
            let fast = branching_pass(
                &model,
                &events,
                &factors,
                &mut DecayState::new(&model),
                &mut bg,
                &mut pair,
            );
            let walked = branching_pass_walking(&model, &events, &mut bg_ref, &mut pair_ref);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(fast.to_bits(), walked.to_bits(), "seed {seed}");
            assert_eq!(bits(&bg), bits(&bg_ref), "seed {seed}");
            for (row, row_ref) in pair.iter().zip(&pair_ref) {
                assert_eq!(bits(row), bits(row_ref), "seed {seed}");
            }
        }
    }

    #[test]
    fn decayed_state_matches_direct_sums() {
        // R against its O(n) definition at every event, on a stream
        // with ties that starts before 0.
        let beta = 1.7;
        let events = [
            Event::new(-1.0, 0),
            Event::new(0.2, 1),
            Event::new(0.2, 0),
            Event::new(0.9, 0),
            Event::new(2.5, 1),
            Event::new(2.5, 1),
        ];
        let model = HawkesModel::new(vec![0.1; 2], vec![vec![0.0; 2]; 2], beta).unwrap();
        let mut state = DecayState::new(&model);
        for (i, e) in events.iter().enumerate() {
            state.advance_to(e.t);
            for s in 0..2 {
                let r: f64 = events[..i]
                    .iter()
                    .filter(|p| p.process == s)
                    .map(|p| (-beta * (e.t - p.t)).exp())
                    .sum();
                assert!((state.r[s] - r).abs() < 1e-12, "R_{s} at {i}");
            }
            state.push(e.process);
        }
    }

    #[test]
    fn a_source_quiet_for_thirty_time_constants_is_forgotten() {
        let model = HawkesModel::new(vec![0.1; 2], vec![vec![0.0; 2]; 2], 2.0).unwrap();
        let mut state = DecayState::new(&model).with_roots();
        state.push(0);
        state.push_root(0, &[1.0, 0.0]);
        state.advance_to(14.9); // 29.8 time-constants back: still there
        assert!(state.r[0] > 0.0 && state.q[0] > 0.0);
        state.advance_to(15.1);
        assert_eq!((state.r[0], state.q[0]), (0.0, 0.0));
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
