//! Test-only reference: Step 7 the way it used to be computed, by
//! walking every event's candidate parents back through the stream.
//!
//! Event `i`'s parents are the earlier events `j` within
//! `WINDOW_TIME_CONSTANTS / β` of it, each exciting `i`'s process by
//! `W[c_j][c_i] β e^{−β(t_i − t_j)}`; the walk runs newest parent first.
//! That is O(n · window) per pass and needs no shared state, so it is
//! an independent oracle for the library's O(nK) decayed-state
//! recursion: both must agree to rounding (the window drops about
//! `e^{−30} ≈ 1e-13` of an impulse).

#![allow(clippy::needless_range_loop)] // K x K matrix loops, as in the library

use meme_hawkes::{EmConfig, Event, HawkesModel};

/// Parents farther back than this many kernel time-constants are cut.
pub const WINDOW_TIME_CONSTANTS: f64 = 30.0;

/// Fill `parents` with `(j, excitation)` for every earlier event inside
/// the window whose excitation is positive, and return event `i`'s
/// intensity `μ[c_i] + Σ excitation`.
fn excitation_into(
    mu: &[f64],
    w: &[Vec<f64>],
    beta: f64,
    events: &[Event],
    i: usize,
    parents: &mut Vec<(usize, f64)>,
) -> f64 {
    parents.clear();
    let ei = events[i];
    let max_lag = WINDOW_TIME_CONSTANTS / beta;
    let mut total = mu[ei.process];
    for j in (0..i).rev() {
        let dt = ei.t - events[j].t;
        if dt > max_lag {
            break;
        }
        let a = w[events[j].process][ei.process] * beta * (-beta * dt).exp();
        if a > 0.0 {
            parents.push((j, a));
            total += a;
        }
    }
    total
}

/// Event `i`'s parent distribution: returns P(background) and leaves
/// `(j, P(parent is j))` in `parents`. An event with neither background
/// nor parents is pure background.
fn parent_dist_into(
    model: &HawkesModel,
    events: &[Event],
    i: usize,
    parents: &mut Vec<(usize, f64)>,
) -> f64 {
    let total = excitation_into(&model.mu, &model.w, model.beta, events, i, parents);
    if total <= 0.0 {
        parents.clear();
        return 1.0;
    }
    for (_, a) in parents.iter_mut() {
        *a /= total;
    }
    model.mu[events[i].process] / total
}

/// Log-likelihood with windowed intensities and a per-event compensator.
pub fn log_likelihood(model: &HawkesModel, events: &[Event], horizon: f64) -> f64 {
    let mut parents = Vec::new();
    let mut ll = 0.0;
    for i in 0..events.len() {
        ll += excitation_into(&model.mu, &model.w, model.beta, events, i, &mut parents).ln();
    }
    let mut integral: f64 = model.mu.iter().sum::<f64>() * horizon;
    for e in events {
        let frac = 1.0 - (-model.beta * (horizon - e.t)).exp();
        integral += model.w[e.process].iter().sum::<f64>() * frac;
    }
    ll - integral
}

/// A fitted model, its log-likelihood and the iterations it took.
pub struct Fit {
    pub model: HawkesModel,
    pub log_likelihood: f64,
    pub iterations: usize,
}

/// EM with the windowed E-step: same initial guess, M-step, stopping
/// test and returned model as `meme_hawkes::fit_em`, but
/// the E-step weighs every parent event and the likelihood is a
/// separate pass per iteration. Inputs must be valid.
pub fn fit_em(events: &[Event], k: usize, horizon: f64, config: &EmConfig) -> Fit {
    let mut counts = vec![0usize; k];
    for e in events {
        counts[e.process] += 1;
    }
    let mut model = HawkesModel::new(
        counts
            .iter()
            .map(|&c| (0.5 * c as f64 / horizon).max(1e-6))
            .collect(),
        vec![vec![0.1; k]; k],
        config.beta,
    )
    .expect("valid initial guess");
    let mut prev_ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut parents = Vec::new();
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        let beta = model.beta;
        let mut bg_resp = vec![0.0f64; k];
        let mut pair_resp = vec![vec![0.0f64; k]; k];
        for (i, ei) in events.iter().enumerate() {
            bg_resp[ei.process] += parent_dist_into(&model, events, i, &mut parents);
            for &(j, p) in &parents {
                pair_resp[events[j].process][ei.process] += p;
            }
        }
        for dst in 0..k {
            model.mu[dst] = (bg_resp[dst] / horizon).max(1e-12);
        }
        let mut denom = vec![0.0f64; k];
        for e in events {
            denom[e.process] += 1.0 - (-beta * (horizon - e.t)).exp();
        }
        for src in 0..k {
            for dst in 0..k {
                model.w[src][dst] = if denom[src] > 0.0 {
                    pair_resp[src][dst] / denom[src]
                } else {
                    0.0
                };
            }
        }
        let ll = log_likelihood(&model, events, horizon);
        let done = (ll - prev_ll).abs() < config.tol;
        prev_ll = ll;
        if done {
            break;
        }
    }
    Fit {
        model,
        log_likelihood: prev_ll,
        iterations,
    }
}

/// Root-cause matrix by the forward walk over every event's parents:
/// a background event is its own root, a child inherits its parents'
/// roots in proportion to their probabilities.
pub fn root_cause_matrix(model: &HawkesModel, events: &[Event]) -> Vec<Vec<f64>> {
    let k = model.k();
    let mut parents = Vec::new();
    let mut roots: Vec<Vec<f64>> = Vec::with_capacity(events.len());
    let mut counts = vec![vec![0.0f64; k]; k];
    for (i, ei) in events.iter().enumerate() {
        let mut r = vec![0.0f64; k];
        r[ei.process] += parent_dist_into(model, events, i, &mut parents);
        for &(j, p) in &parents {
            for c in 0..k {
                r[c] += p * roots[j][c];
            }
        }
        for src in 0..k {
            counts[src][ei.process] += r[src];
        }
        roots.push(r);
    }
    counts
}
