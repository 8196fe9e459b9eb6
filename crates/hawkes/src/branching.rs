//! The latent branching structure, one event at a time: which earlier
//! events could have caused event `i`, and how strongly does each excite
//! its process at `t_i` against the background rate? Both fitters and
//! attribution ask exactly this; [`excitation_into`] is the only walk
//! that answers it.

use crate::model::{Event, HawkesModel};

/// Candidate parents farther back than this many kernel time-constants
/// (`1/β`) are ignored: `exp(-30) ≈ 1e-13` of the impulse's peak, so the
/// cut is lossless in double precision while keeping the walk
/// near-linear on long streams.
pub const PARENT_WINDOW_TIME_CONSTANTS: f64 = 30.0;

/// Fill `parents` with `(j, W[c_j][c_i] β e^{−β(t_i − t_j)})` for every
/// earlier event `j` inside the window whose excitation is positive, and
/// return `mu[c_i]` plus their sum — event `i`'s intensity.
///
/// Takes raw `(mu, w, beta)` because the Gibbs sampler has no
/// `HawkesModel` mid-sweep. The walk runs newest parent first and
/// `total` accumulates in that order; floating-point addition does not
/// associate, so both orders are part of every caller's bit-exact
/// output. `events` must be sorted with process ids below `mu.len()`.
// lint:hotpath(per-event branching weights; the caller's scratch amortizes allocation)
pub(crate) fn excitation_into(
    mu: &[f64],
    w: &[Vec<f64>],
    beta: f64,
    events: &[Event],
    i: usize,
    parents: &mut Vec<(usize, f64)>,
) -> f64 {
    parents.clear();
    let ei = events[i];
    let max_lag = PARENT_WINDOW_TIME_CONSTANTS / beta;
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

/// Event `i`'s parent distribution under `model`: returns P(background)
/// and leaves `(j, P(parent is j))` in `parents`, newest first. With no
/// background and no candidate parent the event is degenerate and counts
/// as pure background, so the probabilities still sum to one.
// lint:hotpath(per-event parent distribution; normalizes the caller's scratch in place)
pub(crate) fn parent_dist_into(
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
