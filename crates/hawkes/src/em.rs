//! Maximum-likelihood fitting via expectation–maximization.
//!
//! The E-step computes, for every event, the probability that it was
//! caused by the background or by an earlier event on each process (the
//! latent branching structure, summed per source through the decayed
//! state, so a pass is O(nK)); the same pass scores the current model's
//! log-likelihood. The M-step re-estimates background rates and the
//! weight matrix in closed form; the kernel decay `β` stays fixed. This
//! is the classic EM for exponential-kernel Hawkes processes (Lewis &
//! Mohler 2011), used in place of the paper's Gibbs sampler (DESIGN.md
//! §2 records why).

use crate::model::{
    branching_pass, compensator, decay_factors, horizon_fractions, validate_stream, DecayState,
    Event, HawkesError, HawkesModel,
};
use serde::{Deserialize, Serialize};

/// EM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmConfig {
    /// Kernel decay rate, held fixed (the paper fixes the impulse shape
    /// family too).
    pub beta: f64,
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Stop when the log-likelihood improves by less than this.
    pub tol: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            beta: 1.0,
            max_iters: 100,
            tol: 1e-6,
        }
    }
}

/// Result of an EM fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmFit {
    /// The fitted model.
    pub model: HawkesModel,
    /// Final log-likelihood.
    pub log_likelihood: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was reached before `max_iters`.
    pub converged: bool,
}

/// Fit a K-variate Hawkes model to a sorted event stream on
/// `[0, horizon]`.
///
/// Returns an error for invalid inputs (`k == 0`, empty stream, bad
/// horizon, unsorted events, out-of-range process ids).
pub fn fit_em(
    events: &[Event],
    k: usize,
    horizon: f64,
    config: &EmConfig,
) -> Result<EmFit, HawkesError> {
    validate_inputs(events, k, horizon, config.beta)?;

    // Start from half of each process's empirical rate on `[0, horizon]`
    // as background and small uniform weights.
    let mut counts = vec![0usize; k];
    for e in events {
        counts[e.process] += 1;
    }
    let mu = counts.iter().map(|&c| (0.5 * c as f64 / horizon).max(1e-6));
    let mut model = HawkesModel::new(mu.collect(), vec![vec![0.1; k]; k], config.beta)?;
    let mut bg = vec![0.0f64; k];
    let mut pair = vec![vec![0.0f64; k]; k];
    // Shared by the M-step denominator and the compensator.
    let fractions = horizon_fractions(events, k, model.beta, horizon);
    // β stays fixed, so every iteration's E-step decays by the same steps.
    let factors = decay_factors(events, model.beta);
    let mut prev_ll = f64::NEG_INFINITY;
    let mut converged = false;
    let mut iterations = 0;
    loop {
        let mut state = DecayState::new(&model);
        let log_lambda = branching_pass(&model, events, &factors, &mut state, &mut bg, &mut pair);
        // The pass also scores the model the last M-step produced (the
        // initial guess is not scored).
        if iterations > 0 {
            let ll = log_lambda - compensator(&model, horizon, &fractions);
            converged = (ll - prev_ll).abs() < config.tol;
            prev_ll = ll;
            if converged {
                break;
            }
        }
        if iterations == config.max_iters {
            break;
        }
        iterations += 1;

        // M-step.
        for dst in 0..k {
            model.mu[dst] = (bg[dst] / horizon).max(1e-12);
        }
        for src in 0..k {
            for dst in 0..k {
                model.w[src][dst] = if fractions[src] > 0.0 {
                    pair[src][dst] / fractions[src]
                } else {
                    0.0
                };
            }
        }
    }

    // A NaN likelihood or non-finite parameters mean an update step blew
    // up (the loop above only detects *improvement*, so NaN sails
    // through the tolerance check); report divergence instead of handing
    // back a poisoned model.
    if !prev_ll.is_finite()
        || model.mu.iter().any(|m| !m.is_finite())
        || model.w.iter().flatten().any(|x| !x.is_finite())
    {
        return Err(HawkesError::Diverged(format!(
            "non-finite fit after {iterations} iterations (log-likelihood {prev_ll})"
        )));
    }

    Ok(EmFit {
        log_likelihood: prev_ll,
        model,
        iterations,
        converged,
    })
}

/// `fit_em`'s input checks: the arguments, then the stream itself.
fn validate_inputs(events: &[Event], k: usize, horizon: f64, beta: f64) -> Result<(), HawkesError> {
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
    use crate::simulate::{simulate_branching, strip_lineage};
    use meme_stats::seeded_rng;

    fn ground_truth() -> HawkesModel {
        HawkesModel::new(
            vec![0.5, 0.15],
            vec![vec![0.35, 0.25], vec![0.05, 0.3]],
            2.0,
        )
        .unwrap()
    }

    #[test]
    fn rejects_invalid_input() {
        let cfg = EmConfig::default();
        assert!(fit_em(&[], 2, 10.0, &cfg).is_err());
        assert!(fit_em(&[Event::new(1.0, 0)], 0, 10.0, &cfg).is_err());
        assert!(fit_em(&[Event::new(1.0, 0)], 1, 0.0, &cfg).is_err());
        assert!(fit_em(&[Event::new(1.0, 3)], 2, 10.0, &cfg).is_err());
        assert!(fit_em(&[Event::new(2.0, 0), Event::new(1.0, 0)], 1, 10.0, &cfg).is_err());
        // Each bad input is its typed variant
        // (`empty_stream_is_typed_error` below pins `EmptyEvents`).
        let one = [Event::new(1.0, 0)];
        for (k, horizon, beta) in [(0, 10.0, 1.0), (1, 0.0, 1.0), (1, 10.0, f64::NAN)] {
            assert!(matches!(
                fit_em(&one, k, horizon, &EmConfig { beta, ..cfg }),
                Err(HawkesError::InvalidParameter(_))
            ));
        }
        assert!(matches!(
            fit_em(&[Event::new(1.0, 3)], 2, 10.0, &cfg),
            Err(HawkesError::InvalidEvents(_))
        ));
    }

    #[test]
    fn likelihood_is_monotone_under_em() {
        let truth = ground_truth();
        let mut rng = seeded_rng(42);
        let events = strip_lineage(&simulate_branching(&truth, 400.0, &mut rng));
        let mut lls = Vec::new();
        for iters in [1usize, 3, 10, 30] {
            let cfg = EmConfig {
                beta: 2.0,
                max_iters: iters,
                tol: 0.0,
            };
            let fit = fit_em(&events, 2, 400.0, &cfg).unwrap();
            lls.push(fit.log_likelihood);
        }
        for w in lls.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "EM log-likelihood decreased: {lls:?}");
        }
    }

    #[test]
    fn recovers_ground_truth_parameters() {
        let truth = ground_truth();
        let mut rng = seeded_rng(7);
        let events = strip_lineage(&simulate_branching(&truth, 4000.0, &mut rng));
        assert!(
            events.len() > 2000,
            "need a decent sample: {}",
            events.len()
        );
        let cfg = EmConfig {
            beta: 2.0,
            max_iters: 200,
            ..EmConfig::default()
        };
        let fit = fit_em(&events, 2, 4000.0, &cfg).unwrap();
        for kk in 0..2 {
            let rel = (fit.model.mu[kk] - truth.mu[kk]).abs() / truth.mu[kk];
            assert!(
                rel < 0.15,
                "mu[{kk}] fitted {} vs true {}",
                fit.model.mu[kk],
                truth.mu[kk]
            );
        }
        for s in 0..2 {
            for d in 0..2 {
                let err = (fit.model.w[s][d] - truth.w[s][d]).abs();
                assert!(
                    err < 0.08,
                    "w[{s}][{d}] fitted {} vs true {}",
                    fit.model.w[s][d],
                    truth.w[s][d]
                );
            }
        }
    }

    #[test]
    fn pure_poisson_yields_near_zero_weights() {
        let truth = HawkesModel::new(vec![1.0, 0.5], vec![vec![0.0; 2]; 2], 1.0).unwrap();
        let mut rng = seeded_rng(9);
        let events = strip_lineage(&simulate_branching(&truth, 2000.0, &mut rng));
        let cfg = EmConfig {
            beta: 1.0,
            max_iters: 200,
            ..EmConfig::default()
        };
        let fit = fit_em(&events, 2, 2000.0, &cfg).unwrap();
        for s in 0..2 {
            for d in 0..2 {
                assert!(
                    fit.model.w[s][d] < 0.06,
                    "w[{s}][{d}] = {} should be near zero",
                    fit.model.w[s][d]
                );
            }
        }
        assert!((fit.model.mu[0] - 1.0).abs() < 0.15);
        assert!((fit.model.mu[1] - 0.5).abs() < 0.1);
    }

    #[test]
    fn single_event_stream_fits_background_only() {
        let cfg = EmConfig::default();
        let fit = fit_em(&[Event::new(5.0, 0)], 1, 10.0, &cfg).unwrap();
        assert!(fit.model.mu[0] > 0.0);
        // One event, no possible parent: weight must stay ~0 and the
        // background absorbs the event.
        assert!(fit.model.mu[0] <= 0.2);
        assert!(fit.model.w[0][0] < 0.05);
    }

    #[test]
    fn empty_stream_is_typed_error() {
        assert!(matches!(
            fit_em(&[], 2, 10.0, &EmConfig::default()),
            Err(HawkesError::EmptyEvents)
        ));
    }

    #[test]
    fn converges_within_budget() {
        let truth = ground_truth();
        let mut rng = seeded_rng(10);
        let events = strip_lineage(&simulate_branching(&truth, 500.0, &mut rng));
        let cfg = EmConfig {
            beta: 2.0,
            max_iters: 500,
            tol: 1e-8,
        };
        let fit = fit_em(&events, 2, 500.0, &cfg).unwrap();
        assert!(
            fit.converged,
            "did not converge in {} iters",
            fit.iterations
        );
    }
}
