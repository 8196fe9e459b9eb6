//! Maximum-likelihood fitting via expectation–maximization.
//!
//! The E-step computes, for every event, the probability that it was
//! caused by the background or by each earlier event (the latent
//! branching structure); the M-step re-estimates background rates and
//! the weight matrix in closed form. This is the classic EM for
//! exponential-kernel Hawkes processes (Lewis & Mohler 2011), and the
//! deterministic, fast counterpart to the paper's Gibbs sampler — the
//! two fitters are cross-validated against each other in the tests and
//! the `repro` ablations.

use crate::branching::parent_dist_into;
use crate::model::{validate_fit_inputs, validate_stream, Event, HawkesError, HawkesModel};
use serde::{Deserialize, Serialize};

/// EM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmConfig {
    /// Kernel decay rate. When `estimate_beta` is false this value is
    /// held fixed (the paper fixes the impulse shape family too).
    pub beta: f64,
    /// Whether to re-estimate `beta` in each M-step.
    pub estimate_beta: bool,
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Stop when the log-likelihood improves by less than this.
    pub tol: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            beta: 1.0,
            estimate_beta: false,
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
    validate_fit_inputs(events, k, horizon, config.beta)?;

    // Initialization: attribute half the empirical rate to background,
    // start with small uniform weights.
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
    )?;

    let mut prev_ll = f64::NEG_INFINITY;
    let mut converged = false;
    let mut iterations = 0;

    let mut parents: Vec<(usize, f64)> = Vec::new();
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        let beta = model.beta;

        let mut bg_resp = vec![0.0f64; k]; // Σ p_i,bg per process
        let mut pair_resp = vec![vec![0.0f64; k]; k]; // Σ p_ij by (c_j, c_i)
        let mut lag_sum = 0.0f64; // Σ p_ij (t_i - t_j), for beta update
        let mut pair_total = 0.0f64;

        for (i, ei) in events.iter().enumerate() {
            bg_resp[ei.process] += parent_dist_into(&model, events, i, &mut parents);
            for &(j, p) in &parents {
                pair_resp[events[j].process][ei.process] += p;
                lag_sum += p * (ei.t - events[j].t);
                pair_total += p;
            }
        }

        // M-step.
        for dst in 0..k {
            model.mu[dst] = (bg_resp[dst] / horizon).max(1e-12);
        }
        // Denominator: Σ_{j on src} (1 - exp(-beta (T - t_j))) — the
        // expected fraction of each parent's offspring window observed.
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
        if config.estimate_beta && lag_sum > 0.0 {
            model.beta = (pair_total / lag_sum).clamp(1e-6, 1e6);
        }

        let ll = model.log_likelihood(events, horizon)?;
        if (ll - prev_ll).abs() < config.tol {
            prev_ll = ll;
            converged = true;
            break;
        }
        prev_ll = ll;
    }

    // A NaN likelihood or non-finite parameters mean an update step blew
    // up (the loop above only detects *improvement*, so NaN sails
    // through the tolerance check); report divergence instead of handing
    // back a poisoned model.
    if !prev_ll.is_finite()
        || model.mu.iter().any(|m| !m.is_finite())
        || model.w.iter().flatten().any(|x| !x.is_finite())
        || !model.beta.is_finite()
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

/// Nonparametric impulse-response estimate.
///
/// The paper (and our fitters) assume a parametric impulse shape; this
/// diagnostic checks that assumption the way Linderman & Adams motivate
/// their basis functions: compute each event's parent responsibilities
/// under `model`, bin the parent→child lags weighted by responsibility,
/// and normalize to a density over `[0, max_lag)`. If the exponential
/// kernel is right, the histogram tracks `β e^{−β t}`.
///
/// Returns `bins` density values (integrating to ~1 when enough mass
/// falls inside the window); all-zero when the stream has no plausible
/// parent-child pairs. Errors on `bins == 0` or a non-positive /
/// non-finite `max_lag`.
pub fn impulse_histogram(
    model: &HawkesModel,
    events: &[Event],
    bins: usize,
    max_lag: f64,
) -> Result<Vec<f64>, HawkesError> {
    if bins == 0 {
        return Err(HawkesError::InvalidParameter(
            "need at least one bin".into(),
        ));
    }
    if !(max_lag.is_finite() && max_lag > 0.0) {
        return Err(HawkesError::InvalidParameter(
            "max_lag must be finite and positive".into(),
        ));
    }
    validate_stream(events, model.k(), None)?;
    let width = max_lag / bins as f64;
    let mut hist = vec![0.0f64; bins];
    let mut total = 0.0f64;
    let mut parents: Vec<(usize, f64)> = Vec::new();
    for i in 0..events.len() {
        parent_dist_into(model, events, i, &mut parents);
        for &(j, p) in &parents {
            let lag = events[i].t - events[j].t;
            if lag < max_lag {
                hist[(lag / width) as usize] += p;
            }
            total += p;
        }
    }
    if total > 0.0 {
        for h in &mut hist {
            *h /= total * width;
        }
    }
    Ok(hist)
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
        // The variants `fit_gibbs` is held equal to (its own
        // `rejects_invalid_input` compares the two fitters case by case;
        // `empty_stream_is_typed_error` below pins `EmptyEvents`).
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
                ..EmConfig::default()
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
    fn beta_estimation_moves_toward_truth() {
        let truth = ground_truth(); // beta = 2.0
        let mut rng = seeded_rng(8);
        let events = strip_lineage(&simulate_branching(&truth, 3000.0, &mut rng));
        let cfg = EmConfig {
            beta: 0.5, // deliberately wrong start
            estimate_beta: true,
            max_iters: 300,
            ..EmConfig::default()
        };
        let fit = fit_em(&events, 2, 3000.0, &cfg).unwrap();
        assert!(
            (fit.model.beta - 2.0).abs() < 0.5,
            "beta fitted {} vs true 2.0",
            fit.model.beta
        );
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
    fn impulse_histogram_recovers_exponential_shape() {
        let truth = ground_truth(); // beta = 2.0
        let mut rng = seeded_rng(77);
        let events = strip_lineage(&simulate_branching(&truth, 2500.0, &mut rng));
        let hist = impulse_histogram(&truth, &events, 10, 2.0).unwrap();
        // Density at the origin approaches beta = 2 and decays
        // monotonically (allowing small sampling wiggle).
        assert!(hist[0] > 1.4, "origin density {}", hist[0]);
        assert!(hist[0] > 2.0 * hist[5], "no decay: {hist:?}");
        for w in hist.windows(2) {
            assert!(w[1] <= w[0] * 1.25 + 0.05, "non-monotone: {hist:?}");
        }
        // Roughly integrates to the in-window mass of Exp(2):
        // 1 - e^{-4} ~ 0.98.
        let integral: f64 = hist.iter().sum::<f64>() * 0.2;
        assert!((integral - 1.0).abs() < 0.1, "integral {integral}");
    }

    #[test]
    fn impulse_histogram_empty_without_parents() {
        let m = HawkesModel::new(vec![1.0], vec![vec![0.0]], 1.0).unwrap();
        let hist = impulse_histogram(&m, &[Event::new(1.0, 0)], 5, 1.0).unwrap();
        assert!(hist.iter().all(|&h| h == 0.0));
    }

    #[test]
    fn impulse_histogram_rejects_degenerate_binning() {
        let m = HawkesModel::new(vec![1.0], vec![vec![0.1]], 1.0).unwrap();
        let events = [Event::new(1.0, 0)];
        assert!(impulse_histogram(&m, &events, 0, 1.0).is_err());
        assert!(impulse_histogram(&m, &events, 5, 0.0).is_err());
        assert!(impulse_histogram(&m, &events, 5, -1.0).is_err());
        assert!(impulse_histogram(&m, &events, 5, f64::NAN).is_err());
        assert!(impulse_histogram(&m, &events, 5, f64::INFINITY).is_err());
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
            ..EmConfig::default()
        };
        let fit = fit_em(&events, 2, 500.0, &cfg).unwrap();
        assert!(
            fit.converged,
            "did not converge in {} iters",
            fit.iterations
        );
    }
}
