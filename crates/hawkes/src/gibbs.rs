//! Bayesian fitting via a latent-parent Gibbs sampler.
//!
//! The paper: "We fit Hawkes models using Gibbs sampling as described in
//! \[62\]" (Linderman & Adams, *Scalable Bayesian Inference for
//! Excitatory Point Process Networks*). The tractability trick is the
//! same latent branching structure EM uses: conditioned on parent
//! assignments, the posterior factorizes into conjugate Gamma updates —
//!
//! * each event's parent is sampled in proportion to the background rate
//!   and the impulses alive at its time (exactly Fig. 10's narrative);
//! * `μ_k | z ~ Gamma(α_μ + #background events on k, rate β_μ + T)`;
//! * `W[c][k] | z ~ Gamma(α_w + #offspring on k with parent on c,
//!   rate β_w + Σ_{j on c} (1 − e^{−β(T−t_j)}))`.
//!
//! The kernel decay `β` is held fixed, as in the paper (the impulse
//! family is chosen a priori there as well).

use crate::model::{
    horizon_fractions, validate_fit_inputs, DecayState, Event, HawkesError, HawkesModel,
};
use meme_stats::dist::Gamma;
use rand::distr::Distribution;
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// Gibbs sampler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GibbsConfig {
    /// Fixed kernel decay rate.
    pub beta: f64,
    /// Samples to draw after burn-in.
    pub samples: usize,
    /// Burn-in sweeps discarded before collecting.
    pub burn_in: usize,
    /// Gamma prior shape on background rates.
    pub mu_prior_shape: f64,
    /// Gamma prior rate on background rates.
    pub mu_prior_rate: f64,
    /// Gamma prior shape on weights. A shape below 1 concentrates prior
    /// mass near zero — a sparsity-encouraging choice for weak
    /// cross-community links.
    pub w_prior_shape: f64,
    /// Gamma prior rate on weights.
    pub w_prior_rate: f64,
}

impl Default for GibbsConfig {
    fn default() -> Self {
        Self {
            beta: 1.0,
            samples: 200,
            burn_in: 100,
            mu_prior_shape: 1.0,
            mu_prior_rate: 1.0,
            w_prior_shape: 0.5,
            w_prior_rate: 2.0,
        }
    }
}

/// Posterior summary from a Gibbs run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GibbsFit {
    /// Posterior-mean model (the point estimate used downstream).
    pub model: HawkesModel,
    /// Posterior standard deviation of each background rate.
    pub mu_std: Vec<f64>,
    /// Posterior standard deviation of each weight.
    pub w_std: Vec<Vec<f64>>,
    /// Number of collected samples.
    pub samples: usize,
}

/// Run the Gibbs sampler on a sorted event stream observed on
/// `[0, horizon]`.
pub fn fit_gibbs<R: Rng + ?Sized>(
    events: &[Event],
    k: usize,
    horizon: f64,
    config: &GibbsConfig,
    rng: &mut R,
) -> Result<GibbsFit, HawkesError> {
    validate_fit_inputs(events, k, horizon, config.beta)?;
    if config.samples == 0 {
        return Err(HawkesError::InvalidParameter(
            "need at least one posterior sample".into(),
        ));
    }

    let beta = config.beta;

    // Exposure per source community: Σ_{j on c} (1 - e^{-β(T - t_j)}).
    let exposure = horizon_fractions(events, k, beta, horizon);
    let HawkesModel { mut mu, mut w, .. } = HawkesModel::initial_guess(events, k, horizon, beta)?;
    // Σx and Σx² over the collected sweeps, μ first, then W row by row.
    let mut moments = vec![(0.0f64, 0.0f64); k + k * k];
    let mut bg_count = vec![0usize; k];
    let mut off_count = vec![vec![0usize; k]; k];

    for sweep in 0..config.burn_in + config.samples {
        // --- Sample each event's parent. Only the parent's process
        // enters the updates below, so the draw is over the background
        // and the K per-process impulse sums; degenerate weights (a
        // non-finite total, or rounding past the end) fall back to the
        // background instead of aborting the sweep.
        bg_count.fill(0);
        for row in &mut off_count {
            row.fill(0);
        }
        let mut state = DecayState::new(k, beta);
        for e in events {
            let c = e.process;
            state.advance_to(e.t);
            let mut u = rng.random::<f64>() * state.intensity(&mu, &w, c);
            let pick = std::iter::once(&mu[c])
                .chain(&state.by_source)
                .position(|a| {
                    u -= a;
                    u < 0.0
                });
            match pick {
                Some(src @ 1..) => off_count[src - 1][c] += 1,
                _ => bg_count[c] += 1,
            }
            state.push(c);
        }

        // --- Conjugate updates.
        // The prior shapes/rates are validated positive, so these Gamma
        // constructions cannot fail for finite counts; on a degenerate
        // (overflowed) parameter the previous sweep's draw is retained
        // instead of aborting the run.
        for dst in 0..k {
            let shape = config.mu_prior_shape + bg_count[dst] as f64;
            let rate = config.mu_prior_rate + horizon;
            if let Ok(g) = Gamma::new(shape, 1.0 / rate) {
                mu[dst] = g.sample(rng).max(1e-12);
            }
        }
        for src in 0..k {
            for dst in 0..k {
                let shape = config.w_prior_shape + off_count[src][dst] as f64;
                let rate = config.w_prior_rate + exposure[src];
                if let Ok(g) = Gamma::new(shape, 1.0 / rate) {
                    w[src][dst] = g.sample(rng);
                }
            }
        }

        if sweep >= config.burn_in {
            for ((sum, sum2), x) in moments.iter_mut().zip(mu.iter().chain(w.iter().flatten())) {
                *sum += x;
                *sum2 += x * x;
            }
        }
    }

    let c = config.samples as f64;
    let (mean, std): (Vec<f64>, Vec<f64>) = moments
        .iter()
        .map(|(sum, sum2)| {
            let m = sum / c;
            (m, (sum2 / c - m * m).max(0.0).sqrt())
        })
        .unzip();
    let rows = |v: &[f64]| -> Vec<Vec<f64>> { v.chunks(k).map(<[f64]>::to_vec).collect() };
    Ok(GibbsFit {
        model: HawkesModel::new(mean[..k].to_vec(), rows(&mean[k..]), beta)?,
        mu_std: std[..k].to_vec(),
        w_std: rows(&std[k..]),
        samples: config.samples,
    })
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
        let cfg = GibbsConfig::default();
        let mut rng = seeded_rng(0);
        assert!(fit_gibbs(&[], 2, 10.0, &cfg, &mut rng).is_err());
        assert!(fit_gibbs(&[Event::new(1.0, 0)], 0, 10.0, &cfg, &mut rng).is_err());
        assert!(fit_gibbs(&[Event::new(1.0, 0)], 1, -1.0, &cfg, &mut rng).is_err());
        let zero_samples = GibbsConfig {
            samples: 0,
            ..GibbsConfig::default()
        };
        assert!(fit_gibbs(&[Event::new(1.0, 0)], 1, 10.0, &zero_samples, &mut rng).is_err());
        // Same typed error as `fit_em` for the same bad input.
        assert_eq!(
            fit_gibbs(&[], 2, 10.0, &cfg, &mut rng).unwrap_err(),
            HawkesError::EmptyEvents
        );
        use crate::em::{fit_em, EmConfig};
        for (events, k, horizon, beta) in [
            (vec![], 2, 10.0, 1.0),
            (vec![Event::new(1.0, 0)], 0, 10.0, 1.0),
            (vec![Event::new(1.0, 0)], 1, -1.0, 1.0),
            (vec![Event::new(1.0, 0)], 1, 10.0, f64::NAN),
            (vec![Event::new(1.0, 3)], 2, 10.0, 1.0),
            (vec![Event::new(2.0, 0), Event::new(1.0, 0)], 1, 10.0, 1.0),
            (vec![Event::new(11.0, 0)], 1, 10.0, 1.0),
        ] {
            let em_cfg = EmConfig {
                beta,
                ..EmConfig::default()
            };
            assert_eq!(
                fit_gibbs(&events, k, horizon, &GibbsConfig { beta, ..cfg }, &mut rng).unwrap_err(),
                fit_em(&events, k, horizon, &em_cfg).unwrap_err(),
                "k={k} horizon={horizon} beta={beta}"
            );
        }
    }

    #[test]
    fn recovers_ground_truth_posterior_mean() {
        let truth = ground_truth();
        let mut rng = seeded_rng(21);
        let events = strip_lineage(&simulate_branching(&truth, 5000.0, &mut rng));
        let cfg = GibbsConfig {
            beta: 2.0,
            samples: 150,
            burn_in: 75,
            ..GibbsConfig::default()
        };
        let fit = fit_gibbs(&events, 2, 5000.0, &cfg, &mut rng).unwrap();
        for kk in 0..2 {
            let rel = (fit.model.mu[kk] - truth.mu[kk]).abs() / truth.mu[kk];
            assert!(
                rel < 0.2,
                "mu[{kk}] {} vs {}",
                fit.model.mu[kk],
                truth.mu[kk]
            );
        }
        for s in 0..2 {
            for d in 0..2 {
                let err = (fit.model.w[s][d] - truth.w[s][d]).abs();
                assert!(
                    err < 0.1,
                    "w[{s}][{d}] {} vs {}",
                    fit.model.w[s][d],
                    truth.w[s][d]
                );
            }
        }
    }

    #[test]
    fn posterior_std_is_positive_and_modest() {
        let truth = ground_truth();
        let mut rng = seeded_rng(22);
        let events = strip_lineage(&simulate_branching(&truth, 1000.0, &mut rng));
        let cfg = GibbsConfig {
            beta: 2.0,
            samples: 100,
            burn_in: 50,
            ..GibbsConfig::default()
        };
        let fit = fit_gibbs(&events, 2, 1000.0, &cfg, &mut rng).unwrap();
        for s in &fit.mu_std {
            assert!(*s > 0.0 && *s < 0.5, "mu std {s}");
        }
        assert_eq!(fit.samples, 100);
    }

    #[test]
    fn agrees_with_em_on_same_data() {
        use crate::em::{fit_em, EmConfig};
        let truth = ground_truth();
        let mut rng = seeded_rng(23);
        let events = strip_lineage(&simulate_branching(&truth, 2000.0, &mut rng));
        let em = fit_em(
            &events,
            2,
            2000.0,
            &EmConfig {
                beta: 2.0,
                max_iters: 200,
                ..EmConfig::default()
            },
        )
        .unwrap();
        let gb = fit_gibbs(
            &events,
            2,
            2000.0,
            &GibbsConfig {
                beta: 2.0,
                samples: 120,
                burn_in: 60,
                ..GibbsConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        for s in 0..2 {
            for d in 0..2 {
                assert!(
                    (em.model.w[s][d] - gb.model.w[s][d]).abs() < 0.08,
                    "EM {} vs Gibbs {} at [{s}][{d}]",
                    em.model.w[s][d],
                    gb.model.w[s][d]
                );
            }
        }
    }

    #[test]
    fn prior_dominates_tiny_data() {
        // One event: posterior weight should stay near the prior mean
        // (shape/rate = 0.25 by default), not explode.
        let cfg = GibbsConfig::default();
        let mut rng = seeded_rng(24);
        let fit = fit_gibbs(&[Event::new(1.0, 0)], 1, 10.0, &cfg, &mut rng).unwrap();
        let prior_mean = cfg.w_prior_shape / cfg.w_prior_rate;
        assert!((fit.model.w[0][0] - prior_mean).abs() < 0.2);
    }
}
