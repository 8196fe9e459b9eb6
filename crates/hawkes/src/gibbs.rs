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

use crate::branching::excitation_into;
use crate::model::{validate_fit_inputs, Event, HawkesError, HawkesModel};
use meme_stats::dist::{Categorical, Gamma};
use rand::distr::Distribution;
use rand::Rng;
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

    let n = events.len();
    let beta = config.beta;

    // Exposure per source community: Σ_{j on c} (1 - e^{-β(T - t_j)}).
    let mut exposure = vec![0.0f64; k];
    let mut n_per = vec![0usize; k];
    for e in events {
        exposure[e.process] += 1.0 - (-beta * (horizon - e.t)).exp();
        n_per[e.process] += 1;
    }

    // State.
    let mut mu: Vec<f64> = n_per
        .iter()
        .map(|&c| (0.5 * c as f64 / horizon).max(1e-6))
        .collect();
    let mut w = vec![vec![0.1f64; k]; k];
    // Parent assignment: usize::MAX = background.
    let mut z = vec![usize::MAX; n];

    let total_sweeps = config.burn_in + config.samples;
    let mut sum_mu = vec![0.0f64; k];
    let mut sum_mu2 = vec![0.0f64; k];
    let mut sum_w = vec![vec![0.0f64; k]; k];
    let mut sum_w2 = vec![vec![0.0f64; k]; k];
    let mut collected = 0usize;
    let mut parents: Vec<(usize, f64)> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();

    for sweep in 0..total_sweeps {
        // --- Sample parents.
        for i in 0..n {
            excitation_into(&mu, &w, beta, events, i, &mut parents);
            weights.clear();
            weights.push(mu[events[i].process]);
            weights.extend(parents.iter().map(|&(_, a)| a));
            z[i] = match Categorical::new(&weights) {
                Ok(cat) if weights.len() > 1 => match cat.sample(rng) {
                    0 => usize::MAX,
                    pick => parents[pick - 1].0,
                },
                // A single candidate (background only) or degenerate
                // weights (all zero, or overflowed to non-finite): fall
                // back to a background attribution for this event
                // rather than aborting the whole sweep.
                _ => usize::MAX,
            };
        }

        // --- Count branching statistics.
        let mut bg_count = vec![0usize; k];
        let mut off_count = vec![vec![0usize; k]; k];
        for i in 0..n {
            if z[i] == usize::MAX {
                bg_count[events[i].process] += 1;
            } else {
                off_count[events[z[i]].process][events[i].process] += 1;
            }
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

        // --- Collect.
        if sweep >= config.burn_in {
            collected += 1;
            for dst in 0..k {
                sum_mu[dst] += mu[dst];
                sum_mu2[dst] += mu[dst] * mu[dst];
            }
            for src in 0..k {
                for dst in 0..k {
                    sum_w[src][dst] += w[src][dst];
                    sum_w2[src][dst] += w[src][dst] * w[src][dst];
                }
            }
        }
    }

    let c = collected as f64;
    let mean_mu: Vec<f64> = sum_mu.iter().map(|s| s / c).collect();
    let mu_std: Vec<f64> = sum_mu2
        .iter()
        .zip(&mean_mu)
        .map(|(s2, m)| (s2 / c - m * m).max(0.0).sqrt())
        .collect();
    let mean_w: Vec<Vec<f64>> = sum_w
        .iter()
        .map(|row| row.iter().map(|s| s / c).collect())
        .collect();
    let w_std: Vec<Vec<f64>> = sum_w2
        .iter()
        .zip(&mean_w)
        .map(|(row2, rowm)| {
            row2.iter()
                .zip(rowm)
                .map(|(s2, m)| (s2 / c - m * m).max(0.0).sqrt())
                .collect()
        })
        .collect();

    Ok(GibbsFit {
        model: HawkesModel::new(mean_mu, mean_w, beta)?,
        mu_std,
        w_std,
        samples: collected,
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
