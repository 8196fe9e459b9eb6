//! Goodness-of-fit diagnostics via the time-rescaling theorem.
//!
//! If a point process with compensator `Λ_k(t)` generated the data, the
//! rescaled inter-event gaps `Λ_k(t_{i+1}) − Λ_k(t_i)` on each process
//! are i.i.d. unit-rate exponentials. Large deviations (detected with a
//! one-sample KS test against `Exp(1)`) indicate model misfit. The
//! paper does not report this check; we add it because a reproduction
//! should demonstrate that the per-cluster fits are actually adequate.

use crate::model::{DecayState, Event, HawkesError, HawkesModel};
use meme_stats::ks::kolmogorov_q;
use serde::{Deserialize, Serialize};

/// Result of a per-process residual analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResidualReport {
    /// Rescaled inter-event gaps per process.
    pub residuals: Vec<Vec<f64>>,
    /// One-sample KS statistic against Exp(1) per process (`None` when a
    /// process has fewer than 2 events).
    pub ks_statistic: Vec<Option<f64>>,
    /// Asymptotic KS p-value per process.
    pub p_value: Vec<Option<f64>>,
}

impl ResidualReport {
    /// Whether every process with enough data passes at level `alpha`.
    pub fn passes(&self, alpha: f64) -> bool {
        self.p_value.iter().flatten().all(|p| *p >= alpha)
    }
}

/// Compute rescaled residuals of `events` under `model` and test them
/// against the unit-rate exponential.
pub fn residual_analysis(
    model: &HawkesModel,
    events: &[Event],
    horizon: f64,
) -> Result<ResidualReport, HawkesError> {
    model.validate_events(events, horizon)?;
    let k = model.k();
    // Compensator at each event time, incremental O(nK):
    // Λ_k(t) = μ_k t + Σ_{t_j < t} W[c_j][k] (1 − e^{−β (t − t_j)}).
    // With the decayed state's R_c and n_seen[c] = count,
    // Σ (1 − e^..) = n_seen[c] − R_c.
    let mut state = DecayState::new(model);
    let mut n_seen = vec![0.0f64; k];
    let mut last_compensator: Vec<Option<f64>> = vec![None; k];
    let mut residuals: Vec<Vec<f64>> = vec![Vec::new(); k];

    for e in events {
        state.advance_to(e.t);
        // Compensator of the event's own process at this time.
        let dst = e.process;
        let mut comp = model.mu[dst] * e.t;
        for c in 0..k {
            comp += model.w[c][dst] * (n_seen[c] - state.r[c]);
        }
        if let Some(prev) = last_compensator[dst] {
            residuals[dst].push(comp - prev);
        }
        last_compensator[dst] = Some(comp);
        state.push(dst);
        n_seen[dst] += 1.0;
    }

    let mut ks_statistic = vec![None; k];
    let mut p_value = vec![None; k];
    for dst in 0..k {
        if residuals[dst].len() >= 2 {
            let (d, p) = ks_exp1(&residuals[dst]);
            ks_statistic[dst] = Some(d);
            p_value[dst] = Some(p);
        }
    }
    Ok(ResidualReport {
        residuals,
        ks_statistic,
        p_value,
    })
}

/// One-sample KS test of `sample` against the unit-rate exponential.
/// Returns `(statistic, asymptotic p-value)`.
pub fn ks_exp1(sample: &[f64]) -> (f64, f64) {
    let mut xs = sample.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let f = 1.0 - (-x.max(0.0)).exp();
        let lo = i as f64 / n;
        let hi = (i as f64 + 1.0) / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    let en = n.sqrt();
    let lambda = (en + 0.12 + 0.11 / en) * d;
    (d, kolmogorov_q(lambda))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{simulate_branching, strip_lineage};
    use meme_stats::dist::Exponential;
    use meme_stats::seeded_rng;
    use rand::distr::Distribution;

    fn truth() -> HawkesModel {
        HawkesModel::new(vec![0.5, 0.2], vec![vec![0.3, 0.2], vec![0.1, 0.3]], 2.0).unwrap()
    }

    #[test]
    fn ks_exp1_accepts_exponential_sample() {
        let mut rng = seeded_rng(51);
        let d = Exponential::new(1.0).unwrap();
        let xs: Vec<f64> = (0..1000).map(|_| d.sample(&mut rng)).collect();
        let (_, p) = ks_exp1(&xs);
        assert!(p > 0.01, "p = {p}");
    }

    #[test]
    fn ks_exp1_rejects_wrong_rate() {
        let mut rng = seeded_rng(52);
        let d = Exponential::new(3.0).unwrap();
        let xs: Vec<f64> = (0..1000).map(|_| d.sample(&mut rng)).collect();
        let (_, p) = ks_exp1(&xs);
        assert!(p < 0.001, "p = {p}");
    }

    #[test]
    fn true_model_passes_residual_test() {
        let m = truth();
        let mut rng = seeded_rng(53);
        let events = strip_lineage(&simulate_branching(&m, 1500.0, &mut rng));
        let report = residual_analysis(&m, &events, 1500.0).unwrap();
        assert!(report.passes(0.005), "p-values: {:?}", report.p_value);
        // Residual means should be ~1.
        for r in &report.residuals {
            let mean: f64 = r.iter().sum::<f64>() / r.len() as f64;
            assert!((mean - 1.0).abs() < 0.1, "mean residual {mean}");
        }
    }

    #[test]
    fn wrong_model_fails_residual_test() {
        let m = truth();
        let mut rng = seeded_rng(54);
        let events = strip_lineage(&simulate_branching(&m, 1500.0, &mut rng));
        // A pure-Poisson model with wrong rates.
        let wrong = HawkesModel::new(vec![0.05, 0.05], vec![vec![0.0; 2]; 2], 2.0).unwrap();
        let report = residual_analysis(&wrong, &events, 1500.0).unwrap();
        assert!(!report.passes(0.01));
    }

    #[test]
    fn sparse_processes_are_skipped() {
        let m = truth();
        let events = vec![Event::new(1.0, 0)];
        let report = residual_analysis(&m, &events, 10.0).unwrap();
        assert_eq!(report.ks_statistic[0], None);
        assert_eq!(report.ks_statistic[1], None);
        assert!(report.passes(0.01)); // vacuously
    }
}
