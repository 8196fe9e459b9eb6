//! Simulated annotation panel — Appendix B.
//!
//! The paper had three authors judge 200 annotated clusters
//! ("correct label" vs "incorrect label"), reported Fleiss κ = 0.67
//! ("substantial") and 89% majority-vote accuracy. Human annotators are
//! not available to a reproduction, but the *computation* is: the
//! simulator knows which annotations are truly correct, and this module
//! models annotators as noisy observers of that truth, then runs the
//! identical κ/accuracy analysis.

use meme_stats::agreement::{fleiss_kappa, interpret_kappa};
use meme_stats::WsRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Outcome of an Appendix-B style panel evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanelReport {
    /// Fleiss' kappa across the panel.
    pub fleiss_kappa: f64,
    /// Landis–Koch interpretation of the kappa.
    pub interpretation: &'static str,
    /// Fraction of clusters whose majority vote matches ground truth.
    pub majority_accuracy: f64,
    /// Fraction of clusters the majority judged "correctly annotated"
    /// (the paper's 89% headline is this number under the assumption the
    /// majority is right).
    pub majority_positive_rate: f64,
    /// Number of clusters assessed.
    pub n_clusters: usize,
    /// Number of annotators.
    pub n_raters: usize,
}

/// Simulate `n_raters` annotators judging each cluster annotation.
///
/// `truth[i]` is whether cluster `i`'s annotation is actually correct;
/// each rater reports the truth independently with probability
/// `1 - error_rate`. Returns `None` when inputs are degenerate
/// (no clusters, fewer than 2 raters, error rate outside `[0, 1]`).
pub fn simulate_panel(
    truth: &[bool],
    n_raters: usize,
    error_rate: f64,
    rng: &mut WsRng,
) -> Option<PanelReport> {
    if truth.is_empty() || n_raters < 2 || !(0.0..=1.0).contains(&error_rate) {
        return None;
    }
    // ratings[i] = [votes "incorrect", votes "correct"].
    let mut ratings: Vec<Vec<usize>> = Vec::with_capacity(truth.len());
    let mut majority_correct = 0usize;
    let mut majority_positive = 0usize;
    for &t in truth {
        let mut votes = [0usize; 2];
        for _ in 0..n_raters {
            let observed = if rng.random::<f64>() < error_rate {
                !t
            } else {
                t
            };
            votes[usize::from(observed)] += 1;
        }
        let [incorrect, correct] = votes;
        let majority_says_correct = correct > incorrect;
        if majority_says_correct == t {
            majority_correct += 1;
        }
        if majority_says_correct {
            majority_positive += 1;
        }
        ratings.push(votes.to_vec());
    }
    let kappa = fleiss_kappa(&ratings)?;
    Some(PanelReport {
        fleiss_kappa: kappa,
        interpretation: interpret_kappa(kappa),
        majority_accuracy: majority_correct as f64 / truth.len() as f64,
        majority_positive_rate: majority_positive as f64 / truth.len() as f64,
        n_clusters: truth.len(),
        n_raters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use meme_stats::seeded_rng;

    #[test]
    fn rejects_degenerate_input() {
        let mut rng = seeded_rng(1);
        assert!(simulate_panel(&[], 3, 0.1, &mut rng).is_none());
        assert!(simulate_panel(&[true], 1, 0.1, &mut rng).is_none());
        assert!(simulate_panel(&[true], 3, 1.5, &mut rng).is_none());
    }

    #[test]
    fn perfect_raters_give_kappa_one() {
        let mut rng = seeded_rng(2);
        // Mixed truth so both categories appear.
        let truth: Vec<bool> = (0..100).map(|i| i % 3 != 0).collect();
        let report = simulate_panel(&truth, 3, 0.0, &mut rng).unwrap();
        assert!((report.fleiss_kappa - 1.0).abs() < 1e-12);
        assert_eq!(report.majority_accuracy, 1.0);
        assert_eq!(report.interpretation, "almost perfect");
    }

    #[test]
    fn random_raters_give_kappa_near_zero() {
        let mut rng = seeded_rng(3);
        let truth: Vec<bool> = (0..500).map(|i| i % 2 == 0).collect();
        let report = simulate_panel(&truth, 3, 0.5, &mut rng).unwrap();
        assert!(
            report.fleiss_kappa.abs() < 0.1,
            "kappa {}",
            report.fleiss_kappa
        );
    }

    #[test]
    fn moderate_noise_reproduces_paper_band() {
        // With ~5% individual error over an 89%-correct annotation set
        // (the paper's imbalance), the panel lands in the "substantial
        // agreement" band — κ is deflated by the skewed marginals, the
        // same effect behind the paper's κ = 0.67 despite 89% accuracy.
        let mut rng = seeded_rng(4);
        let truth: Vec<bool> = (0..200).map(|i| i % 10 != 0).collect();
        let report = simulate_panel(&truth, 3, 0.05, &mut rng).unwrap();
        assert!(
            (0.4..0.85).contains(&report.fleiss_kappa),
            "kappa {}",
            report.fleiss_kappa
        );
        assert!(
            report.majority_accuracy > 0.85,
            "accuracy {}",
            report.majority_accuracy
        );
        assert_eq!(report.n_clusters, 200);
        assert_eq!(report.n_raters, 3);
    }
}
