//! Property-based tests for the Hawkes machinery: simulation laws,
//! attribution conservation, fitting stability over random stable
//! models, and agreement of the O(nK) fit and attribution with the
//! windowed parent walk they replaced (`windowed`, the oracle).

mod windowed;

use meme_hawkes::{
    fit_em, parent_probabilities, root_cause_matrix, root_causes, simulate_branching,
    strip_lineage, EmConfig, Event, HawkesModel,
};
use meme_stats::seeded_rng;
use proptest::prelude::*;

/// How a simulated stream is reshaped before it is fitted.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// As simulated.
    Plain,
    /// Times snapped to a 0.25 grid: many events share a timestamp.
    Ties,
    /// Times compressed 50×: every event inside every later event's
    /// `30/β` window, the shape of a viral cluster.
    Burst,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (0u8..3).prop_map(|i| match i {
        0 => Shape::Plain,
        1 => Shape::Ties,
        _ => Shape::Burst,
    })
}

/// `events` on `[0, horizon]` reshaped by `shape`, with the new horizon.
fn reshape(events: Vec<Event>, horizon: f64, shape: Shape) -> (Vec<Event>, f64) {
    match shape {
        Shape::Plain => (events, horizon),
        Shape::Ties => (
            events
                .into_iter()
                .map(|e| Event::new((e.t * 4.0).floor() / 4.0, e.process))
                .collect(),
            horizon,
        ),
        Shape::Burst => (
            events
                .into_iter()
                .map(|e| Event::new(e.t * 0.02, e.process))
                .collect(),
            horizon * 0.02,
        ),
    }
}

/// `a` and `b` agree to 1e-9, relative to the larger of the two or to
/// `floor`, whichever is largest. The window's cut is absolute (about
/// `e^{−30}` of an impulse per dropped parent), so a value near zero
/// is compared at its quantity's scale: root-cause cells count events
/// (floor 1), and EM shrinks an unsupported weight geometrically toward
/// underflow, compounding the cut along with it (floor 1e-12).
fn close(a: f64, b: f64, floor: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(floor)
}

/// Random stationary models (spectral radius forced < 1 by row scaling).
fn stable_model_strategy() -> impl Strategy<Value = HawkesModel> {
    (2usize..5)
        .prop_flat_map(|k| {
            (
                prop::collection::vec(0.01f64..0.8, k),
                prop::collection::vec(prop::collection::vec(0.0f64..1.0, k), k),
                0.5f64..5.0,
            )
        })
        .prop_map(|(mu, mut w, beta)| {
            // Scale the weight matrix until subcritical.
            let k = mu.len();
            let col_max: f64 = (0..k)
                .map(|d| (0..k).map(|s| w[s][d]).sum::<f64>())
                .fold(0.0, f64::max)
                .max(1e-9);
            let target = 0.7;
            for row in &mut w {
                for x in row.iter_mut() {
                    *x *= target / col_max;
                }
            }
            HawkesModel::new(mu, w, beta).expect("constructed valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_models_are_stationary(m in stable_model_strategy()) {
        prop_assert!(m.spectral_radius() < 1.0);
        let rates = m.stationary_rates().unwrap();
        for (r, mu) in rates.iter().zip(&m.mu) {
            prop_assert!(*r >= *mu - 1e-12);
            prop_assert!(r.is_finite());
        }
    }

    #[test]
    fn simulation_respects_window(m in stable_model_strategy(), seed: u64) {
        let mut rng = seeded_rng(seed);
        let events = simulate_branching(&m, 50.0, &mut rng);
        for w in events.windows(2) {
            prop_assert!(w[0].t <= w[1].t);
        }
        for e in &events {
            prop_assert!((0.0..50.0).contains(&e.t));
            prop_assert!(e.process < m.k());
            if let Some(p) = e.parent {
                prop_assert!(events[p].t <= e.t);
            }
        }
    }

    #[test]
    fn background_probabilities_are_probabilities(m in stable_model_strategy(), seed: u64) {
        let mut rng = seeded_rng(seed);
        let events = strip_lineage(&simulate_branching(&m, 30.0, &mut rng));
        for pd in parent_probabilities(&m, &events).unwrap() {
            prop_assert!((0.0..=1.0).contains(&pd.background), "{}", pd.background);
        }
    }

    #[test]
    fn parent_window_is_lossless(m in stable_model_strategy(), seed: u64) {
        // The decayed state against the unwindowed O(n²) intensity. Ties
        // are excluded: `intensity` counts events strictly before `t`,
        // the state counts every earlier index.
        let mut rng = seeded_rng(seed);
        let events = strip_lineage(&simulate_branching(&m, 60.0, &mut rng));
        prop_assume!(events.windows(2).all(|w| w[0].t < w[1].t));
        let dists = parent_probabilities(&m, &events).unwrap();
        for (e, pd) in events.iter().zip(&dists) {
            let reference = m.mu[e.process] / m.intensity(&events, e.process, e.t);
            prop_assert!((pd.background - reference).abs() < 1e-9);
        }
    }

    #[test]
    fn root_cause_mass_is_conserved(m in stable_model_strategy(), seed: u64) {
        let mut rng = seeded_rng(seed);
        let events = strip_lineage(&simulate_branching(&m, 30.0, &mut rng));
        let roots = root_causes(&m, &events).unwrap();
        for r in &roots {
            prop_assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        // Matrix totals equal event count.
        let matrix = root_cause_matrix(&m, &events).unwrap();
        let total: f64 = matrix.iter().flatten().sum();
        prop_assert!((total - events.len() as f64).abs() < 1e-6);
    }

    #[test]
    fn em_and_attribution_match_the_windowed_walk(
        m in stable_model_strategy(),
        seed: u64,
        shape in shape_strategy(),
    ) {
        let mut rng = seeded_rng(seed);
        let (events, horizon) =
            reshape(strip_lineage(&simulate_branching(&m, 40.0, &mut rng)), 40.0, shape);
        prop_assume!(!events.is_empty());
        // β is held fixed, as Step 7 holds it. An estimated β is not a
        // rounding question: when every parent pair lies beyond the
        // window, the walk sees no lag and keeps β while the recursion
        // moves it to the reciprocal mean lag.
        let cfg = EmConfig {
            beta: m.beta,
            max_iters: 40,
            ..EmConfig::default()
        };
        let fit = fit_em(&events, m.k(), horizon, &cfg).unwrap();
        let oracle = windowed::fit_em(&events, m.k(), horizon, &cfg);
        prop_assert_eq!(fit.iterations, oracle.iterations);
        prop_assert!(
            close(fit.log_likelihood, oracle.log_likelihood, 1e-12),
            "LL {} vs {}", fit.log_likelihood, oracle.log_likelihood
        );
        for (a, b) in fit.model.mu.iter().zip(&oracle.model.mu) {
            prop_assert!(close(*a, *b, 1e-12), "mu {} vs {}", a, b);
        }
        for (a, b) in fit.model.w.iter().flatten().zip(oracle.model.w.iter().flatten()) {
            prop_assert!(close(*a, *b, 1e-12), "w {} vs {}", a, b);
        }
        // Attribution under the generating model and under the fit.
        for model in [&m, &fit.model] {
            let fast = root_cause_matrix(model, &events).unwrap();
            let slow = windowed::root_cause_matrix(model, &events);
            for (a, b) in fast.iter().flatten().zip(slow.iter().flatten()) {
                prop_assert!(close(*a, *b, 1.0), "roots {} vs {}", a, b);
            }
        }
    }

    #[test]
    fn log_likelihood_is_finite_on_own_sample(m in stable_model_strategy(), seed: u64) {
        let mut rng = seeded_rng(seed);
        let events = strip_lineage(&simulate_branching(&m, 40.0, &mut rng));
        let ll = m.log_likelihood(&events, 40.0).unwrap();
        prop_assert!(ll.is_finite());
    }

    #[test]
    fn em_output_is_valid_model(m in stable_model_strategy(), seed: u64) {
        let mut rng = seeded_rng(seed);
        let events = strip_lineage(&simulate_branching(&m, 80.0, &mut rng));
        prop_assume!(!events.is_empty());
        let fit = fit_em(
            &events,
            m.k(),
            80.0,
            &EmConfig {
                beta: m.beta,
                max_iters: 15,
                ..EmConfig::default()
            },
        )
        .unwrap();
        prop_assert!(fit.model.mu.iter().all(|x| x.is_finite() && *x >= 0.0));
        prop_assert!(fit
            .model
            .w
            .iter()
            .flatten()
            .all(|x| x.is_finite() && *x >= 0.0));
        prop_assert!(fit.log_likelihood.is_finite());
        // The fitted model assigns its training data a likelihood at
        // least as good as a crude homogeneous-Poisson baseline.
        let k = m.k();
        let baseline = HawkesModel::new(
            (0..k)
                .map(|c| {
                    (events.iter().filter(|e| e.process == c).count() as f64 / 80.0)
                        .max(1e-6)
                })
                .collect(),
            vec![vec![0.0; k]; k],
            m.beta,
        )
        .unwrap();
        let ll_base = baseline.log_likelihood(&events, 80.0).unwrap();
        prop_assert!(fit.log_likelihood >= ll_base - 1e-6);
    }

    #[test]
    fn intensity_is_nonnegative_everywhere(m in stable_model_strategy(), seed: u64, t in 0.0f64..50.0) {
        let mut rng = seeded_rng(seed);
        let events = strip_lineage(&simulate_branching(&m, 50.0, &mut rng));
        for dst in 0..m.k() {
            let lam = m.intensity(&events, dst, t);
            prop_assert!(lam >= m.mu[dst] - 1e-12);
            prop_assert!(lam.is_finite());
        }
    }

    #[test]
    fn validate_events_accepts_simulated_streams(m in stable_model_strategy(), seed: u64) {
        let mut rng = seeded_rng(seed);
        let events = strip_lineage(&simulate_branching(&m, 25.0, &mut rng));
        prop_assert!(m.validate_events(&events, 25.0).is_ok());
    }

    #[test]
    fn empty_event_stream_handled(m in stable_model_strategy()) {
        let events: Vec<Event> = Vec::new();
        prop_assert!(m.validate_events(&events, 10.0).is_ok());
        prop_assert!(m.log_likelihood(&events, 10.0).unwrap().is_finite());
        prop_assert!(root_cause_matrix(&m, &events)
            .unwrap()
            .iter()
            .flatten()
            .all(|x| *x == 0.0));
    }
}
