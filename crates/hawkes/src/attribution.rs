//! Root-cause attribution.
//!
//! §5.1: "we assign the probability of being the root cause in
//! proportion to the magnitudes of the impulses (including the
//! background rate) present at the time of the event … Because event 2
//! is attributed both to communities B and C, event 3 is partly
//! attributed to community B through both event 1 and event 2."
//!
//! Concretely: for each event weigh the background against every earlier
//! event's impulse, then propagate *recursively* so that every event
//! carries a full probability distribution over root-cause communities.
//! This is the paper's improvement over the one-hop estimate of their
//! earlier work (\[86\]). The recursion runs forward through a decayed
//! sum of earlier roots per source process (`Q_s` in `DecayState`), so
//! it is O(nK²) and [`root_cause_matrix`] allocates nothing per event.

use crate::model::{validate_stream, DecayState, Event, HawkesError, HawkesModel};

/// Parent probabilities for one event.
#[derive(Debug, Clone, PartialEq)]
pub struct ParentDist {
    /// Probability the event came from the background rate.
    pub background: f64,
}

/// Compute each event's parent distribution under `model`. An event
/// with neither background nor excitation is pure background.
///
/// Errors with [`HawkesError::InvalidEvents`] when events are unsorted
/// (a NaN time counts as unsorted) or a process id is out of range.
pub fn parent_probabilities(
    model: &HawkesModel,
    events: &[Event],
) -> Result<Vec<ParentDist>, HawkesError> {
    let mut dists = Vec::with_capacity(events.len());
    for_each_root(model, events, |_, background, _| {
        dists.push(ParentDist { background })
    })?;
    Ok(dists)
}

/// Root-cause distributions: `result[i][c]` is the probability that the
/// root cause of event `i` is community `c`. Each row sums to 1.
///
/// Computed forward in time: a background event is its own root; an
/// event caused by parent `j` inherits `j`'s root distribution. Errors
/// as [`parent_probabilities`] does.
pub fn root_causes(model: &HawkesModel, events: &[Event]) -> Result<Vec<Vec<f64>>, HawkesError> {
    let mut roots = Vec::with_capacity(events.len());
    for_each_root(model, events, |_, _, root| roots.push(root.to_vec()))?;
    Ok(roots)
}

/// Aggregate root causes into an influence count matrix:
/// `counts[src][dst] = Σ_{events i on dst} P(root cause of i is src)`.
///
/// Row/column semantics match Figs. 11–16: `src` is the causing
/// community, `dst` the community the event happened on. Column sums
/// equal the per-community event counts. Errors as
/// [`parent_probabilities`] does.
pub fn root_cause_matrix(
    model: &HawkesModel,
    events: &[Event],
) -> Result<Vec<Vec<f64>>, HawkesError> {
    let k = model.k();
    let mut counts = vec![vec![0.0f64; k]; k];
    for_each_root(model, events, |dst, _, root| {
        for (row, r) in counts.iter_mut().zip(root) {
            row[dst] += r;
        }
    })?;
    Ok(counts)
}

/// Hand `visit` each event's process, background probability and
/// root-cause distribution, in stream order.
fn for_each_root(
    model: &HawkesModel,
    events: &[Event],
    mut visit: impl FnMut(usize, f64, &[f64]),
) -> Result<(), HawkesError> {
    let k = model.k();
    validate_stream(events, k, None)?;
    let mut state = DecayState::new(model).with_roots();
    let mut root = vec![0.0f64; k];
    for e in events {
        let background = root_step(model, &mut state, *e, &mut root);
        visit(e.process, background, &root);
    }
    Ok(())
}

/// Event `e`'s root-cause distribution into `root`, after which `e`
/// joins `state`; returns its background probability. The parent on
/// `s` is event `i` with probability `W[s][c] β e^{−β(t − t_i)} / λ`, so
/// what `e` inherits through `s` is `(W[s][c] β / λ) Q_s`.
// lint:hotpath(per-event root propagation: K² multiply-adds into the caller's scratch)
fn root_step(model: &HawkesModel, state: &mut DecayState, e: Event, root: &mut [f64]) -> f64 {
    let c = e.process;
    state.advance_to(e.t);
    let lambda = state.intensity(c);
    root.fill(0.0);
    // With neither background nor excitation the event is its own root.
    let background = if lambda > 0.0 {
        model.mu[c] / lambda
    } else {
        1.0
    };
    root[c] = background;
    if lambda > 0.0 {
        for (row, q) in model.w.iter().zip(state.q.chunks_exact(root.len())) {
            let share = row[c] * model.beta / lambda;
            for (r, q) in root.iter_mut().zip(q) {
                *r += share * q;
            }
        }
    }
    state.push(c);
    state.push_root(c, root);
    background
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{simulate_branching, strip_lineage, true_root_community};
    use meme_stats::seeded_rng;

    fn toy() -> HawkesModel {
        HawkesModel::new(vec![0.4, 0.1], vec![vec![0.3, 0.3], vec![0.05, 0.2]], 2.0).unwrap()
    }

    #[test]
    fn first_event_is_pure_background() {
        let m = toy();
        let events = vec![Event::new(1.0, 0), Event::new(1.1, 1)];
        let dists = parent_probabilities(&m, &events).unwrap();
        assert_eq!(dists[0].background, 1.0);
        // Second event splits between background and event 0.
        let excitation = m.w[0][1] * m.beta * (-m.beta * 0.1f64).exp();
        let expected = m.mu[1] / (m.mu[1] + excitation);
        assert!((dists[1].background - expected).abs() < 1e-12);
    }

    #[test]
    fn closer_parents_excite_more() {
        let m = toy();
        let near = [Event::new(0.0, 0), Event::new(0.1, 1)];
        let far = [Event::new(0.0, 0), Event::new(2.0, 1)];
        let p_near = parent_probabilities(&m, &near).unwrap()[1].background;
        let p_far = parent_probabilities(&m, &far).unwrap()[1].background;
        assert!(p_near < p_far, "near {p_near} vs far {p_far}");
        // Root mass follows: the near child owes more to process 0.
        let r_near = root_causes(&m, &near).unwrap()[1][0];
        let r_far = root_causes(&m, &far).unwrap()[1][0];
        assert!(r_near > r_far, "near {r_near} vs far {r_far}");
    }

    #[test]
    fn root_rows_sum_to_one() {
        let m = toy();
        let mut rng = seeded_rng(11);
        let events = strip_lineage(&simulate_branching(&m, 300.0, &mut rng));
        let roots = root_causes(&m, &events).unwrap();
        for r in &roots {
            let s: f64 = r.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row sum {s}");
        }
    }

    #[test]
    fn matrix_columns_sum_to_event_counts() {
        let m = toy();
        let mut rng = seeded_rng(12);
        let events = strip_lineage(&simulate_branching(&m, 300.0, &mut rng));
        let counts = root_cause_matrix(&m, &events).unwrap();
        let mut per_dst = [0usize; 2];
        for e in &events {
            per_dst[e.process] += 1;
        }
        for dst in 0..2 {
            let col: f64 = (0..2).map(|src| counts[src][dst]).sum();
            assert!(
                (col - per_dst[dst] as f64).abs() < 1e-6,
                "column {dst}: {col} vs {}",
                per_dst[dst]
            );
        }
    }

    #[test]
    fn attribution_recovers_true_roots_under_true_model() {
        // With the generating model, expected root-cause mass per source
        // should track the ground-truth root counts from the simulator's
        // lineage within a few percent.
        let m = toy();
        let mut rng = seeded_rng(13);
        let sim = simulate_branching(&m, 2000.0, &mut rng);
        let events = strip_lineage(&sim);
        let counts = root_cause_matrix(&m, &events).unwrap();
        let mut true_counts = vec![vec![0.0f64; 2]; 2];
        for i in 0..sim.len() {
            let root = true_root_community(&sim, i);
            true_counts[root][sim[i].process] += 1.0;
        }
        for src in 0..2 {
            for dst in 0..2 {
                let est = counts[src][dst];
                let truth = true_counts[src][dst];
                let scale = truth.max(50.0);
                assert!(
                    (est - truth).abs() / scale < 0.25,
                    "cell [{src}][{dst}]: est {est:.1} vs truth {truth:.1}"
                );
            }
        }
    }

    #[test]
    fn pure_background_model_attributes_everything_to_self() {
        let m = HawkesModel::new(vec![1.0, 1.0], vec![vec![0.0; 2]; 2], 1.0).unwrap();
        let events = vec![Event::new(0.5, 0), Event::new(0.6, 1), Event::new(0.7, 0)];
        let counts = root_cause_matrix(&m, &events).unwrap();
        assert_eq!(counts[0][0], 2.0);
        assert_eq!(counts[1][1], 1.0);
        assert_eq!(counts[0][1], 0.0);
        assert_eq!(counts[1][0], 0.0);
    }

    #[test]
    fn malformed_streams_are_typed_errors() {
        let m = toy();
        let unsorted = [Event::new(2.0, 0), Event::new(1.0, 1)];
        let out_of_range = [Event::new(1.0, 0), Event::new(2.0, 2)];
        let not_finite = [Event::new(1.0, 0), Event::new(f64::NAN, 1)];
        for events in [&unsorted[..], &out_of_range[..], &not_finite[..]] {
            assert!(matches!(
                parent_probabilities(&m, events),
                Err(HawkesError::InvalidEvents(_))
            ));
            assert!(matches!(
                root_causes(&m, events),
                Err(HawkesError::InvalidEvents(_))
            ));
            assert!(matches!(
                root_cause_matrix(&m, events),
                Err(HawkesError::InvalidEvents(_))
            ));
        }
    }

    #[test]
    fn empty_stream_gives_zero_matrix() {
        let m = toy();
        let counts = root_cause_matrix(&m, &[]).unwrap();
        assert!(counts.iter().flatten().all(|&x| x == 0.0));
    }
}
