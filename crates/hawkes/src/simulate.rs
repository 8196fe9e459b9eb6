//! Exact simulation of multivariate Hawkes processes.
//!
//! Two independent algorithms:
//!
//! * [`simulate_branching`] — the cluster (immigrant/offspring)
//!   representation. Immigrants arrive as Poisson processes at the
//!   background rates; every event spawns Poisson-many offspring on each
//!   destination with exponentially distributed delays. This records the
//!   **true parent of every event**, giving the ecosystem simulator
//!   ground-truth root causes to validate attribution against.
//! * [`simulate_thinning`] — Ogata's modified thinning algorithm, used
//!   by the test suite as an algorithmically independent cross-check of
//!   event rates.

use crate::model::{DecayState, Event, HawkesModel};
use meme_stats::dist::{Exponential, Poisson};
use rand::distr::Distribution;
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// A simulated event with ground-truth lineage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimEvent {
    /// Event time.
    pub t: f64,
    /// Process (community) the event occurred on.
    pub process: usize,
    /// Index (into the returned, time-sorted vector) of the parent
    /// event; `None` for immigrants (background events).
    pub parent: Option<usize>,
}

impl SimEvent {
    /// Drop lineage, keeping the observable part.
    pub fn to_event(self) -> Event {
        Event::new(self.t, self.process)
    }
}

/// Convert simulated events to plain observable events.
pub fn strip_lineage(events: &[SimEvent]) -> Vec<Event> {
    events.iter().map(|e| e.to_event()).collect()
}

/// Walk lineage up to the root and return the root's process — the
/// ground-truth "root cause community" of event `i`.
pub fn true_root_community(events: &[SimEvent], mut i: usize) -> usize {
    loop {
        match events[i].parent {
            None => return events[i].process,
            Some(p) => i = p,
        }
    }
}

/// Simulate on `[0, horizon)` by the branching representation.
///
/// Returns events sorted by time with `parent` indices referring to the
/// returned order.
///
/// # Panics
/// Panics when the model is non-stationary (spectral radius ≥ 1) —
/// cascades would explode — or `horizon <= 0`.
pub fn simulate_branching<R: Rng + ?Sized>(
    model: &HawkesModel,
    horizon: f64,
    rng: &mut R,
) -> Vec<SimEvent> {
    assert!(horizon > 0.0, "horizon must be positive");
    assert!(
        model.is_stationary(),
        "branching simulation requires spectral radius < 1"
    );
    let k = model.k();
    // Provisional arena with parent pointers into itself.
    struct Node {
        t: f64,
        process: usize,
        parent: Option<usize>,
    }
    let mut arena: Vec<Node> = Vec::new();

    // Immigrants: Poisson(mu_k * horizon) events, uniform on [0, horizon).
    for proc in 0..k {
        // Rates are validated non-negative, so an ordering compare is
        // the round-off-robust form of the "process absent" test.
        if model.mu[proc] <= 0.0 {
            continue;
        }
        // Validated rates make this constructible; a degenerate
        // (overflowed) rate contributes no immigrants instead of
        // aborting the simulation.
        let Ok(dist) = Poisson::new(model.mu[proc] * horizon) else {
            continue;
        };
        let n = dist.sample(rng);
        for _ in 0..n {
            arena.push(Node {
                t: rng.random::<f64>() * horizon,
                process: proc,
                parent: None,
            });
        }
    }

    // Offspring cascade (breadth via work queue over arena indices).
    // `HawkesModel` validation guarantees beta > 0 and finite, so the
    // delay distribution always constructs; defensively, an
    // unconstructible delay means no offspring can be placed.
    let delay = Exponential::new(model.beta).ok();
    let mut cursor = 0usize;
    while cursor < arena.len() {
        let Some(delay) = delay else { break };
        let (t0, src) = (arena[cursor].t, arena[cursor].process);
        for dst in 0..k {
            let w = model.w[src][dst];
            // Stationary weights are non-negative; see the mu guard.
            if w <= 0.0 {
                continue;
            }
            let Ok(branching) = Poisson::new(w) else {
                continue;
            };
            let n = branching.sample(rng);
            for _ in 0..n {
                let t = t0 + delay.sample(rng);
                if t < horizon {
                    arena.push(Node {
                        t,
                        process: dst,
                        parent: Some(cursor),
                    });
                }
            }
        }
        cursor += 1;
    }

    // Sort by time and remap parent indices.
    let mut order: Vec<usize> = (0..arena.len()).collect();
    order.sort_by(|&a, &b| arena[a].t.total_cmp(&arena[b].t));
    let mut rank = vec![0usize; arena.len()];
    for (new_idx, &old_idx) in order.iter().enumerate() {
        rank[old_idx] = new_idx;
    }
    order
        .iter()
        .map(|&old| SimEvent {
            t: arena[old].t,
            process: arena[old].process,
            parent: arena[old].parent.map(|p| rank[p]),
        })
        .collect()
}

/// Simulate on `[0, horizon)` by Ogata's modified thinning algorithm.
/// No lineage is produced (thinning does not expose it naturally); used
/// as an independent check on the branching implementation.
///
/// # Panics
/// Panics when `horizon <= 0`.
pub fn simulate_thinning<R: Rng + ?Sized>(
    model: &HawkesModel,
    horizon: f64,
    rng: &mut R,
) -> Vec<Event> {
    assert!(horizon > 0.0, "horizon must be positive");
    let k = model.k();
    let mut events: Vec<Event> = Vec::new();
    let mut state = DecayState::new(model);
    let mut lambdas = vec![0.0f64; k];
    let mut t = 0.0f64;
    loop {
        // Upper bound on total intensity from now on: current value
        // (intensities only decay between events).
        let bound: f64 = (0..k).map(|dst| state.intensity(dst)).sum();
        if bound <= 0.0 {
            break;
        }
        // `bound > 0.0` is checked just above; a non-finite bound (an
        // exploding intensity) ends the simulation instead of panicking.
        let Ok(wait) = Exponential::new(bound) else {
            break;
        };
        t += wait.sample(rng);
        if t >= horizon {
            break;
        }
        // Decay state to the candidate time and compute true intensities.
        state.advance_to(t);
        for (dst, lam) in lambdas.iter_mut().enumerate() {
            *lam = state.intensity(dst);
        }
        let total: f64 = lambdas.iter().sum();
        if rng.random::<f64>() * bound <= total {
            // Accept; choose the process proportionally.
            let mut u = rng.random::<f64>() * total;
            let mut proc = k - 1;
            for (d, lam) in lambdas.iter().enumerate() {
                if u < *lam {
                    proc = d;
                    break;
                }
                u -= lam;
            }
            events.push(Event::new(t, proc));
            state.push(proc);
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use meme_stats::seeded_rng;

    fn toy() -> HawkesModel {
        HawkesModel::new(vec![0.4, 0.1], vec![vec![0.3, 0.25], vec![0.05, 0.2]], 2.0).unwrap()
    }

    #[test]
    fn branching_output_is_sorted_and_in_range() {
        let m = toy();
        let mut rng = seeded_rng(1);
        let events = simulate_branching(&m, 200.0, &mut rng);
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].t <= w[1].t);
        }
        assert!(events.iter().all(|e| e.t >= 0.0 && e.t < 200.0));
        assert!(events.iter().all(|e| e.process < 2));
    }

    #[test]
    fn parents_precede_children() {
        let m = toy();
        let mut rng = seeded_rng(2);
        let events = simulate_branching(&m, 300.0, &mut rng);
        let mut has_offspring = false;
        for (i, e) in events.iter().enumerate() {
            if let Some(p) = e.parent {
                has_offspring = true;
                assert!(p < i, "parent must sort before child");
                assert!(events[p].t <= e.t);
            }
        }
        assert!(has_offspring, "with these weights offspring must occur");
    }

    #[test]
    fn root_walk_terminates_at_immigrant() {
        let m = toy();
        let mut rng = seeded_rng(3);
        let events = simulate_branching(&m, 300.0, &mut rng);
        for i in 0..events.len() {
            let root = true_root_community(&events, i);
            assert!(root < 2);
        }
    }

    #[test]
    fn branching_rate_matches_theory() {
        let m = toy();
        let expected = m.stationary_rates().unwrap();
        let horizon = 3000.0;
        let mut rng = seeded_rng(4);
        let events = simulate_branching(&m, horizon, &mut rng);
        let mut counts = [0usize; 2];
        for e in &events {
            counts[e.process] += 1;
        }
        for kk in 0..2 {
            let observed = counts[kk] as f64 / horizon;
            let rel = (observed - expected[kk]).abs() / expected[kk];
            assert!(
                rel < 0.1,
                "process {kk}: observed {observed}, expected {}",
                expected[kk]
            );
        }
    }

    #[test]
    fn thinning_rate_matches_branching() {
        let m = toy();
        let horizon = 2000.0;
        let mut rng = seeded_rng(5);
        let br = simulate_branching(&m, horizon, &mut rng);
        let th = simulate_thinning(&m, horizon, &mut rng);
        let r_br = br.len() as f64 / horizon;
        let r_th = th.len() as f64 / horizon;
        let rel = (r_br - r_th).abs() / r_br;
        assert!(rel < 0.1, "branching {r_br}, thinning {r_th}");
    }

    #[test]
    fn immigrant_share_matches_branching_theory() {
        // Fraction of immigrant events should be (Σ mu) / (Σ Λ).
        let m = toy();
        let horizon = 3000.0;
        let mut rng = seeded_rng(6);
        let events = simulate_branching(&m, horizon, &mut rng);
        let immigrants = events.iter().filter(|e| e.parent.is_none()).count();
        let expected_rate: f64 = m.stationary_rates().unwrap().iter().sum();
        let expected_share = m.mu.iter().sum::<f64>() / expected_rate;
        let observed_share = immigrants as f64 / events.len() as f64;
        assert!(
            (observed_share - expected_share).abs() < 0.05,
            "observed {observed_share}, expected {expected_share}"
        );
    }

    #[test]
    fn zero_background_produces_no_events() {
        let m = HawkesModel::new(vec![0.0], vec![vec![0.5]], 1.0).unwrap();
        let mut rng = seeded_rng(7);
        assert!(simulate_branching(&m, 100.0, &mut rng).is_empty());
        assert!(simulate_thinning(&m, 100.0, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "spectral radius")]
    fn supercritical_model_panics() {
        let m = HawkesModel::new(vec![1.0], vec![vec![1.5]], 1.0).unwrap();
        let mut rng = seeded_rng(8);
        let _ = simulate_branching(&m, 10.0, &mut rng);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = toy();
        let a = simulate_branching(&m, 100.0, &mut seeded_rng(9));
        let b = simulate_branching(&m, 100.0, &mut seeded_rng(9));
        assert_eq!(a, b);
    }
}
