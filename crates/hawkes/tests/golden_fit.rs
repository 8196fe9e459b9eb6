//! Golden Step-7 regression corpus — the fit + attribution bit-identity
//! contract.
//!
//! `fit_em`'s E-step, the Gibbs parent draw and root-cause attribution
//! all weigh an event's candidate parents by walking back through the
//! stream and accumulating `total += a` newest-parent-first. Floating
//! point addition is not associative, so any reordering of that walk
//! (or of the operands inside `a`) moves low bits of every fitted
//! parameter and every influence cell. These tests pin the exact bits
//! of a seeded fit and of the root-cause matrix under the fitted model,
//! on an ordinary stream and on the same stream compressed into a burst
//! (where the `30/β` window covers the whole stream, the shape a viral
//! cluster has), so a kernel change that perturbs one bit fails here
//! rather than in the benchmark's output digests.
//!
//! The constants were generated at the commit *before* the three
//! hand-written window walks were folded into one kernel. If a change
//! *intends* to alter Step 7's arithmetic (ROADMAP item 3 does),
//! regenerate them with `print_golden_fit` (`--ignored --nocapture`)
//! and say so in the PR.

use meme_hawkes::{
    fit_em, root_cause_matrix, simulate_branching, strip_lineage, EmConfig, Event, HawkesModel,
    PARENT_WINDOW_TIME_CONSTANTS,
};
use meme_stats::seeded_rng;

const K: usize = 3;
const BETA: f64 = 2.0;
const HORIZON: f64 = 300.0;
/// Time compression of the burst stream: the whole stream then spans
/// 6 time units against a `30/β = 15` window.
const BURST_SCALE: f64 = 0.02;

/// Pinned bits of one fit and its attribution.
#[derive(Debug, PartialEq)]
struct Golden {
    events: usize,
    iterations: usize,
    log_likelihood: u64,
    mu: [u64; K],
    w: [[u64; K]; K],
    roots: [[u64; K]; K],
}

const ORDINARY: Golden = Golden {
    events: 448,
    iterations: 132,
    log_likelihood: 0xc084f8f3dffe3fca,
    mu: [0x3fdee4f8aa6b56d7, 0x3fc5b9ebc80f75cb, 0x3fc09da70525e2be],
    w: [
        [0x3fd15b82695805d9, 0x3fc589388e37b8af, 0x3fc314e91d38c2ed],
        [0x3fa4d198310ff1c9, 0x3fd3ab84b95cf826, 0x3fd341d4b03dff63],
        [0x3f95b0331465d31c, 0x3f86449196617245, 0x3fa6ce6f36df264b],
    ],
    roots: [
        [0x40696713c74bb497, 0x4049b92a4849c293, 0x4047f1f0cf9224f1],
        [0x40126c6f8af6f245, 0x40526e65973d2f83, 0x4037bdf7bb5c58cf],
        [0x3ff2c45e2e49ee27, 0x3fea82a24ef79acb, 0x4044af1352bfaeaa],
    ],
};

const BURST: Golden = Golden {
    events: 448,
    iterations: 300,
    log_likelihood: 0x408fb456356f9142,
    mu: [0x4040e3ef95ae54bb, 0x4023a392598a7757, 0x40123383f940e68b],
    w: [
        [0x3fa17c45306c84b1, 0x3fd7367978d7bca1, 0x3fc8401ace7d277b],
        [0x3ecc9ebebf4f28f8, 0x3f13e15ee875109d, 0x3fdb9a384d8c6ac6],
        [0x3ea941008d9b78dd, 0x3f0ec1d795e1dc3d, 0x3e6ed5d25215dec8],
    ],
    roots: [
        [0x406a1ffe219f1669, 0x4050c4e47a70b63e, 0x404ea20f84a4e702],
        [0x3f2b5e2ce8a1ef8f, 0x404d7605fd400e13, 0x40386e9f66694067],
        [0x3ef43f0d85f4bb89, 0x3f5886ef42b8a6dc, 0x403b4d41904cf194],
    ],
};

fn truth() -> HawkesModel {
    HawkesModel::new(
        vec![0.4, 0.15, 0.1],
        vec![
            vec![0.3, 0.25, 0.1],
            vec![0.05, 0.3, 0.15],
            vec![0.1, 0.0, 0.2],
        ],
        BETA,
    )
    .expect("valid model")
}

fn ordinary_stream() -> Vec<Event> {
    let mut rng = seeded_rng(0x57E9_0007);
    strip_lineage(&simulate_branching(&truth(), HORIZON, &mut rng))
}

fn burst_stream() -> Vec<Event> {
    ordinary_stream()
        .into_iter()
        .map(|e| Event::new(e.t * BURST_SCALE, e.process))
        .collect()
}

fn bits3(row: &[f64]) -> [u64; K] {
    std::array::from_fn(|i| row[i].to_bits())
}

fn bits3x3(m: &[Vec<f64>]) -> [[u64; K]; K] {
    std::array::from_fn(|i| bits3(&m[i]))
}

fn measure(events: &[Event], horizon: f64) -> Golden {
    let cfg = EmConfig {
        beta: BETA,
        max_iters: 300,
        ..EmConfig::default()
    };
    let fit = fit_em(events, K, horizon, &cfg).expect("seeded stream fits");
    let roots = root_cause_matrix(&fit.model, events).expect("fitted stream attributes");
    Golden {
        events: events.len(),
        iterations: fit.iterations,
        log_likelihood: fit.log_likelihood.to_bits(),
        mu: bits3(&fit.model.mu),
        w: bits3x3(&fit.model.w),
        roots: bits3x3(&roots),
    }
}

#[test]
fn ordinary_stream_fit_and_attribution_bits_are_pinned() {
    assert_eq!(measure(&ordinary_stream(), HORIZON), ORDINARY);
}

#[test]
fn burst_stream_fit_and_attribution_bits_are_pinned() {
    let events = burst_stream();
    // The point of this stream: every earlier event is inside every
    // later event's window.
    let span = events[events.len() - 1].t - events[0].t;
    assert!(
        span < PARENT_WINDOW_TIME_CONSTANTS / BETA,
        "burst must fit inside one window"
    );
    assert_eq!(measure(&events, HORIZON * BURST_SCALE), BURST);
}

#[test]
#[ignore = "generator: prints the constants above"]
fn print_golden_fit() {
    println!(
        "const ORDINARY: Golden = {:#?};",
        measure(&ordinary_stream(), HORIZON)
    );
    println!(
        "const BURST: Golden = {:#?};",
        measure(&burst_stream(), HORIZON * BURST_SCALE)
    );
}
