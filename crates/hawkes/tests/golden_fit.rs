//! Golden Step-7 regression corpus — the fit + attribution bit-identity
//! contract.
//!
//! `fit_em`'s E-step and log-likelihood and root-cause attribution all
//! read the kernel's past through one decayed-state recursion, which
//! sums per source process in a fixed order. Floating point addition is
//! not associative, so any reordering of those sums moves low bits of
//! every fitted parameter and every influence cell. These tests pin the
//! exact bits of a seeded fit and of the root-cause matrix under the
//! fitted model, on an ordinary stream and on the same stream compressed
//! into a burst (every event inside every later event's `30/β`, the
//! shape a viral cluster has), so a change that perturbs one bit fails
//! here rather than in the benchmark's output digests.
//!
//! `ORDINARY` / `BURST` are the bits of the decayed-state recursion. The
//! `WINDOWED_*` constants are the bits the earlier per-event parent walk
//! (cut at `30/β`, summed newest parent first) produced on the same
//! streams; the recursion must stay within `DRIFT` of them, relative, in
//! every value, with the same iteration count. If a change *intends* to
//! alter Step 7's arithmetic, regenerate `ORDINARY` / `BURST` with
//! `print_golden_fit` (`--ignored --nocapture`) and say which values
//! moved; the windowed constants stay as they are.

use meme_hawkes::{
    fit_em, root_cause_matrix, simulate_branching, strip_lineage, EmConfig, Event, HawkesModel,
};
use meme_stats::seeded_rng;

const K: usize = 3;
const BETA: f64 = 2.0;
const HORIZON: f64 = 300.0;
/// Time compression of the burst stream: the whole stream then spans
/// 6 time units against a `30/β = 15` window.
const BURST_SCALE: f64 = 0.02;
/// Largest relative difference allowed against the windowed walk.
const DRIFT: f64 = 1e-9;

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
    log_likelihood: 0xc084f8f3dffe3fea,
    mu: [0x3fdee4f8aa6b523f, 0x3fc5b9ebc80f6e72, 0x3fc09da70525dcd1],
    w: [
        [0x3fd15b8269580a86, 0x3fc589388e37bdd6, 0x3fc314e91d38c7d2],
        [0x3fa4d19831100298, 0x3fd3ab84b95cf9d4, 0x3fd341d4b03e018e],
        [0x3f95b0331465e751, 0x3f8644919661d2e6, 0x3fa6ce6f36df2d8a],
    ],
    roots: [
        [0x40696713c74bb40d, 0x4049b92a4849caca, 0x4047f1f0cf922c3b],
        [0x40126c6f8af6fea8, 0x40526e65973d2ab1, 0x4037bdf7bb5c5691],
        [0x3ff2c45e2e49ffd6, 0x3fea82a24ef7f677, 0x4044af1352bfa87d],
    ],
};

const BURST: Golden = Golden {
    events: 448,
    iterations: 300,
    log_likelihood: 0x408fb456356f913e,
    mu: [0x4040e3ef95ae54b4, 0x4023a392598a7733, 0x40123383f940e687],
    w: [
        [0x3fa17c45306c864b, 0x3fd7367978d7bcad, 0x3fc8401ace7d278d],
        [0x3ecc9ebebf4f2b85, 0x3f13e15ee8750ffa, 0x3fdb9a384d8c6ad7],
        [0x3ea941008d9b764a, 0x3f0ec1d795e1dbea, 0x3e6ed5d25215d911],
    ],
    roots: [
        [0x406a1ffe219f1669, 0x4050c4e47a70b64f, 0x404ea20f84a4e714],
        [0x3f2b5e2ce8a1f179, 0x404d7605fd400dea, 0x40386e9f66694055],
        [0x3ef43f0d85f4b96e, 0x3f5886ef42b8a692, 0x403b4d41904cf182],
    ],
};

const WINDOWED_ORDINARY: Golden = Golden {
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

const WINDOWED_BURST: Golden = Golden {
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

/// Every pinned float of `g`, labelled, in a fixed order.
fn values(g: &Golden) -> Vec<(String, f64)> {
    let mut out = vec![(
        "log_likelihood".to_string(),
        f64::from_bits(g.log_likelihood),
    )];
    for (i, &b) in g.mu.iter().enumerate() {
        out.push((format!("mu[{i}]"), f64::from_bits(b)));
    }
    for (name, m) in [("w", &g.w), ("roots", &g.roots)] {
        for (i, row) in m.iter().enumerate() {
            for (j, &b) in row.iter().enumerate() {
                out.push((format!("{name}[{i}][{j}]"), f64::from_bits(b)));
            }
        }
    }
    out
}

/// The largest relative difference between two goldens' values, with
/// the value it occurs at.
fn max_drift(a: &Golden, b: &Golden) -> (f64, String) {
    values(a)
        .into_iter()
        .zip(values(b))
        .map(|((name, x), (_, y))| ((x - y).abs() / x.abs().max(y.abs()), name))
        .fold(
            (0.0, String::new()),
            |acc, d| if d.0 > acc.0 { d } else { acc },
        )
}

fn assert_near_windowed(measured: &Golden, windowed: &Golden) {
    assert_eq!(measured.events, windowed.events);
    assert_eq!(measured.iterations, windowed.iterations);
    let (drift, at) = max_drift(measured, windowed);
    assert!(
        drift <= DRIFT,
        "{at} drifted {drift:e} from the windowed walk"
    );
}

#[test]
fn ordinary_stream_fit_and_attribution_bits_are_pinned() {
    let measured = measure(&ordinary_stream(), HORIZON);
    assert_near_windowed(&measured, &WINDOWED_ORDINARY);
    assert_eq!(measured, ORDINARY);
}

#[test]
fn burst_stream_fit_and_attribution_bits_are_pinned() {
    let events = burst_stream();
    // The point of this stream: every earlier event is inside every
    // later event's former `30/β` window.
    let span = events[events.len() - 1].t - events[0].t;
    assert!(span < 30.0 / BETA, "burst must fit inside one window");
    let measured = measure(&events, HORIZON * BURST_SCALE);
    assert_near_windowed(&measured, &WINDOWED_BURST);
    assert_eq!(measured, BURST);
}

/// `g` as the Rust constant `name`, in this file's layout.
fn render(name: &str, g: &Golden) -> String {
    let row = |r: &[u64; K]| {
        let cells: Vec<String> = r.iter().map(|b| format!("{b:#018x}")).collect();
        format!("[{}]", cells.join(", "))
    };
    let matrix = |m: &[[u64; K]; K]| {
        let rows: Vec<String> = m.iter().map(|r| format!("        {},\n", row(r))).collect();
        format!("[\n{}    ]", rows.concat())
    };
    format!(
        "const {name}: Golden = Golden {{\n    events: {},\n    iterations: {},\n    \
         log_likelihood: {:#018x},\n    mu: {},\n    w: {},\n    roots: {},\n}};\n",
        g.events,
        g.iterations,
        g.log_likelihood,
        row(&g.mu),
        matrix(&g.w),
        matrix(&g.roots),
    )
}

#[test]
#[ignore = "generator: prints the constants above and their drift from the windowed walk"]
fn print_golden_fit() {
    for (name, measured, windowed) in [
        (
            "ORDINARY",
            measure(&ordinary_stream(), HORIZON),
            &WINDOWED_ORDINARY,
        ),
        (
            "BURST",
            measure(&burst_stream(), HORIZON * BURST_SCALE),
            &WINDOWED_BURST,
        ),
    ] {
        println!("{}", render(name, &measured));
        let (drift, at) = max_drift(&measured, windowed);
        println!("// {name}: largest relative drift from the windowed walk {drift:e} at {at}");
        for ((label, x), (_, y)) in values(&measured).into_iter().zip(values(windowed)) {
            if x.to_bits() != y.to_bits() {
                println!(
                    "//   {label}: {y:e} -> {x:e} ({:e})",
                    (x - y).abs() / y.abs()
                );
            }
        }
        println!();
    }
}
