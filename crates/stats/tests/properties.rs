//! Property-based tests for the statistical substrate.

use meme_stats::agreement::{cohens_kappa, fleiss_kappa};
use meme_stats::dist::{Categorical, Dirichlet, Exponential, Gamma, LogNormal, Poisson, Zipf};
use meme_stats::ks::{kolmogorov_q, ks_two_sample};
use meme_stats::{seeded_rng, Ecdf};
use proptest::prelude::*;
use rand::distr::Distribution;

proptest! {
    #[test]
    fn exponential_samples_are_positive(lambda in 0.01f64..100.0, seed: u64) {
        let mut rng = seeded_rng(seed);
        let d = Exponential::new(lambda).unwrap();
        for _ in 0..50 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= 0.0 && x.is_finite());
        }
    }

    #[test]
    fn gamma_samples_are_positive(shape in 0.05f64..20.0, scale in 0.01f64..10.0, seed: u64) {
        let mut rng = seeded_rng(seed);
        let d = Gamma::new(shape, scale).unwrap();
        for _ in 0..30 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= 0.0 && x.is_finite());
        }
    }

    #[test]
    fn poisson_is_finite(mu in 0.0f64..500.0, seed: u64) {
        let mut rng = seeded_rng(seed);
        let d = Poisson::new(mu).unwrap();
        for _ in 0..20 {
            let x = d.sample(&mut rng);
            // Far tail cut: 500 + 10 sigma.
            prop_assert!(x < 500 + 10 * 23);
        }
    }

    #[test]
    fn zipf_stays_in_range(n in 1usize..500, s in 0.0f64..3.0, seed: u64) {
        let mut rng = seeded_rng(seed);
        let d = Zipf::new(n, s).unwrap();
        for _ in 0..30 {
            let r = d.sample(&mut rng);
            prop_assert!((1..=n).contains(&r));
        }
    }

    #[test]
    fn zipf_pmf_is_a_distribution(n in 1usize..200, s in 0.0f64..3.0) {
        let d = Zipf::new(n, s).unwrap();
        let total: f64 = (1..=n).map(|k| d.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        // Monotone non-increasing over rank.
        for k in 1..n {
            prop_assert!(d.pmf(k) >= d.pmf(k + 1) - 1e-12);
        }
    }

    #[test]
    fn dirichlet_simplex(k in 2usize..12, alpha in 0.05f64..10.0, seed: u64) {
        let mut rng = seeded_rng(seed);
        let d = Dirichlet::symmetric(k, alpha).unwrap();
        let v = d.sample(&mut rng);
        prop_assert_eq!(v.len(), k);
        prop_assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(v.iter().all(|x| *x >= 0.0));
    }

    #[test]
    fn lognormal_is_positive(mu in -3.0f64..3.0, sigma in 0.0f64..3.0, seed: u64) {
        let mut rng = seeded_rng(seed);
        let d = LogNormal::new(mu, sigma).unwrap();
        for _ in 0..20 {
            prop_assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn categorical_respects_support(weights in prop::collection::vec(0.0f64..10.0, 1..20), seed: u64) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = seeded_rng(seed);
        let d = Categorical::new(&weights).unwrap();
        for _ in 0..50 {
            let i = d.sample(&mut rng);
            prop_assert!(i < weights.len());
            // Zero-weight categories are never drawn.
            prop_assert!(weights[i] > 0.0);
        }
    }

    #[test]
    fn ecdf_is_monotone_and_bounded(mut xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let e = Ecdf::new(xs.clone()).unwrap();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for x in &xs {
            let f = e.eval(*x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev - 1e-12);
            prev = f;
        }
        prop_assert_eq!(e.eval(f64::INFINITY), 1.0);
    }

    #[test]
    fn ecdf_quantile_inverts(xs in prop::collection::vec(-1e3f64..1e3, 1..100), q in 0.0f64..1.0) {
        let e = Ecdf::new(xs).unwrap();
        let v = e.quantile(q);
        // At least a q-fraction of mass lies at or below the quantile.
        prop_assert!(e.eval(v) + 1e-12 >= q);
    }

    #[test]
    fn ks_statistic_bounds(a in prop::collection::vec(-100f64..100.0, 1..80),
                           b in prop::collection::vec(-100f64..100.0, 1..80)) {
        let r = ks_two_sample(&a, &b).unwrap();
        prop_assert!((0.0..=1.0).contains(&r.statistic));
        prop_assert!((0.0..=1.0).contains(&r.p_value));
        // Symmetry.
        let rev = ks_two_sample(&b, &a).unwrap();
        prop_assert!((r.statistic - rev.statistic).abs() < 1e-12);
    }

    #[test]
    fn kolmogorov_q_is_monotone(x in 0.0f64..5.0, dx in 0.0f64..1.0) {
        prop_assert!(kolmogorov_q(x) >= kolmogorov_q(x + dx) - 1e-12);
    }

    #[test]
    fn fleiss_kappa_bounded(rows in prop::collection::vec(0usize..4, 2..40), raters in 2usize..6) {
        // Perfectly-agreeing panels on arbitrary category assignments.
        let ratings: Vec<Vec<usize>> = rows
            .iter()
            .map(|&c| {
                let mut row = vec![0usize; 4];
                row[c] = raters;
                row
            })
            .collect();
        let k = fleiss_kappa(&ratings).unwrap();
        prop_assert!((k - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cohens_kappa_self_agreement(labels in prop::collection::vec(0usize..5, 1..100)) {
        prop_assert_eq!(cohens_kappa(&labels, &labels), Some(1.0));
    }

    // Fault-tolerance contract: constructors must return `Err` on bad
    // parameters and NEVER panic, for *any* f64 bit pattern (NaN, ±inf,
    // subnormals, negative zero…). The calls discard their results —
    // the property under test is "no panic", with Ok/Err both legal.
    #[test]
    fn dist_constructors_never_panic(a_bits: u64, b_bits: u64, n in 0usize..300) {
        let a = f64::from_bits(a_bits);
        let b = f64::from_bits(b_bits);
        let _ = Exponential::new(a);
        let _ = Poisson::new(a);
        let _ = Zipf::new(n, a);
        let _ = Gamma::new(a, b);
        let _ = LogNormal::new(a, b);
        let _ = Dirichlet::symmetric(n, a);
        let _ = Dirichlet::new(&[a, b]);
        let _ = Categorical::new(&[a, b]);
    }

    // …and parameters that are unambiguously invalid (non-finite) are
    // always rejected with a typed error.
    #[test]
    fn non_finite_params_are_typed_errors(sel in 0usize..3) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][sel];
        prop_assert!(Exponential::new(bad).is_err());
        prop_assert!(Poisson::new(bad).is_err());
        prop_assert!(Zipf::new(10, bad).is_err());
        prop_assert!(Gamma::new(bad, 1.0).is_err());
        prop_assert!(Gamma::new(1.0, bad).is_err());
        prop_assert!(LogNormal::new(bad, 1.0).is_err());
        prop_assert!(LogNormal::new(0.0, bad).is_err());
        prop_assert!(Dirichlet::symmetric(3, bad).is_err());
        prop_assert!(Dirichlet::new(&[bad, 1.0]).is_err());
        prop_assert!(Categorical::new(&[bad, 1.0]).is_err());
    }
}
