//! Random samplers not provided by `rand` 0.10.
//!
//! `rand` ships only uniform, Bernoulli and weighted-index distributions;
//! the ecosystem simulator (Zipf post popularity, Poisson image counts,
//! log-normal vote scores, Dirichlet variant mixes) needs more. All samplers
//! implement [`rand::distr::Distribution`] so they compose with the rest of
//! the `rand` ecosystem.
//!
//! Each sampler validates its parameters at construction and returns a
//! [`DistError`] rather than panicking, per the workspace error-handling
//! convention.

use rand::distr::Distribution;
use rand::{Rng, RngExt};
use std::fmt;

/// Error returned when a distribution is constructed with invalid
/// parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistError {
    what: &'static str,
}

impl DistError {
    fn new(what: &'static str) -> Self {
        Self { what }
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for DistError {}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Sampled by inversion: `-ln(U)/lambda`. Used for Hawkes inter-arrival
/// proposals and impulse-response sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Create an exponential sampler; `lambda` must be finite and positive.
    pub fn new(lambda: f64) -> Result<Self, DistError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(DistError::new("Exponential rate must be finite and > 0"));
        }
        Ok(Self { lambda })
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Distribution<f64> for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Map U in [0,1) to (0,1] so ln() never sees zero.
        let u: f64 = 1.0 - rng.random::<f64>();
        -u.ln() / self.lambda
    }
}

/// Poisson distribution with mean `mu`.
///
/// Uses Knuth's product-of-uniforms method for small means and the
/// PTRS transformed-rejection method of Hörmann (1993) for large means,
/// which is exact and O(1) per sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    mu: f64,
}

impl Poisson {
    /// Create a Poisson sampler; `mu` must be finite and non-negative.
    pub fn new(mu: f64) -> Result<Self, DistError> {
        if !(mu.is_finite() && mu >= 0.0) {
            return Err(DistError::new("Poisson mean must be finite and >= 0"));
        }
        Ok(Self { mu })
    }

    /// The mean parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }
}

impl Distribution<u64> for Poisson {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // mu is validated finite and >= 0 at construction; the ordering
        // compare avoids an exact float-equality sentinel.
        if self.mu <= 0.0 {
            return 0;
        }
        if self.mu < 30.0 {
            // Knuth: count uniform draws until their product drops below
            // exp(-mu).
            let limit = (-self.mu).exp();
            let mut prod: f64 = rng.random();
            let mut k = 0u64;
            while prod > limit {
                prod *= rng.random::<f64>();
                k += 1;
            }
            k
        } else {
            // PTRS (Hörmann 1993, "The transformed rejection method for
            // generating Poisson random variables").
            let mu = self.mu;
            let b = 0.931 + 2.53 * mu.sqrt();
            let a = -0.059 + 0.02483 * b;
            let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
            let v_r = 0.9277 - 3.6224 / (b - 2.0);
            loop {
                let u: f64 = rng.random::<f64>() - 0.5;
                let v: f64 = rng.random();
                let us = 0.5 - u.abs();
                let k = ((2.0 * a / us + b) * u + mu + 0.43).floor();
                if us >= 0.07 && v <= v_r && k >= 0.0 {
                    return k as u64;
                }
                if k < 0.0 || (us < 0.013 && v > us) {
                    continue;
                }
                let lhs = (v * inv_alpha / (a / (us * us) + b)).ln();
                let rhs = -mu + k * mu.ln() - ln_gamma(k + 1.0);
                if lhs <= rhs {
                    return k as u64;
                }
            }
        }
    }
}

/// Zipf (zeta) distribution over ranks `1..=n` with exponent `s`.
///
/// Sampled by inversion over a precomputed CDF (O(log n) per draw). The
/// meme-popularity and subreddit-activity marginals in the simulator are
/// Zipfian, matching the long-tailed counts in Tables 3–6 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Create a Zipf sampler over `n` ranks with exponent `s >= 0`.
    pub fn new(n: usize, s: f64) -> Result<Self, DistError> {
        if n == 0 {
            return Err(DistError::new("Zipf needs at least one rank"));
        }
        if !(s.is_finite() && s >= 0.0) {
            return Err(DistError::new("Zipf exponent must be finite and >= 0"));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(Self { cdf })
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Probability mass of rank `rank` (1-based).
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 || rank > self.cdf.len() {
            return 0.0;
        }
        let hi = self.cdf[rank - 1];
        let lo = if rank >= 2 { self.cdf[rank - 2] } else { 0.0 };
        hi - lo
    }
}

impl Distribution<usize> for Zipf {
    /// Returns a 1-based rank in `1..=n`.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        let i = match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => i,
        };
        (i + 1).min(self.cdf.len())
    }
}

/// Gamma distribution with shape `k` and scale `theta`.
///
/// Uses the Marsaglia–Tsang squeeze method (2000), with the standard
/// boost `U^(1/k)` for shapes below one. [`Dirichlet`] draws its
/// components from this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Create a Gamma sampler; both parameters must be finite and positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistError> {
        if !(shape.is_finite() && shape > 0.0) {
            return Err(DistError::new("Gamma shape must be finite and > 0"));
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(DistError::new("Gamma scale must be finite and > 0"));
        }
        Ok(Self { shape, scale })
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `theta` (mean is `k * theta`).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    fn sample_standard<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
        if shape < 1.0 {
            // Boost: if X ~ Gamma(k+1) and U ~ Uniform, X * U^(1/k) ~ Gamma(k).
            let x = Self::sample_standard(shape + 1.0, rng);
            let u: f64 = 1.0 - rng.random::<f64>();
            return x * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = normal_sample(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = 1.0 - rng.random::<f64>();
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 {
                return d * v;
            }
            if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl Distribution<f64> for Gamma {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        Self::sample_standard(self.shape, rng) * self.scale
    }
}

/// Dirichlet distribution over the probability simplex.
///
/// Sampled as normalized independent Gammas. Used to draw mixing
/// proportions for meme-variant clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct Dirichlet {
    components: Vec<Gamma>,
}

impl Dirichlet {
    /// Create a Dirichlet sampler from concentration parameters.
    pub fn new(alpha: &[f64]) -> Result<Self, DistError> {
        if alpha.len() < 2 {
            return Err(DistError::new("Dirichlet needs at least two components"));
        }
        let components = alpha
            .iter()
            .map(|&a| Gamma::new(a, 1.0))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { components })
    }

    /// Symmetric Dirichlet with `k` components and concentration `alpha`.
    pub fn symmetric(k: usize, alpha: f64) -> Result<Self, DistError> {
        Self::new(&vec![alpha; k])
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.components.len()
    }
}

impl Distribution<Vec<f64>> for Dirichlet {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut draws: Vec<f64> = self.components.iter().map(|g| g.sample(rng)).collect();
        let sum: f64 = draws.iter().sum();
        if sum > 0.0 {
            for d in &mut draws {
                *d /= sum;
            }
        } else {
            let uniform = 1.0 / draws.len() as f64;
            draws.fill(uniform);
        }
        draws
    }
}

/// Log-normal distribution: `exp(mu + sigma * Z)`.
///
/// Reddit/Gab vote scores in the simulator are log-normal with
/// community- and category-conditioned location parameters, reproducing
/// the heavy-tailed score CDFs of Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create a log-normal sampler; `sigma` must be finite and non-negative.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        if !mu.is_finite() {
            return Err(DistError::new("LogNormal mu must be finite"));
        }
        if !(sigma.is_finite() && sigma >= 0.0) {
            return Err(DistError::new("LogNormal sigma must be finite and >= 0"));
        }
        Ok(Self { mu, sigma })
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * normal_sample(rng)).exp()
    }
}

/// Categorical distribution sampled with Walker's alias method: O(n)
/// setup, O(1) per draw. The simulator draws millions of categorical
/// outcomes (which meme, which variant, which subreddit), so constant-time
/// sampling matters.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl Categorical {
    /// Build from non-negative weights (need not be normalized).
    pub fn new(weights: &[f64]) -> Result<Self, DistError> {
        if weights.is_empty() {
            return Err(DistError::new("Categorical needs at least one weight"));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(DistError::new(
                "Categorical weights must be finite and non-negative",
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(DistError::new("Categorical weights must not all be zero"));
        }
        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers are 1.0 up to rounding.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        Ok(Self { prob, alias })
    }

    /// Number of categories.
    pub fn k(&self) -> usize {
        self.prob.len()
    }
}

impl Distribution<usize> for Categorical {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.random_range(0..self.prob.len());
        let u: f64 = rng.random();
        if u < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// Draw a standard normal via the Box–Muller polar (Marsaglia) method.
pub fn normal_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Fill `out` with the values `out.len()` calls of [`normal_sample`]
/// return, in order, leaving `rng` in the same state.
///
/// The rejection loop draws candidates branch-free (a rejected
/// candidate is overwritten by the next one), and the `ln`/`sqrt`
/// transform then runs as a second pass over the accepted `(u, s)`
/// pairs with the same expression.
pub fn normal_fill<R: Rng + ?Sized>(out: &mut [f64], rng: &mut R) {
    let mut s = [0.0f64; 256];
    for block in out.chunks_mut(s.len()) {
        let mut k = 0;
        while k < block.len() {
            let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
            let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
            block[k] = u;
            s[k] = u * u + v * v;
            k += ((s[k] > 0.0) & (s[k] < 1.0)) as usize;
        }
        for (z, &s) in block.iter_mut().zip(&s) {
            *z *= (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Natural log of the gamma function (Lanczos approximation, g = 7).
///
/// Accurate to ~1e-13 for positive arguments; used by the Poisson PTRS
/// sampler and by Hawkes log-likelihoods.
pub fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let [first, tail @ ..] = COEF;
    let mut a = first;
    let t = x + 7.5;
    for (i, &c) in tail.iter().enumerate() {
        a += c / (x + (i + 1) as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    fn mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn exponential_moments() {
        let mut rng = seeded_rng(1);
        let d = Exponential::new(2.0).unwrap();
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = mean_var(&xs);
        assert!((m - 0.5).abs() < 0.01, "mean {m}");
        assert!((v - 0.25).abs() < 0.02, "var {v}");
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
    }

    #[test]
    fn poisson_small_mean_moments() {
        let mut rng = seeded_rng(2);
        let d = Poisson::new(3.5).unwrap();
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng) as f64).collect();
        let (m, v) = mean_var(&xs);
        assert!((m - 3.5).abs() < 0.05, "mean {m}");
        assert!((v - 3.5).abs() < 0.15, "var {v}");
    }

    #[test]
    fn poisson_large_mean_moments() {
        let mut rng = seeded_rng(3);
        let d = Poisson::new(120.0).unwrap();
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng) as f64).collect();
        let (m, v) = mean_var(&xs);
        assert!((m - 120.0).abs() < 0.5, "mean {m}");
        assert!((v - 120.0).abs() < 4.0, "var {v}");
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut rng = seeded_rng(4);
        let d = Poisson::new(0.0).unwrap();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(100, 1.2).unwrap();
        let total: f64 = (1..=100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.pmf(0), 0.0);
        assert_eq!(z.pmf(101), 0.0);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let mut rng = seeded_rng(5);
        let z = Zipf::new(50, 1.5).unwrap();
        let mut counts = vec![0usize; 51];
        for _ in 0..20_000 {
            let r = z.sample(&mut rng);
            assert!((1..=50).contains(&r));
            counts[r] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[5]);
        let expected = z.pmf(1);
        let observed = counts[1] as f64 / 20_000.0;
        assert!((observed - expected).abs() < 0.02);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0).unwrap();
        for k in 1..=4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn gamma_moments() {
        let mut rng = seeded_rng(6);
        let d = Gamma::new(3.0, 2.0).unwrap();
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = mean_var(&xs);
        assert!((m - 6.0).abs() < 0.1, "mean {m}");
        assert!((v - 12.0).abs() < 0.6, "var {v}");
    }

    #[test]
    fn gamma_small_shape_moments() {
        let mut rng = seeded_rng(7);
        let d = Gamma::new(0.4, 1.0).unwrap();
        let xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let (m, _) = mean_var(&xs);
        assert!((m - 0.4).abs() < 0.02, "mean {m}");
        assert!(xs.iter().all(|x| *x >= 0.0));
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = seeded_rng(9);
        let d = Dirichlet::symmetric(5, 0.7).unwrap();
        for _ in 0..100 {
            let v = d.sample(&mut rng);
            assert_eq!(v.len(), 5);
            let s: f64 = v.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(v.iter().all(|x| *x >= 0.0));
        }
    }

    #[test]
    fn dirichlet_rejects_degenerate() {
        assert!(Dirichlet::new(&[1.0]).is_err());
        assert!(Dirichlet::new(&[1.0, -1.0]).is_err());
    }

    #[test]
    fn lognormal_median() {
        let mut rng = seeded_rng(10);
        let d = LogNormal::new(1.0, 0.8).unwrap();
        let mut xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        // Median of LogNormal(mu, sigma) is exp(mu).
        assert!((median - 1.0f64.exp()).abs() < 0.1, "median {median}");
    }

    #[test]
    fn categorical_matches_weights() {
        let mut rng = seeded_rng(11);
        let d = Categorical::new(&[1.0, 2.0, 7.0]).unwrap();
        let mut counts = [0usize; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[d.sample(&mut rng)] += 1;
        }
        let f: Vec<f64> = counts.iter().map(|c| *c as f64 / n as f64).collect();
        assert!((f[0] - 0.1).abs() < 0.01);
        assert!((f[1] - 0.2).abs() < 0.01);
        assert!((f[2] - 0.7).abs() < 0.01);
    }

    #[test]
    fn categorical_rejects_bad_weights() {
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Categorical::new(&[1.0, -0.5]).is_err());
        assert!(Categorical::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn categorical_single_category() {
        let mut rng = seeded_rng(12);
        let d = Categorical::new(&[3.0]).unwrap();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 0);
        }
    }

    #[test]
    fn ln_gamma_known_values() {
        // Gamma(n) = (n-1)!
        assert!((ln_gamma(1.0) - 0.0).abs() < 1e-10);
        assert!((ln_gamma(2.0) - 0.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(11.0) - 3_628_800.0f64.ln()).abs() < 1e-8);
        // Gamma(1/2) = sqrt(pi)
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn normal_sample_moments() {
        let mut rng = seeded_rng(13);
        let xs: Vec<f64> = (0..100_000).map(|_| normal_sample(&mut rng)).collect();
        let (m, v) = mean_var(&xs);
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((v - 1.0).abs() < 0.02, "var {v}");
    }

    #[test]
    fn normal_fill_matches_repeated_normal_sample() {
        // Lengths below, at and across the 256-value block.
        for (seed, n) in [
            (1u64, 0usize),
            (2, 1),
            (3, 255),
            (4, 256),
            (5, 257),
            (6, 4096),
        ] {
            let mut a = seeded_rng(seed);
            let mut b = seeded_rng(seed);
            let mut got = vec![0.0; n];
            normal_fill(&mut got, &mut a);
            for (i, z) in got.iter().enumerate() {
                assert_eq!(
                    z.to_bits(),
                    normal_sample(&mut b).to_bits(),
                    "seed {seed} draw {i}"
                );
            }
            assert_eq!(a, b, "seed {seed}: rng state after {n} draws");
        }
    }
}
