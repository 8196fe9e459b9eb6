//! Statistical substrate for the `origins-of-memes` workspace.
//!
//! The reproduction of *"On the Origins of Memes by Means of Fringe Web
//! Communities"* (IMC 2018) needs a number of statistical tools that the
//! allowed dependency set does not provide:
//!
//! * heavy-tailed and mixing-proportion **samplers** (Zipf, Poisson,
//!   Gamma, Dirichlet, log-normal, categorical) used by the Web-ecosystem
//!   simulator ([`dist`]);
//! * **empirical CDFs** for every CDF figure in the paper (Figs. 4, 5, 9,
//!   17) ([`ecdf`]);
//! * the **two-sample Kolmogorov–Smirnov test** used to mark significant
//!   differences between racist/non-racist and political/non-political
//!   influence (Figs. 13–16) ([`ks`]);
//! * **Fleiss' kappa** for the annotation-quality evaluation of Appendix B
//!   ([`agreement`]);
//! * the **Jaccard index** used by the custom cluster distance metric
//!   (Eq. 1) ([`sets`]);
//! * daily **time-series binning** for the temporal analysis of Fig. 8
//!   ([`timeseries`]).
//!
//! Everything is deterministic given a seed; the workspace convention is
//! [`rand::rngs::StdRng`] seeded through [`seeded_rng`].

#![forbid(unsafe_code)]
#![allow(clippy::excessive_precision)] // Lanczos constants are quoted at full published precision
#![allow(clippy::needless_range_loop)] // small-matrix loops read clearer with explicit indices
#![warn(missing_docs)]

pub mod agreement;
pub mod describe;
pub mod dist;
pub mod ecdf;
pub mod ks;
pub mod sets;
pub mod timeseries;

pub use agreement::{cohens_kappa, fleiss_kappa};
pub use describe::Summary;
pub use dist::{Categorical, Dirichlet, Exponential, Gamma, LogNormal, Poisson, Zipf};
pub use ecdf::Ecdf;
pub use ks::{ks_two_sample, KsResult};
pub use sets::jaccard;
pub use timeseries::DailySeries;

/// The RNG used across the workspace. `StdRng` is a cryptographically
/// seeded, portable generator; all simulations are reproducible from a
/// single `u64` seed.
pub type WsRng = rand::rngs::StdRng;

/// Create the workspace RNG from a seed.
///
/// ```
/// use rand::RngExt;
/// let mut a = meme_stats::seeded_rng(7);
/// let mut b = meme_stats::seeded_rng(7);
/// assert_eq!(a.random::<u64>(), b.random::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> WsRng {
    use rand::SeedableRng;
    WsRng::seed_from_u64(seed)
}

/// Derive a child seed from a parent seed and a stream label.
///
/// The simulator hands independent substreams to each community / meme /
/// module so that changing the sample count in one place does not perturb
/// every other stream (a standard trick for variance-controlled
/// simulation). SplitMix64 finalization gives well-mixed child seeds.
pub fn child_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_seeds_differ_per_stream() {
        let s = 42;
        let a = child_seed(s, 0);
        let b = child_seed(s, 1);
        let c = child_seed(s, 2);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn child_seed_is_deterministic() {
        assert_eq!(child_seed(1, 9), child_seed(1, 9));
        assert_ne!(child_seed(1, 9), child_seed(2, 9));
    }
}
