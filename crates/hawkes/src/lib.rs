//! Multivariate Hawkes processes — Step 7 of the paper's pipeline.
//!
//! "To model the spread of memes on Web communities … we use five
//! processes, one for each of our seed Web communities (/pol/, Gab, and
//! The_Donald), as well as Twitter and Reddit, fitting a separate model
//! for each meme cluster" (§5.1). Events on one community raise the rate
//! of later events on all communities; the fitted weights plus a
//! **root-cause attribution** scheme quantify how much each community
//! drives meme spread — both in raw volume (Fig. 11) and normalized by
//! the source's own output, i.e. *efficiency* (Fig. 12).
//!
//! The crate implements the full model lifecycle:
//!
//! * [`model`] — the K-variate linear Hawkes model with exponential
//!   impulse kernels, intensities, log-likelihood, and stationarity
//!   checks, plus the crate-private `DecayState`: the kernel's past as
//!   O(K) decayed sums, advanced once per event, which EM, attribution,
//!   the residuals and thinning read (no parent window);
//! * [`simulate`] — exact branching simulation (with ground-truth parent
//!   bookkeeping, which the ecosystem simulator relies on) and Ogata
//!   thinning as an independent cross-check;
//! * [`em`] — maximum-likelihood fitting via expectation–maximization
//!   at a fixed kernel decay `β`, the one estimator;
//! * [`attribution`] — parent probabilities and recursive root-cause
//!   propagation (the paper's §5.1 "improved method" over its earlier
//!   one-hop estimate);
//! * [`influence`] — aggregation into the influence matrices of
//!   Figs. 11–16 (one fit per cluster, largest clusters scheduled
//!   first), including per-category splits with KS significance;
//! * [`residual`] — time-rescaling goodness-of-fit diagnostics.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // K x K matrix loops read clearer with explicit indices
#![warn(missing_docs)]

pub mod attribution;
pub mod em;
pub mod influence;
pub mod model;
pub mod residual;
pub mod simulate;

pub use attribution::{parent_probabilities, root_cause_matrix, root_causes};
pub use em::{fit_em, EmConfig, EmFit};
pub use influence::{
    bootstrap_ci, BootstrapCi, ClusterFitStats, ClusterInfluence, InfluenceEstimator,
    InfluenceMatrix, RobustInfluence, SkippedCluster, SplitInfluence,
};
pub use model::{Event, HawkesError, HawkesModel};
pub use residual::{residual_analysis, ResidualReport};
pub use simulate::{simulate_branching, simulate_thinning, strip_lineage, SimEvent};
