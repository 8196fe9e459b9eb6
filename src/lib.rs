//! # origins-of-memes
//!
//! A Rust reproduction of *"On the Origins of Memes by Means of Fringe Web
//! Communities"* (Zannettou et al., IMC 2018).
//!
//! This facade crate re-exports the workspace crates under short names.
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.
//!
//! ## Quickstart
//!
//! ```no_run
//! use origins_of_memes::core::SupervisedRunner;
//! use origins_of_memes::prelude::*;
//!
//! // Simulate a small Web ecosystem, then run the paper's 7-step
//! // pipeline end to end.
//! let dataset = SimConfig::tiny(7).generate();
//! let report = SupervisedRunner::new(Pipeline::new(PipelineConfig::default()))
//!     .run(&dataset)
//!     .unwrap()
//!     .expect_complete();
//! println!("{} annotated clusters", report.annotated_clusters().len());
//! ```

#![forbid(unsafe_code)]

pub use meme_annotate as annotate;
pub use meme_cluster as cluster;
pub use meme_core as core;
pub use meme_hawkes as hawkes;
pub use meme_imaging as imaging;
pub use meme_index as index;
pub use meme_metrics as metrics;
pub use meme_phash as phash;
pub use meme_repro as repro;
pub use meme_serve as serve;
pub use meme_simweb as simweb;
pub use meme_stats as stats;

pub mod observability;

/// Convenience prelude importing the types most applications need.
pub mod prelude {
    pub use meme_core::metric::{ClusterDistance, MetricWeights};
    pub use meme_core::pipeline::{Pipeline, PipelineConfig};
    pub use meme_hawkes::{HawkesModel, InfluenceEstimator};
    pub use meme_phash::{PHash, PerceptualHasher};
    pub use meme_simweb::{SimConfig, SimScale};
}
