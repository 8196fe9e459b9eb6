//! Hot-swappable meme-lookup serving layer (DESIGN.md §12).
//!
//! The pipeline (`meme-core`) is a batch program: it turns a crawl into
//! a run artifact and exits. This crate is the other half of the
//! paper's workflow — *using* the processed corpus: given an image's
//! pHash, which meme is it, which Know Your Meme entry names it, and
//! what does its influence profile look like? (The association rule is
//! the paper's Step 6: nearest annotated medoid within Hamming
//! distance θ = 8.)
//!
//! Layers, bottom up:
//!
//! - [`artifact`]: load a completed run from disk — `PipelineOutput`
//!   JSON or a completed v3 checkpoint, sniffed by magic.
//! - [`Snapshot`]: the artifact recast as an immutable read-optimized
//!   index (the annotated medoids behind the workspace's
//!   [`FallbackIndex`](meme_index::FallbackIndex), denormalized
//!   [`MemeRecord`] table, optional influence rows). In-process lookups
//!   are allocation-free in steady state given a per-thread
//!   [`ServeScratch`].
//! - [`SnapshotStore`]: epoch-swapped publication — reload a new
//!   artifact under live traffic; readers pin a generation per lookup
//!   and never pause.
//! - [`Server`] + [`ConnRegistry`]: the TCP front end speaking a
//!   line-delimited JSON [`protocol`]. Each connection's reader is a
//!   scoped thread of the acceptor and answers its own lookups; the
//!   registry is the table of live sockets behind the admission cap
//!   and the drain. The lifecycle is hardened for production: bounded
//!   request lines, per-line read deadlines, typed load shedding, and a
//!   drain that wakes every reader so the acceptor's scope joins them
//!   (DESIGN.md §12).
//! - [`BatchQueue`]: a bounded MPMC micro-batch queue that no server
//!   path uses; the benchmark's `serve.queue_handoff_ns` probe still
//!   drives it, and it goes once that probe measures elsewhere.
//!
//! The `memes serve` / `memes lookup` subcommands sit on top of these
//! pieces; the benchmark's `serve-steady` / `serve-churn` workloads
//! measure them, and `tests/serve_chaos.rs` attacks them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod batch;
pub mod error;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod snapshot;
pub mod store;

pub use artifact::load_output;
pub use batch::{BatchQueue, Push};
pub use error::ServeError;
pub use registry::ConnRegistry;
pub use server::{Server, ServerConfig};
pub use snapshot::{LookupHit, MemeRecord, ServeScratch, Snapshot, DEFAULT_THETA};
pub use store::SnapshotStore;

#[cfg(test)]
pub(crate) mod testutil {
    use meme_core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
    use meme_core::supervise::SupervisedRunner;
    use meme_simweb::SimConfig;
    use std::sync::OnceLock;

    /// One shared tiny run for the whole unit-test binary: the pipeline
    /// dominates test wall time, so every module borrows this output
    /// (cloning when a test needs to corrupt it).
    pub fn tiny_output() -> &'static PipelineOutput {
        static OUT: OnceLock<PipelineOutput> = OnceLock::new();
        OUT.get_or_init(|| {
            let dataset = SimConfig::tiny(17).generate();
            SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
                .run(&dataset)
                .unwrap()
                .expect_complete()
        })
    }
}
