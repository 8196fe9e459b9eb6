//! Run options and the sizes every workload and probe works at.

use crate::adapter::{CorpusSpec, DENSE, SMOKE_DENSE, SMOKE_SPARSE, SPARSE};
use crate::spec::Workload;
use std::path::PathBuf;

/// One `--workload` run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long the untraced measurement lasts.
    pub seconds: f64,
    pub traced: bool,
    /// Where trace files go.
    pub out_dir: PathBuf,
    /// Where this run's temporary checkpoints and artifacts go.
    pub scratch_dir: PathBuf,
    /// `--smoke`, here and in every process this run starts.
    pub smoke: bool,
}

impl Options {
    pub fn sizes(&self) -> Sizes {
        Sizes::of(self.smoke)
    }
}

/// Every size knob in one place. `full` is what the numbers in the README
/// were measured at; `smoke` drives the same code in a few seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub sparse: CorpusSpec,
    pub dense: CorpusSpec,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Timed repetitions a run makes at least, however short `--seconds` is
    /// (four batch operations make one whole tail group).
    pub min_reps: usize,
    /// Sampled posts re-hashed through the one-shot path after a batch run.
    pub rehash_sample: usize,
    /// Distinct queries (with precomputed expected replies) the load draws from.
    pub query_pool: usize,
    /// Requests answered before a fresh server counts as warm.
    pub warmup_requests: usize,
    /// `serve-steady`: lookups per connection in one repetition.
    pub steady_requests: usize,
    /// `serve-churn`: sessions per client thread in one repetition.
    pub churn_sessions: usize,
    /// Lookups and sessions per client in the traced repetition.
    pub traced_requests: usize,
    pub traced_sessions: usize,
    /// Wire reloads timed against an `allow_reload` server.
    pub reloads: usize,
    /// Posts rendered by the render probe, and images kept for the kernels.
    pub probe_posts: usize,
    pub probe_images: usize,
    /// Posts hashed at 1 and at nproc threads for the parallel efficiency.
    pub probe_hash_posts: usize,
    /// Post hashes queried against the annotated-medoid index.
    pub probe_queries: usize,
    /// Calls per in-process micro probe (metrics, parse, lookup, render, queue).
    pub probe_calls: usize,
}

/// Lookups in one `serve-churn` session.
pub const LOOKUPS_PER_SESSION: usize = 8;

impl Sizes {
    pub const fn of(smoke: bool) -> Self {
        if smoke {
            Self::smoke()
        } else {
            Self::full()
        }
    }

    const fn full() -> Self {
        Self {
            sparse: SPARSE,
            dense: DENSE,
            setup_reps: 3,
            min_reps: 4,
            rehash_sample: 512,
            query_pool: 4096,
            warmup_requests: 2_000,
            steady_requests: 10_000,
            churn_sessions: 1_000,
            traced_requests: 10_000,
            traced_sessions: 1_500,
            reloads: 10,
            probe_posts: 40_000,
            probe_images: 2_000,
            probe_hash_posts: 20_000,
            probe_queries: 50_000,
            probe_calls: 1_000_000,
        }
    }

    const fn smoke() -> Self {
        Self {
            sparse: SMOKE_SPARSE,
            dense: SMOKE_DENSE,
            setup_reps: 1,
            min_reps: 1,
            rehash_sample: 64,
            query_pool: 256,
            warmup_requests: 100,
            steady_requests: 1_000,
            churn_sessions: 125,
            traced_requests: 500,
            traced_sessions: 60,
            reloads: 2,
            probe_posts: 2_000,
            probe_images: 200,
            probe_hash_posts: 2_000,
            probe_queries: 2_000,
            probe_calls: 20_000,
        }
    }
}
