//! The paper's primary contribution: a processing pipeline that detects
//! and tracks memes across Web communities.
//!
//! This crate wires the substrates into the seven steps of Fig. 2:
//!
//! 1. pHash extraction (`meme-phash` over lazily rendered images),
//! 2. pairwise distance calculation (`meme-index` multi-index hashing),
//! 3. DBSCAN clustering of fringe-community images (`meme-cluster`),
//! 4. screenshot removal from annotation galleries (`meme-annotate`'s
//!    CNN),
//! 5. cluster annotation against the KYM site,
//! 6. association of all communities' images to annotated clusters,
//! 7. analysis and influence estimation (`meme-hawkes`).
//!
//! plus the paper's §2.3 **custom distance metric** ([`metric`]), the
//! κ-threshold cluster graph of Fig. 7 ([`graph`]), the dendrograms of
//! Fig. 6 ([`dendro`]), the per-figure analysis functions
//! ([`analysis`]), and typed/printable reports ([`report`]).

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // community-matrix loops read clearer with explicit indices
#![warn(missing_docs)]

pub mod analysis;
pub mod checkpoint;
pub mod dendro;
pub mod graph;
pub mod metric;
pub mod pipeline;
pub mod provenance;
pub mod quarantine;
pub mod report;
pub mod supervise;

pub use checkpoint::{
    crc32, dataset_fingerprint, decode_checkpoint, encode_checkpoint, fsck_bytes, fsck_file,
    persist_checkpoint, prev_checkpoint_path, Checkpoint, CheckpointDefect, CheckpointMedium,
    DiskMedium, FsckClass, FsckReport, MediumError, RunnerOutcome, StageId, StageState,
    CHECKPOINT_SCHEMA_VERSION,
};
pub use graph::{ClusterGraph, GraphConfig};
pub use metric::{ClusterDescriptor, ClusterDistance, MetricWeights};
pub use pipeline::{
    Degradation, Pipeline, PipelineConfig, PipelineError, PipelineOutput, ScreenshotFilterMode,
    StageError,
};
pub use quarantine::{
    encode_jsonl, parse_jsonl, read_quarantine, summarize, write_quarantine, QuarantineEntry,
    QuarantineError, QuarantineReason,
};
pub use supervise::{
    FaultyMedium, StagePolicy, StageRetries, SupervisedRun, SupervisedRunner, SupervisionReport,
};
