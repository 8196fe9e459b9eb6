//! Experiment regeneration for the `origins-of-memes` reproduction.
//!
//! * [`harness`] — shared CLI parsing and dataset/pipeline setup for
//!   the `repro-*` binaries (one binary per paper table/figure; see
//!   DESIGN.md §4 for the index);
//! * [`sections`] — the per-experiment implementations, shared between
//!   the individual binaries and `repro-all`;
//! * [`ablations`] — the design-choice ablations and the provenance
//!   extension.
//!
//! Performance is measured elsewhere: the repository's one benchmark
//! lives in `benchmark/` (DESIGN.md §9).

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // community-matrix loops read clearer with explicit indices

pub mod ablations;
pub mod harness;
pub mod sections;
