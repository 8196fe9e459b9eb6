//! Synthetic Web-ecosystem simulator — the data substrate of the
//! reproduction.
//!
//! The original study measured 2.6B posts / 160M images crawled from
//! Twitter, Reddit, 4chan's /pol/, and Gab over 13 months, plus a Know
//! Your Meme crawl. None of that data is available here, so this crate
//! generates a *ground-truth-complete* synthetic equivalent:
//!
//! * [`community`] — the five communities the paper models (/pol/,
//!   Reddit, Twitter, Gab, The_Donald) with posting volumes, image
//!   fractions, subreddit structure, and vote-score models;
//! * [`universe`] — a meme universe: named meme specs with KYM-style
//!   categories and tags (including the racist/political groups),
//!   procedural image templates, and branching variants;
//! * [`cascade`] — ground-truth multivariate Hawkes cascades that decide
//!   when and where each meme variant is posted, with true parent and
//!   root-cause lineage retained;
//! * [`kymgen`] — a synthetic KYM site whose galleries mix true variant
//!   images with social-screenshot noise (exercising the Step-4 filter);
//! * [`dataset`] — the assembled corpus: image posts (lazy-rendered),
//!   per-day post totals, the KYM site, and every ground truth the
//!   evaluation needs.
//!
//! Everything is deterministic given the [`SimConfig`] seed.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // weight-matrix loops read clearer with explicit indices
#![warn(missing_docs)]

pub mod cascade;
pub mod community;
pub mod dataset;
pub mod execfault;
pub mod fault;
pub mod kymgen;
pub mod rendercache;
pub mod universe;

pub use cascade::{generate_cascade, CascadeConfig, CascadeEvent};
pub use community::{Community, CommunityProfile, ScreenshotPlatform, SUBREDDITS};
pub use dataset::{
    Dataset, ImageRef, Post, PostTruth, SimConfig, SimConfigError, SimScale, IMAGE_SIZE,
};
pub use execfault::{
    ExecFaultSpec, ExecItemFault, ExecStageFault, ExecWriteFault, ItemFaultRule, StageFaultRule,
    WriteFaultRule,
};
pub use fault::{FaultReport, FaultSpec};
pub use kymgen::{generate_kym, GalleryImage, KymGenConfig, RawKymEntry, RawKymSite};
pub use rendercache::{LazyImage, RenderCache, RenderStats, Rendered};
pub use universe::{MemeGroup, MemeSpec, Universe, UniverseConfig};
