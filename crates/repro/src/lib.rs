//! Experiment regeneration for the `origins-of-memes` reproduction,
//! run as `memes repro <section>`.
//!
//! * [`SECTIONS`] — the one list of section names, in `memes repro
//!   all` order (DESIGN.md §4 maps each to its paper table/figure);
//! * [`sections`] — the per-table/figure implementations;
//! * [`ablations`] — the design-choice ablations and the provenance
//!   extension.
//!
//! Every section prints to stdout, and only what `--scale`, `--seed`
//! and `--train-filter` determine; how long something took goes to
//! stderr. Performance is measured elsewhere: the repository's one
//! benchmark lives in `benchmark/` (DESIGN.md §9).

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // community-matrix loops read clearer with explicit indices

pub mod ablations;
pub mod sections;

use meme_annotate::AnnotateError;
use meme_cluster::dbscan::ClusterError;
use meme_core::pipeline::{PipelineError, PipelineOutput};
use meme_hawkes::HawkesError;
use meme_simweb::Dataset;
use std::fmt;

/// Why a section could not print: the typed error of the stage it
/// called. `memes repro` reports it and exits 2.
#[derive(Debug)]
pub enum SectionError {
    /// Reading Steps 1–6 output back (cluster events, descriptors).
    Pipeline(PipelineError),
    /// A DBSCAN run (per community, the eps sweep, the ablations).
    Cluster(ClusterError),
    /// A Hawkes model, fit or attribution.
    Hawkes(HawkesError),
    /// Training the Appendix-C screenshot classifier.
    Annotate(AnnotateError),
}

impl fmt::Display for SectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SectionError::Pipeline(e) => e.fmt(f),
            SectionError::Cluster(e) => e.fmt(f),
            SectionError::Hawkes(e) => e.fmt(f),
            SectionError::Annotate(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SectionError {}

impl From<PipelineError> for SectionError {
    fn from(e: PipelineError) -> Self {
        SectionError::Pipeline(e)
    }
}

impl From<ClusterError> for SectionError {
    fn from(e: ClusterError) -> Self {
        SectionError::Cluster(e)
    }
}

impl From<HawkesError> for SectionError {
    fn from(e: HawkesError) -> Self {
        SectionError::Hawkes(e)
    }
}

impl From<AnnotateError> for SectionError {
    fn from(e: AnnotateError) -> Self {
        SectionError::Annotate(e)
    }
}

/// What a section returns: `T` once it has printed, or why it could not.
pub type Printed<T = ()> = Result<T, SectionError>;

/// A generated dataset plus its completed Steps 1–6 run.
pub struct Repro {
    /// Master seed the dataset was generated from.
    pub seed: u64,
    /// The synthetic corpus.
    pub dataset: Dataset,
    /// Steps 1–6 output.
    pub output: PipelineOutput,
}

/// Print a section header matching the paper's table/figure numbering.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// A file a section exports under `memes repro --out DIR`: its name
/// in DIR and its contents.
pub type Export = (&'static str, String);

/// What a section prints from.
pub enum Body {
    /// The seed alone: no dataset is generated for it.
    Seed(fn(u64) -> Printed),
    /// The dataset and its Steps 1–6 run.
    Run(fn(&Repro) -> Printed),
    /// The same, plus files for `--out DIR`.
    Export(fn(&Repro) -> Printed<Vec<Export>>),
}

/// One `memes repro` section.
pub struct Section {
    /// The name on the command line.
    pub name: &'static str,
    /// What it prints from.
    pub body: Body,
    /// False when another section already prints it as part of `all`.
    in_all: bool,
}

const fn seed(name: &'static str, print: fn(u64) -> Printed) -> Section {
    Section {
        name,
        body: Body::Seed(print),
        in_all: true,
    }
}

const fn run(name: &'static str, print: fn(&Repro) -> Printed) -> Section {
    Section {
        name,
        body: Body::Run(print),
        in_all: true,
    }
}

/// Every section, in the order `memes repro all` prints them. Fig. 3
/// comes first, so `all` prints it before any dataset work.
pub static SECTIONS: [Section; 22] = [
    seed("fig3", |_| sections::fig3()),
    run("table1", sections::table1),
    run("table2", sections::table2),
    run("table3", sections::table3),
    run("table4", sections::table4),
    run("table5", sections::table5),
    run("table6", sections::table6),
    run("fig4", sections::fig4),
    run("fig5", sections::fig5),
    run("fig6", sections::fig6),
    Section {
        name: "fig7",
        body: Body::Export(sections::fig7),
        in_all: true,
    },
    run("fig8", sections::fig8),
    run("fig9", sections::fig9),
    seed("fig10", sections::fig10),
    Section {
        in_all: false, // fig11-12 prints Table 7 first
        ..run("table7", sections::table7)
    },
    run("fig11-12", |r| {
        sections::table7(r)?;
        sections::fig11_12(r)
    }),
    run("fig13-16", sections::fig13_16),
    run("table8", sections::table8_fig17),
    seed("table9", sections::table9_fig19),
    run("perf", sections::perf),
    run("ablations", |r| {
        ablations::ablation_hashers(r)?;
        ablations::ablation_metric_weights(r)?;
        ablations::ablation_min_pts(r)?;
        ablations::ablation_beta(r)
    }),
    run("provenance", ablations::provenance),
];

/// The sections `name` selects: one, or every one for `all`. `None`
/// for a name that is neither.
pub fn select(name: &str) -> Option<Vec<&'static Section>> {
    if name == "all" {
        return Some(SECTIONS.iter().filter(|s| s.in_all).collect());
    }
    SECTIONS.iter().find(|s| s.name == name).map(|s| vec![s])
}
