//! Stages and checkpoints — fault tolerance for the Fig. 2 pipeline.
//!
//! The driver ([`crate::supervise::SupervisedRunner`]) takes a
//! [`crate::pipeline::Pipeline`] through its steps as named, resumable
//! **stages** ([`StageId`]). After every stage it snapshots a
//! [`Checkpoint`] — the accumulated [`StageState`], the configuration,
//! and a fingerprint of the dataset — to disk, so a run killed after
//! stage *k* can resume from stage *k + 1* instead of starting over.
//! This mirrors the paper's own batch/one-time-task split (§3.3): the
//! expensive phases (hashing 160M images, pairwise distances) are
//! exactly the ones worth never redoing.
//!
//! Stages run in [`StageId::ALL`] order, which is not Fig. 2's step
//! numbering: both pixel stages (Step 4's `site`, then Step 1's `hash`)
//! come first, so the post-hash checkpoint carries every pHash and a
//! parameter sweep resumed from it renders no image. A checkpoint lists
//! its completed stages by name, and resuming runs every stage it does
//! not list, whatever order wrote it.
//!
//! On-disk format (DESIGN.md §11): a `MEMES-CKPT v3` file is a
//! `header` section (dataset fingerprint, configuration, completed
//! stages) and then one section per completed stage, keyed by
//! [`StageId::name`], each framed with its own length and CRC-32. The
//! large integer arrays are little-endian 8-byte columns; the KYM site,
//! the annotations and the ledgers stay JSON. A stage's section never
//! changes once written, so the runner keeps the bytes of every section
//! it decoded or wrote and a persist encodes only the stage that just
//! finished. Files go through a uniquely-named temp file renamed into
//! place, with the previous generation kept as `<path>.prev` for
//! rollback. [`decode_checkpoint`] reads v3 only, and classifies every
//! defect as **torn** (truncated or garbled bytes, a CRC or length
//! mismatch, a missing, duplicate, unknown or misplaced section, a field
//! that does not decode) or **stale** (another schema version: a v2
//! envelope, a pre-envelope v1 file);
//! [`fsck_bytes`] adds **mismatched** (wrong dataset or configuration)
//! for the `memes fsck` subcommand. Persistence is routed through the
//! [`CheckpointMedium`] trait so the chaos suite can inject write
//! failures and torn writes deterministically.
//!
//! A checkpoint is only honoured when it matches the dataset **and** the
//! configuration it was taken under; anything else is a
//! [`PipelineError::CheckpointMismatch`], because silently mixing stage
//! outputs across configs would corrupt every downstream figure.

use crate::pipeline::{Degradation, PipelineConfig, PipelineError, PipelineOutput};
use crate::quarantine::QuarantineEntry;
use meme_annotate::annotator::ClusterAnnotation;
use meme_annotate::kym::KymSite;
use meme_annotate::screenshot::ClassifierMetrics;
use meme_cluster::Clustering;
use meme_phash::PHash;
use meme_simweb::Dataset;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The named pipeline stages, in execution order.
///
/// The order is not Fig. 2's step numbering: the two pixel stages run
/// first. Step 4's `site` renders and hashes the KYM galleries, and
/// depends only on the dataset and the screenshot filter, so it runs
/// before Step 1's `hash`; the checkpoint that
/// [`crate::supervise::SupervisedRunner::halt_after`]`(StageId::Hash)`
/// leaves then holds every pHash the analysis needs, and a resume from
/// it renders nothing. Steps 2–3, 5 and 6 follow in step order.
///
/// Step 7 (Hawkes influence) is deliberately not a stage: it is computed
/// on demand from a completed [`PipelineOutput`] by its one entry point,
/// [`PipelineOutput::estimate_influence`]`(dataset, beta, metrics)`.
///
/// A checkpoint records a stage by its [`StageId::name`] (`"hash"`),
/// never by position, and [`Checkpoint::next_stage`] /
/// [`Checkpoint::is_complete`] test membership, so a checkpoint written
/// under the older `hash`-first order resumes by running what it lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageId {
    /// Step 4 — KYM site build with screenshot filtering.
    Site,
    /// Step 1 — pHash extraction over every post image.
    Hash,
    /// Steps 2–3 — pairwise distances, DBSCAN, medoid selection.
    Cluster,
    /// Step 5 — cluster annotation against the KYM site.
    Annotate,
    /// Step 6 — association of all communities' posts to clusters.
    Associate,
}

impl StageId {
    /// All stages in execution order: the pixel stages (`site`, `hash`)
    /// first, then the analysis over their hashes.
    pub const ALL: [StageId; 5] = [
        StageId::Site,
        StageId::Hash,
        StageId::Cluster,
        StageId::Annotate,
        StageId::Associate,
    ];

    /// Stable human-readable name (used by checkpoints and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            StageId::Site => "site",
            StageId::Hash => "hash",
            StageId::Cluster => "cluster",
            StageId::Annotate => "annotate",
            StageId::Associate => "associate",
        }
    }
}

impl StageId {
    /// The stage whose [`StageId::name`] is `name`.
    pub(crate) fn from_name(name: &str) -> Option<StageId> {
        StageId::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Intermediate results accumulated stage by stage.
///
/// Every field starts `None` and is filled by exactly one stage; the
/// assembled [`PipelineOutput`] requires all of them. Degradations are
/// appended by whichever stage had to fall back.
#[derive(Debug, Clone, Default)]
pub struct StageState {
    /// Stage `hash`: pHash per post, aligned with `dataset.posts`.
    pub post_hashes: Option<Vec<PHash>>,
    /// Stage `cluster`: post indices of the clustered fringe images.
    pub fringe_posts: Option<Vec<usize>>,
    /// Stage `cluster`: the DBSCAN clustering over `fringe_posts`.
    pub clustering: Option<Clustering>,
    /// Stage `cluster`: medoid hash per cluster.
    pub medoid_hashes: Option<Vec<PHash>>,
    /// Stage `cluster`: medoid post index per cluster.
    pub medoid_posts: Option<Vec<usize>>,
    /// Stage `site`: the filtered, hashed KYM site.
    pub site: Option<KymSite>,
    /// Stage `site`: ground-truth meme id per site entry.
    pub entry_meme_ids: Option<Vec<Option<usize>>>,
    /// Stage `site`: classifier test metrics (Train mode only).
    pub screenshot_metrics: Option<ClassifierMetrics>,
    /// Stage `annotate`: one annotation per cluster.
    pub annotations: Option<Vec<ClusterAnnotation>>,
    /// Stage `associate`: annotated-cluster id per post.
    pub occurrences: Option<Vec<Option<usize>>>,
    /// Degradations recorded so far, in stage order.
    pub degradations: Vec<Degradation>,
    /// Poison items diverted to quarantine so far, in stage order
    /// (checkpointed so a resumed run keeps its dead-letter record; the
    /// batch is summarised in `degradations`, not in the output).
    pub quarantined: Vec<QuarantineEntry>,
}

impl StageState {
    /// Assemble the final output once every stage has run.
    pub(crate) fn into_output(self) -> Result<PipelineOutput, PipelineError> {
        fn take<T>(v: Option<T>, what: &str) -> Result<T, PipelineError> {
            v.ok_or_else(|| {
                PipelineError::CheckpointCorrupt(format!(
                    "checkpoint claims completion but stage output `{what}` is missing"
                ))
            })
        }
        Ok(PipelineOutput {
            post_hashes: take(self.post_hashes, "post_hashes")?,
            fringe_posts: take(self.fringe_posts, "fringe_posts")?,
            clustering: take(self.clustering, "clustering")?,
            medoid_hashes: take(self.medoid_hashes, "medoid_hashes")?,
            medoid_posts: take(self.medoid_posts, "medoid_posts")?,
            site: take(self.site, "site")?,
            entry_meme_ids: take(self.entry_meme_ids, "entry_meme_ids")?,
            annotations: take(self.annotations, "annotations")?,
            occurrences: take(self.occurrences, "occurrences")?,
            screenshot_metrics: self.screenshot_metrics,
            degradations: self.degradations,
        })
    }
}

/// A snapshot of a run after some prefix of completed stages.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Fingerprint of the dataset the run was started on.
    pub dataset_fingerprint: u64,
    /// The configuration the run was started under.
    pub config: PipelineConfig,
    /// Stages completed so far, in the order they ran.
    pub completed: Vec<StageId>,
    /// Their accumulated outputs.
    pub state: StageState,
}

impl Checkpoint {
    /// An empty checkpoint for a fresh run.
    pub fn fresh(dataset: &Dataset, config: PipelineConfig) -> Self {
        Self {
            dataset_fingerprint: dataset_fingerprint(dataset),
            config,
            completed: Vec::new(),
            state: StageState::default(),
        }
    }

    /// Whether every stage has completed.
    pub fn is_complete(&self) -> bool {
        StageId::ALL.iter().all(|s| self.completed.contains(s))
    }

    /// The first stage that has not yet completed.
    pub fn next_stage(&self) -> Option<StageId> {
        StageId::ALL
            .into_iter()
            .find(|s| !self.completed.contains(s))
    }

    /// The completed run this checkpoint carries. The serving layer
    /// loads finished runs straight from their last checkpoint; a
    /// partial checkpoint, or one whose claimed stage outputs are
    /// missing, surfaces as [`PipelineError::CheckpointCorrupt`]
    /// instead of producing a half-populated output.
    pub fn into_completed_output(self) -> Result<PipelineOutput, PipelineError> {
        if let Some(stage) = self.next_stage() {
            return Err(PipelineError::CheckpointCorrupt(format!(
                "checkpoint is not a completed run: stage `{stage}` has not run"
            )));
        }
        self.state.into_output()
    }
}

/// FNV-1a fingerprint of a dataset's post skeleton (count, timestamps,
/// communities). Cheap, stable across runs, and sensitive to exactly
/// the inputs whose change would invalidate stage outputs.
pub fn dataset_fingerprint(dataset: &Dataset) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(mut h: u64, word: u64) -> u64 {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        h
    }
    let mut h = eat(OFFSET, dataset.posts.len() as u64);
    for p in &dataset.posts {
        h = eat(h, p.t.to_bits());
        h = eat(h, p.community.index() as u64);
    }
    h
}

// ---------------------------------------------------------------------
// On-disk format: `MEMES-CKPT v3`, one framed section per stage
// ---------------------------------------------------------------------

/// Schema version of the checkpoints this build writes and the only one
/// it reads: any other version, v2's JSON envelope included, decodes as
/// [`CheckpointDefect::Stale`].
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 3;

const CKPT_MAGIC: &str = "MEMES-CKPT";

/// The first line of every v3 file.
const V3_MAGIC_LINE: &[u8] = b"MEMES-CKPT v3\n";

/// The section every v3 file opens with.
const HEADER_SECTION: &str = "header";

/// The part length that marks an absent (`None`) field. In an index
/// column the same word marks a `None` entry.
const ABSENT: u64 = u64::MAX;

/// Longest frame line the decoder reads before calling it garbled
/// (`section associate len=<16 hex> crc32=<8 hex>` is 56 bytes).
const MAX_FRAME_LINE: usize = 64;

/// Slice-by-16 lookup tables for [`crc32`]: `CRC32_TABLES[k][b]` is the
/// register contribution of byte `b` followed by `k` zero bytes — eight
/// bit steps per byte of the reflected IEEE polynomial, built at
/// compile time.
static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut k = 0;
    while k < 16 {
        let mut byte = 0;
        while byte < 256 {
            let mut crc = byte as u32;
            let mut step = 0;
            while step < 8 * (k + 1) {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                step += 1;
            }
            tables[k][byte] = crc;
            byte += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the
/// section checksum. Table-driven, sixteen bytes per step
/// (slice-by-16), dependency-free. A resume checksums every section it
/// decodes and every one it writes; on the 1 MB of a completed
/// checkpoint slice-by-8 took about as long as the rest of the encode.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &CRC32_TABLES;
    let lane = |v: u64, shift: u32| ((v >> shift) & 0xFF) as usize;
    let mut crc: u32 = !0;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let (mut lo, mut hi) = ([0u8; 8], [0u8; 8]);
        let (a, b) = block.split_at(8);
        lo.copy_from_slice(a);
        hi.copy_from_slice(b);
        let lo = u64::from_le_bytes(lo) ^ u64::from(crc);
        let hi = u64::from_le_bytes(hi);
        // Byte `i` of the block is followed by `15 - i` more.
        crc = t15[lane(lo, 0)]
            ^ t14[lane(lo, 8)]
            ^ t13[lane(lo, 16)]
            ^ t12[lane(lo, 24)]
            ^ t11[lane(lo, 32)]
            ^ t10[lane(lo, 40)]
            ^ t9[lane(lo, 48)]
            ^ t8[lane(lo, 56)]
            ^ t7[lane(hi, 0)]
            ^ t6[lane(hi, 8)]
            ^ t5[lane(hi, 16)]
            ^ t4[lane(hi, 24)]
            ^ t3[lane(hi, 32)]
            ^ t2[lane(hi, 40)]
            ^ t1[lane(hi, 48)]
            ^ t0[lane(hi, 56)];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t0[lane(u64::from(crc ^ u32::from(b)), 0)];
    }
    !crc
}

/// How a checkpoint file failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointDefect {
    /// The bytes on disk are not a complete, intact checkpoint:
    /// truncated, a CRC or length mismatch, a garbled frame, a missing,
    /// duplicate, unknown or misplaced section, or a field that does not
    /// decode — the signature of a crash mid-write or outside
    /// interference.
    Torn {
        /// What exactly failed to verify.
        detail: String,
    },
    /// The file is a well-formed checkpoint from a schema version this
    /// build does not read (v2 envelopes, pre-envelope v1 files).
    Stale {
        /// Which version was found.
        detail: String,
    },
}

impl fmt::Display for CheckpointDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Torn { detail } => write!(f, "torn checkpoint: {detail}"),
            Self::Stale { detail } => write!(f, "stale checkpoint: {detail}"),
        }
    }
}

fn torn(detail: impl Into<String>) -> CheckpointDefect {
    CheckpointDefect::Torn {
        detail: detail.into(),
    }
}

/// The checkpoint file a runner last decoded or wrote, kept so the next
/// persist can copy its stage sections. A stage's fields never change
/// once it completes, so a persist writes a new header, the kept
/// sections byte for byte, and a new section for each stage completed
/// since — normally just the one that finished.
#[derive(Debug, Default)]
pub(crate) struct Sections {
    /// The file's bytes.
    file: Vec<u8>,
    /// Where its first stage section starts.
    start: usize,
    /// The stages of its sections, in file order.
    stages: Vec<StageId>,
    /// Degradation entries its sections carry between them.
    degradations: usize,
    /// Quarantine entries its sections carry between them.
    quarantined: usize,
}

impl Sections {
    /// Encode `ckpt` as a v3 file, keep it, and return it. The ledger
    /// entries recorded since the last encode ride in the newest
    /// section. When the kept file does not describe a prefix of
    /// `ckpt`, every stage is encoded afresh.
    pub(crate) fn encode(&mut self, ckpt: &Checkpoint) -> &[u8] {
        let state = &ckpt.state;
        let mut completed: Vec<StageId> = Vec::with_capacity(StageId::ALL.len());
        for &stage in &ckpt.completed {
            if !completed.contains(&stage) {
                completed.push(stage);
            }
        }
        let prefix = completed.starts_with(&self.stages)
            && self.degradations <= state.degradations.len()
            && self.quarantined <= state.quarantined.len();
        if !prefix {
            *self = Self::default();
        }
        let kept = self.file.get(self.start..).unwrap_or_default();
        let fresh = completed.get(self.stages.len()..).unwrap_or_default();
        let unsaved = self.unsaved(state);
        let (header_ledger, fresh_ledger) = if fresh.is_empty() {
            (unsaved, NO_LEDGER)
        } else {
            (NO_LEDGER, unsaved)
        };
        let mut out = Vec::new();
        out.extend_from_slice(V3_MAGIC_LINE);
        put_header(&mut out, ckpt, &completed, header_ledger);
        let start = out.len();
        out.extend_from_slice(kept);
        for (i, &stage) in fresh.iter().enumerate() {
            let ledger = if i + 1 == fresh.len() {
                fresh_ledger
            } else {
                NO_LEDGER
            };
            put_stage(&mut out, stage, state, ledger);
        }
        if !fresh.is_empty() {
            self.degradations = state.degradations.len();
            self.quarantined = state.quarantined.len();
        }
        self.stages = completed;
        self.start = start;
        self.file = out;
        &self.file
    }

    /// The ledger entries no kept section carries.
    fn unsaved<'s>(&self, state: &'s StageState) -> Ledger<'s> {
        (
            state
                .degradations
                .get(self.degradations..)
                .unwrap_or_default(),
            state
                .quarantined
                .get(self.quarantined..)
                .unwrap_or_default(),
        )
    }
}

/// A run of ledger entries: degradations, then quarantined items.
type Ledger<'a> = (&'a [Degradation], &'a [QuarantineEntry]);

const NO_LEDGER: Ledger<'static> = (&[], &[]);

/// Encode a checkpoint as a v3 file (DESIGN.md §11): the
/// `MEMES-CKPT v3` line, a `header` section (dataset fingerprint,
/// configuration, completed stages), then one section per completed
/// stage, each framed by `section <name> len=<hex> crc32=<hex>` and
/// checksummed on its own.
pub fn encode_checkpoint(ckpt: &Checkpoint) -> Vec<u8> {
    let mut sections = Sections::default();
    sections.encode(ckpt);
    sections.file
}

/// Append one section: a fixed-width frame line, then the payload
/// `fill` writes, whose length and CRC are patched into the line.
fn put_frame(out: &mut Vec<u8>, name: &str, fill: impl FnOnce(&mut Vec<u8>)) {
    let line = |len: usize, crc: u32| format!("section {name} len={len:016x} crc32={crc:08x}\n");
    let line_start = out.len();
    out.extend_from_slice(line(0, 0).as_bytes());
    let payload_start = out.len();
    fill(out);
    let payload = out.get(payload_start..).unwrap_or_default();
    let done = line(payload.len(), crc32(payload));
    if let Some(slot) = out.get_mut(line_start..payload_start) {
        slot.copy_from_slice(done.as_bytes());
    }
}

fn put_len(out: &mut Vec<u8>, len: u64) {
    out.extend_from_slice(&len.to_le_bytes());
}

/// A column part of `count` little-endian words.
fn put_words(out: &mut Vec<u8>, count: usize, words: impl Iterator<Item = u64>) {
    put_len(out, 8 * count as u64);
    out.reserve(8 * count);
    for word in words {
        out.extend_from_slice(&word.to_le_bytes());
    }
}

/// A column of one word per item, written straight from the borrowed
/// field; `None` is an absent part.
fn put_column<T>(out: &mut Vec<u8>, column: Option<&[T]>, word: impl Fn(&T) -> u64) {
    match column {
        Some(items) => put_words(out, items.len(), items.iter().map(word)),
        None => put_len(out, ABSENT),
    }
}

/// An index as a column word; `None` is [`ABSENT`].
fn opt_word(index: Option<usize>) -> u64 {
    index.map_or(ABSENT, |i| i as u64)
}

fn put_json<T: Serialize + ?Sized>(out: &mut Vec<u8>, value: Option<&T>) {
    let Some(value) = value else {
        return put_len(out, ABSENT);
    };
    // The vendored serializer cannot fail; an empty part would decode
    // as torn rather than pass silently.
    let text = serde_json::to_string(value).unwrap_or_default();
    put_len(out, text.len() as u64);
    out.extend_from_slice(text.as_bytes());
}

fn put_ledger(out: &mut Vec<u8>, (degradations, quarantined): Ledger<'_>) {
    put_json(out, Some(degradations));
    put_json(out, Some(quarantined));
}

fn put_header(out: &mut Vec<u8>, ckpt: &Checkpoint, completed: &[StageId], ledger: Ledger<'_>) {
    put_frame(out, HEADER_SECTION, |out| {
        put_words(out, 1, std::iter::once(ckpt.dataset_fingerprint));
        put_json(out, Some(&ckpt.config));
        let names: Vec<&str> = completed.iter().map(|s| s.name()).collect();
        put_json(out, Some(&names));
        put_ledger(out, ledger);
    });
}

/// A stage's section: its [`StageState`] fields, then the ledger
/// entries it carries.
fn put_stage(out: &mut Vec<u8>, stage: StageId, state: &StageState, ledger: Ledger<'_>) {
    put_frame(out, stage.name(), |out| {
        match stage {
            StageId::Site => {
                put_json(out, state.site.as_ref());
                put_column(out, state.entry_meme_ids.as_deref(), |&m| opt_word(m));
                put_json(out, state.screenshot_metrics.as_ref());
            }
            StageId::Hash => put_column(out, state.post_hashes.as_deref(), |h| h.bits()),
            StageId::Cluster => {
                put_column(out, state.fringe_posts.as_deref(), |&p| p as u64);
                match &state.clustering {
                    // The cluster count, then one label per item.
                    Some(c) => put_words(
                        out,
                        1 + c.len(),
                        std::iter::once(c.n_clusters() as u64)
                            .chain(c.labels().iter().map(|&l| opt_word(l))),
                    ),
                    None => put_len(out, ABSENT),
                }
                put_column(out, state.medoid_hashes.as_deref(), |h| h.bits());
                put_column(out, state.medoid_posts.as_deref(), |&p| p as u64);
            }
            StageId::Annotate => put_json(out, state.annotations.as_deref()),
            StageId::Associate => put_column(out, state.occurrences.as_deref(), |&o| opt_word(o)),
        }
        put_ledger(out, ledger);
    });
}

/// A checkpoint as decoded, with what resuming from it needs besides.
#[derive(Debug)]
pub(crate) struct Decoded {
    pub(crate) ckpt: Checkpoint,
    /// Where the file's stage sections start, when a later persist may
    /// copy them: `None` when the header carries ledger entries, so the
    /// first persist encodes every stage afresh.
    pub(crate) sections_at: Option<usize>,
}

impl Sections {
    /// Keep the file `decoded` came from for the next persist.
    fn of_file(file: Vec<u8>, decoded: &Decoded) -> Self {
        let Some(start) = decoded.sections_at else {
            return Self::default();
        };
        Self {
            file,
            start,
            stages: decoded.ckpt.completed.clone(),
            degradations: decoded.ckpt.state.degradations.len(),
            quarantined: decoded.ckpt.state.quarantined.len(),
        }
    }
}

/// Decode and verify a v3 checkpoint, classifying every failure as
/// [`CheckpointDefect::Torn`] or [`CheckpointDefect::Stale`] — never a
/// panic, and never a silent success on damaged bytes.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, CheckpointDefect> {
    decode(bytes).map(|d| d.ckpt)
}

pub(crate) fn decode(bytes: &[u8]) -> Result<Decoded, CheckpointDefect> {
    if bytes.is_empty() {
        return Err(torn("file is empty"));
    }
    let line_end = bytes.iter().position(|&b| b == b'\n');
    let line = std::str::from_utf8(line_end.map_or(bytes, |i| bytes.get(..i).unwrap_or_default()))
        .unwrap_or_default();
    let Some(version) = line
        .strip_prefix(CKPT_MAGIC)
        .and_then(|r| r.strip_prefix(" v"))
        .and_then(|r| r.split(' ').next())
        .and_then(|v| v.parse::<u32>().ok())
    else {
        return Err(classify_headerless(bytes));
    };
    let body = line_end.map_or(&[][..], |i| bytes.get(i + 1..).unwrap_or_default());
    match version {
        3 if line_end.is_some() && line.len() + 1 == V3_MAGIC_LINE.len() => decode_v3(body),
        3 => Err(torn("v3 magic line is truncated or garbled")),
        _ => Err(CheckpointDefect::Stale {
            detail: format!("schema v{version}; this build reads v{CHECKPOINT_SCHEMA_VERSION}"),
        }),
    }
}

/// Split the next CRC-verified section off the front of `rest`: its
/// name and payload.
fn next_frame<'a>(rest: &mut &'a [u8]) -> Result<(&'a str, &'a [u8]), CheckpointDefect> {
    let all: &'a [u8] = rest;
    let window = all.get(..MAX_FRAME_LINE).unwrap_or(all);
    let Some(nl) = window.iter().position(|&b| b == b'\n') else {
        return Err(torn("section frame line is truncated or garbled"));
    };
    let line = all.get(..nl).unwrap_or_default();
    let Some((name, len, crc)) = std::str::from_utf8(line).ok().and_then(parse_frame_line) else {
        return Err(torn(format!(
            "garbled section frame line {:?}",
            String::from_utf8_lossy(line)
        )));
    };
    let body = all.get(nl + 1..).unwrap_or_default();
    let Some(payload) = body.get(..len) else {
        return Err(torn(format!(
            "section `{name}` claims {len} byte(s), {} remain — truncated",
            body.len()
        )));
    };
    let actual = crc32(payload);
    if actual != crc {
        return Err(torn(format!(
            "section `{name}` CRC {actual:08x} does not match its frame's {crc:08x}"
        )));
    }
    *rest = all.get(nl + 1 + len..).unwrap_or_default();
    Ok((name, payload))
}

/// Parse `section <name> len=<hex> crc32=<hex>`.
fn parse_frame_line(line: &str) -> Option<(&str, usize, u32)> {
    let mut parts = line.split(' ');
    if parts.next()? != "section" {
        return None;
    }
    let name = parts.next().filter(|n| !n.is_empty())?;
    let len = usize::from_str_radix(parts.next()?.strip_prefix("len=")?, 16).ok()?;
    let crc = u32::from_str_radix(parts.next()?.strip_prefix("crc32=")?, 16).ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((name, len, crc))
}

/// Reads a section payload's parts in order: each is a little-endian
/// `u64` byte length ([`ABSENT`] for `None`), then that many bytes.
struct Parts<'a> {
    section: &'a str,
    rest: &'a [u8],
}

impl<'a> Parts<'a> {
    fn new(section: &'a str, payload: &'a [u8]) -> Self {
        Self {
            section,
            rest: payload,
        }
    }

    fn torn(&self, what: &str, detail: impl fmt::Display) -> CheckpointDefect {
        torn(format!("section `{}`: `{what}` {detail}", self.section))
    }

    /// The next part's bytes, or `None` when it is absent.
    fn next(&mut self, what: &str) -> Result<Option<&'a [u8]>, CheckpointDefect> {
        let Some((len, body)) = self.rest.split_first_chunk::<8>() else {
            return Err(self.torn(what, "is cut off before its length"));
        };
        let len = u64::from_le_bytes(*len);
        if len == ABSENT {
            self.rest = body;
            return Ok(None);
        }
        let Some(part) = usize::try_from(len).ok().and_then(|n| body.get(..n)) else {
            return Err(self.torn(
                what,
                format_args!("claims {len} byte(s), {} remain", body.len()),
            ));
        };
        self.rest = body.get(part.len()..).unwrap_or_default();
        Ok(Some(part))
    }

    /// The next part as a column of 8-byte words.
    fn column(&mut self, what: &str) -> Result<Option<Column<'a>>, CheckpointDefect> {
        match self.next(what)? {
            Some(bytes) if bytes.len() % 8 != 0 => Err(self.torn(
                what,
                format_args!("is {} byte(s), not a whole number of words", bytes.len()),
            )),
            part => Ok(part.map(Column)),
        }
    }

    /// The next part as JSON.
    fn json<T: Deserialize>(&mut self, what: &str) -> Result<Option<T>, CheckpointDefect> {
        let Some(bytes) = self.next(what)? else {
            return Ok(None);
        };
        let text = std::str::from_utf8(bytes).map_err(|e| self.torn(what, e))?;
        serde_json::from_str(text)
            .map(Some)
            .map_err(|e| self.torn(what, format_args!("does not decode: {e}")))
    }

    /// The next part as JSON that no checkpoint leaves absent.
    fn required_json<T: Deserialize>(&mut self, what: &str) -> Result<T, CheckpointDefect> {
        self.json(what)?.ok_or_else(|| self.torn(what, "is absent"))
    }

    /// Both ledger parts, appended to `state`'s ledgers.
    fn ledger(&mut self, state: &mut StageState) -> Result<(), CheckpointDefect> {
        let degradations: Vec<Degradation> = self.required_json("degradations")?;
        state.degradations.extend(degradations);
        let quarantined: Vec<QuarantineEntry> = self.required_json("quarantined")?;
        state.quarantined.extend(quarantined);
        Ok(())
    }

    /// Every part has been read.
    fn finish(self) -> Result<(), CheckpointDefect> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(torn(format!(
                "section `{}` has {} byte(s) after its last part",
                self.section,
                self.rest.len()
            )))
        }
    }
}

/// A column part: little-endian words.
#[derive(Clone, Copy)]
struct Column<'a>(&'a [u8]);

impl<'a> Column<'a> {
    fn words(self) -> impl Iterator<Item = u64> + 'a {
        self.0.chunks_exact(8).map(|w| {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            u64::from_le_bytes(word)
        })
    }

    fn hashes(self) -> Vec<PHash> {
        self.words().map(PHash::from_bits).collect()
    }

    fn indices(self) -> Result<Vec<usize>, CheckpointDefect> {
        self.words().map(index).collect()
    }

    fn opt_indices(self) -> Result<Vec<Option<usize>>, CheckpointDefect> {
        self.words().map(opt_index).collect()
    }
}

fn index(word: u64) -> Result<usize, CheckpointDefect> {
    usize::try_from(word)
        .ok()
        .ok_or_else(|| torn(format!("index {word} does not fit this platform")))
}

/// The inverse of [`opt_word`].
fn opt_index(word: u64) -> Result<Option<usize>, CheckpointDefect> {
    if word == ABSENT {
        Ok(None)
    } else {
        index(word).map(Some)
    }
}

/// The cluster section's label column: the cluster count, then one
/// label per item, validated as DBSCAN would have produced them.
fn clustering(column: Column<'_>) -> Result<Clustering, CheckpointDefect> {
    let mut words = column.words();
    let Some(n_clusters) = words.next() else {
        return Err(torn(
            "section `cluster`: `cluster_labels` has no cluster count",
        ));
    };
    let labels = words.map(opt_index).collect::<Result<Vec<_>, _>>()?;
    Clustering::try_new(labels, index(n_clusters)?)
        // lint:allow(untyped-error): maps into the typed CheckpointDefect classification
        .map_err(|e| torn(format!("section `cluster`: {e}")))
}

/// Fill `state` with the fields of `stage`'s section.
fn read_stage(
    stage: StageId,
    parts: &mut Parts<'_>,
    state: &mut StageState,
) -> Result<(), CheckpointDefect> {
    match stage {
        StageId::Site => {
            state.site = parts.json("site")?;
            state.entry_meme_ids = parts
                .column("entry_meme_ids")?
                .map(Column::opt_indices)
                .transpose()?;
            state.screenshot_metrics = parts.json("screenshot_metrics")?;
        }
        StageId::Hash => state.post_hashes = parts.column("post_hashes")?.map(Column::hashes),
        StageId::Cluster => {
            state.fringe_posts = parts
                .column("fringe_posts")?
                .map(Column::indices)
                .transpose()?;
            state.clustering = parts
                .column("cluster_labels")?
                .map(clustering)
                .transpose()?;
            state.medoid_hashes = parts.column("medoid_hashes")?.map(Column::hashes);
            state.medoid_posts = parts
                .column("medoid_posts")?
                .map(Column::indices)
                .transpose()?;
        }
        StageId::Annotate => state.annotations = parts.json("annotations")?,
        StageId::Associate => {
            state.occurrences = parts
                .column("occurrences")?
                .map(Column::opt_indices)
                .transpose()?;
        }
    }
    parts.ledger(state)
}

/// Decode the sections after the `MEMES-CKPT v3` line.
fn decode_v3(body: &[u8]) -> Result<Decoded, CheckpointDefect> {
    let mut rest = body;
    let (name, payload) = next_frame(&mut rest)?;
    let sections_at = V3_MAGIC_LINE.len() + body.len() - rest.len();
    if name != HEADER_SECTION {
        return Err(torn(format!(
            "first section is `{name}`, not `{HEADER_SECTION}`"
        )));
    }
    let mut parts = Parts::new(HEADER_SECTION, payload);
    let mut words = parts
        .column("dataset_fingerprint")?
        .map(Column::words)
        .into_iter()
        .flatten();
    let (Some(dataset_fingerprint), None) = (words.next(), words.next()) else {
        return Err(parts.torn("dataset_fingerprint", "is not one word"));
    };
    let config: PipelineConfig = parts.required_json("config")?;
    let names: Vec<String> = parts.required_json("completed")?;
    let mut completed = Vec::with_capacity(StageId::ALL.len());
    for name in &names {
        let Some(stage) = StageId::from_name(name) else {
            return Err(parts.torn("completed", format_args!("lists unknown stage `{name}`")));
        };
        if completed.contains(&stage) {
            return Err(parts.torn("completed", format_args!("lists `{name}` twice")));
        }
        completed.push(stage);
    }
    let mut state = StageState::default();
    parts.ledger(&mut state)?;
    parts.finish()?;
    // Entries the header carries precede every section's, so a later
    // persist could not append after them: such a file is re-encoded.
    let reusable = state.degradations.is_empty() && state.quarantined.is_empty();

    for (i, &stage) in completed.iter().enumerate() {
        if rest.is_empty() {
            return Err(torn(format!("section `{stage}` is missing — truncated")));
        }
        let (name, payload) = next_frame(&mut rest)?;
        if name != stage.name() {
            let decoded = completed.get(..i).unwrap_or_default();
            return Err(torn(misplaced(name, stage, decoded)));
        }
        let mut parts = Parts::new(name, payload);
        read_stage(stage, &mut parts, &mut state)?;
        parts.finish()?;
    }
    if !rest.is_empty() {
        let window = rest.get(..MAX_FRAME_LINE).unwrap_or(rest);
        let line = window.split(|&b| b == b'\n').next().unwrap_or_default();
        return Err(torn(format!(
            "{} byte(s) follow the last section the header lists, starting {:?}",
            rest.len(),
            String::from_utf8_lossy(line)
        )));
    }
    Ok(Decoded {
        ckpt: Checkpoint {
            dataset_fingerprint,
            config,
            completed,
            state,
        },
        sections_at: reusable.then_some(sections_at),
    })
}

/// Why a section named `found` cannot stand where `expected` belongs.
fn misplaced(found: &str, expected: StageId, decoded: &[StageId]) -> String {
    match StageId::from_name(found) {
        Some(stage) if decoded.contains(&stage) => {
            format!("duplicate section `{found}` where `{expected}` belongs")
        }
        Some(_) => format!("section `{found}` is out of order: `{expected}` belongs here"),
        None => format!("unknown section `{found}` where `{expected}` belongs"),
    }
}

/// Classify bytes with no parseable version line: a recognizable
/// pre-envelope (v1) checkpoint is *stale*; everything else is *torn*.
fn classify_headerless(bytes: &[u8]) -> CheckpointDefect {
    if bytes.starts_with(CKPT_MAGIC.as_bytes()) {
        return torn("envelope header is truncated or garbled");
    }
    if let Ok(text) = std::str::from_utf8(bytes) {
        if let Ok(v) = serde_json::from_str::<serde::Value>(text) {
            if v.as_object()
                .is_some_and(|o| o.iter().any(|(k, _)| k == "dataset_fingerprint"))
            {
                return CheckpointDefect::Stale {
                    detail: "pre-envelope (v1) checkpoint without an integrity header".to_string(),
                };
            }
            return torn("valid JSON but not a checkpoint");
        }
    }
    torn("no envelope header and not a legacy checkpoint")
}

// ---------------------------------------------------------------------
// Persistence medium + generational persist
// ---------------------------------------------------------------------

/// A checkpoint I/O failure, typed with the operation and path so retry
/// and fault-injection layers can reason about it.
#[derive(Debug, Clone)]
pub struct MediumError {
    /// The operation that failed (`"write"`, `"rename"`, `"read"`).
    pub op: &'static str,
    /// The path involved.
    pub path: String,
    /// The rendered cause.
    pub detail: String,
}

impl fmt::Display for MediumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.op, self.path, self.detail)
    }
}

impl std::error::Error for MediumError {}

/// The I/O surface checkpoint persistence goes through. The production
/// implementation is [`DiskMedium`]; the chaos suite substitutes a
/// fault-injecting one (`supervise::FaultyMedium`) to schedule write
/// failures and torn writes deterministically.
pub trait CheckpointMedium: fmt::Debug + Send + Sync {
    /// Write `bytes` to `path`, creating or truncating it.
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), MediumError>;
    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> Result<(), MediumError>;
    /// Read the whole file at `path`.
    fn read(&self, path: &Path) -> Result<Vec<u8>, MediumError>;
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
}

/// The real filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskMedium;

impl CheckpointMedium for DiskMedium {
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), MediumError> {
        fs::write(path, bytes).map_err(|e| MediumError {
            op: "write",
            path: path.display().to_string(),
            detail: e.to_string(),
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), MediumError> {
        fs::rename(from, to).map_err(|e| MediumError {
            op: "rename",
            path: format!("{} -> {}", from.display(), to.display()),
            detail: e.to_string(),
        })
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, MediumError> {
        fs::read(path).map_err(|e| MediumError {
            op: "read",
            path: path.display().to_string(),
            detail: e.to_string(),
        })
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// Where the previous checkpoint generation is kept: `<path>.prev`.
pub fn prev_checkpoint_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".prev");
    PathBuf::from(s)
}

/// Process-wide counter making concurrent temp names distinct.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A temp name unique to this process *and* this persist call:
/// `<path>.<pid>-<n>.ckpt-tmp`. Two runners sharing a checkpoint path
/// thus never clobber each other's in-flight temp file (the final
/// rename still races — see [`persist_checkpoint`]'s single-writer
/// contract — but a loser can no longer tear the winner's bytes).
fn unique_tmp_path(path: &Path) -> PathBuf {
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut s = path.as_os_str().to_os_string();
    s.push(format!(".{}-{n}.ckpt-tmp", std::process::id()));
    PathBuf::from(s)
}

/// Persist encoded checkpoint bytes crash-safely: write them to a
/// uniquely-named temp file, roll the current file (if any) to
/// `<path>.prev`, then rename the temp into place. A crash at any point
/// leaves either the old generation, the old generation plus a stray
/// temp file, or the new generation — never a file with mixed bytes (a
/// *medium* may still lie about durability; that is exactly the
/// torn-write fault [`decode_checkpoint`] exists to catch).
///
/// Single-writer contract: generations assume one writer per checkpoint
/// path. Concurrent writers no longer tear each other's temp files, but
/// current/`.prev` would interleave arbitrarily — give each run its own
/// path.
pub fn persist_checkpoint(
    medium: &dyn CheckpointMedium,
    path: &Path,
    bytes: &[u8],
) -> Result<(), PipelineError> {
    let tmp = unique_tmp_path(path);
    let result = (|| {
        medium.write(&tmp, bytes)?;
        if medium.exists(path) {
            medium.rename(path, &prev_checkpoint_path(path))?;
        }
        medium.rename(&tmp, path)
    })();
    result.map_err(|e| {
        // Best effort: do not leave the stray temp file behind.
        let _ = fs::remove_file(&tmp);
        PipelineError::CheckpointIo(e.to_string())
    })
}

/// Read, decode, and validate a checkpoint against the dataset and
/// configuration of the run asking to resume from it. The decoded
/// sections come back too, so the resumed run's persists copy them.
pub(crate) fn load_validated(
    medium: &dyn CheckpointMedium,
    path: &Path,
    dataset: &Dataset,
    config: &PipelineConfig,
) -> Result<(Checkpoint, Sections), PipelineError> {
    let bytes = medium
        .read(path)
        .map_err(|e| PipelineError::CheckpointIo(e.to_string()))?;
    let decoded = decode(&bytes).map_err(|d| PipelineError::CheckpointCorrupt(d.to_string()))?;
    let sections = Sections::of_file(bytes, &decoded);
    let ckpt = decoded.ckpt;
    let expect = dataset_fingerprint(dataset);
    if ckpt.dataset_fingerprint != expect {
        return Err(PipelineError::CheckpointMismatch(format!(
            "checkpoint was taken on a different dataset \
             (fingerprint {:#018x}, expected {expect:#018x})",
            ckpt.dataset_fingerprint
        )));
    }
    if ckpt.config != *config {
        return Err(PipelineError::CheckpointMismatch(
            "checkpoint was taken under a different pipeline configuration".into(),
        ));
    }
    Ok((ckpt, sections))
}

// ---------------------------------------------------------------------
// fsck
// ---------------------------------------------------------------------

/// `memes fsck` verdict for one checkpoint file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsckClass {
    /// Envelope verifies; payload decodes; matches the expected dataset
    /// and configuration when those were supplied.
    Clean,
    /// Truncated/garbled bytes, CRC or length mismatch.
    Torn,
    /// A well-formed checkpoint from another schema version.
    Stale,
    /// Intact, but taken on a different dataset or configuration.
    Mismatched,
}

impl FsckClass {
    /// Stable lowercase label (CLI output, artifacts).
    pub fn name(self) -> &'static str {
        match self {
            Self::Clean => "clean",
            Self::Torn => "torn",
            Self::Stale => "stale",
            Self::Mismatched => "mismatched",
        }
    }
}

impl fmt::Display for FsckClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of checking one checkpoint file.
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// The verdict.
    pub class: FsckClass,
    /// Human-readable specifics (what failed, or what was completed).
    pub detail: String,
    /// Completed stages, when the payload decoded.
    pub completed: Vec<StageId>,
}

/// Classify checkpoint bytes. Pass the expected dataset fingerprint and
/// configuration to additionally detect [`FsckClass::Mismatched`]; with
/// `None`, an intact checkpoint from *any* run is [`FsckClass::Clean`].
pub fn fsck_bytes(bytes: &[u8], expect: Option<(u64, &PipelineConfig)>) -> FsckReport {
    let ckpt = match decode(bytes) {
        Ok(d) => d.ckpt,
        Err(CheckpointDefect::Torn { detail }) => {
            return FsckReport {
                class: FsckClass::Torn,
                detail,
                completed: Vec::new(),
            }
        }
        Err(CheckpointDefect::Stale { detail }) => {
            return FsckReport {
                class: FsckClass::Stale,
                detail,
                completed: Vec::new(),
            }
        }
    };
    let completed = ckpt.completed.clone();
    if let Some((fingerprint, config)) = expect {
        if ckpt.dataset_fingerprint != fingerprint {
            return FsckReport {
                class: FsckClass::Mismatched,
                detail: format!(
                    "dataset fingerprint {:#018x}, expected {fingerprint:#018x}",
                    ckpt.dataset_fingerprint
                ),
                completed,
            };
        }
        if ckpt.config != *config {
            return FsckReport {
                class: FsckClass::Mismatched,
                detail: "configuration differs from the one supplied".to_string(),
                completed,
            };
        }
    }
    FsckReport {
        class: FsckClass::Clean,
        detail: format!(
            "v{CHECKPOINT_SCHEMA_VERSION}, {} of {} stage(s) completed",
            completed.len(),
            StageId::ALL.len()
        ),
        completed,
    }
}

/// [`fsck_bytes`] over a file on a medium; unreadable files are a
/// [`PipelineError::CheckpointIo`] (operational, not a verdict).
pub fn fsck_file(
    medium: &dyn CheckpointMedium,
    path: &Path,
    expect: Option<(u64, &PipelineConfig)>,
) -> Result<FsckReport, PipelineError> {
    let bytes = medium
        .read(path)
        .map_err(|e| PipelineError::CheckpointIo(e.to_string()))?;
    Ok(fsck_bytes(&bytes, expect))
}

/// What a runner invocation produced.
#[derive(Debug)]
pub enum RunnerOutcome {
    /// Every stage ran; here is the assembled output.
    Complete(Box<PipelineOutput>),
    /// The runner stopped after the requested stage (checkpoint saved).
    Halted {
        /// The last stage that completed before halting.
        after: StageId,
    },
}

/// Derive a stage's items-per-second gauge from its wall time and the
/// work counter the stage itself recorded. Gauges hold the last value,
/// so on a resumed run they reflect the stages that actually ran.
pub(crate) fn record_throughput(metrics: &meme_metrics::Metrics, stage: StageId, elapsed: f64) {
    if !metrics.is_enabled() || elapsed <= 0.0 {
        return;
    }
    let per_sec = |counter: &str| metrics.counter(counter) as f64 / elapsed;
    match stage {
        StageId::Hash => metrics.gauge("hash.images_per_sec", per_sec("hash.images")),
        StageId::Associate => {
            metrics.gauge("associate.queries_per_sec", per_sec("associate.posts"));
        }
        StageId::Site | StageId::Cluster | StageId::Annotate => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use meme_simweb::SimConfig;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "memes-runner-test-{}-{name}.json",
            std::process::id()
        ));
        p
    }

    #[test]
    fn stage_order_is_stable() {
        let names: Vec<&str> = StageId::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["site", "hash", "cluster", "annotate", "associate"]);
    }

    #[test]
    fn fingerprint_tracks_post_skeleton() {
        let a = SimConfig::tiny(21).generate();
        let b = SimConfig::tiny(22).generate();
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&b));
        assert_eq!(dataset_fingerprint(&a), dataset_fingerprint(&a));
    }

    #[test]
    fn crc32_matches_the_ieee_check_vector() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise CRC-32 the table-driven one replaced: eight
    /// shift-xor steps per byte.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_agrees_with_the_bitwise_loop() {
        // Pseudo-random bytes (xorshift64), so every table entry and
        // lane is exercised.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let buf: Vec<u8> = (0..(1usize << 20) + 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        // Every length across the 16-byte step and its remainder, at
        // every alignment within a step.
        for start in 0..16 {
            for len in 0..=96 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
        let mib = &buf[..1 << 20];
        assert_eq!(crc32(mib), crc32_bitwise(mib));
    }

    /// A checkpoint with every stage completed and every field set,
    /// from a real run of the tiny preset.
    fn completed_checkpoint() -> Checkpoint {
        static CKPT: std::sync::OnceLock<Checkpoint> = std::sync::OnceLock::new();
        CKPT.get_or_init(|| {
            let dataset = SimConfig::tiny(21).generate();
            let config = PipelineConfig::fast();
            let pipeline = crate::pipeline::Pipeline::new(config.clone());
            let out = crate::supervise::SupervisedRunner::new(pipeline)
                .run(&dataset)
                .unwrap()
                .expect_complete();
            let mut ckpt = Checkpoint::fresh(&dataset, config);
            ckpt.completed = StageId::ALL.to_vec();
            ckpt.state = StageState {
                post_hashes: Some(out.post_hashes),
                fringe_posts: Some(out.fringe_posts),
                clustering: Some(out.clustering),
                medoid_hashes: Some(out.medoid_hashes),
                medoid_posts: Some(out.medoid_posts),
                site: Some(out.site),
                entry_meme_ids: Some(out.entry_meme_ids),
                screenshot_metrics: out.screenshot_metrics,
                annotations: Some(out.annotations),
                occurrences: Some(out.occurrences),
                degradations: vec![Degradation::CheckpointRolledBack {
                    reason: "test".to_string(),
                }],
                quarantined: Vec::new(),
            };
            ckpt
        })
        .clone()
    }

    #[test]
    fn envelope_roundtrips_and_verifies() {
        let dataset = SimConfig::tiny(21).generate();
        let ckpt = Checkpoint::fresh(&dataset, PipelineConfig::fast());
        let bytes = encode_checkpoint(&ckpt);
        assert!(bytes.starts_with(V3_MAGIC_LINE));
        let back = decode_checkpoint(&bytes).expect("clean envelope decodes");
        assert_eq!(back.dataset_fingerprint, ckpt.dataset_fingerprint);
        assert_eq!(encode_checkpoint(&back), bytes);

        let full = encode_checkpoint(&completed_checkpoint());
        let back = decode_checkpoint(&full).unwrap();
        assert_eq!(encode_checkpoint(&back), full);
    }

    #[test]
    fn absent_fields_and_none_entries_round_trip() {
        // Completed stages whose fields are unset (hand-built files can
        // hold them), `None` index entries, and the ledger of a
        // checkpoint without sections all survive v3.
        let mut ckpt = completed_checkpoint();
        ckpt.state.clustering = None;
        ckpt.state.site = None;
        ckpt.state.screenshot_metrics = None;
        ckpt.state.entry_meme_ids = Some(vec![None, Some(3), None]);
        ckpt.state.occurrences = Some(vec![Some(0), None]);
        let bytes = encode_checkpoint(&ckpt);
        assert_eq!(
            encode_checkpoint(&decode_checkpoint(&bytes).unwrap()),
            bytes
        );

        ckpt.completed.clear();
        ckpt.state = StageState {
            degradations: vec![Degradation::CheckpointRolledBack {
                reason: "header".to_string(),
            }],
            ..StageState::default()
        };
        let bytes = encode_checkpoint(&ckpt);
        assert_eq!(
            encode_checkpoint(&decode_checkpoint(&bytes).unwrap()),
            bytes
        );
    }

    #[test]
    fn torn_envelopes_are_classified_torn_at_every_offset() {
        // Truncations at the magic line, inside and at the end of every
        // section, plus bit rot, must all classify as Torn.
        let bytes = encode_checkpoint(&completed_checkpoint());
        let mut rest = bytes.get(V3_MAGIC_LINE.len()..).unwrap();
        let mut boundaries = vec![V3_MAGIC_LINE.len()];
        while !rest.is_empty() {
            next_frame(&mut rest).unwrap();
            boundaries.push(bytes.len() - rest.len());
        }
        assert_eq!(boundaries.len(), 2 + StageId::ALL.len());
        let mut offsets = vec![0, 1, V3_MAGIC_LINE.len() - 2, bytes.len() / 2];
        for &b in &boundaries[..boundaries.len() - 1] {
            offsets.extend([b, b + 1, b + 30, b + 60, b + 70]);
        }
        offsets.extend(boundaries.iter().skip(1).map(|b| b - 1));
        for &cut in &offsets {
            let defect = decode_checkpoint(&bytes[..cut]).expect_err("truncation must not decode");
            assert!(
                matches!(defect, CheckpointDefect::Torn { .. }),
                "cut at {cut}: {defect}"
            );
        }
        // A flipped payload bit fails its section's CRC.
        let mut rotted = bytes.clone();
        let last = rotted.len() - 1;
        rotted[last] ^= 0x01;
        assert!(matches!(
            decode_checkpoint(&rotted),
            Err(CheckpointDefect::Torn { .. })
        ));
    }

    /// A pre-envelope (v1) file: the bare JSON document of a checkpoint.
    const V1_FILE: &str = r#"{"dataset_fingerprint":24301,"config":{"theta":8},"completed":["Hash"],"state":{"post_hashes":[0]}}"#;

    #[test]
    fn pre_envelope_and_older_checkpoints_are_stale_not_torn() {
        let defect = decode_checkpoint(V1_FILE.as_bytes()).expect_err("v1 must not decode");
        assert!(matches!(defect, CheckpointDefect::Stale { .. }), "{defect}");
        // A v2 envelope (one CRC over one JSON document) is stale too,
        // whatever its body.
        let v2 = format!(
            "{CKPT_MAGIC} v2 crc32={:08x} len={}\n{V1_FILE}",
            crc32(V1_FILE.as_bytes()),
            V1_FILE.len()
        );
        assert_eq!(
            decode_checkpoint(v2.as_bytes()).expect_err("v2 must not decode"),
            CheckpointDefect::Stale {
                detail: "schema v2; this build reads v3".to_string()
            }
        );
        // As is a well-formed file from a future schema version.
        let dataset = SimConfig::tiny(21).generate();
        let bytes = encode_checkpoint(&Checkpoint::fresh(&dataset, PipelineConfig::fast()));
        let mut future = format!("{CKPT_MAGIC} v{}\n", CHECKPOINT_SCHEMA_VERSION + 1).into_bytes();
        future.extend_from_slice(&bytes[V3_MAGIC_LINE.len()..]);
        assert!(matches!(
            decode_checkpoint(&future),
            Err(CheckpointDefect::Stale { .. })
        ));
    }

    #[test]
    fn temp_names_are_unique_per_persist() {
        // Satellite regression: two runners sharing a checkpoint path
        // must not write through the same temp file.
        let path = tmp_path("unique");
        let a = unique_tmp_path(&path);
        let b = unique_tmp_path(&path);
        assert_ne!(a, b);
        for t in [&a, &b] {
            let name = t.file_name().unwrap().to_string_lossy().into_owned();
            assert!(name.ends_with(".ckpt-tmp"), "{name}");
            assert!(
                name.contains(&std::process::id().to_string()),
                "temp name must carry the pid: {name}"
            );
        }
    }

    #[test]
    fn persist_keeps_the_previous_generation() {
        let dataset = SimConfig::tiny(21).generate();
        let path = tmp_path("generations");
        let prev = prev_checkpoint_path(&path);
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&prev);

        let mut ckpt = Checkpoint::fresh(&dataset, PipelineConfig::fast());
        persist_checkpoint(&DiskMedium, &path, &encode_checkpoint(&ckpt)).unwrap();
        assert!(path.exists());
        assert!(!prev.exists(), "first persist has no previous generation");

        ckpt.completed.push(StageId::Hash);
        persist_checkpoint(&DiskMedium, &path, &encode_checkpoint(&ckpt)).unwrap();
        let current = decode_checkpoint(&fs::read(&path).unwrap()).unwrap();
        let rolled = decode_checkpoint(&fs::read(&prev).unwrap()).unwrap();
        assert_eq!(current.completed, vec![StageId::Hash]);
        assert!(rolled.completed.is_empty(), "prev holds generation n-1");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&prev);
    }

    #[test]
    fn fsck_classifies_all_four_states() {
        let dataset = SimConfig::tiny(21).generate();
        let other = SimConfig::tiny(22).generate();
        let config = PipelineConfig::fast();
        let ckpt = Checkpoint::fresh(&dataset, config.clone());
        let bytes = encode_checkpoint(&ckpt);
        let fp = dataset_fingerprint(&dataset);

        let clean = fsck_bytes(&bytes, Some((fp, &config)));
        assert_eq!(clean.class, FsckClass::Clean);

        let torn = fsck_bytes(&bytes[..bytes.len() / 2], Some((fp, &config)));
        assert_eq!(torn.class, FsckClass::Torn);

        let stale = fsck_bytes(V1_FILE.as_bytes(), Some((fp, &config)));
        assert_eq!(stale.class, FsckClass::Stale);

        let wrong_fp = dataset_fingerprint(&other);
        let mismatched = fsck_bytes(&bytes, Some((wrong_fp, &config)));
        assert_eq!(mismatched.class, FsckClass::Mismatched);

        let mut changed = config.clone();
        changed.theta = 5;
        let mismatched = fsck_bytes(&bytes, Some((fp, &changed)));
        assert_eq!(mismatched.class, FsckClass::Mismatched);

        // Without expectations, any intact checkpoint is clean.
        assert_eq!(fsck_bytes(&bytes, None).class, FsckClass::Clean);
    }
}
