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
//! On-disk integrity (DESIGN.md §11): checkpoints are wrapped in a
//! checksummed, schema-versioned **envelope** — a one-line ASCII header
//! carrying a CRC-32 and byte length of the JSON payload — and written
//! via a uniquely-named temp file renamed into place, with the previous
//! generation kept as `<path>.prev` for rollback. [`decode_checkpoint`]
//! classifies every defect as **torn** (truncated/garbled bytes, CRC or
//! length mismatch) or **stale** (a checkpoint from another schema
//! version); [`fsck_bytes`] adds **mismatched** (wrong dataset or
//! configuration) for the `memes fsck` subcommand. Persistence is
//! routed through the [`CheckpointMedium`] trait so the chaos suite can
//! inject write failures and torn writes deterministically.
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
/// on demand from a completed [`PipelineOutput`] (see
/// [`PipelineOutput::estimate_influence`]).
///
/// A checkpoint records a stage by its variant name (`"Hash"`), never
/// by position, and [`Checkpoint::next_stage`] /
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
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
    /// Always present in v2 envelopes — pre-envelope checkpoints are
    /// rejected as stale before deserialization.
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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

    /// Serialize the payload to JSON (no integrity envelope — see
    /// [`encode_checkpoint`] for the on-disk format).
    pub fn to_json(&self) -> String {
        // lint:allow(panic-reachable): vendored serde serialization of plain structs is infallible
        serde_json::to_string(self).expect("checkpoint serializes")
    }

    /// Restore a checkpoint payload saved with [`Checkpoint::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
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
// Checkpoint envelope: `MEMES-CKPT v<N> crc32=<hex> len=<bytes>\n<json>`
// ---------------------------------------------------------------------

/// Schema version written into every checkpoint envelope. Bumped when
/// the payload layout changes incompatibly; older versions decode as
/// [`CheckpointDefect::Stale`].
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 2;

const CKPT_MAGIC: &str = "MEMES-CKPT";

/// Slice-by-8 lookup tables for [`crc32`]: `CRC32_TABLES[k][b]` is the
/// register contribution of byte `b` followed by `k` zero bytes — eight
/// bit steps per byte of the reflected IEEE polynomial, built at
/// compile time.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut k = 0;
    while k < 8 {
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
/// envelope checksum. Table-driven, eight bytes per step (slice-by-8),
/// dependency-free. A resume checksums every checkpoint it decodes and
/// persists, and on a post-hash payload a byte-at-a-time CRC costs more
/// than the JSON encode itself.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
    let lane = |v: u64, shift: u32| ((v >> shift) & 0xFF) as usize;
    let mut crc: u32 = !0;
    let mut words = bytes.chunks_exact(8);
    for chunk in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        let v = u64::from_le_bytes(word) ^ u64::from(crc);
        crc = t7[lane(v, 0)]
            ^ t6[lane(v, 8)]
            ^ t5[lane(v, 16)]
            ^ t4[lane(v, 24)]
            ^ t3[lane(v, 32)]
            ^ t2[lane(v, 40)]
            ^ t1[lane(v, 48)]
            ^ t0[lane(v, 56)];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t0[lane(u64::from(crc ^ u32::from(b)), 0)];
    }
    !crc
}

/// How a checkpoint file failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointDefect {
    /// The bytes on disk are not a complete, intact envelope: truncated
    /// header or payload, CRC/length mismatch, or garbage — the
    /// signature of a crash mid-write or outside interference.
    Torn {
        /// What exactly failed to verify.
        detail: String,
    },
    /// The file is a well-formed checkpoint from a different schema
    /// version (including pre-envelope v1 files) that this build will
    /// not reinterpret.
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

/// Wrap a checkpoint in its integrity envelope: a one-line ASCII header
/// carrying the schema version, a CRC-32 over the JSON payload, and the
/// payload's byte length, followed by the payload itself.
pub fn encode_checkpoint(ckpt: &Checkpoint) -> Vec<u8> {
    let payload = ckpt.to_json();
    let mut out = format!(
        "{CKPT_MAGIC} v{CHECKPOINT_SCHEMA_VERSION} crc32={:08x} len={}\n",
        crc32(payload.as_bytes()),
        payload.len()
    );
    out.push_str(&payload);
    out.into_bytes()
}

/// Decode and verify an enveloped checkpoint, classifying every failure
/// as [`CheckpointDefect::Torn`] or [`CheckpointDefect::Stale`] — never
/// a panic, and never a silent success on damaged bytes.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, CheckpointDefect> {
    if bytes.is_empty() {
        return Err(CheckpointDefect::Torn {
            detail: "file is empty".to_string(),
        });
    }
    let header_end = bytes.iter().position(|&b| b == b'\n');
    let header_bytes = match header_end {
        Some(i) => &bytes[..i],
        None => bytes,
    };
    let fields = std::str::from_utf8(header_bytes)
        .ok()
        .and_then(parse_header);
    let Some((version, crc, len)) = fields else {
        return Err(classify_headerless(bytes));
    };
    if version != CHECKPOINT_SCHEMA_VERSION {
        return Err(CheckpointDefect::Stale {
            detail: format!(
                "envelope schema v{version}; this build reads v{CHECKPOINT_SCHEMA_VERSION}"
            ),
        });
    }
    let payload = match header_end {
        Some(i) => &bytes[i + 1..],
        None => &[][..],
    };
    if payload.len() != len {
        return Err(CheckpointDefect::Torn {
            detail: format!(
                "payload is {} byte(s), header expects {len} — truncated or overwritten",
                payload.len()
            ),
        });
    }
    let actual = crc32(payload);
    if actual != crc {
        return Err(CheckpointDefect::Torn {
            detail: format!("payload CRC {actual:08x} does not match header CRC {crc:08x}"),
        });
    }
    // lint:allow(untyped-error): maps into the typed CheckpointDefect classification
    let text = std::str::from_utf8(payload).map_err(|e| CheckpointDefect::Torn {
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    // lint:allow(untyped-error): maps into the typed CheckpointDefect classification
    Checkpoint::from_json(text).map_err(|e| CheckpointDefect::Torn {
        detail: format!("envelope verifies but payload does not decode: {e}"),
    })
}

/// Parse `MEMES-CKPT v<N> crc32=<hex8> len=<N>`.
fn parse_header(line: &str) -> Option<(u32, u32, usize)> {
    let rest = line.strip_prefix(CKPT_MAGIC)?.strip_prefix(" v")?;
    let mut parts = rest.split(' ');
    let version: u32 = parts.next()?.parse().ok()?;
    let crc = u32::from_str_radix(parts.next()?.strip_prefix("crc32=")?, 16).ok()?;
    let len: usize = parts.next()?.strip_prefix("len=")?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((version, crc, len))
}

/// Classify bytes with no parseable envelope header: a recognizable
/// pre-envelope (v1) checkpoint is *stale*; everything else is *torn*.
fn classify_headerless(bytes: &[u8]) -> CheckpointDefect {
    if bytes.starts_with(CKPT_MAGIC.as_bytes()) {
        return CheckpointDefect::Torn {
            detail: "envelope header is truncated or garbled".to_string(),
        };
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
            return CheckpointDefect::Torn {
                detail: "valid JSON but not a checkpoint".to_string(),
            };
        }
    }
    CheckpointDefect::Torn {
        detail: "no envelope header and not a legacy checkpoint".to_string(),
    }
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

/// Persist a checkpoint crash-safely: encode with the integrity
/// envelope, write to a uniquely-named temp file, roll the current file
/// (if any) to `<path>.prev`, then rename the temp into place. A crash
/// at any point leaves either the old generation, the old generation
/// plus a stray temp file, or the new generation — never a file with
/// mixed bytes (a *medium* may still lie about durability; that is
/// exactly the torn-write fault [`decode_checkpoint`] exists to catch).
///
/// Single-writer contract: generations assume one writer per checkpoint
/// path. Concurrent writers no longer tear each other's temp files, but
/// current/`.prev` would interleave arbitrarily — give each run its own
/// path.
pub fn persist_checkpoint(
    medium: &dyn CheckpointMedium,
    path: &Path,
    ckpt: &Checkpoint,
) -> Result<(), PipelineError> {
    let tmp = unique_tmp_path(path);
    let result = (|| {
        medium.write(&tmp, &encode_checkpoint(ckpt))?;
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
/// configuration of the run asking to resume from it.
pub(crate) fn load_validated(
    medium: &dyn CheckpointMedium,
    path: &Path,
    dataset: &Dataset,
    config: &PipelineConfig,
) -> Result<Checkpoint, PipelineError> {
    let bytes = medium
        .read(path)
        .map_err(|e| PipelineError::CheckpointIo(e.to_string()))?;
    let ckpt =
        decode_checkpoint(&bytes).map_err(|d| PipelineError::CheckpointCorrupt(d.to_string()))?;
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
    Ok(ckpt)
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
    let ckpt = match decode_checkpoint(bytes) {
        Ok(ckpt) => ckpt,
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
            "{} of {} stage(s) completed",
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
        StageId::Cluster => metrics.gauge(
            "cluster.neighbor_queries_per_sec",
            per_sec("cluster.neighbor_queries"),
        ),
        StageId::Associate => {
            metrics.gauge("associate.queries_per_sec", per_sec("associate.posts"));
        }
        StageId::Site | StageId::Annotate => {}
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
        let buf: Vec<u8> = (0..(1usize << 20) + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        // Every length across the 8-byte step and its remainder, at
        // every alignment within a step.
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
        let mib = &buf[..1 << 20];
        assert_eq!(crc32(mib), crc32_bitwise(mib));
    }

    #[test]
    fn envelope_roundtrips_and_verifies() {
        let dataset = SimConfig::tiny(21).generate();
        let ckpt = Checkpoint::fresh(&dataset, PipelineConfig::fast());
        let bytes = encode_checkpoint(&ckpt);
        let back = decode_checkpoint(&bytes).expect("clean envelope decodes");
        assert_eq!(back.dataset_fingerprint, ckpt.dataset_fingerprint);
        assert_eq!(back.to_json(), ckpt.to_json());
    }

    #[test]
    fn torn_envelopes_are_classified_torn_at_every_offset() {
        // Satellite regression: truncations at header, boundary, and
        // payload offsets — plus bit rot — must all classify as Torn.
        let dataset = SimConfig::tiny(21).generate();
        let ckpt = Checkpoint::fresh(&dataset, PipelineConfig::fast());
        let bytes = encode_checkpoint(&ckpt);
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let offsets = [
            0,
            1,
            header_len - 2,
            header_len,
            header_len + 1,
            bytes.len() / 2,
            bytes.len() - 1,
        ];
        for &cut in &offsets {
            let defect = decode_checkpoint(&bytes[..cut]).expect_err("truncation must not decode");
            assert!(
                matches!(defect, CheckpointDefect::Torn { .. }),
                "cut at {cut}: {defect}"
            );
        }
        // A flipped payload bit fails the CRC even when the length holds.
        let mut rotted = bytes.clone();
        let last = rotted.len() - 1;
        rotted[last] ^= 0x01;
        assert!(matches!(
            decode_checkpoint(&rotted),
            Err(CheckpointDefect::Torn { .. })
        ));
    }

    #[test]
    fn pre_envelope_checkpoints_are_stale_not_torn() {
        let dataset = SimConfig::tiny(21).generate();
        let ckpt = Checkpoint::fresh(&dataset, PipelineConfig::fast());
        // A v1 file was the bare JSON payload.
        let defect = decode_checkpoint(ckpt.to_json().as_bytes()).expect_err("v1 must not decode");
        assert!(matches!(defect, CheckpointDefect::Stale { .. }), "{defect}");
        // As is a well-formed envelope from a future schema version.
        let mut bytes = encode_checkpoint(&ckpt);
        let header = format!("{CKPT_MAGIC} v{}", CHECKPOINT_SCHEMA_VERSION + 1);
        let old = format!("{CKPT_MAGIC} v{CHECKPOINT_SCHEMA_VERSION}");
        let text = String::from_utf8(bytes.clone()).unwrap();
        bytes = text.replacen(&old, &header, 1).into_bytes();
        assert!(matches!(
            decode_checkpoint(&bytes),
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
        persist_checkpoint(&DiskMedium, &path, &ckpt).unwrap();
        assert!(path.exists());
        assert!(!prev.exists(), "first persist has no previous generation");

        ckpt.completed.push(StageId::Hash);
        persist_checkpoint(&DiskMedium, &path, &ckpt).unwrap();
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

        let stale = fsck_bytes(ckpt.to_json().as_bytes(), Some((fp, &config)));
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
