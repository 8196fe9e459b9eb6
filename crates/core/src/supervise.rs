//! Supervised stage execution (DESIGN.md §11).
//!
//! [`SupervisedRunner`] is the one stage driver: it takes a
//! [`Pipeline`] through [`StageId::ALL`] with the survival machinery a
//! production batch run needs:
//!
//! * **Bounded, deterministic retry** — each stage attempt runs under
//!   a [`StagePolicy`]; retryable failures (transient stage and item
//!   faults, I/O errors, contained panics) are retried at once until
//!   its `attempts` run out. Nothing sleeps between attempts, so runs stay
//!   deterministic and the `wallclock-outside-metrics` lint stays
//!   green.
//! * **Panic containment** — every attempt runs under `catch_unwind`;
//!   a panicking stage becomes a typed
//!   [`PipelineError::StagePanicked`], never an abort. A failed attempt
//!   is rolled back field-by-field (each [`StageState`] field is owned
//!   by exactly one stage, and the ledgers are append-only), so a
//!   half-finished attempt can never leak into the next — without
//!   cloning the accumulated state on the happy path.
//! * **Poison-item quarantine** — items the pipeline diverts to
//!   [`StageState::quarantined`] are persisted to a `quarantine.jsonl`
//!   dead-letter file after every stage.
//! * **Checkpoint write retries and rollback** — persistence failures
//!   are retried under the same policy; on resume, a torn or stale
//!   current checkpoint automatically falls back to the previous
//!   generation (`<path>.prev`), recording a
//!   [`Degradation::CheckpointRolledBack`] — never a silent fresh run.
//! * **Section reuse** — the runner keeps the encoded section of every
//!   stage it decoded or persisted, so each persist encodes only the
//!   stage that just finished and copies the rest verbatim (spans
//!   `pipeline/checkpoint_load` and `pipeline/persist`, counter
//!   `checkpoint.bytes_written`).
//!
//! Every decision is deterministic: a retried, resumed, or rolled-back
//! run produces output byte-identical to an uninterrupted clean run
//! (the chaos suite in `tests/chaos_exec.rs` holds this line). The bare
//! run is this driver under `StagePolicy { attempts: 1 }`: the first
//! error comes back as is.

use crate::checkpoint::{
    load_validated, persist_checkpoint, prev_checkpoint_path, record_throughput, Checkpoint,
    CheckpointMedium, DiskMedium, MediumError, RunnerOutcome, Sections, StageId, StageState,
};
use crate::pipeline::{Degradation, Pipeline, PipelineError, PipelineOutput, StageError};
use crate::quarantine::write_quarantine;
use meme_simweb::{Dataset, ExecFaultSpec, ExecWriteFault};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A [`CheckpointMedium`] that injects the write faults an
/// [`ExecFaultSpec`] schedules: write *k* can fail outright or be torn
/// (a prefix lands on disk and the call still reports success — the
/// lying-fsync crash). Reads and renames pass through to disk.
#[derive(Debug)]
pub struct FaultyMedium {
    spec: ExecFaultSpec,
    writes: AtomicUsize,
    disk: DiskMedium,
}

impl FaultyMedium {
    /// Wrap the disk with a write-fault schedule.
    pub fn new(spec: ExecFaultSpec) -> Self {
        Self {
            spec,
            writes: AtomicUsize::new(0),
            disk: DiskMedium,
        }
    }

    /// How many writes have been attempted through this medium.
    pub fn writes(&self) -> usize {
        self.writes.load(Ordering::Relaxed)
    }
}

impl CheckpointMedium for FaultyMedium {
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), MediumError> {
        let k = self.writes.fetch_add(1, Ordering::Relaxed);
        match self.spec.write_fault(k) {
            ExecWriteFault::Pass => self.disk.write(path, bytes),
            ExecWriteFault::Fail => Err(MediumError {
                op: "write",
                path: path.display().to_string(),
                detail: format!("injected write failure (write #{k})"),
            }),
            ExecWriteFault::Torn { keep_fraction } => {
                let keep = ((bytes.len() as f64) * keep_fraction.clamp(0.0, 1.0)) as usize;
                // The torn write *reports success*: the bytes are gone
                // but nobody knows yet. decode_checkpoint finds out.
                self.disk.write(path, &bytes[..keep.min(bytes.len())])
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), MediumError> {
        self.disk.rename(from, to)
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, MediumError> {
        self.disk.read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.disk.exists(path)
    }
}

/// Per-stage retry policy: an attempt budget only, so every decision
/// is deterministic and wall-clock free.
#[derive(Debug, Clone)]
pub struct StagePolicy {
    /// Attempts per stage, and per checkpoint write, before the last
    /// error is returned (≥ 1).
    pub attempts: u32,
}

impl Default for StagePolicy {
    fn default() -> Self {
        Self { attempts: 3 }
    }
}

/// Retry bookkeeping for one stage that needed retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRetries {
    /// The stage.
    pub stage: StageId,
    /// Retries performed (attempts beyond the first).
    pub retries: u32,
}

/// What the supervisor did to keep a run alive.
#[derive(Debug, Clone, Default)]
pub struct SupervisionReport {
    /// Stages that needed retries, in execution order.
    pub retries: Vec<StageRetries>,
    /// Panics contained by `catch_unwind` across all attempts.
    pub panics_contained: u32,
    /// Items sitting in quarantine at the end of the run.
    pub quarantined_items: usize,
    /// Whether resume rolled back to the previous checkpoint generation.
    pub rolled_back: bool,
    /// Checkpoint generations successfully persisted.
    pub checkpoint_writes: u32,
    /// Checkpoint persist attempts that failed and were retried.
    pub checkpoint_write_retries: u32,
}

impl SupervisionReport {
    /// Total retries across all stages.
    pub fn total_retries(&self) -> u32 {
        self.retries.iter().map(|r| r.retries).sum()
    }
}

/// A supervised run's outcome plus its supervision bookkeeping.
#[derive(Debug)]
pub struct SupervisedRun {
    /// What the runner produced.
    pub outcome: RunnerOutcome,
    /// What supervision had to do along the way.
    pub report: SupervisionReport,
}

impl SupervisedRun {
    /// Unwrap the completed output; panics on a halted run.
    pub fn expect_complete(self) -> PipelineOutput {
        match self.outcome {
            RunnerOutcome::Complete(out) => *out,
            RunnerOutcome::Halted { after } => {
                // lint:allow(panic-reachable): documented panicking accessor, mirrors Option::expect
                panic!("pipeline halted after stage `{after}`, no output")
            }
        }
    }
}

/// Drives a [`Pipeline`] stage by stage under a [`StagePolicy`]: retry
/// within a bounded budget, contain panics, quarantine poison items,
/// persist checkpoints through a (possibly fault-injected) medium, and
/// roll back to the previous checkpoint generation when the current one
/// is damaged.
#[derive(Debug)]
pub struct SupervisedRunner {
    pipeline: Pipeline,
    policy: StagePolicy,
    checkpoint_path: Option<PathBuf>,
    quarantine_path: Option<PathBuf>,
    halt_after: Option<StageId>,
    medium: Arc<dyn CheckpointMedium>,
}

impl SupervisedRunner {
    /// A supervised runner with the default policy, the real disk, and
    /// no checkpoint or quarantine files.
    pub fn new(pipeline: Pipeline) -> Self {
        Self {
            pipeline,
            policy: StagePolicy::default(),
            checkpoint_path: None,
            quarantine_path: None,
            halt_after: None,
            medium: Arc::new(DiskMedium),
        }
    }

    /// Attach a metrics handle (also wired into the pipeline's stages).
    pub fn with_metrics(mut self, metrics: meme_metrics::Metrics) -> Self {
        self.pipeline = self.pipeline.with_metrics(metrics);
        self
    }

    /// Snapshot a checkpoint to `path` after every completed stage.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Persist quarantined items to `path` (JSON Lines) after every
    /// stage that quarantined anything.
    pub fn with_quarantine(mut self, path: impl Into<PathBuf>) -> Self {
        self.quarantine_path = Some(path.into());
        self
    }

    /// Override the retry policy.
    pub fn with_policy(mut self, policy: StagePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Route checkpoint persistence through a custom medium (chaos
    /// testing: [`FaultyMedium`]).
    pub fn with_medium(mut self, medium: Arc<dyn CheckpointMedium>) -> Self {
        self.medium = medium;
        self
    }

    /// Attach an execution-fault schedule to the pipeline's fault points.
    pub fn with_exec_faults(mut self, faults: ExecFaultSpec) -> Self {
        self.pipeline = self.pipeline.with_exec_faults(faults);
        self
    }

    /// Stop (checkpoint saved) after the given stage completes.
    pub fn halt_after(mut self, stage: StageId) -> Self {
        self.halt_after = Some(stage);
        self
    }

    /// Run every stage from scratch, ignoring any existing checkpoint.
    pub fn run(&self, dataset: &Dataset) -> Result<SupervisedRun, PipelineError> {
        if dataset.posts.is_empty() {
            return Err(PipelineError::EmptyDataset);
        }
        let ckpt = Checkpoint::fresh(dataset, self.pipeline.config().clone());
        self.drive(
            dataset,
            ckpt,
            Sections::default(),
            SupervisionReport::default(),
        )
    }

    /// Continue from the checkpoint on disk. A torn or stale current
    /// generation falls back to `<path>.prev` when that previous
    /// generation is intact and matches this run — recording a
    /// [`Degradation::CheckpointRolledBack`] — and is otherwise the
    /// original typed error. Never a silent fresh run.
    pub fn resume(&self, dataset: &Dataset) -> Result<SupervisedRun, PipelineError> {
        if dataset.posts.is_empty() {
            return Err(PipelineError::EmptyDataset);
        }
        let mut report = SupervisionReport::default();
        let (ckpt, sections) = match &self.checkpoint_path {
            Some(path) if self.medium.exists(path) => {
                let _load = self.pipeline.metrics().span("pipeline/checkpoint_load");
                match load_validated(&*self.medium, path, dataset, self.pipeline.config()) {
                    Ok(loaded) => loaded,
                    Err(PipelineError::CheckpointCorrupt(detail)) => {
                        self.roll_back(dataset, path, detail, &mut report)?
                    }
                    Err(e) => return Err(e),
                }
            }
            _ => (
                Checkpoint::fresh(dataset, self.pipeline.config().clone()),
                Sections::default(),
            ),
        };
        self.drive(dataset, ckpt, sections, report)
    }

    /// Attempt rollback to the previous checkpoint generation.
    fn roll_back(
        &self,
        dataset: &Dataset,
        path: &Path,
        detail: String,
        report: &mut SupervisionReport,
    ) -> Result<(Checkpoint, Sections), PipelineError> {
        let prev = prev_checkpoint_path(path);
        if !self.medium.exists(&prev) {
            return Err(PipelineError::CheckpointCorrupt(format!(
                "{detail} (no previous generation to roll back to)"
            )));
        }
        let (mut ckpt, sections) =
            match load_validated(&*self.medium, &prev, dataset, self.pipeline.config()) {
                Ok(loaded) => loaded,
                // The current generation's defect is the primary error;
                // the unusable prev only annotates it.
                Err(e) => {
                    return Err(PipelineError::CheckpointCorrupt(format!(
                        "{detail} (previous generation unusable too: {e})"
                    )))
                }
            };
        let metrics = self.pipeline.metrics();
        metrics.inc("checkpoint.rollbacks");
        report.rolled_back = true;
        ckpt.state
            .degradations
            .push(Degradation::CheckpointRolledBack { reason: detail });
        Ok((ckpt, sections))
    }

    /// Run the stages the checkpoint has not yet completed, each under
    /// the retry/containment policy. `sections` holds the encoded
    /// sections of the stages `ckpt` has already completed (as far as
    /// they are known), which every persist copies.
    fn drive(
        &self,
        dataset: &Dataset,
        mut ckpt: Checkpoint,
        mut sections: Sections,
        mut report: SupervisionReport,
    ) -> Result<SupervisedRun, PipelineError> {
        let metrics = self.pipeline.metrics().clone();
        let run_span = metrics.span("pipeline");
        for (idx, stage) in StageId::ALL.into_iter().enumerate() {
            let is_last = idx + 1 == StageId::ALL.len();
            if ckpt.completed.contains(&stage) {
                continue;
            }
            // Attempts are 0-based, so after the loop `attempt` is also
            // the number of retries the stage needed.
            let mut attempt: u32 = 0;
            loop {
                let span = run_span.child(stage.name());
                let degradations_before = ckpt.state.degradations.len();
                let quarantined_before = ckpt.state.quarantined.len();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    self.pipeline
                        .run_stage(stage, attempt, dataset, &mut ckpt.state)
                }));
                let error = match outcome {
                    Ok(Ok(())) => {
                        let elapsed = span.finish();
                        for d in &ckpt.state.degradations[degradations_before..] {
                            metrics.inc(&format!("degradation.{}", d.slug()));
                        }
                        record_throughput(&metrics, stage, elapsed);
                        break;
                    }
                    Ok(Err(e)) => e,
                    Err(payload) => {
                        metrics.inc("supervise.panics_contained");
                        report.panics_contained += 1;
                        PipelineError::StagePanicked {
                            stage,
                            detail: panic_text(payload),
                        }
                    }
                };
                span.finish();
                // A failed attempt may have half-filled the state;
                // roll its writes back so retries start clean.
                reset_stage(
                    stage,
                    &mut ckpt.state,
                    degradations_before,
                    quarantined_before,
                );
                if !retryable(&error) || attempt + 1 >= self.policy.attempts {
                    return Err(error);
                }
                metrics.inc("supervise.retries");
                metrics.inc(&format!("supervise.retries.{stage}"));
                attempt += 1;
            }
            if attempt > 0 {
                report.retries.push(StageRetries {
                    stage,
                    retries: attempt,
                });
            }
            ckpt.completed.push(stage);
            self.flush_quarantine(&ckpt.state, &metrics, &mut report)?;
            self.save(&ckpt, &mut sections, &run_span, &mut report)?;
            metrics.gauge("checkpoint.generation", ckpt.completed.len() as f64);
            if self.halt_after == Some(stage) && !is_last {
                return Ok(SupervisedRun {
                    outcome: RunnerOutcome::Halted { after: stage },
                    report,
                });
            }
        }
        run_span.finish();
        report.quarantined_items = ckpt.state.quarantined.len();
        ckpt.state.into_output().map(|out| SupervisedRun {
            outcome: RunnerOutcome::Complete(Box::new(out)),
            report,
        })
    }

    /// Persist the accumulated quarantine to the dead-letter file.
    fn flush_quarantine(
        &self,
        state: &StageState,
        metrics: &meme_metrics::Metrics,
        report: &mut SupervisionReport,
    ) -> Result<(), PipelineError> {
        report.quarantined_items = state.quarantined.len();
        metrics.gauge(
            "supervise.quarantined_items",
            state.quarantined.len() as f64,
        );
        let Some(path) = &self.quarantine_path else {
            return Ok(());
        };
        if state.quarantined.is_empty() {
            return Ok(());
        }
        write_quarantine(path, &state.quarantined)
            .map_err(|e| PipelineError::QuarantineIo(e.to_string()))
    }

    /// Persist the checkpoint, retrying failures under the policy. The
    /// stage that just finished is encoded once; every other section is
    /// copied from `sections`.
    fn save(
        &self,
        ckpt: &Checkpoint,
        sections: &mut Sections,
        run_span: &meme_metrics::Span,
        report: &mut SupervisionReport,
    ) -> Result<(), PipelineError> {
        let Some(path) = &self.checkpoint_path else {
            return Ok(());
        };
        let metrics = self.pipeline.metrics();
        let _persist = run_span.child("persist");
        let bytes = sections.encode(ckpt);
        let mut attempt: u32 = 0;
        loop {
            match persist_checkpoint(&*self.medium, path, bytes) {
                Ok(()) => {
                    metrics.inc("checkpoint.writes");
                    metrics.add("checkpoint.bytes_written", bytes.len() as u64);
                    report.checkpoint_writes += 1;
                    return Ok(());
                }
                Err(e) => {
                    if attempt + 1 >= self.policy.attempts {
                        return Err(e);
                    }
                    metrics.inc("checkpoint.write_retries");
                    report.checkpoint_write_retries += 1;
                    attempt += 1;
                }
            }
        }
    }
}

/// Undo a failed attempt's partial writes.
///
/// Each [`StageState`] field is filled by exactly one stage and the
/// degradation/quarantine ledgers are append-only, so clearing the
/// stage's own fields and truncating the ledgers to their pre-attempt
/// lengths restores the state exactly — without the supervisor having
/// to clone the (potentially large) accumulated state on every attempt.
fn reset_stage(stage: StageId, state: &mut StageState, degradations: usize, quarantined: usize) {
    state.degradations.truncate(degradations);
    state.quarantined.truncate(quarantined);
    match stage {
        StageId::Hash => state.post_hashes = None,
        StageId::Cluster => {
            state.fringe_posts = None;
            state.clustering = None;
            state.medoid_hashes = None;
            state.medoid_posts = None;
        }
        StageId::Site => {
            state.site = None;
            state.entry_meme_ids = None;
            state.screenshot_metrics = None;
        }
        StageId::Annotate => state.annotations = None,
        StageId::Associate => state.occurrences = None,
    }
}

/// Whether the supervisor should retry after this error.
fn retryable(e: &PipelineError) -> bool {
    match e {
        PipelineError::StagePanicked { .. } => true,
        PipelineError::Stage { source, .. } => {
            matches!(source, StageError::Transient { .. } | StageError::Io(_))
        }
        _ => false,
    }
}

/// Render a panic payload (`&str` and `String` payloads carry the
/// message; anything else is labelled opaquely).
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::decode_checkpoint;
    use crate::pipeline::PipelineConfig;
    use meme_simweb::SimConfig;
    use std::fs;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "memes-runner-test-{}-{name}.json",
            std::process::id()
        ));
        p
    }

    #[test]
    fn panic_text_renders_common_payloads() {
        assert_eq!(panic_text(Box::new("boom")), "boom");
        assert_eq!(panic_text(Box::new("boom".to_string())), "boom");
        assert_eq!(panic_text(Box::new(17u32)), "non-string panic payload");
    }

    #[test]
    fn retryable_covers_the_taxonomy() {
        assert!(retryable(&PipelineError::StagePanicked {
            stage: StageId::Hash,
            detail: String::new(),
        }));
        assert!(retryable(&PipelineError::Stage {
            stage: StageId::Hash,
            cluster: None,
            source: StageError::Transient {
                detail: String::new(),
            },
        }));
        assert!(retryable(&PipelineError::Stage {
            stage: StageId::Site,
            cluster: None,
            source: StageError::Io(String::new()),
        }));
        assert!(!retryable(&PipelineError::EmptyDataset));
        assert!(!retryable(&PipelineError::CheckpointCorrupt(String::new())));
    }

    #[test]
    fn reset_stage_undoes_only_the_failed_stages_writes() {
        let mut state = StageState {
            post_hashes: Some(Vec::new()),
            ..StageState::default()
        };
        let degradations = state.degradations.len();
        let quarantined = state.quarantined.len();

        // A half-finished Cluster attempt: partial fields plus a ledger
        // entry that must not survive the rollback.
        state.fringe_posts = Some(vec![1, 2]);
        state.medoid_posts = Some(vec![1]);
        state.degradations.push(Degradation::CheckpointRolledBack {
            reason: "attempt residue".to_string(),
        });
        reset_stage(StageId::Cluster, &mut state, degradations, quarantined);

        assert!(state.fringe_posts.is_none());
        assert!(state.clustering.is_none());
        assert!(state.medoid_hashes.is_none());
        assert!(state.medoid_posts.is_none());
        assert!(state.degradations.is_empty());
        assert!(state.quarantined.is_empty());
        assert!(
            state.post_hashes.is_some(),
            "completed earlier stages must be untouched"
        );
    }

    #[test]
    fn halt_then_resume_equals_uninterrupted() {
        let dataset = SimConfig::tiny(24).generate();
        let pipeline = Pipeline::new(PipelineConfig::fast());
        let whole = SupervisedRunner::new(pipeline.clone())
            .run(&dataset)
            .unwrap()
            .expect_complete();
        for stage in StageId::ALL {
            let path = tmp_path(&format!("halt-{stage}"));
            let _ = fs::remove_file(&path);
            let _ = fs::remove_file(prev_checkpoint_path(&path));
            let runner = SupervisedRunner::new(pipeline.clone())
                .with_checkpoint(&path)
                .halt_after(stage);
            let resumed = match runner.run(&dataset).unwrap().outcome {
                RunnerOutcome::Halted { after } => {
                    assert_eq!(after, stage);
                    let ckpt = decode_checkpoint(&fs::read(&path).unwrap()).unwrap();
                    assert!(ckpt.completed.contains(&stage));
                    assert!(!ckpt.is_complete());
                    SupervisedRunner::new(pipeline.clone())
                        .with_checkpoint(&path)
                        .resume(&dataset)
                        .unwrap()
                        .expect_complete()
                }
                // Halting after the final stage just completes.
                RunnerOutcome::Complete(out) => *out,
            };
            assert_eq!(whole.to_json(), resumed.to_json(), "stage {stage}");
            let _ = fs::remove_file(&path);
            let _ = fs::remove_file(prev_checkpoint_path(&path));
        }
    }

    #[test]
    fn resume_under_different_thread_count_is_byte_identical() {
        // A checkpoint written by a serial run and resumed on 8 threads
        // (or vice versa) must reproduce the uninterrupted serial
        // output byte for byte: stage outputs may never encode thread
        // chunking or HashMap iteration order. The config fingerprint
        // intentionally includes `threads`, so the resuming runner gets
        // a same-threads config and the cross-thread comparison is done
        // against a separately-computed reference.
        let dataset = SimConfig::tiny(27).generate();
        let reference = SupervisedRunner::new(Pipeline::new(PipelineConfig {
            threads: 1,
            ..PipelineConfig::fast()
        }))
        .run(&dataset)
        .unwrap()
        .expect_complete();
        for threads in [1usize, 8] {
            let config = PipelineConfig {
                threads,
                ..PipelineConfig::fast()
            };
            let path = tmp_path(&format!("threads-{threads}"));
            let _ = fs::remove_file(&path);
            let _ = fs::remove_file(prev_checkpoint_path(&path));
            let halted = SupervisedRunner::new(Pipeline::new(config.clone()))
                .with_checkpoint(&path)
                .halt_after(StageId::Cluster)
                .run(&dataset)
                .unwrap();
            assert!(matches!(halted.outcome, RunnerOutcome::Halted { .. }));
            let resumed = SupervisedRunner::new(Pipeline::new(config))
                .with_checkpoint(&path)
                .resume(&dataset)
                .unwrap()
                .expect_complete();
            assert_eq!(
                reference.to_json(),
                resumed.to_json(),
                "run/resume with {threads} threads diverged from serial reference"
            );
            let _ = fs::remove_file(&path);
            let _ = fs::remove_file(prev_checkpoint_path(&path));
        }
    }

    #[test]
    fn checkpoint_rejects_other_dataset_and_config() {
        let dataset = SimConfig::tiny(25).generate();
        let other = SimConfig::tiny(26).generate();
        let pipeline = Pipeline::new(PipelineConfig::fast());
        let path = tmp_path("mismatch");
        let _ = fs::remove_file(&path);
        let outcome = SupervisedRunner::new(pipeline.clone())
            .with_checkpoint(&path)
            .halt_after(StageId::Hash)
            .run(&dataset)
            .unwrap();
        assert!(matches!(outcome.outcome, RunnerOutcome::Halted { .. }));

        let err = SupervisedRunner::new(pipeline.clone())
            .with_checkpoint(&path)
            .resume(&other)
            .unwrap_err();
        assert!(matches!(err, PipelineError::CheckpointMismatch(_)), "{err}");

        let mut changed = PipelineConfig::fast();
        changed.theta = 5;
        let err = SupervisedRunner::new(Pipeline::new(changed))
            .with_checkpoint(&path)
            .resume(&dataset)
            .unwrap_err();
        assert!(matches!(err, PipelineError::CheckpointMismatch(_)), "{err}");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(prev_checkpoint_path(&path));
    }

    #[test]
    fn empty_dataset_is_typed_error_for_run_and_resume() {
        // Regression: an empty dataset must surface as EmptyDataset from
        // both entry points (never a worker panic), with or without a
        // checkpoint path, at any thread count.
        let mut dataset = SimConfig::tiny(28).generate();
        dataset.posts.clear();
        for threads in [0usize, 1, 8] {
            let pipeline = Pipeline::new(PipelineConfig {
                threads,
                ..PipelineConfig::fast()
            });
            let runner = SupervisedRunner::new(pipeline.clone());
            assert!(matches!(
                runner.run(&dataset),
                Err(PipelineError::EmptyDataset)
            ));
            let path = tmp_path(&format!("empty-{threads}"));
            let _ = fs::remove_file(&path);
            let runner = SupervisedRunner::new(pipeline).with_checkpoint(&path);
            assert!(matches!(
                runner.resume(&dataset),
                Err(PipelineError::EmptyDataset)
            ));
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_error() {
        let dataset = SimConfig::tiny(27).generate();
        let path = tmp_path("corrupt");
        fs::write(&path, "{ not json").unwrap();
        let err = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
            .with_checkpoint(&path)
            .resume(&dataset)
            .unwrap_err();
        assert!(matches!(err, PipelineError::CheckpointCorrupt(_)), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_checkpoint_resume_is_torn_corrupt_never_a_fresh_run() {
        // Regression: resume on a torn checkpoint must return
        // CheckpointCorrupt with the torn classification — not a serde
        // panic, and *not* a silent fresh run. Halting after the first
        // stage leaves a single generation, so no `.prev` can rescue it.
        let dataset = SimConfig::tiny(24).generate();
        let pipeline = Pipeline::new(PipelineConfig::fast());
        let path = tmp_path("torn-resume");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(prev_checkpoint_path(&path));
        let outcome = SupervisedRunner::new(pipeline.clone())
            .with_checkpoint(&path)
            .halt_after(StageId::ALL[0])
            .run(&dataset)
            .unwrap();
        assert!(matches!(outcome.outcome, RunnerOutcome::Halted { .. }));
        assert!(!prev_checkpoint_path(&path).exists());
        let bytes = fs::read(&path).unwrap();
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        for cut in [1, header_len - 2, header_len + 1, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            let err = SupervisedRunner::new(pipeline.clone())
                .with_checkpoint(&path)
                .resume(&dataset)
                .unwrap_err();
            match err {
                PipelineError::CheckpointCorrupt(detail) => assert!(
                    detail.contains("torn"),
                    "cut at {cut}: classification missing from {detail:?}"
                ),
                other => panic!("cut at {cut}: expected CheckpointCorrupt, got {other}"),
            }
        }
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(prev_checkpoint_path(&path));
    }

    /// Run until `stage` completes, leaving its checkpoint at `path`.
    fn halt_at(pipeline: &Pipeline, dataset: &Dataset, stage: StageId, path: &Path) {
        let _ = fs::remove_file(path);
        let _ = fs::remove_file(prev_checkpoint_path(path));
        let halted = SupervisedRunner::new(pipeline.clone())
            .with_checkpoint(path)
            .halt_after(stage)
            .run(dataset)
            .unwrap();
        assert!(matches!(halted.outcome, RunnerOutcome::Halted { after } if after == stage));
    }

    #[test]
    fn a_post_hash_resume_renders_nothing() {
        // The post-hash checkpoint holds every pHash the analysis needs,
        // so resuming it runs neither pixel stage: no gallery image and
        // no post image is rendered or hashed again.
        use meme_metrics::{Metrics, Registry};

        let dataset = SimConfig::tiny(24).generate();
        let pipeline = Pipeline::new(PipelineConfig::fast());
        let whole = SupervisedRunner::new(pipeline.clone())
            .run(&dataset)
            .unwrap()
            .expect_complete();
        let path = tmp_path("post-hash-resume");
        halt_at(&pipeline, &dataset, StageId::Hash, &path);
        let registry = Arc::new(Registry::new());
        let metrics = Metrics::from_registry(Arc::clone(&registry));
        let resumed = SupervisedRunner::new(pipeline.with_metrics(metrics.clone()))
            .with_checkpoint(&path)
            .resume(&dataset)
            .unwrap()
            .expect_complete();
        let spans = registry.snapshot().spans;
        assert!(spans.contains_key("pipeline/cluster"), "{spans:?}");
        for span in ["pipeline/site", "pipeline/hash"] {
            assert!(!spans.contains_key(span), "resume ran `{span}`");
        }
        assert_eq!(metrics.counter("site.gallery_images_kept"), 0);
        assert_eq!(metrics.counter("hash.images"), 0);
        assert_eq!(whole.to_json(), resumed.to_json());
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(prev_checkpoint_path(&path));
    }

    #[test]
    fn checkpoints_in_the_hash_first_layout_still_resume() {
        // Before `site` ran first, the stage order was hash, cluster,
        // site, annotate, associate: a checkpoint from then lists `hash`
        // (and maybe `cluster`) as done and carries no site. Resuming
        // one must run `site` and reproduce a fresh run byte for byte.
        // Checkpoints record stages by name, so the variant order of
        // `StageId` plays no part.
        use meme_metrics::{Metrics, Registry};

        let dataset = SimConfig::tiny(24).generate();
        let pipeline = Pipeline::new(PipelineConfig::fast());
        let fresh = SupervisedRunner::new(pipeline.clone())
            .run(&dataset)
            .unwrap()
            .expect_complete();
        for (halt, completed) in [
            (StageId::Hash, vec![StageId::Hash]),
            (StageId::Cluster, vec![StageId::Hash, StageId::Cluster]),
        ] {
            let path = tmp_path(&format!("hash-first-{halt}"));
            halt_at(&pipeline, &dataset, halt, &path);
            let _ = fs::remove_file(prev_checkpoint_path(&path));
            let mut old = decode_checkpoint(&fs::read(&path).unwrap()).unwrap();
            old.completed = completed.clone();
            old.state.site = None;
            old.state.entry_meme_ids = None;
            old.state.screenshot_metrics = None;
            fs::write(&path, crate::checkpoint::encode_checkpoint(&old)).unwrap();
            let registry = Arc::new(Registry::new());
            let metrics = Metrics::from_registry(Arc::clone(&registry));
            let resumed = SupervisedRunner::new(pipeline.clone().with_metrics(metrics.clone()))
                .with_checkpoint(&path)
                .resume(&dataset)
                .unwrap()
                .expect_complete();
            let spans = registry.snapshot().spans;
            assert!(
                spans.contains_key("pipeline/site"),
                "{completed:?}: {spans:?}"
            );
            assert!(!spans.contains_key("pipeline/hash"), "{completed:?}");
            assert!(metrics.counter("site.gallery_images_kept") > 0);
            assert_eq!(fresh.to_json(), resumed.to_json(), "{completed:?}");
            let _ = fs::remove_file(&path);
            let _ = fs::remove_file(prev_checkpoint_path(&path));
        }
    }
}
