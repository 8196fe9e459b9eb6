//! Execution-fault chaos suite (DESIGN.md §11).
//!
//! The data-fault suite (`tests/chaos.rs`) corrupts the *corpus*; this
//! suite corrupts the *execution*: stages panic, stages and items fail
//! transiently, items are poison, checkpoint writes fail or tear. The
//! supervised runner must hold one line for every injection:
//!
//! * retryable faults retry to success, and the recovered output is
//!   **byte-identical** to an uninterrupted clean run;
//! * poison items are quarantined with typed reasons, recorded as a
//!   degradation, and deterministic across identical runs;
//! * persistent faults surface as **typed errors** — never a panic,
//!   never an abort, never silent corruption;
//! * a torn final checkpoint rolls back to the previous generation on
//!   resume and still converges to the clean output; `fsck` calls the
//!   torn `MEMES-CKPT v3` file torn, its `.prev` and the repaired file
//!   clean.
//!
//! The last test holds the first line through the `memes` binary.

use origins_of_memes::core::checkpoint::{fsck_bytes, prev_checkpoint_path, FsckClass, StageId};
use origins_of_memes::core::pipeline::{
    Degradation, Pipeline, PipelineConfig, PipelineError, PipelineOutput, StageError,
};
use origins_of_memes::core::quarantine::{read_quarantine, QuarantineReason};
use origins_of_memes::core::supervise::{FaultyMedium, StagePolicy, SupervisedRunner};
use origins_of_memes::metrics::{Metrics, Registry};
use origins_of_memes::simweb::{Dataset, ExecFaultSpec, SimConfig};
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 31;

fn dataset() -> Dataset {
    SimConfig::tiny(SEED).generate()
}

fn supervised(faults: ExecFaultSpec) -> SupervisedRunner {
    SupervisedRunner::new(Pipeline::new(PipelineConfig::fast())).with_exec_faults(faults)
}

/// The reference output of a fault-free run; supervision of a healthy
/// run must be invisible.
fn clean_output(dataset: &Dataset) -> PipelineOutput {
    let run = supervised(ExecFaultSpec::default())
        .run(dataset)
        .expect("clean pipeline completes");
    assert_eq!(run.report.total_retries(), 0);
    assert_eq!(run.report.panics_contained, 0);
    assert_eq!(run.report.quarantined_items, 0);
    run.expect_complete()
}

/// Byte-level equality modulo the degradation ledger (rollback and
/// quarantine are *supposed* to appear there).
fn json_sans_degradations(output: &PipelineOutput) -> String {
    let mut stripped = output.clone();
    stripped.degradations.clear();
    stripped.to_json()
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("memes-chaos-exec-{}-{name}", std::process::id()));
    p
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(prev_checkpoint_path(path));
}

#[test]
fn transient_stage_faults_retry_to_byte_identical_output() {
    let data = dataset();
    let run = supervised(ExecFaultSpec::transient_stage(SEED, "*", 2))
        .run(&data)
        .expect("two transient failures fit a 3-attempt budget");
    assert_eq!(run.report.total_retries(), 2 * StageId::ALL.len() as u32);
    assert_eq!(run.report.panics_contained, 0);
    let out = run.expect_complete();
    assert_eq!(
        out.to_json(),
        clean_output(&data).to_json(),
        "retried output must be byte-identical to a clean run"
    );
}

#[test]
fn panics_are_contained_and_retried_in_every_stage() {
    let data = dataset();
    let run = supervised(ExecFaultSpec::panic_once_everywhere(SEED))
        .run(&data)
        .expect("one panic per stage fits the retry budget");
    assert_eq!(
        run.report.panics_contained,
        StageId::ALL.len() as u32,
        "every stage should have panicked exactly once"
    );
    let out = run.expect_complete();
    assert_eq!(
        out.to_json(),
        clean_output(&data).to_json(),
        "post-panic retry must converge to the clean output"
    );
}

#[test]
fn persistent_panic_is_a_typed_error_never_an_abort() {
    let data = dataset();
    let err = supervised(ExecFaultSpec::persistent_panic(SEED, "cluster"))
        .run(&data)
        .expect_err("a panic on every attempt must exhaust the budget");
    match err {
        PipelineError::StagePanicked { stage, detail } => {
            assert_eq!(stage, StageId::Cluster);
            assert!(
                detail.contains("injected"),
                "panic payload should be preserved: {detail}"
            );
        }
        other => panic!("expected StagePanicked, got: {other}"),
    }
}

#[test]
fn exhausted_transient_stage_is_a_typed_error() {
    let data = dataset();
    let err = supervised(ExecFaultSpec::transient_stage(SEED, "hash", 99))
        .with_policy(StagePolicy { attempts: 2 })
        .run(&data)
        .expect_err("99 failures cannot fit a 2-attempt budget");
    assert!(
        matches!(
            err,
            PipelineError::Stage {
                stage: StageId::Hash,
                ..
            }
        ),
        "expected a typed stage error, got: {err}"
    );
}

#[test]
fn flaky_items_are_retried_to_byte_identical_output() {
    let data = dataset();
    let run = supervised(ExecFaultSpec::flaky_items(SEED, "hash", 0.1))
        .run(&data)
        .expect("single-attempt item flake fits the budget");
    assert!(
        run.report.total_retries() >= 1,
        "flaky items must force at least one stage retry"
    );
    assert_eq!(run.report.quarantined_items, 0);
    let out = run.expect_complete();
    assert_eq!(
        out.to_json(),
        clean_output(&data).to_json(),
        "items that recover on retry must leave no trace in the output"
    );
}

#[test]
fn poison_items_are_quarantined_with_typed_reasons() {
    let data = dataset();
    let qpath = tmp_path("poison.jsonl");
    let run = supervised(ExecFaultSpec::poison_items(SEED, "hash", 0.05))
        .with_quarantine(&qpath)
        .run(&data)
        .expect("poison items must not sink the run");
    assert!(
        run.report.quarantined_items > 0,
        "a 5% poison fraction on a tiny corpus must hit something"
    );

    let entries = read_quarantine(&qpath).expect("quarantine file parses");
    assert_eq!(entries.len(), run.report.quarantined_items);
    for e in &entries {
        assert_eq!(e.stage, StageId::Hash);
        assert!(e.item < data.posts.len(), "entry must index a real post");
        let QuarantineReason::PoisonItem { attempts, .. } = &e.reason;
        assert!(*attempts >= 1);
    }

    let out = run.expect_complete();
    assert!(
        out.degradations
            .iter()
            .any(|d| matches!(d, Degradation::ItemsQuarantined { stage: StageId::Hash, items } if *items == entries.len())),
        "quarantine must be recorded as a degradation: {:?}",
        out.degradations
    );
    cleanup(&qpath);
}

#[test]
fn poison_quarantine_is_deterministic_across_runs() {
    let data = dataset();
    let spec = ExecFaultSpec::poison_items(SEED, "associate", 0.05);
    let a = supervised(spec.clone()).run(&data).expect("first run");
    let b = supervised(spec).run(&data).expect("second run");
    assert_eq!(a.report.quarantined_items, b.report.quarantined_items);
    let (a, b) = (a.expect_complete(), b.expect_complete());
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "identical fault schedules must produce identical outputs"
    );
    assert!(a.degradations.iter().any(|d| matches!(
        d,
        Degradation::ItemsQuarantined {
            stage: StageId::Associate,
            ..
        }
    )));
}

#[test]
fn checkpoint_write_blackout_is_retried_through() {
    let data = dataset();
    let ckpt = tmp_path("blackout.ckpt");
    cleanup(&ckpt);
    let spec = ExecFaultSpec::write_blackout(SEED, 2);
    let run = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .with_checkpoint(&ckpt)
        .with_medium(Arc::new(FaultyMedium::new(spec)))
        .run(&data)
        .expect("two failed writes fit a 3-attempt save budget");
    assert_eq!(run.report.checkpoint_write_retries, 2);
    assert_eq!(run.report.checkpoint_writes, StageId::ALL.len() as u32);
    let out = run.expect_complete();
    assert_eq!(out.to_json(), clean_output(&data).to_json());
    cleanup(&ckpt);
}

#[test]
fn persistent_write_blackout_is_a_typed_error() {
    let data = dataset();
    let ckpt = tmp_path("blackout-persistent.ckpt");
    cleanup(&ckpt);
    let spec = ExecFaultSpec::write_blackout(SEED, usize::MAX);
    let err = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .with_checkpoint(&ckpt)
        .with_medium(Arc::new(FaultyMedium::new(spec)))
        .run(&data)
        .expect_err("a medium that never writes must fail typed");
    assert!(
        matches!(err, PipelineError::CheckpointIo(_)),
        "expected CheckpointIo, got: {err}"
    );
    cleanup(&ckpt);
}

#[test]
fn torn_final_write_rolls_back_and_resumes_byte_identical() {
    let data = dataset();
    let ckpt = tmp_path("torn-final.ckpt");
    cleanup(&ckpt);
    // One checkpoint temp-write per stage; tear the last (index 4). The
    // torn write *reports success* (the lying-fsync crash), so the run
    // itself completes — the damage is only discovered on resume.
    let spec = ExecFaultSpec::torn_write(SEED, StageId::ALL.len() - 1, 0.5);
    let first = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .with_checkpoint(&ckpt)
        .with_medium(Arc::new(FaultyMedium::new(spec)))
        .run(&data)
        .expect("a torn write is silent at write time");
    let clean = clean_output(&data);
    assert_eq!(first.expect_complete().to_json(), clean.to_json());
    assert!(
        prev_checkpoint_path(&ckpt).exists(),
        "the previous generation must survive the torn final write"
    );
    // Both generations are v3 files: the torn one is classified torn,
    // the intact `.prev` (four stage sections) clean.
    let v3 = |path: &PathBuf| {
        let bytes = std::fs::read(path).expect("generation on disk");
        assert!(bytes.starts_with(b"MEMES-CKPT v3\n"), "{}", path.display());
        fsck_bytes(&bytes, None)
    };
    assert_eq!(v3(&ckpt).class, FsckClass::Torn);
    let prev = v3(&prev_checkpoint_path(&ckpt));
    assert_eq!(prev.class, FsckClass::Clean, "{}", prev.detail);
    assert_eq!(prev.completed.len(), StageId::ALL.len() - 1);

    // Resume on a healthy disk: the torn current generation must roll
    // back to `.prev` (4 of 5 stages), re-run the rest, and converge.
    let resumed = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .with_checkpoint(&ckpt)
        .resume(&data)
        .expect("rollback must rescue the torn checkpoint");
    assert!(resumed.report.rolled_back, "rollback must be reported");
    let out = resumed.expect_complete();
    assert!(
        out.degradations
            .iter()
            .any(|d| matches!(d, Degradation::CheckpointRolledBack { .. })),
        "rollback must be recorded as a degradation: {:?}",
        out.degradations
    );
    assert_eq!(
        json_sans_degradations(&out),
        json_sans_degradations(&clean),
        "the rolled-back resume must converge to the clean output"
    );
    // The resume re-ran the lost stage and wrote a whole v3 file again.
    let repaired = v3(&ckpt);
    assert_eq!(repaired.class, FsckClass::Clean, "{}", repaired.detail);
    assert_eq!(repaired.completed.len(), StageId::ALL.len());
    cleanup(&ckpt);
}

#[test]
fn torn_checkpoint_without_previous_generation_is_typed_corrupt() {
    let data = dataset();
    let ckpt = tmp_path("torn-no-prev.ckpt");
    cleanup(&ckpt);
    let complete = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .with_checkpoint(&ckpt)
        .run(&data)
        .expect("clean supervised run");
    drop(complete);
    // Tear the only generation by hand and remove the rollback target.
    let bytes = std::fs::read(&ckpt).expect("checkpoint written");
    std::fs::write(&ckpt, &bytes[..bytes.len() / 3]).expect("truncate");
    let _ = std::fs::remove_file(prev_checkpoint_path(&ckpt));

    let err = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .with_checkpoint(&ckpt)
        .resume(&data)
        .expect_err("no generation left to roll back to");
    match err {
        PipelineError::CheckpointCorrupt(detail) => {
            assert!(detail.contains("torn"), "must classify torn: {detail}");
            assert!(
                detail.contains("no previous generation"),
                "must explain the failed rollback: {detail}"
            );
        }
        other => panic!("expected CheckpointCorrupt, got: {other}"),
    }
    cleanup(&ckpt);
}

#[test]
fn item_faults_are_identical_across_thread_counts() {
    // The hash and associate workers run one loop whether or not a
    // fault schedule is active; its per-item verdicts are positional, so
    // the thread count may change neither what is quarantined, nor how
    // often a stage is retried, nor a byte of the output.
    let data = dataset();
    for stage in ["hash", "associate"] {
        for spec in [
            ExecFaultSpec::poison_items(SEED, stage, 0.05),
            ExecFaultSpec::flaky_items(SEED, stage, 0.1),
        ] {
            let run_with = |threads: usize| {
                let qpath = tmp_path(&format!("threads-{stage}-{threads}.jsonl"));
                cleanup(&qpath);
                let config = PipelineConfig {
                    threads,
                    ..PipelineConfig::fast()
                };
                let run = SupervisedRunner::new(Pipeline::new(config))
                    .with_exec_faults(spec.clone())
                    .with_quarantine(&qpath)
                    .run(&data)
                    .expect("item faults fit the default budget");
                let entries = if qpath.exists() {
                    read_quarantine(&qpath).expect("quarantine file parses")
                } else {
                    Vec::new()
                };
                cleanup(&qpath);
                let retries = run.report.retries.clone();
                (run.expect_complete().to_json(), entries, retries)
            };
            let reference = run_with(1);
            assert!(
                !reference.1.is_empty() || !reference.2.is_empty(),
                "{stage}: the schedule must hit something"
            );
            for threads in [2usize, 8] {
                let got = run_with(threads);
                assert_eq!(reference.0, got.0, "{stage}: output at {threads} threads");
                assert_eq!(
                    reference.1, got.1,
                    "{stage}: quarantine at {threads} threads"
                );
                assert_eq!(reference.2, got.2, "{stage}: retries at {threads} threads");
            }
        }
    }
}

#[test]
fn one_attempt_policy_returns_the_first_transient_error_unretried() {
    // `attempts: 1` is the bare run: a fault that a single retry
    // would absorb comes straight back, and nothing is retried.
    let data = dataset();
    let registry = Arc::new(Registry::new());
    let err = supervised(ExecFaultSpec::transient_stage(SEED, "cluster", 1))
        .with_metrics(Metrics::from_registry(Arc::clone(&registry)))
        .with_policy(StagePolicy { attempts: 1 })
        .run(&data)
        .expect_err("one attempt cannot absorb one failure");
    match err {
        PipelineError::Stage {
            stage: StageId::Cluster,
            source: StageError::Transient { detail },
            ..
        } => assert!(
            detail.contains("attempt 0"),
            "not the first error: {detail}"
        ),
        other => panic!("expected the transient cluster error, got: {other}"),
    }
    let snap = registry.snapshot();
    assert!(!snap.counters.contains_key("supervise.retries"));
    assert_eq!(snap.spans["pipeline/cluster"].calls, 1);
}

#[test]
fn cli_stage_flake_retries_each_stage_once_to_byte_identical_output() {
    // The same contract through the `memes` binary: `--chaos stage-flake`
    // fails every stage once, `print_supervision` names each retry on
    // stderr, and the artifact equals a fault-free run's byte for byte.
    let memes = |out: &PathBuf, chaos: &[&str]| {
        let mut args = vec!["run", "--scale", "tiny", "--seed", "7", "--out"];
        args.push(out.to_str().expect("utf-8 temp path"));
        args.extend_from_slice(chaos);
        std::process::Command::new(env!("CARGO_BIN_EXE_memes"))
            .args(&args)
            .output()
            .expect("spawn memes")
    };
    let (flaky_path, clean_path) = (tmp_path("cli-flake.json"), tmp_path("cli-clean.json"));
    let flaky = memes(&flaky_path, &["--chaos", "stage-flake"]);
    let clean = memes(&clean_path, &[]);
    let stderr = String::from_utf8_lossy(&flaky.stderr);
    assert_eq!(flaky.status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(clean.status.code(), Some(0));
    for stage in StageId::ALL {
        let line = format!("supervised: stage `{stage}` retried 1x");
        let hits = stderr.lines().filter(|l| *l == line).count();
        assert_eq!(hits, 1, "`{line}` in stderr: {stderr}");
    }
    let (a, b) = (std::fs::read(&flaky_path), std::fs::read(&clean_path));
    let _ = std::fs::remove_file(&flaky_path);
    let _ = std::fs::remove_file(&clean_path);
    assert!(
        a.expect("flaky artifact") == b.expect("clean artifact"),
        "retried artifact differs from the clean run's"
    );
}
