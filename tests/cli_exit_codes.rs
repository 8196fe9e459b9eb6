//! The `memes` binary follows the workspace exit-code convention shared
//! with `memes-lint`: `0` clean, `1` violations (the validated artifact
//! failed its check), `2` operational failure (unreadable files, bad
//! usage). These tests pin the `validate-metrics` subcommand to it.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn memes(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_memes"))
        .args(args)
        .output()
        .expect("spawn memes")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("memes terminated by signal")
}

fn tmp_file(tag: &str, content: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("memes-cli-{tag}-{}.json", std::process::id()));
    fs::write(&path, content).expect("write temp metrics file");
    path
}

#[test]
fn validate_metrics_accepts_a_real_registry_export() {
    // An empty registry is the smallest schema-valid export; the file a
    // real run's `--metrics-out` writes is the largest one there is.
    let registry = origins_of_memes::metrics::Registry::new();
    let empty = tmp_file("valid", &registry.to_json());
    let from_run = tmp_file("run-metrics", "");
    let run = memes(&[
        "run",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--metrics-out",
        from_run.to_str().unwrap(),
    ]);
    assert_eq!(
        exit_code(&run),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    for path in [empty, from_run] {
        let out = memes(&["validate-metrics", path.to_str().unwrap()]);
        let _ = fs::remove_file(&path);
        assert_eq!(
            exit_code(&out),
            0,
            "{}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn invalid_metrics_content_exits_one() {
    let path = tmp_file("invalid", "{\"schema_version\": 9999}");
    let out = memes(&["validate-metrics", path.to_str().unwrap()]);
    let _ = fs::remove_file(&path);
    assert_eq!(
        exit_code(&out),
        1,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn unreadable_metrics_file_exits_two() {
    let missing = std::env::temp_dir().join(format!(
        "memes-cli-no-such-file-{}.json",
        std::process::id()
    ));
    let out = memes(&["validate-metrics", missing.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2);
}

#[test]
fn bad_usage_exits_two() {
    assert_eq!(exit_code(&memes(&[])), 2, "no subcommand");
    assert_eq!(exit_code(&memes(&["validate-metrics"])), 2, "missing FILE");
    assert_eq!(
        exit_code(&memes(&["no-such-command"])),
        2,
        "unknown command"
    );
    assert_eq!(
        exit_code(&memes(&["run", "--no-such-flag"])),
        2,
        "unknown flag"
    );
    assert_eq!(exit_code(&memes(&["fsck"])), 2, "fsck without CKPT");
    assert_eq!(
        exit_code(&memes(&["quarantine"])),
        2,
        "quarantine without subaction"
    );
    assert_eq!(
        exit_code(&memes(&["quarantine", "frobnicate", "x.jsonl"])),
        2,
        "unknown quarantine subaction"
    );
    assert_eq!(
        exit_code(&memes(&["run", "--chaos", "no-such-preset"])),
        2,
        "unknown chaos preset"
    );
    // Every command takes a fixed number of positional arguments; a
    // stray one is bad usage, reported before any dataset is generated.
    // So is a subcommand `memes repro` replaced.
    let bad: [&[&str]; 11] = [
        &["run", "--scale", "tiny", "7"],
        &["simulate", "--scale", "tiny", "extra"],
        &[
            "resume",
            "--scale",
            "tiny",
            "--checkpoint",
            "c.ckpt",
            "extra",
        ],
        &["serve", "--artifact", "a.json", "extra"],
        &["fsck", "a.ckpt", "b.ckpt"],
        &["lookup", "0", "1", "--addr", "127.0.0.1:1"],
        &["repro", "table1", "extra", "--scale", "tiny"],
        &["quarantine", "ls", "q.jsonl", "extra"],
        &["validate-metrics", "a.json", "b.json"],
        &["influence", "--scale", "tiny"],
        &["graph", "--scale", "tiny"],
    ];
    for args in bad {
        let out = memes(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(exit_code(&out), 2, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(!stderr.contains("dataset:"), "{args:?} generated a dataset");
    }
}

#[test]
fn fsck_missing_file_exits_two_and_garbage_exits_one() {
    let missing = std::env::temp_dir().join(format!(
        "memes-cli-fsck-missing-{}.ckpt",
        std::process::id()
    ));
    assert_eq!(exit_code(&memes(&["fsck", missing.to_str().unwrap()])), 2);

    let garbage = tmp_file("fsck-garbage", "this is not a checkpoint");
    let out = memes(&["fsck", garbage.to_str().unwrap()]);
    let _ = fs::remove_file(&garbage);
    assert_eq!(
        exit_code(&out),
        1,
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("torn"),
        "garbage must be classified torn: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn quarantine_ls_follows_the_convention() {
    let missing = std::env::temp_dir().join(format!(
        "memes-cli-quarantine-missing-{}.jsonl",
        std::process::id()
    ));
    assert_eq!(
        exit_code(&memes(&["quarantine", "ls", missing.to_str().unwrap()])),
        2,
        "unreadable file is operational"
    );

    let malformed = tmp_file("quarantine-bad", "{ not json\n");
    let out = memes(&["quarantine", "ls", malformed.to_str().unwrap()]);
    let _ = fs::remove_file(&malformed);
    assert_eq!(exit_code(&out), 1, "malformed file is a violation");

    let entry = origins_of_memes::core::quarantine::QuarantineEntry {
        stage: origins_of_memes::core::checkpoint::StageId::Hash,
        item: 3,
        reason: origins_of_memes::core::quarantine::QuarantineReason::PoisonItem {
            attempts: 2,
            detail: "cli test".to_string(),
        },
    };
    let valid = tmp_file(
        "quarantine-ok",
        &origins_of_memes::core::quarantine::encode_jsonl(&[entry]),
    );
    let out = memes(&["quarantine", "ls", valid.to_str().unwrap()]);
    let _ = fs::remove_file(&valid);
    assert_eq!(
        exit_code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("poison item"),
        "listing must render the typed reason"
    );
}
