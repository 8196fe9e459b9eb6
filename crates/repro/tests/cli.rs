//! The `repro-*` binaries follow the workspace exit-code convention: a
//! flag they do not know, or a value they cannot parse, is an
//! operational error (exit 2, message on stderr, nothing on stdout)
//! reported *before* any dataset is generated — never a silent fall
//! back to the default experiment. And the experiment they do run is a
//! function of `--scale` and `--seed` alone.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

#[test]
fn bad_flags_exit_two_before_any_work() {
    let bins = [
        env!("CARGO_BIN_EXE_repro-fig10"),
        env!("CARGO_BIN_EXE_repro-table1"),
    ];
    let bad: [&[&str]; 4] = [
        &["--scale", "huge"],
        &["--seed", "abc"],
        &["--scale", "tiny", "--seed"],
        &["--bogus"],
    ];
    for bin in bins {
        for args in bad {
            let out = run(bin, args);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            assert!(out.stdout.is_empty(), "{bin} {args:?} printed a result");
            assert!(!out.stderr.is_empty(), "{bin} {args:?} gave no reason");
        }
    }
}

#[test]
fn same_scale_and_seed_print_the_same_table() {
    let bin = env!("CARGO_BIN_EXE_repro-table1");
    let args = ["--scale", "tiny", "--seed", "3"];
    let first = run(bin, &args);
    let second = run(bin, &args);
    assert_eq!(first.status.code(), Some(0));
    assert!(!first.stdout.is_empty());
    assert_eq!(first.stdout, second.stdout);
}
