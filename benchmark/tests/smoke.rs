//! Drives all four workloads and the traced path end to end at `--smoke`
//! size, through the built binary, the way the driver does.

use memes_benchmark::report::{ResultFile, RunReport, REPORT_PREFIX};
use memes_benchmark::spec::{self, Workload};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BINARY: &str = env!("CARGO_BIN_EXE_memes-benchmark");

fn out_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the test's out directory");
    dir
}

fn run(args: &[&str], out: &Path) -> Output {
    Command::new(BINARY)
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("run the benchmark binary")
}

fn keys(v: &Value) -> Vec<String> {
    v.as_object()
        .expect("a JSON object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
    let (_, value) = v
        .as_object()
        .expect("a JSON object")
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("no field `{name}`"));
    value
}

/// One workload at smoke size: the contract's last line, the report line,
/// and (traced) the trace file.
fn check_workload(workload: Workload, traced: bool, out: &Path) -> RunReport {
    let trace = if traced { "1" } else { "0" };
    let output = run(
        &[
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ],
        out,
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{} exited with {}: {}",
        workload.name(),
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );

    let last = stdout.lines().last().expect("some output");
    let doc: Value = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(field(&doc, "correct"), &Value::Bool(true));
    assert_eq!(field(&doc, "failed"), &Value::U64(0));
    assert!(matches!(field(&doc, "attempted"), Value::U64(n) if *n >= 1));
    let expected: Vec<(&str, &str)> = if traced {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = field(&doc, "metrics");
    assert_eq!(
        keys(metrics),
        expected
            .iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
    );
    for (name, unit) in &expected {
        let m = field(metrics, name);
        assert_eq!(keys(m), ["value", "unit"], "{name}");
        assert_eq!(field(m, "unit").as_str(), Some(*unit), "{name}");
        let value = match field(m, "value") {
            Value::F64(x) => *x,
            Value::U64(n) => *n as f64,
            other => panic!("{name}: value is {}", other.kind()),
        };
        assert!(value.is_finite(), "{name}");
        if !traced {
            assert!(value > 0.0, "end-to-end metric {name} must never be 0");
        }
    }

    let report: RunReport = stdout
        .lines()
        .find_map(|l| l.strip_prefix(REPORT_PREFIX))
        .map(|json| serde_json::from_str(json).expect("the report line parses"))
        .expect("a report line");
    assert_eq!(report.workload, workload.name());
    assert_eq!(report.seed, 3);
    assert!(report.correct && report.ops_failed == 0);
    assert!(!report.digests.is_empty());
    for m in spec::END_TO_END {
        assert!(report.end_to_end[m.name].n >= 1, "{}", m.name);
    }

    if traced {
        let path = out.join(format!("trace-{}.json", workload.name()));
        let trace: Value =
            serde_json::from_str(&std::fs::read_to_string(&path).expect("trace file"))
                .expect("trace JSON");
        assert_eq!(field(&trace, "workload").as_str(), Some(workload.name()));
        let spans = field(&trace, "spans").as_array().expect("span list");
        assert!(spans.len() > 10, "{} spans", spans.len());
        assert!(!keys(field(&trace, "totals")).is_empty());
    }
    assert!(
        std::fs::read_dir(out).expect("out directory").all(|e| !e
            .expect("entry")
            .file_name()
            .to_string_lossy()
            .starts_with("tmp-")),
        "temporary files left behind"
    );
    report
}

#[test]
fn every_workload_runs_untraced_and_traced() {
    let out = out_dir("smoke");
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        runs.push(check_workload(workload, false, &out));
        let traced = check_workload(workload, true, &out);
        let layer = |name: &str| traced.per_layer.get(name).copied().unwrap_or(0.0);
        assert!(layer("metrics.trace_overhead_ratio") > 0.0 && layer("metrics.inc_ns") > 0.0);
        // A workload probes the layers it executes and no others.
        let batch = matches!(workload, Workload::RunSparse | Workload::ReanalyzeDense);
        for name in ["phash.hash_us", "hawkes.estimate_s", "core.to_json_s"] {
            assert_eq!(traced.per_layer.contains_key(name), batch, "{name}");
        }
        for name in [
            "serve.lookup_hit_ns",
            "serve.query_span_us",
            "serve.reload_ms",
        ] {
            assert_eq!(traced.per_layer.contains_key(name), !batch, "{name}");
        }
        assert_eq!(
            traced.per_layer.len() + traced.not_measured().len(),
            spec::PER_LAYER.len()
        );
        match workload {
            Workload::RunSparse => {
                assert!(layer("core.stage_hash_s") > 0.0);
                assert!(layer("core.stage_coverage_ratio") > 0.9);
            }
            // Step 1 is bypassed: the checkpoint already holds the hashes.
            Workload::ReanalyzeDense => assert_eq!(traced.per_layer["core.stage_hash_s"], 0.0),
            Workload::ServeSteady => assert!(layer("serve.transport_us") > 0.0),
            Workload::ServeChurn => {
                assert!(traced.per_layer.contains_key("serve.session_overhead_us"));
                assert_eq!(layer("serve.shed") + layer("serve.timeouts"), 0.0);
            }
        }
        runs.push(traced);
    }

    // `compare` on a result file against itself: nothing is worse.
    let file = out.join("result.json");
    std::fs::write(&file, ResultFile { runs }.to_json()).expect("write result file");
    let same = run(
        &["compare", file.to_str().unwrap(), file.to_str().unwrap()],
        &out,
    );
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains("within bound"));
    std::fs::remove_dir_all(&out).expect("clean up");
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    let out = out_dir("usage");
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "run-sparse", "--trace", "2"],
        &["--seed", "x", "--workload", "run-sparse"],
        &["frobnicate"],
        &["compare", "only-one.json"],
        &["artifact"],
        &["all", "--only", "run-sparse"],
    ] {
        let output = run(args, &out);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
    std::fs::remove_dir_all(&out).expect("clean up");
}

#[test]
fn spec_subcommand_prints_benchmark_json() {
    let out = out_dir("spec");
    let output = run(&["spec"], &out);
    assert!(output.status.success());
    assert_eq!(
        String::from_utf8(output.stdout).unwrap(),
        spec::benchmark_json()
    );
    std::fs::remove_dir_all(&out).expect("clean up");
}
