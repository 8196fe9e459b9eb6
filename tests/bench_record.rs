//! `BENCH.json` at the repository root is the committed performance
//! trajectory: the `result.json` that `benchmark all` (seed 7) wrote on
//! the commit that carries it, with a `host` object (`nproc` and the CPU
//! model) ahead of its `runs`. Every performance change refreshes it in
//! its own diff, so the history of each number is the file's git log.
//!
//! It is a record, not a gate: no number in it is held to a bound here.
//! This test checks that the record is whole and belongs to this tree:
//! every workload that `BENCHMARK.json` declares has an untraced run on
//! seed 7 whose every end-to-end metric carries a median, its quartiles
//! and a sample count, and the output digests are the seed-7 digests
//! the pipeline's outputs are pinned to.
//!
//! To refresh it, run
//! `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- all`
//! and write `benchmark/out/result.json`'s object back out with
//! `"host": {"nproc": …, "cpu_model": …}` as its first key (the
//! `model name` line of `/proc/cpuinfo`). `benchmark compare` reads
//! `BENCH.json` as it is: the `host` key is ignored there.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::Path;

/// The seed-7 digests of the benchmark's outputs: one per workload, of
/// the run artifact (`output_json`) or of the served replies
/// (`replies`). A change that moves one on purpose re-pins it here.
const DIGESTS: [(&str, &str, &str); 4] = [
    ("run-sparse", "output_json", "a66277c56ed54fd1"),
    ("reanalyze-dense", "output_json", "570bd50d369c282e"),
    ("serve-steady", "replies", "4fdd4d9f1460bd08"),
    ("serve-churn", "replies", "4fdd4d9f1460bd08"),
];

#[derive(Deserialize)]
struct Contract {
    workloads: Vec<Named>,
    end_to_end: Vec<Named>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Record {
    host: Host,
    runs: Vec<Run>,
}

#[derive(Deserialize)]
struct Host {
    nproc: usize,
    cpu_model: String,
}

#[derive(Deserialize)]
struct Run {
    workload: String,
    seed: u64,
    traced: bool,
    nproc: usize,
    correct: bool,
    end_to_end: BTreeMap<String, Summary>,
    digests: BTreeMap<String, String>,
}

#[derive(Deserialize)]
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

fn read<T: Deserialize>(file: &str) -> T {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// The untraced run of `workload`, which carries its end-to-end metrics.
fn untraced<'a>(record: &'a Record, workload: &str) -> &'a Run {
    let mut runs = record
        .runs
        .iter()
        .filter(|r| r.workload == workload && !r.traced);
    let run = runs
        .next()
        .unwrap_or_else(|| panic!("BENCH.json has no untraced {workload} run"));
    assert!(
        runs.next().is_none(),
        "BENCH.json has two untraced {workload} runs"
    );
    run
}

#[test]
fn the_host_is_recorded() {
    let record: Record = read("BENCH.json");
    assert!(record.host.nproc >= 1);
    assert!(!record.host.cpu_model.trim().is_empty());
    for run in &record.runs {
        assert_eq!(
            run.nproc, record.host.nproc,
            "{} ran on another host",
            run.workload
        );
        assert_eq!(run.seed, 7, "{} is not the seed-7 run", run.workload);
        assert!(run.correct, "{} failed an output check", run.workload);
    }
}

#[test]
fn every_end_to_end_metric_carries_quartiles() {
    let contract: Contract = read("BENCHMARK.json");
    let record: Record = read("BENCH.json");
    for workload in &contract.workloads {
        let run = untraced(&record, &workload.name);
        for metric in &contract.end_to_end {
            let s = run
                .end_to_end
                .get(&metric.name)
                .unwrap_or_else(|| panic!("{}: no {} in BENCH.json", workload.name, metric.name));
            let what = format!("{} {}", workload.name, metric.name);
            assert!(s.n >= 1, "{what}: no samples");
            assert!(
                [s.q1, s.median, s.q3].iter().all(|v| v.is_finite()),
                "{what}: a quartile is not a number"
            );
            assert!(
                s.q1 <= s.median && s.median <= s.q3,
                "{what}: q1 {} median {} q3 {} out of order",
                s.q1,
                s.median,
                s.q3
            );
        }
    }
}

#[test]
fn output_digests_equal_the_pinned_ones() {
    let contract: Contract = read("BENCHMARK.json");
    let pinned: Vec<&str> = DIGESTS.iter().map(|&(w, _, _)| w).collect();
    let declared: Vec<&str> = contract.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(pinned, declared, "a workload without a pinned digest");
    let record: Record = read("BENCH.json");
    for (workload, kind, digest) in DIGESTS {
        for run in record.runs.iter().filter(|r| r.workload == workload) {
            assert_eq!(
                run.digests.get(kind).map(String::as_str),
                Some(digest),
                "{workload} (traced: {}) {kind}",
                run.traced
            );
        }
    }
}
