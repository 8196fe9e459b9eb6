//! `all` and `selfcheck`: every workload in a process of its own (so the
//! peak resident set is the workload's), first untraced, then traced.

use crate::compare;
use crate::report::{ResultFile, RunReport, REPORT_PREFIX};
use crate::spec::Workload;
use std::path::Path;
use std::process::{Command, Stdio};

/// What `all` passes on to each child.
pub struct SetOptions<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out_dir: &'a Path,
}

fn run_child(opts: &SetOptions, workload: Workload, traced: bool) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(opts.out_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("start {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report = stdout
        .lines()
        .find_map(|l| l.strip_prefix(REPORT_PREFIX))
        .ok_or_else(|| {
            format!(
                "{}: no report line (exit {})",
                workload.name(),
                output.status
            )
        })
        .and_then(|json| serde_json::from_str::<RunReport>(json).map_err(|e| e.to_string()))?;
    if !output.status.success() && report.correct {
        return Err(format!(
            "{}: exited with {}",
            workload.name(),
            output.status
        ));
    }
    Ok(report)
}

/// Run the full set and print every metric by name and unit.
pub fn run_set(opts: &SetOptions) -> Result<ResultFile, String> {
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let report = run_child(opts, workload, traced)?;
            print!("{}", report.table());
            runs.push(report);
        }
    }
    Ok(ResultFile { runs })
}

fn save(file: &ResultFile, path: &Path) -> Result<(), String> {
    std::fs::write(path, file.to_json()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `all`: one full set into `result.json`; `Ok(false)` when an output check failed.
pub fn all(opts: &SetOptions) -> Result<bool, String> {
    let file = run_set(opts)?;
    save(&file, &opts.out_dir.join("result.json"))?;
    Ok(file.runs.iter().all(|r| r.correct))
}

/// `selfcheck`: two full sets of the same build, then `compare`;
/// `Ok(false)` when the second is worse than the first anywhere.
pub fn selfcheck(opts: &SetOptions) -> Result<bool, String> {
    let first = run_set(opts)?;
    save(&first, &opts.out_dir.join("selfcheck-1.json"))?;
    let second = run_set(opts)?;
    save(&second, &opts.out_dir.join("selfcheck-2.json"))?;
    let comparison = compare::compare(&first, &second);
    print!("{}", comparison.table());
    Ok(!comparison.regressed() && first.runs.iter().chain(&second.runs).all(|r| r.correct))
}
