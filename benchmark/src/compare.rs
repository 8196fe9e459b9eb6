//! `compare OLD.json NEW.json`: for every workload and end-to-end metric,
//! is NEW better, within the bound, worse, or unresolved?

use crate::report::{ResultFile, RunReport};
use crate::spec::{self, Better, Workload};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// No worse and no better than the bound allows.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// Not worse beyond the bound, but a side's quartile spread is wider
    /// than the bound, so "unchanged" cannot be claimed either.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// How much worse `new` is than `old`, as a share of `old` (negative when
/// it is better), and the verdict under `bound`.
pub fn verdict(old: &Summary, new: &Summary, better: Better, bound: f64) -> (f64, Verdict) {
    let worse_by = if old.median == 0.0 {
        0.0
    } else {
        match better {
            Better::Lower => (new.median - old.median) / old.median,
            Better::Higher => (old.median - new.median) / old.median,
        }
    };
    let spread = old.spread().max(new.spread());
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (worse_by, verdict)
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    pub old: Summary,
    pub new: Summary,
    pub worse_by: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Default)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose share of failed operations rose, or whose outputs
    /// were wrong, or that one side did not run.
    pub problems: Vec<String>,
    /// Workloads whose output digests differ between the two files.
    pub output_changes: Vec<String>,
}

fn failure_rate(r: &RunReport) -> f64 {
    r.ops_failed as f64 / r.ops_attempted.max(1) as f64
}

pub fn compare(old: &ResultFile, new: &ResultFile) -> Comparison {
    let mut out = Comparison::default();
    for workload in Workload::ALL {
        let name = workload.name();
        let (Some(o), Some(n)) = (old.untraced(name), new.untraced(name)) else {
            out.problems
                .push(format!("{name}: missing from one of the result files"));
            continue;
        };
        for m in &spec::END_TO_END {
            let (Some(os), Some(ns)) = (o.end_to_end.get(m.name), n.end_to_end.get(m.name)) else {
                out.problems.push(format!("{name}: {} missing", m.name));
                continue;
            };
            let (worse_by, verdict) = verdict(os, ns, m.better, m.bound);
            out.rows.push(Row {
                workload: name,
                metric: m.name,
                unit: m.unit,
                bound: m.bound,
                old: *os,
                new: *ns,
                worse_by,
                verdict,
            });
        }
        if failure_rate(n) > failure_rate(o) {
            out.problems.push(format!(
                "{name}: failed operations rose from {}/{} to {}/{}",
                o.ops_failed, o.ops_attempted, n.ops_failed, n.ops_attempted
            ));
        }
        if !n.correct {
            out.problems
                .push(format!("{name}: NEW failed an output check"));
        }
        if o.seed == n.seed && o.digests != n.digests {
            out.output_changes.push(name.to_string());
        }
    }
    out
}

impl Comparison {
    /// Whether `compare` exits non-zero.
    pub fn regressed(&self) -> bool {
        !self.problems.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }

    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<16} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict\n",
            "workload", "metric", "old median", "new median", "worse by", "bound"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<16} {:<12} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}",
                r.workload,
                r.metric,
                r.old.median,
                r.new.median,
                r.worse_by * 100.0,
                r.bound * 100.0,
                r.verdict.word()
            ));
            if r.verdict == Verdict::Unresolved {
                out.push_str(&format!(
                    " (quartiles {} old {:.4}..{:.4} n {}, new {:.4}..{:.4} n {})",
                    r.unit, r.old.q1, r.old.q3, r.old.n, r.new.q1, r.new.q3, r.new.n
                ));
            }
            out.push('\n');
        }
        for name in &self.output_changes {
            out.push_str(&format!(
                "{name}: outputs differ between the two result files\n"
            ));
        }
        for p in &self.problems {
            out.push_str(&format!("{p}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 5,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let old = s(100.0, 99.0, 101.0);
        let lower = |new: f64| verdict(&old, &s(new, new - 1.0, new + 1.0), Better::Lower, 0.05).1;
        assert_eq!(lower(100.0), Verdict::Within);
        assert_eq!(lower(104.9), Verdict::Within);
        assert_eq!(lower(106.0), Verdict::Worse);
        assert_eq!(lower(94.0), Verdict::Better);
        let higher =
            |new: f64| verdict(&old, &s(new, new - 1.0, new + 1.0), Better::Higher, 0.05).1;
        assert_eq!(higher(94.0), Verdict::Worse);
        assert_eq!(higher(106.0), Verdict::Better);
        assert_eq!(higher(97.0), Verdict::Within);
        let (worse_by, _) = verdict(&old, &s(110.0, 109.0, 111.0), Better::Lower, 0.05);
        assert!((worse_by - 0.10).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = s(100.0, 95.0, 105.0); // spread 10% against a 5% bound
        let quiet = s(101.0, 100.5, 101.5);
        assert_eq!(
            verdict(&noisy, &quiet, Better::Lower, 0.05).1,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&quiet, &noisy, Better::Lower, 0.05).1,
            Verdict::Unresolved
        );
        // An improvement is not claimed through the noise either ...
        assert_eq!(
            verdict(&noisy, &s(90.0, 89.0, 91.0), Better::Lower, 0.05).1,
            Verdict::Unresolved
        );
        // ... but a regression past the bound is still a regression.
        assert_eq!(
            verdict(&noisy, &s(120.0, 119.0, 121.0), Better::Lower, 0.05).1,
            Verdict::Worse
        );
    }

    fn file(p50: f64, failed: u64, digest: &str) -> ResultFile {
        let runs = Workload::ALL
            .iter()
            .map(|w| {
                let mut r = RunReport::new(*w, 7, 10.0, false, 2);
                r.ops_attempted = 100;
                r.ops_failed = failed;
                for m in spec::END_TO_END {
                    r.end_to_end
                        .insert(m.name.to_string(), s(p50, p50 * 0.99, p50 * 1.01));
                }
                r.digests.insert("output_json".into(), digest.into());
                r
            })
            .collect();
        ResultFile { runs }
    }

    #[test]
    fn identical_files_compare_clean() {
        let c = compare(&file(50.0, 0, "aa"), &file(50.0, 0, "aa"));
        assert_eq!(c.rows.len(), Workload::ALL.len() * spec::END_TO_END.len());
        assert!(c.rows.iter().all(|r| r.verdict == Verdict::Within));
        assert!(!c.regressed() && c.output_changes.is_empty());
    }

    #[test]
    fn regressions_failures_and_output_changes_are_reported() {
        // Every metric doubles: the lower-is-better ones regress.
        let c = compare(&file(50.0, 0, "aa"), &file(100.0, 0, "aa"));
        assert!(c.regressed());
        assert!(c.table().contains("WORSE"));
        let c = compare(&file(50.0, 0, "aa"), &file(50.0, 3, "bb"));
        assert!(c.regressed(), "a rise in failed operations regresses");
        assert_eq!(c.output_changes.len(), Workload::ALL.len());
        assert!(c.table().contains("outputs differ"));
        let mut partial = file(50.0, 0, "aa");
        partial.runs.truncate(1);
        assert!(compare(&file(50.0, 0, "aa"), &partial).regressed());
    }
}
