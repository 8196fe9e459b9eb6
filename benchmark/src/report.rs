//! What a run reports: the full report (one per workload run, collected
//! into a result file by `all`) and the one-line object the driver reads.

use crate::spec::{self, Workload};
use crate::stats::Summary;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Everything one `--workload` run measured and checked.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    /// Seconds the untraced measurement was asked to last.
    pub seconds: f64,
    pub traced: bool,
    pub nproc: usize,
    /// Every output check passed and no operation failed.
    pub correct: bool,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Median, quartiles and sample count over the run's untraced
    /// repetitions; never taken from the traced repetition.
    pub end_to_end: BTreeMap<String, Summary>,
    /// Per-layer numbers; empty unless `traced`.
    pub per_layer: BTreeMap<String, f64>,
    /// Digests of the outputs, so two result files can be told apart by
    /// content: `output_json` for the batch workloads, `replies` for serve.
    pub digests: BTreeMap<String, String>,
    /// Failed checks, then context (corpus shape, repetition counts).
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn new(workload: Workload, seed: u64, seconds: f64, traced: bool, nproc: usize) -> Self {
        Self {
            workload: workload.name().to_string(),
            seed,
            seconds,
            traced,
            nproc,
            correct: true,
            ops_attempted: 0,
            ops_failed: 0,
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            digests: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Record a failed output check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("FAILED: {}", what.into()));
    }

    /// Per-layer metrics this traced run did not measure, because the
    /// workload does not execute their layer.
    pub fn not_measured(&self) -> Vec<&'static str> {
        spec::PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|name| self.traced && !self.per_layer.contains_key(*name))
            .collect()
    }

    /// The driver's line: `correct`, `attempted`, `failed` and `metrics`,
    /// which holds every per-layer metric for a traced run and every
    /// end-to-end metric otherwise. The driver wants a number for every
    /// name on every workload, so a per-layer metric the workload did not
    /// measure reads 0 here; [`Self::table`] and the `report` line, which
    /// carry only what was measured, say which those are.
    pub fn contract_line(&self) -> String {
        let metric = |value: f64, unit: &str| {
            Value::Object(vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::String(unit.to_string())),
            ])
        };
        let metrics: Vec<(String, Value)> = if self.traced {
            spec::PER_LAYER
                .iter()
                .map(|m| {
                    let value = self.per_layer.get(m.name).copied().unwrap_or(0.0);
                    (m.name.to_string(), metric(value, m.unit))
                })
                .collect()
        } else {
            spec::END_TO_END
                .iter()
                .map(|m| {
                    let value = self.end_to_end.get(m.name).map_or(0.0, |s| s.median);
                    (m.name.to_string(), metric(value, m.unit))
                })
                .collect()
        };
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            (
                "attempted".to_string(),
                Value::U64(self.ops_attempted.max(1)),
            ),
            ("failed".to_string(), Value::U64(self.ops_failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree always serializes")
    }

    /// The report as text: every metric by name and unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed {} ({} core(s)): {} operation(s), {} failed, outputs {}\n",
            self.workload,
            self.seed,
            self.nproc,
            self.ops_attempted,
            self.ops_failed,
            if self.correct { "correct" } else { "WRONG" },
        );
        if let Some(w) = Workload::parse(&self.workload) {
            out.push_str(&format!("  operation: {}\n", w.operation()));
        }
        for m in spec::END_TO_END {
            if let Some(s) = self.end_to_end.get(m.name) {
                out.push_str(&format!(
                    "  {:<34} {:>14.4} {:<6} q1 {:.4} q3 {:.4} n {} ({} is better)\n",
                    m.name,
                    s.median,
                    m.unit,
                    s.q1,
                    s.q3,
                    s.n,
                    m.better.word()
                ));
            }
        }
        for m in spec::PER_LAYER {
            if let Some(v) = self.per_layer.get(m.name) {
                out.push_str(&format!("  {:<34} {:>14.4} {}\n", m.name, v, m.unit));
            }
        }
        let not_measured = self.not_measured();
        if !not_measured.is_empty() {
            out.push_str(&format!(
                "  not measured on this workload (0 in the driver's line): {}\n",
                not_measured.join(" ")
            ));
        }
        for (name, d) in &self.digests {
            out.push_str(&format!("  digest {name} {d}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        out
    }
}

/// What `all` writes and `compare` reads: one report per workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    pub runs: Vec<RunReport>,
}

impl ResultFile {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports always serialize")
    }

    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// The untraced report of a workload, which carries its end-to-end values.
    pub fn untraced(&self, workload: &str) -> Option<&RunReport> {
        self.runs
            .iter()
            .find(|r| r.workload == workload && !r.traced)
    }
}

/// Prefix of the stdout line that carries the full [`RunReport`] as JSON.
pub const REPORT_PREFIX: &str = "report ";

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(traced: bool) -> RunReport {
        let mut r = RunReport::new(Workload::ServeSteady, 11, 2.5, traced, 2);
        r.ops_attempted = 1000;
        for m in spec::END_TO_END {
            r.end_to_end.insert(
                m.name.to_string(),
                Summary {
                    median: 1.25,
                    q1: 1.0,
                    q3: 1.5,
                    n: 5,
                },
            );
        }
        if traced {
            r.per_layer.insert("serve.parse_ns".to_string(), 812.5);
        }
        r.digests.insert("replies".to_string(), "00ff".to_string());
        r.notes.push("corpus: 10 posts".to_string());
        r
    }

    #[test]
    fn result_file_round_trips() {
        let file = ResultFile {
            runs: vec![sample(false), sample(true)],
        };
        let back = ResultFile::from_json(&file.to_json()).unwrap();
        assert_eq!(back, file);
        assert!(!back.untraced("serve-steady").unwrap().traced);
        assert!(back.untraced("run-sparse").is_none());
        assert!(ResultFile::from_json("{\"runs\": 3}").is_err());
    }

    fn keys(v: &Value) -> Vec<String> {
        v.as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        for traced in [false, true] {
            let line = sample(traced).contract_line();
            assert!(!line.contains('\n'));
            let doc: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
            let metrics = &doc.as_object().unwrap()[3].1;
            let expected: Vec<String> = if traced {
                spec::PER_LAYER.iter().map(|m| m.name.to_string()).collect()
            } else {
                spec::END_TO_END
                    .iter()
                    .map(|m| m.name.to_string())
                    .collect()
            };
            assert_eq!(keys(metrics), expected);
            for (_, m) in metrics.as_object().unwrap() {
                assert_eq!(keys(m), ["value", "unit"]);
            }
        }
    }

    #[test]
    fn a_traced_run_names_what_it_did_not_measure() {
        let traced = sample(true);
        let missing = traced.not_measured();
        assert_eq!(missing.len(), spec::PER_LAYER.len() - 1);
        assert!(!missing.contains(&"serve.parse_ns"));
        assert!(traced.table().contains("not measured on this workload"));
        assert!(traced
            .contract_line()
            .contains("\"serve.shed\":{\"value\":0"));
        assert!(sample(false).not_measured().is_empty());
    }

    #[test]
    fn a_failed_check_marks_the_report_wrong() {
        let mut r = sample(false);
        r.fail("digest differs");
        assert!(!r.correct);
        assert!(r.table().contains("WRONG"));
        assert!(r.contract_line().contains("\"correct\":false"));
    }
}
