//! Execution-fault injection — deterministic faults in the *machinery*
//! that runs the pipeline, as opposed to the *data* it runs on
//! ([`crate::fault::FaultSpec`]).
//!
//! Real batch runs die for reasons the dataset never sees: a checkpoint
//! write hits a full disk, a crash tears a half-written file, a worker
//! panics on one pathological item, a network-backed render flakes once
//! and succeeds on retry. An [`ExecFaultSpec`] reproduces those
//! pathologies *deterministically*: every decision is a pure function
//! of `(seed, site, attempt)`, so a chaos schedule replays bit-for-bit
//! and a retried run can be asserted byte-identical to a clean one.
//!
//! The spec is substrate-free — stages are named by string, items and
//! writes by index — and `meme-core` holds it directly: `Pipeline`
//! consults it at its fault points, `FaultyMedium` at checkpoint
//! writes. [`ExecFaultSpec::default`] injects nothing and is the
//! production value. The spec answers three questions:
//!
//! * [`ExecFaultSpec::stage_fault`] — should this *stage attempt* panic
//!   or fail transiently?
//! * [`ExecFaultSpec::item_fault`] — should this *item* fail on this
//!   attempt (transiently) or on every attempt (poison)?
//! * [`ExecFaultSpec::write_fault`] — should this *checkpoint write*
//!   fail outright, or be torn (a prefix lands on disk and the fsync
//!   lies)?

use meme_stats::child_seed;

/// What an injected stage-level fault does to one stage attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStageFault {
    /// No fault; the attempt runs normally.
    Pass,
    /// The stage panics mid-attempt (the supervisor must contain it).
    Panic,
    /// The stage fails with a retryable transient error.
    Transient,
}

/// What an injected item-level fault does to one item on one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecItemFault {
    /// The item processes normally.
    Pass,
    /// The item fails on this attempt but will succeed on a later one.
    Transient,
    /// The item fails on every attempt — a poison item that must be
    /// quarantined, never retried forever.
    Poison,
}

/// What an injected I/O fault does to one checkpoint write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecWriteFault {
    /// The write succeeds.
    Pass,
    /// The write fails with an error (disk full, permission flap).
    Fail,
    /// The write *appears* to succeed but only a prefix reaches disk —
    /// the crash-mid-`write` / lying-fsync case. `keep_fraction` of the
    /// bytes survive.
    Torn {
        /// Fraction of the payload that lands on disk, in `[0, 1]`.
        keep_fraction: f64,
    },
}

/// A stage-level fault rule: the named stage misbehaves on attempts
/// `0..fail_attempts`.
#[derive(Debug, Clone, PartialEq)]
pub struct StageFaultRule {
    /// Stage name (`"hash"`, `"cluster"`, …) or `"*"` for every stage.
    pub stage: String,
    /// `true` → panic; `false` → transient typed error.
    pub panics: bool,
    /// Attempts `0..fail_attempts` are hit; later attempts succeed.
    /// `u32::MAX` makes the fault persistent.
    pub fail_attempts: u32,
}

/// An item-level fault rule: a seeded `fraction` of the named stage's
/// items misbehave.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemFaultRule {
    /// Stage name the rule applies to.
    pub stage: String,
    /// Fraction of items affected, in `[0, 1]` (seeded selection).
    pub fraction: f64,
    /// `None` → poison (fails every attempt). `Some(n)` → transient:
    /// fails on attempts `0..n`, succeeds afterwards.
    pub fail_attempts: Option<u32>,
}

/// A write-level fault rule covering write indices
/// `from_write..to_write` (half-open).
#[derive(Debug, Clone, PartialEq)]
pub struct WriteFaultRule {
    /// First affected write index (writes are counted per medium).
    pub from_write: usize,
    /// One past the last affected write index.
    pub to_write: usize,
    /// The fault applied to writes in range.
    pub fault: ExecWriteFault,
}

/// A deterministic execution-fault schedule.
///
/// Rules are consulted in order; the first matching rule decides.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecFaultSpec {
    /// Seed for all per-item selection draws.
    pub seed: u64,
    /// Stage-level faults (panics, transient stage errors).
    pub stage_faults: Vec<StageFaultRule>,
    /// Item-level faults (transient and poison items).
    pub item_faults: Vec<ItemFaultRule>,
    /// Checkpoint-write faults (failures and torn writes).
    pub write_faults: Vec<WriteFaultRule>,
}

impl ExecFaultSpec {
    /// A schedule that injects nothing.
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Every stage panics on its first attempt, then runs clean — the
    /// canonical containment-plus-retry exercise.
    pub fn panic_once_everywhere(seed: u64) -> Self {
        Self {
            stage_faults: vec![StageFaultRule {
                stage: "*".to_string(),
                panics: true,
                fail_attempts: 1,
            }],
            ..Self::clean(seed)
        }
    }

    /// One stage panics on every attempt — retries must give up with a
    /// typed error, never an abort.
    pub fn persistent_panic(seed: u64, stage: &str) -> Self {
        Self {
            stage_faults: vec![StageFaultRule {
                stage: stage.to_string(),
                panics: true,
                fail_attempts: u32::MAX,
            }],
            ..Self::clean(seed)
        }
    }

    /// One stage fails transiently on attempts `0..failures`.
    pub fn transient_stage(seed: u64, stage: &str, failures: u32) -> Self {
        Self {
            stage_faults: vec![StageFaultRule {
                stage: stage.to_string(),
                panics: false,
                fail_attempts: failures,
            }],
            ..Self::clean(seed)
        }
    }

    /// A seeded `fraction` of a stage's items fail once, then succeed —
    /// the flaky-I/O regime a retry absorbs completely.
    pub fn flaky_items(seed: u64, stage: &str, fraction: f64) -> Self {
        Self {
            item_faults: vec![ItemFaultRule {
                stage: stage.to_string(),
                fraction,
                fail_attempts: Some(1),
            }],
            ..Self::clean(seed)
        }
    }

    /// A seeded `fraction` of a stage's items fail on *every* attempt —
    /// poison that must end up quarantined.
    pub fn poison_items(seed: u64, stage: &str, fraction: f64) -> Self {
        Self {
            item_faults: vec![ItemFaultRule {
                stage: stage.to_string(),
                fraction,
                fail_attempts: None,
            }],
            ..Self::clean(seed)
        }
    }

    /// The first `failures` checkpoint writes fail outright.
    pub fn write_blackout(seed: u64, failures: usize) -> Self {
        Self {
            write_faults: vec![WriteFaultRule {
                from_write: 0,
                to_write: failures,
                fault: ExecWriteFault::Fail,
            }],
            ..Self::clean(seed)
        }
    }

    /// Checkpoint write number `write` is torn: `keep_fraction` of its
    /// bytes land on disk and the write still reports success.
    pub fn torn_write(seed: u64, write: usize, keep_fraction: f64) -> Self {
        Self {
            write_faults: vec![WriteFaultRule {
                from_write: write,
                to_write: write + 1,
                fault: ExecWriteFault::Torn { keep_fraction },
            }],
            ..Self::clean(seed)
        }
    }

    /// Whether this schedule can inject anything at all (lets hot loops
    /// skip per-item consultation when idle).
    pub fn is_active(&self) -> bool {
        !self.stage_faults.is_empty() || !self.item_faults.is_empty()
    }

    /// The fault (if any) for one attempt of the named stage.
    pub fn stage_fault(&self, stage: &str, attempt: u32) -> ExecStageFault {
        for rule in &self.stage_faults {
            if (rule.stage == "*" || rule.stage == stage) && attempt < rule.fail_attempts {
                return if rule.panics {
                    ExecStageFault::Panic
                } else {
                    ExecStageFault::Transient
                };
            }
        }
        ExecStageFault::Pass
    }

    /// The fault (if any) for one item of the named stage on the given
    /// attempt. Selection is a pure function of `(seed, stage, item)`:
    /// the same items are hit on every attempt, which is what makes
    /// transient faults clear on retry and poison faults stick.
    pub fn item_fault(&self, stage: &str, item: usize, attempt: u32) -> ExecItemFault {
        for rule in &self.item_faults {
            if rule.stage != stage && rule.stage != "*" {
                continue;
            }
            if self.item_roll(&rule.stage, stage, item) >= rule.fraction {
                continue;
            }
            return match rule.fail_attempts {
                None => ExecItemFault::Poison,
                Some(n) if attempt < n => ExecItemFault::Transient,
                Some(_) => ExecItemFault::Pass,
            };
        }
        ExecItemFault::Pass
    }

    /// The fault (if any) for checkpoint write number `write`.
    pub fn write_fault(&self, write: usize) -> ExecWriteFault {
        for rule in &self.write_faults {
            if (rule.from_write..rule.to_write).contains(&write) {
                return rule.fault;
            }
        }
        ExecWriteFault::Pass
    }

    /// Uniform draw in `[0, 1)` for `(seed, rule-stage, stage, item)` —
    /// SplitMix64 finalization via [`child_seed`], no RNG state.
    fn item_roll(&self, rule_stage: &str, stage: &str, item: usize) -> f64 {
        let tag = if rule_stage == "*" { stage } else { rule_stage };
        let mut h = self.seed;
        for b in tag.bytes() {
            h = child_seed(h, u64::from(b));
        }
        let bits = child_seed(h, item as u64);
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_spec_injects_nothing() {
        let spec = ExecFaultSpec::clean(7);
        assert!(!spec.is_active());
        assert_eq!(spec.stage_fault("hash", 0), ExecStageFault::Pass);
        assert_eq!(spec.item_fault("hash", 3, 0), ExecItemFault::Pass);
        assert_eq!(spec.write_fault(0), ExecWriteFault::Pass);
    }

    #[test]
    fn panic_once_clears_on_second_attempt() {
        let spec = ExecFaultSpec::panic_once_everywhere(7);
        for stage in ["hash", "cluster", "site", "annotate", "associate"] {
            assert_eq!(spec.stage_fault(stage, 0), ExecStageFault::Panic);
            assert_eq!(spec.stage_fault(stage, 1), ExecStageFault::Pass);
        }
    }

    #[test]
    fn persistent_panic_never_clears() {
        let spec = ExecFaultSpec::persistent_panic(7, "cluster");
        assert_eq!(spec.stage_fault("cluster", 0), ExecStageFault::Panic);
        assert_eq!(spec.stage_fault("cluster", 999), ExecStageFault::Panic);
        assert_eq!(spec.stage_fault("hash", 0), ExecStageFault::Pass);
    }

    #[test]
    fn transient_stage_clears_after_scheduled_failures() {
        let spec = ExecFaultSpec::transient_stage(7, "site", 2);
        assert_eq!(spec.stage_fault("site", 0), ExecStageFault::Transient);
        assert_eq!(spec.stage_fault("site", 1), ExecStageFault::Transient);
        assert_eq!(spec.stage_fault("site", 2), ExecStageFault::Pass);
    }

    #[test]
    fn item_selection_is_deterministic_and_roughly_proportional() {
        let spec = ExecFaultSpec::flaky_items(11, "hash", 0.1);
        let hits: Vec<usize> = (0..10_000)
            .filter(|&i| spec.item_fault("hash", i, 0) == ExecItemFault::Transient)
            .collect();
        let again: Vec<usize> = (0..10_000)
            .filter(|&i| spec.item_fault("hash", i, 0) == ExecItemFault::Transient)
            .collect();
        assert_eq!(hits, again, "selection must be deterministic");
        assert!(
            (500..2_000).contains(&hits.len()),
            "fraction badly off: {} / 10000",
            hits.len()
        );
        // The same items clear on the retry attempt.
        for &i in hits.iter().take(20) {
            assert_eq!(spec.item_fault("hash", i, 1), ExecItemFault::Pass);
        }
        // Other stages are untouched.
        assert_eq!(
            spec.item_fault("associate", hits[0], 0),
            ExecItemFault::Pass
        );
    }

    #[test]
    fn poison_items_never_clear() {
        let spec = ExecFaultSpec::poison_items(13, "hash", 0.05);
        let poisoned: Vec<usize> = (0..2_000)
            .filter(|&i| spec.item_fault("hash", i, 0) == ExecItemFault::Poison)
            .collect();
        assert!(!poisoned.is_empty());
        for &i in &poisoned {
            assert_eq!(spec.item_fault("hash", i, 7), ExecItemFault::Poison);
        }
    }

    #[test]
    fn different_seeds_pick_different_items() {
        let a = ExecFaultSpec::poison_items(1, "hash", 0.05);
        let b = ExecFaultSpec::poison_items(2, "hash", 0.05);
        let pick = |s: &ExecFaultSpec| -> Vec<usize> {
            (0..2_000)
                .filter(|&i| s.item_fault("hash", i, 0) == ExecItemFault::Poison)
                .collect()
        };
        assert_ne!(pick(&a), pick(&b));
    }

    #[test]
    fn write_faults_cover_their_range() {
        let spec = ExecFaultSpec::write_blackout(7, 2);
        assert_eq!(spec.write_fault(0), ExecWriteFault::Fail);
        assert_eq!(spec.write_fault(1), ExecWriteFault::Fail);
        assert_eq!(spec.write_fault(2), ExecWriteFault::Pass);

        let torn = ExecFaultSpec::torn_write(7, 4, 0.5);
        assert_eq!(torn.write_fault(3), ExecWriteFault::Pass);
        assert_eq!(
            torn.write_fault(4),
            ExecWriteFault::Torn { keep_fraction: 0.5 }
        );
        assert_eq!(torn.write_fault(5), ExecWriteFault::Pass);
    }

    #[test]
    fn wildcard_stage_rules_apply_per_stage() {
        let spec = ExecFaultSpec {
            item_faults: vec![ItemFaultRule {
                stage: "*".to_string(),
                fraction: 0.1,
                fail_attempts: None,
            }],
            ..ExecFaultSpec::clean(3)
        };
        // A wildcard rule still seeds per-stage, so the hit sets differ.
        let hash_hits: Vec<usize> = (0..1_000)
            .filter(|&i| spec.item_fault("hash", i, 0) == ExecItemFault::Poison)
            .collect();
        let assoc_hits: Vec<usize> = (0..1_000)
            .filter(|&i| spec.item_fault("associate", i, 0) == ExecItemFault::Poison)
            .collect();
        assert!(!hash_hits.is_empty() && !assoc_hits.is_empty());
        assert_ne!(hash_hits, assoc_hits);
    }
}
