//! The immutable lookup snapshot: a completed run artifact recast as a
//! read-optimized index.
//!
//! A [`Snapshot`] holds exactly what the lookup path needs and nothing
//! the pipeline needed to produce it: a [`FallbackIndex`] over the
//! annotated clusters' medoid hashes in record order (brute force for
//! the tens to low hundreds of medoids a run annotates), a per-cluster
//! [`MemeRecord`] table naming the representative KYM entry, and —
//! when the loader supplied one — the per-cluster influence profile
//! from Step 7. Snapshots are built once, never mutated, and shared
//! across reader threads behind an `Arc` (see
//! [`SnapshotStore`](crate::SnapshotStore)).
//!
//! The steady-state query path is allocation-free by contract: each
//! worker owns a [`ServeScratch`] whose buffers grow to the workload's
//! high-water mark during warmup, and [`Snapshot::lookup`] returns a
//! `Copy` [`LookupHit`] of indices into the snapshot's tables
//! (`crates/serve/tests/no_alloc.rs` enforces this with a counting
//! global allocator, the same audit the index crate runs).

use crate::error::ServeError;
use meme_core::pipeline::{PipelineError, PipelineOutput};
use meme_hawkes::{ClusterInfluence, InfluenceMatrix};
use meme_index::{FallbackIndex, HammingIndex, QueryScratch};
use meme_phash::PHash;

/// The paper's Step-6 association threshold: a query image belongs to a
/// meme when its pHash is within Hamming distance 8 of the cluster
/// medoid.
pub const DEFAULT_THETA: u32 = 8;

/// One annotated cluster, denormalized for serving.
#[derive(Debug, Clone, PartialEq)]
pub struct MemeRecord {
    /// The cluster id in the source run (position in the medoid list).
    pub cluster: usize,
    /// The cluster's medoid hash.
    pub medoid: PHash,
    /// The representative KYM entry's id.
    pub entry_id: usize,
    /// The representative KYM entry's name ("Smug Frog", …).
    pub name: String,
    /// The representative entry's category display name ("Memes", …).
    pub category: &'static str,
}

/// Reusable per-worker working memory for [`Snapshot::lookup`].
///
/// One per reader thread; never shared. After warmup the buffers sit at
/// the workload's high-water mark and lookups allocate nothing.
#[derive(Debug, Default)]
pub struct ServeScratch {
    /// The index engine's probe/verify scratch.
    pub query: QueryScratch,
    /// Matched record slots (reused output buffer).
    pub matches: Vec<usize>,
}

impl ServeScratch {
    /// Fresh, empty working memory.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A successful lookup: indices into the snapshot's tables plus the
/// match distance. `Copy`, so returning one allocates nothing; resolve
/// it through [`Snapshot::record`] / [`Snapshot::influence_row`] when
/// the caller needs names or profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupHit {
    /// Position in [`Snapshot::records`] (annotated-cluster order).
    pub slot: usize,
    /// The matched cluster's id in the source run.
    pub cluster: usize,
    /// The representative KYM entry's id.
    pub entry_id: usize,
    /// Hamming distance from the query to the matched medoid.
    pub distance: u32,
}

/// An immutable, shareable lookup structure over one completed run.
#[derive(Debug)]
pub struct Snapshot {
    /// Which swap generation this snapshot belongs to (1 for the first
    /// load; bumped by [`SnapshotStore::swap`](crate::SnapshotStore)).
    generation: u64,
    /// Association threshold the index was built for.
    theta: u32,
    /// Annotated clusters, in ascending cluster order.
    records: Vec<MemeRecord>,
    /// Radius-query engine over `records[].medoid`: position = slot.
    index: FallbackIndex,
    /// Per-record influence profile (Step 7), when the loader computed
    /// one. `influence[slot]` pairs with `records[slot]`.
    influence: Option<Vec<InfluenceMatrix>>,
}

impl Snapshot {
    /// Build a snapshot from a completed run.
    ///
    /// `influence`, when given, must come from
    /// [`PipelineOutput::estimate_influence`] on the same artifact
    /// (`memes serve` fits at [`meme_core::pipeline::FIT_BETA`]), so its
    /// per-cluster matrices line up with
    /// [`PipelineOutput::annotated_clusters`] order.
    ///
    /// Shapes a pipeline run never produces — annotations pointing past
    /// the medoid table, representative ids past the KYM site — are
    /// rejected with a typed error rather than panicking, because
    /// artifacts arrive from disk and may be corrupt or stale.
    pub fn build(
        output: &PipelineOutput,
        influence: Option<&ClusterInfluence>,
        theta: u32,
        generation: u64,
    ) -> Result<Snapshot, ServeError> {
        let mut records = Vec::new();
        for ann in output.annotations.iter().filter(|a| a.is_annotated()) {
            let Some(entry_id) = ann.representative else {
                continue; // is_annotated() implies Some; tolerate a mangled artifact
            };
            let entry = output.site.get(entry_id).ok_or_else(|| {
                PipelineError::CheckpointCorrupt(format!(
                    "cluster {} has representative entry {entry_id}, but the site has only {} entries",
                    ann.cluster,
                    output.site.len()
                ))
            })?;
            let medoid = *output.medoid_hashes.get(ann.cluster).ok_or_else(|| {
                PipelineError::CheckpointCorrupt(format!(
                    "annotation names cluster {}, but there are only {} medoids",
                    ann.cluster,
                    output.medoid_hashes.len()
                ))
            })?;
            records.push(MemeRecord {
                cluster: ann.cluster,
                medoid,
                entry_id,
                name: entry.name.clone(),
                category: entry.category.name(),
            });
        }
        let influence = match influence {
            Some(ci) => {
                if ci.per_cluster.len() != records.len() {
                    return Err(ServeError::InfluenceShape {
                        rows: ci.per_cluster.len(),
                        annotated: records.len(),
                    });
                }
                Some(ci.per_cluster.clone())
            }
            None => None,
        };
        let medoids: Vec<PHash> = records.iter().map(|r| r.medoid).collect();
        let index = FallbackIndex::build(medoids, theta);
        Ok(Snapshot {
            generation,
            theta,
            records,
            index,
            influence,
        })
    }

    /// The swap generation this snapshot was installed as.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Re-stamp the generation (used by the store on swap).
    pub(crate) fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// The association threshold queries run at.
    pub fn theta(&self) -> u32 {
        self.theta
    }

    /// Number of servable memes (annotated clusters).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the run had no annotated clusters.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, in ascending cluster order.
    pub fn records(&self) -> &[MemeRecord] {
        &self.records
    }

    /// The record behind a [`LookupHit`].
    pub fn record(&self, slot: usize) -> Option<&MemeRecord> {
        self.records.get(slot)
    }

    /// The Step-7 influence profile behind a [`LookupHit`], when the
    /// loader supplied influence data.
    pub fn influence_row(&self, slot: usize) -> Option<&InfluenceMatrix> {
        self.influence.as_ref().and_then(|rows| rows.get(slot))
    }

    /// Match `query` against the annotated medoids at the snapshot's θ.
    ///
    /// Returns the nearest annotated cluster within θ, or `None` when
    /// no medoid is close enough. Deterministic tie-break
    /// ([`HammingIndex::nearest_into`]): smallest distance first, then
    /// smallest slot (= smallest cluster id, so identical medoids resolve
    /// to the first cluster) — independent of engine and thread count.
    /// Steady-state calls allocate nothing.
    // lint:hotpath(steady-state per-query lookup; allocation belongs in the caller-provided scratch)
    pub fn lookup(&self, query: PHash, scratch: &mut ServeScratch) -> Option<LookupHit> {
        let (slot, distance) =
            self.index
                .nearest_into(query, self.theta, &mut scratch.query, &mut scratch.matches)?;
        let rec = self.records.get(slot)?;
        Some(LookupHit {
            slot,
            cluster: rec.cluster,
            entry_id: rec.entry_id,
            distance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_output() -> PipelineOutput {
        crate::testutil::tiny_output().clone()
    }

    #[test]
    fn build_covers_every_annotated_cluster() {
        let output = tiny_output();
        let snap = Snapshot::build(&output, None, DEFAULT_THETA, 1).unwrap();
        assert_eq!(snap.len(), output.annotated_clusters().len());
        assert_eq!(snap.generation(), 1);
        let mut scratch = ServeScratch::new();
        // Every medoid must find its own cluster at distance 0.
        for rec in snap.records() {
            let hit = snap.lookup(rec.medoid, &mut scratch).unwrap();
            assert_eq!(hit.distance, 0);
            let found = snap.record(hit.slot).unwrap();
            assert_eq!(found.medoid, rec.medoid);
            // Identical medoids collapse to the smallest cluster id.
            assert!(found.cluster <= rec.cluster);
        }
    }

    #[test]
    fn lookup_misses_far_hashes() {
        let output = tiny_output();
        let snap = Snapshot::build(&output, None, DEFAULT_THETA, 1).unwrap();
        let mut scratch = ServeScratch::new();
        // A hash ~32 bits from everything (alternating pattern xored
        // against the first medoid) should not be within θ = 8.
        let far = PHash(snap.records()[0].medoid.0 ^ 0xAAAA_AAAA_AAAA_AAAA);
        let hit = snap.lookup(far, &mut scratch);
        if let Some(h) = hit {
            assert!(h.distance <= DEFAULT_THETA);
        }
    }

    #[test]
    fn lookup_prefers_nearest_then_smallest_cluster() {
        let output = tiny_output();
        let snap = Snapshot::build(&output, None, DEFAULT_THETA, 1).unwrap();
        let mut scratch = ServeScratch::new();
        for rec in snap.records() {
            // One bit away from a medoid must match at distance <= 1:
            // either the perturbed medoid itself, or another medoid that
            // is even closer (distance 0 means a duplicate one bit away).
            let near = PHash(rec.medoid.0 ^ 1);
            let hit = snap.lookup(near, &mut scratch).unwrap();
            assert!(hit.distance <= 1);
        }
    }

    #[test]
    fn corrupt_annotation_cluster_is_typed() {
        let mut output = tiny_output();
        if let Some(ann) = output.annotations.iter_mut().find(|a| a.is_annotated()) {
            ann.cluster = 10_000;
        } else {
            return; // tiny run with no annotations: nothing to corrupt
        }
        let err = Snapshot::build(&output, None, DEFAULT_THETA, 1).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Pipeline(PipelineError::CheckpointCorrupt(_))
        ));
    }

    #[test]
    fn corrupt_representative_entry_is_typed() {
        let mut output = tiny_output();
        if let Some(ann) = output.annotations.iter_mut().find(|a| a.is_annotated()) {
            ann.representative = Some(10_000);
        } else {
            return;
        }
        let err = Snapshot::build(&output, None, DEFAULT_THETA, 1).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Pipeline(PipelineError::CheckpointCorrupt(_))
        ));
    }

    #[test]
    fn influence_shape_mismatch_is_typed() {
        let output = tiny_output();
        if output.annotated_clusters().is_empty() {
            return;
        }
        let bogus = ClusterInfluence {
            per_cluster: vec![],
            total: InfluenceMatrix::zeros(5),
        };
        // Zero rows for a run with annotated clusters: rejected.
        let err = Snapshot::build(&output, Some(&bogus), DEFAULT_THETA, 1).unwrap_err();
        assert!(matches!(err, ServeError::InfluenceShape { .. }));
    }
}
