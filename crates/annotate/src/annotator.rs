//! Cluster annotation — Step 5 of the pipeline.
//!
//! "The clusters' medoids are compared with all images from meme
//! annotation sites, by calculating the Hamming distance between each
//! pair of pHash vectors. We consider that an image matches a cluster
//! if the distance is less than or equal to a threshold θ, which we set
//! to 8 … To find the representative KYM entry for each cluster, we
//! select the one with the largest proportion of matches of KYM images
//! with the cluster medoid. In case of ties, we select the one with the
//! minimum average Hamming distance." (§2.2)

use crate::kym::KymSite;
use meme_index::{FallbackIndex, HammingIndex};
use meme_phash::PHash;
use serde::{Deserialize, Serialize};

/// The paper's annotation threshold θ.
pub const ANNOTATION_THETA: u32 = 8;

/// One KYM entry's match against a cluster medoid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntryMatch {
    /// Matched entry id.
    pub entry_id: usize,
    /// Number of the entry's gallery images within θ of the medoid.
    pub matched_images: usize,
    /// The entry's gallery size (denominator of the match proportion).
    pub gallery_size: usize,
    /// Mean Hamming distance of the matching images to the medoid.
    pub avg_distance: f64,
}

impl EntryMatch {
    /// Match proportion used for representative selection.
    pub fn proportion(&self) -> f64 {
        if self.gallery_size == 0 {
            0.0
        } else {
            self.matched_images as f64 / self.gallery_size as f64
        }
    }
}

/// The annotation of one cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterAnnotation {
    /// Cluster id (position in the medoid list).
    pub cluster: usize,
    /// All matching entries, sorted by descending proportion then
    /// ascending average distance.
    pub matches: Vec<EntryMatch>,
    /// The representative entry (best match), when any entry matched.
    pub representative: Option<usize>,
}

impl ClusterAnnotation {
    /// Whether this cluster received any KYM annotation.
    pub fn is_annotated(&self) -> bool {
        self.representative.is_some()
    }

    /// Number of distinct KYM entries matching this cluster (the Fig. 5a
    /// sample).
    pub fn entry_count(&self) -> usize {
        self.matches.len()
    }
}

/// Work accounting for one [`annotate_clusters_with_stats`] call — the
/// observability record behind the pipeline's Step-5 throughput metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnnotateStats {
    /// Radius queries issued (one per medoid).
    pub medoid_queries: usize,
    /// Gallery hashes indexed.
    pub gallery_hashes: usize,
    /// Clusters that ended up with a representative entry.
    pub annotated_clusters: usize,
}

/// [`annotate_clusters`] plus work accounting.
pub fn annotate_clusters_with_stats(
    medoids: &[PHash],
    site: &KymSite,
    theta: u32,
) -> (Vec<ClusterAnnotation>, AnnotateStats) {
    let annotations = annotate_clusters(medoids, site, theta);
    let stats = AnnotateStats {
        medoid_queries: medoids.len(),
        gallery_hashes: site.entries.iter().map(|e| e.gallery.len()).sum(),
        annotated_clusters: annotations.iter().filter(|a| a.is_annotated()).count(),
    };
    (annotations, stats)
}

/// Annotate every cluster medoid against a KYM site at threshold
/// `theta`.
///
/// Implementation: one radius index over all gallery hashes (tagged
/// with their entry; [`FallbackIndex`] picks the engine from the
/// gallery size and `theta`), one radius query per
/// medoid — the same two-sided speedup the paper got from its GPU
/// pairwise engine.
pub fn annotate_clusters(medoids: &[PHash], site: &KymSite, theta: u32) -> Vec<ClusterAnnotation> {
    // Flatten galleries with back-pointers: (entry id, gallery size).
    let mut gallery_hashes: Vec<PHash> = Vec::new();
    let mut owner: Vec<(usize, usize)> = Vec::new();
    for entry in &site.entries {
        for &h in &entry.gallery {
            gallery_hashes.push(h);
            owner.push((entry.id, entry.gallery.len()));
        }
    }
    let index = FallbackIndex::build(gallery_hashes, theta);

    medoids
        .iter()
        .enumerate()
        .map(|(cluster, &medoid)| {
            let hits = index.radius_query(medoid, theta);
            // Group hits by entry.
            use std::collections::HashMap;
            let mut per_entry: HashMap<(usize, usize), (usize, f64)> = HashMap::new();
            for hit in hits {
                let d = medoid.distance(index.hash_at(hit)) as f64;
                let e = per_entry.entry(owner[hit]).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += d;
            }
            let mut matches: Vec<EntryMatch> = per_entry
                .into_iter()
                .map(|((entry_id, gallery_size), (count, dist_sum))| EntryMatch {
                    entry_id,
                    matched_images: count,
                    gallery_size,
                    avg_distance: dist_sum / count as f64,
                })
                .collect();
            matches.sort_by(|a, b| {
                b.proportion()
                    .total_cmp(&a.proportion())
                    .then(a.avg_distance.total_cmp(&b.avg_distance))
                    .then(a.entry_id.cmp(&b.entry_id))
            });
            let representative = matches.first().map(|m| m.entry_id);
            ClusterAnnotation {
                cluster,
                matches,
                representative,
            }
        })
        .collect()
}

/// Fig. 5b's sample: for each KYM entry, how many clusters it annotates
/// (counting all matches, not just representatives). Entries annotating
/// zero clusters are included as zeros, matching the paper's x = 0 bin.
pub fn clusters_per_entry(annotations: &[ClusterAnnotation], n_entries: usize) -> Vec<u64> {
    let mut counts = vec![0u64; n_entries];
    for ann in annotations {
        for m in &ann.matches {
            counts[m.entry_id] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kym::{KymCategory, KymEntry};

    fn entry(id: usize, name: &str, gallery: Vec<PHash>) -> KymEntry {
        KymEntry {
            id,
            name: name.into(),
            category: KymCategory::Meme,
            tags: vec![],
            origin: "4chan".into(),
            gallery,
            people: vec![],
            cultures: vec![],
        }
    }

    fn site() -> KymSite {
        let base = PHash(0xAAAA_BBBB_CCCC_DDDD);
        let far = PHash(0x1111_2222_3333_4444);
        KymSite::new(vec![
            // Entry 0: two of three gallery images near `base`.
            entry(
                0,
                "Smug Frog",
                vec![base, base.with_flipped_bits(&[1, 2]), far],
            ),
            // Entry 1: one of one image near `base` (higher proportion).
            entry(1, "Pepe", vec![base.with_flipped_bits(&[3])]),
            // Entry 2: nothing near `base`.
            entry(2, "Roll Safe", vec![far, far.with_flipped_bits(&[0])]),
        ])
    }

    #[test]
    fn matches_and_representative() {
        let s = site();
        let medoid = PHash(0xAAAA_BBBB_CCCC_DDDD);
        let anns = annotate_clusters(&[medoid], &s, ANNOTATION_THETA);
        assert_eq!(anns.len(), 1);
        let a = &anns[0];
        assert!(a.is_annotated());
        assert_eq!(a.entry_count(), 2);
        // Entry 1 matches 1/1 = 100%; entry 0 matches 2/3.
        assert_eq!(a.representative, Some(1));
        let m0 = a.matches.iter().find(|m| m.entry_id == 0).unwrap();
        assert_eq!(m0.matched_images, 2);
        assert_eq!(m0.gallery_size, 3);
        assert!((m0.proportion() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unmatched_medoid_is_unannotated() {
        let s = site();
        let medoid = PHash(0xFFFF_0000_FFFF_0000);
        let anns = annotate_clusters(&[medoid], &s, ANNOTATION_THETA);
        assert!(!anns[0].is_annotated());
        assert_eq!(anns[0].entry_count(), 0);
    }

    #[test]
    fn tie_breaks_by_avg_distance() {
        let base = PHash(0);
        // Both entries have 1/1 proportion; entry 1 is closer.
        let s = KymSite::new(vec![
            entry(0, "A", vec![base.with_flipped_bits(&[0, 1, 2])]),
            entry(1, "B", vec![base.with_flipped_bits(&[0])]),
        ]);
        let anns = annotate_clusters(&[base], &s, 8);
        assert_eq!(anns[0].representative, Some(1));
    }

    #[test]
    fn theta_zero_requires_exact_match() {
        let base = PHash(42);
        let s = KymSite::new(vec![entry(0, "A", vec![base])]);
        let exact = annotate_clusters(&[base], &s, 0);
        assert!(exact[0].is_annotated());
        let near = annotate_clusters(&[base.with_flipped_bits(&[5])], &s, 0);
        assert!(!near[0].is_annotated());
    }

    #[test]
    fn theta_past_the_mih_band_limit_degrades_instead_of_panicking() {
        // Regression: `MihIndex::new(.., 64)` panics (65 bands over 64
        // bits). At theta = 64 the brute-force answer is every image of
        // every gallery.
        let s = site();
        let anns = annotate_clusters(&[PHash(0xFFFF_0000_FFFF_0000)], &s, 64);
        let mut matched: Vec<(usize, usize)> = anns[0]
            .matches
            .iter()
            .map(|m| (m.entry_id, m.matched_images))
            .collect();
        matched.sort_unstable();
        assert_eq!(matched, [(0, 3), (1, 1), (2, 2)]);
    }

    #[test]
    fn clusters_per_entry_counts_all_matches() {
        let s = site();
        let base = PHash(0xAAAA_BBBB_CCCC_DDDD);
        let anns = annotate_clusters(&[base, base.with_flipped_bits(&[4])], &s, ANNOTATION_THETA);
        let cpe = clusters_per_entry(&anns, s.len());
        assert_eq!(cpe[0], 2); // entry 0 matches both medoids
        assert_eq!(cpe[1], 2);
        assert_eq!(cpe[2], 0);
    }

    #[test]
    fn empty_inputs() {
        let s = site();
        assert!(annotate_clusters(&[], &s, 8).is_empty());
        let empty = KymSite::default();
        let anns = annotate_clusters(&[PHash(0)], &empty, 8);
        assert!(!anns[0].is_annotated());
    }

    #[test]
    fn stats_variant_counts_work_and_matches_plain() {
        let s = site();
        let medoids = [PHash(0xAAAA_BBBB_CCCC_DDDD), PHash(0xFFFF_0000_FFFF_0000)];
        let (anns, stats) = annotate_clusters_with_stats(&medoids, &s, ANNOTATION_THETA);
        assert_eq!(anns, annotate_clusters(&medoids, &s, ANNOTATION_THETA));
        assert_eq!(stats.medoid_queries, 2);
        assert_eq!(stats.gallery_hashes, 6);
        assert_eq!(stats.annotated_clusters, 1);
    }
}
