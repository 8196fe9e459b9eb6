//! The custom cluster distance metric (§2.3, Eq. 1–2).
//!
//! `distance(c_i, c_j) = 1 − Σ_f w_f · r_f(c_i, c_j)` over four features:
//! perceptual similarity of the medoids, and Jaccard similarity of the
//! clusters' KYM `meme`, `people` and `culture` annotation sets.
//!
//! **Full mode** (both clusters annotated) uses
//! `w = (0.4, 0.4, 0.1, 0.1)`; **partial mode** (at most one annotated)
//! uses only the perceptual feature.
//!
//! ## A note on Eq. 2
//!
//! The paper typesets the perceptual similarity as
//! `r(d) = 1 − d / (τ · e^{max/τ})`, which is *linear* in `d` and
//! contradicts the surrounding text ("an exponential decay function"),
//! Fig. 3's curves, and both quoted values (τ=1: r(1) ≈ 0.4;
//! τ=64: r(1) ≈ 0.98). The function consistent with all of those is the
//! plain exponential decay `r(d) = e^{−d/τ}` (τ=1 ⇒ e^{−1} ≈ 0.37;
//! τ=64 ⇒ e^{−1/64} ≈ 0.984; near-linear decay for τ = max). We
//! implement that and record the discrepancy in EXPERIMENTS.md.

use meme_annotate::annotator::ClusterAnnotation;
use meme_annotate::kym::{KymCategory, KymSite};
use meme_phash::PHash;
use meme_stats::sets::jaccard;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Feature weights for Eq. 1. Must sum to 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricWeights {
    /// Weight of the perceptual feature.
    pub perceptual: f64,
    /// Weight of the meme-name Jaccard feature.
    pub meme: f64,
    /// Weight of the people Jaccard feature.
    pub people: f64,
    /// Weight of the culture Jaccard feature.
    pub culture: f64,
}

impl MetricWeights {
    /// The paper's full-mode weights (0.4 / 0.4 / 0.1 / 0.1).
    pub const FULL: MetricWeights = MetricWeights {
        perceptual: 0.4,
        meme: 0.4,
        people: 0.1,
        culture: 0.1,
    };

    /// The paper's partial-mode weights (perceptual only).
    pub const PARTIAL: MetricWeights = MetricWeights {
        perceptual: 1.0,
        meme: 0.0,
        people: 0.0,
        culture: 0.0,
    };

    /// Validate that the weights are non-negative and sum to 1.
    pub fn is_valid(&self) -> bool {
        let vals = [self.perceptual, self.meme, self.people, self.culture];
        vals.iter().all(|w| *w >= 0.0 && w.is_finite())
            && (vals.iter().sum::<f64>() - 1.0).abs() < 1e-9
    }
}

/// Everything the metric needs to know about one cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterDescriptor {
    /// The cluster's medoid hash.
    pub medoid: PHash,
    /// Whether the cluster carries KYM annotations.
    pub annotated: bool,
    /// Names of matched meme-category entries.
    pub memes: HashSet<String>,
    /// People annotations (union over matched entries).
    pub people: HashSet<String>,
    /// Culture annotations (union over matched entries).
    pub cultures: HashSet<String>,
}

impl ClusterDescriptor {
    /// An unannotated cluster (partial-mode only).
    pub fn unannotated(medoid: PHash) -> Self {
        Self {
            medoid,
            annotated: false,
            memes: HashSet::new(),
            people: HashSet::new(),
            cultures: HashSet::new(),
        }
    }

    /// Build from a Step-5 annotation. Uses **all** matched entries, not
    /// only the representative one ("we use all the annotations for each
    /// category and not only the representative one", §2.3).
    pub fn from_annotation(medoid: PHash, annotation: &ClusterAnnotation, site: &KymSite) -> Self {
        let mut memes = HashSet::new();
        let mut people = HashSet::new();
        let mut cultures = HashSet::new();
        for m in &annotation.matches {
            let Some(entry) = site.get(m.entry_id) else {
                continue;
            };
            match entry.category {
                KymCategory::Meme | KymCategory::Subculture => {
                    memes.insert(entry.name.clone());
                }
                KymCategory::Person => {
                    people.insert(entry.name.clone());
                }
                KymCategory::Culture => {
                    cultures.insert(entry.name.clone());
                }
                KymCategory::Event | KymCategory::Site => {
                    memes.insert(entry.name.clone());
                }
            }
            for p in &entry.people {
                people.insert(p.clone());
            }
            for c in &entry.cultures {
                cultures.insert(c.clone());
            }
        }
        Self {
            medoid,
            annotated: annotation.is_annotated(),
            memes,
            people,
            cultures,
        }
    }
}

/// The metric itself.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterDistance {
    /// The smoother τ of Eq. 2 (the paper sets 25).
    pub tau: f64,
    /// Full-mode weights.
    pub full: MetricWeights,
    /// Partial-mode weights.
    pub partial: MetricWeights,
}

impl Default for ClusterDistance {
    fn default() -> Self {
        Self {
            tau: 25.0,
            full: MetricWeights::FULL,
            partial: MetricWeights::PARTIAL,
        }
    }
}

impl ClusterDistance {
    /// A metric with a custom smoother.
    ///
    /// # Panics
    /// Panics when `tau <= 0` or a weight set is invalid.
    pub fn with_tau(tau: f64) -> Self {
        assert!(tau > 0.0, "tau must be positive");
        Self {
            tau,
            ..Self::default()
        }
    }

    /// Eq. 2: perceptual similarity of two medoids at Hamming distance
    /// `d` (see the module docs for the exact functional form).
    pub fn r_perceptual(&self, d: u32) -> f64 {
        (-(d as f64) / self.tau).exp()
    }

    /// Eq. 1: distance between two described clusters in `[0, 1]`.
    /// Full mode when both are annotated, partial mode otherwise.
    pub fn distance(&self, a: &ClusterDescriptor, b: &ClusterDescriptor) -> f64 {
        debug_assert!(self.full.is_valid() && self.partial.is_valid());
        let d = a.medoid.distance(b.medoid);
        let rp = self.r_perceptual(d);
        let w = if a.annotated && b.annotated {
            self.full
        } else {
            self.partial
        };
        let mut sim = w.perceptual * rp;
        if w.meme > 0.0 {
            sim += w.meme * jaccard(&a.memes, &b.memes);
        }
        if w.people > 0.0 {
            sim += w.people * jaccard(&a.people, &b.people);
        }
        if w.culture > 0.0 {
            sim += w.culture * jaccard(&a.cultures, &b.cultures);
        }
        (1.0 - sim).clamp(0.0, 1.0)
    }

    /// Condensed pairwise distance matrix over descriptors, in the
    /// layout `meme_cluster::hier::condensed_index` expects.
    pub fn condensed_matrix(&self, descriptors: &[ClusterDescriptor]) -> Vec<f64> {
        let n = descriptors.len();
        let mut out = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                out.push(self.distance(&descriptors[i], &descriptors[j]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor(
        medoid: PHash,
        memes: &[&str],
        people: &[&str],
        cultures: &[&str],
    ) -> ClusterDescriptor {
        ClusterDescriptor {
            medoid,
            annotated: true,
            memes: memes.iter().map(|s| s.to_string()).collect(),
            people: people.iter().map(|s| s.to_string()).collect(),
            cultures: cultures.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn weights_validate() {
        assert!(MetricWeights::FULL.is_valid());
        assert!(MetricWeights::PARTIAL.is_valid());
        let bad = MetricWeights {
            perceptual: 0.5,
            meme: 0.5,
            people: 0.5,
            culture: 0.0,
        };
        assert!(!bad.is_valid());
    }

    #[test]
    fn r_perceptual_matches_paper_quotes() {
        // τ = 1: similarity drops to ~0.4 at d = 1.
        let m1 = ClusterDistance::with_tau(1.0);
        assert!((m1.r_perceptual(1) - 0.368).abs() < 0.05);
        assert_eq!(m1.r_perceptual(0), 1.0);
        // τ = 64: r(1) ≈ 0.98, near-linear decay.
        let m64 = ClusterDistance::with_tau(64.0);
        assert!((m64.r_perceptual(1) - 0.98).abs() < 0.01);
        // τ = 25 (production): high values up to d = 8.
        let m25 = ClusterDistance::default();
        assert!(m25.r_perceptual(8) > 0.7);
        assert!(m25.r_perceptual(30) < 0.35);
    }

    #[test]
    fn r_perceptual_is_monotone_decreasing() {
        let m = ClusterDistance::default();
        for d in 0..64 {
            assert!(m.r_perceptual(d) > m.r_perceptual(d + 1));
        }
    }

    #[test]
    fn identical_annotated_clusters_have_zero_distance() {
        let a = descriptor(PHash(7), &["Smug Frog"], &["Donald Trump"], &["Alt-Right"]);
        let m = ClusterDistance::default();
        assert!(m.distance(&a, &a) < 1e-9);
    }

    #[test]
    fn same_meme_similar_image_is_close() {
        // Paper: "it will be at most 0.2 if people and culture do not
        // match, and 0.0 if they also match".
        let a = descriptor(PHash(0), &["Smug Frog"], &["X"], &["C1"]);
        let b = ClusterDescriptor {
            medoid: PHash(0).with_flipped_bits(&[1]),
            ..descriptor(PHash(0), &["Smug Frog"], &["Y"], &["C2"])
        };
        let m = ClusterDistance::default();
        let d = m.distance(&a, &b);
        assert!(d <= 0.25, "distance {d}");
        assert!(d > 0.0);
    }

    #[test]
    fn same_image_different_meme_is_moderately_close() {
        // "our metric also assigns small distance values … when two
        // clusters use the same image for different memes".
        let a = descriptor(PHash(0), &["A"], &[], &[]);
        let b = descriptor(PHash(0), &["B"], &[], &[]);
        let m = ClusterDistance::default();
        let d = m.distance(&a, &b);
        // Perceptual 0.4 preserved; meme Jaccard 0; people/culture both
        // empty -> Jaccard 1 by convention.
        assert!((d - (1.0 - 0.4 - 0.2)).abs() < 1e-9, "distance {d}");
    }

    #[test]
    fn unannotated_pair_uses_partial_mode() {
        let a = ClusterDescriptor::unannotated(PHash(0));
        let b = ClusterDescriptor::unannotated(PHash(0).with_flipped_bits(&[0, 1, 2]));
        let m = ClusterDistance::default();
        let d = m.distance(&a, &b);
        let expected = 1.0 - m.r_perceptual(3);
        assert!((d - expected).abs() < 1e-12);
    }

    #[test]
    fn mixed_pair_uses_partial_mode() {
        let a = descriptor(PHash(0), &["Smug Frog"], &[], &[]);
        let b = ClusterDescriptor::unannotated(PHash(0));
        let m = ClusterDistance::default();
        // Identical medoids, partial mode: distance 0 regardless of
        // annotations.
        assert!(m.distance(&a, &b) < 1e-12);
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let a = descriptor(PHash(123), &["A", "B"], &["P"], &[]);
        let b = descriptor(PHash(456), &["B"], &[], &["C"]);
        let m = ClusterDistance::default();
        assert_eq!(m.distance(&a, &b), m.distance(&b, &a));
        let d = m.distance(&a, &b);
        assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn condensed_matrix_layout() {
        let ds: Vec<ClusterDescriptor> = (0..4)
            .map(|i| ClusterDescriptor::unannotated(PHash(i)))
            .collect();
        let m = ClusterDistance::default();
        let c = m.condensed_matrix(&ds);
        assert_eq!(c.len(), 6);
        use meme_cluster::hier::condensed_index;
        assert_eq!(c[condensed_index(4, 1, 3)], m.distance(&ds[1], &ds[3]));
    }

    #[test]
    fn from_annotation_collects_all_matched_entries() {
        use meme_annotate::annotator::{ClusterAnnotation, EntryMatch};
        use meme_annotate::kym::KymEntry;
        let site = KymSite::new(vec![
            KymEntry {
                id: 0,
                name: "Smug Frog".into(),
                category: KymCategory::Meme,
                tags: vec![],
                origin: "4chan".into(),
                gallery: vec![],
                people: vec!["Donald Trump".into()],
                cultures: vec!["Frog Memes".into()],
            },
            KymEntry {
                id: 1,
                name: "Alt-Right".into(),
                category: KymCategory::Culture,
                tags: vec![],
                origin: "4chan".into(),
                gallery: vec![],
                people: vec![],
                cultures: vec![],
            },
        ]);
        let ann = ClusterAnnotation {
            cluster: 0,
            matches: vec![
                EntryMatch {
                    entry_id: 0,
                    matched_images: 2,
                    gallery_size: 2,
                    avg_distance: 1.0,
                },
                EntryMatch {
                    entry_id: 1,
                    matched_images: 1,
                    gallery_size: 4,
                    avg_distance: 3.0,
                },
            ],
            representative: Some(0),
        };
        let d = ClusterDescriptor::from_annotation(PHash(9), &ann, &site);
        assert!(d.annotated);
        assert!(d.memes.contains("Smug Frog"));
        assert!(d.cultures.contains("Alt-Right"));
        assert!(d.cultures.contains("Frog Memes"));
        assert!(d.people.contains("Donald Trump"));
    }
}
