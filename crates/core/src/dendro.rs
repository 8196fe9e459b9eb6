//! Meme phylogenies — the Fig. 6 dendrogram machinery (§4.1.2).
//!
//! "Intuitively, clusters that look alike and/or are part of the same
//! meme are grouped together under the same branch of an evolutionary
//! tree. We use the custom distance metric … aiming to infer the
//! phylogenetic relationship between variants of memes." The paper's
//! worked example is the frog-meme family: 525 clusters falling into
//! four large branches (Apu Apustaja, Sad Frog, Pepe, Smug Frog).

use crate::metric::{ClusterDescriptor, ClusterDistance};
use meme_cluster::hier::{Dendrogram, Linkage};
use serde::{Deserialize, Serialize};

/// A phylogeny over a set of labeled clusters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phylogeny {
    /// Display label per leaf (e.g. `4@smug-frog` in the paper's
    /// community@meme notation).
    pub labels: Vec<String>,
    /// The dendrogram (leaves in `labels` order).
    pub dendrogram: Dendrogram,
}

impl Phylogeny {
    /// Build from descriptors under the custom metric with average
    /// linkage (the paper's choice). Returns `None` for fewer than two
    /// clusters.
    pub fn build(
        descriptors: &[ClusterDescriptor],
        labels: Vec<String>,
        metric: &ClusterDistance,
    ) -> Option<Self> {
        if descriptors.len() < 2 || descriptors.len() != labels.len() {
            return None;
        }
        let condensed = metric.condensed_matrix(descriptors);
        let dendrogram = Dendrogram::build(descriptors.len(), &condensed, Linkage::Average)?;
        Some(Self { labels, dendrogram })
    }

    /// Cut into families at a threshold (the paper cuts the frog tree
    /// at ≈ 0.45) and return `(family id per leaf, family count)`.
    pub fn families(&self, threshold: f64) -> (Vec<usize>, usize) {
        let labels = self.dendrogram.cut(threshold);
        let count = labels.iter().copied().max().map_or(0, |m| m + 1);
        (labels, count)
    }

    /// Group leaf labels by family at a threshold, largest family
    /// first — the textual rendering of Fig. 6 used by `memes repro fig6`.
    pub fn family_listing(&self, threshold: f64) -> Vec<Vec<&str>> {
        let (fams, count) = self.families(threshold);
        let mut out: Vec<Vec<&str>> = vec![Vec::new(); count];
        for (leaf, &f) in fams.iter().enumerate() {
            out[f].push(self.labels[leaf].as_str());
        }
        out.sort_by_key(|v| std::cmp::Reverse(v.len()));
        out
    }

    /// Newick serialization of the tree (heights as branch lengths),
    /// for external dendrogram renderers.
    pub fn to_newick(&self) -> String {
        let merges = self.dendrogram.merges();
        // node id -> newick string and height at which it was created.
        let mut repr: Vec<(String, f64)> = self
            .labels
            .iter()
            .map(|l| (l.replace([',', '(', ')', ':', ';'], "_"), 0.0))
            .collect();
        for m in merges {
            // Each node is merged exactly once, so its string moves into
            // its parent: copies would cost a chain-shaped tree O(n²) bytes.
            let (sa, ha) = std::mem::take(&mut repr[m.a]);
            let (sb, hb) = std::mem::take(&mut repr[m.b]);
            let branch_a = (m.height - ha).max(0.0);
            let branch_b = (m.height - hb).max(0.0);
            repr.push((format!("({sa}:{branch_a:.4},{sb}:{branch_b:.4})"), m.height));
        }
        // An empty dendrogram (no labels, no merges) renders as the
        // empty tree `;` instead of panicking.
        let root = repr.pop().map(|(s, _)| s).unwrap_or_default();
        format!("{root};")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meme_phash::PHash;
    use std::collections::HashSet;

    fn frog(medoid: PHash, meme: &str) -> ClusterDescriptor {
        ClusterDescriptor {
            medoid,
            annotated: true,
            memes: HashSet::from([meme.to_string()]),
            people: HashSet::new(),
            cultures: HashSet::from(["Frog Memes".to_string()]),
        }
    }

    /// Two frog memes, three clusters each; within-meme medoids are
    /// close, across-meme medoids are far.
    fn frog_fixture() -> (Vec<ClusterDescriptor>, Vec<String>) {
        let smug = PHash(0x0F0F_0F0F_0F0F_0F0F);
        let sad = PHash(0xF0F0_0000_FFFF_AAAA);
        let mut ds = Vec::new();
        let mut labels = Vec::new();
        for k in 0..3u8 {
            ds.push(frog(smug.with_flipped_bits(&[k]), "Smug Frog"));
            labels.push(format!("4@smug-frog-{k}"));
            ds.push(frog(sad.with_flipped_bits(&[k]), "Sad Frog"));
            labels.push(format!("D@sad-frog-{k}"));
        }
        (ds, labels)
    }

    #[test]
    fn needs_at_least_two_leaves() {
        let (ds, labels) = frog_fixture();
        assert!(
            Phylogeny::build(&ds[..1], labels[..1].to_vec(), &ClusterDistance::default()).is_none()
        );
        assert!(Phylogeny::build(&ds, labels[..2].to_vec(), &ClusterDistance::default()).is_none());
    }

    #[test]
    fn memes_separate_into_families() {
        let (ds, labels) = frog_fixture();
        let p = Phylogeny::build(&ds, labels, &ClusterDistance::default()).unwrap();
        let (fams, count) = p.families(0.45);
        assert_eq!(count, 2, "families {fams:?}");
        // All smug leaves share a family distinct from sad leaves.
        assert_eq!(fams[0], fams[2]);
        assert_eq!(fams[1], fams[3]);
        assert_ne!(fams[0], fams[1]);
    }

    #[test]
    fn family_listing_groups_labels() {
        let (ds, labels) = frog_fixture();
        let p = Phylogeny::build(&ds, labels, &ClusterDistance::default()).unwrap();
        let listing = p.family_listing(0.45);
        assert_eq!(listing.len(), 2);
        for family in &listing {
            let smug = family.iter().filter(|l| l.contains("smug")).count();
            assert!(smug == 0 || smug == family.len(), "mixed family {family:?}");
        }
    }

    #[test]
    fn newick_is_well_formed() {
        let (ds, labels) = frog_fixture();
        let p = Phylogeny::build(&ds, labels, &ClusterDistance::default()).unwrap();
        let nw = p.to_newick();
        assert!(nw.ends_with(';'));
        assert_eq!(nw.matches('(').count(), nw.matches(')').count());
        assert_eq!(nw.matches('(').count(), 5); // n-1 internal nodes
        assert!(nw.contains("4@smug-frog-0"));
    }

    /// The clone-per-merge builder `to_newick` replaced.
    fn newick_by_cloning(p: &Phylogeny) -> String {
        let mut repr: Vec<(String, f64)> = p
            .labels
            .iter()
            .map(|l| (l.replace([',', '(', ')', ':', ';'], "_"), 0.0))
            .collect();
        for m in p.dendrogram.merges() {
            let (sa, ha) = repr[m.a].clone();
            let (sb, hb) = repr[m.b].clone();
            let branch_a = (m.height - ha).max(0.0);
            let branch_b = (m.height - hb).max(0.0);
            repr.push((format!("({sa}:{branch_a:.4},{sb}:{branch_b:.4})"), m.height));
        }
        let root = repr.last().map(|(s, _)| s.clone()).unwrap_or_default();
        format!("{root};")
    }

    #[test]
    fn newick_moves_equal_the_cloning_builder() {
        let (ds, labels) = frog_fixture();
        let p = Phylogeny::build(&ds, labels, &ClusterDistance::default()).unwrap();
        assert_eq!(p.to_newick(), newick_by_cloning(&p));

        // A chain: leaves on a line with growing gaps, so single linkage
        // adds one leaf per merge and the tree is n - 1 levels deep —
        // the shape where copying child strings is quadratic.
        let n = 300;
        let pos = |i: usize| (i * (i + 1) / 2) as f64;
        let mut condensed = vec![0.0; n * (n - 1) / 2];
        for i in 0..n {
            for j in i + 1..n {
                condensed[meme_cluster::hier::condensed_index(n, i, j)] = pos(j) - pos(i);
            }
        }
        let dendrogram = Dendrogram::build(n, &condensed, Linkage::Single).unwrap();
        assert!(dendrogram
            .merges()
            .iter()
            .enumerate()
            .all(|(k, m)| m.size == k + 2));
        let chain = Phylogeny {
            labels: (0..n).map(|i| format!("leaf:{i}")).collect(),
            dendrogram,
        };
        assert_eq!(chain.to_newick(), newick_by_cloning(&chain));
    }

    #[test]
    fn cut_extremes() {
        let (ds, labels) = frog_fixture();
        let p = Phylogeny::build(&ds, labels, &ClusterDistance::default()).unwrap();
        let (_, all_separate) = p.families(-0.1);
        assert_eq!(all_separate, 6);
        let (_, all_joined) = p.families(1.1);
        assert_eq!(all_joined, 1);
    }
}
