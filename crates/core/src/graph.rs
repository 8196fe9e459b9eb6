//! The cluster graph of Fig. 7 (§4.1.3).
//!
//! "We build a graph G = (V, E), where V are the medoids of annotated
//! clusters and E the connections between medoids with distance under a
//! threshold κ … we select κ = 0.45 … we filter out nodes and edges
//! that have a sum of in- and out-degree less than 10 … We observe a
//! large set of disconnected components, with each component containing
//! nodes of primarily one color" — i.e. components are pure in their
//! representative annotation. The layout (OpenOrd) is presentation-only;
//! this module reproduces the quantitative structure and exports
//! DOT/JSON for external rendering.

use crate::metric::{ClusterDescriptor, ClusterDistance};
use serde::{Deserialize, Serialize};

/// Graph construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphConfig {
    /// Edge threshold κ (the paper uses 0.45).
    pub kappa: f64,
    /// Keep only nodes with degree ≥ this after edge construction
    /// (paper: 10; scaled datasets want smaller values).
    pub min_degree: usize,
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self {
            kappa: 0.45,
            min_degree: 10,
        }
    }
}

/// The κ-threshold cluster graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterGraph {
    /// Node ids = indices into the descriptor list the graph was built
    /// from; only surviving (degree-filtered) nodes are present.
    pub nodes: Vec<usize>,
    /// Node labels (representative annotation names).
    pub labels: Vec<String>,
    /// Edges as `(node position in `nodes`, node position, distance)`.
    pub edges: Vec<(usize, usize, f64)>,
    /// Connected-component id per node position.
    pub components: Vec<usize>,
    /// Number of components.
    pub n_components: usize,
}

impl ClusterGraph {
    /// Build from cluster descriptors and display labels (one per
    /// descriptor; typically the representative KYM entry name).
    ///
    /// # Panics
    /// Panics when `labels.len() != descriptors.len()`.
    pub fn build(
        descriptors: &[ClusterDescriptor],
        labels: &[String],
        metric: &ClusterDistance,
        config: &GraphConfig,
    ) -> Self {
        assert_eq!(
            descriptors.len(),
            labels.len(),
            "need one label per descriptor"
        );
        let n = descriptors.len();
        // All-pairs edges under kappa.
        let mut degree = vec![0usize; n];
        let mut raw_edges: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = metric.distance(&descriptors[i], &descriptors[j]);
                if d <= config.kappa {
                    raw_edges.push((i, j, d));
                    degree[i] += 1;
                    degree[j] += 1;
                }
            }
        }
        // Degree filter (paper counts both endpoints' degrees).
        let keep: Vec<bool> = degree.iter().map(|&d| d >= config.min_degree).collect();
        let nodes: Vec<usize> = (0..n).filter(|&i| keep[i]).collect();
        let mut position = vec![usize::MAX; n];
        for (pos, &i) in nodes.iter().enumerate() {
            position[i] = pos;
        }
        let edges: Vec<(usize, usize, f64)> = raw_edges
            .into_iter()
            .filter(|(i, j, _)| keep[*i] && keep[*j])
            .map(|(i, j, d)| (position[i], position[j], d))
            .collect();

        // Connected components (union-find).
        let m = nodes.len();
        let mut parent: Vec<usize> = (0..m).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &(a, b, _) in &edges {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
        let mut components = vec![usize::MAX; m];
        let mut n_components = 0;
        for pos in 0..m {
            let root = find(&mut parent, pos);
            if components[root] == usize::MAX {
                components[root] = n_components;
                n_components += 1;
            }
            components[pos] = components[root];
        }

        Self {
            labels: nodes.iter().map(|&i| labels[i].clone()).collect(),
            nodes,
            edges,
            components,
            n_components,
        }
    }

    /// Number of surviving nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of surviving edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Mean component purity: for each component, the share of nodes
    /// carrying the component's most common label, weighted by
    /// component size. The paper's "each component containing nodes of
    /// primarily one color" corresponds to a purity near 1.
    pub fn component_purity(&self) -> f64 {
        use std::collections::HashMap;
        if self.nodes.is_empty() {
            return 1.0;
        }
        let mut total_majority = 0usize;
        for comp in 0..self.n_components {
            let mut counts: HashMap<&str, usize> = HashMap::new();
            let mut size = 0usize;
            for (pos, &c) in self.components.iter().enumerate() {
                if c == comp {
                    *counts.entry(self.labels[pos].as_str()).or_insert(0) += 1;
                    size += 1;
                }
            }
            let _ = size;
            total_majority += counts.values().max().copied().unwrap_or(0);
        }
        total_majority as f64 / self.nodes.len() as f64
    }

    /// Graphviz DOT export (undirected), labels on nodes, component id
    /// as color index.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("graph memes {\n  overlap=false;\n");
        for (pos, label) in self.labels.iter().enumerate() {
            out.push_str(&format!(
                "  n{pos} [label=\"{}\", colorscheme=set312, color={}];\n",
                label.replace('"', "'"),
                (self.components[pos] % 12) + 1
            ));
        }
        for &(a, b, d) in &self.edges {
            out.push_str(&format!("  n{a} -- n{b} [weight={:.3}];\n", 1.0 - d));
        }
        out.push_str("}\n");
        out
    }

    /// JSON export for the interactive-visualization use case the paper
    /// published at memespaper.github.io.
    pub fn to_json(&self) -> String {
        // lint:allow(panic-reachable): vendored serde serialization of plain structs is infallible
        serde_json::to_string_pretty(self).expect("graph serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meme_phash::PHash;
    use std::collections::HashSet;

    /// Two families of annotated clusters, far apart perceptually and
    /// disjoint in annotations.
    fn families() -> (Vec<ClusterDescriptor>, Vec<String>) {
        let mut descriptors = Vec::new();
        let mut labels = Vec::new();
        let base_a = PHash(0);
        let base_b = PHash(u64::MAX);
        for k in 0..6u8 {
            descriptors.push(ClusterDescriptor {
                medoid: base_a.with_flipped_bits(&[k]),
                annotated: true,
                memes: HashSet::from(["Smug Frog".to_string()]),
                people: HashSet::new(),
                cultures: HashSet::new(),
            });
            labels.push("Smug Frog".to_string());
            descriptors.push(ClusterDescriptor {
                medoid: base_b.with_flipped_bits(&[k]),
                annotated: true,
                memes: HashSet::from(["Roll Safe".to_string()]),
                people: HashSet::new(),
                cultures: HashSet::new(),
            });
            labels.push("Roll Safe".to_string());
        }
        (descriptors, labels)
    }

    fn config() -> GraphConfig {
        GraphConfig {
            kappa: 0.45,
            min_degree: 2,
        }
    }

    #[test]
    fn families_form_pure_components() {
        let (ds, labels) = families();
        let g = ClusterGraph::build(&ds, &labels, &ClusterDistance::default(), &config());
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.n_components, 2);
        assert_eq!(g.component_purity(), 1.0);
        // No cross-family edges.
        for &(a, b, _) in &g.edges {
            assert_eq!(g.labels[a], g.labels[b]);
        }
    }

    #[test]
    fn degree_filter_drops_isolated_nodes() {
        let (mut ds, mut labels) = families();
        // A singleton far from everything.
        ds.push(ClusterDescriptor::unannotated(PHash(0xF0F0_F0F0)));
        labels.push("loner".to_string());
        let g = ClusterGraph::build(&ds, &labels, &ClusterDistance::default(), &config());
        assert_eq!(g.node_count(), 12);
        assert!(!g.labels.contains(&"loner".to_string()));
    }

    #[test]
    fn kappa_zero_keeps_nothing() {
        let (ds, labels) = families();
        let g = ClusterGraph::build(
            &ds,
            &labels,
            &ClusterDistance::default(),
            &GraphConfig {
                kappa: 0.0,
                min_degree: 1,
            },
        );
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn empty_input() {
        let g = ClusterGraph::build(
            &[],
            &[],
            &ClusterDistance::default(),
            &GraphConfig::default(),
        );
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.n_components, 0);
        assert_eq!(g.component_purity(), 1.0);
    }

    #[test]
    fn exports_are_well_formed() {
        let (ds, labels) = families();
        let g = ClusterGraph::build(&ds, &labels, &ClusterDistance::default(), &config());
        let dot = g.to_dot();
        assert!(dot.starts_with("graph memes {"));
        assert!(dot.contains("Smug Frog"));
        assert!(dot.ends_with("}\n"));
        let json = g.to_json();
        assert!(json.contains("\"edges\""));
        // Round-trips through serde structurally (floats may lose a
        // final digit in decimal form).
        let back: ClusterGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back.nodes, g.nodes);
        assert_eq!(back.labels, g.labels);
        assert_eq!(back.components, g.components);
        assert_eq!(back.edge_count(), g.edge_count());
    }

    #[test]
    #[should_panic(expected = "one label per descriptor")]
    fn mismatched_labels_panic() {
        let (ds, _) = families();
        let _ = ClusterGraph::build(&ds, &[], &ClusterDistance::default(), &config());
    }
}
