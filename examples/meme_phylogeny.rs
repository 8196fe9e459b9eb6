//! Meme phylogeny: use the paper's custom cluster distance metric
//! (§2.3) to build a dendrogram of meme variants (Fig. 6) and the
//! κ-threshold cluster graph (Fig. 7).
//!
//! ```text
//! cargo run --release --example meme_phylogeny
//! ```

use origins_of_memes::cluster::hier::Linkage;
use origins_of_memes::core::dendro::Phylogeny;
use origins_of_memes::core::graph::{ClusterGraph, GraphConfig};
use origins_of_memes::core::metric::{ClusterDescriptor, ClusterDistance};
use origins_of_memes::core::pipeline::{Pipeline, PipelineConfig};
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::simweb::{Community, SimConfig};

fn main() {
    let dataset = SimConfig::tiny(42).generate();
    let output = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .run(&dataset)
        .expect("pipeline runs")
        .expect_complete();

    // Describe every annotated cluster: medoid hash + the union of its
    // KYM annotations (meme names, people, cultures).
    let mut descriptors = Vec::new();
    let mut labels = Vec::new();
    for ann in output.annotations.iter().filter(|a| a.is_annotated()) {
        let rep = output.site.entry(ann.representative.expect("annotated"));
        descriptors.push(ClusterDescriptor::from_annotation(
            output.medoid_hashes[ann.cluster],
            ann,
            &output.site,
        ));
        let medoid_post = output.medoid_posts[ann.cluster];
        let prefix = match dataset.posts[medoid_post].community {
            Community::Pol => "4",
            Community::TheDonald => "D",
            Community::Gab => "G",
            _ => "?",
        };
        labels.push(format!(
            "{prefix}@{}",
            rep.name.to_lowercase().replace(' ', "-")
        ));
    }
    println!("{} annotated clusters described", descriptors.len());

    let metric = ClusterDistance::default();

    // Eq. 2 in action: the perceptual decay for the paper's tau = 25.
    println!("\nr_perceptual under tau = 25 (Fig. 3's middle curve):");
    for d in [0u32, 4, 8, 16, 32, 64] {
        println!("  d = {d:>2}: {:.3}", metric.r_perceptual(d));
    }

    // Fig. 6: hierarchical clustering of the described clusters.
    if let Some(phylo) = Phylogeny::build(&descriptors, labels.clone(), &metric) {
        let families = phylo.family_listing(0.45);
        println!("\ndendrogram cut at 0.45 -> {} families:", families.len());
        for (i, family) in families.iter().enumerate().take(8) {
            println!(
                "  family {i}: {} clusters, e.g. {}",
                family.len(),
                family
                    .iter()
                    .take(4)
                    .copied()
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        let _ = Linkage::Average; // the linkage the phylogeny uses
    }

    // Fig. 7: the kappa-threshold graph.
    let graph = ClusterGraph::build(
        &descriptors,
        &labels,
        &metric,
        &GraphConfig {
            kappa: 0.45,
            min_degree: 1,
        },
    );
    println!(
        "\ncluster graph at kappa 0.45: {} nodes, {} edges, {} components, purity {:.2}",
        graph.node_count(),
        graph.edge_count(),
        graph.n_components,
        graph.component_purity()
    );
    println!("\nGraphviz DOT (first lines):");
    for line in graph.to_dot().lines().take(6) {
        println!("  {line}");
    }
}
