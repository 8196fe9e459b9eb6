//! Quickstart: simulate a small Web ecosystem and run the paper's
//! seven-step pipeline end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use origins_of_memes::core::pipeline::{Pipeline, PipelineConfig, FIT_BETA};
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::metrics::Metrics;
use origins_of_memes::simweb::{Community, SimConfig};

fn main() {
    // 1. A deterministic synthetic ecosystem: five communities, a
    //    ground-truth meme universe, and a synthetic Know Your Meme
    //    site. Everything derives from the seed.
    let dataset = SimConfig::tiny(2024).generate();
    println!(
        "dataset: {} image posts across {} communities, {} memes, {} KYM entries",
        dataset.posts.len(),
        Community::COUNT,
        dataset.universe.len(),
        dataset.kym_raw.len()
    );

    // 2. Steps 1-6: hash, cluster, filter, annotate, associate.
    //    `PipelineConfig::fast()` uses the ground-truth screenshot
    //    oracle; `PipelineConfig::default()` trains the Appendix-C CNN.
    let output = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .run(&dataset)
        .expect("pipeline runs")
        .expect_complete();
    println!(
        "clustering: {} clusters, {:.1}% noise",
        output.clustering.n_clusters(),
        100.0 * output.clustering.noise_fraction()
    );
    let annotated = output.annotated_clusters();
    println!(
        "annotation: {} clusters matched KYM entries",
        annotated.len()
    );

    // Inspect the top annotated cluster.
    if let Some(&cluster) = annotated.first() {
        if let Some(entry) = output.representative_entry(cluster) {
            println!(
                "cluster {cluster}: '{}' ({}), medoid hash {}",
                entry.name,
                entry.category.name(),
                output.medoid_hashes[cluster]
            );
        }
    }

    // 3. Step 7: fit a Hawkes model per annotated cluster and estimate
    //    which community drives the meme ecosystem.
    //    Clusters whose fit fails are skipped and named in `skipped`.
    let (influence, skipped) = output
        .estimate_influence(&dataset, FIT_BETA, &Metrics::disabled())
        .expect("a fresh run keeps cluster ids in range");
    for s in &skipped {
        println!("  {s}");
    }
    let ext = influence.total.total_external_normalized();
    println!("\nper-community external influence (normalized, % of own events):");
    for c in Community::ALL {
        println!("  {:<8} {:>7.2}%", c.name(), ext[c.index()]);
    }
    let best = Community::ALL
        .into_iter()
        .max_by(|a, b| ext[a.index()].partial_cmp(&ext[b.index()]).expect("finite"))
        .expect("non-empty");
    println!("most efficient meme spreader: {}", best.name());
}
