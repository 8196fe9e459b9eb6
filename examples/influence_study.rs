//! Influence study: fit multivariate Hawkes models to per-meme event
//! streams with EM and compare the recovered influence against the
//! simulator's ground-truth lineage — the §5 experiment in miniature.
//!
//! ```text
//! cargo run --release --example influence_study
//! ```

use origins_of_memes::core::pipeline::{Pipeline, PipelineConfig};
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::hawkes::{InfluenceEstimator, InfluenceMatrix};
use origins_of_memes::metrics::Metrics;
use origins_of_memes::simweb::{Community, SimConfig};

fn print_matrix(title: &str, m: &[Vec<f64>]) {
    println!("--- {title} ---");
    print!("{:>9}", "src\\dst");
    for c in Community::ALL {
        print!("{:>9}", c.name());
    }
    println!();
    for (src, row) in m.iter().enumerate() {
        print!("{:>9}", Community::ALL[src].name());
        for v in row {
            print!("{v:>8.1}%");
        }
        println!();
    }
}

fn main() {
    let dataset = SimConfig::tiny(7).generate();
    let output = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .run(&dataset)
        .expect("pipeline runs")
        .expect_complete();

    // Ground truth influence from the simulator's lineage.
    let mut truth = vec![vec![0.0f64; Community::COUNT]; Community::COUNT];
    for (post, occ) in dataset.posts.iter().zip(&output.occurrences) {
        if occ.is_none() {
            continue;
        }
        if let Some(root) = post.true_root {
            truth[root.index()][post.community.index()] += 1.0;
        }
    }
    let truth = InfluenceMatrix::from_counts(truth);

    // EM at the generator's kernel decay β = 3, then root-cause
    // attribution per cluster.
    let estimator = InfluenceEstimator::new(Community::COUNT, 3.0);
    let (fit, _) = output
        .estimate_influence(&dataset, &estimator, 0, &Metrics::disabled())
        .expect("a fresh run keeps cluster ids in range");

    println!("percent of destination events caused by each source (Fig. 11 view):\n");
    let truth_pct = truth.percent_of_destination();
    let fit_pct = fit.total.percent_of_destination();
    print_matrix("ground truth (simulator lineage)", &truth_pct);
    print_matrix("EM fit + root-cause attribution", &fit_pct);

    let cells = Community::COUNT * Community::COUNT;
    let mae = fit_pct
        .iter()
        .flatten()
        .zip(truth_pct.iter().flatten())
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / cells as f64;
    println!("\nmean absolute cell error vs truth: {mae:.2} percentage points");

    println!("\nexternal efficiency (Fig. 12's 'Total Ext' column), fitted vs truth:");
    let ext = fit.total.total_external_normalized();
    let ext_truth = truth.total_external_normalized();
    for c in Community::ALL {
        let i = c.index();
        println!(
            "  {:<8} {:>7.2}%  (truth {:>6.2}%)",
            c.name(),
            ext[i],
            ext_truth[i]
        );
    }
}
