//! Influence study: fit multivariate Hawkes models to per-meme event
//! streams and compare the recovered influence against the simulator's
//! ground-truth lineage — the §5 experiment in miniature.
//!
//! ```text
//! cargo run --release --example influence_study
//! ```

use origins_of_memes::core::pipeline::{Pipeline, PipelineConfig};
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::hawkes::{Fitter, GibbsConfig, InfluenceEstimator, InfluenceMatrix};
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

    // EM fit (deterministic maximum likelihood).
    let em = InfluenceEstimator::new(Community::COUNT, 3.0);
    let (em_fit, _) = output
        .estimate_influence(&dataset, &em, 0, &Metrics::disabled())
        .expect("a fresh run keeps cluster ids in range");

    // Gibbs fit (the paper's Bayesian approach).
    let gibbs = InfluenceEstimator::with_fitter(
        Community::COUNT,
        Fitter::Gibbs(
            GibbsConfig {
                beta: 3.0,
                samples: 60,
                burn_in: 30,
                ..GibbsConfig::default()
            },
            99,
        ),
    );
    let (gibbs_fit, _) = output
        .estimate_influence(&dataset, &gibbs, 0, &Metrics::disabled())
        .expect("a fresh run keeps cluster ids in range");

    println!("percent of destination events caused by each source (Fig. 11 view):\n");
    print_matrix(
        "ground truth (simulator lineage)",
        &truth.percent_of_destination(),
    );
    print_matrix(
        "EM fit + root-cause attribution",
        &em_fit.total.percent_of_destination(),
    );
    print_matrix(
        "Gibbs fit + root-cause attribution",
        &gibbs_fit.total.percent_of_destination(),
    );

    // Mean absolute error of each fitter against truth.
    let mae = |fit: &InfluenceMatrix| -> f64 {
        let a = fit.percent_of_destination();
        let b = truth.percent_of_destination();
        let mut total = 0.0;
        for s in 0..Community::COUNT {
            for d in 0..Community::COUNT {
                total += (a[s][d] - b[s][d]).abs();
            }
        }
        total / (Community::COUNT * Community::COUNT) as f64
    };
    println!("\nmean absolute cell error vs truth:");
    println!("  EM:    {:.2} percentage points", mae(&em_fit.total));
    println!("  Gibbs: {:.2} percentage points", mae(&gibbs_fit.total));

    println!("\nexternal efficiency (Fig. 12's 'Total Ext' column):");
    let ext = em_fit.total.total_external_normalized();
    for c in Community::ALL {
        println!("  {:<8} {:>7.2}%", c.name(), ext[c.index()]);
    }
}
