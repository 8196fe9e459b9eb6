//! Community forensics: characterize Web communities through the lens
//! of memes (§4): popularity tables, temporal dynamics, and vote-score
//! distributions.
//!
//! ```text
//! cargo run --release --example community_forensics
//! ```

use origins_of_memes::core::analysis::{self, MemeFilter};
use origins_of_memes::core::pipeline::{Pipeline, PipelineConfig};
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::simweb::{Community, SimConfig};
use origins_of_memes::stats::Ecdf;

fn main() {
    let dataset = SimConfig::tiny(11).generate();
    let output = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .run(&dataset)
        .expect("pipeline runs")
        .expect_complete();

    // --- Popularity: what does each community share? (Tables 4/5)
    for community in [Community::Pol, Community::Twitter] {
        println!("top memes on {}:", community.name());
        let rows = analysis::top_entries_by_posts(&dataset, &output, community, None, 5);
        for row in rows {
            println!(
                "  {:<28} {:>5} posts ({:.1}%)",
                row.entry, row.count, row.pct
            );
        }
    }

    // --- Temporal: when do political memes spike? (Fig. 8)
    let political = analysis::fig8_series(&dataset, &output, MemeFilter::Political);
    println!("\npolitical meme share per day (weekly means, %):");
    for (name, series) in &political {
        let weekly: Vec<f64> = series
            .chunks(7)
            .map(|w| w.iter().sum::<f64>() / w.len() as f64)
            .collect();
        let peak_week = weekly
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, v)| (i, *v))
            .unwrap_or((0, 0.0));
        println!(
            "  {:<8} peak week {} at {:.2}% (election at day {})",
            name, peak_week.0, peak_week.1, dataset.config.cascade.election_day
        );
    }

    // --- Scores: how do communities rate racist/political memes?
    //     (Fig. 9)
    for platform in [Community::Reddit, Community::Gab] {
        let s = analysis::fig9_scores(&dataset, &output, platform);
        println!("\nvote scores on {}:", platform.name());
        let report = |label: &str, sample: &[f64]| {
            if let Some(e) = Ecdf::new(sample.to_vec()) {
                println!(
                    "  {:<14} n={:<5} mean {:>7.1}  median {:>5.0}",
                    label,
                    e.len(),
                    e.mean(),
                    e.median()
                );
            }
        };
        report("political", &s.political);
        report("non-political", &s.non_political);
        report("racist", &s.racist);
        report("non-racist", &s.non_racist);
    }

    // --- Subreddits: where do Reddit's memes live? (Table 6)
    println!("\ntop subreddits for meme posts:");
    for row in analysis::table6(&dataset, &output, MemeFilter::All, 5) {
        println!(
            "  {:<16} {:>5} posts ({:.1}%)",
            row.subreddit, row.posts, row.pct
        );
    }
}
