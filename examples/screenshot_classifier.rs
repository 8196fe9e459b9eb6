//! Screenshot classifier: train the from-scratch CNN of Appendix C on
//! a synthetic screenshot-vs-meme corpus and evaluate it (Table 9 /
//! Fig. 19).
//!
//! ```text
//! cargo run --release --example screenshot_classifier
//! ```

use origins_of_memes::annotate::nn::TrainConfig;
use origins_of_memes::annotate::screenshot::{
    render_screenshot, ScreenshotCorpus, ScreenshotFilter, SourcePlatform,
};
use origins_of_memes::imaging::synth::TemplateGenome;
use origins_of_memes::stats::seeded_rng;

fn main() {
    // Build a corpus at 2% of the paper's 28.8K images, with Table 9's
    // platform mix.
    let corpus = ScreenshotCorpus::generate(0.02, 7);
    println!("training corpus ({} images):", corpus.len());
    for (platform, count) in &corpus.platform_counts {
        println!("  {:<10} {:>5} screenshots", platform.name(), count);
    }
    println!(
        "  {:<10} {:>5} meme/other images",
        "other", corpus.other_count
    );

    // Train: 2 conv + maxpool blocks, dense, dropout 0.5, Adam — the
    // Appendix-C architecture at 32x32.
    let (filter, metrics) = ScreenshotFilter::try_train(
        &corpus,
        &TrainConfig {
            epochs: 8,
            seed: 7,
            ..TrainConfig::default()
        },
    )
    .expect("training converges on the generated corpus");
    println!("\nheld-out evaluation (paper values in brackets):");
    println!("  AUC       {:.3}   [0.96]", metrics.auc);
    println!("  accuracy  {:.3}   [0.913]", metrics.accuracy);
    println!("  precision {:.3}   [0.943]", metrics.precision);
    println!("  recall    {:.3}   [0.935]", metrics.recall);
    println!("  F1        {:.3}   [0.939]", metrics.f1);

    // Use the filter the way Step 4 does: score fresh images.
    let mut rng = seeded_rng(99);
    println!("\nscreenshot probability on fresh images:");
    for platform in SourcePlatform::ALL {
        let img = render_screenshot(platform, 64, &mut rng);
        println!(
            "  {:<10} screenshot -> {:.2}",
            platform.name(),
            filter.screenshot_proba(&img)
        );
    }
    for seed in [1u64, 2, 3] {
        let img = TemplateGenome::new(seed).render(64);
        println!(
            "  meme template #{seed}  -> {:.2}",
            filter.screenshot_proba(&img)
        );
    }
}
