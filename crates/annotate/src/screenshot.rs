//! Screenshot rendering, training corpus, and classifier evaluation —
//! Step 4 of the pipeline and Appendix C of the paper.
//!
//! "Meme annotation sites like KYM often include, in their image
//! galleries, screenshots of social network posts that are not variants
//! of a meme but just comments about it. Hence, we discard
//! social-network screenshots from the annotation sites data sources
//! using a deep learning classifier."
//!
//! The original classifier was trained on 28.8K curated screenshots
//! scraped from subreddits, Pinterest boards and the Wayback Machine
//! (Table 9). That corpus is unavailable, so [`render_screenshot`]
//! synthesizes platform-styled post screenshots (header bar, avatar,
//! text lines, reply separators) whose *structure* — strong horizontal
//! stripes and flat panels — is what distinguishes real screenshots from
//! meme imagery.

use crate::error::AnnotateError;
use crate::nn::{Cnn, TrainConfig};
use meme_imaging::image::Image;
use meme_imaging::synth::{TemplateGenome, VariantGenome};
use meme_stats::{child_seed, seeded_rng, WsRng};
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// The five platforms of the Table-9 training corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SourcePlatform {
    /// Twitter post screenshots (14,602 in the paper's corpus).
    Twitter,
    /// 4chan thread screenshots (10,127).
    FourChan,
    /// Reddit screenshots (2,181).
    Reddit,
    /// Facebook screenshots (1,414).
    Facebook,
    /// Instagram screenshots (497).
    Instagram,
}

impl SourcePlatform {
    /// All platforms in Table 9 order.
    pub const ALL: [SourcePlatform; 5] = [
        SourcePlatform::Twitter,
        SourcePlatform::FourChan,
        SourcePlatform::Reddit,
        SourcePlatform::Facebook,
        SourcePlatform::Instagram,
    ];

    /// Paper corpus size for this platform (Table 9).
    pub fn paper_count(self) -> usize {
        match self {
            SourcePlatform::Twitter => 14_602,
            SourcePlatform::FourChan => 10_127,
            SourcePlatform::Reddit => 2_181,
            SourcePlatform::Facebook => 1_414,
            SourcePlatform::Instagram => 497,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SourcePlatform::Twitter => "Twitter",
            SourcePlatform::FourChan => "4chan",
            SourcePlatform::Reddit => "Reddit",
            SourcePlatform::Facebook => "Facebook",
            SourcePlatform::Instagram => "Instagram",
        }
    }

    /// Background/accent tones giving each platform a distinct but
    /// consistent look.
    fn palette(self) -> (f32, f32) {
        match self {
            SourcePlatform::Twitter => (0.97, 0.55),
            SourcePlatform::FourChan => (0.82, 0.35),
            SourcePlatform::Reddit => (0.95, 0.65),
            SourcePlatform::Facebook => (0.92, 0.45),
            SourcePlatform::Instagram => (0.99, 0.6),
        }
    }
}

/// Render a synthetic social-network post screenshot at `size × size`.
pub fn render_screenshot(platform: SourcePlatform, size: usize, rng: &mut WsRng) -> Image {
    assert!(size >= 16, "screenshots need at least 16x16 pixels");
    let (bg, accent) = platform.palette();
    // lint:allow(panic-reachable): size >= 16 is asserted above, so the canvas dimensions are non-zero
    let mut img = Image::filled(size, size, bg);
    let text_tone = bg - 0.65;

    // Header bar.
    let header_h = size / 8 + rng.random_range(0..size / 16 + 1);
    img.fill_rect(0, 0, size, header_h, accent);

    // Avatar square below the header.
    let av = size / 6;
    let av_y = header_h + size / 16;
    img.fill_rect(size / 16, av_y, size / 16 + av, av_y + av, text_tone + 0.25);

    // Username line next to the avatar.
    let name_y = av_y + av / 3;
    img.fill_rect(
        size / 16 + av + size / 16,
        name_y,
        size / 2 + rng.random_range(0..size / 4),
        name_y + size / 24 + 1,
        text_tone,
    );

    // Body text lines: thin horizontal stripes with ragged right edges.
    let mut y = av_y + av + size / 12;
    let line_h = (size / 24).max(1);
    let gap = (size / 16).max(2);
    while y + line_h < size - size / 8 {
        let len = rng.random_range(size / 3..(size - size / 8));
        img.fill_rect(size / 16, y, size / 16 + len, y + line_h, text_tone);
        y += line_h + gap;
    }

    // Footer separator (like/retweet row).
    img.fill_rect(
        0,
        size - size / 12,
        size,
        size - size / 12 + 1,
        text_tone + 0.3,
    );

    // Mild sensor noise so the classifier cannot key on exact constants.
    for p in img.data_mut() {
        *p += 0.02 * (rng.random::<f32>() - 0.5);
    }
    img.clamp();
    img
}

/// A labeled train/test corpus: screenshots (label 1) vs meme/other
/// images (label 0), in Table 9's platform mix scaled by `scale`.
#[derive(Debug, Clone)]
pub struct ScreenshotCorpus {
    /// Prepared network inputs.
    pub inputs: Vec<Vec<f32>>,
    /// 1 = screenshot, 0 = other.
    pub labels: Vec<usize>,
    /// Per-platform screenshot counts (Table 9 row).
    pub platform_counts: Vec<(SourcePlatform, usize)>,
    /// Count of non-screenshot images.
    pub other_count: usize,
}

impl ScreenshotCorpus {
    /// Generate a corpus with roughly `scale` × the paper's 28.8K
    /// images (e.g. `scale = 0.02` → ~580 images). Deterministic in
    /// `seed`.
    pub fn generate(scale: f64, seed: u64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        let mut rng = seeded_rng(child_seed(seed, 0x5C12EE));
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        let mut platform_counts = Vec::new();
        let size = 32;

        for platform in SourcePlatform::ALL {
            let count = ((platform.paper_count() as f64 * scale).round() as usize).max(3);
            platform_counts.push((platform, count));
            for _ in 0..count {
                let img = render_screenshot(platform, size, &mut rng);
                inputs.push(Cnn::prepare(&img));
                labels.push(1);
            }
        }

        // "Other": random meme images from the procedural renderer
        // (10,630 in the paper).
        let other_count = ((10_630.0 * scale).round() as usize).max(10);
        for i in 0..other_count {
            let template = TemplateGenome::new(child_seed(seed, 0xA11CE + i as u64));
            let v = VariantGenome::random(template, i as u64, (i % 3).min(2));
            let img = v.render(size);
            inputs.push(Cnn::prepare(&img));
            labels.push(0);
        }

        Self {
            inputs,
            labels,
            platform_counts,
            other_count,
        }
    }

    /// Split into (train, test) index sets with the paper's 80/20 ratio,
    /// shuffled deterministically.
    pub fn split(&self, seed: u64) -> (Vec<usize>, Vec<usize>) {
        use rand::seq::SliceRandom;
        let mut rng = seeded_rng(child_seed(seed, 0x59117));
        let mut order: Vec<usize> = (0..self.inputs.len()).collect();
        order.shuffle(&mut rng);
        let cut = (order.len() * 4) / 5;
        let train = order[..cut].to_vec();
        let test = order[cut..].to_vec();
        (train, test)
    }

    /// Total images.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the corpus is empty (cannot happen for generated corpora).
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }
}

/// Evaluation of a binary classifier — the Appendix-C metric set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassifierMetrics {
    /// Accuracy at threshold 0.5.
    pub accuracy: f64,
    /// Precision for the screenshot class.
    pub precision: f64,
    /// Recall for the screenshot class.
    pub recall: f64,
    /// F1 score.
    pub f1: f64,
    /// Area under the ROC curve.
    pub auc: f64,
    /// ROC curve points `(false positive rate, true positive rate)`.
    pub roc: Vec<(f64, f64)>,
}

impl ClassifierMetrics {
    /// Compute metrics from scores (probability of class 1) and labels.
    ///
    /// # Panics
    /// Panics on empty or mismatched input, or when only one class is
    /// present (AUC undefined).
    pub fn from_scores(scores: &[f64], labels: &[usize]) -> Self {
        assert!(!scores.is_empty(), "need at least one score");
        assert_eq!(scores.len(), labels.len(), "scores/labels mismatch");
        let pos: f64 = labels.iter().filter(|&&l| l == 1).count() as f64;
        let neg = labels.len() as f64 - pos;
        assert!(pos > 0.0 && neg > 0.0, "need both classes for evaluation");

        // Confusion at 0.5.
        let (mut tp, mut fp, mut tn, mut fne) = (0.0f64, 0.0, 0.0, 0.0);
        for (&s, &l) in scores.iter().zip(labels) {
            match (s >= 0.5, l == 1) {
                (true, true) => tp += 1.0,
                (true, false) => fp += 1.0,
                (false, false) => tn += 1.0,
                (false, true) => fne += 1.0,
            }
        }
        let accuracy = (tp + tn) / (pos + neg);
        let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
        let recall = if tp + fne > 0.0 { tp / (tp + fne) } else { 0.0 };
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };

        // ROC by sweeping thresholds over sorted scores.
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        let mut roc = vec![(0.0, 0.0)];
        let (mut tpc, mut fpc) = (0.0f64, 0.0f64);
        let mut auc = 0.0;
        let mut i = 0;
        while i < order.len() {
            // Process ties together.
            let s = scores[order[i]];
            let (mut dtp, mut dfp) = (0.0, 0.0);
            while i < order.len() && scores[order[i]] == s {
                if labels[order[i]] == 1 {
                    dtp += 1.0;
                } else {
                    dfp += 1.0;
                }
                i += 1;
            }
            // Trapezoid for the tie block.
            auc += (dfp / neg) * (tpc / pos + 0.5 * dtp / pos);
            tpc += dtp;
            fpc += dfp;
            roc.push((fpc / neg, tpc / pos));
        }
        Self {
            accuracy,
            precision,
            recall,
            f1,
            auc,
            roc,
        }
    }
}

/// A trained screenshot filter wrapping the CNN.
#[derive(Debug, Clone)]
pub struct ScreenshotFilter {
    cnn: Cnn,
}

impl ScreenshotFilter {
    /// Train a filter on a generated corpus. Returns the filter and its
    /// held-out test metrics (the Fig. 19 / Appendix C numbers), or a
    /// typed error instead of a network full of NaNs: an empty corpus
    /// or a non-finite epoch loss (NaN learning rate, exploding
    /// gradients) is an [`AnnotateError`].
    pub fn try_train(
        corpus: &ScreenshotCorpus,
        config: &TrainConfig,
    ) -> Result<(Self, ClassifierMetrics), AnnotateError> {
        let (train_idx, test_idx) = corpus.split(config.seed);
        let train_in: Vec<Vec<f32>> = train_idx
            .iter()
            .map(|&i| corpus.inputs[i].clone())
            .collect();
        let train_lab: Vec<usize> = train_idx.iter().map(|&i| corpus.labels[i]).collect();
        let mut cnn = Cnn::new(config.seed);
        let losses = cnn.train(&train_in, &train_lab, config)?;
        if let Some(&bad) = losses.iter().find(|l| !l.is_finite()) {
            return Err(AnnotateError::TrainingDiverged {
                loss: bad as f64,
                epochs: losses.len(),
            });
        }

        let scores: Vec<f64> = test_idx
            .iter()
            .map(|&i| cnn.predict_proba(&corpus.inputs[i]) as f64)
            .collect();
        // NaN weights can slip past the loss check (the cross-entropy
        // clamp turns NaN probabilities into a finite floor), so also
        // test what the network actually predicts.
        if scores.iter().any(|s| !s.is_finite()) {
            return Err(AnnotateError::TrainingDiverged {
                loss: f64::NAN,
                epochs: losses.len(),
            });
        }
        let labels: Vec<usize> = test_idx.iter().map(|&i| corpus.labels[i]).collect();
        // lint:allow(panic-reachable): the corpus split keeps both classes and aligned score/label lengths, satisfying from_scores' contract
        let metrics = ClassifierMetrics::from_scores(&scores, &labels);
        Ok((Self { cnn }, metrics))
    }

    /// Whether an image looks like a social-network screenshot.
    pub fn is_screenshot(&self, img: &Image) -> bool {
        self.cnn.predict(&Cnn::prepare(img)) == 1
    }

    /// Screenshot probability for an image.
    pub fn screenshot_proba(&self, img: &Image) -> f64 {
        self.cnn.predict_proba(&Cnn::prepare(img)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screenshot_rendering_is_structured() {
        let mut rng = seeded_rng(1);
        let img = render_screenshot(SourcePlatform::Twitter, 32, &mut rng);
        assert_eq!(img.width(), 32);
        // Header row differs from body background.
        assert!((img.get(16, 1) - img.get(16, 20)).abs() > 0.1);
    }

    #[test]
    fn corpus_matches_table9_proportions() {
        let corpus = ScreenshotCorpus::generate(0.01, 7);
        let twitter = corpus
            .platform_counts
            .iter()
            .find(|(p, _)| *p == SourcePlatform::Twitter)
            .unwrap()
            .1;
        let fourchan = corpus
            .platform_counts
            .iter()
            .find(|(p, _)| *p == SourcePlatform::FourChan)
            .unwrap()
            .1;
        assert!(twitter > fourchan);
        assert_eq!(twitter, 146);
        assert_eq!(corpus.other_count, 106);
        let screenshots: usize = corpus.platform_counts.iter().map(|(_, c)| c).sum();
        assert_eq!(corpus.len(), screenshots + corpus.other_count);
    }

    #[test]
    fn split_is_80_20_and_disjoint() {
        let corpus = ScreenshotCorpus::generate(0.005, 8);
        let (train, test) = corpus.split(9);
        assert_eq!(train.len() + test.len(), corpus.len());
        let diff = train.len() as f64 / corpus.len() as f64;
        assert!((diff - 0.8).abs() < 0.02);
        let overlap = train.iter().filter(|i| test.contains(i)).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn metrics_on_perfect_classifier() {
        let scores = vec![0.9, 0.8, 0.1, 0.2];
        let labels = vec![1, 1, 0, 0];
        let m = ClassifierMetrics::from_scores(&scores, &labels);
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
        assert!((m.auc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_on_random_classifier() {
        // Constant scores: AUC should be 0.5 by the tie rule.
        let scores = vec![0.5; 100];
        let labels: Vec<usize> = (0..100).map(|i| i % 2).collect();
        let m = ClassifierMetrics::from_scores(&scores, &labels);
        assert!((m.auc - 0.5).abs() < 1e-9);
    }

    #[test]
    fn metrics_on_inverted_classifier() {
        let scores = vec![0.1, 0.2, 0.9, 0.8];
        let labels = vec![1, 1, 0, 0];
        let m = ClassifierMetrics::from_scores(&scores, &labels);
        assert!((m.auc - 0.0).abs() < 1e-12);
        assert_eq!(m.accuracy, 0.0);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_evaluation_panics() {
        let _ = ClassifierMetrics::from_scores(&[0.5, 0.6], &[1, 1]);
    }

    #[test]
    fn trained_filter_beats_paper_auc() {
        // End-to-end Appendix C at reduced scale: AUC must be at least
        // the paper's 0.96.
        let corpus = ScreenshotCorpus::generate(0.015, 11);
        let cfg = TrainConfig {
            epochs: 6,
            seed: 12,
            ..TrainConfig::default()
        };
        let (filter, metrics) = ScreenshotFilter::try_train(&corpus, &cfg).unwrap();
        assert!(metrics.auc >= 0.96, "AUC {}", metrics.auc);
        assert!(metrics.accuracy >= 0.9, "accuracy {}", metrics.accuracy);

        // Filter behaves sensibly on fresh images.
        let mut rng = seeded_rng(13);
        let shot = render_screenshot(SourcePlatform::Reddit, 32, &mut rng);
        let meme = TemplateGenome::new(777).render(32);
        assert!(filter.screenshot_proba(&shot) > filter.screenshot_proba(&meme));
    }

    #[test]
    fn try_train_reports_divergence() {
        let corpus = ScreenshotCorpus::generate(0.004, 3);
        let cfg = TrainConfig {
            epochs: 1,
            learning_rate: f32::NAN,
            ..TrainConfig::default()
        };
        match ScreenshotFilter::try_train(&corpus, &cfg) {
            Err(AnnotateError::TrainingDiverged { loss, .. }) => {
                assert!(!loss.is_finite())
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("NaN learning rate should diverge"),
        }
    }

    #[test]
    fn try_train_rejects_empty_corpus() {
        // No image at all, and one image (whose 80 % training split is
        // empty — this used to panic inside `Cnn::train`).
        for images in [0, 1] {
            let corpus = ScreenshotCorpus {
                inputs: vec![Cnn::prepare(&TemplateGenome::new(1).render(32)); images],
                labels: vec![0; images],
                platform_counts: Vec::new(),
                other_count: images,
            };
            assert_eq!(
                ScreenshotFilter::try_train(&corpus, &TrainConfig::default()).err(),
                Some(AnnotateError::EmptyCorpus)
            );
        }
    }
}
