//! Cross-crate integration below the pipeline level: hashing ↔ index ↔
//! clustering agreement, Hawkes fit ↔ attribution ↔ residuals, and the
//! custom metric over real annotation output.

use origins_of_memes::annotate::annotator::annotate_clusters;
use origins_of_memes::annotate::kym::{KymCategory, KymEntry, KymSite};
use origins_of_memes::cluster::dbscan::{try_dbscan_hashes, DbscanParams};
use origins_of_memes::core::metric::{ClusterDescriptor, ClusterDistance};
use origins_of_memes::hawkes::{
    fit_em, residual_analysis, simulate_branching, strip_lineage, EmConfig, HawkesModel,
};
use origins_of_memes::imaging::synth::{JitterConfig, TemplateGenome, VariantGenome};
use origins_of_memes::index::{BruteForceIndex, HammingIndex, MihIndex};
use origins_of_memes::phash::{ImageHasher, PHash, PerceptualHasher};
use origins_of_memes::stats::seeded_rng;

/// Render a small synthetic corpus: `n_memes` templates, two variants
/// each, several jittered posts per variant, plus one-off noise.
fn corpus(n_memes: u64, posts_per_variant: usize, seed: u64) -> (Vec<PHash>, Vec<Option<u64>>) {
    let hasher = PerceptualHasher::new();
    let mut rng = seeded_rng(seed);
    let mut hashes = Vec::new();
    let mut truth = Vec::new();
    for m in 0..n_memes {
        let template = TemplateGenome::new(1000 + m);
        for v in 0..2u64 {
            let variant = if v == 0 {
                VariantGenome::base(template)
            } else {
                VariantGenome::random(template, m * 7 + v, 1)
            };
            for _ in 0..posts_per_variant {
                let img = variant.render_jittered(64, &JitterConfig::default(), &mut rng);
                hashes.push(hasher.hash(&img));
                truth.push(Some(m));
            }
        }
    }
    // One-off noise images.
    for k in 0..(n_memes * posts_per_variant as u64) {
        let img = TemplateGenome::new(500_000 + k).render(64);
        hashes.push(hasher.hash(&img));
        truth.push(None);
    }
    (hashes, truth)
}

#[test]
fn image_to_cluster_roundtrip_recovers_memes() {
    let (hashes, truth) = corpus(8, 8, 1);
    let clustering = try_dbscan_hashes(&hashes, DbscanParams::default(), 0).unwrap();
    // Every meme should yield at least one cluster; noise should be
    // mostly the one-off images.
    assert!(
        clustering.n_clusters() >= 8,
        "{} clusters",
        clustering.n_clusters()
    );
    let purity = origins_of_memes::cluster::purity::majority_purity(&clustering, &truth);
    assert!(purity > 0.97, "purity {purity}");
    // Most one-offs are noise.
    let noise_oneoffs = clustering
        .labels()
        .iter()
        .zip(&truth)
        .filter(|(l, t)| l.is_none() && t.is_none())
        .count();
    let total_oneoffs = truth.iter().filter(|t| t.is_none()).count();
    assert!(
        noise_oneoffs as f64 / total_oneoffs as f64 > 0.95,
        "{noise_oneoffs}/{total_oneoffs} one-offs are noise"
    );
}

#[test]
fn index_engines_agree_on_real_hashes() {
    let (hashes, _) = corpus(5, 6, 2);
    let brute = BruteForceIndex::new(hashes.clone());
    let mih = MihIndex::new(hashes.clone(), 8);
    for (i, &h) in hashes.iter().enumerate().step_by(7) {
        assert_eq!(
            brute.radius_query(h, 8),
            mih.radius_query(h, 8),
            "query {i}"
        );
    }
}

#[test]
fn annotation_over_rendered_galleries() {
    // Build a KYM site from rendered gallery hashes and check medoid
    // matching end to end without the simulator.
    let hasher = PerceptualHasher::new();
    let mut rng = seeded_rng(3);
    let template = TemplateGenome::new(77);
    let variant = VariantGenome::base(template);
    let gallery: Vec<PHash> = (0..6)
        .map(|_| hasher.hash(&variant.render_jittered(64, &JitterConfig::default(), &mut rng)))
        .collect();
    let site = KymSite::new(vec![KymEntry {
        id: 0,
        name: "Test Frog".into(),
        category: KymCategory::Meme,
        tags: vec!["frog".into()],
        origin: "4chan".into(),
        gallery,
        people: vec![],
        cultures: vec![],
    }]);
    let medoid = hasher.hash(&variant.render(64));
    let anns = annotate_clusters(&[medoid], &site, 8);
    assert!(anns[0].is_annotated(), "medoid should match its gallery");
    assert_eq!(anns[0].representative, Some(0));

    // A different template must not match.
    let other = hasher.hash(&TemplateGenome::new(40_404).render(64));
    let anns = annotate_clusters(&[other], &site, 8);
    assert!(!anns[0].is_annotated());
}

#[test]
fn hawkes_fit_passes_residual_diagnostics() {
    let truth =
        HawkesModel::new(vec![0.4, 0.2], vec![vec![0.3, 0.2], vec![0.1, 0.25]], 2.0).unwrap();
    let mut rng = seeded_rng(4);
    let events = strip_lineage(&simulate_branching(&truth, 1200.0, &mut rng));
    let fit = fit_em(
        &events,
        2,
        1200.0,
        &EmConfig {
            beta: 2.0,
            max_iters: 150,
            ..EmConfig::default()
        },
    )
    .unwrap();
    // The fitted model should explain its own training data: the
    // time-rescaling residuals must look unit-exponential.
    let report = residual_analysis(&fit.model, &events, 1200.0).unwrap();
    assert!(report.passes(0.005), "p-values {:?}", report.p_value);
}

#[test]
fn metric_separates_meme_families_from_hashes() {
    // Hash-level end-to-end: two visually distinct templates produce
    // descriptors whose cross-family distance exceeds within-family.
    let hasher = PerceptualHasher::new();
    let mut rng = seeded_rng(5);
    let make = |template_seed: u64, rng: &mut _| -> ClusterDescriptor {
        let v = VariantGenome::base(TemplateGenome::new(template_seed));
        let img = v.render_jittered(64, &JitterConfig::default(), rng);
        ClusterDescriptor::unannotated(hasher.hash(&img))
    };
    let a1 = make(1, &mut rng);
    let a2 = make(1, &mut rng);
    let b1 = make(2, &mut rng);
    let metric = ClusterDistance::default();
    let within = metric.distance(&a1, &a2);
    let across = metric.distance(&a1, &b1);
    assert!(within < across, "within-family {within} vs across {across}");
    assert!(within < 0.45, "within-family distance {within} above kappa");
}
