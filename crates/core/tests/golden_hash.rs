//! Golden-hash regression corpus — the image → pHash byte-identity
//! contract of Steps 1 and 4.
//!
//! The kernel rebuild (render cache, scratch-reuse pHash, truncated
//! DCT) promises output **byte-identical** to the original
//! render → resize → DCT → threshold path. These tests pin the exact
//! 64-bit fingerprints of a seeded corpus covering every [`ImageRef`]
//! and [`GalleryImage`] kind, jittered and unjittered, so any kernel or
//! cache change that perturbs even one bit fails loudly — the same
//! swap-determinism discipline the Hamming engine (PR 4) and serving
//! layer (PR 7) live under. A second suite runs the product
//! ([`SupervisedRunner`]) at 1, 2, and 8 threads and asserts its post
//! hashes and site galleries equal the uncached per-image reference.
//!
//! If a change *intends* to alter the hash function itself, regenerate
//! the constants with `print_golden_hashes` (`--ignored --nocapture`)
//! and say so in the PR.

use meme_annotate::nn::TrainConfig;
use meme_annotate::screenshot::{ScreenshotCorpus, ScreenshotFilter};
use meme_core::{Pipeline, PipelineConfig, ScreenshotFilterMode, SupervisedRunner};
use meme_phash::{HashScratch, ImageHasher, PHash, PerceptualHasher};
use meme_simweb::{
    Dataset, GalleryImage, ImageRef, LazyImage, Post, RawKymEntry, RenderCache, RenderStats,
    SimConfig, IMAGE_SIZE,
};

fn dataset() -> Dataset {
    SimConfig::tiny(7).generate()
}

/// The first post of each kind in corpus order, so the pinned hashes
/// are stable against unrelated generator changes only if the corpus
/// itself is unchanged — which is exactly the point.
fn sample_posts(d: &Dataset) -> Vec<(&'static str, Post)> {
    let first = |pred: fn(&ImageRef) -> bool| -> Post {
        d.posts
            .iter()
            .find(|p| pred(&p.image))
            .expect("tiny corpus covers every kind")
            .clone()
    };
    let mut samples = vec![
        (
            "meme_variant",
            first(|r| matches!(r, ImageRef::MemeVariant { .. })),
        ),
        ("one_off", first(|r| matches!(r, ImageRef::OneOff { .. }))),
        (
            "screenshot",
            first(|r| matches!(r, ImageRef::Screenshot { .. })),
        ),
    ];
    // The generator never emits blank posts (they are a fault-injection
    // shape), so construct one on a real post's chassis.
    let blank = Post {
        image: ImageRef::Blank,
        ..d.posts[0].clone()
    };
    samples.push(("blank", blank));
    samples
}

/// The first KYM gallery image of each kind, in site order.
fn sample_gallery(d: &Dataset) -> Vec<(&'static str, GalleryImage)> {
    let first = |pred: fn(&GalleryImage) -> bool| -> GalleryImage {
        let mut images = d.kym_raw.entries.iter().flat_map(|e| &e.images);
        *images
            .find(|g| pred(g))
            .expect("tiny site covers every kind")
    };
    vec![
        (
            "gallery_variant",
            first(|g| matches!(g, GalleryImage::Variant { .. })),
        ),
        (
            "gallery_foreign",
            first(|g| matches!(g, GalleryImage::Foreign { .. })),
        ),
        ("gallery_screenshot", first(GalleryImage::is_screenshot)),
    ]
}

/// Pinned fingerprints for `SimConfig::tiny(7)`, corpus order as
/// produced by [`sample_posts`], plus the unjittered canonical render
/// of meme 0 / variant 0 and its bare template, plus
/// [`sample_gallery`].
const GOLDEN: [(&str, &str); 9] = [
    ("meme_variant", "9f75d04ae0cab8c9"),
    ("one_off", "cec4393d9b9cd418"),
    ("screenshot", "bf47407852252f67"),
    ("blank", "0000000000000000"),
    // Meme 0's variant 0 is the base variant (no structural ops), so
    // its canonical render pins to the same bits as the bare template.
    ("canonical_variant", "d6fe3811c9c160e7"),
    ("template_base", "d6fe3811c9c160e7"),
    ("gallery_variant", "d6fe3811c9c160e7"),
    ("gallery_foreign", "dd914a6e30c92e3e"),
    ("gallery_screenshot", "af175078586b1637"),
];

/// Hash every sample through the production path (render cache +
/// scratch kernel), in pinned order.
fn current_hashes(d: &Dataset) -> Vec<(&'static str, PHash)> {
    let cache = RenderCache::build(d);
    let hasher = PerceptualHasher::new();
    let mut scratch = HashScratch::new();
    let mut stats = RenderStats::default();
    let mut out: Vec<(&'static str, PHash)> = sample_posts(d)
        .into_iter()
        .map(|(kind, post)| {
            let img = d.render_post_cached(&post, &cache, &mut stats);
            (kind, hasher.hash_into(img.as_image(), &mut scratch))
        })
        .collect();
    let canonical = d.universe.specs[0].variants[0].render(IMAGE_SIZE);
    out.push((
        "canonical_variant",
        hasher.hash_into(&canonical, &mut scratch),
    ));
    let template = d.universe.specs[0].variants[0].template.render(IMAGE_SIZE);
    out.push(("template_base", hasher.hash_into(&template, &mut scratch)));
    let gallery = sample_gallery(d);
    let cache = RenderCache::build_over(d, gallery.iter().map(|(_, g)| LazyImage::Gallery(g)));
    for (kind, g) in &gallery {
        let img = d.render_cached(LazyImage::Gallery(g), &cache, &mut stats);
        out.push((*kind, hasher.hash_into(img.as_image(), &mut scratch)));
    }
    assert_eq!(stats.hits, 4, "three posts and the gallery variant hit");
    out
}

#[test]
fn golden_hashes_are_unchanged() {
    let d = dataset();
    let got = current_hashes(&d);
    assert_eq!(got.len(), GOLDEN.len());
    for ((kind, hash), (golden_kind, golden_hex)) in got.iter().zip(GOLDEN) {
        assert_eq!(*kind, golden_kind, "sample order drifted");
        let want: PHash = golden_hex
            .parse()
            .expect("golden constants are valid hex fingerprints");
        assert_eq!(
            *hash, want,
            "{kind}: hash {hash} diverged from pinned {want}"
        );
    }
}

#[test]
fn cached_and_uncached_hashes_agree_for_every_sample() {
    let d = dataset();
    let cache = RenderCache::build(&d);
    let hasher = PerceptualHasher::new();
    let mut scratch = HashScratch::new();
    let mut stats = RenderStats::default();
    for (kind, post) in sample_posts(&d) {
        let cached = d.render_post_cached(&post, &cache, &mut stats);
        let through_cache = hasher.hash_into(cached.as_image(), &mut scratch);
        let direct = hasher.hash(&d.render_post_image(&post));
        assert_eq!(through_cache, direct, "{kind} diverged through the cache");
    }
    let gallery = sample_gallery(&d);
    let cache = RenderCache::build_over(&d, gallery.iter().map(|(_, g)| LazyImage::Gallery(g)));
    for (kind, g) in &gallery {
        let cached = d.render_cached(LazyImage::Gallery(g), &cache, &mut stats);
        let through_cache = hasher.hash_into(cached.as_image(), &mut scratch);
        let direct = hasher.hash(&d.render_gallery_image(g));
        assert_eq!(through_cache, direct, "{kind} diverged through the cache");
    }
}

#[test]
fn pipeline_is_byte_identical_to_the_uncached_reference_across_thread_counts() {
    let d = dataset();
    // Uncached single-threaded reference: the pre-change semantics.
    let hasher = PerceptualHasher::new();
    let posts: Vec<PHash> = d
        .posts
        .iter()
        .map(|p| hasher.hash(&d.render_post_image(p)))
        .collect();
    // Step 4, image by image: decide on a render, hash a render.
    let site = |keep: &dyn Fn(&GalleryImage) -> bool| -> Vec<Vec<PHash>> {
        let gallery = |e: &RawKymEntry| {
            let kept = e.images.iter().filter(|g| keep(g));
            kept.map(|g| hasher.hash(&d.render_gallery_image(g)))
                .collect()
        };
        d.kym_raw.entries.iter().map(gallery).collect()
    };
    // A small successful Train mode beside the oracle: the classifier's
    // quality is beside the point, its decisions are not.
    let corpus_scale = 0.01;
    let config = TrainConfig {
        epochs: 1,
        ..TrainConfig::default()
    };
    let corpus = ScreenshotCorpus::generate(corpus_scale, config.seed);
    let (cnn, metrics) = ScreenshotFilter::try_train(&corpus, &config).expect("training converges");
    let modes = [
        (
            ScreenshotFilterMode::Oracle,
            None,
            site(&|g| !g.is_screenshot()),
        ),
        (
            ScreenshotFilterMode::Train {
                corpus_scale,
                config,
            },
            Some(metrics),
            site(&|g| !cnn.is_screenshot(&d.render_gallery_image(g))),
        ),
    ];
    for (mode, metrics, galleries) in &modes {
        for threads in [1usize, 2, 8] {
            let config = PipelineConfig {
                threads,
                screenshot_filter: mode.clone(),
                ..PipelineConfig::fast()
            };
            let out = SupervisedRunner::new(Pipeline::new(config))
                .run(&d)
                .expect("clean run")
                .expect_complete();
            assert!(out.degradations.is_empty(), "{:?}", out.degradations);
            assert_eq!(
                out.post_hashes, posts,
                "hash stage at {threads} threads diverged from the uncached reference"
            );
            let site: Vec<Vec<PHash>> = out.site.entries.into_iter().map(|e| e.gallery).collect();
            assert_eq!(
                &site, galleries,
                "site stage ({mode:?}) at {threads} threads diverged from the uncached reference"
            );
            assert_eq!(&out.screenshot_metrics, metrics);
        }
    }
}

/// Regenerates the `GOLDEN` constants. Run with
/// `cargo test -p meme-core --test golden_hash -- --ignored --nocapture`.
#[test]
#[ignore]
fn print_golden_hashes() {
    let d = dataset();
    for (kind, hash) in current_hashes(&d) {
        println!("    (\"{kind}\", \"{hash}\"),");
    }
}
