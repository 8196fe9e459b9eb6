//! Memoized base renders for the image → pHash passes (Steps 1 and 4).
//!
//! `Dataset::render_post_image` / `render_gallery_image` re-render an
//! image from scratch on every call, even though thousands of posts and
//! gallery images share one `(meme, variant)` canonical image and
//! screenshot posts come in *families* of identical re-posts. A
//! [`RenderCache`] is built once per pass, over the images the pass
//! will render, and shared read-only across the hashing workers: it
//! holds one immutable [`Arc<Image>`] per `(meme, variant)` canonical
//! render and one per screenshot family seed among those images, and
//! the blank image. With the cache, per-image work for meme variants
//! is photometric jitter only, and screenshot/blank posts borrow the
//! cached render outright.
//!
//! The cached path is **byte-identical** to the uncached one:
//! [`Dataset::render_cached`] consumes the same seeded rng stream as
//! the uncached renderers for every [`ImageRef`] and [`GalleryImage`]
//! kind (see the equality tests at the bottom of this module and the
//! golden-hash corpus in `meme-core`).

use crate::dataset::{Dataset, ImageRef, Post, IMAGE_SIZE};
use crate::kymgen::GalleryImage;
use meme_imaging::image::Image;
use meme_imaging::synth::{JitterConfig, VariantGenome};
use meme_stats::seeded_rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Immutable, share-everywhere cache of canonical renders.
///
/// Built once with [`RenderCache::build_over`]; afterwards it is
/// read-only, so worker threads share it by reference (or clone it — the
/// images are behind [`Arc`]s, so a clone is shallow).
///
/// One-off posts are deliberately *not* cached: their template seeds are
/// unique per post, so caching them would hold the whole corpus's pixels
/// resident for zero reuse. They count as misses in [`RenderStats`].
#[derive(Debug, Clone)]
pub struct RenderCache {
    /// `variant_bases[meme][variant]` — the canonical variant render
    /// (`VariantGenome::render(IMAGE_SIZE)`), computed once from the
    /// meme's shared template base; `None` where no image asked for it.
    variant_bases: Vec<Vec<Option<Arc<Image>>>>,
    /// Screenshot family renders keyed by `family_seed`. BTreeMap keeps
    /// iteration deterministic for accounting.
    screenshots: BTreeMap<u64, Arc<Image>>,
    /// The all-zero image every `ImageRef::Blank` post shares.
    blank: Arc<Image>,
}

impl RenderCache {
    /// Render once every base that `images` — what one pass is about to
    /// render — share: the `(meme, variant)` canonical renders its posts
    /// and gallery images reference, and its posts' screenshot families.
    /// Nothing is rendered, or held, for a base no image asks for.
    ///
    /// Meme variants are rendered via the shared template base: the
    /// template is rendered once per meme and each variant's ops are
    /// applied on top (`VariantGenome::render_with_base`), which is
    /// bit-identical to rendering the variant from scratch.
    pub fn build_over<'a>(
        dataset: &Dataset,
        images: impl IntoIterator<Item = LazyImage<'a>>,
    ) -> Self {
        let mut wanted: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut screenshots: BTreeMap<u64, Arc<Image>> = BTreeMap::new();
        for image in images {
            match image {
                LazyImage::Post(post) => match post.image {
                    ImageRef::MemeVariant { meme, variant, .. } => {
                        wanted.insert((meme, variant));
                    }
                    ImageRef::Screenshot { family_seed, .. } => {
                        screenshots
                            .entry(family_seed)
                            .or_insert_with(|| Arc::new(dataset.render_post_image(post)));
                    }
                    ImageRef::OneOff { .. } | ImageRef::Blank => {}
                },
                LazyImage::Gallery(&GalleryImage::Variant { meme, variant, .. }) => {
                    wanted.insert((meme, variant));
                }
                LazyImage::Gallery(_) => {}
            }
        }

        let mut variant_bases = Vec::with_capacity(dataset.universe.specs.len());
        for (meme, spec) in dataset.universe.specs.iter().enumerate() {
            let mut bases = Vec::with_capacity(spec.variants.len());
            // All variants of a meme share the template, but key the
            // memo by template seed so an unusual universe still
            // renders correctly.
            let mut template: Option<(u64, Image)> = None;
            for (variant, v) in spec.variants.iter().enumerate() {
                if !wanted.contains(&(meme, variant)) {
                    bases.push(None);
                    continue;
                }
                let seed = v.template.seed;
                let base = match &template {
                    Some((s, img)) if *s == seed => v.render_with_base(img),
                    _ => {
                        let img = v.template.render(IMAGE_SIZE);
                        let out = v.render_with_base(&img);
                        template = Some((seed, img));
                        out
                    }
                };
                bases.push(Some(Arc::new(base)));
            }
            variant_bases.push(bases);
        }

        Self {
            variant_bases,
            screenshots,
            blank: Arc::new(Image::filled(IMAGE_SIZE, IMAGE_SIZE, 0.0)),
        }
    }

    /// [`RenderCache::build_over`] the posts of `dataset`.
    pub fn build(dataset: &Dataset) -> Self {
        Self::build_over(dataset, dataset.posts.iter().map(LazyImage::Post))
    }

    /// Number of cached images (variant bases + screenshot families +
    /// the blank).
    pub fn entries(&self) -> usize {
        self.variant_bases.iter().flatten().flatten().count() + self.screenshots.len() + 1
    }

    /// Resident pixel bytes across all cached images.
    pub fn bytes(&self) -> usize {
        let px = |img: &Image| img.width() * img.height() * std::mem::size_of::<f32>();
        self.variant_bases
            .iter()
            .flatten()
            .flatten()
            .map(|i| px(i))
            .sum::<usize>()
            + self.screenshots.values().map(|i| px(i)).sum::<usize>()
            + px(&self.blank)
    }

    /// A meme variant's per-image render from its cached base: jitter
    /// only, under the rng stream `render_jittered` consumes after
    /// rendering. `None` for a `(meme, variant)` outside the cache.
    fn jittered_variant(
        &self,
        meme: usize,
        variant: usize,
        jitter_seed: u64,
    ) -> Option<Rendered<'_>> {
        let base = self.variant_bases.get(meme)?.get(variant)?.as_ref()?;
        let mut rng = seeded_rng(jitter_seed);
        let jittered = VariantGenome::jitter_base(base, &JitterConfig::default(), &mut rng);
        Some(Rendered::Owned(jittered))
    }
}

/// Per-worker accounting for the cached render path. Workers keep their
/// own stats and [`merge`](RenderStats::merge) them after the parallel
/// section, so the hot loop shares no counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderStats {
    /// Images served from a cached base (jitter-only or borrowed whole).
    pub hits: u64,
    /// Images rendered from scratch (one-offs, foreign and screenshot
    /// gallery images, or refs outside the cache).
    pub misses: u64,
    /// Meme-variant images (`ImageRef::MemeVariant`,
    /// `GalleryImage::Variant`).
    pub meme_variant: u64,
    /// Posts with `ImageRef::OneOff`.
    pub one_off: u64,
    /// Posts with `ImageRef::Screenshot`.
    pub screenshot: u64,
    /// Posts with `ImageRef::Blank`.
    pub blank: u64,
}

impl RenderStats {
    /// Fold another worker's counters into this one.
    pub fn merge(&mut self, other: &RenderStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.meme_variant += other.meme_variant;
        self.one_off += other.one_off;
        self.screenshot += other.screenshot;
        self.blank += other.blank;
    }
}

/// A rendered post image that is either borrowed from the cache
/// (screenshots, blanks — no per-post work at all) or owned (jittered
/// meme variants, one-offs).
#[derive(Debug)]
pub enum Rendered<'a> {
    /// Borrowed straight from the [`RenderCache`].
    Shared(&'a Image),
    /// Rendered (or jittered) for this specific post.
    Owned(Image),
}

impl Rendered<'_> {
    /// The image, however it is stored.
    pub fn as_image(&self) -> &Image {
        match self {
            Rendered::Shared(img) => img,
            Rendered::Owned(img) => img,
        }
    }
}

/// An image the corpus renders on demand — a post's or a KYM
/// gallery's — so Steps 1 and 4 share [`Dataset::render_cached`].
#[derive(Debug, Clone, Copy)]
pub enum LazyImage<'a> {
    /// A post's image.
    Post(&'a Post),
    /// A KYM gallery image.
    Gallery(&'a GalleryImage),
}

impl Dataset {
    /// Render one image through the cache.
    ///
    /// Byte-identical to [`Dataset::render_post_image`] /
    /// [`Dataset::render_gallery_image`] for every kind: meme variants
    /// (a post's or a gallery's) apply [`VariantGenome::jitter_base`] to
    /// the cached canonical render with an rng seeded exactly as the
    /// uncached path seeds it; post screenshots and blanks borrow the
    /// cached image; everything else — one-offs, foreign and screenshot
    /// gallery images (unique seeds, counted only as misses), and any
    /// ref missing from the cache, e.g. a fault-injected index — falls
    /// back to the uncached renderer.
    pub fn render_cached<'c>(
        &self,
        image: LazyImage<'_>,
        cache: &'c RenderCache,
        stats: &mut RenderStats,
    ) -> Rendered<'c> {
        let cached = match image {
            LazyImage::Post(post) => match post.image {
                ImageRef::MemeVariant {
                    meme,
                    variant,
                    jitter_seed,
                } => {
                    stats.meme_variant += 1;
                    cache.jittered_variant(meme, variant, jitter_seed)
                }
                ImageRef::OneOff { .. } => {
                    stats.one_off += 1;
                    None
                }
                ImageRef::Screenshot { family_seed, .. } => {
                    stats.screenshot += 1;
                    let family = cache.screenshots.get(&family_seed);
                    family.map(|img| Rendered::Shared(img))
                }
                ImageRef::Blank => {
                    stats.blank += 1;
                    Some(Rendered::Shared(&cache.blank))
                }
            },
            LazyImage::Gallery(&GalleryImage::Variant {
                meme,
                variant,
                jitter_seed,
            }) => {
                stats.meme_variant += 1;
                cache.jittered_variant(meme, variant, jitter_seed)
            }
            LazyImage::Gallery(_) => None,
        };
        match cached {
            Some(rendered) => {
                stats.hits += 1;
                rendered
            }
            None => {
                stats.misses += 1;
                Rendered::Owned(match image {
                    LazyImage::Post(post) => self.render_post_image(post),
                    LazyImage::Gallery(g) => self.render_gallery_image(g),
                })
            }
        }
    }

    /// [`Dataset::render_cached`] for a post.
    pub fn render_post_cached<'c>(
        &self,
        post: &Post,
        cache: &'c RenderCache,
        stats: &mut RenderStats,
    ) -> Rendered<'c> {
        self.render_cached(LazyImage::Post(post), cache, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::ScreenshotPlatform;
    use crate::dataset::SimConfig;

    fn tiny_dataset() -> Dataset {
        SimConfig::tiny(7).generate()
    }

    #[test]
    fn cached_renders_are_byte_identical_for_all_posts() {
        let d = tiny_dataset();
        let cache = RenderCache::build(&d);
        let mut stats = RenderStats::default();
        for post in &d.posts {
            let cached = d.render_post_cached(post, &cache, &mut stats);
            let direct = d.render_post_image(post);
            assert_eq!(
                cached.as_image().data(),
                direct.data(),
                "post {} diverged through the cache",
                post.id
            );
        }
        assert_eq!(stats.misses, stats.one_off, "only one-offs may miss");
        assert_eq!(
            stats.hits + stats.misses,
            d.posts.len() as u64,
            "every post is counted exactly once"
        );
        assert_eq!(
            stats.meme_variant + stats.one_off + stats.screenshot + stats.blank,
            d.posts.len() as u64
        );
        // Every KYM gallery image too, through a cache over the
        // galleries; exactly the variants are hits.
        let gallery = || d.kym_raw.entries.iter().flat_map(|e| &e.images);
        let cache = RenderCache::build_over(&d, gallery().map(LazyImage::Gallery));
        let mut stats = RenderStats::default();
        for g in gallery() {
            let cached = d.render_cached(LazyImage::Gallery(g), &cache, &mut stats);
            let direct = d.render_gallery_image(g);
            assert_eq!(cached.as_image().data(), direct.data(), "{g:?}");
        }
        assert!(stats.hits > 0 && stats.misses > 0);
        assert_eq!(stats.hits, stats.meme_variant);
    }

    #[test]
    fn blank_posts_share_the_cached_blank() {
        let d = tiny_dataset();
        let cache = RenderCache::build(&d);
        let mut stats = RenderStats::default();
        let blank_post = Post {
            image: ImageRef::Blank,
            ..d.posts[0].clone()
        };
        let cached = d.render_post_cached(&blank_post, &cache, &mut stats);
        assert!(matches!(cached, Rendered::Shared(_)));
        assert_eq!(
            cached.as_image().data(),
            d.render_post_image(&blank_post).data()
        );
        assert_eq!((stats.blank, stats.hits), (1, 1));
    }

    #[test]
    fn out_of_cache_refs_fall_back_to_direct_rendering() {
        let d = tiny_dataset();
        let cache = RenderCache::build(&d);
        let mut stats = RenderStats::default();
        // A fault-injected ref pointing outside the universe must not
        // panic through the cached path (the uncached path would; the
        // cache lookup itself is total and falls back only when the
        // family seed is unknown).
        let foreign_family = Post {
            image: ImageRef::Screenshot {
                platform: ScreenshotPlatform::Twitter,
                family_seed: u64::MAX,
            },
            ..d.posts[0].clone()
        };
        let cached = d.render_post_cached(&foreign_family, &cache, &mut stats);
        assert_eq!(
            cached.as_image().data(),
            d.render_post_image(&foreign_family).data()
        );
        assert_eq!((stats.screenshot, stats.misses), (1, 1));
    }

    #[test]
    fn accounting_matches_dataset_shape() {
        let d = tiny_dataset();
        let cache = RenderCache::build(&d);
        let n_variants = d
            .posts
            .iter()
            .filter_map(Post::true_variant)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let n_families = d
            .posts
            .iter()
            .filter_map(|p| match p.image {
                ImageRef::Screenshot { family_seed, .. } => Some(family_seed),
                _ => None,
            })
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert_eq!(cache.entries(), n_variants + n_families + 1);
        assert_eq!(
            cache.bytes(),
            cache.entries() * IMAGE_SIZE * IMAGE_SIZE * std::mem::size_of::<f32>()
        );
    }

    #[test]
    fn stats_merge_adds_fieldwise() {
        let mut a = RenderStats {
            hits: 1,
            misses: 2,
            meme_variant: 3,
            one_off: 4,
            screenshot: 5,
            blank: 6,
        };
        let b = RenderStats {
            hits: 10,
            misses: 20,
            meme_variant: 30,
            one_off: 40,
            screenshot: 50,
            blank: 60,
        };
        a.merge(&b);
        assert_eq!(
            a,
            RenderStats {
                hits: 11,
                misses: 22,
                meme_variant: 33,
                one_off: 44,
                screenshot: 55,
                blank: 66,
            }
        );
    }
}
