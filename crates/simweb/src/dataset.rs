//! Dataset assembly: the synthetic counterpart of the paper's Table-1
//! corpus.
//!
//! A [`Dataset`] holds every *image post* across the five communities
//! (meme-variant posts from the ground-truth cascades plus one-off
//! image posts), per-day total post counts (the Fig. 8 denominators),
//! and the raw KYM site. Images are **not** materialized — each post
//! carries an [`ImageRef`] that [`Dataset::render_post_image`] expands
//! on demand, matching the paper's own practice ("after computing the
//! pHashes, we delete the images").

use crate::cascade::{generate_cascade, CascadeConfig};
use crate::community::{Community, CommunityProfile, SUBREDDITS};
use crate::kymgen::{generate_kym, GalleryImage, KymGenConfig, RawKymSite};
use crate::universe::{MemeGroup, Universe, UniverseConfig};
use meme_annotate::screenshot::render_screenshot;
use meme_imaging::image::Image;
use meme_imaging::synth::{JitterConfig, TemplateGenome};
use meme_stats::dist::{Categorical, Poisson};
use meme_stats::{child_seed, seeded_rng};
use rand::distr::Distribution;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Render resolution for all synthetic images.
pub const IMAGE_SIZE: usize = 64;

/// What a post's image is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ImageRef {
    /// A meme-variant render.
    MemeVariant {
        /// Meme id in the universe.
        meme: usize,
        /// Variant index.
        variant: usize,
        /// Per-post jitter seed.
        jitter_seed: u64,
    },
    /// A one-off image (DBSCAN noise mass).
    OneOff {
        /// Unique template seed.
        seed: u64,
    },
    /// A social-network screenshot post. Screenshots are posted in
    /// *families* (many re-posts of the same viral screenshot), so they
    /// form the un-annotated clusters the paper observed ("similar
    /// screenshots of social networks posts", §4.1.1) — and they are
    /// what KYM gallery screenshots spuriously match when Step 4 is
    /// disabled.
    Screenshot {
        /// Styled platform.
        platform: crate::community::ScreenshotPlatform,
        /// Family seed: posts sharing it show the same screenshot.
        family_seed: u64,
    },
    /// An all-zero image (fault injection: every blank post hashes to
    /// the same pHash, the pathological duplicate workload that breaks
    /// multi-index hashing's candidate pruning).
    Blank,
}

/// One image post.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Post {
    /// Post id (index into `Dataset::posts`).
    pub id: usize,
    /// Community.
    pub community: Community,
    /// Time in days since dataset start.
    pub t: f64,
    /// Subreddit for Reddit/The_Donald posts (index into
    /// [`SUBREDDITS`]).
    pub subreddit: Option<usize>,
    /// Vote score where the platform has one.
    pub score: Option<i64>,
    /// The image.
    pub image: ImageRef,
    /// Ground truth: the community that root-caused this post
    /// (meme posts only).
    pub true_root: Option<Community>,
}

/// Ground-truth identity of a post's image family, for clustering
/// audits: either a meme or a repeated screenshot family. One-off
/// images have no identity (they are *supposed* to be DBSCAN noise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PostTruth {
    /// The image belongs to a meme (by universe id).
    Meme(usize),
    /// The image is a social-network screenshot. Granularity matches
    /// the paper's human audit: a cluster of assorted post screenshots
    /// is consistently "screenshots", just as two variants of one meme
    /// merging is not a labeling error.
    Screenshot,
}

impl Post {
    /// Ground-truth identity for purity audits ([`PostTruth`]).
    pub fn truth_key(&self) -> Option<PostTruth> {
        match self.image {
            ImageRef::MemeVariant { meme, .. } => Some(PostTruth::Meme(meme)),
            ImageRef::Screenshot { .. } => Some(PostTruth::Screenshot),
            ImageRef::OneOff { .. } | ImageRef::Blank => None,
        }
    }

    /// Ground-truth meme/variant of the post's image, if it is one.
    pub fn true_variant(&self) -> Option<(usize, usize)> {
        match self.image {
            ImageRef::MemeVariant { meme, variant, .. } => Some((meme, variant)),
            ImageRef::OneOff { .. } | ImageRef::Screenshot { .. } | ImageRef::Blank => None,
        }
    }
}

/// Preset dataset scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimScale {
    /// Unit/integration-test scale: a couple thousand images, seconds
    /// end-to-end.
    Tiny,
    /// Example scale: tens of thousands of images, < 1 minute.
    Small,
    /// Evaluation scale for `memes repro`: order 10⁵ images.
    Default,
}

impl SimScale {
    fn universe_config(self) -> UniverseConfig {
        match self {
            SimScale::Tiny => UniverseConfig {
                n_memes: 60,
                rate_scale: 0.06,
                mean_variants: 2.0,
                ..UniverseConfig::default()
            },
            SimScale::Small => UniverseConfig {
                n_memes: 250,
                rate_scale: 0.045,
                ..UniverseConfig::default()
            },
            SimScale::Default => UniverseConfig {
                n_memes: 450,
                rate_scale: 0.05,
                ..UniverseConfig::default()
            },
        }
    }

    fn cascade_config(self) -> CascadeConfig {
        match self {
            SimScale::Tiny => CascadeConfig {
                horizon: 120.0,
                election_day: 60.0,
                debate_day: 45.0,
                ..CascadeConfig::default()
            },
            _ => CascadeConfig::default(),
        }
    }

    /// Multiplier on community total post volume.
    fn volume_factor(self) -> f64 {
        match self {
            SimScale::Tiny => 0.01,
            SimScale::Small => 0.05,
            SimScale::Default => 0.12,
        }
    }

    fn kym_config(self) -> KymGenConfig {
        match self {
            SimScale::Tiny => KymGenConfig {
                images_per_variant: 3.0,
                absent_entries: 5,
                ..KymGenConfig::default()
            },
            _ => KymGenConfig::default(),
        }
    }
}

/// Why a [`SimConfig`] cannot generate a dataset.
///
/// Historically an invalid horizon was only caught deep inside
/// dataset generation — `horizon <= 0` underflowed `horizon_days - 1`
/// (a panic) and a NaN horizon silently truncated to `horizon_days = 0`
/// via `as usize`. Validation now rejects both up front with a typed
/// error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimConfigError {
    /// `cascade.horizon` must be finite and strictly positive (days).
    InvalidHorizon {
        /// The offending value (NaN survives the round-trip as NaN).
        horizon: f64,
    },
    /// A community has no [`CommunityProfile`] in `profiles`.
    MissingProfile {
        /// The community without a profile.
        community: Community,
    },
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidHorizon { horizon } => write!(
                f,
                "cascade.horizon must be finite and positive, got {horizon}"
            ),
            Self::MissingProfile { community } => {
                write!(f, "no community profile for {}", community.name())
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Full simulation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Scale preset.
    pub scale: SimScale,
    /// Master seed; everything is a deterministic function of it.
    pub seed: u64,
    /// Universe parameters (derived from the scale, overridable).
    pub universe: UniverseConfig,
    /// Cascade timeline parameters.
    pub cascade: CascadeConfig,
    /// KYM site parameters.
    pub kym: KymGenConfig,
    /// Community profiles.
    pub profiles: Vec<CommunityProfile>,
}

impl SimConfig {
    /// A configuration at the given scale and seed.
    pub fn new(scale: SimScale, seed: u64) -> Self {
        Self {
            scale,
            seed,
            universe: scale.universe_config(),
            cascade: scale.cascade_config(),
            kym: scale.kym_config(),
            profiles: CommunityProfile::defaults(),
        }
    }

    /// Test-scale shortcut.
    pub fn tiny(seed: u64) -> Self {
        Self::new(SimScale::Tiny, seed)
    }

    /// Example-scale shortcut.
    pub fn small(seed: u64) -> Self {
        Self::new(SimScale::Small, seed)
    }

    /// Check the configuration without generating anything.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        let horizon = self.cascade.horizon;
        if !(horizon.is_finite() && horizon > 0.0) {
            return Err(SimConfigError::InvalidHorizon { horizon });
        }
        for community in Community::ALL {
            if !self.profiles.iter().any(|p| p.community == community) {
                return Err(SimConfigError::MissingProfile { community });
            }
        }
        Ok(())
    }

    /// Generate the dataset, rejecting an invalid configuration with a
    /// typed error instead of panicking mid-generation.
    pub fn try_generate(&self) -> Result<Dataset, SimConfigError> {
        self.validate()?;
        let config = self.clone();
        let seed = config.seed;
        let universe = Universe::generate(&config.universe, child_seed(seed, 1));
        let kym_raw = generate_kym(&universe, &config.kym, child_seed(seed, 2));
        let horizon = config.cascade.horizon;
        let horizon_days = horizon.ceil() as usize;

        // --- Meme posts from ground-truth cascades.
        let mut posts: Vec<Post> = Vec::new();
        let mut rng = seeded_rng(child_seed(seed, 3));
        let subreddit_weights_political = [30.0, 4.0, 2.0, 8.0, 2.0, 2.5, 6.0, 2.0, 1.5, 1.5];
        let subreddit_weights_racist = [18.0, 4.5, 3.5, 1.0, 3.0, 2.0, 0.5, 1.5, 1.0, 4.0];
        let subreddit_weights_neutral = [10.0, 8.0, 5.0, 1.5, 4.0, 3.0, 1.0, 2.5, 2.0, 1.0];
        let sub_political = Categorical::new(&subreddit_weights_political).expect("valid weights");
        let sub_racist = Categorical::new(&subreddit_weights_racist).expect("valid weights");
        let sub_neutral = Categorical::new(&subreddit_weights_neutral).expect("valid weights");

        let mut jitter_counter = 0u64;
        for spec in &universe.specs {
            let mut cascade_rng = seeded_rng(child_seed(seed, 0xCA5C_0000 + spec.id as u64));
            for variant in 0..spec.variants.len() {
                let events = generate_cascade(spec, variant, &config.cascade, &mut cascade_rng);
                for e in events {
                    jitter_counter += 1;
                    let (community, subreddit) = match e.community {
                        // Reddit-process meme posts land on a subreddit
                        // chosen by meme group; a draw of The_Donald's
                        // slot is re-routed to a general subreddit
                        // because T_D is its own process.
                        Community::Reddit => {
                            let dist = match spec.group {
                                MemeGroup::Political => &sub_political,
                                MemeGroup::Racist => &sub_racist,
                                MemeGroup::Neutral => &sub_neutral,
                            };
                            let mut s = dist.sample(&mut rng);
                            if s == 0 {
                                s = 1 + (spec.id % (SUBREDDITS.len() - 1));
                            }
                            (Community::Reddit, Some(s))
                        }
                        Community::TheDonald => (Community::TheDonald, Some(0)),
                        c => (c, None),
                    };
                    let profile = config
                        .profiles
                        .iter()
                        .find(|p| p.community == community)
                        .expect("profile exists");
                    let score = profile.has_score().then(|| {
                        profile.draw_score(
                            spec.group == MemeGroup::Political,
                            spec.group == MemeGroup::Racist,
                            &mut rng,
                        )
                    });
                    posts.push(Post {
                        id: 0,
                        community,
                        t: e.t,
                        subreddit,
                        score,
                        image: ImageRef::MemeVariant {
                            meme: spec.id,
                            variant,
                            jitter_seed: child_seed(seed, 0x11779 + jitter_counter),
                        },
                        true_root: Some(e.root_community),
                    });
                }
            }
        }

        // --- One-off image posts per community.
        // Indexed by Community::index(); ALL is ordered that way (the
        // debug assertion pins the assumption for future reorderings).
        debug_assert!(Community::ALL
            .iter()
            .enumerate()
            .all(|(i, c)| c.index() == i));
        let meme_counts: Vec<usize> = Community::ALL
            .iter()
            .map(|c| posts.iter().filter(|p| p.community == *c).count())
            .collect();
        let mut oneoff_counter = 0u64;
        for (ci, &community) in Community::ALL.iter().enumerate() {
            let profile = config
                .profiles
                .iter()
                .find(|p| p.community == community)
                .expect("profile exists");
            let n = (meme_counts[ci] as f64 * profile.oneoff_ratio).round() as usize;
            let start = community.start_day();
            for _ in 0..n {
                oneoff_counter += 1;
                let t = start + rng.random::<f64>() * (horizon - start);
                let subreddit = match community {
                    Community::Reddit => Some(1 + rng.random_range(0..SUBREDDITS.len() - 1)),
                    Community::TheDonald => Some(0),
                    _ => None,
                };
                let score = profile
                    .has_score()
                    .then(|| profile.draw_score(false, false, &mut rng));
                posts.push(Post {
                    id: 0,
                    community,
                    t,
                    subreddit,
                    score,
                    image: ImageRef::OneOff {
                        seed: child_seed(seed, 0x0FF_0000 + oneoff_counter),
                    },
                    true_root: None,
                });
            }
        }

        // --- Screenshot-post families on the fringe communities: the
        // paper found clusters of near-identical social-network
        // screenshots among the un-annotated mass.
        let mut family_counter = 0u64;
        for &community in Community::FRINGE.iter() {
            let profile = config
                .profiles
                .iter()
                .find(|p| p.community == community)
                .expect("profile exists");
            let meme_posts = meme_counts[community.index()];
            let n_families =
                ((meme_posts as f64 * profile.screenshot_family_rate).round() as usize).max(1);
            let start = community.start_day();
            for _ in 0..n_families {
                family_counter += 1;
                let family_seed = child_seed(seed, 0x5C_0000 + family_counter);
                let platform = crate::community::ScreenshotPlatform::ALL
                    [rng.random_range(0..crate::community::ScreenshotPlatform::ALL.len())];
                // Family sizes: most are viral enough to clear minPts.
                let copies = 3 + rng.random_range(0..10usize);
                for _ in 0..copies {
                    let t = start + rng.random::<f64>() * (horizon - start);
                    let subreddit = match community {
                        Community::TheDonald => Some(0),
                        _ => None,
                    };
                    let score = profile
                        .has_score()
                        .then(|| profile.draw_score(false, false, &mut rng));
                    posts.push(Post {
                        id: 0,
                        community,
                        t,
                        subreddit,
                        score,
                        image: ImageRef::Screenshot {
                            platform,
                            family_seed,
                        },
                        true_root: None,
                    });
                }
            }
        }

        // Sort by time, assign ids.
        posts.sort_by(|a, b| a.t.partial_cmp(&b.t).expect("finite times"));
        for (i, p) in posts.iter_mut().enumerate() {
            p.id = i;
        }

        // --- Daily totals (text + image posts).
        let mut daily_totals = vec![vec![0u64; horizon_days]; Community::COUNT];
        let mut totals_rng = seeded_rng(child_seed(seed, 4));
        for (ci, &community) in Community::ALL.iter().enumerate() {
            let profile = config
                .profiles
                .iter()
                .find(|p| p.community == community)
                .expect("profile exists");
            let per_day = profile.daily_posts * config.scale.volume_factor();
            let sampler = Poisson::new(per_day.max(0.0)).expect("valid rate");
            for (day, slot) in daily_totals[ci].iter_mut().enumerate() {
                if (day as f64) < community.start_day() {
                    continue;
                }
                *slot = sampler.sample(&mut totals_rng);
            }
        }
        // Totals can never be below the image posts actually emitted.
        for p in &posts {
            let ci = p.community.index();
            let day = (p.t.floor() as usize).min(horizon_days - 1);
            // Count image posts; bump the total if the Poisson draw came
            // in under the realized image volume.
            if daily_totals[ci][day] == 0 {
                daily_totals[ci][day] = 1;
            }
        }
        let mut image_per_day = vec![vec![0u64; horizon_days]; Community::COUNT];
        for p in &posts {
            let day = (p.t.floor() as usize).min(horizon_days - 1);
            image_per_day[p.community.index()][day] += 1;
        }
        for ci in 0..Community::COUNT {
            for day in 0..horizon_days {
                if daily_totals[ci][day] < image_per_day[ci][day] {
                    daily_totals[ci][day] = image_per_day[ci][day];
                }
            }
        }

        Ok(Dataset {
            config,
            horizon_days,
            universe,
            posts,
            daily_totals,
            kym_raw,
        })
    }

    /// Generate the dataset.
    ///
    /// # Panics
    /// Panics when [`validate`](Self::validate) rejects the
    /// configuration; use [`try_generate`](Self::try_generate) for a
    /// typed error.
    pub fn generate(&self) -> Dataset {
        self.try_generate().expect("invalid SimConfig")
    }
}

/// The assembled synthetic corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// The generating configuration.
    pub config: SimConfig,
    /// Observation horizon in whole days.
    pub horizon_days: usize,
    /// Ground-truth meme universe.
    pub universe: Universe,
    /// All image posts, sorted by time.
    pub posts: Vec<Post>,
    /// Total posts (text + image) per community per day:
    /// `daily_totals[community_index][day]`.
    pub daily_totals: Vec<Vec<u64>>,
    /// The raw (unfiltered) synthetic KYM site.
    pub kym_raw: RawKymSite,
}

impl Dataset {
    /// Render one post's image.
    pub fn render_post_image(&self, post: &Post) -> Image {
        match post.image {
            ImageRef::MemeVariant {
                meme,
                variant,
                jitter_seed,
            } => self.render_variant(meme, variant, jitter_seed),
            ImageRef::OneOff { seed } => TemplateGenome::new(seed).render(IMAGE_SIZE),
            ImageRef::Screenshot {
                platform,
                family_seed,
            } => {
                let mut rng = seeded_rng(family_seed);
                render_screenshot(platform.to_source(), IMAGE_SIZE, &mut rng)
            }
            ImageRef::Blank => Image::filled(IMAGE_SIZE, IMAGE_SIZE, 0.0),
        }
    }

    /// Render one KYM gallery image.
    pub fn render_gallery_image(&self, g: &GalleryImage) -> Image {
        match *g {
            GalleryImage::Variant {
                meme,
                variant,
                jitter_seed,
            } => self.render_variant(meme, variant, jitter_seed),
            GalleryImage::Foreign {
                template_seed,
                jitter_seed,
            } => {
                let mut rng = seeded_rng(jitter_seed);
                meme_imaging::synth::VariantGenome::base(TemplateGenome::new(template_seed))
                    .render_jittered(IMAGE_SIZE, &JitterConfig::default(), &mut rng)
            }
            GalleryImage::Screenshot { platform, seed } => {
                let mut rng = seeded_rng(seed);
                render_screenshot(platform, IMAGE_SIZE, &mut rng)
            }
        }
    }

    /// A jittered meme-variant render from scratch: what a post's
    /// [`ImageRef::MemeVariant`] and a gallery's
    /// [`GalleryImage::Variant`] both are.
    fn render_variant(&self, meme: usize, variant: usize, jitter_seed: u64) -> Image {
        let mut rng = seeded_rng(jitter_seed);
        self.universe.specs[meme].variants[variant].render_jittered(
            IMAGE_SIZE,
            &JitterConfig::default(),
            &mut rng,
        )
    }

    /// Posts on one community.
    pub fn posts_of(&self, community: Community) -> impl Iterator<Item = &Post> {
        self.posts.iter().filter(move |p| p.community == community)
    }

    /// Total posts per community over the window (Table 1's first
    /// column).
    pub fn total_posts(&self, community: Community) -> u64 {
        self.daily_totals[community.index()].iter().sum()
    }

    /// Observation horizon in days.
    pub fn horizon(&self) -> f64 {
        self.config.cascade.horizon
    }
}

impl CommunityProfile {
    /// Whether this profile's community carries scores (helper so the
    /// generation loop reads naturally).
    fn has_score(&self) -> bool {
        self.community.has_scores()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        SimConfig::tiny(11).generate()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SimConfig::tiny(5).generate();
        let b = SimConfig::tiny(5).generate();
        assert_eq!(a.posts, b.posts);
        assert_eq!(a.daily_totals, b.daily_totals);
    }

    /// Regression: `horizon <= 0` used to underflow `horizon_days - 1`
    /// (a usize panic deep in generation) and a NaN horizon silently
    /// produced `horizon_days = 0` via `as usize`. Both are now typed
    /// validation errors.
    #[test]
    fn degenerate_horizons_are_typed_errors() {
        for horizon in [0.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut config = SimConfig::tiny(1);
            config.cascade.horizon = horizon;
            assert!(
                matches!(
                    config.validate(),
                    Err(SimConfigError::InvalidHorizon { .. })
                ),
                "horizon {horizon} must fail validation"
            );
            assert!(
                config.try_generate().is_err(),
                "horizon {horizon} must not generate"
            );
        }
    }

    #[test]
    fn missing_profile_is_a_typed_error() {
        let mut config = SimConfig::tiny(1);
        config.profiles.retain(|p| p.community != Community::Gab);
        match config.validate() {
            Err(SimConfigError::MissingProfile { community }) => {
                assert_eq!(community, Community::Gab);
            }
            other => panic!("expected MissingProfile, got {other:?}"),
        }
    }

    #[test]
    fn try_generate_matches_generate() {
        let a = SimConfig::tiny(5).try_generate().expect("valid config");
        let b = SimConfig::tiny(5).generate();
        assert_eq!(a.posts, b.posts);
        assert_eq!(a.daily_totals, b.daily_totals);
    }

    #[test]
    fn posts_sorted_with_dense_ids() {
        let d = tiny();
        assert!(!d.posts.is_empty());
        for (i, p) in d.posts.iter().enumerate() {
            assert_eq!(p.id, i);
        }
        for w in d.posts.windows(2) {
            assert!(w[0].t <= w[1].t);
        }
    }

    #[test]
    fn every_community_posts() {
        let d = tiny();
        for c in Community::ALL {
            assert!(d.posts_of(c).count() > 0, "{} has no image posts", c.name());
            assert!(d.total_posts(c) > 0);
        }
    }

    #[test]
    fn volume_ordering_matches_paper() {
        let d = tiny();
        // Total posts: Twitter > Reddit > /pol/ > Gab (Table 1).
        assert!(d.total_posts(Community::Twitter) > d.total_posts(Community::Reddit));
        assert!(d.total_posts(Community::Reddit) > d.total_posts(Community::Pol));
        assert!(d.total_posts(Community::Pol) > d.total_posts(Community::Gab));
    }

    #[test]
    fn scores_only_where_supported() {
        let d = tiny();
        for p in &d.posts {
            assert_eq!(p.score.is_some(), p.community.has_scores());
            match p.community {
                Community::Reddit | Community::TheDonald => {
                    assert!(p.subreddit.is_some())
                }
                _ if p.community == Community::TheDonald => {}
                _ => {}
            }
            if p.community == Community::TheDonald {
                assert_eq!(p.subreddit, Some(0));
            }
            if !matches!(p.community, Community::Reddit | Community::TheDonald) {
                assert!(p.subreddit.is_none());
            }
        }
    }

    #[test]
    fn gab_posts_respect_launch() {
        let d = tiny();
        for p in d.posts_of(Community::Gab) {
            assert!(p.t >= Community::Gab.start_day());
        }
        // Pre-launch days have zero totals.
        let gi = Community::Gab.index();
        for day in 0..(Community::Gab.start_day() as usize) {
            assert_eq!(d.daily_totals[gi][day], 0);
        }
    }

    #[test]
    fn meme_posts_have_roots_oneoffs_do_not() {
        let d = tiny();
        let mut memes = 0;
        let mut oneoffs = 0;
        for p in &d.posts {
            match p.image {
                ImageRef::MemeVariant { .. } => {
                    memes += 1;
                    assert!(p.true_root.is_some());
                    assert!(p.true_variant().is_some());
                }
                ImageRef::OneOff { .. } => {
                    oneoffs += 1;
                    assert!(p.true_root.is_none());
                    assert!(p.true_variant().is_none());
                }
                ImageRef::Screenshot { .. } => {
                    assert!(p.true_root.is_none());
                    assert!(p.true_variant().is_none());
                    assert!(p.community.is_fringe());
                }
                ImageRef::Blank => panic!("generator never emits blank images"),
            }
        }
        assert!(memes > 100, "meme posts {memes}");
        assert!(
            oneoffs > memes,
            "one-offs {oneoffs} must dominate memes {memes}"
        );
    }

    #[test]
    fn daily_totals_cover_image_posts() {
        let d = tiny();
        let mut image_per_day = vec![vec![0u64; d.horizon_days]; Community::COUNT];
        for p in &d.posts {
            let day = (p.t.floor() as usize).min(d.horizon_days - 1);
            image_per_day[p.community.index()][day] += 1;
        }
        for ci in 0..Community::COUNT {
            for day in 0..d.horizon_days {
                assert!(d.daily_totals[ci][day] >= image_per_day[ci][day]);
            }
        }
    }

    #[test]
    fn rendering_works_for_all_ref_kinds() {
        let d = tiny();
        let meme_post = d
            .posts
            .iter()
            .find(|p| matches!(p.image, ImageRef::MemeVariant { .. }))
            .unwrap();
        let oneoff_post = d
            .posts
            .iter()
            .find(|p| matches!(p.image, ImageRef::OneOff { .. }))
            .unwrap();
        for p in [meme_post, oneoff_post] {
            let img = d.render_post_image(p);
            assert_eq!(img.width(), IMAGE_SIZE);
            // Deterministic.
            assert_eq!(img, d.render_post_image(p));
        }
        for g in d.kym_raw.entries[0].images.iter().take(3) {
            let img = d.render_gallery_image(g);
            assert_eq!(img.width(), IMAGE_SIZE);
        }
    }

    #[test]
    fn screenshot_families_repeat_and_render() {
        let d = tiny();
        use std::collections::HashMap;
        let mut families: HashMap<u64, usize> = HashMap::new();
        for p in &d.posts {
            if let ImageRef::Screenshot { family_seed, .. } = p.image {
                *families.entry(family_seed).or_insert(0) += 1;
            }
        }
        assert!(!families.is_empty(), "no screenshot families generated");
        // Families are multi-post (that is what makes them cluster).
        assert!(families.values().any(|&c| c >= 3));
        // Same family renders the identical image.
        let shot = d
            .posts
            .iter()
            .find(|p| matches!(p.image, ImageRef::Screenshot { .. }))
            .unwrap();
        assert_eq!(d.render_post_image(shot), d.render_post_image(shot));
    }

    #[test]
    fn fringe_communities_have_enough_meme_mass_to_cluster() {
        let d = tiny();
        for c in Community::FRINGE {
            let memes = d
                .posts_of(c)
                .filter(|p| matches!(p.image, ImageRef::MemeVariant { .. }))
                .count();
            assert!(memes > 20, "{}: only {memes} meme posts", c.name());
        }
    }
}
