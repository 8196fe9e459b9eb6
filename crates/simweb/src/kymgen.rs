//! Synthetic Know Your Meme site generation.
//!
//! Builds a *raw* annotation site: entries with image galleries that mix
//! true variant renders with social-network screenshots — the noise the
//! paper's Step-4 CNN exists to remove ("meme annotation sites like KYM
//! often include, in their image galleries, screenshots of social
//! network posts"). The pipeline materializes gallery images lazily,
//! filters them, hashes the survivors, and only then produces the
//! `meme_annotate::KymSite` the annotation step consumes.
//!
//! Calibration targets from §3.2 / Fig. 4: entry counts dominated by
//! memes, heavy-tailed gallery sizes (median ~9, mean ~45, max in the
//! thousands), higher-level categories carrying more images, and a
//! Fig. 5b x = 0 mass of entries that annotate no cluster (entries for
//! memes the communities never posted).

use crate::universe::Universe;
use meme_annotate::kym::KymCategory;
use meme_annotate::screenshot::SourcePlatform;
use meme_stats::dist::Zipf;
use meme_stats::{child_seed, seeded_rng};
use rand::distr::Distribution;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// A lazily-renderable gallery image.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GalleryImage {
    /// A genuine variant render (with per-image jitter).
    Variant {
        /// Meme id in the universe.
        meme: usize,
        /// Variant index within the meme.
        variant: usize,
        /// Jitter RNG seed.
        jitter_seed: u64,
    },
    /// An off-universe image (for entries about memes the communities
    /// never post, and for random gallery cruft).
    Foreign {
        /// Template seed.
        template_seed: u64,
        /// Jitter RNG seed.
        jitter_seed: u64,
    },
    /// A social-network screenshot (Step-4 noise).
    Screenshot {
        /// Styled platform.
        platform: SourcePlatform,
        /// Render seed.
        seed: u64,
    },
}

impl GalleryImage {
    /// Whether this gallery image is screenshot noise.
    pub fn is_screenshot(&self) -> bool {
        matches!(self, GalleryImage::Screenshot { .. })
    }
}

/// A raw KYM entry: metadata plus an unfiltered gallery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawKymEntry {
    /// Entry name.
    pub name: String,
    /// Entry category.
    pub category: KymCategory,
    /// Tags.
    pub tags: Vec<String>,
    /// Origin platform.
    pub origin: String,
    /// People referenced.
    pub people: Vec<String>,
    /// Cultures referenced.
    pub cultures: Vec<String>,
    /// The meme this entry documents, when it is in the universe.
    pub meme_id: Option<usize>,
    /// Unfiltered gallery.
    pub images: Vec<GalleryImage>,
}

/// The raw annotation site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawKymSite {
    /// All entries.
    pub entries: Vec<RawKymEntry>,
}

/// KYM generation knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KymGenConfig {
    /// Gallery images per variant for an average entry (scaled by meme
    /// popularity).
    pub images_per_variant: f64,
    /// Probability that a gallery slot is screenshot noise.
    pub screenshot_fraction: f64,
    /// Number of extra entries documenting memes absent from the
    /// communities (Fig. 5b's zero-cluster entries).
    pub absent_entries: usize,
}

impl Default for KymGenConfig {
    fn default() -> Self {
        Self {
            images_per_variant: 4.0,
            screenshot_fraction: 0.12,
            absent_entries: 12,
        }
    }
}

/// Generate the raw site for a universe.
pub fn generate_kym(universe: &Universe, config: &KymGenConfig, seed: u64) -> RawKymSite {
    let mut rng = seeded_rng(child_seed(seed, 0x171717));
    let mut entries = Vec::new();
    let mut jitter_counter = 0u64;
    let mut jitter = || {
        jitter_counter += 1;
        child_seed(seed, 0xF00D_0000 + jitter_counter)
    };

    for spec in universe.specs.iter().filter(|s| s.catalogued) {
        let mut images = Vec::new();
        // Gallery size scales with popularity (Fig. 4b heavy tail).
        let per_variant = (config.images_per_variant * (0.5 + spec.popularity)).ceil() as usize;
        for (v, _) in spec.variants.iter().enumerate() {
            for _ in 0..per_variant.max(1) {
                images.push(GalleryImage::Variant {
                    meme: spec.id,
                    variant: v,
                    jitter_seed: jitter(),
                });
            }
        }
        // Higher-level categories aggregate images from related specs
        // (this is what makes several entries annotate one cluster —
        // the Conspiracy-Keanu effect of Fig. 5a).
        if matches!(
            spec.category,
            KymCategory::Culture | KymCategory::Subculture | KymCategory::Site
        ) {
            for other in universe.specs.iter().filter(|o| {
                o.id != spec.id
                    && o.catalogued
                    && (o.cultures.iter().any(|c| c == &spec.name)
                        || o.tags.iter().any(|t| spec.tags.contains(t)))
            }) {
                for v in 0..other.variants.len().min(2) {
                    images.push(GalleryImage::Variant {
                        meme: other.id,
                        variant: v,
                        jitter_seed: jitter(),
                    });
                }
            }
        }
        // Related-meme cross-pollination: frog memes include a couple of
        // images of sibling frog memes.
        if spec.tags.iter().any(|t| t == "frog" || t == "pepe") {
            for other in universe
                .specs
                .iter()
                .filter(|o| o.id != spec.id && o.tags.iter().any(|t| t == "frog"))
                .take(3)
            {
                images.push(GalleryImage::Variant {
                    meme: other.id,
                    variant: 0,
                    jitter_seed: jitter(),
                });
            }
        }
        // Screenshot noise.
        let n_shots = ((images.len() as f64 * config.screenshot_fraction).round() as usize).max(
            if config.screenshot_fraction > 0.0 {
                1
            } else {
                0
            },
        );
        for _ in 0..n_shots {
            let platform = SourcePlatform::ALL[rng.random_range(0..SourcePlatform::ALL.len())];
            images.push(GalleryImage::Screenshot {
                platform,
                seed: jitter(),
            });
        }

        entries.push(RawKymEntry {
            name: spec.name.clone(),
            category: spec.category,
            tags: spec.tags.clone(),
            origin: spec.origin.clone(),
            people: spec.people.clone(),
            cultures: spec.cultures.clone(),
            meme_id: Some(spec.id),
            images,
        });
    }

    // Entries for memes absent from the communities: their galleries
    // use foreign templates no post will ever match.
    let size_zipf = Zipf::new(30, 1.1).expect("valid Zipf");
    for i in 0..config.absent_entries {
        let n_images = size_zipf.sample(&mut rng) + 1;
        let template_seed = child_seed(seed, 0xABBA_0000 + i as u64);
        let images = (0..n_images)
            .map(|_| GalleryImage::Foreign {
                template_seed,
                jitter_seed: jitter(),
            })
            .collect();
        entries.push(RawKymEntry {
            name: format!("Dormant Meme #{i}"),
            category: KymCategory::Meme,
            tags: vec!["obscure".to_string()],
            origin: "Unknown".to_string(),
            people: vec![],
            cultures: vec![],
            meme_id: None,
            images,
        });
    }

    RawKymSite { entries }
}

impl RawKymSite {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the site has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::UniverseConfig;

    fn site() -> (Universe, RawKymSite) {
        let u = Universe::generate(
            &UniverseConfig {
                n_memes: 90,
                ..UniverseConfig::default()
            },
            7,
        );
        let s = generate_kym(&u, &KymGenConfig::default(), 7);
        (u, s)
    }

    #[test]
    fn only_catalogued_specs_get_entries() {
        let (u, s) = site();
        let catalogued = u.specs.iter().filter(|x| x.catalogued).count();
        assert_eq!(s.len(), catalogued + KymGenConfig::default().absent_entries);
    }

    #[test]
    fn galleries_contain_screenshot_noise() {
        let (_, s) = site();
        let shots: usize = s
            .entries
            .iter()
            .flat_map(|e| &e.images)
            .filter(|g| g.is_screenshot())
            .count();
        let total: usize = s.entries.iter().map(|e| e.images.len()).sum();
        let frac = shots as f64 / total as f64;
        assert!(
            (0.03..0.3).contains(&frac),
            "screenshot fraction {frac} of {total}"
        );
    }

    #[test]
    fn absent_entries_have_no_meme_id() {
        let (_, s) = site();
        let absent: Vec<_> = s.entries.iter().filter(|e| e.meme_id.is_none()).collect();
        assert_eq!(absent.len(), KymGenConfig::default().absent_entries);
        for e in absent {
            assert!(e
                .images
                .iter()
                .all(|g| matches!(g, GalleryImage::Foreign { .. })));
        }
    }

    #[test]
    fn popular_memes_have_bigger_galleries() {
        let (u, s) = site();
        let gallery_of = |meme_id: usize| -> usize {
            s.entries
                .iter()
                .find(|e| e.meme_id == Some(meme_id))
                .map(|e| e.images.len())
                .unwrap_or(0)
        };
        // Meme 0 is the most popular catalogued spec.
        let top = gallery_of(u.specs[0].id);
        let tail_spec = u
            .specs
            .iter()
            .rev()
            .find(|sp| sp.catalogued)
            .expect("some catalogued spec");
        assert!(top >= gallery_of(tail_spec.id), "top {top}");
    }

    #[test]
    fn frog_entries_cross_pollinate() {
        let (u, s) = site();
        let smug = u.specs.iter().find(|x| x.name == "Smug Frog").unwrap();
        let entry = s
            .entries
            .iter()
            .find(|e| e.meme_id == Some(smug.id))
            .unwrap();
        let foreign_memes = entry
            .images
            .iter()
            .filter_map(|g| match g {
                GalleryImage::Variant { meme, .. } if *meme != smug.id => Some(*meme),
                _ => None,
            })
            .count();
        assert!(
            foreign_memes > 0,
            "frog gallery should include sibling frogs"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let (u, _) = site();
        let a = generate_kym(&u, &KymGenConfig::default(), 7);
        let b = generate_kym(&u, &KymGenConfig::default(), 7);
        assert_eq!(a, b);
    }
}
