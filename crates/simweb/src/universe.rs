//! The ground-truth meme universe.
//!
//! Every image the simulator posts descends from a [`MemeSpec`]: a named
//! meme (or person/event/site/culture entry, mirroring KYM's categories)
//! with a procedural image template, a set of structural variants (the
//! future DBSCAN clusters), per-community affinities, and a ground-truth
//! Hawkes model governing its spread. The catalog seeds the most
//! prominent entries from the paper's Tables 3–5 so the reproduced
//! tables read like the originals; synthetic filler specs provide the
//! long tail, including the *uncatalogued* cluster mass (the paper
//! found only 13%–24% of fringe clusters carry KYM annotations).

use crate::community::Community;
use meme_annotate::kym::KymCategory;
use meme_hawkes::HawkesModel;
use meme_imaging::synth::{TemplateGenome, VariantGenome};
use meme_stats::dist::{Dirichlet, Zipf};
use meme_stats::{child_seed, seeded_rng};
use rand::distr::Distribution;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// The paper's two high-level meme groups plus everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemeGroup {
    /// Tagged racist/antisemitic (4.4% of memes in the paper).
    Racist,
    /// Politics-related (21.2%).
    Political,
    /// Everything else.
    Neutral,
}

/// A named catalog row: the curated part of the universe.
struct CatalogRow {
    name: &'static str,
    category: KymCategory,
    tags: &'static [&'static str],
    origin: &'static str,
    group: MemeGroup,
    /// Whether the meme is mainstream-flavoured (Twitter/Reddit native)
    /// rather than fringe-flavoured.
    mainstream: bool,
}

/// Curated entries drawn from Tables 3–5 of the paper.
const CATALOG: &[CatalogRow] = &[
    // --- Frog family and fringe memes.
    CatalogRow {
        name: "Feels Bad Man/Sad Frog",
        category: KymCategory::Meme,
        tags: &["frog", "pepe"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Smug Frog",
        category: KymCategory::Meme,
        tags: &["frog", "pepe"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Pepe the Frog",
        category: KymCategory::Meme,
        tags: &["frog", "pepe"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Apu Apustaja",
        category: KymCategory::Meme,
        tags: &["frog", "pepe"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Angry Pepe",
        category: KymCategory::Meme,
        tags: &["frog", "pepe"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Happy Merchant",
        category: KymCategory::Meme,
        tags: &["antisemitism"],
        origin: "4chan",
        group: MemeGroup::Racist,
        mainstream: false,
    },
    CatalogRow {
        name: "A. Wyatt Mann",
        category: KymCategory::Meme,
        tags: &["racism"],
        origin: "4chan",
        group: MemeGroup::Racist,
        mainstream: false,
    },
    CatalogRow {
        name: "Serbia Strong/Remove Kebab",
        category: KymCategory::Meme,
        tags: &["racism"],
        origin: "Youtube",
        group: MemeGroup::Racist,
        mainstream: false,
    },
    CatalogRow {
        name: "Cult of Kek",
        category: KymCategory::Meme,
        tags: &["frog", "pepe"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Bait This Is Bait",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "I Know That Feel Bro",
        category: KymCategory::Meme,
        tags: &["wojak"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Wojak/Feels Guy",
        category: KymCategory::Meme,
        tags: &["wojak"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Spurdo Sparde",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Dubs Guy/Check'em",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Counter Signal Memes",
        category: KymCategory::Meme,
        tags: &["politics"],
        origin: "4chan",
        group: MemeGroup::Political,
        mainstream: false,
    },
    CatalogRow {
        name: "Computer Reaction Faces",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Reaction Images",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Absolutely Disgusting",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "Unknown",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Laughing Tom Cruise",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "Unknown",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Awoo",
        category: KymCategory::Meme,
        tags: &["anime"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Doom Paul It's Happening",
        category: KymCategory::Meme,
        tags: &["politics"],
        origin: "4chan",
        group: MemeGroup::Political,
        mainstream: false,
    },
    // --- Political memes.
    CatalogRow {
        name: "Make America Great Again",
        category: KymCategory::Meme,
        tags: &["trump", "politics"],
        origin: "Twitter",
        group: MemeGroup::Political,
        mainstream: false,
    },
    CatalogRow {
        name: "Clinton Trump Duet",
        category: KymCategory::Meme,
        tags: &["clinton", "trump"],
        origin: "Twitter",
        group: MemeGroup::Political,
        mainstream: true,
    },
    CatalogRow {
        name: "Donald Trump's Wall",
        category: KymCategory::Meme,
        tags: &["trump", "politics"],
        origin: "Reddit",
        group: MemeGroup::Political,
        mainstream: false,
    },
    CatalogRow {
        name: "Jesusland",
        category: KymCategory::Meme,
        tags: &["politics"],
        origin: "Unknown",
        group: MemeGroup::Political,
        mainstream: false,
    },
    CatalogRow {
        name: "Based Stickman",
        category: KymCategory::Meme,
        tags: &["politics"],
        origin: "Twitter",
        group: MemeGroup::Political,
        mainstream: false,
    },
    CatalogRow {
        name: "Picardia",
        category: KymCategory::Meme,
        tags: &["politics"],
        origin: "Unknown",
        group: MemeGroup::Political,
        mainstream: false,
    },
    CatalogRow {
        name: "Kekistan",
        category: KymCategory::Meme,
        tags: &["politics"],
        origin: "4chan",
        group: MemeGroup::Political,
        mainstream: false,
    },
    // --- Mainstream memes.
    CatalogRow {
        name: "Roll Safe",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "Twitter",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Evil Kermit",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "Twitter",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Arthur's Fist",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "Twitter",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Nut Button",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "Twitter",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Spongebob Mock",
        category: KymCategory::Meme,
        tags: &["spongebob"],
        origin: "Twitter",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Expanding Brain",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "Reddit",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Manning Face",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "Reddit",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "That's the Joke",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "Reddit",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Confession Bear",
        category: KymCategory::Meme,
        tags: &["advice animal"],
        origin: "Reddit",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "This is Fine",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "Reddit",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Demotivational Posters",
        category: KymCategory::Meme,
        tags: &["image macro"],
        origin: "Unknown",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Rage Guy",
        category: KymCategory::Meme,
        tags: &["rage comics"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Conceited Reaction",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "Twitter",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Salt Bae",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "Twitter",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Harambe the Gorilla",
        category: KymCategory::Meme,
        tags: &["reaction"],
        origin: "Reddit",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    // --- People (Table 5).
    CatalogRow {
        name: "Donald Trump",
        category: KymCategory::Person,
        tags: &["trump", "politics"],
        origin: "Unknown",
        group: MemeGroup::Political,
        mainstream: false,
    },
    CatalogRow {
        name: "Adolf Hitler",
        category: KymCategory::Person,
        tags: &["racism", "politics"],
        origin: "Unknown",
        group: MemeGroup::Racist,
        mainstream: false,
    },
    CatalogRow {
        name: "Hillary Clinton",
        category: KymCategory::Person,
        tags: &["clinton", "politics"],
        origin: "Unknown",
        group: MemeGroup::Political,
        mainstream: true,
    },
    CatalogRow {
        name: "Bernie Sanders",
        category: KymCategory::Person,
        tags: &["politics"],
        origin: "Unknown",
        group: MemeGroup::Political,
        mainstream: true,
    },
    CatalogRow {
        name: "Vladimir Putin",
        category: KymCategory::Person,
        tags: &["politics"],
        origin: "Unknown",
        group: MemeGroup::Political,
        mainstream: false,
    },
    CatalogRow {
        name: "Barack Obama",
        category: KymCategory::Person,
        tags: &["politics"],
        origin: "Unknown",
        group: MemeGroup::Political,
        mainstream: true,
    },
    CatalogRow {
        name: "Kim Jong Un",
        category: KymCategory::Person,
        tags: &["politics"],
        origin: "Unknown",
        group: MemeGroup::Political,
        mainstream: true,
    },
    CatalogRow {
        name: "Mitt Romney",
        category: KymCategory::Person,
        tags: &["politics"],
        origin: "Unknown",
        group: MemeGroup::Political,
        mainstream: false,
    },
    CatalogRow {
        name: "Bill Nye",
        category: KymCategory::Person,
        tags: &["science"],
        origin: "Unknown",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Chelsea Manning",
        category: KymCategory::Person,
        tags: &["politics"],
        origin: "Unknown",
        group: MemeGroup::Political,
        mainstream: true,
    },
    // --- Events.
    CatalogRow {
        name: "#CNNBlackmail",
        category: KymCategory::Event,
        tags: &["politics", "trump"],
        origin: "Reddit",
        group: MemeGroup::Political,
        mainstream: false,
    },
    CatalogRow {
        name: "2016 US Election",
        category: KymCategory::Event,
        tags: &["politics", "presidential election"],
        origin: "Unknown",
        group: MemeGroup::Political,
        mainstream: false,
    },
    CatalogRow {
        name: "Brexit",
        category: KymCategory::Event,
        tags: &["politics"],
        origin: "Twitter",
        group: MemeGroup::Political,
        mainstream: true,
    },
    CatalogRow {
        name: "#TrumpAnime/Rick Wilson",
        category: KymCategory::Event,
        tags: &["politics", "trump"],
        origin: "Twitter",
        group: MemeGroup::Political,
        mainstream: false,
    },
    CatalogRow {
        name: "Gamergate",
        category: KymCategory::Event,
        tags: &["controversy"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    // --- Sites.
    CatalogRow {
        name: "/pol/",
        category: KymCategory::Site,
        tags: &["4chan"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Know Your Meme",
        category: KymCategory::Site,
        tags: &["meme database"],
        origin: "Unknown",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Tumblr",
        category: KymCategory::Site,
        tags: &["social network"],
        origin: "Tumblr",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    // --- Cultures & subcultures.
    CatalogRow {
        name: "Alt-Right",
        category: KymCategory::Culture,
        tags: &["politics", "racism"],
        origin: "4chan",
        group: MemeGroup::Racist,
        mainstream: false,
    },
    CatalogRow {
        name: "Feminism",
        category: KymCategory::Culture,
        tags: &["politics"],
        origin: "Tumblr",
        group: MemeGroup::Political,
        mainstream: true,
    },
    CatalogRow {
        name: "Trolling",
        category: KymCategory::Culture,
        tags: &["behavior"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "Rage Comics",
        category: KymCategory::Subculture,
        tags: &["comics"],
        origin: "4chan",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Spongebob Squarepants",
        category: KymCategory::Subculture,
        tags: &["cartoon"],
        origin: "Youtube",
        group: MemeGroup::Neutral,
        mainstream: true,
    },
    CatalogRow {
        name: "Warhammer 40000",
        category: KymCategory::Subculture,
        tags: &["games"],
        origin: "Unknown",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
    CatalogRow {
        name: "rwby",
        category: KymCategory::Subculture,
        tags: &["anime"],
        origin: "Youtube",
        group: MemeGroup::Neutral,
        mainstream: false,
    },
];

/// A fully specified meme (or meme-like image family).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemeSpec {
    /// Universe-wide meme id.
    pub id: usize,
    /// Display name.
    pub name: String,
    /// KYM category (drives Tables 3–5 splits).
    pub category: KymCategory,
    /// KYM-style tags (drive the racist/political grouping).
    pub tags: Vec<String>,
    /// Platform of origin (Fig. 4c).
    pub origin: String,
    /// High-level group.
    pub group: MemeGroup,
    /// Whether the synthetic KYM site has an entry for this meme.
    /// Uncatalogued specs become the paper's un-annotated clusters.
    pub catalogued: bool,
    /// People referenced (for the custom metric's `people` feature).
    pub people: Vec<String>,
    /// Cultures referenced (for the `culture` feature).
    pub cultures: Vec<String>,
    /// Image template.
    pub template: TemplateGenome,
    /// Structural variants — each is a ground-truth cluster.
    pub variants: Vec<VariantGenome>,
    /// Relative share of the meme's posts carried by each variant.
    pub variant_shares: Vec<f64>,
    /// Popularity weight (Zipf mass).
    pub popularity: f64,
    /// Per-community background-rate multipliers.
    pub affinity: [f64; Community::COUNT],
    /// Ground-truth Hawkes model for this meme's spread (per-variant
    /// background rates are `mu * variant_share`).
    pub hawkes: HawkesModel,
}

impl MemeSpec {
    /// Whether the spec is in the paper's politics group.
    pub fn is_political(&self) -> bool {
        self.group == MemeGroup::Political
    }

    /// Whether the spec is in the paper's racism group.
    pub fn is_racist(&self) -> bool {
        self.group == MemeGroup::Racist
    }
}

/// Universe generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UniverseConfig {
    /// Total number of meme specs (curated catalog + synthetic filler).
    pub n_memes: usize,
    /// Fraction of *filler* specs that get KYM entries (curated specs
    /// always do). Tuned so annotated-cluster coverage lands in the
    /// paper's 13%–24% band.
    pub filler_catalogued_fraction: f64,
    /// Zipf exponent for meme popularity.
    pub popularity_exponent: f64,
    /// Mean number of variants per meme (popular memes get more).
    pub mean_variants: f64,
    /// Overall Hawkes background scale (events/day for an
    /// average-popularity meme in its best community).
    pub rate_scale: f64,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        Self {
            n_memes: 450,
            filler_catalogued_fraction: 0.08,
            popularity_exponent: 1.05,
            mean_variants: 3.0,
            rate_scale: 0.05,
        }
    }
}

/// The generated meme universe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Universe {
    /// All meme specs, `specs[i].id == i`.
    pub specs: Vec<MemeSpec>,
}

impl Universe {
    /// Generate a universe deterministically from a seed.
    pub fn generate(config: &UniverseConfig, seed: u64) -> Self {
        assert!(config.n_memes > 0, "need at least one meme");
        let mut rng = seeded_rng(child_seed(seed, 0x0111));
        // Only a slice of the universe is curated/catalogued: the paper
        // found that just 13%-24% of fringe clusters match any KYM
        // entry — most clusters are recurring-but-undocumented image
        // families. Curated specs take the head of the popularity Zipf;
        // filler specs get moderate uniform popularity so they form real
        // clusters (the un-annotated mass) rather than noise.
        let curated_count = CATALOG.len().min((config.n_memes / 8).max(8));
        let zipf =
            Zipf::new(curated_count, config.popularity_exponent).expect("valid Zipf parameters");
        let catalog_order = catalog_priority_order();

        let mut specs = Vec::with_capacity(config.n_memes);
        for id in 0..config.n_memes {
            let curated = id < curated_count;
            let (name, category, tags, origin, group, mainstream, catalogued) = if curated {
                let row = &CATALOG[catalog_order[id]];
                (
                    row.name.to_string(),
                    row.category,
                    row.tags.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
                    row.origin.to_string(),
                    row.group,
                    row.mainstream,
                    true,
                )
            } else {
                // Synthetic filler: mostly neutral one-community image
                // families (the "miscellaneous images unrelated to
                // memes" the paper found in un-annotated clusters).
                let group = match rng.random_range(0..100u32) {
                    0..=3 => MemeGroup::Racist,
                    4..=20 => MemeGroup::Political,
                    _ => MemeGroup::Neutral,
                };
                let mainstream = rng.random_bool(0.35);
                let catalogued = rng.random_bool(config.filler_catalogued_fraction);
                // Catalogued filler entries follow Fig. 4a's category mix
                // (memes 57%, subcultures 30%, the rest split among
                // cultures/events/sites/people); uncatalogued image
                // families have no KYM identity so stay plain memes.
                let category = if catalogued {
                    match rng.random_range(0..100u32) {
                        0..=56 => KymCategory::Meme,
                        57..=86 => KymCategory::Subculture,
                        87..=89 => KymCategory::Culture,
                        90..=93 => KymCategory::Event,
                        94..=96 => KymCategory::Site,
                        _ => KymCategory::Person,
                    }
                } else {
                    KymCategory::Meme
                };
                let noun = match category {
                    KymCategory::Meme => "Meme",
                    KymCategory::Subculture => "Subculture",
                    KymCategory::Culture => "Culture",
                    KymCategory::Event => "Event",
                    KymCategory::Site => "Site",
                    KymCategory::Person => "Person",
                };
                (
                    format!("Synthetic {noun} #{id}"),
                    category,
                    vec![match group {
                        MemeGroup::Racist => "racism".to_string(),
                        MemeGroup::Political => "politics".to_string(),
                        MemeGroup::Neutral => "misc".to_string(),
                    }],
                    "Unknown".to_string(),
                    group,
                    mainstream,
                    catalogued,
                )
            };

            let popularity = if curated {
                // The hits: Zipf mass scaled so the head dominates.
                (zipf.pmf(id + 1) * curated_count as f64 * 1.2).max(0.7)
            } else {
                rng.random_range(0.3..1.0)
            };
            let affinity = affinity_for(group, mainstream, &mut rng);

            // Variant count grows with popularity.
            let n_variants = (1.0
                + (config.mean_variants - 1.0) * popularity.min(4.0)
                + rng.random_range(0.0..1.0))
            .round()
            .clamp(1.0, 12.0) as usize;
            let template = TemplateGenome::new(child_seed(seed, 0xBEEF + id as u64));
            let mut variants = Vec::with_capacity(n_variants);
            for v in 0..n_variants {
                if v == 0 {
                    variants.push(VariantGenome::base(template));
                } else {
                    variants.push(VariantGenome::random(
                        template,
                        child_seed(seed, (id as u64) << 8 | v as u64),
                        1 + v % 2,
                    ));
                }
            }
            let shares = if n_variants == 1 {
                vec![1.0]
            } else {
                Dirichlet::symmetric(n_variants, 1.2)
                    .expect("n_variants >= 2")
                    .sample(&mut rng)
            };

            let hawkes = hawkes_for(group, &affinity, popularity, config.rate_scale, &mut rng);

            let people = match category {
                KymCategory::Person => vec![name.clone()],
                _ if group == MemeGroup::Political && rng.random_bool(0.4) => {
                    vec!["Donald Trump".to_string()]
                }
                _ => vec![],
            };
            let cultures = match group {
                MemeGroup::Racist => vec!["Alt-Right".to_string()],
                MemeGroup::Political if rng.random_bool(0.3) => {
                    vec!["Alt-Right".to_string()]
                }
                _ if tags.iter().any(|t| t == "frog" || t == "pepe") => {
                    vec!["Frog Memes".to_string()]
                }
                _ => vec![],
            };

            specs.push(MemeSpec {
                id,
                name,
                category,
                tags,
                origin,
                group,
                catalogued,
                people,
                cultures,
                template,
                variants,
                variant_shares: shares,
                popularity,
                affinity,
                hawkes,
            });
        }
        Self { specs }
    }

    /// Number of specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Order in which catalog rows enter small universes: the paper's most
/// prominent entries (across all six categories) first, so that even a
/// test-scale universe exercises Tables 3–5.
fn catalog_priority_order() -> Vec<usize> {
    const HEAD: [&str; 18] = [
        "Donald Trump",
        "Feels Bad Man/Sad Frog",
        "Smug Frog",
        "Happy Merchant",
        "Make America Great Again",
        "Pepe the Frog",
        "Roll Safe",
        "Adolf Hitler",
        "2016 US Election",
        "Evil Kermit",
        "Manning Face",
        "Apu Apustaja",
        "Hillary Clinton",
        "Alt-Right",
        "That's the Joke",
        "Angry Pepe",
        "Bernie Sanders",
        "#CNNBlackmail",
    ];
    let mut order: Vec<usize> = HEAD
        .iter()
        .map(|name| {
            CATALOG
                .iter()
                .position(|row| row.name == *name)
                .expect("priority head names exist in the catalog")
        })
        .collect();
    for (i, _) in CATALOG.iter().enumerate() {
        if !order.contains(&i) {
            order.push(i);
        }
    }
    order
}

/// Per-community affinity multipliers for a meme group, with jitter.
/// These encode the paper's popularity findings: racist memes
/// concentrate on /pol/ and Gab; political memes peak on The_Donald and
/// /pol/; mainstream "fun" memes live on Twitter and Reddit.
fn affinity_for(
    group: MemeGroup,
    mainstream: bool,
    rng: &mut meme_stats::WsRng,
) -> [f64; Community::COUNT] {
    // Order: Pol, Reddit, Twitter, Gab, TheDonald. Calibrated so the
    // emergent image volumes reproduce Table 1's ordering
    // (Twitter > Reddit > /pol/ > T_D > Gab) while racist/political
    // concentration matches Tables 3-5.
    let base = match (group, mainstream) {
        (MemeGroup::Racist, _) => [3.0, 0.15, 0.12, 0.5, 0.35],
        (MemeGroup::Political, false) => [1.8, 0.6, 0.6, 0.3, 1.1],
        (MemeGroup::Political, true) => [0.8, 1.2, 1.4, 0.2, 0.8],
        (MemeGroup::Neutral, false) => [2.2, 0.5, 0.4, 0.22, 0.5],
        (MemeGroup::Neutral, true) => [0.3, 1.5, 2.4, 0.08, 0.3],
    };
    let mut out = [0.0; Community::COUNT];
    for (o, b) in out.iter_mut().zip(base) {
        *o = b * rng.random_range(0.7..1.3);
    }
    out
}

/// Build the ground-truth Hawkes model for one meme.
///
/// The weight regime encodes the paper's §5.2 headline: /pol/ posts
/// enormous volume but each post spawns little abroad (least efficient);
/// The_Donald posts little but each post spawns the most elsewhere
/// (most efficient).
fn hawkes_for(
    group: MemeGroup,
    affinity: &[f64; Community::COUNT],
    popularity: f64,
    rate_scale: f64,
    rng: &mut meme_stats::WsRng,
) -> HawkesModel {
    // Rows src -> dst in order Pol, Reddit, Twitter, Gab, TheDonald.
    let mut w = [
        [0.30, 0.010, 0.010, 0.006, 0.009],
        [0.030, 0.33, 0.060, 0.010, 0.020],
        [0.020, 0.035, 0.30, 0.008, 0.012],
        [0.020, 0.020, 0.012, 0.25, 0.012],
        [0.095, 0.150, 0.080, 0.045, 0.30],
    ];
    match group {
        MemeGroup::Racist => {
            // /pol/ spreads racist memes harder (Fig. 13).
            for dst in 1..Community::COUNT {
                w[0][dst] *= 1.8;
            }
            // The_Donald spreads racist memes less than non-racist.
            for dst in 0..Community::COUNT {
                if dst != 4 {
                    w[4][dst] *= 0.5;
                }
            }
        }
        MemeGroup::Political => {
            // Political memes travel better everywhere, /pol/ and T_D
            // most (Fig. 14).
            for dst in 1..Community::COUNT {
                w[0][dst] *= 1.6;
            }
            for dst in 0..Community::COUNT {
                if dst != 4 {
                    w[4][dst] *= 1.3;
                }
            }
        }
        MemeGroup::Neutral => {}
    }
    // Per-meme jitter.
    let w: Vec<Vec<f64>> = w
        .iter()
        .map(|row| {
            row.iter()
                .map(|x| x * rng.random_range(0.75..1.25))
                .collect()
        })
        .collect();
    let mu: Vec<f64> = affinity
        .iter()
        .map(|a| rate_scale * popularity * a)
        .collect();
    let model = HawkesModel::new(mu, w, 3.0).expect("generated parameters are valid");
    debug_assert!(model.is_stationary(), "ground-truth models must be stable");
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Universe {
        Universe::generate(
            &UniverseConfig {
                n_memes: 80,
                ..UniverseConfig::default()
            },
            42,
        )
    }

    #[test]
    fn deterministic_generation() {
        let cfg = UniverseConfig {
            n_memes: 75,
            ..UniverseConfig::default()
        };
        assert_eq!(Universe::generate(&cfg, 1), Universe::generate(&cfg, 1));
    }

    #[test]
    fn curated_catalog_is_preserved() {
        let u = small();
        assert_eq!(u.specs[0].name, "Donald Trump");
        let trump = &u.specs[0];
        assert_eq!(trump.category, KymCategory::Person);
        assert!(trump.is_political());
        let merchant = u.specs.iter().find(|s| s.name == "Happy Merchant").unwrap();
        assert!(merchant.is_racist());
        assert!(merchant.catalogued);
        // The priority head covers multiple KYM categories even in a
        // small universe.
        let curated: Vec<_> = u
            .specs
            .iter()
            .filter(|s| !s.name.starts_with("Synthetic"))
            .collect();
        assert!(curated.iter().any(|s| s.category == KymCategory::Person));
        assert!(curated.iter().any(|s| s.category == KymCategory::Meme));
        assert!(curated.iter().any(|s| s.category == KymCategory::Event));
    }

    #[test]
    fn ids_match_positions() {
        let u = small();
        for (i, s) in u.specs.iter().enumerate() {
            assert_eq!(s.id, i);
        }
    }

    #[test]
    fn all_ground_truth_models_are_stationary() {
        let u = small();
        for s in &u.specs {
            assert!(s.hawkes.is_stationary(), "meme {} is supercritical", s.name);
            assert_eq!(s.hawkes.k(), Community::COUNT);
        }
    }

    #[test]
    fn variant_shares_are_distributions() {
        let u = small();
        for s in &u.specs {
            assert_eq!(s.variants.len(), s.variant_shares.len());
            let total: f64 = s.variant_shares.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{}: {total}", s.name);
        }
    }

    #[test]
    fn racist_memes_prefer_fringe() {
        let u = small();
        for s in u.specs.iter().filter(|s| s.is_racist()) {
            let pol = s.affinity[Community::Pol.index()];
            let twitter = s.affinity[Community::Twitter.index()];
            let gab = s.affinity[Community::Gab.index()];
            assert!(pol > twitter * 3.0, "{}", s.name);
            assert!(gab > twitter, "{}", s.name);
        }
    }

    #[test]
    fn the_donald_is_most_externally_efficient() {
        // Per-event external offspring: T_D row sum (off-diagonal) must
        // beat /pol/'s in every generated model for neutral/political
        // memes.
        let u = small();
        for s in &u.specs {
            if s.is_racist() {
                continue; // racist T_D weights are deliberately damped
            }
            let ext = |src: usize| -> f64 {
                (0..Community::COUNT)
                    .filter(|d| *d != src)
                    .map(|d| s.hawkes.w[src][d])
                    .sum()
            };
            assert!(
                ext(Community::TheDonald.index()) > ext(Community::Pol.index()),
                "{}: T_D {} vs pol {}",
                s.name,
                ext(4),
                ext(0)
            );
        }
    }

    #[test]
    fn most_specs_are_uncatalogued() {
        // Table 2: only 13%-24% of clusters carry KYM annotations — the
        // universe must be dominated by undocumented image families.
        let u = Universe::generate(
            &UniverseConfig {
                n_memes: 300,
                ..UniverseConfig::default()
            },
            9,
        );
        let catalogued = u.specs.iter().filter(|s| s.catalogued).count();
        let frac = catalogued as f64 / u.specs.len() as f64;
        assert!(frac < 0.4, "catalogued spec fraction {frac}");
        assert!(frac > 0.05, "catalogued spec fraction {frac}");
    }

    #[test]
    fn curated_head_dominates_popularity() {
        let u = small();
        let max_filler = u
            .specs
            .iter()
            .filter(|s| s.name.starts_with("Synthetic"))
            .map(|s| s.popularity)
            .fold(0.0f64, f64::max);
        assert!(u.specs[0].popularity > max_filler);
    }
}
