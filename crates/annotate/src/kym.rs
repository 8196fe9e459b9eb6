//! The Know Your Meme data model.
//!
//! "KYM is a sort of encyclopedia of Internet memes: for each meme, it
//! provides information such as its origin … In addition, for each
//! entry, KYM provides a set of keywords, called tags … Also, KYM
//! provides a variety of higher-level categories that group meme
//! entries; namely, cultures, subcultures, people, events, and sites"
//! (§3.2). The paper's racist/political meme groups are defined over
//! tags (§4.2.1), and the custom distance metric consumes the per-entry
//! name / culture / people annotations (§2.3).

use meme_phash::PHash;
use serde::{Deserialize, Serialize};

/// The six KYM entry categories (Fig. 4a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KymCategory {
    /// A meme proper (57% of entries).
    Meme,
    /// A subculture grouping related memes (30%).
    Subculture,
    /// A broad culture (3%), e.g. "Alt-right".
    Culture,
    /// An event, e.g. "#CNNBlackmail".
    Event,
    /// A website, e.g. "/pol/".
    Site,
    /// A person, e.g. "Donald Trump".
    Person,
}

impl KymCategory {
    /// All categories in Fig. 4a's display order.
    pub const ALL: [KymCategory; 6] = [
        KymCategory::Meme,
        KymCategory::Subculture,
        KymCategory::Event,
        KymCategory::Culture,
        KymCategory::Site,
        KymCategory::Person,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            KymCategory::Meme => "Memes",
            KymCategory::Subculture => "Subcultures",
            KymCategory::Culture => "Cultures",
            KymCategory::Event => "Events",
            KymCategory::Site => "Sites",
            KymCategory::Person => "People",
        }
    }
}

/// Tags the paper uses to form its two high-level meme groups
/// (§4.2.1): politics and racism.
pub mod tags {
    /// Tags marking a politics-related entry.
    pub const POLITICS: [&str; 5] = [
        "politics",
        "2016 us presidential election",
        "presidential election",
        "trump",
        "clinton",
    ];
    /// Tags marking a racism-related entry.
    pub const RACISM: [&str; 3] = ["racism", "racist", "antisemitism"];
}

/// One KYM entry with the fields the pipeline consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KymEntry {
    /// Stable entry id (index into the site's entry list).
    pub id: usize,
    /// Entry name ("Smug Frog", "Donald Trump", …) — the `meme` feature
    /// of the custom metric when the category is [`KymCategory::Meme`].
    pub name: String,
    /// Entry category.
    pub category: KymCategory,
    /// Keyword tags.
    pub tags: Vec<String>,
    /// Platform of origin ("4chan", "Twitter", "Unknown", …; Fig. 4c).
    pub origin: String,
    /// pHashes of the entry's image gallery (post screenshot filtering).
    pub gallery: Vec<PHash>,
    /// People referenced by the entry (the `people` metric feature).
    pub people: Vec<String>,
    /// Cultures referenced by the entry (the `culture` metric feature).
    pub cultures: Vec<String>,
}

impl KymEntry {
    /// Whether the entry belongs to the paper's politics group.
    pub fn is_political(&self) -> bool {
        self.tags
            .iter()
            .any(|t| tags::POLITICS.contains(&t.to_lowercase().as_str()))
    }

    /// Whether the entry belongs to the paper's racism group.
    pub fn is_racist(&self) -> bool {
        self.tags
            .iter()
            .any(|t| tags::RACISM.contains(&t.to_lowercase().as_str()))
    }
}

/// A full annotation site: the entry list plus index lookups.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KymSite {
    /// All entries, `entries[i].id == i`.
    pub entries: Vec<KymEntry>,
}

impl KymSite {
    /// Build from entries, re-assigning ids to positions.
    pub fn new(mut entries: Vec<KymEntry>) -> Self {
        for (i, e) in entries.iter_mut().enumerate() {
            e.id = i;
        }
        Self { entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the site has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry by id, or `None` when `id` is out of range — entry ids a
    /// crawl never produces but a corrupt checkpoint can carry.
    pub fn get(&self, id: usize) -> Option<&KymEntry> {
        self.entries.get(id)
    }

    /// Total gallery images across entries (Table 1's KYM row).
    pub fn total_gallery_images(&self) -> usize {
        self.entries.iter().map(|e| e.gallery.len()).sum()
    }

    /// Share of entries per category (Fig. 4a).
    pub fn category_shares(&self) -> Vec<(KymCategory, f64)> {
        let n = self.entries.len().max(1) as f64;
        KymCategory::ALL
            .iter()
            .map(|&c| {
                let count = self.entries.iter().filter(|e| e.category == c).count();
                (c, 100.0 * count as f64 / n)
            })
            .collect()
    }

    /// Share of entries per origin platform (Fig. 4c), descending.
    pub fn origin_shares(&self) -> Vec<(String, f64)> {
        use std::collections::HashMap;
        let n = self.entries.len().max(1) as f64;
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for e in &self.entries {
            *counts.entry(e.origin.as_str()).or_insert(0) += 1;
        }
        let mut shares: Vec<(String, f64)> = counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), 100.0 * v as f64 / n))
            .collect();
        // total_cmp + name tiebreak: `counts` is a HashMap, so without
        // the tiebreak equal shares surfaced in hasher order.
        shares.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        shares
    }

    /// Gallery sizes (the Fig. 4b CDF sample).
    pub fn gallery_sizes(&self) -> Vec<u64> {
        self.entries
            .iter()
            .map(|e| e.gallery.len() as u64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, category: KymCategory, tags: &[&str]) -> KymEntry {
        KymEntry {
            id: 0,
            name: name.into(),
            category,
            tags: tags.iter().map(|s| s.to_string()).collect(),
            origin: "4chan".into(),
            gallery: vec![PHash(1), PHash(2)],
            people: vec![],
            cultures: vec![],
        }
    }

    #[test]
    fn tag_groups() {
        let e = entry("MAGA", KymCategory::Meme, &["Trump", "election"]);
        assert!(e.is_political());
        assert!(!e.is_racist());
        let r = entry("Happy Merchant", KymCategory::Meme, &["antisemitism"]);
        assert!(r.is_racist());
        let n = entry("Roll Safe", KymCategory::Meme, &["reaction"]);
        assert!(!n.is_political() && !n.is_racist());
    }

    #[test]
    fn site_reassigns_ids() {
        let site = KymSite::new(vec![
            entry("a", KymCategory::Meme, &[]),
            entry("b", KymCategory::Person, &[]),
        ]);
        assert_eq!(site.get(0).map(|e| e.name.as_str()), Some("a"));
        assert_eq!(site.get(1).map(|e| e.id), Some(1));
        assert!(site.get(2).is_none());
        assert_eq!(site.len(), 2);
        assert_eq!(site.total_gallery_images(), 4);
    }

    #[test]
    fn category_shares_sum_to_100() {
        let site = KymSite::new(vec![
            entry("a", KymCategory::Meme, &[]),
            entry("b", KymCategory::Meme, &[]),
            entry("c", KymCategory::Person, &[]),
            entry("d", KymCategory::Site, &[]),
        ]);
        let shares = site.category_shares();
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 100.0).abs() < 1e-9);
        let memes = shares
            .iter()
            .find(|(c, _)| *c == KymCategory::Meme)
            .unwrap()
            .1;
        assert!((memes - 50.0).abs() < 1e-9);
    }

    #[test]
    fn origin_shares_sorted_descending() {
        let mut entries = vec![
            entry("a", KymCategory::Meme, &[]),
            entry("b", KymCategory::Meme, &[]),
        ];
        entries.push(KymEntry {
            origin: "Twitter".into(),
            ..entry("c", KymCategory::Meme, &[])
        });
        let site = KymSite::new(entries);
        let shares = site.origin_shares();
        assert_eq!(shares[0].0, "4chan");
        assert!(shares[0].1 > shares[1].1);
    }

    #[test]
    fn empty_site() {
        let site = KymSite::default();
        assert!(site.is_empty());
        assert_eq!(site.total_gallery_images(), 0);
        assert_eq!(site.gallery_sizes(), Vec::<u64>::new());
    }
}
