//! Analysis functions behind every table and figure of §3–§4.
//!
//! Each function consumes the [`PipelineOutput`] (plus the generating
//! [`Dataset`]) and returns typed rows; `memes repro` (crate
//! `meme-repro`) renders them with [`crate::report`].

use crate::pipeline::PipelineOutput;
use meme_annotate::annotator::{annotate_clusters, clusters_per_entry, ClusterAnnotation};
use meme_annotate::kym::{KymCategory, KymEntry};
use meme_cluster::dbscan::{
    try_dbscan_distinct, try_dbscan_hashes, ClusterError, Clustering, DbscanParams,
};
use meme_cluster::purity::cluster_false_positive_fractions;
use meme_index::{distinct_neighbors, FallbackIndex, HashGroups};
use meme_phash::PHash;
use meme_simweb::{Community, Dataset, SUBREDDITS};
use meme_stats::timeseries::DailySeries;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Meme-group filter used across Figs. 8–16 and Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemeFilter {
    /// Every annotated meme.
    All,
    /// Racism-group memes only.
    Racist,
    /// Politics-group memes only.
    Political,
}

impl MemeFilter {
    /// Whether a cluster passes this filter.
    pub fn accepts(self, output: &PipelineOutput, cluster: usize) -> bool {
        match self {
            MemeFilter::All => true,
            MemeFilter::Racist => output.cluster_is_racist(cluster),
            MemeFilter::Political => output.cluster_is_political(cluster),
        }
    }
}

// ---------------------------------------------------------------- Table 1

/// One row of Table 1 (dataset overview).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Platform name.
    pub platform: String,
    /// Total posts (text + image).
    pub posts: u64,
    /// Posts carrying an image.
    pub posts_with_images: u64,
    /// Images collected.
    pub images: u64,
    /// Unique pHashes.
    pub unique_phashes: u64,
}

/// Build Table 1. The paper folds The_Donald into Reddit's platform
/// row; we do the same and append the KYM row.
pub fn table1(dataset: &Dataset, output: &PipelineOutput) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for (label, members) in [
        ("Twitter", vec![Community::Twitter]),
        ("Reddit", vec![Community::Reddit, Community::TheDonald]),
        ("/pol/", vec![Community::Pol]),
        ("Gab", vec![Community::Gab]),
    ] {
        let posts: u64 = members.iter().map(|&c| dataset.total_posts(c)).sum();
        let with_images: u64 = members
            .iter()
            .map(|&c| dataset.posts_of(c).count() as u64)
            .sum();
        let unique: usize = {
            use std::collections::HashSet;
            let set: HashSet<PHash> = dataset
                .posts
                .iter()
                .filter(|p| members.contains(&p.community))
                .map(|p| output.post_hashes[p.id])
                .collect();
            set.len()
        };
        rows.push(Table1Row {
            platform: label.to_string(),
            posts,
            posts_with_images: with_images,
            images: with_images,
            unique_phashes: unique as u64,
        });
    }
    // KYM row: every entry "post" carries its gallery.
    let kym_images = output.site.total_gallery_images() as u64;
    let unique_kym: usize = {
        use std::collections::HashSet;
        let set: HashSet<PHash> = output
            .site
            .entries
            .iter()
            .flat_map(|e| e.gallery.iter().copied())
            .collect();
        set.len()
    };
    rows.push(Table1Row {
        platform: "KYM".to_string(),
        posts: output.site.len() as u64,
        posts_with_images: output.site.len() as u64,
        images: kym_images,
        unique_phashes: unique_kym as u64,
    });
    rows
}

// ----------------------------------------------- Per-community clustering

/// A per-community Steps-2–5 run: the paper clusters /pol/,
/// The_Donald, and Gab separately for Tables 2 and 3.
#[derive(Debug, Clone)]
pub struct CommunityClustering {
    /// The community.
    pub community: Community,
    /// Post indices (into `dataset.posts`) in clustering order.
    pub post_indices: Vec<usize>,
    /// The DBSCAN result.
    pub clustering: Clustering,
    /// Medoid hash per cluster.
    pub medoid_hashes: Vec<PHash>,
    /// Medoid post index per cluster.
    pub medoid_posts: Vec<usize>,
    /// Step-5 annotations against the pipeline's filtered site.
    pub annotations: Vec<ClusterAnnotation>,
}

/// Run Steps 2–5 for a single fringe community, reusing the pipeline's
/// hashes and filtered KYM site.
pub fn cluster_community(
    dataset: &Dataset,
    output: &PipelineOutput,
    community: Community,
    params: DbscanParams,
    theta: u32,
    threads: usize,
) -> Result<CommunityClustering, ClusterError> {
    let post_indices: Vec<usize> = dataset.posts_of(community).map(|p| p.id).collect();
    let hashes: Vec<PHash> = post_indices
        .iter()
        .map(|&i| output.post_hashes[i])
        .collect();
    let clustering = try_dbscan_hashes(&hashes, params, threads)?;
    let medoid_positions = clustering.try_medoids(&hashes)?;
    let medoid_hashes: Vec<PHash> = medoid_positions.iter().map(|&p| hashes[p]).collect();
    let medoid_posts: Vec<usize> = medoid_positions.iter().map(|&p| post_indices[p]).collect();
    let annotations = annotate_clusters(&medoid_hashes, &output.site, theta);
    Ok(CommunityClustering {
        community,
        post_indices,
        clustering,
        medoid_hashes,
        medoid_posts,
        annotations,
    })
}

// ---------------------------------------------------------------- Table 2

/// One row of Table 2 (clustering statistics per fringe community).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Platform name.
    pub platform: String,
    /// Images clustered.
    pub images: u64,
    /// Percent labeled noise.
    pub noise_pct: f64,
    /// Clusters found.
    pub clusters: u64,
    /// Clusters with KYM annotations.
    pub annotated: u64,
    /// Percent of clusters annotated.
    pub annotated_pct: f64,
}

/// Build Table 2 from per-community clusterings.
pub fn table2(community_runs: &[CommunityClustering]) -> Vec<Table2Row> {
    community_runs
        .iter()
        .map(|run| {
            let clusters = run.clustering.n_clusters() as u64;
            let annotated = run.annotations.iter().filter(|a| a.is_annotated()).count() as u64;
            Table2Row {
                platform: run.community.name().to_string(),
                images: run.post_indices.len() as u64,
                noise_pct: 100.0 * run.clustering.noise_fraction(),
                clusters,
                annotated,
                annotated_pct: if clusters > 0 {
                    100.0 * annotated as f64 / clusters as f64
                } else {
                    0.0
                },
            }
        })
        .collect()
}

// --------------------------------------------------------- Tables 3, 4, 5

/// A top-entry row (Tables 3–5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopEntryRow {
    /// KYM entry name.
    pub entry: String,
    /// Entry category name.
    pub category: String,
    /// Count (clusters for Table 3, posts for Tables 4/5).
    pub count: u64,
    /// Percent of the community total.
    pub pct: f64,
}

/// Table 3: top KYM entries by number of annotated clusters in one
/// community's clustering.
pub fn top_entries_by_clusters(
    run: &CommunityClustering,
    output: &PipelineOutput,
    n: usize,
) -> Vec<TopEntryRow> {
    let total_clusters = run.clustering.n_clusters().max(1) as f64;
    let mut counts: HashMap<usize, u64> = HashMap::new();
    for ann in &run.annotations {
        if let Some(rep) = ann.representative {
            *counts.entry(rep).or_insert(0) += 1;
        }
    }
    top_rows(output, counts, total_clusters, |_| true, n)
}

/// Tables 4/5: top entries by number of matched posts in one community
/// (optionally restricted to a KYM category, e.g. `Person` for
/// Table 5). Percentages are over all matched posts of the community.
pub fn top_entries_by_posts(
    dataset: &Dataset,
    output: &PipelineOutput,
    community: Community,
    category: Option<KymCategory>,
    n: usize,
) -> Vec<TopEntryRow> {
    let mut counts: HashMap<usize, u64> = HashMap::new();
    let mut total = 0u64;
    for (post, occ) in dataset.posts.iter().zip(&output.occurrences) {
        if post.community != community {
            continue;
        }
        let Some(cluster) = occ else { continue };
        let Some(rep) = output.annotations[*cluster].representative else {
            continue;
        };
        total += 1;
        *counts.entry(rep).or_insert(0) += 1;
    }
    let total = total.max(1) as f64;
    let keep = |e: &KymEntry| category.is_none_or(|c| e.category == c);
    top_rows(output, counts, total, keep, n)
}

/// The `n` largest of `counts` (KYM entry id → count) as rows, `pct`
/// over `total`: only entries `keep` accepts, and no id past the site.
fn top_rows(
    output: &PipelineOutput,
    counts: HashMap<usize, u64>,
    total: f64,
    keep: impl Fn(&KymEntry) -> bool,
    n: usize,
) -> Vec<TopEntryRow> {
    let mut rows: Vec<TopEntryRow> = counts
        .into_iter()
        .filter_map(|(entry_id, count)| {
            let e = output.site.get(entry_id).filter(|e| keep(e))?;
            Some(TopEntryRow {
                entry: e.name.clone(),
                category: e.category.name().to_string(),
                count,
                pct: 100.0 * count as f64 / total,
            })
        })
        .collect();
    rows.sort_by(|a, b| b.count.cmp(&a.count).then(a.entry.cmp(&b.entry)));
    rows.truncate(n);
    rows
}

// ---------------------------------------------------------------- Table 6

/// One row of Table 6 (top subreddits).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubredditRow {
    /// Subreddit name.
    pub subreddit: String,
    /// Matched meme posts in the subreddit.
    pub posts: u64,
    /// Percent over all matched Reddit meme posts.
    pub pct: f64,
}

/// Table 6: subreddits ranked by meme posts under a filter. Reddit and
/// The_Donald posts are combined (the paper analyzes the Reddit
/// platform as a whole here).
pub fn table6(
    dataset: &Dataset,
    output: &PipelineOutput,
    filter: MemeFilter,
    n: usize,
) -> Vec<SubredditRow> {
    let mut counts = vec![0u64; SUBREDDITS.len()];
    let mut total = 0u64;
    for (post, occ) in dataset.posts.iter().zip(&output.occurrences) {
        if !matches!(post.community, Community::Reddit | Community::TheDonald) {
            continue;
        }
        let Some(cluster) = occ else { continue };
        if !filter.accepts(output, *cluster) {
            continue;
        }
        total += 1;
        if let Some(s) = post.subreddit {
            counts[s] += 1;
        }
    }
    let total = total.max(1) as f64;
    let mut rows: Vec<SubredditRow> = counts
        .into_iter()
        .enumerate()
        .filter(|(_, c)| *c > 0)
        .map(|(i, posts)| SubredditRow {
            subreddit: SUBREDDITS[i].to_string(),
            posts,
            pct: 100.0 * posts as f64 / total,
        })
        .collect();
    rows.sort_by(|a, b| b.posts.cmp(&a.posts).then(a.subreddit.cmp(&b.subreddit)));
    rows.truncate(n);
    rows
}

// ---------------------------------------------------------------- Table 7

/// Table 7: matched meme events per community.
pub fn table7(dataset: &Dataset, output: &PipelineOutput) -> Vec<(String, u64)> {
    let mut counts = [0u64; Community::COUNT];
    for (post, occ) in dataset.posts.iter().zip(&output.occurrences) {
        if occ.is_some() {
            counts[post.community.index()] += 1;
        }
    }
    Community::ALL
        .iter()
        .map(|c| (c.name().to_string(), counts[c.index()]))
        .collect()
}

// ------------------------------------------------------------------ Fig 8

/// Fig. 8: per-community daily percentage of posts containing memes
/// under a filter. Returns `(community name, per-day percents)`.
pub fn fig8_series(
    dataset: &Dataset,
    output: &PipelineOutput,
    filter: MemeFilter,
) -> Vec<(String, Vec<f64>)> {
    let horizon = dataset.horizon_days;
    // The paper plots /pol/, Reddit (incl. T_D), Twitter, Gab.
    let groups: [(&str, Vec<Community>); 4] = [
        ("/pol/", vec![Community::Pol]),
        ("Reddit", vec![Community::Reddit, Community::TheDonald]),
        ("Twitter", vec![Community::Twitter]),
        ("Gab", vec![Community::Gab]),
    ];
    groups
        .iter()
        .map(|(label, members)| {
            let mut meme_series = DailySeries::new(horizon);
            for (post, occ) in dataset.posts.iter().zip(&output.occurrences) {
                if !members.contains(&post.community) {
                    continue;
                }
                let Some(cluster) = occ else { continue };
                if filter.accepts(output, *cluster) {
                    meme_series.record(post.t);
                }
            }
            let mut totals = vec![0u64; horizon];
            for &c in members {
                for (day, &count) in dataset.daily_totals[c.index()].iter().enumerate() {
                    totals[day] += count;
                }
            }
            let percents: Vec<f64> = meme_series
                .counts()
                .iter()
                .zip(&totals)
                .map(|(&m, &t)| {
                    if t == 0 {
                        0.0
                    } else {
                        100.0 * m as f64 / t as f64
                    }
                })
                .collect();
            (label.to_string(), percents)
        })
        .collect()
}

// ------------------------------------------------------------------ Fig 9

/// Score samples for the Fig. 9 CDFs of one platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreSamples {
    /// All matched meme posts' scores.
    pub all: Vec<f64>,
    /// Politics-group meme scores.
    pub political: Vec<f64>,
    /// Non-political meme scores.
    pub non_political: Vec<f64>,
    /// Racism-group meme scores.
    pub racist: Vec<f64>,
    /// Non-racist meme scores.
    pub non_racist: Vec<f64>,
}

/// Fig. 9: collect score samples for a platform (Reddit folds in
/// The_Donald).
pub fn fig9_scores(
    dataset: &Dataset,
    output: &PipelineOutput,
    platform: Community,
) -> ScoreSamples {
    let members: Vec<Community> = match platform {
        Community::Reddit => vec![Community::Reddit, Community::TheDonald],
        c => vec![c],
    };
    let mut s = ScoreSamples {
        all: vec![],
        political: vec![],
        non_political: vec![],
        racist: vec![],
        non_racist: vec![],
    };
    for (post, occ) in dataset.posts.iter().zip(&output.occurrences) {
        if !members.contains(&post.community) {
            continue;
        }
        let (Some(cluster), Some(score)) = (occ, post.score) else {
            continue;
        };
        let score = score.max(0) as f64 + 1.0; // log-scale friendly
        s.all.push(score);
        if output.cluster_is_political(*cluster) {
            s.political.push(score);
        } else {
            s.non_political.push(score);
        }
        if output.cluster_is_racist(*cluster) {
            s.racist.push(score);
        } else {
            s.non_racist.push(score);
        }
    }
    s
}

// ------------------------------------------------------------------ Fig 5

/// Fig. 5 samples: KYM entries per annotated cluster, and clusters per
/// KYM entry.
pub fn fig5_samples(output: &PipelineOutput) -> (Vec<u64>, Vec<u64>) {
    let entries_per_cluster: Vec<u64> = output
        .annotations
        .iter()
        .filter(|a| a.is_annotated())
        .map(|a| a.entry_count() as u64)
        .collect();
    let cpe = clusters_per_entry(&output.annotations, output.site.len());
    (entries_per_cluster, cpe)
}

// ------------------------------------------------- Table 8 and Fig 17

/// One row of the Appendix-A eps sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpsSweepRow {
    /// DBSCAN distance threshold.
    pub eps: u32,
    /// Clusters found.
    pub clusters: u64,
    /// Percent noise.
    pub noise_pct: f64,
    /// Per-cluster false-positive fractions vs ground truth (the
    /// Fig. 17 CDF sample).
    pub fp_fractions: Vec<f64>,
    /// Overall true-positive share among clustered images (the paper's
    /// 99.4% at eps = 8).
    pub purity: f64,
}

/// Appendix A: sweep the DBSCAN distance over the fringe images.
/// `min_pts == 0` is [`ClusterError::InvalidMinPts`].
pub fn eps_sweep(
    dataset: &Dataset,
    output: &PipelineOutput,
    eps_values: &[u32],
    min_pts: usize,
    threads: usize,
) -> Result<Vec<EpsSweepRow>, ClusterError> {
    let hashes: Vec<PHash> = output
        .fringe_posts
        .iter()
        .map(|&i| output.post_hashes[i])
        .collect();
    // Truth at *image family* granularity (meme or screenshot family):
    // the paper's manual audit counted an image as a false positive when
    // it did not belong to the cluster's image family — two close
    // variants of one meme merging is not an error in that sense.
    let truth: Vec<Option<meme_simweb::PostTruth>> = output
        .fringe_posts
        .iter()
        .map(|&i| dataset.posts[i].truth_key())
        .collect();
    let max_eps = eps_values.iter().copied().max().unwrap_or(8);
    // One collapse + one index (at the sweep's largest radius) serve
    // every eps value; only the pair sweep reruns per row.
    let groups = HashGroups::new(&hashes);
    let index = FallbackIndex::build(groups.unique().to_vec(), max_eps);
    eps_values
        .iter()
        .map(|&eps| {
            let (adjacency, _) = distinct_neighbors(&index, &groups, eps, threads);
            let clustering = try_dbscan_distinct(&groups, &adjacency, min_pts)?;
            let fp = cluster_false_positive_fractions(&clustering, &truth);
            let purity = meme_cluster::purity::majority_purity(&clustering, &truth);
            Ok(EpsSweepRow {
                eps,
                clusters: clustering.n_clusters() as u64,
                noise_pct: 100.0 * clustering.noise_fraction(),
                fp_fractions: fp,
                purity,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use crate::supervise::SupervisedRunner;
    use meme_simweb::SimConfig;
    use std::sync::OnceLock;

    fn fixture() -> &'static (Dataset, PipelineOutput) {
        static FIXTURE: OnceLock<(Dataset, PipelineOutput)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let dataset = SimConfig::tiny(23).generate();
            let out = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
                .run(&dataset)
                .unwrap()
                .expect_complete();
            (dataset, out)
        })
    }

    #[test]
    fn table1_ordering_and_kym_row() {
        let (dataset, out) = fixture();
        let rows = table1(dataset, out);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].platform, "Twitter");
        assert!(rows[0].posts > rows[1].posts); // Twitter > Reddit
        assert!(rows[1].posts > rows[2].posts); // Reddit > /pol/
        assert_eq!(rows[4].platform, "KYM");
        for r in &rows {
            assert!(r.unique_phashes <= r.images.max(1));
            assert!(r.posts_with_images <= r.posts);
        }
    }

    #[test]
    fn table2_per_community_shapes() {
        let (dataset, out) = fixture();
        let runs: Vec<CommunityClustering> = Community::FRINGE
            .iter()
            .map(|&c| cluster_community(dataset, out, c, DbscanParams::default(), 8, 2).unwrap())
            .collect();
        let rows = table2(&runs);
        assert_eq!(rows.len(), 3);
        let pol = &rows[0];
        let gab = rows.iter().find(|r| r.platform == "Gab").unwrap();
        assert!(
            pol.clusters > gab.clusters,
            "pol {} gab {}",
            pol.clusters,
            gab.clusters
        );
        for r in &rows {
            assert!(
                r.noise_pct > 20.0 && r.noise_pct < 95.0,
                "{}: {}",
                r.platform,
                r.noise_pct
            );
            assert!(r.annotated <= r.clusters);
            assert!(r.annotated > 0, "{} has no annotated clusters", r.platform);
            assert!(
                r.annotated_pct < 80.0,
                "{} coverage suspiciously high",
                r.platform
            );
        }
    }

    #[test]
    fn top_entries_tables_are_ranked() {
        let (dataset, out) = fixture();
        let run =
            cluster_community(dataset, out, Community::Pol, DbscanParams::default(), 8, 2).unwrap();
        let t3 = top_entries_by_clusters(&run, out, 10);
        assert!(!t3.is_empty());
        for w in t3.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
        let t4 = top_entries_by_posts(dataset, out, Community::Pol, None, 10);
        assert!(!t4.is_empty());
        for w in t4.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
        let t5 = top_entries_by_posts(dataset, out, Community::Pol, Some(KymCategory::Person), 10);
        for r in &t5 {
            assert_eq!(r.category, "People");
        }
    }

    #[test]
    fn table6_the_donald_leads() {
        let (dataset, out) = fixture();
        let rows = table6(dataset, out, MemeFilter::All, 10);
        assert!(!rows.is_empty());
        assert_eq!(rows[0].subreddit, "The_Donald");
        let political = table6(dataset, out, MemeFilter::Political, 10);
        if !political.is_empty() {
            assert_eq!(political[0].subreddit, "The_Donald");
        }
    }

    #[test]
    fn table7_counts_match_occurrences() {
        let (dataset, out) = fixture();
        let rows = table7(dataset, out);
        let total: u64 = rows.iter().map(|(_, c)| c).sum();
        let matched = out.occurrences.iter().flatten().count() as u64;
        assert_eq!(total, matched);
        // /pol/ dominates meme event volume (Table 7).
        let pol = rows.iter().find(|(n, _)| n == "/pol/").unwrap().1;
        let gab = rows.iter().find(|(n, _)| n == "Gab").unwrap().1;
        assert!(pol > gab);
    }

    #[test]
    fn fig8_series_shapes() {
        let (dataset, out) = fixture();
        let all = fig8_series(dataset, out, MemeFilter::All);
        assert_eq!(all.len(), 4);
        for (name, series) in &all {
            assert_eq!(series.len(), dataset.horizon_days, "{name}");
            assert!(series.iter().all(|p| (0.0..=100.0).contains(p)));
        }
        // Gab's pre-launch days are zero.
        let gab = &all.iter().find(|(n, _)| n == "Gab").unwrap().1;
        assert!(gab[0] == 0.0);
        // Racist series is a subset of all.
        let racist = fig8_series(dataset, out, MemeFilter::Racist);
        let total_all: f64 = all.iter().flat_map(|(_, s)| s).sum();
        let total_racist: f64 = racist.iter().flat_map(|(_, s)| s).sum();
        assert!(total_racist <= total_all);
    }

    #[test]
    fn fig9_scores_partition() {
        let (dataset, out) = fixture();
        let s = fig9_scores(dataset, out, Community::Reddit);
        assert!(!s.all.is_empty());
        assert_eq!(s.all.len(), s.political.len() + s.non_political.len());
        assert_eq!(s.all.len(), s.racist.len() + s.non_racist.len());
        // Twitter has no scores.
        let t = fig9_scores(dataset, out, Community::Twitter);
        assert!(t.all.is_empty());
    }

    #[test]
    fn fig5_samples_consistent() {
        let (_, out) = fixture();
        let (epc, cpe) = fig5_samples(out);
        assert_eq!(epc.len(), out.annotated_clusters().len());
        assert!(epc.iter().all(|&c| c >= 1));
        assert_eq!(cpe.len(), out.site.len());
        // Total matches must agree between the two views.
        let from_clusters: u64 = out.annotations.iter().map(|a| a.matches.len() as u64).sum();
        let from_entries: u64 = cpe.iter().sum();
        assert_eq!(from_clusters, from_entries);
    }

    #[test]
    fn eps_sweep_reproduces_appendix_a_shape() {
        let (dataset, out) = fixture();
        let rows = eps_sweep(dataset, out, &[2, 8, 10], 5, 2).unwrap();
        assert_eq!(rows.len(), 3);
        // Noise decreases with eps (Table 8); the tail can flatten out
        // once every jittered re-post is already reachable.
        assert!(rows[0].noise_pct > rows[1].noise_pct);
        assert!(rows[1].noise_pct >= rows[2].noise_pct);
        // Tight eps is pure; loose eps merges (purity non-increasing).
        assert!(rows[0].purity >= rows[2].purity - 1e-9);
        assert!(rows[1].purity > 0.95, "purity at eps 8: {}", rows[1].purity);
        assert_eq!(
            eps_sweep(dataset, out, &[8], 0, 2),
            Err(ClusterError::InvalidMinPts)
        );
    }
}
