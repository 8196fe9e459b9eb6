//! Cross-crate integration: the full seven-step pipeline against the
//! synthetic ecosystem, checked against the paper's qualitative claims
//! (the "shape targets" of DESIGN.md §4).

use origins_of_memes::cluster::dbscan::DbscanParams;
use origins_of_memes::core::analysis::{self, MemeFilter};
use origins_of_memes::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::hawkes::InfluenceEstimator;
use origins_of_memes::metrics::Metrics;
use origins_of_memes::simweb::{Community, Dataset, SimConfig};
use std::sync::OnceLock;

fn fixture() -> &'static (Dataset, PipelineOutput) {
    static FIXTURE: OnceLock<(Dataset, PipelineOutput)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = SimConfig::tiny(99).generate();
        let output = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
            .run(&dataset)
            .expect("pipeline runs")
            .expect_complete();
        (dataset, output)
    })
}

#[test]
fn table1_volume_ordering() {
    let (dataset, output) = fixture();
    let rows = analysis::table1(dataset, output);
    // Twitter > Reddit > /pol/ > Gab in total posts (Table 1).
    assert!(rows[0].posts > rows[1].posts);
    assert!(rows[1].posts > rows[2].posts);
    assert!(rows[2].posts > rows[3].posts);
    // Every platform has more posts than image posts.
    for r in rows.iter().take(4) {
        assert!(r.posts > r.posts_with_images, "{}", r.platform);
    }
}

#[test]
fn fringe_noise_mass_in_paper_band() {
    let (_, output) = fixture();
    // Table 2: 63%-69% noise. Allow a generous band at test scale.
    let noise = output.clustering.noise_fraction();
    assert!((0.45..0.90).contains(&noise), "noise fraction {noise}");
}

#[test]
fn annotation_coverage_is_partial() {
    let (_, output) = fixture();
    let annotated = output.annotated_clusters().len() as f64;
    let total = output.clustering.n_clusters() as f64;
    let coverage = annotated / total;
    // Table 2: 13%-24% in the paper; the synthetic universe lands
    // higher but must stay clearly partial.
    assert!(
        (0.05..0.70).contains(&coverage),
        "annotation coverage {coverage}"
    );
}

#[test]
fn racist_memes_concentrate_on_fringe_communities() {
    let (dataset, output) = fixture();
    let share = |community: Community| -> f64 {
        let mut racist = 0usize;
        let mut total = 0usize;
        for (post, occ) in dataset.posts.iter().zip(&output.occurrences) {
            if post.community != community {
                continue;
            }
            let Some(cluster) = occ else { continue };
            total += 1;
            if output.cluster_is_racist(*cluster) {
                racist += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            racist as f64 / total as f64
        }
    };
    let pol = share(Community::Pol);
    let twitter = share(Community::Twitter);
    assert!(
        pol > twitter,
        "/pol/ racist share {pol} vs Twitter {twitter}"
    );
}

#[test]
fn political_memes_spike_at_election() {
    let (dataset, output) = fixture();
    let series = analysis::fig8_series(dataset, output, MemeFilter::Political);
    let election = dataset.config.cascade.election_day as usize;
    // Combined across communities: the election fortnight beats a
    // quiet fortnight.
    let total_at = |day: usize| -> f64 {
        series
            .iter()
            .flat_map(|(_, s)| s.get(day.saturating_sub(7)..(day + 7).min(s.len())))
            .flatten()
            .sum()
    };
    let near = total_at(election);
    let quiet = total_at(election + 45);
    assert!(
        near > quiet,
        "election window {near} vs quiet window {quiet}"
    );
}

#[test]
fn reddit_scores_follow_fig9() {
    let (dataset, output) = fixture();
    let s = analysis::fig9_scores(dataset, output, Community::Reddit);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    if s.political.len() > 30 && s.non_political.len() > 30 {
        assert!(
            mean(&s.political) > mean(&s.non_political),
            "political {} vs non {}",
            mean(&s.political),
            mean(&s.non_political)
        );
    }
}

#[test]
fn the_donald_tops_subreddit_table() {
    let (dataset, output) = fixture();
    let rows = analysis::table6(dataset, output, MemeFilter::All, 10);
    assert_eq!(rows[0].subreddit, "The_Donald");
}

#[test]
fn influence_shape_matches_paper_headline() {
    // §5.2: /pol/ has large raw influence but the lowest efficiency;
    // The_Donald is the most efficient external spreader. Verified on
    // the *fitted* model, end to end through the pipeline.
    let (dataset, output) = fixture();
    let estimator = InfluenceEstimator::new(Community::COUNT, 3.0);
    let (influence, skipped) = output
        .estimate_influence(dataset, &estimator, 0, &Metrics::disabled())
        .expect("cluster ids are in range");
    assert!(skipped.is_empty(), "estimation succeeds: {skipped:?}");
    let ext = influence.total.total_external_normalized();
    let td = ext[Community::TheDonald.index()];
    let pol = ext[Community::Pol.index()];
    assert!(td > pol, "T_D efficiency {td}% must exceed /pol/ {pol}%");
    // /pol/'s raw external influence mass still dominates Gab's.
    let raw = influence.total.percent_of_destination();
    let pol_on_twitter = raw[Community::Pol.index()][Community::Twitter.index()];
    let gab_on_twitter = raw[Community::Gab.index()][Community::Twitter.index()];
    assert!(
        pol_on_twitter > gab_on_twitter,
        "pol->twitter {pol_on_twitter} vs gab->twitter {gab_on_twitter}"
    );
}

#[test]
fn fitted_influence_tracks_ground_truth() {
    let (dataset, output) = fixture();
    let estimator = InfluenceEstimator::new(Community::COUNT, 3.0);
    let (influence, skipped) = output
        .estimate_influence(dataset, &estimator, 0, &Metrics::disabled())
        .expect("cluster ids are in range");
    assert!(skipped.is_empty(), "estimation succeeds: {skipped:?}");
    let fitted = influence.total.percent_of_destination();

    let mut truth = vec![vec![0.0f64; Community::COUNT]; Community::COUNT];
    for (post, occ) in dataset.posts.iter().zip(&output.occurrences) {
        if occ.is_none() {
            continue;
        }
        if let Some(root) = post.true_root {
            truth[root.index()][post.community.index()] += 1.0;
        }
    }
    let truth =
        origins_of_memes::hawkes::InfluenceMatrix::from_counts(truth).percent_of_destination();
    for src in 0..Community::COUNT {
        for dst in 0..Community::COUNT {
            let err = (fitted[src][dst] - truth[src][dst]).abs();
            assert!(
                err < 20.0,
                "cell {src}->{dst}: fitted {:.1} vs truth {:.1}",
                fitted[src][dst],
                truth[src][dst]
            );
        }
    }
}

#[test]
fn eps_sweep_shape() {
    let (dataset, output) = fixture();
    let rows = analysis::eps_sweep(dataset, output, &[2, 8, 10], 5, 0).unwrap();
    assert!(rows[0].noise_pct > rows[1].noise_pct);
    assert!(rows[1].noise_pct >= rows[2].noise_pct);
    assert!(rows[1].purity > 0.9, "purity at 8: {}", rows[1].purity);
}

#[test]
fn custom_dbscan_params_flow_through() {
    let (dataset, _) = fixture();
    let strict = SupervisedRunner::new(Pipeline::new(PipelineConfig {
        dbscan: DbscanParams { eps: 4, min_pts: 5 },
        ..PipelineConfig::fast()
    }))
    .run(dataset)
    .expect("pipeline runs")
    .expect_complete();
    let default = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .run(dataset)
        .expect("pipeline runs")
        .expect_complete();
    assert!(strict.clustering.noise_fraction() > default.clustering.noise_fraction());
}
