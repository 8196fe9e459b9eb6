//! Ablations of the paper's design choices (DESIGN.md §6) plus the §7
//! future-work extensions (origin inference, virality).

use crate::sections::{fit_influence, FIT_BETA};
use crate::{section, Printed, Repro};
use meme_cluster::dbscan::{try_dbscan_distinct, try_dbscan_hashes, DbscanParams};
use meme_cluster::purity::{identity_recall, majority_purity};
use meme_core::analysis;
use meme_core::graph::{ClusterGraph, GraphConfig};
use meme_core::metric::{ClusterDistance, MetricWeights};
use meme_core::provenance::{caption_analysis, infer_origins, virality};
use meme_core::report::{ascii_table, pct};
use meme_hawkes::{Event, HawkesError, HawkesModel};
use meme_index::{distinct_neighbors, HashGroups, MihIndex};
use meme_phash::{AverageHasher, DifferenceHasher, ImageHasher, PHash, PerceptualHasher};
use meme_simweb::Community;

/// Ablation: cluster the fringe images with pHash vs the aHash/dHash
/// baselines — why the paper picked pHash.
pub fn ablation_hashers(r: &Repro) -> Printed {
    section("Ablation: hashing algorithm (pHash vs aHash vs dHash)");
    let fringe: Vec<usize> = r
        .dataset
        .posts
        .iter()
        .filter(|p| p.community.is_fringe())
        .map(|p| p.id)
        .collect();
    let truth: Vec<Option<meme_simweb::PostTruth>> = fringe
        .iter()
        .map(|&i| r.dataset.posts[i].truth_key())
        .collect();

    let mut cells = Vec::new();
    let hashers: Vec<Box<dyn ImageHasher + Sync>> = vec![
        Box::new(PerceptualHasher::new()),
        Box::new(AverageHasher),
        Box::new(DifferenceHasher),
    ];
    for hasher in &hashers {
        let hashes: Vec<PHash> = fringe
            .iter()
            .map(|&i| hasher.hash(&r.dataset.render_post_image(&r.dataset.posts[i])))
            .collect();
        let clustering = try_dbscan_hashes(&hashes, DbscanParams::default(), 0)?;
        let purity = majority_purity(&clustering, &truth);
        let recall = identity_recall(&clustering, &truth);
        cells.push(vec![
            hasher.name().to_string(),
            clustering.n_clusters().to_string(),
            pct(100.0 * clustering.noise_fraction()),
            format!("{purity:.3}"),
            format!("{recall:.3}"),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &["Hasher", "#Clusters", "Noise", "Purity", "Meme recall"],
            &cells
        )
    );
    println!("(the paper's choice wins when purity stays high at comparable recall)");
    Ok(())
}

/// Ablation: the custom metric's weight split (Eq. 1). Compares the
/// paper's 0.4/0.4/0.1/0.1 against perceptual-only and annotation-only
/// weightings via Fig. 7 component purity.
pub fn ablation_metric_weights(r: &Repro) -> Printed {
    section("Ablation: custom-metric weights (Fig. 7 component purity)");
    let (descriptors, labels) = r.output.try_annotated_descriptors()?;
    let variants: [(&str, MetricWeights); 3] = [
        ("paper (0.4/0.4/0.1/0.1)", MetricWeights::FULL),
        ("perceptual only", MetricWeights::PARTIAL),
        (
            "annotations only",
            MetricWeights {
                perceptual: 0.0,
                meme: 0.8,
                people: 0.1,
                culture: 0.1,
            },
        ),
    ];
    let mut cells = Vec::new();
    for (name, weights) in variants {
        let metric = ClusterDistance {
            tau: 25.0,
            full: weights,
            partial: MetricWeights::PARTIAL,
        };
        let graph = ClusterGraph::build(
            &descriptors,
            &labels,
            &metric,
            &GraphConfig {
                kappa: 0.45,
                min_degree: 1,
            },
        );
        cells.push(vec![
            name.to_string(),
            graph.node_count().to_string(),
            graph.edge_count().to_string(),
            graph.n_components.to_string(),
            format!("{:.3}", graph.component_purity()),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &["Weights", "Nodes", "Edges", "Components", "Purity"],
            &cells
        )
    );
    Ok(())
}

/// Ablation: DBSCAN `minPts` sweep at the production eps = 8.
pub fn ablation_min_pts(r: &Repro) -> Printed {
    section("Ablation: DBSCAN minPts at eps = 8");
    let hashes: Vec<PHash> = r
        .output
        .fringe_posts
        .iter()
        .map(|&i| r.output.post_hashes[i])
        .collect();
    let truth: Vec<Option<meme_simweb::PostTruth>> = r
        .output
        .fringe_posts
        .iter()
        .map(|&i| r.dataset.posts[i].truth_key())
        .collect();
    let groups = HashGroups::new(&hashes);
    let index = MihIndex::new(groups.unique().to_vec(), 8);
    let (adjacency, _) = distinct_neighbors(&index, &groups, 8, 0);
    let mut cells = Vec::new();
    for min_pts in [2usize, 3, 5, 10, 20] {
        let clustering = try_dbscan_distinct(&groups, &adjacency, min_pts)?;
        cells.push(vec![
            min_pts.to_string(),
            clustering.n_clusters().to_string(),
            pct(100.0 * clustering.noise_fraction()),
            format!("{:.3}", majority_purity(&clustering, &truth)),
        ]);
    }
    println!(
        "{}",
        ascii_table(&["minPts", "#Clusters", "Noise", "Purity"], &cells)
    );
    Ok(())
}

/// Ablation: kernel-decay sensitivity. The paper fixes the impulse
/// family a priori; this checks that the influence *conclusions*
/// survive kernel misspecification, and prints the nonparametric
/// impulse estimate against the assumed exponential.
pub fn ablation_beta(r: &Repro) -> Printed {
    section("Ablation: Hawkes kernel decay (beta sensitivity)");
    let streams = r.output.try_all_cluster_events(&r.dataset)?;
    let mut cells = Vec::new();
    for beta in [1.0f64, FIT_BETA, 10.0] {
        let influence = fit_influence(r, &streams, beta);
        let ext = influence.total.total_external_normalized();
        let ranked: Vec<&str> = {
            let mut order: Vec<usize> = (0..Community::COUNT).collect();
            order.sort_by(|&a, &b| ext[b].partial_cmp(&ext[a]).expect("finite"));
            order.iter().map(|&i| Community::ALL[i].name()).collect()
        };
        cells.push(vec![
            format!("{beta}"),
            format!("{:.1}%", ext[Community::TheDonald.index()]),
            format!("{:.1}%", ext[Community::Pol.index()]),
            ranked.join(" > "),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &["beta", "T_D ext", "/pol/ ext", "efficiency ranking"],
            &cells
        )
    );
    println!("(the T_D-most / pol-least conclusion should hold across beta)");

    section("Diagnostic: nonparametric impulse estimate vs assumed kernel");
    // Fit the largest cluster and compare its impulse histogram with
    // the assumed exponential density.
    if let Some(stream) = streams.iter().max_by_key(|s| s.len()) {
        if stream.len() >= 50 {
            let fit = meme_hawkes::fit_em(
                stream,
                Community::COUNT,
                r.dataset.horizon(),
                &meme_hawkes::EmConfig {
                    beta: FIT_BETA,
                    max_iters: 100,
                    ..meme_hawkes::EmConfig::default()
                },
            )?;
            let bins = 8;
            let max_lag = 2.0;
            let hist = impulse_histogram(&fit.model, stream, bins, max_lag)?;
            let width = max_lag / bins as f64;
            let mut cells = Vec::new();
            for (b, h) in hist.iter().enumerate() {
                let mid = (b as f64 + 0.5) * width;
                let expected = FIT_BETA * (-FIT_BETA * mid).exp();
                cells.push(vec![
                    format!("{:.2}-{:.2}", b as f64 * width, (b + 1) as f64 * width),
                    format!("{h:.2}"),
                    format!("{expected:.2}"),
                ]);
            }
            println!(
                "{}",
                ascii_table(&["lag (days)", "estimated", "exp(beta=3)"], &cells)
            );
        }
    }
    Ok(())
}

/// Nonparametric impulse-response estimate.
///
/// The paper (and our EM fitter) assume a parametric impulse shape; this
/// diagnostic checks that assumption the way Linderman & Adams motivate
/// their basis functions: compute each event's parent responsibilities
/// under `model`, bin the parent→child lags weighted by responsibility,
/// and normalize to a density over `[0, max_lag)`. If the exponential
/// kernel is right, the histogram tracks `β e^{−β t}`.
///
/// It is the one consumer of individual parent→child lags, so it walks
/// every earlier event itself, O(n²); EM never needs to.
/// Returns `bins` density values (integrating to ~1 when enough mass
/// falls inside the window); all-zero when the stream has no plausible
/// parent-child pairs. Errors on `bins == 0`, a non-positive /
/// non-finite `max_lag`, or an unsorted / out-of-range stream.
fn impulse_histogram(
    model: &HawkesModel,
    events: &[Event],
    bins: usize,
    max_lag: f64,
) -> Result<Vec<f64>, HawkesError> {
    if bins == 0 {
        return Err(HawkesError::InvalidParameter(
            "need at least one bin".into(),
        ));
    }
    if !(max_lag.is_finite() && max_lag > 0.0) {
        return Err(HawkesError::InvalidParameter(
            "max_lag must be finite and positive".into(),
        ));
    }
    model.validate_events(events, f64::INFINITY)?;
    let width = max_lag / bins as f64;
    let mut hist = vec![0.0f64; bins];
    let mut total = 0.0f64;
    let mut parents: Vec<(f64, f64)> = Vec::new();
    for (i, ei) in events.iter().enumerate() {
        parents.clear();
        parents.extend(events[..i].iter().map(|ej| {
            let lag = ei.t - ej.t;
            let a = model.w[ej.process][ei.process] * model.beta * (-model.beta * lag).exp();
            (lag, a)
        }));
        let lambda = model.mu[ei.process] + parents.iter().map(|(_, a)| a).sum::<f64>();
        if lambda <= 0.0 {
            continue;
        }
        for &(lag, a) in &parents {
            let p = a / lambda;
            if lag < max_lag {
                hist[(lag / width) as usize] += p;
            }
            total += p;
        }
    }
    if total > 0.0 {
        for h in &mut hist {
            *h /= total * width;
        }
    }
    Ok(hist)
}

/// §7 future work: origin inference and virality profiles.
pub fn provenance(r: &Repro) -> Printed {
    section("Extension (§7 future work): where are memes first created?");
    let (estimates, accuracy) = infer_origins(&r.dataset, &r.output);
    println!(
        "origin inferred from earliest matched post: {:.1}% correct over {} clusters \
         (chance: 20%)",
        100.0 * accuracy,
        estimates.len()
    );
    // Estimated-origin histogram.
    let mut counts = [0usize; Community::COUNT];
    for e in &estimates {
        counts[e.estimated.index()] += 1;
    }
    let cells: Vec<Vec<String>> = Community::ALL
        .iter()
        .map(|c| vec![c.name().to_string(), counts[c.index()].to_string()])
        .collect();
    println!("{}", ascii_table(&["Estimated origin", "Clusters"], &cells));

    section("Extension (§7 future work): which memes disseminate?");
    let streams = r.output.try_all_cluster_events(&r.dataset)?;
    let influence = fit_influence(r, &streams, FIT_BETA);
    let annotated = r.output.annotated_clusters();
    let mut cells = Vec::new();
    for (label, filter) in [
        ("all memes", analysis::MemeFilter::All),
        ("racist", analysis::MemeFilter::Racist),
        ("political", analysis::MemeFilter::Political),
    ] {
        let mut matrices = Vec::new();
        let mut group_streams = Vec::new();
        for (slot, &cluster) in annotated.iter().enumerate() {
            if filter.accepts(&r.output, cluster) {
                matrices.push(influence.per_cluster[slot].clone());
                group_streams.push(streams[slot].clone());
            }
        }
        if matrices.is_empty() {
            continue;
        }
        let profile = virality(&matrices, &group_streams);
        cells.push(vec![
            label.to_string(),
            profile.clusters.to_string(),
            format!("{:.0}", profile.events),
            format!("{:.3}", profile.mean_offspring),
            pct(100.0 * profile.external_share),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &[
                "Group",
                "Clusters",
                "Events",
                "Offspring/event",
                "External share"
            ],
            &cells
        )
    );

    section("Extension (§7 future work): caption detection as an OCR proxy");
    let captions = caption_analysis(&r.dataset, &r.output);
    let with_caption = captions.actual.iter().filter(|a| **a).count();
    println!(
        "annotated clusters with a true caption edit: {}/{}; detector accuracy {:.1}%",
        with_caption,
        captions.actual.len(),
        100.0 * captions.accuracy
    );
    // Dissemination split by detected caption: does the classic image
    // macro spread differently?
    let mut cap_m = Vec::new();
    let mut cap_s = Vec::new();
    let mut plain_m = Vec::new();
    let mut plain_s = Vec::new();
    for (slot, detected) in captions.detected.iter().enumerate() {
        if *detected {
            cap_m.push(influence.per_cluster[slot].clone());
            cap_s.push(streams[slot].clone());
        } else {
            plain_m.push(influence.per_cluster[slot].clone());
            plain_s.push(streams[slot].clone());
        }
    }
    if !cap_m.is_empty() && !plain_m.is_empty() {
        let cap = virality(&cap_m, &cap_s);
        let plain = virality(&plain_m, &plain_s);
        println!(
            "captioned clusters:   {} clusters, external share {:.1}%",
            cap.clusters,
            100.0 * cap.external_share
        );
        println!(
            "uncaptioned clusters: {} clusters, external share {:.1}%",
            plain.clusters,
            100.0 * plain.external_share
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use meme_hawkes::{simulate_branching, strip_lineage};
    use meme_stats::seeded_rng;

    #[test]
    fn impulse_histogram_recovers_exponential_shape() {
        let truth = HawkesModel::new(
            vec![0.5, 0.15],
            vec![vec![0.35, 0.25], vec![0.05, 0.3]],
            2.0,
        )
        .unwrap();
        let mut rng = seeded_rng(77);
        let events = strip_lineage(&simulate_branching(&truth, 2500.0, &mut rng));
        let hist = impulse_histogram(&truth, &events, 10, 2.0).unwrap();
        // Density at the origin approaches beta = 2 and decays
        // monotonically (allowing small sampling wiggle).
        assert!(hist[0] > 1.4, "origin density {}", hist[0]);
        assert!(hist[0] > 2.0 * hist[5], "no decay: {hist:?}");
        for w in hist.windows(2) {
            assert!(w[1] <= w[0] * 1.25 + 0.05, "non-monotone: {hist:?}");
        }
        // Roughly integrates to the in-window mass of Exp(2):
        // 1 - e^{-4} ~ 0.98.
        let integral: f64 = hist.iter().sum::<f64>() * 0.2;
        assert!((integral - 1.0).abs() < 0.1, "integral {integral}");
    }

    #[test]
    fn impulse_histogram_empty_without_parents() {
        let m = HawkesModel::new(vec![1.0], vec![vec![0.0]], 1.0).unwrap();
        let hist = impulse_histogram(&m, &[Event::new(1.0, 0)], 5, 1.0).unwrap();
        assert!(hist.iter().all(|&h| h == 0.0));
    }

    #[test]
    fn impulse_histogram_rejects_degenerate_input() {
        let m = HawkesModel::new(vec![1.0], vec![vec![0.1]], 1.0).unwrap();
        let events = [Event::new(1.0, 0)];
        assert!(impulse_histogram(&m, &events, 0, 1.0).is_err());
        assert!(impulse_histogram(&m, &events, 5, 0.0).is_err());
        assert!(impulse_histogram(&m, &events, 5, -1.0).is_err());
        assert!(impulse_histogram(&m, &events, 5, f64::NAN).is_err());
        assert!(impulse_histogram(&m, &events, 5, f64::INFINITY).is_err());
        let unsorted = [Event::new(2.0, 0), Event::new(1.0, 0)];
        let out_of_range = [Event::new(1.0, 0), Event::new(2.0, 1)];
        let not_finite = [Event::new(1.0, 0), Event::new(f64::NAN, 0)];
        for events in [&unsorted[..], &out_of_range[..], &not_finite[..]] {
            assert!(matches!(
                impulse_histogram(&m, events, 4, 1.0),
                Err(HawkesError::InvalidEvents(_))
            ));
        }
    }
}
