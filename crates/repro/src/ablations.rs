//! Ablations of the paper's design choices (DESIGN.md §6) plus the §7
//! future-work extensions (origin inference, virality).

use crate::harness::{section, Repro};
use crate::sections::{fit_influence, FIT_BETA};
use meme_cluster::dbscan::{try_dbscan, try_dbscan_with_index, DbscanParams};
use meme_cluster::purity::{identity_recall, majority_purity};
use meme_core::analysis;
use meme_core::graph::{ClusterGraph, GraphConfig};
use meme_core::metric::{ClusterDistance, MetricWeights};
use meme_core::provenance::{caption_analysis, infer_origins, virality};
use meme_core::report::{ascii_table, pct};
use meme_index::{symmetric_neighbors, BruteForceIndex, HashGroups, MihIndex};
use meme_phash::{AverageHasher, DifferenceHasher, ImageHasher, PHash, PerceptualHasher};
use meme_simweb::Community;

/// Ablation: cluster the fringe images with pHash vs the aHash/dHash
/// baselines — why the paper picked pHash.
pub fn ablation_hashers(r: &Repro) {
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
        let clustering = try_dbscan_with_index(
            &BruteForceIndex::new(hashes),
            DbscanParams::default(),
            r.opts.threads,
        )
        .expect("default DBSCAN parameters are valid");
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
}

/// Ablation: the custom metric's weight split (Eq. 1). Compares the
/// paper's 0.4/0.4/0.1/0.1 against perceptual-only and annotation-only
/// weightings via Fig. 7 component purity.
pub fn ablation_metric_weights(r: &Repro) {
    section("Ablation: custom-metric weights (Fig. 7 component purity)");
    let (descriptors, labels) = r
        .output
        .try_annotated_descriptors()
        .expect("a pipeline-produced output keeps cluster and entry ids in range");
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
}

/// Ablation: DBSCAN `minPts` sweep at the production eps = 8.
pub fn ablation_min_pts(r: &Repro) {
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
    let (neighbors, _) = symmetric_neighbors(&index, &groups, 8, r.opts.threads);
    let mut cells = Vec::new();
    for min_pts in [2usize, 3, 5, 10, 20] {
        let clustering =
            try_dbscan(&neighbors, min_pts).expect("minPts >= 1 over in-range adjacency");
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
}

/// Ablation: kernel-decay sensitivity. The paper fixes the impulse
/// family a priori; this checks that the influence *conclusions*
/// survive kernel misspecification, and prints the nonparametric
/// impulse estimate against the assumed exponential.
pub fn ablation_beta(r: &Repro) {
    section("Ablation: Hawkes kernel decay (beta sensitivity)");
    let streams = r.cluster_events();
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
            )
            .expect("fit succeeds");
            let bins = 8;
            let max_lag = 2.0;
            let hist = meme_hawkes::impulse_histogram(&fit.model, stream, bins, max_lag)
                .expect("valid binning");
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
}

/// §7 future work: origin inference and virality profiles.
pub fn provenance(r: &Repro) {
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
    let streams = r.cluster_events();
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
}
