//! Per-experiment regeneration behind `memes repro`.
//!
//! Every function prints a paper-style table (or series) to stdout.
//! DESIGN.md §4 maps each function to the paper table/figure it
//! regenerates; EXPERIMENTS.md records paper-vs-measured.

use crate::{section, Export, Printed, Repro};
use meme_annotate::agreement::simulate_panel;
use meme_annotate::kym::KymCategory;
use meme_annotate::nn::TrainConfig;
use meme_annotate::screenshot::{ScreenshotCorpus, ScreenshotFilter};
use meme_cluster::dbscan::{ClusterError, DbscanParams};
use meme_core::analysis::{self, CommunityClustering, MemeFilter};
use meme_core::dendro::Phylogeny;
use meme_core::graph::{ClusterGraph, GraphConfig};
use meme_core::metric::{ClusterDescriptor, ClusterDistance};
use meme_core::report::{ascii_table, pct, thousands};
use meme_hawkes::{
    parent_probabilities, root_causes, simulate_branching, strip_lineage, ClusterInfluence,
    HawkesModel, InfluenceMatrix, SplitInfluence,
};
use meme_index::{BruteForceIndex, FallbackIndex, HammingIndex, MihIndex, QueryScratch};
use meme_phash::PHash;
use meme_simweb::Community;
use meme_stats::Ecdf;
use std::time::Instant;

// ------------------------------------------------------------- Table 1

/// Table 1: dataset overview.
pub fn table1(r: &Repro) -> Printed {
    section("Table 1: dataset overview");
    let rows = analysis::table1(&r.dataset, &r.output);
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.platform.clone(),
                thousands(row.posts),
                thousands(row.posts_with_images),
                thousands(row.images),
                thousands(row.unique_phashes),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(
            &[
                "Platform",
                "#Posts",
                "#Posts w/ Images",
                "#Images",
                "#Unique pHashes"
            ],
            &cells
        )
    );
    Ok(())
}

// ------------------------------------------------------------- Table 2

/// Per-community Steps 2–5 runs (the input of Tables 2 and 3).
fn community_runs(r: &Repro) -> Result<Vec<CommunityClustering>, ClusterError> {
    Community::FRINGE
        .iter()
        .map(|&c| {
            analysis::cluster_community(&r.dataset, &r.output, c, DbscanParams::default(), 8, 0)
        })
        .collect()
}

/// Table 2: clustering statistics, plus the Appendix-B annotation
/// panel.
pub fn table2(r: &Repro) -> Printed {
    section("Table 2: clustering statistics per fringe community");
    let runs = community_runs(r)?;
    let rows = analysis::table2(&runs);
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.platform.clone(),
                thousands(row.images),
                pct(row.noise_pct),
                thousands(row.clusters),
                format!("{} ({})", thousands(row.annotated), pct(row.annotated_pct)),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(
            &[
                "Platform",
                "#Images",
                "Noise",
                "#Clusters",
                "#Clusters w/ KYM (%)"
            ],
            &cells
        )
    );

    // Appendix B: simulated three-annotator panel over annotation
    // ground truth (representative entry == true meme of the medoid).
    section("Appendix B: annotation-quality panel (3 simulated annotators)");
    let mut truth: Vec<bool> = Vec::new();
    for run in &runs {
        for ann in run.annotations.iter().filter(|a| a.is_annotated()) {
            let medoid_post = run.medoid_posts[ann.cluster];
            let true_meme = r.dataset.posts[medoid_post].true_variant().map(|(m, _)| m);
            let rep_meme = ann
                .representative
                .and_then(|id| r.output.entry_meme_ids[id]);
            truth.push(true_meme.is_some() && true_meme == rep_meme);
        }
    }
    let accuracy = truth.iter().filter(|t| **t).count() as f64 / truth.len().max(1) as f64;
    println!("clusters assessed: {}", truth.len());
    println!(
        "measured annotation accuracy (vs ground truth): {:.1}% [paper: 89%]",
        100.0 * accuracy
    );
    println!(
        "(synthetic galleries are cleaner than KYM's, so accuracy runs higher \
         than the paper's human-judged 89%)"
    );
    let mut rng = meme_stats::seeded_rng(r.seed ^ 0xBA99);
    match simulate_panel(&truth, 3, 0.05, &mut rng) {
        Some(report) => println!(
            "panel on measured truth: Fleiss kappa {:.2} ({})",
            report.fleiss_kappa, report.interpretation
        ),
        None => println!("(too few annotated clusters for a panel)"),
    }
    // Reference panel at the paper's operating point: 89% of
    // annotations correct, three raters with 5% individual error.
    let reference: Vec<bool> = (0..200).map(|i| i % 100 >= 11).collect();
    if let Some(report) = simulate_panel(&reference, 3, 0.05, &mut rng) {
        println!(
            "calibrated reference panel (89% correct annotations): kappa {:.2} ({}), \
             majority positive rate {:.1}% [paper: kappa 0.67, 89%]",
            report.fleiss_kappa,
            report.interpretation,
            100.0 * report.majority_positive_rate
        );
    }
    Ok(())
}

// --------------------------------------------------------- Tables 3-5

/// Table 3: top KYM entries by clusters, per fringe community.
pub fn table3(r: &Repro) -> Printed {
    section("Table 3: top KYM entries by #clusters (per fringe community)");
    for run in &community_runs(r)? {
        let rows = analysis::top_entries_by_clusters(run, &r.output, 20);
        println!("--- {} ---", run.community.name());
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                vec![
                    row.entry.clone(),
                    row.category.clone(),
                    format!("{} ({})", row.count, pct(row.pct)),
                ]
            })
            .collect();
        println!(
            "{}",
            ascii_table(&["Entry", "Category", "Clusters (%)"], &cells)
        );
    }
    Ok(())
}

fn print_top_posts(r: &Repro, category: Option<KymCategory>, n: usize) {
    for community in [
        Community::Pol,
        Community::Reddit,
        Community::Gab,
        Community::Twitter,
    ] {
        let rows = analysis::top_entries_by_posts(&r.dataset, &r.output, community, category, n);
        println!("--- {} ---", community.name());
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                let mut marks = String::new();
                if let Some(e) = r.output.site.entries.iter().find(|e| e.name == row.entry) {
                    if e.is_racist() {
                        marks.push_str(" (R)");
                    }
                    if e.is_political() {
                        marks.push_str(" (P)");
                    }
                }
                vec![
                    format!("{}{}", row.entry, marks),
                    format!("{} ({})", thousands(row.count), pct(row.pct)),
                ]
            })
            .collect();
        println!("{}", ascii_table(&["Entry", "Posts (%)"], &cells));
    }
}

/// Table 4: top meme entries by posts per community.
pub fn table4(r: &Repro) -> Printed {
    section("Table 4: top meme entries by #posts (per community)");
    print_top_posts(r, Some(KymCategory::Meme), 20);
    Ok(())
}

/// Table 5: top people entries by posts per community.
pub fn table5(r: &Repro) -> Printed {
    section("Table 5: top 'people' entries by #posts (per community)");
    print_top_posts(r, Some(KymCategory::Person), 15);
    Ok(())
}

// ------------------------------------------------------------- Table 6

/// Table 6: top subreddits for all/racist/political memes.
pub fn table6(r: &Repro) -> Printed {
    section("Table 6: top subreddits (all / racist / political memes)");
    for (label, filter) in [
        ("All memes", MemeFilter::All),
        ("Racism-related", MemeFilter::Racist),
        ("Politics-related", MemeFilter::Political),
    ] {
        let rows = analysis::table6(&r.dataset, &r.output, filter, 10);
        println!("--- {label} ---");
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                vec![
                    row.subreddit.clone(),
                    format!("{} ({})", thousands(row.posts), pct(row.pct)),
                ]
            })
            .collect();
        println!("{}", ascii_table(&["Subreddit", "Posts (%)"], &cells));
    }
    Ok(())
}

// ------------------------------------------------------------- Table 7

/// Table 7: meme events per community.
pub fn table7(r: &Repro) -> Printed {
    section("Table 7: meme events per community (Step-6 association)");
    let rows = analysis::table7(&r.dataset, &r.output);
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, count)| vec![name.clone(), thousands(*count)])
        .collect();
    println!("{}", ascii_table(&["Community", "Events"], &cells));
    Ok(())
}

// ------------------------------------------------- Table 8 + Fig 17

/// Appendix A: eps sweep (Table 8) and per-cluster false-positive CDFs
/// (Fig. 17).
pub fn table8_fig17(r: &Repro) -> Printed {
    section("Table 8 (Appendix A): DBSCAN distance sweep");
    let rows = analysis::eps_sweep(&r.dataset, &r.output, &[2, 4, 6, 8, 10], 5, 0)?;
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.eps.to_string(),
                thousands(row.clusters),
                pct(row.noise_pct),
                format!("{:.3}", row.purity),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(&["Distance", "#Clusters", "%Noise", "Purity"], &cells)
    );

    section("Fig 17 (Appendix A): CDF of per-cluster false-positive fraction");
    let grid = [0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8];
    let mut cells = Vec::new();
    for row in rows.iter().filter(|row| [6, 8, 10].contains(&row.eps)) {
        if let Some(ecdf) = Ecdf::new(row.fp_fractions.clone()) {
            let mut line = vec![format!("eps {}", row.eps)];
            for &g in &grid {
                line.push(format!("{:.2}", ecdf.eval(g)));
            }
            cells.push(line);
        }
    }
    let mut headers: Vec<String> = vec!["".to_string()];
    headers.extend(grid.iter().map(|g| format!("F({g})")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", ascii_table(&header_refs, &cells));
    Ok(())
}

// ------------------------------------------------- Table 9 + Fig 19

/// Appendix C: screenshot-classifier corpus (Table 9) and evaluation
/// (Fig. 19). Standalone — trains the CNN regardless of harness mode.
pub fn table9_fig19(seed: u64) -> Printed {
    section("Table 9 (Appendix C): screenshot training corpus");
    let corpus = ScreenshotCorpus::generate(0.02, seed);
    let mut cells: Vec<Vec<String>> = corpus
        .platform_counts
        .iter()
        .map(|(p, c)| {
            vec![
                p.name().to_string(),
                thousands(*c as u64),
                thousands(p.paper_count() as u64),
            ]
        })
        .collect();
    cells.push(vec![
        "Other".to_string(),
        thousands(corpus.other_count as u64),
        thousands(10_630),
    ]);
    println!(
        "{}",
        ascii_table(&["Platform", "#Images (ours)", "#Images (paper)"], &cells)
    );

    section("Fig 19 (Appendix C): classifier evaluation");
    let t0 = Instant::now();
    let (_, metrics) = ScreenshotFilter::try_train(
        &corpus,
        &TrainConfig {
            seed,
            ..TrainConfig::default()
        },
    )?;
    eprintln!("trained in {:.1?} on {} images", t0.elapsed(), corpus.len());
    println!("AUC:       {:.3}  [paper: 0.96]", metrics.auc);
    println!("accuracy:  {:.1}% [paper: 91.3%]", 100.0 * metrics.accuracy);
    println!(
        "precision: {:.1}% [paper: 94.3%]",
        100.0 * metrics.precision
    );
    println!("recall:    {:.1}% [paper: 93.5%]", 100.0 * metrics.recall);
    println!("F1:        {:.1}% [paper: 93.9%]", 100.0 * metrics.f1);
    println!("ROC curve (FPR, TPR):");
    let step = (metrics.roc.len() / 10).max(1);
    for (fpr, tpr) in metrics.roc.iter().step_by(step) {
        println!("  {fpr:.3}  {tpr:.3}");
    }
    Ok(())
}

// --------------------------------------------------------------- Fig 3

/// Fig. 3: r_perceptual for τ ∈ {1, 25, 64}.
pub fn fig3() -> Printed {
    section("Fig 3: r_perceptual(d) for tau in {1, 25, 64}");
    let taus = [1.0, 25.0, 64.0];
    let metrics: Vec<ClusterDistance> =
        taus.iter().map(|&t| ClusterDistance::with_tau(t)).collect();
    let mut cells = Vec::new();
    for d in (0..=64).step_by(4) {
        let mut row = vec![d.to_string()];
        for m in &metrics {
            row.push(format!("{:.3}", m.r_perceptual(d)));
        }
        cells.push(row);
    }
    println!(
        "{}",
        ascii_table(&["d", "tau=1", "tau=25", "tau=64"], &cells)
    );
    Ok(())
}

// --------------------------------------------------------------- Fig 4

/// Fig. 4: KYM site statistics.
pub fn fig4(r: &Repro) -> Printed {
    let site = &r.output.site;
    section("Fig 4a: KYM entries per category");
    let cells: Vec<Vec<String>> = site
        .category_shares()
        .iter()
        .map(|(c, share)| vec![c.name().to_string(), pct(*share)])
        .collect();
    println!("{}", ascii_table(&["Category", "% of entries"], &cells));

    section("Fig 4b: images per KYM entry (CDF)");
    if let Some(ecdf) = Ecdf::from_counts(site.gallery_sizes()) {
        println!(
            "min {:.0}, median {:.0}, mean {:.1}, max {:.0} [paper: median 9, mean 45]",
            ecdf.min(),
            ecdf.median(),
            ecdf.mean(),
            ecdf.max()
        );
        let grid = ecdf.log_grid(8);
        let cells: Vec<Vec<String>> = ecdf
            .series(&grid)
            .iter()
            .map(|(x, f)| vec![format!("{x:.0}"), format!("{f:.3}")])
            .collect();
        println!("{}", ascii_table(&["#images", "CDF"], &cells));
    }

    section("Fig 4c: KYM entries per origin platform");
    let cells: Vec<Vec<String>> = site
        .origin_shares()
        .iter()
        .take(10)
        .map(|(origin, share)| vec![origin.clone(), pct(*share)])
        .collect();
    println!("{}", ascii_table(&["Origin", "% of entries"], &cells));
    Ok(())
}

// --------------------------------------------------------------- Fig 5

/// Fig. 5: entries-per-cluster and clusters-per-entry CDFs.
pub fn fig5(r: &Repro) -> Printed {
    let (epc, cpe) = analysis::fig5_samples(&r.output);
    section("Fig 5a: KYM entries per annotated cluster");
    if let Some(ecdf) = Ecdf::from_counts(epc.clone()) {
        let single = epc.iter().filter(|&&c| c == 1).count();
        println!(
            "single-entry clusters: {:.0}% [paper: 58-74%]; max entries on one cluster: {:.0}",
            100.0 * single as f64 / epc.len() as f64,
            ecdf.max()
        );
        for x in [1.0, 2.0, 5.0, 10.0] {
            println!("  F({x:>4}) = {:.3}", ecdf.eval(x));
        }
    }
    section("Fig 5b: clusters per KYM entry");
    if let Some(ecdf) = Ecdf::from_counts(cpe.clone()) {
        let zero = cpe.iter().filter(|&&c| c == 0).count();
        println!(
            "entries annotating no cluster: {:.0}%; max clusters for one entry: {:.0}",
            100.0 * zero as f64 / cpe.len() as f64,
            ecdf.max()
        );
        for x in [0.0, 1.0, 5.0, 20.0] {
            println!("  F({x:>4}) = {:.3}", ecdf.eval(x));
        }
    }
    Ok(())
}

// --------------------------------------------------------------- Fig 6

/// Cluster descriptors + labels for annotated clusters passing a name
/// predicate.
fn descriptors_for(
    r: &Repro,
    predicate: impl Fn(&str) -> bool,
) -> (Vec<ClusterDescriptor>, Vec<String>) {
    let mut descriptors = Vec::new();
    let mut labels = Vec::new();
    // Annotated clusters, with the KYM entry each was annotated with.
    let annotated = r.output.annotations.iter();
    let site = &r.output.site;
    for (ann, rep) in annotated.filter_map(|a| Some((a, site.get(a.representative?)?))) {
        if !predicate(&rep.name) {
            continue;
        }
        let medoid = r.output.medoid_hashes[ann.cluster];
        descriptors.push(ClusterDescriptor::from_annotation(medoid, ann, site));
        // The paper labels leaves community@meme.
        let medoid_post = r.output.medoid_posts[ann.cluster];
        let prefix = match r.dataset.posts[medoid_post].community {
            Community::Pol => "4",
            Community::TheDonald => "D",
            Community::Gab => "G",
            _ => "?",
        };
        labels.push(format!(
            "{prefix}@{}",
            rep.name.to_lowercase().replace(' ', "-")
        ));
    }
    (descriptors, labels)
}

/// Fig. 6: the frog-family dendrogram.
pub fn fig6(r: &Repro) -> Printed {
    section("Fig 6: frog-meme phylogeny (custom metric, average linkage)");
    let frog = |name: &str| {
        let n = name.to_lowercase();
        n.contains("frog") || n.contains("pepe") || n.contains("apu") || n.contains("kek")
    };
    let (descriptors, labels) = descriptors_for(r, frog);
    println!("frog clusters: {}", descriptors.len());
    let Some(phylo) = Phylogeny::build(&descriptors, labels, &ClusterDistance::default()) else {
        println!("(not enough frog clusters at this scale)");
        return Ok(());
    };
    let families = phylo.family_listing(0.45);
    println!(
        "families at cut 0.45: {} [paper: 4 dominant families]",
        families.len()
    );
    for (i, family) in families.iter().enumerate().take(6) {
        let preview: Vec<&str> = family.iter().copied().take(6).collect();
        println!(
            "  family {i}: {} clusters, e.g. {}",
            family.len(),
            preview.join(", ")
        );
    }
    let newick = phylo.to_newick();
    println!(
        "newick (truncated): {}...",
        &newick[..newick.len().min(160)]
    );
    Ok(())
}

// --------------------------------------------------------------- Fig 7

/// Fig. 7: the κ = 0.45 cluster graph, exported as DOT and JSON.
pub fn fig7(r: &Repro) -> Printed<Vec<Export>> {
    section("Fig 7: cluster graph at kappa = 0.45");
    let (descriptors, labels) = descriptors_for(r, |_| true);
    let config = GraphConfig {
        kappa: 0.45,
        // The paper filters at degree 10 on 12.6K clusters; scale the
        // filter to our cluster count.
        min_degree: if descriptors.len() > 2000 { 10 } else { 2 },
    };
    let graph = ClusterGraph::build(&descriptors, &labels, &ClusterDistance::default(), &config);
    println!(
        "nodes: {} / {}, edges: {}, components: {}",
        graph.node_count(),
        descriptors.len(),
        graph.edge_count(),
        graph.n_components
    );
    println!(
        "component annotation purity: {:.3} [paper: components are 'primarily one color']",
        graph.component_purity()
    );
    Ok(vec![
        ("fig7.dot", graph.to_dot()),
        ("fig7.json", graph.to_json()),
    ])
}

// --------------------------------------------------------------- Fig 8

/// Fig. 8: percentage of posts per day with memes.
pub fn fig8(r: &Repro) -> Printed {
    for (label, filter) in [
        ("all memes", MemeFilter::All),
        ("racist", MemeFilter::Racist),
        ("politics", MemeFilter::Political),
    ] {
        section(&format!("Fig 8: % of posts per day with memes ({label})"));
        let series = analysis::fig8_series(&r.dataset, &r.output, filter);
        // Print weekly means to keep the output readable.
        let week = 7;
        let mut cells = Vec::new();
        let weeks = r.dataset.horizon_days / week;
        for w in 0..weeks {
            let mut row = vec![format!("week {w}")];
            for (_, s) in &series {
                let chunk = &s[w * week..((w + 1) * week).min(s.len())];
                let mean = chunk.iter().sum::<f64>() / chunk.len().max(1) as f64;
                row.push(format!("{mean:.2}"));
            }
            cells.push(row);
        }
        let mut headers = vec!["".to_string()];
        headers.extend(series.iter().map(|(n, _)| n.clone()));
        let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        println!("{}", ascii_table(&refs, &cells));
    }
    Ok(())
}

// --------------------------------------------------------------- Fig 9

/// Fig. 9: CDFs of scores on Reddit and Gab.
pub fn fig9(r: &Repro) -> Printed {
    for platform in [Community::Reddit, Community::Gab] {
        section(&format!(
            "Fig 9: score distributions on {}",
            platform.name()
        ));
        let s = analysis::fig9_scores(&r.dataset, &r.output, platform);
        let mut cells = Vec::new();
        for (label, sample) in [
            ("Politics", &s.political),
            ("Non-Politics", &s.non_political),
            ("Racism", &s.racist),
            ("Non-Racism", &s.non_racist),
            ("All memes", &s.all),
        ] {
            match Ecdf::new(sample.clone()) {
                Some(e) => cells.push(vec![
                    label.to_string(),
                    sample.len().to_string(),
                    format!("{:.1}", e.mean()),
                    format!("{:.0}", e.median()),
                    format!("{:.0}", e.quantile(0.9)),
                ]),
                None => cells.push(vec![
                    label.to_string(),
                    "0".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]),
            }
        }
        println!(
            "{}",
            ascii_table(&["Group", "n", "mean", "median", "p90"], &cells)
        );
    }
    Ok(())
}

// -------------------------------------------------------------- Fig 10

/// Fig. 10: a narrated three-process Hawkes example with root-cause
/// attribution.
pub fn fig10(seed: u64) -> Printed {
    section("Fig 10: Hawkes mechanics on a 3-process toy model");
    let model = HawkesModel::new(
        vec![0.20, 0.30, 0.25],
        vec![
            vec![0.3, 0.3, 0.2],
            vec![0.1, 0.2, 0.3],
            vec![0.2, 0.1, 0.2],
        ],
        1.0,
    )?;
    let mut rng = meme_stats::seeded_rng(seed);
    let sim = simulate_branching(&model, 12.0, &mut rng);
    let events = strip_lineage(&sim);
    let names = ["A", "B", "C"];
    println!("simulated {} events on processes A, B, C", events.len());
    let parents = parent_probabilities(&model, &events)?;
    let roots = root_causes(&model, &events)?;
    let show = events.len().min(8);
    for i in 0..show {
        let bg = parents[i].background;
        let root_str: Vec<String> = roots[i]
            .iter()
            .enumerate()
            .map(|(c, p)| format!("{}:{:.2}", names[c], p))
            .collect();
        println!(
            "  t={:5.2} on {}: P(background)={:.2}, root cause {{{}}}",
            events[i].t,
            names[events[i].process],
            bg,
            root_str.join(", ")
        );
    }
    Ok(())
}

// ------------------------------------------------------- Figs 11 & 12

/// The run's shared Step-7 fit ([`Repro::fit`]) beside the
/// ground-truth matrix from the simulator's lineage.
pub fn influence(r: &Repro) -> Printed<(&ClusterInfluence, InfluenceMatrix)> {
    let fitted = r.fit()?;
    // Ground truth from post lineage over the same matched posts.
    let mut truth = vec![vec![0.0f64; Community::COUNT]; Community::COUNT];
    for (post, occ) in r.dataset.posts.iter().zip(&r.output.occurrences) {
        if occ.is_none() {
            continue;
        }
        if let Some(root) = post.true_root {
            truth[root.index()][post.community.index()] += 1.0;
        }
    }
    Ok((fitted, InfluenceMatrix::from_counts(truth)))
}

fn print_matrix(title: &str, m: &[Vec<f64>]) {
    let mut cells = Vec::new();
    for (src, row) in m.iter().enumerate() {
        let mut line = vec![Community::ALL[src].name().to_string()];
        line.extend(row.iter().map(|v| format!("{v:.2}%")));
        cells.push(line);
    }
    let mut headers = vec!["src\\dst".to_string()];
    headers.extend(Community::ALL.iter().map(|c| c.name().to_string()));
    let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("--- {title} ---");
    println!("{}", ascii_table(&refs, &cells));
}

/// Figs. 11 and 12: raw and normalized influence, fitted vs ground
/// truth, with cluster-bootstrap confidence intervals.
pub fn fig11_12(r: &Repro) -> Printed {
    let (full, truth) = influence(r)?;
    let fitted = &full.total;
    section("Fig 11: % of destination events caused by source");
    print_matrix(
        "fitted (Hawkes + root-cause attribution)",
        &fitted.percent_of_destination(),
    );
    print_matrix(
        "ground truth (simulator lineage)",
        &truth.percent_of_destination(),
    );

    section("Fig 12: influence normalized by source events (efficiency)");
    print_matrix("fitted", &fitted.normalized_by_source());
    let tot = fitted.total_normalized();
    let ext = fitted.total_external_normalized();
    let mut cells = Vec::new();
    for (i, c) in Community::ALL.iter().enumerate() {
        cells.push(vec![
            c.name().to_string(),
            format!("{:.2}%", tot[i]),
            format!("{:.2}%", ext[i]),
        ]);
    }
    println!("{}", ascii_table(&["Source", "Total", "Total Ext"], &cells));
    let ext_truth = truth.total_external_normalized();
    println!(
        "ground-truth external efficiency: {}",
        Community::ALL
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{} {:.1}%", c.name(), ext_truth[i]))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Cluster-bootstrap 90% CIs on the Fig. 11 cells (uncertainty the
    // paper does not report).
    if let Some(ci) = meme_hawkes::bootstrap_ci(&full.per_cluster, 300, 0.9, r.seed) {
        section("Fig 11 supplement: 90% cluster-bootstrap CIs (percent of destination)");
        let mut cells = Vec::new();
        for src in 0..Community::COUNT {
            let mut line = vec![Community::ALL[src].name().to_string()];
            for dst in 0..Community::COUNT {
                line.push(format!("[{:.1}, {:.1}]", ci.lo[src][dst], ci.hi[src][dst]));
            }
            cells.push(line);
        }
        let mut headers = vec!["src\\dst".to_string()];
        headers.extend(Community::ALL.iter().map(|c| c.name().to_string()));
        let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        println!("{}", ascii_table(&refs, &cells));
    }
    Ok(())
}

// ------------------------------------------------------- Figs 13-16

/// Figs. 13–16: influence split by racist and political meme groups
/// with KS significance stars.
pub fn fig13_16(r: &Repro) -> Printed {
    let fitted = r.fit()?;
    let annotated = r.output.annotated_clusters();
    for (title_raw, title_norm, a_label, b_label, filter) in [
        (
            "Fig 13: % of destination events, racist (R) vs non-racist (NR)",
            "Fig 15: normalized influence, racist vs non-racist",
            "R",
            "NR",
            MemeFilter::Racist,
        ),
        (
            "Fig 14: % of destination events, political (P) vs non-political (NP)",
            "Fig 16: normalized influence, political vs non-political",
            "P",
            "NP",
            MemeFilter::Political,
        ),
    ] {
        let (mut group_a, mut group_b) = (Vec::new(), Vec::new());
        for (slot, &cluster) in annotated.iter().enumerate() {
            let group = if filter.accepts(&r.output, cluster) {
                &mut group_a
            } else {
                &mut group_b
            };
            group.push(fitted.per_cluster[slot].clone());
        }
        section(title_raw);
        println!(
            "clusters: {} {a_label}, {} {b_label}; '*' marks KS p < 0.01",
            group_a.len(),
            group_b.len()
        );
        if group_a.is_empty() || group_b.is_empty() {
            println!("(a group is empty at this scale)");
            continue;
        }
        let split = SplitInfluence::compare(&group_a, &group_b);
        let render = |a: &[Vec<f64>], b: &[Vec<f64>]| {
            let mut cells = Vec::new();
            for src in 0..Community::COUNT {
                let mut line = vec![Community::ALL[src].name().to_string()];
                for dst in 0..Community::COUNT {
                    let star = if split.significant(src, dst, 0.01) {
                        "*"
                    } else {
                        ""
                    };
                    line.push(format!(
                        "{a_label}:{:.1} {b_label}:{:.1}{star}",
                        a[src][dst], b[src][dst]
                    ));
                }
                cells.push(line);
            }
            let mut headers = vec!["src\\dst".to_string()];
            headers.extend(Community::ALL.iter().map(|c| c.name().to_string()));
            let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            println!("{}", ascii_table(&refs, &cells));
        };
        render(&split.a_percent, &split.b_percent);
        section(title_norm);
        render(&split.a_normalized, &split.b_normalized);
    }
    Ok(())
}

// ---------------------------------------------------------------- Perf

/// §7 performance: association throughput (images/sec against the
/// annotated medoids), MIH vs brute force.
pub fn perf(r: &Repro) -> Printed {
    section("Performance (§7): association throughput");
    let annotated = r.output.annotated_clusters();
    let medoids: Vec<PHash> = annotated
        .iter()
        .map(|&c| r.output.medoid_hashes[c])
        .collect();
    println!(
        "{} query hashes vs {} annotated medoids",
        r.output.post_hashes.len(),
        medoids.len()
    );
    eprintln!(
        "engine for {} medoids at radius 8: {}",
        medoids.len(),
        FallbackIndex::engine_for(medoids.len(), 8).slug()
    );
    let queries = &r.output.post_hashes;
    let (matches, mih_time) = time_queries(&MihIndex::new(medoids.clone(), 8), queries);
    let (matches_b, brute_time) = time_queries(&BruteForceIndex::new(medoids), queries);
    assert_eq!(matches, matches_b, "engines must agree");
    let rate = |d: std::time::Duration| r.output.post_hashes.len() as f64 / d.as_secs_f64();
    eprintln!(
        "multi-index hashing: {:.0} images/sec ({mih_time:.1?} total)",
        rate(mih_time)
    );
    eprintln!(
        "brute force:         {:.0} images/sec ({brute_time:.1?} total)",
        rate(brute_time)
    );
    println!("[paper: 73 images/sec on two Titan Xp GPUs vs 12K medoids]");
    Ok(())
}

/// Step 6's query path over `index`: one reused scratch, every query at
/// radius 8. Returns the total match count and the wall time.
fn time_queries<I: HammingIndex>(index: &I, queries: &[PHash]) -> (usize, std::time::Duration) {
    let mut scratch = QueryScratch::new();
    let mut hits = Vec::new();
    let mut matches = 0usize;
    let t = Instant::now();
    for &h in queries {
        index.radius_query_into(h, 8, &mut scratch, &mut hits);
        matches += hits.len();
    }
    (matches, t.elapsed())
}
