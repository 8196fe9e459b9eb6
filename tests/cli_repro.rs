//! `memes repro <section>` regenerates the paper's tables and figures.
//! A command line it cannot run is bad usage (exit 2, a reason on
//! stderr, nothing on stdout) reported before any dataset is
//! generated. What it prints is a function of `--scale` and `--seed`
//! alone, and it writes files only under `--out DIR`. Every case runs
//! in an empty working directory of its own, which must stay empty.

use origins_of_memes::repro::{select, SECTIONS};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// An empty working directory unique to this process and `tag`.
fn empty_cwd(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memes-repro-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp cwd");
    dir
}

fn memes_in(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_memes"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("spawn memes")
}

fn entries(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("read temp cwd")
        .map(|e| e.expect("dir entry").path())
        .collect()
}

/// The `=== … ===` headers each section of `memes repro all` prints,
/// in order.
const ALL_HEADERS: [(&str, &[&str]); 21] = [
    ("fig3", &["Fig 3: r_perceptual(d) for tau in {1, 25, 64}"]),
    ("table1", &["Table 1: dataset overview"]),
    (
        "table2",
        &[
            "Table 2: clustering statistics per fringe community",
            "Appendix B: annotation-quality panel (3 simulated annotators)",
        ],
    ),
    (
        "table3",
        &["Table 3: top KYM entries by #clusters (per fringe community)"],
    ),
    (
        "table4",
        &["Table 4: top meme entries by #posts (per community)"],
    ),
    (
        "table5",
        &["Table 5: top 'people' entries by #posts (per community)"],
    ),
    (
        "table6",
        &["Table 6: top subreddits (all / racist / political memes)"],
    ),
    (
        "fig4",
        &[
            "Fig 4a: KYM entries per category",
            "Fig 4b: images per KYM entry (CDF)",
            "Fig 4c: KYM entries per origin platform",
        ],
    ),
    (
        "fig5",
        &[
            "Fig 5a: KYM entries per annotated cluster",
            "Fig 5b: clusters per KYM entry",
        ],
    ),
    (
        "fig6",
        &["Fig 6: frog-meme phylogeny (custom metric, average linkage)"],
    ),
    ("fig7", &["Fig 7: cluster graph at kappa = 0.45"]),
    (
        "fig8",
        &[
            "Fig 8: % of posts per day with memes (all memes)",
            "Fig 8: % of posts per day with memes (racist)",
            "Fig 8: % of posts per day with memes (politics)",
        ],
    ),
    (
        "fig9",
        &[
            "Fig 9: score distributions on Reddit",
            "Fig 9: score distributions on Gab",
        ],
    ),
    (
        "fig10",
        &["Fig 10: Hawkes mechanics on a 3-process toy model"],
    ),
    (
        "fig11-12",
        &[
            "Table 7: meme events per community (Step-6 association)",
            "Fig 11: % of destination events caused by source",
            "Fig 12: influence normalized by source events (efficiency)",
            "Fig 11 supplement: 90% cluster-bootstrap CIs (percent of destination)",
        ],
    ),
    (
        "fig13-16",
        &[
            "Fig 13: % of destination events, racist (R) vs non-racist (NR)",
            "Fig 15: normalized influence, racist vs non-racist",
            "Fig 14: % of destination events, political (P) vs non-political (NP)",
            "Fig 16: normalized influence, political vs non-political",
        ],
    ),
    (
        "table8",
        &[
            "Table 8 (Appendix A): DBSCAN distance sweep",
            "Fig 17 (Appendix A): CDF of per-cluster false-positive fraction",
        ],
    ),
    (
        "table9",
        &[
            "Table 9 (Appendix C): screenshot training corpus",
            "Fig 19 (Appendix C): classifier evaluation",
        ],
    ),
    ("perf", &["Performance (§7): association throughput"]),
    (
        "ablations",
        &[
            "Ablation: hashing algorithm (pHash vs aHash vs dHash)",
            "Ablation: custom-metric weights (Fig. 7 component purity)",
            "Ablation: DBSCAN minPts at eps = 8",
            "Ablation: Hawkes kernel decay (beta sensitivity)",
            "Diagnostic: nonparametric impulse estimate vs assumed kernel",
        ],
    ),
    (
        "provenance",
        &[
            "Extension (§7 future work): where are memes first created?",
            "Extension (§7 future work): which memes disseminate?",
            "Extension (§7 future work): caption detection as an OCR proxy",
        ],
    ),
];

#[test]
fn bad_usage_exits_two_before_any_work() {
    let cwd = empty_cwd("bad-usage");
    let bad: [&[&str]; 8] = [
        &["repro", "table1", "--scale", "huge"],
        &["repro", "table1", "--seed", "abc"],
        &["repro", "table1", "--scale", "tiny", "--seed"],
        &["repro", "table1", "--bogus"],
        &["repro", "table1", "--threads", "2"],
        &["repro", "--scale", "tiny"],
        &["repro", "table99", "--scale", "tiny"],
        &["repro", "table1", "fig3", "--scale", "tiny"],
    ];
    for args in bad {
        let out = memes_in(&cwd, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(!stderr.is_empty(), "{args:?} gave no reason");
        assert!(!stderr.contains("dataset:"), "{args:?} generated a dataset");
        // The usage text names every section and `all`.
        for name in SECTIONS.iter().map(|s| s.name).chain(["all"]) {
            assert!(stderr.contains(name), "{args:?}: usage lacks {name}");
        }
    }
    assert!(entries(&cwd).is_empty(), "bad usage wrote files");
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn same_scale_and_seed_print_the_same_table() {
    let cwd = empty_cwd("same-seed");
    let args = ["repro", "table1", "--scale", "tiny", "--seed", "3"];
    let first = memes_in(&cwd, &args);
    let second = memes_in(&cwd, &args);
    assert_eq!(
        first.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    assert!(!first.stdout.is_empty());
    assert_eq!(first.stdout, second.stdout);
    assert!(entries(&cwd).is_empty(), "table1 wrote files");
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn all_prints_every_section_in_order_and_writes_nothing() {
    let order: Vec<&str> = select("all")
        .expect("`all` is a section name")
        .iter()
        .map(|s| s.name)
        .collect();
    let expected_order: Vec<&str> = ALL_HEADERS.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        order, expected_order,
        "`all` runs the sections in this order"
    );

    let cwd = empty_cwd("all");
    let out = memes_in(&cwd, &["repro", "all", "--scale", "tiny", "--seed", "1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 tables");
    let headers: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("=== ")?.strip_suffix(" ==="))
        .collect();
    let expected: Vec<&str> = ALL_HEADERS
        .iter()
        .flat_map(|(_, headers)| headers.iter().copied())
        .collect();
    assert_eq!(expected.len(), 42);
    assert_eq!(headers, expected);
    assert!(entries(&cwd).is_empty(), "`all` without --out wrote files");
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn fig7_exports_only_under_out() {
    let cwd = empty_cwd("fig7");
    let args = ["repro", "fig7", "--scale", "tiny", "--seed", "1", "--out"];
    let out = memes_in(&cwd, &[&args[..], &["exports/fig"]].concat());
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("wrote"));
    for name in ["fig7.dot", "fig7.json"] {
        assert!(cwd.join("exports/fig").join(name).is_file(), "{name}");
    }
    assert_eq!(entries(&cwd), vec![cwd.join("exports")]);

    // A directory under a regular file cannot be created.
    std::fs::write(cwd.join("plain"), "").expect("write plain file");
    let out = memes_in(&cwd, &[&args[..], &["plain/fig"]].concat());
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&cwd);
}
