//! The benchmark must keep building when ROADMAP item 2 ("one stage driver,
//! one entry point per operation") deletes the product's duplicate entry
//! points, so its sources may not name any of them, and every product call
//! stays behind `src/adapter.rs`.

use std::path::Path;

/// Names on their way out. A name listed with `try_` survivors is matched
/// only where it is not the tail of that survivor.
const DOOMED: &[&str] = &[
    "Pipeline::run",
    "PipelineRunner",
    "estimate_influence",
    ".medoids(",
    "dbscan_with_index",
    "all_cluster_events",
    "annotated_descriptors",
    "all_neighbors",
    "meme_bench",
];

/// The fallible twins that stay; their names contain a doomed name.
const SURVIVORS: &[&str] = &["try_all_cluster_events", "try_annotated_descriptors"];

fn sources() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("src directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.push((
                name,
                std::fs::read_to_string(&path).expect("readable source"),
            ));
        }
    }
    assert!(
        out.len() >= 10,
        "expected the benchmark's sources under {}",
        dir.display()
    );
    out
}

#[test]
fn sources_name_no_entry_point_that_is_going_away() {
    for (file, text) in sources() {
        let mut text = text;
        for keep in SURVIVORS {
            text = text.replace(keep, "");
        }
        for doomed in DOOMED {
            assert!(!text.contains(doomed), "{file} names `{doomed}`");
        }
    }
}

#[test]
fn product_crates_are_named_only_by_the_adapter() {
    for (file, text) in sources() {
        if file == "adapter.rs" {
            continue;
        }
        for line in text.lines().filter(|l| !l.trim_start().starts_with("//")) {
            assert!(
                !line.contains("meme_"),
                "{file} reaches into a product crate: {}",
                line.trim()
            );
        }
    }
}
