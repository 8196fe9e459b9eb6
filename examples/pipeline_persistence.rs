//! Persistence: run the expensive pipeline once, save it, and analyze
//! the restored run — the paper's own batch/one-time-task split (§3.3:
//! "All other steps in our system are one-time batch tasks").
//!
//! ```text
//! cargo run --release --example pipeline_persistence
//! ```

use origins_of_memes::core::analysis;
use origins_of_memes::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::simweb::SimConfig;
use std::time::Instant;

fn main() {
    let dataset = SimConfig::tiny(77).generate();

    // The expensive part: hash + cluster + annotate + associate.
    let t0 = Instant::now();
    let output = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .run(&dataset)
        .expect("pipeline runs")
        .expect_complete();
    println!("pipeline ran in {:.1?}", t0.elapsed());

    // Persist the run.
    let path = std::env::temp_dir().join("memes_pipeline_run.json");
    let json = output.to_json();
    std::fs::write(&path, &json).expect("can write the run");
    println!("saved {} ({} KiB)", path.display(), json.len() / 1024);

    // Later (a different process, in practice): restore and analyze
    // without re-hashing anything.
    let t1 = Instant::now();
    let restored =
        PipelineOutput::from_json(&std::fs::read_to_string(&path).expect("can read the run"))
            .expect("run deserializes");
    println!("restored in {:.1?}", t1.elapsed());

    assert_eq!(restored.post_hashes, output.post_hashes);
    let rows = analysis::table7(&dataset, &restored);
    println!("\nmeme events per community (from the restored run):");
    for (name, count) in rows {
        println!("  {name:<8} {count}");
    }
    let _ = std::fs::remove_file(&path);
}
