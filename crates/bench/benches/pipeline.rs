//! End-to-end pipeline benchmarks at test scale: dataset generation,
//! Step-1 hashing, and the full Steps-1–6 run.

use criterion::{criterion_group, criterion_main, Criterion};
use meme_core::pipeline::{Pipeline, PipelineConfig};
use meme_core::supervise::SupervisedRunner;
use meme_simweb::SimConfig;
use std::hint::black_box;

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataset_generate");
    group.sample_size(10);
    group.bench_function("tiny", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(SimConfig::tiny(seed).generate())
        })
    });
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let dataset = SimConfig::tiny(1).generate();
    let mut group = c.benchmark_group("pipeline_steps_1_6");
    group.sample_size(10);
    group.bench_function("tiny_oracle_filter", |b| {
        let runner = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()));
        b.iter(|| black_box(runner.run(&dataset).expect("runs")))
    });
    group.finish();
}

criterion_group!(benches, bench_generation, bench_pipeline);
criterion_main!(benches);
