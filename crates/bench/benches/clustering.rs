//! Step-3 benchmarks: DBSCAN (via MIH adjacency) and hierarchical
//! clustering, including the Appendix-A eps ablation's cost profile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use meme_cluster::dbscan::{dbscan, try_dbscan_with_index, DbscanParams};
use meme_cluster::hier::{Dendrogram, Linkage};
use meme_index::{all_neighbors, MihIndex};
use meme_phash::PHash;
use meme_stats::seeded_rng;
use rand::RngExt;
use std::hint::black_box;

fn clustered_hashes(n: usize, seed: u64) -> Vec<PHash> {
    let mut rng = seeded_rng(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let center = PHash(rng.random());
        let family = rng.random_range(1..12usize).min(n - out.len());
        for _ in 0..family {
            let flips: Vec<u8> = (0..rng.random_range(0..5u8))
                .map(|_| rng.random_range(0..64u8))
                .collect();
            out.push(center.with_flipped_bits(&flips));
        }
    }
    out
}

fn bench_dbscan(c: &mut Criterion) {
    let mut group = c.benchmark_group("dbscan_mih");
    group.sample_size(10);
    for &n in &[5_000usize, 20_000] {
        let hashes = clustered_hashes(n, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let index = MihIndex::new(hashes.clone(), 8);
            b.iter(|| black_box(try_dbscan_with_index(&index, DbscanParams::default(), 0)))
        });
    }
    group.finish();
}

fn bench_label_propagation(c: &mut Criterion) {
    // Isolate the graph-labeling half from the radius queries.
    let hashes = clustered_hashes(20_000, 8);
    let index = MihIndex::new(hashes, 8);
    let neighbors = all_neighbors(&index, 8, 0);
    c.bench_function("dbscan_labeling_20k", |b| {
        b.iter(|| black_box(dbscan(black_box(&neighbors), 5)))
    });
}

fn bench_hier(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchical_average_linkage");
    group.sample_size(10);
    for &n in &[100usize, 400] {
        let condensed: Vec<f64> = {
            let mut rng = seeded_rng(9);
            (0..n * (n - 1) / 2)
                .map(|_| rng.random_range(0.0..1.0))
                .collect()
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(Dendrogram::build(n, &condensed, Linkage::Average)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dbscan, bench_label_propagation, bench_hier);
criterion_main!(benches);
