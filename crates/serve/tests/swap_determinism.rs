//! Lookup determinism under concurrency and hot swaps.
//!
//! The serving layer's correctness claim is that a lookup's answer is a
//! pure function of (query, snapshot generation): reader-thread count
//! must not matter (the snapshot is immutable and the tie-break is
//! total), and a swap must be atomic — every reader sees either the old
//! generation or the new one, never a blend.

use meme_core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use meme_core::supervise::SupervisedRunner;
use meme_phash::PHash;
use meme_serve::{ServeScratch, Snapshot, SnapshotStore, DEFAULT_THETA};
use meme_simweb::SimConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

fn tiny_output() -> &'static PipelineOutput {
    static OUT: OnceLock<PipelineOutput> = OnceLock::new();
    OUT.get_or_init(|| {
        let dataset = SimConfig::tiny(17).generate();
        SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
            .run(&dataset)
            .unwrap()
            .expect_complete()
    })
}

/// The query mix every scenario answers: exact medoids, single-bit
/// perturbations, and far probes.
fn queries(snap: &Snapshot) -> Vec<PHash> {
    snap.records()
        .iter()
        .enumerate()
        .flat_map(|(i, r)| {
            [
                r.medoid,
                PHash(r.medoid.0 ^ (1 << (i % 64))),
                PHash(r.medoid.0 ^ 0x5555_5555_5555_5555),
            ]
        })
        .collect()
}

/// One lookup rendered to its full observable answer.
fn answer(snap: &Snapshot, q: PHash, scratch: &mut ServeScratch) -> String {
    match snap.lookup(q, scratch) {
        Some(h) => {
            let rec = snap.record(h.slot).unwrap();
            format!(
                "{q} -> cluster {} entry {} ({}) at {}",
                h.cluster, h.entry_id, rec.name, h.distance
            )
        }
        None => format!("{q} -> miss"),
    }
}

/// Answer every query on `threads` reader threads, in query order.
fn run_readers(snap: &Arc<Snapshot>, qs: &[PHash], threads: usize) -> Vec<String> {
    let mut slots: Vec<Option<String>> = vec![None; qs.len()];
    std::thread::scope(|scope| {
        for (t, chunk) in slots.chunks_mut(qs.len().div_ceil(threads)).enumerate() {
            let snap = Arc::clone(snap);
            let offset = t * qs.len().div_ceil(threads);
            scope.spawn(move || {
                let mut scratch = ServeScratch::new();
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = Some(answer(&snap, qs[offset + i], &mut scratch));
                }
            });
        }
    });
    slots.into_iter().flatten().collect()
}

#[test]
fn lookups_are_byte_identical_across_reader_thread_counts() {
    let snap = Arc::new(Snapshot::build(tiny_output(), None, DEFAULT_THETA, 1).unwrap());
    assert!(!snap.is_empty());
    let qs = queries(&snap);
    let serial = run_readers(&snap, &qs, 1);
    assert!(serial.iter().any(|a| !a.ends_with("miss")));
    for threads in [2, 8] {
        let parallel = run_readers(&snap, &qs, threads);
        assert_eq!(
            serial, parallel,
            "answers must be byte-identical on {threads} reader threads"
        );
    }
}

#[test]
fn lookups_are_byte_identical_across_a_hot_swap() {
    let output = tiny_output();
    let store = Arc::new(SnapshotStore::new(
        Snapshot::build(output, None, DEFAULT_THETA, 0).unwrap(),
    ));
    let qs = queries(&store.load());

    // Reference answers per generation, computed serially. The swapped
    // snapshot is built from the same artifact, so answers may only
    // differ in generation — which `answer` does not render; byte
    // identity across the swap is exactly the claim.
    let mut scratch = ServeScratch::new();
    let reference: Vec<String> = {
        let snap = store.load();
        qs.iter().map(|&q| answer(&snap, q, &mut scratch)).collect()
    };

    // Readers hammer the store while the main thread swaps mid-run.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..8 {
            let store = Arc::clone(&store);
            let stop = &stop;
            let qs = &qs;
            let reference = &reference;
            handles.push(scope.spawn(move || {
                let mut scratch = ServeScratch::new();
                let mut rounds = 0u64;
                let mut generations_seen = std::collections::BTreeSet::new();
                while !stop.load(Ordering::Relaxed) {
                    // Pin one generation per round, as workers do per
                    // micro-batch.
                    let snap = store.load();
                    generations_seen.insert(snap.generation());
                    for (i, &q) in qs.iter().enumerate() {
                        let got = answer(&snap, q, &mut scratch);
                        assert_eq!(reference[i], got, "generation {}", snap.generation());
                    }
                    rounds += 1;
                }
                (rounds, generations_seen)
            }));
        }

        // Let readers run, swap twice, let them run some more.
        for _ in 0..2 {
            std::thread::sleep(std::time::Duration::from_millis(30));
            store.swap(Snapshot::build(output, None, DEFAULT_THETA, 0).unwrap());
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);

        let mut total_rounds = 0;
        for h in handles {
            let (rounds, gens) = h.join().unwrap();
            total_rounds += rounds;
            assert!(
                gens.iter().all(|g| (1..=3).contains(g)),
                "reader saw an impossible generation: {gens:?}"
            );
        }
        assert!(total_rounds > 0);
    });
    assert_eq!(store.generation(), 3);
}
