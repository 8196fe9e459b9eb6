//! The serve chaos suite: adversarial clients against a live server.
//!
//! Asserts the connection-lifecycle contract from DESIGN.md §12
//! ("Connection lifecycle and overload") end to end, over real TCP:
//!
//! * every adversary gets its **typed** rejection (never a silent drop,
//!   never a hang, never a panic);
//! * the **well-behaved cohort answers byte-identically** to an
//!   attack-free run while the full adversary wave and an accept flood
//!   are live;
//! * the server's **threads stay bounded** by cap + 1 under
//!   attack (that `Server::shutdown` joins every one of them with
//!   attackers still connected is tier-1's
//!   `tests/cli_serve.rs::shutdown_joins_every_reader_thread`);
//! * reader **memory stays bounded** under a newline-free blob attack.
//!
//! CI's `serve-chaos` job runs this suite in release mode.

mod serveload;

use meme_core::pipeline::{Pipeline, PipelineConfig};
use meme_core::supervise::SupervisedRunner;
use meme_metrics::{Metrics, Registry};
use meme_phash::PHash;
use meme_serve::{protocol, Server, ServerConfig, Snapshot, SnapshotStore, DEFAULT_THETA};
use meme_simweb::SimConfig;
use serveload::{
    flood_accepts, peak_rss_kb, run_adversary, run_adversary_wave, run_cohort, server_threads,
    Adversary, AdversaryReport,
};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Server-thread-count and RSS assertions need the process to
/// themselves: every test in this binary serializes on this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One tiny pipeline run shared by the whole suite (the pipeline
/// dominates wall time; every test serves the same snapshot).
fn store() -> Arc<SnapshotStore> {
    Arc::clone(&fixture().0)
}

fn medoids() -> &'static [PHash] {
    &fixture().1
}

fn fixture() -> &'static (Arc<SnapshotStore>, Vec<PHash>) {
    static FIXTURE: OnceLock<(Arc<SnapshotStore>, Vec<PHash>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = SimConfig::tiny(17).generate();
        let output = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
            .run(&dataset)
            .expect("tiny pipeline runs")
            .expect_complete();
        let snapshot = Snapshot::build(&output, None, DEFAULT_THETA, 0).expect("snapshot builds");
        let medoids: Vec<PHash> = snapshot.records().iter().map(|r| r.medoid).collect();
        assert!(!medoids.is_empty(), "tiny run must produce clusters");
        (Arc::new(SnapshotStore::new(snapshot)), medoids)
    })
}

/// The chaos server configuration: short line budget so attacks resolve
/// in milliseconds, cap sized to cohort + wave.
const COHORT: usize = 3;
const REQUESTS: usize = 150;

fn chaos_config() -> ServerConfig {
    ServerConfig {
        max_conns: COHORT + Adversary::ALL.len(),
        read_timeout_ms: 300,
        max_line_bytes: 8 * 1024,
        ..ServerConfig::default()
    }
}

/// Every adversary that reads gets its typed line: the three the
/// server must turn away (read timeout twice, line cap once) are then
/// closed, garbage keeps its connection. A mid-batch disconnect never
/// reads — for it the contract is that the server survives, which the
/// cohort proves.
fn assert_typed_rejection(report: &AdversaryReport) {
    let label = report.adversary.label();
    match report.adversary {
        Adversary::SlowLoris | Adversary::IdleHolder => {
            assert_eq!(
                report.rejection.as_deref(),
                Some(protocol::READ_TIMEOUT),
                "{label} must get the typed read-timeout"
            );
            assert!(report.closed, "{label} then closes");
        }
        Adversary::OversizedLine => {
            let line = report.rejection.as_deref().unwrap_or_default();
            let cap = chaos_config().max_line_bytes.to_string();
            assert!(
                line.contains("exceeds") && line.contains(&cap),
                "typed oversize rejection names the cap: {line:?}"
            );
            assert!(report.closed, "{label} then closes");
        }
        Adversary::GarbageBytes => {
            let line = report.rejection.as_deref().unwrap_or_default();
            assert!(line.contains("error"), "typed garbage rejection: {line:?}");
        }
        Adversary::DisconnectMidBatch => {}
    }
}

#[test]
fn every_adversary_gets_its_typed_rejection_and_server_stays_healthy() {
    let _guard = serial();
    let registry = Arc::new(Registry::new());
    let server = Server::start(
        store(),
        chaos_config(),
        Metrics::from_registry(Arc::clone(&registry)),
    )
    .expect("start server");
    let addr = server.local_addr();
    let config = chaos_config();

    for adversary in Adversary::ALL {
        let report = run_adversary(
            addr,
            adversary,
            config.read_timeout_ms,
            config.max_line_bytes,
        );
        assert_typed_rejection(&report);
        // After every attack the server still answers cleanly.
        let healthy = run_cohort(addr, medoids(), 7, 1, 25);
        assert_eq!(healthy[0].responses.len(), 25);
    }

    let counters = registry.snapshot().counters;
    assert!(
        counters.get("serve.timeouts").copied().unwrap_or(0) >= 2,
        "slow-loris and idle-holder both count as timeouts: {counters:?}"
    );
    assert!(
        counters.get("serve.oversized").copied().unwrap_or(0) >= 1,
        "oversized line is counted: {counters:?}"
    );
    server.shutdown();
}

#[test]
fn cohort_is_byte_identical_under_full_adversary_wave_and_flood() {
    let _guard = serial();
    let config = chaos_config();

    // Attack-free reference transcripts.
    let reference = {
        let server =
            Server::start(store(), config.clone(), Metrics::disabled()).expect("reference server");
        let t = run_cohort(server.local_addr(), medoids(), 7, COHORT, REQUESTS);
        server.shutdown();
        t
    };

    let registry = Arc::new(Registry::new());
    let server = Server::start(
        store(),
        config.clone(),
        Metrics::from_registry(Arc::clone(&registry)),
    )
    .expect("attacked server");
    let addr = server.local_addr();

    let (under_attack, wave) = std::thread::scope(|scope| {
        let wave = scope
            .spawn(move || run_adversary_wave(addr, config.read_timeout_ms, config.max_line_bytes));
        let cohort = scope.spawn(move || run_cohort(addr, medoids(), 7, COHORT, REQUESTS));
        (cohort.join().expect("cohort"), wave.join().expect("wave"))
    });

    // Fill every connection slot with idle holders, then flood: with
    // the cap provably reached, every extra accept must shed typed.
    let max_conns = chaos_config().max_conns;
    let holders: Vec<std::net::TcpStream> = (0..max_conns)
        .map(|_| std::net::TcpStream::connect(addr).expect("holder connects"))
        .collect();
    while server.active_connections() < max_conns {
        std::thread::yield_now();
    }
    let flood = flood_accepts(addr, 6);
    let threads_during = server_threads();
    drop(holders);

    // Every attacker in the wave was turned away typed, cohort or not.
    assert_eq!(wave.len(), Adversary::ALL.len());
    for report in &wave {
        assert_typed_rejection(report);
    }

    // Byte-identical answers for the well-behaved cohort.
    assert_eq!(under_attack.len(), reference.len());
    for (i, (a, b)) in under_attack.iter().zip(&reference).enumerate() {
        assert_eq!(
            a.responses, b.responses,
            "client {i} transcript diverged under attack"
        );
    }

    // With the cap held, the whole flood sheds typed.
    assert_eq!(
        flood.typed_sheds, 6,
        "every flooded accept must shed typed: {flood:?}"
    );
    let shed = registry.snapshot().counters.get("serve.shed").copied();
    assert!(
        shed.unwrap_or(0) >= flood.typed_sheds as u64,
        "serve.shed counts every typed shed: {shed:?} vs {flood:?}"
    );

    // The server's threads stay bounded: cap + 1 (the leader).
    if let Some(during) = threads_during {
        let bound = 1 + max_conns;
        assert!(
            during <= bound,
            "server threads unbounded under attack: {during} > {bound}"
        );
    }

    server.shutdown();
}

#[test]
fn oversized_blob_attack_keeps_memory_bounded() {
    let _guard = serial();
    let config = ServerConfig {
        max_line_bytes: 64 * 1024,
        ..chaos_config()
    };
    let server = Server::start(store(), config.clone(), Metrics::disabled()).expect("server");
    let addr = server.local_addr();
    let rss_before = peak_rss_kb();

    // Three sequential newline-free blob attacks, each trying to grow a
    // reader buffer far past the cap.
    for _ in 0..3 {
        let report = run_adversary(
            addr,
            Adversary::OversizedLine,
            config.read_timeout_ms,
            config.max_line_bytes,
        );
        assert!(report.rejection.is_some(), "typed rejection each time");
    }

    if let (Some(before), Some(after)) = (rss_before, peak_rss_kb()) {
        // Each attack streams 4x the 64 KiB cap; bounded buffering means
        // peak RSS grows by at most a few MiB of slack, not by the blob.
        assert!(
            after.saturating_sub(before) < 64 * 1024,
            "peak RSS jumped {before} -> {after} kB under blob attack"
        );
    }
    server.shutdown();
}
