//! `serve-load` — closed-loop load generator and adversarial client
//! harness for the serving layer, producing the committed
//! `BENCH_serve.json` baseline.
//!
//! ```text
//! serve-load [--scale tiny|small|default] [--seed N] [--clients C]
//!            [--requests N] [--workers W] [--no-swap] [--no-overload]
//!            [--mode steady|overload|slow-loris|idle-holder|
//!                    oversized-line|garbage-bytes|disconnect-mid-batch]
//!            [--out PATH]
//! ```
//!
//! The default run has two phases. **Steady**: the pipeline runs in
//! process at `--scale`/`--seed`, Step-7 influence is computed so hits
//! carry full payloads, a [`Server`] starts on a free loopback port,
//! and `C` closed-loop TCP clients (one in-flight request each, so
//! micro-batches form across connections) drive it through a seeded
//! query mix — medoid hashes perturbed by 0–12 bit flips, spanning
//! exact hits, near matches, and misses. Unless `--no-swap` is given,
//! the store hot-swaps a freshly built snapshot mid-run.
//!
//! **Overload** (skipped by `--no-overload`): a second server with a
//! connection cap sized exactly to the cohort plus one adversary wave
//! is attacked — slow-loris, idle-holder, oversized-line,
//! garbage-bytes, and disconnect-mid-batch all at once, plus an
//! accept-time flood past the cap — while the same well-behaved cohort
//! replays its schedule. The run asserts the production contract: the
//! cohort's transcripts are byte-identical to an attack-free pass,
//! every flooded accept got the typed `{"error":"overloaded"}` shed,
//! and the attackers got their typed rejections. The scenario's
//! `serve.shed` / `serve.timeouts` counters land in the baseline under
//! `overload.*` gauges.
//!
//! `--mode <adversary>` instead runs that single adversarial client
//! against an in-process server and exits 0 iff the server honoured
//! the contract — the shape the CI `serve-chaos` job scripts against.
//!
//! Client-side per-request latency lands in the `serve.latency_p50_us`
//! / `serve.latency_p99_us` / `serve.throughput_qps` gauges next to the
//! server's own `serve.*` metrics, and the whole registry is exported
//! in the `BENCH_*.json` wrapper form, so the output passes
//! `memes validate-metrics` and CI can archive it as a trend baseline.

use meme_bench::baseline::{scale_label, wrap};
use meme_bench::serveload::{
    flood_accepts, live_threads, peak_rss_kb, percentile, run_adversary, run_adversary_wave,
    run_cohort, Adversary,
};
use meme_core::pipeline::{Pipeline, PipelineConfig};
use meme_core::supervise::SupervisedRunner;
use meme_hawkes::InfluenceEstimator;
use meme_metrics::{Metrics, Registry};
use meme_phash::PHash;
use meme_serve::{protocol, Server, ServerConfig, Snapshot, SnapshotStore, DEFAULT_THETA};
use meme_simweb::{Community, SimConfig, SimScale};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Options {
    scale: SimScale,
    seed: u64,
    clients: usize,
    requests: usize,
    workers: usize,
    swap: bool,
    overload: bool,
    mode: Option<Adversary>,
    out: String,
}

fn parse_args() -> Result<Options, String> {
    let argv: Vec<String> = std::env::args().collect();
    let mut opts = Options {
        scale: SimScale::Tiny,
        seed: 7,
        clients: 4,
        requests: 2_000,
        workers: 2,
        swap: true,
        overload: true,
        mode: None,
        out: "BENCH_serve.json".to_string(),
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                opts.scale = match argv.get(i).map(String::as_str) {
                    Some("tiny") => SimScale::Tiny,
                    Some("small") => SimScale::Small,
                    Some("default") => SimScale::Default,
                    other => return Err(format!("unknown scale {other:?}")),
                };
            }
            "--seed" => {
                i += 1;
                opts.seed = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an integer")?;
            }
            "--clients" => {
                i += 1;
                opts.clients = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--clients needs a positive integer")?;
            }
            "--requests" => {
                i += 1;
                opts.requests = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--requests needs a positive integer")?;
            }
            "--workers" => {
                i += 1;
                opts.workers = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--workers needs a positive integer")?;
            }
            "--no-swap" => opts.swap = false,
            "--no-overload" => opts.overload = false,
            "--mode" => {
                i += 1;
                let label = argv.get(i).ok_or("--mode needs a name")?;
                opts.mode = match label.as_str() {
                    "steady" => {
                        opts.overload = false;
                        None
                    }
                    "overload" => None,
                    other => Some(Adversary::parse(other).ok_or_else(|| {
                        format!(
                            "unknown mode `{other}` (try steady, overload, slow-loris, \
                             idle-holder, oversized-line, garbage-bytes, disconnect-mid-batch)"
                        )
                    })?),
                };
            }
            "--out" => {
                i += 1;
                opts.out = argv.get(i).cloned().ok_or("--out needs a path")?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(opts)
}

/// Build the snapshot-backed store served in every phase.
struct Fixture {
    store: Arc<SnapshotStore>,
    medoids: Vec<PHash>,
    rebuild: Box<dyn Fn() -> Snapshot + Sync>,
}

fn build_fixture(opts: &Options) -> Option<Fixture> {
    eprintln!(
        "[serve-load] pipeline (scale {:?}, seed {})...",
        opts.scale, opts.seed
    );
    let dataset = SimConfig::new(opts.scale, opts.seed).generate();
    let output = SupervisedRunner::new(Pipeline::new(PipelineConfig::default()))
        .run(&dataset)
        .expect("pipeline runs on generated data")
        .expect_complete();
    let estimator = InfluenceEstimator::new(Community::COUNT, 3.0);
    let (influence, skipped) = output
        .estimate_influence(&dataset, &estimator, 0, &Metrics::disabled())
        .expect("a pipeline-produced output keeps cluster ids in range");
    if !skipped.is_empty() {
        eprintln!(
            "[serve-load] influence: {} cluster(s) skipped",
            skipped.len()
        );
    }
    let snapshot = Snapshot::build(&output, Some(&influence), DEFAULT_THETA, 0)
        .expect("fresh artifact builds a snapshot");
    let medoids: Vec<PHash> = snapshot.records().iter().map(|r| r.medoid).collect();
    if medoids.is_empty() {
        eprintln!("[serve-load] run has no annotated clusters — nothing to serve");
        return None;
    }
    let store = Arc::new(SnapshotStore::new(snapshot));
    let rebuild = Box::new(move || {
        Snapshot::build(&output, Some(&influence), DEFAULT_THETA, 0)
            .expect("rebuild snapshot for swap")
    });
    Some(Fixture {
        store,
        medoids,
        rebuild,
    })
}

/// Phase 1 — the closed-loop steady-state benchmark (with optional
/// mid-run hot swap), writing latency/throughput gauges into `metrics`.
fn steady_phase(opts: &Options, fixture: &Fixture, metrics: &Metrics) {
    let server = Server::start(
        Arc::clone(&fixture.store),
        ServerConfig {
            workers: opts.workers,
            ..ServerConfig::default()
        },
        metrics.clone(),
    )
    .expect("bind a free loopback port");
    let addr = server.local_addr();
    eprintln!(
        "[serve-load] {} meme(s) on {addr}; {} client(s) x {} request(s), workers {}",
        fixture.store.load().len(),
        opts.clients,
        opts.requests,
        opts.workers
    );

    let started = Instant::now();
    let transcripts = std::thread::scope(|scope| {
        let cohort = scope.spawn(|| {
            run_cohort(
                addr,
                &fixture.medoids,
                opts.seed,
                opts.clients,
                opts.requests,
            )
        });
        if opts.swap {
            // Swap a freshly built snapshot in mid-run; clients must
            // not notice beyond the generation counter.
            std::thread::sleep(std::time::Duration::from_millis(50));
            fixture.store.swap((fixture.rebuild)());
            metrics.gauge(
                "serve.snapshot_generation",
                fixture.store.generation() as f64,
            );
            eprintln!(
                "[serve-load] hot-swapped to generation {}",
                fixture.store.generation()
            );
        }
        cohort.join().expect("cohort")
    });
    let wall = started.elapsed().as_secs_f64();
    server.shutdown();

    let mut latencies_us: Vec<f64> = transcripts
        .iter()
        .flat_map(|t| t.latencies_us.iter().copied())
        .collect();
    latencies_us.sort_by(f64::total_cmp);
    let total = latencies_us.len();
    let p50 = percentile(&latencies_us, 0.50);
    let p99 = percentile(&latencies_us, 0.99);
    let qps = total as f64 / wall;
    metrics.gauge("serve.latency_p50_us", p50);
    metrics.gauge("serve.latency_p99_us", p99);
    metrics.gauge("serve.throughput_qps", qps);
    metrics.gauge("serve.clients", opts.clients as f64);
    metrics.gauge("serve.wall_secs", wall);
    eprintln!(
        "[serve-load] {total} request(s) in {wall:.2}s: p50 {p50:.0}us, p99 {p99:.0}us, {qps:.0} qps"
    );
}

/// Configuration every overload-phase server shares; the short line
/// budget keeps the adversary wave fast, and the cap is sized so the
/// cohort plus one wave are admitted and the flood is shed.
fn overload_config(opts: &Options) -> ServerConfig {
    ServerConfig {
        workers: opts.workers,
        max_conns: opts.clients + Adversary::ALL.len(),
        read_timeout_ms: 400,
        max_line_bytes: 16 * 1024,
        ..ServerConfig::default()
    }
}

/// Phase 2 — the mixed-overload scenario. Returns `false` if any
/// contract assertion failed.
fn overload_phase(opts: &Options, fixture: &Fixture, metrics: &Metrics) -> bool {
    let config = overload_config(opts);
    let requests = opts.requests.min(500);
    // Attack-free reference pass: same server configuration, same
    // cohort schedule — the byte-identity baseline.
    let reference = {
        let server = Server::start(
            Arc::clone(&fixture.store),
            config.clone(),
            Metrics::disabled(),
        )
        .expect("bind reference server");
        let t = run_cohort(
            server.local_addr(),
            &fixture.medoids,
            opts.seed,
            opts.clients,
            requests,
        );
        server.shutdown();
        t
    };

    let registry = Arc::new(Registry::new());
    let overload_metrics = Metrics::from_registry(Arc::clone(&registry));
    let server = Server::start(
        Arc::clone(&fixture.store),
        config.clone(),
        overload_metrics.clone(),
    )
    .expect("bind overload server");
    let addr = server.local_addr();
    eprintln!(
        "[serve-load] overload: cohort {} + adversary wave {} vs cap {} (flood {})",
        opts.clients,
        Adversary::ALL.len(),
        config.max_conns,
        8,
    );

    let threads_before = live_threads();
    let (under_attack, wave) = std::thread::scope(|scope| {
        let wave =
            scope.spawn(|| run_adversary_wave(addr, config.read_timeout_ms, config.max_line_bytes));
        let cohort =
            scope.spawn(|| run_cohort(addr, &fixture.medoids, opts.seed, opts.clients, requests));
        (cohort.join().expect("cohort"), wave.join().expect("wave"))
    });
    // Fill every connection slot with idle holders, then flood: with
    // the cap provably reached, every extra accept must shed typed.
    let holders: Vec<std::net::TcpStream> = (0..config.max_conns)
        .map(|_| std::net::TcpStream::connect(addr).expect("holder connects"))
        .collect();
    while server.active_connections() < config.max_conns {
        std::thread::yield_now();
    }
    let flood = flood_accepts(addr, 8);
    let threads_during = live_threads();
    drop(holders);

    let mut ok = true;
    let identical = under_attack.len() == reference.len()
        && under_attack
            .iter()
            .zip(&reference)
            .all(|(a, b)| a.responses == b.responses);
    if !identical {
        eprintln!("[serve-load] FAIL: cohort transcripts diverged under attack");
        ok = false;
    }
    if flood.typed_sheds != 8 {
        eprintln!(
            "[serve-load] FAIL: only {}/8 flooded accepts shed typed",
            flood.typed_sheds
        );
        ok = false;
    }
    for report in &wave {
        let want_typed = matches!(
            report.adversary,
            Adversary::SlowLoris | Adversary::IdleHolder | Adversary::OversizedLine
        );
        if want_typed && report.rejection.is_none() {
            eprintln!(
                "[serve-load] FAIL: {} got no typed rejection",
                report.adversary.label()
            );
            ok = false;
        }
    }
    // Thread growth is bounded by the cap plus the worker pool (our own
    // client threads are gone by now; allow them slack while attacking).
    if let (Some(before), Some(during)) = (threads_before, threads_during) {
        let bound = before + config.max_conns + opts.workers + 4;
        if during > bound {
            eprintln!("[serve-load] FAIL: {during} threads live (bound {bound})");
            ok = false;
        }
        metrics.gauge("overload.threads_peak", during as f64);
    }
    server.shutdown();
    if let Some(after) = live_threads() {
        metrics.gauge("overload.threads_after_shutdown", after as f64);
    }
    if let Some(kb) = peak_rss_kb() {
        metrics.gauge("overload.peak_rss_kb", kb as f64);
    }

    // Fold the scenario's server-side counters into the baseline.
    let snap = registry.snapshot();
    for (name, value) in [
        ("overload.shed", snap.counters.get("serve.shed")),
        ("overload.timeouts", snap.counters.get("serve.timeouts")),
        ("overload.oversized", snap.counters.get("serve.oversized")),
    ] {
        metrics.gauge(name, value.copied().unwrap_or(0) as f64);
    }
    metrics.gauge("overload.cohort_identical", f64::from(identical));
    metrics.gauge("overload.flood_typed_sheds", flood.typed_sheds as f64);
    metrics.gauge("overload.attackers", Adversary::ALL.len() as f64);
    eprintln!(
        "[serve-load] overload: identical={identical}, flood sheds {} / 8, \
         server shed {} timeout {}",
        flood.typed_sheds,
        snap.counters.get("serve.shed").copied().unwrap_or(0),
        snap.counters.get("serve.timeouts").copied().unwrap_or(0),
    );
    ok
}

/// `--mode <adversary>`: one adversarial client against a live server;
/// exit 0 iff the server honoured the lifecycle contract.
fn adversary_mode(opts: &Options, fixture: &Fixture, adversary: Adversary) -> bool {
    let config = overload_config(opts);
    let registry = Arc::new(Registry::new());
    let server = Server::start(
        Arc::clone(&fixture.store),
        config.clone(),
        Metrics::from_registry(Arc::clone(&registry)),
    )
    .expect("bind server");
    let addr = server.local_addr();
    let report = run_adversary(
        addr,
        adversary,
        config.read_timeout_ms,
        config.max_line_bytes,
    );
    // Whatever the adversary did, a well-behaved client must still get
    // clean answers afterwards.
    let healthy = run_cohort(addr, &fixture.medoids, opts.seed, 1, 50);
    server.shutdown();
    let counters = registry.snapshot().counters;
    eprintln!(
        "[serve-load] {}: rejection={:?} closed={} (shed {}, timeouts {}, oversized {})",
        adversary.label(),
        report.rejection,
        report.closed,
        counters.get("serve.shed").copied().unwrap_or(0),
        counters.get("serve.timeouts").copied().unwrap_or(0),
        counters.get("serve.oversized").copied().unwrap_or(0),
    );
    let contract = match adversary {
        Adversary::SlowLoris | Adversary::IdleHolder => {
            report.closed
                && report.rejection.as_deref() == Some(protocol::READ_TIMEOUT)
                && counters.get("serve.timeouts").copied().unwrap_or(0) >= 1
        }
        Adversary::OversizedLine => {
            report.closed
                && report
                    .rejection
                    .as_deref()
                    .is_some_and(|r| r.contains("exceeds"))
                && counters.get("serve.oversized").copied().unwrap_or(0) >= 1
        }
        Adversary::GarbageBytes => report
            .rejection
            .as_deref()
            .is_some_and(|r| r.contains("error")),
        Adversary::DisconnectMidBatch => true, // surviving IS the contract
    };
    contract && healthy.len() == 1 && healthy[0].responses.len() == 50
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("serve-load: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(fixture) = build_fixture(&opts) else {
        return ExitCode::FAILURE;
    };

    if let Some(adversary) = opts.mode {
        return if adversary_mode(&opts, &fixture, adversary) {
            eprintln!("[serve-load] {}: contract held", adversary.label());
            ExitCode::SUCCESS
        } else {
            eprintln!("[serve-load] {}: CONTRACT VIOLATED", adversary.label());
            ExitCode::FAILURE
        };
    }

    let registry = Arc::new(Registry::new());
    let metrics = Metrics::from_registry(Arc::clone(&registry));
    steady_phase(&opts, &fixture, &metrics);
    if opts.overload && !overload_phase(&opts, &fixture, &metrics) {
        return ExitCode::FAILURE;
    }

    let doc = wrap(
        "serve",
        scale_label(opts.scale),
        opts.seed,
        &registry.to_json(),
    );
    if let Err(e) = std::fs::write(&opts.out, doc) {
        eprintln!("serve-load: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    eprintln!("[serve-load] wrote {}", opts.out);
    ExitCode::SUCCESS
}
