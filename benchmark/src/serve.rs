//! The serve workloads, both closed loop (a lookup caller waits for its
//! reply) with at most `nproc` client threads and connections:
//! `serve-steady` keeps its connections and measures the per-request hop
//! chain; `serve-churn` opens a connection per session of 8 lookups and so
//! measures accept, admission, reader-thread spawn and reap.

use crate::adapter::{
    self, Hash, Influence, LoadTimes, ProgramMetrics, Res, RunningServer, ServeFixture,
};
use crate::options::{Options, Sizes, LOOKUPS_PER_SESSION};
use crate::probes;
use crate::report::RunReport;
use crate::spec::{self, Workload};
use crate::stats::{self, Summary};
use crate::trace::Trace;
use crate::util::{self, SplitMix64};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Barrier;
use std::time::Instant;

// ------------------------------------------------------------ the artifact

/// What the `artifact` subcommand leaves in a run's scratch directory.
const ARTIFACT: &str = "run.json";
const INFLUENCE: &str = "influence.json";

/// The `artifact` subcommand: a full run of the sparse corpus with Step 7,
/// written into `dir` the way `memes run --out` does, and Step 7's matrices
/// beside it.
pub fn write_artifact(dir: &Path, sizes: &Sizes, seed: u64) -> Res<()> {
    let threads = adapter::nproc();
    let corpus = adapter::generate(&sizes.sparse, seed)?;
    let run = adapter::run_pipeline(&corpus, threads, &ProgramMetrics::disabled())?;
    let influence = adapter::fit_influence(&corpus, &run.output, threads)?;
    let path = dir.join(ARTIFACT);
    std::fs::write(&path, adapter::output_json(&run.output))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    adapter::save_influence(&influence.influence, &dir.join(INFLUENCE))
}

/// Set-up's first half, in a process of its own. The serve workloads'
/// process never runs the pipeline, so its resident set is the server's and
/// the clients', not what the batch layers left behind.
fn build_artifact(opts: &Options) -> Res<()> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("artifact")
        .arg(&opts.scratch_dir)
        .args(["--seed", &opts.seed.to_string()])
        .stdout(Stdio::null());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("start the artifact process: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("the artifact process ended with {status}"))
    }
}

// ---------------------------------------------------------------- queries

/// One query of the mix with the reply the server must give.
pub struct Query {
    pub hash: Hash,
    request: String,
    expected: String,
    pub hit: bool,
}

/// The seeded query mix: a random servable medoid with 0-12 random bit
/// flips. About 80 % are hits: a flipped bit can repeat, and a hash more
/// than 8 bits from its own medoid can be within 8 of another's.
pub fn query_pool(fixture: &ServeFixture, seed: u64, n: usize) -> Res<Vec<Query>> {
    let medoids = fixture.servable_hashes();
    if medoids.is_empty() {
        return Err("the run annotated no cluster, so there is nothing to serve".to_string());
    }
    let mut rng = SplitMix64::new(seed ^ 0x5155_4552_5950_4f4f);
    Ok((0..n)
        .map(|_| {
            let medoid = medoids[rng.below(medoids.len())];
            let flips: Vec<u8> = (0..rng.below(13)).map(|_| rng.below(64) as u8).collect();
            let hash = adapter::flip_bits(medoid, &flips);
            let (expected, hit) = fixture.expected_reply(hash);
            Query {
                hash,
                request: adapter::request_line(hash),
                expected,
                hit,
            }
        })
        .collect())
}

// ----------------------------------------------------------------- clients

/// One client connection: line out, line in.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Res<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Client {
            reader,
            writer: stream,
            line: String::new(),
        })
    }

    /// Send one request line and read the reply line. Returns when the
    /// write finished (for the traced run) or the transport error.
    fn exchange(&mut self, request: &str) -> std::io::Result<Instant> {
        self.writer.write_all(request.as_bytes())?;
        let written = Instant::now();
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(written)
    }

    /// One lookup; `Ok(true)` when the reply is byte-for-byte the expected line.
    pub fn lookup(&mut self, query: &Query) -> std::io::Result<(bool, Instant)> {
        let written = self.exchange(&query.request)?;
        Ok((self.line.trim_end_matches('\n') == query.expected, written))
    }
}

/// What one client thread did in one repetition.
#[derive(Default)]
struct ClientLog {
    /// Latency of each operation (lookup round trip, or whole session), ns.
    op_ns: Vec<u64>,
    /// `serve-churn` traced only: latency of each lookup inside the sessions.
    lookup_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Traced only: per operation, ns since the trace began. Steady:
    /// write start, write end, reply read. Churn: connect start, connected,
    /// last reply read, closed.
    stamps: Vec<[u64; 4]>,
}

/// `requests` lookups over one kept connection.
fn steady_client(
    client: &mut Client,
    pool: &[Query],
    requests: usize,
    mut rng: SplitMix64,
    origin: Option<Instant>,
) -> ClientLog {
    let mut log = ClientLog::default();
    log.op_ns.reserve(requests);
    for _ in 0..requests {
        let query = &pool[rng.below(pool.len())];
        let start = Instant::now();
        log.attempted += 1;
        match client.lookup(query) {
            Ok((matches, written)) => {
                let end = Instant::now();
                log.op_ns.push((end - start).as_nanos() as u64);
                if !matches {
                    log.failed += 1;
                }
                if let Some(origin) = origin {
                    let ns = |t: Instant| (t - origin).as_nanos() as u64;
                    log.stamps.push([ns(start), ns(written), ns(end), ns(end)]);
                }
            }
            // The connection is gone; every remaining lookup of this
            // repetition fails with it.
            Err(_) => {
                log.failed += (requests as u64) - (log.attempted - 1);
                log.attempted = requests as u64;
                break;
            }
        }
    }
    log
}

/// `sessions` sessions: connect, TCP_NODELAY, 8 lookups, close.
fn churn_client(
    addr: SocketAddr,
    pool: &[Query],
    sessions: usize,
    mut rng: SplitMix64,
    origin: Option<Instant>,
) -> ClientLog {
    let mut log = ClientLog::default();
    log.op_ns.reserve(sessions);
    for _ in 0..sessions {
        log.attempted += 1;
        let start = Instant::now();
        let mut ok = true;
        let mut connected = start;
        let mut answered = start;
        match Client::connect(addr) {
            Ok(mut client) => {
                connected = Instant::now();
                for _ in 0..LOOKUPS_PER_SESSION {
                    let query = &pool[rng.below(pool.len())];
                    let sent = Instant::now();
                    match client.lookup(query) {
                        Ok((matches, _)) => {
                            ok &= matches;
                            if origin.is_some() {
                                log.lookup_ns.push(sent.elapsed().as_nanos() as u64);
                            }
                        }
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                answered = Instant::now();
                drop(client);
            }
            Err(_) => ok = false,
        }
        let end = Instant::now();
        log.op_ns.push((end - start).as_nanos() as u64);
        if !ok {
            log.failed += 1;
        }
        if let Some(origin) = origin {
            let ns = |t: Instant| (t - origin).as_nanos() as u64;
            log.stamps
                .push([ns(start), ns(connected), ns(answered), ns(end)]);
        }
    }
    log
}

/// One repetition's merged result.
struct Repetition {
    wall_s: f64,
    /// Ascending.
    op_ns: Vec<u64>,
    lookup_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    stamps: Vec<[u64; 4]>,
}

impl Repetition {
    fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.wall_s
    }

    /// The repetition's end-to-end numbers; the samples are dropped, so a
    /// run's memory does not grow with the repetitions it fits in.
    fn summary(&self) -> RepetitionSummary {
        let ms: Vec<f64> = self.op_ns.iter().map(|&n| n as f64 / 1e6).collect();
        RepetitionSummary {
            p50_ms: stats::percentile_sorted(&ms, 50.0),
            tail_ms: stats::percentile_sorted(&ms, TAIL_PERCENTILE),
            ops_per_s: self.ops_per_s(),
            peak_rss_mib: util::peak_rss_mib(),
            attempted: self.attempted,
            failed: self.failed,
        }
    }
}

struct RepetitionSummary {
    p50_ms: f64,
    tail_ms: f64,
    ops_per_s: f64,
    /// Peak resident set since the repetition began, MiB.
    peak_rss_mib: f64,
    attempted: u64,
    failed: u64,
}

/// `op_tail_ms` is this percentile of a repetition's latencies (2 000 or
/// more samples at full size). Not p99: on the 2-core VM this was sized on,
/// the p99 of a closed-loop lookup moved by up to 28 % between runs of the
/// same code, more than any bound may be; p99 and p99.9 are layer numbers.
const TAIL_PERCENTILE: f64 = 95.0;

/// Repetition numbers that are not timed ones; each draws its own streams.
const WARMUP: usize = usize::MAX;
const TRACED: usize = usize::MAX - 1;
const TRACED_STEADY: usize = usize::MAX - 2;

/// Sessions per thread that warm a fresh `serve-churn` server, untimed.
const CHURN_WARMUP_SESSIONS: usize = 16;

/// Run one client per element of `seats` from a common start line and
/// merge what they did; the wall clock runs from the start line to the
/// last client finishing.
fn repetition<S: Send>(seats: Vec<S>, work: impl Fn(S, usize) -> ClientLog + Sync) -> Repetition {
    let barrier = Barrier::new(seats.len() + 1);
    let (logs, wall_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = seats
            .into_iter()
            .enumerate()
            .map(|(i, seat)| {
                let (barrier, work) = (&barrier, &work);
                scope.spawn(move || {
                    barrier.wait();
                    work(seat, i)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        (logs, start.elapsed().as_secs_f64())
    });
    let mut rep = Repetition {
        wall_s,
        op_ns: Vec::new(),
        lookup_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        stamps: Vec::new(),
    };
    for log in logs {
        rep.op_ns.extend(log.op_ns);
        rep.lookup_ns.extend(log.lookup_ns);
        rep.attempted += log.attempted;
        rep.failed += log.failed;
        rep.stamps.extend(log.stamps);
    }
    rep.op_ns.sort_unstable();
    rep.lookup_ns.sort_unstable();
    rep
}

/// Seed of client `i` in repetition `rep`: every client of every repetition
/// draws its own stream, all from `--seed`.
fn client_rng(seed: u64, rep: usize, i: usize) -> SplitMix64 {
    let stream = (rep as u64)
        .wrapping_mul(0x1_0000)
        .wrapping_add(i as u64 + 1);
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn steady_repetition(
    clients: &mut [Client],
    pool: &[Query],
    requests: usize,
    seed: u64,
    rep: usize,
    origin: Option<Instant>,
) -> Repetition {
    repetition(clients.iter_mut().collect(), |client, i| {
        steady_client(client, pool, requests, client_rng(seed, rep, i), origin)
    })
}

fn churn_repetition(
    addr: SocketAddr,
    threads: usize,
    pool: &[Query],
    sessions: usize,
    seed: u64,
    rep: usize,
    origin: Option<Instant>,
) -> Repetition {
    repetition((0..threads).collect(), |_, i| {
        churn_client(addr, pool, sessions, client_rng(seed, rep, i), origin)
    })
}

// ---------------------------------------------------------------- bring-up

/// A warm server over an artifact, with its clients connected.
pub struct Live {
    pub fixture: ServeFixture,
    pub server: RunningServer,
    pub clients: Vec<Client>,
    pub pool: Vec<Query>,
    pub load: LoadTimes,
    /// Artifact on disk to first answered lookup.
    pub ready_ms: f64,
}

/// What `memes serve` does from an artifact on disk, then `conns` client
/// connections and `warmup` answered requests.
pub fn bring_up(
    artifact: &Path,
    influence: &Influence,
    seed: u64,
    conns: usize,
    sizes: &Sizes,
) -> Res<Live> {
    let t = Instant::now();
    let (fixture, load) = ServeFixture::from_artifact(artifact, influence)?;
    let server = fixture.start(false, &ProgramMetrics::disabled())?;
    let mut first = Client::connect(server.addr())?;
    let probe = query_pool(&fixture, seed, 1)?;
    let answered = first
        .lookup(&probe[0])
        .map_err(|e| format!("first lookup: {e}"))?;
    let ready_ms = t.elapsed().as_secs_f64() * 1e3;
    if !answered.0 {
        return Err("the first lookup's reply differs from the in-process reference".to_string());
    }
    let pool = query_pool(&fixture, seed, sizes.query_pool)?;
    let mut clients = vec![first];
    while clients.len() < conns {
        clients.push(Client::connect(server.addr())?);
    }
    let warm = steady_repetition(
        &mut clients,
        &pool,
        sizes.warmup_requests.div_ceil(conns),
        seed,
        WARMUP,
        None,
    );
    if warm.failed > 0 {
        return Err(format!("{} warm-up lookups failed", warm.failed));
    }
    Ok(Live {
        fixture,
        server,
        clients,
        pool,
        load,
        ready_ms,
    })
}

// ------------------------------------------------------------ the workload

pub fn run(opts: &Options) -> Res<RunReport> {
    let workload = opts.workload;
    let churn = workload == Workload::ServeChurn;
    let threads = adapter::nproc();
    let sizes = &opts.sizes();
    let mut report = RunReport::new(workload, opts.seed, opts.seconds, opts.traced, threads);
    let artifact = opts.scratch_dir.join(ARTIFACT);

    // Set-up, several times over; the last one is kept: corpus, full run,
    // Step 7 and the artifact on disk (in a child process), then snapshot,
    // server start, warm-up requests.
    let mut setup_s = Vec::new();
    let mut kept: Option<(Influence, Live)> = None;
    for _ in 0..sizes.setup_reps {
        if let Some((_, live)) = kept.take() {
            drop(live.clients);
            live.server.shutdown();
        }
        let t = Instant::now();
        build_artifact(opts)?;
        let influence = adapter::load_influence(&opts.scratch_dir.join(INFLUENCE))?;
        let live = bring_up(&artifact, &influence, opts.seed, threads, sizes)?;
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((influence, live));
    }
    let (influence, mut live) = kept.ok_or("no set-up repetition ran")?;

    // One discarded warm-up repetition, then timed repetitions until
    // `--seconds` have passed. `serve-churn` starts a fresh server (a new
    // port) for every repetition, untimed, so closed connections waiting
    // out TIME_WAIT never run the client out of ephemeral ports.
    let one = |live: &mut Live, rep: usize| -> Res<RepetitionSummary> {
        util::reset_peak_rss();
        if churn {
            let server = live.fixture.start(false, &ProgramMetrics::disabled())?;
            churn_repetition(
                server.addr(),
                threads,
                &live.pool,
                CHURN_WARMUP_SESSIONS,
                opts.seed,
                WARMUP,
                None,
            );
            let r = churn_repetition(
                server.addr(),
                threads,
                &live.pool,
                sizes.churn_sessions,
                opts.seed,
                rep,
                None,
            );
            server.shutdown();
            Ok(r.summary())
        } else {
            Ok(steady_repetition(
                &mut live.clients,
                &live.pool,
                sizes.steady_requests,
                opts.seed,
                rep,
                None,
            )
            .summary())
        }
    };
    one(&mut live, WARMUP)?;
    let mut reps: Vec<RepetitionSummary> = Vec::new();
    let clock = Instant::now();
    while reps.len() < sizes.min_reps || clock.elapsed().as_secs_f64() < opts.seconds {
        reps.push(one(&mut live, reps.len())?);
    }

    report.ops_attempted = reps.iter().map(|r| r.attempted).sum();
    report.ops_failed = reps.iter().map(|r| r.failed).sum();
    if report.ops_failed > 0 {
        report.fail(format!(
            "{} of {} operations met a transport error or a reply that differs from the in-process Snapshot::lookup + render line",
            report.ops_failed, report.ops_attempted
        ));
    }
    let per_rep =
        |f: fn(&RepetitionSummary) -> f64| Summary::of(&reps.iter().map(f).collect::<Vec<_>>());
    let e2e = &mut report.end_to_end;
    e2e.insert(spec::OP_P50_MS.into(), per_rep(|r| r.p50_ms));
    e2e.insert(spec::OP_TAIL_MS.into(), per_rep(|r| r.tail_ms));
    e2e.insert(spec::OPS_PER_S.into(), per_rep(|r| r.ops_per_s));
    e2e.insert(spec::PEAK_RSS_MB.into(), per_rep(|r| r.peak_rss_mib));
    e2e.insert(spec::SETUP_S.into(), Summary::of(&setup_s));

    let expected: String = live.pool.iter().map(|q| q.expected.as_str()).collect();
    report
        .digests
        .insert("replies".into(), util::digest(expected.as_bytes()));
    let json = std::fs::read(&artifact).map_err(|e| format!("read {}: {e}", artifact.display()))?;
    report
        .digests
        .insert("output_json".into(), util::digest(&json));
    let hits = live.pool.iter().filter(|q| q.hit).count();
    report.notes.push(format!(
        "{} servable memes; query pool of {} ({hits} hits); {} timed repetition(s) of {} operations from {threads} client thread(s)",
        live.fixture.servable_hashes().len(),
        live.pool.len(),
        reps.len(),
        reps.first().map_or(0, |r| r.attempted),
    ));

    if opts.traced {
        let untraced_ops_per_s = report.end_to_end[spec::OPS_PER_S].median;
        traced_run(
            opts,
            &artifact,
            &influence,
            &live,
            untraced_ops_per_s,
            &mut report,
        )?;
    }

    drop(live.clients);
    live.server.shutdown();
    Ok(report)
}

// ---------------------------------------------------------- the traced run

/// One traced repetition against a server whose metrics registry is on,
/// then the reload probe and the layer probes.
fn traced_run(
    opts: &Options,
    artifact: &Path,
    influence: &Influence,
    live: &Live,
    untraced_ops_per_s: f64,
    report: &mut RunReport,
) -> Res<()> {
    let churn = opts.workload == Workload::ServeChurn;
    let threads = adapter::nproc();
    let sizes = &opts.sizes();
    let mut trace = Trace::new();
    let origin = trace.origin();
    let metrics = ProgramMetrics::enabled();
    let server = live.fixture.start(false, &metrics)?;
    let mut clients = (0..threads)
        .map(|_| Client::connect(server.addr()))
        .collect::<Res<Vec<_>>>()?;

    let cpu = util::cpu_seconds();
    let rep_span = trace.begin("repetition", None, 0);
    let traced = if churn {
        churn_repetition(
            server.addr(),
            threads,
            &live.pool,
            sizes.traced_sessions,
            opts.seed,
            TRACED,
            Some(origin),
        )
    } else {
        steady_repetition(
            &mut clients,
            &live.pool,
            sizes.traced_requests,
            opts.seed,
            TRACED,
            Some(origin),
        )
    };
    trace.end(rep_span);
    let cpu = util::cpu_seconds() - cpu;
    for s in &traced.stamps {
        if churn {
            let session = trace.record("session", s[0], s[3], Some(rep_span), 0);
            trace.record("connect", s[0], s[1], Some(session), 0);
            trace.record("lookups", s[1], s[2], Some(session), 0);
            trace.record("close", s[2], s[3], Some(session), 0);
        } else {
            let request = trace.record("request", s[0], s[2], Some(rep_span), 0);
            trace.record("write", s[0], s[1], Some(request), 0);
            trace.record("wait_read", s[1], s[2], Some(request), 0);
        }
    }
    if traced.failed > 0 {
        report.fail(format!("{} traced operations failed", traced.failed));
    }

    let to_f64 = |ns: &[u64]| ns.iter().map(|&n| n as f64).collect::<Vec<_>>();
    let lookups_ns = to_f64(if churn {
        &traced.lookup_ns
    } else {
        &traced.op_ns
    });
    let lookup_p50_us = stats::percentile_sorted(&lookups_ns, 50.0) / 1e3;
    let layer = &mut report.per_layer;
    let lookups = metrics.counter("serve.hits") + metrics.counter("serve.misses");
    let (query_secs, query_calls) = metrics.span("serve/query");
    let query_span_us = if query_calls == 0 {
        0.0
    } else {
        query_secs * 1e6 / query_calls as f64
    };
    layer.insert("serve.query_span_us".into(), query_span_us);
    layer.insert(
        "serve.batch_size_mean".into(),
        metrics.histogram_mean("serve.batch_size"),
    );
    layer.insert(
        "serve.hit_ratio".into(),
        metrics.counter("serve.hits") as f64 / lookups.max(1) as f64,
    );
    layer.insert(
        "serve.rtt_p99_us".into(),
        stats::percentile_sorted(&lookups_ns, 99.0) / 1e3,
    );
    layer.insert(
        "serve.rtt_p999_us".into(),
        stats::percentile_sorted(&lookups_ns, 99.9) / 1e3,
    );
    layer.insert(
        "serve.cpu_us_per_query".into(),
        cpu * 1e6 / lookups_ns.len().max(1) as f64,
    );
    layer.insert("serve.shed".into(), metrics.counter("serve.shed") as f64);
    layer.insert(
        "serve.timeouts".into(),
        metrics.counter("serve.timeouts") as f64,
    );
    layer.insert(
        "metrics.trace_overhead_ratio".into(),
        untraced_ops_per_s / traced.ops_per_s(),
    );
    if churn {
        // Eight lookups over a kept connection to the same server are what a
        // session would cost without connect, admission, spawn and reap. Run
        // after the program's numbers are read, so they describe sessions only.
        let steady = steady_repetition(
            &mut clients,
            &live.pool,
            sizes.traced_requests,
            opts.seed,
            TRACED_STEADY,
            None,
        );
        let session_p50_us = stats::percentile_sorted(&to_f64(&traced.op_ns), 50.0) / 1e3;
        let steady_p50_us = stats::percentile_sorted(&to_f64(&steady.op_ns), 50.0) / 1e3;
        layer.insert(
            "serve.session_overhead_us".into(),
            session_p50_us - LOOKUPS_PER_SESSION as f64 * steady_p50_us,
        );
    }
    drop(clients);
    server.shutdown();

    layer.insert(
        "serve.reload_ms".into(),
        reload_probe(&mut trace, artifact, influence, sizes.reloads)?,
    );
    layer.extend(probes::serve(
        &mut trace, artifact, influence, opts.seed, sizes,
    )?);
    // What is left of a round trip once the server's own query span and the
    // request parse are taken out: syscalls and the two thread hand-offs.
    let parse_us = layer.get("serve.parse_ns").copied().unwrap_or(0.0) / 1e3;
    layer.insert(
        "serve.transport_us".into(),
        lookup_p50_us - query_span_us - parse_us,
    );
    probes::write_trace(
        trace,
        &report.per_layer,
        &opts.out_dir,
        opts.workload.name(),
        opts.seed,
    )
}

/// Median milliseconds of a wire `{"op":"reload"}` against an
/// `allow_reload` server over a store of its own, so the swaps never touch
/// the snapshot the measured replies are checked against.
fn reload_probe(
    trace: &mut Trace,
    artifact: &Path,
    influence: &Influence,
    reloads: usize,
) -> Res<f64> {
    let (fixture, _) = ServeFixture::from_artifact(artifact, influence)?;
    let server = fixture.start(true, &ProgramMetrics::disabled())?;
    let mut client = Client::connect(server.addr())?;
    let request = adapter::reload_line(artifact);
    let mut ms = Vec::new();
    for i in 0..reloads {
        let span = trace.begin("probe.serve.reload", None, i as u32);
        client
            .exchange(&request)
            .map_err(|e| format!("reload: {e}"))?;
        ms.push(trace.end(span) * 1e3);
        if !client.line.contains("\"reloaded\":true") {
            return Err(format!("reload refused: {}", client.line.trim_end()));
        }
    }
    drop(client);
    server.shutdown();
    Ok(stats::median(&ms))
}
