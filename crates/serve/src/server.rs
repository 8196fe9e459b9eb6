//! The TCP query server.
//!
//! Dependency-free networking on `std::net`: a leader/follower pool.
//! One member at a time leads, blocked in `accept`; once it admits a
//! connection it passes leadership to a spare member (spawning one if
//! none is spare) and serves the connection itself, answering every
//! request on it: a lookup is one [`SnapshotStore::load`] (which pins
//! the generation for that reply), one [`Snapshot::lookup`] with the
//! connection's [`ServeScratch`], and a render into the connection's
//! reused `String` — no queue and no hand-off. When the peer leaves,
//! the member waits to lead again.
//!
//! The connection lifecycle is hardened against hostile traffic
//! (DESIGN.md §12 "Connection lifecycle and overload"):
//!
//! * every member after the first is a scoped thread of the first,
//!   whose scope joins them; all are named `memes-conn` (within Linux's
//!   15-byte `comm`), so a running server's threads can be counted from
//!   outside through `/proc/<pid>/task/*/comm`;
//! * accepts past `max_conns` live sockets in the [`ConnRegistry`] are
//!   shed by the leader with the typed
//!   [`OVERLOADED`](crate::protocol::OVERLOADED) response
//!   (`serve.shed`). Serving members hold a live socket each and at
//!   most one more leads, so the pool never exceeds cap + 1 threads,
//!   and lookups in flight never exceed the cap;
//! * a request line must complete within `read_timeout_ms` measured
//!   from the moment the member starts waiting for it — a socket read
//!   timeout alone only bounds the gap between bytes, which a
//!   slow-loris trickle resets forever — and may not exceed
//!   `max_line_bytes`, so per-connection memory is bounded too.
//!
//! Shutdown is cooperative and complete: [`Server::shutdown`] raises
//! the stop flag, unblocks the leader with a loopback connection and
//! joins the first member. The leader closes the pool, which wakes
//! every parked member, and shuts every live socket down, which wakes
//! every serving one; the first member's scope joins them all before it
//! returns. No thread of the server outlives `shutdown`.

use crate::artifact::load_output;
use crate::error::ServeError;
use crate::protocol::{
    parse_request, render_error, render_hit, render_line_too_long, render_miss, render_reloaded,
    render_stats, render_timeout, Request,
};
use crate::registry::ConnRegistry;
use crate::snapshot::{ServeScratch, Snapshot, DEFAULT_THETA};
use crate::store::SnapshotStore;
use meme_metrics::{Deadline, Metrics, LATENCY_BUCKETS_US};
use meme_phash::PHash;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Builder, JoinHandle, Scope};
use std::time::Duration;

/// The name of every pool member, within Linux's 15-byte `comm`; tests
/// count the server's threads by its `memes-` prefix.
const CONN_THREAD: &str = "memes-conn";

/// How a [`Server`] listens and bounds its clients.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back via
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Largest drain a [`BatchQueue`](crate::BatchQueue) probe takes.
    /// No server path reads it: readers answer their own lookups. It
    /// goes with the queue once the benchmark's `serve.queue_handoff_ns`
    /// probe stops driving `BatchQueue` directly.
    pub batch_max: usize,
    /// Whether clients may `reload` artifacts into the store.
    pub allow_reload: bool,
    /// Association threshold for snapshots built by `reload`.
    pub theta: u32,
    /// Most connections served concurrently; accepts past the cap are
    /// shed with the typed `{"error":"overloaded"}` response.
    pub max_conns: usize,
    /// Budget, in milliseconds, for one complete request line — from
    /// the reader starting to wait for it to its terminating newline.
    /// Idle holders and slow-loris trickles both exhaust it and get the
    /// typed `{"error":"read timeout"}` response before the close.
    pub read_timeout_ms: u64,
    /// Longest accepted request line; a newline-free stream is rejected
    /// (typed) and disconnected once it exceeds this, so one client can
    /// never grow a reader buffer without bound.
    pub max_line_bytes: usize,
    /// Capacity of a [`BatchQueue`](crate::BatchQueue) probe. No server
    /// path reads it, and it goes with the queue, as `batch_max` does.
    pub queue_max: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            batch_max: 32,
            allow_reload: false,
            theta: DEFAULT_THETA,
            max_conns: 64,
            read_timeout_ms: 5_000,
            max_line_bytes: 64 * 1024,
            queue_max: 1024,
        }
    }
}

/// What the first member owns and every member borrows.
struct ConnShared {
    listener: TcpListener,
    pool: Pool,
    store: Arc<SnapshotStore>,
    registry: Arc<ConnRegistry>,
    metrics: Metrics,
    queries: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    allow_reload: bool,
    theta: u32,
    max_conns: usize,
    read_timeout: Duration,
    max_line_bytes: usize,
}

/// A running query server. Dropping it shuts it down.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    store: Arc<SnapshotStore>,
    registry: Arc<ConnRegistry>,
    stop: Arc<AtomicBool>,
    queries: Arc<AtomicU64>,
    first_member: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the pool's first member, and start serving
    /// `store`'s current snapshot.
    pub fn start(
        store: Arc<SnapshotStore>,
        config: ServerConfig,
        metrics: Metrics,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| ServeError::Io {
            target: config.addr.clone(),
            detail: e.to_string(),
        })?;
        let local_addr = listener.local_addr().map_err(|e| ServeError::Io {
            target: config.addr.clone(),
            detail: e.to_string(),
        })?;
        let registry = Arc::new(ConnRegistry::new(metrics.clone()));
        let stop = Arc::new(AtomicBool::new(false));
        let queries = Arc::new(AtomicU64::new(0));
        metrics.gauge("serve.snapshot_generation", store.generation() as f64);
        metrics.gauge("serve.connections", 0.0);

        let shared = ConnShared {
            listener,
            pool: Pool::default(),
            store: Arc::clone(&store),
            registry: Arc::clone(&registry),
            metrics,
            queries: Arc::clone(&queries),
            stop: Arc::clone(&stop),
            allow_reload: config.allow_reload,
            theta: config.theta,
            max_conns: config.max_conns,
            read_timeout: Duration::from_millis(config.read_timeout_ms.max(1)),
            max_line_bytes: config.max_line_bytes.max(1),
        };
        // A failed spawn drops the closure and the listener in it, so
        // no dead socket stays bound.
        let first_member = Builder::new()
            .name(CONN_THREAD.to_string())
            .spawn(move || std::thread::scope(|scope| member(scope, &shared)))
            .map_err(|e| ServeError::Io {
                target: format!("thread {CONN_THREAD}"),
                detail: e.to_string(),
            })?;

        Ok(Server {
            local_addr,
            store,
            registry,
            stop,
            queries,
            first_member: Some(first_member),
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The snapshot store being served (for out-of-band swaps).
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// Lookup requests answered or in flight so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Connections currently live.
    pub fn active_connections(&self) -> usize {
        self.registry.active()
    }

    /// Stop accepting, then join **every** thread the server spawned —
    /// each pool member, leading, serving or parked.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        let Some(first_member) = self.first_member.take() else {
            return; // already shut down
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the leader's `accept` with a throwaway loopback
        // connection; if the listener is unreachable the pool is dead.
        let _ = TcpStream::connect(self.local_addr);
        // The first member returns once its scope has joined every
        // other. A member's panic re-raises in the first member there,
        // and the join's `Err` carries it; shutdown goes on regardless.
        let _ = first_member.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Who leads the pool. `spare` counts members that neither lead nor
/// serve: parked, or on their way back from a connection, which they
/// count themselves in before freeing its registry slot. A leader adds
/// a member only when none is spare, so members never outnumber the
/// live connections plus the leader.
#[derive(Default)]
struct Pool {
    state: Mutex<PoolState>,
    wake: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// Leadership is free: no member leads or is being spawned to lead.
    /// False at start, when the first member leads.
    vacant: bool,
    spare: usize,
    closed: bool,
}

impl Pool {
    /// The state is two flags and a count, each valid after any write,
    /// so a poisoned lock still guards a consistent state.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait, as a spare member, until leadership is free and take it.
    /// `false` once the pool is closed.
    fn take_lead(&self) -> bool {
        let state = self.lock();
        let mut state = self
            .wake
            .wait_while(state, |s| !s.vacant && !s.closed)
            .unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return false;
        }
        state.vacant = false;
        state.spare -= 1;
        true
    }

    /// Pass leadership to a spare member. `false` if none is spare: the
    /// caller still leads, and must spawn a member to lead for it.
    fn pass_lead(&self) -> bool {
        {
            let mut state = self.lock();
            if state.spare == 0 {
                return false;
            }
            state.vacant = true;
        }
        self.wake.notify_one();
        true
    }
}

/// One pool member, started as the leader: lead until a connection is
/// admitted, pass the lead on, serve that connection, then wait as a
/// spare to lead again; until the pool closes.
fn member<'scope>(scope: &'scope Scope<'scope, '_>, shared: &'scope ConnShared) {
    loop {
        let Some((stream, id)) = accept_admitted(shared) else {
            // Stop: wake every parked member to exit, and shut every
            // live socket down, so the scope's join returns at once.
            shared.pool.lock().closed = true;
            shared.pool.wake.notify_all();
            shared.registry.shutdown_all();
            return;
        };
        if !shared.pool.pass_lead() {
            let follower = Builder::new()
                .name(CONN_THREAD.to_string())
                .spawn_scoped(scope, move || member(scope, shared));
            if follower.is_err() {
                // Still the leader: answer as past the cap and go on.
                drop(shared.registry.take(id));
                shed(stream, &shared.metrics);
                continue;
            }
        }
        let guard = shared.registry.guard(id);
        connection_loop(&stream, shared);
        // Spare before the guard frees the slot: a leader that admits
        // into it finds this member and spawns none.
        shared.pool.lock().spare += 1;
        drop(guard);
        drop(stream); // closed now, not after the wait for the lead
        if !shared.pool.take_lead() {
            return;
        }
    }
}

/// Accept as the leader until a connection is admitted, shedding those
/// past the cap. `None` once the stop flag is up.
fn accept_admitted(shared: &ConnShared) -> Option<(TcpStream, u64)> {
    loop {
        let conn = shared.listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return None;
        }
        let Ok((stream, _)) = conn else {
            continue; // transient accept failure; keep serving
        };
        // One-line requests and responses are far below the MSS;
        // Nagle plus delayed ACKs would stall every round trip ~40ms.
        let _ = stream.set_nodelay(true);
        // Socket timeouts make every blocking read/write finite; the
        // per-line deadline, which a trickle cannot reset, is
        // `read_request_line`'s.
        let _ = stream.set_read_timeout(Some(shared.read_timeout));
        let _ = stream.set_write_timeout(Some(shared.read_timeout));
        match shared.registry.admit(&stream, shared.max_conns) {
            Some(id) => return Some((stream, id)),
            None => shed(stream, &shared.metrics), // at the cap
        }
    }
}

/// Turn a connection away with the typed `overloaded` line and hang
/// up. One write, so the line leaves in one segment under
/// `TCP_NODELAY`; it is bounded by the socket's write timeout.
fn shed(mut stream: TcpStream, metrics: &Metrics) {
    const OVERLOADED: &[u8] = crate::protocol::OVERLOADED.as_bytes();
    metrics.inc("serve.shed");
    let mut line = [b'\n'; OVERLOADED.len() + 1];
    line[..OVERLOADED.len()].copy_from_slice(OVERLOADED);
    let _ = stream.write_all(&line);
}

/// How one attempt to read a request line ended.
enum LineRead {
    /// A complete line is in the buffer.
    Line,
    /// The peer closed (or the socket was shut down for drain).
    Eof,
    /// The line outgrew `max_line_bytes` before its newline.
    TooLong,
    /// The read budget expired (idle holder or slow-loris trickle).
    TimedOut,
    /// The connection failed mid-read.
    ConnErr,
}

/// Read one newline-terminated request line into `raw` (cleared
/// first), enforcing the length cap and the end-to-end deadline.
fn read_request_line(
    reader: &mut BufReader<&TcpStream>,
    raw: &mut Vec<u8>,
    max_line_bytes: usize,
    budget: Duration,
) -> LineRead {
    raw.clear();
    let deadline = Deadline::within(budget);
    loop {
        let (consumed, complete) = {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return LineRead::TimedOut;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return LineRead::ConnErr,
            };
            if buf.is_empty() {
                return LineRead::Eof;
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    raw.extend_from_slice(&buf[..pos]);
                    (pos + 1, true)
                }
                None => {
                    raw.extend_from_slice(buf);
                    (buf.len(), false)
                }
            }
        };
        reader.consume(consumed);
        // The cap check sits after the copy: `raw` can overshoot by at
        // most one BufReader chunk, which keeps it O(max_line_bytes).
        if raw.len() > max_line_bytes {
            return LineRead::TooLong;
        }
        if complete {
            return LineRead::Line;
        }
        if deadline.expired() {
            return LineRead::TimedOut;
        }
    }
}

fn connection_loop(stream: &TcpStream, shared: &ConnShared) {
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut scratch = ServeScratch::new();
    let mut raw: Vec<u8> = Vec::new();
    let mut buf = String::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match read_request_line(
            &mut reader,
            &mut raw,
            shared.max_line_bytes,
            shared.read_timeout,
        ) {
            LineRead::Line => {}
            LineRead::Eof | LineRead::ConnErr => return,
            LineRead::TimedOut => {
                shared.metrics.inc("serve.timeouts");
                render_timeout(&mut buf);
                buf.push('\n');
                let _ = writer.write_all(buf.as_bytes());
                return;
            }
            LineRead::TooLong => {
                shared.metrics.inc("serve.oversized");
                render_line_too_long(&mut buf, shared.max_line_bytes);
                buf.push('\n');
                let _ = writer.write_all(buf.as_bytes());
                return;
            }
        }
        let Ok(line) = std::str::from_utf8(&raw) else {
            render_error(&mut buf, "request line is not valid UTF-8");
            buf.push('\n');
            if writer.write_all(buf.as_bytes()).is_err() || writer.flush().is_err() {
                return;
            }
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(line.trim_end()) {
            Ok(Request::Lookup { hash }) => answer_lookup(&mut buf, &mut scratch, shared, hash),
            Ok(Request::Stats) => {
                let snap = shared.store.load();
                render_stats(
                    &mut buf,
                    snap.generation(),
                    snap.len(),
                    shared.queries.load(Ordering::Relaxed),
                );
            }
            Ok(Request::Reload { artifact }) => handle_reload(&mut buf, shared, &artifact),
            Err(e) => render_error(&mut buf, &e.to_string()),
        }
        buf.push('\n');
        if writer.write_all(buf.as_bytes()).is_err() || writer.flush().is_err() {
            return;
        }
    }
}

/// Answer one lookup into `buf` on the calling reader. One store load
/// pins the generation for this reply; `scratch` and `buf` are the
/// connection's own, so once they are warm the load, lookup and render
/// allocate nothing (`tests/no_alloc.rs`).
fn answer_lookup(buf: &mut String, scratch: &mut ServeScratch, shared: &ConnShared, hash: PHash) {
    let span = shared.metrics.span("serve/query");
    shared.queries.fetch_add(1, Ordering::Relaxed);
    shared.metrics.inc("serve.queries");
    let snap = shared.store.load();
    match snap.lookup(hash, scratch) {
        Some(hit) => {
            shared.metrics.inc("serve.hits");
            render_hit(buf, hash, &hit, &snap);
        }
        None => {
            shared.metrics.inc("serve.misses");
            render_miss(buf, hash, snap.generation());
        }
    }
    let secs = span.finish();
    shared
        .metrics
        .observe("serve.latency_us", &LATENCY_BUCKETS_US, secs * 1e6);
}

/// Load `artifact`, build a snapshot at the server's θ, and swap it in.
///
/// Reloaded snapshots carry no influence profile: influence estimation
/// needs the event streams of the original dataset, which the artifact
/// does not embed. `memes serve` recomputes it at startup when the
/// dataset is available; a protocol reload trades that column for not
/// having to restart.
fn handle_reload(buf: &mut String, shared: &ConnShared, artifact: &str) {
    if !shared.allow_reload {
        render_error(buf, "reload is disabled (start the server with --reload)");
        return;
    }
    let swapped = load_output(Path::new(artifact))
        .and_then(|output| Snapshot::build(&output, None, shared.theta, 0))
        .map(|snap| shared.store.swap(snap));
    match swapped {
        Ok(snap) => {
            shared
                .metrics
                .gauge("serve.snapshot_generation", snap.generation() as f64);
            shared.metrics.inc("serve.reloads");
            render_reloaded(buf, snap.generation(), snap.len());
        }
        Err(e) => render_error(buf, &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use serde::Value;

    fn tiny_store() -> (Arc<SnapshotStore>, Vec<PHash>) {
        let output = crate::testutil::tiny_output();
        let snap = Snapshot::build(output, None, DEFAULT_THETA, 0).unwrap();
        let medoids = snap.records().iter().map(|r| r.medoid).collect();
        (Arc::new(SnapshotStore::new(snap)), medoids)
    }

    fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> Value {
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str(&line).unwrap()
    }

    fn field<'a>(doc: &'a Value, name: &str) -> &'a Value {
        doc.as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap()
    }

    #[test]
    fn serves_lookups_stats_and_errors_over_tcp() {
        let (store, medoids) = tiny_store();
        let server = Server::start(store, ServerConfig::default(), Metrics::enabled()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        // Every medoid resolves to a hit at distance 0.
        for m in &medoids {
            let doc = roundtrip(&mut stream, &mut reader, &format!("{{\"hash\":\"{m}\"}}"));
            assert_eq!(field(&doc, "found"), &Value::Bool(true), "{m}");
            assert_eq!(field(&doc, "distance"), &Value::U64(0));
        }
        // A far hash misses (tiny runs still give wide Hamming gaps).
        let far = PHash(medoids[0].0 ^ 0xFFFF_FFFF_FFFF_FFFF);
        let doc = roundtrip(&mut stream, &mut reader, &format!("{{\"hash\":\"{far}\"}}"));
        if field(&doc, "found") == &Value::Bool(true) {
            assert!(
                matches!(field(&doc, "distance"), Value::U64(d) if *d <= u64::from(DEFAULT_THETA))
            );
        }
        // Stats reflect the admitted queries; bad lines keep the
        // connection open.
        let doc = roundtrip(&mut stream, &mut reader, "{\"op\":\"stats\"}");
        assert_eq!(
            field(&doc, "queries"),
            &Value::U64(medoids.len() as u64 + 1)
        );
        let doc = roundtrip(&mut stream, &mut reader, "{\"op\":\"nope\"}");
        assert!(matches!(field(&doc, "error"), Value::String(_)));
        let doc = roundtrip(
            &mut stream,
            &mut reader,
            "{\"op\":\"reload\",\"artifact\":\"x\"}",
        );
        assert!(matches!(field(&doc, "error"), Value::String(_)));
        // The connection still works after every error.
        let m = medoids[0];
        let doc = roundtrip(&mut stream, &mut reader, &format!("{{\"hash\":\"{m}\"}}"));
        assert_eq!(field(&doc, "found"), &Value::Bool(true));

        drop(stream);
        drop(reader);
        server.shutdown();
    }

    #[test]
    fn reload_swaps_generation_without_dropping_connections() {
        let (store, medoids) = tiny_store();
        let dir = std::env::temp_dir().join(format!("meme-serve-reload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("run.json");
        std::fs::write(&artifact, crate::testutil::tiny_output().to_json()).unwrap();

        let config = ServerConfig {
            allow_reload: true,
            ..ServerConfig::default()
        };
        let server = Server::start(store, config, Metrics::disabled()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        let m = medoids[0];
        let before = roundtrip(&mut stream, &mut reader, &format!("{{\"hash\":\"{m}\"}}"));
        assert_eq!(field(&before, "generation"), &Value::U64(1));
        let req = format!(
            "{{\"op\":\"reload\",\"artifact\":\"{}\"}}",
            artifact.display()
        );
        let doc = roundtrip(&mut stream, &mut reader, &req);
        assert_eq!(field(&doc, "reloaded"), &Value::Bool(true));
        assert_eq!(field(&doc, "generation"), &Value::U64(2));
        // The same connection keeps answering, now from generation 2.
        let after = roundtrip(&mut stream, &mut reader, &format!("{{\"hash\":\"{m}\"}}"));
        assert_eq!(field(&after, "found"), &Value::Bool(true));
        assert_eq!(field(&after, "generation"), &Value::U64(2));

        drop(stream);
        drop(reader);
        server.shutdown();
    }

    #[test]
    fn idle_connection_gets_typed_timeout_then_close() {
        let (store, _) = tiny_store();
        let config = ServerConfig {
            read_timeout_ms: 150,
            ..ServerConfig::default()
        };
        let server = Server::start(store, config, Metrics::enabled()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        // Send nothing: the typed timeout arrives, then EOF.
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), crate::protocol::READ_TIMEOUT);
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");
        server.shutdown();
    }

    #[test]
    fn slow_loris_cannot_outlive_the_line_deadline() {
        let (store, _) = tiny_store();
        let config = ServerConfig {
            read_timeout_ms: 200,
            ..ServerConfig::default()
        };
        let server = Server::start(store, config, Metrics::enabled()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // Trickle bytes faster than any socket timeout, never a newline:
        // only the end-to-end deadline can catch this.
        let trickler = std::thread::spawn(move || {
            for _ in 0..40 {
                if stream.write_all(b"x").is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), crate::protocol::READ_TIMEOUT);
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");
        trickler.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn oversized_line_is_rejected_typed_with_bounded_buffering() {
        let (store, _) = tiny_store();
        let config = ServerConfig {
            max_line_bytes: 512,
            ..ServerConfig::default()
        };
        let server = Server::start(store, config, Metrics::enabled()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // 4 KiB without a newline: rejected long before it all buffers.
        let blob = vec![b'a'; 4096];
        let _ = stream.write_all(&blob);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("512 bytes"), "{line}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");
        server.shutdown();
    }

    #[test]
    fn connection_cap_sheds_typed_and_keeps_admitted_traffic_working() {
        let (store, medoids) = tiny_store();
        let config = ServerConfig {
            max_conns: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(store, config, Metrics::enabled()).unwrap();
        let mut admitted = TcpStream::connect(server.local_addr()).unwrap();
        let mut admitted_reader = BufReader::new(admitted.try_clone().unwrap());
        // Prove the first connection is registered before the second
        // arrives by completing a round trip on it.
        let m = medoids[0];
        let doc = roundtrip(
            &mut admitted,
            &mut admitted_reader,
            &format!("{{\"hash\":\"{m}\"}}"),
        );
        assert_eq!(field(&doc, "found"), &Value::Bool(true));
        assert_eq!(server.active_connections(), 1);

        let shed = TcpStream::connect(server.local_addr()).unwrap();
        let mut shed_reader = BufReader::new(shed);
        let mut line = String::new();
        shed_reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), crate::protocol::OVERLOADED);
        line.clear();
        assert_eq!(shed_reader.read_line(&mut line).unwrap(), 0);

        // The admitted connection never noticed.
        let doc = roundtrip(
            &mut admitted,
            &mut admitted_reader,
            &format!("{{\"hash\":\"{m}\"}}"),
        );
        assert_eq!(field(&doc, "found"), &Value::Bool(true));

        // The leader kept accepting after the shed: once the admitted
        // client leaves, the freed slot admits and answers a new one.
        drop(admitted);
        drop(admitted_reader);
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        while server.active_connections() != 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.active_connections(), 0, "slot freed");
        let mut next = TcpStream::connect(server.local_addr()).unwrap();
        let mut next_reader = BufReader::new(next.try_clone().unwrap());
        let doc = roundtrip(
            &mut next,
            &mut next_reader,
            &format!("{{\"hash\":\"{m}\"}}"),
        );
        assert_eq!(field(&doc, "found"), &Value::Bool(true));
        server.shutdown();
    }

    #[test]
    fn connections_gauge_returns_to_zero_when_clients_leave() {
        let (store, medoids) = tiny_store();
        let metrics = Metrics::enabled();
        let server = Server::start(store, ServerConfig::default(), metrics.clone()).unwrap();
        let gauge = || metrics.registry().unwrap().snapshot().gauges["serve.connections"];
        let lookup = format!("{{\"hash\":\"{}\"}}", medoids[0]);
        let clients: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut stream = TcpStream::connect(server.local_addr()).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                // An answer proves the connection was admitted.
                roundtrip(&mut stream, &mut reader, &lookup);
                stream
            })
            .collect();
        assert_eq!(gauge(), 2.0);

        drop(clients);
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        while gauge() != 0.0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            gauge(),
            0.0,
            "serve.connections still counts departed clients"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_readers_even_with_connections_parked() {
        let (store, medoids) = tiny_store();
        let server = Server::start(store, ServerConfig::default(), Metrics::enabled()).unwrap();
        // Three connections: one mid-conversation, two idle holders.
        let mut active = TcpStream::connect(server.local_addr()).unwrap();
        let mut active_reader = BufReader::new(active.try_clone().unwrap());
        let idle_a = TcpStream::connect(server.local_addr()).unwrap();
        let idle_b = TcpStream::connect(server.local_addr()).unwrap();
        let m = medoids[0];
        let doc = roundtrip(
            &mut active,
            &mut active_reader,
            &format!("{{\"hash\":\"{m}\"}}"),
        );
        assert_eq!(field(&doc, "found"), &Value::Bool(true));
        assert!(server.active_connections() >= 1);

        // shutdown() must return promptly (drain shuts the sockets; no
        // reader waits out its timeout) with every thread joined.
        server.shutdown();
        drop(idle_a);
        drop(idle_b);
    }
}
