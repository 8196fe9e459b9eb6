//! `memes serve` / `memes lookup` follow the workspace exit-code
//! convention ([`Exit`](origins_of_memes::analysis)): `0` hit, `1`
//! miss, `2` operational (bad usage, unloadable artifact, unreachable
//! server). The serve test also pins the startup contract scripts rely
//! on: the bound address is the first stdout line, so `--addr
//! 127.0.0.1:0` (a free port) stays discoverable.

use origins_of_memes::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::simweb::SimConfig;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;

/// One tiny completed-run artifact shared by every test in this file,
/// plus the hex rendering of an annotated cluster's medoid (a
/// guaranteed hit) — built once, the pipeline run dominates the cost.
fn artifact() -> &'static (PathBuf, String) {
    static ART: OnceLock<(PathBuf, String)> = OnceLock::new();
    ART.get_or_init(|| {
        let dataset = SimConfig::tiny(17).generate();
        let output = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
            .run(&dataset)
            .unwrap()
            .expect_complete();
        let ann = output
            .annotations
            .iter()
            .find(|a| a.is_annotated())
            .expect("tiny(17) run has annotated clusters");
        let medoid = format!("{}", output.medoid_hashes[ann.cluster]);
        let path =
            std::env::temp_dir().join(format!("memes-cli-serve-{}.json", std::process::id()));
        std::fs::write(&path, output.to_json()).expect("write artifact");
        (path, medoid)
    })
}

fn memes(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_memes"))
        .args(args)
        .output()
        .expect("spawn memes")
}

/// Spawn `memes serve` with extra flags and return the child plus the
/// bound address parsed from the startup banner.
fn spawn_serve(extra: &[&str]) -> (std::process::Child, String) {
    let (path, _) = artifact();
    let mut server = Command::new(env!("CARGO_BIN_EXE_memes"))
        .args(["serve", "--artifact", path.to_str().unwrap()])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn memes serve");
    let mut line = String::new();
    BufReader::new(server.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read serve banner");
    let addr = line
        .trim()
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    (server, addr)
}

/// Read one newline-terminated response from the server.
fn read_response(stream: &std::net::TcpStream) -> String {
    let mut line = String::new();
    BufReader::new(stream.try_clone().expect("clone stream"))
        .read_line(&mut line)
        .expect("read response line");
    line.trim_end().to_string()
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("memes terminated by signal")
}

#[test]
fn local_lookup_exits_zero_on_hit_and_one_on_miss() {
    let (path, medoid) = artifact();
    let path = path.to_str().unwrap();

    let hit = memes(&["lookup", medoid, "--artifact", path]);
    assert_eq!(
        exit_code(&hit),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&hit.stderr)
    );
    let stdout = String::from_utf8_lossy(&hit.stdout);
    assert!(stdout.contains("\"found\":true"), "{stdout}");
    assert!(stdout.contains("\"distance\":0"), "{stdout}");

    // All-ones is ~32 bits from a pHash medoid — far past θ = 8.
    let miss = memes(&["lookup", "ffffffffffffffff", "--artifact", path]);
    assert_eq!(exit_code(&miss), 1);
    assert!(String::from_utf8_lossy(&miss.stdout).contains("\"found\":false"));
}

#[test]
fn serve_answers_remote_lookups_on_a_discovered_port() {
    let (path, medoid) = artifact();
    let mut server = Command::new(env!("CARGO_BIN_EXE_memes"))
        .args(["serve", "--artifact", path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn memes serve");
    // First stdout line announces the bound address (port 0 → free
    // port); that is the whole discovery protocol.
    let mut line = String::new();
    BufReader::new(server.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read serve banner");
    let addr = line
        .trim()
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();

    let hit = memes(&["lookup", medoid, "--addr", &addr]);
    let miss = memes(&["lookup", "ffffffffffffffff", "--addr", &addr]);
    server.kill().expect("kill memes serve");
    let _ = server.wait();

    assert_eq!(
        exit_code(&hit),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&hit.stderr)
    );
    assert!(String::from_utf8_lossy(&hit.stdout).contains("\"found\":true"));
    assert_eq!(exit_code(&miss), 1);
}

#[test]
fn serve_times_out_idle_clients_with_a_typed_error() {
    let (mut server, addr) = spawn_serve(&["--read-timeout-ms", "300"]);
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    // Send nothing: the per-line read budget expires and the server
    // answers with the typed timeout, then closes the connection.
    let response = read_response(&stream);
    assert_eq!(response, r#"{"error":"read timeout"}"#);
    use std::io::Read;
    let mut rest = Vec::new();
    let n = stream
        .try_clone()
        .expect("clone stream")
        .read_to_end(&mut rest)
        .unwrap_or(0);
    assert_eq!(n, 0, "connection closes after the timeout");
    server.kill().expect("kill memes serve");
    let _ = server.wait();
}

#[test]
fn serve_rejects_oversized_request_lines() {
    let (mut server, addr) = spawn_serve(&["--max-line-bytes", "4096"]);
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    use std::io::Write;
    // A newline-free blob past the cap: the server must reject it with
    // a typed error naming the limit rather than buffer indefinitely.
    let blob = vec![b'a'; 16 * 1024];
    let _ = stream.write_all(&blob);
    let _ = stream.flush();
    let response = read_response(&stream);
    assert!(
        response.contains("exceeds") && response.contains("4096"),
        "typed oversize rejection names the cap: {response}"
    );
    server.kill().expect("kill memes serve");
    let _ = server.wait();
}

#[test]
fn serve_answers_a_nesting_bomb_typed_and_keeps_the_connection() {
    // 60 000 `[` fit under the default 64 KiB line cap. An unbounded
    // recursive parser overflows the connection thread's stack, which
    // aborts the whole server (a stack overflow is not a panic); the
    // server runs as a child process here, so that shows up as a closed
    // connection rather than taking the test binary down.
    let (_, medoid) = artifact();
    let (mut server, addr) = spawn_serve(&[]);
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    use std::io::Write;
    let mut bomb = vec![b'['; 60_000];
    bomb.push(b'\n');
    stream.write_all(&bomb).expect("send nesting bomb");
    let response = read_response(&stream);
    assert!(
        response.starts_with("{\"error\"") && response.contains("recursion limit"),
        "typed rejection of the bomb: {response:?}"
    );
    stream
        .write_all(format!("{{\"hash\": \"{medoid}\"}}\n").as_bytes())
        .expect("send lookup");
    let response = read_response(&stream);
    assert!(
        response.starts_with("{\"found\":true"),
        "same connection still answers: {response:?}"
    );
    server.kill().expect("kill memes serve");
    let _ = server.wait();
}

#[test]
fn serve_sheds_connections_past_the_cap_with_a_typed_error() {
    let (_, medoid) = artifact();
    let (mut server, addr) = spawn_serve(&["--max-conns", "2"]);
    // Prove both slots are held by live, *working* connections first:
    // each holder completes a lookup and stays open.
    let holders: Vec<std::net::TcpStream> = (0..2)
        .map(|_| {
            let mut s = std::net::TcpStream::connect(&addr).expect("holder connects");
            use std::io::Write;
            s.write_all(format!("{{\"hash\": \"{medoid}\"}}\n").as_bytes())
                .expect("send lookup");
            let response = read_response(&s);
            assert!(
                response.starts_with("{\"found\""),
                "lookup answered: {response}"
            );
            s
        })
        .collect();
    // With the cap provably full, the next accept is shed typed.
    let shed = std::net::TcpStream::connect(&addr).expect("third connects");
    let response = read_response(&shed);
    assert_eq!(response, r#"{"error":"overloaded"}"#);
    drop(holders);
    server.kill().expect("kill memes serve");
    let _ = server.wait();
}

/// In-process twin of the spawned-server tests: `Server::shutdown` must
/// join the acceptor and every connection reader, with attackers still
/// parked on it. The server names its threads (`memes-accept` and one
/// `memes-conn` per connection), so they are counted
/// by name — no baseline for libtest's own threads to race against.
#[test]
fn shutdown_joins_every_reader_thread() {
    use origins_of_memes::metrics::Metrics;
    use origins_of_memes::serve::{Server, ServerConfig, Snapshot, SnapshotStore, DEFAULT_THETA};
    use std::io::Write;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn server_threads() -> Option<usize> {
        let tasks = std::fs::read_dir("/proc/self/task").ok()?;
        Some(
            tasks
                .flatten()
                .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
                .filter(|comm| comm.starts_with("memes-"))
                .count(),
        )
    }

    if server_threads().is_none() {
        return; // no procfs — nothing to assert on this platform
    }
    let dataset = SimConfig::tiny(17).generate();
    let output = SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
        .run(&dataset)
        .unwrap()
        .expect_complete();
    let snapshot = Snapshot::build(&output, None, DEFAULT_THETA, 0).expect("snapshot builds");
    let store = Arc::new(SnapshotStore::new(snapshot));

    let config = ServerConfig {
        read_timeout_ms: 5_000,
        ..ServerConfig::default()
    };
    let server = Server::start(store, config, Metrics::disabled()).expect("start server");
    let addr = server.local_addr();
    // Park attackers, then shut down underneath them: idle holders
    // (blocking reads) and a slow loris (mid-line).
    let holders: Vec<std::net::TcpStream> = (0..3)
        .map(|_| std::net::TcpStream::connect(addr).expect("holder connects"))
        .collect();
    let mut loris = std::net::TcpStream::connect(addr).expect("loris connects");
    let _ = loris.write_all(b"partial");
    while server.active_connections() < 4 {
        std::thread::yield_now();
    }
    assert!(server_threads() > Some(0), "server threads are live");

    server.shutdown();
    // `join` returns when the kernel clears the exiting thread's tid, a
    // moment before it unlinks the task from /proc (measured on this
    // host: 0.6 % of shutdowns still list the last thread, gone by the
    // next read ~60 µs later), so re-read briefly. A leaked reader
    // would sit out its 5 s read budget, 25x this allowance.
    let settled = Instant::now() + Duration::from_millis(200);
    while server_threads() != Some(0) && Instant::now() < settled {
        std::thread::yield_now();
    }
    assert_eq!(
        server_threads(),
        Some(0),
        "shutdown must join every server thread"
    );
    drop(holders);
    drop(loris);
}

#[test]
fn serve_and_lookup_bad_usage_exits_two() {
    let (path, medoid) = artifact();
    let path = path.to_str().unwrap();

    assert_eq!(exit_code(&memes(&["serve"])), 2, "serve without --artifact");
    assert_eq!(
        exit_code(&memes(&["lookup", medoid])),
        2,
        "lookup without a source"
    );
    assert_eq!(
        exit_code(&memes(&[
            "lookup",
            medoid,
            "--artifact",
            path,
            "--addr",
            "127.0.0.1:1"
        ])),
        2,
        "lookup with both sources"
    );
    assert_eq!(
        exit_code(&memes(&["lookup", "--artifact", path])),
        2,
        "lookup without HASH"
    );
    assert_eq!(
        exit_code(&memes(&["lookup", "zz", "--artifact", path])),
        2,
        "malformed hash"
    );
    assert_eq!(
        exit_code(&memes(&[
            "lookup",
            medoid,
            "--artifact",
            "/no/such/artifact.json"
        ])),
        2,
        "unloadable artifact"
    );
    assert_eq!(
        exit_code(&memes(&["lookup", medoid, "--addr", "127.0.0.1:1"])),
        2,
        "unreachable server"
    );
    assert_eq!(
        exit_code(&memes(&["serve", "--artifact", "/no/such/artifact.json"])),
        2,
        "serve with unloadable artifact"
    );
}

#[test]
fn serve_rejects_a_mangled_artifact_typed_instead_of_panicking() {
    // An artifact is outside input: one annotation naming a cluster past
    // the medoid table must be refused with the corrupt-artifact detail
    // and the operational exit code — also when --scale/--seed ask for
    // influence profiles, which read the cluster ids before the snapshot
    // build gets to validate them.
    let (path, _) = artifact();
    let mut output = PipelineOutput::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let n_medoids = output.medoid_hashes.len();
    let victim = output
        .annotations
        .iter_mut()
        .find(|a| a.is_annotated())
        .expect("tiny(17) run has annotated clusters");
    victim.cluster = n_medoids + 7;
    let bad = std::env::temp_dir().join(format!("memes-cli-serve-bad-{}.json", std::process::id()));
    std::fs::write(&bad, output.to_json()).expect("write mangled artifact");

    let out = memes(&[
        "serve",
        "--artifact",
        bad.to_str().unwrap(),
        "--scale",
        "tiny",
        "--seed",
        "17",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(exit_code(&out), 2, "stderr: {stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
    assert!(stderr.contains("corrupt"), "{stderr}");
    let _ = std::fs::remove_file(&bad);
}
