//! Support module of the serve chaos suite (`tests/serve_chaos.rs`):
//! the well-behaved cohort, the adversarial clients and the accept
//! flood, all over real TCP.
//!
//! The adversaries model the client behaviours a production listener
//! must survive (DESIGN.md §12 "Connection lifecycle and overload"):
//!
//! | adversary            | behaviour                                    |
//! |----------------------|----------------------------------------------|
//! | `slow-loris`         | trickles bytes, never finishes a line        |
//! | `idle-holder`        | connects, sends nothing, holds the socket    |
//! | `oversized-line`     | streams a newline-free blob past the cap     |
//! | `garbage-bytes`      | sends newline-terminated non-UTF-8 junk      |
//! | `disconnect-mid-batch` | sends a valid lookup, hangs up before the  |
//! |                      | answer                                       |
//!
//! Every adversary reports what the server did (typed rejection line,
//! whether the connection was closed), and the orchestrators assert the
//! server's contract: typed rejections, bounded threads, and the
//! well-behaved cohort answered byte-identically to an attack-free run.

use meme_phash::PHash;
use meme_stats::seeded_rng;
use rand::RngExt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The seeded per-client query schedule: each request perturbs a random
/// medoid by 0–12 bit flips, so ~2/3 land within θ = 8.
pub fn query_schedule(medoids: &[PHash], seed: u64, requests: usize) -> Vec<PHash> {
    let mut rng = seeded_rng(seed);
    (0..requests)
        .map(|_| {
            let mut bits = medoids[rng.random_range(0..medoids.len())].0;
            for _ in 0..rng.random_range(0..13usize) {
                bits ^= 1u64 << rng.random_range(0..64u32);
            }
            PHash(bits)
        })
        .collect()
}

/// One well-behaved client's transcript: every response line, in
/// request order.
#[derive(Debug, Clone)]
pub struct ClientTranscript {
    /// Response lines exactly as received (no trailing newline).
    pub responses: Vec<String>,
}

/// Run one closed-loop well-behaved client over `schedule`.
///
/// Panics on any transport error: the serving contract is that a
/// well-behaved client is never dropped or shed while the connection
/// cap and queue have room, even with attackers active.
pub fn run_client(addr: SocketAddr, schedule: &[PHash]) -> ClientTranscript {
    let stream = TcpStream::connect(addr).expect("connect to server");
    stream.set_nodelay(true).expect("disable Nagle");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut line = String::new();
    let mut out = ClientTranscript {
        responses: Vec::with_capacity(schedule.len()),
    };
    for q in schedule {
        writeln!(writer, "{{\"hash\":\"{q}\"}}").expect("send request");
        line.clear();
        reader.read_line(&mut line).expect("read response");
        assert!(
            line.starts_with("{\"found\""),
            "well-behaved client got an unexpected response: {line}"
        );
        out.responses.push(line.trim_end().to_string());
    }
    out
}

/// Run `clients` closed-loop well-behaved clients concurrently, each
/// with its own seeded schedule. Transcripts come back in client order,
/// so two runs against identically configured servers are comparable
/// transcript-for-transcript.
pub fn run_cohort(
    addr: SocketAddr,
    medoids: &[PHash],
    seed: u64,
    clients: usize,
    requests: usize,
) -> Vec<ClientTranscript> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let schedule = query_schedule(medoids, seed ^ (c as u64 + 1), requests);
                scope.spawn(move || run_client(addr, &schedule))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// An adversarial client behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adversary {
    /// Trickle bytes slowly, never completing a request line.
    SlowLoris,
    /// Connect and send nothing, holding the socket open.
    IdleHolder,
    /// Stream a newline-free blob well past `max_line_bytes`.
    OversizedLine,
    /// Send newline-terminated bytes that are not valid UTF-8.
    GarbageBytes,
    /// Send a valid lookup, then disconnect before reading the answer.
    DisconnectMidBatch,
}

impl Adversary {
    /// Every adversary, in a fixed order (stable for seeds and labels).
    pub const ALL: [Adversary; 5] = [
        Adversary::SlowLoris,
        Adversary::IdleHolder,
        Adversary::OversizedLine,
        Adversary::GarbageBytes,
        Adversary::DisconnectMidBatch,
    ];

    /// The label assertion messages use.
    pub fn label(self) -> &'static str {
        match self {
            Adversary::SlowLoris => "slow-loris",
            Adversary::IdleHolder => "idle-holder",
            Adversary::OversizedLine => "oversized-line",
            Adversary::GarbageBytes => "garbage-bytes",
            Adversary::DisconnectMidBatch => "disconnect-mid-batch",
        }
    }
}

/// What the server did to one adversarial client.
#[derive(Debug, Clone)]
pub struct AdversaryReport {
    /// Which behaviour ran.
    pub adversary: Adversary,
    /// The typed rejection line received, when the contract calls for
    /// one (`None` for `disconnect-mid-batch`, which never reads).
    pub rejection: Option<String>,
    /// Whether the server ended the connection (EOF/reset observed).
    pub closed: bool,
}

/// Read one line then expect EOF, tolerating reset errors (the server
/// has shut the socket down; a straggling write from us may have turned
/// the close into an RST). Returns `(line, closed)`.
fn read_rejection(reader: &mut BufReader<TcpStream>) -> (Option<String>, bool) {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => (None, true),
        Ok(_) => {
            let mut rest = String::new();
            let closed = matches!(reader.read_line(&mut rest), Ok(0) | Err(_));
            (Some(line.trim_end().to_string()), closed)
        }
        Err(_) => (None, true),
    }
}

/// Run one adversarial client against a live server and report what the
/// server did. `read_timeout_ms` and `max_line_bytes` must match the
/// server's configuration (they size the attack).
pub fn run_adversary(
    addr: SocketAddr,
    adversary: Adversary,
    read_timeout_ms: u64,
    max_line_bytes: usize,
) -> AdversaryReport {
    let stream = TcpStream::connect(addr).expect("adversary connects");
    let _ = stream.set_nodelay(true);
    // Never let the chaos suite itself hang: every adversary read is
    // bounded well past the server's own budget.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(read_timeout_ms * 20 + 2_000)));
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    match adversary {
        Adversary::SlowLoris => {
            // Trickle fast enough to keep resetting any naive socket
            // timeout, for ~3x the server's end-to-end line budget.
            let gap = Duration::from_millis((read_timeout_ms / 8).max(5));
            let tries = 24;
            for _ in 0..tries {
                if writer.write_all(b"x").is_err() {
                    break; // server already gave up on us
                }
                std::thread::sleep(gap);
            }
            let (rejection, closed) = read_rejection(&mut reader);
            AdversaryReport {
                adversary,
                rejection,
                closed,
            }
        }
        Adversary::IdleHolder => {
            let (rejection, closed) = read_rejection(&mut reader);
            AdversaryReport {
                adversary,
                rejection,
                closed,
            }
        }
        Adversary::OversizedLine => {
            // Stream 4x the cap without a newline; the server must
            // reject after ~max_line_bytes, so later writes may fail.
            let chunk = vec![b'a'; 1024];
            let mut sent = 0usize;
            while sent < max_line_bytes * 4 {
                if writer.write_all(&chunk).is_err() {
                    break;
                }
                sent += chunk.len();
            }
            let (rejection, closed) = read_rejection(&mut reader);
            AdversaryReport {
                adversary,
                rejection,
                closed,
            }
        }
        Adversary::GarbageBytes => {
            // Newline-terminated invalid UTF-8: a complete "line" the
            // server must reject typed while keeping the connection.
            writer
                .write_all(b"\xff\xfe\x80garbage\xf5\n")
                .expect("send garbage");
            let mut line = String::new();
            let got = reader.read_line(&mut line).unwrap_or(0);
            AdversaryReport {
                adversary,
                rejection: (got > 0).then(|| line.trim_end().to_string()),
                // Garbage lines keep the connection open; we close it.
                closed: false,
            }
        }
        Adversary::DisconnectMidBatch => {
            // A valid lookup the reader will answer into a dead socket.
            writer
                .write_all(b"{\"hash\":\"0000000000000000\"}\n")
                .expect("send request");
            // Drop both halves without reading: mid-batch disconnect.
            drop(reader);
            drop(writer);
            AdversaryReport {
                adversary,
                rejection: None,
                closed: true,
            }
        }
    }
}

/// What an accept-time flood observed.
#[derive(Debug, Clone, Default)]
pub struct FloodReport {
    /// Connections answered with the typed overload rejection.
    pub typed_sheds: usize,
    /// Connections that ended some other way (reset, refused, timeout).
    pub other: usize,
}

/// Open `n` connections beyond the server's cap and read one line from
/// each: every one should get the typed `{"error":"overloaded"}` shed.
pub fn flood_accepts(addr: SocketAddr, n: usize) -> FloodReport {
    let mut report = FloodReport::default();
    for _ in 0..n {
        let Ok(stream) = TcpStream::connect(addr) else {
            report.other += 1;
            continue;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 && line.trim_end() == meme_serve::protocol::OVERLOADED => {
                report.typed_sheds += 1;
            }
            _ => report.other += 1,
        }
    }
    report
}

/// Threads of this process the server started — the ones whose
/// `/proc/self/task/*/comm` carries the `memes-` prefix (`memes-accept`
/// and one `memes-conn` per connection). Counting by name needs no baseline,
/// so libtest's own threads coming and going cannot skew it. `None`
/// where procfs is unavailable; callers skip the bound assertion
/// rather than guessing.
pub fn server_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("memes-"))
            .count(),
    )
}

/// Peak resident-set size of this process in kilobytes, from
/// `/proc/self/status` (Linux).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
}

/// Drain one adversary wave concurrently: all five behaviours at once.
pub fn run_adversary_wave(
    addr: SocketAddr,
    read_timeout_ms: u64,
    max_line_bytes: usize,
) -> Vec<AdversaryReport> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = Adversary::ALL
            .into_iter()
            .map(|a| scope.spawn(move || run_adversary(addr, a, read_timeout_ms, max_line_bytes)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("adversary thread"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded_and_deterministic() {
        let medoids = [PHash(0xDEAD), PHash(0xBEEF)];
        assert_eq!(
            query_schedule(&medoids, 7, 32),
            query_schedule(&medoids, 7, 32)
        );
        assert_ne!(
            query_schedule(&medoids, 7, 32),
            query_schedule(&medoids, 8, 32)
        );
    }

    #[test]
    fn rss_probe_works_on_linux() {
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 0);
        }
    }
}
