//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in order —
//! dependency-free and scriptable with `nc`. Requests:
//!
//! ```text
//! {"hash": "55352b0b8d8b5b53"}                  → lookup (shorthand)
//! {"op": "lookup", "hash": "55352b0b8d8b5b53"}  → lookup
//! {"op": "stats"}                               → server statistics
//! {"op": "reload", "artifact": "run.json"}      → hot-swap (when enabled)
//! ```
//!
//! The hash may also be a raw integer (`{"hash": 6139362340362762115}`).
//! Responses are single-line JSON objects; lookups carry `found`,
//! `cluster`, `distance`, the representative entry (`meme`, `entry`,
//! `category`), the per-cluster `influence` matrix when the snapshot
//! has one, and the snapshot `generation` that answered. Malformed
//! lines get `{"error": …}` and the connection stays open — one bad
//! request must not sink a pipelined batch.
//!
//! Responses are rendered into a caller-owned `String`, so each
//! connection reader reuses one buffer for every reply it writes.

use crate::error::ServeError;
use crate::snapshot::{LookupHit, Snapshot};
use meme_phash::PHash;
use serde::Value;
use std::fmt::Write as _;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Match one hash against the annotated medoids.
    Lookup {
        /// The query hash.
        hash: PHash,
    },
    /// Report generation / meme count / query count.
    Stats,
    /// Load a new artifact and swap it in.
    Reload {
        /// Path to the artifact file, resolved server-side.
        artifact: String,
    },
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let doc: Value = serde_json::from_str(line).map_err(|e| ServeError::Protocol {
        detail: format!("not a JSON object: {e}"),
    })?;
    let obj = doc.as_object().ok_or_else(|| ServeError::Protocol {
        detail: "request is not a JSON object".to_string(),
    })?;
    let field = |name: &str| obj.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let op = match field("op") {
        Some(v) => v.as_str().ok_or_else(|| ServeError::Protocol {
            detail: "`op` is not a string".to_string(),
        })?,
        None => "lookup",
    };
    match op {
        "lookup" => {
            let hash = field("hash").ok_or_else(|| ServeError::Protocol {
                detail: "lookup needs a `hash`".to_string(),
            })?;
            let hash = parse_hash(hash)?;
            Ok(Request::Lookup { hash })
        }
        "stats" => Ok(Request::Stats),
        "reload" => {
            let artifact =
                field("artifact")
                    .and_then(Value::as_str)
                    .ok_or_else(|| ServeError::Protocol {
                        detail: "reload needs a string `artifact` path".to_string(),
                    })?;
            Ok(Request::Reload {
                artifact: artifact.to_string(),
            })
        }
        other => Err(ServeError::Protocol {
            detail: format!("unknown op `{other}`"),
        }),
    }
}

/// A hash is either 16 hex digits (the paper's rendering) or a raw
/// non-negative integer.
fn parse_hash(v: &Value) -> Result<PHash, ServeError> {
    match v {
        Value::String(s) => s.parse().map_err(|e| ServeError::Protocol {
            detail: format!("bad hash {s:?}: {e}"),
        }),
        Value::U64(bits) => Ok(PHash(*bits)),
        _ => Err(ServeError::Protocol {
            detail: "`hash` must be a hex string or non-negative integer".to_string(),
        }),
    }
}

/// Append a minimally escaped JSON string literal (KYM names are plain
/// text, but the protocol must never emit an unparseable line).
fn push_json_str(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Render a hit response into `buf` (cleared first).
pub fn render_hit(buf: &mut String, query: PHash, hit: &LookupHit, snapshot: &Snapshot) {
    buf.clear();
    let _ = write!(
        buf,
        "{{\"found\":true,\"hash\":\"{query}\",\"cluster\":{},\"distance\":{},\"entry\":{},",
        hit.cluster, hit.distance, hit.entry_id
    );
    let (name, category) = match snapshot.record(hit.slot) {
        Some(r) => (r.name.as_str(), r.category),
        None => ("", ""),
    };
    buf.push_str("\"meme\":");
    push_json_str(buf, name);
    buf.push_str(",\"category\":");
    push_json_str(buf, category);
    if let Some(m) = snapshot.influence_row(hit.slot) {
        buf.push_str(",\"influence\":[");
        for src in 0..m.k() {
            if src > 0 {
                buf.push(',');
            }
            buf.push('[');
            for dst in 0..m.k() {
                if dst > 0 {
                    buf.push(',');
                }
                let _ = write!(buf, "{}", m.count(src, dst));
            }
            buf.push(']');
        }
        buf.push(']');
    }
    let _ = write!(buf, ",\"generation\":{}}}", snapshot.generation());
}

/// Render a miss response into `buf` (cleared first).
pub fn render_miss(buf: &mut String, query: PHash, generation: u64) {
    buf.clear();
    let _ = write!(
        buf,
        "{{\"found\":false,\"hash\":\"{query}\",\"generation\":{generation}}}"
    );
}

/// Render a stats response into `buf` (cleared first).
pub fn render_stats(buf: &mut String, generation: u64, memes: usize, queries: u64) {
    buf.clear();
    let _ = write!(
        buf,
        "{{\"generation\":{generation},\"memes\":{memes},\"queries\":{queries}}}"
    );
}

/// Render a reload acknowledgement into `buf` (cleared first).
pub fn render_reloaded(buf: &mut String, generation: u64, memes: usize) {
    buf.clear();
    let _ = write!(
        buf,
        "{{\"reloaded\":true,\"generation\":{generation},\"memes\":{memes}}}"
    );
}

/// Render an error response into `buf` (cleared first).
pub fn render_error(buf: &mut String, detail: &str) {
    buf.clear();
    buf.push_str("{\"error\":");
    push_json_str(buf, detail);
    buf.push('}');
}

/// The load-shedding rejection, byte-for-byte: sent at accept time when
/// the connection cap is reached (or no pool member can be spawned to
/// lead in the accepting one's place), just before the close. Clients
/// key on the exact string.
pub const OVERLOADED: &str = "{\"error\":\"overloaded\"}";

/// The idle/slow-read rejection, byte-for-byte: sent when a connection
/// produces no complete request line within its read budget (an idle
/// holder or a slow-loris trickle), after which the connection closes.
pub const READ_TIMEOUT: &str = "{\"error\":\"read timeout\"}";

/// Render the typed read-timeout response into `buf` (cleared first).
pub fn render_timeout(buf: &mut String) {
    buf.clear();
    buf.push_str(READ_TIMEOUT);
}

/// Render the typed oversized-line rejection into `buf` (cleared
/// first): the request line exceeded `max_line_bytes` before a newline
/// arrived, and the connection closes without ever buffering the rest.
pub fn render_line_too_long(buf: &mut String, max_line_bytes: usize) {
    buf.clear();
    let _ = write!(
        buf,
        "{{\"error\":\"request line exceeds {max_line_bytes} bytes\"}}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_request_forms() {
        assert_eq!(
            parse_request("{\"hash\": \"55352b0b8d8b5b53\"}").unwrap(),
            Request::Lookup {
                hash: "55352b0b8d8b5b53".parse().unwrap()
            }
        );
        assert_eq!(
            parse_request("{\"op\": \"lookup\", \"hash\": 7}").unwrap(),
            Request::Lookup { hash: PHash(7) }
        );
        assert_eq!(
            parse_request("{\"op\": \"stats\"}").unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request("{\"op\": \"reload\", \"artifact\": \"run.json\"}").unwrap(),
            Request::Reload {
                artifact: "run.json".to_string()
            }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            "[1]",
            "{}",
            "{\"hash\": \"zz\"}",
            "{\"hash\": -3}",
            "{\"op\": \"evict\"}",
            "{\"op\": \"reload\"}",
            "{\"op\": 9}",
        ] {
            assert!(
                matches!(parse_request(bad), Err(ServeError::Protocol { .. })),
                "{bad} should be a protocol error"
            );
        }
    }

    #[test]
    fn responses_are_valid_json_lines() {
        let mut buf = String::new();
        render_miss(&mut buf, PHash(3), 4);
        assert!(serde_json::from_str::<Value>(&buf).is_ok(), "{buf}");
        assert!(buf.contains("\"found\":false"));
        render_stats(&mut buf, 1, 2, 3);
        assert!(serde_json::from_str::<Value>(&buf).is_ok(), "{buf}");
        render_reloaded(&mut buf, 2, 9);
        assert!(serde_json::from_str::<Value>(&buf).is_ok(), "{buf}");
        render_error(&mut buf, "bad \"quoted\" thing\n");
        assert!(serde_json::from_str::<Value>(&buf).is_ok(), "{buf}");
    }

    #[test]
    fn lifecycle_rejections_are_valid_json_and_stable() {
        assert!(serde_json::from_str::<Value>(OVERLOADED).is_ok());
        let mut buf = String::new();
        render_timeout(&mut buf);
        assert_eq!(buf, READ_TIMEOUT);
        assert!(serde_json::from_str::<Value>(&buf).is_ok(), "{buf}");
        render_line_too_long(&mut buf, 4096);
        assert!(buf.contains("4096 bytes"), "{buf}");
        assert!(serde_json::from_str::<Value>(&buf).is_ok(), "{buf}");
    }
}
