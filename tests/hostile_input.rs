//! Hostile input: a parser given arbitrary, truncated or bit-damaged
//! input returns `Ok` or its typed error — never a panic.
//!
//! One property per kind of input, one assertion each, at the default
//! case count (`PROPTEST_CASES` raises it; CI runs this file at
//! 10 000). Covered so far: `decode_checkpoint` — on bytes behind a v2
//! envelope header, which must come back stale, and on v3's sections
//! (truncation at every section boundary, bit flips inside each
//! section, garbled frame lines, duplicate, unknown, out-of-order and
//! missing sections, parts cut short of a whole word, cluster labels
//! past the cluster count) — `PHash::from_str`,
//! the serve wire protocol's `parse_request`, which runs on the thread
//! that answers the lookup, the quarantine file's `parse_jsonl`, and
//! `PipelineOutput::from_json`, which `memes serve` runs on a JSON
//! artifact. The last three each get arbitrary bytes, truncations of a
//! real encoding and nesting bombs. The JSON writer, which recurses
//! without a depth check, writes back every value parsed at
//! `RECURSION_LIMIT`. Last, a TCP client sends arbitrary
//! bytes to a live in-process server: it gets typed reply lines and a
//! close, never a hang, and the server's threads stay bounded.

use origins_of_memes::cluster::Clustering;
use origins_of_memes::core::checkpoint::{
    crc32, decode_checkpoint, encode_checkpoint, Checkpoint, CheckpointDefect, StageId, StageState,
};
use origins_of_memes::core::pipeline::{Degradation, Pipeline, PipelineConfig, PipelineOutput};
use origins_of_memes::core::quarantine::{
    encode_jsonl, parse_jsonl, QuarantineEntry, QuarantineError, QuarantineReason,
};
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::metrics::Metrics;
use origins_of_memes::phash::PHash;
use origins_of_memes::serve::protocol::{parse_request, Request};
use origins_of_memes::serve::{
    ServeError, Server, ServerConfig, Snapshot, SnapshotStore, DEFAULT_THETA,
};
use origins_of_memes::simweb::SimConfig;
use proptest::prelude::*;
use serde::Value;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The serve chaos suite's support module, for its thread count.
#[allow(dead_code)]
#[path = "../crates/serve/tests/serveload/mod.rs"]
mod serveload;

#[allow(dead_code)]
mod ckpt_v3;

/// A valid envelope around a small checkpoint: two completed stages,
/// a few post hashes and one degradation.
fn tiny_envelope() -> Vec<u8> {
    encode_checkpoint(&Checkpoint {
        dataset_fingerprint: 0x5EED,
        config: PipelineConfig::fast(),
        completed: vec![StageId::Hash, StageId::Cluster],
        state: StageState {
            post_hashes: Some(vec![PHash(0), PHash(u64::MAX), PHash(0x55352b0b8d8b5b53)]),
            fringe_posts: Some(vec![0, 2]),
            degradations: vec![Degradation::ItemsQuarantined {
                stage: StageId::Hash,
                items: 1,
            }],
            ..StageState::default()
        },
    })
}

/// Arbitrary bytes: bare, behind a v2 header whose length and CRC
/// match them (a well-formed file of a schema this build does not
/// read), or as the CRC-correct `header` section of a v3 file (so the
/// part reader sees them).
fn envelope_bytes() -> impl Strategy<Value = Vec<u8>> {
    (prop::collection::vec(any::<u8>(), 0..96), 0u8..3).prop_map(|(body, framing)| match framing {
        0 => body,
        1 => {
            let mut out = format!(
                "MEMES-CKPT v2 crc32={:08x} len={}\n",
                crc32(&body),
                body.len()
            )
            .into_bytes();
            out.extend(body);
            out
        }
        _ => ckpt_v3::file([&ckpt_v3::frame("header", &body)[..]]),
    })
}

proptest! {
    #[test]
    fn decode_checkpoint_types_every_byte_sequence(bytes in envelope_bytes()) {
        // No checkpoint fits in 96 bytes, so none of these may decode;
        // each must come back as a `CheckpointDefect`, and one behind a
        // v2 header as `Stale`.
        let v2 = bytes.starts_with(b"MEMES-CKPT v2 ");
        prop_assert!(
            match decode_checkpoint(&bytes) {
                Ok(_) => false,
                Err(CheckpointDefect::Stale { .. }) => true,
                Err(CheckpointDefect::Torn { .. }) => !v2,
            },
            "{:?}",
            String::from_utf8_lossy(&bytes)
        );
    }

    #[test]
    fn decode_checkpoint_types_truncations_and_bit_flips(
        cut in 0usize..4096,
        at in 0usize..4096,
        bit in 0u8..8,
        flip in any::<bool>(),
    ) {
        let mut bytes = tiny_envelope();
        let intact = bytes.clone();
        if flip {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        } else {
            bytes.truncate(cut % bytes.len());
        }
        // Damage either surfaces as a defect or, where it is only a
        // change of hex case in the header, decodes to the same data.
        prop_assert!(
            decode_checkpoint(&bytes).map_or(true, |c| encode_checkpoint(&c) == intact),
            "damaged envelope decoded to different data: {:?}",
            String::from_utf8_lossy(&bytes)
        );
    }
}

/// The v3 file of a small checkpoint with every stage completed and
/// every field set (cut from a real tiny run).
fn small_v3() -> &'static Vec<u8> {
    static FILE: OnceLock<Vec<u8>> = OnceLock::new();
    FILE.get_or_init(|| {
        let run = tiny_run();
        let mut site = run.site.clone();
        site.entries.truncate(3);
        let (quarantined, _) = quarantine_file();
        encode_checkpoint(&Checkpoint {
            dataset_fingerprint: 0x5EED,
            config: PipelineConfig::fast(),
            completed: StageId::ALL.to_vec(),
            state: StageState {
                post_hashes: Some(run.post_hashes[..12].to_vec()),
                fringe_posts: Some(vec![0, 2, 5, 7]),
                clustering: Some(
                    Clustering::try_new(vec![Some(0), None, Some(1), Some(0)], 2).unwrap(),
                ),
                medoid_hashes: Some(run.post_hashes[..2].to_vec()),
                medoid_posts: Some(vec![0, 5]),
                site: Some(site),
                entry_meme_ids: Some(vec![Some(1), None, Some(0)]),
                screenshot_metrics: None,
                annotations: Some(run.annotations[..2].to_vec()),
                occurrences: Some(vec![Some(0), None, Some(1), None]),
                degradations: vec![Degradation::ItemsQuarantined {
                    stage: StageId::Hash,
                    items: 2,
                }],
                quarantined,
            },
        })
    })
}

fn is_torn(bytes: &[u8]) -> bool {
    matches!(decode_checkpoint(bytes), Err(CheckpointDefect::Torn { .. }))
}

/// Damage surfaced as a defect, or (a change of hex case in a frame
/// line) the same data.
fn typed_or_same(bytes: &[u8]) -> bool {
    let file = small_v3();
    decode_checkpoint(bytes).map_or(true, |c| encode_checkpoint(&c) == *file)
}

/// Where each section of `file` starts.
fn section_starts(file: &[u8]) -> Vec<usize> {
    let mut at = ckpt_v3::MAGIC.len();
    ckpt_v3::sections(file)
        .iter()
        .map(|(_, s)| {
            let start = at;
            at += s.len();
            start
        })
        .collect()
}

proptest! {
    #[test]
    fn decode_v3_types_boundary_truncations_and_bit_flips_in_every_section(
        section in 0usize..6,
        delta in -3i64..=3,
        at in 0usize..1 << 16,
        bit in 0u8..8,
        flip in any::<bool>(),
    ) {
        let file = small_v3();
        let starts = section_starts(file);
        let sections = ckpt_v3::sections(file);
        let start = starts[section];
        if flip {
            let mut bytes = file.clone();
            bytes[start + at % sections[section].1.len()] ^= 1 << bit;
            prop_assert!(typed_or_same(&bytes), "flip in `{}`", sections[section].0);
        } else {
            let cut = (start as i64 + delta).clamp(0, file.len() as i64 - 1) as usize;
            prop_assert!(is_torn(&file[..cut]), "cut at {cut}");
        }
    }

    #[test]
    fn decode_v3_types_garbled_frame_lines(
        section in 0usize..6,
        at in 0usize..64,
        byte in any::<u8>(),
    ) {
        let file = small_v3();
        let start = section_starts(file)[section];
        let line_len = file[start..].iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut bytes = file.clone();
        bytes[start + at % line_len] = byte;
        prop_assert!(typed_or_same(&bytes));
    }

    #[test]
    fn decode_v3_types_parts_cut_short_of_a_whole_word(
        section in 0usize..6,
        part in 0usize..8,
        shave in 1usize..8,
    ) {
        // Any part, column or JSON, shortened by less than a word and
        // re-framed with a correct CRC: the length no longer matches
        // the data, so the part reader must say torn.
        let file = small_v3();
        let sections = ckpt_v3::sections(file);
        let payload = ckpt_v3::payload(sections[section].1);
        let parts = ckpt_v3::parts(payload);
        let (at, len) = parts[part % parts.len()];
        let shave = shave.min(len);
        prop_assume!(shave > 0);
        let mut forged = payload[..at].to_vec();
        forged.extend_from_slice(&((len - shave) as u64).to_le_bytes());
        forged.extend_from_slice(&payload[at + 8..at + 8 + len - shave]);
        forged.extend_from_slice(&payload[at + 8 + len..]);
        let bytes = ckpt_v3::with_section(file, section, &ckpt_v3::frame(&sections[section].0, &forged));
        prop_assert!(is_torn(&bytes), "`{}` part {part}", sections[section].0);
    }

    #[test]
    fn decode_v3_types_cluster_labels_past_the_cluster_count(
        item in 0usize..4,
        over in 0u64..1000,
        huge in any::<bool>(),
    ) {
        // The label column is the cluster count, then one label per
        // item; a label at or past the count is torn, not a clustering
        // that panics downstream.
        let file = small_v3();
        let sections = ckpt_v3::sections(file);
        let i = sections.iter().position(|(n, _)| n == "cluster").unwrap();
        let payload = ckpt_v3::payload(sections[i].1);
        let (at, _) = ckpt_v3::parts(payload)[1];
        let column = at + 8;
        let n = u64::from_le_bytes(payload[column..column + 8].try_into().unwrap());
        let mut forged = payload.to_vec();
        let label = column + 8 * (1 + item);
        // `u64::MAX` itself is a `None` entry, so the largest label is one less.
        let value = if huge { u64::MAX - 1 } else { n + over };
        forged[label..label + 8].copy_from_slice(&value.to_le_bytes());
        let bytes = ckpt_v3::with_section(file, i, &ckpt_v3::frame("cluster", &forged));
        let defect = decode_checkpoint(&bytes).expect_err("an out-of-range label must not decode");
        prop_assert!(
            matches!(&defect, CheckpointDefect::Torn { detail } if detail.contains("labeled")),
            "{defect}"
        );
    }
}

#[test]
fn decode_v3_types_duplicate_unknown_out_of_order_and_missing_sections() {
    let file = small_v3();
    let sections: Vec<&[u8]> = ckpt_v3::sections(file)
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let names: Vec<String> = ckpt_v3::sections(file)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(
        names,
        ["header", "site", "hash", "cluster", "annotate", "associate"]
    );
    let mut forged: Vec<(String, Vec<u8>)> = Vec::new();
    for i in 0..sections.len() {
        let mut dup = sections.clone();
        dup.insert(i + 1, sections[i]);
        forged.push((format!("duplicate {}", names[i]), ckpt_v3::file(dup)));

        let mut dropped = sections.clone();
        dropped.remove(i);
        forged.push((format!("missing {}", names[i]), ckpt_v3::file(dropped)));

        let unknown = ckpt_v3::frame("influence", ckpt_v3::payload(sections[i]));
        let mut renamed = sections.clone();
        renamed[i] = &unknown;
        forged.push((format!("{} renamed", names[i]), ckpt_v3::file(renamed)));

        for j in i + 1..sections.len() {
            let mut swapped = sections.clone();
            swapped.swap(i, j);
            forged.push((
                format!("{} and {} swapped", names[i], names[j]),
                ckpt_v3::file(swapped),
            ));
        }
    }
    let extra = ckpt_v3::frame("influence", b"");
    let mut appended = sections.clone();
    appended.push(&extra);
    forged.push(("unknown section appended".into(), ckpt_v3::file(appended)));
    for (case, bytes) in forged {
        assert!(
            is_torn(&bytes),
            "{case}: {:?}",
            decode_checkpoint(&bytes).err()
        );
    }
}

/// Characters a hash string is built from: every hex digit in both
/// cases, then non-hex ASCII, whitespace, a NUL and multi-byte UTF-8.
const POOL: &[char] = &[
    '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'a', 'b', 'c', 'd', 'e', 'f', 'A', 'B', 'C',
    'D', 'E', 'F', 'g', 'x', 'Z', '-', '+', ' ', '\n', '\0', 'é', '€', '😀',
];

/// Number of leading `POOL` entries that are hex digits.
const HEX: usize = 22;

/// Strings near and far from a valid hash: 16 hex digits with one
/// character replaced, inserted or deleted, or a free-length string
/// drawn from the whole pool.
fn hash_text() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(0usize..HEX, 16),
        0usize..4,
        0usize..16,
        0usize..POOL.len(),
        prop::collection::vec(0usize..POOL.len(), 0..24),
    )
        .prop_map(|(digits, edit, at, c, free)| {
            let mut s: Vec<char> = digits.iter().map(|&i| POOL[i]).collect();
            match edit {
                0 => s[at] = POOL[c],
                1 => s.insert(at, POOL[c]),
                2 => {
                    s.remove(at);
                }
                _ => s = free.iter().map(|&i| POOL[i]).collect(),
            }
            s.into_iter().collect()
        })
}

proptest! {
    #[test]
    fn phash_from_str_accepts_exactly_16_hex_digits_and_round_trips(s in hash_text()) {
        let valid = s.len() == 16 && s.chars().all(|c| c.is_ascii_hexdigit());
        let parsed = s.parse::<PHash>();
        prop_assert!(
            match parsed {
                Ok(h) => valid && h.to_string() == s.to_ascii_lowercase(),
                Err(_) => !valid,
            },
            "{s:?} parsed to {parsed:?}"
        );
    }
}

/// Whether `parse_request` kept its contract on `line`: a request, or
/// the typed protocol error (a panic fails the test by itself).
fn parses_or_types(line: &str) -> bool {
    matches!(
        parse_request(line),
        Ok(_) | Err(ServeError::Protocol { .. })
    )
}

/// The bytes a request line is made of, for the half of the byte
/// strings that should get past the JSON tokenizer's first character.
const JSON_POOL: &[u8] = b"{}[]\":,0123456789abcdef-+.eEtrunlsfhop \\\t\n\xff";

/// Arbitrary bytes, or bytes drawn from JSON's punctuation and the
/// request keys' letters.
fn request_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(any::<u8>(), 0..128),
        prop::collection::vec(0usize..JSON_POOL.len(), 0..128),
        any::<bool>(),
    )
        .prop_map(|(raw, picks, pooled)| {
            if pooled {
                picks.iter().map(|&i| JSON_POOL[i]).collect()
            } else {
                raw
            }
        })
}

/// Every valid request form, with what it parses to.
fn request_forms() -> [(&'static str, Request); 5] {
    let hash: PHash = "55352b0b8d8b5b53".parse().expect("valid hash");
    [
        ("{\"hash\": \"55352b0b8d8b5b53\"}", Request::Lookup { hash }),
        ("{\"hash\": 6139860995608894291}", Request::Lookup { hash }),
        (
            "{\"op\": \"lookup\", \"hash\": \"55352b0b8d8b5b53\"}",
            Request::Lookup { hash },
        ),
        ("{\"op\": \"stats\"}", Request::Stats),
        (
            "{\"op\": \"reload\", \"artifact\": \"run.json\"}",
            Request::Reload {
                artifact: "run.json".to_string(),
            },
        ),
    ]
}

/// A `[` or `{"a":` nesting bomb `depth` deep, closed or left open.
fn nesting_bomb(depth: usize, object: bool, closed: bool) -> String {
    let (open, close) = if object { ("{\"a\":", "}") } else { ("[", "]") };
    let mut line = open.repeat(depth);
    if closed {
        line.push('1');
        line.push_str(&close.repeat(depth));
    }
    line
}

proptest! {
    #[test]
    fn parse_request_types_every_byte_sequence(bytes in request_bytes()) {
        let line = String::from_utf8_lossy(&bytes);
        prop_assert!(parses_or_types(&line), "{line:?}");
    }

    #[test]
    fn parse_request_types_every_truncation(form in 0usize..5, cut in 0usize..64) {
        let (line, expected) = &request_forms()[form];
        let cut = cut % (line.len() + 1);
        // A JSON object needs its closing brace: every strict prefix is
        // a protocol error, and only the whole line is the request.
        let parsed = parse_request(&line[..cut]);
        prop_assert!(
            if cut == line.len() {
                matches!(&parsed, Ok(request) if request == expected)
            } else {
                matches!(parsed, Err(ServeError::Protocol { .. }))
            },
            "{:?} parsed to {parsed:?}",
            &line[..cut]
        );
    }

    #[test]
    fn parse_request_types_nesting_bombs(
        depth in 1usize..=10_000,
        object in any::<bool>(),
        closed in any::<bool>(),
    ) {
        // No bomb is a request: too deep, not an object, or an object
        // without a `hash`.
        let line = nesting_bomb(depth, object, closed);
        prop_assert!(matches!(parse_request(&line), Err(ServeError::Protocol { .. })));
    }
}

/// Three quarantine entries, one with a multi-byte detail, and their
/// JSON Lines encoding.
fn quarantine_file() -> (Vec<QuarantineEntry>, String) {
    let entry = |stage, item, detail: &str| QuarantineEntry {
        stage,
        item,
        reason: QuarantineReason::PoisonItem {
            attempts: 3,
            detail: detail.to_string(),
        },
    };
    let entries = vec![
        entry(StageId::Hash, 7, "decode failed"),
        entry(StageId::Hash, 1_024, "héllo € 😀"),
        entry(StageId::Associate, 0, ""),
    ];
    let text = encode_jsonl(&entries);
    (entries, text)
}

/// Whether `parse_jsonl` kept its contract on `text`: entries, or the
/// typed `Malformed` error.
fn jsonl_parses_or_types(text: &str) -> bool {
    matches!(
        parse_jsonl(text),
        Ok(_) | Err(QuarantineError::Malformed { .. })
    )
}

/// Cut every array in `v` to its first two elements.
fn shrink(v: &mut Value) {
    match v {
        Value::Array(items) => {
            items.truncate(2);
            items.iter_mut().for_each(shrink);
        }
        Value::Object(fields) => fields.iter_mut().for_each(|(_, x)| shrink(x)),
        _ => {}
    }
}

/// A real tiny run, shared by the artifact and server properties.
fn tiny_run() -> &'static PipelineOutput {
    static RUN: OnceLock<PipelineOutput> = OnceLock::new();
    RUN.get_or_init(|| {
        let dataset = SimConfig::tiny(5).generate();
        SupervisedRunner::new(Pipeline::new(PipelineConfig::fast()))
            .run(&dataset)
            .expect("pipeline runs")
            .expect_complete()
    })
}

/// [`tiny_run`]'s artifact with every array cut to two elements:
/// every field and nesting level of `PipelineOutput`, small enough to
/// truncate at 10 000 cut points.
fn small_artifact() -> &'static str {
    static ARTIFACT: OnceLock<String> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        let mut value: Value =
            serde_json::from_str(&tiny_run().to_json()).expect("artifact parses");
        shrink(&mut value);
        let json = serde_json::to_string(&value).expect("value serializes");
        PipelineOutput::from_json(&json).expect("the cut artifact still decodes");
        json
    })
}

proptest! {
    #[test]
    fn parse_jsonl_types_every_byte_sequence(bytes in request_bytes()) {
        let text = String::from_utf8_lossy(&bytes);
        prop_assert!(jsonl_parses_or_types(&text), "{text:?}");
    }

    #[test]
    fn parse_jsonl_types_every_truncation(cut in 0usize..4096) {
        let (entries, text) = quarantine_file();
        let cut = cut % (text.len() + 1);
        let prefix = String::from_utf8_lossy(&text.as_bytes()[..cut]);
        // A cut inside a line is malformed; a cut at a line end keeps
        // the entries before it.
        let parsed = parse_jsonl(&prefix);
        prop_assert!(
            match &parsed {
                Ok(got) => entries.starts_with(got),
                Err(e) => matches!(e, QuarantineError::Malformed { .. }),
            },
            "{prefix:?} parsed to {parsed:?}"
        );
    }

    #[test]
    fn parse_jsonl_types_nesting_bombs(
        depth in 1usize..=10_000,
        object in any::<bool>(),
        closed in any::<bool>(),
    ) {
        let text = nesting_bomb(depth, object, closed);
        prop_assert!(matches!(
            parse_jsonl(&text),
            Err(QuarantineError::Malformed { line: 1, .. })
        ));
    }

    #[test]
    fn artifact_from_json_types_every_byte_sequence(bytes in request_bytes()) {
        // Every field name of a run does not fit in 128 bytes, so none
        // of these may decode.
        let text = String::from_utf8_lossy(&bytes);
        prop_assert!(PipelineOutput::from_json(&text).is_err(), "{text:?}");
    }

    #[test]
    fn artifact_from_json_types_every_truncation(cut in 0usize..1 << 20) {
        let json = small_artifact();
        let cut = cut % (json.len() + 1);
        let parsed = PipelineOutput::from_json(&String::from_utf8_lossy(&json.as_bytes()[..cut]));
        // The artifact is one object: only the whole text decodes.
        prop_assert_eq!(parsed.is_ok(), cut == json.len(), "cut at {}", cut);
    }

    #[test]
    fn artifact_from_json_types_nesting_bombs(
        depth in 1usize..=10_000,
        object in any::<bool>(),
        closed in any::<bool>(),
    ) {
        prop_assert!(PipelineOutput::from_json(&nesting_bomb(depth, object, closed)).is_err());
    }
}

/// One scalar of each JSON kind the value model has, picked by `kind`,
/// as `to_string` writes it.
fn leaf(kind: usize, n: u64, s: &str) -> String {
    let v = match kind % 6 {
        0 => Value::Null,
        1 => Value::Bool(n.is_multiple_of(2)),
        2 => Value::U64(n),
        3 => Value::I64(-((n >> 1) as i64) - 1),
        4 => Value::F64(n as f64 / 7.0),
        _ => Value::String(s.to_string()),
    };
    serde_json::to_string(&v).expect("a scalar serializes")
}

/// JSON text nested exactly `RECURSION_LIMIT` deep: level `d` is an
/// object when `objects[d]` (the next level under a `POOL` key) and an
/// array otherwise, and holds the scalar `leaf` beside the next level
/// when `siblings[d]`.
fn nested_to_the_limit(objects: &[bool], siblings: &[bool], key: &str, leaf: &str) -> String {
    let key = serde_json::to_string(key).expect("a key serializes");
    let mut text = leaf.to_string();
    for d in (0..serde_json::RECURSION_LIMIT).rev() {
        text = match (objects[d], siblings[d]) {
            (true, true) => format!("{{\"leaf\":{leaf},{key}:{text}}}"),
            (true, false) => format!("{{{key}:{text}}}"),
            (false, true) => format!("[{text},{leaf}]"),
            (false, false) => format!("[{text}]"),
        };
    }
    text
}

proptest! {
    #[test]
    fn values_parsed_at_the_recursion_limit_round_trip_through_to_string(
        objects in prop::collection::vec(any::<bool>(), serde_json::RECURSION_LIMIT),
        siblings in prop::collection::vec(any::<bool>(), serde_json::RECURSION_LIMIT),
        key in prop::collection::vec(0usize..POOL.len(), 0..8),
        kind in 0usize..6,
        n in any::<u64>(),
    ) {
        // The writer recurses without a depth check of its own: what it
        // is given is either a `Serialize` type's value, as deep as the
        // type, or a parsed one, at most `RECURSION_LIMIT` deep. The
        // deepest parse must write back, compact and pretty, to text
        // that parses to the same value, and compact writing is a fixed
        // point.
        let key: String = key.iter().map(|&i| POOL[i]).collect();
        let text = nested_to_the_limit(&objects, &siblings, &key, &leaf(kind, n, &key));
        let parsed: Value = serde_json::from_str(&text).expect("the limit itself parses");
        let compact = serde_json::to_string(&parsed).expect("a value serializes");
        let pretty = serde_json::to_string_pretty(&parsed).expect("a value serializes");
        prop_assert_eq!(&serde_json::from_str::<Value>(&compact).expect("compact parses"), &parsed);
        prop_assert_eq!(&serde_json::from_str::<Value>(&pretty).expect("pretty parses"), &parsed);
        prop_assert_eq!(&compact, &text);
    }
}

/// The fuzzed server's line cap.
const WIRE_CAP: usize = 256;

/// What a fuzzed client sends: request-shaped bytes, or a newline-free
/// run that ends below the line cap or goes past it.
fn wire_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        request_bytes(),
        prop::collection::vec(any::<u8>(), 1..4 * WIRE_CAP),
        any::<bool>(),
    )
        .prop_map(|(request, run, raw)| {
            if raw {
                return request;
            }
            run.into_iter()
                .map(|b| if b == b'\n' { b' ' } else { b })
                .collect()
        })
}

/// Whether `line` is a reply the server may send: a JSON object whose
/// first key is `found` (lookup), `error`, `generation` (stats) or
/// `reloaded`.
fn is_typed_reply(line: &[u8]) -> bool {
    let text = std::str::from_utf8(line).unwrap_or_default();
    let Ok(Value::Object(fields)) = serde_json::from_str::<Value>(text) else {
        return false;
    };
    fields.first().is_some_and(|(key, _)| {
        ["found", "error", "generation", "reloaded"].contains(&key.as_str())
    })
}

/// Send `bytes`, half-close, and read to the end. Every reply line
/// must be typed, and the server must close (EOF or reset) within the
/// client's 2 s timeout — far past its own 200 ms read budget.
fn typed_replies_then_close(addr: std::net::SocketAddr, bytes: &[u8]) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    // A server that already hung up on an over-long line makes the
    // rest of the write fail; what it answered is still readable.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut replies = Vec::new();
    let end = stream.read_to_end(&mut replies);
    if let Err(e) = &end {
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            return Err("no close within 2 s".to_string());
        }
    }
    let mut lines: Vec<&[u8]> = replies.split(|&b| b == b'\n').collect();
    // The text after the last newline is empty, unless a reset cut a
    // reply short.
    let tail = lines.pop().unwrap_or_default();
    if !tail.is_empty() && end.is_ok() {
        return Err(format!(
            "unterminated reply {:?}",
            String::from_utf8_lossy(tail)
        ));
    }
    match lines.into_iter().find(|line| !is_typed_reply(line)) {
        Some(line) => Err(format!("untyped reply {:?}", String::from_utf8_lossy(line))),
        None => Ok(()),
    }
}

#[test]
fn serve_answers_every_byte_stream_typed_then_closes() {
    let snapshot = Snapshot::build(tiny_run(), None, DEFAULT_THETA, 0).expect("snapshot builds");
    let config = ServerConfig {
        allow_reload: false,
        max_line_bytes: WIRE_CAP,
        read_timeout_ms: 200,
        ..ServerConfig::default()
    };
    let cap = config.max_conns;
    let server = Server::start(
        Arc::new(SnapshotStore::new(snapshot)),
        config,
        Metrics::disabled(),
    )
    .expect("server starts");
    let strategy = wire_bytes();
    let test_name = concat!(
        module_path!(),
        "::serve_answers_every_byte_stream_typed_then_closes"
    );
    for case in 0..ProptestConfig::default().cases {
        let bytes = strategy.generate(&mut TestRng::for_case(test_name, u64::from(case)));
        if let Err(why) = typed_replies_then_close(server.local_addr(), &bytes) {
            panic!(
                "case {case}: {why}; sent {:?}",
                String::from_utf8_lossy(&bytes)
            );
        }
    }

    // Every reader frees its slot once its client is gone.
    let settled = Instant::now() + Duration::from_secs(2);
    while server.active_connections() != 0 && Instant::now() < settled {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        server.active_connections(),
        0,
        "readers outlived their clients"
    );
    if let Some(threads) = serveload::server_threads() {
        assert!(
            threads <= 1 + cap,
            "{threads} server threads for a cap of {cap}"
        );
    }
    server.shutdown();
}
