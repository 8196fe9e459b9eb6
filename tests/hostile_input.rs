//! Hostile input: a parser given arbitrary, truncated or bit-damaged
//! input returns `Ok` or its typed error — never a panic.
//!
//! One property per kind of input, one assertion each, at the default
//! case count (`PROPTEST_CASES` raises it; CI runs this file at
//! 10 000). Covered so far: the checkpoint envelope
//! (`decode_checkpoint`: header, CRC and JSON body), `PHash::from_str`,
//! and the serve wire protocol's `parse_request` (arbitrary bytes,
//! truncated requests and nesting bombs), which runs on the thread that
//! answers the lookup.

use origins_of_memes::core::checkpoint::{
    crc32, decode_checkpoint, encode_checkpoint, Checkpoint, StageId, StageState,
};
use origins_of_memes::core::pipeline::{Degradation, PipelineConfig};
use origins_of_memes::phash::PHash;
use origins_of_memes::serve::protocol::{parse_request, Request};
use origins_of_memes::serve::ServeError;
use proptest::prelude::*;

/// A valid envelope around a small checkpoint: two completed stages,
/// a few post hashes and one degradation.
fn tiny_envelope() -> (Checkpoint, Vec<u8>) {
    let ckpt = Checkpoint {
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
    };
    let bytes = encode_checkpoint(&ckpt);
    (ckpt, bytes)
}

/// Arbitrary bytes, half the time behind a header whose length and CRC
/// match them, so the JSON body parser sees them too.
fn envelope_bytes() -> impl Strategy<Value = Vec<u8>> {
    (prop::collection::vec(any::<u8>(), 0..96), any::<bool>()).prop_map(|(body, framed)| {
        if !framed {
            return body;
        }
        let mut out = format!(
            "MEMES-CKPT v2 crc32={:08x} len={}\n",
            crc32(&body),
            body.len()
        )
        .into_bytes();
        out.extend(body);
        out
    })
}

proptest! {
    #[test]
    fn decode_checkpoint_types_every_byte_sequence(bytes in envelope_bytes()) {
        // No checkpoint's JSON fits in 96 bytes, so none of these may
        // decode; each must come back as a `CheckpointDefect`.
        prop_assert!(decode_checkpoint(&bytes).is_err());
    }

    #[test]
    fn decode_checkpoint_types_truncations_and_bit_flips(
        cut in 0usize..4096,
        at in 0usize..4096,
        bit in 0u8..8,
        flip in any::<bool>(),
    ) {
        let (ckpt, mut bytes) = tiny_envelope();
        if flip {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        } else {
            bytes.truncate(cut % bytes.len());
        }
        // Damage either surfaces as a defect or, where it is only a
        // change of hex case in the header, decodes to the same data.
        prop_assert!(
            decode_checkpoint(&bytes).map_or(true, |c| c.to_json() == ckpt.to_json()),
            "damaged envelope decoded to different data: {:?}",
            String::from_utf8_lossy(&bytes)
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
