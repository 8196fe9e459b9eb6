//! Hostile input: a parser given arbitrary, truncated or bit-damaged
//! input returns `Ok` or its typed error — never a panic.
//!
//! One property per parser, one assertion each, at the default case
//! count. Covered so far: the checkpoint envelope
//! (`decode_checkpoint`: header, CRC and JSON body) and
//! `PHash::from_str`.

use origins_of_memes::core::checkpoint::{
    crc32, decode_checkpoint, encode_checkpoint, Checkpoint, StageId, StageState,
};
use origins_of_memes::core::pipeline::{Degradation, PipelineConfig};
use origins_of_memes::phash::PHash;
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
