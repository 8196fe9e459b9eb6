//! Reading and writing the framing of a `MEMES-CKPT v3` file
//! (DESIGN.md §11) from the outside, for tests that take files apart or
//! forge them: the magic line, then sections framed by
//! `section <name> len=<hex> crc32=<hex>` lines.

use origins_of_memes::core::checkpoint::crc32;

/// The first line of every v3 file.
pub const MAGIC: &[u8] = b"MEMES-CKPT v3\n";

/// One section of a file: its name and its framed bytes (line and payload).
pub type Section<'a> = (String, &'a [u8]);

/// Split an intact v3 file into its sections, in file order.
pub fn sections(file: &[u8]) -> Vec<Section<'_>> {
    let mut rest = file.strip_prefix(MAGIC).expect("a v3 file");
    let mut out = Vec::new();
    while !rest.is_empty() {
        let nl = rest.iter().position(|&b| b == b'\n').expect("a frame line");
        let line = std::str::from_utf8(&rest[..nl]).expect("an ASCII frame line");
        let fields: Vec<&str> = line.split(' ').collect();
        let len = usize::from_str_radix(fields[2].strip_prefix("len=").unwrap(), 16).unwrap();
        let (section, tail) = rest.split_at(nl + 1 + len);
        out.push((fields[1].to_string(), section));
        rest = tail;
    }
    out
}

/// The payload of a framed section.
pub fn payload(section: &[u8]) -> &[u8] {
    let nl = section.iter().position(|&b| b == b'\n').unwrap();
    &section[nl + 1..]
}

/// Frame `payload` as section `name` with a correct length and CRC.
pub fn frame(name: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "section {name} len={:016x} crc32={:08x}\n",
        payload.len(),
        crc32(payload)
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out
}

/// A file of the magic line and these framed sections.
pub fn file<'a>(sections: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    for s in sections {
        out.extend_from_slice(s);
    }
    out
}

/// The present parts of a section payload, in order, as
/// `(offset of the part's length word, part length)`; absent parts
/// (length `u64::MAX`) are skipped.
pub fn parts(payload: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < payload.len() {
        let len = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        if len == u64::MAX {
            at += 8;
            continue;
        }
        out.push((at, len as usize));
        at += 8 + len as usize;
    }
    out
}

/// `file` with section `i` replaced by `section`.
pub fn with_section(file: &[u8], i: usize, section: &[u8]) -> Vec<u8> {
    let mut all: Vec<&[u8]> = sections(file).into_iter().map(|(_, s)| s).collect();
    all[i] = section;
    self::file(all)
}
