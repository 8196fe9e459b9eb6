//! Regenerates Table 1 (dataset overview).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::table1(&r);
}
