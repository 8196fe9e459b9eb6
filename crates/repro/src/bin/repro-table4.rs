//! Regenerates Table 4 (top meme entries by posts per community).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::table4(&r);
}
