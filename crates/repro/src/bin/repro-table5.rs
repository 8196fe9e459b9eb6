//! Regenerates Table 5 (top 'people' entries by posts per community).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::table5(&r);
}
