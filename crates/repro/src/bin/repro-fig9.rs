//! Regenerates Fig. 9 (score distributions on Reddit and Gab).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::fig9(&r);
}
