//! Regenerates Table 7 (meme events per community).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::table7(&r);
}
