//! Regenerates Fig. 8 (percentage of posts per day with memes).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::fig8(&r);
}
