//! Regenerates Table 6 (top subreddits for all/racist/political memes).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::table6(&r);
}
