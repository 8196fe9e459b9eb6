//! Regenerates Fig. 10 (Hawkes mechanics illustration).
fn main() {
    let opts = meme_repro::harness::Options::from_args();
    meme_repro::sections::fig10(opts.seed);
}
