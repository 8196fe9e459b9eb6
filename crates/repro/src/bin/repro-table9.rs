//! Regenerates Table 9 and Fig. 19 (Appendix C: screenshot classifier).
fn main() {
    let opts = meme_repro::harness::Options::from_args();
    meme_repro::sections::table9_fig19(opts.seed);
}
