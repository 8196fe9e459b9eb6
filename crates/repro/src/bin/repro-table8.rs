//! Regenerates Table 8 and Fig. 17 (Appendix A: DBSCAN distance sweep).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::table8_fig17(&r);
}
