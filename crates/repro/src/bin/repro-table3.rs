//! Regenerates Table 3 (top KYM entries by clusters per fringe community).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    let runs = meme_repro::sections::community_runs(&r);
    meme_repro::sections::table3(&r, &runs);
}
