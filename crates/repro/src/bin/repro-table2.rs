//! Regenerates Table 2 (clustering statistics) and the Appendix-B
//! annotation-quality panel.
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    let runs = meme_repro::sections::community_runs(&r);
    meme_repro::sections::table2(&r, &runs);
}
