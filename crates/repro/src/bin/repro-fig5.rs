//! Regenerates Fig. 5 (entries-per-cluster / clusters-per-entry CDFs).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::fig5(&r);
}
