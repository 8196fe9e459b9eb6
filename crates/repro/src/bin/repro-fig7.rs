//! Regenerates Fig. 7 (cluster graph at kappa = 0.45, with DOT/JSON export).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::fig7(&r);
}
