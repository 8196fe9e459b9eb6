//! Runs the §7 future-work extensions: origin inference and virality.
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::ablations::provenance(&r);
}
