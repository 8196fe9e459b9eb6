//! Regenerates Fig. 4 (KYM dataset statistics).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::fig4(&r);
}
