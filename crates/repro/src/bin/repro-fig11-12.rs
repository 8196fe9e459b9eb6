//! Regenerates Figs. 11-12 (raw and normalized community influence).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::table7(&r);
    meme_repro::sections::fig11_12(&r);
}
