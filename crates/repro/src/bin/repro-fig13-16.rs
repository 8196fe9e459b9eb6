//! Regenerates Figs. 13-16 (influence split by racist/political groups).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::fig13_16(&r);
}
