//! Regenerates Fig. 3 (r_perceptual decay curves).
fn main() {
    meme_repro::sections::fig3();
}
