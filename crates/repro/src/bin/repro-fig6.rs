//! Regenerates Fig. 6 (frog-meme phylogeny dendrogram).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::fig6(&r);
}
