//! Regenerates the §7 performance measurement (association throughput).
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::sections::perf(&r);
}
