//! Runs the design-choice ablations: hashing algorithm, custom-metric
//! weights, DBSCAN minPts.
fn main() {
    let r = meme_repro::harness::Repro::from_args();
    meme_repro::ablations::ablation_hashers(&r);
    meme_repro::ablations::ablation_metric_weights(&r);
    meme_repro::ablations::ablation_min_pts(&r);
    meme_repro::ablations::ablation_beta(&r);
}
