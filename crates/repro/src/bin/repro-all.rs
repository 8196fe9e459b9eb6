//! Runs every experiment in sequence over one shared pipeline run —
//! the full evaluation of the paper in a single binary.
fn main() {
    let opts = meme_repro::harness::Options::from_args();
    meme_repro::sections::fig3();
    let r = meme_repro::harness::Repro::build(opts);
    meme_repro::sections::table1(&r);
    let runs = meme_repro::sections::community_runs(&r);
    meme_repro::sections::table2(&r, &runs);
    meme_repro::sections::table3(&r, &runs);
    meme_repro::sections::table4(&r);
    meme_repro::sections::table5(&r);
    meme_repro::sections::table6(&r);
    meme_repro::sections::fig4(&r);
    meme_repro::sections::fig5(&r);
    meme_repro::sections::fig6(&r);
    meme_repro::sections::fig7(&r);
    meme_repro::sections::fig8(&r);
    meme_repro::sections::fig9(&r);
    meme_repro::sections::fig10(r.opts.seed);
    meme_repro::sections::table7(&r);
    meme_repro::sections::fig11_12(&r);
    meme_repro::sections::fig13_16(&r);
    meme_repro::sections::table8_fig17(&r);
    meme_repro::sections::table9_fig19(r.opts.seed);
    meme_repro::sections::perf(&r);
    meme_repro::ablations::ablation_hashers(&r);
    meme_repro::ablations::ablation_metric_weights(&r);
    meme_repro::ablations::ablation_min_pts(&r);
    meme_repro::ablations::ablation_beta(&r);
    meme_repro::ablations::provenance(&r);
}
