//! Layer probes: after the traced repetition, outside any timed operation,
//! time calls into each layer's public functions over the workload's own
//! corpus and output. The batch workloads probe the layers a run executes
//! ([`batch`]), the serve workloads the hops of a lookup ([`serve`]). Every
//! probe runs inside a `probe.<layer>...` span, so the trace file shows what
//! each cost.

use crate::adapter::{self, Corpus, CorpusSpec, Influence, Res, RunOutput};
use crate::options::Sizes;
use crate::serve::bring_up;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::path::Path;

/// What the batch probes work from: the workload's corpus and one completed run of it.
pub struct BatchInput<'a> {
    pub corpus_spec: &'a CorpusSpec,
    pub seed: u64,
    pub corpus: &'a Corpus,
    pub output: &'a RunOutput,
    pub json: &'a str,
    pub threads: usize,
    pub sizes: &'a Sizes,
}

/// Copy a traced run's per-layer numbers into the trace as counts and write
/// `trace-<workload>.json` into `out_dir`.
pub fn write_trace(
    mut trace: Trace,
    per_layer: &BTreeMap<String, f64>,
    out_dir: &Path,
    workload: &str,
    seed: u64,
) -> Res<()> {
    for (name, value) in per_layer {
        trace.count(name, *value);
    }
    let path = out_dir.join(format!("trace-{workload}.json"));
    trace
        .write(&path, workload, seed)
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// What one enabled write to the program's metrics registry costs. Every
/// traced run probes it: the traced repetition of every workload pays it.
fn metrics(trace: &mut Trace, calls: usize, out: &mut BTreeMap<String, f64>) {
    let ((inc_ns, span_ns), _) = trace.time("probe.metrics.writes", None, 0, || {
        adapter::probe_metrics(calls)
    });
    out.insert("metrics.inc_ns".to_string(), inc_ns);
    out.insert("metrics.span_ns".to_string(), span_ns);
}

/// The layers a run executes, simweb to core; returns per-layer metric name to value.
pub fn batch(trace: &mut Trace, input: &BatchInput) -> Res<BTreeMap<String, f64>> {
    let sizes = input.sizes;
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    metrics(trace, sizes.probe_calls, &mut out);
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };

    // simweb: generation, the render cache, and per-post rendering by kind.
    let (regenerated, secs) = trace.time("probe.simweb.generate", None, 0, || {
        adapter::generate(input.corpus_spec, input.seed)
    });
    drop(regenerated?);
    put("simweb.generate_s", secs);
    let (render, _) = trace.time("probe.simweb.render", None, 0, || {
        adapter::probe_render(input.corpus, sizes.probe_posts, sizes.probe_images)
    });
    put("simweb.cache_build_s", render.cache_build_s);
    put("simweb.render_oneoff_us", render.oneoff_us);
    put("simweb.render_variant_us", render.variant_us);
    put("simweb.render_cache_hit_ratio", render.cache_hit_ratio);

    // imaging and phash: the kernel and its two halves on those images.
    let ((resize_us, dct_us), _) = trace.time("probe.imaging.kernels", None, 0, || {
        adapter::probe_imaging(&render.images)
    });
    put("imaging.resize_us", resize_us);
    put("imaging.dct_us", dct_us);
    let ((hash_us, hashed), _) = trace.time("probe.phash.hash", None, 0, || {
        adapter::probe_phash(&render.images, 10)
    });
    put("phash.hash_us", hash_us);
    put("phash.images", hashed as f64);
    drop(render);

    // index, cluster, annotate: Steps 2-3 and 5 piece by piece.
    let (cluster, _) = trace.time("probe.index_cluster_annotate", None, 0, || {
        adapter::probe_cluster(input.output, input.threads)
    });
    let cluster = cluster?;
    put("index.group_s", cluster.group_s);
    put("index.build_s", cluster.build_s);
    put("index.neighbors_s", cluster.neighbors_s);
    put("index.collapse_ratio", cluster.collapse_ratio);
    put("index.candidates_per_query", cluster.candidates_per_query);
    put("index.verify_ratio", cluster.verify_ratio);
    put("cluster.dbscan_s", cluster.dbscan_s);
    put("cluster.medoids_s", cluster.medoids_s);
    put("cluster.clusters", cluster.clusters as f64);
    put("cluster.noise_ratio", cluster.noise_ratio);
    put("annotate.annotate_s", cluster.annotate_s);
    put("annotate.annotated_ratio", cluster.annotated_ratio);
    let (query_ns, _) = trace.time("probe.index.query", None, 0, || {
        adapter::probe_association_query(input.output, sizes.probe_queries)
    });
    put("index.query_ns", query_ns);

    // hawkes: Step 7 on its own.
    let (step7, secs) = trace.time("probe.hawkes.estimate", None, 0, || {
        adapter::fit_influence(input.corpus, input.output, input.threads)
    });
    let step7 = step7?;
    put("hawkes.estimate_s", secs);
    put("hawkes.em_iterations", step7.em_iterations as f64);
    put("hawkes.clusters_fitted", step7.fitted as f64);
    put("hawkes.clusters_skipped", step7.skipped as f64);

    // core: serialization, the checkpoint codec, hash-stage threading.
    put("core.output_bytes", input.json.len() as f64);
    let (codec, _) = trace.time("probe.core.checkpoint_codec", None, 0, || {
        adapter::probe_checkpoint_codec(input.corpus, input.output)
    });
    let (encode_s, decode_s, bytes) = codec?;
    put("core.ckpt_encode_s", encode_s);
    put("core.ckpt_decode_s", decode_s);
    put("core.ckpt_bytes", bytes as f64);
    let head = adapter::head(input.corpus, sizes.probe_hash_posts);
    let (one, t1) = trace.time("probe.core.hash_1_thread", None, 0, || {
        adapter::hash_stage(&head, 1, None)
    });
    one?;
    let (all, tn) = trace.time("probe.core.hash_nproc_threads", None, 0, || {
        adapter::hash_stage(&head, input.threads, None)
    });
    all?;
    put(
        "core.hash_parallel_efficiency",
        t1 / (input.threads as f64 * tn),
    );

    Ok(out)
}

/// The serve layer: artifact on disk to a warm server, then each hop of a
/// lookup in process; returns per-layer metric name to value.
pub fn serve(
    trace: &mut Trace,
    artifact: &Path,
    influence: &Influence,
    seed: u64,
    sizes: &Sizes,
) -> Res<BTreeMap<String, f64>> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    metrics(trace, sizes.probe_calls, &mut out);
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    let (live, _) = trace.time("probe.serve.bring_up", None, 0, || {
        bring_up(artifact, influence, seed, 1, sizes)
    });
    let live = live?;
    put("serve.load_output_ms", live.load.load_output_ms);
    put("serve.snapshot_build_ms", live.load.snapshot_build_ms);
    put("serve.ready_ms", live.ready_ms);
    let queries: Vec<_> = live.pool.iter().map(|q| q.hash).collect();
    let (hops, _) = trace.time("probe.serve.hops", None, 0, || {
        adapter::probe_hops(&live.fixture, &queries, sizes.probe_calls)
    });
    put("serve.parse_ns", hops.parse_ns);
    put("serve.lookup_hit_ns", hops.lookup_hit_ns);
    put("serve.lookup_miss_ns", hops.lookup_miss_ns);
    put("serve.render_hit_ns", hops.render_hit_ns);
    put("serve.queue_handoff_ns", hops.queue_handoff_ns);
    drop(live.clients);
    live.server.shutdown();

    Ok(out)
}
