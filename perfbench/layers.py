"""Per-layer metrics of a traced run, and the end-to-end metric each should move.

Every metric is computed from the spans the probes in ``tracing`` record.
``*_s`` is total seconds inside the span (children included), ``*_ms`` is
milliseconds per call or per unit of work, ``*.self_s`` is a layer's time
minus its child spans.  A layer the workload never calls reads 0: on
first-stage-20k the reranker metrics are 0, which is the prediction for any
reranker change there.

The serve_* figures the map names are the recorded serving figures of
serve-20k, whose gated ``run_s`` is the summed latency of its queries, so a
metric that moves serve_p50_ms moves that ``run_s`` too.

Stage spans come from the pipeline's ``_stage`` context manager.  A stage's
time excludes stages nested in it (gen-train runs the train-split
retrieval), so the stage times plus ``pipeline.self_s`` add up to the traced
``pipeline.run_s``.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import END, KEY, NAME, PARENT, PHASE, START, UNITS

STAGES = ("load-data", "index", "train-de", "tune-lambda", "retrieve",
          "gen-train", "train-reranker", "rerank", "evaluate", "manifest")
LAYERS = ("bm25", "dense", "hybrid", "results", "reranker", "corpus",
          "evaluation", "npzio")

# name -> (unit, the end-to-end metric it should move, on which workload)
PER_LAYER = {
    "bm25.index_s": ("s", "setup_s on serve-20k; ~2% of run_s on first-stage-20k"),
    "bm25.scores_ms": ("ms", "run_s on first-stage-20k (tune-lambda scores every "
                             "train query); serve_p50_ms"),
    "bm25.scores_calls": ("count", "same as bm25.scores_ms"),
    "dense.train_s": ("s", "setup_s on serve-20k; ~1% of run_s"),
    "dense.encode_corpus_s": ("s", "run_s"),
    "dense.encode_corpus_calls": ("count", "run_s"),
    "dense.encode_corpus_per_encoder": ("ratio", "run_s: calls per distinct encoder; "
                                                 "2 per run today, 1 is enough"),
    "dense.retrieve_ms": ("ms", "run_s on first-stage-20k; no effect on serve-20k"),
    "dense.retrieve_calls": ("count", "run_s"),
    "hybrid.tune_lambda_s": ("s", "run_s on first-stage-20k (~2/3 of it); setup_s on "
                                  "serve-20k; ~3% of pipeline-2k"),
    "hybrid.retrieve_ms": ("ms", "serve_p50_ms and serve_p99_ms (most of a "
                                 "first-stage query)"),
    "hybrid.retrieve_calls": ("count", "serve_qps"),
    "hybrid.lambda": ("weight", "mrr10_hybrid"),
    "hybrid.lambda_on_grid_edge": ("flag", "mrr10_hybrid: 1 when the tuned weight "
                                           "is the grid minimum or maximum"),
    "results.top_k_ms": ("ms", "run_s on first-stage-20k (tune-lambda calls it 15x "
                               "per train query); serve_p50_ms"),
    "results.top_k_calls": ("count", "same as results.top_k_ms"),
    "reranker.build_lists_s": ("s", "run_s on pipeline-2k (<1%)"),
    "reranker.train_s": ("s", "run_s on pipeline-2k (most of it); setup_s on "
                              "serve-20k; none on first-stage-20k"),
    "reranker.step_ms": ("ms", "same as reranker.train_s"),
    "reranker.rerank_ms": ("ms", "serve_p50_ms (per reranked query); <1% of "
                                 "pipeline-2k run_s"),
    "reranker.rerank_queries": ("count", "serve_qps"),
    "corpus.tokenize_calls": ("count", "serve_p50_ms; run_s"),
    "corpus.tokenize_s": ("s", "serve_p50_ms; run_s"),
    "corpus.tokenize_per_served_query": ("count", "serve_p50_ms: rerank re-tokenizes "
                                                  "its passages on every call"),
    "evaluation.metric_s": ("s", "run_s"),
    "evaluation.write_run_s": ("s", "run_s (~1% on pipeline-2k)"),
    "npzio.savez_s": ("s", "run_s"),
    "npzio.savez_calls": ("count", "run_s"),
    "pipeline.run_s": ("s", "run_s, traced"),
    "pipeline.self_s": ("s", "run_s: run_experiment minus its stages (orchestration, "
                             "JSON)"),
    **{f"stage.{s}_s": ("s", "run_s") for s in STAGES},
    **{f"{layer}.self_s": ("s", "run_s and serve latency: time in the layer's own "
                                "code, children excluded") for layer in LAYERS},
    "serve.query_ms": ("ms", "serve_p50_ms, traced mean per served query"),
    "serve.queries": ("count", "serve_qps: served queries in the traced run"),
    "trace.untraced_s": ("s", "reference for the tracing overhead"),
    "trace.traced_s": ("s", "the same work traced"),
    "trace.overhead_s": ("s", "traced minus untraced"),
    "trace.overhead_pct": ("%", "overhead as a share of the untraced time"),
    "trace.spans": ("count", "spans recorded"),
    "trace.absent_probes": ("count", "probe targets not found in the program"),
}

# span name -> the metrics that need it; a metric whose span's probe is absent
# is left out of the result and named as absent instead
NEEDS = {
    "bm25.index": ("bm25.index_s",),
    "bm25.scores": ("bm25.scores_ms", "bm25.scores_calls"),
    "dense.train": ("dense.train_s",),
    "dense.encode_corpus": ("dense.encode_corpus_s", "dense.encode_corpus_calls",
                            "dense.encode_corpus_per_encoder"),
    "dense.retrieve": ("dense.retrieve_ms", "dense.retrieve_calls"),
    "hybrid.tune_lambda": ("hybrid.tune_lambda_s",),
    "hybrid.retrieve": ("hybrid.retrieve_ms", "hybrid.retrieve_calls"),
    "results.top_k": ("results.top_k_ms", "results.top_k_calls"),
    "reranker.build_lists": ("reranker.build_lists_s",),
    "reranker.train": ("reranker.train_s", "reranker.step_ms"),
    "reranker.rerank": ("reranker.rerank_ms", "reranker.rerank_queries"),
    "corpus.tokenize": ("corpus.tokenize_calls", "corpus.tokenize_s",
                        "corpus.tokenize_per_served_query"),
    "evaluation.metric": ("evaluation.metric_s",),
    "evaluation.write_run": ("evaluation.write_run_s",),
    "npzio.savez": ("npzio.savez_s", "npzio.savez_calls"),
    "pipeline.run": ("pipeline.run_s", "pipeline.self_s"),
    "stage": tuple(f"stage.{s}_s" for s in STAGES) + ("pipeline.self_s",),
}


def _per_call_ms(total: float, n: float) -> float:
    return 1e3 * total / n if n else 0.0


def layer_metrics(spans: list[list], extra: dict[str, float],
                  absent: list[str]) -> tuple[dict[str, float], list[str]]:
    """(metric -> value, names of metrics left out because a probe is absent).

    ``extra`` supplies the values spans cannot: hybrid.lambda, the grid-edge
    flag and the trace.* overhead figures.
    """
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    stage_child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child_time[p] += dur[i]
            if s[NAME].startswith("stage."):
                stage_child_time[p] += dur[i]

    total = defaultdict(float)
    calls = defaultdict(int)
    units = defaultdict(float)
    keys = defaultdict(set)
    layer_self = defaultdict(float)
    stage_time = defaultdict(float)
    for i, s in enumerate(spans):
        name = s[NAME]
        total[name] += dur[i]
        calls[name] += 1
        units[name] += s[UNITS]
        if s[KEY] is not None:
            keys[name].add(s[KEY])
        if name.startswith("stage."):
            stage_time[name[len("stage."):]] += dur[i] - stage_child_time[i]
        else:
            layer_self[name.split(".", 1)[0]] += dur[i] - child_time[i]

    served = sum(1 for s in spans if s[NAME] == "serve.query")
    served_tokenize = sum(1 for s in spans
                          if s[NAME] == "corpus.tokenize" and s[PHASE] == "serve")
    run_ids = [i for i, s in enumerate(spans) if s[NAME] == "pipeline.run"]
    pipeline_self = sum(dur[i] - stage_child_time[i] for i in run_ids)

    m = {
        "bm25.index_s": total["bm25.index"],
        "bm25.scores_ms": _per_call_ms(total["bm25.scores"], calls["bm25.scores"]),
        "bm25.scores_calls": calls["bm25.scores"],
        "dense.train_s": total["dense.train"],
        "dense.encode_corpus_s": total["dense.encode_corpus"],
        "dense.encode_corpus_calls": calls["dense.encode_corpus"],
        "dense.encode_corpus_per_encoder": (
            calls["dense.encode_corpus"] / len(keys["dense.encode_corpus"])
            if keys["dense.encode_corpus"] else 0.0),
        "dense.retrieve_ms": _per_call_ms(total["dense.retrieve"],
                                          calls["dense.retrieve"]),
        "dense.retrieve_calls": calls["dense.retrieve"],
        "hybrid.tune_lambda_s": total["hybrid.tune_lambda"],
        "hybrid.retrieve_ms": _per_call_ms(total["hybrid.retrieve"],
                                           calls["hybrid.retrieve"]),
        "hybrid.retrieve_calls": calls["hybrid.retrieve"],
        "results.top_k_ms": _per_call_ms(total["results.top_k"], calls["results.top_k"]),
        "results.top_k_calls": calls["results.top_k"],
        "reranker.build_lists_s": total["reranker.build_lists"],
        "reranker.train_s": total["reranker.train"],
        "reranker.step_ms": _per_call_ms(total["reranker.train"], units["reranker.train"]),
        "reranker.rerank_ms": _per_call_ms(total["reranker.rerank"],
                                           units["reranker.rerank"]),
        "reranker.rerank_queries": units["reranker.rerank"],
        "corpus.tokenize_calls": calls["corpus.tokenize"],
        "corpus.tokenize_s": total["corpus.tokenize"],
        "corpus.tokenize_per_served_query": served_tokenize / served if served else 0.0,
        "evaluation.metric_s": total["evaluation.metric"],
        "evaluation.write_run_s": total["evaluation.write_run"],
        "npzio.savez_s": total["npzio.savez"],
        "npzio.savez_calls": calls["npzio.savez"],
        "pipeline.run_s": total["pipeline.run"],
        "pipeline.self_s": pipeline_self,
        **{f"stage.{s}_s": stage_time[s] for s in STAGES},
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "serve.query_ms": _per_call_ms(total["serve.query"], served),
        "serve.queries": served,
        "trace.spans": len(spans),
        "trace.absent_probes": len(absent),
    }
    m.update(extra)
    missing = sorted({name for span in absent for name in NEEDS.get(span, ())})
    for name in missing:
        m.pop(name, None)
    unknown = set(m) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics without a PER_LAYER entry: {sorted(unknown)}")
    return m, missing


def stage_sum_gap(metrics: dict[str, float]) -> float:
    """|traced run_s - (stage times + pipeline.self_s)|, 0 up to rounding."""
    parts = sum(metrics.get(f"stage.{s}_s", 0.0) for s in STAGES)
    return abs(metrics.get("pipeline.run_s", 0.0) - parts - metrics.get("pipeline.self_s", 0.0))
