"""The three workloads and what one run of each does.

Every run generates its inputs with ``make_synthetic_corpus`` from the
benchmark's ``--seed``; the program only sees the generated files.  Load comes
from one process.

pipeline-2k
    One ``run_experiment`` on the default config: 2k passages, 400 train /
    200 test queries, supervised dual encoder, a hybrid-trained reranker at
    the default 2000 steps, reranking bm25.  The ROADMAP's quality numbers
    refer to this run.  Reranker training is most of it, so reranker work
    shows here and first-stage work barely does.
first-stage-20k
    ``run_experiment`` with ``training_source="none"`` on 20k passages and a
    10x synonym table (2000; with the default 200 each concept word posts to
    ~3% of the corpus and bm25 MRR@10 collapses).  400 train / 200 test
    queries, so that the benchmark fits its time budget.  ``tune_lambda`` is most of it and the reranker
    never runs: fast paths in results, dense, bm25 and hybrid show here, and
    reranker changes must show no change.
serve-20k
    The same first stage answering 2000 distinct test queries one at a time,
    in a closed loop with one client: each query is ``hybrid_retrieve``
    (depth 250) then ``rerank`` (top 50), and the next is sent when the answer
    is back.  Set-up builds the BM25 index, the dual encoder, lambda (tuned on
    100 train queries) and a 300-step reranker.  A batch-only change (block
    GEMM, tune-lambda reuse) moves first-stage-20k and leaves this one flat;
    work moved into index time shows in its setup_s; per-call caching in
    rerank shows only here.  It serves for at least ``--seconds`` and at least
    1200 queries; its ``run_s`` is the summed latency of the first 1200.

Gated metrics are the ones every workload has: ``setup_s``, ``run_s`` and
``peak_rss_mb``.  Serving percentiles and throughput (serve-20k) and quality
(MRR@10, recall@100) are recorded next to them but not gated: on a small
shared machine the percentiles of a short serving loop move more from run to run
than any bound the benchmark may set, and quality moves from seed to seed
(on the 20k corpus the weak encoder and a lambda on the grid edge can halve
hybrid MRR@10).  The sha256 of every run file is the exact guard on outputs.
"""

from __future__ import annotations

import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

# Program calls go through module attributes, so the probes' replacements in
# those modules see the benchmark's calls too.
from hybridrank import bm25, dense, evaluation, hybrid, pipeline, reranker, synthetic
from hybridrank.corpus import QrelSet

import checks as chk
from layers import layer_metrics, stage_sum_gap
from tracing import Probes, Tracer

# the pipeline's defaults for the serving path, and its seed offsets
DEPTH = 250
TOP_K = 50
SEED_DE, SEED_SAMPLE_HYBRID, SEED_RERANKER_HYBRID = 1, 5, 13
# a cheap set-up is repeated until this much time is spent, so its median is steady
SETUP_MIN_S = 2.0


@dataclass(frozen=True)
class ServeBuild:
    """What serve-20k builds before its first query."""

    lambda_queries: int = 100
    list_queries: int = 200
    reranker_steps: int = 300
    min_served: int = 1200


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict                          # SyntheticCorpusSpec fields, without the seed
    experiment: dict | None = None      # ExperimentConfig overrides; None: serve instead
    build: ServeBuild | None = None
    setup_repeats: int = 3


WORKLOADS = {w.name: w for w in (
    Workload("pipeline-2k",
             "default run_experiment (2k passages, 2000-step reranker): reranker "
             "training dominates",
             spec=dict(n_passages=2000, n_train_queries=400, n_test_queries=200),
             experiment={}),
    Workload("first-stage-20k",
             "run_experiment without a reranker on 20k passages: lambda tuning and "
             "first-stage retrieval dominate",
             spec=dict(n_passages=20000, n_train_queries=400, n_test_queries=200,
                       synonym_table_size=2000),
             experiment=dict(training_source="none"), setup_repeats=2),
    Workload("serve-20k",
             "2000 distinct queries served one at a time (hybrid then rerank) on "
             "20k passages: per-query latency",
             spec=dict(n_passages=20000, n_train_queries=400, n_test_queries=2000,
                       synonym_table_size=2000),
             build=ServeBuild(), setup_repeats=2),
)}


@dataclass
class Server:
    index: hybrid.HybridIndex
    reranker: reranker.RerankerParams
    corpus: object


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)     # samples behind each metric
    recorded: dict[str, dict] = field(default_factory=dict)  # not gated: value, unit, samples
    info: dict = field(default_factory=dict)
    checks: chk.Checks = field(default_factory=chk.Checks)
    absent: list[str] = field(default_factory=list)

    def record(self, name: str, value: float, unit: str, samples: int) -> None:
        self.recorded[name] = {"value": value, "unit": unit, "samples": samples}


def _generate(w: Workload, seed: int, workdir: str, repeats: int, min_s: float):
    """Generate and write the inputs at least ``repeats`` times and until
    ``min_s`` seconds are spent; (data, paths, seconds each)."""
    spec = synthetic.SyntheticCorpusSpec(seed=seed, **w.spec)
    times = []
    while len(times) < repeats or (sum(times) < min_s and len(times) < 20):
        t0 = time.perf_counter()
        data = synthetic.make_synthetic_corpus(spec)
        paths = synthetic.save_synthetic_data(data, os.path.join(workdir, "data"))
        times.append(time.perf_counter() - t0)
    return data, paths, times


def build_server(data, b: ServeBuild) -> tuple[Server, float]:
    """Index, dual encoder, lambda and reranker through the public API."""
    corpus = data.corpus
    bm25_index = bm25.Bm25Index(corpus)
    pairs = [dense.TrainPair(query=q, positive=corpus.get(pid))
             for q in data.train_queries for pid in sorted(data.train_qrels.relevant(q.id))]
    encoder = dense.train_de(pairs, dense.DeTrainConfig(seed=SEED_DE))
    rows = dense.normalize_rows(dense.encode_corpus(encoder, corpus))
    index = hybrid.HybridIndex(bm25_index, encoder, rows, lam=0.0)
    lam = hybrid.tune_lambda(index, data.train_queries[:b.lambda_queries], data.train_qrels)
    index = index.with_lambda(lam)
    train_run = evaluation.RunFile.from_candidates(
        [hybrid.hybrid_retrieve(index, q, DEPTH) for q in data.train_queries[:b.list_queries]],
        run_tag="hybrid")
    lists, _ = reranker.build_candidate_lists(
        train_run, data.train_qrels,
        reranker.SamplingWindow(skip=0, depth=DEPTH, n_negatives=50),
        seed=SEED_SAMPLE_HYBRID)
    params = reranker.train_reranker(
        lists, data.train_queries, corpus,
        reranker.RerankTrainConfig(steps=b.reranker_steps, seed=SEED_RERANKER_HYBRID),
        init=reranker.init_reranker(seed=SEED_RERANKER_HYBRID, embeddings=encoder.embeddings))
    return Server(index, params, corpus), lam


def _answer(server: Server, query):
    first_stage = hybrid.hybrid_retrieve(server.index, query, DEPTH)
    first = [(it.passage_id, it.score) for it in first_stage.items]
    out = reranker.rerank(server.reranker, evaluation.RunFile("hybrid", {query.id: first}),
                          [query], server.corpus, top_k=TOP_K)
    return first, out.rankings[query.id]


def serve(server: Server, queries, min_served: int, seconds: float, result: Result,
          tracer: Tracer | None = None, probes: Probes | None = None):
    """Closed loop, one client: answer ``queries`` in order for at least
    ``seconds`` and at least ``min_served`` queries.

    With a tracer, every other query is traced and the untraced ones are the
    reference for the tracing overhead.  Returns the latencies (seconds) of
    untraced and of traced queries, the checked answers by query id, and the
    loop's wall time.
    """
    n = len(server.index)
    latencies: list[float] = []
    traced: list[float] = []
    answers: dict[str, tuple[list, list]] = {}
    failed_trace = None
    start = time.perf_counter()
    i = 0
    while i < min_served or time.perf_counter() - start < seconds:
        q = queries[i % len(queries)]
        trace_this = tracer is not None and i % 2 == 1
        i += 1
        if trace_this:
            probes.install()
        try:
            t0 = time.perf_counter()
            if trace_this:
                with tracer.span("serve.query", q.id):
                    first, final = _answer(server, q)
            else:
                first, final = _answer(server, q)
            dt = time.perf_counter() - t0
        except Exception:  # a failed query is counted, and the loop goes on
            result.checks.fail(f"query {q.id}", "raised")
            failed_trace = failed_trace or traceback.format_exc()
            continue
        finally:
            if trace_this:
                probes.uninstall()
        (traced if trace_this else latencies).append(dt)
        if result.checks.run(f"query {q.id}", chk.check_served_query, first, final,
                             DEPTH, n, TOP_K):
            answers.setdefault(q.id, (first, final))
    if failed_trace:
        result.info["first_query_traceback"] = failed_trace
    return latencies, traced, answers, time.perf_counter() - start


def _served_quality(answers, qrels, limit: int, workdir: str, result: Result) -> None:
    """Record MRR@10 / recall@100 over the first ``limit`` distinct answered
    queries, and write the served runs as files whose hashes are recorded."""
    qids = list(answers)[:limit]
    first = evaluation.RunFile("served-hybrid", {q: answers[q][0] for q in qids})
    final = evaluation.RunFile("served-final", {q: answers[q][1] for q in qids})
    hashes = result.info.setdefault("hashes", {})
    scratch = os.path.join(workdir, "roundtrip.trec.tmp")
    for name, run in (("served_hybrid.trec", first), ("served_final.trec", final)):
        path = os.path.join(workdir, name)
        evaluation.write_run(run, path)
        result.checks.run(f"served run {name}", chk.check_run_file, path, qids, scratch)
        hashes[name] = chk.sha256(path)
    # judged queries missing from a run score 0, so judge only the scored ones
    wanted = set(qids)
    qrels = QrelSet({k: g for k, g in qrels.judgments.items() if k[0] in wanted})
    metric = evaluation.compute_metric
    result.record("mrr10_hybrid", metric(first, qrels, "mrr", 10).mean, "score", len(qids))
    result.record("recall100_hybrid", metric(first, qrels, "recall", 100).mean, "score",
                  len(qids))
    result.record("mrr10_rerank", metric(final, qrels, "mrr", 10).mean, "score", len(qids))


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _experiment(w: Workload, paths: dict, data, workdir: str, result: Result,
                tracer: Tracer | None, probes: Probes | None, extra: dict) -> tuple[float, float]:
    """One run_experiment, checked stage by stage; (run_s, lambda)."""
    config = pipeline.ExperimentConfig(workdir=os.path.join(workdir, "exp"), **paths,
                                       **w.experiment)
    manifest = os.path.join(config.workdir, "manifest.json")
    if tracer is not None:
        # untraced reference first; the traced run then rewrites the same
        # workdir and must leave the same manifest
        t0 = time.perf_counter()
        pipeline.run_experiment(config)
        extra["trace.untraced_s"] = time.perf_counter() - t0
        untraced_manifest = chk.sha256(manifest)
        tracer.phase = "experiment"
        with probes.installed():
            t0 = time.perf_counter()
            report = pipeline.run_experiment(config)
            run_s = time.perf_counter() - t0
        extra["trace.traced_s"] = run_s
        if chk.sha256(manifest) != untraced_manifest:
            result.checks.fail("trace", "traced run's manifest differs from the untraced run's")
    else:
        t0 = time.perf_counter()
        report = pipeline.run_experiment(config)
        run_s = time.perf_counter() - t0
    result.info["hashes"] = chk.check_experiment(result.checks, config, report, data)
    result.info["experiment_metrics"] = report["metrics"]
    n_test = len(data.test_queries)
    for first in pipeline.FIRST_STAGES:
        result.record(f"mrr10_{first}", report["metrics"][first]["mrr@10"], "score", n_test)
    result.record("recall100_hybrid", report["metrics"]["hybrid"]["recall@100"], "score",
                  n_test)
    if report["reranked_run"]:
        result.record("mrr10_rerank", report["metrics"][report["reranked_run"]]["mrr@10"],
                      "score", n_test)
    return run_s, report["lambda"]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 workdir: str) -> tuple[Result, Tracer | None]:
    """One benchmark run: set-up, measured work, output checks and metrics."""
    result = Result()
    tracer = Tracer() if trace else None
    probes = Probes(tracer) if trace else None
    if probes:
        result.absent = list(probes.absent)
    if trace:
        data, paths, gen_times = _generate(w, seed, workdir, 1, 0.0)
    else:
        data, paths, gen_times = _generate(w, seed, workdir, w.setup_repeats, SETUP_MIN_S)
    setup_s = statistics.median(gen_times)
    extra: dict[str, float] = {}

    if w.experiment is not None:
        run_s, lam = _experiment(w, paths, data, workdir, result, tracer, probes, extra)
        count = 1
    else:
        b = w.build
        t0 = time.perf_counter()
        if trace:
            tracer.phase = "setup"
            with probes.installed():
                server, lam = build_server(data, b)
            tracer.phase = "serve"
        else:
            server, lam = build_server(data, b)
        setup_s += time.perf_counter() - t0
        lat, traced, answers, loop_s = serve(server, data.test_queries, b.min_served,
                                             seconds, result, tracer, probes)
        if not answers:     # every query failed; the checks have counted it
            return result, None
        if trace:
            k = min(len(lat), len(traced))
            extra["trace.untraced_s"] = sum(lat[:k])
            extra["trace.traced_s"] = sum(traced[:k])
        else:
            _served_quality(answers, data.test_qrels, b.min_served, workdir, result)
            served = len(lat)
            result.record("serve_p50_ms", 1e3 * _percentile(lat, 50), "ms", served)
            result.record("serve_p99_ms", 1e3 * _percentile(lat, 99), "ms", served)
            result.record("serve_qps", served / loop_s, "1/s", served)
        run_s = sum(lat[:b.min_served])
        count = min(len(lat), b.min_served)

    grid = sorted(hybrid.DEFAULT_LAMBDA_GRID)
    result.info["lambda"] = lam
    result.info["lambda_on_grid_edge"] = lam in (grid[0], grid[-1])
    if trace:
        extra["trace.overhead_s"] = extra["trace.traced_s"] - extra["trace.untraced_s"]
        extra["trace.overhead_pct"] = (100 * extra["trace.overhead_s"] / extra["trace.untraced_s"]
                                       if extra["trace.untraced_s"] else 0.0)
        extra["hybrid.lambda"] = lam
        extra["hybrid.lambda_on_grid_edge"] = float(result.info["lambda_on_grid_edge"])
        result.metrics, missing = layer_metrics(tracer.spans, extra, probes.absent)
        result.info["absent_metrics"] = missing
        gap = stage_sum_gap(result.metrics)
        if w.experiment is not None and gap > 1e-6:
            result.checks.fail("trace", f"stages plus pipeline.self_s miss run_s by {gap}")
        return result, tracer

    m, c = result.metrics, result.counts
    m["setup_s"], c["setup_s"] = setup_s, len(gen_times)
    m["run_s"], c["run_s"] = run_s, count
    return result, None
