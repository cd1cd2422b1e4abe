"""Output checks.  Each one judges one operation; a failed check counts as a
failed operation in the run's error rate and makes the benchmark exit non-zero.

For the pipeline workloads an operation is a stage of ``run_experiment``,
judged by the files it left in the workdir.  For served queries it is one
query, judged by its answer.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from hybridrank.dense import load_params
from hybridrank.evaluation import RunFile, compute_metric, read_run, write_run
from hybridrank.hybrid import hybrid_retrieve, load_hybrid_index
from hybridrank.pipeline import FIRST_STAGES, load_config
from hybridrank.reranker import load_candidate_lists, load_reranker

QUALITY_KEYS = ("mrr@10", "ndcg@10", "recall@100")
REANSWERED = 20   # test queries the reloaded hybrid index answers again


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Checks:
    """Records one verdict per operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, operation: str, check, *args) -> bool:
        self.attempted += 1
        try:
            check(*args)
        except CheckFailed as exc:
            self.failures.append(f"{operation}: {exc}")
            return False
        except (OSError, ValueError, KeyError) as exc:
            self.failures.append(f"{operation}: {type(exc).__name__}: {exc}")
            return False
        return True

    def fail(self, operation: str, message: str) -> None:
        self.attempted += 1
        self.failures.append(f"{operation}: {message}")


def check_run_file(path, query_ids, scratch) -> RunFile:
    """The file round-trips through read_run/write_run byte for byte, holds
    every query, and every score is finite."""
    run = read_run(path)
    missing = sorted(set(query_ids) - set(run.rankings))
    require(not missing, f"{os.path.basename(path)}: {len(missing)} queries missing, "
                         f"first {missing[:3]}")
    for qid, ranking in run.rankings.items():
        bad = [pid for pid, score in ranking if not math.isfinite(score)]
        require(not bad, f"{os.path.basename(path)}: non-finite score for {qid} {bad[:3]}")
    write_run(run, scratch)
    require(sha256(scratch) == sha256(path),
            f"{os.path.basename(path)}: write_run(read_run(file)) differs from the file")
    return run


def check_top_k_permutation(reranked: list[str], base: list[str], top_k: int,
                            label: str) -> None:
    require(sorted(reranked[:top_k]) == sorted(base[:top_k]),
            f"{label}: reranked top-{top_k} is not a permutation of its input top-{top_k}")


def _quality_matches(run: RunFile, qrels, reported: dict, label: str) -> None:
    require(set(QUALITY_KEYS) <= set(reported), f"{label}: metrics missing")
    for key in QUALITY_KEYS:
        require(math.isfinite(reported[key]), f"{label}: {key} is not finite")
    for key, (metric, cutoff) in (("mrr@10", ("mrr", 10)), ("recall@100", ("recall", 100))):
        again = compute_metric(run, qrels, metric, cutoff).mean
        require(again == reported[key],
                f"{label}: reported {key} {reported[key]} but the run file gives {again}")


def check_experiment(checks: Checks, config, report: dict, data) -> dict:
    """Judge every stage of one run_experiment by its outputs; returns
    file -> sha256 for the run files and manifest.json."""
    wd = config.workdir
    scratch = os.path.join(wd, "roundtrip.trec.tmp")
    test_ids = [q.id for q in data.test_queries]
    train_ids = [q.id for q in data.train_queries]
    source = config.training_source
    runs: dict[str, RunFile] = {}

    def load_data():
        require(load_config(os.path.join(wd, "config.json")) == config,
                "config.json does not reload to the experiment config")

    def index():
        # the saved index reloads and answers as the experiment's run file says
        saved = load_hybrid_index(os.path.join(wd, "hybrid"))
        expected = read_run(os.path.join(wd, "run_hybrid_test.trec")).rankings
        for q in data.test_queries[:REANSWERED]:
            got = hybrid_retrieve(saved, q, config.run_depth)
            require([(it.passage_id, it.score) for it in got.items] == expected[q.id],
                    f"reloaded hybrid index answers {q.id} differently")

    def train_de():
        params = load_params(os.path.join(wd, "de_params.npz"))
        require(bool(params.embeddings.size) and
                bool(math.isfinite(float(abs(params.embeddings).sum()))),
                "de_params.npz holds non-finite embeddings")

    def tune_lambda():
        with open(os.path.join(wd, "lambda.json"), encoding="utf-8") as f:
            lam = json.load(f)
        require(lam["lambda"] == report["lambda"], "lambda.json disagrees with the report")
        require(lam["lambda"] in lam["grid"], "tuned lambda is not a grid value")

    def retrieve():
        for first in FIRST_STAGES:
            runs[first] = check_run_file(
                os.path.join(wd, f"run_{first}_test.trec"), test_ids, scratch)
        if source not in ("none", "mixed"):
            check_run_file(os.path.join(wd, f"run_{source}_train.trec"), train_ids, scratch)

    def gen_train():
        lists = load_candidate_lists(os.path.join(wd, f"lists_{source}.jsonl"))
        require(bool(lists), "no training lists")
        for cl in lists:
            require(cl.items[0].label > 0 and all(it.label == 0 for it in cl.items[1:]),
                    f"list {cl.query_id} does not lead with its one positive")

    def train_reranker():
        params = load_reranker(os.path.join(wd, f"reranker_{source}.npz"))
        for name in ("embeddings", "w_q", "w_k", "w_v", "readout"):
            require(bool(math.isfinite(float(abs(getattr(params, name)).sum()))),
                    f"reranker {name} is not finite")
        require(math.isfinite(params.bias), "reranker bias is not finite")

    def rerank():
        first = config.rerank_first_stage
        path = os.path.join(wd, f"run_rerank_{source}_on_{first}.trec")
        runs["rerank"] = out = check_run_file(path, test_ids, scratch)
        base = runs.get(first) or read_run(os.path.join(wd, f"run_{first}_test.trec"))
        for qid in test_ids:
            check_top_k_permutation([p for p, _ in out.rankings[qid]],
                                    [p for p, _ in base.rankings[qid]],
                                    config.rerank_top_k, qid)

    def evaluate():
        metrics = report["metrics"]
        for first in FIRST_STAGES:
            _quality_matches(runs[first], data.test_qrels, metrics[first], first)
        if source != "none":
            _quality_matches(runs["rerank"], data.test_qrels,
                             metrics[report["reranked_run"]], report["reranked_run"])

    def manifest():
        with open(os.path.join(wd, "manifest.json"), encoding="utf-8") as f:
            files = json.load(f)["files"]
        for rel, digest in files.items():
            if rel.startswith("input:"):
                continue
            require(sha256(os.path.join(wd, rel)) == digest, f"{rel}: sha256 mismatch")
        trec = sorted(n for n in os.listdir(wd) if n.endswith(".trec"))
        require(set(trec) <= set(files), "a run file is missing from the manifest")

    stages = [("load-data", load_data), ("index", index), ("train-de", train_de),
              ("tune-lambda", tune_lambda), ("retrieve", retrieve)]
    if source != "none":
        stages += [("gen-train", gen_train), ("train-reranker", train_reranker),
                   ("rerank", rerank)]
    stages += [("evaluate", evaluate), ("manifest", manifest)]
    for name, check in stages:
        checks.run(f"stage {name}", check)
    if os.path.exists(scratch):
        os.remove(scratch)
    hashes = {n: sha256(os.path.join(wd, n))
              for n in sorted(os.listdir(wd)) if n.endswith(".trec")}
    hashes["manifest.json"] = sha256(os.path.join(wd, "manifest.json"))
    return hashes


def check_served_query(hybrid: list[tuple[str, float]], final: list[tuple[str, float]],
                       depth: int, n_passages: int, top_k: int) -> None:
    """One served answer: a full, finite, non-increasing first-stage list, and
    a reranked top-k that is a permutation of the first stage's."""
    require(len(hybrid) == min(depth, n_passages), f"{len(hybrid)} results, "
                                                    f"expected {min(depth, n_passages)}")
    scores = [s for _, s in hybrid]
    require(all(math.isfinite(s) for s in scores), "non-finite first-stage score")
    require(all(a >= b for a, b in zip(scores, scores[1:])), "scores increase")
    require(all(math.isfinite(s) for _, s in final[:top_k]), "non-finite rerank score")
    check_top_k_permutation([p for p, _ in final], [p for p, _ in hybrid], top_k,
                            "served query")
