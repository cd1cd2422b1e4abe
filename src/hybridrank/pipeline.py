"""End-to-end experiment orchestration with a reproducibility manifest.

A run goes: BM25 index -> dual encoder (supervised from train qrels, or the
generate/filter/fine-tune loop) -> fusion-weight tuning -> first-stage runs ->
candidate-list sampling -> reranker training -> rerank -> metrics.  Every file
read or written lands in a manifest of content hashes; identical configs give
identical manifests.  Rerankers are named by the run their training lists were
sampled from (bm25 / de / hybrid / mixed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .bm25 import Bm25Index, Bm25Params
from .corpus import DEFAULT_PASSAGE_LENGTH, DEFAULT_QUERY_LENGTH, DEFAULT_VOCAB_SIZE, \
    load_corpus, load_qrels, load_queries
from .dense import DeTrainConfig, EncoderParams, TrainPair, encode_corpus, \
    normalize_rows, save_params, train_de
from .evaluation import METRIC_IDS, RunFile, compute_metric, format_metric_table, \
    write_run
from .hybrid import DEFAULT_LAMBDA_GRID, FIRST_STAGES, HybridIndex, save_hybrid_index, \
    tune_lambda
from .npzio import write_json
from .qgen import QgenConfig, iterative_train
from .reranker import RerankerParams, RerankTrainConfig, SamplingWindow, \
    build_candidate_lists, init_reranker, rerank, save_candidate_lists, \
    save_reranker, train_reranker
from .results import CandidateList

TRAINING_SOURCES = ("bm25", "de", "hybrid", "mixed", "none")

# offsets mixed into config.seed so each stage gets its own stream
_SEED_DE = 1
_SEED_QGEN = 2
_SEED_MIX = 6
_SEED_SAMPLE = {"bm25": 3, "de": 4, "hybrid": 5}
_SEED_RERANKER = {"bm25": 11, "de": 12, "hybrid": 13, "mixed": 14}


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; sub-stage seeds derive from `seed`."""

    corpus: str
    train_queries: str
    test_queries: str
    train_qrels: str
    test_qrels: str
    workdir: str
    seed: int = 0
    vocab_size: int = DEFAULT_VOCAB_SIZE
    query_max_length: int = DEFAULT_QUERY_LENGTH
    passage_max_length: int = DEFAULT_PASSAGE_LENGTH
    bm25: Bm25Params = Bm25Params()
    de: DeTrainConfig = DeTrainConfig()
    qgen: QgenConfig | None = None
    reranker: RerankTrainConfig = RerankTrainConfig()
    window: SamplingWindow = SamplingWindow(skip=0, depth=250, n_negatives=50)
    lambda_grid: tuple[float, ...] | None = None
    fixed_lambda: float | None = None
    tune_metric: str = "mrr"
    run_depth: int = 250
    rerank_top_k: int = 50
    training_source: str = "hybrid"
    rerank_first_stage: str = "bm25"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.training_source not in TRAINING_SOURCES:
            raise ValueError(f"training_source must be one of {TRAINING_SOURCES}")
        if self.rerank_first_stage not in FIRST_STAGES:
            raise ValueError(f"rerank_first_stage must be one of {FIRST_STAGES}")
        if self.tune_metric not in METRIC_IDS:
            raise ValueError(f"tune_metric must be one of {METRIC_IDS}")
        if self.run_depth < 1 or self.rerank_top_k < 1:
            raise ValueError("run_depth and rerank_top_k must be >= 1")
        if self.fixed_lambda is not None and self.fixed_lambda < 0:
            raise ValueError("fixed_lambda must be >= 0")


def _seeded(base: int, offset: int) -> int:
    return base * 1000 + offset


_CONFIG_SECTIONS = {
    "bm25": ("k", "b"),
    "de": ("batch_size", "epochs", "learning_rate", "temperature", "dim"),
    "qgen": ("mode", "max_per_passage", "sample_passages", "fine_tune_epochs"),
    "reranker": ("steps", "batch_size", "learning_rate"),
    "window": ("skip", "depth", "n_negatives"),
}
_TOP_LEVEL_KEYS = (
    "corpus", "train_queries", "test_queries", "train_qrels", "test_qrels",
    "workdir", "seed", "vocab_size", "query_max_length", "passage_max_length",
    "bm25", "de", "qgen", "reranker", "window", "lambda_grid", "fixed_lambda",
    "tune_metric", "run_depth", "rerank_top_k", "training_source",
    "rerank_first_stage",
)


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {}
    for key in _TOP_LEVEL_KEYS:
        value = getattr(config, key)
        if key in _CONFIG_SECTIONS:
            if value is None:
                out[key] = None
            else:
                out[key] = {f: getattr(value, f) for f in _CONFIG_SECTIONS[key]}
        elif key == "lambda_grid":
            out[key] = list(value) if value is not None else None
        else:
            out[key] = value
    return out


def _section(name: str, data: dict, cls, **fixed):
    allowed = set(_CONFIG_SECTIONS[name])
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"config section {name!r}: unknown keys {sorted(unknown)}")
    return cls(**data, **fixed)


def config_from_dict(data: dict) -> ExperimentConfig:
    unknown = set(data) - set(_TOP_LEVEL_KEYS)
    if unknown:
        raise ValueError(f"config: unknown keys {sorted(unknown)}")
    kwargs = dict(data)
    if "bm25" in kwargs and kwargs["bm25"] is not None:
        kwargs["bm25"] = _section("bm25", kwargs["bm25"], Bm25Params)
    if "de" in kwargs and kwargs["de"] is not None:
        kwargs["de"] = _section("de", kwargs["de"], DeTrainConfig)
    if "qgen" in kwargs and kwargs["qgen"] is not None:
        kwargs["qgen"] = _section("qgen", kwargs["qgen"], QgenConfig)
    if "reranker" in kwargs and kwargs["reranker"] is not None:
        kwargs["reranker"] = _section("reranker", kwargs["reranker"],
                                      RerankTrainConfig)
    if "window" in kwargs and kwargs["window"] is not None:
        kwargs["window"] = _section("window", kwargs["window"], SamplingWindow)
    if kwargs.get("lambda_grid") is not None:
        kwargs["lambda_grid"] = tuple(float(v) for v in kwargs["lambda_grid"])
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        return config_from_dict(json.load(f))


def save_config(config: ExperimentConfig, path) -> None:
    write_json(config_to_dict(config), path)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def mix_training_data(lists_a: list[CandidateList], lists_b: list[CandidateList],
                      seed: int = 0) -> list[CandidateList]:
    """Per-query 1:1 mix: queries in both contribute one whole list, the
    source picked by a seeded coin; queries in only one side pass through."""
    if not lists_a or not lists_b:
        raise ValueError("both list collections must be nonempty")
    by_a = {cl.query_id: cl for cl in lists_a}
    by_b = {cl.query_id: cl for cl in lists_b}
    rng = np.random.default_rng(seed)
    mixed = []
    for qid in sorted(set(by_a) | set(by_b)):
        if qid in by_a and qid in by_b:
            mixed.append(by_a[qid] if int(rng.integers(0, 2)) == 0 else by_b[qid])
        else:
            mixed.append(by_a.get(qid) or by_b[qid])
    return mixed


class _Experiment:
    """Lazily computed, cached experiment artifacts under one workdir."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        os.makedirs(config.workdir, exist_ok=True)
        self._read: list[str] = []
        self._written: list[str] = []
        self._runs: dict[tuple[str, str], RunFile] = {}
        self._lists: dict[str, list[CandidateList]] = {}
        self._list_reports: dict[str, dict] = {}
        self._rerankers: dict[str, RerankerParams] = {}
        self._rerank_runs: dict[tuple[str, str], RunFile] = {}
        self.qgen_report: dict | None = None
        self.encoder: EncoderParams | None = None
        self.hybrid_index: HybridIndex | None = None

    # -- plumbing ---------------------------------------------------------

    def _out(self, name: str, written: bool = True) -> str:
        path = os.path.join(self.config.workdir, name)
        if written and path not in self._written:
            self._written.append(path)
        return path

    def load(self) -> None:
        with _stage("load-data"):
            c = self.config
            self.corpus = load_corpus(c.corpus)
            self.train_queries = load_queries(c.train_queries)
            self.test_queries = load_queries(c.test_queries)
            self.train_qrels = load_qrels(c.train_qrels)
            self.test_qrels = load_qrels(c.test_qrels)
            self._read = [c.corpus, c.train_queries, c.test_queries,
                          c.train_qrels, c.test_qrels]
            save_config(c, self._out("config.json"))

    # -- stages -----------------------------------------------------------

    def train_encoder(self) -> EncoderParams:
        if self.encoder is None:
            with _stage("train-de"):
                c = self.config
                de_cfg = replace(c.de, seed=_seeded(c.seed, _SEED_DE),
                                 vocab_size=c.vocab_size,
                                 query_max_length=c.query_max_length,
                                 passage_max_length=c.passage_max_length)
                if c.qgen is not None:
                    gen_cfg = replace(c.qgen, seed=_seeded(c.seed, _SEED_QGEN))
                    de0, de1, report = iterative_train(self.corpus, gen_cfg, de_cfg)
                    save_params(de0, self._out("de0_params.npz"))
                    write_json(report, self._out("qgen_filter.json"))
                    self.qgen_report = report
                    self.encoder = de1
                else:
                    pairs = []
                    for q in self.train_queries:
                        for pid in sorted(self.train_qrels.relevant(q.id)):
                            pairs.append(TrainPair(query=q,
                                                   positive=self.corpus.get(pid)))
                    if not pairs:
                        raise ValueError(
                            "no supervised (query, passage) pairs in train qrels; "
                            "provide a qgen section to train without supervision")
                    self.encoder = train_de(pairs, de_cfg)
                save_params(self.encoder, self._out("de_params.npz"))
        return self.encoder

    def build_hybrid(self) -> HybridIndex:
        if self.hybrid_index is None:
            c = self.config
            with _stage("index"):
                bm25_index = Bm25Index(
                    self.corpus, params=c.bm25, vocab_size=c.vocab_size,
                    max_length=c.passage_max_length,
                    query_max_length=c.query_max_length)
            encoder = self.train_encoder()
            with _stage("tune-lambda"):
                rows = normalize_rows(encode_corpus(encoder, self.corpus,
                                                    c.passage_max_length))
                index = HybridIndex(bm25_index, encoder, rows, lam=0.0)
                grid = c.lambda_grid if c.lambda_grid is not None else DEFAULT_LAMBDA_GRID
                if c.fixed_lambda is not None:
                    lam = float(c.fixed_lambda)
                else:
                    lam = tune_lambda(index, self.train_queries, self.train_qrels,
                                      grid=grid, metric=c.tune_metric)
                self.hybrid_index = index.with_lambda(lam)
                save_hybrid_index(self.hybrid_index,
                                  self._out("hybrid", written=False))
                for part in ("hybrid.json", "hybrid.bm25.npz",
                             "hybrid.encoder.npz", "hybrid.encodings.npz"):
                    self._out(part)
                write_json({"lambda": lam, "grid": list(grid),
                            "metric": c.tune_metric, "tuned": c.fixed_lambda is None},
                           self._out("lambda.json"))
        return self.hybrid_index

    def run(self, first_stage: str, split: str) -> RunFile:
        """One first stage's run on a split.  Each query is scored once; the
        test split cuts every first stage from that pass, a train split only
        the one asked for."""
        key = (first_stage, split)
        if key not in self._runs:
            index = self.build_hybrid()
            with _stage("retrieve"):
                queries = self.train_queries if split == "train" else self.test_queries
                stages = FIRST_STAGES if split == "test" else (first_stage,)
                rankings = {stage: {} for stage in stages}
                for q in queries:
                    components = index.score_components(q)
                    for stage in stages:
                        rankings[stage][q.id] = list(zip(
                            *index.cut(stage, *components, self.config.run_depth)))
                for stage in stages:
                    run = RunFile(stage, rankings[stage])
                    write_run(run, self._out(f"run_{stage}_{split}.trec"))
                    self._runs[(stage, split)] = run
        return self._runs[key]

    def training_lists(self, source: str) -> list[CandidateList]:
        if source not in self._lists:
            with _stage("gen-train"):
                c = self.config
                if source == "mixed":
                    lists = mix_training_data(self.training_lists("bm25"),
                                              self.training_lists("de"),
                                              seed=_seeded(c.seed, _SEED_MIX))
                    report = {"lists": len(lists), "sources": ["bm25", "de"]}
                else:
                    run = self.run(source, "train")
                    lists, report = build_candidate_lists(
                        run, self.train_qrels, c.window,
                        seed=_seeded(c.seed, _SEED_SAMPLE[source]))
                    if not lists:
                        raise ValueError(
                            f"no training lists from source {source!r}: no train "
                            "query has a judged-relevant passage")
                save_candidate_lists(lists, self._out(f"lists_{source}.jsonl"))
                write_json(report, self._out(f"lists_{source}_report.json"))
                self._lists[source] = lists
                self._list_reports[source] = report
        return self._lists[source]

    def reranker(self, source: str) -> RerankerParams:
        if source not in self._rerankers:
            lists = self.training_lists(source)
            encoder = self.train_encoder()
            with _stage("train-reranker"):
                c = self.config
                seed = _seeded(c.seed, _SEED_RERANKER[source])
                rr_cfg = replace(c.reranker, seed=seed, vocab_size=c.vocab_size,
                                 dim=c.de.dim,
                                 query_max_length=c.query_max_length,
                                 passage_max_length=c.passage_max_length)
                init = init_reranker(seed=seed, embeddings=encoder.embeddings)
                params = train_reranker(lists, self.train_queries, self.corpus,
                                        rr_cfg, init=init)
                save_reranker(params, self._out(f"reranker_{source}.npz"))
                self._rerankers[source] = params
        return self._rerankers[source]

    def reranked_run(self, source: str, first_stage: str) -> RunFile:
        key = (source, first_stage)
        if key not in self._rerank_runs:
            params = self.reranker(source)
            base = self.run(first_stage, "test")
            with _stage("rerank"):
                c = self.config
                out = rerank(params, base, self.test_queries, self.corpus,
                             top_k=c.rerank_top_k,
                             query_max_length=c.query_max_length,
                             passage_max_length=c.passage_max_length,
                             run_tag=f"rr-{source}-on-{first_stage}")
                write_run(out, self._out(f"run_rerank_{source}_on_{first_stage}.trec"))
                self._rerank_runs[key] = out
        return self._rerank_runs[key]

    def evaluate(self, run: RunFile) -> dict[str, float]:
        with _stage("evaluate"):
            return {
                "mrr@10": compute_metric(run, self.test_qrels, "mrr", 10).mean,
                "ndcg@10": compute_metric(run, self.test_qrels, "ndcg", 10).mean,
                "recall@100": compute_metric(run, self.test_qrels, "recall", 100).mean,
            }

    def write_manifest(self) -> dict:
        with _stage("manifest"):
            workdir = os.path.abspath(self.config.workdir)
            files = {}
            for path in self._read:
                files["input:" + os.path.basename(path)] = _sha256(path)
            for path in sorted(set(self._written)):
                rel = os.path.relpath(os.path.abspath(path), workdir)
                files[rel.replace(os.sep, "/")] = _sha256(path)
            manifest = {"files": files}
            write_json(manifest, os.path.join(workdir, "manifest.json"))
            return manifest


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the full pipeline; returns a report with metrics and manifest."""
    exp = _Experiment(config)
    exp.load()
    exp.build_hybrid()
    metrics: dict[str, dict[str, float]] = {}
    for first in FIRST_STAGES:
        metrics[first] = exp.evaluate(exp.run(first, "test"))
    source = config.training_source
    reranked_name = None
    if source != "none":
        run = exp.reranked_run(source, config.rerank_first_stage)
        reranked_name = f"rerank_{source}_on_{config.rerank_first_stage}"
        metrics[reranked_name] = exp.evaluate(run)
    report = {
        "lambda": exp.hybrid_index.lam,
        "metrics": metrics,
        "reranked_run": reranked_name,
        "qgen": exp.qgen_report,
        "flagged_lists": {s: r.get("short_pool", [])
                          for s, r in exp._list_reports.items()},
    }
    write_json(metrics, exp._out("metrics.json"))
    with open(exp._out("metrics_table.txt"), "w", encoding="utf-8") as f:
        f.write(format_metric_table(metrics) + "\n")
    write_json(report, exp._out("report.json"))
    report["manifest"] = exp.write_manifest()
    return report


ABLATION_ROWS = ("none", "bm25", "de", "hybrid")


def ablation_matrix(config: ExperimentConfig, include_mixed: bool = True) -> dict:
    """Rerankers by training source (rows) applied to each first stage (cols).

    Row "none" is the raw retriever.  Returns {"matrix": {metric: {row: {col:
    value}}}, "mixed": ..., "lambda": ...} and writes the same to the workdir.
    """
    exp = _Experiment(config)
    exp.load()
    exp.build_hybrid()
    matrix: dict[str, dict[str, dict[str, float]]] = {"mrr": {}, "ndcg": {}}
    rows: dict[str, dict[str, dict[str, float]]] = {}
    for row in ABLATION_ROWS:
        rows[row] = {}
        for col in FIRST_STAGES:
            if row == "none":
                run = exp.run(col, "test")
            else:
                run = exp.reranked_run(row, col)
            rows[row][col] = exp.evaluate(run)
    for metric, key in (("mrr", "mrr@10"), ("ndcg", "ndcg@10")):
        matrix[metric] = {row: {col: rows[row][col][key] for col in FIRST_STAGES}
                          for row in ABLATION_ROWS}
    mixed = None
    if include_mixed:
        mixed = {}
        for col in FIRST_STAGES:
            mixed[col] = exp.evaluate(exp.reranked_run("mixed", col))
    report = {"lambda": exp.hybrid_index.lam, "matrix": matrix, "mixed": mixed}
    write_json(report, exp._out("ablation.json"))
    with open(exp._out("ablation_table.txt"), "w", encoding="utf-8") as f:
        for metric in ("mrr", "ndcg"):
            f.write(f"{metric}@10\n")
            f.write(format_metric_table(matrix[metric]) + "\n\n")
    report["manifest"] = exp.write_manifest()
    return report
