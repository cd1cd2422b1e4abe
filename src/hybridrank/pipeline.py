"""End-to-end experiment orchestration with a reproducibility manifest.

An experiment goes: BM25 index -> dual encoder (supervised from train qrels)
-> fusion-weight tuning -> first-stage runs -> candidate-list sampling ->
reranker training -> rerank -> metrics.  Every file read or written lands in
a manifest of content hashes; identical configs give identical manifests.

Its results are cells (training source, first stage): a reranker trained on
lists sampled from the source's train runs, applied to the first stage's test
run.  The sources are bm25, de, hybrid, mixed (a 1:1 mix of bm25's and de's
lists) and none, whose cell is the first stage itself.  ``run_experiment``
computes the three "none" cells and at most one reranked cell,
``ablation_matrix`` every row by every column, both through ``_run_cells``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import cached_property

import numpy as np

from .bm25 import Bm25Index
from .corpus import load_corpus, load_qrels, load_queries
from .dense import DeTrainConfig, EncoderParams, TrainPair, encode_corpus, \
    normalize_rows, save_params, train_de
from .evaluation import REPORTED_METRICS, MetricReport, RunFile, format_metric_table, \
    reported_metrics, write_run
from . import hybrid
from .hybrid import FIRST_STAGES, HybridIndex, save_hybrid_index, tune_lambda
from .npzio import write_json
from .reranker import RerankerParams, RerankTrainConfig, SamplingWindow, \
    build_candidate_lists, init_reranker, rerank, save_candidate_lists, \
    save_reranker, train_reranker
from .results import CandidateList

# training source -> (the first stages whose train runs its lists come from,
# the seed offsets of its lists and of its reranker); offsets are mixed into
# config.seed so each stage gets its own stream
_SOURCES = {"none": ((), None, None), "bm25": (("bm25",), 3, 11), "de": (("de",), 4, 12),
            "hybrid": (("hybrid",), 5, 13), "mixed": (("bm25", "de"), 6, 14)}
TRAINING_SOURCES = tuple(_SOURCES)
_SEED_DE = 1  # the dual encoder's offset


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    """Names a failure inside as stage ``name``'s; no stage opens inside another."""
    try:
        yield
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
    de: DeTrainConfig = DeTrainConfig()
    reranker: RerankTrainConfig = RerankTrainConfig()
    window: SamplingWindow = SamplingWindow(skip=0, depth=250, n_negatives=50)
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
        if self.run_depth < 1 or self.rerank_top_k < 1:
            raise ValueError("run_depth and rerank_top_k must be >= 1")
        if self.window.depth > self.run_depth:
            raise ValueError(f"window.depth ({self.window.depth}) must be <= run_depth "
                             f"({self.run_depth}), the ranks a train run holds")


def _seeded(base: int, offset: int) -> int:
    return base * 1000 + offset


# the keys that pick run_experiment's one reranked cell; ablation_matrix
# computes every cell, so it writes them at their defaults
_CELL_CHOICE = {f.name: f.default for f in fields(ExperimentConfig)
                if f.name in ("training_source", "rerank_first_stage")}

# the JSON values a leaf field of each annotated type takes; a bool takes none
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


def _file_fields(cls) -> list:
    """The fields of ``cls`` in a config file: a section (a field whose default
    is a dataclass) leaves out its seed, which derives from the experiment's."""
    return [f for f in fields(cls) if cls is ExperimentConfig or f.name != "seed"]


def config_to_dict(config) -> dict:
    """``config`` as a config file holds it, each section a nested object."""
    return {f.name: config_to_dict(getattr(config, f.name)) if is_dataclass(f.default)
            else getattr(config, f.name) for f in _file_fields(type(config))}


def _from_dict(cls, data, where: str):
    """``data`` read as a ``cls``, each section by the same rules; errors
    start with ``where``, the level they are about."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    known = _file_fields(cls)
    unknown = set(data) - {f.name for f in known}
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [f.name for f in known if f.default is MISSING and f.name not in data]
    if missing:
        raise ValueError(f"{where}: missing required keys {missing}")
    kwargs = {}
    for f in known:
        if f.name not in data:
            continue
        value = data[f.name]
        if is_dataclass(f.default):
            value = _from_dict(type(f.default), value, f"{where} section {f.name!r}")
        elif isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
            raise ValueError(f"{where}: {f.name} must be {f.type}, got {value!r}")
        elif f.type == "float" and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{where}: {f.name} must be finite, got {value!r}")
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    """Raises ValueError naming the config, or its section, when a level of
    ``data`` is not an object, has a key unknown or missing, has a value of
    the wrong type (an int field takes an int, a float field an int or float
    that is finite as a float, a str field a str, and none a bool), or has a
    value that the level's dataclass rejects as out of range."""
    return _from_dict(ExperimentConfig, data, "config")


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8-sig") as f:
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
            mixed.append(by_a[qid] if qid in by_a else by_b[qid])
    return mixed


class _Experiment:
    """The loaded data of one experiment, and its lazily computed, cached
    artifacts under one workdir, for the given (training source, first stage)
    cells."""

    def __init__(self, config: ExperimentConfig, cells: list[tuple[str, str]]):
        self.config = config
        self._train_stages = tuple(stage for stage in FIRST_STAGES
                                   if any(stage in _SOURCES[s][0] for s, _ in cells))
        os.makedirs(config.workdir, exist_ok=True)
        self._written: list[str] = []
        self._runs: dict[tuple[str, str], RunFile] = {}
        # training source -> its lists and their report
        self._lists: dict[str, tuple[list[CandidateList], dict]] = {}
        self._rerankers: dict[str, RerankerParams] = {}
        with _stage("load-data"):
            self.corpus = load_corpus(config.corpus)
            self.train_queries = load_queries(config.train_queries)
            self.test_queries = load_queries(config.test_queries)
            self.train_qrels = load_qrels(config.train_qrels)
            self.test_qrels = load_qrels(config.test_qrels)
            self._read = {name: getattr(config, name) for name in (
                "corpus", "train_queries", "test_queries", "train_qrels", "test_qrels")}
            save_config(config, self._out("config.json"))

    def _out(self, name: str) -> str:
        path = os.path.join(self.config.workdir, name)
        self._written.append(path)
        return path

    @cached_property
    def encoder(self) -> EncoderParams:
        with _stage("train-de"):
            c = self.config
            pairs = []
            for q in self.train_queries:
                for pid in sorted(self.train_qrels.relevant(q.id)):
                    pairs.append(TrainPair(query=q, positive=self.corpus.get(pid)))
            if not pairs:
                raise ValueError("no supervised (query, passage) pairs in train qrels")
            encoder = train_de(pairs, replace(c.de, seed=_seeded(c.seed, _SEED_DE)))
            save_params(encoder, self._out("de_params.npz"))
            return encoder

    @cached_property
    def hybrid_index(self) -> HybridIndex:
        c = self.config
        with _stage("index"):
            bm25_index = Bm25Index(self.corpus)
        encoder = self.encoder
        with _stage("tune-lambda"):
            rows = normalize_rows(encode_corpus(encoder, self.corpus))
            index = HybridIndex(bm25_index, encoder, rows, lam=0.0)
            lam = tune_lambda(index, self.train_queries, self.train_qrels)
            index = index.with_lambda(lam)
            self._written += save_hybrid_index(index, os.path.join(c.workdir, "hybrid"))
            write_json({"lambda": lam, "grid": list(hybrid.DEFAULT_LAMBDA_GRID)},
                       self._out("lambda.json"))
            return index

    def run(self, first_stage: str, split: str) -> RunFile:
        """One first stage's run on a split.  Each query of a split is scored
        once: the test split cuts every first stage from that pass, the train
        split every first stage whose train run the cells' lists come from."""
        key = (first_stage, split)
        if key not in self._runs:
            index = self.hybrid_index
            with _stage("retrieve"):
                queries = self.train_queries if split == "train" else self.test_queries
                stages = FIRST_STAGES if split == "test" else self._train_stages
                rankings = {stage: {} for stage in stages}
                for q in queries:
                    components = index.score_components(q)
                    for stage in stages:
                        rankings[stage][q.id] = index.cut(stage, *components,
                                                          self.config.run_depth)
                for stage in stages:
                    run = RunFile(stage, rankings[stage])
                    write_run(run, self._out(f"run_{stage}_{split}.trec"))
                    self._runs[(stage, split)] = run
        return self._runs[key]

    def training_lists(self, source: str) -> list[CandidateList]:
        if source not in self._lists:
            c = self.config
            stages, offset, _ = _SOURCES[source]
            seed = _seeded(c.seed, offset)
            # what the lists come from is built before 'gen-train' opens: the
            # source's train run, or for "mixed" its sources' lists
            drawn = ([self.training_lists(stage) for stage in stages] if source == "mixed"
                     else self.run(source, "train"))
            with _stage("gen-train"):
                if source == "mixed":
                    lists = mix_training_data(*drawn, seed=seed)
                    report = {"lists": len(lists), "sources": list(stages)}
                else:
                    lists, report = build_candidate_lists(drawn, self.train_qrels, c.window,
                                                          seed=seed)
                    if not lists:
                        raise ValueError(
                            f"no training lists from source {source!r}: no train "
                            "query has a judged-relevant passage")
                save_candidate_lists(lists, self._out(f"lists_{source}.jsonl"))
                write_json(report, self._out(f"lists_{source}_report.json"))
                self._lists[source] = (lists, report)
        return self._lists[source][0]

    def reranker(self, source: str) -> RerankerParams:
        if source not in self._rerankers:
            lists = self.training_lists(source)
            encoder = self.encoder
            with _stage("train-reranker"):
                c = self.config
                seed = _seeded(c.seed, _SOURCES[source][2])
                init = init_reranker(seed=seed, embeddings=encoder.embeddings)
                params = train_reranker(lists, self.train_queries, self.corpus,
                                        replace(c.reranker, seed=seed), init=init)
                save_reranker(params, self._out(f"reranker_{source}.npz"))
                self._rerankers[source] = params
        return self._rerankers[source]

    def reranked_run(self, source: str, first_stage: str) -> RunFile:
        params = self.reranker(source)
        base = self.run(first_stage, "test")
        with _stage("rerank"):
            out = rerank(params, base, self.test_queries, self.corpus,
                         top_k=self.config.rerank_top_k,
                         run_tag=f"rr-{source}-on-{first_stage}")
            write_run(out, self._out(f"run_rerank_{source}_on_{first_stage}.trec"))
        return out

    def write_manifest(self) -> dict:
        with _stage("manifest"):
            workdir = os.path.abspath(self.config.workdir)
            files = {}
            # keyed by config field, so inputs that share a basename stay apart
            for name, path in self._read.items():
                files["input:" + name] = _sha256(path)
            for path in sorted(set(self._written)):
                rel = os.path.relpath(os.path.abspath(path), workdir)
                files[rel.replace(os.sep, "/")] = _sha256(path)
            manifest = {"files": files}
            write_json(manifest, os.path.join(workdir, "manifest.json"))
            return manifest


def _run_name(source: str, first_stage: str) -> str:
    return first_stage if source == "none" else f"rerank_{source}_on_{first_stage}"


def _run_cells(config: ExperimentConfig, cells: list[tuple[str, str]]
               ) -> tuple[_Experiment, dict[tuple[str, str], dict[str, MetricReport]]]:
    """The reported metrics of each (training source, first stage) cell, from
    one experiment under ``config.workdir``.  Source "none" is the first
    stage's own test run; any other source's cell is that run reranked by the
    reranker trained on the source's lists."""
    exp = _Experiment(config, cells)
    reports = {}
    for source, first in cells:
        run = exp.run(first, "test") if source == "none" else exp.reranked_run(source, first)
        with _stage("evaluate"):
            reports[(source, first)] = reported_metrics(run, exp.test_qrels)
    return exp, reports


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the full pipeline: every first stage's test run and, unless
    ``training_source`` is "none", the one cell (``training_source``,
    ``rerank_first_stage``); returns a report with metrics and manifest."""
    source = config.training_source
    reranked = None if source == "none" else (source, config.rerank_first_stage)
    cells = [("none", first) for first in FIRST_STAGES] + ([reranked] if reranked else [])
    exp, reports = _run_cells(config, cells)
    metrics = {_run_name(*cell): {name: r.mean for name, r in report.items()}
               for cell, report in reports.items()}
    report = {
        "lambda": exp.hybrid_index.lam,
        "metrics": metrics,
        "reranked_run": _run_name(*reranked) if reranked else None,
        "flagged_lists": {s: r.get("short_pool", []) for s, (_, r) in exp._lists.items()},
    }
    write_json(metrics, exp._out("metrics.json"))
    with open(exp._out("metrics_table.txt"), "w", encoding="utf-8") as f:
        f.write(format_metric_table(metrics) + "\n")
    write_json(report, exp._out("report.json"))
    report["manifest"] = exp.write_manifest()
    return report


def ablation_matrix(config: ExperimentConfig) -> dict:
    """Every cell of rerankers by training source (rows, ``TRAINING_SOURCES``)
    applied to each first stage (columns); row "none" is the first stage
    itself.

    Returns {"lambda": ..., "matrix": {metric: {row: {col: mean}}}}, one
    matrix per reported metric, and writes the same to the workdir.  The
    config's ``training_source`` and ``rerank_first_stage`` are ignored and
    written to ``config.json`` at their defaults, so ablations that differ
    only in them leave equal manifests.
    """
    cells = [(row, col) for row in TRAINING_SOURCES for col in FIRST_STAGES]
    exp, reports = _run_cells(replace(config, **_CELL_CHOICE), cells)
    matrix = {name: {row: {col: reports[(row, col)][name].mean for col in FIRST_STAGES}
                     for row in TRAINING_SOURCES}
              for name in REPORTED_METRICS}
    report = {"lambda": exp.hybrid_index.lam, "matrix": matrix}
    write_json(report, exp._out("ablation.json"))
    with open(exp._out("ablation_table.txt"), "w", encoding="utf-8") as f:
        for name, table in matrix.items():
            f.write(f"{name}\n{format_metric_table(table)}\n\n")
    report["manifest"] = exp.write_manifest()
    return report
