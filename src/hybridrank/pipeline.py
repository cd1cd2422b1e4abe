"""End-to-end experiment orchestration with a reproducibility manifest.

A run goes: BM25 index -> dual encoder (supervised from train qrels) ->
fusion-weight tuning -> first-stage runs -> candidate-list sampling ->
reranker training -> rerank -> metrics.  Every file read or written lands in
a manifest of content hashes; identical configs give identical manifests.
Rerankers are named by the run their training lists were sampled from
(bm25 / de / hybrid / mixed).
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace

import numpy as np

from .bm25 import Bm25Index, Bm25Params
from .corpus import load_corpus, load_qrels, load_queries
from .dense import DeTrainConfig, EncoderParams, TrainPair, encode_corpus, \
    normalize_rows, save_params, train_de
from .evaluation import RunFile, format_metric_table, reported_metrics, write_run
from .hybrid import DEFAULT_LAMBDA_GRID, FIRST_STAGES, HybridIndex, lambda_grid, \
    save_hybrid_index, tune_lambda
from .npzio import write_json
from .reranker import RerankerParams, RerankTrainConfig, SamplingWindow, \
    build_candidate_lists, init_reranker, rerank, save_candidate_lists, \
    save_reranker, train_reranker
from .results import CandidateList, Ranking

TRAINING_SOURCES = ("bm25", "de", "hybrid", "mixed", "none")

# offsets mixed into config.seed so each stage gets its own stream
_SEED_DE = 1
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
    bm25: Bm25Params = Bm25Params()
    de: DeTrainConfig = DeTrainConfig()
    reranker: RerankTrainConfig = RerankTrainConfig()
    window: SamplingWindow = SamplingWindow(skip=0, depth=250, n_negatives=50)
    lambda_grid: tuple[float, ...] | None = None
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


def _seeded(base: int, offset: int) -> int:
    return base * 1000 + offset


_TOP_LEVEL_KEYS = tuple(f.name for f in fields(ExperimentConfig))
_REQUIRED_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.default is MISSING)
# section -> its type: the fields whose default is a dataclass
_CONFIG_SECTIONS = {f.name: type(f.default) for f in fields(ExperimentConfig)
                    if is_dataclass(f.default)}


def _section_keys(cls) -> tuple[str, ...]:
    """The fields a config file may set in a section: all but its seed, which
    the pipeline derives from the experiment's."""
    return tuple(f.name for f in fields(cls) if f.name != "seed")


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {}
    for key in _TOP_LEVEL_KEYS:
        value = getattr(config, key)
        if key in _CONFIG_SECTIONS:
            out[key] = {f: getattr(value, f) for f in _section_keys(_CONFIG_SECTIONS[key])}
        elif key == "lambda_grid":
            out[key] = list(value) if value is not None else None
        else:
            out[key] = value
    return out


# the JSON values a field of each annotated type takes; a bool takes none
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


def _typed(cls, values: dict) -> dict:
    """``values``, after a TypeError naming the first whose field of ``cls``
    is an int, float or str field that it does not fit."""
    annotations = {f.name: f.type for f in fields(cls)}
    for key, value in values.items():
        want = _FIELD_TYPES.get(annotations[key])
        if want is not None and (isinstance(value, bool) or not isinstance(value, want)):
            raise TypeError(f"{key} must be {annotations[key]}, got {value!r}")
    return values


def config_from_dict(data: dict) -> ExperimentConfig:
    """Raises ValueError naming the config, or its section, when ``data`` is
    not an experiment config: not an object, a key unknown or missing, a value
    of the wrong type (an int field takes an int, a float field an int or a
    float, a str field a str, and none takes a bool), a lambda grid that
    ``hybrid.lambda_grid`` rejects, or a value out of range."""
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(_TOP_LEVEL_KEYS)
    if unknown:
        raise ValueError(f"config: unknown keys {sorted(unknown)}")
    missing = [key for key in _REQUIRED_KEYS if key not in data]
    if missing:
        raise ValueError(f"config: missing required keys {missing}")
    kwargs = dict(data)
    for name, cls in _CONFIG_SECTIONS.items():
        if name in kwargs:
            section = kwargs[name]
            if not isinstance(section, dict):
                raise ValueError(f"config section {name!r} must be an object, "
                                 f"got {section!r}")
            unknown = set(section) - set(_section_keys(cls))
            if unknown:
                raise ValueError(f"config section {name!r}: unknown keys {sorted(unknown)}")
            try:
                kwargs[name] = cls(**_typed(cls, section))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config section {name!r}: {exc}") from None
    try:
        if kwargs.get("lambda_grid") is not None:
            kwargs["lambda_grid"] = lambda_grid(kwargs["lambda_grid"])
        return ExperimentConfig(**_typed(ExperimentConfig, kwargs))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config: {exc}") from None


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
        self.encoder: EncoderParams | None = None
        self.hybrid_index: HybridIndex | None = None

    # -- plumbing ---------------------------------------------------------

    def _out(self, name: str) -> str:
        path = os.path.join(self.config.workdir, name)
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
                pairs = []
                for q in self.train_queries:
                    for pid in sorted(self.train_qrels.relevant(q.id)):
                        pairs.append(TrainPair(query=q, positive=self.corpus.get(pid)))
                if not pairs:
                    raise ValueError("no supervised (query, passage) pairs in train qrels")
                self.encoder = train_de(pairs, replace(c.de, seed=_seeded(c.seed, _SEED_DE)))
                save_params(self.encoder, self._out("de_params.npz"))
        return self.encoder

    def build_hybrid(self) -> HybridIndex:
        if self.hybrid_index is None:
            c = self.config
            with _stage("index"):
                bm25_index = Bm25Index(self.corpus, params=c.bm25)
            encoder = self.train_encoder()
            with _stage("tune-lambda"):
                rows = normalize_rows(encode_corpus(encoder, self.corpus))
                index = HybridIndex(bm25_index, encoder, rows, lam=0.0)
                grid = c.lambda_grid if c.lambda_grid is not None else DEFAULT_LAMBDA_GRID
                lam = tune_lambda(index, self.train_queries, self.train_qrels, grid=grid)
                self.hybrid_index = index.with_lambda(lam)
                self._written += save_hybrid_index(
                    self.hybrid_index, os.path.join(c.workdir, "hybrid"))
                write_json({"lambda": lam, "grid": list(grid)}, self._out("lambda.json"))
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
                        rankings[stage][q.id] = Ranking(
                            *index.cut(stage, *components, self.config.run_depth))
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
                init = init_reranker(seed=seed, embeddings=encoder.embeddings)
                params = train_reranker(lists, self.train_queries, self.corpus,
                                        replace(c.reranker, seed=seed), init=init)
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
                             top_k=c.rerank_top_k, run_tag=f"rr-{source}-on-{first_stage}")
                write_run(out, self._out(f"run_rerank_{source}_on_{first_stage}.trec"))
                self._rerank_runs[key] = out
        return self._rerank_runs[key]

    def evaluate(self, run: RunFile) -> dict[str, float]:
        with _stage("evaluate"):
            return {name: report.mean
                    for name, report in reported_metrics(run, self.test_qrels).items()}

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
