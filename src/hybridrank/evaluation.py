"""MRR@k, nDCG@k and Recall@k with TREC run-file interchange.

Means are taken over the queries that have at least one judged-relevant
passage in the qrels; such a query missing from a run scores 0 rather than
being dropped, so runs that fail to retrieve anything are not rewarded.
Queries appearing in a run without any relevant judgment are excluded from
the mean and reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import isfinite, log2

from .corpus import QrelSet
from .results import CandidateList

METRIC_IDS = ("mrr", "ndcg", "recall")


@dataclass
class RunFile:
    """Named per-query rankings: query id -> ordered (passage_id, score)."""

    run_tag: str
    rankings: dict[str, list[tuple[str, float]]] = field(default_factory=dict)

    @classmethod
    def from_candidates(cls, lists: list[CandidateList], run_tag: str) -> "RunFile":
        rankings = {}
        for cl in lists:
            rankings[cl.query_id] = [(it.passage_id, it.score) for it in cl.items]
        return cls(run_tag=run_tag, rankings=rankings)


@dataclass
class MetricReport:
    metric_id: str
    cutoff: int
    per_query: dict[str, float]
    mean: float
    excluded: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {"metric": self.metric_id, "cutoff": self.cutoff, "mean": self.mean,
             "num_queries": len(self.per_query), "num_excluded": len(self.excluded),
             "per_query": dict(sorted(self.per_query.items()))},
            indent=2, sort_keys=False)


def _judged_queries(run: RunFile, qrels: QrelSet) -> tuple[list[str], list[str]]:
    universe = qrels.query_ids()
    if not universe:
        raise ValueError("no judged queries: qrels contain no relevant passage")
    excluded = sorted(set(run.rankings) - set(universe))
    return universe, excluded


def mrr_at_k(run: RunFile, qrels: QrelSet, k: int = 10) -> MetricReport:
    """Reciprocal rank of the first relevant passage within the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    universe, excluded = _judged_queries(run, qrels)
    per_query = {}
    for qid in universe:
        value = 0.0
        for rank, (pid, _) in enumerate(run.rankings.get(qid, [])[:k], start=1):
            if qrels.grade(qid, pid) > 0:
                value = 1.0 / rank
                break
        per_query[qid] = value
    mean = sum(per_query.values()) / len(per_query)
    return MetricReport("mrr", k, per_query, mean, excluded)


def ndcg_at_k(run: RunFile, qrels: QrelSet, k: int = 10) -> MetricReport:
    """Linear-gain DCG (grade / log2(rank+1)) normalized by the ideal ordering."""
    if k < 1:
        raise ValueError("k must be >= 1")
    universe, excluded = _judged_queries(run, qrels)
    per_query = {}
    for qid in universe:
        dcg = 0.0
        for rank, (pid, _) in enumerate(run.rankings.get(qid, [])[:k], start=1):
            dcg += qrels.grade(qid, pid) / log2(rank + 1)
        ideal = sorted(qrels.relevant(qid).values(), reverse=True)[:k]
        idcg = sum(g / log2(r + 1) for r, g in enumerate(ideal, start=1))
        per_query[qid] = dcg / idcg if idcg > 0 else 0.0
    mean = sum(per_query.values()) / len(per_query)
    return MetricReport("ndcg", k, per_query, mean, excluded)


def recall_at_k(run: RunFile, qrels: QrelSet, k: int = 100) -> MetricReport:
    """Fraction of a query's relevant passages found in the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    universe, excluded = _judged_queries(run, qrels)
    per_query = {}
    for qid in universe:
        relevant = set(qrels.relevant(qid))
        top = {pid for pid, _ in run.rankings.get(qid, [])[:k]}
        per_query[qid] = len(relevant & top) / len(relevant)
    mean = sum(per_query.values()) / len(per_query)
    return MetricReport("recall", k, per_query, mean, excluded)


def compute_metric(run: RunFile, qrels: QrelSet, metric_id: str, cutoff: int) -> MetricReport:
    if metric_id == "mrr":
        return mrr_at_k(run, qrels, cutoff)
    if metric_id == "ndcg":
        return ndcg_at_k(run, qrels, cutoff)
    if metric_id == "recall":
        return recall_at_k(run, qrels, cutoff)
    raise ValueError(f"unknown metric {metric_id!r}; expected one of {METRIC_IDS}")


def write_run(run: RunFile, path) -> None:
    """TREC format: "qid Q0 docid rank score runtag", rank from 1, full precision.

    Scores must be finite and non-increasing within each query.
    """
    if not run.run_tag or any(c.isspace() for c in run.run_tag):
        raise ValueError(f"run_tag must be nonempty without whitespace: {run.run_tag!r}")
    with open(path, "w", encoding="utf-8") as f:
        for qid in sorted(run.rankings):
            ranking = run.rankings[qid]
            seen = set()
            prev = None
            for rank, (pid, score) in enumerate(ranking, start=1):
                if pid in seen:
                    raise ValueError(f"duplicate passage {pid!r} in query {qid!r}")
                seen.add(pid)
                if not isfinite(score):
                    raise ValueError(
                        f"score {score!r} at rank {rank} of query {qid!r} is not finite")
                if prev is not None and score > prev:
                    raise ValueError(
                        f"scores increase at rank {rank} of query {qid!r}")
                prev = score
                f.write(f"{qid} Q0 {pid} {rank} {score!r} {run.run_tag}\n")


def read_run(path) -> RunFile:
    """Parse a TREC run file, validating consecutive ranks and unique docids."""
    rankings: dict[str, list[tuple[str, float]]] = {}
    seen: dict[str, set[str]] = {}
    run_tag = "run"
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise ValueError(f"{path}: line {lineno}: expected 6 fields, got {len(parts)}")
            qid, _, pid, rank_s, score_s, run_tag = parts
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad rank or score") from None
            ranking = rankings.setdefault(qid, [])
            if rank != len(ranking) + 1:
                raise ValueError(
                    f"{path}: line {lineno}: rank {rank} for query {qid!r}, "
                    f"expected {len(ranking) + 1}")
            if pid in seen.setdefault(qid, set()):
                raise ValueError(f"{path}: line {lineno}: duplicate passage {pid!r} "
                                 f"in query {qid!r}")
            seen[qid].add(pid)
            ranking.append((pid, score))
    return RunFile(run_tag=run_tag, rankings=rankings)


def format_metric_table(rows: dict[str, dict[str, float]]) -> str:
    """Aligned text table: row label -> {column label -> value}."""
    columns: list[str] = []
    for values in rows.values():
        for c in values:
            if c not in columns:
                columns.append(c)
    label_w = max([len(r) for r in rows] + [4])
    col_w = max([len(c) for c in columns] + [8])
    lines = [" " * label_w + "  " + "  ".join(c.rjust(col_w) for c in columns)]
    for label, values in rows.items():
        cells = [f"{values[c]:.4f}".rjust(col_w) if c in values else "-".rjust(col_w)
                 for c in columns]
        lines.append(label.ljust(label_w) + "  " + "  ".join(cells))
    return "\n".join(lines)
