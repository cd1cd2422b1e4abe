"""MRR@k, nDCG@k and Recall@k with TREC run-file interchange.

Means are taken over the queries that have at least one judged-relevant
passage in the qrels; such a query missing from a run scores 0 rather than
being dropped, so runs that fail to retrieve anything are not rewarded.
Queries appearing in a run without any relevant judgment are excluded from
the mean and reported.  Every metric is computed from the 1-based ranks
of a query's relevant passages (``query_metric``), whether they come from a
run or are counted without one (``hybrid.lambda_curve``).

A run (``RunFile``) maps each query id to a ``results.Ranking``, the one form
of a ranked run: an id column and a float64 score column.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import log2

import numpy as np

from .corpus import QrelSet
from .results import CandidateList, Ranking

METRIC_IDS = ("mrr", "ndcg", "recall")
# the metrics a run is reported by: name -> (metric id, cutoff)
REPORTED_METRICS = {"mrr@10": ("mrr", 10), "ndcg@10": ("ndcg", 10),
                    "recall@100": ("recall", 100)}


@dataclass
class RunFile:
    """Named per-query rankings: query id -> ``Ranking``.

    Each ranking given, a Ranking or a sequence of (passage_id, score) pairs,
    is held as a Ranking from construction on.
    """

    run_tag: str
    rankings: dict[str, Ranking] = field(default_factory=dict)

    def __post_init__(self):
        self.rankings = {qid: Ranking.of(r) for qid, r in self.rankings.items()}

    @classmethod
    def from_candidates(cls, lists: list[CandidateList], run_tag: str) -> "RunFile":
        return cls(run_tag, {cl.query_id: Ranking(cl.passage_ids(),
                                                  [it.score for it in cl.items])
                             for cl in lists})


@dataclass
class MetricReport:
    metric_id: str
    cutoff: int
    per_query: dict[str, float]
    mean: float
    excluded: list[str] = field(default_factory=list)


def _judged_queries(run: RunFile, qrels: QrelSet) -> tuple[list[str], list[str]]:
    universe = qrels.query_ids()
    if not universe:
        raise ValueError("no judged queries: qrels contain no relevant passage")
    excluded = sorted(set(run.rankings) - set(universe))
    return universe, excluded


def query_metric(metric_id: str, k: int, grades: list[int],
                 hits: list[tuple[int, int]]) -> float:
    """One query's ``metric_id``@k from where its relevant passages rank.

    - mrr: reciprocal rank of the first relevant passage within the top k.
    - ndcg: linear-gain DCG (grade / log2(rank + 1)) normalized by the ideal
      ordering.
    - recall: fraction of the query's relevant passages found in the top k.

    ``grades`` holds the grade of each of the query's judged-relevant
    passages, ``hits`` the (1-based rank, grade) of those that were ranked,
    each passage once.  nDCG sums only the relevant hits, in rank order: a
    passage of grade 0 between them would add 0.0, which changes no sum.
    """
    top = sorted(hit for hit in hits if hit[0] <= k)
    if metric_id == "mrr":
        return 1.0 / top[0][0] if top else 0.0
    if metric_id == "recall":
        return len(top) / len(grades)
    dcg = 0.0
    for rank, grade in top:
        dcg += grade / log2(rank + 1)
    ideal = sorted(grades, reverse=True)[:k]
    idcg = sum(g / log2(r + 1) for r, g in enumerate(ideal, start=1))
    return dcg / idcg if idcg > 0 else 0.0


def compute_metric(run: RunFile, qrels: QrelSet, metric_id: str, cutoff: int) -> MetricReport:
    """``query_metric`` of each judged query's ranking in ``run``, and their
    mean in sorted query id order."""
    if metric_id not in METRIC_IDS:
        raise ValueError(f"unknown metric {metric_id!r}; expected one of {METRIC_IDS}")
    if cutoff < 1:
        raise ValueError("k must be >= 1")
    universe, excluded = _judged_queries(run, qrels)
    per_query = {}
    for qid in universe:
        relevant = qrels.relevant(qid)
        ids = run.rankings[qid].ids[:cutoff] if qid in run.rankings else ()
        hits = [(rank, relevant[pid]) for rank, pid in enumerate(ids, start=1)
                if pid in relevant]
        per_query[qid] = query_metric(metric_id, cutoff, list(relevant.values()), hits)
    mean = sum(per_query.values()) / len(per_query)
    return MetricReport(metric_id, cutoff, per_query, mean, excluded)


def reported_metrics(run: RunFile, qrels: QrelSet) -> dict[str, MetricReport]:
    """The run's report for each of ``REPORTED_METRICS``, by name."""
    return {name: compute_metric(run, qrels, metric_id, cutoff)
            for name, (metric_id, cutoff) in REPORTED_METRICS.items()}


def _ranking_fault(qid: str, ranking: Ranking) -> str | None:
    """Why ``ranking`` cannot be written, at its first faulty rank, or None.

    A rank's passage id must not repeat an earlier one, its score must be
    finite and not above the score before it; at one rank the checks go in
    that order.
    """
    faults = []
    if len(set(ranking.ids)) < len(ranking):
        seen = set()
        for i, pid in enumerate(ranking.ids):
            if pid in seen:
                faults.append((i, 0, f"duplicate passage {pid!r} in query {qid!r}"))
                break
            seen.add(pid)
    scores = ranking.scores
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        i = int(bad[0])
        faults.append((i, 1, f"score {float(scores[i])!r} at rank {i + 1} of query "
                             f"{qid!r} is not finite"))
    up = np.flatnonzero(scores[1:] > scores[:-1])
    if up.size:
        i = int(up[0]) + 1
        faults.append((i, 2, f"scores increase at rank {i + 1} of query {qid!r}"))
    return min(faults)[2] if faults else None


def write_run(run: RunFile, path) -> None:
    """TREC format: "qid Q0 docid rank score runtag", rank from 1, full precision.

    Within each query, passage ids must be distinct and scores finite and
    non-increasing.  Every ranking is checked before the file is opened, so a
    run that fails the checks writes nothing.
    """
    tag = run.run_tag
    if not tag or any(c.isspace() for c in tag):
        raise ValueError(f"run_tag must be nonempty without whitespace: {tag!r}")
    qids = sorted(run.rankings)
    for qid in qids:
        fault = _ranking_fault(qid, run.rankings[qid])
        if fault:
            raise ValueError(fault)
    with open(path, "w", encoding="utf-8") as f:
        for qid in qids:
            ranking = run.rankings[qid]
            ranks = range(1, len(ranking) + 1)
            f.write("".join([f"{qid} Q0 {pid} {rank} {score!r} {tag}\n" for rank, pid, score
                             in zip(ranks, ranking.ids, ranking.scores.tolist())]))


def read_run(path) -> RunFile:
    """Parse a TREC run file, validating consecutive ranks and unique docids.

    Each query's ids and scores are read into two columns: a line costs an id
    reference and 8 bytes of score, and each distinct passage id is held
    once, as the first str read for it.  Only the query being read keeps a
    set of its passage ids.  A query whose lines resume after another
    query's rebuilds its set once and keeps it, so an interleaved file still
    reads in linear time.
    """
    columns: dict[str, tuple[list[str], array]] = {}
    passage_ids: dict[str, str] = {}
    resumed: dict[str, set[str]] = {}
    current = None
    run_tag = "run"
    with open(path, encoding="utf-8-sig") as f:
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
            if qid != current:
                current = qid
                if qid not in columns:
                    columns[qid] = ([], array("d"))
                    seen = set()
                elif qid in resumed:
                    seen = resumed[qid]
                else:
                    seen = resumed[qid] = set(columns[qid][0])
                ids, scores = columns[qid]
            if rank != len(ids) + 1:
                raise ValueError(
                    f"{path}: line {lineno}: rank {rank} for query {qid!r}, "
                    f"expected {len(ids) + 1}")
            if pid in seen:
                raise ValueError(f"{path}: line {lineno}: duplicate passage {pid!r} "
                                 f"in query {qid!r}")
            pid = passage_ids.setdefault(pid, pid)
            seen.add(pid)
            ids.append(pid)
            scores.append(score)
    # popped as they are converted, so only one query's columns are held twice
    rankings = {qid: Ranking(*columns.pop(qid)) for qid in list(columns)}
    return RunFile(run_tag=run_tag, rankings=rankings)


def format_metric_table(rows: dict[str, dict[str, float]]) -> str:
    """Aligned text table: row label -> {column label -> value}; every row
    has the first row's columns."""
    columns = list(next(iter(rows.values())))
    label_w = max([len(r) for r in rows] + [4])
    col_w = max([len(c) for c in columns] + [8])
    lines = [" " * label_w + "  " + "  ".join(c.rjust(col_w) for c in columns)]
    for label, values in rows.items():
        cells = [f"{values[c]:.4f}".rjust(col_w) for c in columns]
        lines.append(label.ljust(label_w) + "  " + "  ".join(cells))
    return "\n".join(lines)
