"""Score-level fusion of BM25 and dense cosine retrieval.

A hybrid score is bm25(q, p) + lam * cos(q, p).  Because the dense passage
rows are stored L2-normalized, this equals a single inner product between
concatenated vectors [q_sparse; lam * q_dense / |q_dense|] and
[p_sparse; p_dense / |p_dense|], so exhaustive inner-product search over the
concatenation and score-level fusion give the same ranking.

``HybridIndex.score_components`` is the one path from a query to its scores:
BM25 scores (``Bm25Index.scores``) and cosines (``dense.query_cosines``).
``HybridIndex.cut`` turns them into any first stage's top k.  The bm25 stage
keeps only passages that score > 0, which are exactly the passages sharing a
term with the query; de and hybrid rank every passage.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .bm25 import Bm25Index, load_index, save_index
from .corpus import QrelSet, Query
from .dense import EncoderParams, load_encodings, load_params, query_cosines, \
    save_encodings, save_params
from .evaluation import RunFile, compute_metric
from .npzio import write_json
from .results import CandidateList, ranked_list, top_k, top_k_order

HYBRID_FORMAT = "hybridrank-hybrid-v1"
FIRST_STAGES = ("bm25", "de", "hybrid")
DEFAULT_LAMBDA_GRID = tuple(float(v) for v in range(50, 751, 50))


class HybridIndex:
    """BM25 index plus aligned, L2-normalized dense passage rows and a weight."""

    def __init__(self, bm25_index: Bm25Index, encoder: EncoderParams,
                 dense_rows: np.ndarray, lam: float):
        if lam < 0:
            raise ValueError(f"lam must be >= 0, got {lam}")
        if encoder.vocab_size != bm25_index.stats.vocab_size:
            raise ValueError(
                f"encoder vocab_size {encoder.vocab_size} != index vocab_size "
                f"{bm25_index.stats.vocab_size}")
        dense_rows = np.asarray(dense_rows, dtype=np.float64)
        if dense_rows.shape != (len(bm25_index), encoder.dim):
            raise ValueError(
                f"dense_rows shape {dense_rows.shape} does not match "
                f"{(len(bm25_index), encoder.dim)}")
        norms = np.linalg.norm(dense_rows, axis=1)
        if not np.all((np.abs(norms - 1.0) < 1e-6) | (norms == 0.0)):
            raise ValueError("dense_rows must be L2-normalized (zero rows allowed)")
        self.bm25 = bm25_index
        self.encoder = encoder
        self.dense_rows = dense_rows
        self.lam = float(lam)
        self.ids = bm25_index.ids

    def with_lambda(self, lam: float) -> "HybridIndex":
        return HybridIndex(self.bm25, self.encoder, self.dense_rows, lam)

    def __len__(self) -> int:
        return len(self.ids)

    def score_components(self, query: Query) -> tuple[np.ndarray, np.ndarray]:
        """(bm25 scores, dense cosines) over all passages in corpus order."""
        return (self.bm25.scores(query),
                query_cosines(self.encoder, self.dense_rows, query,
                              self.bm25.query_max_length))

    def cut(self, stage: str, bm25_scores: np.ndarray, cos: np.ndarray,
            k: int) -> tuple[list[str], list[float]]:
        """Ids and scores of the top k of ``stage`` (one of ``FIRST_STAGES``),
        from a query's score components."""
        if stage == "bm25":
            # a passage scores > 0 exactly when it shares a term with the query
            scores, k = bm25_scores, min(k, int(np.count_nonzero(bm25_scores > 0)))
        elif stage == "de":
            scores = cos
        else:
            scores = bm25_scores + self.lam * cos
        return top_k(scores, self.bm25.id_rank, self.ids, k)


def hybrid_retrieve(index: HybridIndex, query: Query, k_results: int) -> CandidateList:
    """Exhaustive top-k by fused score over every passage in the index."""
    if k_results < 1:
        raise ValueError(f"k_results must be >= 1, got {k_results}")
    return ranked_list(query.id, *index.cut("hybrid", *index.score_components(query),
                                            k_results))


def _restrict_qrels(qrels: QrelSet, queries: list[Query]) -> QrelSet:
    wanted = {q.id for q in queries}
    subset = QrelSet()
    for (qid, pid), grade in qrels.judgments.items():
        if qid in wanted:
            subset.set(qid, pid, grade)
    return subset


def _sweep(bm25_scores: np.ndarray, cos: np.ndarray, values: list[float],
           id_rank: np.ndarray, cutoff: int):
    """Yield (lam, fused scores, top_k_order of them) for each ascending weight.

    Each weight after the first is warm-started from the previous weight's
    top ``cutoff``: the lowest of their scores at the new weight, the floor,
    is at most the new ``cutoff``-th best score, so every passage below it
    can be left out.  The kept passages (``>=``, so ties and -0.0 stay)
    give the same first ``cutoff`` as a full ``top_k_order``.  A NaN floor
    falls back to the full one, which sorts NaN last.
    """
    order = None
    for lam in values:
        total = bm25_scores + lam * cos
        floor = np.nan if order is None else total[order].min()
        if np.isnan(floor):
            order = top_k_order(total, id_rank, cutoff)
        else:
            keep = np.flatnonzero(total >= floor)
            order = keep[top_k_order(total[keep], id_rank[keep], cutoff)]
        yield lam, total, order


def tune_lambda(index: HybridIndex, queries: list[Query], qrels: QrelSet,
                grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID, metric: str = "mrr",
                cutoff: int = 10) -> float:
    """Pick the fusion weight from a grid by mean retrieval quality.

    Evaluates each candidate weight on the given queries and returns the best;
    exact ties go to the smallest weight.  Each query is scored once and
    re-weighted per candidate (``_sweep``), keeping only each weight's
    top-``cutoff`` list.
    """
    values = sorted({float(g) for g in grid})
    if not values:
        raise ValueError("lambda grid must be nonempty")
    if values[0] < 0:
        raise ValueError(f"lambda grid values must be >= 0, got {values[0]}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if not queries:
        raise ValueError("tune_lambda needs at least one query")
    subset = _restrict_qrels(qrels, queries)

    # lam -> {query id: top-cutoff (passage id, score)}
    rankings: dict[float, dict[str, list[tuple[str, float]]]] = {lam: {} for lam in values}
    ids = index.ids
    for q in queries:
        bm25_scores, cos = index.score_components(q)
        for lam, total, order in _sweep(bm25_scores, cos, values, index.bm25.id_rank,
                                        cutoff):
            rankings[lam][q.id] = list(zip([ids[i] for i in order.tolist()],
                                           total[order].tolist()))

    best_lam = None
    best_mean = -1.0
    for lam in values:
        mean = compute_metric(RunFile("tune", rankings[lam]), subset, metric, cutoff).mean
        if best_lam is None or mean > best_mean:
            best_lam, best_mean = lam, mean
    return best_lam


def save_hybrid_index(index: HybridIndex, prefix) -> None:
    """Write <prefix>.json plus npz parts; reload reproduces scores bit-exactly."""
    prefix = str(prefix)
    save_index(index.bm25, prefix + ".bm25.npz")
    save_params(index.encoder, prefix + ".encoder.npz")
    save_encodings(list(index.ids), index.dense_rows, prefix + ".encodings.npz")
    meta = {
        "format": HYBRID_FORMAT,
        "lambda": index.lam,
        "files": {
            "bm25": os.path.basename(prefix) + ".bm25.npz",
            "encoder": os.path.basename(prefix) + ".encoder.npz",
            "encodings": os.path.basename(prefix) + ".encodings.npz",
        },
    }
    write_json(meta, prefix + ".json")


def load_hybrid_index(prefix) -> HybridIndex:
    prefix = str(prefix)
    with open(prefix + ".json", encoding="utf-8") as f:
        meta = json.load(f)
    if meta.get("format") != HYBRID_FORMAT:
        raise ValueError(f"{prefix}.json: unexpected format {meta.get('format')!r}")
    base = os.path.dirname(prefix)
    bm25_index = load_index(os.path.join(base, meta["files"]["bm25"]))
    encoder = load_params(os.path.join(base, meta["files"]["encoder"]))
    ids, rows = load_encodings(os.path.join(base, meta["files"]["encodings"]))
    if ids != list(bm25_index.ids):
        raise ValueError(f"{prefix}: encodings ids do not match the BM25 index")
    return HybridIndex(bm25_index, encoder, rows, float(meta["lambda"]))
