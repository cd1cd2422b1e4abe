"""Score-level fusion of BM25 and dense cosine retrieval.

A hybrid score is bm25(q, p) + lam * cos(q, p).  Because the dense passage
rows are stored L2-normalized, this equals a single inner product between
concatenated vectors [q_sparse; lam * q_dense / |q_dense|] and
[p_sparse; p_dense / |p_dense|], so exhaustive inner-product search over the
concatenation and score-level fusion give the same ranking.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .bm25 import Bm25Index, Bm25Params, load_index, save_index
from .corpus import DEFAULT_PASSAGE_LENGTH, DEFAULT_QUERY_LENGTH, DEFAULT_VOCAB_SIZE, \
    Corpus, QrelSet, Query
from .dense import EncoderParams, encode_corpus, encode_text, load_encodings, \
    load_params, normalize_rows, save_encodings, save_params
from .evaluation import RunFile, compute_metric
from .npzio import write_json
from .results import CandidateItem, CandidateList, top_k_order

HYBRID_FORMAT = "hybridrank-hybrid-v1"
DEFAULT_LAMBDA = 600.0
DEFAULT_LAMBDA_GRID = tuple(float(v) for v in range(50, 751, 50))


class HybridIndex:
    """BM25 index plus aligned, L2-normalized dense passage rows and a weight."""

    def __init__(self, bm25_index: Bm25Index, encoder: EncoderParams,
                 dense_rows: np.ndarray, lam: float = DEFAULT_LAMBDA):
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

    @classmethod
    def from_corpus(cls, corpus: Corpus, encoder: EncoderParams,
                    lam: float = DEFAULT_LAMBDA, params: Bm25Params | None = None,
                    vocab_size: int = DEFAULT_VOCAB_SIZE,
                    max_length: int = DEFAULT_PASSAGE_LENGTH,
                    query_max_length: int = DEFAULT_QUERY_LENGTH) -> "HybridIndex":
        index = Bm25Index(corpus, params=params, vocab_size=vocab_size,
                          max_length=max_length, query_max_length=query_max_length)
        rows = normalize_rows(encode_corpus(encoder, corpus, max_length))
        return cls(index, encoder, rows, lam)

    def with_lambda(self, lam: float) -> "HybridIndex":
        return HybridIndex(self.bm25, self.encoder, self.dense_rows, lam)

    def __len__(self) -> int:
        return len(self.ids)

    def query_direction(self, query: Query) -> np.ndarray:
        """Unit-norm dense query vector (zero vector if the encoding is zero)."""
        q = encode_text(self.encoder, query.text, self.bm25.query_max_length)
        n = float(np.linalg.norm(q))
        return q / n if n > 0.0 else np.zeros_like(q)

    def score_components(self, query: Query) -> tuple[np.ndarray, np.ndarray]:
        """(bm25 scores, dense cosines) over all passages in corpus order."""
        bm25_scores, _ = self.bm25.scores(query)
        cos = self.dense_rows @ self.query_direction(query)
        return bm25_scores, cos


def hybrid_retrieve(index: HybridIndex, query: Query, k_results: int) -> CandidateList:
    """Exhaustive top-k by fused score over every passage in the index."""
    if k_results < 1:
        raise ValueError(f"k_results must be >= 1, got {k_results}")
    bm25_scores, cos = index.score_components(query)
    total = bm25_scores + index.lam * cos
    order = top_k_order(total, index.bm25.id_rank, k_results)
    items = [CandidateItem(passage_id=index.ids[pos], score=float(total[pos]), rank=r)
             for r, pos in enumerate(order, start=1)]
    return CandidateList(query_id=query.id, items=items)


def _restrict_qrels(qrels: QrelSet, queries: list[Query]) -> QrelSet:
    wanted = {q.id for q in queries}
    subset = QrelSet()
    for (qid, pid), grade in qrels.judgments.items():
        if qid in wanted:
            subset.set(qid, pid, grade)
    return subset


def tune_lambda(index: HybridIndex, queries: list[Query], qrels: QrelSet,
                grid: tuple[float, ...] | None = None, metric: str = "mrr",
                cutoff: int = 10) -> float:
    """Pick the fusion weight from a grid by mean retrieval quality.

    Evaluates each candidate weight on the given queries and returns the best;
    exact ties go to the smallest weight.  Each query is scored once and
    re-weighted per candidate, keeping only each weight's top-``cutoff`` list.
    """
    values = sorted({float(g) for g in (grid if grid is not None else DEFAULT_LAMBDA_GRID)})
    if not values:
        raise ValueError("lambda grid must be nonempty")
    if values[0] < 0:
        raise ValueError(f"lambda grid values must be >= 0, got {values[0]}")
    if not queries:
        raise ValueError("tune_lambda needs at least one query")
    subset = _restrict_qrels(qrels, queries)

    # lam -> {query id: top-cutoff (passage id, score)}
    rankings: dict[float, dict[str, list[tuple[str, float]]]] = {lam: {} for lam in values}
    for q in queries:
        bm25_scores, cos = index.score_components(q)
        for lam in values:
            total = bm25_scores + lam * cos
            order = top_k_order(total, index.bm25.id_rank, cutoff)
            rankings[lam][q.id] = [(index.ids[pos], float(total[pos])) for pos in order]

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
