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

``tune_lambda`` picks the weight from ``DEFAULT_LAMBDA_GRID``, the one grid,
by MRR@10 on judged queries, counting, not ranking: per weight it needs only
the rank of each relevant passage, which is one plus the passages that score
above it or tie it with a smaller id (``lambda_curve``).

``save_hybrid_index`` writes the index as one ``<prefix>.npz`` (``npzio``
layout, format ``hybridrank-hybrid-v2``) holding what scoring reads.  Its
header has ``lambda``, the encoder's ``seed`` and the BM25 fields
(``Bm25Index.fields``: the passage ids, ``k``, ``b`` and the tokenizer
sizes); its arrays are the four BM25 posting arrays, the encoder's
``embeddings`` table and the L2-normalized passage rows ``dense_rows``.
"""

from __future__ import annotations

import math

import numpy as np

from .bm25 import Bm25Index
from .corpus import QrelSet, Query
from .dense import EncoderParams, query_cosines, row_norms, vocabulary_table
from .evaluation import query_metric
from .npzio import deterministic_savez, load_npz
from .results import CandidateList, Ranking, ranked_list, top_k

HYBRID_FORMAT = "hybridrank-hybrid-v2"
FIRST_STAGES = ("bm25", "de", "hybrid")
# the weights tune_lambda tries: ascending, distinct, finite and >= 0
DEFAULT_LAMBDA_GRID = tuple(float(v) for v in range(50, 751, 50))


class HybridIndex:
    """BM25 index plus aligned, L2-normalized dense passage rows and a weight."""

    def __init__(self, bm25_index: Bm25Index, encoder: EncoderParams,
                 dense_rows: np.ndarray, lam: float):
        if not 0 <= lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {lam}")
        dense_rows = np.asarray(dense_rows, dtype=np.float64)
        if dense_rows.shape != (len(bm25_index), encoder.dim):
            raise ValueError(
                f"dense_rows shape {dense_rows.shape} does not match "
                f"{(len(bm25_index), encoder.dim)}")
        norms = row_norms(dense_rows)
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
                query_cosines(self.encoder, self.dense_rows, query))

    def cut(self, stage: str, bm25_scores: np.ndarray, cos: np.ndarray, k: int) -> Ranking:
        """The top k of ``stage`` (one of ``FIRST_STAGES``), from a query's
        score components."""
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
    return ranked_list(query.id, index.cut("hybrid", *index.score_components(query),
                                           k_results))


def _contenders(bm25_scores: np.ndarray, cos: np.ndarray, rel: np.ndarray,
                lams: np.ndarray, reach: float) -> np.ndarray:
    """Corpus positions of the passages that may precede or tie a passage of
    ``rel`` in the fused ranking at some weight of ``lams``.

    ``lams`` ascend, finite and >= 0.  ``reach`` is M = max |bm25| + lams[-1]
    * max |cos|; an M that overflows keeps every passage.  Fused scores are
    linear in lam, so a passage below every passage of ``rel`` at lams[0]
    and at lams[-1] is below them at every weight between, and is left out.

    Rounding: let u = 2**-53.  A computed fused score at a weight in range
    is within 2.01 u M of the exact one (one rounding of lam * cos and one
    of the sum).  At each end, the threshold m - s (m the lowest computed
    score in ``rel``, s = 8 eps M = 16 u M, itself computed within
    0.01 u M) is computed within 1.01 u M.  So a passage computed below it
    at both ends is, exactly, more than s - 5.04 u M > 10.9 u M below every
    passage of ``rel`` at both ends, hence at every weight between, and
    computed more than 10.9 u M - 4.02 u M below it: strictly, so it does
    not even tie.  This holds barring underflow, which would need
    |lam * cos| below 2**-1022.
    """
    slack = 8 * np.finfo(np.float64).eps * reach
    below = np.ones(len(cos), dtype=bool)
    for lam in (lams[0], lams[-1]):
        fused = bm25_scores + lam * cos
        # with no passage of rel in the corpus the floor is inf: none is kept
        below &= fused < fused[rel].min(initial=math.inf) - slack
    return np.flatnonzero(~below)


def _relevant_ranks(index: HybridIndex, query: Query, rel: np.ndarray,
                    lams: np.ndarray) -> np.ndarray:
    """(weights, passages) array: the 1-based rank of each passage at corpus
    position ``rel`` in the fused ranking at each weight of ``lams``.

    Passage r's rank is 1 plus the passages scoring above it plus those
    tying it with a smaller id rank: its place in ``top_k_order``, found
    without a sort, over the ``_contenders`` only.  A bm25 score or cosine
    that is not finite raises, naming the query.
    """
    bm25_scores, cos = index.score_components(query)
    big_b, big_c = float(np.abs(bm25_scores).max()), float(np.abs(cos).max())
    if not (math.isfinite(big_b) and math.isfinite(big_c)):
        raise ValueError(f"query {query.id!r} has a bm25 score or cosine that is not finite")
    keep = _contenders(bm25_scores, cos, rel, lams, big_b + lams[-1] * big_c)
    id_rank = index.bm25.id_rank[keep]
    at = np.searchsorted(keep, rel)
    fused = bm25_scores[keep] + lams[:, None] * cos[keep]
    # (weights, kept, rel) by broadcasting
    other, mine = fused[:, :, None], fused[:, None, at]
    ahead = (other > mine) | ((other == mine) & (id_rank[:, None] < id_rank[at]))
    return 1 + ahead.sum(axis=1)


def lambda_curve(index: HybridIndex, queries: list[Query],
                 qrels: QrelSet) -> dict[float, float]:
    """Mean MRR@10 of the fused ranking at each weight of
    ``DEFAULT_LAMBDA_GRID``, in its order, over the ``queries`` that have a
    relevant judgment.

    The means are those of ranking every passage at each weight
    (``top_k_order``) and scoring the lists with ``compute_metric`` against
    the judgments of ``queries``, bit for bit.  Each judged query is scored
    once and only the ranks of its relevant passages are counted
    (``_relevant_ranks``); a judged passage absent from the corpus is never
    ranked.
    """
    lams = np.asarray(DEFAULT_LAMBDA_GRID)
    by_id = {q.id: q for q in queries}
    judged = sorted(qid for qid in by_id if qrels.relevant(qid))
    if not judged:
        raise ValueError("no judged queries: no query has a relevant passage in the qrels")
    position = {pid: i for i, pid in enumerate(index.ids)}
    rows = []
    for qid in judged:
        grades = qrels.relevant(qid)
        rel = [pid for pid in grades if pid in position]
        ranks = _relevant_ranks(index, by_id[qid],
                                np.array([position[pid] for pid in rel], dtype=np.int64),
                                lams)
        rows.append([query_metric("mrr", 10, list(grades.values()),
                                  [(rank, grades[pid]) for rank, pid in zip(row, rel)])
                     for row in ranks.tolist()])
    return {lam: sum(col) / len(rows) for lam, col in zip(lams.tolist(), zip(*rows))}


def tune_lambda(index: HybridIndex, queries: list[Query], qrels: QrelSet) -> float:
    """The grid weight with the best ``lambda_curve`` mean; exact ties go to
    the smallest weight."""
    curve = lambda_curve(index, queries, qrels)
    return max(curve, key=curve.get)


def save_hybrid_index(index: HybridIndex, prefix) -> list[str]:
    """Write ``<prefix>.npz`` and return its path in a list; reloading it
    reproduces scores bit-exactly.  Raises ValueError, and writes nothing,
    unless the encoder table has one row per vocabulary id."""
    path = f"{prefix}.npz"
    vocabulary_table(index.encoder.embeddings, path)
    header, postings = index.bm25.fields()
    header |= {"format": HYBRID_FORMAT, "lambda": index.lam, "seed": index.encoder.seed}
    deterministic_savez(path, header, embeddings=index.encoder.embeddings,
                        dense_rows=index.dense_rows, **postings)
    return [path]


def load_hybrid_index(prefix) -> HybridIndex:
    """The index ``save_hybrid_index`` wrote to ``<prefix>.npz``.  Raises
    ValueError unless the file's format, tokenizer sizes and encoder table
    are this version's."""
    path = f"{prefix}.npz"
    header, data = load_npz(path, HYBRID_FORMAT)
    bm25_index = Bm25Index.from_fields(header, data, path)
    encoder = EncoderParams(embeddings=vocabulary_table(data["embeddings"], path),
                            seed=header["seed"])
    return HybridIndex(bm25_index, encoder, data["dense_rows"], header["lambda"])
