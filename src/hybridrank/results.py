"""Ranked candidate lists shared by all retrievers and the reranker."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CandidateItem:
    passage_id: str
    score: float
    rank: int  # 1-based
    label: int = 0
    # rank in the retriever run this item was sampled from; 0 = not retrieved
    retriever_rank: int = 0


@dataclass
class CandidateList:
    """One query's ordered candidates; ranks run 1..n consecutively."""

    query_id: str
    items: list[CandidateItem] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)

    def passage_ids(self) -> list[str]:
        return [it.passage_id for it in self.items]


def ranked_list(query_id: str, ids: list[str], scores: list[float]) -> CandidateList:
    """Ranks 1.. for ``ids`` in rank order, each with its entry of ``scores``."""
    # positional fields (passage_id, score, rank): about half the cost of keywords
    return CandidateList(query_id, list(map(CandidateItem, ids, scores,
                                            range(1, len(ids) + 1))))


def top_k(scores: np.ndarray, id_rank: np.ndarray, ids: list[str],
          k: int) -> tuple[list[str], list[float]]:
    """Ids and scores of the k best entries of ``scores``, in ``top_k_order``.

    ``ids[i]`` and ``id_rank[i]`` belong to ``scores[i]``.  The scores come
    from ``ndarray.tolist()``, the same Python floats as ``float(scores[i])``.
    """
    order = top_k_order(scores, id_rank, k)
    return [ids[i] for i in order.tolist()], scores[order].tolist()


def id_rank(ids) -> np.ndarray:
    """Each id's position in ascending id order: the tie-break key of every ranking.

    Ids compare as Python strings; they must be unique.
    """
    order = np.argsort(np.asarray(ids, dtype=object), kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return rank


def top_k_order(scores: np.ndarray, id_rank: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores, ties broken by ascending passage id.

    ``id_rank[i]`` must be the rank of passage i's id in ascending id order.
    The result is the first k of ``np.lexsort((id_rank, -scores))``: scores
    that compare equal (including -0.0 and 0.0) tie and go by id rank, and NaN
    scores sort after every number.  Only the indices that tie with or beat
    the k-th best score are sorted.
    """
    n = len(scores)
    if not 0 < k < n:
        return np.lexsort((id_rank, -scores))[:k]
    neg = -scores
    kth = np.partition(neg, k - 1)[k - 1]
    if np.isnan(kth):
        return np.lexsort((id_rank, neg))[:k]
    cand = np.flatnonzero(neg <= kth)
    return cand[np.lexsort((id_rank[cand], neg[cand]))[:k]]
