"""Ranked runs and candidate lists shared by all retrievers and the reranker.

``Ranking`` is the one form of a ranked run: one query's passage ids and
their scores, best first, held as an id tuple and a read-only float64 array.
First stages, the reranker, run files and metrics all read and write it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import eq

import numpy as np

# entries a table-sized temporary holds at once: peak RSS keeps freed heap,
# so a whole-table temporary would cost its size for the rest of the run
BLOCK_ENTRIES = 1 << 16


class Ranking(Sequence):
    """One query's ranked (passage_id, score) pairs, as two columns.

    ``ids`` is a tuple of passage ids and ``scores`` a read-only float64 array
    of the same length, so an entry costs an id reference and 8 bytes rather
    than a tuple and a float object.  Iteration and indexing yield
    ``(str, float)`` pairs with Python floats, slicing yields a Ranking, and a
    Ranking compares equal to a list or tuple of equal pairs.  The scores are
    copied; nothing checks ids or order (``evaluation.write_run`` does).
    """

    __slots__ = ("ids", "scores")

    def __init__(self, ids=(), scores=()):
        ids = tuple(ids)
        scores = np.array(scores, dtype=np.float64)
        if scores.shape != (len(ids),):
            raise ValueError(f"{len(ids)} ids but scores of shape {scores.shape}")
        scores.flags.writeable = False
        self.ids = ids
        self.scores = scores

    @classmethod
    def of(cls, pairs) -> "Ranking":
        """``pairs`` itself if it is a Ranking, else its (passage_id, score) pairs."""
        if isinstance(pairs, Ranking):
            return pairs
        return cls(*zip(*pairs)) if len(pairs) else cls()

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Ranking(self.ids[index], self.scores[index])
        return self.ids[index], float(self.scores[index])

    def __iter__(self):
        return zip(self.ids, self.scores.tolist())

    def __eq__(self, other):
        if isinstance(other, Ranking):
            return self.ids == other.ids and np.array_equal(self.scores, other.scores)
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Ranking({list(self)!r})"


@dataclass
class CandidateItem:
    passage_id: str
    score: float = 0.0
    label: int = 0
    # rank in the retriever run this item was sampled from; 0 = not retrieved
    retriever_rank: int = 0


@dataclass
class CandidateList:
    """One query's candidates in rank order, best first."""

    query_id: str
    items: list[CandidateItem] = field(default_factory=list)

    def passage_ids(self) -> list[str]:
        return [it.passage_id for it in self.items]


def blocks(n_rows: int, row_entries: int) -> list[slice]:
    """Slices of consecutive rows, each about BLOCK_ENTRIES entries and at
    least one row of ``row_entries`` entries; zero rows give one empty slice."""
    step = max(1, BLOCK_ENTRIES // max(row_entries, 1))
    return [slice(start, start + step) for start in range(0, max(n_rows, 1), step)]


def ranked_list(query_id: str, ranking: Ranking) -> CandidateList:
    """``ranking``'s passages as one query's candidates, in rank order."""
    # positional fields (passage_id, score): about half the cost of keywords
    return CandidateList(query_id, list(map(CandidateItem, ranking.ids,
                                            ranking.scores.tolist())))


def top_k(scores: np.ndarray, id_rank: np.ndarray, ids: list[str], k: int) -> Ranking:
    """The k best entries of ``scores``, in ``top_k_order``.

    ``ids[i]`` and ``id_rank[i]`` belong to ``scores[i]``.
    """
    order = top_k_order(scores, id_rank, k)
    return Ranking(map(ids.__getitem__, order.tolist()), scores[order])


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
