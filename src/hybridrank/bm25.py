"""BM25 as an explicit sparse vector model plus an inverted-index retriever.

Passage weights follow the standard saturation form

    weight(t) = IDF(t) * cnt * (k + 1) / (cnt + k * (1 - b + b * m / m_avg))

and query vectors are plain term counts, so the query/passage dot product
recovers the BM25 score. IDF uses the non-negative Lucene form
ln((N - df + 0.5) / (df + 0.5) + 1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import log

import numpy as np

from .corpus import (
    DEFAULT_PASSAGE_LENGTH,
    DEFAULT_QUERY_LENGTH,
    DEFAULT_VOCAB_SIZE,
    Corpus,
    Passage,
    Query,
    tokenize,
)
from .npzio import deterministic_savez, load_npz
from .results import CandidateItem, CandidateList, id_rank, top_k_order

# term-id -> weight, no explicit zero entries
SparseVector = dict[int, float]

INDEX_FORMAT = "hybridrank-bm25-v1"


@dataclass(frozen=True)
class Bm25Params:
    k: float = 0.9
    b: float = 0.8

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if not 0 <= self.b <= 1:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


# "default" matches the hybrid configuration; the anserini presets are the
# conventional standalone-baseline settings for the two benchmark families.
PARAM_PRESETS = {
    "default": Bm25Params(k=0.9, b=0.8),
    "msmarco-anserini": Bm25Params(k=0.82, b=0.68),
    "beir-anserini": Bm25Params(k=0.9, b=0.4),
}


@dataclass
class Bm25Stats:
    """Collection statistics: document count, per-term IDF and length info."""

    doc_count: int
    idf: dict[int, float]
    avg_length: float
    lengths: dict[str, int]
    vocab_size: int = DEFAULT_VOCAB_SIZE
    max_length: int = DEFAULT_PASSAGE_LENGTH


def _passage_counts(passage: Passage, vocab_size: int, max_length: int) -> Counter:
    return Counter(tokenize(passage.encoding_text(), vocab_size, max_length).tokens)


def compute_stats(corpus: Corpus, vocab_size: int = DEFAULT_VOCAB_SIZE,
                  max_length: int = DEFAULT_PASSAGE_LENGTH) -> Bm25Stats:
    """IDF, average length and per-passage lengths over a nonempty corpus."""
    counts = [_passage_counts(p, vocab_size, max_length) for p in corpus]
    return _stats_from_counts(corpus.ids(), counts, vocab_size, max_length)


def _stats_from_counts(ids: list[str], counts: list[Counter], vocab_size: int,
                       max_length: int) -> Bm25Stats:
    if not counts:
        raise ValueError("cannot compute BM25 statistics over an empty corpus")
    n = len(counts)
    df: Counter = Counter()
    lengths: dict[str, int] = {}
    for pid, c in zip(ids, counts):
        lengths[pid] = sum(c.values())
        df.update(c.keys())
    idf = {t: log((n - d + 0.5) / (d + 0.5) + 1.0) for t, d in df.items()}
    avg_length = sum(lengths.values()) / n
    return Bm25Stats(doc_count=n, idf=idf, avg_length=avg_length, lengths=lengths,
                     vocab_size=vocab_size, max_length=max_length)


def encode_passage(passage: Passage, stats: Bm25Stats, params: Bm25Params) -> SparseVector:
    """Sparse passage vector whose dot product with a query vector is BM25."""
    return _passage_vector(_passage_counts(passage, stats.vocab_size, stats.max_length),
                           stats, params)


def _passage_vector(counts: Counter, stats: Bm25Stats, params: Bm25Params) -> SparseVector:
    m = sum(counts.values())
    if m == 0:
        return {}
    norm = params.k * (1.0 - params.b + params.b * m / stats.avg_length)
    vec: SparseVector = {}
    for t, cnt in counts.items():
        idf = stats.idf.get(t, 0.0)
        w = idf * cnt * (params.k + 1.0) / (cnt + norm)
        if w != 0.0:
            vec[t] = w
    return vec


def encode_query(query: Query, vocab_size: int = DEFAULT_VOCAB_SIZE,
                 max_length: int = DEFAULT_QUERY_LENGTH) -> SparseVector:
    """Query vector of raw term counts."""
    counts = Counter(tokenize(query.text, vocab_size, max_length).tokens)
    return {t: float(c) for t, c in counts.items()}


def dot(a: SparseVector, b: SparseVector) -> float:
    # ascending term order makes the sum independent of argument order
    s = 0.0
    for t in sorted(a.keys() & b.keys()):
        s += a[t] * b[t]
    return s


class Bm25Index:
    """Inverted index over BM25 passage vectors."""

    def __init__(self, corpus: Corpus, params: Bm25Params | None = None,
                 vocab_size: int = DEFAULT_VOCAB_SIZE,
                 max_length: int = DEFAULT_PASSAGE_LENGTH,
                 query_max_length: int = DEFAULT_QUERY_LENGTH):
        params = params or Bm25Params()
        # each passage is tokenized once, for both the statistics and its vector
        counts = [_passage_counts(p, vocab_size, max_length) for p in corpus]
        stats = _stats_from_counts(corpus.ids(), counts, vocab_size, max_length)
        postings: dict[int, tuple[list[int], list[float]]] = {}
        for pos, c in enumerate(counts):
            vec = _passage_vector(c, stats, params)
            for t, w in vec.items():
                slot = postings.setdefault(t, ([], []))
                slot[0].append(pos)
                slot[1].append(w)
        self.params = params
        self.stats = stats
        self.query_max_length = query_max_length
        self.ids = corpus.ids()
        self.postings = {t: (np.asarray(ps, dtype=np.int64), np.asarray(ws, dtype=np.float64))
                         for t, (ps, ws) in postings.items()}
        self.id_rank = corpus.id_rank

    def __len__(self) -> int:
        return len(self.ids)

    def scores(self, query: Query) -> tuple[np.ndarray, np.ndarray]:
        """(scores over all passages, boolean matched mask), corpus order."""
        qvec = encode_query(query, self.stats.vocab_size, self.query_max_length)
        scores = np.zeros(len(self.ids), dtype=np.float64)
        matched = np.zeros(len(self.ids), dtype=bool)
        for t in sorted(qvec):
            slot = self.postings.get(t)
            if slot is None:
                continue
            positions, weights = slot
            scores[positions] += qvec[t] * weights
            matched[positions] = True
        return scores, matched


def retrieve(index: Bm25Index, query: Query, k_results: int) -> CandidateList:
    """Top-k passages by BM25 score; only passages sharing a term are returned."""
    if k_results < 1:
        raise ValueError(f"k_results must be >= 1, got {k_results}")
    scores, matched = index.scores(query)
    cand = np.nonzero(matched)[0]
    order = cand[top_k_order(scores[cand], index.id_rank[cand], k_results)]
    items = [CandidateItem(passage_id=index.ids[pos], score=float(scores[pos]), rank=r)
             for r, pos in enumerate(order, start=1)]
    return CandidateList(query_id=query.id, items=items)


def save_index(index: Bm25Index, path) -> None:
    """Persist the index so reloaded scoring is bit-for-bit identical."""
    terms = sorted(index.postings)
    indptr = [0]
    positions: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for t in terms:
        ps, ws = index.postings[t]
        positions.append(ps)
        weights.append(ws)
        indptr.append(indptr[-1] + len(ps))
    idf_terms = sorted(index.stats.idf)
    header = {
        "format": INDEX_FORMAT,
        "k": index.params.k,
        "b": index.params.b,
        "vocab_size": index.stats.vocab_size,
        "max_length": index.stats.max_length,
        "query_max_length": index.query_max_length,
        "doc_count": index.stats.doc_count,
        "avg_length": index.stats.avg_length,
        "ids": index.ids,
        "lengths": [index.stats.lengths[i] for i in index.ids],
    }
    deterministic_savez(
        path, header,
        terms=np.asarray(terms, dtype=np.int64),
        indptr=np.asarray(indptr, dtype=np.int64),
        positions=(np.concatenate(positions) if positions else np.empty(0, dtype=np.int64)),
        weights=(np.concatenate(weights) if weights else np.empty(0, dtype=np.float64)),
        idf_terms=np.asarray(idf_terms, dtype=np.int64),
        idf_values=np.asarray([index.stats.idf[t] for t in idf_terms], dtype=np.float64),
    )


def load_index(path) -> Bm25Index:
    header, data = load_npz(path, INDEX_FORMAT)
    index = Bm25Index.__new__(Bm25Index)
    index.params = Bm25Params(k=header["k"], b=header["b"])
    index.stats = Bm25Stats(
        doc_count=header["doc_count"],
        idf=dict(zip(data["idf_terms"].tolist(), data["idf_values"].tolist())),
        avg_length=header["avg_length"],
        lengths=dict(zip(header["ids"], header["lengths"])),
        vocab_size=header["vocab_size"],
        max_length=header["max_length"],
    )
    index.query_max_length = header["query_max_length"]
    index.ids = list(header["ids"])
    terms = data["terms"].tolist()
    indptr = data["indptr"]
    positions = data["positions"]
    weights = data["weights"]
    index.postings = {
        t: (positions[indptr[i]:indptr[i + 1]].copy(), weights[indptr[i]:indptr[i + 1]].copy())
        for i, t in enumerate(terms)
    }
    index.id_rank = id_rank(index.ids)
    return index
