"""BM25 as an explicit sparse vector model plus an inverted index that scores it.

Passage weights follow the standard saturation form

    weight(t) = IDF(t) * cnt * (k + 1) / (cnt + k * (1 - b + b * m / m_avg))

and query vectors are plain term counts, so the query/passage dot product
recovers the BM25 score. IDF uses the Lucene form
ln((N - df + 0.5) / (df + 0.5) + 1), which is > 0, so every posting weight and
every query term count is > 0: a passage scores > 0 exactly when it shares a
term with the query.  ``Bm25Index.scores`` gives the score vector; the bm25
first stage is cut from it in ``hybrid``, the one place a query is scored.
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
from .results import id_rank

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
    n = len(corpus)
    if n == 0:
        raise ValueError("cannot compute BM25 statistics over an empty corpus")
    df: Counter = Counter()
    lengths: dict[str, int] = {}
    for p in corpus:
        c = _passage_counts(p, vocab_size, max_length)
        lengths[p.id] = sum(c.values())
        df.update(c.keys())
    idf = {t: log((n - d + 0.5) / (d + 0.5) + 1.0) for t, d in df.items()}
    avg_length = sum(lengths.values()) / n
    return Bm25Stats(doc_count=n, idf=idf, avg_length=avg_length, lengths=lengths,
                     vocab_size=vocab_size, max_length=max_length)


def encode_passage(passage: Passage, stats: Bm25Stats, params: Bm25Params) -> SparseVector:
    """Sparse passage vector whose dot product with a query vector is BM25."""
    counts = _passage_counts(passage, stats.vocab_size, stats.max_length)
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
    """Inverted index over BM25 passage vectors, in the CSR form ``save_index`` writes.

    Term ``terms[i]`` (ascending) posts to the passages at corpus positions
    ``positions[indptr[i]:indptr[i + 1]]`` (ascending) with the matching
    ``weights``; the weights are ``encode_passage``'s, bit for bit.
    """

    def __init__(self, corpus: Corpus, params: Bm25Params | None = None,
                 vocab_size: int = DEFAULT_VOCAB_SIZE,
                 max_length: int = DEFAULT_PASSAGE_LENGTH,
                 query_max_length: int = DEFAULT_QUERY_LENGTH):
        params = params or Bm25Params()
        n = len(corpus)
        if n == 0:
            raise ValueError("cannot compute BM25 statistics over an empty corpus")
        store = corpus.token_store(vocab_size, max_length)
        lengths = np.diff(store.indptr)
        # one (passage, term, count) per distinct term of a passage, by passage
        keys, cnt = np.unique(np.repeat(np.arange(n), lengths) * vocab_size + store.ids,
                              return_counts=True)
        doc, term = np.divmod(keys, vocab_size)
        df = np.bincount(term, minlength=vocab_size)
        present = np.flatnonzero(df)
        idf = [log((n - d + 0.5) / (d + 0.5) + 1.0) for d in df[present].tolist()]
        stats = Bm25Stats(doc_count=n, idf=dict(zip(present.tolist(), idf)),
                          avg_length=int(lengths.sum()) / n,
                          lengths=dict(zip(corpus.ids(), lengths.tolist())),
                          vocab_size=vocab_size, max_length=max_length)
        # encode_passage's operations in its order, so the weights are its bits
        idf_of = np.zeros(vocab_size, dtype=np.float64)
        idf_of[present] = idf
        norm = params.k * (1.0 - params.b + params.b * lengths / stats.avg_length)
        cnt = cnt.astype(np.float64)
        w = idf_of[term] * cnt * (params.k + 1.0) / (cnt + norm[doc])
        keep = w != 0.0
        order = np.argsort(term[keep], kind="stable")  # by term, then passage
        self.terms, per_term = np.unique(term[keep], return_counts=True)
        self.indptr = np.concatenate([[0], np.cumsum(per_term)]).astype(np.int64)
        self.positions = doc[keep][order]
        self.weights = w[keep][order]
        self.params = params
        self.stats = stats
        self.query_max_length = query_max_length
        self.ids = corpus.ids()
        self.id_rank = corpus.id_rank

    def __len__(self) -> int:
        return len(self.ids)

    def scores(self, query: Query) -> np.ndarray:
        """BM25 score of every passage, corpus order; 0.0 where no term is shared."""
        qvec = encode_query(query, self.stats.vocab_size, self.query_max_length)
        scores = np.zeros(len(self.ids), dtype=np.float64)
        # ascending term order, so scores do not depend on the query's word order
        terms = sorted(qvec)
        for t, i in zip(terms, np.searchsorted(self.terms, terms).tolist()):
            if i == len(self.terms) or self.terms[i] != t:
                continue
            row = slice(self.indptr[i], self.indptr[i + 1])
            scores[self.positions[row]] += qvec[t] * self.weights[row]
        return scores


def save_index(index: Bm25Index, path) -> None:
    """Persist the index so reloaded scoring is bit-for-bit identical."""
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
        path, header, terms=index.terms, indptr=index.indptr,
        positions=index.positions, weights=index.weights,
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
    index.terms = data["terms"]
    index.indptr = data["indptr"]
    index.positions = data["positions"]
    index.weights = data["weights"]
    index.id_rank = id_rank(index.ids)
    return index
