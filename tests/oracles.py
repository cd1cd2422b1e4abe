"""Reference formulas the package is checked against, used by more than one
test module: the BM25 collection statistics, passage vector and sparse dot
product, and the cosine of two dense vectors.  The package computes the same
values in bulk (``bm25.Bm25Index``, ``dense.query_cosines``)."""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from hybridrank.bm25 import SparseVector
from hybridrank.corpus import Corpus, Passage, passage_tokens


@dataclass
class Bm25Stats:
    """Collection statistics: document count, per-term IDF and length info."""

    doc_count: int
    idf: dict[int, float]
    avg_length: float
    lengths: dict[str, int]


def compute_stats(corpus: Corpus) -> Bm25Stats:
    """IDF, average length and per-passage lengths over a nonempty corpus,
    one passage at a time."""
    n = len(corpus)
    if n == 0:
        raise ValueError("cannot compute BM25 statistics over an empty corpus")
    df: Counter = Counter()
    lengths: dict[str, int] = {}
    for p in corpus:
        c = Counter(passage_tokens(p))
        lengths[p.id] = sum(c.values())
        df.update(c.keys())
    idf = {t: math.log((n - d + 0.5) / (d + 0.5) + 1.0) for t, d in df.items()}
    avg_length = sum(lengths.values()) / n
    return Bm25Stats(doc_count=n, idf=idf, avg_length=avg_length, lengths=lengths)


def encode_passage(passage: Passage, stats: Bm25Stats, k: float, b: float) -> SparseVector:
    """Sparse passage vector whose dot product with a query vector is BM25
    with parameters ``k`` and ``b``."""
    counts = Counter(passage_tokens(passage))
    m = sum(counts.values())
    if m == 0:
        return {}
    norm = k * (1.0 - b + b * m / stats.avg_length)
    vec: SparseVector = {}
    for t, cnt in counts.items():
        idf = stats.idf.get(t, 0.0)
        w = idf * cnt * (k + 1.0) / (cnt + norm)
        if w != 0.0:
            vec[t] = w
    return vec


def dot(a: SparseVector, b: SparseVector) -> float:
    # ascending term order makes the sum independent of argument order
    s = 0.0
    for t in sorted(a.keys() & b.keys()):
        s += a[t] * b[t]
    return s


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))
