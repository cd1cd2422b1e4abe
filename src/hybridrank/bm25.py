"""BM25 as a sparse vector model, held as the inverted index that scores it.

Passage weights follow the standard saturation form, with k and b the module
constants ``K`` and ``B``, read when an index is built,

    weight(t) = IDF(t) * cnt * (k + 1) / (cnt + k * (1 - b + b * m / m_avg))

and query vectors are plain term counts, so the query/passage dot product
recovers the BM25 score. IDF uses the Lucene form
ln((N - df + 0.5) / (df + 0.5) + 1), which is > 0, so every posting weight and
every query term count is > 0: a passage scores > 0 exactly when it shares a
term with the query.  ``Bm25Index.scores`` gives the score vector; the bm25
first stage is cut from it in ``hybrid``, the one place a query is scored.

The index is saved inside the hybrid index file (``hybrid.save_hybrid_index``):
``Bm25Index.fields`` gives its header fields (the passage ids, the ``k`` and
``b`` its weights were built with, and the tokenizer's ``vocab_size``,
``max_length`` and ``query_max_length``) and its four posting arrays, and
``Bm25Index.from_fields`` rebuilds it from them.
"""

from __future__ import annotations

from collections import Counter
from math import log

import numpy as np

from . import results
from .corpus import PASSAGE_LENGTH, QUERY_LENGTH, VOCAB_SIZE, Corpus, Query

# term-id -> weight, no explicit zero entries
SparseVector = dict[int, float]

K = 0.9  # term-frequency saturation, >= 0
B = 0.8  # length normalization, in [0, 1]
_POSTINGS = ("terms", "indptr", "positions", "weights")
# passages per index-build block at most, so that block keys fit int32
_BLOCK_PASSAGES = 2**31 // VOCAB_SIZE


def _passage_terms(indptr: np.ndarray, ids: np.ndarray):
    """(passage, term, count), int32: one row per distinct term of each
    passage of a CSR token store, by passage, then term.

    Passages are taken in blocks of about ``results.BLOCK_ENTRIES`` tokens,
    each keyed by (passage in block) * VOCAB_SIZE + term, so every temporary
    is the size of one block and its keys fit int32.
    """
    docs, terms, counts = [], [], []
    n = len(indptr) - 1
    start = 0
    while start < n:
        stop = int(np.searchsorted(indptr, indptr[start] + results.BLOCK_ENTRIES, side="right")) - 1
        stop = min(max(stop, start + 1), start + _BLOCK_PASSAGES, n)
        keys = np.repeat(np.arange(stop - start, dtype=np.int32),
                         np.diff(indptr[start:stop + 1]))
        keys *= VOCAB_SIZE
        keys += ids[indptr[start]:indptr[stop]]
        keys, cnt = np.unique(keys, return_counts=True)
        doc, term = np.divmod(keys, VOCAB_SIZE)
        doc += start
        docs.append(doc)
        terms.append(term)
        counts.append(cnt.astype(np.int32))
        start = stop
    return np.concatenate(docs), np.concatenate(terms), np.concatenate(counts)


def encode_query(query: Query) -> SparseVector:
    """Query vector of raw term counts."""
    counts = Counter(query.tokens)
    return {t: float(c) for t, c in counts.items()}


class Bm25Index:
    """Inverted index over BM25 passage vectors, in CSR form.

    Term ``terms[i]`` (ascending) posts to the passages at corpus positions
    ``positions[indptr[i]:indptr[i + 1]]`` (ascending) with the matching
    ``weights``: the passage's weight(t) from the module docstring, with
    norm = k * (1 - b + b * m / m_avg) taken per passage.

    The build holds little more than the postings it returns: it finds the
    (passage, term, count) rows one block of passages at a time as int32
    (``_passage_terms``), computes the weights in place, orders the postings
    by term with one stable argsort whose int64 order array becomes
    ``positions``, and drops each temporary once it is used.  On a 20k-passage
    synthetic corpus its tracemalloc peak is about twice the 3.9 MB of
    postings.
    """

    def __init__(self, corpus: Corpus):
        n = len(corpus)
        if n == 0:
            raise ValueError("cannot compute BM25 statistics over an empty corpus")
        store = corpus.token_store()
        lengths = np.diff(store.indptr)
        doc, term, cnt = _passage_terms(store.indptr, store.ids)
        df = np.bincount(term, minlength=VOCAB_SIZE)
        self.terms = np.flatnonzero(df)
        self.indptr = np.zeros(len(self.terms) + 1, dtype=np.int64)
        np.cumsum(df[self.terms], out=self.indptr[1:])
        idf = [log((n - d + 0.5) / (d + 0.5) + 1.0) for d in df[self.terms].tolist()]
        # idf * cnt * (k + 1) / (cnt + norm), the operations in this order (the
        # sum is commutative), so a weight's bits are those of the formula taken
        # one passage at a time
        idf_of = np.zeros(VOCAB_SIZE, dtype=np.float64)
        idf_of[self.terms] = idf
        avg_length = int(lengths.sum()) / n
        self.k, self.b = K, B
        norm = self.k * (1.0 - self.b + self.b * lengths / avg_length)
        w = idf_of[term]
        w *= cnt
        w *= self.k + 1.0
        den = norm[doc]
        den += cnt
        del cnt
        w /= den
        del den
        order = np.argsort(term, kind="stable")  # by term, then passage
        del term
        self.weights = w[order]
        del w
        order[:] = doc[order]  # the int64 order array becomes the positions
        self.positions = order
        self.ids = corpus.ids()
        self.id_rank = corpus.id_rank

    def __len__(self) -> int:
        return len(self.ids)

    def fields(self) -> tuple[dict, dict[str, np.ndarray]]:
        """(JSON header fields, arrays) that ``from_fields`` rebuilds this index
        from, so that reloaded scoring is bit-for-bit identical.

        The header records the k and b the weights were built with, and the
        vocabulary size and truncation lengths, so a file whose tokens were
        hashed or cut differently is rejected.
        """
        header = {"ids": self.ids, "k": self.k, "b": self.b,
                  "vocab_size": VOCAB_SIZE, "max_length": PASSAGE_LENGTH,
                  "query_max_length": QUERY_LENGTH}
        return header, {name: getattr(self, name) for name in _POSTINGS}

    @classmethod
    def from_fields(cls, header: dict, arrays: dict[str, np.ndarray], path) -> "Bm25Index":
        """The index ``fields`` gave ``header`` and ``arrays``, k and b included,
        which need not be ``K`` and ``B`` (scores come from the stored weights);
        other keys are ignored.  Raises ValueError naming ``path`` unless the
        header's vocabulary size and truncation lengths are the tokenizer's."""
        sizes = (header["vocab_size"], header["max_length"], header["query_max_length"])
        if sizes != (VOCAB_SIZE, PASSAGE_LENGTH, QUERY_LENGTH):
            raise ValueError(
                f"{path}: index built with vocab_size {sizes[0]}, max_length {sizes[1]} "
                f"and query_max_length {sizes[2]}; the tokenizer's VOCAB_SIZE is "
                f"{VOCAB_SIZE}, PASSAGE_LENGTH is {PASSAGE_LENGTH} and QUERY_LENGTH is "
                f"{QUERY_LENGTH}")
        index = cls.__new__(cls)
        index.k, index.b = header["k"], header["b"]
        index.ids = list(header["ids"])
        for name in _POSTINGS:
            setattr(index, name, arrays[name])
        index.id_rank = results.id_rank(index.ids)
        return index

    def scores(self, query: Query) -> np.ndarray:
        """BM25 score of every passage, corpus order; 0.0 where no term is shared."""
        qvec = encode_query(query)
        scores = np.zeros(len(self.ids), dtype=np.float64)
        # ascending term order, so scores do not depend on the query's word order
        terms = sorted(qvec)
        for t, i in zip(terms, np.searchsorted(self.terms, terms).tolist()):
            if i == len(self.terms) or self.terms[i] != t:
                continue
            row = slice(self.indptr[i], self.indptr[i + 1])
            scores[self.positions[row]] += qvec[t] * self.weights[row]
        return scores
