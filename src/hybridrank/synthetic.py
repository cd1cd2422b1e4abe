"""Seeded synthetic corpus with a controllable lexical/semantic query split.

Passages are bags of concept words plus filler.  Each concept has two surface
forms from disjoint pools: a document word (used in passages) and a synonym
(used only in queries).  Lexical queries copy some document words from their
target passage, so term matching works; semantic queries use only synonyms,
so term matching fails but an encoder can learn the synonym table from the
training split.  This gives BM25, dense and hybrid retrieval genuinely
different strengths at desk scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Passage, QrelSet, Query, \
    save_corpus, save_qrels, save_queries, tokenize

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"

CONCEPTS_PER_PASSAGE = 6
CONCEPT_REPEATS = 2
QUERY_CONCEPTS = 4
QUERY_COPIED_WORDS = 2
# Semantic queries keep one surface term so the sparse retriever still returns
# a (noisy, low-precision) candidate pool for them instead of nothing at all;
# ranking quality on those pools is what rerankers and dense scoring add.
SEMANTIC_COPIED_WORDS = 1
MIN_FILLER = 4
MAX_FILLER = 8
SENTENCES_PER_PASSAGE = 3
FILLER_POOL_SIZE = 400
# the most synonyms _word_pools can make: its syllable words, less hash
# collisions, hold 2 * 3370 + FILLER_POOL_SIZE distinct words
MAX_SYNONYM_TABLE = 3370


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    n_passages: int = 2000
    n_train_queries: int = 400
    n_test_queries: int = 200
    synonym_table_size: int = 200
    lexical_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if min(self.n_passages, self.n_train_queries, self.n_test_queries) < 1:
            raise ValueError("passage and query counts must be >= 1")
        if not CONCEPTS_PER_PASSAGE <= self.synonym_table_size <= MAX_SYNONYM_TABLE:
            raise ValueError(f"synonym_table_size must be in "
                             f"[{CONCEPTS_PER_PASSAGE}, {MAX_SYNONYM_TABLE}]")
        if not 0.0 <= self.lexical_fraction <= 1.0:
            raise ValueError("lexical_fraction must be in [0, 1]")
        half = self.n_passages // 2
        if self.n_train_queries > half or self.n_test_queries > self.n_passages - half:
            raise ValueError(
                "query counts exceed available target passages per split "
                f"({half} train / {self.n_passages - half} test)")


@dataclass
class SyntheticData:
    corpus: Corpus
    train_queries: list[Query]
    test_queries: list[Query]
    train_qrels: QrelSet
    test_qrels: QrelSet


def _syllables() -> list[str]:
    return [c + v for c in _CONSONANTS for v in _VOWELS]


def _word_pools(table_size: int) -> tuple[list[str], list[str], list[str]]:
    """Disjoint doc/synonym/filler word pools with pairwise-distinct hashes.

    Words whose token hash collides with an earlier pool word are skipped so
    that no synonym is accidentally a term match for a document word.
    """
    syl = _syllables()
    used_hashes: set[int] = set()
    words: list[str] = []
    need = 2 * table_size + FILLER_POOL_SIZE
    for i in range(len(syl) ** 2):  # the words repeat after that
        if len(words) == need:
            break
        w = syl[i // len(syl)] + syl[i % len(syl)] + syl[(i * 7 + 3) % len(syl)]
        h = tokenize(w, 1)[0]
        if h not in used_hashes:
            used_hashes.add(h)
            words.append(w)
    if len(words) < need:
        raise ValueError(f"synonym_table_size {table_size} needs {need} distinct words, "
                         f"but only {len(words)} can be made")
    return (words[:table_size], words[table_size:2 * table_size],
            words[2 * table_size:need])


def _render_passage(pid: str, concept_ids: np.ndarray, doc_words: list[str],
                    filler_words: list[str], rng: np.random.Generator) -> Passage:
    tokens = []
    for c in concept_ids.tolist():
        tokens.extend([doc_words[c]] * CONCEPT_REPEATS)
    n_filler = int(rng.integers(MIN_FILLER, MAX_FILLER + 1))
    tokens.extend(filler_words[f] for f in
                  rng.integers(0, len(filler_words), size=n_filler).tolist())
    shuffled = [tokens[j] for j in rng.permutation(len(tokens)).tolist()]
    # np.array_split's sentences: the first len % SENTENCES_PER_PASSAGE get one
    # extra word
    size, extra = divmod(len(shuffled), SENTENCES_PER_PASSAGE)
    cuts = [k * size + min(k, extra) for k in range(SENTENCES_PER_PASSAGE + 1)]
    text = ". ".join(" ".join(shuffled[a:b]) for a, b in zip(cuts, cuts[1:])) + "."
    return Passage(id=pid, title="", text=text)


def _render_query(qid: str, target_concepts: np.ndarray, lexical: bool,
                  doc_words: list[str], syn_words: list[str],
                  rng: np.random.Generator) -> Query:
    picked = rng.choice(len(target_concepts), size=QUERY_CONCEPTS, replace=False)
    concepts = [int(target_concepts[int(j)]) for j in picked]
    n_copied = QUERY_COPIED_WORDS if lexical else SEMANTIC_COPIED_WORDS
    copy_slots = set(
        rng.choice(QUERY_CONCEPTS, size=n_copied, replace=False).tolist())
    words = [doc_words[c] if j in copy_slots else syn_words[c]
             for j, c in enumerate(concepts)]
    order = rng.permutation(len(words))
    return Query(id=qid, text=" ".join(words[int(j)] for j in order))


def make_synthetic_corpus(spec: SyntheticCorpusSpec) -> SyntheticData:
    """Deterministic corpus, train/test queries and qrels from the spec."""
    rng = np.random.default_rng(spec.seed)
    doc_words, syn_words, filler_words = _word_pools(spec.synonym_table_size)

    passages = []
    concept_table = np.empty((spec.n_passages, CONCEPTS_PER_PASSAGE), dtype=np.int64)
    for i in range(spec.n_passages):
        concepts = rng.choice(spec.synonym_table_size, size=CONCEPTS_PER_PASSAGE,
                              replace=False)
        concept_table[i] = concepts
        passages.append(_render_passage(f"p{i:05d}", concepts, doc_words,
                                        filler_words, rng))
    corpus = Corpus(passages)

    half = spec.n_passages // 2
    splits = {
        "train": (spec.n_train_queries, 0, half),
        "test": (spec.n_test_queries, half, spec.n_passages - half),
    }
    queries: dict[str, list[Query]] = {}
    qrels: dict[str, QrelSet] = {}
    for split, (count, offset, available) in splits.items():
        targets = rng.choice(available, size=count, replace=False) + offset
        n_lexical = int(round(spec.lexical_fraction * count))
        lexical_mask = np.zeros(count, dtype=bool)
        lexical_mask[rng.choice(count, size=n_lexical, replace=False)] = True
        split_queries = []
        split_qrels = QrelSet()
        for i in range(count):
            target = int(targets[i])
            qid = f"q{split}{i:04d}"
            query = _render_query(qid, concept_table[target], bool(lexical_mask[i]),
                                  doc_words, syn_words, rng)
            split_queries.append(query)
            split_qrels.set(qid, passages[target].id, 1)
        queries[split] = split_queries
        qrels[split] = split_qrels

    return SyntheticData(corpus=corpus, train_queries=queries["train"],
                         test_queries=queries["test"], train_qrels=qrels["train"],
                         test_qrels=qrels["test"])


def save_synthetic_data(data: SyntheticData, directory) -> dict[str, str]:
    """Write corpus/queries/qrels files; returns logical name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {
        "corpus": os.path.join(directory, "corpus.jsonl"),
        "train_queries": os.path.join(directory, "train_queries.tsv"),
        "test_queries": os.path.join(directory, "test_queries.tsv"),
        "train_qrels": os.path.join(directory, "train_qrels.txt"),
        "test_qrels": os.path.join(directory, "test_qrels.txt"),
    }
    save_corpus(data.corpus, paths["corpus"])
    save_queries(data.train_queries, paths["train_queries"])
    save_queries(data.test_queries, paths["test_queries"])
    save_qrels(data.train_qrels, paths["train_qrels"])
    save_qrels(data.test_qrels, paths["test_qrels"])
    return paths
