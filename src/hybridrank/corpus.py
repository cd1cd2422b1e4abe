"""Data model and file formats for passages, queries and relevance judgments.

Formats:
    corpus   JSONL, one object per line: {"id": ..., "title": ..., "text": ...}
    queries  TSV: id<TAB>text
    qrels    TREC style, whitespace separated: qid 0 docid grade

Passage tokens live in one place.  ``Corpus.token_store(vocab_size,
max_length)`` tokenizes every passage's ``encoding_text()`` with ``tokenize``
on the first call for that (vocab_size, max_length) key and caches the
result: one read-only CSR store per key and corpus.  The BM25 index, the dual
encoder's ``encode_corpus`` and the reranker read slices of it.  Text outside
a corpus is tokenized where it is used: queries, the dual encoder's training
pairs, and the reference ``bm25.compute_stats``/``encode_passage``.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from .results import id_rank

DEFAULT_VOCAB_SIZE = 32768
DEFAULT_QUERY_LENGTH = 64
DEFAULT_PASSAGE_LENGTH = 512

_WORD_RE = re.compile(r"\w+", re.UNICODE)

# token string -> stable 64-bit hash; shared across vocab sizes
_HASH_CACHE: dict[str, int] = {}


def _term_hash(token: str) -> int:
    h = _HASH_CACHE.get(token)
    if h is None:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        _HASH_CACHE[token] = h
    return h


@dataclass(frozen=True)
class Passage:
    id: str
    title: str
    text: str

    def encoding_text(self) -> str:
        """Text fed to encoders: "<title>. <text>" when a title is present."""
        return f"{self.title}. {self.text}" if self.title else self.text


@dataclass(frozen=True)
class Query:
    id: str
    text: str


@dataclass(frozen=True)
class TokenSequence:
    """Term ids after hashing, truncated to a maximum length.

    ``original_length`` is the pre-truncation token count.
    """

    tokens: tuple[int, ...]
    original_length: int

    def __len__(self) -> int:
        return len(self.tokens)


def tokenize(text: str, vocab_size: int = DEFAULT_VOCAB_SIZE,
             max_length: int = DEFAULT_PASSAGE_LENGTH) -> TokenSequence:
    """Lowercase, split on whitespace/punctuation, hash each token mod vocab_size.

    Deterministic across runs and platforms (blake2b, no process salt).
    """
    if vocab_size < 2:
        raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    words = _WORD_RE.findall(text.lower())
    tokens = tuple(_term_hash(w) % vocab_size for w in words[:max_length])
    return TokenSequence(tokens=tokens, original_length=len(words))


@dataclass(frozen=True, eq=False)
class TokenStore:
    """Token ids of every passage of a corpus, CSR by corpus position.

    ``store[i]``, that is ``ids[indptr[i]:indptr[i + 1]]``, holds
    ``tokenize(corpus[i].encoding_text(), vocab_size, max_length).tokens``.
    Both arrays are read-only.
    """

    indptr: np.ndarray  # (n_passages + 1,) int64
    ids: np.ndarray     # (total tokens,) int32

    def __getitem__(self, pos: int) -> np.ndarray:
        return self.ids[self.indptr[pos]:self.indptr[pos + 1]]


class Corpus:
    """Ordered passage collection with unique, nonempty ids.

    ``corpus[i]`` and iteration go by position; ``in``, ``get`` and
    ``position`` go by passage id.
    """

    def __init__(self, passages: list[Passage]):
        self._index: dict[str, int] = {}
        for pos, p in enumerate(passages):
            if not p.id:
                raise ValueError(f"passage at position {pos} has an empty id")
            if not p.text:
                raise ValueError(f"passage {p.id!r} has empty text")
            if p.id in self._index:
                raise ValueError(f"duplicate passage id {p.id!r}")
            self._index[p.id] = pos
        self.passages = list(passages)
        self._ids = list(self._index)
        self._token_stores: dict[tuple[int, int], TokenStore] = {}

    def __len__(self) -> int:
        return len(self.passages)

    def __getitem__(self, pos: int) -> Passage:
        return self.passages[pos]

    def __iter__(self):
        return iter(self.passages)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._index

    def get(self, passage_id: str) -> Passage:
        return self.passages[self.position(passage_id)]

    def position(self, passage_id: str) -> int:
        try:
            return self._index[passage_id]
        except KeyError:
            raise KeyError(f"unknown passage id {passage_id!r}") from None

    def ids(self) -> list[str]:
        """Passage ids by position: one list, built once; do not modify it."""
        return self._ids

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Read-only ``results.id_rank`` of the passage ids, by position."""
        rank = id_rank(self.ids())
        rank.flags.writeable = False
        return rank

    def token_store(self, vocab_size: int, max_length: int) -> TokenStore:
        """Every passage tokenized once per (vocab_size, max_length), then cached."""
        key = (vocab_size, max_length)
        store = self._token_stores.get(key)
        if store is None:
            seqs = [tokenize(p.encoding_text(), vocab_size, max_length).tokens
                    for p in self.passages]
            indptr = np.zeros(len(seqs) + 1, dtype=np.int64)
            indptr[1:] = np.cumsum([len(s) for s in seqs], dtype=np.int64)
            ids = np.fromiter(chain.from_iterable(seqs), dtype=np.int32,
                              count=int(indptr[-1]))
            indptr.flags.writeable = False
            ids.flags.writeable = False
            store = self._token_stores[key] = TokenStore(indptr, ids)
        return store


class QrelSet:
    """Graded relevance judgments keyed by (query_id, passage_id).

    Absent pairs count as grade 0; all stored grades are >= 0.
    """

    def __init__(self, judgments: Mapping[tuple[str, str], int] | None = None):
        self._judgments: dict[tuple[str, str], int] = {}
        # query id -> {passage id: grade}, in judgment order; set() keeps it in step
        self._by_query: dict[str, dict[str, int]] = {}
        if judgments:
            for (qid, pid), grade in judgments.items():
                self.set(qid, pid, grade)

    @property
    def judgments(self) -> Mapping[tuple[str, str], int]:
        """Read-only view of every judgment; grades change only through ``set``."""
        return MappingProxyType(self._judgments)

    def set(self, query_id: str, passage_id: str, grade: int) -> None:
        if grade < 0:
            raise ValueError(f"grade must be >= 0, got {grade} for ({query_id}, {passage_id})")
        self._judgments[(query_id, passage_id)] = int(grade)
        self._by_query.setdefault(query_id, {})[passage_id] = int(grade)

    def grade(self, query_id: str, passage_id: str) -> int:
        return self._judgments.get((query_id, passage_id), 0)

    def relevant(self, query_id: str) -> dict[str, int]:
        """passage_id -> grade for all judged-relevant (grade > 0) passages."""
        return {pid: g for pid, g in self._by_query.get(query_id, {}).items() if g > 0}

    def query_ids(self) -> list[str]:
        """Ids of queries with at least one judged-relevant passage, sorted."""
        return sorted(qid for qid, grades in self._by_query.items()
                      if any(g > 0 for g in grades.values()))

    def __len__(self) -> int:
        return len(self._judgments)

    def __eq__(self, other) -> bool:
        return isinstance(other, QrelSet) and self._judgments == other._judgments


def load_corpus(path) -> Corpus:
    """Load a JSONL corpus. Errors name the offending line or duplicate id."""
    passages = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                passage = Passage(id=str(obj["id"]), title=str(obj.get("title", "")),
                                  text=str(obj["text"]))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}: line {lineno}: malformed corpus record: {exc}") from exc
            passages.append(passage)
    return Corpus(passages)


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for p in corpus:
            f.write(json.dumps({"id": p.id, "title": p.title, "text": p.text},
                               ensure_ascii=False) + "\n")


def load_queries(path) -> list[Query]:
    """Load TSV queries (id<TAB>text), preserving file order."""
    queries: list[Query] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}: line {lineno}: expected id<TAB>text")
            qid, text = line.split("\t", 1)
            if qid in seen:
                raise ValueError(f"{path}: line {lineno}: duplicate query id {qid!r}")
            if not text:
                raise ValueError(f"{path}: line {lineno}: query {qid!r} has empty text")
            seen.add(qid)
            queries.append(Query(id=qid, text=text))
    return queries


def save_queries(queries: list[Query], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for q in queries:
            f.write(f"{q.id}\t{q.text}\n")


def load_qrels(path) -> QrelSet:
    """Load TREC qrels. Later duplicate (qid, docid) lines overwrite earlier ones."""
    qrels = QrelSet()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 'qid 0 docid grade'")
            qid, _, pid, grade_s = parts
            try:
                grade = int(grade_s)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-integer grade {grade_s!r}") from None
            qrels.set(qid, pid, grade)
    return qrels


def save_qrels(qrels: QrelSet, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for (qid, pid), grade in sorted(qrels.judgments.items()):
            f.write(f"{qid} 0 {pid} {grade}\n")
