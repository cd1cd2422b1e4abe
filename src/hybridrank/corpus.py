r"""Data model and file formats for passages, queries and relevance judgments.

Formats:
    corpus   JSONL, one object per line: {"id": ..., "title": str, "text": str}
    queries  TSV: id<TAB>text
    qrels    TREC style, whitespace separated: qid 0 docid grade

This module is the one that knows how text becomes token ids: the vocabulary
size ``VOCAB_SIZE`` and the truncation lengths.  A query keeps its first
``QUERY_LENGTH`` tokens (``Query.tokens``, kept on the Query object, so a
query is tokenized once however many channels score it), a passage its first
``PASSAGE_LENGTH`` (``passage_tokens``).  Every other module asks for ids by
query or passage alone, and sizes its tables by ``VOCAB_SIZE``.

A text's words are the ``\w+`` runs of its lowercased form.  ``_words`` finds
them without a regex: ``str.translate`` maps every character that is not a
word character (CPython's ``\w``: ``isalnum()`` or ``"_"``) to a space, and
``str.split()`` cuts at the spaces.  A word's id is the little-endian
blake2b-64 of its UTF-8 bytes modulo ``VOCAB_SIZE``, computed once per word
and then looked up in the one word table.

``Corpus.token_store()`` runs the splitter and the table over every passage in
one pass on the first call and caches the result: one read-only CSR store per
corpus, equal to ``passage_tokens`` passage by passage.  The BM25 index, the
dual encoder's ``encode_corpus`` and the reranker read slices of it.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from .results import id_rank

VOCAB_SIZE = 32768
QUERY_LENGTH = 64
PASSAGE_LENGTH = 512


class _Separators(dict):
    """``str.translate`` table: a word character maps to itself, any other to
    a space.  Filled on first sight of each code point."""

    def __missing__(self, code: int) -> int:
        ch = chr(code)
        out = self[code] = code if ch.isalnum() or ch == "_" else 0x20
        return out


_SEPARATORS = _Separators()


def _words(text: str) -> list[str]:
    r"""The words of ``text``: ``re.findall(r"\w+", text.lower())``."""
    return text.lower().translate(_SEPARATORS).split()


class _WordIds(dict):
    """word -> id, each hashed on first sight."""

    def __missing__(self, word: str) -> int:
        digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
        out = self[word] = int.from_bytes(digest, "little") % VOCAB_SIZE
        return out


# the one word table, shared by every corpus and query
_WORD_IDS = _WordIds()


@dataclass(frozen=True, slots=True)
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

    @cached_property
    def tokens(self) -> tuple[int, ...]:
        """Token ids of the text, its first ``QUERY_LENGTH``: tokenized on
        first use and kept, so each Query object is tokenized once."""
        return tokenize(self.text, QUERY_LENGTH)


def tokenize(text: str, max_length: int) -> tuple[int, ...]:
    """Ids of the first ``max_length`` words of ``text`` (see the module docstring).

    Deterministic across runs and platforms (blake2b, no process salt).
    """
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    return tuple(map(_WORD_IDS.__getitem__, _words(text)[:max_length]))


def passage_tokens(passage: Passage) -> tuple[int, ...]:
    """Token ids of a passage's ``encoding_text()``: its first ``PASSAGE_LENGTH`` tokens."""
    return tokenize(passage.encoding_text(), PASSAGE_LENGTH)


@dataclass(frozen=True, eq=False)
class TokenStore:
    """Token ids of every passage of a corpus, CSR by corpus position.

    ``store[i]``, that is ``ids[indptr[i]:indptr[i + 1]]``, holds
    ``passage_tokens(corpus[i])``, ids below ``VOCAB_SIZE``.
    Both arrays are read-only.
    """

    indptr: np.ndarray  # (n_passages + 1,) int64
    ids: np.ndarray     # (total tokens,) int32

    def __getitem__(self, pos: int) -> np.ndarray:
        return self.ids[self.indptr[pos]:self.indptr[pos + 1]]


def _id_fault(item_id: str) -> str | None:
    """Why an id cannot be one field of a UTF-8 run file, or None if it can."""
    if item_id.split() != [item_id]:
        return "is empty or contains whitespace"
    try:
        item_id.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, as JSON's "\ud800" decodes to
        return "does not encode as UTF-8"
    return None


class Corpus:
    """Ordered passage collection with unique ids that are nonempty, free of
    whitespace and encodable as UTF-8, so that every id fits one field of a
    run file.

    ``corpus[i]`` and iteration go by position; ``in``, ``get`` and
    ``position`` go by passage id.
    """

    def __init__(self, passages: list[Passage]):
        self._index: dict[str, int] = {}
        for pos, p in enumerate(passages):
            fault = _id_fault(p.id)
            if fault:
                raise ValueError(f"passage at position {pos}: id {p.id!r} {fault}")
            if not p.text:
                raise ValueError(f"passage {p.id!r} has empty text")
            if p.id in self._index:
                raise ValueError(f"duplicate passage id {p.id!r}")
            self._index[p.id] = pos
        self.passages = list(passages)
        self._ids = list(self._index)
        self._token_store: TokenStore | None = None

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

    def token_store(self) -> TokenStore:
        """Every passage's ``passage_tokens``, split and looked up in one pass
        on the first call, then cached.  Passages are split one at a time, so
        only one passage's words are held at once."""
        if self._token_store is None:
            lengths = []

            def passage_words():
                for p in self.passages:
                    words = _words(p.encoding_text())[:PASSAGE_LENGTH]
                    lengths.append(len(words))
                    yield words

            ids = np.fromiter(map(_WORD_IDS.__getitem__, chain.from_iterable(passage_words())),
                              dtype=np.int32)
            indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
            indptr[1:] = np.cumsum(lengths, dtype=np.int64)
            indptr.flags.writeable = False
            ids.flags.writeable = False
            self._token_store = TokenStore(indptr, ids)
        return self._token_store


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
    with open(path, encoding="utf-8-sig") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                pid, title, text = obj["id"], obj.get("title", ""), obj["text"]
                for key, value in (("id", pid), ("title", title), ("text", text)):
                    if not isinstance(value, str):
                        raise TypeError(f"{key} must be a string, got {value!r}")
                passage = Passage(id=pid, title=title, text=text)
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
    """Load TSV queries (id<TAB>text), preserving file order.

    Ids must be nonempty, free of whitespace and encodable as UTF-8, so that
    every id fits one field of a run file.
    """
    queries: list[Query] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8-sig") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}: line {lineno}: expected id<TAB>text")
            qid, text = line.split("\t", 1)
            fault = _id_fault(qid)
            if fault:
                raise ValueError(f"{path}: line {lineno}: query id {qid!r} {fault}")
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
    with open(path, encoding="utf-8-sig") as f:
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
            try:
                qrels.set(qid, pid, grade)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return qrels


def save_qrels(qrels: QrelSet, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for (qid, pid), grade in sorted(qrels.judgments.items()):
            f.write(f"{qid} 0 {pid} {grade}\n")
