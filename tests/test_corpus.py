"""Tests for the data model, tokenizer and file formats."""

import os
import subprocess
import sys
import textwrap

import pytest

import hybridrank
from hybridrank.corpus import (
    Corpus,
    Passage,
    QrelSet,
    Query,
    load_corpus,
    load_qrels,
    load_queries,
    save_corpus,
    save_qrels,
    save_queries,
    tokenize,
)


# ---------------------------------------------------------------- tokenize

def test_tokenize_empty_text():
    seq = tokenize("", vocab_size=1000, max_length=64)
    assert seq.tokens == ()
    assert seq.original_length == 0


def test_tokenize_case_folding():
    seq = tokenize("Apple apple", vocab_size=1000, max_length=64)
    assert len(seq) == 2
    assert seq.tokens[0] == seq.tokens[1]


def test_tokenize_truncation_records_original_length():
    seq = tokenize("a b c d", vocab_size=1000, max_length=2)
    assert len(seq.tokens) == 2
    assert seq.original_length == 4


def test_tokenize_length_never_exceeds_max():
    for text in ("", "one", "a b c", "lots " * 50):
        for max_length in (1, 3, 8):
            assert len(tokenize(text, 1000, max_length)) <= max_length


def test_tokenize_ids_below_vocab_size():
    for vocab in (2, 17, 32768):
        seq = tokenize("the quick brown fox, jumps; over-the lazy dog", vocab, 64)
        assert all(0 <= t < vocab for t in seq.tokens)


def test_tokenize_splits_on_punctuation():
    a = tokenize("alpha,beta.gamma", 4096, 16)
    b = tokenize("alpha beta gamma", 4096, 16)
    assert a.tokens == b.tokens


def test_tokenize_deterministic_across_processes():
    # The hash must not depend on the process salt (PYTHONHASHSEED).
    code = ("from hybridrank.corpus import tokenize;"
            "print(tokenize('Deterministic Hashing!', 32768, 64).tokens)")
    # the children import hybridrank from where this process found it
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(hybridrank.__file__)))
    outs = set()
    for n in (1, 2):
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PYTHONHASHSEED": str(n), "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": package_root},
        )
        assert child.returncode == 0, f"PYTHONHASHSEED={n} child failed:\n{child.stderr}"
        outs.add(child.stdout)
    assert len(outs) == 1
    assert outs == {repr(tokenize("Deterministic Hashing!", 32768, 64).tokens) + "\n"}


def test_tokenize_rejects_bad_sizes():
    with pytest.raises(ValueError):
        tokenize("x", vocab_size=1, max_length=4)
    with pytest.raises(ValueError):
        tokenize("x", vocab_size=100, max_length=0)


# ---------------------------------------------------------------- Corpus

def test_corpus_preserves_order_and_indexes_ids():
    c = Corpus([Passage("b", "", "beta"), Passage("a", "", "alpha")])
    assert c.ids() == ["b", "a"]
    assert c.get("a").text == "alpha"
    assert c.position("b") == 0
    assert "a" in c and "zzz" not in c


def test_corpus_rejects_duplicate_and_empty_ids():
    with pytest.raises(ValueError, match="d1"):
        Corpus([Passage("d1", "", "x"), Passage("d1", "", "y")])
    with pytest.raises(ValueError):
        Corpus([Passage("", "", "x")])
    with pytest.raises(ValueError):
        Corpus([Passage("ok", "", "")])


def test_passage_encoding_text_concatenates_title():
    assert Passage("p", "A Title", "Body text").encoding_text() == "A Title. Body text"
    assert Passage("p", "", "Body text").encoding_text() == "Body text"


# ---------------------------------------------------------------- corpus files

def test_load_corpus_roundtrip(tmp_path):
    path = tmp_path / "c.jsonl"
    corpus = Corpus([Passage("d1", "T", "hello"), Passage("d2", "", "world")])
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.ids() == ["d1", "d2"]
    assert loaded.get("d1").title == "T"


def test_load_corpus_duplicate_id_names_offender(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "d1", "text": "x"}\n{"id": "d1", "text": "y"}\n')
    with pytest.raises(ValueError, match="d1"):
        load_corpus(path)


def test_load_corpus_malformed_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "d1", "text": "x"}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        load_corpus(path)


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("")
    assert len(load_corpus(path)) == 0


# ---------------------------------------------------------------- query files

def test_load_queries_basic(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("q1\twhat is bm25\n")
    assert load_queries(path) == [Query("q1", "what is bm25")]


def test_load_queries_missing_tab(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("q1\tfine\nq2 no tab here\n")
    with pytest.raises(ValueError, match="line 2"):
        load_queries(path)


def test_load_queries_duplicate_id(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("q1\ta\nq1\tb\n")
    with pytest.raises(ValueError, match="q1"):
        load_queries(path)


def test_load_queries_empty_file(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("")
    assert load_queries(path) == []


def test_queries_roundtrip(tmp_path):
    path = tmp_path / "q.tsv"
    queries = [Query("q1", "alpha beta"), Query("q2", "gamma")]
    save_queries(queries, path)
    assert load_queries(path) == queries


# ---------------------------------------------------------------- qrels

def test_load_qrels_single_line(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 1\n")
    qrels = load_qrels(path)
    assert qrels.grade("q1", "d1") == 1
    assert qrels.grade("q1", "other") == 0


def test_load_qrels_zero_grade_is_nonrelevant(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 0\n")
    qrels = load_qrels(path)
    assert qrels.grade("q1", "d1") == 0
    assert qrels.relevant("q1") == {}
    assert qrels.query_ids() == []


def test_load_qrels_later_line_overwrites(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 1\nq1 0 d1 2\n")
    assert load_qrels(path).grade("q1", "d1") == 2


def test_load_qrels_non_integer_grade(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 high\n")
    with pytest.raises(ValueError, match="line 1"):
        load_qrels(path)


def test_qrels_roundtrip(tmp_path):
    path = tmp_path / "qrels.txt"
    qrels = QrelSet({("q1", "d1"): 1, ("q2", "d9"): 3, ("q2", "d2"): 0})
    save_qrels(qrels, path)
    assert load_qrels(path) == qrels


def test_qrels_rejects_negative_grade():
    with pytest.raises(ValueError):
        QrelSet({("q1", "d1"): -1})


def test_qrels_relevant_and_query_ids():
    qrels = QrelSet({("q2", "d1"): 1, ("q1", "d2"): 2, ("q1", "d3"): 0})
    assert qrels.relevant("q1") == {"d2": 2}
    assert qrels.query_ids() == ["q1", "q2"]


def _scan_relevant(qrels, query_id):
    """Reference: relevant() as a scan over every judgment."""
    return {pid: g for (qid, pid), g in qrels.judgments.items() if qid == query_id and g > 0}


def test_qrels_query_index_follows_every_set():
    qrels = QrelSet({("q2", "d1"): 1, ("q1", "d2"): 2, ("q1", "d3"): 0})
    qrels.set("q1", "d3", 4)
    qrels.set("q2", "d1", 0)   # q2 has no relevant passage left
    qrels.set("q3", "d9", 0)
    qrels.set("q1", "d2", 1)
    qrels.set("q4", "d5", 2)
    for qid in ("q1", "q2", "q3", "q4", "unknown"):
        assert list(qrels.relevant(qid).items()) == list(_scan_relevant(qrels, qid).items())
    assert qrels.query_ids() == sorted({q for (q, _), g in qrels.judgments.items() if g > 0})
    assert qrels.query_ids() == ["q1", "q4"]


def test_qrels_judgments_are_read_only():
    qrels = QrelSet({("q1", "d1"): 1})
    with pytest.raises(AttributeError):
        qrels.judgments.pop(("q1", "d1"))
    with pytest.raises(TypeError):
        qrels.judgments[("q1", "d2")] = 1
    assert dict(qrels.judgments) == {("q1", "d1"): 1}
    assert qrels.relevant("q1") == {"d1": 1}
