"""Tests for the data model, tokenizer and file formats."""

import json
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import hybridrank
from hybridrank.corpus import (
    _words,
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
    VOCAB_SIZE,
    tokenize,
)
from hybridrank.evaluation import RunFile, read_run, write_run


# ---------------------------------------------------------------- tokenize

def test_tokenize_empty_text():
    assert tokenize("", max_length=64) == ()


def test_tokenize_case_folding():
    seq = tokenize("Apple apple", max_length=64)
    assert len(seq) == 2
    assert seq[0] == seq[1]


def test_tokenize_truncation_keeps_the_first_words():
    seq = tokenize("a b c d", max_length=2)
    assert seq == tokenize("a b", max_length=64)
    assert len(set(tokenize("a b c d", max_length=4))) == 4


def test_tokenize_length_never_exceeds_max():
    for text in ("", "one", "a b c", "lots " * 50):
        for max_length in (1, 3, 8):
            assert len(tokenize(text, max_length)) <= max_length


def test_tokenize_ids_below_vocab_size():
    seq = tokenize("the quick brown fox, jumps; over-the lazy dog", 64)
    assert all(0 <= t < VOCAB_SIZE for t in seq)


def test_tokenize_splits_on_punctuation():
    a = tokenize("alpha,beta.gamma", 16)
    b = tokenize("alpha beta gamma", 16)
    assert a == b


def test_tokenize_deterministic_across_processes():
    # The hash must not depend on the process salt (PYTHONHASHSEED).
    code = ("from hybridrank.corpus import tokenize;"
            "print(tokenize('Deterministic Hashing!', 64))")
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
    assert outs == {repr(tokenize("Deterministic Hashing!", 64)) + "\n"}


# ASCII punctuation and the separators str.split() and \s treat differently,
# digits and "_", non-ASCII letters, digits and marks, and letters whose
# lowercase form changes length or turns ASCII: the Kelvin sign lowercases to
# "k", "İ" to "i" plus a combining dot, and a final sigma depends on context
_SPLIT_ALPHABET = ("aZ09_ .,;:!?'\"-()[]{}<>/\\|@#$%^&*+=~`\t\n\r\x0b\x0c"
                   "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\u200b"
                   "ǅ²٣ﬁİ\u212aΣσßẞéé\u0301\u0307\u0663½Ⅻ㐀ー・")


def test_word_splitter_equals_the_word_regex():
    rng = np.random.default_rng(17)
    oracle = re.compile(r"\w+")
    for trial in range(4000):
        n = int(rng.integers(0, 40))
        if trial % 2:
            codes = rng.integers(0, 0x110000, size=n)
        else:
            codes = [ord(_SPLIT_ALPHABET[i]) for i in rng.integers(0, len(_SPLIT_ALPHABET), n)]
        text = "".join(map(chr, codes))
        assert _words(text) == oracle.findall(text.lower()), repr(text)
    for text in ("ǅ² ٣ﬁ", "İstanbul", "\u212aelvin", "ΣΑΣ ΣΑΣ.", "a\x1cb\x1fc\x0bd_e"):
        assert _words(text) == oracle.findall(text.lower()), repr(text)
    assert _words("\u212a") == ["k"]


def test_tokenize_rejects_bad_sizes():
    with pytest.raises(ValueError):
        tokenize("x", max_length=0)


# ---------------------------------------------------------------- Corpus

def test_corpus_preserves_order_and_indexes_ids():
    c = Corpus([Passage("b", "", "beta"), Passage("a", "", "alpha")])
    assert c.ids() == ["b", "a"]
    assert c.get("a").text == "alpha"
    assert c.position("b") == 0
    assert "a" in c and "zzz" not in c


def test_passage_carries_no_instance_dict():
    # one per passage adds up on a 20k corpus; a query keeps one for its tokens
    passage = Passage("d1", "T", "x")
    assert not hasattr(passage, "__dict__")
    assert passage == Passage("d1", "T", "x") and hash(passage) == hash(Passage("d1", "T", "x"))


def test_corpus_rejects_duplicate_and_empty_ids():
    with pytest.raises(ValueError, match="d1"):
        Corpus([Passage("d1", "", "x"), Passage("d1", "", "y")])
    with pytest.raises(ValueError):
        Corpus([Passage("", "", "x")])
    with pytest.raises(ValueError):
        Corpus([Passage("ok", "", "")])


def test_corpus_rejects_ids_with_whitespace():
    for pid in ("p 1", "p\t1", " p", "p\u00a0", "p\u2028", "p\x1c1"):
        with pytest.raises(ValueError) as exc:
            Corpus([Passage("ok", "", "x"), Passage(pid, "", "y")])
        assert repr(pid) in str(exc.value)


def test_load_corpus_rejects_an_id_that_does_not_encode_as_utf8(tmp_path):
    # JSON's "\ud800" escape decodes to a lone surrogate, which no run file can hold
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "ok", "text": "x"}\n{"id": "p\\ud800", "text": "y"}\n',
                    encoding="utf-8")
    with pytest.raises(ValueError, match="UTF-8") as exc:
        load_corpus(path)
    assert repr("p\ud800") in str(exc.value)


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
    # a UTF-8 byte-order mark is not part of the first record
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_corpus(path).ids() == ["d1", "d2"]


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


def test_load_corpus_rejects_a_title_or_text_that_is_not_a_string(tmp_path):
    # a JSON null is no text, not the word "None"; save_corpus writes every id
    # as a string, so a number is no id either
    path = tmp_path / "c.jsonl"
    for record, key, got in (('{"id": "d2", "title": null, "text": "alpha beta"}', "title", "None"),
                             ('{"id": "d2", "text": null}', "text", "None"),
                             ('{"id": null, "text": "alpha"}', "id", "None"),
                             ('{"id": 7, "text": "alpha"}', "id", "7")):
        path.write_text('{"id": "d1", "text": "x"}\n' + record + "\n")
        with pytest.raises(ValueError, match=rf"c\.jsonl: line 2: .*{key} must be a string, "
                                             rf"got {got}$"):
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
    # a UTF-8 byte-order mark is not part of the first id
    path.write_text("\ufeffq1\twhat is bm25\n", encoding="utf-8")
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


def test_load_queries_rejects_empty_ids_and_ids_with_whitespace(tmp_path):
    path = tmp_path / "q.tsv"
    for qid in ("q 1", " q1", "q1\u00a0", "q\x0b1", ""):
        path.write_text(f"q0\tfine\n{qid}\ttext\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_queries(path)
        assert "line 2" in str(exc.value) and repr(qid) in str(exc.value)


# ids of every kind a loader might be handed
_CANDIDATE_IDS = ["p1", "P-1.0", "-0.0", "Q0", "1", "é", "a/b#c", "x_y:z", "p 1", "p\t1",
                  " p", "p\u00a0", "p\u2028", "p\u3000", "p\x1c1", "p\x0b", "p\x85",
                  "p\r1", "p\n1", "", "p\ud800"]


def test_every_id_the_loaders_accept_round_trips_a_run_file(tmp_path):
    passage_ids, query_ids = [], []
    for i, cid in enumerate(_CANDIDATE_IDS):
        corpus_path, query_path = tmp_path / f"c{i}.jsonl", tmp_path / f"q{i}.tsv"
        corpus_path.write_text(json.dumps({"id": cid, "text": "x"}) + "\n",
                               encoding="utf-8")
        with open(query_path, "w", encoding="utf-8", errors="surrogatepass",
                  newline="") as f:
            f.write(f"{cid}\ttext\n")
        try:
            passage_ids += load_corpus(corpus_path).ids()
        except ValueError:
            pass
        try:
            query_ids += [q.id for q in load_queries(query_path)]
        except ValueError:
            pass
    assert passage_ids == ["p1", "P-1.0", "-0.0", "Q0", "1", "é", "a/b#c", "x_y:z"]
    # "p\t1\ttext" is query "p" with text "1\ttext"
    assert query_ids == passage_ids + ["p"]
    run = RunFile("t", {qid: [(pid, float(-j)) for j, pid in enumerate(passage_ids)]
                        for qid in query_ids})
    path = tmp_path / "run.trec"
    write_run(run, path)
    assert read_run(path).rankings == run.rankings


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
    assert qrels.judgments == {("q1", "d1"): 1}
    assert qrels.relevant("q1") == {"d1": 1}
    # a UTF-8 byte-order mark is not part of the first id
    path.write_text("\ufeffq1 0 d1 1\n", encoding="utf-8")
    assert load_qrels(path) == qrels


def test_load_qrels_zero_grade_is_nonrelevant(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 0\n")
    qrels = load_qrels(path)
    assert qrels.judgments == {("q1", "d1"): 0}
    assert qrels.relevant("q1") == {}
    assert qrels.query_ids() == []


def test_load_qrels_later_line_overwrites(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 1\nq1 0 d1 2\n")
    assert load_qrels(path).judgments == {("q1", "d1"): 2}


def test_load_qrels_non_integer_grade(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 high\n")
    with pytest.raises(ValueError, match="line 1"):
        load_qrels(path)


def test_load_qrels_negative_grade_names_file_and_line(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 p0 1\nq1 0 p1 -1\n")
    with pytest.raises(ValueError, match=r"qrels\.txt: line 2: grade must be >= 0, got -1 "
                                         r"for \(q1, p1\)"):
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
