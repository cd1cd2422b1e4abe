"""Tests for the corpus token store and truncation: one tokenization per
passage, queries and passages cut at the tokenizer's lengths."""

import hashlib
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import hybridrank.bm25
import hybridrank.corpus
import hybridrank.dense
import hybridrank.reranker
from hybridrank.corpus import PASSAGE_LENGTH, QUERY_LENGTH, Corpus, Passage, Query, \
    passage_tokens, tokenize
from hybridrank.evaluation import RunFile
from hybridrank.results import CandidateItem, CandidateList
from hybridrank.synthetic import SyntheticCorpusSpec, make_synthetic_corpus

DIM = 8
LONG_WORDS = [f"w{i}" for i in range(PASSAGE_LENGTH + 30)]


def _word_ids(words):
    return [tokenize(w, 1)[0] for w in words]


def _corpus():
    # a titled passage, one without tokens, one longer than PASSAGE_LENGTH words
    return Corpus([Passage("a", "Title", "alpha beta. beta gamma"),
                   Passage("b", "", "..."),
                   Passage("c", "", " ".join(LONG_WORDS)),
                   Passage("d", "", "gamma delta alpha")])


def test_store_equals_per_passage_tokenize():
    corpus = _corpus()
    store = corpus.token_store()
    assert store.indptr.shape == (len(corpus) + 1,) and store.indptr[0] == 0
    assert store.ids.dtype == np.int32
    for i, p in enumerate(corpus):
        expected = passage_tokens(p)
        assert store[i].tolist() == list(expected)
        assert store.indptr[i + 1] - store.indptr[i] == len(expected)
    assert store.indptr[-1] == store.ids.size
    assert store[0].tolist() == _word_ids("title alpha beta beta gamma".split())
    # the long passage keeps the ids of its first PASSAGE_LENGTH words
    assert store[2].tolist() == _word_ids(LONG_WORDS[:PASSAGE_LENGTH])
    assert corpus.token_store() is store
    for arr in (store.indptr, store.ids, store[0]):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_store_of_the_default_synthetic_corpus_is_unchanged():
    # sha256 of the ids (int32) then indptr (int64), little-endian, for the
    # default spec at seed 0, recorded from the regex tokenizer this one replaced
    store = make_synthetic_corpus(SyntheticCorpusSpec(seed=0)).corpus.token_store()
    h = hashlib.sha256(store.ids.astype("<i4").tobytes())
    h.update(store.indptr.astype("<i8").tobytes())
    assert h.hexdigest() == \
        "a3982f73e006f73f2d6e5b2835cb94c54b63ed1babedbe238ac920adb7814062"


def test_store_is_built_one_passage_at_a_time():
    # 2,000 passages of 200 words: every passage's word list at once would
    # take about 15 times the store's 1.6 MB
    words = [f"w{i}" for i in range(200)]
    corpus = Corpus([Passage(f"p{i}", "", " ".join(words)) for i in range(2000)])
    tracemalloc.start()
    try:
        store = corpus.token_store()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert store.ids.size == 2000 * 200
    assert peak < 3 * (store.ids.nbytes + store.indptr.nbytes)


def test_a_long_query_is_cut_at_query_length_in_every_channel():
    # "keep" is the QUERY_LENGTH-th word of the long query and "drop" the next:
    # BM25 scoring, the cosines and rerank all see "keep" and none sees "drop"
    assert len(set(_word_ids(["filler", "keep", "drop", "alpha", "beta"]))) == 5
    filler = " ".join(["filler"] * (QUERY_LENGTH - 1))
    corpus = Corpus([Passage("a", "", "keep alpha"), Passage("b", "", "drop beta"),
                     Passage("c", "", "filler alpha beta")])
    index = hybridrank.bm25.Bm25Index(corpus)
    encoder = hybridrank.dense.init_params(DIM, seed=1)
    rows = hybridrank.dense.normalize_rows(hybridrank.dense.encode_corpus(encoder, corpus))
    params = hybridrank.reranker.init_reranker(
        hybridrank.dense.init_params(DIM, seed=2).embeddings, seed=2)
    run = RunFile("first", {"q": [("a", 3.0), ("b", 2.0), ("c", 1.0)]})

    def channels(text):
        q = Query("q", text)
        return (index.scores(q).tolist(),
                hybridrank.dense.query_cosines(encoder, rows, q).tolist(),
                hybridrank.reranker.rerank(params, run, [q], corpus, top_k=3).rankings["q"])

    cut = channels(f"{filler} keep")
    assert channels(f"{filler} keep drop") == cut
    assert channels(f"{filler} keep drop " + " ".join(LONG_WORDS)) == cut
    # each channel moves with "keep", and would move with "drop" if it saw it
    for without_keep, with_keep in zip(channels(filler), cut):
        assert without_keep != with_keep
    for keep, keep_drop in zip(channels("keep"), channels("keep drop")):
        assert keep != keep_drop


def _count_split_calls(monkeypatch) -> Counter:
    """Count the texts given to the word splitter, ``corpus._words``, the one
    step every tokenization path goes through."""
    texts: Counter = Counter()
    split = hybridrank.corpus._words

    def counting(text):
        texts[text] += 1
        return split(text)

    holders = [m for name, m in sys.modules.items()
               if (name == "hybridrank" or name.startswith("hybridrank."))
               and getattr(m, "_words", None) is split]
    assert holders == [hybridrank.corpus]
    monkeypatch.setattr(hybridrank.corpus, "_words", counting)
    return texts


def test_each_passage_is_tokenized_once_across_index_encoder_and_reranker(monkeypatch):
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(40)]
    corpus = Corpus([Passage(f"p{i}", f"t{i}" if i % 2 else "",
                             " ".join(rng.choice(words, size=6))) for i in range(12)])
    queries = [Query(f"q{i}", f"query {i} " + " ".join(rng.choice(words, size=3)))
               for i in range(4)]
    ids = corpus.ids()
    lists = [CandidateList(q.id, [CandidateItem(ids[(i + j) % 12], 0.0, label=int(j == 0))
                                  for j in range(5)])
             for i, q in enumerate(queries)]
    run = RunFile("first", {q.id: [(pid, -float(j)) for j, pid in enumerate(ids)]
                            for q in queries})
    texts = _count_split_calls(monkeypatch)

    hybridrank.bm25.Bm25Index(corpus)
    hybridrank.dense.encode_corpus(hybridrank.dense.init_params(DIM), corpus)
    rr = hybridrank.reranker
    params = rr.train_reranker(lists, queries, corpus,
                               rr.RerankTrainConfig(steps=2, batch_size=2),
                               init=rr.init_reranker(
                                   hybridrank.dense.init_params(DIM).embeddings))
    for _ in range(2):
        rr.rerank(params, run, queries, corpus, top_k=len(corpus))

    assert {p.encoding_text(): texts[p.encoding_text()] for p in corpus} == \
           {p.encoding_text(): 1 for p in corpus}


def test_each_query_is_tokenized_once_across_bm25_dense_and_reranker(monkeypatch):
    rng = np.random.default_rng(1)
    words = [f"w{i}" for i in range(40)]
    corpus = Corpus([Passage(f"p{i}", "", " ".join(rng.choice(words, size=6)))
                     for i in range(12)])
    queries = [Query(f"q{i}", " ".join(rng.choice(words, size=3))) for i in range(4)]
    ids = corpus.ids()
    run = RunFile("first", {q.id: [(pid, -float(j)) for j, pid in enumerate(ids)]
                            for q in queries})
    index = hybridrank.bm25.Bm25Index(corpus)
    encoder = hybridrank.dense.init_params(DIM)
    rows = hybridrank.dense.normalize_rows(hybridrank.dense.encode_corpus(encoder, corpus))
    rr = hybridrank.reranker
    params = rr.init_reranker(encoder.embeddings)
    texts: Counter = Counter()
    real = hybridrank.corpus.tokenize

    def counting(text, max_length):
        texts[text] += 1
        return real(text, max_length)

    monkeypatch.setattr(hybridrank.corpus, "tokenize", counting)
    for _ in range(2):
        for q in queries:
            index.scores(q)
            hybridrank.dense.query_cosines(encoder, rows, q)
        rr.rerank(params, run, queries, corpus, top_k=5)
    assert texts == Counter(q.text for q in queries)
