"""Tests for the corpus token store: one tokenization per passage and key."""

import sys
from collections import Counter

import numpy as np
import pytest

import hybridrank.bm25
import hybridrank.dense
import hybridrank.reranker
from hybridrank.corpus import Corpus, Passage, Query, tokenize
from hybridrank.evaluation import RunFile
from hybridrank.results import CandidateItem, CandidateList

VOCAB = 512
DIM = 8


def _corpus():
    # a titled passage, one without tokens, one longer than max_length below
    return Corpus([Passage("a", "Title", "alpha beta. beta gamma"),
                   Passage("b", "", "..."),
                   Passage("c", "", " ".join(f"w{i}" for i in range(30))),
                   Passage("d", "", "gamma delta alpha")])


def test_store_equals_per_passage_tokenize():
    corpus = _corpus()
    store = corpus.token_store(VOCAB, 12)
    assert store.indptr.shape == (len(corpus) + 1,) and store.indptr[0] == 0
    assert store.ids.dtype == np.int32
    for i, p in enumerate(corpus):
        expected = tokenize(p.encoding_text(), VOCAB, 12).tokens
        assert store[i].tolist() == list(expected)
        assert store.indptr[i + 1] - store.indptr[i] == len(expected)
    assert store.indptr[-1] == store.ids.size
    # cached per key, and a new key tokenizes afresh
    assert corpus.token_store(VOCAB, 12) is store
    other = corpus.token_store(VOCAB, 512)
    assert other is not store
    assert other[2].size == 30 and store[2].size == 12
    for arr in (store.indptr, store.ids, store[0]):
        with pytest.raises(ValueError):
            arr[0] = 1


def _count_tokenize_calls(monkeypatch) -> Counter:
    """Count the texts given to ``tokenize`` through every hybridrank module's name."""
    texts: Counter = Counter()

    def counting(text, *args, **kwargs):
        texts[text] += 1
        return tokenize(text, *args, **kwargs)

    modules = [m for name, m in sys.modules.items()
               if (name == "hybridrank" or name.startswith("hybridrank."))
               and getattr(m, "tokenize", None) is tokenize]
    assert sys.modules["hybridrank.corpus"] in modules
    for m in modules:
        monkeypatch.setattr(m, "tokenize", counting)
    return texts


def test_each_passage_is_tokenized_once_across_index_encoder_and_reranker(monkeypatch):
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(40)]
    corpus = Corpus([Passage(f"p{i}", f"t{i}" if i % 2 else "",
                             " ".join(rng.choice(words, size=6))) for i in range(12)])
    queries = [Query(f"q{i}", f"query {i} " + " ".join(rng.choice(words, size=3)))
               for i in range(4)]
    ids = corpus.ids()
    lists = [CandidateList(q.id, [CandidateItem(ids[(i + j) % 12], 0.0, j + 1,
                                                label=int(j == 0))
                                  for j in range(5)])
             for i, q in enumerate(queries)]
    run = RunFile("first", {q.id: [(pid, -float(j)) for j, pid in enumerate(ids)]
                            for q in queries})
    texts = _count_tokenize_calls(monkeypatch)

    hybridrank.bm25.Bm25Index(corpus, vocab_size=VOCAB)
    hybridrank.dense.encode_corpus(hybridrank.dense.init_params(VOCAB, DIM), corpus)
    rr = hybridrank.reranker
    params = rr.train_reranker(lists, queries, corpus,
                               rr.RerankTrainConfig(steps=2, batch_size=2,
                                                    vocab_size=VOCAB, dim=DIM),
                               init=rr.init_reranker(VOCAB, DIM))
    for _ in range(2):
        rr.rerank(params, run, queries, corpus, top_k=len(corpus))

    assert {p.encoding_text(): texts[p.encoding_text()] for p in corpus} == \
           {p.encoding_text(): 1 for p in corpus}
