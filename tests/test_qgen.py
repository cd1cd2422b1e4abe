"""Tests for extractive query generation and round-trip filtering."""

import numpy as np
import pytest

from hybridrank.corpus import VOCAB_SIZE, Corpus, Passage, Query, passage_tokens, query_tokens, \
    tokenize
from hybridrank.dense import DeTrainConfig, EncoderParams, encode, init_params
from hybridrank.qgen import (
    QgenConfig,
    SyntheticPair,
    generate_queries,
    iterative_train,
    round_trip_filter,
    sample_corpus,
    split_sentences,
)
from oracles import cosine



def _distinct_words(n):
    words, seen = [], set()
    i = 0
    while len(words) < n:
        w = f"tok{i}"
        t = tokenize(w, 4)[0]
        if t not in seen:
            seen.add(t)
            words.append(w)
        i += 1
    return words


# ---------------------------------------------------------------- sentence split

def test_split_sentences_basic():
    assert split_sentences("A b c. D e f.") == ["A b c", "D e f"]


def test_split_sentences_mixed_terminators():
    assert split_sentences("First one? Second two! Third three.") == \
        ["First one", "Second two", "Third three"]


def test_split_sentences_no_terminator():
    assert split_sentences("no punctuation here") == ["no punctuation here"]


def test_split_sentences_empty():
    assert split_sentences("") == []
    assert split_sentences("   .  ") == []


# ---------------------------------------------------------------- generation

def test_generate_sentence_mode_one_pair_per_sentence():
    corpus = Corpus([Passage("p1", "", "A b c. D e f.")])
    pairs = generate_queries(corpus, mode="sentence", max_per_passage=5)
    assert [(p.query.text, p.source_passage_id) for p in pairs] == \
        [("A b c", "p1"), ("D e f", "p1")]


def test_generate_sentence_mode_respects_max_per_passage():
    corpus = Corpus([Passage("p1", "", "A b c. D e f. G h i.")])
    pairs = generate_queries(corpus, mode="sentence", max_per_passage=1)
    assert len(pairs) == 1
    assert pairs[0].query.text == "A b c"


def test_generate_discards_short_queries():
    corpus = Corpus([Passage("p1", "", "Too so. Long enough sentence here.")])
    pairs = generate_queries(corpus, mode="sentence", max_per_passage=5)
    assert [p.query.text for p in pairs] == ["Long enough sentence here"]


def test_generate_query_ids_unique():
    corpus = Corpus([Passage("p1", "", "A b c. D e f."),
                     Passage("p2", "", "G h i.")])
    pairs = generate_queries(corpus, mode="sentence", max_per_passage=5)
    ids = [p.query.id for p in pairs]
    assert len(ids) == len(set(ids)) == 3


def test_generate_crop_mode_deterministic():
    text = " ".join(_distinct_words(30))
    corpus = Corpus([Passage("p1", "", text), Passage("p2", "", text)])
    a = generate_queries(corpus, mode="crop", max_per_passage=3, seed=5)
    b = generate_queries(corpus, mode="crop", max_per_passage=3, seed=5)
    assert a == b
    c = generate_queries(corpus, mode="crop", max_per_passage=3, seed=6)
    assert a != c  # overwhelmingly likely under a different seed


def test_generate_crop_mode_span_bounds():
    text = " ".join(_distinct_words(40))
    corpus = Corpus([Passage("p1", "", text)])
    pairs = generate_queries(corpus, mode="crop", max_per_passage=10, seed=0)
    for p in pairs:
        n = len(p.query.text.split())
        assert 4 <= n <= 16
        assert p.query.text in text  # contiguous crop


def test_generate_rejects_bad_args():
    corpus = Corpus([Passage("p", "", "x y z.")])
    with pytest.raises(ValueError):
        generate_queries(corpus, mode="llm")
    with pytest.raises(ValueError):
        generate_queries(corpus, max_per_passage=0)


def test_qgen_config_validation():
    with pytest.raises(ValueError):
        QgenConfig(mode="other")
    with pytest.raises(ValueError):
        QgenConfig(max_per_passage=0)
    with pytest.raises(ValueError):
        QgenConfig(sample_passages=0)
    with pytest.raises(ValueError):
        QgenConfig(fine_tune_epochs=-1)


# ---------------------------------------------------------------- sampling

def test_sample_corpus_subset_and_order():
    corpus = Corpus([Passage(f"d{i}", "", f"text {i} here") for i in range(20)])
    sub = sample_corpus(corpus, 5, seed=3)
    assert len(sub) == 5
    positions = [corpus.position(p.id) for p in sub]
    assert positions == sorted(positions)
    again = sample_corpus(corpus, 5, seed=3)
    assert again.ids() == sub.ids()


def test_sample_corpus_n_too_large_returns_whole():
    corpus = Corpus([Passage("a", "", "x y z")])
    assert sample_corpus(corpus, 10, seed=0) is corpus


# ---------------------------------------------------------------- round-trip filter

def _embedding_corpus():
    """Two passages with controlled embeddings: w_a -> axis 0, w_b -> axis 1."""
    a, b, c = _distinct_words(3)
    emb = np.zeros((VOCAB_SIZE, 2))
    emb[tokenize(a, 4)[0]] = [1.0, 0.0]
    emb[tokenize(b, 4)[0]] = [0.0, 1.0]
    emb[tokenize(c, 4)[0]] = [1.0, 0.1]
    corpus = Corpus([Passage("pa", "", a), Passage("pb", "", b)])
    de = EncoderParams(embeddings=emb, seed=0)
    return corpus, de, (a, b, c)


def test_filter_single_passage_keeps_all():
    corpus = Corpus([Passage("solo", "", "just one passage")])
    de = init_params(4, seed=0)
    pairs = [SyntheticPair(Query("q0", "whatever text"), "solo")]
    assert round_trip_filter(pairs, de, corpus) == pairs


def test_filter_removes_pair_closer_to_other_passage():
    corpus, de, (a, b, c) = _embedding_corpus()
    good = SyntheticPair(Query("g", a), "pa")       # 1-NN is pa
    drifted = SyntheticPair(Query("d", c), "pb")    # embeds near pa, claims pb
    kept = round_trip_filter([good, drifted], de, corpus)
    assert kept == [good]


def test_filter_source_must_win_ties():
    # query equidistant from both passages: tie goes to ascending id "pa",
    # so a pair claiming "pb" is dropped even though it ties for 1-NN
    a, b = _distinct_words(2)
    emb = np.zeros((VOCAB_SIZE, 2))
    emb[tokenize(a, 4)[0]] = [1.0, 0.0]
    emb[tokenize(b, 4)[0]] = [1.0, 0.0]
    corpus = Corpus([Passage("pa", "", a), Passage("pb", "", b)])
    de = EncoderParams(embeddings=emb, seed=0)
    claims_pb = SyntheticPair(Query("q", a), "pb")
    claims_pa = SyntheticPair(Query("q2", a), "pa")
    assert round_trip_filter([claims_pb, claims_pa], de, corpus) == [claims_pa]


def test_filter_subset_order_and_idempotence():
    rng = np.random.default_rng(4)
    words = _distinct_words(24)
    corpus = Corpus([Passage(f"d{i}", "", " ".join(words[3 * i: 3 * i + 3]))
                     for i in range(8)])
    de = init_params(8, seed=1)
    pairs = [SyntheticPair(Query(f"q{i}", " ".join(rng.choice(words, size=2))),
                           f"d{i % 8}") for i in range(20)]
    once = round_trip_filter(pairs, de, corpus)
    assert [p for p in pairs if p in once] == once  # order preserved, subset
    twice = round_trip_filter(once, de, corpus)
    assert twice == once


def test_filter_survivors_validated_by_exhaustive_oracle():
    rng = np.random.default_rng(9)
    words = _distinct_words(30)
    corpus = Corpus([Passage(f"d{i}", "", " ".join(words[3 * i: 3 * i + 3]))
                     for i in range(10)])
    de = init_params(6, seed=2)
    pairs = [SyntheticPair(Query(f"q{i}", " ".join(rng.choice(words, size=3))),
                           f"d{i % 10}") for i in range(30)]
    kept = set(p.query.id for p in round_trip_filter(pairs, de, corpus))
    for pair in pairs:
        qvec = encode(de, query_tokens(pair.query))
        sims = [(cosine(qvec, encode(de, passage_tokens(p))), p.id)
                for p in corpus]
        best = max(sims, key=lambda t: (t[0], [-ord(ch) for ch in t[1]]))
        # oracle: max cosine, ties to ascending id
        top_sim = max(s for s, _ in sims)
        tied = sorted(pid for s, pid in sims if s == top_sim)
        survives = tied[0] == pair.source_passage_id
        assert (pair.query.id in kept) == survives


# ---------------------------------------------------------------- iterative train

def _sentence_corpus(n=16):
    words = _distinct_words(3 * n)
    return Corpus([Passage(f"d{i}", "",
                           f"{words[3 * i]} {words[3 * i + 1]} {words[3 * i + 2]}.")
                   for i in range(n)])


def test_iterative_train_zero_finetune_keeps_de0():
    corpus = _sentence_corpus(8)
    gen = QgenConfig(mode="sentence", max_per_passage=1, seed=0, fine_tune_epochs=0)
    de = DeTrainConfig(epochs=2, batch_size=4, dim=8, seed=3)
    de0, de1, report = iterative_train(corpus, gen, de)
    assert np.array_equal(de0.embeddings, de1.embeddings)


def test_iterative_train_report_counts():
    corpus = _sentence_corpus(12)
    gen = QgenConfig(mode="sentence", max_per_passage=1, seed=0)
    de = DeTrainConfig(epochs=3, batch_size=4, dim=8, seed=3)
    de0, de1, report = iterative_train(corpus, gen, de)
    assert report["before"] == 12
    assert 0 < report["after"] <= report["before"]
    assert report["kept_ratio"] == pytest.approx(report["after"] / report["before"])


def test_iterative_train_empty_corpus_rejected():
    with pytest.raises(ValueError):
        iterative_train(Corpus([]), QgenConfig(), DeTrainConfig())
