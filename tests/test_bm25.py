"""Tests for sparse BM25 vectors, the inverted index, and persistence."""

import math
import random

import numpy as np
import pytest

from hybridrank.bm25 import (
    Bm25Index,
    Bm25Params,
    Bm25Stats,
    compute_stats,
    dot,
    encode_passage,
    encode_query,
    load_index,
    save_index,
)
from hybridrank.corpus import Corpus, Passage, Query, tokenize
from hybridrank.dense import EncoderParams
from hybridrank.hybrid import HybridIndex
from hybridrank.results import ranked_list

VOCAB = 4096


def _corpus(texts, prefix="d"):
    return Corpus([Passage(f"{prefix}{i}", "", t) for i, t in enumerate(texts)])


def _random_corpus(rng, n, vocab_words):
    texts = [" ".join(rng.choices(vocab_words, k=rng.randint(3, 30))) for _ in range(n)]
    return _corpus(texts)


WORDS = [f"w{i}" for i in range(120)]


def retrieve(index, query, k):
    """The bm25 first stage's top k, cut the way the pipeline cuts it."""
    hybrid = HybridIndex(index, EncoderParams(np.zeros((VOCAB, 1)), 1, 0),
                         np.zeros((len(index), 1)), 0.0)
    return ranked_list(query.id, *hybrid.cut("bm25", *hybrid.score_components(query), k))


# ---------------------------------------------------------------- stats / idf

def test_idf_single_passage_hand_value():
    stats = compute_stats(_corpus(["solo"]), vocab_size=VOCAB)
    term = tokenize("solo", VOCAB, 8).tokens[0]
    assert stats.idf[term] == pytest.approx(math.log(0.5 / 1.5 + 1.0), abs=1e-12)
    assert stats.idf[term] == pytest.approx(0.287682, abs=1e-6)


def test_idf_ubiquitous_term_small_positive():
    n = 500
    stats = compute_stats(_corpus(["common"] * 5 + [f"common extra{i}" for i in range(n - 5)]),
                          vocab_size=VOCAB)
    term = tokenize("common", VOCAB, 8).tokens[0]
    expected = math.log((n - n + 0.5) / (n + 0.5) + 1.0)
    assert stats.idf[term] == pytest.approx(expected, rel=1e-12)
    assert 0 < stats.idf[term] < 0.01


def test_idf_never_negative_random():
    rng = random.Random(7)
    stats = compute_stats(_random_corpus(rng, 60, WORDS), vocab_size=VOCAB)
    assert all(v >= 0.0 for v in stats.idf.values())


def test_avg_length_uniform():
    stats = compute_stats(_corpus(["a b c d e f g h i j"] * 4), vocab_size=VOCAB)
    assert stats.avg_length == 10.0
    assert all(length == 10 for length in stats.lengths.values())


def test_compute_stats_empty_corpus_rejected():
    with pytest.raises(ValueError):
        compute_stats(Corpus([]))


# ---------------------------------------------------------------- encoding

def test_encode_passage_hand_weight():
    # cnt=2, k=0.9, b=0.8, passage length m = avg length -> norm = k
    # weight = idf * 2 * 1.9 / (2 + 0.9); pick idf from a 2-passage corpus.
    corpus = _corpus(["t t f1 f2 f3 f4 f5 f6 f7 f8",
                      "g1 g2 g3 g4 g5 g6 g7 g8 g9 g10"])
    stats = compute_stats(corpus, vocab_size=VOCAB)
    term = tokenize("t", VOCAB, 8).tokens[0]
    vec = encode_passage(corpus.get("d0"), stats, Bm25Params(k=0.9, b=0.8))
    expected = stats.idf[term] * 2 * 1.9 / 2.9
    assert vec[term] == pytest.approx(expected, rel=1e-12)
    # the spec's worked value assumes idf = 1; check the saturation factor alone
    assert expected / stats.idf[term] == pytest.approx(1.310345, abs=1e-6)


def test_encode_passage_b_zero_ignores_length():
    short = _corpus(["term", "x " * 9])  # very different lengths
    stats = compute_stats(short, vocab_size=VOCAB)
    term = tokenize("term", VOCAB, 8).tokens[0]
    vec = encode_passage(short.get("d0"), stats, Bm25Params(k=0.9, b=0.0))
    assert vec[term] == pytest.approx(stats.idf[term] * 1.9 / 1.9, rel=1e-12)


def test_encode_passage_empty_text_gives_empty_vector():
    corpus = _corpus(["real text here"])
    stats = compute_stats(corpus, vocab_size=VOCAB)
    ghost = Passage("ghost", "", "!!! ...")  # tokenizes to nothing
    assert encode_passage(ghost, stats, Bm25Params()) == {}


def test_encode_query_term_counts():
    vec = encode_query(Query("q", "apple apple pie"), vocab_size=VOCAB)
    apple = tokenize("apple", VOCAB, 8).tokens[0]
    pie = tokenize("pie", VOCAB, 8).tokens[0]
    assert vec == {apple: 2.0, pie: 1.0}


def test_encode_query_empty():
    assert encode_query(Query("q", "..."), vocab_size=VOCAB) == {}


def test_encode_query_repeated_token():
    vec = encode_query(Query("q", " ".join(["echo"] * 5)), vocab_size=VOCAB)
    assert list(vec.values()) == [5.0]


# ---------------------------------------------------------------- dot product

def test_dot_disjoint_supports():
    assert dot({1: 2.0}, {2: 3.0}) == 0.0


def test_dot_hand_value():
    assert dot({7: 2.0}, {7: 1.310345}) == pytest.approx(2.620690, abs=1e-9)


def test_dot_symmetry_random():
    rng = random.Random(0)
    for _ in range(20):
        a = {rng.randrange(50): rng.uniform(-2, 2) for _ in range(rng.randint(0, 12))}
        b = {rng.randrange(50): rng.uniform(-2, 2) for _ in range(rng.randint(0, 12))}
        assert dot(a, b) == dot(b, a)


def test_dot_identity_matches_direct_formula():
    """dot(query_vec, passage_vec) == summed BM25 formula, pair by pair."""
    rng = random.Random(11)
    corpus = _random_corpus(rng, 40, WORDS)
    params = Bm25Params()
    stats = compute_stats(corpus, vocab_size=VOCAB)
    queries = [Query(f"q{i}", " ".join(rng.choices(WORDS, k=rng.randint(1, 6))))
               for i in range(15)]
    for q in queries:
        qcounts = encode_query(q, vocab_size=VOCAB)
        for p in corpus:
            direct = 0.0
            pcounts = {}
            for t in tokenize(p.encoding_text(), VOCAB, stats.max_length).tokens:
                pcounts[t] = pcounts.get(t, 0) + 1
            m = sum(pcounts.values())
            for t, qc in qcounts.items():
                cnt = pcounts.get(t, 0)
                if cnt == 0:
                    continue
                norm = params.k * (1 - params.b + params.b * m / stats.avg_length)
                direct += qc * stats.idf[t] * cnt * (params.k + 1) / (cnt + norm)
            vec = encode_passage(p, stats, params)
            assert abs(dot(qcounts, vec) - direct) <= 1e-9


def test_passage_weights_nonnegative():
    rng = random.Random(3)
    corpus = _random_corpus(rng, 30, WORDS)
    stats = compute_stats(corpus, vocab_size=VOCAB)
    for p in corpus:
        vec = encode_passage(p, stats, Bm25Params())
        assert all(w >= 0.0 for w in vec.values())


def test_query_count_monotonicity():
    corpus = _corpus(["target word appears here", "unrelated filler text"])
    stats = compute_stats(corpus, vocab_size=VOCAB)
    params = Bm25Params()
    vec = encode_passage(corpus.get("d0"), stats, params)
    s1 = dot(encode_query(Query("q", "target"), vocab_size=VOCAB), vec)
    s2 = dot(encode_query(Query("q", "target target"), vocab_size=VOCAB), vec)
    assert s2 >= s1 > 0


# ---------------------------------------------------------------- retrieval

def test_retrieve_no_shared_terms_empty():
    index = Bm25Index(_corpus(["alpha beta", "gamma delta"]), vocab_size=VOCAB)
    result = retrieve(index, Query("q", "zzz-unseen-term"), 5)
    assert result.items == []


def test_retrieve_tie_broken_by_passage_id():
    # two identical passages tie exactly; ascending id wins
    index = Bm25Index(_corpus(["same text", "same text"]), vocab_size=VOCAB)
    result = retrieve(index, Query("q", "same"), 2)
    assert [it.passage_id for it in result.items] == ["d0", "d1"]
    assert result.items[0].score == result.items[1].score


def test_retrieve_ranks_consecutive_and_scores_descending():
    rng = random.Random(23)
    index = Bm25Index(_random_corpus(rng, 50, WORDS), vocab_size=VOCAB)
    result = retrieve(index, Query("q", "w1 w2 w3"), 20)
    assert [it.rank for it in result.items] == list(range(1, len(result.items) + 1))
    scores = [it.score for it in result.items]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_matches_bruteforce_oracle():
    """Inverted-index retrieval equals exhaustive dot-product ranking."""
    rng = random.Random(5)
    corpus = _random_corpus(rng, 80, WORDS)
    params = Bm25Params()
    stats = compute_stats(corpus, vocab_size=VOCAB)
    index = Bm25Index(corpus, params=params, vocab_size=VOCAB)
    vecs = {p.id: encode_passage(p, stats, params) for p in corpus}
    for i in range(15):
        q = Query(f"q{i}", " ".join(rng.choices(WORDS, k=rng.randint(1, 5))))
        qvec = encode_query(q, vocab_size=VOCAB)
        brute = [(pid, dot(qvec, vec)) for pid, vec in vecs.items()]
        brute = [(pid, s) for pid, s in brute
                 if qvec.keys() & vecs[pid].keys()]  # matched-terms rule
        brute.sort(key=lambda t: (-t[1], t[0]))
        got = retrieve(index, q, 25)
        assert [it.passage_id for it in got.items] == [pid for pid, _ in brute[:25]]
        for it, (_, s) in zip(got.items, brute):
            assert it.score == s  # bitwise: same summation order
        assert index.scores(q).tolist() == [dot(qvec, vecs[p.id]) for p in corpus]


@pytest.mark.parametrize("params", [Bm25Params(k=0.0), Bm25Params(b=0.0), Bm25Params(b=1.0)])
def test_bm25_list_is_the_passages_sharing_a_query_term(params):
    """Every posting weight (Lucene IDF > 0) and query term count is > 0, so a
    passage scores > 0 exactly when it shares a term with the query."""
    rng = random.Random(31)
    for trial in range(5):
        corpus = _random_corpus(rng, 40, WORDS)
        index = Bm25Index(corpus, params=params, vocab_size=VOCAB)
        for i in range(10):
            words = rng.choices(WORDS + ["unseen1", "unseen2"], k=rng.randint(1, 3))
            q = Query(f"q{trial}-{i}", " ".join(words))
            terms = set(tokenize(q.text, VOCAB, 64).tokens)
            sharing = {p.id for p in corpus
                       if terms & set(tokenize(p.encoding_text(), VOCAB, 512).tokens)}
            assert {it.passage_id for it in retrieve(index, q, len(corpus)).items} == sharing


def test_retrieve_fewer_matches_than_k():
    index = Bm25Index(_corpus(["only match here", "nothing shared"]), vocab_size=VOCAB)
    result = retrieve(index, Query("q", "match"), 10)
    assert len(result.items) == 1


# ---------------------------------------------------------------- params

def test_params_validation():
    with pytest.raises(ValueError):
        Bm25Params(k=-0.1)
    with pytest.raises(ValueError):
        Bm25Params(b=1.5)


def test_index_postings_equal_passage_vectors():
    rng = random.Random(12)
    # "..." has no tokens, so its vector is empty and it posts nowhere
    corpus = _corpus(["...", "w1 w1 w1"] + [" ".join(rng.choices(WORDS, k=rng.randint(1, 30)))
                                           for _ in range(30)])
    stats = compute_stats(corpus, VOCAB)
    for params in (Bm25Params(k=1.2, b=0.6), Bm25Params(k=0.0, b=1.0), Bm25Params(b=0.0)):
        index = Bm25Index(corpus, params=params, vocab_size=VOCAB)
        assert index.stats == stats
        from_postings = [dict() for _ in corpus]
        for i, t in enumerate(index.terms.tolist()):
            row = slice(index.indptr[i], index.indptr[i + 1])
            for pos, w in zip(index.positions[row].tolist(), index.weights[row].tolist()):
                from_postings[pos][t] = w
        # equal floats: the index does encode_passage's arithmetic in its order
        assert from_postings == [encode_passage(p, stats, params) for p in corpus]
        # CSR: terms ascending, each term's passages ascending
        assert (np.diff(index.terms) > 0).all()
        for i in range(len(index.terms)):
            assert (np.diff(index.positions[index.indptr[i]:index.indptr[i + 1]]) > 0).all()


# ---------------------------------------------------------------- persistence

def test_index_save_load_bitwise_scores(tmp_path):
    rng = random.Random(9)
    corpus = _random_corpus(rng, 40, WORDS)
    index = Bm25Index(corpus, vocab_size=VOCAB)
    path = tmp_path / "bm25.npz"
    save_index(index, path)
    loaded = load_index(path)
    for i in range(8):
        q = Query(f"q{i}", " ".join(rng.choices(WORDS, k=3)))
        assert (index.scores(q) == loaded.scores(q)).all()
        ra = retrieve(index, q, 10)
        rb = retrieve(loaded, q, 10)
        assert [(x.passage_id, x.score) for x in ra.items] == \
               [(x.passage_id, x.score) for x in rb.items]
    assert loaded.id_rank.tolist() == corpus.id_rank.tolist()
    for name in ("terms", "indptr", "positions", "weights"):
        a, b = getattr(index, name), getattr(loaded, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_index_save_deterministic_bytes(tmp_path):
    corpus = _corpus(["alpha beta gamma", "beta gamma delta"])
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    save_index(Bm25Index(corpus, vocab_size=VOCAB), p1)
    save_index(Bm25Index(corpus, vocab_size=VOCAB), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_index_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, header=np.frombuffer(b'{"format": "other"}', dtype=np.uint8))
    with pytest.raises(ValueError, match="format"):
        load_index(path)
