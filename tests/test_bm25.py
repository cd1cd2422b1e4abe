"""Tests for sparse BM25 vectors and the inverted index."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from hybridrank import bm25, results
from hybridrank.bm25 import Bm25Index, encode_query
from hybridrank.corpus import PASSAGE_LENGTH, VOCAB_SIZE, Corpus, Passage, Query, tokenize
from hybridrank.dense import EncoderParams
from hybridrank.hybrid import HYBRID_FORMAT, HybridIndex, load_hybrid_index, save_hybrid_index
from hybridrank.npzio import load_npz
from hybridrank.results import ranked_list
from hybridrank.synthetic import SyntheticCorpusSpec, make_synthetic_corpus
from oracles import compute_stats, dot, encode_passage



def _corpus(texts, prefix="d"):
    return Corpus([Passage(f"{prefix}{i}", "", t) for i, t in enumerate(texts)])


def _random_corpus(rng, n, vocab_words):
    texts = [" ".join(rng.choices(vocab_words, k=rng.randint(3, 30))) for _ in range(n)]
    return _corpus(texts)


WORDS = [f"w{i}" for i in range(120)]


def retrieve(index, query, k):
    """The bm25 first stage's top k, cut the way the pipeline cuts it."""
    hybrid = HybridIndex(index, EncoderParams(np.zeros((VOCAB_SIZE, 1)), 0),
                         np.zeros((len(index), 1)), 0.0)
    return ranked_list(query.id, hybrid.cut("bm25", *hybrid.score_components(query), k))


# ---------------------------------------------------------------- stats / idf

def test_idf_single_passage_hand_value():
    stats = compute_stats(_corpus(["solo"]))
    term = tokenize("solo", 8)[0]
    assert stats.idf[term] == pytest.approx(math.log(0.5 / 1.5 + 1.0), abs=1e-12)
    assert stats.idf[term] == pytest.approx(0.287682, abs=1e-6)


def test_idf_ubiquitous_term_small_positive():
    n = 500
    stats = compute_stats(_corpus(["common"] * 5 + [f"common extra{i}" for i in range(n - 5)]))
    term = tokenize("common", 8)[0]
    expected = math.log((n - n + 0.5) / (n + 0.5) + 1.0)
    assert stats.idf[term] == pytest.approx(expected, rel=1e-12)
    assert 0 < stats.idf[term] < 0.01


def test_idf_never_negative_random():
    rng = random.Random(7)
    stats = compute_stats(_random_corpus(rng, 60, WORDS))
    assert all(v >= 0.0 for v in stats.idf.values())


def test_avg_length_uniform():
    stats = compute_stats(_corpus(["a b c d e f g h i j"] * 4))
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
    stats = compute_stats(corpus)
    term = tokenize("t", 8)[0]
    vec = encode_passage(corpus.get("d0"), stats, 0.9, 0.8)
    expected = stats.idf[term] * 2 * 1.9 / 2.9
    assert vec[term] == pytest.approx(expected, rel=1e-12)
    # the spec's worked value assumes idf = 1; check the saturation factor alone
    assert expected / stats.idf[term] == pytest.approx(1.310345, abs=1e-6)


def test_encode_passage_b_zero_ignores_length():
    short = _corpus(["term", "x " * 9])  # very different lengths
    stats = compute_stats(short)
    term = tokenize("term", 8)[0]
    vec = encode_passage(short.get("d0"), stats, 0.9, 0.0)
    assert vec[term] == pytest.approx(stats.idf[term] * 1.9 / 1.9, rel=1e-12)


def test_encode_passage_empty_text_gives_empty_vector():
    corpus = _corpus(["real text here"])
    stats = compute_stats(corpus)
    ghost = Passage("ghost", "", "!!! ...")  # tokenizes to nothing
    assert encode_passage(ghost, stats, bm25.K, bm25.B) == {}


def test_encode_query_term_counts():
    vec = encode_query(Query("q", "apple apple pie"))
    apple = tokenize("apple", 8)[0]
    pie = tokenize("pie", 8)[0]
    assert vec == {apple: 2.0, pie: 1.0}


def test_encode_query_empty():
    assert encode_query(Query("q", "...")) == {}


def test_encode_query_repeated_token():
    vec = encode_query(Query("q", " ".join(["echo"] * 5)))
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
    k, b = bm25.K, bm25.B
    stats = compute_stats(corpus)
    queries = [Query(f"q{i}", " ".join(rng.choices(WORDS, k=rng.randint(1, 6))))
               for i in range(15)]
    for q in queries:
        qcounts = encode_query(q)
        for p in corpus:
            direct = 0.0
            pcounts = {}
            for t in tokenize(p.encoding_text(), PASSAGE_LENGTH):
                pcounts[t] = pcounts.get(t, 0) + 1
            m = sum(pcounts.values())
            for t, qc in qcounts.items():
                cnt = pcounts.get(t, 0)
                if cnt == 0:
                    continue
                norm = k * (1 - b + b * m / stats.avg_length)
                direct += qc * stats.idf[t] * cnt * (k + 1) / (cnt + norm)
            vec = encode_passage(p, stats, k, b)
            assert abs(dot(qcounts, vec) - direct) <= 1e-9


def test_passage_weights_nonnegative():
    rng = random.Random(3)
    corpus = _random_corpus(rng, 30, WORDS)
    stats = compute_stats(corpus)
    for p in corpus:
        vec = encode_passage(p, stats, bm25.K, bm25.B)
        assert all(w >= 0.0 for w in vec.values())


def test_query_count_monotonicity():
    corpus = _corpus(["target word appears here", "unrelated filler text"])
    stats = compute_stats(corpus)
    vec = encode_passage(corpus.get("d0"), stats, bm25.K, bm25.B)
    s1 = dot(encode_query(Query("q", "target")), vec)
    s2 = dot(encode_query(Query("q", "target target")), vec)
    assert s2 >= s1 > 0


# ---------------------------------------------------------------- retrieval

def test_retrieve_no_shared_terms_empty():
    index = Bm25Index(_corpus(["alpha beta", "gamma delta"]))
    result = retrieve(index, Query("q", "zzz-unseen-term"), 5)
    assert result.items == []


def test_retrieve_tie_broken_by_passage_id():
    # two identical passages tie exactly; ascending id wins
    index = Bm25Index(_corpus(["same text", "same text"]))
    result = retrieve(index, Query("q", "same"), 2)
    assert [it.passage_id for it in result.items] == ["d0", "d1"]
    assert result.items[0].score == result.items[1].score


def test_retrieve_ranks_consecutive_and_scores_descending():
    rng = random.Random(23)
    index = Bm25Index(_random_corpus(rng, 50, WORDS))
    result = retrieve(index, Query("q", "w1 w2 w3"), 20)
    # the item at each position is the one at that position of a deeper list
    assert len(result.items) == 20
    assert result.items == retrieve(index, Query("q", "w1 w2 w3"), 50).items[:20]
    scores = [it.score for it in result.items]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_matches_bruteforce_oracle():
    """Inverted-index retrieval equals exhaustive dot-product ranking."""
    rng = random.Random(5)
    corpus = _random_corpus(rng, 80, WORDS)
    stats = compute_stats(corpus)
    index = Bm25Index(corpus)
    vecs = {p.id: encode_passage(p, stats, bm25.K, bm25.B) for p in corpus}
    for i in range(15):
        q = Query(f"q{i}", " ".join(rng.choices(WORDS, k=rng.randint(1, 5))))
        qvec = encode_query(q)
        brute = [(pid, dot(qvec, vec)) for pid, vec in vecs.items()]
        brute = [(pid, s) for pid, s in brute
                 if qvec.keys() & vecs[pid].keys()]  # matched-terms rule
        brute.sort(key=lambda t: (-t[1], t[0]))
        got = retrieve(index, q, 25)
        assert [it.passage_id for it in got.items] == [pid for pid, _ in brute[:25]]
        for it, (_, s) in zip(got.items, brute):
            assert it.score == s  # bitwise: same summation order
        assert index.scores(q).tolist() == [dot(qvec, vecs[p.id]) for p in corpus]


@pytest.mark.parametrize("params", [{"K": 0.0}, {"B": 0.0}, {"B": 1.0}])
def test_bm25_list_is_the_passages_sharing_a_query_term(monkeypatch, params):
    """Every posting weight (Lucene IDF > 0) and query term count is > 0, so a
    passage scores > 0 exactly when it shares a term with the query."""
    for name, value in params.items():
        monkeypatch.setattr(bm25, name, value)
    rng = random.Random(31)
    for trial in range(5):
        corpus = _random_corpus(rng, 40, WORDS)
        index = Bm25Index(corpus)
        for i in range(10):
            words = rng.choices(WORDS + ["unseen1", "unseen2"], k=rng.randint(1, 3))
            q = Query(f"q{trial}-{i}", " ".join(words))
            terms = set(tokenize(q.text, 64))
            sharing = {p.id for p in corpus
                       if terms & set(tokenize(p.encoding_text(), 512))}
            assert {it.passage_id for it in retrieve(index, q, len(corpus)).items} == sharing


def test_retrieve_fewer_matches_than_k():
    index = Bm25Index(_corpus(["only match here", "nothing shared"]))
    result = retrieve(index, Query("q", "match"), 10)
    assert len(result.items) == 1


# ---------------------------------------------------------------- params

def test_k_and_b_are_in_range():
    assert math.isfinite(bm25.K) and bm25.K >= 0
    assert math.isfinite(bm25.B) and 0 <= bm25.B <= 1


def test_index_postings_equal_passage_vectors(monkeypatch):
    rng = random.Random(12)
    # "..." has no tokens, so its vector is empty and it posts nowhere
    corpus = _corpus(["...", "w1 w1 w1"] + [" ".join(rng.choices(WORDS, k=rng.randint(1, 30)))
                                           for _ in range(30)])
    stats = compute_stats(corpus)
    for k, b in ((1.2, 0.6), (0.0, 1.0), (0.9, 0.0)):
        monkeypatch.setattr(bm25, "K", k)
        monkeypatch.setattr(bm25, "B", b)
        index = Bm25Index(corpus)
        assert (index.k, index.b) == (k, b)
        from_postings = [dict() for _ in corpus]
        for i, t in enumerate(index.terms.tolist()):
            row = slice(index.indptr[i], index.indptr[i + 1])
            for pos, w in zip(index.positions[row].tolist(), index.weights[row].tolist()):
                from_postings[pos][t] = w
        # equal floats: the index does encode_passage's arithmetic in its order
        assert from_postings == [encode_passage(p, stats, k, b) for p in corpus]
        # CSR: terms ascending, each term's passages ascending
        assert (np.diff(index.terms) > 0).all()
        for i in range(len(index.terms)):
            assert (np.diff(index.positions[index.indptr[i]:index.indptr[i + 1]]) > 0).all()


@pytest.mark.parametrize("block_tokens, block_passages", [(7, 1 << 16), (1 << 16, 3), (1, 1)])
def test_index_built_in_blocks_equals_one_block(monkeypatch, block_tokens, block_passages):
    # blocks cut inside runs of tokenless passages and at passages longer than
    # a block; the postings keep their bytes and dtypes
    rng = random.Random(5)
    texts = [" ".join(rng.choices(WORDS, k=rng.randint(1, 30))) for _ in range(40)]
    texts[3:6] = ["...", "!", "w2 " * 20]
    corpus = _corpus(texts + ["?"])
    whole = Bm25Index(corpus)
    monkeypatch.setattr(results, "BLOCK_ENTRIES", block_tokens)
    monkeypatch.setattr(bm25, "_BLOCK_PASSAGES", block_passages)
    blocked = Bm25Index(corpus)
    for name, dtype in (("terms", np.int64), ("indptr", np.int64), ("positions", np.int64),
                        ("weights", np.float64)):
        assert getattr(whole, name).dtype == getattr(blocked, name).dtype == dtype
        assert getattr(whole, name).tobytes() == getattr(blocked, name).tobytes(), name


def test_passage_terms_cuts_blocks_before_int32_keys_overflow():
    # 65,536 tokenless passages, then one with token 5: within one block the
    # last passage's key would be 65,536 * VOCAB_SIZE + 5 > 2**31 - 1
    indptr = np.zeros(bm25._BLOCK_PASSAGES + 2, dtype=np.int64)
    indptr[-1] = 1
    doc, term, cnt = bm25._passage_terms(indptr, np.array([5], dtype=np.int32))
    assert (doc.tolist(), term.tolist(), cnt.tolist()) == ([bm25._BLOCK_PASSAGES], [5], [1])


def test_index_build_peak_stays_near_its_postings():
    # int32 blocks, weights in place and the order array reused as positions:
    # the traced peak is under twice the postings plus four vocabulary-sized
    # float64 tables; one int64 unique over the whole corpus peaks above five times
    corpus = make_synthetic_corpus(SyntheticCorpusSpec(
        n_passages=3000, n_train_queries=5, n_test_queries=5, seed=0)).corpus
    corpus.token_store()
    tracemalloc.start()
    try:
        index = Bm25Index(corpus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    postings = sum(a.nbytes for a in index.fields()[1].values())
    assert peak < 2 * postings + 4 * VOCAB_SIZE * 8


def test_index_save_load_bitwise_scores(tmp_path):
    # the BM25 index is saved inside the hybrid index file
    rng = random.Random(9)
    corpus = _random_corpus(rng, 40, WORDS)
    index = Bm25Index(corpus)
    hybrid = HybridIndex(index, EncoderParams(np.zeros((VOCAB_SIZE, 1)), 0),
                         np.zeros((len(index), 1)), 0.0)
    save_hybrid_index(hybrid, tmp_path / "hy")
    loaded = load_hybrid_index(tmp_path / "hy").bm25
    for i in range(8):
        q = Query(f"q{i}", " ".join(rng.choices(WORDS, k=3)))
        assert (index.scores(q) == loaded.scores(q)).all()
        ra = retrieve(index, q, 10)
        rb = retrieve(loaded, q, 10)
        assert ra.items == rb.items
    assert (loaded.k, loaded.b) == (index.k, index.b) == (bm25.K, bm25.B)
    assert loaded.id_rank.tolist() == corpus.id_rank.tolist()
    for name in ("terms", "indptr", "positions", "weights"):
        a, b = getattr(index, name), getattr(loaded, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_an_index_keeps_the_k_and_b_its_weights_were_built_with(monkeypatch, tmp_path):
    # built under other constants, saved, then reloaded and saved again under
    # the defaults: the header and the loaded index keep the build's k and b
    corpus = _random_corpus(random.Random(4), 20, WORDS)
    monkeypatch.setattr(bm25, "K", 1.5)
    monkeypatch.setattr(bm25, "B", 0.25)
    index = Bm25Index(corpus)
    monkeypatch.undo()
    hybrid = HybridIndex(index, EncoderParams(np.zeros((VOCAB_SIZE, 1)), 0),
                         np.zeros((len(index), 1)), 0.0)
    save_hybrid_index(hybrid, tmp_path / "hy")
    header = load_npz(tmp_path / "hy.npz", HYBRID_FORMAT)[0]
    assert (header["k"], header["b"]) == (1.5, 0.25)
    loaded = load_hybrid_index(tmp_path / "hy")
    assert (loaded.bm25.k, loaded.bm25.b) == (1.5, 0.25)
    save_hybrid_index(loaded, tmp_path / "again")
    assert (tmp_path / "again.npz").read_bytes() == (tmp_path / "hy.npz").read_bytes()
