"""Tests for score-level BM25 + dense fusion and the fusion-weight grid search."""

import numpy as np
import pytest

from hybridrank.bm25 import Bm25Index, dot, encode_passage, encode_query
from hybridrank.corpus import Corpus, Passage, QrelSet, Query, tokenize
from hybridrank.dense import EncoderParams, cosine, de_retrieve, encode_corpus, \
    encode_text, init_params, normalize_rows
from hybridrank.hybrid import (
    DEFAULT_LAMBDA_GRID,
    HybridIndex,
    _sweep,
    hybrid_retrieve,
    load_hybrid_index,
    save_hybrid_index,
    tune_lambda,
)
from hybridrank.results import ranked_list, top_k_order

VOCAB = 512


def _distinct_words(n):
    words, seen = [], set()
    i = 0
    while len(words) < n:
        w = f"tok{i}"
        t = tokenize(w, VOCAB, 4).tokens[0]
        if t not in seen:
            seen.add(t)
            words.append(w)
        i += 1
    return words


def _index(corpus, encoder, lam):
    """A hybrid index over ``corpus`` the way the pipeline builds one."""
    rows = normalize_rows(encode_corpus(encoder, corpus))
    return HybridIndex(Bm25Index(corpus, vocab_size=VOCAB), encoder, rows, lam)


def _bm25_list(index, query, k):
    return ranked_list(query.id, *index.cut("bm25", *index.score_components(query), k))


def _random_setup(seed, n_passages=30):
    rng = np.random.default_rng(seed)
    words = _distinct_words(40)
    texts = [" ".join(rng.choice(words, size=rng.integers(3, 10)))
             for _ in range(n_passages)]
    corpus = Corpus([Passage(f"d{i:03d}", "", t) for i, t in enumerate(texts)])
    encoder = init_params(VOCAB, 8, seed=seed)
    index = _index(corpus, encoder, 2.0)
    queries = [Query(f"q{i}", " ".join(rng.choice(words, size=3))) for i in range(8)]
    return corpus, encoder, index, queries


# ---------------------------------------------------------------- scoring

def test_defaults():
    assert DEFAULT_LAMBDA_GRID == tuple(float(v) for v in range(50, 751, 50))


def _fused_scores(index, query):
    """passage id -> fused score, from a retrieval over the whole index."""
    items = hybrid_retrieve(index, query, len(index)).items
    assert len(items) == len(index)
    return {it.passage_id: it.score for it in items}


def test_hybrid_score_decomposition_identity():
    corpus, encoder, index, queries = _random_setup(0)
    for q in queries:
        qvec = encode_query(q, VOCAB, index.bm25.query_max_length)
        qdense = encode_text(encoder, q.text, index.bm25.query_max_length)
        fused = _fused_scores(index, q)
        for p in corpus:
            pvec = encode_passage(p, index.bm25.stats, index.bm25.params)
            pdense = encode_text(encoder, p.encoding_text(), 512)
            expected = dot(qvec, pvec) + index.lam * cosine(qdense, pdense)
            assert abs(fused[p.id] - expected) <= 1e-9


def test_hybrid_score_direct_sum_example():
    # bm25 dot 3.0, cosine 0.5, lam 2 -> 4.0, assembled from synthetic components
    a, b = _distinct_words(2)
    corpus = Corpus([Passage("p", "", f"{a} {b}")])
    emb = np.zeros((VOCAB, 2))
    emb[tokenize(a, VOCAB, 4).tokens[0]] = [1.0, 0.0]
    emb[tokenize(b, VOCAB, 4).tokens[0]] = [0.0, 1.0]
    encoder = EncoderParams(embeddings=emb, dim=2, seed=0)
    index = _index(corpus, encoder, 2.0)
    q = Query("q", a)
    bm25_part = index.bm25.scores(q)
    cos_part = cosine(encode_text(encoder, a, 64),
                      encode_text(encoder, f"{a} {b}", 512))
    expected = float(bm25_part[0]) + 2.0 * cos_part
    assert _fused_scores(index, q)["p"] == pytest.approx(expected, abs=1e-12)


def test_lambda_zero_equals_bm25_dot():
    corpus, encoder, index, queries = _random_setup(2)
    zero = index.with_lambda(0.0)
    for q in queries:
        scores = index.bm25.scores(q)
        fused = _fused_scores(zero, q)
        for i, pid in enumerate(index.ids):
            assert fused[pid] == pytest.approx(float(scores[i]), abs=1e-12)


# ---------------------------------------------------------------- retrieval

def test_hybrid_retrieve_lambda_zero_matches_bm25_order_on_matches():
    corpus, encoder, index, queries = _random_setup(3)
    zero = index.with_lambda(0.0)
    for q in queries:
        bm25_ranked = _bm25_list(index, q, len(corpus))
        fused = hybrid_retrieve(zero, q, len(corpus))
        n = len(bm25_ranked.items)
        # matched prefix agrees; zero-score tail is id-ordered in both views
        assert [it.passage_id for it in fused.items[:n]] == \
               [it.passage_id for it in bm25_ranked.items]


def test_hybrid_retrieve_large_lambda_follows_dense():
    corpus, encoder, index, queries = _random_setup(4)
    big = index.with_lambda(1e9)
    for q in queries:
        _, cos = index.score_components(q)
        fused = hybrid_retrieve(big, q, 10)
        pos = {pid: i for i, pid in enumerate(index.ids)}
        got = [cos[pos[it.passage_id]] for it in fused.items]
        # descending cosine wherever the dense scores are distinct
        for a, b in zip(got, got[1:]):
            assert a >= b - 1e-12


def test_hybrid_retrieve_three_passage_construction():
    """A corpus where BM25, dense, and fused retrieval disagree on the winner."""
    lex, sem, qsem, probe = _distinct_words(4)
    corpus = Corpus([
        Passage("lexical", "", f"{probe} {probe} {probe}"),  # surface match only
        Passage("semantic", "", sem),                        # embedding match only
        Passage("balanced", "", f"{probe} {sem} {lex}"),     # some of both
    ])
    emb = np.zeros((VOCAB, 2))  # probe embeds to zero
    emb[tokenize(lex, VOCAB, 4).tokens[0]] = [0.5, 0.0]
    emb[tokenize(sem, VOCAB, 4).tokens[0]] = [0.0, 1.0]
    emb[tokenize(qsem, VOCAB, 4).tokens[0]] = [0.0, 1.0]
    encoder = EncoderParams(embeddings=emb, dim=2, seed=0)
    # query shares only the probe token and points at the semantic axis
    q = Query("q", f"{probe} {qsem}")
    lam = 2.0
    index = _index(corpus, encoder, lam)
    bm25_scores, cos = index.score_components(q)
    # each winner leads its runner-up by a margin, not by a tie-break
    for scores in (bm25_scores, cos, bm25_scores + lam * cos):
        first, second = np.sort(scores)[::-1][:2]
        assert first - second > 0.05
    bm25_top = _bm25_list(index, q, 1).items[0].passage_id
    dense_top = index.ids[int(np.argmax(cos))]
    fused_top = hybrid_retrieve(index, q, 1).items[0].passage_id
    assert bm25_top == "lexical"
    assert dense_top == "semantic"
    assert fused_top == "balanced"
    assert len({bm25_top, dense_top, fused_top}) == 3


def test_hybrid_retrieve_matches_materialized_concatenation():
    """Virtual fusion equals brute-force MIPS over explicit concatenated vectors."""
    corpus, encoder, index, queries = _random_setup(5)
    n = len(corpus)
    for lam in (0.0, 1.0, 600.0):
        idx = index.with_lambda(lam)
        # materialize [sparse | dense] per passage; dense rows are unit norm
        mats = np.zeros((n, VOCAB + encoder.dim))
        for i, p in enumerate(corpus):
            for t, w in encode_passage(p, idx.bm25.stats, idx.bm25.params).items():
                mats[i, t] = w
            mats[i, VOCAB:] = idx.dense_rows[i]
        for q in queries:
            qcat = np.zeros(VOCAB + encoder.dim)
            for t, w in encode_query(q, VOCAB, idx.bm25.query_max_length).items():
                qcat[t] = w
            qdense = encode_text(encoder, q.text, idx.bm25.query_max_length)
            qcat[VOCAB:] = lam * qdense / np.linalg.norm(qdense)
            brute = mats @ qcat
            got = hybrid_retrieve(idx, q, 10)
            pos = {pid: i for i, pid in enumerate(idx.ids)}
            expect_order = sorted(range(n), key=lambda i: (-brute[i], idx.ids[i]))[:10]
            assert [pos[it.passage_id] for it in got.items] == expect_order
            for it in got.items:
                assert abs(it.score - brute[pos[it.passage_id]]) <= 1e-6


def test_rank_monotonicity_equal_bm25():
    """With equal BM25 scores the higher-cosine passage wins for any lam > 0."""
    a, b, c = _distinct_words(3)
    corpus = Corpus([Passage("near", "", f"{a} {b}"), Passage("far", "", f"{a} {c}")])
    emb = np.zeros((VOCAB, 2))
    emb[tokenize(a, VOCAB, 4).tokens[0]] = [1.0, 0.0]
    emb[tokenize(b, VOCAB, 4).tokens[0]] = [1.0, 0.2]
    emb[tokenize(c, VOCAB, 4).tokens[0]] = [-1.0, 0.0]
    encoder = EncoderParams(embeddings=emb, dim=2, seed=0)
    q = Query("q", a)
    for lam in (0.5, 10.0, 1e4):
        index = _index(corpus, encoder, lam)
        bm, cos = index.score_components(q)
        assert bm[0] == bm[1]  # same surface term, same lengths
        assert cos[0] > cos[1]
        got = hybrid_retrieve(index, q, 2)
        assert got.items[0].passage_id == "near"


# ---------------------------------------------------------------- tuning

def test_tune_lambda_single_value_grid():
    corpus, encoder, index, queries = _random_setup(6)
    qrels = QrelSet({(queries[0].id, corpus.ids()[0]): 1})
    assert tune_lambda(index, [queries[0]], qrels, grid=(123.0,)) == 123.0


def test_tune_lambda_all_zero_dense_ties_to_smallest():
    corpus, _, _, queries = _random_setup(7)
    encoder = EncoderParams(embeddings=np.zeros((VOCAB, 4)), dim=4, seed=0)
    index = _index(corpus, encoder, 1.0)
    qrels = QrelSet({(q.id, corpus.ids()[i]): 1 for i, q in enumerate(queries)})
    assert tune_lambda(index, queries, qrels, grid=(300.0, 50.0, 150.0)) == 50.0


def test_tune_lambda_beats_endpoints_when_both_channels_matter():
    """Mixed lexical/semantic relevance: tuned weight >= both grid endpoints."""
    rng = np.random.default_rng(8)
    words = _distinct_words(30)
    passages = []
    qrels = QrelSet()
    queries = []
    emb = np.zeros((VOCAB, 4))
    for i, w in enumerate(words[:20]):
        emb[tokenize(w, VOCAB, 4).tokens[0]] = rng.normal(size=4)
    for i in range(10):
        w_doc, w_syn = words[2 * i], words[2 * i + 1]
        # make the synonym's embedding close to the document word's
        t_doc = tokenize(w_doc, VOCAB, 4).tokens[0]
        t_syn = tokenize(w_syn, VOCAB, 4).tokens[0]
        emb[t_syn] = emb[t_doc] + rng.normal(scale=0.05, size=4)
        passages.append(Passage(f"d{i}", "", f"{w_doc} filler{i} extra{i}"))
        qtext = w_doc if i % 2 == 0 else w_syn
        queries.append(Query(f"q{i}", qtext))
        qrels.set(f"q{i}", f"d{i}", 1)
    corpus = Corpus(passages)
    encoder = EncoderParams(embeddings=emb, dim=4, seed=0)
    index = _index(corpus, encoder, 1.0)
    grid = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
    best = tune_lambda(index, queries, qrels, grid=grid)

    def mean_mrr(lam):
        from hybridrank.evaluation import RunFile, mrr_at_k
        rankings = {q.id: [(it.passage_id, it.score)
                           for it in hybrid_retrieve(index.with_lambda(lam), q, 10).items]
                    for q in queries}
        return mrr_at_k(RunFile("t", rankings), qrels, 10).mean

    assert mean_mrr(best) >= mean_mrr(grid[0]) - 1e-12
    assert mean_mrr(best) >= mean_mrr(grid[-1]) - 1e-12


def _tune_lambda_per_lambda(index, queries, qrels, grid, cutoff=10):
    """Oracle for tune_lambda: a full hybrid_retrieve per weight, mean MRR on
    the tuned queries' judgments, exact ties to the smallest weight."""
    from hybridrank.evaluation import RunFile, mrr_at_k
    wanted = {q.id for q in queries}
    subset = QrelSet({key: g for key, g in qrels.judgments.items() if key[0] in wanted})
    best_lam, best_mean = None, -1.0
    for lam in sorted(set(grid)):
        rankings = {q.id: [(it.passage_id, it.score) for it in
                           hybrid_retrieve(index.with_lambda(lam), q, cutoff).items]
                    for q in queries}
        mean = mrr_at_k(RunFile("t", rankings), subset, cutoff).mean
        if best_lam is None or mean > best_mean:
            best_lam, best_mean = lam, mean
    return best_lam


def test_tune_lambda_agrees_with_per_lambda_retrieval():
    corpus, encoder, index, queries = _random_setup(9)
    qrels = QrelSet({(q.id, corpus.ids()[i]): 1 for i, q in enumerate(queries)})
    grid = (0.0, 1.0, 5.0)
    fast = tune_lambda(index, queries, qrels, grid=grid)
    slow = _tune_lambda_per_lambda(index, queries, qrels, grid)
    assert fast == slow


def test_tune_lambda_streamed_agrees_with_per_lambda_retrieval_on_tie_heavy_grid():
    # Passages repeat four texts and most embedding rows are zero, so fused
    # scores tie within a query and metrics tie across grid points.  Ids are
    # shuffled, so the id tie-break is not corpus order.
    words = _distinct_words(8)
    texts = [" ".join(words[i:i + 3]) for i in (0, 2, 4, 5)]
    grid = (0.0, 1e-9, 0.5, 1.0, 1.0, 2.0, 4.0, 1e6)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        corpus = Corpus([Passage(f"d{j:03d}", "", texts[int(rng.integers(4))])
                         for j in rng.permutation(40)])
        emb = np.zeros((VOCAB, 4))
        for w in rng.choice(words, size=3, replace=False):
            emb[tokenize(w, VOCAB, 4).tokens[0]] = rng.choice([-1.0, 1.0], size=4)
        encoder = EncoderParams(embeddings=emb, dim=4, seed=0)
        index = _index(corpus, encoder, 0.0)
        queries = [Query(f"q{i}", " ".join(rng.choice(words, size=2))) for i in range(8)]
        ids = corpus.ids()
        qrels = QrelSet({(q.id, ids[int(rng.integers(len(ids)))]): 1 for q in queries})
        for cutoff in (1, 3, 10):
            fast = tune_lambda(index, queries, qrels, grid=grid, cutoff=cutoff)
            slow = _tune_lambda_per_lambda(index, queries, qrels, grid, cutoff=cutoff)
            assert fast == slow, (seed, cutoff)


def _assert_sweep_equals_full_top_k(bm25_scores, cos, values, id_rank, cutoff):
    """Each warm-started order equals a full top_k_order at that weight."""
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN on purpose
        swept = list(_sweep(bm25_scores, cos, values, id_rank, cutoff))
        expected = [bm25_scores + lam * cos for lam in values]
    assert [lam for lam, _, _ in swept] == values
    for (lam, total, order), full in zip(swept, expected):
        assert np.array_equal(total, full, equal_nan=True)
        assert np.array_equal(order, top_k_order(full, id_rank, cutoff)), lam
    return [order.tolist() for _, _, order in swept]


def test_sweep_keeps_a_score_exactly_at_the_floor():
    # lam 0 keeps passages 0 and 1; at lam 1 the floor is passage 1's 2.0,
    # and passage 2 scores exactly 2.0 and wins the tie by id
    bm25_scores = np.array([3.0, 2.0, 1.0, 0.0])
    cos = np.array([0.0, 0.0, 1.0, 0.5])
    id_rank = np.array([0, 2, 1, 3])
    orders = _assert_sweep_equals_full_top_k(bm25_scores, cos, [0.0, 1.0], id_rank, 2)
    assert orders == [[0, 1], [0, 2]]


def test_sweep_nan_floor_falls_back_to_full_top_k():
    # at lam = inf a zero cosine fuses to NaN; passage 0 carries it into the
    # floor, and NaN scores must still sort last
    bm25_scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    cos = np.array([0.0, 0.5, -0.5, 0.25, 0.0])
    id_rank = np.arange(5)
    orders = _assert_sweep_equals_full_top_k(bm25_scores, cos, [0.0, np.inf, np.inf],
                                             id_rank, 3)
    assert orders[1] == [1, 3, 2]


def test_sweep_corpus_no_larger_than_cutoff():
    rng = np.random.default_rng(3)
    for n in (1, 3, 5):
        bm25_scores = rng.choice([0.0, -0.0, 1.0, 2.5], size=n)
        cos = rng.choice([0.0, -0.0, 0.5, -1.0], size=n)
        for cutoff in (n, n + 4):
            _assert_sweep_equals_full_top_k(bm25_scores, cos, [0.0, 1.0, 2.0, np.inf],
                                            rng.permutation(n), cutoff)


def test_sweep_tie_heavy_random_scores():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        bm25_scores = rng.choice([0.0, -0.0, 1.0, 2.0, 3.0], size=n)
        cos = rng.choice([0.0, -0.0, 0.5, -0.5, 1.0], size=n)
        values = sorted(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0], size=4, replace=False))
        _assert_sweep_equals_full_top_k(bm25_scores, cos, [float(v) for v in values],
                                        rng.permutation(n), int(rng.integers(1, 6)))


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
def test_tune_lambda_with_infinite_weight_agrees_with_per_lambda_retrieval():
    # 8 passages under a cutoff of 10.  Every other query's tokens get zero
    # embedding rows, so its cosines are 0 and fuse to NaN at lam = inf.
    for seed in range(3):
        corpus, encoder, _, queries = _random_setup(20 + seed, n_passages=8)
        emb = encoder.embeddings.copy()
        for q in queries[::2]:
            emb[list(tokenize(q.text, VOCAB, 64).tokens)] = 0.0
        index = _index(corpus, EncoderParams(emb, 8, 0), 600.0)
        assert np.isnan(index.score_components(queries[0])[1] * np.inf).all()
        qrels = QrelSet({(q.id, corpus.ids()[i]): 1 for i, q in enumerate(queries)})
        grid = (0.0, 1.0, float("inf"))
        assert tune_lambda(index, queries, qrels, grid=grid) == \
            _tune_lambda_per_lambda(index, queries, qrels, grid)


def test_tune_lambda_no_judged_queries_rejected():
    _, _, index, queries = _random_setup(10)
    with pytest.raises(ValueError):
        tune_lambda(index, queries, QrelSet(), grid=(1.0,))


def test_tune_lambda_validates_grid():
    _, _, index, queries = _random_setup(11)
    qrels = QrelSet({(queries[0].id, index.ids[0]): 1})
    with pytest.raises(ValueError):
        tune_lambda(index, queries, qrels, grid=())
    with pytest.raises(ValueError):
        tune_lambda(index, queries, qrels, grid=(-1.0,))
    with pytest.raises(ValueError, match="cutoff"):
        tune_lambda(index, queries, qrels, grid=(1.0,), cutoff=0)


# ---------------------------------------------------------------- validation / io

def test_hybrid_index_validates_inputs():
    corpus, encoder, index, _ = _random_setup(12)
    with pytest.raises(ValueError, match="lam"):
        index.with_lambda(-1.0)
    rows = index.dense_rows.copy()
    rows[0] *= 3.0  # break normalization
    with pytest.raises(ValueError, match="normalized"):
        HybridIndex(index.bm25, encoder, rows, 1.0)
    with pytest.raises(ValueError, match="shape"):
        HybridIndex(index.bm25, encoder, rows[:, :4], 1.0)


def test_hybrid_save_load_bit_exact_scores(tmp_path):
    corpus, encoder, index, queries = _random_setup(13)
    prefix = tmp_path / "hy"
    save_hybrid_index(index, prefix)
    loaded = load_hybrid_index(prefix)
    assert loaded.lam == index.lam
    for q in queries:
        a = hybrid_retrieve(index, q, 5)
        b = hybrid_retrieve(loaded, q, 5)
        assert [(it.passage_id, it.score) for it in a.items] == \
               [(it.passage_id, it.score) for it in b.items]


def test_de_retrieve_scores_equal_hybrid_cosines_bit_for_bit():
    corpus, encoder, index, queries = _random_setup(14)
    queries = queries + [Query("empty", "zzzunseen")]
    for q in queries:
        _, cos = index.score_components(q)
        got = de_retrieve(encoder, corpus, q, len(corpus),
                          query_max_length=index.bm25.query_max_length,
                          passage_matrix=index.dense_rows)
        pos = [corpus.position(it.passage_id) for it in got.items]
        assert sorted(pos) == list(range(len(corpus)))
        assert [it.score for it in got.items] == [float(c) for c in cos[pos]]
