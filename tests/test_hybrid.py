"""Tests for score-level BM25 + dense fusion and the fusion-weight grid search."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import hybridrank.hybrid
from hybridrank.bm25 import Bm25Index, encode_query
from hybridrank.corpus import PASSAGE_LENGTH, QUERY_LENGTH, VOCAB_SIZE, Corpus, Passage, \
    QrelSet, Query, passage_tokens, tokenize
from hybridrank.dense import EncoderParams, de_retrieve, encode, encode_corpus, \
    init_params, normalize_rows
from hybridrank.evaluation import RunFile, compute_metric
from hybridrank.npzio import deterministic_savez, load_npz
from hybridrank.hybrid import (
    DEFAULT_LAMBDA_GRID,
    HYBRID_FORMAT,
    HybridIndex,
    hybrid_retrieve,
    lambda_curve,
    load_hybrid_index,
    save_hybrid_index,
    tune_lambda,
)
from hybridrank.results import ranked_list, top_k_order
from oracles import compute_stats, cosine, dot, encode_passage



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


def _index(corpus, encoder, lam):
    """A hybrid index over ``corpus`` the way the pipeline builds one."""
    rows = normalize_rows(encode_corpus(encoder, corpus))
    return HybridIndex(Bm25Index(corpus), encoder, rows, lam)


def _bm25_list(index, query, k):
    return ranked_list(query.id, index.cut("bm25", *index.score_components(query), k))


def _random_setup(seed, n_passages=30):
    rng = np.random.default_rng(seed)
    words = _distinct_words(40)
    texts = [" ".join(rng.choice(words, size=rng.integers(3, 10)))
             for _ in range(n_passages)]
    corpus = Corpus([Passage(f"d{i:03d}", "", t) for i, t in enumerate(texts)])
    encoder = init_params(8, seed=seed)
    index = _index(corpus, encoder, 2.0)
    queries = [Query(f"q{i}", " ".join(rng.choice(words, size=3))) for i in range(8)]
    return corpus, encoder, index, queries


# ---------------------------------------------------------------- scoring

def test_defaults():
    assert DEFAULT_LAMBDA_GRID == tuple(float(v) for v in range(50, 751, 50))


def test_default_grid_is_ascending_distinct_finite_and_nonnegative():
    # _contenders reads the end weights and ties go to the first best weight
    grid = np.asarray(DEFAULT_LAMBDA_GRID)
    assert grid.size and grid.dtype == np.float64
    assert np.all(np.isfinite(grid)) and np.all(grid >= 0)
    assert np.all(np.diff(grid) > 0)


def _fused_scores(index, query):
    """passage id -> fused score, from a retrieval over the whole index."""
    items = hybrid_retrieve(index, query, len(index)).items
    assert len(items) == len(index)
    return {it.passage_id: it.score for it in items}


def test_hybrid_score_decomposition_identity():
    corpus, encoder, index, queries = _random_setup(0)
    stats = compute_stats(corpus)
    for q in queries:
        qvec = encode_query(q)
        qdense = encode(encoder, q.tokens)
        fused = _fused_scores(index, q)
        for p in corpus:
            pvec = encode_passage(p, stats, index.bm25.k, index.bm25.b)
            pdense = encode(encoder, passage_tokens(p))
            expected = dot(qvec, pvec) + index.lam * cosine(qdense, pdense)
            assert abs(fused[p.id] - expected) <= 1e-9


def test_hybrid_score_direct_sum_example():
    # bm25 dot 3.0, cosine 0.5, lam 2 -> 4.0, assembled from synthetic components
    a, b = _distinct_words(2)
    corpus = Corpus([Passage("p", "", f"{a} {b}")])
    emb = np.zeros((VOCAB_SIZE, 2))
    emb[tokenize(a, 4)[0]] = [1.0, 0.0]
    emb[tokenize(b, 4)[0]] = [0.0, 1.0]
    encoder = EncoderParams(embeddings=emb, seed=0)
    index = _index(corpus, encoder, 2.0)
    q = Query("q", a)
    bm25_part = index.bm25.scores(q)
    cos_part = cosine(encode(encoder, q.tokens),
                      encode(encoder, passage_tokens(corpus[0])))
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
    emb = np.zeros((VOCAB_SIZE, 2))  # probe embeds to zero
    emb[tokenize(lex, 4)[0]] = [0.5, 0.0]
    emb[tokenize(sem, 4)[0]] = [0.0, 1.0]
    emb[tokenize(qsem, 4)[0]] = [0.0, 1.0]
    encoder = EncoderParams(embeddings=emb, seed=0)
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
    stats = compute_stats(corpus)
    n = len(corpus)
    for lam in (0.0, 1.0, 600.0):
        idx = index.with_lambda(lam)
        # materialize [sparse | dense] per passage; dense rows are unit norm
        mats = np.zeros((n, VOCAB_SIZE + encoder.dim))
        for i, p in enumerate(corpus):
            for t, w in encode_passage(p, stats, idx.bm25.k, idx.bm25.b).items():
                mats[i, t] = w
            mats[i, VOCAB_SIZE:] = idx.dense_rows[i]
        for q in queries:
            qcat = np.zeros(VOCAB_SIZE + encoder.dim)
            for t, w in encode_query(q).items():
                qcat[t] = w
            qdense = encode(encoder, q.tokens)
            qcat[VOCAB_SIZE:] = lam * qdense / np.linalg.norm(qdense)
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
    emb = np.zeros((VOCAB_SIZE, 2))
    emb[tokenize(a, 4)[0]] = [1.0, 0.0]
    emb[tokenize(b, 4)[0]] = [1.0, 0.2]
    emb[tokenize(c, 4)[0]] = [-1.0, 0.0]
    encoder = EncoderParams(embeddings=emb, seed=0)
    q = Query("q", a)
    for lam in (0.5, 10.0, 1e4):
        index = _index(corpus, encoder, lam)
        bm, cos = index.score_components(q)
        assert bm[0] == bm[1]  # same surface term, same lengths
        assert cos[0] > cos[1]
        got = hybrid_retrieve(index, q, 2)
        assert got.items[0].passage_id == "near"


# ---------------------------------------------------------------- tuning

def _set_grid(monkeypatch, grid):
    """Tune on ``grid`` (ascending, distinct) in place of the default grid."""
    monkeypatch.setattr(hybridrank.hybrid, "DEFAULT_LAMBDA_GRID", tuple(grid))


def test_tune_lambda_single_value_grid(monkeypatch):
    corpus, encoder, index, queries = _random_setup(6)
    qrels = QrelSet({(queries[0].id, corpus.ids()[0]): 1})
    _set_grid(monkeypatch, (123.0,))
    assert tune_lambda(index, [queries[0]], qrels) == 123.0


def test_tune_lambda_all_zero_dense_ties_to_smallest(monkeypatch):
    corpus, _, _, queries = _random_setup(7)
    encoder = EncoderParams(embeddings=np.zeros((VOCAB_SIZE, 4)), seed=0)
    index = _index(corpus, encoder, 1.0)
    qrels = QrelSet({(q.id, corpus.ids()[i]): 1 for i, q in enumerate(queries)})
    _set_grid(monkeypatch, (50.0, 150.0, 300.0))
    assert tune_lambda(index, queries, qrels) == 50.0


def test_tune_lambda_beats_endpoints_when_both_channels_matter(monkeypatch):
    """Mixed lexical/semantic relevance: tuned weight >= both grid endpoints."""
    rng = np.random.default_rng(8)
    words = _distinct_words(30)
    passages = []
    qrels = QrelSet()
    queries = []
    emb = np.zeros((VOCAB_SIZE, 4))
    for i, w in enumerate(words[:20]):
        emb[tokenize(w, 4)[0]] = rng.normal(size=4)
    for i in range(10):
        w_doc, w_syn = words[2 * i], words[2 * i + 1]
        # make the synonym's embedding close to the document word's
        t_doc = tokenize(w_doc, 4)[0]
        t_syn = tokenize(w_syn, 4)[0]
        emb[t_syn] = emb[t_doc] + rng.normal(scale=0.05, size=4)
        passages.append(Passage(f"d{i}", "", f"{w_doc} filler{i} extra{i}"))
        qtext = w_doc if i % 2 == 0 else w_syn
        queries.append(Query(f"q{i}", qtext))
        qrels.set(f"q{i}", f"d{i}", 1)
    corpus = Corpus(passages)
    encoder = EncoderParams(embeddings=emb, seed=0)
    index = _index(corpus, encoder, 1.0)
    grid = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
    _set_grid(monkeypatch, grid)
    best = tune_lambda(index, queries, qrels)

    def mean_mrr(lam):
        from hybridrank.evaluation import RunFile, compute_metric
        rankings = {q.id: [(it.passage_id, it.score)
                           for it in hybrid_retrieve(index.with_lambda(lam), q, 10).items]
                    for q in queries}
        return compute_metric(RunFile("t", rankings), qrels, "mrr", 10).mean

    assert mean_mrr(best) >= mean_mrr(grid[0]) - 1e-12
    assert mean_mrr(best) >= mean_mrr(grid[-1]) - 1e-12


def _tune_lambda_per_lambda(index, queries, qrels, grid):
    """Oracle for tune_lambda: a full hybrid_retrieve per weight, mean MRR@10
    on the tuned queries' judgments, exact ties to the smallest weight."""
    from hybridrank.evaluation import RunFile, compute_metric
    wanted = {q.id for q in queries}
    subset = QrelSet({key: g for key, g in qrels.judgments.items() if key[0] in wanted})
    best_lam, best_mean = None, -1.0
    for lam in sorted(set(grid)):
        rankings = {q.id: [(it.passage_id, it.score) for it in
                           hybrid_retrieve(index.with_lambda(lam), q, 10).items]
                    for q in queries}
        mean = compute_metric(RunFile("t", rankings), subset, "mrr", 10).mean
        if best_lam is None or mean > best_mean:
            best_lam, best_mean = lam, mean
    return best_lam


def test_tune_lambda_agrees_with_per_lambda_retrieval(monkeypatch):
    corpus, encoder, index, queries = _random_setup(9)
    qrels = QrelSet({(q.id, corpus.ids()[i]): 1 for i, q in enumerate(queries)})
    grid = (0.0, 1.0, 5.0)
    _set_grid(monkeypatch, grid)
    fast = tune_lambda(index, queries, qrels)
    slow = _tune_lambda_per_lambda(index, queries, qrels, grid)
    assert fast == slow


def test_tune_lambda_streamed_agrees_with_per_lambda_retrieval_on_tie_heavy_grid(monkeypatch):
    # Passages repeat four texts and most embedding rows are zero, so fused
    # scores tie within a query and metrics tie across grid points.  Ids are
    # shuffled, so the id tie-break is not corpus order.
    words = _distinct_words(8)
    texts = [" ".join(words[i:i + 3]) for i in (0, 2, 4, 5)]
    grid = (0.0, 1e-9, 0.5, 1.0, 2.0, 4.0, 1e6)
    _set_grid(monkeypatch, grid)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        corpus = Corpus([Passage(f"d{j:03d}", "", texts[int(rng.integers(4))])
                         for j in rng.permutation(40)])
        emb = np.zeros((VOCAB_SIZE, 4))
        for w in rng.choice(words, size=3, replace=False):
            emb[tokenize(w, 4)[0]] = rng.choice([-1.0, 1.0], size=4)
        encoder = EncoderParams(embeddings=emb, seed=0)
        index = _index(corpus, encoder, 0.0)
        queries = [Query(f"q{i}", " ".join(rng.choice(words, size=2))) for i in range(8)]
        ids = corpus.ids()
        qrels = QrelSet({(q.id, ids[int(rng.integers(len(ids)))]): 1 for q in queries})
        fast = tune_lambda(index, queries, qrels)
        slow = _tune_lambda_per_lambda(index, queries, qrels, grid)
        assert fast == slow, seed


# ---------------------------------------------------------------- λ curves

class _Scored:
    """A stand-in index whose queries' (bm25 scores, cosines) are given.

    Passage i's id is "p" and its zero-padded id rank, so ``id_rank`` is the
    order of the ids, as in a real index."""

    def __init__(self, components, id_rank):
        self.components = components  # query id -> (bm25 scores, cosines)
        self.ids = [f"p{r:04d}" for r in id_rank]
        self.bm25 = SimpleNamespace(id_rank=np.asarray(id_rank, dtype=np.int64))

    def score_components(self, query):
        return self.components[query.id]


def _oracle_curve(index, queries, qrels, grid):
    """lambda_curve the long way: a full top_k_order of every query at every
    weight, then compute_metric's MRR@10 on the tuned queries' judgments."""
    wanted = {q.id for q in queries}
    subset = QrelSet({key: g for key, g in qrels.judgments.items() if key[0] in wanted})
    scored = {q.id: index.score_components(q) for q in queries}
    curve = {}
    for lam in sorted(set(grid)):
        rankings = {}
        for qid, (bm25_scores, cos) in scored.items():
            fused = bm25_scores + lam * cos
            order = top_k_order(fused, index.bm25.id_rank, 10).tolist()
            rankings[qid] = [(index.ids[i], float(fused[i])) for i in order]
        curve[lam] = compute_metric(RunFile("t", rankings), subset, "mrr", 10).mean
    return curve


def _assert_curves_match(monkeypatch, index, queries, qrels, grid):
    _set_grid(monkeypatch, grid)
    got = lambda_curve(index, queries, qrels)
    expected = _oracle_curve(index, queries, qrels, grid)
    assert list(got) == list(expected)
    assert got == expected


def _record_kept(monkeypatch) -> list:
    """Record, per query lambda_curve counts, the passages its filter keeps."""
    kept = []
    contenders = hybridrank.hybrid._contenders

    def recording(*args):
        kept.append(contenders(*args))
        return kept[-1]

    monkeypatch.setattr(hybridrank.hybrid, "_contenders", recording)
    return kept


def _scored_fixture(rng, n, bm25_pool, cos_pool, n_queries=6):
    """Tie-heavy queries over n passages with shuffled ids.

    Scores are drawn from small pools.  Each query has 0-3 judged passages,
    graded 0-3.  q0 also judges a passage absent from the corpus, q1 has no
    relevant judgment, and a judged query is left out of the queries returned.
    """
    id_rank = rng.permutation(n)
    index = _Scored({}, id_rank)
    queries, qrels = [], QrelSet()
    for i in range(n_queries + 1):
        q = Query(f"q{i}", "x")
        index.components[q.id] = (rng.choice(bm25_pool, size=n), rng.choice(cos_pool, size=n))
        for pos in rng.choice(n, size=min(n, int(rng.integers(0, 4))), replace=False):
            qrels.set(q.id, index.ids[pos], 0 if i == 1 else int(rng.integers(0, 4)))
        queries.append(q)
    qrels.set("q0", "absent", 2)
    qrels.set(queries[-1].id, index.ids[0], 1)
    return index, queries[:-1], qrels


def test_sweep_tie_heavy_random_scores(monkeypatch):
    rng = np.random.default_rng(8)
    for _ in range(40):
        index, queries, qrels = _scored_fixture(
            rng, int(rng.integers(2, 40)), [0.0, -0.0, 1.0, 2.0, 3.0],
            [0.0, -0.0, 0.5, -0.5, 1.0])
        grid = rng.choice([0.0, 0.5, 1.0, 2.0, 4.0], size=4, replace=False)
        _assert_curves_match(monkeypatch, index, queries, qrels, sorted(grid.tolist()))


def test_sweep_corpus_no_larger_than_cutoff(monkeypatch):
    rng = np.random.default_rng(3)
    for n in (1, 3, 5):
        index, queries, qrels = _scored_fixture(rng, n, [0.0, -0.0, 1.0, 2.5],
                                                [0.0, -0.0, 0.5, -1.0])
        _assert_curves_match(monkeypatch, index, queries, qrels, (0.0, 1.0, 2.0, 1e6))


def test_sweep_keeps_a_score_exactly_at_the_floor(monkeypatch):
    # p0002 (passage 1) is relevant.  At lam 1 passage 2 scores exactly its
    # 2.0, the filter's floor there, so it is kept; it wins the tie by id,
    # and the relevant passage drops from rank 2 to rank 3
    index = _Scored({"q": (np.array([3.0, 2.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.5]))},
                    [0, 2, 1, 3])
    queries, qrels = [Query("q", "x")], QrelSet({("q", "p0002"): 1})
    _set_grid(monkeypatch, (0.0, 1.0))
    assert lambda_curve(index, queries, qrels) == {0.0: 0.5, 1.0: 1 / 3}
    _assert_curves_match(monkeypatch, index, queries, qrels, (0.0, 1.0))


def test_sweep_counts_few_passages_per_query(monkeypatch):
    # bm25-like and cosine-like scores drawn from small pools of floats, so
    # fused scores tie often, over the default grid
    kept = _record_kept(monkeypatch)
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(20, 400))
        index, queries, qrels = _scored_fixture(
            rng, n, np.concatenate([[0.0], rng.gamma(2.0, 3.0, size=5)]),
            rng.uniform(-0.4, 0.9, size=8), n_queries=2)
        kept.clear()
        _assert_curves_match(monkeypatch, index, queries, qrels, DEFAULT_LAMBDA_GRID)
        assert kept and all(k.size < n for k in kept)


def test_sweep_keeps_a_passage_exactly_on_the_slack_edge(monkeypatch):
    # Exact dyadic arithmetic.  M = max|bm25| + 4 * max|cos| = 8, so the
    # slack is 8 eps * 8 = 2**-46.  Relevant passage 0 scores 4.0 at every
    # weight.  Passage 1 sits exactly on the threshold 4 - 2**-46 at both
    # ends and is kept; passage 2 is 2**-45 below it and passage 3 far
    # below, and both are left out.  Passage 4 ties passage 0 at lam 4 and
    # loses by id; passage 5 beats it at lam 0 and 1.
    kept = _record_kept(monkeypatch)
    bm25_scores = np.array([4.0, 4.0 - 2.0 ** -46, 4.0 - 2.0 ** -45, 3.0, 0.0, 4.5])
    cos = np.array([0.0, 0.0, 0.0, -1.0, 1.0, -0.25])
    index = _Scored({"q": (bm25_scores, cos)}, [0, 1, 2, 3, 4, 5])
    queries, qrels = [Query("q", "x")], QrelSet({("q", "p0000"): 1})
    _set_grid(monkeypatch, (0.0, 1.0, 4.0))
    assert lambda_curve(index, queries, qrels) == {0.0: 0.5, 1.0: 0.5, 4.0: 1.0}
    assert kept[0].tolist() == [0, 1, 4, 5]
    _assert_curves_match(monkeypatch, index, queries, qrels, (0.0, 1.0, 4.0))


def test_sweep_on_a_real_index(monkeypatch):
    corpus, encoder, index, queries = _random_setup(15)
    rng = np.random.default_rng(15)
    ids = corpus.ids()
    qrels = QrelSet()
    for q in queries[1:]:  # queries[0] has no judgment
        for pid in rng.choice(ids, size=int(rng.integers(1, 4)), replace=False):
            qrels.set(q.id, str(pid), int(rng.integers(1, 4)))
    qrels.set(queries[1].id, "not-in-corpus", 1)
    _assert_curves_match(monkeypatch, index, queries[:-1], qrels, (0.0, 0.5, 1.0, 5.0, 600.0))


def test_tune_lambda_stops_at_a_non_finite_cosine_naming_the_query(monkeypatch):
    corpus, encoder, _, queries = _random_setup(21)
    emb = encoder.embeddings.copy()
    emb[tokenize("zzzunseen", 4)[0]] = np.nan
    index = _index(corpus, EncoderParams(emb, 0), 1.0)
    queries = queries + [Query("qnan", queries[0].text + " zzzunseen")]
    qrels = QrelSet({(q.id, corpus.ids()[i]): 1 for i, q in enumerate(queries)})
    _set_grid(monkeypatch, (0.0, 1.0))
    with pytest.raises(ValueError, match="'qnan'.*not finite"):
        tune_lambda(index, queries, qrels)
    assert tune_lambda(index, queries[:-1], qrels) in (0.0, 1.0)


def test_tune_lambda_no_judged_queries_rejected(monkeypatch):
    _, _, index, queries = _random_setup(10)
    _set_grid(monkeypatch, (1.0,))
    with pytest.raises(ValueError):
        tune_lambda(index, queries, QrelSet())


# ---------------------------------------------------------------- validation / io

def test_hybrid_index_validates_inputs():
    corpus, encoder, index, _ = _random_setup(12)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="lam"):
            index.with_lambda(bad)
    rows = index.dense_rows.copy()
    rows[0] *= 3.0  # break normalization
    with pytest.raises(ValueError, match="normalized"):
        HybridIndex(index.bm25, encoder, rows, 1.0)
    with pytest.raises(ValueError, match="shape"):
        HybridIndex(index.bm25, encoder, rows[:, :4], 1.0)


def test_hybrid_save_load_bit_exact_scores(tmp_path):
    corpus, encoder, index, queries = _random_setup(13)
    prefix = tmp_path / "hy"
    assert save_hybrid_index(index, prefix) == [f"{prefix}.npz"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hy.npz"]
    loaded = load_hybrid_index(prefix)
    assert loaded.lam == index.lam and loaded.ids == index.ids
    assert (loaded.bm25.k, loaded.bm25.b) == (index.bm25.k, index.bm25.b)
    assert loaded.bm25.id_rank.tolist() == corpus.id_rank.tolist()
    assert loaded.encoder.seed == encoder.seed
    for a, b in ((index.bm25.terms, loaded.bm25.terms), (index.bm25.indptr, loaded.bm25.indptr),
                 (index.bm25.positions, loaded.bm25.positions),
                 (index.bm25.weights, loaded.bm25.weights),
                 (encoder.embeddings, loaded.encoder.embeddings),
                 (index.dense_rows, loaded.dense_rows)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for q in queries:
        for part, loaded_part in zip(index.score_components(q), loaded.score_components(q)):
            assert part.tobytes() == loaded_part.tobytes()
        for stage in ("bm25", "de", "hybrid"):
            a = ranked_list(q.id, index.cut(stage, *index.score_components(q), 5))
            b = ranked_list(q.id, loaded.cut(stage, *loaded.score_components(q), 5))
            assert a.items == b.items


def test_hybrid_save_deterministic_bytes(tmp_path):
    corpus, encoder, index, _ = _random_setup(15)
    save_hybrid_index(index, tmp_path / "a")
    save_hybrid_index(_index(corpus, encoder, index.lam), tmp_path / "b")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def test_load_hybrid_index_rejects_wrong_format(tmp_path):
    np.savez(tmp_path / "bad.npz", header=np.frombuffer(b'{"format": "other"}', dtype=np.uint8))
    with pytest.raises(ValueError, match="format"):
        load_hybrid_index(tmp_path / "bad")


@pytest.mark.parametrize("key", ["vocab_size", "max_length", "query_max_length"])
def test_load_hybrid_index_rejects_other_tokenizer_sizes(tmp_path, key):
    _, _, index, _ = _random_setup(16, n_passages=4)
    save_hybrid_index(index, tmp_path / "hy")
    path = tmp_path / "hy.npz"
    header, arrays = load_npz(path, HYBRID_FORMAT)
    assert (header["vocab_size"], header["max_length"], header["query_max_length"]) == \
        (VOCAB_SIZE, PASSAGE_LENGTH, QUERY_LENGTH)
    header[key] += 1
    deterministic_savez(path, header, **arrays)
    named = (rf"\b{key} {header[key]}\b.*VOCAB_SIZE is {VOCAB_SIZE}, PASSAGE_LENGTH is "
             f"{PASSAGE_LENGTH} and QUERY_LENGTH is {QUERY_LENGTH}")
    with pytest.raises(ValueError, match=named):
        load_hybrid_index(tmp_path / "hy")


def test_de_retrieve_scores_equal_hybrid_cosines_bit_for_bit():
    corpus, encoder, index, queries = _random_setup(14)
    queries = queries + [Query("empty", "zzzunseen")]
    for q in queries:
        _, cos = index.score_components(q)
        got = de_retrieve(encoder, corpus, q, len(corpus), passage_matrix=index.dense_rows)
        pos = [corpus.position(it.passage_id) for it in got.items]
        assert sorted(pos) == list(range(len(corpus)))
        assert [it.score for it in got.items] == [float(c) for c in cos[pos]]
