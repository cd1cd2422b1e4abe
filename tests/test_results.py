"""Tests for the shared ranking helpers: passage-id order, exact top-k and
the two-column ``Ranking``."""

import tracemalloc

import numpy as np
import pytest

from hybridrank.corpus import Corpus, Passage
from hybridrank.evaluation import RunFile
from hybridrank.results import CandidateItem, CandidateList, Ranking, id_rank, top_k, \
    top_k_order


def _oracle(scores, ranks, k):
    return np.lexsort((ranks, -scores))[:k]


def _check_all_k(scores, ranks):
    n = len(scores)
    for k in sorted({1, 2, n // 2, n - 1, n, n + 1, 3 * n} - {0}):
        got = top_k_order(scores, ranks, k)
        assert np.array_equal(got, _oracle(scores, ranks, k)), (k, scores, ranks)


# ---------------------------------------------------------------- id_rank

def test_id_rank_matches_sorted_order():
    ids = ["d10", "d2", "a", "d1", "B", "é", "d02"]
    expected = np.empty(len(ids), dtype=np.int64)
    for rank, pos in enumerate(sorted(range(len(ids)), key=ids.__getitem__)):
        expected[pos] = rank
    assert np.array_equal(id_rank(ids), expected)
    assert id_rank(ids).dtype == np.int64


def test_id_rank_empty():
    assert id_rank([]).shape == (0,)


def test_corpus_id_rank_cached_and_read_only():
    corpus = Corpus([Passage("zz", "", "x"), Passage("aa", "", "y"),
                     Passage("mm", "", "z")])
    assert corpus.id_rank.tolist() == [2, 0, 1]
    assert corpus.id_rank is corpus.id_rank
    with pytest.raises(ValueError):
        corpus.id_rank[0] = 5


# ---------------------------------------------------------------- top_k_order

def test_top_k_random_scores_match_full_sort():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 17, 200):
        scores = rng.normal(size=n)
        _check_all_k(scores, rng.permutation(n))


def test_top_k_heavy_ties_across_the_kth_score():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.integers(2, 60))
        # three distinct values, so most cutoffs fall inside a tied block
        scores = rng.choice([0.5, 1.0, 2.0], size=n)
        ranks = rng.permutation(n)
        for k in range(1, n + 2):
            got = top_k_order(scores, ranks, k)
            assert np.array_equal(got, _oracle(scores, ranks, k))


def test_top_k_all_equal_goes_by_id_rank():
    ranks = np.array([3, 0, 4, 1, 2])
    assert top_k_order(np.zeros(5), ranks, 3).tolist() == [1, 3, 4]


def test_top_k_signed_zeros_tie():
    scores = np.array([0.0, -0.0, 0.0, -0.0, -1.0, 1.0])
    ranks = np.array([5, 1, 3, 0, 2, 4])
    _check_all_k(scores, ranks)
    # +0.0 and -0.0 compare equal, so the id rank alone orders them
    assert top_k_order(scores, ranks, 3).tolist() == [5, 3, 1]


def test_top_k_infinities():
    scores = np.array([np.inf, 1.0, -np.inf, np.inf, -np.inf, 0.0])
    ranks = np.array([4, 0, 5, 1, 2, 3])
    _check_all_k(scores, ranks)
    assert top_k_order(scores, ranks, 2).tolist() == [3, 0]
    assert top_k_order(scores, ranks, 6).tolist()[-2:] == [4, 2]


def test_top_k_nan_sorts_last():
    rng = np.random.default_rng(2)
    for trial in range(30):
        n = int(rng.integers(2, 40))
        scores = rng.choice([np.nan, 1.0, 2.0, -np.inf, np.inf, 0.0, -0.0], size=n)
        _check_all_k(scores, rng.permutation(n))
    scores = np.array([np.nan, 1.0, np.nan, 2.0])
    ranks = np.array([0, 1, 2, 3])
    assert top_k_order(scores, ranks, 2).tolist() == [3, 1]
    # the k-th value itself is NaN: NaNs follow every number, by id rank
    assert top_k_order(scores, ranks, 3).tolist() == [3, 1, 0]
    assert top_k_order(np.full(3, np.nan), np.array([2, 0, 1]), 2).tolist() == [1, 2]


def test_top_k_k_at_and_beyond_n():
    scores = np.array([1.0, 3.0, 2.0])
    ranks = np.array([0, 1, 2])
    assert top_k_order(scores, ranks, 3).tolist() == [1, 2, 0]
    assert top_k_order(scores, ranks, 10).tolist() == [1, 2, 0]
    assert top_k_order(np.empty(0), np.empty(0, dtype=np.int64), 5).tolist() == []


# ---------------------------------------------------------------- Ranking

def test_ranking_and_run_file_keep_the_calls_perfbench_makes():
    """The calls perfbench/checks.py and perfbench/workloads.py make on runs:
    RunFile from pair lists and from_candidates, ``.rankings.items()``,
    iteration over (pid, score) with Python float scores, slicing and len,
    and ``==`` against a pair list from either side."""
    pairs = [("d9", 2.5), ("d4", 1.0), ("d1", -0.0)]
    run = RunFile("hybrid", {"q1": pairs, "q2": []})
    items = [CandidateItem(pid, score) for pid, score in pairs]
    from_lists = RunFile.from_candidates([CandidateList("q1", items),
                                          CandidateList("q2", [])], run_tag="hybrid")
    assert from_lists == run
    for qid, ranking in run.rankings.items():
        assert isinstance(ranking, Ranking)
    ranking = run.rankings["q1"]
    assert list(ranking) == pairs
    assert all(type(pid) is str and type(score) is float for pid, score in ranking)
    assert ranking == pairs and pairs == ranking
    assert not (ranking != pairs) and ranking != pairs[:2] and pairs[::-1] != ranking
    assert len(ranking) == 3 and len(run.rankings["q2"]) == 0
    head = ranking[:2]
    assert isinstance(head, Ranking) and head == pairs[:2] and len(head) == 2
    assert ranking[0] == ("d9", 2.5) and ranking[-1] == ("d1", -0.0)
    assert type(ranking[1][1]) is float
    assert [p for p, _ in ranking] == ["d9", "d4", "d1"]
    # -0.0 is kept, not folded into +0.0
    assert np.signbit(ranking.scores[2]) and np.signbit(ranking[2][1])
    assert np.signbit(list(ranking)[2][1])


def test_ranking_columns_are_read_only_and_own_their_scores():
    scores = np.array([3.0, 2.0])
    ranking = Ranking(["a", "b"], scores)
    scores[0] = 9.0
    assert ranking == [("a", 3.0), ("b", 2.0)]
    assert isinstance(ranking.ids, tuple) and ranking.scores.dtype == np.float64
    with pytest.raises(ValueError):
        ranking.scores[0] = 1.0
    with pytest.raises(TypeError):
        ranking[0] = ("c", 1.0)
    with pytest.raises(ValueError, match="2 ids"):
        Ranking(["a", "b"], [1.0])
    assert Ranking.of(ranking) is ranking
    assert Ranking.of([]) == [] and Ranking() == Ranking.of(())
    # an int score is held as float64
    assert Ranking.of([("a", 1)])[0] == ("a", 1.0)
    assert type(Ranking.of([("a", 1)])[0][1]) is float


def test_run_from_top_k_holds_under_24_bytes_per_entry():
    # 200 queries x 250 entries cut by top_k from 2,000 passages.  A Ranking
    # holds an id reference and a float64 per entry; a list of (id, float)
    # tuples held about 89 bytes per entry.
    ids = [f"p{i:05d}" for i in range(2000)]
    ranks = id_rank(ids)
    rng = np.random.default_rng(0)
    scores = [rng.normal(size=2000) for _ in range(200)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = RunFile("t", {f"q{i}": top_k(s, ranks, ids, 250)
                            for i, s in enumerate(scores)})
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = sum(len(r) for r in run.rankings.values())
    assert entries == 50_000
    assert held / entries < 24
