"""Tests for the cross-attention reranker: scoring, loss, sampling, training."""

import math
import tracemalloc

import numpy as np
import pytest

from hybridrank.corpus import (
    VOCAB_SIZE,
    Corpus,
    Passage,
    QrelSet,
    Query,
    passage_tokens,
    tokenize,
)
from hybridrank import reranker, results
from hybridrank.dense import init_params
from hybridrank.evaluation import RunFile
from hybridrank.reranker import (
    RerankTrainConfig,
    RerankerParams,
    SamplingWindow,
    _batch_loss_grad,
    _forward,
    _stack,
    build_candidate_lists,
    init_reranker,
    load_candidate_lists,
    load_reranker,
    rerank,
    save_candidate_lists,
    save_reranker,
    train_reranker,
)

DIM = 8


def _tok(text, max_length=64):
    return tokenize(text, max_length)


def _init(seed=0, dim=DIM):
    """init_reranker warm-started from a fresh encoder table of width ``dim``."""
    return init_reranker(init_params(dim, seed).embeddings, seed=seed)


def _zero_params(bias=0.0):
    return RerankerParams(
        embeddings=np.zeros((VOCAB_SIZE, DIM)), w_q=np.zeros((DIM, DIM)),
        w_k=np.zeros((DIM, DIM)), w_v=np.zeros((DIM, DIM)),
        readout=np.zeros(DIM), bias=bias, seed=0)


def _random_params(seed=0):
    rng = np.random.default_rng(seed)
    return RerankerParams(
        embeddings=rng.normal(0, 0.3, size=(VOCAB_SIZE, DIM)),
        w_q=rng.normal(0, 0.3, size=(DIM, DIM)),
        w_k=rng.normal(0, 0.3, size=(DIM, DIM)),
        w_v=rng.normal(0, 0.3, size=(DIM, DIM)),
        readout=rng.normal(0, 0.3, size=DIM), bias=float(rng.normal()),
        seed=seed)


# ------------------------------------------- reference scorer and loss
# Oracles the model code is checked against: a list scored through its own
# padded rows, and the listwise loss and its gradient for one list.

def score_pair(params, query, passage) -> float:
    """Cross-attention score for one (query, passage) pair of token ids: a one-item list."""
    return float(score_list(params, np.asarray(query, dtype=np.int64),
                            [np.asarray(passage, dtype=np.int64)])[0])


def listwise_loss(scores, labels) -> float:
    """-sum_j y_j log softmax(s)_j with graded labels as multipliers."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("scores and labels must be equal-length nonempty vectors")
    if np.any(y < 0):
        raise ValueError("labels must be >= 0")
    if not np.any(y > 0):
        raise ValueError("at least one label must be > 0")
    m = s.max()
    lse = m + math.log(np.exp(s - m).sum())
    return float(y.sum() * lse - y @ s)


def listwise_loss_grad(scores, labels) -> tuple[float, np.ndarray]:
    """(loss, dloss/dscores); gradient is (sum y) * softmax(s) - y."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    loss = listwise_loss(s, y)
    e = np.exp(s - s.max())
    p = e / e.sum()
    return loss, y.sum() * p - y


def _pad_passages(ptoks) -> tuple[np.ndarray, np.ndarray]:
    """Token id rows padded with id 0 to the longest, at least one wide, and
    their mask."""
    width = max(1, *(t.size for t in ptoks))
    idx = np.zeros((len(ptoks), width), dtype=np.int64)
    mask = np.zeros((len(ptoks), width), dtype=bool)
    for i, t in enumerate(ptoks):
        idx[i, :t.size] = t
        mask[i, :t.size] = True
    return idx, mask


def score_list(params, qtok, ptoks) -> np.ndarray:
    """Scores of many passages against one query: a one-list batch, padded
    row by row and laid out (1, P, n) here."""
    pidx, pmask = _pad_passages(ptoks)
    scores, _ = _forward(params, qtok[None], np.ones((1, qtok.size), dtype=bool),
                         pidx.T[None], pmask.T[None])
    return scores[0]


def _list_rows(cl, queries, corpus):
    """One list's query ids, passage ids padded row by row (n, P) and their
    mask, and labels: the reference view, tokenized without the token store."""
    qtok = np.asarray({q.id: q for q in queries}[cl.query_id].tokens,
                      dtype=np.int64)
    pidx, pmask = _pad_passages([np.asarray(passage_tokens(corpus.get(pid)), dtype=np.int64)
                                 for pid in cl.passage_ids()])
    labels = np.asarray([it.label for it in cl.items], dtype=np.float64)
    return qtok, pidx, pmask, labels


def _stacked(lists, queries, corpus):
    """The lists through _stack, plus their labels (B, n): the arguments of
    _batch_loss_grad after the params."""
    by_id = {q.id: q for q in queries}
    qidx, qmask, pidx, pmask, imask = _stack(
        [np.asarray(by_id[cl.query_id].tokens, dtype=np.int64) for cl in lists],
        [cl.passage_ids() for cl in lists], corpus)
    labels = np.zeros(imask.shape, dtype=np.float64)
    for i, cl in enumerate(lists):
        labels[i, :len(cl.items)] = [it.label for it in cl.items]
    return qidx, qmask, pidx, pmask, imask, labels


# ---------------------------------------------------------------- score_pair

def test_score_pair_bias_only():
    p = _zero_params(bias=1.7)
    assert score_pair(p, _tok("any query"), _tok("any passage")) == 1.7


def test_score_pair_single_token_attention_is_identity():
    # one query token, one passage token: softmax over one logit is 1,
    # so score = readout . (e_p W_v) + bias regardless of W_q / W_k
    p = _random_params(1)
    q = _tok("solo")
    d = _tok("lone")
    e_p = p.embeddings[d[0]]
    expected = float(p.readout @ (e_p @ p.w_v) + p.bias)
    assert score_pair(p, q, d) == pytest.approx(expected, rel=1e-12)
    p2 = p.copy()
    p2.w_q = np.zeros((DIM, DIM))  # attention weights cannot change a 1x1 softmax
    assert score_pair(p2, q, d) == pytest.approx(expected, rel=1e-12)


def test_score_pair_without_tokens_is_the_bias():
    # text without tokens is an empty sum, as in BM25 and the dual encoder
    p = _random_params(2)
    for query, passage in (("", "passage text"), ("query", "..."), ("?!", "...")):
        assert score_pair(p, _tok(query), _tok(passage)) == p.bias


def test_score_pair_deterministic():
    p = _random_params(3)
    q, d = _tok("same query twice"), _tok("same passage twice")
    assert score_pair(p, q, d) == score_pair(p, q, d)


def test_score_list_matches_score_pair():
    p = _random_params(4)
    q = _tok("what is fused scoring")
    passages = ["short one", "a much longer passage with many more tokens in it",
                "medium sized text here"]
    toks = [np.asarray(_tok(t, 512), dtype=np.int64) for t in passages]
    fused = score_list(p, np.asarray(q, dtype=np.int64), toks)
    for i, t in enumerate(passages):
        assert fused[i] == pytest.approx(score_pair(p, q, _tok(t, 512)), rel=1e-12)


# ---------------------------------------------------------------- listwise loss

def test_listwise_loss_two_way_fixture():
    assert listwise_loss([0.0, 0.0], [1, 0]) == pytest.approx(0.693147, abs=1e-6)


def test_listwise_loss_three_way_fixture():
    # -log softmax(s)[0] = log(1 + 2 e^-2) = 0.2395448
    assert listwise_loss([2.0, 0.0, 0.0], [1, 0, 0]) == pytest.approx(
        math.log(1 + 2 * math.exp(-2)), abs=1e-6)


def test_listwise_loss_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        s = rng.normal(0, 3, size=n)
        y = rng.integers(0, 3, size=n)
        if not np.any(y > 0):
            y[0] = 1
        c = float(rng.normal(0, 10))
        assert abs(listwise_loss(s + c, y) - listwise_loss(s, y)) <= 1e-9


def test_listwise_loss_binary_case_is_cross_entropy():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        s = rng.normal(size=n)
        pos = int(rng.integers(0, n))
        y = np.zeros(n, dtype=int)
        y[pos] = 1
        direct = -math.log(math.exp(s[pos]) / np.exp(s).sum())
        assert listwise_loss(s, y) == pytest.approx(direct, rel=1e-12)


def test_listwise_loss_graded_labels_scale():
    # grade-2 positive counts twice: loss = 2 * (lse - s_pos)
    s = [1.0, -0.5, 0.2]
    base = listwise_loss(s, [1, 0, 0])
    assert listwise_loss(s, [2, 0, 0]) == pytest.approx(2 * base, rel=1e-12)


def test_listwise_loss_input_validation():
    with pytest.raises(ValueError):
        listwise_loss([1.0, 2.0], [0, 0])
    with pytest.raises(ValueError):
        listwise_loss([1.0], [-1])
    with pytest.raises(ValueError):
        listwise_loss([1.0, 2.0], [1])
    with pytest.raises(ValueError):
        listwise_loss([], [])


def test_listwise_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        s = rng.normal(0, 2, size=n)
        y = rng.integers(0, 3, size=n)
        if not np.any(y > 0):
            y[-1] = 1
        _, g = listwise_loss_grad(s, y)
        h = 1e-6
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd = (listwise_loss(s + e, y) - listwise_loss(s - e, y)) / (2 * h)
            assert abs(fd - g[j]) <= 1e-6 * max(1.0, abs(g[j]))


# ---------------------------------------------------------------- sampling

def _run_and_qrels(n_queries=4, depth=30, unjudged=()):
    rankings = {}
    qrels = QrelSet()
    for qi in range(n_queries):
        qid = f"q{qi}"
        rankings[qid] = [(f"d{qi}_{r}", float(depth - r)) for r in range(depth)]
        if qid not in unjudged:
            qrels.set(qid, f"d{qi}_{7}", 1)  # positive retrieved at rank 8
    return RunFile("first", rankings), qrels


def test_build_lists_exactly_one_positive_and_window():
    run, qrels = _run_and_qrels()
    window = SamplingWindow(skip=0, depth=25, n_negatives=10)
    lists, report = build_candidate_lists(run, qrels, window, seed=3)
    assert len(lists) == 4
    for cl in lists:
        labels = [it.label for it in cl.items]
        assert sum(1 for y in labels if y > 0) == 1
        assert labels[0] > 0 and len(cl.items) == 11
        # the positive takes position 1 and the negatives follow in run order
        negatives = [it.retriever_rank for it in cl.items[1:]]
        assert negatives == sorted(negatives)
        assert len(set(cl.passage_ids())) == len(cl.items)
        for it in cl.items[1:]:
            assert 0 < it.retriever_rank <= 25
    assert report["lists"] == 4
    assert report["short_pool"] == [] and report["dropped_no_positive"] == []


def test_build_lists_excludes_relevant_from_negatives():
    run, qrels = _run_and_qrels(n_queries=1)
    qrels.set("q0", "d0_3", 2)  # second relevant passage sits in the window
    non_relevant = {f"d0_{r}" for r in range(30)} - {"d0_3", "d0_7"}
    # 29 asked for: the pool is short only if both relevant passages left it
    window = SamplingWindow(skip=0, depth=30, n_negatives=29)
    lists, report = build_candidate_lists(run, qrels, window, seed=0)
    ids = lists[0].passage_ids()
    assert ids[0] == "d0_3"  # highest grade becomes the positive
    assert "d0_7" not in ids[1:]  # grade-1 passage never sampled as negative
    assert report["short_pool"] == ["q0"]  # pool is 28 after exclusions
    assert len(ids) == 29 and set(ids[1:]) == non_relevant
    # a pool of exactly n_negatives is not short
    window = SamplingWindow(skip=0, depth=30, n_negatives=28)
    lists, report = build_candidate_lists(run, qrels, window, seed=0)
    ids = lists[0].passage_ids()
    assert report["short_pool"] == []
    assert len(ids) == 29 and set(ids[1:]) == non_relevant


def test_build_lists_injects_missed_positive():
    run, qrels = _run_and_qrels(n_queries=1)
    qrels.set("q0", "d0_7", 0)
    qrels.set("q0", "unretrieved", 1)
    lists, _ = build_candidate_lists(run, qrels, SamplingWindow(0, 20, 5), seed=1)
    top = lists[0].items[0]
    assert top.passage_id == "unretrieved"
    assert top.label == 1
    assert top.retriever_rank == 0  # marker: the run never returned it


def test_build_lists_skip_window():
    run, qrels = _run_and_qrels(n_queries=2)
    window = SamplingWindow(skip=9, depth=30, n_negatives=8)
    lists, _ = build_candidate_lists(run, qrels, window, seed=5)
    for cl in lists:
        for it in cl.items[1:]:
            assert 10 <= it.retriever_rank <= 30


def test_build_lists_drops_queries_without_positive():
    run, qrels = _run_and_qrels(n_queries=3, unjudged=("q1",))
    lists, report = build_candidate_lists(run, qrels, SamplingWindow(0, 20, 5), seed=0)
    assert sorted(cl.query_id for cl in lists) == ["q0", "q2"]
    assert report["dropped_no_positive"] == ["q1"]


def test_build_lists_deterministic():
    run, qrels = _run_and_qrels()
    window = SamplingWindow(0, 30, 12)
    a, _ = build_candidate_lists(run, qrels, window, seed=9)
    b, _ = build_candidate_lists(run, qrels, window, seed=9)
    assert [(cl.query_id, cl.passage_ids()) for cl in a] == \
           [(cl.query_id, cl.passage_ids()) for cl in b]
    c, _ = build_candidate_lists(run, qrels, window, seed=10)
    assert [(cl.query_id, cl.passage_ids()) for cl in a] != \
           [(cl.query_id, cl.passage_ids()) for cl in c]


def test_sampling_window_validation():
    with pytest.raises(ValueError):
        SamplingWindow(skip=-1, depth=10, n_negatives=5)
    with pytest.raises(ValueError):
        SamplingWindow(skip=10, depth=10, n_negatives=1)
    with pytest.raises(ValueError):
        SamplingWindow(skip=0, depth=10, n_negatives=11)


# ---------------------------------------------------------------- gradients

def _toy_corpus_and_lists(n_lists=5, n_items=4, seed=0):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)]
    passages = [Passage(f"d{i}", "", " ".join(rng.choice(words,
                                                         size=rng.integers(2, 7))))
                for i in range(20)]
    corpus = Corpus(passages)
    queries = [Query(f"q{i}", " ".join(rng.choice(words, size=rng.integers(2, 5))))
               for i in range(n_lists)]
    from hybridrank.results import CandidateItem, CandidateList
    lists = []
    for i in range(n_lists):
        picks = rng.choice(20, size=n_items, replace=False)
        items = [CandidateItem(passage_id=f"d{p}", score=float(n_items - j),
                               label=1 if j == 0 else 0)
                 for j, p in enumerate(picks)]
        lists.append(CandidateList(query_id=f"q{i}", items=items))
    return corpus, queries, lists


def _dense_forward_list(params, qtok, pidx, pmask):
    """Per-position reference forward pass for one list: V and A V are formed
    for every token position, as the model is written."""
    e_q = params.embeddings[qtok]                     # (Lq, d)
    q = e_q @ params.w_q
    e_p = params.embeddings[pidx]                     # (n, P, d)
    k = e_p @ params.w_k
    v = e_p @ params.w_v
    z = np.einsum("qd,npd->nqp", q, k) / math.sqrt(params.dim)
    z = np.where(pmask[:, None, :], z, -1e30)
    z -= z.max(axis=2, keepdims=True)
    a = np.exp(z)
    a /= a.sum(axis=2, keepdims=True)                 # (n, Lq, P)
    pooled = np.einsum("nqp,npd->nd", a, v) / qtok.size
    scores = pooled @ params.readout + params.bias
    return scores, (e_q, q, e_p, k, v, a, pooled)


def _dense_list_loss_grad(params, qtok, pidx, pmask, labels):
    """Per-position reference loss and gradients for one list; the embedding
    gradient is dense, (VOCAB_SIZE, d)."""
    scores, (e_q, q, e_p, k, v, a, pooled) = _dense_forward_list(
        params, qtok, pidx, pmask)
    loss, g = listwise_loss_grad(scores, labels)
    lq = qtok.size
    scale = math.sqrt(params.dim)
    dpooled = g[:, None] * params.readout[None, :] / lq          # (n, d)
    da = np.einsum("nd,npd->np", dpooled, v)                     # (n, P)
    dv = a.sum(axis=1)[:, :, None] * dpooled[:, None, :]         # (n, P, d)
    inner = np.einsum("nqp,np->nq", a, da)
    dz = a * (da[:, None, :] - inner[:, :, None])                # (n, Lq, P)
    dq = np.einsum("nqp,npd->qd", dz, k) / scale
    dk = np.einsum("nqp,qd->npd", dz, q) / scale
    emb = np.zeros_like(params.embeddings)
    np.add.at(emb, qtok, dq @ params.w_q.T)
    de_p = dk @ params.w_k.T + dv @ params.w_v.T
    np.add.at(emb, pidx[pmask], de_p[pmask])
    grads = {"w_q": e_q.T @ dq,
             "w_k": np.einsum("npd,npe->de", e_p, dk),
             "w_v": np.einsum("npd,npe->de", e_p, dv),
             "readout": pooled.T @ g, "bias": float(g.sum()), "emb": emb}
    return loss, grads


def _dense_embedding_grad(params, grads):
    emb = np.zeros_like(params.embeddings)
    np.add.at(emb, grads["emb_idx"], grads["emb_rows"])
    return emb


def test_full_objective_gradient_matches_finite_differences():
    # one list, then a stack of three
    for n_lists in (1, 3):
        _check_gradient_by_finite_differences(n_lists)


def _check_gradient_by_finite_differences(n_lists):
    corpus, queries, lists = _toy_corpus_and_lists(n_lists=max(2, n_lists), seed=3)
    params = _random_params(7)
    stacked = _stacked(lists[:n_lists], queries, corpus)
    _, grads = _batch_loss_grad(params, *stacked)
    h = 1e-4

    def loss_at(p):  # summed over lists, as the gradients are
        return _batch_loss_grad(p, *stacked)[0] * n_lists

    for name in ("w_q", "w_k", "w_v"):
        g = grads[name]
        rng = np.random.default_rng(11)
        for _ in range(6):
            i, j = rng.integers(0, DIM, size=2)
            p2 = params.copy()
            getattr(p2, name)[i, j] += h
            up = loss_at(p2)
            getattr(p2, name)[i, j] -= 2 * h
            down = loss_at(p2)
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(g[i, j]), 1e-8)
            assert abs(fd - g[i, j]) / denom <= 1e-3

    for j in range(DIM):
        p2 = params.copy()
        p2.readout = p2.readout.copy()
        p2.readout[j] += h
        up = loss_at(p2)
        p2.readout[j] -= 2 * h
        down = loss_at(p2)
        fd = (up - down) / (2 * h)
        denom = max(abs(fd), abs(grads["readout"][j]), 1e-8)
        assert abs(fd - grads["readout"][j]) / denom <= 1e-3

    # embedding rows, via the sparse (idx, rows) representation; probe the
    # smallest ids among the batch's real query and passage tokens
    dense = _dense_embedding_grad(params, grads)
    qidx, qmask, pidx, pmask = stacked[:4]
    touched = np.unique(np.concatenate([qidx[qmask], pidx[pmask]]))[:4]
    for t in touched:
        for j in range(0, DIM, 3):
            p2 = params.copy()
            p2.embeddings[t, j] += h
            up = loss_at(p2)
            p2.embeddings[t, j] -= 2 * h
            down = loss_at(p2)
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(dense[t, j]), 1e-8)
            assert abs(fd - dense[t, j]) / denom <= 1e-3

    # the bias shifts every score equally; shift invariance makes its
    # gradient exactly zero
    assert grads["bias"] == pytest.approx(0.0, abs=1e-12)


# a word that tokenizes to each id below 12 (checked in _token_sharing_lists)
_ID_WORDS = ("t9661", "t654", "t32503", "t11778", "t2256", "t6401", "t11318",
             "t35209", "t16779", "t16809", "t68556", "t16368")


def _token_sharing_lists():
    """Hand-built lists over ids 0..11 (0 is also the padding id): a token
    repeated within a passage, tokens shared across passages and lists, query
    tokens that also occur in passages, a real id 0, lists of unequal item
    count and width, queries of unequal length and a one-item list.  Each id
    is written as a word that tokenizes to it, so the lists reach _stack
    through an ordinary corpus."""
    assert [tokenize(w, 1) for w in _ID_WORDS] == [(i,) for i in range(12)]
    spec = [
        ([3, 0, 5], [[3, 3, 7, 0], [1, 2], [0, 5, 9, 9, 11]], [1, 0, 0]),
        ([7], [[4, 7, 4]], [1]),
        ([2, 8, 8, 1, 0], [[8], [2, 3], [6, 0, 6], [10, 1, 5, 2, 2, 4]], [0, 2, 1, 0]),
    ]
    from hybridrank.results import CandidateItem, CandidateList

    def text(ids):
        return " ".join(_ID_WORDS[i] for i in ids)

    passages, queries, lists = [], [], []
    for i, (qtok, ptoks, labels) in enumerate(spec):
        queries.append(Query(f"q{i}", text(qtok)))
        items = []
        for j, (ptok, label) in enumerate(zip(ptoks, labels)):
            passages.append(Passage(f"d{i}_{j}", "", text(ptok)))
            items.append(CandidateItem(passage_id=f"d{i}_{j}", score=0.0, label=label))
        lists.append(CandidateList(query_id=f"q{i}", items=items))
    return Corpus(passages), queries, lists


def _toy_lists():
    return _toy_corpus_and_lists(n_lists=6, n_items=5, seed=5)


def test_batched_gradient_equals_per_list_sum():
    for corpus, queries, lists in (_toy_lists(), _token_sharing_lists()):
        _check_batch_equals_dense_reference(corpus, queries, lists)


def _check_batch_equals_dense_reference(corpus, queries, lists):
    params = _random_params(8)

    losses = []
    acc = None
    for cl in lists:
        loss, g = _dense_list_loss_grad(params, *_list_rows(cl, queries, corpus))
        losses.append(loss)
        cur = {k: np.array(g[k]) for k in ("w_q", "w_k", "w_v", "readout", "emb")}
        acc = cur if acc is None else {k: acc[k] + cur[k] for k in cur}

    stacked = _stacked(lists, queries, corpus)
    fused_loss, fused = _batch_loss_grad(params, *stacked)
    assert fused_loss == pytest.approx(np.mean(losses), rel=1e-12)
    fused["emb"] = _dense_embedding_grad(params, fused)
    for k in ("w_q", "w_k", "w_v", "readout", "emb"):
        scale = max(np.max(np.abs(acc[k])), 1e-12)
        assert np.max(np.abs(acc[k] - fused[k])) / scale <= 1e-12
    # one row per distinct token id of the batch, so a fancy-indexed update is exact
    qidx, _, pidx = stacked[:3]
    assert np.array_equal(fused["emb_idx"],
                          np.unique(np.concatenate([qidx.ravel(), pidx.ravel()])))


def test_scores_equal_dense_reference():
    params = _random_params(9)
    for corpus, queries, lists in (_token_sharing_lists(), _toy_lists()):
        for cl in lists:
            qtok, pidx, pmask, _ = _list_rows(cl, queries, corpus)
            dense, _ = _dense_forward_list(params, qtok, pidx, pmask)
            fused = score_list(params, qtok, [row[m] for row, m in zip(pidx, pmask)])
            assert np.max(np.abs(fused - dense)) <= 1e-12 * max(np.max(np.abs(dense)), 1.0)


# ---------------------------------------------------------------- training

def test_train_zero_steps_returns_init_unchanged():
    # no step runs, so nothing is rounded through float32 and an untrained
    # reranker keeps init's scores: a float64 copy sharing no array with init
    corpus, queries, lists = _toy_corpus_and_lists()
    init = _init(3)
    cfg = RerankTrainConfig(steps=0, seed=3)
    out = train_reranker(lists, queries, corpus, cfg, init=init)
    names = ("embeddings", "w_q", "w_k", "w_v", "readout")
    for name in names:
        value = getattr(out, name)
        assert value.dtype == np.float64
        assert value.tobytes() == getattr(init, name).tobytes()
        assert not any(np.shares_memory(value, getattr(init, other)) for other in names)
    assert (out.bias, out.seed) == (init.bias, init.seed)


def test_one_training_step_is_sgd_on_the_reference_gradient():
    # one step over all lists (the linear schedule's first step uses the full
    # rate): every parameter, each embedding row included, moves by -lr/B
    # times the summed dense gradient
    corpus, queries, lists = _toy_corpus_and_lists(n_lists=4, seed=6)
    init = _random_params(5)
    lr = 1.0
    cfg = RerankTrainConfig(steps=1, batch_size=4, learning_rate=lr, seed=5)
    out = train_reranker(lists, queries, corpus, cfg, init=init)
    acc = None
    for cl in lists:
        _, g = _dense_list_loss_grad(init, *_list_rows(cl, queries, corpus))
        acc = g if acc is None else {k: acc[k] + g[k] for k in acc}
    for name, key in (("embeddings", "emb"), ("w_q", "w_q"), ("w_k", "w_k"),
                      ("w_v", "w_v"), ("readout", "readout")):
        step = lr / 4 * acc[key]
        assert np.max(np.abs(step)) > 1e-4
        # training runs in float32
        assert np.allclose(getattr(out, name), getattr(init, name) - step,
                           rtol=0, atol=1e-6)
    assert out.bias == pytest.approx(init.bias - lr / 4 * acc["bias"], abs=1e-6)


def test_train_deterministic():
    corpus, queries, lists = _toy_corpus_and_lists()
    cfg = RerankTrainConfig(steps=40, batch_size=2, learning_rate=0.05, seed=4)
    a = train_reranker(lists, queries, corpus, cfg, init=_init(4))
    b = train_reranker(lists, queries, corpus, cfg, init=_init(4))
    for name in ("embeddings", "w_q", "w_k", "w_v", "readout"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.bias == b.bias


def _ragged_corpus_and_lists(n_lists=7, seed=0, wide=False):
    """Lists of unequal query length, item count and passage width; with
    ``wide``, one more list far longer on all three."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)]
    passages = [Passage(f"d{i}", "", " ".join(rng.choice(words, size=rng.integers(1, 7))))
                for i in range(20)]
    passages += [Passage(f"long{i}", "", " ".join(rng.choice(words, size=18)))
                 for i in range(12)]
    queries = [Query(f"q{i}", " ".join(rng.choice(words, size=rng.integers(1, 4))))
               for i in range(n_lists)]
    from hybridrank.results import CandidateItem, CandidateList
    pools = [[f"d{p}" for p in rng.choice(20, size=rng.integers(1, 6), replace=False)]
             for _ in range(n_lists)]
    if wide:
        queries.append(Query(f"q{n_lists}", " ".join(words[:9])))
        pools.append([f"long{i}" for i in range(12)] + ["d0", "d1", "d2"])
    lists = [CandidateList(query_id=q.id, items=[
        CandidateItem(passage_id=pid, score=0.0, label=int(j == 0))
        for j, pid in enumerate(pool)]) for q, pool in zip(queries, pools)]
    return Corpus(passages), queries, lists


def test_train_equals_stacking_each_step():
    # 7 lists in batches of 3: a reshuffle every third step, 25 steps
    corpus, queries, lists = _ragged_corpus_and_lists(seed=8)
    cfg = RerankTrainConfig(steps=25, batch_size=3, learning_rate=0.2, seed=2)
    init = _random_params(4)
    out = train_reranker(lists, queries, corpus, cfg, init=init)

    rows = [_list_rows(cl, queries, corpus) for cl in lists]
    assert len({(qtok.size, *pidx.shape) for qtok, pidx, _, _ in rows}) > 3
    ref = _train_full_table(lists, queries, corpus, cfg, init)
    for name in ("embeddings", "w_q", "w_k", "w_v", "readout"):
        assert np.array_equal(getattr(out, name), getattr(ref, name))
    assert out.bias == ref.bias


def _train_full_table(lists, queries, corpus, cfg, init):
    """train_reranker's SGD loop over the whole float32 embedding table."""
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(lists))
    cursor = 0
    work = reranker._with_dtype(init, np.float32)
    for step in range(cfg.steps):
        if cursor + cfg.batch_size > len(lists):
            order = rng.permutation(len(lists))
            cursor = 0
        take = order[cursor:cursor + cfg.batch_size]
        cursor += cfg.batch_size
        _, g = _batch_loss_grad(work, *_stacked([lists[i] for i in take], queries, corpus))
        frac = np.float32(cfg.learning_rate * (1.0 - step / cfg.steps) / take.size)
        work.w_q -= frac * g["w_q"]
        work.w_k -= frac * g["w_k"]
        work.w_v -= frac * g["w_v"]
        work.readout -= frac * g["readout"]
        work.bias -= float(frac * g["bias"])
        work.embeddings[g["emb_idx"]] -= frac * g["emb_rows"]
    return reranker._with_dtype(work, np.float64)


def test_train_leaves_unused_rows_at_their_float32_rounding():
    corpus, queries, lists = _ragged_corpus_and_lists(seed=4)
    init = _random_params(2)
    cfg = RerankTrainConfig(steps=12, batch_size=3, learning_rate=0.2, seed=1)
    out = train_reranker(lists, queries, corpus, cfg, init=init)
    rounded = init.embeddings.astype(np.float32).astype(np.float64)
    # ids of the lists' real tokens, and rows neither they nor padding use
    used = np.unique(np.concatenate(
        [t for qtok, pidx, pmask, _ in (_list_rows(cl, queries, corpus) for cl in lists)
         for t in (qtok, pidx[pmask])]))
    unused = np.setdiff1d(np.arange(VOCAB_SIZE), np.append(used, 0))
    assert unused.size > VOCAB_SIZE // 2
    assert np.array_equal(out.embeddings[unused], rounded[unused])
    assert not np.array_equal(out.embeddings[used], rounded[used])


def _unpadded_corpus_and_lists(seed=0):
    """Lists that need no padding and never use id 0: every query has two
    tokens, every passage three and every list three items, none of them id 0."""
    rng = np.random.default_rng(seed)
    words = [w for w in (f"u{i}" for i in range(60)) if _tok(w)[0] != 0][:30]
    passages = [Passage(f"d{i}", "", " ".join(rng.choice(words, size=3, replace=False)))
                for i in range(12)]
    queries = [Query(f"q{i}", " ".join(rng.choice(words, size=2, replace=False)))
               for i in range(5)]
    from hybridrank.results import CandidateItem, CandidateList
    lists = [CandidateList(query_id=q.id, items=[
        CandidateItem(passage_id=f"d{p}", score=0.0, label=int(j == 0))
        for j, p in enumerate(rng.choice(12, size=3, replace=False))])
        for q in queries]
    return Corpus(passages), queries, lists


def test_train_without_padding_or_id_zero_equals_full_table():
    corpus, queries, lists = _unpadded_corpus_and_lists(seed=3)
    qidx, qmask, pidx, pmask, imask, _ = _stacked(lists, queries, corpus)
    assert qmask.all() and pmask.all() and imask.all()
    assert 0 not in qidx and 0 not in pidx
    cfg = RerankTrainConfig(steps=9, batch_size=2, learning_rate=0.3, seed=6)
    init = _random_params(3)
    out = train_reranker(lists, queries, corpus, cfg, init=init)
    ref = _train_full_table(lists, queries, corpus, cfg, init)
    for name in ("embeddings", "w_q", "w_k", "w_v", "readout"):
        assert np.array_equal(getattr(out, name), getattr(ref, name))
    assert out.bias == ref.bias
    assert np.array_equal(out.embeddings[0],
                          init.embeddings[0].astype(np.float32).astype(np.float64))


def test_train_traced_peak_stays_near_one_table():
    # default 32,768 x 64 table: the float32 result is the only full-size
    # allocation; no float64 copy of init is made
    corpus, queries, lists = _toy_corpus_and_lists()
    init = _init(1, dim=64)
    corpus.token_store()
    cfg = RerankTrainConfig(steps=3, batch_size=2, seed=1)
    tracemalloc.start()
    try:
        out = train_reranker(lists, queries, corpus, cfg, init=init)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.embeddings.shape == init.embeddings.shape == (32768, 64)
    assert out.embeddings.nbytes == init.embeddings.nbytes // 2
    assert peak < 1.2 * out.embeddings.nbytes


def test_train_steps_keep_their_own_batch_shapes(monkeypatch):
    # one list far wider than the rest sits in the pool: every step's tensors
    # are as wide as that step's own lists, not the pool's widest
    corpus, queries, lists = _ragged_corpus_and_lists(seed=9, wide=True)
    shapes = []

    def recording(params, qidx, qmask, pidx, pmask, imask, labels):
        shapes.append((qidx.shape, pidx.shape, labels.shape,
                       (len(qidx), qmask.sum(axis=1).max()),
                       (len(qidx), pmask.sum(axis=1).max(), imask.sum(axis=1).max()),
                       (len(qidx), imask.sum(axis=1).max())))
        assert qmask.shape == qidx.shape and pmask.shape == pidx.shape
        assert imask.shape == labels.shape
        return real(params, qidx, qmask, pidx, pmask, imask, labels)

    real = reranker._batch_loss_grad
    monkeypatch.setattr(reranker, "_batch_loss_grad", recording)
    cfg = RerankTrainConfig(steps=24, batch_size=2, seed=3)
    train_reranker(lists, queries, corpus, cfg, init=_init(3))
    assert len(shapes) == 24
    for q_shape, p_shape, l_shape, q_max, p_max, l_max in shapes:
        assert (q_shape, p_shape, l_shape) == (q_max, p_max, l_max)
    widest = max(p_shape[1] for _, p_shape, *_ in shapes)
    assert widest == 18
    assert any(p_shape[1] < widest for _, p_shape, *_ in shapes)


def _mean_list_loss(params, lists, queries, corpus):
    """Mean listwise loss over the lists under fixed parameters, one list at a time."""
    total = 0.0
    for cl in lists:
        qidx, qmask, pidx, pmask, _, labels = _stacked([cl], queries, corpus)
        scores, _ = _forward(params, qidx, qmask, pidx, pmask)
        total += listwise_loss(scores[0], labels[0])
    return total / len(lists)


def test_train_reduces_loss():
    corpus, queries, lists = _toy_corpus_and_lists(n_lists=8, n_items=5, seed=2)
    init = _init(0)
    before = _mean_list_loss(init, lists, queries, corpus)
    cfg = RerankTrainConfig(steps=150, batch_size=4, learning_rate=0.05, seed=0)
    trained = train_reranker(lists, queries, corpus, cfg, init=init)
    after = _mean_list_loss(trained, lists, queries, corpus)
    assert after < before


def test_train_does_not_mutate_init():
    corpus, queries, lists = _toy_corpus_and_lists()
    init = _init(6)
    snap = init.embeddings.copy()
    train_reranker(lists, queries, corpus, RerankTrainConfig(steps=10), init=init)
    assert np.array_equal(init.embeddings, snap)


def test_trained_table_is_the_float32_training_result():
    # the table is float32 and equals the whole float32 table trained step by
    # step, row for row; w_q, w_k, w_v and readout stay float64
    corpus, queries, lists = _ragged_corpus_and_lists(seed=5)
    cfg = RerankTrainConfig(steps=12, batch_size=3, learning_rate=0.2, seed=7)
    init = _random_params(6)
    out = train_reranker(lists, queries, corpus, cfg, init=init)
    ref = _train_full_table(lists, queries, corpus, cfg, init)
    assert out.embeddings.dtype == np.float32
    assert out.embeddings.tobytes() == ref.embeddings.astype(np.float32).tobytes()
    for name in ("w_q", "w_k", "w_v", "readout"):
        assert getattr(out, name).dtype == np.float64
        assert np.array_equal(getattr(out, name), getattr(ref, name))


def test_train_stops_on_non_finite_loss():
    corpus, queries, lists = _toy_corpus_and_lists()
    init = _init(2)
    init.readout[0] = np.nan
    cfg = RerankTrainConfig(steps=5, seed=2)
    with pytest.raises(ValueError, match="step 1"):
        train_reranker(lists, queries, corpus, cfg, init=init)


def _with_tokenless_passage(corpus):
    """The corpus plus passage "dots", whose text has no tokens."""
    return Corpus(list(corpus) + [Passage("dots", "", "...")])


def _assert_finite(params):
    assert math.isfinite(params.bias)
    for name in ("embeddings", "w_q", "w_k", "w_v", "readout"):
        assert np.isfinite(getattr(params, name)).all(), name


def _list_scores(params, cl, queries, corpus):
    """The scores of one list's items, stacked as training stacks it."""
    qidx, qmask, pidx, pmask, _, _ = _stacked([cl], queries, corpus)
    return _forward(params, qidx, qmask, pidx, pmask)[0][0]


def test_train_scores_a_passage_without_tokens_as_the_bias():
    corpus, queries, lists = _toy_corpus_and_lists()
    corpus = _with_tokenless_passage(corpus)
    lists[1].items[2].passage_id = "dots"
    cfg = RerankTrainConfig(steps=10, batch_size=2)
    out = train_reranker(lists, queries, corpus, cfg, init=_init())
    _assert_finite(out)
    assert _list_scores(out, lists[1], queries, corpus)[2] == out.bias


def test_train_names_a_missing_query_and_scores_one_without_tokens_as_the_bias():
    corpus, queries, lists = _toy_corpus_and_lists()
    cfg = RerankTrainConfig(steps=1)
    with pytest.raises(KeyError, match="no query text for query id 'q2'"):
        train_reranker(lists, queries[:2] + queries[3:], corpus, cfg, init=_init())
    queries[2] = Query("q2", "?! ...")
    # one list per step: one batch holds the tokenless query alone
    cfg = RerankTrainConfig(steps=2 * len(lists), batch_size=1)
    out = train_reranker(lists, queries, corpus, cfg, init=_init())
    _assert_finite(out)
    assert _list_scores(out, lists[2], queries, corpus).tolist() == \
        [out.bias] * len(lists[2].items)


def test_train_empty_lists_rejected():
    corpus, queries, _ = _toy_corpus_and_lists()
    with pytest.raises(ValueError):
        train_reranker([], queries, corpus, RerankTrainConfig(),
                       init=_init())


def test_train_config_validation():
    with pytest.raises(ValueError):
        RerankTrainConfig(steps=-1)
    with pytest.raises(ValueError):
        RerankTrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        RerankTrainConfig(learning_rate=0.0)


def test_init_reranker_structure_and_determinism():
    table = init_params(DIM, 5).embeddings
    a = init_reranker(table, seed=5)
    b = init_reranker(table, seed=5)
    assert np.array_equal(a.readout, b.readout)
    assert not np.array_equal(a.readout, init_reranker(table, seed=6).readout)
    # the readout is the seed's first draw; the gain puts typical attention
    # logits at about +-3
    assert np.array_equal(a.readout, np.random.default_rng(5).normal(0.0, 0.1, size=DIM))
    typical = np.linalg.norm(table, axis=1).mean()
    assert a.w_q[0, 0] == pytest.approx(math.sqrt(3.0 * math.sqrt(DIM)) / typical,
                                        rel=1e-12)
    assert np.array_equal(a.w_v, np.eye(DIM))
    assert np.allclose(a.w_q, a.w_k)
    assert np.count_nonzero(a.w_q - np.diag(np.diag(a.w_q))) == 0
    assert a.bias == 0.0


def test_init_reranker_warm_start_shares_the_table():
    emb = np.random.default_rng(3).normal(0, 0.3, size=(VOCAB_SIZE, DIM))
    init = init_reranker(embeddings=emb, seed=0)
    assert init.embeddings is emb
    converted = init_reranker(embeddings=emb.astype(np.float32), seed=0)
    assert converted.embeddings.dtype == np.float64
    assert np.array_equal(converted.embeddings, emb.astype(np.float32))

    corpus, queries, lists = _toy_corpus_and_lists(seed=2)
    before = emb.tobytes()
    train_reranker(lists, queries, corpus,
                   RerankTrainConfig(steps=3, batch_size=2, seed=1), init=init)
    assert emb.tobytes() == before

    out = train_reranker(lists, queries, corpus,
                         RerankTrainConfig(steps=0, seed=1), init=init)
    for name in ("embeddings", "w_q", "w_k", "w_v", "readout"):
        value = getattr(out, name)
        assert np.array_equal(value, getattr(init, name))
        assert not any(np.shares_memory(value, getattr(init, other))
                       for other in ("embeddings", "w_q", "w_k", "w_v", "readout"))


# ---------------------------------------------------------------- rerank

def _rerank_fixture(seed=0, **rankings):
    """Toy corpus, queries and a run; ``rankings`` replace or add queries."""
    corpus, queries, _ = _toy_corpus_and_lists(seed=seed)
    base = {
        "q0": [(f"d{i}", float(10 - i)) for i in range(8)],
        "q1": [(f"d{i}", float(5 - i)) for i in range(3)],
    }
    return corpus, queries, RunFile("base", {**base, **rankings})


def test_rerank_top_k_one_keeps_input_order():
    corpus, queries, run = _rerank_fixture()
    out = rerank(_random_params(1), run, queries, corpus, top_k=1)
    for qid in run.rankings:
        assert [p for p, _ in out.rankings[qid]] == [p for p, _ in run.rankings[qid]]


def test_rerank_equal_scores_keep_input_order():
    corpus, queries, run = _rerank_fixture()
    out = rerank(_zero_params(bias=0.3), run, queries, corpus, top_k=5)
    for qid in run.rankings:
        assert [p for p, _ in out.rankings[qid]] == [p for p, _ in run.rankings[qid]]


def test_rerank_is_per_query_permutation():
    corpus, queries, run = _rerank_fixture(seed=3)
    out = rerank(_random_params(9), run, queries, corpus, top_k=5)
    for qid in run.rankings:
        assert sorted(p for p, _ in out.rankings[qid]) == \
               sorted(p for p, _ in run.rankings[qid])


def test_rerank_tail_keeps_relative_order_below_block():
    corpus, queries, run = _rerank_fixture(seed=4)
    top_k = 4
    out = rerank(_random_params(10), run, queries, corpus, top_k=top_k)
    tail_in = [p for p, _ in run.rankings["q0"][top_k:]]
    tail_out = [p for p, _ in out.rankings["q0"][top_k:]]
    assert tail_out == tail_in
    scores = [s for _, s in out.rankings["q0"]]
    assert scores == sorted(scores, reverse=True)


def test_rerank_scores_come_from_score_pair():
    corpus, queries, run = _rerank_fixture(seed=5)
    params = _random_params(11)
    out = rerank(params, run, queries, corpus, top_k=3)
    q = {q.id: q for q in queries}["q0"]
    for pid, score in out.rankings["q0"][:3]:
        expected = score_pair(params, _tok(q.text),
                              _tok(corpus.get(pid).encoding_text(), 512))
        assert score == pytest.approx(expected, rel=1e-12)


def _assert_same_bytes(a: RunFile, b: RunFile) -> None:
    """Equal ids and bit-equal scores, query by query."""
    assert list(a.rankings) == list(b.rankings)
    for qid in a.rankings:
        assert a.rankings[qid].ids == b.rankings[qid].ids
        assert a.rankings[qid].scores.tobytes() == b.rankings[qid].scores.tobytes()


def test_rerank_float32_table_equals_its_float64_cast_bit_for_bit():
    corpus, queries, run = _rerank_fixture(seed=6)
    trained = train_reranker(_toy_corpus_and_lists(seed=6)[2], queries, corpus,
                             RerankTrainConfig(steps=20, batch_size=2, seed=3),
                             init=_init(3))
    assert trained.embeddings.dtype == np.float32
    wide = trained.copy()
    wide.embeddings = trained.embeddings.astype(np.float64)
    _assert_same_bytes(rerank(trained, run, queries, corpus, top_k=6),
                       rerank(wide, run, queries, corpus, top_k=6))


def test_rerank_empty_ranking_stays_empty():
    corpus, queries, run = _rerank_fixture(q0=[], punct=[])
    queries = queries + [Query("punct", "?! ...")]
    params = _random_params(12)
    out = rerank(params, run, queries, corpus, top_k=5)
    assert out.rankings["q0"] == [] and out.rankings["punct"] == []
    # a query without tokens scores every item as the bias, so its order stays
    ranking = [(f"d{i}", float(9 - i)) for i in range(8)]
    run = RunFile("base", {**run.rankings, "punct": ranking})
    out = rerank(params, run, queries, corpus, top_k=5)
    assert out.rankings["punct"].ids == tuple(pid for pid, _ in ranking)
    assert out.rankings["punct"].scores[:5].tolist() == [params.bias] * 5


def test_rerank_unknown_passage_named():
    corpus, queries, run = _rerank_fixture(
        q0=[("ghost", 11.0)] + [(f"d{i}", float(10 - i)) for i in range(1, 8)])
    with pytest.raises(KeyError, match="ghost"):
        rerank(_random_params(13), run, queries, corpus, top_k=5)


def test_rerank_scores_a_passage_without_tokens_as_the_bias():
    corpus, queries, run = _rerank_fixture(
        q0=[(f"d{i}", float(10 - i)) for i in range(8)] + [("dots", -1.0)])
    corpus = _with_tokenless_passage(corpus)
    params = _random_params(13)
    # below top_k it is not rescored
    out = rerank(params, run, queries, corpus, top_k=5)
    assert out.rankings["q0"][-1][0] == "dots"
    out = rerank(params, run, queries, corpus, top_k=len(run.rankings["q0"]))
    assert dict(out.rankings["q0"])["dots"] == params.bias


def test_stack_equals_per_row_padding():
    corpus, _, _ = _toy_corpus_and_lists(seed=7)
    store = corpus.token_store()
    qtoks = [np.array([5, 0, 9]), np.array([7]), np.array([1, 2, 3, 4])]
    pids = [["d3", "d0", "d19", "d3", "d7", "d12"], ["d5"], ["d12", "d1"]]
    qidx, qmask, pidx, pmask, imask = _stack(qtoks, pids, corpus)
    assert qidx.dtype == pidx.dtype == store.ids.dtype
    widths = [store[corpus.position(p)].size for ids in pids for p in ids]
    assert pidx.shape == pmask.shape == (3, max(widths), 6)
    assert qidx.shape == qmask.shape == (3, 4) and imask.shape == (3, 6)
    for b, (qtok, ids) in enumerate(zip(qtoks, pids)):
        assert np.array_equal(qmask[b], np.arange(4) < qtok.size)
        assert np.array_equal(qidx[b], np.pad(qtok, (0, 4 - qtok.size)))
        assert np.array_equal(imask[b], np.arange(6) < len(ids))
        # the list's own (n, width) corner is its rows padded one by one;
        # beyond it every id is 0 and masked out
        ref_idx, ref_mask = _pad_passages([store[corpus.position(p)] for p in ids])
        n, width = ref_idx.shape
        want_idx = np.zeros((6, max(widths)), dtype=ref_idx.dtype)
        want_mask = np.zeros((6, max(widths)), dtype=bool)
        want_idx[:n, :width], want_mask[:n, :width] = ref_idx, ref_mask
        assert np.array_equal(pidx[b].T, want_idx) and np.array_equal(pmask[b].T, want_mask)


@pytest.mark.parametrize("block_entries", [1, 100])
def test_stack_and_training_in_blocks_equal_one_block(monkeypatch, block_entries):
    # a block per list, or three lists per block with a partial last block:
    # the stacked batch and the trained params keep their bytes
    corpus, queries, lists = _ragged_corpus_and_lists(seed=8)
    cfg = RerankTrainConfig(steps=25, batch_size=3, learning_rate=0.2, seed=2)
    whole = (_stacked(lists, queries, corpus),
             train_reranker(lists, queries, corpus, cfg, init=_random_params(4)))
    per_list = whole[0][2][0].size
    assert len(results.blocks(len(lists), per_list)) == 1
    monkeypatch.setattr(results, "BLOCK_ENTRIES", block_entries)
    assert len(results.blocks(len(lists), per_list)) > 2
    blocked = (_stacked(lists, queries, corpus),
               train_reranker(lists, queries, corpus, cfg, init=_random_params(4)))
    for a, b in zip(whole[0], blocked[0]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for name in ("embeddings", "w_q", "w_k", "w_v", "readout"):
        assert getattr(whole[1], name).tobytes() == getattr(blocked[1], name).tobytes()
    assert whole[1].bias == blocked[1].bias


def test_stack_masks_every_position_of_a_passage_without_tokens():
    corpus, _, _ = _toy_corpus_and_lists()
    corpus = Corpus(list(corpus) + [Passage("dots", "", "..."), Passage("dash", "", "-")])
    _, _, _, pmask, imask = _stack([np.array([1]), np.array([2])],
                                   [["d1", "dash", "d2"], ["dots"]], corpus)
    assert imask.tolist() == [[True, True, True], [True, False, False]]
    assert pmask[0, :, 0].any() and pmask[0, :, 2].any()
    assert not pmask[0, :, 1].any() and not pmask[1].any()
    # passages without tokens, or a list without items, still stack one
    # position wide; a query without tokens stacks zero rows wide
    none = np.array([], dtype=np.int64)
    _, qmask, _, pmask, _ = _stack([none], [["dots"]], corpus)
    assert qmask.shape == (1, 0) and pmask.shape == (1, 1, 1) and not pmask.any()
    _, _, _, pmask, imask = _stack([np.array([1])], [[]], corpus)
    assert pmask.shape == (1, 1, 0) and imask.shape == (1, 0)


def test_rerank_order_and_tail_equal_per_item_reference(monkeypatch):
    # scores with exact ties, including -0.0 against 0.0; 60 items, so an
    # unstable sort would reorder ties
    rng = np.random.default_rng(2)
    scores = rng.choice([0.5, 0.0, -0.0, -1.25, 2.0, 1e-300], size=60)
    monkeypatch.setattr(reranker, "_forward", lambda *args: (scores[None].copy(), None))
    words = [f"w{i}" for i in range(10)]
    corpus = Corpus([Passage(f"d{i:02d}", "", " ".join(rng.choice(words, size=3)))
                     for i in range(64)])
    block = [(f"d{i:02d}", 1.0) for i in rng.permutation(64)]
    run = RunFile("base", {"q0": block})
    out = rerank(_random_params(1), run, [Query("q0", "w1 w2")], corpus, top_k=60)
    pid = [p for p, _ in block[:60]]
    order = sorted(range(60), key=lambda i: (-scores[i], i, pid[i]))
    expected = [(pid[i], float(scores[i])) for i in order]
    floor = min(s for _, s in expected)
    expected += [(p, floor - 1.0 - j) for j, (p, _) in enumerate(block[60:])]
    assert out.rankings["q0"] == expected
    assert [math.copysign(1.0, s) for _, s in out.rankings["q0"]] == \
           [math.copysign(1.0, s) for _, s in expected]


def test_rerank_missing_query_text_named():
    # before an empty ranking passes through
    for ranking in ([("d1", 1.0)], []):
        corpus, queries, run = _rerank_fixture(mystery=ranking)
        with pytest.raises(KeyError, match="no query text for query id 'mystery'"):
            rerank(_random_params(14), run, queries, corpus, top_k=5)


def test_rerank_rejects_bad_top_k():
    corpus, queries, run = _rerank_fixture()
    with pytest.raises(ValueError):
        rerank(_random_params(15), run, queries, corpus, top_k=0)


# ---------------------------------------------------------------- persistence

def test_candidate_lists_roundtrip(tmp_path):
    run, qrels = _run_and_qrels()
    lists, _ = build_candidate_lists(run, qrels, SamplingWindow(0, 25, 10), seed=2)
    path = tmp_path / "lists.jsonl"
    save_candidate_lists(lists, path)
    assert load_candidate_lists(path) == lists
    bom = tmp_path / "bom.jsonl"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_candidate_lists(bom) == lists


def test_load_candidate_lists_error_position(tmp_path):
    path = tmp_path / "lists.jsonl"
    path.write_text('{"query_id": "q", "items": [{"passage_id": "d"}]}\n')
    with pytest.raises(ValueError, match="line 1"):
        load_candidate_lists(path)


def test_reranker_params_roundtrip(tmp_path):
    p = _init(21)
    p.bias = -0.75
    path = tmp_path / "rr.npz"
    save_reranker(p, path)
    loaded = load_reranker(path)
    for name in ("embeddings", "w_q", "w_k", "w_v", "readout"):
        assert np.array_equal(getattr(loaded, name), getattr(p, name))
    assert loaded.bias == p.bias and loaded.seed == p.seed


def test_saved_trained_reranker_keeps_its_dtype_and_scores(tmp_path):
    corpus, queries, run = _rerank_fixture(seed=7)
    trained = train_reranker(_toy_corpus_and_lists(seed=7)[2], queries, corpus,
                             RerankTrainConfig(steps=20, batch_size=2, seed=4),
                             init=_init(4))
    path = tmp_path / "rr.npz"
    save_reranker(trained, path)
    loaded = load_reranker(path)
    for name in ("embeddings", "w_q", "w_k", "w_v", "readout"):
        assert getattr(loaded, name).dtype == getattr(trained, name).dtype
        assert getattr(loaded, name).tobytes() == getattr(trained, name).tobytes()
    assert loaded.embeddings.dtype == np.float32
    _assert_same_bytes(rerank(trained, run, queries, corpus, top_k=6),
                       rerank(loaded, run, queries, corpus, top_k=6))


def test_load_reranker_rejects_other_formats(tmp_path):
    from hybridrank.dense import init_params, save_params
    path = tmp_path / "de.npz"
    save_params(init_params(DIM, 0), path)
    with pytest.raises(ValueError, match="format"):
        load_reranker(path)
