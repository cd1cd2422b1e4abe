"""Tests for the cross-attention reranker: scoring, loss, sampling, training."""

import math

import numpy as np
import pytest

from hybridrank.corpus import Corpus, Passage, QrelSet, Query, tokenize
from hybridrank import reranker
from hybridrank.evaluation import RunFile
from hybridrank.reranker import (
    RerankTrainConfig,
    RerankerParams,
    SamplingWindow,
    _ListBatch,
    _batch_loss_grad,
    _forward,
    _pad_passages,
    _prepare_lists,
    _stack_lists,
    _store_rows,
    build_candidate_lists,
    init_reranker,
    listwise_loss,
    listwise_loss_grad,
    load_candidate_lists,
    load_reranker,
    rerank,
    save_candidate_lists,
    save_reranker,
    score_list,
    score_pair,
    train_reranker,
)

VOCAB = 512
DIM = 8


def _tok(text, max_length=64):
    return tokenize(text, VOCAB, max_length)


def _zero_params(bias=0.0):
    return RerankerParams(
        embeddings=np.zeros((VOCAB, DIM)), w_q=np.zeros((DIM, DIM)),
        w_k=np.zeros((DIM, DIM)), w_v=np.zeros((DIM, DIM)),
        readout=np.zeros(DIM), bias=bias, seed=0)


def _random_params(seed=0):
    rng = np.random.default_rng(seed)
    return RerankerParams(
        embeddings=rng.normal(0, 0.3, size=(VOCAB, DIM)),
        w_q=rng.normal(0, 0.3, size=(DIM, DIM)),
        w_k=rng.normal(0, 0.3, size=(DIM, DIM)),
        w_v=rng.normal(0, 0.3, size=(DIM, DIM)),
        readout=rng.normal(0, 0.3, size=DIM), bias=float(rng.normal()),
        seed=seed)


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
    e_p = p.embeddings[d.tokens[0]]
    expected = float(p.readout @ (e_p @ p.w_v) + p.bias)
    assert score_pair(p, q, d) == pytest.approx(expected, rel=1e-12)
    p2 = p.copy()
    p2.w_q = np.zeros((DIM, DIM))  # attention weights cannot change a 1x1 softmax
    assert score_pair(p2, q, d) == pytest.approx(expected, rel=1e-12)


def test_score_pair_rejects_empty_inputs():
    p = _random_params(2)
    with pytest.raises(ValueError):
        score_pair(p, _tok(""), _tok("passage text"))
    with pytest.raises(ValueError):
        score_pair(p, _tok("query"), _tok("..."))


def test_score_pair_deterministic():
    p = _random_params(3)
    q, d = _tok("same query twice"), _tok("same passage twice")
    assert score_pair(p, q, d) == score_pair(p, q, d)


def test_score_list_matches_score_pair():
    p = _random_params(4)
    q = _tok("what is fused scoring")
    passages = ["short one", "a much longer passage with many more tokens in it",
                "medium sized text here"]
    toks = [np.asarray(_tok(t, 512).tokens, dtype=np.int64) for t in passages]
    fused = score_list(p, np.asarray(q.tokens, dtype=np.int64), toks)
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
        assert [it.rank for it in cl.items] == list(range(1, 12))
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
                               rank=j + 1, label=1 if j == 0 else 0)
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
    gradient is dense, (vocab, d)."""
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
    batches = _prepare_lists(lists, queries, corpus, 64, 512, VOCAB)[:n_lists]
    stacked = _stack_lists(batches)
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
    touched = np.unique(np.concatenate(
        [t for b in batches for t in (b.qtok, b.pidx[b.pmask])]))[:4]
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


def _token_sharing_batches():
    """Hand-built lists over ids 0..11 (0 is also the padding id): a token
    repeated within a passage, tokens shared across passages and lists, query
    tokens that also occur in passages, a real id 0, lists of unequal item
    count and width, queries of unequal length and a one-item list."""
    spec = [
        ([3, 0, 5], [[3, 3, 7, 0], [1, 2], [0, 5, 9, 9, 11]], [1, 0, 0]),
        ([7], [[4, 7, 4]], [1]),
        ([2, 8, 8, 1, 0], [[8], [2, 3], [6, 0, 6], [10, 1, 5, 2, 2, 4]], [0, 2, 1, 0]),
    ]
    batches = []
    for qtok, ptoks, labels in spec:
        width = max(len(t) for t in ptoks)
        pidx = np.zeros((len(ptoks), width), dtype=np.int64)
        pmask = np.zeros((len(ptoks), width), dtype=bool)
        for i, t in enumerate(ptoks):
            pidx[i, :len(t)] = t
            pmask[i, :len(t)] = True
        batches.append(_ListBatch(np.asarray(qtok, dtype=np.int64), pidx, pmask,
                                  np.asarray(labels, dtype=np.float64)))
    return batches


def _toy_batches():
    corpus, queries, lists = _toy_corpus_and_lists(n_lists=6, n_items=5, seed=5)
    return _prepare_lists(lists, queries, corpus, 64, 512, VOCAB)


def test_batched_gradient_equals_per_list_sum():
    for batches in (_toy_batches(), _token_sharing_batches()):
        _check_batch_equals_dense_reference(batches)


def _check_batch_equals_dense_reference(batches):
    params = _random_params(8)

    losses = []
    acc = None
    for b in batches:
        loss, g = _dense_list_loss_grad(params, b.qtok, b.pidx, b.pmask, b.labels)
        losses.append(loss)
        cur = {k: np.array(g[k]) for k in ("w_q", "w_k", "w_v", "readout", "emb")}
        acc = cur if acc is None else {k: acc[k] + cur[k] for k in cur}

    stacked = _stack_lists(batches)
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
    for b in _token_sharing_batches() + _toy_batches():
        dense, _ = _dense_forward_list(params, b.qtok, b.pidx, b.pmask)
        ptoks = [row[m] for row, m in zip(b.pidx, b.pmask)]
        fused = score_list(params, b.qtok, ptoks)
        assert np.max(np.abs(fused - dense)) <= 1e-12 * max(np.max(np.abs(dense)), 1.0)


# ---------------------------------------------------------------- training

def test_train_zero_steps_returns_init_unchanged():
    corpus, queries, lists = _toy_corpus_and_lists()
    init = init_reranker(VOCAB, DIM, seed=3)
    cfg = RerankTrainConfig(steps=0, vocab_size=VOCAB, dim=DIM, seed=3)
    out = train_reranker(lists, queries, corpus, cfg, init=init)
    assert np.array_equal(out.embeddings, init.embeddings)
    assert np.array_equal(out.w_q, init.w_q)
    assert out.bias == init.bias


def test_one_training_step_is_sgd_on_the_reference_gradient():
    # one step over all lists (the linear schedule's first step uses the full
    # rate): every parameter, each embedding row included, moves by -lr/B
    # times the summed dense gradient
    corpus, queries, lists = _toy_corpus_and_lists(n_lists=4, seed=6)
    init = _random_params(5)
    lr = 1.0
    cfg = RerankTrainConfig(steps=1, batch_size=4, learning_rate=lr,
                            vocab_size=VOCAB, dim=DIM, seed=5)
    out = train_reranker(lists, queries, corpus, cfg, init=init)
    acc = None
    for b in _prepare_lists(lists, queries, corpus, 64, 512, VOCAB):
        _, g = _dense_list_loss_grad(init, b.qtok, b.pidx, b.pmask, b.labels)
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
    cfg = RerankTrainConfig(steps=40, batch_size=2, learning_rate=0.05,
                            vocab_size=VOCAB, dim=DIM, seed=4)
    a = train_reranker(lists, queries, corpus, cfg)
    b = train_reranker(lists, queries, corpus, cfg)
    for name in ("embeddings", "w_q", "w_k", "w_v", "readout"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.bias == b.bias


def _mean_list_loss(params, lists, queries, corpus):
    """Mean listwise loss over the lists under fixed parameters, one list at a time."""
    total = 0.0
    for b in _prepare_lists(lists, queries, corpus, 64, 512, VOCAB):
        qidx, qmask, pidx, pmask, _, labels = _stack_lists([b])
        scores, _ = _forward(params, qidx, qmask, pidx, pmask)
        total += listwise_loss(scores[0], labels[0])
    return total / len(lists)


def test_train_reduces_loss():
    corpus, queries, lists = _toy_corpus_and_lists(n_lists=8, n_items=5, seed=2)
    init = init_reranker(VOCAB, DIM, seed=0)
    before = _mean_list_loss(init, lists, queries, corpus)
    cfg = RerankTrainConfig(steps=150, batch_size=4, learning_rate=0.05,
                            vocab_size=VOCAB, dim=DIM, seed=0)
    trained = train_reranker(lists, queries, corpus, cfg, init=init)
    after = _mean_list_loss(trained, lists, queries, corpus)
    assert after < before


def test_train_does_not_mutate_init():
    corpus, queries, lists = _toy_corpus_and_lists()
    init = init_reranker(VOCAB, DIM, seed=6)
    snap = init.embeddings.copy()
    train_reranker(lists, queries, corpus,
                   RerankTrainConfig(steps=10, vocab_size=VOCAB, dim=DIM), init=init)
    assert np.array_equal(init.embeddings, snap)


def test_train_output_is_float64():
    corpus, queries, lists = _toy_corpus_and_lists()
    cfg = RerankTrainConfig(steps=5, vocab_size=VOCAB, dim=DIM, seed=1)
    out = train_reranker(lists, queries, corpus, cfg)
    for name in ("embeddings", "w_q", "w_k", "w_v", "readout"):
        assert getattr(out, name).dtype == np.float64


def test_train_stops_on_non_finite_loss():
    corpus, queries, lists = _toy_corpus_and_lists()
    init = init_reranker(VOCAB, DIM, seed=2)
    init.readout[0] = np.nan
    cfg = RerankTrainConfig(steps=5, vocab_size=VOCAB, dim=DIM, seed=2)
    with pytest.raises(ValueError, match="step 1"):
        train_reranker(lists, queries, corpus, cfg, init=init)


def _with_tokenless_passage(corpus):
    """The corpus plus passage "dots", whose text has no tokens."""
    return Corpus(list(corpus) + [Passage("dots", "", "...")])


def test_train_names_a_passage_without_tokens():
    corpus, queries, lists = _toy_corpus_and_lists()
    corpus = _with_tokenless_passage(corpus)
    lists[1].items[2].passage_id = "dots"
    cfg = RerankTrainConfig(steps=1, vocab_size=VOCAB, dim=DIM)
    with pytest.raises(ValueError, match="passage 'dots' has no tokens"):
        train_reranker(lists, queries, corpus, cfg)


def test_train_empty_lists_rejected():
    corpus, queries, _ = _toy_corpus_and_lists()
    with pytest.raises(ValueError):
        train_reranker([], queries, corpus, RerankTrainConfig())


def test_train_config_validation():
    with pytest.raises(ValueError):
        RerankTrainConfig(steps=-1)
    with pytest.raises(ValueError):
        RerankTrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        RerankTrainConfig(learning_rate=0.0)


def test_init_reranker_structure_and_determinism():
    a = init_reranker(VOCAB, DIM, seed=5)
    b = init_reranker(VOCAB, DIM, seed=5)
    assert np.array_equal(a.embeddings, b.embeddings)
    assert np.array_equal(a.readout, b.readout)
    assert np.array_equal(a.w_v, np.eye(DIM))
    assert np.allclose(a.w_q, a.w_k)
    assert np.count_nonzero(a.w_q - np.diag(np.diag(a.w_q))) == 0
    assert a.bias == 0.0


def test_init_reranker_warm_start_copies():
    emb = np.full((VOCAB, DIM), 0.25)
    p = init_reranker(seed=0, embeddings=emb)
    emb[0, 0] = 99.0
    assert p.embeddings[0, 0] == 0.25


# ---------------------------------------------------------------- rerank

def _rerank_fixture(seed=0):
    corpus, queries, _ = _toy_corpus_and_lists(seed=seed)
    rankings = {
        "q0": [(f"d{i}", float(10 - i)) for i in range(8)],
        "q1": [(f"d{i}", float(5 - i)) for i in range(3)],
    }
    return corpus, queries, RunFile("base", rankings)


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


def test_rerank_empty_ranking_stays_empty():
    corpus, queries, run = _rerank_fixture()
    run.rankings["q0"] = []
    out = rerank(_random_params(12), run, queries, corpus, top_k=5)
    assert out.rankings["q0"] == []


def test_rerank_unknown_passage_named():
    corpus, queries, run = _rerank_fixture()
    run.rankings["q0"][0] = ("ghost", 11.0)
    with pytest.raises(KeyError, match="ghost"):
        rerank(_random_params(13), run, queries, corpus, top_k=5)


def test_rerank_names_a_passage_without_tokens():
    corpus, queries, run = _rerank_fixture()
    corpus = _with_tokenless_passage(corpus)
    run.rankings["q0"].append(("dots", -1.0))
    # below top_k it is not rescored
    out = rerank(_random_params(13), run, queries, corpus, top_k=5)
    assert out.rankings["q0"][-1][0] == "dots"
    with pytest.raises(ValueError, match="passage 'dots' has no tokens"):
        rerank(_random_params(13), run, queries, corpus, top_k=len(run.rankings["q0"]))


def test_store_rows_equal_per_row_padding():
    corpus, _, _ = _toy_corpus_and_lists(seed=7)
    store = corpus.token_store(VOCAB, 512)
    pids = ["d3", "d0", "d19", "d3", "d7", "d12"]
    idx, mask = _store_rows(store, corpus, pids)
    ref_idx, ref_mask = _pad_passages([store[corpus.position(p)] for p in pids])
    assert idx.dtype == ref_idx.dtype and np.array_equal(idx, ref_idx)
    assert np.array_equal(mask, ref_mask)


def test_store_rows_names_the_first_passage_without_tokens():
    corpus, _, _ = _toy_corpus_and_lists()
    corpus = Corpus(list(corpus) + [Passage("dots", "", "..."), Passage("dash", "", "-")])
    store = corpus.token_store(VOCAB, 512)
    with pytest.raises(ValueError, match="passage 'dash' has no tokens"):
        _store_rows(store, corpus, ["d1", "dash", "d2", "dots"])


def test_rerank_order_and_tail_equal_per_item_reference(monkeypatch):
    # scores with exact ties, including -0.0 against 0.0; 60 items, so an
    # unstable sort would reorder ties
    rng = np.random.default_rng(2)
    scores = rng.choice([0.5, 0.0, -0.0, -1.25, 2.0, 1e-300], size=60)
    monkeypatch.setattr(reranker, "_score_padded", lambda *args: scores.copy())
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
    corpus, queries, run = _rerank_fixture()
    run.rankings["mystery"] = [("d1", 1.0)]
    with pytest.raises(KeyError, match="mystery"):
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
    loaded = load_candidate_lists(path)
    assert [(cl.query_id,
             [(it.passage_id, it.label, it.retriever_rank) for it in cl.items])
            for cl in loaded] == \
           [(cl.query_id,
             [(it.passage_id, it.label, it.retriever_rank) for it in cl.items])
            for cl in lists]


def test_load_candidate_lists_error_position(tmp_path):
    path = tmp_path / "lists.jsonl"
    path.write_text('{"query_id": "q", "items": [{"passage_id": "d"}]}\n')
    with pytest.raises(ValueError, match="line 1"):
        load_candidate_lists(path)


def test_reranker_params_roundtrip(tmp_path):
    p = init_reranker(VOCAB, DIM, seed=21)
    p.bias = -0.75
    path = tmp_path / "rr.npz"
    save_reranker(p, path)
    loaded = load_reranker(path)
    for name in ("embeddings", "w_q", "w_k", "w_v", "readout"):
        assert np.array_equal(getattr(loaded, name), getattr(p, name))
    assert loaded.bias == p.bias and loaded.seed == p.seed


def test_load_reranker_rejects_other_formats(tmp_path):
    from hybridrank.dense import init_params, save_params
    path = tmp_path / "de.npz"
    save_params(init_params(VOCAB, DIM, 0), path)
    with pytest.raises(ValueError, match="format"):
        load_reranker(path)
