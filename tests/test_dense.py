"""Tests for the embedding-bag dual encoder: pooling, cosine, loss, training."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from hybridrank import dense
from hybridrank.corpus import PASSAGE_LENGTH, VOCAB_SIZE, Corpus, Passage, Query, tokenize
from hybridrank.dense import (
    PARAMS_FORMAT,
    DeTrainConfig,
    EncoderParams,
    TrainPair,
    _batch_loss_grad,
    _pooled,
    _scatter_rows,
    _tokenize_pairs,
    de_retrieve,
    encode,
    encode_corpus,
    init_params,
    load_params,
    normalize_rows,
    row_norms,
    rows_at,
    save_params,
    train_de,
)
from hybridrank.npzio import deterministic_savez
from hybridrank.results import BLOCK_ENTRIES
from oracles import cosine



def distinct_words(n):
    """n words whose hashed term ids are pairwise distinct."""
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


def params_with_rows(assignments, dim):
    """EncoderParams whose embedding rows are zero except for given word vectors."""
    emb = np.zeros((VOCAB_SIZE, dim))
    for word, vec in assignments.items():
        emb[tokenize(word, 4)[0]] = vec
    return EncoderParams(embeddings=emb, seed=0)


# ---------------------------------------------------------------- encode/cosine

def test_encode_single_token_is_its_row():
    w, = distinct_words(1)
    p = params_with_rows({w: [1.0, 2.0, 3.0]}, dim=3)
    vec = encode(p, tokenize(w, 8))
    assert np.array_equal(vec, [1.0, 2.0, 3.0])


def test_encode_opposite_rows_cancel():
    a, b = distinct_words(2)
    p = params_with_rows({a: [1.0, -1.0], b: [-1.0, 1.0]}, dim=2)
    vec = encode(p, tokenize(f"{a} {b}", 8))
    assert np.array_equal(vec, [0.0, 0.0])


def test_encode_empty_sequence_zero_vector():
    p = init_params(4, seed=0)
    assert np.array_equal(encode(p, tokenize("", 8)), np.zeros(4))


def test_encode_is_mean_not_sum():
    a, b = distinct_words(2)
    p = params_with_rows({a: [2.0], b: [4.0]}, dim=1)
    assert encode(p, tokenize(f"{a} {b}", 8))[0] == pytest.approx(3.0)


def test_cosine_identical_vectors():
    v = np.array([0.3, -0.2, 0.9])
    assert cosine(v, v) == pytest.approx(1.0)


def test_cosine_orthogonal_and_zero():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0
    assert cosine(np.array([1.0, 0.0]), np.zeros(2)) == 0.0
    assert cosine(np.zeros(2), np.zeros(2)) == 0.0


def test_shared_towers_same_text_same_vector():
    # one embedding table serves both sides: identical token input,
    # identical vector, regardless of which "side" the caller has in mind
    p = init_params(8, seed=3)
    q = encode(p, Query("q", "shared input text").tokens)
    d = encode_corpus(p, Corpus([Passage("d", "", "shared input text")]))[0]
    assert np.array_equal(q, d)


def test_normalize_rows_keeps_zero_rows():
    m = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = normalize_rows(m)
    assert np.allclose(out[0], [0.6, 0.8])
    assert np.array_equal(out[1], [0.0, 0.0])


NORM_ROWS = BLOCK_ENTRIES // 64  # rows per row_norms block at dim 64


def _with_zero_rows(n, dtype):
    m = np.random.default_rng(n).normal(size=(n, 64)).astype(dtype)
    m[::7] = 0.0
    return m


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
# one block and one row short or over, then four whole blocks and one row
# short or over
@pytest.mark.parametrize("n", [0, 1, NORM_ROWS - 1, NORM_ROWS, NORM_ROWS + 1,
                               4 * NORM_ROWS - 1, 4 * NORM_ROWS, 4 * NORM_ROWS + 1, 20_000])
def test_row_norms_bit_equal_to_full_norm(n, dtype):
    m = _with_zero_rows(n, dtype)
    out, ref = row_norms(m), np.linalg.norm(m, axis=1)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


def test_normalize_rows_divides_in_place_without_a_second_table():
    m = _with_zero_rows(20_000, np.float64)
    tracemalloc.start()
    try:
        out = normalize_rows(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out is m
    # the table is 9.8 MiB; a divided copy of it would show here
    assert peak < 2**20


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [0, NORM_ROWS + 1, 4 * NORM_ROWS + 1])
def test_normalize_rows_bit_equal_to_full_norm_quotient(n, dtype):
    m = _with_zero_rows(n, dtype)
    norm = np.linalg.norm(m, axis=1, keepdims=True)
    ref = m / np.where(norm == 0, 1, norm)
    out = normalize_rows(m)
    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


# ---------------------------------------------------------------- pooling

def _per_row_mean(emb, rows):
    """Reference pooling: emb[row].mean(axis=0) one row at a time, zeros if empty."""
    out = np.zeros((len(rows), emb.shape[1]))
    for i, row in enumerate(rows):
        if len(row):
            out[i] = emb[row].mean(axis=0)
    return out


def _csr(rows):
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64)
    return np.concatenate([np.asarray(r, dtype=np.int64) for r in rows]), indptr


@pytest.mark.parametrize("dim", [1, 3, 64])
def test_pooled_equals_per_row_mean(dim):
    rng = np.random.default_rng(dim)
    emb = rng.normal(size=(VOCAB_SIZE, dim))
    lengths = [0, 1, 1, 2, 5, 0, 5, 5, 17, 130, 1, 0, 2, 9, 9]
    rows = [rng.integers(0, VOCAB_SIZE, size=n) for n in lengths]
    assert np.array_equal(_pooled(emb, *_csr(rows)), _per_row_mean(emb, rows))


def test_pooled_length_group_larger_than_one_chunk():
    rng = np.random.default_rng(4)
    emb = rng.normal(size=(VOCAB_SIZE, 64))
    rows = [rng.integers(0, VOCAB_SIZE, size=600) for _ in range(8)]
    rows.insert(3, rng.integers(0, VOCAB_SIZE, size=3))
    assert 8 * 600 * 64 > 2 * BLOCK_ENTRIES  # the 600 group spans at least 3 blocks
    assert np.array_equal(_pooled(emb, *_csr(rows)), _per_row_mean(emb, rows))


@pytest.mark.parametrize("dim", [1, 3, 64])
def test_encode_corpus_equals_per_passage_encode(dim):
    rng = np.random.default_rng(10 + dim)
    words = distinct_words(40)
    # "--" has no word characters, so that passage has no tokens; the last
    # passage is longer than PASSAGE_LENGTH words
    long_words = rng.choice(words, size=PASSAGE_LENGTH + 20)
    texts = (["--"] + [" ".join(rng.choice(words, size=int(n)))
                       for n in rng.integers(1, 12, size=60)] + [" ".join(long_words)])
    corpus = Corpus([Passage(f"d{i}", "", t) for i, t in enumerate(texts)])
    p = EncoderParams(embeddings=rng.normal(size=(VOCAB_SIZE, dim)), seed=0)
    encoded = encode_corpus(p, corpus)
    ref = np.stack([encode(p, tokenize(q.encoding_text(), PASSAGE_LENGTH))
                    for q in corpus])
    assert np.array_equal(encoded, ref)
    assert not encoded.any(axis=1)[0]
    # the long passage pools the ids of its first PASSAGE_LENGTH words only
    ids = [tokenize(w, 1)[0] for w in long_words]
    assert np.array_equal(encoded[-1], p.embeddings[ids[:PASSAGE_LENGTH]].mean(axis=0))
    assert not np.allclose(encoded[-1], p.embeddings[ids].mean(axis=0))


def test_scatter_rows_equal_per_row_repeat():
    rng = np.random.default_rng(5)
    grad = rng.normal(size=(7, 3))
    counts = np.array([2, 0, 1, 5, 0, 3, 7])
    ref = np.concatenate([np.repeat(grad[i:i + 1] / c, c, axis=0)
                          for i, c in enumerate(counts.tolist()) if c])
    assert np.array_equal(_scatter_rows(grad, counts), ref)


def test_batch_loss_grad_scatters_every_token_in_row_order():
    rng = np.random.default_rng(6)
    emb = rng.normal(size=(VOCAB_SIZE, 4))
    qtoks = [rng.integers(0, VOCAB_SIZE, size=n) for n in (3, 0, 1)]
    ptoks = [rng.integers(0, VOCAB_SIZE, size=n) for n in (2, 5, 0)]
    _, idx, rows = _batch_loss_grad(emb, qtoks, ptoks, tau=0.5)
    assert np.array_equal(idx, np.concatenate(qtoks + ptoks))
    assert rows.shape == (idx.size, 4)


# ---------------------------------------------------------------- loss

def in_batch_loss(params: EncoderParams, batch: list[TrainPair], tau: float) -> float:
    """Mean in-batch softmax cross entropy over the batch: the loss train_de's
    step computes, for one batch of pairs."""
    if not batch:
        raise ValueError("batch must be nonempty")
    qtoks, ptoks = _tokenize_pairs(batch)
    return _batch_loss_grad(params.embeddings, qtoks, ptoks, tau)[0]


def test_in_batch_loss_single_pair_exactly_zero():
    p = init_params(8, seed=1)
    pair = TrainPair(Query("q", "some query"), Passage("d", "", "some passage"))
    assert in_batch_loss(p, [pair], tau=0.05) == 0.0


def test_in_batch_loss_two_pair_fixture():
    # sims: (q1,p1)=1 (q1,p2)=0 (q2,p2)=1 (q2,p1)=0, tau=1
    # per-query loss -log(e/(e+1)) ~ 0.313262
    a, b, c, d = distinct_words(4)
    p = params_with_rows({a: [1.0, 0.0], b: [1.0, 0.0],
                          c: [0.0, 1.0], d: [0.0, 1.0]}, dim=2)
    batch = [TrainPair(Query("q1", a), Passage("p1", "", b)),
             TrainPair(Query("q2", c), Passage("p2", "", d))]
    assert in_batch_loss(p, batch, tau=1.0) == pytest.approx(0.313262, abs=1e-6)


def test_in_batch_loss_permutation_invariant():
    p = init_params(8, seed=2)
    words = distinct_words(6)
    batch = [TrainPair(Query(f"q{i}", words[2 * i]), Passage(f"p{i}", "", words[2 * i + 1]))
             for i in range(3)]
    x = in_batch_loss(p, batch, tau=0.1)
    y = in_batch_loss(p, list(reversed(batch)), tau=0.1)
    assert x == pytest.approx(y, rel=1e-12)


def test_in_batch_loss_bounds():
    rng = np.random.default_rng(0)
    for trial in range(10):
        tau = float(rng.uniform(0.05, 1.0))
        n = int(rng.integers(1, 5))
        p = init_params(6, seed=trial)
        words = distinct_words(2 * n)
        batch = [TrainPair(Query(f"q{i}", words[2 * i]),
                           Passage(f"p{i}", "", words[2 * i + 1]))
                 for i in range(n)]
        loss = in_batch_loss(p, batch, tau)
        assert 0.0 <= loss <= math.log(n) + 2.0 / tau + 1e-12


def test_in_batch_loss_empty_batch_rejected():
    with pytest.raises(ValueError):
        in_batch_loss(init_params(4, 0), [], tau=0.05)


def test_in_batch_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(5):
        dim = int(rng.integers(2, 9))
        n = int(rng.integers(2, 5))
        tau = float(rng.uniform(0.2, 1.0))
        params = init_params(dim, seed=100 + trial)
        params.embeddings = rng.normal(0, 0.5, size=params.embeddings.shape)
        words = distinct_words(2 * n)
        batch = [TrainPair(Query(f"q{i}", f"{words[2 * i]} {words[2 * i + 1]}"),
                           Passage(f"p{i}", "", words[(2 * i + 1) % (2 * n)]))
                 for i in range(n)]
        # the scatter update train_de applies, summed per embedding row
        qtoks, ptoks = _tokenize_pairs(batch)
        _, idx, rows = _batch_loss_grad(params.embeddings, qtoks, ptoks, tau)
        dense = np.zeros_like(params.embeddings)
        np.add.at(dense, idx, rows)
        grad = {t: dense[t] for t in np.unique(idx).tolist()}
        assert grad  # the batch touches at least one row
        h = 1e-4
        for t, row in grad.items():
            for j in range(dim):
                params.embeddings[t, j] += h
                up = in_batch_loss(params, batch, tau)
                params.embeddings[t, j] -= 2 * h
                down = in_batch_loss(params, batch, tau)
                params.embeddings[t, j] += h
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(row[j]), 1e-8)
                assert abs(fd - row[j]) / denom <= 1e-3


# ---------------------------------------------------------------- training

def _toy_training_pairs(n=24):
    words = distinct_words(2 * n)
    corpus = Corpus([Passage(f"d{i}", "", f"{words[2 * i]} {words[2 * i + 1]}")
                     for i in range(n)])
    pairs = [TrainPair(Query(f"q{i}", words[2 * i]), corpus.get(f"d{i}"))
             for i in range(n)]
    return corpus, pairs


def test_train_de_zero_epochs_returns_init_unchanged():
    _, pairs = _toy_training_pairs(8)
    init = init_params(8, seed=5)
    before = init.embeddings.copy()
    out = train_de(pairs, DeTrainConfig(epochs=0, dim=8, seed=5))
    assert np.array_equal(out.embeddings, before) and out.seed == 5


def test_train_de_deterministic():
    _, pairs = _toy_training_pairs(12)
    cfg = DeTrainConfig(epochs=3, batch_size=4, dim=8, seed=9)
    a = train_de(pairs, cfg)
    b = train_de(pairs, cfg)
    assert np.array_equal(a.embeddings, b.embeddings)


def test_train_de_improves_loss():
    _, pairs = _toy_training_pairs(24)
    cfg = DeTrainConfig(epochs=10, batch_size=8, dim=16, seed=1)
    before = in_batch_loss(init_params(16, seed=1), pairs, dense.TEMPERATURE)
    trained = train_de(pairs, cfg)
    after = in_batch_loss(trained, pairs, dense.TEMPERATURE)
    assert after < before


def _start_from(monkeypatch, params):
    """Make train_de start from a copy of ``params`` instead of a fresh draw."""
    monkeypatch.setattr(dense, "init_params", lambda dim, seed: EncoderParams(
        params.embeddings.copy(), seed))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_de_stops_on_non_finite_loss(monkeypatch):
    _, pairs = _toy_training_pairs(8)
    _start_from(monkeypatch, EncoderParams(np.full((VOCAB_SIZE, 8), np.inf), 0))
    with pytest.raises(ValueError, match="epoch 1"):
        train_de(pairs, DeTrainConfig(epochs=2, dim=8))


def test_train_de_converged_run_does_not_warn(monkeypatch):
    # continuing a converged run leaves the loss at its floor, where batch
    # order alone moves the epoch mean (here up to ~4e-4 nats either way)
    _, pairs = _toy_training_pairs(12)
    converged = train_de(pairs, DeTrainConfig(epochs=20, batch_size=4,
                                              dim=8, seed=3))
    _start_from(monkeypatch, converged)
    for seed in range(4):
        cfg = DeTrainConfig(epochs=3, batch_size=4, dim=8, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train_de(pairs, cfg)


def test_train_de_worse_run_still_warns(monkeypatch):
    # Each pair listed twice, in batches of two.  A batch holding a pair and its
    # copy has two identical rows, so its loss is ln 2 whatever the weights; a
    # batch of the two distinct pairs is near 0 for an encoder fit to them.
    # Under seed 0 the first epoch mixes the pairs and the second does not.
    a, b, c, d = distinct_words(4)
    corpus = Corpus([Passage("da", "", a), Passage("db", "", b)])
    pa = TrainPair(Query("qa", c), corpus.get("da"))
    pb = TrainPair(Query("qb", d), corpus.get("db"))
    fit = train_de([pa, pb], DeTrainConfig(epochs=50, batch_size=2,
                                           dim=8, seed=0))
    cfg = DeTrainConfig(epochs=2, batch_size=2, learning_rate=1e-9,
                        dim=8, seed=0)
    _start_from(monkeypatch, fit)
    with pytest.warns(UserWarning, match=r"did not improve.*final 0\.693147"):
        train_de([pa, pa, pb, pb], cfg)


def test_train_de_empty_pairs_rejected():
    with pytest.raises(ValueError):
        train_de([], DeTrainConfig())


def test_de_train_config_validation():
    with pytest.raises(ValueError):
        DeTrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        DeTrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="epochs must be >= 0, got -1"):
        DeTrainConfig(epochs=-1)
    with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
        DeTrainConfig(dim=0)
    DeTrainConfig(epochs=0, dim=1)


def test_temperature_is_finite_and_positive():
    assert math.isfinite(dense.TEMPERATURE) and dense.TEMPERATURE > 0


# ---------------------------------------------------------------- retrieval

def _rows(params, corpus):
    return normalize_rows(encode_corpus(params, corpus))


def test_de_retrieve_single_passage_corpus():
    corpus = Corpus([Passage("only", "", "anything at all")])
    p = init_params(8, seed=0)
    result = de_retrieve(p, corpus, Query("q", "whatever"), 5,
                         passage_matrix=_rows(p, corpus))
    assert [it.passage_id for it in result.items] == ["only"]


def test_de_retrieve_exact_token_match_wins():
    a, b, c = distinct_words(3)
    p = params_with_rows({a: [1.0, 0.0], b: [0.0, 1.0], c: [-1.0, 0.0]}, dim=2)
    corpus = Corpus([Passage("match", "", a), Passage("ortho", "", b),
                     Passage("anti", "", c)])
    result = de_retrieve(p, corpus, Query("q", a), 3, passage_matrix=_rows(p, corpus))
    assert result.items[0].passage_id == "match"
    assert result.items[0].score == pytest.approx(1.0)


def test_rows_at_equals_the_2d_ufunc_at_byte_for_byte():
    # duplicate indices make the order of the updates visible in the rounding
    rng = np.random.default_rng(5)
    for dtype in (np.float64, np.float32):
        for ufunc in (np.add, np.subtract):
            for trial in range(20):
                table = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 6))))
                table = (table * 10.0 ** rng.integers(-8, 9, size=table.shape)).astype(dtype)
                idx = rng.integers(0, table.shape[0], size=int(rng.integers(0, 40)))
                rows = (rng.normal(size=(idx.size, table.shape[1]))
                        * 10.0 ** rng.integers(-8, 9, size=(idx.size, 1))).astype(dtype)
                expected = table.copy()
                ufunc.at(expected, idx, rows)
                rows_at(ufunc, table, idx, rows)
                assert table.tobytes() == expected.tobytes(), (dtype, ufunc, trial)
    with pytest.raises(ValueError):
        rows_at(np.add, np.zeros((4, 3)).T, np.array([0]), np.ones((1, 4)))


def test_de_retrieve_tie_broken_by_id():
    a, b = distinct_words(2)
    p = params_with_rows({a: [1.0, 0.0], b: [1.0, 0.0]}, dim=2)
    corpus = Corpus([Passage("zz", "", a), Passage("aa", "", b)])
    result = de_retrieve(p, corpus, Query("q", a), 2, passage_matrix=_rows(p, corpus))
    assert [it.passage_id for it in result.items] == ["aa", "zz"]


# ---------------------------------------------------------------- persistence

def test_params_roundtrip_bit_exact(tmp_path):
    p = init_params(8, seed=11)
    path = tmp_path / "de.npz"
    save_params(p, path)
    loaded = load_params(path)
    assert np.array_equal(loaded.embeddings, p.embeddings)
    assert (loaded.dim, loaded.seed) == (p.dim, p.seed)
    assert loaded.dim == loaded.embeddings.shape[1] == 8


def test_dim_is_the_width_of_the_table():
    p = EncoderParams(np.zeros((VOCAB_SIZE, 4)), seed=0)
    assert p.dim == 4
    # the empty query and a real one pool to vectors of one width
    assert encode(p, ()).shape == encode(p, tokenize("word", 8)).shape == (4,)


@pytest.mark.parametrize("load", ["params", "reranker", "hybrid"])
def test_loaders_reject_a_table_not_sized_by_the_vocabulary(tmp_path, load):
    from hybridrank.bm25 import Bm25Index
    from hybridrank.hybrid import HYBRID_FORMAT, HybridIndex, load_hybrid_index, \
        save_hybrid_index
    from hybridrank.npzio import load_npz
    from hybridrank.reranker import RERANKER_FORMAT, load_reranker
    # the savers refuse such a table, so the file is written the way they write
    path = path_arg = tmp_path / f"{load}.npz"
    header = {"vocab_size": 512, "dim": 4, "seed": 0}
    if load == "params":
        deterministic_savez(path, {"format": PARAMS_FORMAT, **header},
                            embeddings=np.zeros((512, 4)))
        loader = load_params
    elif load == "hybrid":
        corpus = Corpus([Passage("d0", "", "alpha beta")])
        save_hybrid_index(HybridIndex(Bm25Index(corpus), init_params(4, 0),
                                      np.zeros((1, 4)), 0.0), tmp_path / load)
        hybrid_header, arrays = load_npz(path, HYBRID_FORMAT)
        deterministic_savez(path, hybrid_header, **{**arrays, "embeddings": np.zeros((512, 4))})
        loader, path_arg = load_hybrid_index, tmp_path / load  # it takes the prefix
    else:
        eye = np.eye(4)
        deterministic_savez(path, {"format": RERANKER_FORMAT, "bias": 0.0, **header},
                            embeddings=np.zeros((512, 4)), w_q=eye, w_k=eye, w_v=eye,
                            readout=np.zeros(4))
        loader = load_reranker
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}.* 512 rows.*"
                                         rf"VOCAB_SIZE is {VOCAB_SIZE}"):
        loader(path_arg)


@pytest.mark.parametrize("save", ["params", "reranker", "hybrid"])
def test_savers_refuse_a_table_not_sized_by_the_vocabulary(tmp_path, save):
    from hybridrank.bm25 import Bm25Index
    from hybridrank.hybrid import HybridIndex, save_hybrid_index
    from hybridrank.reranker import init_reranker, save_reranker
    path = tmp_path / f"{save}.npz"
    table = np.zeros((512, 4))
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}.* 512 rows.*"
                                         rf"VOCAB_SIZE is {VOCAB_SIZE}"):
        if save == "params":
            save_params(EncoderParams(table, seed=0), path)
        elif save == "reranker":
            save_reranker(init_reranker(table, seed=0), path)
        else:
            corpus = Corpus([Passage("d0", "", "alpha beta")])
            save_hybrid_index(HybridIndex(Bm25Index(corpus), EncoderParams(table, seed=0),
                                          np.zeros((1, 4)), 0.0), tmp_path / save)
    assert list(tmp_path.iterdir()) == []


def test_params_deterministic_bytes(tmp_path):
    p = init_params(8, seed=11)
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    save_params(p, a)
    save_params(p, b)
    assert a.read_bytes() == b.read_bytes()


def test_params_format_tag_checked(tmp_path):
    from hybridrank.reranker import init_reranker, save_reranker
    path = tmp_path / "reranker.npz"
    save_reranker(init_reranker(init_params(4, 0).embeddings, seed=0), path)
    with pytest.raises(ValueError, match="format"):
        load_params(path)
