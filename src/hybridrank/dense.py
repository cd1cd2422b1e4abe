"""Shared-parameter dual encoder at desk scale.

The encoder is an embedding bag: token embeddings mean-pooled into a fixed
dimension, one matrix shared by the query and passage sides. Relevance is
cosine similarity. Training minimizes the in-batch sampled softmax loss

    L = mean_i -log( exp(sim(q_i, p_i)/tau) / sum_j exp(sim(q_i, p_j)/tau) )

with plain mini-batch SGD so runs are deterministic for a fixed seed.
Gradients flow through the cosine normalization (full quotient rule).

``query_cosines`` is the one place a query becomes cosines against the
passage rows; ``hybrid`` cuts the de first stage from it, and
``de_retrieve`` serves a single query.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .corpus import (
    DEFAULT_PASSAGE_LENGTH,
    DEFAULT_QUERY_LENGTH,
    DEFAULT_VOCAB_SIZE,
    Corpus,
    Passage,
    Query,
    TokenSequence,
    tokenize,
)
from .npzio import deterministic_savez, load_npz
from .results import CandidateList, ranked_list, top_k

PARAMS_FORMAT = "hybridrank-dense-v1"
ENCODINGS_FORMAT = "hybridrank-encodings-v1"
DEFAULT_DIM = 64
INIT_SCALE = 0.05
# bytes of the (rows, length, dim) gather _pooled averages at once
_POOL_BYTES = 1 << 20


@dataclass
class EncoderParams:
    embeddings: np.ndarray  # (vocab_size, dim) float64
    dim: int
    seed: int

    @property
    def vocab_size(self) -> int:
        return self.embeddings.shape[0]


@dataclass(frozen=True)
class TrainPair:
    query: Query
    positive: Passage


@dataclass(frozen=True)
class DeTrainConfig:
    batch_size: int = 64
    epochs: int = 20
    learning_rate: float = 0.5
    temperature: float = 0.05
    seed: int = 0
    vocab_size: int = DEFAULT_VOCAB_SIZE
    dim: int = DEFAULT_DIM
    query_max_length: int = DEFAULT_QUERY_LENGTH
    passage_max_length: int = DEFAULT_PASSAGE_LENGTH

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


def init_params(vocab_size: int = DEFAULT_VOCAB_SIZE, dim: int = DEFAULT_DIM,
                seed: int = 0) -> EncoderParams:
    """Fresh parameters, i.i.d. uniform in [-0.05, 0.05]."""
    rng = np.random.default_rng(seed)
    emb = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(vocab_size, dim))
    return EncoderParams(embeddings=emb, dim=dim, seed=seed)


def encode(params: EncoderParams, tokens: TokenSequence) -> np.ndarray:
    """Mean pooling of the token embedding rows; empty input gives the zero vector."""
    if len(tokens) == 0:
        return np.zeros(params.dim, dtype=np.float64)
    idx = np.asarray(tokens.tokens, dtype=np.int64)
    return params.embeddings[idx].mean(axis=0)


def encode_text(params: EncoderParams, text: str,
                max_length: int = DEFAULT_PASSAGE_LENGTH) -> np.ndarray:
    return encode(params, tokenize(text, params.vocab_size, max_length))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize rows; zero rows stay zero."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return matrix / safe


def encode_corpus(params: EncoderParams, corpus: Corpus,
                  max_length: int = DEFAULT_PASSAGE_LENGTH) -> np.ndarray:
    """(n_passages, dim) matrix of mean-pooled passage encodings, corpus order."""
    store = corpus.token_store(params.vocab_size, max_length)
    return _pooled(params.embeddings, store.ids, store.indptr)


def _tokenize_pairs(pairs: list[TrainPair], config: DeTrainConfig,
                    vocab_size: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    qtoks = [np.asarray(tokenize(p.query.text, vocab_size, config.query_max_length).tokens,
                        dtype=np.int64) for p in pairs]
    ptoks = [np.asarray(tokenize(p.positive.encoding_text(), vocab_size,
                                 config.passage_max_length).tokens, dtype=np.int64)
             for p in pairs]
    return qtoks, ptoks


def _pooled(emb: np.ndarray, ids: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Mean embedding row of each CSR row ``ids[indptr[i]:indptr[i + 1]]``; 0 if empty.

    Rows of equal length are averaged together, gathered in chunks of about
    ``_POOL_BYTES``.  ``mean(axis=1)`` over a (rows, length, dim) gather adds
    the length axis in order, so each row equals ``emb[row].mean(axis=0)``
    bit for bit.
    """
    lengths = np.diff(indptr)
    out = np.zeros((lengths.size, emb.shape[1]), dtype=np.float64)
    by_length = np.argsort(lengths, kind="stable")
    sizes, first = np.unique(lengths[by_length], return_index=True)
    for length, rows in zip(sizes.tolist(), np.split(by_length, first[1:])):
        if length == 0:
            continue
        step = max(1, _POOL_BYTES // (length * emb.shape[1] * emb.itemsize))
        for lo in range(0, rows.size, step):
            chunk = rows[lo:lo + step]
            out[chunk] = emb[ids[indptr[chunk, None] + np.arange(length)]].mean(axis=1)
    return out


def _batch_loss_grad(emb: np.ndarray, qtoks: list[np.ndarray], ptoks: list[np.ndarray],
                     tau: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus the scatter update (token index array, per-row gradients)."""
    n = len(qtoks)
    toks = qtoks + ptoks
    counts = np.array([t.size for t in toks], dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    idx = np.concatenate(toks)
    pooled = _pooled(emb, idx, indptr)
    u, v = pooled[:n], pooled[n:]
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    uh = normalize_rows(u)
    vh = normalize_rows(v)
    c = uh @ vh.T
    s = c / tau
    m = s.max(axis=1, keepdims=True)
    e = np.exp(s - m)
    p = e / e.sum(axis=1, keepdims=True)
    loss = float(np.mean(m[:, 0] + np.log(e.sum(axis=1)) - np.diag(s)))

    g = (p - np.eye(n)) / (n * tau)  # dL/dC
    # cosine gradient via the quotient rule; zero-norm rows get zero gradient
    safe_nu = np.where(nu == 0.0, 1.0, nu)
    safe_nv = np.where(nv == 0.0, 1.0, nv)
    du = (g @ vh - (g * c).sum(axis=1, keepdims=True) * uh) / safe_nu[:, None]
    dv = (g.T @ uh - (g * c).sum(axis=0)[:, None] * vh) / safe_nv[:, None]
    du[nu == 0.0] = 0.0
    dv[nv == 0.0] = 0.0
    return loss, idx, _scatter_rows(np.concatenate([du, dv]), counts)


def _scatter_rows(grad: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row i of ``grad`` over ``counts[i]``, once per token of that row, in row order."""
    return np.repeat(grad / np.maximum(counts, 1)[:, None], counts, axis=0)


def in_batch_loss(params: EncoderParams, batch: list[TrainPair], tau: float,
                  config: DeTrainConfig | None = None) -> float:
    """Mean in-batch softmax cross entropy over the batch (log-sum-exp stabilized)."""
    if not batch:
        raise ValueError("batch must be nonempty")
    cfg = config or DeTrainConfig(vocab_size=params.vocab_size, dim=params.dim)
    qtoks, ptoks = _tokenize_pairs(batch, cfg, params.vocab_size)
    return _batch_loss_grad(params.embeddings, qtoks, ptoks, tau)[0]


def train_de(pairs: list[TrainPair], config: DeTrainConfig,
             init: EncoderParams | None = None) -> EncoderParams:
    """Mini-batch SGD on the in-batch softmax loss.

    Deterministic for fixed (pairs order, config, init). Fresh initialization
    draws from config.seed; raises ValueError naming the epoch whose mean loss
    is not finite; warns if the final epoch's mean loss is worse than
    the first epoch's by more than 1e-3 nats and more than a relative 1e-3, so
    batch-order noise at a converged loss does not warn.
    """
    if not pairs:
        raise ValueError("pairs must be nonempty")
    if init is None:
        init = init_params(config.vocab_size, config.dim, config.seed)
    emb = init.embeddings.copy()
    out = EncoderParams(embeddings=emb, dim=init.dim, seed=init.seed)
    if config.epochs == 0:
        return out

    qtoks, ptoks = _tokenize_pairs(pairs, config, init.vocab_size)
    rng = np.random.default_rng(config.seed)
    n = len(pairs)
    first_epoch_loss = None
    last_epoch_loss = None
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            sel = perm[start:start + config.batch_size]
            bq = [qtoks[i] for i in sel]
            bp = [ptoks[i] for i in sel]
            loss, idx, rows = _batch_loss_grad(emb, bq, bp, config.temperature)
            if idx.size:
                np.subtract.at(emb, idx, config.learning_rate * rows)
            losses.append(loss)
        epoch_loss = float(np.mean(losses))
        if not math.isfinite(epoch_loss):
            raise ValueError(f"dual encoder loss is {epoch_loss} at epoch {epoch + 1}")
        if first_epoch_loss is None:
            first_epoch_loss = epoch_loss
        last_epoch_loss = epoch_loss
    if last_epoch_loss > first_epoch_loss and not math.isclose(
            last_epoch_loss, first_epoch_loss, rel_tol=1e-3, abs_tol=1e-3):
        warnings.warn(
            f"dual encoder training did not improve: first epoch loss "
            f"{first_epoch_loss:.6f}, final {last_epoch_loss:.6f}",
            stacklevel=2,
        )
    return out


def query_cosines(params: EncoderParams, passage_matrix: np.ndarray, query: Query,
                  query_max_length: int = DEFAULT_QUERY_LENGTH) -> np.ndarray:
    """Cosine of the query with each L2-normalized row of ``passage_matrix``.

    A query that encodes to the zero vector gets +0.0 throughout.
    """
    qvec = encode_text(params, query.text, query_max_length)
    qn = np.linalg.norm(qvec)
    if qn == 0.0:
        return np.zeros(len(passage_matrix), dtype=np.float64)
    return passage_matrix @ (qvec / qn)


def de_retrieve(params: EncoderParams, corpus: Corpus, query: Query, k_results: int,
                query_max_length: int = DEFAULT_QUERY_LENGTH, *,
                passage_matrix: np.ndarray) -> CandidateList:
    """Exhaustive top-k by cosine similarity, ties broken by ascending passage id.

    ``passage_matrix`` holds the L2-normalized passage rows,
    ``normalize_rows(encode_corpus(params, corpus))``.
    """
    if k_results < 1:
        raise ValueError(f"k_results must be >= 1, got {k_results}")
    scores = query_cosines(params, passage_matrix, query, query_max_length)
    return ranked_list(query.id, *top_k(scores, corpus.id_rank, corpus.ids(), k_results))


def save_params(params: EncoderParams, path) -> None:
    header = {"format": PARAMS_FORMAT, "vocab_size": params.vocab_size,
              "dim": params.dim, "seed": params.seed}
    deterministic_savez(path, header, embeddings=params.embeddings)


def load_params(path) -> EncoderParams:
    header, data = load_npz(path, PARAMS_FORMAT)
    return EncoderParams(embeddings=data["embeddings"], dim=header["dim"],
                         seed=header["seed"])


def save_encodings(ids: list[str], matrix: np.ndarray, path) -> None:
    """Persist (passage id, vector) records for a corpus."""
    deterministic_savez(path, {"format": ENCODINGS_FORMAT, "ids": ids}, matrix=matrix)


def load_encodings(path) -> tuple[list[str], np.ndarray]:
    header, data = load_npz(path, ENCODINGS_FORMAT)
    return list(header["ids"]), data["matrix"]
