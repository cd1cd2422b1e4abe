"""Shared-parameter dual encoder at desk scale.

The encoder is an embedding bag: token embeddings mean-pooled into a fixed
dimension, one matrix shared by the query and passage sides. Relevance is
cosine similarity. Training minimizes the in-batch sampled softmax loss

    L = mean_i -log( exp(sim(q_i, p_i)/tau) / sum_j exp(sim(q_i, p_j)/tau) )

with plain mini-batch SGD so runs are deterministic for a fixed seed.
Gradients flow through the cosine normalization (full quotient rule).
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
from .results import CandidateItem, CandidateList, top_k_order

PARAMS_FORMAT = "hybridrank-dense-v1"
ENCODINGS_FORMAT = "hybridrank-encodings-v1"
DEFAULT_DIM = 64
INIT_SCALE = 0.05


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
    out = np.zeros((len(corpus), params.dim), dtype=np.float64)
    for i in range(len(corpus)):
        row = store[i]
        if row.size:
            out[i] = params.embeddings[row].mean(axis=0)
    return out


def _tokenize_pairs(pairs: list[TrainPair], config: DeTrainConfig,
                    vocab_size: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    qtoks = [np.asarray(tokenize(p.query.text, vocab_size, config.query_max_length).tokens,
                        dtype=np.int64) for p in pairs]
    ptoks = [np.asarray(tokenize(p.positive.encoding_text(), vocab_size,
                                 config.passage_max_length).tokens, dtype=np.int64)
             for p in pairs]
    return qtoks, ptoks


def _pooled(emb: np.ndarray, toks: list[np.ndarray]) -> np.ndarray:
    out = np.zeros((len(toks), emb.shape[1]), dtype=np.float64)
    for i, idx in enumerate(toks):
        if idx.size:
            out[i] = emb[idx].mean(axis=0)
    return out


def _batch_loss_grad(emb: np.ndarray, qtoks: list[np.ndarray], ptoks: list[np.ndarray],
                     tau: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus the scatter update (token index array, per-row gradients)."""
    n = len(qtoks)
    u = _pooled(emb, qtoks)
    v = _pooled(emb, ptoks)
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

    idx_parts: list[np.ndarray] = []
    row_parts: list[np.ndarray] = []
    for i, toks in enumerate(qtoks):
        if toks.size:
            idx_parts.append(toks)
            row_parts.append(np.repeat(du[i:i + 1] / toks.size, toks.size, axis=0))
    for i, toks in enumerate(ptoks):
        if toks.size:
            idx_parts.append(toks)
            row_parts.append(np.repeat(dv[i:i + 1] / toks.size, toks.size, axis=0))
    if idx_parts:
        idx = np.concatenate(idx_parts)
        rows = np.concatenate(row_parts)
    else:
        idx = np.empty(0, dtype=np.int64)
        rows = np.empty((0, emb.shape[1]), dtype=np.float64)
    return loss, idx, rows


def in_batch_loss(params: EncoderParams, batch: list[TrainPair], tau: float,
                  config: DeTrainConfig | None = None) -> float:
    """Mean in-batch softmax cross entropy over the batch (log-sum-exp stabilized)."""
    if not batch:
        raise ValueError("batch must be nonempty")
    cfg = config or DeTrainConfig(vocab_size=params.vocab_size, dim=params.dim)
    qtoks, ptoks = _tokenize_pairs(batch, cfg, params.vocab_size)
    return _batch_loss_grad(params.embeddings, qtoks, ptoks, tau)[0]


def in_batch_loss_grad(params: EncoderParams, batch: list[TrainPair], tau: float,
                       config: DeTrainConfig | None = None
                       ) -> tuple[float, dict[int, np.ndarray]]:
    """Loss and analytic gradient w.r.t. every touched embedding row."""
    if not batch:
        raise ValueError("batch must be nonempty")
    cfg = config or DeTrainConfig(vocab_size=params.vocab_size, dim=params.dim)
    qtoks, ptoks = _tokenize_pairs(batch, cfg, params.vocab_size)
    loss, idx, rows = _batch_loss_grad(params.embeddings, qtoks, ptoks, tau)
    grad: dict[int, np.ndarray] = {}
    for t, row in zip(idx.tolist(), rows):
        if t in grad:
            grad[t] = grad[t] + row
        else:
            grad[t] = row.copy()
    return loss, grad


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


def de_retrieve(params: EncoderParams, corpus: Corpus, query: Query, k_results: int,
                query_max_length: int = DEFAULT_QUERY_LENGTH,
                passage_matrix: np.ndarray | None = None) -> CandidateList:
    """Exhaustive top-k by cosine similarity, ties broken by ascending passage id.

    ``passage_matrix`` may carry the L2-normalized passage rows,
    ``normalize_rows(encode_corpus(params, corpus))``, so that batch loops
    encode and normalize the corpus once.
    """
    if k_results < 1:
        raise ValueError(f"k_results must be >= 1, got {k_results}")
    if passage_matrix is None:
        passage_matrix = normalize_rows(encode_corpus(params, corpus))
    qvec = encode_text(params, query.text, query_max_length)
    qn = np.linalg.norm(qvec)
    if qn == 0.0:
        scores = np.zeros(len(corpus), dtype=np.float64)
    else:
        scores = passage_matrix @ (qvec / qn)
    order = top_k_order(scores, corpus.id_rank, k_results)
    items = [CandidateItem(passage_id=corpus[pos].id, score=float(scores[pos]), rank=r)
             for r, pos in enumerate(order, start=1)]
    return CandidateList(query_id=query.id, items=items)


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
