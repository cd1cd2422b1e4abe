"""Shared-parameter dual encoder at desk scale.

The encoder is an embedding bag: token embeddings mean-pooled into a fixed
dimension, one matrix shared by the query and passage sides. Relevance is
cosine similarity. Training minimizes the in-batch sampled softmax loss

    L = mean_i -log( exp(sim(q_i, p_i)/tau) / sum_j exp(sim(q_i, p_j)/tau) )

with tau = ``TEMPERATURE``, by plain mini-batch SGD (deterministic for a fixed
seed). Gradients flow through the cosine normalization (full quotient rule).

``query_cosines`` is the one place a query becomes cosines against the
passage rows; ``hybrid`` cuts the de first stage from it, and
``de_retrieve`` serves a single query.

``save_params`` writes the encoder alone: an ``npzio`` file (format
``hybridrank-dense-v1``) with the ``embeddings`` table and a header of
``vocab_size``, ``dim`` and ``seed``.  The hybrid index file
(``hybrid.save_hybrid_index``) carries the same table and seed next to the
L2-normalized passage rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .corpus import VOCAB_SIZE, Corpus, Passage, Query, passage_tokens
from .npzio import deterministic_savez, load_npz
from .results import CandidateList, blocks, ranked_list, top_k

PARAMS_FORMAT = "hybridrank-dense-v1"
DEFAULT_DIM = 64
INIT_SCALE = 0.05
TEMPERATURE = 0.05  # tau of the training loss, > 0


@dataclass
class EncoderParams:
    embeddings: np.ndarray  # (VOCAB_SIZE, dim) float64
    seed: int

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass(frozen=True)
class TrainPair:
    query: Query
    positive: Passage


@dataclass(frozen=True)
class DeTrainConfig:
    batch_size: int = 64
    epochs: int = 20
    learning_rate: float = 0.5
    seed: int = 0
    dim: int = DEFAULT_DIM

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


def init_params(dim: int = DEFAULT_DIM, seed: int = 0) -> EncoderParams:
    """Fresh parameters, i.i.d. uniform in [-0.05, 0.05]."""
    rng = np.random.default_rng(seed)
    emb = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(VOCAB_SIZE, dim))
    return EncoderParams(embeddings=emb, seed=seed)


def encode(params: EncoderParams, tokens: tuple[int, ...]) -> np.ndarray:
    """Mean pooling of the token ids' embedding rows; no ids give the zero vector."""
    if len(tokens) == 0:
        return np.zeros(params.dim, dtype=np.float64)
    idx = np.asarray(tokens, dtype=np.int64)
    return params.embeddings[idx].mean(axis=0)


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(matrix, axis=1)``, taken over blocks of rows.

    Each row reduces on its own, so the result is bit-equal to the full call,
    but the squared temporary holds one block instead of the whole table.
    """
    return np.concatenate([np.linalg.norm(matrix[blk], axis=1)
                           for blk in blocks(len(matrix), matrix.shape[1])])


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize the rows of a float ``matrix`` in place and return it;
    zero rows stay zero.

    The bits equal ``matrix / np.where(norm == 0, 1, norm)`` with ``norm`` the
    rows' ``np.linalg.norm``.  The norms come from row_norms and the rows are
    divided in place, so no second table is allocated: pass a table that
    nothing reads afterwards.
    """
    norms = row_norms(matrix)[:, None]
    norms[norms == 0.0] = 1.0
    return np.divide(matrix, norms, out=matrix)


def encode_corpus(params: EncoderParams, corpus: Corpus) -> np.ndarray:
    """(n_passages, dim) matrix of mean-pooled passage encodings, corpus order."""
    store = corpus.token_store()
    return _pooled(params.embeddings, store.ids, store.indptr)


def _tokenize_pairs(pairs: list[TrainPair]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    qtoks = [np.asarray(p.query.tokens, dtype=np.int64) for p in pairs]
    ptoks = [np.asarray(passage_tokens(p.positive), dtype=np.int64) for p in pairs]
    return qtoks, ptoks


def _pooled(emb: np.ndarray, ids: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Mean embedding row of each CSR row ``ids[indptr[i]:indptr[i + 1]]``; 0 if empty.

    Rows of equal length are averaged together, one ``results.blocks`` block
    of rows at a time.  ``mean(axis=1)`` over a (rows, length, dim) gather
    adds the length axis in order, so each row equals
    ``emb[row].mean(axis=0)`` bit for bit.
    """
    lengths = np.diff(indptr)
    out = np.zeros((lengths.size, emb.shape[1]), dtype=np.float64)
    by_length = np.argsort(lengths, kind="stable")
    sizes, first = np.unique(lengths[by_length], return_index=True)
    for length, rows in zip(sizes.tolist(), np.split(by_length, first[1:])):
        if length == 0:
            continue
        for blk in blocks(rows.size, length * emb.shape[1]):
            chunk = rows[blk]
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


def rows_at(ufunc: np.ufunc, table: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``ufunc.at(table, idx, rows)`` for a C-contiguous 2-D table, in place.

    The updates go through the raveled table at ``idx[i] * dim + j``, where
    numpy's 1-D ``ufunc.at`` is several times faster than its 2-D form.  Both
    apply them index by index and column by column, so the bytes are equal,
    duplicate indices included.
    """
    if not table.flags.c_contiguous:
        raise ValueError("rows_at needs a C-contiguous table")
    dim = table.shape[1]
    flat = np.asarray(idx, dtype=np.intp)[:, None] * dim + np.arange(dim)
    ufunc.at(table.reshape(-1), flat.ravel(), rows.ravel())


def _scatter_rows(grad: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row i of ``grad`` over ``counts[i]``, once per token of that row, in row order."""
    return np.repeat(grad / np.maximum(counts, 1)[:, None], counts, axis=0)


def train_de(pairs: list[TrainPair], config: DeTrainConfig) -> EncoderParams:
    """Mini-batch SGD on the in-batch softmax loss from ``init_params``.

    Deterministic for fixed (pairs order, config): the initial table and the
    batch order both draw from config.seed.  Raises ValueError naming the
    epoch whose mean loss is not finite; warns if the final epoch's mean loss
    is worse than the first epoch's by more than 1e-3 nats and more than a
    relative 1e-3, so batch-order noise at a converged loss does not warn.
    """
    if not pairs:
        raise ValueError("pairs must be nonempty")
    out = init_params(config.dim, config.seed)
    emb = out.embeddings  # trained in place: drawn here, so no caller holds it
    if config.epochs == 0:
        return out

    qtoks, ptoks = _tokenize_pairs(pairs)
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
            loss, idx, rows = _batch_loss_grad(emb, bq, bp, TEMPERATURE)
            if idx.size:
                rows_at(np.subtract, emb, idx, config.learning_rate * rows)
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


def query_cosines(params: EncoderParams, passage_matrix: np.ndarray,
                  query: Query) -> np.ndarray:
    """Cosine of the query with each L2-normalized row of ``passage_matrix``.

    A query that encodes to the zero vector gets +0.0 throughout.
    """
    qvec = encode(params, query.tokens)
    qn = np.linalg.norm(qvec)
    if qn == 0.0:
        return np.zeros(len(passage_matrix), dtype=np.float64)
    return passage_matrix @ (qvec / qn)


def de_retrieve(params: EncoderParams, corpus: Corpus, query: Query, k_results: int, *,
                passage_matrix: np.ndarray) -> CandidateList:
    """Exhaustive top-k by cosine similarity, ties broken by ascending passage id.

    ``passage_matrix`` holds the L2-normalized passage rows,
    ``normalize_rows(encode_corpus(params, corpus))``.
    """
    if k_results < 1:
        raise ValueError(f"k_results must be >= 1, got {k_results}")
    scores = query_cosines(params, passage_matrix, query)
    return ranked_list(query.id, top_k(scores, corpus.id_rank, corpus.ids(), k_results))


def save_params(params: EncoderParams, path) -> None:
    """Raises ValueError, and writes nothing, unless the table has one row per
    vocabulary id."""
    vocabulary_table(params.embeddings, path)
    header = {"format": PARAMS_FORMAT, "vocab_size": len(params.embeddings),
              "dim": params.dim, "seed": params.seed}
    deterministic_savez(path, header, embeddings=params.embeddings)


def load_params(path) -> EncoderParams:
    """Raises ValueError unless the table has one row per vocabulary id."""
    header, data = load_npz(path, PARAMS_FORMAT)
    return EncoderParams(embeddings=vocabulary_table(data["embeddings"], path),
                         seed=header["seed"])


def vocabulary_table(embeddings: np.ndarray, path) -> np.ndarray:
    """``embeddings`` if it has ``VOCAB_SIZE`` rows; else ValueError naming ``path``."""
    if len(embeddings) != VOCAB_SIZE:
        raise ValueError(f"{path}: embeddings table has {len(embeddings)} rows; the "
                         f"tokenizer's VOCAB_SIZE is {VOCAB_SIZE}")
    return embeddings
