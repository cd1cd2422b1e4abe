"""Single-head cross-attention reranker trained with a listwise softmax loss.

The scorer attends from query token embeddings over passage token embeddings:
Q = E_q W_q, K = E_p W_k, V = E_p W_v, A = row_softmax(Q K^T / sqrt(d)),
score = readout . mean_rows(A V) + bias.  Training minimizes
-sum_j y_j log softmax(s)_j over candidate lists of one positive plus sampled
negatives, with graded labels acting as multipliers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .corpus import DEFAULT_PASSAGE_LENGTH, DEFAULT_QUERY_LENGTH, DEFAULT_VOCAB_SIZE, \
    Corpus, QrelSet, Query, TokenSequence, tokenize
from .dense import DEFAULT_DIM, INIT_SCALE
from .evaluation import RunFile
from .npzio import deterministic_savez, load_npz
from .results import CandidateItem, CandidateList

RERANKER_FORMAT = "hybridrank-reranker-v1"
_MASK_LOGIT = -1e30


@dataclass
class RerankerParams:
    embeddings: np.ndarray  # (vocab_size, dim) float64
    w_q: np.ndarray         # (dim, dim)
    w_k: np.ndarray         # (dim, dim)
    w_v: np.ndarray         # (dim, dim)
    readout: np.ndarray     # (dim,)
    bias: float
    seed: int

    @property
    def vocab_size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def copy(self) -> "RerankerParams":
        return RerankerParams(self.embeddings.copy(), self.w_q.copy(),
                              self.w_k.copy(), self.w_v.copy(),
                              self.readout.copy(), self.bias, self.seed)


@dataclass(frozen=True)
class SamplingWindow:
    """Negatives come from run ranks in (skip, depth], skip ranks excluded."""

    skip: int = 0
    depth: int = 250
    n_negatives: int = 50

    def __post_init__(self):
        if self.skip < 0:
            raise ValueError(f"skip must be >= 0, got {self.skip}")
        if self.skip >= self.depth:
            raise ValueError(f"skip ({self.skip}) must be < depth ({self.depth})")
        if not 1 <= self.n_negatives <= self.depth - self.skip:
            raise ValueError(
                f"n_negatives must be in [1, {self.depth - self.skip}], "
                f"got {self.n_negatives}")


@dataclass(frozen=True)
class RerankTrainConfig:
    steps: int = 2000
    batch_size: int = 8
    learning_rate: float = 0.05
    lr_schedule: str = "linear"
    update_embeddings: bool = True
    seed: int = 0
    vocab_size: int = DEFAULT_VOCAB_SIZE
    dim: int = DEFAULT_DIM
    query_max_length: int = DEFAULT_QUERY_LENGTH
    passage_max_length: int = DEFAULT_PASSAGE_LENGTH

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.lr_schedule not in ("constant", "linear"):
            raise ValueError(
                f"lr_schedule must be 'constant' or 'linear', got "
                f"{self.lr_schedule!r}")


def init_reranker(vocab_size: int = DEFAULT_VOCAB_SIZE, dim: int = DEFAULT_DIM,
                  seed: int = 0, embeddings: np.ndarray | None = None,
                  attention_scale: float = 3.0) -> RerankerParams:
    """Fresh parameters; identity-like attention, optionally warm-started.

    W_q and W_k start as gain * I with the gain chosen so attention logits for
    typical embedding rows land around +-attention_scale, W_v as I, so the
    initial score is an attention-weighted mean of per-token readouts.
    """
    rng = np.random.default_rng(seed)
    if embeddings is None:
        emb = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(vocab_size, dim))
    else:
        emb = np.array(embeddings, dtype=np.float64)
        if emb.ndim != 2:
            raise ValueError("embeddings must be a 2-d matrix")
        vocab_size, dim = emb.shape
    norms = np.linalg.norm(emb, axis=1)
    nonzero = norms[norms > 0]
    typical = float(nonzero.mean()) if nonzero.size else 1.0
    gain = math.sqrt(attention_scale * math.sqrt(dim)) / max(typical, 1e-12)
    eye = np.eye(dim)
    return RerankerParams(
        embeddings=emb,
        w_q=gain * eye,
        w_k=gain * eye,
        w_v=eye.copy(),
        readout=rng.normal(0.0, 0.1, size=dim),
        bias=0.0,
        seed=seed,
    )


def score_pair(params: RerankerParams, query: TokenSequence,
               passage: TokenSequence) -> float:
    """Cross-attention score for one (query, passage) pair."""
    if len(query) == 0:
        raise ValueError("query has no tokens")
    if len(passage) == 0:
        raise ValueError("passage has no tokens")
    e_q = params.embeddings[np.asarray(query.tokens, dtype=np.int64)]
    e_p = params.embeddings[np.asarray(passage.tokens, dtype=np.int64)]
    q = e_q @ params.w_q
    k = e_p @ params.w_k
    v = e_p @ params.w_v
    z = q @ k.T / math.sqrt(params.dim)
    z -= z.max(axis=1, keepdims=True)
    a = np.exp(z)
    a /= a.sum(axis=1, keepdims=True)
    pooled = (a @ v).mean(axis=0)
    return float(pooled @ params.readout + params.bias)


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


def _pad_passages(ptoks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    width = max(t.size for t in ptoks)
    idx = np.zeros((len(ptoks), width), dtype=np.int64)
    mask = np.zeros((len(ptoks), width), dtype=bool)
    for i, t in enumerate(ptoks):
        idx[i, :t.size] = t
        mask[i, :t.size] = True
    return idx, mask


def score_list(params: RerankerParams, qtok: np.ndarray,
               ptoks: list[np.ndarray]) -> np.ndarray:
    """Scores of many passages against one query; equals score_pair per item."""
    s, _ = _forward_list(params, qtok, *_pad_passages(ptoks))
    return s


def _forward_list(params: RerankerParams, qtok: np.ndarray, pidx: np.ndarray,
                  pmask: np.ndarray):
    if qtok.size == 0:
        raise ValueError("query has no tokens")
    if not pmask.any(axis=1).all():
        raise ValueError("every passage needs at least one token")
    e_q = params.embeddings[qtok]                     # (Lq, d)
    q = e_q @ params.w_q
    e_p = params.embeddings[pidx]                     # (n, P, d)
    k = e_p @ params.w_k
    v = e_p @ params.w_v
    z = np.einsum("qd,npd->nqp", q, k, optimize=True) / math.sqrt(params.dim)
    z = np.where(pmask[:, None, :], z, _MASK_LOGIT)
    z -= z.max(axis=2, keepdims=True)
    a = np.exp(z)
    a /= a.sum(axis=2, keepdims=True)                 # (n, Lq, P)
    pooled = np.einsum("nqp,npd->nd", a, v, optimize=True) / qtok.size
    scores = pooled @ params.readout + params.bias
    return scores, (e_q, q, e_p, k, v, a, pooled)


def _list_loss_grad(params: RerankerParams, qtok: np.ndarray, pidx: np.ndarray,
                    pmask: np.ndarray, labels: np.ndarray):
    """Loss and gradients for one candidate list.

    Returns (loss, grads) with dense grads for w_q/w_k/w_v/readout/bias and the
    embedding gradient as (token indices, per-token rows) for sparse updates.
    """
    scores, (e_q, q, e_p, k, v, a, pooled) = _forward_list(params, qtok, pidx, pmask)
    loss, g = listwise_loss_grad(scores, labels)
    lq = qtok.size
    scale = math.sqrt(params.dim)

    dreadout = pooled.T @ g
    dbias = float(g.sum())
    dpooled = g[:, None] * params.readout[None, :] / lq          # (n, d), /Lq folded in
    # dA rows are constant over the query axis: dA[n, :, p] = dpooled[n] . v[n, p]
    da = np.einsum("nd,npd->np", dpooled, v, optimize=True)                     # (n, P)
    dv = a.sum(axis=1)[:, :, None] * dpooled[:, None, :]         # (n, P, d)
    inner = np.einsum("nqp,np->nq", a, da, optimize=True)
    dz = a * (da[:, None, :] - inner[:, :, None])                # (n, Lq, P)
    dq = np.einsum("nqp,npd->qd", dz, k, optimize=True) / scale                 # (Lq, d)
    dk = np.einsum("nqp,qd->npd", dz, q, optimize=True) / scale                 # (n, P, d)

    dw_q = e_q.T @ dq
    dw_k = np.einsum("npd,npe->de", e_p, dk, optimize=True)
    dw_v = np.einsum("npd,npe->de", e_p, dv, optimize=True)
    de_q = dq @ params.w_q.T
    de_p = dk @ params.w_k.T + dv @ params.w_v.T

    valid = pmask.ravel()
    idx = np.concatenate([qtok, pidx.ravel()[valid]])
    rows = np.concatenate([de_q, de_p.reshape(-1, params.dim)[valid]])
    grads = {"w_q": dw_q, "w_k": dw_k, "w_v": dw_v,
             "readout": dreadout, "bias": dbias, "emb_idx": idx, "emb_rows": rows}
    return loss, grads


class _ListBatch:
    """Pre-tokenized view of one candidate list."""

    __slots__ = ("qtok", "pidx", "pmask", "labels")

    def __init__(self, qtok, pidx, pmask, labels):
        self.qtok = qtok
        self.pidx = pidx
        self.pmask = pmask
        self.labels = labels


def _stack_lists(blists: list[_ListBatch]):
    """Pad a batch of lists to shared (n_items, width, query_len) tensors."""
    nb = len(blists)
    n = max(b.pidx.shape[0] for b in blists)
    w = max(b.pidx.shape[1] for b in blists)
    lq = max(b.qtok.size for b in blists)
    qidx = np.zeros((nb, lq), dtype=np.int64)
    qmask = np.zeros((nb, lq), dtype=bool)
    pidx = np.zeros((nb, n, w), dtype=np.int64)
    pmask = np.zeros((nb, n, w), dtype=bool)
    imask = np.zeros((nb, n), dtype=bool)
    labels = np.zeros((nb, n), dtype=np.float64)
    for i, b in enumerate(blists):
        qidx[i, :b.qtok.size] = b.qtok
        qmask[i, :b.qtok.size] = True
        ni, wi = b.pidx.shape
        pidx[i, :ni, :wi] = b.pidx
        pmask[i, :ni, :wi] = b.pmask
        imask[i, :ni] = True
        labels[i, :ni] = b.labels
    return qidx, qmask, pidx, pmask, imask, labels


def _batch_loss_grad(params: RerankerParams, qidx, qmask, pidx, pmask, imask,
                     labels, need_embedding_grads: bool = True):
    """Mean loss over a stacked batch of lists plus summed gradients.

    Same per-list math as _list_loss_grad, fused across the batch; padded
    query rows, passage tokens and list items contribute exactly nothing.
    Contractions are arranged as flat matrix products so BLAS does the work.
    """
    nb, n, width = pidx.shape
    lq_max = qidx.shape[1]
    d = params.dim
    dtype = params.embeddings.dtype
    scale = math.sqrt(d)
    lq = qmask.sum(axis=1).astype(dtype)                       # (B,)

    e_q = params.embeddings[qidx] * qmask[:, :, None]          # (B, Lq, d)
    q = (e_q.reshape(-1, d) @ params.w_q).reshape(nb, lq_max, d)
    e_p = params.embeddings[pidx] * pmask[:, :, :, None]       # (B, n, P, d)
    e_p_flat = e_p.reshape(nb, n * width, d)
    k_flat = (e_p_flat.reshape(-1, d) @ params.w_k).reshape(nb, n * width, d)
    v = (e_p_flat.reshape(-1, d) @ params.w_v).reshape(nb, n, width, d)

    # attention logits as one gemm per list over the flattened item axis
    z = (q @ k_flat.transpose(0, 2, 1)).reshape(nb, lq_max, n, width)
    z = np.ascontiguousarray(z.transpose(0, 2, 1, 3)) / scale  # (B, n, Lq, P)
    np.copyto(z, _MASK_LOGIT, where=~pmask[:, :, None, :])
    z -= z.max(axis=3, keepdims=True)
    a = np.exp(z, out=z)
    a /= a.sum(axis=3, keepdims=True)                          # (B, n, Lq, P)

    av = a @ v                                                 # (B, n, Lq, d)
    pooled = np.einsum("bnqd,bq->bnd", av, qmask, optimize=True) / lq[:, None, None]
    scores = pooled @ params.readout + params.bias             # (B, n)

    # listwise loss per list over its real items (float64; these are tiny)
    s = np.where(imask, scores, _MASK_LOGIT).astype(np.float64)
    m = s.max(axis=1, keepdims=True)
    e = np.exp(s - m) * imask
    zsum = e.sum(axis=1, keepdims=True)
    p = e / zsum
    ysum = labels.sum(axis=1, keepdims=True)
    losses = (ysum * (m + np.log(zsum)) - (labels * np.where(imask, s, 0.0))
              .sum(axis=1, keepdims=True))
    g = (ysum * p - labels).astype(dtype)                      # zero on padded items

    dreadout = np.einsum("bnd,bn->d", pooled, g, optimize=True)
    dbias = float(g.sum())
    dpooled = g[:, :, None] * params.readout[None, None, :] / lq[:, None, None]
    da = (v @ dpooled[:, :, :, None]).reshape(nb, n, width)    # (B, n, P)
    asum = np.einsum("bnqp,bq->bnp", a, qmask, optimize=True)  # (B, n, P)
    inner = (a @ da[:, :, :, None]).reshape(nb, n, lq_max)     # (B, n, Lq)
    dz = a * (da[:, :, None, :] - inner[:, :, :, None])
    dz *= qmask[:, None, :, None]

    dz_qflat = np.ascontiguousarray(dz.transpose(0, 2, 1, 3)).reshape(
        nb, lq_max, n * width)
    dq = (dz_qflat @ k_flat) / scale                           # (B, Lq, d)
    dk_flat = (dz_qflat.transpose(0, 2, 1) @ q).reshape(-1, d) / scale

    e_q_flat = e_q.reshape(-1, d)
    dq_flat = dq.reshape(-1, d)
    dw_q = e_q_flat.T @ dq_flat
    dw_k = e_p_flat.reshape(-1, d).T @ dk_flat
    # dv = asum ⊗ dpooled, so both dv contractions collapse to (B·n, d) products
    ep_att = (e_p * asum[:, :, :, None]).sum(axis=2)           # (B, n, d)
    dw_v = ep_att.reshape(-1, d).T @ dpooled.reshape(-1, d)

    grads = {"w_q": dw_q, "w_k": dw_k, "w_v": dw_v,
             "readout": dreadout, "bias": dbias}
    if need_embedding_grads:
        de_q = dq_flat @ params.w_q.T
        dpv = dpooled @ params.w_v.T                           # (B, n, d)
        de_p = (dk_flat @ params.w_k.T).reshape(nb, n, width, d)
        de_p += asum[:, :, :, None] * dpv[:, :, None, :]
        grads["emb_idx"] = np.concatenate([qidx[qmask], pidx[pmask]])
        grads["emb_rows"] = np.concatenate(
            [de_q.reshape(nb, lq_max, d)[qmask], de_p[pmask]])
    return float(losses.mean()), grads


def _prepare_lists(lists: list[CandidateList], queries: list[Query], corpus: Corpus,
                   query_max_length: int, passage_max_length: int,
                   vocab_size: int) -> list[_ListBatch]:
    by_id = {q.id: q for q in queries}
    ptok_cache: dict[str, np.ndarray] = {}
    out = []
    for cl in lists:
        if cl.query_id not in by_id:
            raise KeyError(f"no query text for query id {cl.query_id!r}")
        qtok = np.asarray(
            tokenize(by_id[cl.query_id].text, vocab_size, query_max_length).tokens,
            dtype=np.int64)
        if qtok.size == 0:
            raise ValueError(f"query {cl.query_id!r} has no tokens")
        ptoks = []
        for it in cl.items:
            tok = ptok_cache.get(it.passage_id)
            if tok is None:
                passage = corpus.get(it.passage_id)
                tok = np.asarray(
                    tokenize(passage.encoding_text(), vocab_size,
                             passage_max_length).tokens, dtype=np.int64)
                if tok.size == 0:
                    raise ValueError(f"passage {it.passage_id!r} has no tokens")
                ptok_cache[it.passage_id] = tok
            ptoks.append(tok)
        pidx, pmask = _pad_passages(ptoks)
        labels = np.asarray([it.label for it in cl.items], dtype=np.float64)
        out.append(_ListBatch(qtok, pidx, pmask, labels))
    return out


def evaluate_loss(params: RerankerParams, lists: list[CandidateList],
                  queries: list[Query], corpus: Corpus,
                  query_max_length: int = DEFAULT_QUERY_LENGTH,
                  passage_max_length: int = DEFAULT_PASSAGE_LENGTH) -> float:
    """Mean listwise loss over candidate lists under fixed parameters."""
    if not lists:
        raise ValueError("lists must be nonempty")
    batches = _prepare_lists(lists, queries, corpus, query_max_length,
                             passage_max_length, params.vocab_size)
    total = 0.0
    for b in batches:
        scores, _ = _forward_list(params, b.qtok, b.pidx, b.pmask)
        total += listwise_loss(scores, b.labels)
    return total / len(batches)


def train_reranker(lists: list[CandidateList], queries: list[Query], corpus: Corpus,
                   config: RerankTrainConfig,
                   init: RerankerParams | None = None) -> RerankerParams:
    """Mini-batch SGD over candidate lists; deterministic under the seed.

    Raises ValueError naming the step whose batch loss is not finite.
    """
    if not lists:
        raise ValueError("lists must be nonempty")
    if init is None:
        init = init_reranker(config.vocab_size, config.dim, config.seed)
    if config.steps == 0:
        return init.copy()
    batches = _prepare_lists(lists, queries, corpus, config.query_max_length,
                             config.passage_max_length, init.vocab_size)
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(batches))
    cursor = 0
    lr = config.learning_rate
    # training runs in float32 (≈2x faster, deterministic); stored params stay float64
    work = _with_dtype(init, np.float32)
    for step in range(config.steps):
        if cursor + config.batch_size > len(batches):
            order = rng.permutation(len(batches))
            cursor = 0
        take = order[cursor:cursor + config.batch_size]
        cursor += config.batch_size
        stacked = _stack_lists([batches[i] for i in take])
        loss, grads = _batch_loss_grad(
            work, *stacked, need_embedding_grads=config.update_embeddings)
        if not math.isfinite(loss):
            raise ValueError(f"reranker loss is {loss} at step {step + 1}")
        if config.lr_schedule == "linear":
            step_lr = lr * (1.0 - step / config.steps)
        else:
            step_lr = lr
        frac = np.float32(step_lr / take.size)  # grads are sums over the batch
        work.w_q -= frac * grads["w_q"]
        work.w_k -= frac * grads["w_k"]
        work.w_v -= frac * grads["w_v"]
        work.readout -= frac * grads["readout"]
        work.bias -= float(frac * grads["bias"])
        if config.update_embeddings:
            _scatter_subtract(work.embeddings, grads["emb_idx"],
                              frac * grads["emb_rows"])
    return _with_dtype(work, np.float64)


def _with_dtype(params: RerankerParams, dtype) -> RerankerParams:
    """A copy of ``params`` with every array in ``dtype`` and a float bias."""
    return RerankerParams(*(getattr(params, name).astype(dtype) for name in
                            ("embeddings", "w_q", "w_k", "w_v", "readout")),
                          float(params.bias), params.seed)


def _scatter_subtract(table: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """table[idx] -= rows with duplicate indices accumulated (sorted reduceat)."""
    order = np.argsort(idx, kind="stable")
    sidx = idx[order]
    starts = np.flatnonzero(np.r_[True, sidx[1:] != sidx[:-1]])
    sums = np.add.reduceat(rows[order], starts, axis=0)
    table[sidx[starts]] -= sums


def build_candidate_lists(run: RunFile, qrels: QrelSet, window: SamplingWindow,
                          seed: int = 0) -> tuple[list[CandidateList], dict]:
    """Training lists of one injected positive plus sampled window negatives.

    Per query: the relevant passage (highest grade, then smallest id) is always
    included, with retriever_rank 0 when the run missed it; n_negatives are
    drawn uniformly without replacement from run ranks (skip, depth], skipping
    any passage judged relevant.  Queries without a positive are dropped.  The
    report lists dropped queries and queries whose negative pool came up short:
    fewer than n_negatives non-relevant passages in ranks (skip, depth].  Such a
    list then holds all of them.
    """
    rng = np.random.default_rng(seed)
    lists: list[CandidateList] = []
    dropped: list[str] = []
    short: list[str] = []
    for qid in sorted(run.rankings):
        ranking = run.rankings[qid]
        relevant = qrels.relevant(qid)
        if not relevant:
            dropped.append(qid)
            continue
        best_grade = max(relevant.values())
        positive_id = min(p for p, g in relevant.items() if g == best_grade)
        positive_rank = 0
        for rank, (pid, _) in enumerate(ranking, start=1):
            if pid == positive_id:
                positive_rank = rank
                break
        pool = [(rank, pid, score)
                for rank, (pid, score) in enumerate(ranking, start=1)
                if window.skip < rank <= window.depth and relevant.get(pid, 0) == 0]
        if len(pool) < window.n_negatives:
            short.append(qid)
            chosen = list(range(len(pool)))
        else:
            chosen = sorted(rng.choice(len(pool), size=window.n_negatives,
                                       replace=False).tolist())
        pos_score = dict(ranking).get(positive_id, 0.0)
        items = [CandidateItem(passage_id=positive_id, score=float(pos_score),
                               rank=1, label=relevant[positive_id],
                               retriever_rank=positive_rank)]
        for j, c in enumerate(chosen, start=2):
            rank, pid, score = pool[c]
            items.append(CandidateItem(passage_id=pid, score=float(score), rank=j,
                                       label=0, retriever_rank=rank))
        lists.append(CandidateList(query_id=qid, items=items))
    report = {"lists": len(lists), "dropped_no_positive": dropped,
              "short_pool": short}
    return lists, report


def rerank(params: RerankerParams, run: RunFile, queries: list[Query],
           corpus: Corpus, top_k: int,
           query_max_length: int = DEFAULT_QUERY_LENGTH,
           passage_max_length: int = DEFAULT_PASSAGE_LENGTH,
           run_tag: str | None = None) -> RunFile:
    """Rescore each query's top_k with the cross-attention model and resort.

    Ties keep the original retrieval order (then ascending passage id); the
    tail beyond top_k keeps its order below the rescored block, with synthetic
    descending scores so the output stays a valid run.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    by_id = {q.id: q for q in queries}
    ptok_cache: dict[str, np.ndarray] = {}
    rankings: dict[str, list[tuple[str, float]]] = {}
    for qid, ranking in run.rankings.items():
        if qid not in by_id:
            raise KeyError(f"no query text for query id {qid!r}")
        qtok = np.asarray(
            tokenize(by_id[qid].text, params.vocab_size, query_max_length).tokens,
            dtype=np.int64)
        block = ranking[:top_k]
        tail = ranking[top_k:]
        if not block:  # nothing retrieved, nothing to rescore
            rankings[qid] = []
            continue
        ptoks = []
        for pid, _ in block:
            tok = ptok_cache.get(pid)
            if tok is None:
                passage = corpus.get(pid)
                tok = np.asarray(
                    tokenize(passage.encoding_text(), params.vocab_size,
                             passage_max_length).tokens, dtype=np.int64)
                ptok_cache[pid] = tok
            if tok.size == 0:
                raise ValueError(f"passage {pid!r} has no tokens")
            ptoks.append(tok)
        if qtok.size == 0:
            raise ValueError(f"query {qid!r} has no tokens")
        scores = score_list(params, qtok, ptoks)
        order = sorted(range(len(block)),
                       key=lambda i: (-scores[i], i, block[i][0]))
        new_ranking = [(block[i][0], float(scores[i])) for i in order]
        floor = min((s for _, s in new_ranking), default=0.0)
        for j, (pid, _) in enumerate(tail):
            new_ranking.append((pid, floor - 1.0 - j))
        rankings[qid] = new_ranking
    return RunFile(run_tag=run_tag or f"{run.run_tag}-rerank", rankings=rankings)


def save_candidate_lists(lists: list[CandidateList], path) -> None:
    """JSONL rows {query_id, items:[{passage_id, label, retriever_rank}]}."""
    with open(path, "w", encoding="utf-8") as f:
        for cl in lists:
            row = {"query_id": cl.query_id,
                   "items": [{"passage_id": it.passage_id, "label": it.label,
                              "retriever_rank": it.retriever_rank}
                             for it in cl.items]}
            f.write(json.dumps(row, sort_keys=True) + "\n")


def load_candidate_lists(path) -> list[CandidateList]:
    lists = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                items = [CandidateItem(passage_id=it["passage_id"], score=0.0,
                                       rank=j, label=int(it["label"]),
                                       retriever_rank=int(it["retriever_rank"]))
                         for j, it in enumerate(row["items"], start=1)]
                lists.append(CandidateList(query_id=row["query_id"], items=items))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return lists


def save_reranker(params: RerankerParams, path) -> None:
    header = {"format": RERANKER_FORMAT, "vocab_size": params.vocab_size,
              "dim": params.dim, "seed": params.seed, "bias": params.bias}
    deterministic_savez(path, header, embeddings=params.embeddings, w_q=params.w_q,
                        w_k=params.w_k, w_v=params.w_v, readout=params.readout)


def load_reranker(path) -> RerankerParams:
    header, data = load_npz(path, RERANKER_FORMAT)
    return RerankerParams(embeddings=data["embeddings"], w_q=data["w_q"],
                          w_k=data["w_k"], w_v=data["w_v"],
                          readout=data["readout"], bias=float(header["bias"]),
                          seed=int(header["seed"]))
