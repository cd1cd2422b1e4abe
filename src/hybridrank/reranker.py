"""Single-head cross-attention reranker trained with a listwise softmax loss.

The scorer attends from query token embeddings over passage token embeddings:
Q = E_q W_q, K = E_p W_k, V = E_p W_v, A = row_softmax(Q K^T / sqrt(d)),
score = readout . mean_rows(A V) + bias.  Training minimizes
-sum_j y_j log softmax(s)_j over candidate lists of one positive plus sampled
negatives, with graded labels acting as multipliers.

V enters the score only through readout, so the value path folds into one
scalar per token, r = E W_v readout, and

    score = (1/Lq) sum_q sum_p A[q, p] r[tok_p] + bias.

This is exact, not an approximation.  Keys and r depend on the token alone, so
scoring and training work once per distinct token of a batch rather than once
per token position; one forward pass (_forward) serves rerank and the
training step.

Keys are contracted through the query side: the logits of a batch's query rows
against its U distinct tokens are z_u = (Q W_k^T) E_u^T / sqrt(d), so the
U x d key matrix E_u W_k is never formed and the backward pass needs only
(query rows x d) products with W_k.  A stacked batch keeps passage positions
before items, (B, P, n) for ids and (B, Lq, P, n) for attention, so the
softmax over positions reduces across rows n wide rather than along a short
innermost axis.  _stack is the one place that builds this layout, straight
from the corpus token store: training stacks all its lists once, and rerank
stacks each query's list as a batch of one.  Masked positions point at a sentinel column of z_u whose
logit is _MASK_LOGIT and whose r is 0; it is dropped from every gradient sum.

Text without tokens is an empty sum, as in BM25 and the dual encoder: a query
or passage without tokens scores exactly ``bias``.

Training works in place on a float32 copy of the parameters, and the trained
table is that float32 array; w_q, w_k, w_v and readout go back to float64.
_forward computes in the dtype of w_q (float64 once trained) and casts the
rows it gathers to it; the cast is exact, so scores are those of the same
table held in float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, QrelSet, Query
from .dense import row_norms, rows_at, vocabulary_table
from .evaluation import RunFile
from .npzio import deterministic_savez, load_npz
from .results import CandidateItem, CandidateList, Ranking, blocks

RERANKER_FORMAT = "hybridrank-reranker-v1"
_MASK_LOGIT = -1e30
_ATTENTION_SCALE = 3.0  # typical attention logits at init are about +-this


@dataclass
class RerankerParams:
    embeddings: np.ndarray  # (VOCAB_SIZE, dim); float32 once trained
    w_q: np.ndarray         # (dim, dim)
    w_k: np.ndarray         # (dim, dim)
    w_v: np.ndarray         # (dim, dim)
    readout: np.ndarray     # (dim,)
    bias: float
    seed: int

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
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


def init_reranker(embeddings: np.ndarray, seed: int = 0) -> RerankerParams:
    """Parameters warm-started from an ``embeddings`` table, with identity-like
    attention; the readout is the one draw from ``seed``.

    W_q and W_k start as gain * I with the gain chosen so attention logits for
    typical embedding rows land around +-_ATTENTION_SCALE, W_v as I, so the
    initial score is an attention-weighted mean of per-token readouts.

    A float64 ``embeddings`` table is shared, not copied (any other dtype is
    converted): the caller's table becomes the params' table, which
    train_reranker only reads.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2:
        raise ValueError("embeddings must be a 2-d matrix")
    dim = emb.shape[1]
    norms = row_norms(emb)
    nonzero = norms[norms > 0]
    typical = float(nonzero.mean()) if nonzero.size else 1.0
    gain = math.sqrt(_ATTENTION_SCALE * math.sqrt(dim)) / max(typical, 1e-12)
    eye = np.eye(dim)
    return RerankerParams(
        embeddings=emb,
        w_q=gain * eye,
        w_k=gain * eye,
        w_v=eye.copy(),
        readout=np.random.default_rng(seed).normal(0.0, 0.1, size=dim),
        bias=0.0,
        seed=seed,
    )


def _distinct(ids: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(uniq, inv): the sorted distinct ids, and each id's row in uniq.

    Ids are < n_rows, so marking a table of n_rows avoids the sort in
    np.unique(return_inverse=True): about 6x faster on a default batch.
    """
    seen = np.zeros(n_rows, dtype=bool)
    seen[ids] = True
    uniq = np.flatnonzero(seen)
    row = np.empty(n_rows, dtype=np.intp)
    row[uniq] = np.arange(uniq.size)
    return uniq, row[ids]


def _forward(params: RerankerParams, qidx, qmask, pidx, pmask):
    """Scores (B, n) of a stacked batch (layout of _stack), worked per
    distinct token.

    Embedding rows and the value scalar r are taken once per distinct token id
    of qidx and pidx (padding id included); logits are gathered per position
    from z_u = (Q W_k^T) E_u^T, so keys are never formed.  z_u has one extra
    sentinel column, logit _MASK_LOGIT and r = 0, that every masked passage
    position points at.  Padded query rows and passage tokens contribute
    exactly nothing and Lq is at least 1, so text without tokens scores the
    bias; padded list items get finite scores that callers mask.
    Also returns the intermediates that _batch_loss_grad's backward pass reuses.
    """
    nb, lq_max = qidx.shape
    d = params.dim
    dtype = params.w_q.dtype
    uniq, inv = _distinct(np.concatenate([qidx.ravel(), pidx.ravel()]),
                          len(params.embeddings))
    nu = uniq.size                                             # the sentinel's column
    inv_q = inv[:qidx.size]                                    # (B·Lq,)
    inv_p = np.where(pmask, inv[qidx.size:].reshape(pidx.shape), nu)  # (B, P, n)
    e_u = params.embeddings[uniq].astype(dtype, copy=False)    # (U, d)
    w = params.w_v @ params.readout                            # value path, (d,)
    r_u = np.zeros(nu + 1, dtype=dtype)
    r_u[:nu] = e_u @ w
    r = r_u[inv_p]                                             # (B, P, n)
    e_q = e_u[inv_q] * qmask.reshape(-1, 1)                    # (B·Lq, d)
    q = e_q @ params.w_q
    qk = q @ params.w_k.T

    # logit (b, q, p, n) is z_u[b·Lq + q, inv_p[b, p, n]]; `flat` indexes z_u.ravel()
    z_u = np.empty((nb * lq_max, nu + 1), dtype=dtype)         # (B·Lq, U + 1)
    z_u[:, :nu] = (qk @ e_u.T) / math.sqrt(d)
    z_u[:, nu] = _MASK_LOGIT
    flat = (np.arange(nb * lq_max).reshape(nb, lq_max, 1, 1) * (nu + 1)
            + inv_p[:, None])                                  # (B, Lq, P, n)
    z = z_u.ravel()[flat]
    z -= z.max(axis=2, keepdims=True)
    a = np.exp(z, out=z)
    a /= a.sum(axis=2, keepdims=True)                          # (B, Lq, P, n)

    qm = qmask.astype(dtype)
    lq = np.maximum(qm.sum(axis=1), 1)                         # (B,), 1 for no tokens
    asum = np.einsum("bl,blpn->bpn", qm, a)                    # (B, P, n)
    scores = np.einsum("bpn,bpn->bn", asum, r) / lq[:, None] + params.bias
    return scores, (uniq, inv_q, inv_p, flat, e_u, w, r, e_q, q, qk, a, asum, lq)


def _batch_loss_grad(params: RerankerParams, qidx, qmask, pidx, pmask, imask,
                     labels):
    """Mean loss over a stacked batch of lists plus summed gradients.

    Works per distinct token of the batch (see the module docstring):
    per-position gradients are summed per token with bincount before any
    width-d product, so no (B, P, n, d) tensor is formed; the sentinel column
    is dropped from both sums.  emb_idx holds each distinct token id of qidx
    and pidx once, so emb_rows can be applied with one fancy-indexed update.
    """
    nb, lq_max = qidx.shape
    d = params.dim
    dtype = params.w_q.dtype
    scores, (uniq, inv_q, inv_p, flat, e_u, w, r, e_q, q, qk, a, asum, lq) = \
        _forward(params, qidx, qmask, pidx, pmask)
    nu = uniq.size

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
    gl = g / lq[:, None]                                       # dloss/dscore with 1/Lq

    # value path: dloss/dr per distinct token, then through r = E_u W_v readout
    c = np.bincount(inv_p.ravel(), weights=(asum * gl[:, None, :]).ravel(),
                    minlength=nu + 1)[:nu].astype(dtype)       # (U,)
    ce = c @ e_u
    dreadout = ce @ params.w_v
    dw_v = np.outer(ce, params.readout)

    # attention path: dloss/dA is constant over query rows.  dz on padded query
    # rows is not zeroed: their q and e_q rows are zero and their dq rows are
    # dropped below.
    da = gl[:, None, :] * r                                    # (B, P, n)
    inner = np.einsum("blpn,bpn->bln", a, da)                  # (B, Lq, n)
    dz = a * (da[:, None] - inner[:, :, None, :])
    dz_u = np.bincount(flat.ravel(), weights=dz.ravel(),
                       minlength=nb * lq_max * (nu + 1)).astype(dtype)
    dz_u = dz_u.reshape(nb * lq_max, nu + 1)[:, :nu] / math.sqrt(d)  # per (list, row, token)
    gk = dz_u @ e_u                                            # (B·Lq, d)
    dq = gk @ params.w_k
    dw_q = e_q.T @ dq
    dw_k = gk.T @ q

    de_u = dz_u.T @ qk + np.outer(c, w)
    real = qmask.ravel()
    rows_at(np.add, de_u, inv_q[real], dq[real] @ params.w_q.T)
    grads = {"w_q": dw_q, "w_k": dw_k, "w_v": dw_v, "readout": dreadout,
             "bias": float(g.sum()), "emb_idx": uniq, "emb_rows": de_u}
    return float(losses.mean()), grads


def _token_ids(by_id: dict[str, Query], query_id: str) -> np.ndarray:
    """int64 token ids of query ``query_id``, maybe none; KeyError if unknown."""
    if query_id not in by_id:
        raise KeyError(f"no query text for query id {query_id!r}")
    return np.asarray(by_id[query_id].tokens, dtype=np.int64)


def _stack(qtoks: list[np.ndarray], passage_ids: list[list[str]], corpus: Corpus):
    """One padded batch of B lists, gathered from ``corpus.token_store()``.

    Returns query ids and mask (B, Lq), passage ids and mask (B, P, n), with
    positions before items, and the item mask (B, n); ids are int32, padding
    is id 0.  P is at least 1, so a passage without tokens, or a list without
    items, stacks as an all-false pmask.  Passage ids are gathered one block
    of lists at a time, so no full-size int64 index array is made.
    """
    store = corpus.token_store()
    pos = np.array([corpus.position(p) for pids in passage_ids for p in pids], dtype=np.int64)
    start = store.indptr[pos]
    length = store.indptr[pos + 1] - start
    n_items = np.array([len(pids) for pids in passage_ids])
    imask = np.arange(n_items.max()) < n_items[:, None]
    starts = np.zeros(imask.shape, dtype=np.int64)
    lengths = np.zeros(imask.shape, dtype=np.int64)
    starts[imask] = start
    lengths[imask] = length
    width = np.arange(length.max(initial=1))[:, None]          # (P, 1)
    pmask = width < lengths[:, None, :]                        # (B, P, n)
    pidx = np.zeros(pmask.shape, dtype=np.int32)
    for blk in blocks(len(pidx), pidx[0].size):
        pidx[blk][pmask[blk]] = store.ids[(starts[blk, None, :] + width)[pmask[blk]]]
    q_len = np.array([tok.size for tok in qtoks])
    qmask = np.arange(q_len.max()) < q_len[:, None]
    qidx = np.zeros(qmask.shape, dtype=np.int32)
    qidx[qmask] = np.concatenate(qtoks)
    return qidx, qmask, pidx, pmask, imask


def train_reranker(lists: list[CandidateList], queries: list[Query], corpus: Corpus,
                   config: RerankTrainConfig, init: RerankerParams) -> RerankerParams:
    """Mini-batch SGD over candidate lists from ``init``; deterministic under the seed.

    Training runs in place on a float32 copy of ``init``, and the result's
    table is that float32 array; its w_q, w_k, w_v and readout are float64.
    With steps=0 the result is a float64 copy of ``init``.  ``init`` is only
    read, and the result shares no array with it.
    Raises ValueError naming the step whose batch loss is not finite.
    """
    if not lists:
        raise ValueError("lists must be nonempty")
    if config.steps == 0:
        return init.copy()
    by_id = {q.id: q for q in queries}
    qidx, qmask, pidx, pmask, imask = _stack(
        [_token_ids(by_id, cl.query_id) for cl in lists],
        [cl.passage_ids() for cl in lists], corpus)
    labels = np.zeros(imask.shape, dtype=np.float64)
    labels[imask] = [it.label for cl in lists for it in cl.items]
    # stacked once; each step slices its lists to their own widest Lq, P and n
    sizes = np.stack([qmask.sum(1), pmask.any(2).sum(1), imask.sum(1)], axis=1)
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(lists))
    cursor = 0
    lr = config.learning_rate
    # training runs in float32 (deterministic; a default-config step takes about
    # 2/3 of its float64 time); the stored table stays float32, the other
    # params go back to float64
    work = _with_dtype(init, np.float32)
    for step in range(config.steps):
        if cursor + config.batch_size > len(lists):
            order = rng.permutation(len(lists))
            cursor = 0
        take = order[cursor:cursor + config.batch_size]
        cursor += config.batch_size
        lq, w, n = sizes[take].max(axis=0).tolist()
        loss, grads = _batch_loss_grad(work, qidx[take, :lq], qmask[take, :lq],
                                       pidx[take, :w, :n], pmask[take, :w, :n],
                                       imask[take, :n], labels[take, :n])
        if not math.isfinite(loss):
            raise ValueError(f"reranker loss is {loss} at step {step + 1}")
        step_lr = lr * (1.0 - step / config.steps)
        frac = np.float32(step_lr / take.size)  # grads are sums over the batch
        work.w_q -= frac * grads["w_q"]
        work.w_k -= frac * grads["w_k"]
        work.w_v -= frac * grads["w_v"]
        work.readout -= frac * grads["readout"]
        work.bias -= float(frac * grads["bias"])
        work.embeddings[grads["emb_idx"]] -= frac * grads["emb_rows"]
    return RerankerParams(work.embeddings,
                          *(getattr(work, name).astype(np.float64)
                            for name in ("w_q", "w_k", "w_v", "readout")),
                          work.bias, work.seed)


def _with_dtype(params: RerankerParams, dtype) -> RerankerParams:
    """A copy of ``params`` with every array in ``dtype`` and a float bias."""
    return RerankerParams(params.embeddings.astype(dtype),
                          *(getattr(params, name).astype(dtype)
                            for name in ("w_q", "w_k", "w_v", "readout")),
                          float(params.bias), params.seed)


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
        ids = ranking.ids
        positive_rank = ids.index(positive_id) + 1 if positive_id in ids else 0
        pool = [rank for rank in range(window.skip + 1, min(window.depth, len(ids)) + 1)
                if relevant.get(ids[rank - 1], 0) == 0]
        if len(pool) < window.n_negatives:
            short.append(qid)
            chosen = list(range(len(pool)))
        else:
            chosen = sorted(rng.choice(len(pool), size=window.n_negatives,
                                       replace=False).tolist())
        items = [CandidateItem(passage_id=positive_id, label=relevant[positive_id],
                               retriever_rank=positive_rank)]
        for c in chosen:
            rank = pool[c]
            items.append(CandidateItem(passage_id=ids[rank - 1], label=0, retriever_rank=rank))
        lists.append(CandidateList(query_id=qid, items=items))
    report = {"lists": len(lists), "dropped_no_positive": dropped,
              "short_pool": short}
    return lists, report


def rerank(params: RerankerParams, run: RunFile, queries: list[Query],
           corpus: Corpus, top_k: int, run_tag: str | None = None) -> RunFile:
    """Rescore each query's top_k with the cross-attention model and resort.

    Ties keep the original retrieval order; the tail beyond top_k keeps its
    order below the rescored block, with synthetic descending scores so the
    output stays a valid run.  A query without tokens keeps its order; an empty
    ranking stays empty, and a query missing from ``queries`` raises KeyError.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    by_id = {q.id: q for q in queries}
    rankings: dict[str, Ranking] = {}
    for qid, ranking in run.rankings.items():
        pids = ranking.ids[:top_k]
        qidx, qmask, pidx, pmask, _ = _stack([_token_ids(by_id, qid)], [pids], corpus)
        scores = _forward(params, qidx, qmask, pidx, pmask)[0][0]
        order = np.argsort(-scores, kind="stable")
        tail = float(scores.min(initial=np.inf)) - 1.0 - np.arange(len(ranking) - len(pids))
        rankings[qid] = Ranking(tuple(map(pids.__getitem__, order.tolist()))
                                + ranking.ids[top_k:],
                                np.concatenate([scores[order], tail]))
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
    with open(path, encoding="utf-8-sig") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                items = [CandidateItem(passage_id=it["passage_id"], label=int(it["label"]),
                                       retriever_rank=int(it["retriever_rank"]))
                         for it in row["items"]]
                lists.append(CandidateList(query_id=row["query_id"], items=items))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return lists


def save_reranker(params: RerankerParams, path) -> None:
    """Raises ValueError, and writes nothing, unless the table has one row per
    vocabulary id."""
    vocabulary_table(params.embeddings, path)
    header = {"format": RERANKER_FORMAT, "vocab_size": len(params.embeddings),
              "dim": params.dim, "seed": params.seed, "bias": params.bias}
    deterministic_savez(path, header, embeddings=params.embeddings, w_q=params.w_q,
                        w_k=params.w_k, w_v=params.w_v, readout=params.readout)


def load_reranker(path) -> RerankerParams:
    """Raises ValueError unless the table has one row per vocabulary id."""
    header, data = load_npz(path, RERANKER_FORMAT)
    return RerankerParams(embeddings=vocabulary_table(data["embeddings"], path),
                          w_q=data["w_q"], w_k=data["w_k"], w_v=data["w_v"],
                          readout=data["readout"], bias=float(header["bias"]),
                          seed=int(header["seed"]))
