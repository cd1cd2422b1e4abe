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
per token position; one forward pass (_forward) serves score_pair,
score_list, evaluate_loss, rerank and the training step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .corpus import DEFAULT_PASSAGE_LENGTH, DEFAULT_QUERY_LENGTH, DEFAULT_VOCAB_SIZE, \
    Corpus, QrelSet, Query, TokenSequence, TokenStore, tokenize
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
    """Cross-attention score for one (query, passage) pair: a one-item list."""
    return float(score_list(params, np.asarray(query.tokens, dtype=np.int64),
                            [np.asarray(passage.tokens, dtype=np.int64)])[0])


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
    """Scores of many passages against one query: a one-list batch."""
    if qtok.size == 0:
        raise ValueError("query has no tokens")
    if any(t.size == 0 for t in ptoks):
        raise ValueError("every passage needs at least one token")
    pidx, pmask = _pad_passages(ptoks)
    scores, _ = _forward(params, qtok[None], np.ones((1, qtok.size), dtype=bool),
                         pidx[None], pmask[None])
    return scores[0]


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


def _distinct(ids: np.ndarray, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(uniq, inv): the sorted distinct ids, and each id's row in uniq.

    Ids are < vocab_size, so marking a vocabulary-sized table avoids the sort
    in np.unique(return_inverse=True): about 6x faster on a default batch.
    """
    seen = np.zeros(vocab_size, dtype=bool)
    seen[ids] = True
    uniq = np.flatnonzero(seen)
    row = np.empty(vocab_size, dtype=np.intp)
    row[uniq] = np.arange(uniq.size)
    return uniq, row[ids]


def _forward(params: RerankerParams, qidx, qmask, pidx, pmask):
    """Scores (B, n) of a stacked batch, worked per distinct token.

    Embedding rows, keys and the value scalar r are taken once per distinct
    token id of qidx and pidx (padding id included); logits are gathered from
    them per position.  Padded query rows and passage tokens contribute
    exactly nothing; padded list items get finite scores that callers mask.
    Also returns the intermediates that _batch_loss_grad's backward pass reuses.
    """
    nb, lq_max = qidx.shape
    d = params.dim
    uniq, inv = _distinct(np.concatenate([qidx.ravel(), pidx.ravel()]),
                          params.vocab_size)
    inv_q = inv[:qidx.size]                                    # (B·Lq,)
    inv_p = inv[qidx.size:].reshape(pidx.shape)                # (B, n, P)
    e_u = params.embeddings[uniq]                              # (U, d)
    k_u = e_u @ params.w_k
    w = params.w_v @ params.readout                            # value path, (d,)
    r = (e_u @ w)[inv_p]                                       # (B, n, P)
    e_q = e_u[inv_q] * qmask.reshape(-1, 1)                    # (B·Lq, d)
    q = e_q @ params.w_q

    # logit (b, n, q, p) is z_u[b, q, inv_p[b, n, p]]; `flat` indexes z_u.ravel()
    z_u = (q @ k_u.T) / math.sqrt(d)                           # (B·Lq, U)
    flat = (np.arange(nb * lq_max).reshape(nb, 1, lq_max, 1) * uniq.size
            + inv_p[:, :, None, :])                            # (B, n, Lq, P)
    z = z_u.ravel()[flat]
    np.copyto(z, _MASK_LOGIT, where=~pmask[:, :, None, :])
    z -= z.max(axis=3, keepdims=True)
    a = np.exp(z, out=z)
    a /= a.sum(axis=3, keepdims=True)                          # (B, n, Lq, P)

    qm = qmask.astype(a.dtype)
    lq = qm.sum(axis=1)                                        # (B,)
    asum = (qm[:, None, None, :] @ a)[:, :, 0, :]              # (B, n, P)
    scores = (asum * r).sum(axis=2) / lq[:, None] + params.bias
    return scores, (uniq, inv_q, inv_p, flat, e_u, k_u, w, r, e_q, q, a, asum, lq)


def _batch_loss_grad(params: RerankerParams, qidx, qmask, pidx, pmask, imask,
                     labels):
    """Mean loss over a stacked batch of lists plus summed gradients.

    Works per distinct token of the batch (see the module docstring):
    per-position gradients are summed per token with bincount before any
    width-d product, so no (B, n, P, d) tensor is formed.  emb_idx holds each
    distinct token id of qidx and pidx once, so emb_rows can be applied with
    one fancy-indexed update.
    """
    nb, lq_max = qidx.shape
    d = params.dim
    dtype = params.embeddings.dtype
    scores, (uniq, inv_q, inv_p, flat, e_u, k_u, w, r, e_q, q, a, asum, lq) = \
        _forward(params, qidx, qmask, pidx, pmask)

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
    c = np.bincount(inv_p.ravel(), weights=(asum * gl[:, :, None]).ravel(),
                    minlength=uniq.size).astype(dtype)         # (U,)
    ce = c @ e_u
    dreadout = ce @ params.w_v
    dw_v = np.outer(ce, params.readout)

    # attention path: dloss/dA is constant over query rows.  dz on padded query
    # rows is not zeroed: their q and e_q rows are zero and their dq rows are
    # dropped below.
    da = gl[:, :, None] * r                                    # (B, n, P)
    inner = (a @ da[:, :, :, None])[:, :, :, 0]                # (B, n, Lq)
    dz = a * (da[:, :, None, :] - inner[:, :, :, None])
    dz_u = np.bincount(flat.ravel(), weights=dz.ravel(),
                       minlength=nb * lq_max * uniq.size).astype(dtype)
    dz_u = dz_u.reshape(nb * lq_max, uniq.size) / math.sqrt(d)  # per (list, row, token)
    dq = dz_u @ k_u                                            # (B·Lq, d)
    dk_u = dz_u.T @ q                                          # (U, d)
    dw_q = e_q.T @ dq
    dw_k = e_u.T @ dk_u

    de_u = dk_u @ params.w_k.T + np.outer(c, w)
    real = qmask.ravel()
    np.add.at(de_u, inv_q[real], dq[real] @ params.w_q.T)
    grads = {"w_q": dw_q, "w_k": dw_k, "w_v": dw_v, "readout": dreadout,
             "bias": float(g.sum()), "emb_idx": uniq, "emb_rows": de_u}
    return float(losses.mean()), grads


def _token_ids(query: Query, vocab_size: int, max_length: int) -> np.ndarray:
    """int64 token ids of a query; ValueError naming it when empty."""
    tok = np.asarray(tokenize(query.text, vocab_size, max_length).tokens, dtype=np.int64)
    if tok.size == 0:
        raise ValueError(f"query {query.id!r} has no tokens")
    return tok


def _passage_rows(store: TokenStore, corpus: Corpus, passage_ids) -> list[np.ndarray]:
    """Each passage's token ids, sliced from ``store``; ValueError naming an empty one."""
    rows = [store[corpus.position(pid)] for pid in passage_ids]
    for pid, row in zip(passage_ids, rows):
        if row.size == 0:
            raise ValueError(f"passage {pid!r} has no tokens")
    return rows


def _prepare_lists(lists: list[CandidateList], queries: list[Query], corpus: Corpus,
                   query_max_length: int, passage_max_length: int,
                   vocab_size: int) -> list[_ListBatch]:
    by_id = {q.id: q for q in queries}
    store = corpus.token_store(vocab_size, passage_max_length)
    out = []
    for cl in lists:
        if cl.query_id not in by_id:
            raise KeyError(f"no query text for query id {cl.query_id!r}")
        qtok = _token_ids(by_id[cl.query_id], vocab_size, query_max_length)
        pidx, pmask = _pad_passages(_passage_rows(store, corpus, cl.passage_ids()))
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
        qidx, qmask, pidx, pmask, _, labels = _stack_lists([b])
        scores, _ = _forward(params, qidx, qmask, pidx, pmask)
        total += listwise_loss(scores[0], labels[0])
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
    # training runs in float32 (deterministic; a default-config step takes about
    # 2/3 of its float64 time); stored params stay float64
    work = _with_dtype(init, np.float32)
    for step in range(config.steps):
        if cursor + config.batch_size > len(batches):
            order = rng.permutation(len(batches))
            cursor = 0
        take = order[cursor:cursor + config.batch_size]
        cursor += config.batch_size
        stacked = _stack_lists([batches[i] for i in take])
        loss, grads = _batch_loss_grad(work, *stacked)
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
    return _with_dtype(work, np.float64)


def _with_dtype(params: RerankerParams, dtype) -> RerankerParams:
    """A copy of ``params`` with every array in ``dtype`` and a float bias."""
    return RerankerParams(*(getattr(params, name).astype(dtype) for name in
                            ("embeddings", "w_q", "w_k", "w_v", "readout")),
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
    store = corpus.token_store(params.vocab_size, passage_max_length)
    rankings: dict[str, list[tuple[str, float]]] = {}
    for qid, ranking in run.rankings.items():
        if qid not in by_id:
            raise KeyError(f"no query text for query id {qid!r}")
        block = ranking[:top_k]
        tail = ranking[top_k:]
        if not block:  # nothing retrieved, nothing to rescore
            rankings[qid] = []
            continue
        qtok = _token_ids(by_id[qid], params.vocab_size, query_max_length)
        scores = score_list(params, qtok,
                            _passage_rows(store, corpus, [pid for pid, _ in block]))
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
