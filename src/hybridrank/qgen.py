"""Extractive query generation with round-trip consistency filtering.

Queries are carved out of passages (whole sentences, or random token crops)
instead of being produced by a generative model.  A first encoder trained on
all generated pairs filters them: a pair survives only when the source passage
is the query's exact 1-nearest neighbour by cosine.  A second encoder is then
fine-tuned from the first on the survivors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from .corpus import DEFAULT_PASSAGE_LENGTH, DEFAULT_QUERY_LENGTH, _WORD_RE, \
    Corpus, Query
from .dense import DeTrainConfig, EncoderParams, de_retrieve, encode_corpus, \
    normalize_rows, train_de, TrainPair

GEN_MODES = ("sentence", "crop")
CROP_MIN_TOKENS = 4
CROP_MAX_TOKENS = 16
MIN_QUERY_TOKENS = 3

_SENTENCE_SPLIT = re.compile(r"(?<=[.?!])\s+")


@dataclass(frozen=True)
class SyntheticPair:
    query: Query
    source_passage_id: str


@dataclass(frozen=True)
class QgenConfig:
    """How to carve queries out of passages and how long to fine-tune."""

    mode: str = "sentence"
    max_per_passage: int = 1
    seed: int = 0
    sample_passages: int | None = None
    fine_tune_epochs: int | None = None

    def __post_init__(self):
        if self.mode not in GEN_MODES:
            raise ValueError(f"mode must be one of {GEN_MODES}, got {self.mode!r}")
        if self.max_per_passage < 1:
            raise ValueError(f"max_per_passage must be >= 1, got {self.max_per_passage}")
        if self.sample_passages is not None and self.sample_passages < 1:
            raise ValueError("sample_passages must be >= 1 when given")
        if self.fine_tune_epochs is not None and self.fine_tune_epochs < 0:
            raise ValueError("fine_tune_epochs must be >= 0 when given")


def split_sentences(text: str) -> list[str]:
    """Sentences delimited by '.', '?' or '!' followed by whitespace or the end."""
    out = []
    for chunk in _SENTENCE_SPLIT.split(text):
        s = chunk.strip().rstrip(".?!").strip()
        if s:
            out.append(s)
    return out


def sample_corpus(corpus: Corpus, n: int, seed: int) -> Corpus:
    """Seeded subsample of n passages, preserving corpus order."""
    if n >= len(corpus):
        return corpus
    rng = np.random.default_rng(seed)
    keep = sorted(rng.choice(len(corpus), size=n, replace=False).tolist())
    return Corpus([corpus.passages[i] for i in keep])


def generate_queries(corpus: Corpus, mode: str = "sentence",
                     max_per_passage: int = 1, seed: int = 0) -> list[SyntheticPair]:
    """Deterministic extractive pairs; queries under 3 tokens are discarded."""
    if mode not in GEN_MODES:
        raise ValueError(f"mode must be one of {GEN_MODES}, got {mode!r}")
    if max_per_passage < 1:
        raise ValueError(f"max_per_passage must be >= 1, got {max_per_passage}")
    rng = np.random.default_rng(seed)
    pairs: list[SyntheticPair] = []
    for passage in corpus:
        texts: list[str] = []
        if mode == "sentence":
            for sentence in split_sentences(passage.text):
                if len(texts) == max_per_passage:
                    break
                if len(_WORD_RE.findall(sentence)) >= MIN_QUERY_TOKENS:
                    texts.append(sentence)
        else:
            words = _WORD_RE.findall(passage.text)
            for _ in range(max_per_passage):
                if not words:
                    break
                span = int(rng.integers(CROP_MIN_TOKENS, CROP_MAX_TOKENS + 1))
                span = min(span, len(words))
                start = int(rng.integers(0, len(words) - span + 1))
                if span >= MIN_QUERY_TOKENS:
                    texts.append(" ".join(words[start:start + span]))
        for j, text in enumerate(texts):
            query = Query(id=f"{passage.id}-q{j}", text=text)
            pairs.append(SyntheticPair(query=query, source_passage_id=passage.id))
    return pairs


def round_trip_filter(pairs: list[SyntheticPair], de0: EncoderParams, corpus: Corpus,
                      query_max_length: int = DEFAULT_QUERY_LENGTH,
                      passage_max_length: int = DEFAULT_PASSAGE_LENGTH
                      ) -> list[SyntheticPair]:
    """Keep pairs whose exact cosine 1-NN over the corpus is the source passage.

    Ties are broken by ascending passage id and the source must win the
    tiebreak.  Input order is preserved.
    """
    rows = normalize_rows(encode_corpus(de0, corpus, passage_max_length))
    return [pair for pair in pairs
            if de_retrieve(de0, corpus, pair.query, 1, query_max_length, passage_matrix=rows)
            .items[0].passage_id == pair.source_passage_id]


def _as_train_pairs(pairs: list[SyntheticPair], corpus: Corpus) -> list[TrainPair]:
    return [TrainPair(query=p.query, positive=corpus.get(p.source_passage_id))
            for p in pairs]


def iterative_train(corpus: Corpus, gen_config: QgenConfig,
                    de_config: DeTrainConfig) -> tuple[EncoderParams, EncoderParams, dict]:
    """Generate pairs, train a first encoder, filter, fine-tune into a second.

    Returns (first encoder, fine-tuned encoder, report); the report counts
    pairs before and after the filter.
    """
    if len(corpus) == 0:
        raise ValueError("corpus must be nonempty")
    source = corpus
    if gen_config.sample_passages is not None:
        source = sample_corpus(corpus, gen_config.sample_passages, gen_config.seed)
    pairs = generate_queries(source, gen_config.mode, gen_config.max_per_passage,
                             gen_config.seed)
    if not pairs:
        raise ValueError("query generation produced no pairs; check the mode and corpus")
    de0 = train_de(_as_train_pairs(pairs, corpus), de_config)
    survivors = round_trip_filter(pairs, de0, corpus,
                                  query_max_length=de_config.query_max_length,
                                  passage_max_length=de_config.passage_max_length)
    if not survivors:
        raise ValueError(
            "round-trip filter removed every generated pair; inspect the "
            "generation mode, max_per_passage and encoder training config")
    ft_epochs = gen_config.fine_tune_epochs
    if ft_epochs is None:
        ft_epochs = de_config.epochs
    de1 = train_de(_as_train_pairs(survivors, corpus),
                   replace(de_config, epochs=ft_epochs), init=de0)
    report = {"before": len(pairs), "after": len(survivors),
              "kept_ratio": len(survivors) / len(pairs)}
    return de0, de1, report
