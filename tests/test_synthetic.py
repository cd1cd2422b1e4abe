"""Tests for the synthetic corpus generator: determinism, structure, and the
lexical/semantic control knob's retrieval consequences."""

import numpy as np
import pytest

from hybridrank.bm25 import Bm25Index
from hybridrank.corpus import DEFAULT_VOCAB_SIZE, load_corpus, load_qrels, \
    load_queries, tokenize
from hybridrank.dense import EncoderParams
from hybridrank.hybrid import HybridIndex
from hybridrank.synthetic import (CONCEPT_REPEATS, CONCEPTS_PER_PASSAGE, MAX_FILLER,
                                  MIN_FILLER, SENTENCES_PER_PASSAGE, SyntheticCorpusSpec,
                                  SyntheticData, _render_passage, _word_pools,
                                  make_synthetic_corpus, save_synthetic_data)

SMALL = SyntheticCorpusSpec(n_passages=300, n_train_queries=40, n_test_queries=30,
                            lexical_fraction=0.5, seed=11)


def _bm25_top10(index, query):
    """Ids of the bm25 first stage's top 10, cut the way the pipeline cuts it."""
    hybrid = HybridIndex(index, EncoderParams(np.zeros((DEFAULT_VOCAB_SIZE, 1)), 1, 0),
                         np.zeros((len(index), 1)), 0.0)
    return hybrid.cut("bm25", *hybrid.score_components(query), 10)[0]


def _snapshot(data: SyntheticData):
    return (
        [(p.id, p.title, p.text) for p in data.corpus],
        [(q.id, q.text) for q in data.train_queries],
        [(q.id, q.text) for q in data.test_queries],
        sorted(data.train_qrels.judgments.items()),
        sorted(data.test_qrels.judgments.items()),
    )


def test_same_spec_same_data():
    assert _snapshot(make_synthetic_corpus(SMALL)) == \
           _snapshot(make_synthetic_corpus(SMALL))


def test_different_seed_different_data():
    other = SyntheticCorpusSpec(n_passages=300, n_train_queries=40,
                                n_test_queries=30, lexical_fraction=0.5, seed=12)
    assert _snapshot(make_synthetic_corpus(SMALL)) != \
           _snapshot(make_synthetic_corpus(other))


def test_counts_and_id_shapes():
    data = make_synthetic_corpus(SMALL)
    assert len(data.corpus) == 300
    assert len(data.train_queries) == 40
    assert len(data.test_queries) == 30
    assert data.corpus[0].id == "p00000"
    assert data.train_queries[0].id == "qtrain0000"
    assert data.test_queries[0].id == "qtest0000"
    assert len(data.queries()) == 70
    assert len(data.qrels().judgments) == 70


def test_each_query_has_one_relevant_target_in_its_half():
    data = make_synthetic_corpus(SMALL)
    half = 150
    for q in data.train_queries:
        rel = data.train_qrels.relevant(q.id)
        assert len(rel) == 1
        assert int(next(iter(rel))[1:]) < half
    for q in data.test_queries:
        rel = data.test_qrels.relevant(q.id)
        assert len(rel) == 1
        assert int(next(iter(rel))[1:]) >= half


def test_queries_are_four_words_targets_nonempty():
    data = make_synthetic_corpus(SMALL)
    for q in data.queries():
        assert len(q.text.split()) == 4
    for p in data.corpus:
        assert p.text.strip()


def _render_passage_reference(pid, concept_ids, doc_words, filler_words, rng):
    """The passage text as np.array_split cuts it, with the same RNG calls."""
    tokens = []
    for c in concept_ids:
        tokens.extend([doc_words[int(c)]] * CONCEPT_REPEATS)
    n_filler = int(rng.integers(MIN_FILLER, MAX_FILLER + 1))
    for f in rng.integers(0, len(filler_words), size=n_filler):
        tokens.append(filler_words[int(f)])
    order = rng.permutation(len(tokens))
    shuffled = [tokens[int(j)] for j in order]
    parts = np.array_split(shuffled, SENTENCES_PER_PASSAGE)
    return ". ".join(" ".join(p) for p in parts) + "."


def test_render_passage_equals_array_split_reference():
    # word counts CONCEPT_REPEATS * k + filler cover every residue mod 3; the
    # next draw checks that both consumed the generator alike
    doc, _, filler = _word_pools(50)
    residues = set()
    for seed in range(30):
        for k in range(CONCEPTS_PER_PASSAGE + 1):
            concepts = np.random.default_rng(100 + seed).choice(50, size=k, replace=False)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            text = _render_passage("p", concepts, doc, filler, rng).text
            assert text == _render_passage_reference("p", concepts, doc, filler, ref_rng)
            assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)
            residues.add(len(text.replace(".", " ").split()) % SENTENCES_PER_PASSAGE)
    assert residues == {0, 1, 2}


def test_word_pools_are_hash_disjoint():
    doc, syn, filler = _word_pools(200)
    all_words = doc + syn + filler
    assert len(set(all_words)) == len(all_words)
    hashes = [tokenize(w, DEFAULT_VOCAB_SIZE, 1).tokens[0] for w in all_words]
    assert len(set(hashes)) == len(hashes)


def test_lexical_queries_share_two_surface_words_with_target():
    data = make_synthetic_corpus(SyntheticCorpusSpec(
        n_passages=300, n_train_queries=40, n_test_queries=30,
        lexical_fraction=1.0, seed=3))
    for q in data.test_queries:
        target = next(iter(data.test_qrels.relevant(q.id)))
        passage_words = set(data.corpus.get(target).text.replace(".", " ").split())
        assert sum(1 for w in q.text.split() if w in passage_words) == 2


def test_semantic_queries_share_one_surface_word_with_target():
    data = make_synthetic_corpus(SyntheticCorpusSpec(
        n_passages=300, n_train_queries=40, n_test_queries=30,
        lexical_fraction=0.0, seed=3))
    for q in data.test_queries:
        target = next(iter(data.test_qrels.relevant(q.id)))
        passage_words = set(data.corpus.get(target).text.replace(".", " ").split())
        assert sum(1 for w in q.text.split() if w in passage_words) == 1


def test_all_lexical_makes_bm25_complete():
    data = make_synthetic_corpus(SyntheticCorpusSpec(
        n_passages=400, n_train_queries=60, n_test_queries=40,
        lexical_fraction=1.0, seed=7))
    index = Bm25Index(data.corpus)
    found = 0
    for q in data.test_queries:
        target = next(iter(data.test_qrels.relevant(q.id)))
        ids = _bm25_top10(index, q)
        found += target in ids
    assert found == len(data.test_queries)


def test_all_semantic_starves_bm25():
    data = make_synthetic_corpus(SyntheticCorpusSpec(
        n_passages=1000, n_train_queries=60, n_test_queries=40,
        lexical_fraction=0.0, seed=7))
    index = Bm25Index(data.corpus)
    rr = 0.0
    for q in data.test_queries:
        target = next(iter(data.test_qrels.relevant(q.id)))
        ids = _bm25_top10(index, q)
        if target in ids:
            rr += 1.0 / (ids.index(target) + 1)
    assert rr / len(data.test_queries) < 0.2


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticCorpusSpec(n_passages=0)
    with pytest.raises(ValueError):
        SyntheticCorpusSpec(lexical_fraction=1.5)
    with pytest.raises(ValueError):
        SyntheticCorpusSpec(synonym_table_size=3)
    with pytest.raises(ValueError):
        SyntheticCorpusSpec(n_passages=100, n_train_queries=60, n_test_queries=10)


def test_save_round_trip(tmp_path):
    data = make_synthetic_corpus(SMALL)
    paths = save_synthetic_data(data, tmp_path / "out")
    assert sorted(paths) == ["corpus", "test_qrels", "test_queries",
                             "train_qrels", "train_queries"]
    corpus = load_corpus(paths["corpus"])
    assert [(p.id, p.text) for p in corpus] == \
           [(p.id, p.text) for p in data.corpus]
    trq = load_queries(paths["train_queries"])
    assert [(q.id, q.text) for q in trq] == \
           [(q.id, q.text) for q in data.train_queries]
    qr = load_qrels(paths["test_qrels"])
    assert qr.judgments == data.test_qrels.judgments


def test_save_is_byte_deterministic(tmp_path):
    a = save_synthetic_data(make_synthetic_corpus(SMALL), tmp_path / "a")
    b = save_synthetic_data(make_synthetic_corpus(SMALL), tmp_path / "b")
    for key in a:
        with open(a[key], "rb") as fa, open(b[key], "rb") as fb:
            assert fa.read() == fb.read()
