"""End-to-end pipeline tests at toy scale: orchestration, config round-trips,
training-data mixing, manifests."""

import contextlib
import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from hybridrank import hybrid, pipeline, results
from hybridrank.bm25 import Bm25Index, encode_query
from hybridrank.corpus import load_corpus, load_queries, passage_tokens, tokenize
from hybridrank.dense import DeTrainConfig, encode
from hybridrank.evaluation import read_run, write_run
from hybridrank.hybrid import DEFAULT_LAMBDA_GRID, hybrid_retrieve, load_hybrid_index
from hybridrank.pipeline import (FIRST_STAGES, ExperimentConfig, StageError,
                                 ablation_matrix, config_from_dict, config_to_dict,
                                 load_config, mix_training_data, run_experiment,
                                 save_config)
from hybridrank.reranker import RerankTrainConfig, SamplingWindow, load_candidate_lists, \
    load_reranker, rerank
from hybridrank.results import CandidateItem, CandidateList
from hybridrank.synthetic import SyntheticCorpusSpec, make_synthetic_corpus, \
    save_synthetic_data
from oracles import compute_stats, cosine, dot, encode_passage


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    data = make_synthetic_corpus(SyntheticCorpusSpec(
        n_passages=120, n_train_queries=25, n_test_queries=15,
        lexical_fraction=0.5, seed=5))
    save_synthetic_data(data, root)
    return root


def _config(data_dir, workdir, **overrides):
    base = dict(
        corpus=str(data_dir / "corpus.jsonl"),
        train_queries=str(data_dir / "train_queries.tsv"),
        test_queries=str(data_dir / "test_queries.tsv"),
        train_qrels=str(data_dir / "train_qrels.txt"),
        test_qrels=str(data_dir / "test_qrels.txt"),
        workdir=str(workdir),
        seed=3,
        de=DeTrainConfig(epochs=3, batch_size=8, dim=16),
        reranker=RerankTrainConfig(steps=30, batch_size=4, learning_rate=0.05),
        window=SamplingWindow(skip=0, depth=30, n_negatives=8),
        run_depth=40,
        rerank_top_k=10,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------- mixing

def _lists(qids, tag):
    out = []
    for qid in qids:
        items = [CandidateItem(passage_id=f"{tag}-{qid}-{j}", score=float(3 - j),
                               label=1 if j == 0 else 0)
                 for j in range(3)]
        out.append(CandidateList(query_id=qid, items=items))
    return out


def test_mix_keeps_whole_lists_from_one_side():
    a = _lists(["q1", "q2", "q3"], "a")
    b = _lists(["q1", "q2", "q3"], "b")
    mixed = mix_training_data(a, b, seed=0)
    assert [cl.query_id for cl in mixed] == ["q1", "q2", "q3"]
    for cl in mixed:
        tags = {it.passage_id.split("-")[0] for it in cl.items}
        assert len(tags) == 1  # never splices two sources into one list


def test_mix_passes_through_one_sided_queries():
    a = _lists(["q1", "q2"], "a")
    b = _lists(["q2", "q9"], "b")
    mixed = {cl.query_id: cl for cl in mix_training_data(a, b, seed=1)}
    assert sorted(mixed) == ["q1", "q2", "q9"]
    assert mixed["q1"].items[0].passage_id.startswith("a-")
    assert mixed["q9"].items[0].passage_id.startswith("b-")
    # a one-sided list without items passes through too
    empty, full = CandidateList("q1", []), _lists(["q2"], "b")[0]
    assert mix_training_data([empty], [full]) == [empty, full]


def test_mix_deterministic_and_seed_sensitive():
    a = _lists([f"q{i}" for i in range(30)], "a")
    b = _lists([f"q{i}" for i in range(30)], "b")

    def picks(seed):
        return [cl.items[0].passage_id.split("-")[0]
                for cl in mix_training_data(a, b, seed=seed)]

    assert picks(5) == picks(5)
    assert picks(5) != picks(6)
    assert {"a", "b"} == set(picks(5))  # both sources actually drawn


def test_mix_rejects_empty_side():
    with pytest.raises(ValueError):
        mix_training_data([], _lists(["q1"], "b"))


# ------------------------------------------------------------- config io

def test_config_round_trip(data_dir, tmp_path):
    cfg = _config(data_dir, tmp_path / "w", training_source="mixed")
    rebuilt = config_from_dict(config_to_dict(cfg))
    assert rebuilt == cfg
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    # a config saved by an editor that writes a UTF-8 BOM loads the same
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_config(bom) == cfg


def _changed(value):
    """A value of the same type as ``value`` that differs from it."""
    if dataclasses.is_dataclass(value):
        field = next(f.name for f in dataclasses.fields(value) if f.name != "seed")
        return dataclasses.replace(value, **{field: _changed(getattr(value, field))})
    if isinstance(value, str):
        return {"hybrid": "de", "bm25": "hybrid"}.get(value, value + "-x")
    return value + 1


def test_every_config_field_round_trips_through_a_file(data_dir, tmp_path):
    # the keys a config file holds are the dataclass fields, sections included
    # (less the seed each section derives from the experiment's), and a change
    # to any one of them survives save and load
    base = _config(data_dir, tmp_path / "w")
    d = config_to_dict(base)
    assert list(d) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    for name in ("de", "reranker", "window"):
        section = getattr(base, name)
        assert list(d[name]) == [f.name for f in dataclasses.fields(section)
                                 if f.name != "seed"]
    path = tmp_path / "config.json"
    for f in dataclasses.fields(ExperimentConfig):
        cfg = dataclasses.replace(base, **{f.name: _changed(getattr(base, f.name))})
        assert cfg != base, f.name
        save_config(cfg, path)
        assert load_config(path) == cfg, f.name


def test_config_rejects_unknown_keys(data_dir, tmp_path):
    d = config_to_dict(_config(data_dir, tmp_path / "w"))
    d["surprise"] = 1
    with pytest.raises(ValueError, match="surprise"):
        config_from_dict(d)


@pytest.mark.parametrize("key", ["vocab_size", "query_max_length", "passage_max_length",
                                 "qgen", "fixed_lambda", "tune_metric", "lambda_grid"])
def test_config_rejects_the_removed_tokenizer_keys(data_dir, tmp_path, key):
    # the vocabulary size and truncation lengths are the tokenizer's constants;
    # "qgen" configured the removed extractive query-generation loop, and
    # λ is always tuned, by MRR@10, on hybrid.DEFAULT_LAMBDA_GRID
    d = config_to_dict(_config(data_dir, tmp_path / "w"))
    assert key not in d
    d[key] = 64
    with pytest.raises(ValueError, match=key):
        config_from_dict(d)


def test_config_rejects_unknown_section_keys(data_dir, tmp_path):
    d = config_to_dict(_config(data_dir, tmp_path / "w"))
    d["de"]["k9"] = 1.0
    with pytest.raises(ValueError, match="k9"):
        config_from_dict(d)
    # the encoder's τ is dense.TEMPERATURE
    d = config_to_dict(_config(data_dir, tmp_path / "w"))
    d["de"]["temperature"] = 0.05
    with pytest.raises(ValueError, match=r"^config section 'de': unknown keys \['temperature'\]"):
        config_from_dict(d)


def test_config_rejects_a_seed_in_a_section(data_dir, tmp_path):
    # a section's seed derives from the experiment's, so no file sets it
    for section in ("de", "reranker"):
        d = config_to_dict(_config(data_dir, tmp_path / "w"))
        d[section]["seed"] = 1
        with pytest.raises(ValueError, match=rf"^config section '{section}': unknown keys "
                                             r"\['seed'\]"):
            config_from_dict(d)


@pytest.mark.parametrize("section", ["de", "reranker", "window"])
def test_config_rejects_a_section_that_is_not_an_object(data_dir, tmp_path, section):
    d = config_to_dict(_config(data_dir, tmp_path / "w"))
    for bad in (None, [], 1):
        d[section] = bad
        with pytest.raises(ValueError, match=f"section '{section}'"):
            config_from_dict(d)


@pytest.mark.parametrize("data, match", [
    ([], "must be a JSON object, got list"),
    ("config", "must be a JSON object, got str"),
    ({}, r"missing required keys \['corpus', 'train_queries', 'test_queries', "
         r"'train_qrels', 'test_qrels', 'workdir'\]"),
])
def test_config_rejects_what_is_not_a_config(data, match):
    with pytest.raises(ValueError, match=match):
        config_from_dict(data)


# a row whose value is a dict is named by its position, so each row keeps its place
@pytest.mark.parametrize("key, value, match", [
    ("seed", "3", "^config: "),
    ("run_depth", None, "^config: "),
    ("seed", {"k": 1}, r"^config: seed must be int, got \{'k': 1\}"),
    ("reranker", {"learning_rate": "x"}, "^config section 'reranker': "),
    ("window", {"depth": "250"}, "^config section 'window': "),
    ("run_depth", 30.5, "^config: run_depth "),
    ("seed", 2.5, "^config: seed "),
    ("rerank_top_k", True, "^config: rerank_top_k "),
    ("corpus", 5, "^config: corpus "),
    ("de", {"epochs": 2.5}, "^config section 'de': epochs "),
    ("reranker", {"steps": 1.5}, "^config section 'reranker': steps "),
    ("window", {"skip": 0, "depth": 20.0, "n_negatives": 6},
     "^config section 'window': depth "),
    ("de", {"learning_rate": True}, "^config section 'de': learning_rate "),
    ("de", {"epochs": {"k": 1}}, "^config section 'de': epochs must be int"),
    ("training_source", 1, "^config: training_source must be str, got 1"),
    ("window", {"n_negatives": None}, "^config section 'window': n_negatives must be int"),
    ("de", {"epochs": -1}, "^config section 'de': epochs must be >= 0"),
    ("de", {"dim": 0}, "^config section 'de': dim must be >= 1"),
    ("reranker", {"steps": math.nan}, "^config section 'reranker': steps must be int, got nan"),
    ("de", {"learning_rate": math.nan}, "^config section 'de': learning_rate must be finite"),
    ("de", {"learning_rate": math.inf}, "^config section 'de': learning_rate must be finite"),
    ("reranker", {"learning_rate": math.nan},
     "^config section 'reranker': learning_rate must be finite"),
    ("reranker", {"learning_rate": -math.inf},
     "^config section 'reranker': learning_rate must be finite, got -inf"),
    # an int too large for a float, which would stop the run at its first use
    ("de", {"learning_rate": 10**400},
     "^config section 'de': learning_rate must be finite, got 1000"),
    ("reranker", {"learning_rate": 10**400},
     "^config section 'reranker': learning_rate must be finite, got 1000"),
])
def test_config_turns_a_wrongly_typed_value_into_a_value_error(data_dir, tmp_path,
                                                               key, value, match):
    d = config_to_dict(_config(data_dir, tmp_path / "w"))
    d[key] = value
    with pytest.raises(ValueError, match=match):
        config_from_dict(d)


def test_every_leaf_config_field_is_an_int_float_or_str():
    # the reader checks a leaf value by its field's annotation, so a field of
    # any other type fails here instead of at load time
    def leaves(cls):
        for f in dataclasses.fields(cls):
            if dataclasses.is_dataclass(f.default):
                yield from leaves(type(f.default))
            else:
                yield f"{cls.__name__}.{f.name}", f.type

    found = dict(leaves(ExperimentConfig))
    assert "DeTrainConfig.dim" in found and "SamplingWindow.depth" in found
    assert {name: t for name, t in found.items() if t not in ("int", "float", "str")} == {}


def test_config_validation():
    kwargs = dict(corpus="c", train_queries="a", test_queries="b",
                  train_qrels="d", test_qrels="e", workdir="w")
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs, training_source="laserdisc")
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs, rerank_first_stage="mixed")
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs, seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs, rerank_top_k=0)
    # the default window samples ranks up to 250, deeper than a run of 100
    with pytest.raises(ValueError, match="window.depth"):
        ExperimentConfig(**kwargs, run_depth=100)


# ------------------------------------------------------------- experiments

def test_run_experiment_without_reranker(data_dir, tmp_path):
    cfg = _config(data_dir, tmp_path / "w", training_source="none")
    report = run_experiment(cfg)
    assert sorted(report["metrics"]) == ["bm25", "de", "hybrid"]
    assert report["reranked_run"] is None
    for stage in ("bm25", "de", "hybrid"):
        m = report["metrics"][stage]
        assert set(m) == {"mrr@10", "ndcg@10", "recall@100"}
        assert all(0.0 <= v <= 1.0 for v in m.values())
    workdir = tmp_path / "w"
    for name in ("config.json", "de_params.npz", "lambda.json", "metrics.json",
                 "metrics_table.txt", "report.json", "manifest.json",
                 "run_bm25_test.trec", "run_de_test.trec", "run_hybrid_test.trec"):
        assert (workdir / name).exists(), name
    # the hybrid index is one file
    assert sorted(p for p in os.listdir(workdir) if p.startswith("hybrid")) == ["hybrid.npz"]
    lam = json.loads((workdir / "lambda.json").read_text())
    assert lam == {"lambda": report["lambda"], "grid": list(DEFAULT_LAMBDA_GRID)}


def test_lambda_json_records_the_grid_tuned_on(data_dir, tmp_path, monkeypatch):
    # the tuner and lambda.json both read hybrid.DEFAULT_LAMBDA_GRID when called
    monkeypatch.setattr(hybrid, "DEFAULT_LAMBDA_GRID", (0.0, 10.0))
    report = run_experiment(_config(data_dir, tmp_path / "w", training_source="none"))
    lam = json.loads((tmp_path / "w" / "lambda.json").read_text())
    assert lam == {"lambda": report["lambda"], "grid": [0.0, 10.0]}


def test_run_experiment_with_reranker(data_dir, tmp_path):
    cfg = _config(data_dir, tmp_path / "w", training_source="hybrid",
                  rerank_first_stage="bm25")
    report = run_experiment(cfg)
    assert report["reranked_run"] == "rerank_hybrid_on_bm25"
    assert "rerank_hybrid_on_bm25" in report["metrics"]
    workdir = tmp_path / "w"
    assert (workdir / "lists_hybrid.jsonl").exists()
    assert (workdir / "reranker_hybrid.npz").exists()
    assert (workdir / "run_rerank_hybrid_on_bm25.trec").exists()
    listed = json.loads((workdir / "lists_hybrid_report.json").read_text())
    assert listed["lists"] == 25
    # a train split holds only the run its lists are drawn from
    assert sorted(p for p in os.listdir(workdir) if p.endswith("_train.trec")) == \
        ["run_hybrid_train.trec"]
    # the saved reranker, reloaded, reproduces the reranked run file byte for byte
    again = rerank(load_reranker(workdir / "reranker_hybrid.npz"),
                   read_run(workdir / "run_bm25_test.trec"), load_queries(cfg.test_queries),
                   load_corpus(cfg.corpus), top_k=cfg.rerank_top_k, run_tag="rr-hybrid-on-bm25")
    write_run(again, tmp_path / "again.trec")
    assert (tmp_path / "again.trec").read_bytes() == \
        (workdir / "run_rerank_hybrid_on_bm25.trec").read_bytes()


def _pairs(candidates):
    return [(it.passage_id, it.score) for it in candidates.items]


def _brute_force_order(scores: dict[str, float], k: int) -> list[str]:
    """The k best passage ids by score, ties to the smaller id: one np.lexsort
    over every passage, by descending score and then id rank."""
    ids = sorted(scores)  # a passage's id rank is its place here
    values = np.array([scores[pid] for pid in ids])
    return [ids[i] for i in np.lexsort((np.arange(len(ids)), -values))[:k]]


def test_test_split_runs_equal_single_query_retrieval(data_dir, tmp_path):
    """Each test-split hybrid run holds hybrid_retrieve's answer per query, bit
    for bit, and the bm25 run the passages scoring > 0 of the lambda-0 fused
    list.  The de and hybrid runs equal a brute-force ranking of every passage
    scored one at a time by the reference formulas: the cosine of the
    mean-pooled encodings, and BM25 as a sparse dot product.  A
    punctuation-only query encodes to the zero vector, and its cosines stay
    +0.0."""
    queries = tmp_path / "test_queries.tsv"
    queries.write_text((data_dir / "test_queries.tsv").read_text() + "q-punct\t?! ...\n")
    cfg = _config(data_dir, tmp_path / "w", training_source="none",
                  test_queries=str(queries))
    run_experiment(cfg)
    workdir = tmp_path / "w"
    runs = {stage: read_run(workdir / f"run_{stage}_test.trec").rankings
            for stage in FIRST_STAGES}
    index = load_hybrid_index(workdir / "hybrid")
    corpus = load_corpus(cfg.corpus)
    dense = {p.id: encode(index.encoder, passage_tokens(p)) for p in corpus}
    stats = compute_stats(corpus)
    sparse = {p.id: encode_passage(p, stats, index.bm25.k, index.bm25.b) for p in corpus}
    depth = cfg.run_depth
    for q in load_queries(queries):
        assert runs["hybrid"][q.id] == _pairs(hybrid_retrieve(index, q, depth))
        lexical = _pairs(hybrid_retrieve(index.with_lambda(0.0), q, depth))
        assert runs["bm25"].get(q.id, []) == [(p, s) for p, s in lexical if s > 0]
        qdense, qsparse = encode(index.encoder, q.tokens), encode_query(q)
        cos = {pid: cosine(qdense, row) for pid, row in dense.items()}
        fused = {pid: dot(qsparse, sparse[pid]) + index.lam * c for pid, c in cos.items()}
        for stage, scores in (("de", cos), ("hybrid", fused)):
            got = runs[stage][q.id]
            assert list(got.ids) == _brute_force_order(scores, depth), (stage, q.id)
            assert got.scores.tolist() == pytest.approx([scores[pid] for pid in got.ids],
                                                        rel=0, abs=1e-9)
    assert "q-punct" not in runs["bm25"]
    assert len(runs["de"]["q-punct"]) == depth
    assert all(s == 0.0 and math.copysign(1.0, s) == 1.0 for _, s in runs["de"]["q-punct"])


@pytest.fixture
def bm25_scored(monkeypatch):
    """The id of each query ``Bm25Index.scores`` is called with, in call order."""
    scored = []
    scores = Bm25Index.scores

    def counted(self, query):
        scored.append(query.id)
        return scores(self, query)

    monkeypatch.setattr(Bm25Index, "scores", counted)
    return scored


def test_each_query_is_bm25_scored_once(data_dir, tmp_path, bm25_scored):
    cfg = _config(data_dir, tmp_path / "w", training_source="none")
    run_experiment(cfg)
    train, test = load_queries(cfg.train_queries), load_queries(cfg.test_queries)
    assert len(bm25_scored) == len(train) + len(test)
    assert sorted(bm25_scored) == sorted(q.id for q in train + test)


def test_a_reranker_scores_the_train_split_in_one_pass(data_dir, tmp_path, bm25_scored):
    # λ tuning scores each train query once, and the cells' train runs, bm25's,
    # de's and hybrid's alike, are cut from one more pass
    cfg = _config(data_dir, tmp_path / "run")
    train, test = load_queries(cfg.train_queries), load_queries(cfg.test_queries)
    once = sorted(q.id for q in train + train + test)
    run_experiment(cfg)
    assert sorted(bm25_scored) == once
    bm25_scored.clear()
    ablation_matrix(dataclasses.replace(cfg, workdir=str(tmp_path / "ablate")))
    assert sorted(bm25_scored) == once


def test_manifest_covers_written_files_and_inputs(data_dir, tmp_path):
    # train and test files share their basenames, so only the config field
    # tells their hashes apart
    base = _config(data_dir, tmp_path / "w", training_source="none")
    inputs = {"corpus": tmp_path / "corpus.jsonl",
              "train_queries": tmp_path / "a" / "queries.tsv",
              "test_queries": tmp_path / "b" / "queries.tsv",
              "train_qrels": tmp_path / "a" / "qrels.txt",
              "test_qrels": tmp_path / "b" / "qrels.txt"}
    for name, path in inputs.items():
        path.parent.mkdir(exist_ok=True)
        with open(getattr(base, name), "rb") as f:
            path.write_bytes(f.read())
    report = run_experiment(dataclasses.replace(
        base, **{name: str(path) for name, path in inputs.items()}))
    files = report["manifest"]["files"]
    assert {k: v for k, v in files.items() if k.startswith("input:")} == {
        f"input:{name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in inputs.items()}
    assert len({files[f"input:{name}"] for name in inputs}) == 5
    workdir = tmp_path / "w"
    on_disk = {p for p in os.listdir(workdir) if p != "manifest.json"}
    assert on_disk == {k for k in files if not k.startswith("input:")}
    assert all(len(h) == 64 for h in files.values())


def test_text_without_tokens_runs_through_every_stage(data_dir, tmp_path):
    """A corpus passage and a test query without tokens: the passage lands in
    the hybrid training lists, and reranking the query's hybrid run keeps its
    order, each rescored item scoring the reranker's bias."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text((data_dir / "corpus.jsonl").read_text()
                      + json.dumps({"id": "dpunct", "text": "... !!"}) + "\n")
    queries = tmp_path / "test_queries.tsv"
    queries.write_text((data_dir / "test_queries.tsv").read_text() + "qpunct\t?!\n")
    cfg = _config(data_dir, tmp_path / "w", corpus=str(corpus), test_queries=str(queries),
                  rerank_first_stage="hybrid", run_depth=130,
                  window=SamplingWindow(skip=0, depth=130, n_negatives=100))
    run_experiment(cfg)
    workdir = tmp_path / "w"
    lists = load_candidate_lists(workdir / "lists_hybrid.jsonl")
    assert any("dpunct" in cl.passage_ids() for cl in lists)
    params = load_reranker(workdir / "reranker_hybrid.npz")
    assert math.isfinite(params.bias)
    assert all(np.isfinite(a).all() for a in (params.embeddings, params.w_q, params.w_k,
                                              params.w_v, params.readout))
    first = read_run(workdir / "run_hybrid_test.trec").rankings["qpunct"]
    reranked = read_run(workdir / "run_rerank_hybrid_on_hybrid.trec").rankings["qpunct"]
    assert reranked.ids == first.ids
    assert reranked.scores[:cfg.rerank_top_k].tolist() == [params.bias] * cfg.rerank_top_k


def test_rerun_same_workdir_reproduces_manifest(data_dir, tmp_path):
    cfg = _config(data_dir, tmp_path / "w", training_source="bm25")
    first = run_experiment(cfg)["manifest"]
    second = run_experiment(cfg)["manifest"]
    assert first == second


def test_block_budget_does_not_change_outputs(data_dir, tmp_path, monkeypatch):
    # 97 entries cut the BM25 build, pooling, row norms and the stacked lists
    # into many blocks; every file keeps its bytes
    cfg = _config(data_dir, tmp_path / "w", training_source="hybrid")
    whole = run_experiment(cfg)["manifest"]
    monkeypatch.setattr(results, "BLOCK_ENTRIES", 97)
    assert run_experiment(cfg)["manifest"] == whole


def test_stage_error_names_failing_stage(data_dir, tmp_path):
    cfg = _config(data_dir, tmp_path / "w")
    cfg = dataclasses.replace(cfg, corpus=str(tmp_path / "missing.jsonl"))
    with pytest.raises(StageError) as err:
        run_experiment(cfg)
    assert err.value.stage == "load-data"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_reranker_stops_at_its_stage(data_dir, tmp_path):
    # on this corpus lr 5.0 overflows the attention logits within ten steps
    cfg = _config(data_dir, tmp_path / "w", training_source="bm25",
                  reranker=RerankTrainConfig(steps=20, batch_size=4, learning_rate=5.0))
    with pytest.raises(StageError, match=r"loss is (nan|-?inf) at step") as err:
        run_experiment(cfg)
    assert err.value.stage == "train-reranker"
    assert not (tmp_path / "w" / "reranker_bm25.npz").exists()


def test_supervised_training_needs_matching_qrels(data_dir, tmp_path):
    orphan = tmp_path / "orphan_qrels.txt"
    orphan.write_text("qzzz 0 p00000 1\n")
    cfg = _config(data_dir, tmp_path / "w", train_qrels=str(orphan))
    with pytest.raises(StageError) as err:
        run_experiment(cfg)
    assert err.value.stage == "train-de"


def test_non_finite_cosine_stops_at_tune_lambda(data_dir, tmp_path, monkeypatch):
    # the first train query gains a word no passage has, whose embedding row
    # the trained encoder then holds as NaN: that query's cosines are NaN
    queries = (data_dir / "train_queries.tsv").read_text().splitlines()
    qid = queries[0].split("\t")[0]
    queries[0] += " zzzunseen"
    path = tmp_path / "train_queries.tsv"
    path.write_text("\n".join(queries) + "\n")
    trained = pipeline.train_de

    def nan_row(pairs, config):
        params = trained(pairs, config)
        emb = params.embeddings.copy()
        emb[tokenize("zzzunseen", 4)[0]] = np.nan
        return dataclasses.replace(params, embeddings=emb)

    monkeypatch.setattr(pipeline, "train_de", nan_row)
    cfg = _config(data_dir, tmp_path / "w", training_source="none",
                  train_queries=str(path))
    with pytest.raises(StageError, match=f"query '{qid}'.*not finite") as err:
        run_experiment(cfg)
    assert err.value.stage == "tune-lambda"


def test_ablation_matrix_shape(data_dir, tmp_path):
    cfg = _config(data_dir, tmp_path / "w")
    report = ablation_matrix(cfg)
    assert list(report["matrix"]) == ["mrr@10", "ndcg@10", "recall@100"]
    for grid in report["matrix"].values():
        assert list(grid) == ["none", "bm25", "de", "hybrid", "mixed"]
        for row in grid.values():
            assert list(row) == ["bm25", "de", "hybrid"]
            assert all(0.0 <= v <= 1.0 for v in row.values())
    workdir = tmp_path / "w"
    assert json.loads((workdir / "ablation.json").read_text()) == \
        {"lambda": report["lambda"], "matrix": report["matrix"]}
    table = (workdir / "ablation_table.txt").read_text()
    assert "mrr@10" in table and "recall@100" in table and "mixed" in table


def test_stages_never_nest(data_dir, tmp_path, monkeypatch):
    # each stage's inputs are built before it opens, so a stage's time is its
    # own: "mixed"'s lists are mixed from bm25's and de's, each sampled from a
    # train run
    open_stages, opened, nested = [], set(), []
    stage = pipeline._stage

    @contextlib.contextmanager
    def spied(name):
        nested.extend((outer, name) for outer in open_stages)
        open_stages.append(name)
        opened.add(name)
        try:
            with stage(name):
                yield
        finally:
            open_stages.pop()

    monkeypatch.setattr(pipeline, "_stage", spied)
    ablation_matrix(_config(data_dir, tmp_path / "w"))
    assert opened == {"load-data", "index", "train-de", "tune-lambda", "retrieve",
                      "gen-train", "train-reranker", "rerank", "evaluate", "manifest"}
    assert nested == []


def test_each_source_keeps_its_seeds(data_dir, tmp_path, monkeypatch):
    # config seed 3: lists, mix and rerankers each draw from their own offset
    # (perfbench/workloads.py copies hybrid's, 5 and 13)
    seeds = {}
    for name in ("build_candidate_lists", "mix_training_data", "init_reranker"):
        def spy(*args, _name=name, _call=getattr(pipeline, name), **kwargs):
            seeds.setdefault(_name, []).append(kwargs["seed"])
            return _call(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, spy)
    ablation_matrix(_config(data_dir, tmp_path / "w"))
    assert {name: sorted(s) for name, s in seeds.items()} == {
        "build_candidate_lists": [3003, 3004, 3005],
        "mix_training_data": [3006],
        "init_reranker": [3011, 3012, 3013, 3014]}


def test_ablate_manifest_ignores_the_one_cell_choice(data_dir, tmp_path):
    # ablate computes every cell, so training_source and rerank_first_stage
    # are not its inputs: they are written at their defaults
    manifests = []
    for source, first in (("hybrid", "bm25"), ("de", "hybrid")):
        ablation_matrix(_config(data_dir, tmp_path / "w", training_source=source,
                                rerank_first_stage=first))
        manifests.append((tmp_path / "w" / "manifest.json").read_bytes())
        written = load_config(tmp_path / "w" / "config.json")
        assert (written.training_source, written.rerank_first_stage) == ("hybrid", "bm25")
    assert manifests[0] == manifests[1]


def test_run_is_one_cell_of_ablate(data_dir, tmp_path):
    # the same config gives the same bytes for every file both write, and
    # run's metrics are ablate's cells
    run_dir, ablate_dir = tmp_path / "run", tmp_path / "ablate"
    cfg = _config(data_dir, run_dir, training_source="hybrid", rerank_first_stage="bm25")
    metrics = run_experiment(cfg)["metrics"]
    matrix = ablation_matrix(dataclasses.replace(cfg, workdir=str(ablate_dir)))["matrix"]
    shared = (set(os.listdir(run_dir)) & set(os.listdir(ablate_dir))) - \
        {"config.json", "manifest.json"}
    assert shared >= {"run_bm25_test.trec", "run_de_test.trec", "run_hybrid_test.trec",
                      "run_hybrid_train.trec", "run_rerank_hybrid_on_bm25.trec",
                      "de_params.npz", "hybrid.npz", "lambda.json", "lists_hybrid.jsonl",
                      "reranker_hybrid.npz"}
    for name in sorted(shared):
        assert (run_dir / name).read_bytes() == (ablate_dir / name).read_bytes(), name
    cells = {"bm25": ("none", "bm25"), "de": ("none", "de"), "hybrid": ("none", "hybrid"),
             "rerank_hybrid_on_bm25": ("hybrid", "bm25")}
    assert list(metrics) == list(cells)
    for run_name, (row, col) in cells.items():
        assert metrics[run_name] == {name: matrix[name][row][col] for name in matrix}
