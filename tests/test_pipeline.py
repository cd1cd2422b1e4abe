"""End-to-end pipeline tests at toy scale: orchestration, config round-trips,
training-data mixing, manifests."""

import dataclasses
import json
import math
import os

import pytest

from hybridrank.bm25 import Bm25Index
from hybridrank.corpus import load_corpus, load_queries
from hybridrank.dense import DeTrainConfig, de_retrieve
from hybridrank.evaluation import read_run
from hybridrank.hybrid import hybrid_retrieve, load_hybrid_index
from hybridrank.pipeline import (FIRST_STAGES, ExperimentConfig, StageError,
                                 ablation_matrix, config_from_dict, config_to_dict,
                                 load_config, mix_training_data, run_experiment,
                                 save_config)
from hybridrank.reranker import RerankTrainConfig, SamplingWindow
from hybridrank.results import CandidateItem, CandidateList
from hybridrank.synthetic import SyntheticCorpusSpec, make_synthetic_corpus, \
    save_synthetic_data


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
        lambda_grid=(0.0, 300.0, 600.0),
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
                               rank=j + 1, label=1 if j == 0 else 0)
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
    cfg = _config(data_dir, tmp_path / "w", training_source="mixed",
                  fixed_lambda=250.0, tune_metric="ndcg")
    rebuilt = config_from_dict(config_to_dict(cfg))
    assert rebuilt == cfg
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_rejects_unknown_keys(data_dir, tmp_path):
    d = config_to_dict(_config(data_dir, tmp_path / "w"))
    d["surprise"] = 1
    with pytest.raises(ValueError, match="surprise"):
        config_from_dict(d)


def test_config_rejects_unknown_section_keys(data_dir, tmp_path):
    d = config_to_dict(_config(data_dir, tmp_path / "w"))
    d["bm25"]["k9"] = 1.0
    with pytest.raises(ValueError, match="k9"):
        config_from_dict(d)


def test_config_grid_becomes_tuple(data_dir, tmp_path):
    d = config_to_dict(_config(data_dir, tmp_path / "w"))
    assert d["lambda_grid"] == [0.0, 300.0, 600.0]
    assert config_from_dict(d).lambda_grid == (0.0, 300.0, 600.0)


def test_config_validation():
    kwargs = dict(corpus="c", train_queries="a", test_queries="b",
                  train_qrels="d", test_qrels="e", workdir="w")
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs, training_source="laserdisc")
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs, rerank_first_stage="mixed")
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs, tune_metric="bleu")
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs, seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs, rerank_top_k=0)
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs, fixed_lambda=-5.0)


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


def _pairs(candidates):
    return [(it.passage_id, it.score) for it in candidates.items]


def test_test_split_runs_equal_single_query_retrieval(data_dir, tmp_path):
    """Each test-split run file holds hybrid_retrieve's / de_retrieve's answer
    per query, bit for bit, and the bm25 run the passages scoring > 0 of the
    lambda-0 fused list.  A punctuation-only query encodes to the zero vector,
    and its cosines stay +0.0."""
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
    depth = cfg.run_depth
    for q in load_queries(queries):
        assert runs["hybrid"][q.id] == _pairs(hybrid_retrieve(index, q, depth))
        assert runs["de"][q.id] == _pairs(de_retrieve(
            index.encoder, corpus, q, depth, cfg.query_max_length,
            passage_matrix=index.dense_rows))
        lexical = _pairs(hybrid_retrieve(index.with_lambda(0.0), q, depth))
        assert runs["bm25"].get(q.id, []) == [(p, s) for p, s in lexical if s > 0]
    assert "q-punct" not in runs["bm25"]
    assert len(runs["de"]["q-punct"]) == depth
    assert all(s == 0.0 and math.copysign(1.0, s) == 1.0 for _, s in runs["de"]["q-punct"])


def test_each_query_is_bm25_scored_once(data_dir, tmp_path, monkeypatch):
    scored = []
    scores = Bm25Index.scores

    def counted(self, query):
        scored.append(query.id)
        return scores(self, query)

    monkeypatch.setattr(Bm25Index, "scores", counted)
    cfg = _config(data_dir, tmp_path / "w", training_source="none")
    run_experiment(cfg)
    train, test = load_queries(cfg.train_queries), load_queries(cfg.test_queries)
    assert len(scored) == len(train) + len(test)
    assert sorted(scored) == sorted(q.id for q in train + test)


def test_manifest_covers_written_files_and_inputs(data_dir, tmp_path):
    cfg = _config(data_dir, tmp_path / "w", training_source="none")
    report = run_experiment(cfg)
    files = report["manifest"]["files"]
    inputs = [k for k in files if k.startswith("input:")]
    assert sorted(inputs) == [
        "input:corpus.jsonl", "input:test_qrels.txt", "input:test_queries.tsv",
        "input:train_qrels.txt", "input:train_queries.tsv"]
    workdir = tmp_path / "w"
    on_disk = {p for p in os.listdir(workdir) if p != "manifest.json"}
    assert on_disk == {k for k in files if not k.startswith("input:")}
    assert all(len(h) == 64 for h in files.values())


def test_rerun_same_workdir_reproduces_manifest(data_dir, tmp_path):
    cfg = _config(data_dir, tmp_path / "w", training_source="bm25")
    first = run_experiment(cfg)["manifest"]
    second = run_experiment(cfg)["manifest"]
    assert first == second


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


def test_fixed_lambda_skips_tuning(data_dir, tmp_path):
    cfg = _config(data_dir, tmp_path / "w", training_source="none",
                  fixed_lambda=100.0)
    report = run_experiment(cfg)
    assert report["lambda"] == 100.0
    lam = json.loads((tmp_path / "w" / "lambda.json").read_text())
    assert lam == {"lambda": 100.0, "grid": [0.0, 300.0, 600.0],
                   "metric": "mrr", "tuned": False}


def test_ablation_matrix_shape(data_dir, tmp_path):
    cfg = _config(data_dir, tmp_path / "w")
    report = ablation_matrix(cfg, include_mixed=True)
    for metric in ("mrr", "ndcg"):
        grid = report["matrix"][metric]
        assert sorted(grid) == ["bm25", "de", "hybrid", "none"]
        for row in grid.values():
            assert sorted(row) == ["bm25", "de", "hybrid"]
            assert all(0.0 <= v <= 1.0 for v in row.values())
    assert sorted(report["mixed"]) == ["bm25", "de", "hybrid"]
    workdir = tmp_path / "w"
    assert (workdir / "ablation.json").exists()
    assert "mrr@10" in (workdir / "ablation_table.txt").read_text()


def test_ablation_matrix_without_mixed(data_dir, tmp_path):
    cfg = _config(data_dir, tmp_path / "w")
    report = ablation_matrix(cfg, include_mixed=False)
    assert report["mixed"] is None
