"""Tests for ranking metrics and the TREC run-file interchange."""

import math
import os
import random
import tracemalloc
from pathlib import Path

import pytest

from hybridrank import pipeline
from hybridrank.corpus import QrelSet
from hybridrank.dense import DeTrainConfig
from hybridrank.evaluation import (
    RunFile,
    compute_metric,
    format_metric_table,
    read_run,
    write_run,
)
from hybridrank.reranker import RerankTrainConfig, SamplingWindow
from hybridrank.synthetic import SyntheticCorpusSpec, make_synthetic_corpus, \
    save_synthetic_data


def run_of(rankings):
    return RunFile(run_tag="test", rankings=rankings)


# ---------------------------------------------------------------- mrr

def test_mrr_relevant_at_rank_one():
    qrels = QrelSet({("q1", "d1"): 1})
    run = run_of({"q1": [("d1", 9.0), ("d2", 8.0)]})
    assert compute_metric(run, qrels, "mrr", 10).mean == 1.0


def test_mrr_relevant_at_rank_three():
    qrels = QrelSet({("q1", "d3"): 1})
    run = run_of({"q1": [("d1", 3.0), ("d2", 2.0), ("d3", 1.0)]})
    assert compute_metric(run, qrels, "mrr", 10).mean == pytest.approx(1 / 3)


def test_mrr_relevant_beyond_cutoff_scores_zero():
    qrels = QrelSet({("q1", "deep"): 1})
    ranking = [(f"d{i}", float(100 - i)) for i in range(10)] + [("deep", 1.0)]
    assert compute_metric(run_of({"q1": ranking}), qrels, "mrr", 10).mean == 0.0


def test_mrr_query_missing_from_run_scores_zero():
    qrels = QrelSet({("q1", "d1"): 1, ("q2", "d2"): 1})
    run = run_of({"q1": [("d1", 1.0)]})  # q2 retrieved nothing
    report = compute_metric(run, qrels, "mrr", 10)
    assert report.per_query == {"q1": 1.0, "q2": 0.0}
    assert report.mean == 0.5


def test_mrr_unjudged_run_query_excluded_and_reported():
    qrels = QrelSet({("q1", "d1"): 1})
    run = run_of({"q1": [("d1", 2.0)], "stray": [("d9", 1.0)]})
    report = compute_metric(run, qrels, "mrr", 10)
    assert report.mean == 1.0
    assert report.excluded == ["stray"]


def test_mrr_no_judged_queries_rejected():
    with pytest.raises(ValueError):
        compute_metric(run_of({"q1": [("d1", 1.0)]}), QrelSet({("q1", "d1"): 0}), "mrr", 10)


# ---------------------------------------------------------------- ndcg

def test_ndcg_single_relevant_at_rank_one():
    qrels = QrelSet({("q1", "d1"): 1})
    run = run_of({"q1": [("d1", 2.0), ("d2", 1.0)]})
    assert compute_metric(run, qrels, "ndcg", 10).mean == pytest.approx(1.0)


def test_ndcg_single_relevant_at_rank_three():
    qrels = QrelSet({("q1", "d3"): 1})
    run = run_of({"q1": [("d1", 3.0), ("d2", 2.0), ("d3", 1.0)]})
    assert compute_metric(run, qrels, "ndcg", 10).mean == pytest.approx(0.5)  # 1/log2(4)


def test_ndcg_two_relevants_perfect_order():
    qrels = QrelSet({("q1", "d1"): 1, ("q1", "d2"): 1})
    run = run_of({"q1": [("d1", 2.0), ("d2", 1.0)]})
    assert compute_metric(run, qrels, "ndcg", 10).mean == pytest.approx(1.0)


def test_ndcg_graded_ideal_ordering():
    # grade-3 doc placed below grade-1 doc: DCG < IDCG
    qrels = QrelSet({("q1", "lo"): 1, ("q1", "hi"): 3})
    run = run_of({"q1": [("lo", 2.0), ("hi", 1.0)]})
    dcg = 1 / math.log2(2) + 3 / math.log2(3)
    idcg = 3 / math.log2(2) + 1 / math.log2(3)
    assert compute_metric(run, qrels, "ndcg", 10).mean == pytest.approx(dcg / idcg)


def test_ndcg_never_exceeds_one():
    qrels = QrelSet({("q1", "a"): 2, ("q1", "b"): 1, ("q2", "c"): 1})
    run = run_of({"q1": [("a", 3.0), ("b", 2.0), ("x", 1.0)],
                  "q2": [("y", 2.0), ("c", 1.0)]})
    report = compute_metric(run, qrels, "ndcg", 10)
    assert all(v <= 1.0 + 1e-12 for v in report.per_query.values())


def _ndcg_per_rank(run, qrels, k):
    """nDCG summed over every rank of the top k, relevant or not: the
    per-rank loop the shared metric formula replaced, kept as its oracle."""
    per_query = {}
    for qid in qrels.query_ids():
        dcg = 0.0
        for rank, (pid, _) in enumerate(run.rankings.get(qid, [])[:k], start=1):
            dcg += qrels.judgments.get((qid, pid), 0) / math.log2(rank + 1)
        ideal = sorted(qrels.relevant(qid).values(), reverse=True)[:k]
        idcg = sum(g / math.log2(r + 1) for r, g in enumerate(ideal, start=1))
        per_query[qid] = dcg / idcg if idcg > 0 else 0.0
    return per_query, sum(per_query.values()) / len(per_query)


def test_ndcg_bits_equal_the_per_rank_sum():
    # zero-grade and unjudged passages sit between graded relevant ones
    qrels = QrelSet({("q1", "a"): 3, ("q1", "z0"): 0, ("q1", "b"): 1, ("q1", "c"): 2,
                     ("q1", "far"): 2, ("q2", "d"): 1, ("q2", "z1"): 0})
    run = run_of({"q1": [("x", 9.0), ("c", 8.0), ("z0", 7.0), ("y", 6.0), ("a", 5.0),
                         ("w", 4.0), ("b", 3.0), ("far", 2.0)],
                  "q2": [("z1", 2.0), ("u", 1.5), ("d", 1.0)]})
    for k in (1, 2, 5, 7, 10):
        report = compute_metric(run, qrels, "ndcg", k)
        assert (report.per_query, report.mean) == _ndcg_per_rank(run, qrels, k)


# ---------------------------------------------------------------- recall

def test_recall_all_found():
    qrels = QrelSet({("q1", f"d{i}"): 1 for i in range(3)})
    run = run_of({"q1": [(f"d{i}", float(9 - i)) for i in range(3)]})
    assert compute_metric(run, qrels, "recall", 100).mean == 1.0


def test_recall_half_found():
    qrels = QrelSet({("q1", f"d{i}"): 1 for i in range(4)})
    run = run_of({"q1": [("d0", 3.0), ("d1", 2.0), ("x", 1.0)]})
    assert compute_metric(run, qrels, "recall", 100).mean == 0.5


def test_recall_none_found():
    qrels = QrelSet({("q1", "d1"): 1})
    run = run_of({"q1": [("x", 2.0), ("y", 1.0)]})
    assert compute_metric(run, qrels, "recall", 100).mean == 0.0


def test_recall_respects_cutoff():
    qrels = QrelSet({("q1", "deep"): 1})
    ranking = [(f"d{i}", float(10 - i)) for i in range(5)] + [("deep", 0.5)]
    assert compute_metric(run_of({"q1": ranking}), qrels, "recall", 5).mean == 0.0
    assert compute_metric(run_of({"q1": ranking}), qrels, "recall", 6).mean == 1.0


# ---------------------------------------------------------------- shared properties

def test_metrics_invariant_to_grade_zero_judgments():
    qrels = QrelSet({("q1", "d2"): 1})
    padded = QrelSet({("q1", "d2"): 1, ("q1", "d1"): 0, ("q1", "zzz"): 0})
    run = run_of({"q1": [("d1", 2.0), ("d2", 1.0)]})
    for metric, k in (("mrr", 10), ("ndcg", 10), ("recall", 100)):
        a = compute_metric(run, qrels, metric, k)
        b = compute_metric(run, padded, metric, k)
        assert a.per_query == b.per_query
        assert a.mean == b.mean


def test_oracle_ordering_achieves_perfect_ndcg():
    qrels = QrelSet({("q1", "a"): 3, ("q1", "b"): 2, ("q1", "c"): 1})
    run = run_of({"q1": [("a", 3.0), ("b", 2.0), ("c", 1.0)]})
    assert compute_metric(run, qrels, "ndcg", 10).mean == pytest.approx(1.0)


def test_five_query_hand_fixture():
    qrels = QrelSet({
        ("q1", "d1"): 1,
        ("q2", "d7"): 1,
        ("q3", "d3"): 2, ("q3", "d4"): 1,
        ("q4", "d9"): 1,
        ("q5", "d5"): 1,
    })
    run = run_of({
        "q1": [("d1", 5.0), ("x", 4.0)],                 # hit at 1
        "q2": [("x", 5.0), ("y", 4.0), ("d7", 3.0)],     # hit at 3
        "q3": [("d4", 5.0), ("d3", 4.0)],                # graded, swapped
        "q4": [("x", 5.0)],                              # miss
        # q5 absent from the run entirely
    })
    mrr = compute_metric(run, qrels, "mrr", 10)
    assert mrr.per_query == {"q1": 1.0, "q2": pytest.approx(1 / 3), "q3": 1.0,
                             "q4": 0.0, "q5": 0.0}
    assert mrr.mean == pytest.approx((1 + 1 / 3 + 1 + 0 + 0) / 5, abs=1e-9)

    ndcg = compute_metric(run, qrels, "ndcg", 10)
    q3 = (1 / math.log2(2) + 2 / math.log2(3)) / (2 / math.log2(2) + 1 / math.log2(3))
    assert ndcg.per_query["q3"] == pytest.approx(q3, abs=1e-9)
    assert ndcg.mean == pytest.approx((1.0 + 0.5 + q3 + 0.0 + 0.0) / 5, abs=1e-9)

    recall = compute_metric(run, qrels, "recall", 100)
    assert recall.mean == pytest.approx((1 + 1 + 1 + 0 + 0) / 5, abs=1e-9)


def test_compute_metric_unknown_id():
    with pytest.raises(ValueError, match="unknown metric"):
        compute_metric(run_of({}), QrelSet({("q", "d"): 1}), "map", 10)


# ---------------------------------------------------------------- run files

def test_run_roundtrip_bytes_and_values(tmp_path):
    run = RunFile(run_tag="tag1", rankings={
        "q2": [("d1", 1.5), ("d2", 1.25)],
        "q1": [("d3", 0.1000000000000000055511151231257827)],
    })
    p1 = tmp_path / "a.trec"
    write_run(run, p1)
    loaded = read_run(p1)
    assert loaded.rankings == run.rankings
    assert loaded.run_tag == "tag1"
    p2 = tmp_path / "b.trec"
    write_run(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_file_line_shape(tmp_path):
    path = tmp_path / "r.trec"
    write_run(RunFile("t", {"q1": [("d9", 2.0), ("d4", 1.0)]}), path)
    lines = path.read_text().splitlines()
    assert lines[0].split() == ["q1", "Q0", "d9", "1", "2.0", "t"]
    assert lines[1].split() == ["q1", "Q0", "d4", "2", "1.0", "t"]


def test_write_run_rejects_duplicates_and_increasing_scores(tmp_path):
    with pytest.raises(ValueError, match="duplicate"):
        write_run(RunFile("t", {"q": [("d", 2.0), ("d", 1.0)]}), tmp_path / "x.trec")
    with pytest.raises(ValueError, match="increase"):
        write_run(RunFile("t", {"q": [("a", 1.0), ("b", 2.0)]}), tmp_path / "y.trec")
    with pytest.raises(ValueError, match="run_tag"):
        write_run(RunFile("bad tag", {"q": [("a", 1.0)]}), tmp_path / "z.trec")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_write_run_rejects_non_finite_scores(tmp_path, bad):
    with pytest.raises(ValueError, match="not finite"):
        write_run(RunFile("t", {"q": [("a", 1.0), ("b", bad)]}), tmp_path / "x.trec")
    with pytest.raises(ValueError, match="not finite"):
        write_run(RunFile("t", {"q": [("a", bad)]}), tmp_path / "y.trec")


def test_read_run_validates(tmp_path):
    bad_rank = tmp_path / "r1.trec"
    bad_rank.write_text("q1 Q0 d1 2 1.0 t\n")
    with pytest.raises(ValueError, match="line 1"):
        read_run(bad_rank)

    dup = tmp_path / "r2.trec"
    dup.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d1 2 1.0 t\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_run(dup)

    fields = tmp_path / "r3.trec"
    fields.write_text("q1 Q0 d1 1 2.0\n")
    with pytest.raises(ValueError, match="6 fields"):
        read_run(fields)

    nonnum = tmp_path / "r4.trec"
    nonnum.write_text("q1 Q0 d1 1 zero t\n")
    with pytest.raises(ValueError, match="bad rank or score"):
        read_run(nonnum)


def test_read_run_holds_a_repeated_passage_id_once(tmp_path):
    path = tmp_path / "r.trec"
    path.write_text("q1 Q0 d7 1 2.0 t\nq1 Q0 d8 2 1.0 t\nq2 Q0 d7 1 5.0 t\n")
    rankings = read_run(path).rankings
    assert rankings["q1"][0][0] is rankings["q2"][0][0]


def test_read_run_interleaved_queries_read_as_grouped(tmp_path):
    grouped = ["q1 Q0 a 1 3.0 t", "q1 Q0 b 2 2.0 t", "q1 Q0 c 3 1.0 t",
               "q2 Q0 b 1 9.0 t", "q2 Q0 d 2 8.0 t"]
    interleaved = [grouped[i] for i in (0, 3, 1, 4, 2)]
    a, b = tmp_path / "grouped.trec", tmp_path / "interleaved.trec"
    a.write_text("\n".join(grouped) + "\n")
    b.write_text("\n".join(interleaved) + "\n")
    assert read_run(b).rankings == read_run(a).rankings
    # a UTF-8 byte-order mark is not part of the first query id
    b.write_text("\ufeff" + "\n".join(grouped) + "\n", encoding="utf-8")
    assert read_run(b).rankings == read_run(a).rankings


def test_read_run_duplicate_in_a_resumed_query_names_its_line(tmp_path):
    path = tmp_path / "r.trec"
    path.write_text("q1 Q0 a 1 3.0 t\nq2 Q0 a 1 9.0 t\nq1 Q0 b 2 2.0 t\n"
                    "q2 Q0 b 2 8.0 t\nq1 Q0 a 3 1.0 t\n")
    with pytest.raises(ValueError) as exc:
        read_run(path)
    assert str(exc.value) == f"{path}: line 5: duplicate passage 'a' in query 'q1'"


def test_read_run_peak_memory_per_line(tmp_path):
    # 200 queries x 250 ranks over 2,000 distinct passage ids.  Held once per
    # id in two columns per query, with one duplicate set live, the read peaks
    # near 1.0 MiB (an id reference and 8 bytes of score per line).  A tuple
    # and a float per line took 4.3 MiB, and a new str per line and a set per
    # query until the end 8.4 MiB.
    rng = random.Random(0)
    ids = [f"p{i:05d}" for i in range(2000)]
    path = tmp_path / "r.trec"
    with open(path, "w", encoding="utf-8") as f:
        for q in range(200):
            for rank, pid in enumerate(rng.sample(ids, 250), start=1):
                f.write(f"q{q:03d} Q0 {pid} {rank} {1000.0 - rank!r} t\n")
    tracemalloc.start()
    try:
        run = read_run(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(r) for r in run.rankings.values()) == 50_000
    assert peak < 2 * 2**20


def test_empty_ranking_query_simply_absent(tmp_path):
    run = RunFile("t", {"q1": [("d1", 1.0)], "q2": []})
    path = tmp_path / "r.trec"
    write_run(run, path)
    loaded = read_run(path)
    assert "q2" not in loaded.rankings  # nothing retrieved, nothing written


def _per_pair_write_run(run: RunFile, path) -> None:
    """write_run as one loop over (passage_id, score) pairs, checking each
    line before writing it: the reference for write_run's bytes and errors."""
    if not run.run_tag or any(c.isspace() for c in run.run_tag):
        raise ValueError(f"run_tag must be nonempty without whitespace: {run.run_tag!r}")
    with open(path, "w", encoding="utf-8") as f:
        for qid in sorted(run.rankings):
            ranking = run.rankings[qid]
            seen = set()
            prev = None
            for rank, (pid, score) in enumerate(ranking, start=1):
                if pid in seen:
                    raise ValueError(f"duplicate passage {pid!r} in query {qid!r}")
                seen.add(pid)
                if not math.isfinite(score):
                    raise ValueError(
                        f"score {score!r} at rank {rank} of query {qid!r} is not finite")
                if prev is not None and score > prev:
                    raise ValueError(
                        f"scores increase at rank {rank} of query {qid!r}")
                prev = score
                f.write(f"{qid} Q0 {pid} {rank} {score!r} {run.run_tag}\n")


def _assert_written_as_per_pair(run, tmp_path):
    got, ref = tmp_path / "got.trec", tmp_path / "ref.trec"
    write_run(run, got)
    _per_pair_write_run(run, ref)
    assert got.read_bytes() == ref.read_bytes()
    return got


def test_write_run_bytes_equal_per_pair_writer_on_edge_scores(tmp_path):
    run = RunFile("t", {
        "q2": [("a", 1e16), ("b", 1.0), ("c", 1e-05), ("d", 5e-324), ("e", 0.0),
               ("f", -0.0), ("g", -0.0), ("h", -1e-05), ("i", -1e16)],
        "q1": [("x", 2.0), ("y", 2.0), ("z", 2.0)],      # tied
        "q3": [],                                        # empty
        "q10": [("only", 0.1000000000000000055511151231257827)],
    })
    path = _assert_written_as_per_pair(run, tmp_path)
    text = path.read_text()
    assert " -0.0 t\n" in text and " 5e-324 t\n" in text and " 1e+16 t\n" in text
    assert read_run(path).rankings["q2"] == run.rankings["q2"]


def test_write_run_bytes_equal_per_pair_writer_on_random_runs(tmp_path):
    rng = random.Random(3)
    values = [0.0, -0.0, 5e-324, 1e-05, 0.1, 1.0, 2.5, 1e16, -3.0]
    for trial in range(20):
        rankings = {}
        for q in range(rng.randrange(0, 5)):
            scores = sorted((rng.choice(values) for _ in range(rng.randrange(0, 30))),
                            reverse=True)
            rankings[f"q{rng.randrange(100)}"] = [(f"d{i}", s) for i, s in enumerate(scores)]
        _assert_written_as_per_pair(RunFile("t", rankings), tmp_path)


def test_write_run_bytes_equal_per_pair_writer_on_pipeline_runs(tmp_path, monkeypatch):
    # the tests/test_cli.py config: every run file the pipeline writes
    data = tmp_path / "data"
    paths = save_synthetic_data(make_synthetic_corpus(SyntheticCorpusSpec(
        n_passages=60, n_train_queries=12, n_test_queries=8, seed=2)), data)
    config = pipeline.ExperimentConfig(
        **paths, workdir=str(tmp_path / "run"), seed=4,
        de=DeTrainConfig(epochs=2, batch_size=4, dim=16),
        reranker=RerankTrainConfig(steps=20, batch_size=4, learning_rate=0.05),
        window=SamplingWindow(skip=0, depth=20, n_negatives=6),
        run_depth=30, rerank_top_k=10)
    written = []

    def checked(run, path):
        written.append(os.path.basename(path))
        write_run(run, path)
        _per_pair_write_run(run, tmp_path / "ref.trec")
        assert (tmp_path / "ref.trec").read_bytes() == Path(path).read_bytes(), path

    monkeypatch.setattr(pipeline, "write_run", checked)
    pipeline.run_experiment(config)
    assert sorted(written) == ["run_bm25_test.trec", "run_de_test.trec",
                               "run_hybrid_test.trec", "run_hybrid_train.trec",
                               "run_rerank_hybrid_on_bm25.trec"]


@pytest.mark.parametrize("rankings", [
    {"q": [("d", 2.0), ("d", 1.0)]},
    {"q": [("a", 3.0), ("b", 2.0), ("c", 2.0), ("b", 1.0)]},
    {"q": [("a", 1.0), ("b", float("nan"))]},
    {"q": [("a", 1.0), ("b", 0.5), ("c", float("-inf"))]},
    {"q": [("a", float("inf"))]},
    {"q": [("a", 1.0), ("b", 2.0)]},
    {"q": [("a", 3.0), ("b", 1.0), ("c", 1.5), ("a", 0.0)]},
    # two faults at one rank: duplicate before non-finite before increase
    {"q": [("a", 1.0), ("a", float("nan"))]},
    {"q": [("a", 1.0), ("b", float("inf"))]},
    {"q": [("a", float("nan")), ("b", 2.0)]},
    # the first query in sorted order fails first
    {"q2": [("a", 1.0), ("b", 2.0)], "q1": [("a", 1.0), ("a", 0.0)]},
])
def test_write_run_errors_equal_per_pair_writer(tmp_path, rankings):
    run = RunFile("t", rankings)
    with pytest.raises(ValueError) as ref:
        _per_pair_write_run(run, tmp_path / "ref.trec")
    with pytest.raises(ValueError) as got:
        write_run(run, tmp_path / "got.trec")
    assert str(got.value) == str(ref.value)
    assert not (tmp_path / "got.trec").exists()


# ---------------------------------------------------------------- table

def test_format_metric_table_alignment():
    rows = {"bm25": {"mrr@10": 0.5, "ndcg@10": 0.6},
            "hybrid": {"mrr@10": 0.75, "ndcg@10": 0.8}}
    table = format_metric_table(rows)
    lines = table.splitlines()
    assert "mrr@10" in lines[0] and "ndcg@10" in lines[0]
    assert lines[1].startswith("bm25")
    assert "0.7500" in lines[2] and lines[2].endswith("0.8000")
    assert len({len(line) for line in lines}) == 1
