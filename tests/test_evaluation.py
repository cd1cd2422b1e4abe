"""Tests for ranking metrics and the TREC run-file interchange."""

import math

import pytest

from hybridrank.corpus import QrelSet
from hybridrank.evaluation import (
    MetricReport,
    RunFile,
    compute_metric,
    format_metric_table,
    mrr_at_k,
    ndcg_at_k,
    read_run,
    recall_at_k,
    write_run,
)


def run_of(rankings):
    return RunFile(run_tag="test", rankings=rankings)


# ---------------------------------------------------------------- mrr

def test_mrr_relevant_at_rank_one():
    qrels = QrelSet({("q1", "d1"): 1})
    run = run_of({"q1": [("d1", 9.0), ("d2", 8.0)]})
    assert mrr_at_k(run, qrels, 10).mean == 1.0


def test_mrr_relevant_at_rank_three():
    qrels = QrelSet({("q1", "d3"): 1})
    run = run_of({"q1": [("d1", 3.0), ("d2", 2.0), ("d3", 1.0)]})
    assert mrr_at_k(run, qrels, 10).mean == pytest.approx(1 / 3)


def test_mrr_relevant_beyond_cutoff_scores_zero():
    qrels = QrelSet({("q1", "deep"): 1})
    ranking = [(f"d{i}", float(100 - i)) for i in range(10)] + [("deep", 1.0)]
    assert mrr_at_k(run_of({"q1": ranking}), qrels, 10).mean == 0.0


def test_mrr_query_missing_from_run_scores_zero():
    qrels = QrelSet({("q1", "d1"): 1, ("q2", "d2"): 1})
    run = run_of({"q1": [("d1", 1.0)]})  # q2 retrieved nothing
    report = mrr_at_k(run, qrels, 10)
    assert report.per_query == {"q1": 1.0, "q2": 0.0}
    assert report.mean == 0.5


def test_mrr_unjudged_run_query_excluded_and_reported():
    qrels = QrelSet({("q1", "d1"): 1})
    run = run_of({"q1": [("d1", 2.0)], "stray": [("d9", 1.0)]})
    report = mrr_at_k(run, qrels, 10)
    assert report.mean == 1.0
    assert report.excluded == ["stray"]


def test_mrr_no_judged_queries_rejected():
    with pytest.raises(ValueError):
        mrr_at_k(run_of({"q1": [("d1", 1.0)]}), QrelSet({("q1", "d1"): 0}), 10)


# ---------------------------------------------------------------- ndcg

def test_ndcg_single_relevant_at_rank_one():
    qrels = QrelSet({("q1", "d1"): 1})
    run = run_of({"q1": [("d1", 2.0), ("d2", 1.0)]})
    assert ndcg_at_k(run, qrels, 10).mean == pytest.approx(1.0)


def test_ndcg_single_relevant_at_rank_three():
    qrels = QrelSet({("q1", "d3"): 1})
    run = run_of({"q1": [("d1", 3.0), ("d2", 2.0), ("d3", 1.0)]})
    assert ndcg_at_k(run, qrels, 10).mean == pytest.approx(0.5)  # 1/log2(4)


def test_ndcg_two_relevants_perfect_order():
    qrels = QrelSet({("q1", "d1"): 1, ("q1", "d2"): 1})
    run = run_of({"q1": [("d1", 2.0), ("d2", 1.0)]})
    assert ndcg_at_k(run, qrels, 10).mean == pytest.approx(1.0)


def test_ndcg_graded_ideal_ordering():
    # grade-3 doc placed below grade-1 doc: DCG < IDCG
    qrels = QrelSet({("q1", "lo"): 1, ("q1", "hi"): 3})
    run = run_of({"q1": [("lo", 2.0), ("hi", 1.0)]})
    dcg = 1 / math.log2(2) + 3 / math.log2(3)
    idcg = 3 / math.log2(2) + 1 / math.log2(3)
    assert ndcg_at_k(run, qrels, 10).mean == pytest.approx(dcg / idcg)


def test_ndcg_never_exceeds_one():
    qrels = QrelSet({("q1", "a"): 2, ("q1", "b"): 1, ("q2", "c"): 1})
    run = run_of({"q1": [("a", 3.0), ("b", 2.0), ("x", 1.0)],
                  "q2": [("y", 2.0), ("c", 1.0)]})
    report = ndcg_at_k(run, qrels, 10)
    assert all(v <= 1.0 + 1e-12 for v in report.per_query.values())


# ---------------------------------------------------------------- recall

def test_recall_all_found():
    qrels = QrelSet({("q1", f"d{i}"): 1 for i in range(3)})
    run = run_of({"q1": [(f"d{i}", float(9 - i)) for i in range(3)]})
    assert recall_at_k(run, qrels, 100).mean == 1.0


def test_recall_half_found():
    qrels = QrelSet({("q1", f"d{i}"): 1 for i in range(4)})
    run = run_of({"q1": [("d0", 3.0), ("d1", 2.0), ("x", 1.0)]})
    assert recall_at_k(run, qrels, 100).mean == 0.5


def test_recall_none_found():
    qrels = QrelSet({("q1", "d1"): 1})
    run = run_of({"q1": [("x", 2.0), ("y", 1.0)]})
    assert recall_at_k(run, qrels, 100).mean == 0.0


def test_recall_respects_cutoff():
    qrels = QrelSet({("q1", "deep"): 1})
    ranking = [(f"d{i}", float(10 - i)) for i in range(5)] + [("deep", 0.5)]
    assert recall_at_k(run_of({"q1": ranking}), qrels, 5).mean == 0.0
    assert recall_at_k(run_of({"q1": ranking}), qrels, 6).mean == 1.0


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
    assert ndcg_at_k(run, qrels, 10).mean == pytest.approx(1.0)


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
    mrr = mrr_at_k(run, qrels, 10)
    assert mrr.per_query == {"q1": 1.0, "q2": pytest.approx(1 / 3), "q3": 1.0,
                             "q4": 0.0, "q5": 0.0}
    assert mrr.mean == pytest.approx((1 + 1 / 3 + 1 + 0 + 0) / 5, abs=1e-9)

    ndcg = ndcg_at_k(run, qrels, 10)
    q3 = (1 / math.log2(2) + 2 / math.log2(3)) / (2 / math.log2(2) + 1 / math.log2(3))
    assert ndcg.per_query["q3"] == pytest.approx(q3, abs=1e-9)
    assert ndcg.mean == pytest.approx((1.0 + 0.5 + q3 + 0.0 + 0.0) / 5, abs=1e-9)

    recall = recall_at_k(run, qrels, 100)
    assert recall.mean == pytest.approx((1 + 1 + 1 + 0 + 0) / 5, abs=1e-9)


def test_compute_metric_unknown_id():
    with pytest.raises(ValueError, match="unknown metric"):
        compute_metric(run_of({}), QrelSet({("q", "d"): 1}), "map", 10)


def test_metric_report_json():
    report = MetricReport("mrr", 10, {"q1": 1.0}, 1.0, excluded=["s"])
    text = report.to_json()
    assert '"mean": 1.0' in text and '"num_excluded": 1' in text


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


def test_empty_ranking_query_simply_absent(tmp_path):
    run = RunFile("t", {"q1": [("d1", 1.0)], "q2": []})
    path = tmp_path / "r.trec"
    write_run(run, path)
    loaded = read_run(path)
    assert "q2" not in loaded.rankings  # nothing retrieved, nothing written


# ---------------------------------------------------------------- table

def test_format_metric_table_alignment():
    rows = {"bm25": {"mrr@10": 0.5, "ndcg@10": 0.6},
            "hybrid": {"mrr@10": 0.75}}
    table = format_metric_table(rows)
    lines = table.splitlines()
    assert "mrr@10" in lines[0] and "ndcg@10" in lines[0]
    assert lines[1].startswith("bm25")
    assert "0.7500" in lines[2] and lines[2].rstrip().endswith("-")
