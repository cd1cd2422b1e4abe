"""Summary math of tools/bench_pairs.py, the parent/change pair runner."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("2001-2004") == [2001, 2002, 2003, 2004]
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("5-3")


def test_quartiles_interpolate_linearly():
    # numpy.percentile's default: position q * (n - 1) between order statistics
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == [2.0, 3.0, 4.0]
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == [1.75, 2.5, 3.25]
    assert bench_pairs.quartiles([126.3125, 125.9102]) == pytest.approx(
        [126.010775, 126.11135, 126.211925])
    assert bench_pairs.quartiles([9.0]) == [9.0, 9.0, 9.0]


def test_summarize_metric_lower_is_better():
    pairs = [(1, 10.0, 8.0), (2, 12.0, 9.0), (3, 11.0, 11.5), (4, 13.0, 9.0)]
    s = bench_pairs.summarize_metric(pairs, "lower", 0.15)
    assert s == {"bound": 0.15,
                 "parent_quartiles": [10.75, 11.5, 12.25],
                 "change_quartiles": [8.75, 9.0, 9.625],
                 "parent_iqr": 1.5,
                 "median_gap": 2.5,
                 "change_over_parent": round(9.0 / 11.5, 4),
                 "change_better_pairs": 3,
                 "within_bound": True,
                 "unresolved": False}


def test_summarize_metric_higher_is_better_and_ties_count_for_neither():
    pairs = [(1, 2.0, 3.0), (2, 2.0, 2.0), (3, 4.0, 1.0)]
    s = bench_pairs.summarize_metric(pairs, "higher", 0.25)
    assert s["median_gap"] == 0.0 and s["change_better_pairs"] == 1
    assert s["change_over_parent"] == 1.0
    # the parent's IQR (1.0) is wider than 0.25 of its median (2.0): a median
    # inside the bound is unresolved, unless every change run beats every
    # parent run
    assert s["within_bound"] and s["unresolved"]
    s = bench_pairs.summarize_metric([(1, 2.0, 5.0), (2, 2.0, 6.0), (3, 4.0, 4.5)],
                                     "higher", 0.25)
    assert s["within_bound"] and not s["unresolved"]
    s = bench_pairs.summarize_metric([(1, 2.0, 1.0), (2, 2.0, 1.5), (3, 2.2, 1.0)],
                                     "higher", 0.25)
    assert not s["within_bound"] and not s["unresolved"]


def _record(peak, run_s, lam=50.0, hashes=None, failed=0, served=None):
    record = {"metrics": {"peak_rss_mb": {"value": peak}, "run_s": {"value": run_s}},
              "failed": failed, "lambda": lam,
              "hashes": hashes if hashes is not None else {"run.trec": "ab", "manifest.json": "cd"}}
    if served is not None:
        record["recorded"] = {"serve_qps": {"value": 700.0, "samples": served}}
    return record


def test_summarize_block_records_equality_and_served_counts():
    metrics = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
               {"name": "run_s", "better": "lower", "bound": 0.25}]
    records = [(11, _record(100.0, 4.0, served=2100), _record(90.0, 4.2, served=2050)),
               (12, _record(101.0, 4.4, served=2200),
                _record(91.0, 4.1, lam=30.0, hashes={"run.trec": "xx", "manifest.json": "cd"},
                        failed=1, served=1990))]
    block = bench_pairs.summarize(records, metrics)
    assert block["pairs"] == 2
    assert block["metrics"]["peak_rss_mb"]["median_gap"] == 10.0
    assert block["metrics"]["peak_rss_mb"]["change_better_pairs"] == 2
    assert block["metrics"]["run_s"]["change_better_pairs"] == 1
    assert block["per_pair"]["run_s"] == [[11, 4.0, 4.2], [12, 4.4, 4.1]]
    assert block["equal_per_pair"] == [[11, True, True], [12, False, False]]
    assert block["all_hashes_equal"] is False and block["lambda_equal"] is False
    assert block["differing_files_per_pair"] == [[11, []], [12, ["run.trec"]]]
    assert block["differing_files"] == ["run.trec"]
    assert block["failed"] == {"parent": 0, "change": 1}
    assert block["served_per_pair"] == [[11, 2100, 2050], [12, 2200, 1990]]
    assert "served_per_pair" not in bench_pairs.summarize(
        [(1, _record(1.0, 1.0), _record(1.0, 1.0))], metrics)


def test_differing_names_each_file_whose_hash_moved_or_is_on_one_side():
    parent = {"run.trec": "ab", "manifest.json": "cd", "served.trec": "ef"}
    change = {"run.trec": "ab", "manifest.json": "xx", "extra.trec": "gh"}
    assert bench_pairs.differing(parent, change) == \
        ["extra.trec", "manifest.json", "served.trec"]
    assert bench_pairs.differing(parent, dict(parent)) == []
    # a pair where only the manifest moved still counts as not all equal
    metrics = [{"name": "run_s", "better": "lower", "bound": 0.25}]
    moved = {"run.trec": "ab", "manifest.json": "xx"}
    block = bench_pairs.summarize([(3, _record(1.0, 1.0), _record(1.0, 1.0, hashes=moved))],
                                  metrics)
    assert block["differing_files_per_pair"] == [[3, ["manifest.json"]]]
    assert block["differing_files"] == ["manifest.json"]
    assert block["equal_per_pair"] == [[3, False, True]]


def test_a_run_without_a_result_is_listed_and_the_other_pairs_are_kept(tmp_path,
                                                                      monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "perfbench" / "results").mkdir(parents=True)
    (change / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25}]}))

    def fake_run(checkout, workload, seed, seconds):
        # the change's run on seed 2 dies before it writes its result
        if checkout == str(change) and seed == 2:
            return
        path = os.path.join(checkout, "perfbench", "results", f"w-seed{seed}-trace0.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(_record(1.0, float(seed)), f)

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "all", "--seeds", "1-3", "--label", "x"]) == 1
    block = json.loads((tmp_path / "BENCH_x.json").read_text())["end_to_end"]["w"]
    assert block["missing_runs"] == [[2, "change"]]
    assert block["pairs"] == 2
    assert block["per_pair"]["run_s"] == [[1, 1.0, 1.0], [3, 3.0, 3.0]]
