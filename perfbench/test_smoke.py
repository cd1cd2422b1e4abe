"""Toy-size smoke test of the benchmark harness.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at toy size through ``run.main``, untraced and traced, and
checks that each metric BENCHMARK.json names is emitted with its unit, that
the stage times add up to the traced run, that a failed output check makes
the run exit non-zero, and that a probe whose target is gone is reported
absent.
"""

import dataclasses
import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets BLAS threads, then imports the program)

run._import_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from hybridrank.reranker import RerankTrainConfig  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
    BENCHMARK = json.load(f)

TOY_SPEC = dict(n_passages=300, n_train_queries=60, n_test_queries=40,
                synonym_table_size=60)


def _toy(w: workloads.Workload) -> workloads.Workload:
    experiment = (None if w.experiment is None
                  else {**w.experiment, "reranker": RerankTrainConfig(steps=20)})
    return dataclasses.replace(w, spec=TOY_SPEC, experiment=experiment,
                               build=w.build and workloads.ServeBuild(20, 30, 20, 30),
                               setup_repeats=2)


@pytest.fixture
def toy(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS",
                        {name: _toy(w) for name, w in workloads.WORKLOADS.items()})
    monkeypatch.setattr(run, "RESULTS", str(tmp_path / "results"))
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))


def _main(workload: str, trace: int):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(toy, workload, trace):
    code, line = _main(workload, trace)
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert line["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    if trace and workload != "serve-20k":
        values = {k: v["value"] for k, v in line["metrics"].items()}
        stages = sum(v for k, v in values.items() if k.startswith("stage."))
        assert stages + values["pipeline.self_s"] == pytest.approx(
            values["pipeline.run_s"], abs=1e-6)


def test_same_seed_gives_identical_output_hashes(toy):
    hashes = []
    for _ in range(2):
        assert _main("pipeline-2k", 0)[0] == 0
        with open(os.path.join(run.RESULTS, "pipeline-2k-seed3-trace0.json")) as f:
            hashes.append(json.load(f)["hashes"])
    assert "manifest.json" in hashes[0] and hashes[0] == hashes[1]


def test_failed_check_exits_nonzero(toy, monkeypatch):
    def reject(*args):
        raise checks.CheckFailed("rejected by the test")
    monkeypatch.setattr(checks, "check_served_query", reject)
    code, line = _main("serve-20k", 0)
    assert code == 1 and not line["correct"] and line["failed"] >= 1


def test_missing_probe_target_is_reported_absent():
    from layers import layer_metrics
    from tracing import Probe, Probes, Tracer
    probes = Probes(Tracer(), probes=(Probe("bm25.scores", "bm25:Bm25Index.no_such"),
                                      Probe("results.top_k", "results:top_k_order")))
    assert probes.absent == ["bm25.scores"]
    metrics, missing = layer_metrics([], {}, probes.absent)
    assert missing == ["bm25.scores_calls", "bm25.scores_ms"]
    assert "bm25.scores_ms" not in metrics and "results.top_k_ms" in metrics
