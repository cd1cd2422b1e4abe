"""The command-line front end: make-synth -> run -> ablate -> eval on a toy corpus."""

import json

import pytest

from hybridrank.cli import main


def _write_config(data, path, workdir):
    config = {
        "corpus": str(data / "corpus.jsonl"),
        "train_queries": str(data / "train_queries.tsv"),
        "test_queries": str(data / "test_queries.tsv"),
        "train_qrels": str(data / "train_qrels.txt"),
        "test_qrels": str(data / "test_qrels.txt"),
        "workdir": str(workdir),
        "de": {"epochs": 2, "batch_size": 4, "dim": 16},
        "reranker": {"steps": 20, "batch_size": 4, "learning_rate": 0.05},
        "window": {"skip": 0, "depth": 20, "n_negatives": 6},
        "lambda_grid": [0.0, 50.0, 300.0],
        "run_depth": 30,
        "rerank_top_k": 10,
    }
    path.write_text(json.dumps(config))


def test_make_synth_run_ablate_eval(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["make-synth", "--out", str(data), "--n-passages", "60",
                 "--train-queries", "12", "--test-queries", "8", "--seed", "2"]) == 0
    for name in ("corpus.jsonl", "train_queries.tsv", "test_queries.tsv",
                 "train_qrels.txt", "test_qrels.txt"):
        assert (data / name).stat().st_size > 0
    assert len((data / "corpus.jsonl").read_text().splitlines()) == 60

    config = tmp_path / "config.json"
    _write_config(data, config, tmp_path / "unused")
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config), "--workdir", str(run_dir),
                 "--seed", "4"]) == 0
    assert json.loads((run_dir / "config.json").read_text())["seed"] == 4
    manifest = json.loads((run_dir / "manifest.json").read_text())["files"]
    for name in ("run_bm25_test.trec", "run_de_test.trec", "run_hybrid_test.trec",
                 "run_rerank_hybrid_on_bm25.trec", "reranker_hybrid.npz",
                 "lambda.json", "metrics.json"):
        assert name in manifest
    assert "lambda = " in capsys.readouterr().out

    ablate_dir = tmp_path / "ablate"
    assert main(["ablate", "--config", str(config), "--workdir", str(ablate_dir)]) == 0
    ablation = json.loads((ablate_dir / "ablation.json").read_text())
    assert set(ablation["matrix"]["mrr"]) == {"none", "bm25", "de", "hybrid"}
    assert set(ablation["mixed"]) == {"bm25", "de", "hybrid"}
    assert "ablation.json" in json.loads((ablate_dir / "manifest.json").read_text())["files"]

    report_path = tmp_path / "eval.json"
    assert main(["eval", "--run", str(run_dir / "run_hybrid_test.trec"),
                 "--qrels", str(data / "test_qrels.txt"),
                 "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["run_tag"] == "hybrid"
    metrics = json.loads((run_dir / "metrics.json").read_text())["hybrid"]
    assert report["metrics"] == metrics
    assert set(report["per_query"]["mrr@10"]) == set(
        line.split()[0] for line in (data / "test_qrels.txt").read_text().splitlines())


@pytest.mark.parametrize("argv", [["--help"], ["make-synth", "--help"], ["run", "--help"],
                                  ["ablate", "--help"], ["eval", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_bad_config_path_returns_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
