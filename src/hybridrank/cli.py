"""Command-line front end over the pipeline.

Commands:

- ``make-synth``: write a synthetic corpus with train/test queries and qrels.
- ``run``: the full pipeline from a JSON experiment config: the first stages
  and the one (training source, first stage) cell the config names.
- ``ablate``: every cell of the same experiment, rows by reranker training
  source (none, bm25, de, hybrid, mixed) and columns by first stage.
- ``eval``: score a TREC run file against qrels.

Exit code 0 only on success; tables go to stdout and JSON artifacts to files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .corpus import load_qrels
from .evaluation import format_metric_table, read_run, reported_metrics
from .npzio import write_json
from .pipeline import ablation_matrix, load_config, run_experiment
from .synthetic import SyntheticCorpusSpec, make_synthetic_corpus, save_synthetic_data


def _cmd_make_synth(args) -> int:
    spec = SyntheticCorpusSpec(
        n_passages=args.n_passages, n_train_queries=args.train_queries,
        n_test_queries=args.test_queries, synonym_table_size=args.synonym_table,
        lexical_fraction=args.lexical_fraction, seed=args.seed)
    paths = save_synthetic_data(make_synthetic_corpus(spec), args.out)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def _experiment_config(args):
    config = load_config(args.config)
    if args.workdir:
        config = replace(config, workdir=args.workdir)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _cmd_run(args) -> int:
    report = run_experiment(_experiment_config(args))
    print(f"lambda = {report['lambda']}")
    print(format_metric_table(report["metrics"]))
    return 0


def _cmd_ablate(args) -> int:
    report = ablation_matrix(_experiment_config(args))
    print(f"lambda = {report['lambda']}")
    for name, table in report["matrix"].items():
        print(f"\n{name} (rows: reranker training source; columns: first stage)")
        print(format_metric_table(table))
    return 0


def _cmd_eval(args) -> int:
    run = read_run(args.run)
    qrels = load_qrels(args.qrels)
    reports = reported_metrics(run, qrels)
    print(format_metric_table({run.run_tag: {name: r.mean for name, r in reports.items()}}))
    excluded = reports["mrr@10"].excluded
    if excluded:
        print(f"excluded (no judged-relevant passage): {len(excluded)}")
    if args.json:
        write_json({"run_tag": run.run_tag,
                    "metrics": {n: r.mean for n, r in reports.items()},
                    "per_query": {n: dict(sorted(r.per_query.items()))
                                  for n, r in reports.items()},
                    "excluded": excluded}, args.json)
    return 0


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--workdir", help="override the config workdir")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridrank",
        description="Hybrid sparse+dense retrieval with a trained reranker.")
    sub = parser.add_subparsers(dest="command", required=True)

    spec = SyntheticCorpusSpec()
    p = sub.add_parser("make-synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-passages", type=int, default=spec.n_passages)
    p.add_argument("--train-queries", type=int, default=spec.n_train_queries)
    p.add_argument("--test-queries", type=int, default=spec.n_test_queries)
    p.add_argument("--synonym-table", type=int, default=spec.synonym_table_size)
    p.add_argument("--lexical-fraction", type=float, default=spec.lexical_fraction)
    p.add_argument("--seed", type=int, default=spec.seed)
    p.set_defaults(func=_cmd_make_synth)

    p = sub.add_parser("run", help="full pipeline from a JSON config")
    _add_experiment_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ablate", help="every (reranker training source, first stage) "
                       "cell: rows none, bm25, de, hybrid and mixed")
    _add_experiment_flags(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("eval", help="score a run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--json", help="also write the report, per-query values included")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
